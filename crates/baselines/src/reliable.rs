//! Shared sender machinery for the baseline hosts.
//!
//! Every baseline host draws its RPCs from a [`WorkloadGen`], numbers its
//! messages and packets, and logs what finished; [`Sender`] is that
//! skeleton. The sender-driven baselines (pFabric, QJump, D3, PDQ) also
//! track outgoing messages the same way — segmentation, per-packet ACKs,
//! timeout retransmission — and differ only in *when* and *at what
//! priority* the next segment may leave. [`OutMsg`] is that common
//! bookkeeping.

use crate::workgen::{NextRpc, WorkloadGen};
use crate::BaselineCompletion;
use aequitas_netsim::{FlowKey, HostAgent, HostCtx, HostId, Packet, PacketKind};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_workloads::Priority;
use std::collections::HashMap;

/// Idealized header bytes (matches the main transport).
pub const HEADER_BYTES: u32 = aequitas_netsim::packet::HEADER_BYTES;

/// Timer token of a host's next workload arrival; every baseline host
/// numbers its own timers from 2.
pub(crate) const ARRIVAL_TIMER: u64 = 1;

/// A host's packet-id counter and the control packets stamped from it. Ids
/// start at `host << 40`, so they are unique fabric-wide.
pub(crate) struct PacketIds {
    /// The stamping host.
    pub(crate) host: HostId,
    next: u64,
}

impl PacketIds {
    /// The next packet id.
    pub(crate) fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// A control packet to `dst`: ACK-sized, on class 0, rank 0.
    pub(crate) fn ctrl(&mut self, dst: HostId, kind: u8, a: u64, b: u64, now: SimTime) -> Packet {
        Packet {
            id: self.next_id(),
            flow: FlowKey {
                src: self.host,
                dst,
                class: 0,
            },
            size_bytes: aequitas_netsim::packet::ACK_BYTES,
            kind: PacketKind::Ctrl { kind, a, b },
            sent_at: now,
            rank: 0,
        }
    }
}

/// The sender skeleton every baseline host shares: the workload stream and
/// its one pending arrival, message and packet ids, the completion log and
/// the bytes offered per class.
pub struct Sender {
    /// Packet ids and control packets.
    pub(crate) ids: PacketIds,
    /// Completions (including terminations) so far.
    pub(crate) completions: Vec<BaselineCompletion>,
    gen: Option<WorkloadGen>,
    /// The next RPC, its `at` clamped to when its timer was armed.
    pending_arrival: Option<NextRpc>,
    next_msg_id: u64,
    offered: [u64; 3],
}

impl Sender {
    /// The skeleton of `host`; `gen: None` for pure receivers.
    pub(crate) fn new(host: HostId, gen: Option<WorkloadGen>) -> Self {
        Sender {
            ids: PacketIds {
                host,
                next: (host.0 as u64) << 40,
            },
            completions: Vec::new(),
            gen,
            pending_arrival: None,
            next_msg_id: (host.0 as u64) << 32,
            offered: [0; 3],
        }
    }

    /// Draw the next RPC and arm [`ARRIVAL_TIMER`] for it, unless one is
    /// already pending or the stream has ended.
    pub(crate) fn schedule_arrival(&mut self, ctx: &mut HostCtx) {
        if self.pending_arrival.is_some() {
            return;
        }
        if let Some(rpc) = self.gen.as_mut().and_then(WorkloadGen::next_rpc) {
            let at = rpc.at.max(ctx.now());
            self.pending_arrival = Some(NextRpc { at, ..rpc });
            ctx.set_timer(at, ARRIVAL_TIMER);
        }
    }

    /// The pending RPC if it is due at `now`, issued under a fresh message
    /// id. The caller sets the message up, then calls
    /// [`Sender::schedule_arrival`].
    pub(crate) fn due(&mut self, now: SimTime) -> Option<(u64, NextRpc)> {
        let rpc = self.pending_arrival.take_if(|rpc| rpc.at <= now)?;
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.offered[rpc.qos as usize] += rpc.size_bytes;
        Some((id, rpc))
    }

    /// Completions (including terminations) so far.
    pub fn completions(&self) -> &[BaselineCompletion] {
        &self.completions
    }

    /// Payload bytes issued so far, per QoS class.
    pub fn offered(&self) -> [u64; 3] {
        self.offered
    }
}

/// A baseline host: a [`HostAgent`] built on the shared [`Sender`].
pub trait BaselineHost: HostAgent {
    /// The host's sender skeleton.
    fn sender(&self) -> &Sender;
}

/// An in-progress outgoing message.
#[derive(Debug, Clone)]
pub struct OutMsg {
    /// Sender-unique message id.
    pub msg_id: u64,
    /// Destination.
    pub dst: HostId,
    /// Fabric QoS class the message's packets travel on.
    pub qos: u8,
    /// Application priority.
    pub priority: Priority,
    /// Payload bytes.
    pub size_bytes: u64,
    /// Number of segments.
    pub total_segs: u32,
    /// Next never-sent segment.
    pub next_seg: u32,
    /// Segments acknowledged.
    pub acked: u32,
    /// Issue time.
    pub issued_at: SimTime,
    /// Optional deadline (D3/PDQ).
    pub deadline: Option<SimTime>,
    /// Outstanding segments: seq → last transmission time.
    pub unacked: HashMap<u32, SimTime>,
    mtu: u64,
}

impl OutMsg {
    /// Create message `msg_id` for `rpc`, segmented at `mtu`.
    pub fn new(
        msg_id: u64,
        rpc: &NextRpc,
        mtu: u64,
        issued_at: SimTime,
        deadline: Option<SimTime>,
    ) -> Self {
        OutMsg {
            msg_id,
            dst: HostId(rpc.dst),
            qos: rpc.qos,
            priority: rpc.priority,
            size_bytes: rpc.size_bytes,
            total_segs: rpc.size_bytes.div_ceil(mtu).max(1) as u32,
            next_seg: 0,
            acked: 0,
            issued_at,
            deadline,
            unacked: HashMap::new(), // det: expired() sorts before returning; otherwise keyed
            mtu,
        }
    }

    /// Unacknowledged bytes (the pFabric rank).
    pub fn remaining_bytes(&self) -> u64 {
        self.size_bytes
            .saturating_sub(self.acked as u64 * self.mtu)
            .max(1)
    }

    /// Bytes never transmitted (excludes in-flight segments).
    pub fn unsent_bytes(&self) -> u64 {
        self.size_bytes
            .saturating_sub(self.next_seg as u64 * self.mtu)
    }

    /// Payload bytes of segment `seq`.
    pub fn seg_bytes(&self, seq: u32) -> u32 {
        if seq + 1 < self.total_segs {
            self.mtu as u32
        } else {
            (self.size_bytes - (self.total_segs as u64 - 1) * self.mtu).max(1) as u32
        }
    }

    /// All segments transmitted at least once.
    pub fn fully_sent(&self) -> bool {
        self.next_seg >= self.total_segs
    }

    /// All segments acknowledged.
    pub fn done(&self) -> bool {
        self.acked >= self.total_segs
    }

    /// Outstanding (sent, unacked) segment count.
    pub fn inflight(&self) -> usize {
        self.unacked.len()
    }

    /// Build the data packet for `seq` with the given PIFO `rank`.
    pub fn data_packet(&self, packet_id: u64, seq: u32, rank: u64, now: SimTime, src: HostId) -> Packet {
        Packet {
            id: packet_id,
            flow: FlowKey {
                src,
                dst: self.dst,
                class: self.qos,
            },
            size_bytes: self.seg_bytes(seq) + HEADER_BYTES,
            kind: PacketKind::Data {
                msg_id: self.msg_id,
                seq,
                is_last: seq + 1 == self.total_segs,
            },
            sent_at: now,
            rank,
        }
    }

    /// Record a transmission.
    pub fn mark_sent(&mut self, seq: u32, now: SimTime) {
        self.unacked.insert(seq, now);
        if seq == self.next_seg {
            self.next_seg += 1;
        }
    }

    /// Record an ACK; returns `true` when the segment was newly acked.
    pub fn on_ack(&mut self, seq: u32) -> bool {
        if self.unacked.remove(&seq).is_some() {
            self.acked += 1;
            true
        } else {
            false
        }
    }

    /// Segments whose retransmission timer expired, in deterministic order.
    pub fn expired(&self, now: SimTime, rto: SimDuration) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .unacked
            .iter() // det: collected then sorted before return
            .filter(|&(_, &t)| now.saturating_since(t) >= rto)
            .map(|(&s, _)| s)
            .collect();
        v.sort_unstable();
        v
    }

    /// Turn this message into a completion record.
    pub fn completion(&self, now: SimTime, terminated: bool) -> BaselineCompletion {
        BaselineCompletion {
            priority: self.priority,
            qos: self.qos,
            size_bytes: self.size_bytes,
            issued_at: self.issued_at,
            completed_at: now,
            terminated,
        }
    }
}

/// Build the ACK for a received data packet (same QoS class, tiny size,
/// rank 0 so PIFO fabrics treat ACKs as highest priority).
pub fn ack_packet(receiver: HostId, data: &Packet, packet_id: u64, now: SimTime) -> Packet {
    let PacketKind::Data { msg_id, seq, .. } = data.kind else {
        panic!("ack_packet called on non-data packet");
    };
    Packet {
        id: packet_id,
        flow: FlowKey {
            src: receiver,
            dst: data.src(),
            class: data.flow.class,
        },
        size_bytes: aequitas_netsim::packet::ACK_BYTES,
        kind: PacketKind::Ack {
            msg_id,
            seq,
            echo: data.sent_at,
        },
        sent_at: now,
        rank: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(size: u64) -> OutMsg {
        let rpc = NextRpc {
            at: SimTime::ZERO,
            dst: 1,
            priority: Priority::PerformanceCritical,
            qos: 0,
            size_bytes: size,
        };
        OutMsg::new(1, &rpc, 4096, SimTime::ZERO, None)
    }

    #[test]
    fn segmentation_math() {
        let m = msg(10_000);
        assert_eq!(m.total_segs, 3);
        assert_eq!(m.seg_bytes(0), 4096);
        assert_eq!(m.seg_bytes(2), 10_000 - 8192);
        assert_eq!(msg(4096).total_segs, 1);
        assert_eq!(msg(1).total_segs, 1);
    }

    #[test]
    fn send_ack_lifecycle() {
        let mut m = msg(8192);
        assert!(!m.fully_sent());
        m.mark_sent(0, SimTime::ZERO);
        m.mark_sent(1, SimTime::ZERO);
        assert!(m.fully_sent() && !m.done());
        assert_eq!(m.inflight(), 2);
        assert!(m.on_ack(0));
        assert!(!m.on_ack(0)); // duplicate
        assert!(m.on_ack(1));
        assert!(m.done());
    }

    #[test]
    fn remaining_bytes_shrinks_with_acks() {
        let mut m = msg(12_288);
        assert_eq!(m.remaining_bytes(), 12_288);
        m.mark_sent(0, SimTime::ZERO);
        m.on_ack(0);
        assert_eq!(m.remaining_bytes(), 12_288 - 4096);
    }

    #[test]
    fn expiry_detection() {
        let mut m = msg(8192);
        m.mark_sent(0, SimTime::ZERO);
        m.mark_sent(1, SimTime::from_us(90));
        let rto = SimDuration::from_us(100);
        assert_eq!(m.expired(SimTime::from_us(100), rto), vec![0]);
        assert_eq!(m.expired(SimTime::from_us(200), rto), vec![0, 1]);
        // Retransmission refreshes the timer.
        m.mark_sent(0, SimTime::from_us(200));
        assert_eq!(m.expired(SimTime::from_us(250), rto), vec![1]);
    }

    #[test]
    fn ack_packet_reverses_flow() {
        let m = msg(4096);
        let data = m.data_packet(9, 0, 123, SimTime::from_us(5), HostId(0));
        let ack = ack_packet(HostId(1), &data, 10, SimTime::from_us(6));
        assert_eq!(ack.flow.src, HostId(1));
        assert_eq!(ack.flow.dst, HostId(0));
        assert_eq!(ack.flow.class, 0);
        match ack.kind {
            PacketKind::Ack { msg_id, seq, echo } => {
                assert_eq!((msg_id, seq), (1, 0));
                assert_eq!(echo, SimTime::from_us(5));
            }
            _ => panic!("not an ack"),
        }
    }
}
