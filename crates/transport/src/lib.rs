#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Reliable message transport with Swift-like congestion control.
//!
//! Aequitas "does not interfere with underlying congestion control" — it
//! sits above a transport that keeps fabric queues small and fully utilizes
//! available bandwidth. This crate provides that substrate, modelled on
//! Swift (Kumar et al., SIGCOMM 2020), the congestion control used in the
//! paper's simulator:
//!
//! * per-(src, dst, QoS) connections, each carrying an ordered stream of
//!   messages segmented into MTU-sized packets;
//! * delay-based AIMD: additive increase while RTT is under the target,
//!   multiplicative decrease proportional to the overshoot, at most once per
//!   RTT;
//! * pacing below one packet of congestion window (Swift's signature
//!   low-cwnd regime for large incasts);
//! * per-packet ACKs with timestamp echo for RTT measurement, and timeout
//!   retransmission for drops.
//!
//! The transport reports [`CompletedMessage`]s stamped with issue and
//! completion times; the RPC layer turns these into RPC Network Latency
//! (RNL) samples — `t0` is when the message entered the transport (so
//! sender-side queuing behind earlier messages and CC backoff are included,
//! per the paper's §2.2.1 definition).

pub mod config;
pub mod connection;
pub mod swift;

pub use config::TransportConfig;
pub use connection::ConnectionStats;
pub use swift::SwiftCc;

use aequitas_netsim::{FlowKey, HostCtx, HostId, Packet, PacketKind};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_telemetry::{Telemetry, TraceEvent};
use connection::Connection;

/// Timer tokens at or above this value belong to the transport; the RPC
/// layer must route them to [`Transport::handle_timer`].
pub const TRANSPORT_TIMER_BASE: u64 = 1 << 62;

/// QoS classes per destination in the dense connection index. The paper's
/// configurations use at most 5 classes (fig. 19 sweeps up to 8 SPQ levels);
/// 16 leaves headroom without bloating the table.
const CLASS_SLOTS: usize = 16;

/// Sentinel for "no connection" in the dense index.
const NO_CONN: u32 = u32::MAX;

/// A message fully delivered and acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedMessage {
    /// Connection the message ran on.
    pub flow: FlowKey,
    /// Sender-unique message id.
    pub msg_id: u64,
    /// When the message was handed to the transport (RNL `t0`).
    pub issued_at: SimTime,
    /// When the last byte's ACK was processed (RNL `t1`).
    pub completed_at: SimTime,
    /// Payload size in bytes.
    pub size_bytes: u64,
}

impl CompletedMessage {
    /// The RPC Network Latency of this message.
    pub fn rnl(&self) -> SimDuration {
        self.completed_at.since(self.issued_at)
    }
}

/// A message abandoned after exhausting its retransmission budget
/// ([`TransportConfig::max_retries`]), e.g. across a link outage longer than
/// the backed-off RTO schedule tolerates. The RPC layer decides whether to
/// re-issue it within the caller's deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedMessage {
    /// Connection the message ran on.
    pub flow: FlowKey,
    /// Sender-unique message id.
    pub msg_id: u64,
    /// When the message was handed to the transport.
    pub issued_at: SimTime,
    /// When the transport gave up on it.
    pub failed_at: SimTime,
    /// Payload size in bytes.
    pub size_bytes: u64,
}

/// Sender+receiver transport state for one host.
pub struct Transport {
    host: HostId,
    config: TransportConfig,
    /// Live connections in creation order. Iterating this (rather than a
    /// hash map) keeps retransmission scans deterministic across runs and
    /// allocation-free.
    conns: Vec<Connection>,
    /// Dense (dst, class) -> index into `conns`; `NO_CONN` = absent. Grown
    /// on demand to `(dst + 1) * CLASS_SLOTS` entries.
    conn_index: Vec<u32>,
    completions: Vec<CompletedMessage>,
    failures: Vec<FailedMessage>,
    /// Scratch buffer reused by [`Transport::handle_timer`] scans.
    expired_scratch: Vec<(u64, u32, bool)>,
    retx_timer_armed: bool,
    /// Earliest outstanding pacing wakeup; dedupes wakeups so that pumping
    /// many paced connections cannot multiply timers.
    next_pace_wake: SimTime,
    next_packet_id: u64,
    telemetry: Telemetry,
    /// Interned handle for `transport.retransmits`; registered on first
    /// retransmission so slot creation matches the old string-keyed path.
    retransmits_id: Option<aequitas_telemetry::MetricId>,
}

impl Transport {
    /// Create the transport endpoint for `host`.
    pub fn new(host: HostId, config: TransportConfig) -> Self {
        Transport {
            host,
            config,
            conns: Vec::new(),
            conn_index: Vec::new(),
            completions: Vec::new(),
            failures: Vec::new(),
            expired_scratch: Vec::new(),
            retx_timer_armed: false,
            next_pace_wake: SimTime::MAX,
            next_packet_id: (host.0 as u64) << 40,
            telemetry: Telemetry::disabled(),
            retransmits_id: None,
        }
    }

    /// Attach a telemetry handle; cwnd updates and retransmissions are
    /// emitted through it. Telemetry never alters transport behaviour.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn slot(flow: &FlowKey) -> usize {
        debug_assert!((flow.class as usize) < CLASS_SLOTS);
        flow.dst.0 * CLASS_SLOTS + flow.class as usize
    }

    fn conn_idx(&self, flow: &FlowKey) -> Option<usize> {
        match self.conn_index.get(Self::slot(flow)) {
            Some(&idx) if idx != NO_CONN => Some(idx as usize),
            _ => None,
        }
    }

    fn conn_idx_or_insert(&mut self, flow: FlowKey) -> usize {
        let slot = Self::slot(&flow);
        if slot >= self.conn_index.len() {
            self.conn_index.resize(slot + CLASS_SLOTS, NO_CONN);
        }
        if self.conn_index[slot] == NO_CONN {
            self.conn_index[slot] = self.conns.len() as u32;
            self.conns.push(Connection::new(flow, &self.config));
        }
        self.conn_index[slot] as usize
    }

    /// Enqueue a message for transmission to `dst` on QoS `class`.
    ///
    /// `msg_id` must be unique per sending host. The current time becomes the
    /// message's RNL `t0`.
    pub fn send_message(
        &mut self,
        ctx: &mut HostCtx,
        dst: HostId,
        class: u8,
        msg_id: u64,
        size_bytes: u64,
    ) {
        let flow = FlowKey {
            src: self.host,
            dst,
            class,
        };
        let mtu = self.config.mtu_bytes;
        let idx = self.conn_idx_or_insert(flow);
        self.conns[idx].enqueue_message(msg_id, size_bytes, mtu, ctx.now());
        self.pump(ctx, idx);
        self.arm_retx_timer(ctx);
    }

    /// Handle an incoming packet. Returns `true` when the packet was a
    /// transport packet (Data/Ack); `Ctrl` packets are left to the caller.
    pub fn handle_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) -> bool {
        match pkt.kind {
            PacketKind::Data { msg_id, seq, .. } => {
                // Receiver side: acknowledge every data packet, echoing its
                // send timestamp. ACKs travel on the same QoS class.
                let ack_flow = FlowKey {
                    src: self.host,
                    dst: pkt.src(),
                    class: pkt.flow.class,
                };
                let id = self.alloc_packet_id();
                ctx.send(Packet {
                    id,
                    flow: ack_flow,
                    size_bytes: aequitas_netsim::packet::ACK_BYTES,
                    kind: PacketKind::Ack {
                        msg_id,
                        seq,
                        echo: pkt.sent_at,
                    },
                    sent_at: ctx.now(),
                    rank: 0,
                });
                true
            }
            PacketKind::Ack { msg_id, seq, echo } => {
                // Sender side: the ACK's flow is (peer -> us); our connection
                // is the reverse.
                let flow = FlowKey {
                    src: self.host,
                    dst: pkt.src(),
                    class: pkt.flow.class,
                };
                if let Some(idx) = self.conn_idx(&flow) {
                    let rtt = ctx.now().saturating_since(echo);
                    let conn = &mut self.conns[idx];
                    if let Some(done) = conn.on_ack(msg_id, seq, rtt, ctx.now(), &self.config) {
                        self.completions.push(done);
                    }
                    if self.telemetry.is_enabled() {
                        let conn = &self.conns[idx];
                        let target = conn.cc.target(&self.config);
                        self.telemetry.emit(
                            ctx.now(),
                            TraceEvent::CwndUpdate {
                                host: self.host.0,
                                dst: flow.dst.0,
                                class: flow.class,
                                cwnd: conn.cc.cwnd(),
                                rtt_ps: rtt.as_ps(),
                                target_ps: target.as_ps(),
                                over_target: rtt > target,
                            },
                        );
                    }
                    self.pump(ctx, idx);
                }
                true
            }
            PacketKind::Ctrl { .. } => false,
        }
    }

    /// Handle a timer token. Returns `true` when the token belonged to the
    /// transport.
    pub fn handle_timer(&mut self, ctx: &mut HostCtx, token: u64) -> bool {
        if token < TRANSPORT_TIMER_BASE {
            return false;
        }
        if token == TRANSPORT_TIMER_BASE {
            self.retx_timer_armed = false;
        } else if ctx.now() >= self.next_pace_wake {
            self.next_pace_wake = SimTime::MAX;
        }
        // Retransmit expired packets and resume paced connections. Scanning
        // `conns` by index (creation order) keeps the retransmission order
        // identical across runs and avoids collecting keys into a fresh Vec.
        let mut expired = std::mem::take(&mut self.expired_scratch);
        let mut failures = std::mem::take(&mut self.failures);
        for idx in 0..self.conns.len() {
            let now = ctx.now();
            expired.clear();
            let failed_before = failures.len();
            self.conns[idx].take_expired(now, &self.config, &mut expired, &mut failures);
            if self.telemetry.is_enabled() {
                for f in &failures[failed_before..] {
                    self.telemetry.emit(
                        now,
                        TraceEvent::Warn {
                            component: "transport".into(),
                            // A message dies here at most once, after
                            // exhausting its retry budget.
                            message: format!(
                                "message {:#x} to host {} abandoned after {} retries",
                                f.msg_id, f.flow.dst.0, self.config.max_retries
                            ),
                        },
                    );
                }
            }
            for &(msg_id, seq, is_last) in &expired {
                self.transmit_segment(ctx, idx, msg_id, seq, is_last);
                if self.telemetry.is_enabled() {
                    let flow = self.conns[idx].flow;
                    self.telemetry.emit(
                        now,
                        TraceEvent::Retransmit {
                            host: self.host.0,
                            dst: flow.dst.0,
                            class: flow.class,
                            msg_id,
                            seq,
                        },
                    );
                    let host = self.host.0;
                    let cached = &mut self.retransmits_id;
                    self.telemetry.with_metrics(|m| {
                        let id = *cached.get_or_insert_with(|| {
                            m.counter_id(
                                "transport.retransmits",
                                aequitas_telemetry::labels(&[("host", &host.to_string())]),
                            )
                        });
                        m.counter_add_id(id, 1);
                    });
                }
            }
            self.pump(ctx, idx);
        }
        expired.clear();
        self.expired_scratch = expired;
        self.failures = failures;
        self.arm_retx_timer(ctx);
        true
    }

    /// Drain completed messages.
    pub fn take_completions(&mut self) -> Vec<CompletedMessage> {
        std::mem::take(&mut self.completions)
    }

    /// Drain messages abandoned after exhausting their retry budget.
    pub fn take_failures(&mut self) -> Vec<FailedMessage> {
        std::mem::take(&mut self.failures)
    }

    /// Congestion window of a connection (packets), if it exists.
    pub fn cwnd(&self, flow: &FlowKey) -> Option<f64> {
        self.conn_idx(flow).map(|i| self.conns[i].cc.cwnd())
    }

    /// Per-connection counters.
    pub fn connection_stats(&self, flow: &FlowKey) -> Option<ConnectionStats> {
        self.conn_idx(flow).map(|i| self.conns[i].stats())
    }

    /// Number of messages waiting (not yet fully sent) across connections.
    pub fn queued_messages(&self) -> usize {
        self.conns.iter().map(|c| c.pending_messages()).sum()
    }

    /// Sum of unacknowledged packets across connections.
    pub fn unacked_packets(&self) -> usize {
        self.conns.iter().map(|c| c.inflight()).sum()
    }

    fn alloc_packet_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    /// Send as many segments as window and pacing allow on connection `idx`.
    fn pump(&mut self, ctx: &mut HostCtx, idx: usize) {
        loop {
            let now = ctx.now();
            let decision = self.conns[idx].next_transmission(now, &self.config);
            match decision {
                connection::Transmit::Segment {
                    msg_id,
                    seq,
                    is_last,
                } => {
                    self.transmit_segment(ctx, idx, msg_id, seq, is_last);
                }
                connection::Transmit::PacedUntil(at) => {
                    // Wake up when pacing allows the next packet; keep at
                    // most one outstanding pacing wakeup.
                    if at < self.next_pace_wake {
                        self.next_pace_wake = at;
                        ctx.set_timer(at, TRANSPORT_TIMER_BASE + 1);
                    }
                    return;
                }
                connection::Transmit::Idle => return,
            }
        }
    }

    fn transmit_segment(
        &mut self,
        ctx: &mut HostCtx,
        idx: usize,
        msg_id: u64,
        seq: u32,
        is_last: bool,
    ) {
        let now = ctx.now();
        let id = self.alloc_packet_id();
        let conn = &mut self.conns[idx];
        let flow = conn.flow;
        let payload = conn.segment_bytes(msg_id, seq, self.config.mtu_bytes);
        conn.mark_sent(msg_id, seq, now, &self.config);
        ctx.send(Packet {
            id,
            flow,
            size_bytes: payload + aequitas_netsim::packet::HEADER_BYTES,
            kind: PacketKind::Data {
                msg_id,
                seq,
                is_last,
            },
            sent_at: now,
            rank: 0,
        });
    }

    fn arm_retx_timer(&mut self, ctx: &mut HostCtx) {
        if self.retx_timer_armed {
            return;
        }
        if self.conns.iter().any(|c| c.inflight() > 0 || c.pending_messages() > 0) {
            self.retx_timer_armed = true;
            ctx.set_timer(
                ctx.now() + self.config.retx_scan_interval,
                TRANSPORT_TIMER_BASE,
            );
        }
    }
}

#[cfg(test)]
mod tests;
