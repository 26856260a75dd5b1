//! Homa (Montazeri et al., SIGCOMM 2018): receiver-driven transport with
//! in-network SRPT priorities.
//!
//! Decision logic reproduced:
//!
//! * senders blast the first RTT of a message **unscheduled** at a priority
//!   chosen from the message's size (smaller → higher priority);
//! * receivers **grant** the rest one packet per received packet, assigning
//!   scheduled priorities by SRPT rank among their active incoming messages;
//! * the fabric is strict priority with 8 levels (grants/ACKs ride the top).
//!
//! Homa's SLO-blindness — small RPCs always win regardless of application
//! priority — is the property the paper's Fig. 22 comparison highlights.
//! Loss recovery is go-back-N from the receiver's cumulative received count
//! (grants carry it), which is sufficient at the simulated buffer sizes.

use crate::reliable::{BaselineHost, FlowTable, Sender, ARRIVAL_TIMER};
use crate::workgen::WorkloadGen;
use crate::BaselineCompletion;
use aequitas_netsim::{
    EngineConfig, FlowKey, HostAgent, HostCtx, HostId, Packet, PacketKind, SchedulerKind,
};
use aequitas_sim_core::{SimDuration, SimTime};

const RETX_TIMER: u64 = 2;

const CTRL_GRANT: u8 = 1;
const CTRL_DONE: u8 = 2;

/// Fabric levels Homa uses.
pub const HOMA_PRIORITIES: usize = 8;

/// Packets of the first RTT sent without a grant.
pub const UNSCHEDULED_SEGS: u32 = 4;

/// Receiver grant overcommit: only this many incoming messages hold active
/// grants at a time (SRPT order); the rest are paused. This is Homa's
/// bounded-overcommit scheduling and the mechanism behind its large-message
/// starvation under sustained load.
pub const GRANT_OVERCOMMIT: usize = 4;

/// Fabric configuration: 8-level strict priority.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        switch_scheduler: SchedulerKind::Spq(HOMA_PRIORITIES),
        host_scheduler: SchedulerKind::Spq(HOMA_PRIORITIES),
        switch_buffer_bytes: Some(2 << 20),
        host_buffer_bytes: Some(2 << 20),
        classes: HOMA_PRIORITIES,
        faults: None,
    }
}

/// Unscheduled priority from message size (class 0 reserved for control).
fn unscheduled_priority(total_segs: u32) -> u8 {
    match total_segs {
        0..=1 => 1,
        2..=4 => 2,
        5..=16 => 3,
        _ => 4,
    }
}

struct OutHoma {
    msg_id: u64,
    dst: HostId,
    qos: u8, // original bijective class, for scoring only
    priority: aequitas_workloads::Priority,
    size_bytes: u64,
    total_segs: u32,
    sent_upto: u32,    // next unsent seq
    granted_upto: u32, // exclusive grant limit
    confirmed: u32,    // receiver's cumulative received count
    sched_prio: u8,
    issued_at: SimTime,
    last_progress: SimTime,
}

impl OutHoma {
    /// Data packet `seq` from `src` on fabric level `prio`.
    fn data_packet(&self, id: u64, seq: u32, prio: u8, src: HostId, now: SimTime) -> Packet {
        let total = self.total_segs;
        let payload = if seq + 1 < total {
            4096
        } else {
            (self.size_bytes - (total as u64 - 1) * 4096).max(1) as u32
        };
        Packet {
            id,
            flow: FlowKey {
                src,
                dst: self.dst,
                class: prio,
            },
            size_bytes: payload + aequitas_netsim::packet::HEADER_BYTES,
            kind: PacketKind::Data {
                msg_id: self.msg_id,
                seq,
                is_last: seq + 1 == total,
            },
            sent_at: now,
            // Data packets carry the message's total segment count so the
            // receiver can size its grant state (Homa's header field).
            rank: total as u64,
        }
    }
}

struct InHoma {
    total_segs: u32,
    /// One bit per segment seq that has arrived.
    received: Vec<u64>,
    received_count: u32,
    granted_upto: u32,
    remaining_segs: u32,
}

impl InHoma {
    /// Record the arrival of `seq`; returns `true` the first time.
    fn receive(&mut self, seq: u32) -> bool {
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        if word >= self.received.len() {
            self.received.resize(word + 1, 0);
        }
        let fresh = self.received[word] & bit == 0;
        self.received[word] |= bit;
        self.received_count += fresh as u32;
        fresh
    }
}

/// A Homa host.
pub struct HomaHost {
    tx: Sender,
    /// Outgoing messages, by id.
    out: FlowTable<u64, OutHoma>,
    /// Incoming messages, by (src, msg_id).
    inc: FlowTable<(usize, u64), InHoma>,
    mtu: u64,
    rto: SimDuration,
    retx_armed: bool,
}

impl HomaHost {
    /// Create a host.
    pub fn new(host: HostId, gen: Option<WorkloadGen>) -> Self {
        HomaHost {
            tx: Sender::new(host, gen),
            out: FlowTable::new(),
            inc: FlowTable::new(),
            mtu: 4096,
            rto: SimDuration::from_us(500),
            retx_armed: false,
        }
    }

    /// Completions so far.
    pub fn completions(&self) -> &[BaselineCompletion] {
        self.tx.completions()
    }

    fn fire_arrival(&mut self, ctx: &mut HostCtx) {
        let now = ctx.now();
        if let Some((id, rpc)) = self.tx.due(now) {
            let total = rpc.size_bytes.div_ceil(self.mtu).max(1) as u32;
            let uns = unscheduled_priority(total);
            // Blast the unscheduled window.
            let first = total.min(UNSCHEDULED_SEGS);
            let m = OutHoma {
                msg_id: id,
                dst: HostId(rpc.dst),
                qos: rpc.qos,
                priority: rpc.priority,
                size_bytes: rpc.size_bytes,
                total_segs: total,
                sent_upto: first,
                granted_upto: first,
                confirmed: 0,
                sched_prio: uns,
                issued_at: now,
                last_progress: now,
            };
            for seq in 0..first {
                ctx.send(m.data_packet(self.tx.ids.next_id(), seq, uns, ctx.host(), now));
            }
            self.out.insert(id, m);
            self.tx.schedule_arrival(ctx);
        }
        self.arm_retx(ctx);
    }

    /// Receiver grant scheduler: rank incoming messages by remaining size
    /// and keep exactly the top [`GRANT_OVERCOMMIT`] granted one window
    /// ahead of what has arrived. Paused messages receive no grants until
    /// they enter the top set.
    fn regrant(&mut self, ctx: &mut HostCtx) {
        // The top messages by (remaining, key), ascending, with their
        // positions in `inc`: one pass, ranks are total (keys are unique).
        let mut top = [None; GRANT_OVERCOMMIT];
        for (at, (&key, m)) in self.inc.iter().enumerate() {
            let mut candidate = ((m.remaining_segs, key), at);
            for held in &mut top {
                if held.is_some_and(|h| h < candidate) {
                    continue;
                }
                match held.replace(candidate) {
                    Some(bumped) => candidate = bumped,
                    None => break,
                }
            }
        }
        for (rank, ((_, key), at)) in top.into_iter().flatten().enumerate() {
            let prio = (1 + rank.min(HOMA_PRIORITIES - 2)) as u8;
            let (_, entry) = self.inc.at_mut(at);
            let received = entry.received_count;
            let target = (received + UNSCHEDULED_SEGS).min(entry.total_segs);
            if target > entry.granted_upto {
                entry.granted_upto = target;
                let b = target as u64 | (prio as u64) << 16 | (received as u64) << 32;
                ctx.send(
                    self.tx
                        .ids
                        .ctrl(HostId(key.0), CTRL_GRANT, key.1, b, ctx.now()),
                );
            }
        }
    }

    fn arm_retx(&mut self, ctx: &mut HostCtx) {
        if !self.retx_armed && !self.out.is_empty() {
            self.retx_armed = true;
            ctx.set_timer(ctx.now() + self.rto / 2, RETX_TIMER);
        }
    }
}

impl BaselineHost for HomaHost {
    fn sender(&self) -> &Sender {
        &self.tx
    }
}

impl HostAgent for HomaHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.tx.schedule_arrival(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let now = ctx.now();
        match pkt.kind {
            PacketKind::Data { msg_id, seq, .. } => {
                let key = (pkt.src().0, msg_id);
                let total = pkt.rank as u32;
                let entry = self.inc.get_or_insert_with(key, || InHoma {
                    total_segs: total,
                    received: vec![0; total.div_ceil(64) as usize],
                    received_count: 0,
                    granted_upto: total.min(UNSCHEDULED_SEGS),
                    remaining_segs: total,
                });
                if entry.receive(seq) {
                    entry.remaining_segs = entry.total_segs - entry.received_count;
                }
                let done = entry.remaining_segs == 0;
                let received_count = entry.received_count;
                if done {
                    self.inc.remove(&key);
                    let b = received_count as u64;
                    ctx.send(self.tx.ids.ctrl(pkt.src(), CTRL_DONE, msg_id, b, now));
                }
                // Re-run the receiver's SRPT grant scheduler: only the
                // top-K (overcommit) messages hold grants; the rest pause.
                self.regrant(ctx);
            }
            PacketKind::Ctrl { kind, a, b } => match kind {
                CTRL_GRANT => {
                    let granted = (b & 0xFFFF) as u32;
                    let prio = ((b >> 16) & 0xFF) as u8;
                    let confirmed = (b >> 32) as u32;
                    let Some(m) = self.out.get_mut(&a) else {
                        return;
                    };
                    m.granted_upto = m.granted_upto.max(granted);
                    m.sched_prio = prio.clamp(1, (HOMA_PRIORITIES - 1) as u8);
                    m.confirmed = m.confirmed.max(confirmed);
                    m.last_progress = now;
                    let from = m.sent_upto;
                    let to = m.granted_upto.min(m.total_segs);
                    m.sent_upto = m.sent_upto.max(to);
                    let (src, prio) = (ctx.host(), m.sched_prio);
                    for seq in from..to {
                        ctx.send(m.data_packet(self.tx.ids.next_id(), seq, prio, src, now));
                    }
                }
                CTRL_DONE => {
                    if let Some(m) = self.out.remove(&a) {
                        self.tx.completions.push(BaselineCompletion {
                            priority: m.priority,
                            qos: m.qos,
                            size_bytes: m.size_bytes,
                            issued_at: m.issued_at,
                            completed_at: now,
                            terminated: false,
                            downgraded: false,
                        });
                    }
                }
                _ => {}
            },
            PacketKind::Ack { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        match token {
            ARRIVAL_TIMER => self.fire_arrival(ctx),
            RETX_TIMER => {
                self.retx_armed = false;
                let now = ctx.now();
                // Go-back-N: any message with no progress for an RTO resends
                // everything past the receiver's confirmed count, in id order.
                let stalled = self.out.values_mut().filter(|m| {
                    now.saturating_since(m.last_progress) >= self.rto
                        && m.sent_upto >= m.granted_upto.min(m.total_segs)
                });
                let src = ctx.host();
                for m in stalled {
                    m.last_progress = now;
                    for seq in m.confirmed..m.sent_upto.min(m.granted_upto) {
                        ctx.send(m.data_packet(self.tx.ids.next_id(), seq, m.sched_prio, src, now));
                    }
                }
                self.arm_retx(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_gen;
    use aequitas_netsim::{Engine, LinkSpec, Topology};
    use aequitas_workloads::Priority::PerformanceCritical as PC;
    use aequitas_workloads::SizeDist;

    #[test]
    fn completes_messages_of_all_sizes() {
        let sizes = SizeDist::Empirical(vec![(1_000, 0.4), (32_768, 0.4), (300_000, 0.2)]);
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            HomaHost::new(
                HostId(0),
                Some(test_gen(0, 3, 0.4, PC, sizes.clone(), 3, 1)),
            ),
            HomaHost::new(HostId(1), Some(test_gen(1, 3, 0.4, PC, sizes, 3, 2))),
            HomaHost::new(HostId(2), None),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(50));
        let done: usize = (0..2).map(|h| eng.agents()[h].completions().len()).sum();
        assert!(done > 100, "only {done} completions");
        for h in 0..2 {
            assert!(
                eng.agents()[h].out.is_empty(),
                "host {h} has {} stuck messages",
                eng.agents()[h].out.len()
            );
        }
    }

    #[test]
    fn small_messages_finish_fast_under_overload() {
        // SRPT signature: tiny RPCs stay fast even when the port is swamped
        // by large transfers.
        let sizes = SizeDist::Empirical(vec![(4_096, 0.5), (500_000, 0.5)]);
        let topo = Topology::star(4, LinkSpec::default_100g());
        let agents = vec![
            HomaHost::new(
                HostId(0),
                Some(test_gen(0, 4, 0.6, PC, sizes.clone(), 5, 3)),
            ),
            HomaHost::new(
                HostId(1),
                Some(test_gen(1, 4, 0.6, PC, sizes.clone(), 5, 4)),
            ),
            HomaHost::new(HostId(2), Some(test_gen(2, 4, 0.6, PC, sizes, 5, 5))),
            HomaHost::new(HostId(3), None),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(60));
        let mut small: Vec<f64> = Vec::new();
        for h in 0..3 {
            for c in eng.agents()[h].completions() {
                if c.size_bytes <= 4_096 {
                    small.push(c.latency().as_us_f64());
                }
            }
        }
        assert!(small.len() > 30);
        small.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = small[small.len() / 2];
        assert!(
            med < 30.0,
            "median small-RPC latency {med} us under 1.8x overload"
        );
    }

    #[test]
    fn unscheduled_priority_buckets() {
        assert_eq!(unscheduled_priority(1), 1);
        assert_eq!(unscheduled_priority(4), 2);
        assert_eq!(unscheduled_priority(10), 3);
        assert_eq!(unscheduled_priority(1000), 4);
    }
}
