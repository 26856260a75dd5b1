//! QJump (Grosvenor et al., NSDI 2015).
//!
//! Decision logic reproduced: each priority level is **rate-limited at the
//! host** to a share of the line rate chosen so that, network-wide, a level's
//! aggregate can never exceed capacity (higher levels get lower throughput
//! caps but bounded latency); the fabric runs strict priority. QJump is
//! packet-level and SLO-unaware: it cannot adapt the admitted mix when an
//! application offers more than its throttle, which is what the paper's
//! comparison (Fig. 22) exercises.

use crate::reliable::{ack_packet, BaselineHost, FlowTable, OutMsg, Sender, ARRIVAL_TIMER};
use crate::workgen::WorkloadGen;
use crate::BaselineCompletion;
use aequitas_netsim::{
    EngineConfig, HostAgent, HostCtx, HostId, Packet, PacketKind, SchedulerKind,
};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use std::collections::VecDeque;

const RETX_TIMER: u64 = 2;
const PACE_TIMER_BASE: u64 = 16;

/// Fabric configuration for QJump: strict priority queues.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        switch_scheduler: SchedulerKind::Spq(3),
        host_scheduler: SchedulerKind::Spq(3),
        switch_buffer_bytes: Some(2 << 20),
        host_buffer_bytes: Some(2 << 20),
        classes: 3,
        faults: None,
    }
}

/// Per-class throughput factors (fraction of line rate each class's host
/// sender may use). The highest class gets the strongest throttle — QJump's
/// latency-vs-throughput epoch tradeoff; the lowest is unthrottled.
pub const DEFAULT_RATE_FACTORS: [f64; 3] = [0.30, 0.50, 1.0];

struct ClassQueue {
    /// FIFO of (msg_id) with unsent segments.
    queue: VecDeque<u64>,
    /// Token-bucket state: time the next packet may leave.
    next_allowed: SimTime,
    rate: BitRate,
    paced: bool,
}

/// A QJump host.
pub struct QjumpHost {
    tx: Sender,
    /// Messages being sent, by id.
    msgs: FlowTable<u64, OutMsg>,
    classes: Vec<ClassQueue>,
    rto: SimDuration,
    mtu: u64,
    retx_armed: bool,
}

impl QjumpHost {
    /// Create a host with the default per-class throttles.
    pub fn new(host: HostId, gen: Option<WorkloadGen>, line_rate: BitRate) -> Self {
        let classes = DEFAULT_RATE_FACTORS
            .iter()
            .map(|&f| ClassQueue {
                queue: VecDeque::new(),
                next_allowed: SimTime::ZERO,
                rate: line_rate.mul_f64(f),
                paced: false,
            })
            .collect();
        QjumpHost {
            tx: Sender::new(host, gen),
            msgs: FlowTable::new(),
            classes,
            rto: SimDuration::from_us(500),
            mtu: 4096,
            retx_armed: false,
        }
    }

    /// Completions collected so far.
    pub fn completions(&self) -> &[BaselineCompletion] {
        self.tx.completions()
    }

    fn fire_arrival(&mut self, ctx: &mut HostCtx) {
        if let Some((id, rpc)) = self.tx.due(ctx.now()) {
            self.msgs
                .insert(id, OutMsg::new(id, &rpc, self.mtu, ctx.now(), None));
            self.classes[rpc.qos as usize].queue.push_back(id);
            self.tx.schedule_arrival(ctx);
        }
        for c in 0..self.classes.len() {
            self.pump_class(ctx, c);
        }
        self.arm_retx(ctx);
    }

    /// Send the next segment of class `c` if the rate limiter allows.
    fn pump_class(&mut self, ctx: &mut HostCtx, c: usize) {
        loop {
            let now = ctx.now();
            // Drop finished/fully-sent heads.
            while let Some(&head) = self.classes[c].queue.front() {
                match self.msgs.get(&head) {
                    Some(m) if !m.fully_sent() => break,
                    _ => {
                        self.classes[c].queue.pop_front();
                    }
                }
            }
            let Some(&head) = self.classes[c].queue.front() else {
                return;
            };
            if now < self.classes[c].next_allowed {
                if !self.classes[c].paced {
                    self.classes[c].paced = true;
                    ctx.set_timer(self.classes[c].next_allowed, PACE_TIMER_BASE + c as u64);
                }
                return;
            }
            let pkt_id = self.tx.ids.next_id();
            let msg = self.msgs.get_mut(&head).expect("head exists");
            let seq = msg.next_seg;
            let pkt = msg.data_packet(pkt_id, seq, 0, now, self.tx.ids.host);
            msg.mark_sent(seq, now);
            let wire = pkt.size_bytes as u64;
            ctx.send(pkt);
            // Advance the token clock by this packet's time at the class rate.
            let gap = self.classes[c].rate.serialize_time(wire);
            self.classes[c].next_allowed = now + gap;
        }
    }

    fn arm_retx(&mut self, ctx: &mut HostCtx) {
        if !self.retx_armed && !self.msgs.is_empty() {
            self.retx_armed = true;
            ctx.set_timer(ctx.now() + self.rto / 2, RETX_TIMER);
        }
    }
}

impl BaselineHost for QjumpHost {
    fn sender(&self) -> &Sender {
        &self.tx
    }
}

impl HostAgent for QjumpHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.tx.schedule_arrival(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data { .. } => {
                let id = self.tx.ids.next_id();
                ctx.send(ack_packet(self.tx.ids.host, &pkt, id, ctx.now()));
            }
            PacketKind::Ack { msg_id, seq, .. } => {
                if let Some(msg) = self.msgs.get_mut(&msg_id) {
                    msg.on_ack(seq);
                    if msg.done() {
                        let done = self.msgs.remove(&msg_id).expect("msg exists");
                        self.tx.completions.push(done.completion(ctx.now(), false));
                    }
                }
            }
            PacketKind::Ctrl { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        match token {
            ARRIVAL_TIMER => self.fire_arrival(ctx),
            RETX_TIMER => {
                self.retx_armed = false;
                let now = ctx.now();
                // Resends leave in (class, msg id, seq) order: one walk per
                // class over the id-ordered messages.
                let ids = &mut self.tx.ids;
                for (c, class) in self.classes.iter_mut().enumerate() {
                    for msg in self.msgs.values_mut().filter(|m| m.qos as usize == c) {
                        msg.resend_expired(now, self.rto, |msg, seq| {
                            // Retransmissions respect the class rate limit
                            // too: sent directly when the token clock allows.
                            if now < class.next_allowed {
                                return false;
                            }
                            let pkt = msg.data_packet(ids.next_id(), seq, 0, now, ids.host);
                            let gap = class.rate.serialize_time(pkt.size_bytes as u64);
                            class.next_allowed = now + gap;
                            ctx.send(pkt);
                            true
                        });
                    }
                }
                self.arm_retx(ctx);
            }
            t if t >= PACE_TIMER_BASE => {
                let c = (t - PACE_TIMER_BASE) as usize;
                if c < self.classes.len() {
                    self.classes[c].paced = false;
                    self.pump_class(ctx, c);
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
    use aequitas_workloads::{Priority, SizeDist};

    fn rate() -> BitRate {
        BitRate::from_gbps(100)
    }

    #[test]
    fn rate_limit_caps_high_class_throughput() {
        // A single sender offering 0.9 load of PC traffic: QJump throttles
        // class 0 to 30% of line rate, so completions accrue at ~30 Gbps.
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![
            QjumpHost::new(
                HostId(0),
                Some(test_gen(
                    0,
                    2,
                    0.9,
                    Priority::PerformanceCritical,
                    SizeDist::Fixed(32_768),
                    10,
                    1,
                )),
                rate(),
            ),
            QjumpHost::new(HostId(1), None, rate()),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(10));
        let bytes: u64 = eng.agents()[0]
            .completions()
            .iter()
            .map(|c| c.size_bytes)
            .sum();
        let gbps = bytes as f64 * 8.0 / 0.01 / 1e9;
        assert!(
            (20.0..36.0).contains(&gbps),
            "class-0 goodput {gbps} Gbps, expected ~30"
        );
    }

    #[test]
    fn low_class_unthrottled_when_alone() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![
            QjumpHost::new(
                HostId(0),
                Some(test_gen(
                    0,
                    2,
                    0.8,
                    Priority::BestEffort,
                    SizeDist::Fixed(32_768),
                    10,
                    2,
                )),
                rate(),
            ),
            QjumpHost::new(HostId(1), None, rate()),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(12));
        let bytes: u64 = eng.agents()[0]
            .completions()
            .iter()
            .map(|c| c.size_bytes)
            .sum();
        let gbps = bytes as f64 * 8.0 / 0.012 / 1e9;
        assert!(gbps > 55.0, "BE goodput {gbps} Gbps, expected ~80x0.8");
    }

    #[test]
    fn throttled_class_has_low_latency_for_admitted_packets() {
        // Two hosts each sending PC at 15% load (half the 30% throttle, so
        // the token bucket itself runs at moderate utilization): the network
        // can never congest on class 0 and latencies stay near-serial.
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            QjumpHost::new(
                HostId(0),
                Some(test_gen(
                    0,
                    3,
                    0.15,
                    Priority::PerformanceCritical,
                    SizeDist::Fixed(32_768),
                    10,
                    3,
                )),
                rate(),
            ),
            QjumpHost::new(
                HostId(1),
                Some(test_gen(
                    1,
                    3,
                    0.15,
                    Priority::PerformanceCritical,
                    SizeDist::Fixed(32_768),
                    10,
                    4,
                )),
                rate(),
            ),
            QjumpHost::new(HostId(2), None, rate()),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(15));
        let mut lats: Vec<f64> = eng.agents()[0]
            .completions()
            .iter()
            .map(|c| c.latency().as_us_f64())
            .collect();
        assert!(lats.len() > 100);
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = lats[(lats.len() as f64 * 0.99) as usize];
        // 32 KB at 30 Gbps pacing ~= 8.7 us + RTT; allow generous slack.
        assert!(p99 < 60.0, "in-profile QJump p99 latency {p99} us");
    }
}
