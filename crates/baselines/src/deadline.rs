//! D3 and PDQ: deadline-driven rate allocation with early termination.
//!
//! Decision logic reproduced:
//!
//! * **D3** (Wilson et al.): each flow requests `remaining/time_to_deadline`
//!   from the network every allocation round; the allocator satisfies
//!   demands greedily in flow-arrival order and spreads the leftover
//!   equally (D3's documented FCFS flaw is preserved).
//! * **PDQ** (Hong et al.): preemptive earliest-deadline-first — the
//!   allocator gives the full rate to the most critical flow(s) and pauses
//!   the rest.
//! * Both terminate a flow the moment its deadline becomes infeasible even
//!   at line rate ("better never than late") — terminated RPCs are recorded
//!   with `terminated = true`, and this early termination is what drags
//!   network utilization toward ~50% in the paper's Fig. 22 comparison.
//!
//! **Simplification (documented in DESIGN.md):** the router-by-router rate
//! allocation is emulated by a receiver-side allocator. In the evaluated
//! star topologies the bottleneck is the receiver downlink, so the
//! allocation the receiver computes is the one the bottleneck router would
//! have computed.

use crate::reliable::{ack_packet, OutMsg};
use crate::workgen::WorkloadGen;
use crate::BaselineCompletion;
use aequitas_netsim::{
    EngineConfig, FlowKey, HostAgent, HostCtx, HostId, Packet, PacketKind, QueueKind, SchedulerKind,
};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use aequitas_workloads::Priority;
use std::collections::HashMap;

const ARRIVAL_TIMER: u64 = 1;
const RETX_TIMER: u64 = 2;
const PUMP_TIMER: u64 = 3;
const WAKE_TIMER: u64 = 4;

/// PDQ Early Start: how many flows beyond the most critical one are granted
/// the full rate so the bottleneck stays busy across flow switchovers.
const EARLY_START_FLOWS: usize = 1;

/// Ctrl packet kinds.
const CTRL_RATE_REQ: u8 = 1;
const CTRL_RATE_GRANT: u8 = 2;
const CTRL_FLOW_END: u8 = 3;

/// Which allocation policy the deadline host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineMode {
    /// Greedy FCFS demand satisfaction (D3).
    D3,
    /// Preemptive earliest-deadline-first (PDQ).
    Pdq,
}

/// Fabric configuration: plain FIFO (D3/PDQ do not rely on fabric
/// scheduling; rate allocation keeps queues short).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        switch_scheduler: SchedulerKind::Fifo(3),
        host_scheduler: SchedulerKind::Fifo(3),
        switch_buffer_bytes: Some(2 << 20),
        host_buffer_bytes: Some(2 << 20),
        classes: 3,
        event_queue: QueueKind::Calendar,
        faults: None,
    }
}

/// Deadlines per priority class, following the paper's §6.10 setup (250 µs
/// for QoSh, 300 µs for QoSm, none for BE).
pub fn deadline_for(priority: Priority) -> Option<SimDuration> {
    match priority {
        Priority::PerformanceCritical => Some(SimDuration::from_us(250)),
        Priority::NonCritical => Some(SimDuration::from_us(300)),
        Priority::BestEffort => None,
    }
}

/// Receiver-side record of an incoming flow.
#[derive(Debug, Clone, Copy)]
struct InFlow {
    arrival_seq: u64,
    deadline: Option<SimTime>,
    remaining_bytes: u64,
    last_heard: SimTime,
}

/// Sender-side pacing state per message.
#[derive(Debug, Clone, Copy)]
struct PaceState {
    rate_bps: u64,
    next_allowed: SimTime,
    last_req: SimTime,
}

/// A D3/PDQ host (sender + receiver + allocator roles combined).
pub struct DeadlineHost {
    host: HostId,
    mode: DeadlineMode,
    line_rate: BitRate,
    gen: Option<WorkloadGen>,
    pending_arrival: Option<(SimTime, crate::workgen::NextRpc)>,
    msgs: HashMap<u64, OutMsg>,
    pace: HashMap<u64, PaceState>,
    // Receiver-side allocator state, keyed by (src, msg_id).
    inflows: HashMap<(usize, u64), InFlow>,
    inflow_seq: u64,
    rto: SimDuration,
    req_interval: SimDuration,
    pump_interval: SimDuration,
    mtu: u64,
    next_msg_id: u64,
    next_packet_id: u64,
    completions: Vec<BaselineCompletion>,
    retx_armed: bool,
    pump_armed: bool,
    /// Earliest outstanding precise pacing wakeup (dedupes timer storms).
    next_wake: SimTime,
    /// Last time grants were broadcast to every active flow (rate-limited:
    /// per-requester grants are immediate, full broadcasts are not).
    last_broadcast: SimTime,
    max_inflight: usize,
}

impl DeadlineHost {
    /// Create a host.
    pub fn new(host: HostId, mode: DeadlineMode, gen: Option<WorkloadGen>, line_rate: BitRate) -> Self {
        DeadlineHost {
            host,
            mode,
            line_rate,
            gen,
            pending_arrival: None,
            msgs: HashMap::new(), // det: pump()/retx collect keys then sort; otherwise keyed
            pace: HashMap::new(), // det: keyed access only, never iterated
            inflows: HashMap::new(), // det: every scan collects then sorts (arrival_seq/EDF/keys)
            inflow_seq: 0,
            rto: SimDuration::from_us(500),
            req_interval: SimDuration::from_us(10),
            pump_interval: SimDuration::from_us(5),
            mtu: 4096,
            next_msg_id: (host.0 as u64) << 32,
            next_packet_id: (host.0 as u64) << 40,
            completions: Vec::new(),
            retx_armed: false,
            pump_armed: false,
            next_wake: SimTime::MAX,
            last_broadcast: SimTime::ZERO,
            max_inflight: 64,
        }
    }

    /// Completions (including terminations) so far.
    pub fn completions(&self) -> &[BaselineCompletion] {
        &self.completions
    }

    fn pkt_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    fn ctrl(&mut self, dst: HostId, kind: u8, a: u64, b: u64, now: SimTime) -> Packet {
        Packet {
            id: self.pkt_id(),
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

    fn schedule_arrival(&mut self, ctx: &mut HostCtx) {
        if self.pending_arrival.is_some() {
            return;
        }
        if let Some(gen) = self.gen.as_mut() {
            if let Some(rpc) = gen.next_rpc() {
                let at = rpc.at.max(ctx.now());
                self.pending_arrival = Some((at, rpc));
                ctx.set_timer(at, ARRIVAL_TIMER);
            }
        }
    }

    fn fire_arrival(&mut self, ctx: &mut HostCtx) {
        if let Some((at, rpc)) = self.pending_arrival {
            if at <= ctx.now() {
                self.pending_arrival = None;
                let id = self.next_msg_id;
                self.next_msg_id += 1;
                let deadline = deadline_for(rpc.priority).map(|d| ctx.now() + d);
                self.msgs.insert(
                    id,
                    OutMsg::new(
                        id,
                        HostId(rpc.dst),
                        rpc.qos,
                        rpc.priority,
                        rpc.size_bytes,
                        self.mtu,
                        ctx.now(),
                        deadline,
                    ),
                );
                self.pace.insert(
                    id,
                    PaceState {
                        rate_bps: 0,
                        next_allowed: ctx.now(),
                        last_req: SimTime::ZERO,
                    },
                );
                self.send_rate_request(ctx, id);
                self.schedule_arrival(ctx);
            }
        }
        self.arm_pump(ctx);
        self.arm_retx(ctx);
    }

    fn send_rate_request(&mut self, ctx: &mut HostCtx, msg_id: u64) {
        let Some(msg) = self.msgs.get(&msg_id) else {
            return;
        };
        let now = ctx.now();
        let remaining = msg.remaining_bytes();
        let deadline_ps = msg.deadline.map(|d| d.as_ps()).unwrap_or(u64::MAX);
        let dst = msg.dst;
        // Low bit 0 = "request" (1 would mark a termination notice).
        let pkt = self.ctrl(dst, CTRL_RATE_REQ, msg_id, remaining << 1, now);
        // Piggyback the deadline in a second ctrl word via the packet's
        // `rank` field (unused by FIFO fabrics).
        let mut pkt = pkt;
        pkt.rank = deadline_ps;
        ctx.send(pkt);
        if let Some(p) = self.pace.get_mut(&msg_id) {
            p.last_req = now;
        }
    }

    /// Receiver: recompute the allocation. The requesting flow always gets
    /// its grant immediately; pushes to *all* active flows (PDQ's explicit
    /// pause/resume signalling) are rate-limited to one broadcast per
    /// 500 µs so large fan-ins do not generate O(flows²) control traffic.
    fn allocate_and_grant(&mut self, ctx: &mut HostCtx, requester: usize, msg_id: u64, force_broadcast: bool) {
        let now = ctx.now();
        // Age out silent flows (ended senders).
        let stale = SimDuration::from_ms(2);
        self.inflows
            // det: pure predicate; the surviving set is order-independent.
            .retain(|_, f| now.saturating_since(f.last_heard) < stale);

        let cap = self.line_rate.bps() as f64;
        // det: filled from sorted flow lists, consumed by keyed get() below
        let mut grants: HashMap<(usize, u64), f64> = HashMap::new();
        match self.mode {
            DeadlineMode::D3 => {
                // Demands in flow-arrival order; leftover split equally.
                // det: collected then sorted by arrival_seq before use.
                let mut flows: Vec<(&(usize, u64), &InFlow)> = self.inflows.iter().collect();
                flows.sort_by_key(|(_, f)| f.arrival_seq);
                let mut left = cap;
                for (key, f) in &flows {
                    let demand = match f.deadline {
                        Some(d) if d > now => {
                            let t = d.since(now).as_secs_f64();
                            (f.remaining_bytes as f64 * 8.0 / t).min(cap)
                        }
                        Some(_) => cap, // past deadline: ask for everything
                        None => 0.0,
                    };
                    let g = demand.min(left);
                    left -= g;
                    grants.insert(**key, g);
                }
                if !flows.is_empty() && left > 0.0 {
                    let extra = left / flows.len() as f64;
                    for (key, _) in &flows {
                        *grants.get_mut(*key).expect("granted above") += extra;
                    }
                }
            }
            DeadlineMode::Pdq => {
                // EDF: full rate to the most critical flow, pause the rest —
                // except for PDQ's Early Start (Hong et al. §4.2): the next
                // `EARLY_START_FLOWS` flows in EDF order are also granted the
                // full rate so the downlink never idles during the
                // grant/FLOW_END handshake between flow switchovers. Without
                // this the per-flow control round trip (~2 µs against ~2.7 µs
                // of service) wastes ~45% of the bottleneck, the queue of
                // paused flows grows under Poisson bursts, and flows starve
                // past their deadline slack even at low load.
                // det: collected then sorted by a total EDF key before use.
                let mut flows: Vec<(&(usize, u64), &InFlow)> = self.inflows.iter().collect();
                flows.sort_by_key(|(_, f)| {
                    (
                        f.deadline.map(|d| d.as_ps()).unwrap_or(u64::MAX),
                        f.remaining_bytes,
                        f.arrival_seq,
                    )
                });
                for (i, (key, _)) in flows.iter().enumerate() {
                    if i > EARLY_START_FLOWS {
                        break;
                    }
                    grants.insert(**key, cap);
                }
            }
        }
        let broadcast =
            force_broadcast || now.saturating_since(self.last_broadcast) >= SimDuration::from_us(500);
        if broadcast {
            self.last_broadcast = now;
        }
        // det: keys are collected and sorted before any side effect.
        let mut keys: Vec<(usize, u64)> = self.inflows.keys().copied().collect();
        keys.sort_unstable();
        for (src_host, mid) in keys {
            if !broadcast && (src_host, mid) != (requester, msg_id) {
                continue;
            }
            let grant = grants.get(&(src_host, mid)).copied().unwrap_or(0.0).max(0.0) as u64;
            let pkt = self.ctrl(HostId(src_host), CTRL_RATE_GRANT, mid, grant, now);
            ctx.send(pkt);
        }
    }

    /// Sender: transmit all due packets under pacing; terminate infeasible
    /// flows; re-request rates periodically.
    fn pump(&mut self, ctx: &mut HostCtx) {
        let now = ctx.now();
        // det: keys are collected and sorted before any side effect.
        let ids: Vec<u64> = self.msgs.keys().copied().collect();
        let mut ids = ids;
        ids.sort_unstable();
        for id in ids {
            // Termination check: infeasible even at line rate? Only the
            // bytes not yet transmitted count — in-flight segments are
            // already paid for (their ACKs may be microseconds away), and
            // "better never than late" exists to stop *future* transmission,
            // not to discard flows whose last packet is on the wire.
            let (terminate, dst) = {
                let msg = &self.msgs[&id];
                let infeasible = match msg.deadline {
                    Some(d) => {
                        let unsent = msg.unsent_bytes();
                        unsent > 0 && now + self.line_rate.serialize_time(unsent) > d
                    }
                    None => false,
                };
                (infeasible && !msg.done(), msg.dst)
            };
            if terminate {
                let msg = self.msgs.remove(&id).expect("msg exists");
                self.pace.remove(&id);
                self.completions.push(msg.completion(now, true));
                let pkt = self.ctrl(dst, CTRL_FLOW_END, id, 0, now);
                ctx.send(pkt);
                continue;
            }
            // Periodic rate refresh.
            let needs_req = self
                .pace
                .get(&id)
                .map(|p| now.saturating_since(p.last_req) >= self.req_interval)
                .unwrap_or(false);
            if needs_req {
                self.send_rate_request(ctx, id);
            }
            // Paced transmission: release every due packet; the token clock
            // (`next_allowed`) advances by the granted-rate serialization
            // time per packet, and a precise wakeup is armed for the next
            // release so the pipeline stays full.
            while let Some(p) = self.pace.get(&id).copied() {
                let msg = self.msgs.get(&id).expect("msg exists");
                if msg.fully_sent() || msg.inflight() >= self.max_inflight {
                    break;
                }
                if p.rate_bps == 0 {
                    break; // waiting for a grant
                }
                if now < p.next_allowed {
                    self.wake_at(ctx, p.next_allowed);
                    break;
                }
                let pkt_id = self.pkt_id();
                let msg = self.msgs.get_mut(&id).expect("msg exists");
                let seq = msg.next_seg;
                let pkt = msg.data_packet(pkt_id, seq, 0, now, self.host);
                msg.mark_sent(seq, now);
                let wire = pkt.size_bytes as u64;
                ctx.send(pkt);
                let gap = BitRate(p.rate_bps).serialize_time(wire);
                let pace = self.pace.get_mut(&id).expect("pace exists");
                pace.next_allowed = pace.next_allowed.max(now) + gap;
            }
        }
        self.arm_pump(ctx);
    }

    /// Precise wakeup for pacing (separate from the periodic pump). Only
    /// one outstanding precise wake is kept: scheduling a timer per blocked
    /// flow per pump call would multiply timers geometrically.
    fn wake_at(&mut self, ctx: &mut HostCtx, at: SimTime) {
        if at < self.next_wake {
            self.next_wake = at;
            ctx.set_timer(at, WAKE_TIMER);
        }
    }

    fn arm_pump(&mut self, ctx: &mut HostCtx) {
        if !self.pump_armed && !self.msgs.is_empty() {
            self.pump_armed = true;
            ctx.set_timer(ctx.now() + self.pump_interval, PUMP_TIMER);
        }
    }

    fn arm_retx(&mut self, ctx: &mut HostCtx) {
        if !self.retx_armed && !self.msgs.is_empty() {
            self.retx_armed = true;
            ctx.set_timer(ctx.now() + self.rto / 2, RETX_TIMER);
        }
    }
}

impl HostAgent for DeadlineHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.schedule_arrival(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let now = ctx.now();
        match pkt.kind {
            PacketKind::Data { msg_id, seq, .. } => {
                // Track remaining bytes for the allocator.
                let key = (pkt.src().0, msg_id);
                if let Some(f) = self.inflows.get_mut(&key) {
                    f.remaining_bytes = f.remaining_bytes.saturating_sub(pkt.size_bytes as u64);
                    f.last_heard = now;
                }
                let id = self.pkt_id();
                ctx.send(ack_packet(self.host, &pkt, id, now));
                let _ = seq;
            }
            PacketKind::Ack { msg_id, seq, .. } => {
                if let Some(msg) = self.msgs.get_mut(&msg_id) {
                    msg.on_ack(seq);
                    if msg.done() {
                        let done = self.msgs.remove(&msg_id).expect("msg exists");
                        self.pace.remove(&msg_id);
                        let dst = done.dst;
                        self.completions.push(done.completion(now, false));
                        let pkt = self.ctrl(dst, CTRL_FLOW_END, msg_id, 0, now);
                        ctx.send(pkt);
                    }
                }
                self.pump(ctx);
            }
            PacketKind::Ctrl { kind, a, b } => match kind {
                CTRL_RATE_REQ => {
                    let key = (pkt.src().0, a);
                    let deadline = if pkt.rank == u64::MAX {
                        None
                    } else {
                        Some(SimTime::from_ps(pkt.rank))
                    };
                    let remaining = b >> 1;
                    let seq = self.inflow_seq;
                    let entry = self.inflows.entry(key).or_insert_with(|| {
                        InFlow {
                            arrival_seq: seq,
                            deadline,
                            remaining_bytes: remaining,
                            last_heard: now,
                        }
                    });
                    if entry.arrival_seq == seq {
                        self.inflow_seq += 1;
                    }
                    entry.remaining_bytes = remaining;
                    entry.last_heard = now;
                    self.allocate_and_grant(ctx, pkt.src().0, a, false);
                }
                CTRL_RATE_GRANT => {
                    if let Some(p) = self.pace.get_mut(&a) {
                        p.rate_bps = b;
                    }
                    self.pump(ctx);
                }
                CTRL_FLOW_END => {
                    let freed = self.inflows.remove(&(pkt.src().0, a)).is_some();
                    if freed && !self.inflows.is_empty() {
                        // A slot just freed: resume the next flow at once.
                        self.allocate_and_grant(ctx, pkt.src().0, a, true);
                    }
                }
                _ => {}
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        match token {
            ARRIVAL_TIMER => self.fire_arrival(ctx),
            PUMP_TIMER => {
                self.pump_armed = false;
                self.pump(ctx);
            }
            WAKE_TIMER => {
                if ctx.now() >= self.next_wake {
                    self.next_wake = SimTime::MAX;
                }
                self.pump(ctx);
            }
            RETX_TIMER => {
                self.retx_armed = false;
                let now = ctx.now();
                let mut resend: Vec<(u64, u32)> = Vec::new();
                // det: iteration only fills `resend`, which is sorted
                // before any side effect.
                for (&id, msg) in &self.msgs {
                    for seq in msg.expired(now, self.rto) {
                        resend.push((id, seq));
                    }
                }
                resend.sort_unstable();
                for (id, seq) in resend {
                    let pkt_id = self.pkt_id();
                    let msg = self.msgs.get_mut(&id).expect("msg exists");
                    let pkt = msg.data_packet(pkt_id, seq, 0, now, self.host);
                    msg.mark_sent(seq, now);
                    ctx.send(pkt);
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
    use aequitas_netsim::{Engine, LinkSpec, Topology};
    use aequitas_workloads::{ArrivalProcess, SizeDist, TrafficPattern};

    fn rate() -> BitRate {
        BitRate::from_gbps(100)
    }

    fn gen(src: usize, n: usize, load: f64, prio: Priority, stop_ms: u64, seed: u64) -> WorkloadGen {
        WorkloadGen::new(
            ArrivalProcess::Poisson { load },
            TrafficPattern::ManyToOne { dst: n - 1 },
            vec![(prio, 1.0, SizeDist::Fixed(32_768))],
            src,
            n,
            rate(),
            Some(SimTime::from_ms(stop_ms)),
            seed,
        )
    }

    fn run(mode: DeadlineMode, load: f64, stop_ms: u64) -> Vec<BaselineCompletion> {
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            DeadlineHost::new(
                HostId(0),
                mode,
                Some(gen(0, 3, load, Priority::PerformanceCritical, stop_ms, 1)),
                rate(),
            ),
            DeadlineHost::new(
                HostId(1),
                mode,
                Some(gen(1, 3, load, Priority::PerformanceCritical, stop_ms, 2)),
                rate(),
            ),
            DeadlineHost::new(HostId(2), mode, None, rate()),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(stop_ms + 20));
        let mut all = Vec::new();
        for h in 0..2 {
            all.extend_from_slice(eng.agents()[h].completions());
        }
        all
    }

    #[test]
    fn d3_meets_deadlines_at_low_load() {
        let done = run(DeadlineMode::D3, 0.2, 5);
        assert!(done.len() > 50);
        let terminated = done.iter().filter(|c| c.terminated).count();
        let frac = terminated as f64 / done.len() as f64;
        assert!(frac < 0.05, "{terminated}/{} terminated at low load", done.len());
        // Completed RPCs finish within their 250 us deadline.
        for c in done.iter().filter(|c| !c.terminated) {
            assert!(
                c.latency() <= SimDuration::from_us(260),
                "latency {} exceeds deadline",
                c.latency()
            );
        }
    }

    #[test]
    fn d3_terminates_under_overload() {
        // 2 x 0.9 load into one port: many deadlines are infeasible.
        let done = run(DeadlineMode::D3, 0.9, 5);
        let terminated = done.iter().filter(|c| c.terminated).count();
        assert!(
            terminated > done.len() / 10,
            "expected heavy termination, got {terminated}/{}",
            done.len()
        );
    }

    #[test]
    fn pdq_meets_deadlines_at_low_load() {
        let done = run(DeadlineMode::Pdq, 0.2, 5);
        assert!(done.len() > 50);
        let terminated = done.iter().filter(|c| c.terminated).count();
        assert!(
            (terminated as f64) < done.len() as f64 * 0.05,
            "{terminated}/{}",
            done.len()
        );
    }

    #[test]
    fn pdq_terminates_under_overload() {
        let done = run(DeadlineMode::Pdq, 0.9, 5);
        let terminated = done.iter().filter(|c| c.terminated).count();
        assert!(
            terminated > done.len() / 10,
            "expected heavy termination, got {terminated}/{}",
            done.len()
        );
    }

    #[test]
    fn termination_caps_utilization() {
        // The Fig. 22 signature: under overload, goodput (completed bytes)
        // stays well below capacity because terminated flows wasted their
        // slots.
        let done = run(DeadlineMode::D3, 1.0, 10);
        let goodput_bytes: u64 = done
            .iter()
            .filter(|c| !c.terminated)
            .map(|c| c.size_bytes)
            .sum();
        let gbps = goodput_bytes as f64 * 8.0 / 0.010 / 1e9;
        assert!(
            gbps < 85.0,
            "goodput {gbps} Gbps should be visibly below line rate"
        );
    }
}
