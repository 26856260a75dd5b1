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

use crate::reliable::{
    ack_packet, BaselineHost, FlowTable, OutMsg, PacketIds, Sender, ARRIVAL_TIMER,
};
use crate::workgen::WorkloadGen;
use crate::BaselineCompletion;
use aequitas_netsim::{
    EngineConfig, HostAgent, HostCtx, HostId, Packet, PacketKind, SchedulerKind,
};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use aequitas_workloads::Priority;

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

/// A message being sent, with its pacing state.
struct OutFlow {
    msg: OutMsg,
    pace: PaceState,
    /// The first instant at which the unsent bytes miss the deadline even
    /// at line rate ([`doomed_at`]); `SimTime::MAX` when they
    /// cannot. Changes only when a new segment goes out.
    doomed_at: SimTime,
    /// The pump has nothing to do for this flow before this instant unless
    /// an ACK or a grant for it arrives first (which resets it to zero):
    /// see [`OutFlow::quiet_until`].
    quiet_until: SimTime,
}

/// The first instant `now` at which `now + ser(unsent) > deadline` at
/// `line_rate`, i.e. `(deadline + 1 ps) - ser(unsent)` saturating at zero;
/// `SimTime::MAX` when nothing is unsent or there is no deadline.
fn doomed_at(msg: &OutMsg, line_rate: BitRate) -> SimTime {
    match msg.deadline {
        Some(d) if msg.unsent_bytes() > 0 => SimTime::from_ps(
            d.as_ps()
                .saturating_add(1)
                .saturating_sub(line_rate.serialize_time(msg.unsent_bytes()).as_ps()),
        ),
        _ => SimTime::MAX,
    }
}

impl OutFlow {
    /// When the pump next has work for this flow, as its state stands:
    /// at once while it may send, else at its termination or its next rate
    /// refresh. Only an ACK (in flight), a grant (rate) or the pump itself
    /// changes what the pump would do for a flow that may not send.
    fn quiet_until(&self, req_interval: SimDuration, max_inflight: usize) -> SimTime {
        let (msg, pace) = (&self.msg, &self.pace);
        if !msg.fully_sent() && msg.inflight() < max_inflight && pace.rate_bps != 0 {
            SimTime::ZERO
        } else {
            self.doomed_at.min(pace.last_req + req_interval)
        }
    }

    /// Ask the receiver for a rate: remaining bytes and deadline.
    fn rate_request(&mut self, ids: &mut PacketIds, ctx: &mut HostCtx) {
        let now = ctx.now();
        let msg = &self.msg;
        // Low bit 0 = "request" (1 would mark a termination notice).
        let mut pkt = ids.ctrl(
            msg.dst,
            CTRL_RATE_REQ,
            msg.msg_id,
            msg.remaining_bytes() << 1,
            now,
        );
        // Piggyback the deadline in a second ctrl word via the packet's
        // `rank` field (unused by FIFO fabrics).
        pkt.rank = msg.deadline.map(|d| d.as_ps()).unwrap_or(u64::MAX);
        ctx.send(pkt);
        self.pace.last_req = now;
    }
}

/// A D3/PDQ host (sender + receiver + allocator roles combined).
pub struct DeadlineHost {
    mode: DeadlineMode,
    line_rate: BitRate,
    tx: Sender,
    /// Messages being sent, by id: every walk is in id order.
    msgs: FlowTable<u64, OutFlow>,
    /// Receiver-side allocator state, by (src, msg_id): grants go out in
    /// key order.
    inflows: FlowTable<(usize, u64), InFlow>,
    inflow_seq: u64,
    /// Allocator scratch, reused across rate requests: the grant of each
    /// inflow by its position in key order, and D3's (arrival_seq,
    /// position) list.
    grants: Vec<f64>,
    arrival_order: Vec<(u64, usize)>,
    rto: SimDuration,
    req_interval: SimDuration,
    pump_interval: SimDuration,
    mtu: u64,
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
    pub fn new(
        host: HostId,
        mode: DeadlineMode,
        gen: Option<WorkloadGen>,
        line_rate: BitRate,
    ) -> Self {
        DeadlineHost {
            mode,
            line_rate,
            tx: Sender::new(host, gen),
            msgs: FlowTable::new(),
            inflows: FlowTable::new(),
            inflow_seq: 0,
            grants: Vec::new(),
            arrival_order: Vec::new(),
            rto: SimDuration::from_us(500),
            req_interval: SimDuration::from_us(10),
            pump_interval: SimDuration::from_us(5),
            mtu: 4096,
            retx_armed: false,
            pump_armed: false,
            next_wake: SimTime::MAX,
            last_broadcast: SimTime::ZERO,
            max_inflight: 64,
        }
    }

    /// Completions (including terminations) so far.
    pub fn completions(&self) -> &[BaselineCompletion] {
        self.tx.completions()
    }

    fn fire_arrival(&mut self, ctx: &mut HostCtx) {
        let now = ctx.now();
        if let Some((id, rpc)) = self.tx.due(now) {
            let deadline = deadline_for(rpc.priority).map(|d| now + d);
            let msg = OutMsg::new(id, &rpc, self.mtu, now, deadline);
            let mut flow = OutFlow {
                doomed_at: doomed_at(&msg, self.line_rate),
                quiet_until: SimTime::ZERO,
                msg,
                pace: PaceState {
                    rate_bps: 0,
                    next_allowed: now,
                    last_req: SimTime::ZERO,
                },
            };
            flow.rate_request(&mut self.tx.ids, ctx);
            self.msgs.insert(id, flow);
            self.tx.schedule_arrival(ctx);
        }
        self.arm_pump(ctx);
        self.arm_retx(ctx);
    }

    /// Receiver: recompute the allocation. The requesting flow always gets
    /// its grant immediately; pushes to *all* active flows (PDQ's explicit
    /// pause/resume signalling) are rate-limited to one broadcast per
    /// 500 µs so large fan-ins do not generate O(flows²) control traffic.
    fn allocate_and_grant(
        &mut self,
        ctx: &mut HostCtx,
        requester: usize,
        msg_id: u64,
        force_broadcast: bool,
    ) {
        let now = ctx.now();
        // Age out silent flows (ended senders).
        let stale = SimDuration::from_ms(2);
        self.inflows
            .retain(|_, f| now.saturating_since(f.last_heard) < stale);

        let cap = self.line_rate.bps() as f64;
        let flows = self.inflows.len();
        self.grants.clear();
        match self.mode {
            DeadlineMode::D3 => {
                // Demands are satisfied in flow-arrival order (the float
                // subtractions below happen in exactly that order); the
                // leftover is split equally.
                self.arrival_order.clear();
                for (at, f) in self.inflows.values().enumerate() {
                    let demand = match f.deadline {
                        Some(d) if d > now => {
                            let t = d.since(now).as_secs_f64();
                            (f.remaining_bytes as f64 * 8.0 / t).min(cap)
                        }
                        Some(_) => cap, // past deadline: ask for everything
                        None => 0.0,
                    };
                    self.grants.push(demand);
                    self.arrival_order.push((f.arrival_seq, at));
                }
                self.arrival_order.sort_unstable();
                let mut left = cap;
                for &(_, at) in &self.arrival_order {
                    let g = self.grants[at].min(left);
                    left -= g;
                    self.grants[at] = g;
                }
                if flows > 0 && left > 0.0 {
                    let extra = left / flows as f64;
                    for g in &mut self.grants {
                        *g += extra;
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
                //
                // `most_critical` holds the smallest EDF ranks seen so far,
                // ascending; ranks are total (arrival_seq is unique).
                let mut most_critical = [None; EARLY_START_FLOWS + 1];
                for (at, f) in self.inflows.values().enumerate() {
                    let rank = (
                        f.deadline.map(|d| d.as_ps()).unwrap_or(u64::MAX),
                        f.remaining_bytes,
                        f.arrival_seq,
                    );
                    let mut candidate = (rank, at);
                    for held in &mut most_critical {
                        if held.is_some_and(|h| h < candidate) {
                            continue;
                        }
                        match held.replace(candidate) {
                            Some(bumped) => candidate = bumped,
                            None => break,
                        }
                    }
                }
                self.grants.resize(flows, 0.0);
                for (_, at) in most_critical.into_iter().flatten() {
                    self.grants[at] = cap;
                }
            }
        }
        let broadcast = force_broadcast
            || now.saturating_since(self.last_broadcast) >= SimDuration::from_us(500);
        if broadcast {
            self.last_broadcast = now;
        }
        // Grants leave in key order; without a broadcast, only the
        // requester's (if it is still a live flow).
        let grants = &self.grants;
        let ids = &mut self.tx.ids;
        let mut send = |at: usize, (src_host, mid): (usize, u64)| {
            let grant = grants[at].max(0.0) as u64;
            ctx.send(ids.ctrl(HostId(src_host), CTRL_RATE_GRANT, mid, grant, now));
        };
        if broadcast {
            for (at, &key) in self.inflows.keys().enumerate() {
                send(at, key);
            }
        } else if let Ok(at) = self.inflows.position(&(requester, msg_id)) {
            send(at, (requester, msg_id));
        }
    }

    /// Sender: transmit all due packets under pacing; terminate infeasible
    /// flows; re-request rates periodically. One walk over the messages in
    /// id order, dropping the terminated ones as it goes.
    fn pump(&mut self, ctx: &mut HostCtx) {
        let now = ctx.now();
        let DeadlineHost {
            msgs,
            tx,
            next_wake,
            ..
        } = self;
        let (line_rate, req_interval, max_inflight) =
            (self.line_rate, self.req_interval, self.max_inflight);
        msgs.retain(|&id, flow| {
            if now < flow.quiet_until {
                return true;
            }
            let msg = &flow.msg;
            // Termination check: infeasible even at line rate? Only the
            // bytes not yet transmitted count — in-flight segments are
            // already paid for (their ACKs may be microseconds away), and
            // "better never than late" exists to stop *future* transmission,
            // not to discard flows whose last packet is on the wire.
            if now >= flow.doomed_at && !msg.done() {
                tx.completions.push(msg.completion(now, true));
                ctx.send(tx.ids.ctrl(msg.dst, CTRL_FLOW_END, id, 0, now));
                return false;
            }
            // Periodic rate refresh.
            if now.saturating_since(flow.pace.last_req) >= req_interval {
                flow.rate_request(&mut tx.ids, ctx);
            }
            let OutFlow {
                msg,
                pace,
                doomed_at: doomed,
                ..
            } = flow;
            let next_seg = msg.next_seg;
            // Paced transmission: release every due packet; the token clock
            // (`next_allowed`) advances by the granted-rate serialization
            // time per packet, and a precise wakeup is armed for the next
            // release so the pipeline stays full.
            while !msg.fully_sent() && msg.inflight() < max_inflight && pace.rate_bps != 0 {
                if now < pace.next_allowed {
                    // Only one outstanding precise wake is kept: a timer
                    // per blocked flow per pump call would multiply timers
                    // geometrically.
                    if pace.next_allowed < *next_wake {
                        *next_wake = pace.next_allowed;
                        ctx.set_timer(pace.next_allowed, WAKE_TIMER);
                    }
                    break;
                }
                let seq = msg.next_seg;
                let pkt = msg.data_packet(tx.ids.next_id(), seq, 0, now, tx.ids.host);
                msg.mark_sent(seq, now);
                let gap = BitRate(pace.rate_bps).serialize_time(pkt.size_bytes as u64);
                ctx.send(pkt);
                pace.next_allowed = pace.next_allowed.max(now) + gap;
            }
            if msg.next_seg != next_seg {
                *doomed = doomed_at(msg, line_rate);
            }
            flow.quiet_until = flow.quiet_until(req_interval, max_inflight);
            true
        });
        self.arm_pump(ctx);
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

impl BaselineHost for DeadlineHost {
    fn sender(&self) -> &Sender {
        &self.tx
    }
}

impl HostAgent for DeadlineHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.tx.schedule_arrival(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let now = ctx.now();
        match pkt.kind {
            PacketKind::Data { msg_id, .. } => {
                // Track remaining bytes for the allocator.
                let key = (pkt.src().0, msg_id);
                if let Some(f) = self.inflows.get_mut(&key) {
                    f.remaining_bytes = f.remaining_bytes.saturating_sub(pkt.size_bytes as u64);
                    f.last_heard = now;
                }
                let id = self.tx.ids.next_id();
                ctx.send(ack_packet(self.tx.ids.host, &pkt, id, now));
            }
            PacketKind::Ack { msg_id, seq, .. } => {
                if let Some(flow) = self.msgs.get_mut(&msg_id) {
                    flow.msg.on_ack(seq);
                    flow.quiet_until = SimTime::ZERO;
                    if flow.msg.done() {
                        let done = self.msgs.remove(&msg_id).expect("msg exists").msg;
                        self.tx.completions.push(done.completion(now, false));
                        ctx.send(self.tx.ids.ctrl(done.dst, CTRL_FLOW_END, msg_id, 0, now));
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
                    let entry = self.inflows.get_or_insert_with(key, || InFlow {
                        arrival_seq: seq,
                        deadline,
                        remaining_bytes: remaining,
                        last_heard: now,
                    });
                    if entry.arrival_seq == seq {
                        self.inflow_seq += 1;
                    }
                    entry.remaining_bytes = remaining;
                    entry.last_heard = now;
                    self.allocate_and_grant(ctx, pkt.src().0, a, false);
                }
                CTRL_RATE_GRANT => {
                    if let Some(flow) = self.msgs.get_mut(&a) {
                        flow.pace.rate_bps = b;
                        flow.quiet_until = SimTime::ZERO;
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
                // Resends leave in (msg id, seq) order.
                let ids = &mut self.tx.ids;
                for flow in self.msgs.values_mut() {
                    flow.msg.resend_expired(now, self.rto, |msg, seq| {
                        ctx.send(msg.data_packet(ids.next_id(), seq, 0, now, ids.host));
                        true
                    });
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
    use aequitas_workloads::SizeDist;

    fn rate() -> BitRate {
        BitRate::from_gbps(100)
    }

    fn run(mode: DeadlineMode, load: f64, stop_ms: u64) -> Vec<BaselineCompletion> {
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            DeadlineHost::new(
                HostId(0),
                mode,
                Some(test_gen(
                    0,
                    3,
                    load,
                    Priority::PerformanceCritical,
                    SizeDist::Fixed(32_768),
                    stop_ms,
                    1,
                )),
                rate(),
            ),
            DeadlineHost::new(
                HostId(1),
                mode,
                Some(test_gen(
                    1,
                    3,
                    load,
                    Priority::PerformanceCritical,
                    SizeDist::Fixed(32_768),
                    stop_ms,
                    2,
                )),
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
        assert!(
            frac < 0.05,
            "{terminated}/{} terminated at low load",
            done.len()
        );
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
    /// FNV-1a-64 over every completion (host by host, in completion order)
    /// of a run at 2 × 0.9 load: terminations, many concurrent flows.
    fn stream_digest(mode: DeadlineMode) -> (usize, u64) {
        let done = run(mode, 0.9, 3);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for c in &done {
            for word in [
                c.qos as u64,
                c.size_bytes,
                c.issued_at.as_ps(),
                c.completed_at.as_ps(),
                c.terminated as u64,
            ] {
                for b in word.to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        (done.len(), h)
    }

    /// Captured on the commit before `msgs`/`inflows` became ordered maps
    /// and the allocator lost its per-request hash map and sorts: the
    /// rewrite must not move a single completion by a picosecond.
    #[test]
    fn completion_streams_match_the_pre_rewrite_goldens() {
        assert_eq!(
            stream_digest(DeadlineMode::D3),
            (2132, 0xc1f2_9653_5bf8_6423)
        );
        assert_eq!(
            stream_digest(DeadlineMode::Pdq),
            (2132, 0xa679_9832_5205_278e)
        );
    }
}
