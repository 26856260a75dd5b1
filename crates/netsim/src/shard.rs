//! Sharded parallel execution: conservative-lookahead domain decomposition.
//!
//! The fabric is partitioned into *domains* (e.g. one per Clos pod plus one
//! for the core tier). Each domain is a complete [`Engine`] that owns a
//! subset of the switches and the hosts wired to them; packets that leave a
//! domain are parked in an outbox instead of being scheduled. The
//! [`ShardedEngine`] runner advances all domains in lock-step windows:
//!
//! 1. compute `m`, the earliest pending event across all domains;
//! 2. run every domain to the horizon `wend = min(end, m + lookahead)` —
//!    domains are independent inside the window, so this step parallelizes;
//! 3. drain each outbox in domain-id order and inject the boundary packets
//!    into their destination domains.
//!
//! `lookahead` is the minimum propagation delay over all cross-domain
//! links. A packet exported at time `t ≥ m` arrives no earlier than
//! `t + lookahead ≥ m + lookahead ≥ wend`, so no domain can ever need a
//! packet from a peer *within* the window it is running — the decomposition
//! is exact, not approximate.
//!
//! **Who runs a window.** The domains are dealt into *lanes*, one per
//! worker, heaviest domain first onto the least-loaded lane
//! ([`ShardSpec::lanes`]). A `run_until` call that needs more than one
//! window spawns its `workers − 1` scoped threads once; each owns its lane
//! for the whole call and the calling thread (the *coordinator*) runs
//! lane 0. A window is handed over through an epoch barrier: the
//! coordinator publishes `wend` and bumps an atomic epoch, every thread
//! runs its lane, and a completion counter comes back. Both sides wait by
//! spinning for a bounded number of [`std::hint::spin_loop`] hints (a few
//! tens of µs) and only then `yield_now` — a window is ~100 µs of work, so
//! a futex sleep/wake pair per window costs as much as the thread spawn it
//! would replace. Steps 1 and 3 stay on the coordinator. A lane sits behind
//! a `Mutex` that the barrier keeps uncontended: its worker holds it inside
//! a window, the coordinator between windows. A thread that panics sets a
//! halt flag both sides check in their wait loops, so a failing agent fails
//! the run (naming the domain) instead of hanging it.
//!
//! Determinism: the domain partition, the window schedule, and the
//! domain-ordered merge are all pure functions of the topology and the
//! event timeline — none depends on how many worker threads execute step 2.
//! One thread and N therefore produce byte-identical results, and identical
//! [`ShardStats`] (gated by `tests/sharded_determinism.rs`).

use crate::engine::{Engine, EngineConfig, HostAgent};
use crate::packet::Packet;
use crate::port::PortStats;
use crate::topology::{HostId, NodeRef, SwitchId, Topology};
use aequitas_sim_core::{SimDuration, SimTime};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A packet crossing a domain boundary: deliver `pkt` to `node` at `at`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Boundary {
    pub(crate) at: SimTime,
    pub(crate) node: NodeRef,
    pub(crate) pkt: Packet,
}

/// A domain engine's view of the partition (held inside [`Engine`]).
pub(crate) struct ShardRole {
    pub(crate) spec: Arc<ShardSpec>,
    pub(crate) domain: usize,
    pub(crate) outbox: Vec<Boundary>,
}

impl ShardRole {
    /// Whether `node` belongs to this domain.
    pub(crate) fn owns(&self, node: NodeRef) -> bool {
        self.spec.domain_of(node) == self.domain
    }
}

/// A partition of a topology into synchronization domains.
///
/// Hosts inherit the domain of the switch their NIC is wired to, so
/// host-facing links never cross a boundary; only switch↔switch links may.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Domain index of each switch.
    pub domain_of_switch: Vec<usize>,
    /// Domain index of each host (derived from the NIC peer switch).
    pub domain_of_host: Vec<usize>,
    /// Number of domains (`max(domain)+1`; a domain may own switches but no
    /// hosts — the Clos core tier does).
    pub num_domains: usize,
    /// Conservative lookahead: the minimum propagation delay over all
    /// cross-domain links ([`SimDuration::MAX`] when no link crosses).
    pub lookahead: SimDuration,
}

impl ShardSpec {
    /// Build a spec from a per-switch domain assignment, deriving host
    /// domains and the lookahead. Panics if a switch's host-facing port
    /// crosses a domain boundary or if a cross-domain link has zero
    /// propagation delay (zero lookahead would stall the window protocol).
    pub fn new(topo: &Topology, domain_of_switch: Vec<usize>) -> ShardSpec {
        assert_eq!(
            domain_of_switch.len(),
            topo.num_switches(),
            "one domain per switch"
        );
        let num_domains = domain_of_switch.iter().max().map_or(0, |m| m + 1);
        let domain_of_host: Vec<usize> = topo
            .host_ports
            .iter()
            .map(|p| match p.peer {
                NodeRef::Switch(s) => domain_of_switch[s.0],
                NodeRef::Host(h) => panic!("host NIC wired to host {}", h.0),
            })
            .collect();
        let mut lookahead = SimDuration::MAX;
        for (sw, ports) in topo.switch_ports.iter().enumerate() {
            for port in ports {
                match port.peer {
                    NodeRef::Switch(peer) => {
                        if domain_of_switch[peer.0] != domain_of_switch[sw] {
                            lookahead = lookahead.min(port.link.propagation);
                        }
                    }
                    NodeRef::Host(h) => assert_eq!(
                        domain_of_host[h.0], domain_of_switch[sw],
                        "host {} is wired across a domain boundary",
                        h.0
                    ),
                }
            }
        }
        assert!(
            lookahead > SimDuration::ZERO,
            "a cross-domain link with zero propagation delay gives zero \
             lookahead; merge those switches into one domain"
        );
        ShardSpec {
            domain_of_switch,
            domain_of_host,
            num_domains,
            lookahead,
        }
    }

    /// The whole fabric as a single domain (sharding disabled; useful as a
    /// baseline in equivalence tests).
    pub fn single(topo: &Topology) -> ShardSpec {
        ShardSpec::new(topo, vec![0; topo.num_switches()])
    }

    /// The natural partition of a [`Topology::clos`] fabric: pod `p` is
    /// domain `p` (its leaves, spines, and hosts) and the core tier is
    /// domain `pods`. Lookahead is the spine↔core propagation delay. The
    /// shape arguments must match the ones `Topology::clos` was built with.
    pub fn clos_pods(
        topo: &Topology,
        pods: usize,
        spines_per_pod: usize,
        leaves_per_pod: usize,
    ) -> ShardSpec {
        let num_leaves = pods * leaves_per_pod;
        let num_spines = pods * spines_per_pod;
        assert!(
            topo.num_switches() >= num_leaves + num_spines,
            "shape does not match this topology"
        );
        let domain_of_switch = (0..topo.num_switches())
            .map(|sw| {
                if sw < num_leaves {
                    sw / leaves_per_pod
                } else if sw < num_leaves + num_spines {
                    (sw - num_leaves) / spines_per_pod
                } else {
                    pods // core tier
                }
            })
            .collect();
        ShardSpec::new(topo, domain_of_switch)
    }

    /// The domain that owns `node`.
    pub fn domain_of(&self, node: NodeRef) -> usize {
        match node {
            NodeRef::Host(h) => self.domain_of_host[h.0],
            NodeRef::Switch(s) => self.domain_of_switch[s.0],
        }
    }

    /// Deal the domains into `workers` lanes (clamped to
    /// `[1, num_domains]`): heaviest domain first — by (hosts owned,
    /// switches owned), ties to the lower domain id — onto the lane with
    /// the least load so far, ties to the lower lane. Each lane lists its
    /// domains in ascending id order. A pure function of the spec, so the
    /// thread-to-domain assignment is the same on every run; it can move
    /// wall-clock time only, since domains are independent inside a window.
    pub fn lanes(&self, workers: usize) -> Vec<Vec<usize>> {
        let workers = workers.clamp(1, self.num_domains.max(1));
        let mut weight: Vec<(usize, usize)> = (0..self.num_domains).map(|_| (0, 0)).collect();
        for &d in &self.domain_of_host {
            weight[d].0 += 1;
        }
        for &d in &self.domain_of_switch {
            weight[d].1 += 1;
        }
        let mut heaviest_first: Vec<usize> = (0..self.num_domains).collect();
        heaviest_first.sort_by_key(|&d| (std::cmp::Reverse(weight[d]), d));
        let mut load: Vec<(usize, usize)> = (0..workers).map(|_| (0, 0)).collect();
        let mut lanes: Vec<Vec<usize>> = (0..workers)
            .map(|_| Vec::with_capacity(self.num_domains.div_ceil(workers)))
            .collect();
        for d in heaviest_first {
            let lane = (0..workers)
                .min_by_key(|&l| load[l])
                .expect("at least one worker");
            load[lane].0 += weight[d].0;
            load[lane].1 += weight[d].1;
            lanes[lane].push(d);
        }
        for lane in &mut lanes {
            lane.sort_unstable();
        }
        lanes
    }
}

/// What the window protocol did, in exact counts — no wall clock, so the
/// numbers repeat run for run and are the same for every worker count.
/// They name the limit on the sharded engine's speed-up: `events / windows`
/// is the work a barrier crossing buys (lookahead width),
/// `boundary_packets` is the serial merge, and `events_per_domain` folded
/// over [`ShardedEngine::lanes`] is the imbalance
/// ([`ShardedEngine::lane_imbalance`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookahead windows run.
    pub windows: u64,
    /// Events dispatched, summed over windows (and so over domains).
    pub events: u64,
    /// Most events any one window dispatched.
    pub max_window_events: u64,
    /// Packets carried across a domain boundary by the merge.
    pub boundary_packets: u64,
    /// Events dispatched by each domain.
    pub events_per_domain: Vec<u64>,
}

/// How many `spin_loop` hints a waiter issues before it starts yielding its
/// time slice: a few tens of µs, enough to cover the coordinator's merge
/// and ordinary lane imbalance on dedicated cores. Past that the peer is
/// probably descheduled (more threads than cores), and burning the slice
/// would only delay it.
const SPIN_LIMIT: u32 = 2_048;

/// `Barrier::halt` while windows are being handed out.
const RUNNING: usize = usize::MAX;
/// `Barrier::halt` once the call is over: workers return.
const FINISHED: usize = usize::MAX - 1;

/// The hand-off between the coordinator and its lane workers for one
/// `run_until` call. Engine state travels under the lane mutexes; the
/// atomics publish only `wend_ps`: the coordinator stores it and then bumps
/// `epoch` with `Release`, a worker reads `epoch` with `Acquire` before it
/// reads `wend_ps`.
struct Barrier {
    /// Number of the window being run; workers wait for it to change.
    epoch: AtomicU64,
    /// Horizon of that window, in picoseconds.
    wend_ps: AtomicU64,
    /// Lanes finished by workers, summed over the call.
    arrived: AtomicU64,
    /// [`RUNNING`], [`FINISHED`], or the domain a thread was running when
    /// it panicked.
    halt: AtomicUsize,
}

impl Barrier {
    /// Spin, then yield, until `ready()`. `false` when the run halted
    /// first.
    fn wait(&self, ready: impl Fn() -> bool) -> bool {
        let mut spins = 0;
        loop {
            if ready() {
                return true;
            }
            if self.halt.load(Ordering::Acquire) != RUNNING {
                return false;
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Held by every thread of a call while it runs domains: if the thread
/// unwinds, the barrier halts with the domain it was in, so no peer waits
/// for a completion that will never come.
struct HaltOnUnwind<'a> {
    barrier: &'a Barrier,
    domain: Cell<usize>,
}

impl Drop for HaltOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The first panic names the domain; the coordinator's own
            // re-panic must not overwrite it.
            let _ = self.barrier.halt.compare_exchange(
                RUNNING,
                self.domain.get(),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }
}

/// One worker's share of the domains for a `run_until` call, with their
/// ids.
type Lane<'a, A> = Vec<(usize, &'a mut Engine<A>)>;

/// Advance every domain of `lane` to `wend`.
fn run_lane<A: HostAgent>(lane: &Mutex<Lane<'_, A>>, wend: SimTime, unwind: &HaltOnUnwind<'_>) {
    let mut lane = lane
        .lock()
        .expect("a lane is locked by one thread at a time, and a panic under it halts the run");
    for (d, engine) in lane.iter_mut() {
        unwind.domain.set(*d);
        engine.run_until(wend);
    }
}

/// A lane worker: run the lane once per epoch until the call is over.
fn lane_worker<A: HostAgent>(barrier: &Barrier, lane: &Mutex<Lane<'_, A>>) {
    let unwind = HaltOnUnwind {
        barrier,
        domain: Cell::new(0),
    };
    let mut seen = 0;
    while barrier.wait(|| barrier.epoch.load(Ordering::Acquire) != seen) {
        seen += 1;
        let wend = SimTime::from_ps(barrier.wend_ps.load(Ordering::Relaxed));
        run_lane(lane, wend, &unwind);
        barrier.arrived.fetch_add(1, Ordering::Release);
    }
}

/// The next horizon: `min(end, m + lookahead)` for `m` the earliest pending
/// event, or `None` when every queue is empty (no boundary traffic pending)
/// or `m` lies beyond `end`.
fn horizon(
    pending: impl Iterator<Item = Option<SimTime>>,
    end: SimTime,
    lookahead: SimDuration,
) -> Option<SimTime> {
    let m = pending.flatten().min()?;
    if m > end {
        None
    } else if lookahead == SimDuration::MAX {
        Some(end)
    } else {
        Some(end.min(m + lookahead))
    }
}

/// A sharded simulation: one [`Engine`] per domain, advanced in
/// conservative-lookahead windows by persistent lane workers (see the
/// module docs).
///
/// The worker-thread count is a pure wall-clock knob: results are
/// byte-identical for every value (see the module docs for the argument).
/// Telemetry: attach a *separate* handle per domain via
/// [`ShardedEngine::domain_mut`] — a handle shared across domains stays
/// correct but interleaves trace lines nondeterministically under
/// `threads > 1`.
pub struct ShardedEngine<A: HostAgent> {
    domains: Vec<Engine<A>>,
    spec: Arc<ShardSpec>,
    /// [`ShardSpec::lanes`] for the effective worker count.
    lanes: Vec<Vec<usize>>,
    /// Per-domain spare outbox vectors, recycled across windows.
    scratch: Vec<Vec<Boundary>>,
    stats: ShardStats,
    spawned: u64,
}

impl<A: HostAgent + Send> ShardedEngine<A> {
    /// Build a sharded simulation over `topo` with one agent per host
    /// (host-id order, exactly as [`Engine::new`] takes them) and `threads`
    /// worker threads, clamped here, once, to `[1, num_domains]`
    /// ([`ShardedEngine::workers`] is the effective count).
    pub fn new(
        topo: impl Into<Arc<Topology>>,
        agents: Vec<A>,
        config: EngineConfig,
        spec: ShardSpec,
        threads: usize,
    ) -> Self {
        let topo = topo.into();
        let spec = Arc::new(spec);
        assert_eq!(agents.len(), topo.num_hosts(), "need one agent per host");
        assert_eq!(spec.domain_of_host.len(), topo.num_hosts());
        assert!(spec.num_domains >= 1, "need at least one domain");
        let mut per_domain: Vec<Vec<A>> = (0..spec.num_domains).map(|_| Vec::new()).collect();
        for (h, agent) in agents.into_iter().enumerate() {
            per_domain[spec.domain_of_host[h]].push(agent);
        }
        let domains: Vec<Engine<A>> = per_domain
            .into_iter()
            .enumerate()
            .map(|(d, ag)| {
                Engine::new_sharded(topo.clone(), ag, config.clone(), spec.clone(), d)
            })
            .collect();
        // Per-domain merge scratch, recycled every window via mem::swap
        // with the domain outboxes.
        let scratch = (0..spec.num_domains).map(|_| Vec::new()).collect();
        ShardedEngine {
            domains,
            lanes: spec.lanes(threads),
            spec,
            scratch,
            stats: ShardStats::default(),
            spawned: 0,
        }
    }

    /// Run until simulated time reaches `end` (or all event queues drain),
    /// exchanging boundary packets at lookahead horizons.
    ///
    /// A call that needs more than one window spawns `workers() − 1`
    /// scoped threads for its duration; a call whose first horizon is
    /// already `end` (one window: `run_until(SimTime::ZERO)` as set-up, a
    /// step no longer than the lookahead, a single domain) runs on the
    /// calling thread alone, as does every call at one worker.
    pub fn run_until(&mut self, end: SimTime) {
        // Start every domain first (serially, in domain order) so the first
        // horizon sees each domain's initial events.
        for d in self.domains.iter_mut() {
            d.ensure_started();
        }
        let lookahead = self.spec.lookahead;
        let pending = self.domains.iter().map(Engine::peek_next_time);
        let Some(first) = horizon(pending, end, lookahead) else {
            return;
        };
        let ShardedEngine {
            domains,
            spec,
            lanes,
            scratch,
            stats,
            spawned,
        } = self;
        // One lane — everything on this thread — when there is nothing to
        // overlap a spawn with.
        let lane_count = if first == end { 1 } else { lanes.len() };
        // Where domain `d` sits: (lane, slot in the lane).
        let mut place: Vec<(usize, usize)> = (0..domains.len()).map(|d| (0, d)).collect();
        if lane_count > 1 {
            for (l, lane) in lanes.iter().enumerate() {
                for (slot, &d) in lane.iter().enumerate() {
                    place[d] = (l, slot);
                }
            }
        }
        // Lanes list their domains in ascending id order, so dealing the
        // engines in id order fills the slots in order.
        let mut dealt: Vec<Lane<'_, A>> = (0..lane_count)
            .map(|_| Vec::with_capacity(domains.len()))
            .collect();
        for (d, engine) in domains.iter_mut().enumerate() {
            dealt[place[d].0].push((d, engine));
        }
        let dealt: Vec<Mutex<Lane<'_, A>>> = dealt.into_iter().map(Mutex::new).collect();
        let barrier = Barrier {
            epoch: AtomicU64::new(0),
            wend_ps: AtomicU64::new(0),
            arrived: AtomicU64::new(0),
            halt: AtomicUsize::new(RUNNING),
        };
        let workers = (lane_count - 1) as u64;
        *spawned += workers;

        std::thread::scope(|scope| {
            let unwind = HaltOnUnwind {
                barrier: &barrier,
                domain: Cell::new(0),
            };
            for lane in &dealt[1..] {
                let barrier = &barrier;
                scope.spawn(move || lane_worker(barrier, lane));
            }
            // Every lane's guard, held between windows (merge, horizon) and
            // released for the window itself.
            let mut held: Vec<MutexGuard<'_, Lane<'_, A>>> = Vec::with_capacity(lane_count);
            let mut next = Some(first);
            let mut epoch = 0;
            while let Some(wend) = next {
                held.clear();
                epoch += 1;
                barrier.wend_ps.store(wend.as_ps(), Ordering::Relaxed);
                barrier.epoch.store(epoch, Ordering::Release);
                run_lane(&dealt[0], wend, &unwind);
                let all_in = || barrier.arrived.load(Ordering::Acquire) == epoch * workers;
                if !barrier.wait(all_in) {
                    panic!(
                        "shard worker panicked while running domain {}",
                        barrier.halt.load(Ordering::Acquire)
                    );
                }
                held.extend(dealt.iter().map(|lane| {
                    lane.lock()
                        .expect("every worker has released its lane unpoisoned")
                }));
                // Deterministic merge: outboxes drain in domain-id order on
                // this thread, each in export order; the destination queue's
                // (time, seq) order does the rest. Every boundary arrival is
                // ≥ wend, so injection never violates a destination
                // domain's clock.
                for d in 0..place.len() {
                    let (lane, slot) = place[d];
                    let mut out = std::mem::take(&mut scratch[d]);
                    held[lane][slot].1.take_outbox(&mut out);
                    stats.boundary_packets += out.len() as u64;
                    for b in out.drain(..) {
                        let (lane, slot) = place[spec.domain_of(b.node)];
                        held[lane][slot].1.inject_arrival(b);
                    }
                    scratch[d] = out;
                }
                let engines = || held.iter().flat_map(|lane| lane.iter()).map(|(_, e)| &**e);
                let events: u64 = engines().map(Engine::events_processed).sum();
                stats.windows += 1;
                stats.max_window_events = stats.max_window_events.max(events - stats.events);
                stats.events = events;
                next = horizon(engines().map(Engine::peek_next_time), end, lookahead);
            }
            barrier.halt.store(FINISHED, Ordering::Release);
        });
        stats.events_per_domain.clear();
        stats
            .events_per_domain
            .extend(domains.iter().map(Engine::events_processed));
    }

    /// Effective worker-thread count: the constructor's `threads` clamped
    /// to `[1, num_domains]`.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The domains each worker runs ([`ShardSpec::lanes`] for
    /// [`ShardedEngine::workers`]); lane 0 is the calling thread's.
    pub fn lanes(&self) -> &[Vec<usize>] {
        &self.lanes
    }

    /// Exact counts of the window protocol so far.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Events dispatched by each lane's domains.
    pub fn lane_events(&self) -> Vec<u64> {
        self.lanes
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|&d| self.domains[d].events_processed())
                    .sum()
            })
            .collect()
    }

    /// Busiest lane's events ÷ the mean over lanes (1.0 = perfectly even;
    /// `workers()` = one lane does everything). The critical path of a
    /// window is its busiest lane, so `workers() / lane_imbalance()` bounds
    /// the speed-up from threads.
    pub fn lane_imbalance(&self) -> f64 {
        let per_lane = self.lane_events();
        let max = per_lane.iter().copied().max().unwrap_or(0);
        let total: u64 = per_lane.iter().sum();
        if total == 0 {
            1.0
        } else {
            max as f64 * per_lane.len() as f64 / total as f64
        }
    }

    /// Worker threads spawned so far, over all `run_until` calls.
    pub fn spawned_workers(&self) -> u64 {
        self.spawned
    }

    /// The partition this simulation runs under.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// The engine simulating domain `d`.
    pub fn domain(&self, d: usize) -> &Engine<A> {
        &self.domains[d]
    }

    /// Mutable access to domain `d`'s engine (e.g. to attach a per-domain
    /// telemetry handle before running).
    pub fn domain_mut(&mut self, d: usize) -> &mut Engine<A> {
        &mut self.domains[d]
    }

    /// The agent driving `host`, found in its owning domain.
    pub fn agent(&self, host: HostId) -> &A {
        self.domains[self.spec.domain_of_host[host.0]]
            .agent_for_host(host)
            .expect("owning domain lacks the host's agent")
    }

    /// Mutable variant of [`ShardedEngine::agent`].
    pub fn agent_mut(&mut self, host: HostId) -> &mut A {
        let d = self.spec.domain_of_host[host.0];
        self.domains[d]
            .agent_for_host_mut(host)
            .expect("owning domain lacks the host's agent")
    }

    /// Total events processed across all domains.
    pub fn events_processed(&self) -> u64 {
        self.domains.iter().map(|d| d.events_processed()).sum()
    }

    /// Stats of a switch egress port (from its owning domain).
    pub fn switch_port_stats(&self, sw: SwitchId, port: usize) -> &PortStats {
        self.domains[self.spec.domain_of_switch[sw.0]].switch_port_stats(sw, port)
    }

    /// Stats of a host NIC port (from its owning domain).
    pub fn host_nic_stats(&self, host: HostId) -> &PortStats {
        self.domains[self.spec.domain_of_host[host.0]].host_nic_stats(host)
    }

    /// Packets destroyed by the structured fault plan across all domains:
    /// `(clean losses, corruptions)`.
    pub fn fault_loss_totals(&self) -> (u64, u64) {
        let mut drops = 0;
        let mut corrupts = 0;
        for d in &self.domains {
            let (dd, dc) = d.fault_loss_totals();
            drops += dd;
            corrupts += dc;
        }
        (drops, corrupts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, PacketKind};
    use crate::topology::LinkSpec;
    use aequitas_sim_core::SimTime;

    /// Sends `n` packets to a fixed peer at start; records receptions.
    struct Pinger {
        peer: Option<HostId>,
        n: u64,
        received: Vec<(SimTime, u64)>,
        /// Panic on the first packet received.
        explosive: bool,
    }

    impl Pinger {
        fn sender(peer: HostId, n: u64) -> Self {
            Pinger {
                peer: Some(peer),
                n,
                received: Vec::new(),
                explosive: false,
            }
        }
        fn sink() -> Self {
            Pinger {
                peer: None,
                n: 0,
                received: Vec::new(),
                explosive: false,
            }
        }
    }

    impl HostAgent for Pinger {
        fn on_start(&mut self, ctx: &mut crate::engine::HostCtx) {
            if let Some(peer) = self.peer {
                for i in 0..self.n {
                    ctx.send(Packet {
                        id: ctx.host().0 as u64 * 1_000_000 + i,
                        flow: FlowKey {
                            src: ctx.host(),
                            dst: peer,
                            class: (i % 2) as u8,
                        },
                        size_bytes: 1500,
                        kind: PacketKind::Data {
                            msg_id: 0,
                            seq: i as u32,
                            is_last: i == self.n - 1,
                        },
                        sent_at: ctx.now(),
                        rank: 0,
                    });
                }
            }
        }
        fn on_packet(&mut self, ctx: &mut crate::engine::HostCtx, pkt: Packet) {
            assert!(!self.explosive, "pinger exploded");
            self.received.push((ctx.now(), pkt.id));
        }
        fn on_timer(&mut self, _ctx: &mut crate::engine::HostCtx, _token: u64) {}
    }

    fn small_clos() -> (Topology, ShardSpec) {
        // 2 pods × (2 spines, 2 leaves × 2 hosts), 2 cores; slower core
        // links give a generous lookahead.
        let core = LinkSpec {
            rate: aequitas_sim_core::BitRate::from_gbps(100),
            propagation: SimDuration::from_us(2),
        };
        let topo = Topology::clos(
            2,
            2,
            2,
            2,
            2,
            LinkSpec::default_100g(),
            LinkSpec::default_100g(),
            core,
        );
        let spec = ShardSpec::clos_pods(&topo, 2, 2, 2);
        (topo, spec)
    }

    /// Every host sends to its "mirror" host in the other pod.
    fn cross_pod_agents(n: usize, pkts: u64) -> Vec<Pinger> {
        (0..n)
            .map(|h| Pinger::sender(HostId((h + n / 2) % n), pkts))
            .collect()
    }

    #[test]
    fn clos_pod_partition_shape() {
        let (topo, spec) = small_clos();
        assert_eq!(spec.num_domains, 3); // 2 pods + core tier
        // Pod 0: leaves 0-1, spines 4-5. Pod 1: leaves 2-3, spines 6-7.
        assert_eq!(&spec.domain_of_switch[..], &[0, 0, 1, 1, 0, 0, 1, 1, 2, 2]);
        // Hosts follow their leaf.
        assert_eq!(&spec.domain_of_host[..4], &[0, 0, 0, 0]);
        assert_eq!(&spec.domain_of_host[4..], &[1, 1, 1, 1]);
        // Lookahead = spine<->core propagation.
        assert_eq!(spec.lookahead, SimDuration::from_us(2));
        let _ = topo;
    }

    #[test]
    fn sharded_matches_unsharded_aggregates() {
        let (topo, spec) = small_clos();
        let n = topo.num_hosts();
        let cfg = EngineConfig::default_2qos();
        let end = SimTime::from_ms(2);

        let mut plain = Engine::new(topo.clone(), cross_pod_agents(n, 50), cfg.clone());
        plain.run_until(end);

        let mut sharded = ShardedEngine::new(topo, cross_pod_agents(n, 50), cfg, spec, 1);
        sharded.run_until(end);

        // The two schedules may order same-instant events at a shared port
        // differently (the byte-identical guarantee is across *thread
        // counts*, not across partitions), so compare aggregates: every
        // packet arrives, at the right host, exactly once, and the total
        // event work is identical.
        for h in 0..n {
            let mut a: Vec<u64> = plain.agents()[h].received.iter().map(|r| r.1).collect();
            let mut b: Vec<u64> = sharded
                .agent(HostId(h))
                .received
                .iter()
                .map(|r| r.1)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "host {h} diverged");
            assert_eq!(a.len(), 50);
        }
        assert_eq!(plain.events_processed(), sharded.events_processed());
    }

    #[test]
    fn thread_count_is_invisible() {
        let run = |threads: usize| {
            let (topo, spec) = small_clos();
            let n = topo.num_hosts();
            let mut eng = ShardedEngine::new(
                topo,
                cross_pod_agents(n, 200),
                EngineConfig::default_2qos(),
                spec,
                threads,
            );
            eng.run_until(SimTime::from_ms(5));
            let rx: Vec<Vec<(SimTime, u64)>> = (0..n)
                .map(|h| eng.agent(HostId(h)).received.clone())
                .collect();
            (rx, eng.events_processed())
        };
        let one = run(1);
        assert_eq!(one, run(2), "2 threads diverged");
        assert_eq!(one, run(4), "4 threads diverged");
        // And traffic did actually cross the boundary.
        assert!(one.0.iter().all(|rx| rx.len() == 200));
    }

    #[test]
    fn every_domain_frees_every_packet_it_parked() {
        use aequitas_faults::{FaultPlan, LinkSel, LossRule};
        let (topo, spec) = small_clos();
        let n = topo.num_hosts();
        let mut cfg = EngineConfig::default_2qos();
        cfg.faults = Some(Arc::new(FaultPlan {
            seed: 5,
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.05,
                burst: None,
            }],
            ..FaultPlan::default()
        }));
        let mut eng = ShardedEngine::new(topo, cross_pod_agents(n, 200), cfg, spec, 2);
        let live = |eng: &ShardedEngine<Pinger>| -> usize {
            (0..eng.num_domains())
                .map(|d| {
                    let (live, held) = eng.domain(d).packet_census();
                    assert_eq!(live, held, "domain {d}'s packet slab out of step");
                    live
                })
                .sum()
        };
        eng.run_until(SimTime::from_us(20));
        assert!(live(&eng) > 0, "nothing in flight mid-run");
        eng.run_until(SimTime::from_ms(5));
        assert_eq!(live(&eng), 0, "packets leaked after the drain");
        assert!(eng.stats().boundary_packets > 0);
        assert!(eng.fault_loss_totals().0 > 0);
    }

    #[test]
    fn single_domain_spec_is_the_plain_engine() {
        let topo = Topology::star(4, LinkSpec::default_100g());
        let spec = ShardSpec::single(&topo);
        assert_eq!(spec.num_domains, 1);
        assert_eq!(spec.lookahead, SimDuration::MAX);
        let agents = vec![
            Pinger::sender(HostId(1), 30),
            Pinger::sink(),
            Pinger::sender(HostId(3), 30),
            Pinger::sink(),
        ];
        let mut sharded =
            ShardedEngine::new(topo.clone(), agents, EngineConfig::default_2qos(), spec, 4);
        sharded.run_until(SimTime::from_ms(1));
        let agents = vec![
            Pinger::sender(HostId(1), 30),
            Pinger::sink(),
            Pinger::sender(HostId(3), 30),
            Pinger::sink(),
        ];
        let mut plain = Engine::new(topo, agents, EngineConfig::default_2qos());
        plain.run_until(SimTime::from_ms(1));
        for h in 0..4 {
            assert_eq!(
                plain.agents()[h].received,
                sharded.agent(HostId(h)).received
            );
        }
    }

    #[test]
    fn lanes_are_a_pure_function_of_the_spec_and_balance_clos_pods() {
        // 4 pods × (2 spines, 2 leaves × 2 hosts) + 2 cores = 5 domains.
        let link = LinkSpec::default_100g();
        let topo = Topology::clos(4, 2, 2, 2, 2, link, link, link);
        let spec = ShardSpec::clos_pods(&topo, 4, 2, 2);
        // Pods weigh (4 hosts, 4 switches), the core tier (0, 2): pods
        // alternate, the core breaks the tie toward lane 0.
        let lanes = spec.lanes(2);
        assert_eq!(lanes, [vec![0, 2, 4], vec![1, 3]]);
        let hosts_of = |lane: &[usize]| {
            spec.domain_of_host
                .iter()
                .filter(|d| lane.contains(d))
                .count()
        };
        assert_eq!(hosts_of(&lanes[0]), hosts_of(&lanes[1]));
        assert_eq!(spec.lanes(2), lanes, "same spec, same lanes");
        assert_eq!(spec.lanes(3), [vec![0, 3], vec![1, 4], vec![2]]);
        // Clamped to [1, num_domains].
        assert_eq!(spec.lanes(0), [vec![0, 1, 2, 3, 4]]);
        assert_eq!(spec.lanes(8), spec.lanes(5));
        assert_eq!(spec.lanes(5).len(), 5);

        let n = topo.num_hosts();
        let cfg = EngineConfig::default_2qos();
        let mut eng = ShardedEngine::new(topo, cross_pod_agents(n, 20), cfg, spec, 8);
        assert_eq!(eng.workers(), 5);
        eng.run_until(SimTime::from_ms(1));
        assert_eq!(eng.lane_events(), eng.stats().events_per_domain);
        assert_eq!(eng.lane_events().iter().sum::<u64>(), eng.stats().events);
        assert!((1.0..=5.0).contains(&eng.lane_imbalance()));
    }

    /// Host `bomb` panics on its first packet; `threads` workers.
    fn run_with_bomb(bomb: usize, threads: usize) {
        let (topo, spec) = small_clos();
        // Pod 0 and the core tier share lane 0 (the caller's); pod 1 is
        // the spawned worker's.
        assert_eq!(spec.lanes(2), [vec![0, 2], vec![1]]);
        let n = topo.num_hosts();
        let mut agents = cross_pod_agents(n, 50);
        agents[bomb].explosive = true;
        let mut eng = ShardedEngine::new(topo, agents, EngineConfig::default_2qos(), spec, threads);
        eng.run_until(SimTime::from_ms(2));
    }

    // Without the halt flag either test would spin forever instead of
    // failing: the coordinator on a completion count that never arrives,
    // the worker on an epoch that never comes.
    #[test]
    #[should_panic(expected = "shard worker panicked while running domain 1")]
    fn a_panicking_worker_fails_the_run_naming_its_domain() {
        run_with_bomb(5, 2);
    }

    #[test]
    #[should_panic(expected = "pinger exploded")]
    fn a_panic_on_the_calling_thread_releases_the_workers() {
        run_with_bomb(1, 2);
    }

    #[test]
    #[should_panic(expected = "zero propagation delay")]
    fn zero_lookahead_is_rejected() {
        let zero = LinkSpec {
            rate: aequitas_sim_core::BitRate::from_gbps(100),
            propagation: SimDuration::ZERO,
        };
        let topo = Topology::leaf_spine(2, 1, 1, zero, zero);
        // ToRs in separate domains with zero-propagation uplinks.
        ShardSpec::new(&topo, vec![0, 1, 0]);
    }
}
