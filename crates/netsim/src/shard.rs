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
//! Determinism: the domain partition, the window schedule, and the
//! domain-ordered merge are all pure functions of the topology and the
//! event timeline — none depends on how many worker threads execute step 2.
//! One thread and N therefore produce byte-identical results
//! (gated by `tests/sharded_determinism.rs`).

use crate::engine::{Engine, EngineConfig, HostAgent};
use crate::packet::Packet;
use crate::port::PortStats;
use crate::topology::{HostId, NodeRef, SwitchId, Topology};
use aequitas_sim_core::{SimDuration, SimTime};
use std::sync::Arc;

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
        match node {
            NodeRef::Host(h) => self.spec.domain_of_host[h.0] == self.domain,
            NodeRef::Switch(s) => self.spec.domain_of_switch[s.0] == self.domain,
        }
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
        // alloc: spec construction, once per run.
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
}

/// A sharded simulation: one [`Engine`] per domain, advanced in
/// conservative-lookahead windows, optionally on multiple worker threads.
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
    threads: usize,
    /// Per-domain spare outbox vectors, recycled across windows.
    scratch: Vec<Vec<Boundary>>,
}

impl<A: HostAgent + Send> ShardedEngine<A> {
    /// Build a sharded simulation over `topo` with one agent per host
    /// (host-id order, exactly as [`Engine::new`] takes them) and `threads`
    /// worker threads (values are clamped to `[1, num_domains]`).
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
        // alloc: engine construction — agents are partitioned once.
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
        // alloc: per-domain merge scratch, allocated once and recycled
        // every window via mem::swap with the domain outboxes.
        let scratch = (0..spec.num_domains).map(|_| Vec::new()).collect();
        ShardedEngine {
            domains,
            spec,
            threads: threads.max(1),
            scratch,
        }
    }

    /// Run until simulated time reaches `end` (or all event queues drain),
    /// exchanging boundary packets at lookahead horizons.
    pub fn run_until(&mut self, end: SimTime) {
        // Start every domain first (serially, in domain order) so the first
        // horizon sees each domain's initial events.
        for d in self.domains.iter_mut() {
            d.ensure_started();
        }
        // Loop ends when every queue drains (no boundary traffic pending)
        // or the earliest pending event lies beyond `end`.
        while let Some(m) = self.domains.iter().filter_map(|d| d.peek_next_time()).min() {
            if m > end {
                break;
            }
            let wend = if self.spec.lookahead == SimDuration::MAX {
                end
            } else {
                end.min(m + self.spec.lookahead)
            };
            self.run_window(wend);
            // Deterministic merge: outboxes drain in domain-id order on this
            // thread. Every boundary arrival is ≥ wend, so injection never
            // violates a destination domain's clock.
            for d in 0..self.domains.len() {
                let mut out = std::mem::take(&mut self.scratch[d]);
                self.domains[d].take_outbox(&mut out);
                for b in out.drain(..) {
                    let target = match b.node {
                        NodeRef::Host(h) => self.spec.domain_of_host[h.0],
                        NodeRef::Switch(s) => self.spec.domain_of_switch[s.0],
                    };
                    self.domains[target].inject_arrival(b);
                }
                self.scratch[d] = out;
            }
        }
    }

    /// Advance every domain to `wend`, in parallel when `threads > 1`.
    /// Domains are independent inside a window, so the thread-to-domain
    /// assignment (contiguous chunks) cannot affect results.
    fn run_window(&mut self, wend: SimTime) {
        let workers = self.threads.min(self.domains.len());
        if workers <= 1 {
            for d in self.domains.iter_mut() {
                d.run_until(wend);
            }
            return;
        }
        let per = self.domains.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut chunks = self.domains.chunks_mut(per);
            // First chunk runs on the calling thread; the rest get workers.
            let first = chunks.next();
            let handles: Vec<_> = chunks
                .map(|chunk| {
                    scope.spawn(move || {
                        for d in chunk {
                            d.run_until(wend);
                        }
                    })
                })
                .collect();
            if let Some(chunk) = first {
                for d in chunk {
                    d.run_until(wend);
                }
            }
            for h in handles {
                h.join().expect("shard worker panicked");
            }
        });
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
    }

    impl Pinger {
        fn sender(peer: HostId, n: u64) -> Self {
            Pinger {
                peer: Some(peer),
                n,
                received: Vec::new(),
            }
        }
        fn sink() -> Self {
            Pinger {
                peer: None,
                n: 0,
                received: Vec::new(),
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
