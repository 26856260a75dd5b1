//! Network topologies and routing.

use aequitas_sim_core::{BitRate, SimDuration};

/// A host (end system) index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// A switch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub usize);

/// Either kind of node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// A host.
    Host(HostId),
    /// A switch.
    Switch(SwitchId),
}

/// Physical properties of one direction of a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Transmission rate.
    pub rate: BitRate,
    /// One-way propagation delay.
    pub propagation: SimDuration,
}

impl LinkSpec {
    /// A typical 100 Gbps intra-cluster link with 500 ns propagation
    /// (a few switch hops' worth of wire).
    pub fn default_100g() -> Self {
        LinkSpec {
            rate: BitRate::from_gbps(100),
            propagation: SimDuration::from_ns(500),
        }
    }
}

/// One egress port of a node: where it leads and over what link.
#[derive(Debug, Clone, Copy)]
pub struct PortSpec {
    /// The node at the far end.
    pub peer: NodeRef,
    /// Link characteristics.
    pub link: LinkSpec,
}

/// One row of the precomputed FIB: a `(offset, len)` window into the flat
/// candidate-port array.
#[derive(Debug, Clone, Copy)]
struct FibRow {
    offset: u32,
    len: u32,
}

/// A network topology: hosts, switches, their ports, and routing.
///
/// Hosts always have exactly one port (their NIC uplink). Routing is
/// destination-based with optional ECMP: a switch may list several candidate
/// egress ports for a destination and the engine picks one by flow hash.
///
/// Construction (every constructor funnels through the same table builder)
/// precomputes two dense hot-path tables from the `routes` triple-`Vec`:
///
/// * a flat FIB — per `(switch, dst_host)` row of candidate egress ports in
///   one contiguous array, so the per-packet [`Topology::next_hop`] is an
///   array load (plus one modulo only on true ECMP fan-outs);
/// * exact picoseconds-per-bit per egress port, so serialization delays are
///   a single multiply instead of a 128-bit division per transmission.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Per-host uplink port.
    pub host_ports: Vec<PortSpec>,
    /// Per-switch list of egress ports.
    pub switch_ports: Vec<Vec<PortSpec>>,
    /// `routes[switch][dst_host]` = candidate egress port indices. The
    /// reference routing table; [`Topology::route`] consults it directly and
    /// the FIB is flattened from it at construction.
    pub routes: Vec<Vec<Vec<usize>>>,
    /// `fib_rows[switch * num_hosts + dst]` → window into `fib_ports`.
    fib_rows: Vec<FibRow>,
    /// Flat candidate egress-port array backing `fib_rows`.
    fib_ports: Vec<u32>,
    /// Exact ps/bit of each host uplink (0 = inexact rate, use the slow path).
    host_ppb: Vec<u64>,
    /// Exact ps/bit per switch egress port (0 = inexact rate).
    switch_ppb: Vec<Vec<u64>>,
}

impl Topology {
    /// Finish construction: take the human-shaped tables every constructor
    /// builds and derive the dense hot-path tables from them. Panics if any
    /// `(switch, dst)` pair has no candidate egress port.
    fn assemble(
        host_ports: Vec<PortSpec>,
        switch_ports: Vec<Vec<PortSpec>>,
        routes: Vec<Vec<Vec<usize>>>,
    ) -> Topology {
        let n = host_ports.len();
        let mut fib_rows = Vec::with_capacity(routes.len() * n);
        let mut fib_ports = Vec::new();
        for (sw, by_dst) in routes.iter().enumerate() {
            assert_eq!(by_dst.len(), n, "switch {sw} routes must cover every host");
            for (dst, candidates) in by_dst.iter().enumerate() {
                assert!(
                    !candidates.is_empty(),
                    "no route from switch {sw} to host {dst}"
                );
                fib_rows.push(FibRow {
                    offset: fib_ports.len() as u32,
                    len: candidates.len() as u32,
                });
                fib_ports.extend(candidates.iter().map(|&p| p as u32));
            }
        }
        let ppb = |rate: aequitas_sim_core::BitRate| rate.ps_per_bit_exact().unwrap_or(0);
        let host_ppb = host_ports.iter().map(|p| ppb(p.link.rate)).collect();
        let switch_ppb = switch_ports
            .iter()
            .map(|ports| ports.iter().map(|p| ppb(p.link.rate)).collect())
            .collect();
        Topology {
            host_ports,
            switch_ports,
            routes,
            fib_rows,
            fib_ports,
            host_ppb,
            switch_ppb,
        }
    }
    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.host_ports.len()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switch_ports.len()
    }

    /// Select the egress port at `sw` toward `dst` for a flow with the given
    /// hash (ECMP pick among candidates).
    pub fn route(&self, sw: SwitchId, dst: HostId, flow_hash: u64) -> usize {
        let candidates = &self.routes[sw.0][dst.0];
        assert!(
            !candidates.is_empty(),
            "no route from switch {} to host {}",
            sw.0,
            dst.0
        );
        candidates[(flow_hash % candidates.len() as u64) as usize]
    }

    /// FIB variant of [`Topology::route`]: same `(switch, dst, hash)` →
    /// egress-port function, answered from the flat precomputed table. The
    /// two must agree for every input (see `fib_matches_route_*` tests).
    #[inline]
    pub fn fib_lookup(&self, sw: SwitchId, dst: HostId, flow_hash: u64) -> usize {
        let row = self.fib_rows[sw.0 * self.host_ports.len() + dst.0];
        let pick = if row.len == 1 {
            0
        } else {
            (flow_hash % row.len as u64) as u32
        };
        self.fib_ports[(row.offset + pick) as usize] as usize
    }

    /// Per-packet forwarding: like [`Topology::fib_lookup`] but the ECMP
    /// hash is computed lazily — single-candidate rows (the common case on
    /// every hop except true fan-outs) never hash at all. `hash % 1 == 0`
    /// for any hash, so laziness cannot change the pick.
    #[inline]
    pub fn next_hop(&self, sw: SwitchId, dst: HostId, flow: &crate::packet::FlowKey) -> usize {
        let row = self.fib_rows[sw.0 * self.host_ports.len() + dst.0];
        let pick = if row.len == 1 {
            0
        } else {
            (flow.ecmp_hash() % row.len as u64) as u32
        };
        self.fib_ports[(row.offset + pick) as usize] as usize
    }

    /// Exact ps/bit of a host's uplink, or 0 when the rate needs the
    /// 128-bit [`BitRate::serialize_time`](aequitas_sim_core::BitRate) path.
    #[inline]
    pub fn host_tx_ppb(&self, host: HostId) -> u64 {
        self.host_ppb[host.0]
    }

    /// Exact ps/bit of a switch egress port, or 0 (see
    /// [`Topology::host_tx_ppb`]).
    #[inline]
    pub fn switch_tx_ppb(&self, sw: SwitchId, port: usize) -> u64 {
        self.switch_ppb[sw.0][port]
    }

    /// A single-switch star: `n` hosts all attached to one switch.
    ///
    /// This realizes both the paper's 3-node microbenchmark (two clients and
    /// a server; the switch→server port is the bottleneck) and the 33-node /
    /// 20-node single-switch setups.
    pub fn star(n: usize, link: LinkSpec) -> Topology {
        assert!(n >= 2);
        let host_ports = (0..n)
            .map(|_| PortSpec {
                peer: NodeRef::Switch(SwitchId(0)),
                link,
            })
            .collect();
        let switch_ports = vec![(0..n)
            .map(|h| PortSpec {
                peer: NodeRef::Host(HostId(h)),
                link,
            })
            .collect::<Vec<_>>()];
        let routes = vec![(0..n).map(|h| vec![h]).collect()];
        Topology::assemble(host_ports, switch_ports, routes)
    }

    /// A two-tier leaf–spine fabric: `racks × hosts_per_rack` hosts, one ToR
    /// per rack, `spines` spine switches, every ToR connected to every spine.
    ///
    /// `uplink` may be slower than `link` to model oversubscription. Flows
    /// between racks are ECMP-spread over the spines by flow hash. Switch
    /// ids: ToRs are `0..racks`, spines are `racks..racks+spines`.
    pub fn leaf_spine(
        racks: usize,
        hosts_per_rack: usize,
        spines: usize,
        link: LinkSpec,
        uplink: LinkSpec,
    ) -> Topology {
        assert!(racks >= 1 && hosts_per_rack >= 1 && spines >= 1);
        let n = racks * hosts_per_rack;
        let host_ports: Vec<PortSpec> = (0..n)
            .map(|h| PortSpec {
                peer: NodeRef::Switch(SwitchId(h / hosts_per_rack)),
                link,
            })
            .collect();

        let mut switch_ports = Vec::with_capacity(racks + spines);
        let mut routes = Vec::with_capacity(racks + spines);

        // ToR r: ports 0..hosts_per_rack go to local hosts; ports
        // hosts_per_rack..hosts_per_rack+spines go to spines.
        for r in 0..racks {
            let mut ports = Vec::new();
            for h in 0..hosts_per_rack {
                ports.push(PortSpec {
                    peer: NodeRef::Host(HostId(r * hosts_per_rack + h)),
                    link,
                });
            }
            for s in 0..spines {
                ports.push(PortSpec {
                    peer: NodeRef::Switch(SwitchId(racks + s)),
                    link: uplink,
                });
            }
            let mut tor_routes = Vec::with_capacity(n);
            for dst in 0..n {
                if dst / hosts_per_rack == r {
                    tor_routes.push(vec![dst % hosts_per_rack]);
                } else {
                    // Any spine uplink.
                    tor_routes.push((0..spines).map(|s| hosts_per_rack + s).collect());
                }
            }
            switch_ports.push(ports);
            routes.push(tor_routes);
        }

        // Spine s: one port per rack.
        for _s in 0..spines {
            let ports: Vec<PortSpec> = (0..racks)
                .map(|r| PortSpec {
                    peer: NodeRef::Switch(SwitchId(r)),
                    link: uplink,
                })
                .collect();
            let spine_routes: Vec<Vec<usize>> =
                (0..n).map(|dst| vec![dst / hosts_per_rack]).collect();
            switch_ports.push(ports);
            routes.push(spine_routes);
        }

        Topology::assemble(host_ports, switch_ports, routes)
    }

    /// A three-tier Clos fabric: `pods` pods, each with `leaves_per_pod`
    /// leaf (ToR) switches and `spines_per_pod` aggregation spines, joined
    /// by `cores` core switches. Every leaf connects to every spine in its
    /// pod; every spine connects to every core.
    ///
    /// Links: `edge` for host↔leaf, `aggr` for leaf↔spine, `core` for
    /// spine↔core. Giving the core tier a longer propagation delay is
    /// realistic (pods are rows apart) and widens the conservative
    /// lookahead of the sharded engine (see `shard.rs`), which synchronizes
    /// domains at horizons equal to the minimum cross-domain propagation.
    ///
    /// Ids (the sharding helpers in `shard.rs` rely on this layout):
    /// * host `(p*leaves_per_pod + l)*hosts_per_leaf + h` sits under leaf
    ///   `l` of pod `p`;
    /// * leaves are switches `0..pods*leaves_per_pod` (pod-major);
    /// * spines follow at `pods*leaves_per_pod + p*spines_per_pod + s`;
    /// * cores are the last `cores` switch ids.
    ///
    /// Routing is destination-based with ECMP at each fan-out: a leaf
    /// spreads non-local traffic over its pod's spines, a spine spreads
    /// cross-pod traffic over the cores, a core spreads traffic over the
    /// destination pod's spines.
    #[allow(clippy::too_many_arguments, reason = "a count and a link spec per Clos tier")]
    pub fn clos(
        pods: usize,
        spines_per_pod: usize,
        leaves_per_pod: usize,
        hosts_per_leaf: usize,
        cores: usize,
        edge: LinkSpec,
        aggr: LinkSpec,
        core: LinkSpec,
    ) -> Topology {
        assert!(
            pods >= 1 && spines_per_pod >= 1 && leaves_per_pod >= 1 && hosts_per_leaf >= 1,
            "degenerate Clos shape"
        );
        assert!(
            pods == 1 || cores >= 1,
            "a multi-pod Clos needs at least one core switch"
        );
        let num_leaves = pods * leaves_per_pod;
        let num_spines = pods * spines_per_pod;
        let n = num_leaves * hosts_per_leaf;
        let leaf_id = |p: usize, l: usize| p * leaves_per_pod + l;
        let spine_id = |p: usize, s: usize| num_leaves + p * spines_per_pod + s;
        let core_id = |c: usize| num_leaves + num_spines + c;
        let host_pod = |dst: usize| dst / (leaves_per_pod * hosts_per_leaf);

        let host_ports: Vec<PortSpec> = (0..n)
            .map(|h| PortSpec {
                peer: NodeRef::Switch(SwitchId(h / hosts_per_leaf)),
                link: edge,
            })
            .collect();

        let mut switch_ports = Vec::with_capacity(num_leaves + num_spines + cores);
        let mut routes = Vec::with_capacity(num_leaves + num_spines + cores);

        // Leaf (p, l): ports 0..hosts_per_leaf to local hosts, then one
        // uplink per pod spine.
        for p in 0..pods {
            for l in 0..leaves_per_pod {
                let base_host = leaf_id(p, l) * hosts_per_leaf;
                let mut ports = Vec::with_capacity(hosts_per_leaf + spines_per_pod);
                for h in 0..hosts_per_leaf {
                    ports.push(PortSpec {
                        peer: NodeRef::Host(HostId(base_host + h)),
                        link: edge,
                    });
                }
                for s in 0..spines_per_pod {
                    ports.push(PortSpec {
                        peer: NodeRef::Switch(SwitchId(spine_id(p, s))),
                        link: aggr,
                    });
                }
                let leaf_routes: Vec<Vec<usize>> = (0..n)
                    .map(|dst| {
                        if dst / hosts_per_leaf == leaf_id(p, l) {
                            vec![dst % hosts_per_leaf]
                        } else {
                            (0..spines_per_pod).map(|s| hosts_per_leaf + s).collect()
                        }
                    })
                    .collect();
                switch_ports.push(ports);
                routes.push(leaf_routes);
            }
        }

        // Spine (p, s): ports 0..leaves_per_pod down to pod leaves, then one
        // uplink per core.
        for p in 0..pods {
            for _s in 0..spines_per_pod {
                let mut ports = Vec::with_capacity(leaves_per_pod + cores);
                for l in 0..leaves_per_pod {
                    ports.push(PortSpec {
                        peer: NodeRef::Switch(SwitchId(leaf_id(p, l))),
                        link: aggr,
                    });
                }
                for c in 0..cores {
                    ports.push(PortSpec {
                        peer: NodeRef::Switch(SwitchId(core_id(c))),
                        link: core,
                    });
                }
                let spine_routes: Vec<Vec<usize>> = (0..n)
                    .map(|dst| {
                        if host_pod(dst) == p {
                            vec![(dst / hosts_per_leaf) % leaves_per_pod]
                        } else {
                            (0..cores).map(|c| leaves_per_pod + c).collect()
                        }
                    })
                    .collect();
                switch_ports.push(ports);
                routes.push(spine_routes);
            }
        }

        // Core c: one port per (pod, spine), pod-major.
        for _c in 0..cores {
            let mut ports = Vec::with_capacity(num_spines);
            for p in 0..pods {
                for s in 0..spines_per_pod {
                    ports.push(PortSpec {
                        peer: NodeRef::Switch(SwitchId(spine_id(p, s))),
                        link: core,
                    });
                }
            }
            let core_routes: Vec<Vec<usize>> = (0..n)
                .map(|dst| {
                    let p = host_pod(dst);
                    (0..spines_per_pod).map(|s| p * spines_per_pod + s).collect()
                })
                .collect();
            switch_ports.push(ports);
            routes.push(core_routes);
        }

        Topology::assemble(host_ports, switch_ports, routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkSpec {
        LinkSpec::default_100g()
    }

    #[test]
    fn star_shape() {
        let t = Topology::star(3, link());
        assert_eq!(t.num_hosts(), 3);
        assert_eq!(t.num_switches(), 1);
        assert_eq!(t.switch_ports[0].len(), 3);
        assert_eq!(t.route(SwitchId(0), HostId(2), 12345), 2);
        for h in 0..3 {
            assert_eq!(t.host_ports[h].peer, NodeRef::Switch(SwitchId(0)));
        }
    }

    #[test]
    fn leaf_spine_shape() {
        let t = Topology::leaf_spine(3, 4, 2, link(), link());
        assert_eq!(t.num_hosts(), 12);
        assert_eq!(t.num_switches(), 5); // 3 ToRs + 2 spines
        // ToR 0 has 4 host ports + 2 uplinks.
        assert_eq!(t.switch_ports[0].len(), 6);
        // Spines have 3 ports (one per rack).
        assert_eq!(t.switch_ports[3].len(), 3);
        // Host 5 is in rack 1.
        assert_eq!(t.host_ports[5].peer, NodeRef::Switch(SwitchId(1)));
    }

    #[test]
    fn leaf_spine_routing_local_and_remote() {
        let t = Topology::leaf_spine(2, 2, 2, link(), link());
        // ToR 0 to local host 1: direct port 1.
        assert_eq!(t.route(SwitchId(0), HostId(1), 99), 1);
        // ToR 0 to remote host 3: one of the uplink ports (2 or 3).
        let p = t.route(SwitchId(0), HostId(3), 7);
        assert!(p == 2 || p == 3);
        // ECMP is deterministic per hash.
        assert_eq!(
            t.route(SwitchId(0), HostId(3), 7),
            t.route(SwitchId(0), HostId(3), 7)
        );
        // Spine 0 (switch id 2) to host 3 -> rack 1 port.
        assert_eq!(t.route(SwitchId(2), HostId(3), 0), 1);
    }

    #[test]
    fn ecmp_spreads_flows() {
        let t = Topology::leaf_spine(2, 2, 4, link(), link());
        let mut used = std::collections::HashSet::new();
        for h in 0..200u64 {
            used.insert(t.route(SwitchId(0), HostId(3), h));
        }
        assert_eq!(used.len(), 4, "all four spines should attract some flows");
    }

    #[test]
    fn clos_shape() {
        // 2 pods × (2 spines, 3 leaves × 4 hosts), 2 cores.
        let t = Topology::clos(2, 2, 3, 4, 2, link(), link(), link());
        assert_eq!(t.num_hosts(), 24);
        assert_eq!(t.num_switches(), 6 + 4 + 2); // leaves + spines + cores
        // Leaf: 4 host ports + 2 spine uplinks.
        assert_eq!(t.switch_ports[0].len(), 6);
        // Spine (first spine id = 6): 3 leaf ports + 2 core uplinks.
        assert_eq!(t.switch_ports[6].len(), 5);
        // Core (id 10): one port per spine.
        assert_eq!(t.switch_ports[10].len(), 4);
        // Host 13 = leaf 3 (pod 1, leaf 0).
        assert_eq!(t.host_ports[13].peer, NodeRef::Switch(SwitchId(3)));
        // Leaf 3's spine uplinks go to pod 1's spines (ids 8, 9).
        assert_eq!(t.switch_ports[3][4].peer, NodeRef::Switch(SwitchId(8)));
        assert_eq!(t.switch_ports[3][5].peer, NodeRef::Switch(SwitchId(9)));
    }

    #[test]
    fn clos_every_pair_is_connected() {
        // Walk the route tables from every source leaf to every destination
        // host, following the deterministic per-hash pick; each path must
        // terminate at the destination within a hop budget.
        let t = Topology::clos(2, 2, 2, 2, 3, link(), link(), link());
        let n = t.num_hosts();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                for hash in [0u64, 1, 7, 13] {
                    let mut node = t.host_ports[src].peer;
                    let mut hops = 0;
                    loop {
                        let sw = match node {
                            NodeRef::Switch(sw) => sw,
                            NodeRef::Host(h) => {
                                assert_eq!(h, HostId(dst), "{src}->{dst} misrouted");
                                break;
                            }
                        };
                        hops += 1;
                        assert!(hops <= 6, "{src}->{dst} loops (hash {hash})");
                        let port = t.route(sw, HostId(dst), hash);
                        node = t.switch_ports[sw.0][port].peer;
                    }
                }
            }
        }
    }

    #[test]
    fn clos_intra_pod_traffic_stays_in_pod() {
        let t = Topology::clos(2, 2, 2, 2, 2, link(), link(), link());
        // Leaf 0 (pod 0) to host 2 (pod 0, leaf 1): must go via a pod-0
        // spine (ids 4, 5), never a core.
        for hash in 0..16u64 {
            let port = t.route(SwitchId(0), HostId(2), hash);
            let peer = t.switch_ports[0][port].peer;
            assert!(
                peer == NodeRef::Switch(SwitchId(4)) || peer == NodeRef::Switch(SwitchId(5)),
                "intra-pod route left the pod: {peer:?}"
            );
            // And the spine forwards straight down to leaf 1.
            let sw = match peer {
                NodeRef::Switch(s) => s,
                _ => unreachable!(),
            };
            let down = t.route(sw, HostId(2), hash);
            assert_eq!(t.switch_ports[sw.0][down].peer, NodeRef::Switch(SwitchId(1)));
        }
    }

    /// The flat FIB must agree with the reference `route()` for every
    /// `(switch, dst, hash)` — and `next_hop` with them, via real flow keys
    /// (whose hashes exercise lazy hashing on single-candidate rows).
    fn assert_fib_matches_route(t: &Topology) {
        use crate::packet::FlowKey;
        for sw in 0..t.num_switches() {
            for dst in 0..t.num_hosts() {
                for hash in [0u64, 1, 2, 7, 13, 64, 1 << 33, u64::MAX] {
                    assert_eq!(
                        t.fib_lookup(SwitchId(sw), HostId(dst), hash),
                        t.route(SwitchId(sw), HostId(dst), hash),
                        "fib != route at sw={sw} dst={dst} hash={hash}"
                    );
                }
                for src in 0..t.num_hosts() {
                    for class in 0..3u8 {
                        let flow = FlowKey {
                            src: HostId(src),
                            dst: HostId(dst),
                            class,
                        };
                        assert_eq!(
                            t.next_hop(SwitchId(sw), HostId(dst), &flow),
                            t.route(SwitchId(sw), HostId(dst), flow.ecmp_hash()),
                            "next_hop != route at sw={sw} {src}->{dst} class={class}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fib_matches_route_star() {
        assert_fib_matches_route(&Topology::star(5, link()));
        assert_fib_matches_route(&Topology::star(2, link()));
    }

    #[test]
    fn fib_matches_route_leaf_spine() {
        assert_fib_matches_route(&Topology::leaf_spine(3, 4, 2, link(), link()));
        assert_fib_matches_route(&Topology::leaf_spine(2, 2, 5, link(), link()));
    }

    #[test]
    fn fib_matches_route_clos() {
        assert_fib_matches_route(&Topology::clos(2, 2, 3, 4, 2, link(), link(), link()));
        assert_fib_matches_route(&Topology::clos(3, 2, 2, 2, 4, link(), link(), link()));
        assert_fib_matches_route(&Topology::clos(1, 1, 2, 2, 1, link(), link(), link()));
    }

    #[test]
    fn precomputed_ppb_matches_serialize_time() {
        // A mixed-rate fabric: edge at 100 G, aggr at 40 G, core at 25 G.
        let mk = |gbps| LinkSpec {
            rate: BitRate::from_gbps(gbps),
            propagation: SimDuration::from_ns(500),
        };
        let t = Topology::clos(2, 2, 2, 2, 2, mk(100), mk(40), mk(25));
        for h in 0..t.num_hosts() {
            let ppb = t.host_tx_ppb(HostId(h));
            assert!(ppb != 0);
            assert_eq!(
                SimDuration::from_ps(4160 * 8 * ppb),
                t.host_ports[h].link.rate.serialize_time(4160)
            );
        }
        for sw in 0..t.num_switches() {
            for (pi, p) in t.switch_ports[sw].iter().enumerate() {
                let ppb = t.switch_tx_ppb(SwitchId(sw), pi);
                assert!(ppb != 0);
                assert_eq!(
                    SimDuration::from_ps(64 * 8 * ppb),
                    p.link.rate.serialize_time(64)
                );
            }
        }
        // An inexact rate degrades to the sentinel, not a wrong table.
        let odd = LinkSpec {
            rate: BitRate(3),
            propagation: SimDuration::from_ns(500),
        };
        let t = Topology::star(2, odd);
        assert_eq!(t.host_tx_ppb(HostId(0)), 0);
        assert_eq!(t.switch_tx_ppb(SwitchId(0), 1), 0);
    }

    #[test]
    fn clos_cross_pod_spreads_over_cores() {
        let t = Topology::clos(2, 2, 2, 2, 4, link(), link(), link());
        // Spine 4 (pod 0) to host 4 (pod 1): ECMP over all 4 cores.
        let mut used = std::collections::HashSet::new();
        for hash in 0..64u64 {
            let port = t.route(SwitchId(4), HostId(4), hash);
            let peer = t.switch_ports[4][port].peer;
            match peer {
                NodeRef::Switch(s) => {
                    assert!(s.0 >= 8, "cross-pod route must climb to a core");
                    used.insert(s.0);
                }
                _ => panic!("cross-pod route hit a host"),
            }
        }
        assert_eq!(used.len(), 4, "all cores should attract flows");
    }
}
