//! A ready-made host agent that drives a workload through an [`RpcStack`].

use crate::stack::{RpcCompletion, RpcStack};
use aequitas_netsim::{HostAgent, HostCtx, HostId, Packet};
use aequitas_sim_core::{BitRate, SimTime};
use aequitas_workloads::{RpcStream, WorkloadSpec};

const ARRIVAL_TIMER: u64 = 1;

/// A [`HostAgent`] that issues RPCs per a [`WorkloadSpec`] through an
/// [`RpcStack`] and accumulates completions for the experiment harness.
///
/// It draws each RPC's arrival when it arms the arrival timer and the
/// RPC's class, size and destination when the timer fires, so a
/// [`WorkloadHost::set_byte_share`] in between applies to that RPC.
pub struct WorkloadHost {
    stack: RpcStack,
    stream: Option<RpcStream>,
    next_arrival: Option<SimTime>,
    completions: Vec<RpcCompletion>,
    issued: u64,
    /// Payload bytes issued, per priority in declaration order.
    issued_bytes: [u64; 3],
}

impl WorkloadHost {
    /// Build an agent. `spec: None` makes a pure receiver. `line_rate` must
    /// match the host's NIC rate (loads are expressed relative to it).
    pub fn new(
        stack: RpcStack,
        spec: Option<WorkloadSpec>,
        n_hosts: usize,
        line_rate: BitRate,
        seed: u64,
    ) -> Self {
        let src = stack.host().0;
        WorkloadHost {
            stream: spec.map(|spec| Self::stream(spec, src, n_hosts, line_rate, seed)),
            stack,
            next_arrival: None,
            completions: Vec::new(),
            issued: 0,
            issued_bytes: [0; 3],
        }
    }

    /// The RPCs a host `src` built with `seed` offers under `spec`. Any
    /// other agent built from the same arguments issues the same RPCs.
    pub fn stream(
        spec: WorkloadSpec,
        src: usize,
        n_hosts: usize,
        line_rate: BitRate,
        seed: u64,
    ) -> RpcStream {
        RpcStream::new(spec, src, n_hosts, line_rate, seed ^ 0x5EED_0001)
    }

    /// The underlying stack.
    pub fn stack(&self) -> &RpcStack {
        &self.stack
    }

    /// Mutable access to the stack.
    pub fn stack_mut(&mut self) -> &mut RpcStack {
        &mut self.stack
    }

    /// All completions harvested so far (sender side).
    pub fn completions(&self) -> &[RpcCompletion] {
        &self.completions
    }

    /// Drain harvested completions.
    pub fn take_completions(&mut self) -> Vec<RpcCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// RPCs issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Payload bytes issued so far, per priority (PC, NC, BE).
    pub fn issued_bytes(&self) -> [u64; 3] {
        self.issued_bytes
    }

    /// Adjust one workload class's byte share at runtime: see
    /// [`RpcStream::set_byte_share`]. A receiver ignores it.
    pub fn set_byte_share(&mut self, class_idx: usize, byte_share: f64) {
        if let Some(stream) = self.stream.as_mut() {
            stream.set_byte_share(class_idx, byte_share);
        }
    }

    /// Current byte share of a class (0 for a receiver).
    pub fn byte_share(&self, class_idx: usize) -> f64 {
        self.stream
            .as_ref()
            .map_or(0.0, |s| s.byte_share(class_idx))
    }

    /// Draw the next arrival and arm its timer.
    fn schedule_next(&mut self, ctx: &mut HostCtx) {
        if let Some(t) = self.stream.as_mut().and_then(RpcStream::next_arrival) {
            let t = t.max(ctx.now());
            self.next_arrival = Some(t);
            ctx.set_timer(t, ARRIVAL_TIMER);
        }
    }

    /// Issue the RPC due now, then schedule the next.
    fn fire_arrivals(&mut self, ctx: &mut HostCtx) {
        if self.next_arrival.take_if(|t| *t <= ctx.now()).is_none() {
            return;
        }
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        if let Some(rpc) = stream.draw_rpc(ctx.now()) {
            self.stack
                .issue_rpc(ctx, HostId(rpc.dst), rpc.priority, rpc.size_bytes);
            self.issued += 1;
            self.issued_bytes[rpc.qos as usize] += rpc.size_bytes;
        }
        self.schedule_next(ctx);
    }

    fn harvest(&mut self) {
        self.completions.extend(self.stack.take_completions());
    }
}

impl HostAgent for WorkloadHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.schedule_next(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        self.stack.handle_packet(ctx, pkt);
        self.harvest();
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        if !self.stack.handle_timer(ctx, token) && token == ARRIVAL_TIMER {
            self.fire_arrivals(ctx);
        }
        self.harvest();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Policy;
    use aequitas_netsim::{Engine, EngineConfig, LinkSpec, Topology};
    use aequitas_transport::TransportConfig;
    use aequitas_workloads::{
        ArrivalProcess, Priority, PrioritySpec, QosMapping, SizeDist, TrafficPattern,
    };

    fn line_rate() -> BitRate {
        BitRate::from_gbps(100)
    }

    fn mk_host(
        host: usize,
        spec: Option<WorkloadSpec>,
        n_hosts: usize,
        seed: u64,
    ) -> WorkloadHost {
        let stack = RpcStack::new(
            HostId(host),
            QosMapping::three_level(),
            Policy::Static,
            TransportConfig::default(),
        );
        WorkloadHost::new(stack, spec, n_hosts, line_rate(), seed + host as u64)
    }

    fn uniform_spec(load: f64, dst: usize) -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalProcess::Poisson { load },
            pattern: TrafficPattern::ManyToOne { dst },
            classes: vec![PrioritySpec {
                priority: Priority::PerformanceCritical,
                byte_share: 1.0,
                sizes: SizeDist::Fixed(32_768),
            }],
            stop: None,
        }
    }

    #[test]
    fn offered_load_matches_spec() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![
            mk_host(0, Some(uniform_spec(0.5, 1)), 2, 1),
            mk_host(1, None, 2, 2),
        ];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        let dur = 0.02;
        eng.run_until(SimTime::from_secs_f64(dur));
        let issued = eng.agents()[0].issued();
        let expect = 0.5 * 100e9 * dur / (32_768.0 * 8.0);
        let got = issued as f64;
        assert!(
            (got - expect).abs() / expect < 0.1,
            "issued {got}, expected ~{expect}"
        );
        // At load 0.5 everything should complete promptly.
        let done = eng.agents()[0].completions().len();
        assert!(done as f64 > got * 0.95, "done {done} of {got}");
    }

    #[test]
    fn byte_shares_respected_across_classes() {
        // 60/30/10 byte mix with different fixed sizes: check issued byte
        // proportions.
        let spec = WorkloadSpec {
            arrival: ArrivalProcess::Poisson { load: 0.3 },
            pattern: TrafficPattern::ManyToOne { dst: 1 },
            classes: vec![
                PrioritySpec {
                    priority: Priority::PerformanceCritical,
                    byte_share: 0.6,
                    sizes: SizeDist::Fixed(8_192),
                },
                PrioritySpec {
                    priority: Priority::NonCritical,
                    byte_share: 0.3,
                    sizes: SizeDist::Fixed(32_768),
                },
                PrioritySpec {
                    priority: Priority::BestEffort,
                    byte_share: 0.1,
                    sizes: SizeDist::Fixed(65_536),
                },
            ],
            stop: None,
        };
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![mk_host(0, Some(spec), 2, 3), mk_host(1, None, 2, 4)];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(50));
        let mut bytes = [0u64; 3];
        for c in eng.agents()[0].completions() {
            let idx = match c.priority {
                Priority::PerformanceCritical => 0,
                Priority::NonCritical => 1,
                Priority::BestEffort => 2,
            };
            bytes[idx] += c.size_bytes;
        }
        let total: u64 = bytes.iter().sum();
        assert!(total > 0);
        let shares: Vec<f64> = bytes.iter().map(|&b| b as f64 / total as f64).collect();
        assert!((shares[0] - 0.6).abs() < 0.06, "{shares:?}");
        assert!((shares[1] - 0.3).abs() < 0.05, "{shares:?}");
        assert!((shares[2] - 0.1).abs() < 0.04, "{shares:?}");
    }

    #[test]
    fn stop_time_halts_issuing() {
        let mut spec = uniform_spec(0.5, 1);
        spec.stop = Some(SimTime::from_ms(1));
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![mk_host(0, Some(spec), 2, 5), mk_host(1, None, 2, 6)];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(20));
        let issued = eng.agents()[0].issued();
        let expect_1ms = 0.5 * 100e9 * 0.001 / (32_768.0 * 8.0);
        assert!(
            (issued as f64) < expect_1ms * 1.2,
            "issued {issued} should reflect the 1 ms stop (~{expect_1ms})"
        );
        // Everything issued completes.
        assert_eq!(eng.agents()[0].completions().len() as u64, issued);
        assert_eq!(eng.agents()[0].issued_bytes(), [issued * 32_768, 0, 0]);
    }

    /// The host issues exactly the RPCs its stream draws eagerly: the split
    /// draw timing changes nothing while no byte share moves.
    #[test]
    fn issues_what_the_stream_draws() {
        let spec = WorkloadSpec {
            arrival: ArrivalProcess::BurstOnOff {
                mu: 0.3,
                rho: 0.9,
                period: aequitas_sim_core::SimDuration::from_us(100),
            },
            pattern: TrafficPattern::AllToAll,
            classes: Priority::ALL
                .into_iter()
                .zip([0.5, 0.3, 0.2])
                .map(|(priority, byte_share)| PrioritySpec {
                    priority,
                    byte_share,
                    sizes: SizeDist::production_like(priority),
                })
                .collect(),
            stop: Some(SimTime::from_ms(2)),
        };
        let n = 4;
        let topo = Topology::star(n, LinkSpec::default_100g());
        let agents = (0..n).map(|h| mk_host(h, Some(spec.clone()), n, 40)).collect();
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(10));
        for (h, host) in eng.agents().iter().enumerate() {
            let mut done = host.completions().to_vec();
            done.sort_by_key(|c| c.rpc_id);
            let issued: Vec<_> = done
                .iter()
                .map(|c| (c.issued_at, c.dst.0, c.priority, c.size_bytes))
                .collect();
            let mut stream = WorkloadHost::stream(spec.clone(), h, n, line_rate(), 40 + h as u64);
            let drawn: Vec<_> = std::iter::from_fn(|| stream.next_rpc())
                .map(|r| (r.at, r.dst, r.priority, r.size_bytes))
                .collect();
            assert_eq!(host.issued(), drawn.len() as u64);
            assert!(drawn.len() > 50, "host {h}: {} RPCs", drawn.len());
            assert_eq!(issued, drawn, "host {h}");
        }
    }

    #[test]
    fn receiver_never_issues() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![
            mk_host(0, Some(uniform_spec(0.2, 1)), 2, 7),
            mk_host(1, None, 2, 8),
        ];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(5));
        assert_eq!(eng.agents()[1].issued(), 0);
        assert!(eng.agents()[0].issued() > 0);
    }

    #[test]
    fn overload_keeps_issuing_and_rnl_grows() {
        // Two senders at 0.8 load each into one receiver: 1.6x overload.
        // Later RPCs should see much larger RNL than the earliest ones.
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            mk_host(0, Some(uniform_spec(0.8, 2)), 3, 9),
            mk_host(1, Some(uniform_spec(0.8, 2)), 3, 10),
            mk_host(2, None, 3, 11),
        ];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(20));
        let done = eng.agents()[0].completions();
        assert!(done.len() > 100);
        let early: f64 = done[..20]
            .iter()
            .map(|c| c.rnl().as_us_f64())
            .sum::<f64>()
            / 20.0;
        let late: f64 = done[done.len() - 20..]
            .iter()
            .map(|c| c.rnl().as_us_f64())
            .sum::<f64>()
            / 20.0;
        assert!(
            late > early * 3.0,
            "overload should inflate RNL: early {early:.1}us late {late:.1}us"
        );
    }
}
