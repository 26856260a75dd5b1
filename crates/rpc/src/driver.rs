//! A ready-made host agent that drives a workload through an [`RpcStack`].

use crate::stack::{RpcCompletion, RpcStack};
use aequitas_netsim::{HostAgent, HostCtx, HostId, Packet};
use aequitas_sim_core::{SimRng, SimTime};
use aequitas_workloads::{ArrivalProcess, ArrivalState, Priority, SizeDist, TrafficPattern};
use aequitas_sim_core::BitRate;

/// One priority class within a workload: its share of offered *bytes* and
/// the size distribution of its RPCs.
#[derive(Debug, Clone)]
pub struct PrioritySpec {
    /// The priority class.
    pub priority: Priority,
    /// Share of offered bytes (relative weight).
    pub byte_share: f64,
    /// RPC size distribution for this class.
    pub sizes: SizeDist,
}

/// A complete workload description for one sending host.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// When RPCs are issued.
    pub arrival: ArrivalProcess,
    /// Who they are sent to.
    pub pattern: TrafficPattern,
    /// The per-priority mix (byte shares need not sum to 1; they are
    /// normalized).
    pub classes: Vec<PrioritySpec>,
    /// Stop issuing (but keep serving) after this time, if set.
    pub stop: Option<SimTime>,
}

const ARRIVAL_TIMER: u64 = 1;

/// A [`HostAgent`] that issues RPCs per a [`WorkloadSpec`] through an
/// [`RpcStack`] and accumulates completions for the experiment harness.
pub struct WorkloadHost {
    stack: RpcStack,
    spec: Option<WorkloadSpec>,
    arrivals: Option<ArrivalState>,
    /// Relative per-class RPC-count weights (byte share / mean size).
    count_weights: Vec<f64>,
    rng: SimRng,
    n_hosts: usize,
    next_arrival: Option<SimTime>,
    completions: Vec<RpcCompletion>,
    issued: u64,
    /// Payload bytes issued, per [`Priority`] in declaration order.
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
        let mut count_weights = Vec::new();
        let arrivals = spec.as_ref().map(|s| {
            assert!(!s.classes.is_empty(), "workload needs at least one class");
            count_weights = s
                .classes
                .iter()
                .map(|c| {
                    assert!(c.byte_share >= 0.0);
                    c.byte_share / c.sizes.mean_bytes()
                })
                .collect();
            let share_total: f64 = s.classes.iter().map(|c| c.byte_share).sum();
            let weight_total: f64 = count_weights.iter().sum();
            assert!(share_total > 0.0 && weight_total > 0.0);
            let mean_bytes = share_total / weight_total;
            ArrivalState::new(s.arrival.clone(), line_rate, mean_bytes)
        });
        WorkloadHost {
            stack,
            spec,
            arrivals,
            count_weights,
            rng: SimRng::new(seed ^ 0x5EED_0001),
            n_hosts,
            next_arrival: None,
            completions: Vec::new(),
            issued: 0,
            issued_bytes: [0; 3],
        }
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

    /// Adjust one workload class's byte share at runtime (the knob an
    /// application turns when it reacts to downgrade notifications —
    /// Algorithm 1 surfaces downgrades so apps can re-mark traffic).
    /// Count weights and the arrival process's mean size stay consistent.
    pub fn set_byte_share(&mut self, class_idx: usize, byte_share: f64) {
        let Some(spec) = self.spec.as_mut() else {
            return;
        };
        assert!(class_idx < spec.classes.len());
        assert!(byte_share >= 0.0);
        spec.classes[class_idx].byte_share = byte_share;
        self.count_weights = spec
            .classes
            .iter()
            .map(|c| {
                if c.byte_share <= 0.0 {
                    0.0
                } else {
                    c.byte_share / c.sizes.mean_bytes()
                }
            })
            .collect();
        // Keep at least one sendable class.
        assert!(
            self.count_weights.iter().any(|&w| w > 0.0),
            "at least one class must keep a positive share"
        );
    }

    /// Current byte share of a class.
    pub fn byte_share(&self, class_idx: usize) -> f64 {
        self.spec
            .as_ref()
            .map(|s| s.classes[class_idx].byte_share)
            .unwrap_or(0.0)
    }

    fn schedule_next(&mut self, ctx: &mut HostCtx) {
        let Some(arrivals) = self.arrivals.as_mut() else {
            return;
        };
        let spec = self.spec.as_ref().expect("spec exists with arrivals");
        if self.next_arrival.is_none() {
            let mut t = arrivals.next_arrival(&mut self.rng);
            // The very first sample can land at time 0 exactly; keep it.
            if let Some(stop) = spec.stop {
                if t >= stop {
                    return;
                }
            }
            if t < ctx.now() {
                t = ctx.now();
            }
            self.next_arrival = Some(t);
            ctx.set_timer(t, ARRIVAL_TIMER);
        }
    }

    fn fire_arrivals(&mut self, ctx: &mut HostCtx) {
        let Some(t) = self.next_arrival else {
            return;
        };
        if t > ctx.now() {
            return;
        }
        self.next_arrival = None;
        // Issue the RPC due now.
        let spec = self.spec.as_ref().expect("sender has a spec");
        if spec.stop.is_none_or(|stop| ctx.now() < stop) {
            let class_idx = self.rng.weighted_index(&self.count_weights);
            let class = &spec.classes[class_idx];
            let size = class.sizes.sample(&mut self.rng).max(1);
            let priority = class.priority;
            if let Some(dst) = spec
                .pattern
                .pick_dst(ctx.host().0, self.n_hosts, &mut self.rng)
            {
                self.stack.issue_rpc(ctx, HostId(dst), priority, size);
                self.issued += 1;
                self.issued_bytes[priority as usize] += size;
            }
        } else {
            return; // past stop: no more arrivals
        }
        self.schedule_next(ctx);
    }

    fn harvest(&mut self) {
        self.completions.extend(self.stack.take_completions());
    }
}

impl HostAgent for WorkloadHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        if self
            .spec
            .as_ref()
            .is_some_and(|s| s.pattern.is_sender(ctx.host().0))
        {
            self.schedule_next(ctx);
        }
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
    use aequitas_workloads::QosMapping;

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
