//! Shared workload generation for the baseline agents.

use aequitas_sim_core::{BitRate, SimRng, SimTime};
use aequitas_workloads::{ArrivalProcess, ArrivalState, Priority, SizeDist, TrafficPattern};

/// One next RPC to issue.
#[derive(Debug, Clone, Copy)]
pub struct NextRpc {
    /// Issue instant.
    pub at: SimTime,
    /// Destination host index.
    pub dst: usize,
    /// Priority class.
    pub priority: Priority,
    /// QoS class under the bijective mapping (0=PC, 1=NC, 2=BE).
    pub qos: u8,
    /// Payload bytes.
    pub size_bytes: u64,
}

/// Generates the (time, dst, priority, size) stream for one sending host —
/// the same semantics as `aequitas_rpc::WorkloadSpec` (byte-share mix) so
/// baseline runs see identical offered load.
pub struct WorkloadGen {
    arrivals: ArrivalState,
    pattern: TrafficPattern,
    classes: Vec<(Priority, SizeDist)>,
    count_weights: Vec<f64>,
    rng: SimRng,
    src: usize,
    n_hosts: usize,
    stop: Option<SimTime>,
}

impl WorkloadGen {
    /// Build a generator. `classes` carries `(priority, byte_share, sizes)`.
    #[allow(clippy::too_many_arguments, reason = "plain config-carrier constructor")]
    pub fn new(
        arrival: ArrivalProcess,
        pattern: TrafficPattern,
        classes: Vec<(Priority, f64, SizeDist)>,
        src: usize,
        n_hosts: usize,
        line_rate: BitRate,
        stop: Option<SimTime>,
        seed: u64,
    ) -> Self {
        assert!(!classes.is_empty());
        let count_weights: Vec<f64> = classes
            .iter()
            .map(|(_, share, sizes)| share / sizes.mean_bytes())
            .collect();
        let share_total: f64 = classes.iter().map(|(_, s, _)| s).sum();
        let weight_total: f64 = count_weights.iter().sum();
        let mean_bytes = share_total / weight_total;
        WorkloadGen {
            arrivals: ArrivalState::new(arrival, line_rate, mean_bytes),
            pattern,
            classes: classes.into_iter().map(|(p, _, d)| (p, d)).collect(),
            count_weights,
            rng: SimRng::new(seed ^ 0xB05E_11AE),
            src,
            n_hosts,
            stop,
        }
    }

    /// Whether this host sends at all.
    pub fn is_sender(&self) -> bool {
        self.pattern.is_sender(self.src)
    }

    /// Produce the next RPC, or `None` once past the stop time.
    pub fn next_rpc(&mut self) -> Option<NextRpc> {
        if !self.is_sender() {
            return None;
        }
        loop {
            let at = self.arrivals.next_arrival(&mut self.rng);
            if let Some(stop) = self.stop {
                if at >= stop {
                    return None;
                }
            }
            let idx = self.rng.weighted_index(&self.count_weights);
            let (priority, sizes) = &self.classes[idx];
            let size_bytes = sizes.sample(&mut self.rng).max(1);
            let Some(dst) = self.pattern.pick_dst(self.src, self.n_hosts, &mut self.rng) else {
                continue;
            };
            let qos = match priority {
                Priority::PerformanceCritical => 0,
                Priority::NonCritical => 1,
                Priority::BestEffort => 2,
            };
            return Some(NextRpc {
                at,
                dst,
                priority: *priority,
                qos,
                size_bytes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequitas_sim_core::SimDuration;

    #[test]
    fn generates_monotone_stream_with_mix() {
        let mut g = WorkloadGen::new(
            ArrivalProcess::Poisson { load: 0.5 },
            TrafficPattern::ManyToOne { dst: 1 },
            vec![
                (Priority::PerformanceCritical, 0.5, SizeDist::Fixed(8192)),
                (Priority::BestEffort, 0.5, SizeDist::Fixed(32768)),
            ],
            0,
            2,
            BitRate::from_gbps(100),
            Some(SimTime::from_ms(5)),
            1,
        );
        let mut prev = SimTime::ZERO;
        let mut pc = 0;
        let mut be = 0;
        while let Some(rpc) = g.next_rpc() {
            assert!(rpc.at >= prev);
            assert_eq!(rpc.dst, 1);
            prev = rpc.at;
            match rpc.priority {
                Priority::PerformanceCritical => {
                    pc += 1;
                    assert_eq!(rpc.qos, 0);
                }
                Priority::BestEffort => {
                    be += 1;
                    assert_eq!(rpc.qos, 2);
                }
                _ => unreachable!(),
            }
        }
        assert!(pc > 0 && be > 0);
        // Equal byte shares with 4x size ratio -> ~4x more PC RPCs by count.
        let ratio = pc as f64 / be as f64;
        assert!((2.5..6.0).contains(&ratio), "count ratio {ratio}");
        assert!(prev < SimTime::from_ms(5));
    }

    #[test]
    fn receiver_yields_nothing() {
        let mut g = WorkloadGen::new(
            ArrivalProcess::Poisson { load: 0.5 },
            TrafficPattern::ManyToOne { dst: 0 },
            vec![(Priority::NonCritical, 1.0, SizeDist::Fixed(1000))],
            0,
            2,
            BitRate::from_gbps(100),
            None,
            2,
        );
        assert!(g.next_rpc().is_none());
        assert!(!g.is_sender());
    }

    #[test]
    fn stop_bounds_stream() {
        let mut g = WorkloadGen::new(
            ArrivalProcess::Uniform { load: 1.0 },
            TrafficPattern::ManyToOne { dst: 1 },
            vec![(Priority::NonCritical, 1.0, SizeDist::Fixed(32768))],
            0,
            2,
            BitRate::from_gbps(100),
            Some(SimTime::from_us(100)),
            3,
        );
        let mut n = 0;
        while g.next_rpc().is_some() {
            n += 1;
        }
        // 100us / 2.62us per RPC ~= 38.
        assert!((30..=45).contains(&n), "n = {n}");
        let _ = SimDuration::ZERO;
    }
}
