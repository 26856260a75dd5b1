//! One sending host's offered RPCs, drawn from a [`WorkloadSpec`].
//!
//! [`RpcStream`] draws each RPC's arrival, class, size and destination
//! from one [`SimRng`], in that order: all at once in
//! [`RpcStream::next_rpc`], or split into [`RpcStream::next_arrival`] and
//! [`RpcStream::draw_rpc`] by a host that picks the RPC only when its
//! arrival fires. Both consume the generator identically.

use crate::{ArrivalProcess, ArrivalState, Priority, SizeDist, TrafficPattern};
use aequitas_sim_core::{BitRate, SimRng, SimTime};

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

impl WorkloadSpec {
    /// A workload that never stops: `arrival` to `pattern`, one class per
    /// `(priority, byte share)` of `shares`, in that order, each sized by
    /// `sizes(priority)`.
    pub fn mix(
        arrival: ArrivalProcess,
        pattern: TrafficPattern,
        shares: impl IntoIterator<Item = (Priority, f64)>,
        sizes: impl Fn(Priority) -> SizeDist,
    ) -> WorkloadSpec {
        WorkloadSpec {
            arrival,
            pattern,
            classes: shares
                .into_iter()
                .map(|(priority, byte_share)| PrioritySpec {
                    priority,
                    byte_share,
                    sizes: sizes(priority),
                })
                .collect(),
            stop: None,
        }
    }
}

/// One drawn RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The RPCs host `src` of `n_hosts` offers under a [`WorkloadSpec`].
pub struct RpcStream {
    spec: WorkloadSpec,
    arrivals: ArrivalState,
    /// Relative per-class RPC-count weights (byte share / mean size).
    count_weights: Vec<f64>,
    rng: SimRng,
    src: usize,
    n_hosts: usize,
    sender: bool,
}

impl RpcStream {
    /// The stream of `spec` from host `src` of `n_hosts`, drawn from
    /// `SimRng::new(seed)`. `line_rate` must match the host's NIC rate
    /// (loads are expressed relative to it).
    pub fn new(
        spec: WorkloadSpec,
        src: usize,
        n_hosts: usize,
        line_rate: BitRate,
        seed: u64,
    ) -> Self {
        assert!(
            !spec.classes.is_empty(),
            "workload needs at least one class"
        );
        let count_weights = count_weights(&spec.classes);
        let share_total: f64 = spec.classes.iter().map(|c| c.byte_share).sum();
        let weight_total: f64 = count_weights.iter().sum();
        assert!(spec.classes.iter().all(|c| c.byte_share >= 0.0) && weight_total > 0.0);
        let mean_bytes = share_total / weight_total;
        RpcStream {
            arrivals: ArrivalState::new(spec.arrival.clone(), line_rate, mean_bytes),
            sender: spec.pattern.is_sender(src),
            spec,
            count_weights,
            rng: SimRng::new(seed),
            src,
            n_hosts,
        }
    }

    /// Draw the next arrival instant, or `None` once it reaches the spec's
    /// stop time (and always for a host that does not send).
    pub fn next_arrival(&mut self) -> Option<SimTime> {
        if !self.sender {
            return None;
        }
        let at = self.arrivals.next_arrival(&mut self.rng);
        self.spec.stop.is_none_or(|stop| at < stop).then_some(at)
    }

    /// Draw the class, size and destination of the RPC arriving `at`;
    /// `None` if the pattern gives this host no destination (it is not a
    /// sender, so [`RpcStream::next_arrival`] never gave it an arrival).
    pub fn draw_rpc(&mut self, at: SimTime) -> Option<NextRpc> {
        let class = &self.spec.classes[self.rng.weighted_index(&self.count_weights)];
        let size_bytes = class.sizes.sample(&mut self.rng).max(1);
        let dst = self
            .spec
            .pattern
            .pick_dst(self.src, self.n_hosts, &mut self.rng)?;
        Some(NextRpc {
            at,
            dst,
            priority: class.priority,
            qos: class.priority as u8,
            size_bytes,
        })
    }

    /// Draw the next RPC whole, or `None` once past the stop time.
    pub fn next_rpc(&mut self) -> Option<NextRpc> {
        let at = self.next_arrival()?;
        self.draw_rpc(at)
    }

    /// Set class `class_idx`'s byte share from the next class draw on (the
    /// knob an application turns when it reacts to downgrade notifications —
    /// Algorithm 1 surfaces downgrades so apps can re-mark traffic).
    ///
    /// Only the per-class count weights change. The arrival process keeps
    /// the mean RPC size of the spec the stream was built from, so a change
    /// that shifts the mix towards larger (smaller) RPCs raises (lowers) the
    /// offered load in bytes.
    pub fn set_byte_share(&mut self, class_idx: usize, byte_share: f64) {
        assert!(class_idx < self.spec.classes.len());
        assert!(byte_share >= 0.0);
        self.spec.classes[class_idx].byte_share = byte_share;
        self.count_weights = count_weights(&self.spec.classes);
        assert!(
            self.count_weights.iter().any(|&w| w > 0.0),
            "at least one class must keep a positive share"
        );
    }

    /// Current byte share of a class.
    pub fn byte_share(&self, class_idx: usize) -> f64 {
        self.spec.classes[class_idx].byte_share
    }
}

/// Per-class RPC-count weights: byte share over mean size.
fn count_weights(classes: &[PrioritySpec]) -> Vec<f64> {
    classes
        .iter()
        .map(|c| {
            if c.byte_share <= 0.0 {
                0.0
            } else {
                c.byte_share / c.sizes.mean_bytes()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequitas_sim_core::SimDuration;
    use proptest::prelude::*;

    const RATE: BitRate = BitRate::from_gbps(100);

    fn spec(
        arrival: ArrivalProcess,
        classes: &[(Priority, f64, SizeDist)],
        stop: Option<SimTime>,
    ) -> WorkloadSpec {
        WorkloadSpec {
            arrival,
            pattern: TrafficPattern::ManyToOne { dst: 1 },
            classes: classes
                .iter()
                .map(|(priority, byte_share, sizes)| PrioritySpec {
                    priority: *priority,
                    byte_share: *byte_share,
                    sizes: sizes.clone(),
                })
                .collect(),
            stop,
        }
    }

    /// `WorkloadSpec::mix` keeps the classes in the order given, each with
    /// its share as written and its priority's size law, and never stops.
    #[test]
    fn mix_states_one_class_per_share() {
        let w = WorkloadSpec::mix(
            ArrivalProcess::Uniform { load: 1.0 },
            TrafficPattern::AllToAll,
            [
                (Priority::BestEffort, 1.0 - 0.7),
                (Priority::PerformanceCritical, 0.7),
            ],
            |p| SizeDist::Fixed(if p == Priority::BestEffort { 64 } else { 32 }),
        );
        let classes: Vec<_> = w
            .classes
            .iter()
            .map(|c| (c.priority, c.byte_share, c.sizes.mean_bytes()))
            .collect();
        assert_eq!(
            classes,
            [
                (Priority::BestEffort, 1.0 - 0.7, 64.0),
                (Priority::PerformanceCritical, 0.7, 32.0)
            ]
        );
        assert!(w.stop.is_none());
    }

    #[test]
    fn generates_monotone_stream_with_mix() {
        let mut g = RpcStream::new(
            spec(
                ArrivalProcess::Poisson { load: 0.5 },
                &[
                    (Priority::PerformanceCritical, 0.5, SizeDist::Fixed(8192)),
                    (Priority::BestEffort, 0.5, SizeDist::Fixed(32768)),
                ],
                Some(SimTime::from_ms(5)),
            ),
            0,
            2,
            RATE,
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
        let mut g = RpcStream::new(
            WorkloadSpec {
                pattern: TrafficPattern::ManyToOne { dst: 0 },
                ..spec(
                    ArrivalProcess::Poisson { load: 0.5 },
                    &[(Priority::NonCritical, 1.0, SizeDist::Fixed(1000))],
                    None,
                )
            },
            0,
            2,
            RATE,
            2,
        );
        assert!(g.next_rpc().is_none());
        assert!(g.next_arrival().is_none());
    }

    #[test]
    fn stop_bounds_stream() {
        let mut g = RpcStream::new(
            spec(
                ArrivalProcess::Uniform { load: 1.0 },
                &[(Priority::NonCritical, 1.0, SizeDist::Fixed(32768))],
                Some(SimTime::from_us(100)),
            ),
            0,
            2,
            RATE,
            3,
        );
        let mut n = 0;
        while g.next_rpc().is_some() {
            n += 1;
        }
        // 100us / 2.62us per RPC ~= 38.
        assert!((30..=45).contains(&n), "n = {n}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `next_rpc` and the split `next_arrival` / `draw_rpc` a host runs
        /// at fire time draw the same RPCs from one spec and seed: 1-3
        /// classes, Poisson, Uniform or on/off arrivals, many-to-one or
        /// all-to-all, with or without a stop time.
        #[test]
        fn eager_and_split_draws_agree(
            (kind, load, burst, period_us) in (0u8..3, 0.1f64..1.5, 1.0f64..3.0, 10u64..200),
            classes in proptest::collection::vec((0usize..3, 0.05f64..1.0, 1u64..200_000), 1..4),
            all_to_all in proptest::bool::ANY,
            stop_us in 0u64..2_000,
            src in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            const MAX: usize = 500;
            let arrival = match kind {
                0 => ArrivalProcess::Poisson { load },
                1 => ArrivalProcess::Uniform { load },
                _ => ArrivalProcess::BurstOnOff {
                    mu: load,
                    rho: load * burst,
                    period: SimDuration::from_us(period_us),
                },
            };
            let classes: Vec<_> = classes
                .into_iter()
                .map(|(p, share, bytes)| {
                    let sizes = if bytes % 2 == 0 {
                        SizeDist::Fixed(bytes)
                    } else {
                        SizeDist::production_like(Priority::ALL[p])
                    };
                    (Priority::ALL[p], share, sizes)
                })
                .collect();
            let spec = WorkloadSpec {
                pattern: if all_to_all {
                    TrafficPattern::AllToAll
                } else {
                    TrafficPattern::ManyToOne { dst: 1 }
                },
                ..spec(arrival, &classes, (stop_us > 0).then(|| SimTime::from_us(stop_us)))
            };
            let mut eager = RpcStream::new(spec.clone(), src, 4, RATE, seed);
            let mut split = RpcStream::new(spec, src, 4, RATE, seed);
            let want: Vec<NextRpc> = std::iter::from_fn(|| eager.next_rpc()).take(MAX).collect();
            let mut got = Vec::new();
            while got.len() < MAX {
                let Some(at) = split.next_arrival() else { break };
                got.extend(split.draw_rpc(at));
            }
            prop_assert_eq!(got, want);
        }
    }
}
