//! Arrival processes: when a sender issues RPCs.
//!
//! The paper's experiments use two arrival models:
//!
//! * Poisson arrivals at a target average load (most macro experiments), and
//! * the burst/idle pattern of Fig. 7, where traffic arrives at burst load
//!   `ρ > 1` for the first `μ/ρ` of every period and then idles, giving an
//!   average load `μ`. The 33-node setup combines the two: Poisson arrivals
//!   *within* the burst phase.
//!
//! An [`ArrivalState`] is the stateful sampler: it converts a process plus a
//! line rate and mean RPC size into a stream of issue instants.

use aequitas_sim_core::{BitRate, SimDuration, SimRng, SimTime};

/// A description of when RPCs are issued by one sender.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Poisson arrivals sized for a constant average `load` (fraction of the
    /// line rate; may exceed 1.0 to model overload).
    Poisson {
        /// Offered load as a fraction of line rate.
        load: f64,
    },
    /// Deterministic, evenly spaced arrivals at the given load. `load: 1.0`
    /// is a line-rate sender (the §6.2/§6.5 microbenchmarks).
    Uniform {
        /// Offered load as a fraction of line rate.
        load: f64,
    },
    /// The Fig. 7 pattern: Poisson arrivals at burst load `rho` during the
    /// first `mu/rho` of each `period`, idle for the rest; average load `mu`.
    BurstOnOff {
        /// Average load over a period (0 < μ).
        mu: f64,
        /// Burst load during the on-phase (ρ ≥ μ).
        rho: f64,
        /// Length of one on/off period.
        period: SimDuration,
    },
}

/// Stateful arrival sampler for one sender.
#[derive(Debug, Clone)]
pub struct ArrivalState {
    process: ArrivalProcess,
    line_rate: BitRate,
    mean_size_bytes: f64,
    next: SimTime,
}

impl ArrivalState {
    /// Create a sampler; the first arrival is at or shortly after time zero.
    pub fn new(process: ArrivalProcess, line_rate: BitRate, mean_size_bytes: f64) -> Self {
        assert!(mean_size_bytes > 0.0);
        if let ArrivalProcess::BurstOnOff { mu, rho, .. } = &process {
            assert!(*mu > 0.0 && *rho >= *mu, "need rho >= mu > 0");
        }
        ArrivalState {
            process,
            line_rate,
            mean_size_bytes,
            next: SimTime::ZERO,
        }
    }

    /// Mean inter-arrival gap at `load` (seconds → SimDuration).
    fn gap_at_load(&self, load: f64) -> f64 {
        // seconds per RPC = bits per RPC / (load * bits per second)
        self.mean_size_bytes * 8.0 / (load * self.line_rate.bps() as f64)
    }

    /// Produce the next arrival instant (monotone nondecreasing).
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        match self.process.clone() {
            ArrivalProcess::Poisson { load } => {
                assert!(load > 0.0);
                let gap = rng.exponential(self.gap_at_load(load));
                let t = self.next;
                self.next = t + SimDuration::from_secs_f64(gap);
                t
            }
            ArrivalProcess::Uniform { load } => {
                assert!(load > 0.0);
                let t = self.next;
                self.next = t + SimDuration::from_secs_f64(self.gap_at_load(load));
                t
            }
            ArrivalProcess::BurstOnOff { mu, rho, period } => {
                // Poisson clock that only runs during burst phases.
                let burst_len = period.mul_f64(mu / rho);
                let gap = SimDuration::from_secs_f64(rng.exponential(self.gap_at_load(rho)));
                let mut t = self.fold_into_burst(self.next, burst_len, period);
                // Advance by `gap` of *burst time*.
                let mut remaining = gap;
                loop {
                    let period_start = t.align_down(period);
                    let burst_end = period_start + burst_len;
                    let room = burst_end.saturating_since(t);
                    if remaining <= room {
                        t += remaining;
                        break;
                    }
                    remaining -= room;
                    t = period_start + period; // next period start (burst resumes)
                }
                self.next = t;
                t
            }
        }
    }

    /// Snap `t` forward to the nearest instant inside a burst phase.
    fn fold_into_burst(&self, t: SimTime, burst_len: SimDuration, period: SimDuration) -> SimTime {
        let period_start = t.align_down(period);
        let burst_end = period_start + burst_len;
        if t < burst_end {
            t
        } else {
            period_start + period
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: BitRate = BitRate::from_gbps(100);

    fn collect_until(state: &mut ArrivalState, rng: &mut SimRng, end: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        loop {
            let t = state.next_arrival(rng);
            if t >= end {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn uniform_spacing_exact() {
        // 32 KB at 100 Gbps full load -> one RPC every 2.62144 us.
        let mut s = ArrivalState::new(ArrivalProcess::Uniform { load: 1.0 }, RATE, 32_768.0);
        let mut rng = SimRng::new(1);
        let a = s.next_arrival(&mut rng);
        let b = s.next_arrival(&mut rng);
        assert_eq!(a, SimTime::ZERO);
        assert_eq!((b - a).as_ps(), 2_621_440);
    }

    #[test]
    fn poisson_average_rate() {
        let mut s = ArrivalState::new(ArrivalProcess::Poisson { load: 0.8 }, RATE, 32_768.0);
        let mut rng = SimRng::new(2);
        let end = SimTime::from_ms(50);
        let arrivals = collect_until(&mut s, &mut rng, end);
        // Expected: 0.8 * 100 Gbps / (32 KB * 8 bits) = ~305.2k RPC/s -> 15259 in 50 ms.
        let expect = 0.8 * 100e9 / (32_768.0 * 8.0) * 0.05;
        let got = arrivals.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, want ~{expect}"
        );
    }

    #[test]
    fn arrivals_monotone() {
        let mut s = ArrivalState::new(
            ArrivalProcess::BurstOnOff {
                mu: 0.8,
                rho: 1.4,
                period: SimDuration::from_us(100),
            },
            RATE,
            32_768.0,
        );
        let mut rng = SimRng::new(3);
        let mut prev = SimTime::ZERO;
        for _ in 0..5000 {
            let t = s.next_arrival(&mut rng);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn burst_pattern_confines_arrivals_to_burst_phase() {
        let period = SimDuration::from_us(100);
        let mu = 0.8;
        let rho = 1.6;
        let burst_len = period.mul_f64(mu / rho); // 50 us
        let mut s = ArrivalState::new(
            ArrivalProcess::BurstOnOff { mu, rho, period },
            RATE,
            32_768.0,
        );
        let mut rng = SimRng::new(4);
        let arrivals = collect_until(&mut s, &mut rng, SimTime::from_ms(10));
        assert!(!arrivals.is_empty());
        for t in &arrivals {
            let in_period = t.as_ps() % period.as_ps();
            assert!(
                in_period < burst_len.as_ps(),
                "arrival at {t} falls in the idle phase (offset {in_period} ps)"
            );
        }
    }

    #[test]
    fn burst_pattern_average_load_is_mu() {
        let period = SimDuration::from_us(100);
        let mut s = ArrivalState::new(
            ArrivalProcess::BurstOnOff {
                mu: 0.8,
                rho: 1.4,
                period,
            },
            RATE,
            32_768.0,
        );
        let mut rng = SimRng::new(5);
        let dur = 0.05;
        let arrivals = collect_until(&mut s, &mut rng, SimTime::from_secs_f64(dur));
        let bytes = arrivals.len() as f64 * 32_768.0;
        let load = bytes * 8.0 / dur / 100e9;
        assert!((load - 0.8).abs() < 0.05, "average load {load}, want ~0.8");
    }

    #[test]
    fn burst_pattern_instantaneous_rate_is_rho() {
        let period = SimDuration::from_us(100);
        let rho = 1.4;
        let mut s = ArrivalState::new(
            ArrivalProcess::BurstOnOff {
                mu: 0.8,
                rho,
                period,
            },
            RATE,
            32_768.0,
        );
        let mut rng = SimRng::new(6);
        let arrivals = collect_until(&mut s, &mut rng, SimTime::from_ms(50));
        // Count arrivals landing in the first half of each burst window and
        // estimate the rate there.
        let burst_len = period.mul_f64(0.8 / rho);
        let half = burst_len.as_ps() / 2;
        let in_first_half = arrivals
            .iter()
            .filter(|t| t.as_ps() % period.as_ps() < half)
            .count();
        let window_secs = (half as f64 / 1e12) * (50_000.0 / 100.0); // 500 periods
        let rate = in_first_half as f64 * 32_768.0 * 8.0 / window_secs / 100e9;
        assert!((rate - rho).abs() < 0.1, "burst rate {rate}, want ~{rho}");
    }
}
