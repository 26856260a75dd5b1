//! RPC size distributions.
//!
//! Fig. 1 of the paper shows per-class storage RPC size CDFs spanning five
//! decades, with PC RPCs generally smaller than NC/BE but with substantial
//! overlap — including large PC RPCs, the case that breaks size-based
//! prioritization. The production trace is proprietary; the
//! "production-like" distribution here is a log-normal mixture shaped to
//! match those qualitative features (documented in DESIGN.md).

use crate::priority::Priority;
use aequitas_sim_core::SimRng;

/// A distribution over RPC payload sizes in bytes.
#[derive(Debug, Clone)]
pub enum SizeDist {
    /// Every RPC has exactly this many bytes (e.g. the 32 KB WRITEs of §6.2).
    Fixed(u64),
    /// Uniform over `[min, max]` bytes.
    Uniform {
        /// Smallest size, inclusive.
        min: u64,
        /// Largest size, inclusive.
        max: u64,
    },
    /// Log-normal with the given parameters of the underlying normal (sizes
    /// in bytes), clamped to `[min, max]`.
    LogNormal {
        /// Mean of the underlying normal (of ln-bytes).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
        /// Clamp floor in bytes.
        min: u64,
        /// Clamp ceiling in bytes.
        max: u64,
    },
    /// Mixture of distributions with weights.
    Mixture(Vec<(f64, SizeDist)>),
    /// Empirical distribution: `(bytes, weight)` pairs.
    Empirical(Vec<(u64, f64)>),
}

impl SizeDist {
    /// Draw one RPC size in bytes.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match self {
            SizeDist::Fixed(b) => *b,
            SizeDist::Uniform { min, max } => rng.uniform_range(*min, *max + 1),
            SizeDist::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => {
                let v = rng.log_normal(*mu, *sigma).round() as u64;
                v.clamp(*min, *max)
            }
            SizeDist::Mixture(parts) => {
                let weights: Vec<f64> = parts.iter().map(|(w, _)| *w).collect();
                let idx = rng.weighted_index(&weights);
                parts[idx].1.sample(rng)
            }
            SizeDist::Empirical(points) => {
                let weights: Vec<f64> = points.iter().map(|(_, w)| *w).collect();
                points[rng.weighted_index(&weights)].0
            }
        }
    }

    /// Expected size in bytes (used to convert a target load into an arrival
    /// rate). Exact for all variants except `LogNormal`, whose clamping is
    /// approximated by the unclamped mean capped at the clamp interval.
    pub fn mean_bytes(&self) -> f64 {
        match self {
            SizeDist::Fixed(b) => *b as f64,
            SizeDist::Uniform { min, max } => (*min + *max) as f64 / 2.0,
            SizeDist::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => (mu + sigma * sigma / 2.0)
                .exp()
                .clamp(*min as f64, *max as f64),
            SizeDist::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                parts.iter().map(|(w, d)| w * d.mean_bytes()).sum::<f64>() / total
            }
            SizeDist::Empirical(points) => {
                let total: f64 = points.iter().map(|(_, w)| w).sum();
                points.iter().map(|(b, w)| *b as f64 * w).sum::<f64>() / total
            }
        }
    }

    /// The "production-like" storage RPC size distribution for a priority
    /// class, shaped after Fig. 1:
    ///
    /// * PC — mostly small (sub-MTU metadata and random reads; median ~2 KB)
    ///   with a tail reaching hundreds of KB (large critical reads exist).
    /// * NC — medium sequential I/O (median ~64 KB) with a wide tail to MBs.
    /// * BE — bulk traffic (median ~256 KB), heavy tail to several MB.
    pub fn production_like(priority: Priority) -> SizeDist {
        match priority {
            Priority::PerformanceCritical => SizeDist::Mixture(vec![
                (
                    0.75,
                    SizeDist::LogNormal {
                        mu: (2048.0f64).ln(),
                        sigma: 1.0,
                        min: 128,
                        max: 65_536,
                    },
                ),
                (
                    0.25,
                    SizeDist::LogNormal {
                        mu: (32_768.0f64).ln(),
                        sigma: 1.2,
                        min: 4096,
                        max: 1 << 20,
                    },
                ),
            ]),
            Priority::NonCritical => SizeDist::LogNormal {
                mu: (65_536.0f64).ln(),
                sigma: 1.3,
                min: 1024,
                max: 4 << 20,
            },
            Priority::BestEffort => SizeDist::LogNormal {
                mu: (262_144.0f64).ln(),
                sigma: 1.5,
                min: 4096,
                max: 8 << 20,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequitas_stats::Percentiles;

    fn sample_many(d: &SizeDist, n: usize, seed: u64) -> Percentiles {
        let mut rng = SimRng::new(seed);
        let mut p = Percentiles::new();
        for _ in 0..n {
            p.record(d.sample(&mut rng) as f64);
        }
        p
    }

    #[test]
    fn fixed_is_fixed() {
        let d = SizeDist::Fixed(32_768);
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 32_768);
        }
        assert_eq!(d.mean_bytes(), 32_768.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = SizeDist::Uniform { min: 100, max: 200 };
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let v = d.sample(&mut rng);
            assert!((100..=200).contains(&v));
        }
        assert_eq!(d.mean_bytes(), 150.0);
    }

    #[test]
    fn lognormal_clamped() {
        let d = SizeDist::LogNormal {
            mu: (4096.0f64).ln(),
            sigma: 2.0,
            min: 512,
            max: 100_000,
        };
        let mut rng = SimRng::new(3);
        for _ in 0..5000 {
            let v = d.sample(&mut rng);
            assert!((512..=100_000).contains(&v));
        }
    }

    #[test]
    fn lognormal_median_near_exp_mu() {
        let d = SizeDist::LogNormal {
            mu: (8192.0f64).ln(),
            sigma: 0.8,
            min: 1,
            max: u64::MAX / 2,
        };
        let mut p = sample_many(&d, 50_000, 4);
        let median = p.p50().unwrap();
        assert!(
            (median - 8192.0).abs() / 8192.0 < 0.05,
            "median {median} want ~8192"
        );
    }

    #[test]
    fn empirical_respects_weights() {
        let d = SizeDist::Empirical(vec![(100, 1.0), (1000, 3.0)]);
        let mut rng = SimRng::new(5);
        let n = 40_000;
        let big = (0..n).filter(|_| d.sample(&mut rng) == 1000).count();
        let f = big as f64 / n as f64;
        assert!((f - 0.75).abs() < 0.02);
        assert_eq!(d.mean_bytes(), 775.0);
    }

    #[test]
    fn mixture_mean() {
        let d = SizeDist::Mixture(vec![
            (1.0, SizeDist::Fixed(100)),
            (1.0, SizeDist::Fixed(300)),
        ]);
        assert_eq!(d.mean_bytes(), 200.0);
    }

    #[test]
    fn production_like_shapes() {
        // PC median must be well below NC median, which is below BE median,
        // yet the PC tail (p99.9) must overlap NC sizes (the "large PC RPCs
        // exist" property that defeats SRPT).
        let mut pc = sample_many(
            &SizeDist::production_like(Priority::PerformanceCritical),
            30_000,
            7,
        );
        let mut nc = sample_many(&SizeDist::production_like(Priority::NonCritical), 30_000, 8);
        let mut be = sample_many(&SizeDist::production_like(Priority::BestEffort), 30_000, 9);
        let (pc50, nc50, be50) = (pc.p50().unwrap(), nc.p50().unwrap(), be.p50().unwrap());
        assert!(pc50 < nc50 && nc50 < be50, "{pc50} {nc50} {be50}");
        assert!(
            pc.p999().unwrap() > nc50,
            "PC tail {} should overlap NC median {}",
            pc.p999().unwrap(),
            nc50
        );
    }
}
