//! Exact percentile tracking.
//!
//! Stores every recorded sample and sorts lazily on query. Simulation runs in
//! this repository record at most a few million samples per collector, so the
//! memory and sort costs are trivial, and exactness means figure comparisons
//! are not polluted by sketch approximation error.


/// Collects `f64` samples and answers percentile queries exactly.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// New empty collector.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Record one sample. Non-finite samples are rejected with a panic in
    /// debug builds and ignored in release builds (they would poison sorting).
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        if !v.is_finite() {
            return;
        }
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Percentile `p` in `[0, 100]` using nearest-rank with linear
    /// interpolation; `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Convenience: the paper's headline 99.9th percentile.
    pub fn p999(&mut self) -> Option<f64> {
        self.percentile(99.9)
    }

    /// Convenience: 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Convenience: median.
    pub fn p50(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Convenience: 1st percentile (used for the fairness experiments'
    /// "1st-p p_admit" metric).
    pub fn p1(&mut self) -> Option<f64> {
        self.percentile(1.0)
    }

    /// Maximum sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Minimum sample.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// Fraction of samples `<= threshold` (empirical CDF evaluated at a
    /// point); `None` when empty.
    pub fn fraction_below(&mut self, threshold: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= threshold);
        Some(idx as f64 / self.samples.len() as f64)
    }

    /// Merge another collector's samples into this one.
    pub fn merge(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_returns_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(50.0), None);
        assert_eq!(p.mean(), None);
        assert_eq!(p.max(), None);
    }

    #[test]
    fn single_sample() {
        let mut p = Percentiles::new();
        p.record(7.0);
        assert_eq!(p.percentile(0.0), Some(7.0));
        assert_eq!(p.percentile(100.0), Some(7.0));
        assert_eq!(p.p999(), Some(7.0));
    }

    #[test]
    fn uniform_ramp_percentiles() {
        let mut p = Percentiles::new();
        for i in 0..=1000 {
            p.record(i as f64);
        }
        assert_eq!(p.p50(), Some(500.0));
        assert!((p.p99().unwrap() - 990.0).abs() < 1e-6);
        assert!((p.p999().unwrap() - 999.0).abs() < 1e-6);
        assert_eq!(p.percentile(100.0), Some(1000.0));
        assert_eq!(p.min(), Some(0.0));
    }

    #[test]
    fn interpolation_between_ranks() {
        let mut p = Percentiles::new();
        p.record(0.0);
        p.record(10.0);
        assert_eq!(p.p50(), Some(5.0));
        assert_eq!(p.percentile(25.0), Some(2.5));
    }

    #[test]
    fn fraction_below_works() {
        let mut p = Percentiles::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            p.record(v);
        }
        assert_eq!(p.fraction_below(2.5), Some(0.5));
        assert_eq!(p.fraction_below(0.0), Some(0.0));
        assert_eq!(p.fraction_below(4.0), Some(1.0));
    }

    #[test]
    fn merge_combines() {
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Some(2.0));
    }

    #[test]
    fn records_interleaved_with_queries() {
        let mut p = Percentiles::new();
        p.record(5.0);
        assert_eq!(p.p50(), Some(5.0));
        p.record(1.0);
        assert_eq!(p.min(), Some(1.0));
        p.record(9.0);
        assert_eq!(p.p50(), Some(5.0));
    }

    proptest! {
        /// Percentiles are monotone in p and bounded by min/max.
        #[test]
        fn prop_monotone(mut vals in proptest::collection::vec(-1e9f64..1e9, 1..300)) {
            let mut p = Percentiles::new();
            for &v in &vals {
                p.record(v);
            }
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = f64::NEG_INFINITY;
            for q in [0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let v = p.percentile(q).unwrap();
                prop_assert!(v >= prev - 1e-9);
                prop_assert!(v >= vals[0] - 1e-9 && v <= vals[vals.len() - 1] + 1e-9);
                prev = v;
            }
        }
    }
}
