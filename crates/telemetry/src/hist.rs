//! Log-linear histograms with bounded relative error.
//!
//! The classic HDR-histogram bucketing scheme: small values (below
//! `sub_count`) get one bucket each (exact), and every octave above that is
//! split into `sub_count / 2` linear sub-buckets, so the relative
//! quantization error is bounded by `2 / sub_count` across the full `u64`
//! range while memory stays logarithmic in the range actually observed.
//! This is the recording structure behind every latency metric in the
//! registry — it supports tens of millions of `record` calls per second and
//! recovers any percentile after the fact.

/// A log-linear histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct LogLinearHistogram {
    /// Sub-buckets per octave (power of two).
    sub_count: u64,
    /// log2(sub_count).
    sub_bits: u32,
    /// Bucket counts, grown lazily as larger values arrive.
    buckets: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram::new()
    }
}

impl LogLinearHistogram {
    /// Default precision: 128 sub-buckets per octave, i.e. ≤ 1.6% relative
    /// quantization error on recovered percentiles.
    pub fn new() -> Self {
        LogLinearHistogram::with_sub_count(128)
    }

    /// Create a histogram with `sub_count` sub-buckets per octave.
    /// `sub_count` must be a power of two ≥ 2.
    pub fn with_sub_count(sub_count: u64) -> Self {
        assert!(
            sub_count.is_power_of_two() && sub_count >= 2,
            "sub_count must be a power of two >= 2: {sub_count}"
        );
        LogLinearHistogram {
            sub_count,
            sub_bits: sub_count.trailing_zeros(),
            buckets: Vec::new(),
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Bucket index for `v`.
    #[inline]
    fn index(&self, v: u64) -> usize {
        if v < self.sub_count {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= sub_bits
        let octave = (msb - self.sub_bits + 1) as u64;
        // Shifting by `octave` lands v's top bits in [sub_count/2, sub_count).
        let pos = v >> octave;
        (self.sub_count + (octave - 1) * (self.sub_count / 2) + (pos - self.sub_count / 2)) as usize
    }

    /// Inclusive upper edge of bucket `idx` (the largest value mapping to it).
    fn bucket_hi(&self, idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < self.sub_count {
            return idx;
        }
        let rel = idx - self.sub_count;
        let octave = rel / (self.sub_count / 2) + 1;
        let pos = rel % (self.sub_count / 2) + self.sub_count / 2;
        // 128-bit intermediate: the topmost bucket's edge is u64::MAX + 1.
        ((((pos + 1) as u128) << octave) - 1).min(u64::MAX as u128) as u64
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128 * n as u128;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (exact), or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (exact), or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded values (exact).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at percentile `p` (0–100): the upper edge of the bucket
    /// containing the `ceil(p/100 · count)`-th smallest observation, clamped
    /// to the exact observed min/max. Relative error ≤ `2 / sub_count`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_hi(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram (same `sub_count`) into this one.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        assert_eq!(self.sub_count, other.sub_count, "sub_count mismatch");
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHistogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(99));
        // Below sub_count every value has its own bucket: percentiles exact.
        assert_eq!(h.percentile(1.0), Some(0));
        assert_eq!(h.percentile(50.0), Some(49));
        assert_eq!(h.percentile(100.0), Some(99));
    }

    #[test]
    fn index_and_edge_roundtrip() {
        let h = LogLinearHistogram::with_sub_count(32);
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX]) {
            let idx = h.index(v);
            let hi = h.bucket_hi(idx);
            assert!(hi >= v, "upper edge {hi} below value {v}");
            // The upper edge maps back to the same bucket.
            assert_eq!(h.index(hi), idx, "edge {hi} leaves bucket of {v}");
        }
    }

    #[test]
    fn percentile_recovery_bounded_error() {
        // A wide log-spread distribution: the recovered percentile must be
        // within the structural error bound of the true order statistic.
        let mut h = LogLinearHistogram::new();
        let mut values: Vec<u64> = (0..10_000u64)
            .map(|i| {
                // Deterministic pseudo-random spread over ~6 decades.
                let x = (i.wrapping_mul(2654435761)) % 1_000_000;
                x * x / 1000 + x + 1
            })
            .collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let rank = ((p / 100.0 * values.len() as f64).ceil() as usize).max(1);
            let truth = values[rank - 1] as f64;
            let got = h.percentile(p).unwrap() as f64;
            let rel = (got - truth).abs() / truth.max(1.0);
            assert!(
                rel <= 2.0 / 128.0 + 1e-9,
                "p{p}: got {got}, true {truth}, rel {rel}"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        let mut all = LogLinearHistogram::new();
        for i in 0..1000u64 {
            let v = i * 977 + 13;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    proptest! {
        /// Every recorded value maps to a bucket whose upper edge is >= the
        /// value and within the relative error bound.
        #[test]
        fn prop_bucket_error_bounded(v in 1u64..u64::MAX / 2) {
            let h = LogLinearHistogram::with_sub_count(64);
            let hi = h.bucket_hi(h.index(v));
            prop_assert!(hi >= v);
            let rel = (hi - v) as f64 / v as f64;
            prop_assert!(rel <= 2.0 / 64.0 + 1e-12, "v={v} hi={hi} rel={rel}");
        }

        /// Percentiles are monotone in p.
        #[test]
        fn prop_percentiles_monotone(vals in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = LogLinearHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            let mut last = 0u64;
            for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
                let q = h.percentile(p).unwrap();
                prop_assert!(q >= last, "p{p}: {q} < {last}");
                last = q;
            }
        }
    }
}
