//! Fixed-bucket histograms and empirical CDFs.

/// A histogram over `[lo, hi)` with uniformly sized buckets, plus overflow
/// and underflow counters. Doubles as an empirical CDF for figure output
/// (e.g. outstanding-RPC CDFs in Fig. 13).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram covering `[lo, hi)` with `n` buckets.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0);
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.buckets.len();
            let idx = ((v - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.buckets[idx.min(n - 1)] += 1;
        }
    }

    /// Total number of samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Lower edge of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.buckets.len() as f64
    }

    /// Empirical CDF evaluated at each bucket's upper edge, as
    /// `(upper_edge, cumulative_fraction)` pairs. Underflow counts as below
    /// the first edge; overflow is excluded (the final point reaches
    /// `1 - overflow/count`).
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        if self.count == 0 {
            return out;
        }
        let mut cum = self.underflow;
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            out.push((
                self.lo + width * (i + 1) as f64,
                cum as f64 / self.count as f64,
            ));
        }
        out
    }

    /// Fraction of samples `< x` (bucket-resolution approximation).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut cum = self.underflow;
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &b) in self.buckets.iter().enumerate() {
            let upper = self.lo + width * (i + 1) as f64;
            if upper <= x {
                cum += b;
            } else {
                break;
            }
        }
        cum as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_fill_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.buckets(), &[1; 10]);
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-1.0);
        h.record(2.0);
        h.record(0.25);
        let cdf = h.cdf();
        // After first bucket: underflow(1) + 1 sample = 2/3.
        assert!((cdf[0].1 - 2.0 / 3.0).abs() < 1e-12);
        // Overflow never enters the CDF: last point is 2/3 as well.
        assert!((cdf[1].1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for i in 0..1000 {
            h.record((i % 100) as f64);
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_matches_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64);
        }
        assert!((h.fraction_below(5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.cdf().is_empty());
        assert_eq!(h.fraction_below(0.5), 0.0);
    }

    #[test]
    fn bucket_edges() {
        let h = Histogram::new(10.0, 20.0, 5);
        assert_eq!(h.bucket_lo(0), 10.0);
        assert_eq!(h.bucket_lo(4), 18.0);
    }
}
