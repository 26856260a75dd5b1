//! Wall-clock timing, order statistics and the FNV digest.
//!
//! Every host-time number in the benchmark goes through [`timed`], which
//! wraps `criterion::time_once` — the one sanctioned wall-clock read (lint
//! rule AQ001 bans `Instant` everywhere else in the repository).

/// Run `f` once and return its wall-clock duration in seconds with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let (d, r) = criterion::time_once(f);
    (d.as_secs_f64(), r)
}

/// Host ns per operation of `batch(n)`, which must perform `n` operations:
/// one warm-up batch, then the median of five timed batches.
pub fn ns_per_op(iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(iters / 4 + 1);
    let mut samples = [0.0f64; 5];
    for s in &mut samples {
        let (secs, ()) = timed(|| batch(iters));
        *s = secs * 1e9 / iters as f64;
    }
    median(&mut samples)
}

/// Median of `v` (mean of the two middle values for an even count); sorts
/// `v` in place. Panics on an empty slice — every caller measures at least
/// one sample.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median, quartiles and range of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// The quantile at `pos` (1-based, fractional) of an ascending-sorted
/// slice, interpolating between neighbours and clamping to the ends.
fn quantile_at(sorted: &[f64], pos: f64) -> f64 {
    let last = sorted.len() - 1;
    let below = (pos.floor() as usize).saturating_sub(1).min(last);
    let above = (below + 1).min(last);
    let frac = (pos - pos.floor()).clamp(0.0, 1.0);
    if pos < 1.0 {
        sorted[0]
    } else {
        sorted[below] + (sorted[above] - sorted[below]) * frac
    }
}

impl Spread {
    /// Summarize `samples` (at least one). Quartiles sit at positions
    /// `(n + 1) / 4` and `3 (n + 1) / 4`, as Python's
    /// `statistics.quantiles(samples, n=4)` puts them.
    pub fn of(samples: &[f64]) -> Spread {
        let mut v = samples.to_vec();
        let median = median(&mut v);
        let n = v.len() as f64;
        Spread {
            median,
            min: v[0],
            max: v[v.len() - 1],
            q1: quantile_at(&v, (n + 1.0) / 4.0),
            q3: quantile_at(&v, 3.0 * (n + 1.0) / 4.0),
        }
    }

    /// A single measurement.
    pub fn point(value: f64) -> Spread {
        Spread::of(&[value])
    }

    /// Distance between the quartiles as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a record's words — the per-record hash
/// `chaos::completion_digest` uses.
pub fn fnv_words(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Order-independent digest of a record stream: the wrapping sum of the
/// records' [`fnv_words`] hashes, seeded like `chaos::completion_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Fold one record in.
    pub fn add(&mut self, words: &[u64]) {
        self.0 = self.0.wrapping_add(fnv_words(words));
    }

    /// Fold another digest's records in.
    pub fn merge(&mut self, other: Digest) {
        self.0 = self.0.wrapping_add(other.0.wrapping_sub(FNV_OFFSET));
    }
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores available to this process (1 when the platform cannot say).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Spread::of(&[5.0, 1.0, 9.0, 3.0]);
        assert_eq!((s.median, s.min, s.max), (4.0, 1.0, 9.0));
        let p = Spread::point(2.0);
        assert_eq!(
            (p.median, p.min, p.max, p.q1, p.q3),
            (2.0, 2.0, 2.0, 2.0, 2.0)
        );
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.relative_iqr() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Spread::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]; clamped to the samples here.
        let s = Spread::of(&[1.0, 3.0]);
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        // FNV-1a reference value of the single word 0.
        assert_eq!(fnv_words(&[0]), FNV_OFFSET.wrapping_mul(FNV_PRIME));
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(&[1, 2]);
        a.add(&[3, 4]);
        b.add(&[3, 4]);
        b.add(&[1, 2]);
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.add(&[1, 2]);
        c.add(&[3, 5]);
        assert_ne!(a, c);
        // Merging two halves equals digesting the whole stream.
        let (mut left, mut right) = (Digest::default(), Digest::default());
        left.add(&[1, 2]);
        right.add(&[3, 4]);
        left.merge(right);
        assert_eq!(left, a);
    }

    #[test]
    fn digest_matches_the_repos_completion_digest_on_an_empty_stream() {
        assert_eq!(
            Digest::default().0,
            aequitas_experiments::chaos::completion_digest(&[])
        );
    }
}
