#![warn(missing_docs)]

//! Measurement utilities for the Aequitas reproduction.
//!
//! The paper reports tail latency at the 99th and 99.9th percentile, CDFs of
//! RPC sizes and outstanding RPCs, QoS-mix shares, and throughput in Gbps.
//! This crate provides the corresponding collectors:
//!
//! * [`Percentiles`] — exact percentile tracking over all recorded samples
//!   (simulation sample counts are small enough that exactness is cheap and
//!   removes sketch error from figure comparisons).
//! * [`Histogram`] — fixed-bucket histogram / empirical CDF.
//! * [`TimeSeries`] — `(time, value)` traces for convergence plots
//!   (admit-probability and throughput versus time, Figs. 17/18/28/29).
//! * [`ThroughputMeter`] — windowed byte counting converted to Gbps.
//! * [`shares`] — normalized shares of a set of counts (a QoS mix).

pub mod histogram;
pub mod percentiles;
pub mod series;
pub mod throughput;

pub use histogram::Histogram;
pub use percentiles::Percentiles;
pub use series::TimeSeries;
pub use throughput::ThroughputMeter;

/// Normalized shares of a set of counts (e.g. a QoS-mix).
///
/// Returns an empty vector when the total is zero.
pub fn shares(counts: &[f64]) -> Vec<f64> {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|c| c / total).collect()
}

/// Least-squares fit of `y = c / x` (used for the Fig. 16 burstiness fit).
///
/// Minimizing sum (y_i - c/x_i)^2 gives c = sum(y_i/x_i) / sum(1/x_i^2).
pub fn fit_inverse(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let num: f64 = xs.iter().zip(ys).map(|(x, y)| y / x).sum();
    let den: f64 = xs.iter().map(|x| 1.0 / (x * x)).sum();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_normalize() {
        let s = shares(&[1.0, 3.0]);
        assert!((s[0] - 0.25).abs() < 1e-12);
        assert!((s[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shares_of_zero_total() {
        assert_eq!(shares(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn inverse_fit_recovers_constant() {
        let xs = [1.4, 1.6, 1.8, 2.0, 2.2];
        let c_true = 46.8;
        let ys: Vec<f64> = xs.iter().map(|x| c_true / x).collect();
        let c = fit_inverse(&xs, &ys);
        assert!((c - c_true).abs() < 1e-9);
    }
}
