//! Time-series traces for convergence plots.

use aequitas_sim_core::SimTime;

/// A `(time, value)` trace, e.g. admit probability or throughput over time
/// (Figs. 17, 18, 28, 29).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// New empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a point. Points must be appended in nondecreasing time order.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(self.points.last().is_none_or(|&(pt, _)| t >= pt));
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, or `None` when empty.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new();
        s.push(t(1), 0.5);
        s.push(t(2), 0.7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last_value(), Some(0.7));
    }
}
