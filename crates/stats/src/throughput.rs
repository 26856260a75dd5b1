//! Windowed throughput accounting.

use aequitas_sim_core::{SimDuration, SimTime};

use crate::series::TimeSeries;

/// Counts bytes delivered in fixed windows and reports Gbps per window.
///
/// Used for the throughput-versus-time panels of the fairness experiments
/// (Figs. 17/18) and for goodput/utilization accounting (Fig. 22).
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    window: SimDuration,
    window_start: SimTime,
    window_bytes: u64,
    series: TimeSeries,
}

impl ThroughputMeter {
    /// New meter with the given averaging window.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO);
        ThroughputMeter {
            window,
            window_start: SimTime::ZERO,
            window_bytes: 0,
            series: TimeSeries::new(),
        }
    }

    /// Record `bytes` delivered at time `now`. Closes any windows that have
    /// elapsed since the previous record (emitting zero-valued windows for
    /// idle gaps).
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.roll_to(now);
        self.window_bytes += bytes;
    }

    /// Close windows up to `now` without recording new bytes.
    pub fn roll_to(&mut self, now: SimTime) {
        while now >= self.window_start + self.window {
            let end = self.window_start + self.window;
            let gbps = self.window_bytes as f64 * 8.0 / self.window.as_secs_f64() / 1e9;
            self.series.push(end, gbps);
            self.window_start = end;
            self.window_bytes = 0;
        }
    }

    /// The per-window Gbps trace.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_window_rate() {
        // 1 ms window; 12.5 MB in the window = 100 Gbps.
        let mut m = ThroughputMeter::new(SimDuration::from_ms(1));
        m.record(SimTime::from_us(500), 12_500_000);
        m.roll_to(SimTime::from_ms(1));
        assert_eq!(m.series().len(), 1);
        let (_, gbps) = m.series().points()[0];
        assert!((gbps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_emit_zero_windows() {
        let mut m = ThroughputMeter::new(SimDuration::from_ms(1));
        m.record(SimTime::from_us(100), 1000);
        m.record(SimTime::from_ms(3) + SimDuration::from_us(1), 1000);
        // Windows [0,1) closed with data, [1,2) and [2,3) closed empty.
        assert_eq!(m.series().len(), 3);
        assert_eq!(m.series().points()[1].1, 0.0);
        assert_eq!(m.series().points()[2].1, 0.0);
    }

    #[test]
    fn average_accounts_everything() {
        let mut m = ThroughputMeter::new(SimDuration::from_ms(1));
        m.record(SimTime::from_us(1), 125_000_000); // 1 Gbit
        m.roll_to(SimTime::from_ms(10));
        let windows = m.series().points();
        assert_eq!(windows.len(), 10);
        let avg = windows.iter().map(|&(_, gbps)| gbps).sum::<f64>() / 10.0;
        assert!((avg - 100.0).abs() < 1e-9); // 1 Gbit / 10 ms = 100 Gbps
    }
}
