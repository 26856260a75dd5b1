//! Swift-like delay-based congestion control.
//!
//! The essential mechanism of Swift (Kumar et al., SIGCOMM 2020): compare
//! each RTT sample against a target delay; grow the window additively while
//! under target, shrink it multiplicatively — proportionally to the
//! overshoot, capped, and at most once per RTT — when over. The window may
//! drop below one packet, in which case the sender paces individual packets.

use crate::config::TransportConfig;
use aequitas_sim_core::{SimDuration, SimTime};

/// Per-connection congestion control state.
#[derive(Debug, Clone)]
pub struct SwiftCc {
    cwnd: f64,
    base_rtt: Option<SimDuration>,
    srtt: Option<SimDuration>,
    last_decrease: SimTime,
}

impl SwiftCc {
    /// Fresh state at the configured initial window.
    pub fn new(config: &TransportConfig) -> Self {
        SwiftCc {
            cwnd: config.initial_cwnd,
            base_rtt: None,
            srtt: None,
            last_decrease: SimTime::ZERO,
        }
    }

    /// Current congestion window in packets (possibly fractional).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Smoothed RTT estimate, or the minimum target until samples exist.
    pub fn srtt(&self, config: &TransportConfig) -> SimDuration {
        self.srtt.unwrap_or(config.min_target)
    }

    /// Lowest RTT seen on this connection.
    pub fn base_rtt(&self) -> Option<SimDuration> {
        self.base_rtt
    }

    /// The target delay: measured base RTT plus the queuing budget, floored.
    pub fn target(&self, config: &TransportConfig) -> SimDuration {
        let t = match self.base_rtt {
            Some(base) => base + config.target_queueing,
            None => config.min_target,
        };
        t.max(config.min_target)
    }

    /// Retransmission timeout.
    pub fn rto(&self, config: &TransportConfig) -> SimDuration {
        let s = self.srtt(config);
        (s * 4).max(config.min_rto)
    }

    /// Process one RTT sample (called per ACK).
    pub fn on_ack(&mut self, rtt: SimDuration, now: SimTime, config: &TransportConfig) {
        self.base_rtt = Some(match self.base_rtt {
            Some(b) => b.min(rtt),
            None => rtt,
        });
        self.srtt = Some(match self.srtt {
            Some(s) => s.ewma_toward(rtt, 0.125),
            None => rtt,
        });
        if !config.cc_enabled {
            return;
        }
        let target = self.target(config);
        if rtt <= target {
            // Additive increase: +ai packets per RTT, spread per ACK.
            if self.cwnd >= 1.0 {
                self.cwnd += config.ai / self.cwnd;
            } else {
                self.cwnd += config.ai;
            }
        } else {
            // Multiplicative decrease, at most once per RTT.
            let srtt = self.srtt(config);
            if now.saturating_since(self.last_decrease) >= srtt {
                let over = (rtt - target).ratio(rtt);
                let factor = (1.0 - config.md_beta * over).max(1.0 - config.max_mdf);
                self.cwnd *= factor;
                self.last_decrease = now;
            }
        }
        self.cwnd = self.cwnd.clamp(config.min_cwnd, config.max_cwnd);
        #[cfg(debug_assertions)]
        self.san_check_cwnd(config);
    }

    /// On a retransmission timeout, collapse the window.
    pub fn on_timeout(&mut self, config: &TransportConfig) {
        if config.cc_enabled {
            self.cwnd = (self.cwnd * (1.0 - config.max_mdf)).max(config.min_cwnd);
            #[cfg(debug_assertions)]
            self.san_check_cwnd(config);
        }
    }

    /// Corruption hook for the simsan fixture tests: force the window to an
    /// out-of-bounds value.
    #[cfg(test)]
    pub(crate) fn simsan_force_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd;
    }

    /// The window must stay finite and within the configured
    /// `[min_cwnd, max_cwnd]` band after every adjustment (Swift clamps on
    /// both sides; a NaN here would silently freeze pacing).
    #[cfg(debug_assertions)]
    fn san_check_cwnd(&self, config: &TransportConfig) {
        assert!(
            self.cwnd.is_finite() && (config.min_cwnd..=config.max_cwnd).contains(&self.cwnd),
            "simsan[swift]: cwnd {} outside [{}, {}]",
            self.cwnd,
            config.min_cwnd,
            config.max_cwnd,
        );
    }

    /// Pacing gap between single packets when the window is below 1.0:
    /// one smoothed RTT per `cwnd` packets.
    pub fn pacing_gap(&self, config: &TransportConfig) -> SimDuration {
        let srtt = self.srtt(config);
        srtt.mul_f64(1.0 / self.cwnd.max(config.min_cwnd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransportConfig {
        TransportConfig::default()
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    #[test]
    fn grows_under_target() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        let w0 = cc.cwnd();
        for i in 0..100 {
            cc.on_ack(us(5), SimTime::from_us(i * 10), &c);
        }
        assert!(cc.cwnd() > w0);
    }

    #[test]
    fn shrinks_over_target() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        // Establish base RTT of 5us -> target 15us.
        cc.on_ack(us(5), SimTime::from_us(1), &c);
        let w0 = cc.cwnd();
        cc.on_ack(us(60), SimTime::from_us(1000), &c);
        assert!(cc.cwnd() < w0);
    }

    #[test]
    fn decrease_at_most_once_per_rtt() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        cc.on_ack(us(5), SimTime::from_us(1), &c);
        let now = SimTime::from_ms(1);
        cc.on_ack(us(100), now, &c);
        let w_after_first = cc.cwnd();
        // Immediately after (well within one srtt) another bad sample must
        // not shrink the window again.
        cc.on_ack(us(100), now + SimDuration::from_ns(100), &c);
        assert_eq!(cc.cwnd(), w_after_first);
    }

    #[test]
    fn decrease_capped_by_max_mdf() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        cc.on_ack(us(5), SimTime::from_us(1), &c);
        let w0 = cc.cwnd();
        // Enormous overshoot: decrease must be capped at max_mdf.
        cc.on_ack(SimDuration::from_ms(50), SimTime::from_ms(10), &c);
        assert!(cc.cwnd() >= w0 * (1.0 - c.max_mdf) - 1e-9);
    }

    #[test]
    fn window_bounded() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        for i in 0..100_000u64 {
            cc.on_ack(us(1), SimTime::from_us(i), &c);
        }
        assert!(cc.cwnd() <= c.max_cwnd);
        let mut t = SimTime::from_secs_f64(1.0);
        for _ in 0..10_000 {
            cc.on_ack(SimDuration::from_ms(10), t, &c);
            t += SimDuration::from_ms(100);
        }
        assert!(cc.cwnd() >= c.min_cwnd);
    }

    #[test]
    fn base_rtt_tracks_minimum() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        cc.on_ack(us(8), SimTime::from_us(1), &c);
        cc.on_ack(us(3), SimTime::from_us(2), &c);
        cc.on_ack(us(9), SimTime::from_us(3), &c);
        assert_eq!(cc.base_rtt(), Some(us(3)));
        assert_eq!(cc.target(&c), us(13).max(c.min_target));
    }

    #[test]
    fn cc_disabled_freezes_window() {
        let c = TransportConfig::fixed_window(8.0);
        let mut cc = SwiftCc::new(&c);
        cc.on_ack(us(1), SimTime::from_us(1), &c);
        cc.on_ack(SimDuration::from_ms(10), SimTime::from_ms(5), &c);
        assert_eq!(cc.cwnd(), 8.0);
        cc.on_timeout(&c);
        assert_eq!(cc.cwnd(), 8.0);
    }

    #[test]
    fn pacing_gap_inversely_proportional_to_cwnd() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        cc.on_ack(us(10), SimTime::from_us(1), &c);
        cc.cwnd = 0.5;
        let g1 = cc.pacing_gap(&c);
        cc.cwnd = 0.25;
        let g2 = cc.pacing_gap(&c);
        assert!((g2.as_ps() as f64 / g1.as_ps() as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn timeout_collapses_window() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        let w0 = cc.cwnd();
        cc.on_timeout(&c);
        assert!(cc.cwnd() < w0);
    }

    /// Back-to-back timeouts halve the window down to `min_cwnd` and no
    /// further: from 16 packets the floor of 0.01 is reached on the 11th.
    #[test]
    fn repeated_timeouts_stop_at_min_cwnd() {
        let c = cfg();
        let mut cc = SwiftCc::new(&c);
        for _ in 0..20 {
            cc.on_timeout(&c);
            assert!(
                cc.cwnd() >= c.min_cwnd,
                "cwnd {} under the floor",
                cc.cwnd()
            );
        }
        assert_eq!(cc.cwnd(), c.min_cwnd);
    }

    /// Fixture: a connection whose window was corrupted to NaN, which
    /// propagates through the AIMD arithmetic and survives the clamp.
    fn corrupted_cwnd_cc(c: &TransportConfig) -> SwiftCc {
        let mut cc = SwiftCc::new(c);
        cc.on_ack(us(5), SimTime::from_us(1), c);
        cc.simsan_force_cwnd(f64::NAN);
        cc
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "simsan[swift]")]
    fn simsan_catches_out_of_bounds_cwnd() {
        let c = cfg();
        let mut cc = corrupted_cwnd_cc(&c);
        cc.on_ack(us(5), SimTime::from_us(2), &c);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn without_simsan_out_of_bounds_cwnd_is_silent() {
        let c = cfg();
        let mut cc = corrupted_cwnd_cc(&c);
        cc.on_ack(us(5), SimTime::from_us(2), &c);
        assert!(cc.cwnd().is_nan());
    }
}
