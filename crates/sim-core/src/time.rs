//! Simulated time in integer picoseconds.
//!
//! At 100 Gbps one byte takes exactly 80 ps to serialize, so picosecond
//! resolution makes every serialization delay an exact integer. A `u64`
//! picosecond clock wraps after ~213 days of simulated time — far beyond any
//! experiment in this repository.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An instant in simulated time, measured in picoseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, measured in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" timeout sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Construct from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Construct from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Construct from seconds expressed as a float (convenience for
    /// experiment configuration; rounds to the nearest picosecond).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs * PS_PER_SEC as f64).round() as u64)
    }

    /// This instant as picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This instant as fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// This instant as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Panics (in debug) if `earlier` is
    /// later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Snap down to the start of the period containing `self` (periods
    /// tile the timeline from t=0). Panics if `period` is zero.
    pub fn align_down(self, period: SimDuration) -> SimTime {
        SimTime(self.0 / period.0 * period.0)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Construct from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Construct from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }
    /// Construct from seconds expressed as a float (rounds to nearest ps).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * PS_PER_SEC as f64).round() as u64)
    }
    /// Construct from microseconds expressed as a float (rounds to nearest ps).
    pub fn from_us_f64(us: f64) -> Self {
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }

    /// This duration as picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This duration as fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// This duration as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Multiply by a float factor, rounding to the nearest picosecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0);
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// This duration as whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Number of whole `period`s contained in `self` (integer division,
    /// exact — no float rounding). Panics if `period` is zero.
    pub const fn div_duration(self, period: SimDuration) -> u64 {
        self.0 / period.0
    }

    /// The dimensionless ratio `self / denom`. Panics (in debug) on a
    /// zero denominator.
    pub fn ratio(self, denom: SimDuration) -> f64 {
        debug_assert!(denom.0 != 0, "ratio() with zero denominator");
        self.0 as f64 / denom.0 as f64
    }

    /// Exponentially weighted moving average step toward `sample`:
    /// `(1 - alpha)·self + alpha·sample`. Computed as a single float
    /// expression and truncated, so smoothing loops (e.g. an RTT EWMA)
    /// stay bit-stable across refactors of the call site.
    pub fn ewma_toward(self, sample: SimDuration, alpha: f64) -> SimDuration {
        debug_assert!((0.0..=1.0).contains(&alpha));
        SimDuration((self.0 as f64 * (1.0 - alpha) + sample.0 as f64 * alpha) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

/// Bit rate of a link, stored in bits per second.
///
/// Provides exact serialization times in picoseconds for common datacenter
/// rates (any rate that divides 10^12 bit-ps evenly; 100 Gbps gives 10 ps per
/// bit, 80 ps per byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitRate(pub u64);

impl BitRate {
    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        BitRate(gbps * 1_000_000_000)
    }
    /// This rate in bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }
    /// This rate in gigabits per second.
    pub fn gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Time to serialize `bytes` at this rate.
    ///
    /// Computed as `bits * ps_per_sec / rate`, truncated: below 2^21 bytes
    /// the product fits in `u64` (2^24 bits * 10^12 < 2^64), so packet-sized
    /// inputs skip the 128-bit division; larger ones take the 128-bit
    /// intermediate. Both give the same quotient.
    pub fn serialize_time(self, bytes: u64) -> SimDuration {
        if bytes < 1 << 21 {
            return SimDuration(bytes * 8 * PS_PER_SEC / self.0);
        }
        let bits = bytes as u128 * 8;
        let ps = bits * PS_PER_SEC as u128 / self.0 as u128;
        SimDuration(ps as u64)
    }
    /// Exact picoseconds per bit, when this rate divides the picosecond
    /// grid evenly (all common datacenter rates do: 100 Gbps → 10 ps/bit).
    ///
    /// Callers cache the value next to per-port state so the per-packet
    /// [`BitRate::serialize_time`] becomes a single multiply instead of a
    /// 128-bit division. `None` when the division is inexact or the rate is
    /// so low that `bytes * 8 * ps_per_bit` could overflow; fall back to
    /// [`BitRate::serialize_time`] then.
    pub fn ps_per_bit_exact(self) -> Option<u64> {
        if self.0 == 0 || !PS_PER_SEC.is_multiple_of(self.0) {
            return None;
        }
        let ppb = PS_PER_SEC / self.0;
        // u32::MAX bytes * 8 bits * ppb must fit in u64.
        (ppb <= 1 << 28).then_some(ppb)
    }

    /// How many whole bytes this rate delivers in `dur`.
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        (dur.0 as u128 * self.0 as u128 / (8 * PS_PER_SEC as u128)) as u64
    }
    /// Scale the rate by a float factor (e.g. to express a fractional load).
    pub fn mul_f64(self, factor: f64) -> BitRate {
        BitRate((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}Gbps", self.gbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_exact_at_100gbps() {
        let r = BitRate::from_gbps(100);
        // One byte = 8 bits at 10 ps/bit = 80 ps.
        assert_eq!(r.serialize_time(1), SimDuration::from_ps(80));
        // A 4096-byte MTU = 327,680 ps.
        assert_eq!(r.serialize_time(4096), SimDuration::from_ps(327_680));
        // 32 KB = 8 MTUs.
        assert_eq!(r.serialize_time(32_768), SimDuration::from_ps(2_621_440));
    }

    #[test]
    fn ps_per_bit_exact_matches_serialize_time() {
        for gbps in [1u64, 10, 25, 40, 100, 200] {
            let r = BitRate::from_gbps(gbps);
            let ppb = r.ps_per_bit_exact().expect("datacenter rates are exact");
            for bytes in [1u64, 64, 1500, 4096, 65536, u32::MAX as u64] {
                assert_eq!(
                    SimDuration::from_ps(bytes * 8 * ppb),
                    r.serialize_time(bytes),
                    "{gbps} Gbps x {bytes} B"
                );
            }
        }
        // 400 Gbps is 2.5 ps/bit: not on the integer picosecond grid.
        assert_eq!(BitRate::from_gbps(400).ps_per_bit_exact(), None);
        // 3 bps does not divide the picosecond grid either.
        assert_eq!(BitRate(3).ps_per_bit_exact(), None);
        assert_eq!(BitRate(0).ps_per_bit_exact(), None);
        // 1 bps divides evenly but would overflow the multiply.
        assert_eq!(BitRate(1).ps_per_bit_exact(), None);
    }

    #[test]
    fn serialize_time_u64_path_matches_the_128_bit_path() {
        let wide =
            |r: BitRate, bytes: u64| (bytes as u128 * 8 * PS_PER_SEC as u128 / r.0 as u128) as u64;
        let gbps = |g: u64| g * 1_000_000_000;
        let rates = [
            1,
            3,
            7_000,
            999_999_937,
            gbps(30),
            gbps(100),
            gbps(400),
            u64::MAX,
        ];
        let top = 1 << 21;
        let sizes = [
            0,
            1,
            63,
            64,
            1500,
            4096,
            4160,
            65_536,
            top - 1,
            top,
            top + 1,
            1 << 30,
        ];
        for bps in rates {
            for bytes in sizes {
                assert_eq!(
                    BitRate(bps).serialize_time(bytes).as_ps(),
                    wide(BitRate(bps), bytes),
                    "{bps} bps x {bytes} B"
                );
            }
        }
    }

    #[test]
    fn bytes_in_roundtrips_serialize_time() {
        let r = BitRate::from_gbps(100);
        for bytes in [1u64, 64, 1500, 4096, 65536, 1 << 20] {
            let t = r.serialize_time(bytes);
            assert_eq!(r.bytes_in(t), bytes);
        }
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_us(10);
        let t1 = t0 + SimDuration::from_ns(500);
        assert_eq!(t1.as_ps(), 10_500_000);
        assert_eq!((t1 - t0).as_ns_f64(), 500.0);
        assert_eq!(t1.since(t0), SimDuration::from_ns(500));
    }

    #[test]
    fn saturating_since_clamps() {
        let t0 = SimTime::from_us(10);
        let t1 = SimTime::from_us(5);
        assert_eq!(t1.saturating_since(t0), SimDuration::ZERO);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_us(15).as_us_f64(), 15.0);
        assert_eq!(SimDuration::from_ms(2).as_secs_f64(), 0.002);
        assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_ms(500));
        assert_eq!(SimDuration::from_us_f64(1.5), SimDuration::from_ns(1500));
    }

    #[test]
    fn rate_display_and_scale() {
        let r = BitRate::from_gbps(100);
        assert_eq!(format!("{r}"), "100.0Gbps");
        assert_eq!(r.mul_f64(0.8), BitRate::from_gbps(80));
    }
}
