//! The metrics registry: counters, gauges, and log-linear histograms keyed
//! by `(metric, labels)`, sampled on a simulated-time cadence into
//! time-series.
//!
//! Metric names are dotted lowercase (`switch.port.backlog_bytes`); labels
//! are a canonical `k=v,k=v` string built with [`labels`]. The hot path is
//! handle-based: callers intern a `(metric, labels)` pair once (at wiring
//! time or on first use) into a [`MetricId`] and update through it — a
//! bounds-checked `Vec` index, no string hashing or allocation per event.
//! Key strings survive only in the registration index (a `BTreeMap`, so
//! iteration — and therefore every CSV export — stays deterministic) and in
//! the by-name read accessors. [`MetricsRegistry::sample`] snapshots the
//! current value of every counter and gauge (and derived percentiles of
//! every histogram) into per-key time-series for plotting.

use crate::hist::LogLinearHistogram;
use aequitas_sim_core::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Build a canonical label string from `(key, value)` pairs:
/// `labels(&[("sw", "0"), ("port", "2")]) == "sw=0,port=2"`.
pub fn labels(pairs: &[(&str, &str)]) -> String {
    let mut s = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}={v}");
    }
    s
}

type Key = (String, String);

/// Dense handle to one `(metric, labels)` slot, produced by the `*_id`
/// interning methods. Resolving the strings happens once; every subsequent
/// update through the handle is a `Vec` index. Handles are only meaningful
/// for the registry that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

/// What a metric registered on its first hit ([`crate::Telemetry::bump`])
/// does with each value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A counter: each hit adds its value.
    Counter,
    /// A histogram: each hit records its value.
    Hist,
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(u64),
    Gauge(f64),
    Hist(LogLinearHistogram),
}

/// Histogram percentiles snapshotted into series on every sample tick.
const HIST_PERCENTILES: [(f64, &str); 3] = [(50.0, "p50"), (99.0, "p99"), (99.9, "p999")];

/// A registry of named metrics with periodic time-series snapshots.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Dense slot storage; [`MetricId`] indexes this directly.
    slots: Vec<Slot>,
    /// Registration/export index. Sorted iteration keeps sampling and CSV
    /// export deterministic whatever order callers interned in.
    index: BTreeMap<Key, u32>,
    series: BTreeMap<Key, Vec<(u64, f64)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Intern `(name, labels)` and return its dense handle, creating the
    /// slot with `init` if the key is new. Slot *type* is fixed by whoever
    /// interns first; mismatched updates are debug-asserted and ignored.
    fn intern(
        &mut self,
        name: impl Into<String>,
        labels: String,
        init: impl FnOnce() -> Slot,
    ) -> MetricId {
        let key = (name.into(), labels);
        if let Some(&id) = self.index.get(&key) {
            return MetricId(id);
        }
        let id = u32::try_from(self.slots.len()).expect("metric slot count fits u32");
        self.slots.push(init());
        self.index.insert(key, id);
        MetricId(id)
    }

    /// Intern a counter metric, creating it at zero if needed.
    pub fn counter_id(&mut self, name: impl Into<String>, labels: String) -> MetricId {
        self.intern(name, labels, || Slot::Counter(0))
    }

    /// Intern a gauge metric, creating it at zero if needed.
    pub fn gauge_id(&mut self, name: impl Into<String>, labels: String) -> MetricId {
        self.intern(name, labels, || Slot::Gauge(0.0))
    }

    /// Intern a histogram metric, creating it empty if needed.
    pub fn hist_id(&mut self, name: impl Into<String>, labels: String) -> MetricId {
        self.intern(name, labels, || Slot::Hist(LogLinearHistogram::new()))
    }

    /// Add `delta` to the counter behind `id`.
    #[inline]
    pub fn counter_add_id(&mut self, id: MetricId, delta: u64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Counter(c) => *c += delta,
            other => debug_assert!(false, "metric type mismatch: {other:?}"),
        }
    }

    /// Set the gauge behind `id` to `value`.
    #[inline]
    pub fn gauge_set_id(&mut self, id: MetricId, value: f64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Gauge(g) => *g = value,
            other => debug_assert!(false, "metric type mismatch: {other:?}"),
        }
    }

    /// Record `value` into the histogram behind `id`.
    #[inline]
    pub fn hist_record_id(&mut self, id: MetricId, value: u64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Hist(h) => h.record(value),
            other => debug_assert!(false, "metric type mismatch: {other:?}"),
        }
    }

    fn slot(&self, name: &str, labels: &str) -> Option<&Slot> {
        let id = *self.index.get(&(name.to_string(), labels.to_string()))?;
        Some(&self.slots[id as usize])
    }

    /// Current value of a counter, if it exists.
    pub fn counter(&self, name: &str, labels: &str) -> Option<u64> {
        match self.slot(name, labels)? {
            Slot::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Current value of a gauge, if it exists.
    pub fn gauge(&self, name: &str, labels: &str) -> Option<f64> {
        match self.slot(name, labels)? {
            Slot::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Percentile `p` of a histogram metric, if it exists and is non-empty.
    pub fn percentile(&self, name: &str, labels: &str, p: f64) -> Option<u64> {
        match self.slot(name, labels)? {
            Slot::Hist(h) => h.percentile(p),
            _ => None,
        }
    }

    /// Snapshot every counter/gauge value (and histogram percentiles, under
    /// `<name>.<pN>` keys) into the time-series at simulated time `now`.
    pub fn sample(&mut self, now: SimTime) {
        let t = now.as_ps();
        // Walk the sorted index so series creation order (and therefore CSV
        // export) does not depend on interning order.
        let MetricsRegistry {
            slots,
            index,
            series,
        } = self;
        for ((name, labels), &id) in index.iter() {
            match &slots[id as usize] {
                Slot::Counter(c) => {
                    series
                        .entry((name.clone(), labels.clone()))
                        .or_default()
                        .push((t, *c as f64));
                }
                Slot::Gauge(g) => {
                    series
                        .entry((name.clone(), labels.clone()))
                        .or_default()
                        .push((t, *g));
                }
                Slot::Hist(h) => {
                    for (p, tag) in HIST_PERCENTILES {
                        if let Some(v) = h.percentile(p) {
                            series
                                .entry((format!("{name}.{tag}"), labels.clone()))
                                .or_default()
                                .push((t, v as f64));
                        }
                    }
                }
            }
        }
    }

    /// The sampled series for one key, as `(t_ps, value)` pairs.
    pub fn series(&self, name: &str, labels: &str) -> Option<&[(u64, f64)]> {
        self.series
            .get(&(name.to_string(), labels.to_string()))
            .map(|v| v.as_slice())
    }

    /// Write every sampled series as CSV: `t_us,metric,labels,value`, rows
    /// ordered by metric key then time. A multi-pair labels string contains
    /// commas, so the labels field is double-quoted whenever it is non-empty
    /// to keep every row at exactly four CSV fields. Plot with
    /// `scripts/plot_csv.sh` after filtering one metric.
    pub fn write_series_csv(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(w, "t_us,metric,labels,value")?;
        for ((name, labels), points) in &self.series {
            let quoted = if labels.is_empty() {
                String::new()
            } else {
                format!("\"{labels}\"")
            };
            for &(t_ps, v) in points {
                writeln!(w, "{:.3},{name},{quoted},{v}", t_ps as f64 / 1e6)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_canonical_form() {
        assert_eq!(labels(&[]), "");
        assert_eq!(labels(&[("sw", "0")]), "sw=0");
        assert_eq!(labels(&[("sw", "0"), ("port", "2")]), "sw=0,port=2");
    }

    #[test]
    fn counters_accumulate_and_sample() {
        let mut r = MetricsRegistry::new();
        let pkts = r.counter_id("pkts", labels(&[("class", "0")]));
        r.counter_add_id(pkts, 3);
        r.counter_add_id(pkts, 4);
        assert_eq!(r.counter("pkts", "class=0"), Some(7));
        r.sample(SimTime::from_us(1));
        r.counter_add_id(pkts, 1);
        r.sample(SimTime::from_us(2));
        let s = r.series("pkts", "class=0").unwrap();
        assert_eq!(s, &[(1_000_000, 7.0), (2_000_000, 8.0)]);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        let depth = r.gauge_id("depth", String::new());
        r.gauge_set_id(depth, 5.0);
        r.gauge_set_id(depth, 2.5);
        assert_eq!(r.gauge("depth", ""), Some(2.5));
    }

    #[test]
    fn histograms_sample_percentiles() {
        let mut r = MetricsRegistry::new();
        let rnl = r.hist_id("rnl", labels(&[("qos", "0")]));
        for v in 1..=1000u64 {
            r.hist_record_id(rnl, v);
        }
        let p99 = r.percentile("rnl", "qos=0", 99.0).unwrap();
        assert!((985..=1000).contains(&p99), "{p99}");
        r.sample(SimTime::from_us(10));
        assert!(r.series("rnl.p99", "qos=0").is_some());
        assert!(r.series("rnl.p50", "qos=0").is_some());
    }

    #[test]
    fn handle_api_matches_string_api() {
        // Two registries interning the same keys in opposite orders: export
        // order comes from the sorted string index, not slot-creation
        // order, and the by-name accessors read through to the handles.
        let fill = |reverse: bool| {
            let mut r = MetricsRegistry::new();
            let (c, g, h);
            if reverse {
                h = r.hist_id("rnl", labels(&[("qos", "0")]));
                g = r.gauge_id("depth", String::new());
                c = r.counter_id("pkts", labels(&[("class", "1")]));
            } else {
                c = r.counter_id("pkts", labels(&[("class", "1")]));
                g = r.gauge_id("depth", String::new());
                h = r.hist_id("rnl", labels(&[("qos", "0")]));
            }
            r.counter_add_id(c, 5);
            r.gauge_set_id(g, 2.5);
            for v in 1..=100u64 {
                r.hist_record_id(h, v);
            }
            r.sample(SimTime::from_us(3));
            let mut csv = Vec::new();
            r.write_series_csv(&mut csv).unwrap();
            // Re-interning the same key returns the same handle.
            assert_eq!(r.counter_id("pkts", labels(&[("class", "1")])), c);
            assert_eq!(r.counter("pkts", "class=1"), Some(5));
            assert_eq!(r.gauge("depth", ""), Some(2.5));
            csv
        };
        assert_eq!(fill(false), fill(true));
    }

    #[test]
    fn csv_export_is_deterministic_and_parses() {
        let mut r = MetricsRegistry::new();
        let b = r.gauge_id("b", String::new());
        r.gauge_set_id(b, 1.0);
        let a = r.counter_id("a", labels(&[("x", "1")]));
        r.counter_add_id(a, 2);
        r.sample(SimTime::from_us(5));
        let mut out = Vec::new();
        r.write_series_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "t_us,metric,labels,value");
        // BTreeMap ordering: "a" before "b". Non-empty labels are quoted
        // (multi-pair labels embed commas).
        assert_eq!(lines[1], "5.000,a,\"x=1\",2");
        assert_eq!(lines[2], "5.000,b,,1");
    }
}
