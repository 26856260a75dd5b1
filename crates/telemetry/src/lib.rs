//! Structured simulation tracing and a metrics registry for the Aequitas
//! simulator.
//!
//! The crate revolves around one cheap-to-clone handle, [`Telemetry`]. Every
//! instrumented layer (netsim ports, qdisc schedulers, the transport, the
//! RPC stack, the admission controller) holds a clone and calls
//! [`Telemetry::emit`] / [`Telemetry::with_metrics`] at its lifecycle
//! points. A disabled handle is a `None` — each call is a single branch and
//! no allocation, so instrumentation stays in the hot paths permanently and
//! costs nothing unless a run opts in (priced by `aequitas-benchmark`'s
//! `telemetry.emit_disabled_ns` unit cost).
//!
//! Three consumers are built in:
//!
//! * [`trace::JsonlWriter`] streams typed events as JSONL for offline
//!   analysis (`aequitas-sim run <exp> --trace out.jsonl`),
//! * [`trace::MemorySink`] keeps the same JSONL bytes in memory for tests,
//! * [`metrics::MetricsRegistry`] aggregates counters, gauges, and
//!   [`hist::LogLinearHistogram`]s keyed by `(metric, labels)` and samples
//!   them into time-series on a simulated-time cadence
//!   (`--metrics out.csv`).

#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::LogLinearHistogram;
pub use metrics::{labels, MetricId, MetricKind, MetricsRegistry};
pub use trace::{
    JsonlWriter, MemorySink, NodeKind, NullSink, TraceEvent, TraceSink, TRACE_SCHEMA_VERSION,
};

use aequitas_sim_core::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// Tunables for an enabled telemetry handle.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Simulated-time cadence at which the metrics registry is snapshotted
    /// into time-series.
    pub sample_every: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: SimDuration::from_us(10),
        }
    }
}

struct TraceState {
    sink: Box<dyn TraceSink>,
    seq: u64,
    /// Serialization buffer reused for every event, so steady-state
    /// emission allocates nothing.
    scratch: String,
}

struct Inner {
    trace: Mutex<TraceState>,
    metrics: Mutex<MetricsRegistry>,
    sample_every: SimDuration,
}

/// A shared telemetry handle; clones refer to the same sink and registry.
///
/// The handle is `Send + Sync` so the parallel sweep harness can move it
/// across worker threads. A disabled handle (the default) short-circuits
/// every call on a single `Option` check.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle: every call is a single branch, nothing is recorded.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle feeding `sink`. The first line of every enabled
    /// trace is a `trace_header` event (seq 0) carrying
    /// [`trace::TRACE_SCHEMA_VERSION`], so offline tooling can reject
    /// streams it does not understand.
    pub fn with_sink(sink: impl TraceSink + 'static, config: TelemetryConfig) -> Self {
        let tel = Telemetry {
            inner: Some(Arc::new(Inner {
                trace: Mutex::new(TraceState {
                    sink: Box::new(sink),
                    seq: 0,
                    scratch: String::with_capacity(256),
                }),
                metrics: Mutex::new(MetricsRegistry::new()),
                sample_every: config.sample_every,
            })),
        };
        tel.emit(
            SimTime::ZERO,
            TraceEvent::TraceHeader {
                schema_version: trace::TRACE_SCHEMA_VERSION,
            },
        );
        tel
    }

    /// An enabled handle streaming JSONL to `path` (created/truncated).
    pub fn to_file(
        path: impl AsRef<std::path::Path>,
        config: TelemetryConfig,
    ) -> std::io::Result<Self> {
        Ok(Telemetry::with_sink(JsonlWriter::create(path)?, config))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one trace event stamped with simulated time `now`: it is
    /// serialized into a reused buffer and handed to the sink as one line,
    /// so steady-state emission performs no allocation.
    #[inline]
    pub fn emit(&self, now: SimTime, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            let st = &mut *inner.trace.lock().unwrap();
            st.scratch.clear();
            event.write_json(&mut st.scratch, st.seq, now.as_ps());
            st.seq += 1;
            st.sink.record_line(&st.scratch);
        }
    }

    /// Run `f` against the metrics registry; a no-op when disabled.
    #[inline]
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&mut inner.metrics.lock().unwrap()))
    }

    /// Count `value` into a metric registered on its first hit: the first
    /// call interns `(name, labels())` as a `kind` metric into `*id`, every
    /// call then adds `value` to the counter or records it into the
    /// histogram. A lazily registered series appears in the metrics CSV
    /// only once something hit it. A no-op when disabled.
    pub fn bump(
        &self,
        id: &mut Option<MetricId>,
        kind: MetricKind,
        name: &str,
        labels: impl FnOnce() -> String,
        value: u64,
    ) {
        self.with_metrics(|m| {
            let id = *id.get_or_insert_with(|| match kind {
                MetricKind::Counter => m.counter_id(name, labels()),
                MetricKind::Hist => m.hist_id(name, labels()),
            });
            match kind {
                MetricKind::Counter => m.counter_add_id(id, value),
                MetricKind::Hist => m.hist_record_id(id, value),
            }
        });
    }

    /// Snapshot the registry into time-series at `now`. The caller owns the
    /// cadence ([`Telemetry::sample_every`]) and refreshes its gauges first.
    pub fn sample(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().unwrap().sample(now);
        }
    }

    /// The configured sampling cadence, if enabled.
    pub fn sample_every(&self) -> Option<SimDuration> {
        self.inner.as_ref().map(|i| i.sample_every)
    }

    /// Flush the trace sink's buffering to its backing store.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.trace.lock().unwrap().sink.flush();
        }
    }

    /// The filesystem path of the trace sink, when the sink writes to one
    /// (i.e. a [`JsonlWriter`]). Used by the harness self-audit to locate
    /// the finished trace.
    pub fn trace_path(&self) -> Option<std::path::PathBuf> {
        self.inner
            .as_ref()
            .and_then(|i| i.trace.lock().unwrap().sink.path().map(|p| p.to_path_buf()))
    }

    /// Write all sampled metric series as CSV (`t_us,metric,labels,value`).
    pub fn write_metrics_csv(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner.metrics.lock().unwrap().write_series_csv(w),
            None => Ok(()),
        }
    }

    /// Write all sampled metric series to a CSV file at `path`.
    pub fn write_metrics_csv_path(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_metrics_csv(&mut w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(
            SimTime::from_us(1),
            TraceEvent::Warn {
                component: "t".into(),
                message: "m".into(),
            },
        );
        let mut id = None;
        tel.bump(&mut id, MetricKind::Counter, "c", String::new, 1);
        assert_eq!(id, None);
        assert_eq!(tel.with_metrics(|_| ()), None);
        tel.sample(SimTime::from_us(100));
        tel.flush();
    }

    #[test]
    fn emit_assigns_monotone_seq() {
        let sink = MemorySink::default();
        let tel = Telemetry::with_sink(sink.clone(), TelemetryConfig::default());
        for i in 0..3 {
            tel.emit(
                SimTime::from_us(i),
                TraceEvent::Warn {
                    component: "t".into(),
                    message: format!("m{i}"),
                },
            );
        }
        let text = sink.take();
        let lines: Vec<&str> = text.lines().collect();
        // Line 0 is the schema header, then the three warns.
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].contains("\"type\":\"trace_header\""),
            "{}",
            lines[0]
        );
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
        }
    }

    #[test]
    fn samples_accumulate_into_series() {
        let tel = Telemetry::with_sink(
            NullSink,
            TelemetryConfig {
                sample_every: SimDuration::from_us(10),
            },
        );
        assert_eq!(tel.sample_every(), Some(SimDuration::from_us(10)));
        tel.with_metrics(|m| {
            let g = m.gauge_id("g", String::new());
            m.gauge_set_id(g, 1.0);
        });
        tel.sample(SimTime::ZERO);
        tel.sample(SimTime::from_us(10));
        assert_eq!(
            tel.with_metrics(|m| m.series("g", "").unwrap().len()),
            Some(2)
        );
    }

    #[test]
    fn bump_registers_on_the_first_hit() {
        let tel = Telemetry::with_sink(NullSink, TelemetryConfig::default());
        let (mut count, mut hist) = (None, None);
        let mut labelled = 0;
        for v in [3, 5] {
            tel.bump(
                &mut count,
                MetricKind::Counter,
                "c",
                || {
                    labelled += 1;
                    labels(&[("host", "0")])
                },
                v,
            );
            tel.bump(&mut hist, MetricKind::Hist, "h", String::new, v);
        }
        assert_eq!(labelled, 1, "labels are built once, at registration");
        assert_eq!(
            tel.with_metrics(|m| m.counter("c", "host=0")),
            Some(Some(8))
        );
        assert_eq!(
            tel.with_metrics(|m| m.percentile("h", "", 100.0)),
            Some(Some(5))
        );
    }
}
