//! Structured simulation tracing, a metrics registry, and a per-run flight
//! recorder for the Aequitas simulator.
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
//! * [`trace::FlightRecorder`] keeps the last N events in a ring buffer so
//!   failing tests can dump the moments before the problem,
//! * [`metrics::MetricsRegistry`] aggregates counters, gauges, and
//!   [`hist::LogLinearHistogram`]s keyed by `(metric, labels)` and samples
//!   them into time-series on a simulated-time cadence
//!   (`--metrics out.csv`).

#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::LogLinearHistogram;
pub use metrics::{labels, MetricId, MetricsRegistry};
pub use trace::{
    FlightRecorder, JsonlWriter, NodeKind, NullSink, TraceEvent, TraceSink, TRACE_SCHEMA_VERSION,
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
    /// Largest simulated timestamp seen so far; stamps events (warns) that
    /// arrive without their own clock.
    last_t_ps: u64,
    /// Serialization buffer handed to the sink on every event, so steady-
    /// state emission allocates nothing.
    scratch: String,
}

struct Inner {
    trace: Mutex<TraceState>,
    metrics: Mutex<MetricsRegistry>,
    sample_every: SimDuration,
    next_sample: Mutex<u64>,
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
                    last_t_ps: 0,
                    scratch: String::with_capacity(256),
                }),
                metrics: Mutex::new(MetricsRegistry::new()),
                sample_every: config.sample_every,
                next_sample: Mutex::new(0),
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

    /// Emit one trace event stamped with simulated time `now`. The event is
    /// handed to the sink as a struct together with a reused serialization
    /// buffer — steady-state emission performs no allocation.
    #[inline]
    pub fn emit(&self, now: SimTime, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            let st = &mut *inner.trace.lock().unwrap();
            let t_ps = now.as_ps();
            st.last_t_ps = st.last_t_ps.max(t_ps);
            let seq = st.seq;
            st.seq += 1;
            st.sink.record_event(seq, t_ps, &event, &mut st.scratch);
        }
    }

    /// Emit a [`TraceEvent::Warn`] stamped with the most recent simulated
    /// timestamp this handle has seen.
    pub fn warn(&self, component: &str, message: impl Into<String>) {
        if let Some(inner) = &self.inner {
            let st = &mut *inner.trace.lock().unwrap();
            let (seq, t_ps) = (st.seq, st.last_t_ps);
            st.seq += 1;
            let event = TraceEvent::Warn {
                component: component.to_string(),
                message: message.into(),
            };
            st.sink.record_event(seq, t_ps, &event, &mut st.scratch);
        }
    }

    /// Run `f` against the metrics registry; a no-op when disabled.
    #[inline]
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&mut inner.metrics.lock().unwrap()))
    }

    /// Whether the sampling cadence says a snapshot is due at `now`.
    /// Callers that own gauges should refresh them before calling
    /// [`Telemetry::sample`].
    pub fn sample_due(&self, now: SimTime) -> bool {
        match &self.inner {
            Some(inner) => now.as_ps() >= *inner.next_sample.lock().unwrap(),
            None => false,
        }
    }

    /// Snapshot the registry into time-series at `now` and advance the
    /// cadence clock.
    pub fn sample(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().unwrap().sample(now);
            // A cadence past the end of time means no further sample.
            *inner.next_sample.lock().unwrap() =
                now.as_ps().saturating_add(inner.sample_every.as_ps());
            let mut st = inner.trace.lock().unwrap();
            st.last_t_ps = st.last_t_ps.max(now.as_ps());
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
    pub fn write_metrics_csv_path(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<()> {
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
        assert_eq!(tel.with_metrics(|m| m.num_series()), None);
        assert!(!tel.sample_due(SimTime::from_us(100)));
        tel.sample(SimTime::from_us(100));
        tel.flush();
    }

    #[test]
    fn emit_assigns_monotone_seq() {
        let fr = FlightRecorder::new(16);
        let tel = Telemetry::with_sink(fr.clone(), TelemetryConfig::default());
        for i in 0..3 {
            tel.emit(
                SimTime::from_us(i),
                TraceEvent::Warn {
                    component: "t".into(),
                    message: format!("m{i}"),
                },
            );
        }
        let lines = fr.dump();
        // Line 0 is the schema header, then the three warns.
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"type\":\"trace_header\""), "{}", lines[0]);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
        }
    }

    #[test]
    fn sampling_cadence_advances() {
        let tel = Telemetry::with_sink(
            NullSink,
            TelemetryConfig {
                sample_every: SimDuration::from_us(10),
            },
        );
        assert!(tel.sample_due(SimTime::ZERO));
        tel.with_metrics(|m| {
            let g = m.gauge_id("g", String::new());
            m.gauge_set_id(g, 1.0);
        });
        tel.sample(SimTime::ZERO);
        assert!(!tel.sample_due(SimTime::from_us(9)));
        assert!(tel.sample_due(SimTime::from_us(10)));
        tel.sample(SimTime::from_us(10));
        assert_eq!(
            tel.with_metrics(|m| m.series("g", "").unwrap().len()),
            Some(2)
        );
    }

    #[test]
    fn warn_uses_last_seen_timestamp() {
        let fr = FlightRecorder::new(4);
        let tel = Telemetry::with_sink(fr.clone(), TelemetryConfig::default());
        tel.emit(
            SimTime::from_us(5),
            TraceEvent::Warn {
                component: "a".into(),
                message: "x".into(),
            },
        );
        tel.warn("b", "y");
        let lines = fr.dump();
        assert!(lines[2].contains("\"t_ps\":5000000"), "{}", lines[2]);
    }
}
