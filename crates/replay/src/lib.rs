//! Trace-driven replay, bound auditing, and cross-run analysis for
//! Aequitas telemetry (`aequitas-replay`).
//!
//! The simulator's hot path can afford to *write* telemetry but not to
//! analyze it; this crate is the offline other half. It ingests the JSONL
//! trace (and optionally the sampled-metrics CSV) of any run and
//!
//! 1. **replays** it into full-fabric state the engine never materializes:
//!    per-port queue-depth timelines and per-packet queuing delays,
//!    per-(src,dst,QoS) RNL distributions, admit-probability (`p_admit`)
//!    trajectories, and fault windows ([`reconstruct`]);
//! 2. **audits** the run against the paper's closed-form analysis in
//!    `crates/analysis` — measured worst-case delays vs the Eq. 1/Eq. 8
//!    bounds, admissible-region membership of the realized QoS mix,
//!    RNL-SLO compliance — producing a PASS/FAIL verdict report ([`audit`],
//!    [`report`]);
//! 3. **compares** runs: `aequitas-replay analyze --input results/ --out
//!    analysis/` diffs RNL quantile sketches (p50/p99/p99.9 per QoS),
//!    queue peaks, and verdicts across every trace in a directory
//!    ([`compare`]).
//!
//! Traces are versioned: the first line of every stream is a
//! `trace_header` carrying `schema_version`, and this crate refuses
//! versions it does not understand ([`trace::check_header`]) so schema
//! drift fails loudly instead of silently misparsing.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod audit;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod reconstruct;
pub mod report;
pub mod timeline;
pub mod trace;

pub use audit::{audit_file, AuditOptions, AuditReport, CheckStatus};
pub use reconstruct::Reconstruction;
