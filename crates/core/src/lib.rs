#![warn(missing_docs)]

//! **Aequitas** — distributed, sender-driven admission control for
//! performance-critical RPCs in datacenters (Zhang et al., SIGCOMM 2022).
//!
//! Aequitas provides RPC Network Latency (RNL) SLOs on top of commodity
//! weighted-fair-queuing (WFQ) network QoS, with no centralized controller
//! and no switch changes. Its two phases:
//!
//! * **Phase 1** ([`phase1`]): align network QoS with RPC priority at RPC
//!   granularity — performance-critical → QoSₕ, non-critical → QoS_m,
//!   best-effort → QoSₗ — replacing coarse application-level markings.
//! * **Phase 2** ([`controller`]): a fully distributed admission control
//!   loop at each sending host (Algorithm 1). Every RPC channel maintains an
//!   *admit probability* per (destination, QoS); RPCs that lose the
//!   admission coin flip are **downgraded** to the lowest QoS rather than
//!   dropped or delayed. The probability follows AIMD on measured RNL
//!   against the per-QoS SLO: additive increase (at most once per *increment
//!   window*, scaled to the SLO's target percentile) while RNL is within
//!   target, multiplicative decrease proportional to RPC size on each miss,
//!   floored to avoid starvation.
//!
//! The theory for *why* controlling the admitted QoS-mix bounds per-class
//! delay lives in the companion `aequitas-analysis` crate; this crate is the
//! control system itself, independent of any particular transport or
//! simulator.
//!
//! # Quick start
//!
//! ```
//! use aequitas::{AequitasConfig, AdmissionController, SloTarget};
//! use aequitas_sim_core::{SimDuration, SimTime};
//!
//! // Three QoS levels; SLOs for the top two, scavenger for the rest.
//! let config = AequitasConfig::three_qos(
//!     SloTarget::per_mtu(SimDuration::from_us_f64(15.0 / 8.0), 99.9),
//!     SloTarget::per_mtu(SimDuration::from_us_f64(25.0 / 8.0), 99.9),
//! );
//! let mut ctl = AdmissionController::new(config, 42);
//!
//! // On RPC issue: ask for a QoS decision toward destination 5.
//! let d = ctl.on_issue(SimTime::ZERO, 5, 0, 8);
//! assert!(!d.downgraded); // admit probability starts at 1.0
//!
//! // On RPC completion: feed the measured RNL back.
//! ctl.on_completion(SimTime::from_us(100), 5, d.qos_run, 8, SimDuration::from_us(12));
//! ```

pub mod controller;
pub mod phase1;
pub mod quota;

pub use controller::{AdmissionController, AequitasConfig, IssueDecision, SloTarget};
pub use phase1::{AppSpec, Fleet, FleetConfig};
pub use quota::{
    FallbackConfig, Grant, GrantKeeper, QuotaBucket, QuotaServer, QuotaSpec, TenantId, UsageReport,
};
