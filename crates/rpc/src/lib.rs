#![warn(missing_docs)]

//! The RPC stack: where Aequitas lives (Fig. 6 of the paper).
//!
//! Applications issue RPCs on channels annotated with a [`Priority`]; the
//! stack maps priority to a requested QoS (Phase 1), consults the admission
//! policy for an admit-or-downgrade decision (Phase 2), hands the message to
//! the transport, and — when the transport reports completion — computes the
//! RPC Network Latency (RNL) and feeds it back into the policy.
//!
//! Two components:
//!
//! * [`RpcStack`] — the per-host stack combining mapping, policy, transport,
//!   and RNL bookkeeping.
//! * [`WorkloadHost`] — a ready-made [`HostAgent`] that drives a
//!   [`WorkloadSpec`]'s [`RpcStream`] through an `RpcStack`; all macro
//!   experiments use it.
//!
//! [`HostAgent`]: aequitas_netsim::HostAgent
//! [`RpcStream`]: aequitas_workloads::RpcStream

pub mod driver;
pub mod stack;

pub use driver::WorkloadHost;
pub use stack::{Policy, RetryConfig, RpcCompletion, RpcFailure, RpcStack, RPC_RETRY_TIMER};

pub use aequitas_workloads::{
    ArrivalProcess, Priority, PrioritySpec, QosClass, QosMapping, TrafficPattern, WorkloadSpec,
};
