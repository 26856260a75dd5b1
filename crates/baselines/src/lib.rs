#![warn(missing_docs)]

//! Comparison baselines for the §6.10 related-work evaluation.
//!
//! Five schemes, each implemented as a [`aequitas_netsim::HostAgent`] plus a
//! fabric configuration, reproducing the published *decision logic* (what
//! gets priority, rate, or terminated), not every header field:
//!
//! * [`pfabric`] — pFabric (Alizadeh et al.): packets carry the message's
//!   remaining size as their rank; switches are tiny PIFOs that dequeue the
//!   lowest rank and evict the highest on overflow; hosts blast at a fixed
//!   window with timeout retransmission.
//! * [`qjump`] — QJump (Grosvenor et al.): hosts rate-limit each priority
//!   class to its guaranteed epoch share; the fabric is strict priority.
//! * [`deadline`] — D3 (Wilson et al.) and PDQ (Hong et al.): receiver-side
//!   rate allocation (valid because the evaluated topologies bottleneck at
//!   the receiver downlink — documented simplification). D3 grants
//!   `remaining/deadline` rates greedily; PDQ preemptively grants the full
//!   rate to the earliest-deadline flows. Both terminate RPCs whose
//!   deadlines become infeasible, which is what caps their network
//!   utilization near 50% in Fig. 22.
//! * [`homa`] — Homa (Montazeri et al.): receiver-driven grants with SRPT
//!   priority assignment over 8 strict-priority fabric levels; unscheduled
//!   first-RTT packets.
//!
//! All schemes are built on one sender skeleton ([`Sender`]): they draw
//! their RPCs from the workspace's one workload stream
//! ([`aequitas_workloads::RpcStream`], handed over as a [`WorkloadGen`]),
//! count the bytes they were offered, and emit the same
//! [`BaselineCompletion`] records, so the Fig. 22 harness can drive and
//! score any [`BaselineHost`] — and Aequitas — uniformly.

pub mod deadline;
pub mod homa;
pub mod pfabric;
pub mod qjump;
pub mod reliable;
pub mod workgen;

pub use deadline::{DeadlineHost, DeadlineMode};
pub use homa::HomaHost;
pub use pfabric::PfabricHost;
pub use qjump::QjumpHost;
pub use reliable::{BaselineHost, Sender};
pub use workgen::WorkloadGen;

use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_workloads::Priority;

/// A finished (or terminated) RPC under a baseline scheme, or under
/// Aequitas when the Fig. 22 harness scores it alongside them.
#[derive(Debug, Clone, Copy)]
pub struct BaselineCompletion {
    /// Application priority class.
    pub priority: Priority,
    /// The QoS class the RPC ran on: the bijective mapping's for a
    /// baseline, the admitted (possibly downgraded) one for Aequitas.
    pub qos: u8,
    /// Payload bytes.
    pub size_bytes: u64,
    /// When the RPC was issued.
    pub issued_at: SimTime,
    /// When it completed (or was terminated).
    pub completed_at: SimTime,
    /// D3/PDQ: the scheme gave up on the RPC (deadline infeasible). The
    /// bytes never fully transferred.
    pub terminated: bool,
    /// Aequitas downgraded the RPC from its requested QoS. No baseline
    /// sets it.
    pub downgraded: bool,
}

impl BaselineCompletion {
    /// Completion latency (the scheme-agnostic RNL analogue).
    pub fn latency(&self) -> SimDuration {
        self.completed_at.since(self.issued_at)
    }
}

/// The unit tests' load: host `src` of `n` sends `priority` RPCs of `sizes`
/// to the last host, Poisson at `load` of 100 Gbps, until `stop_ms`.
#[cfg(test)]
fn test_gen(
    src: usize,
    n: usize,
    load: f64,
    priority: Priority,
    sizes: aequitas_workloads::SizeDist,
    stop_ms: u64,
    seed: u64,
) -> WorkloadGen {
    WorkloadGen::new(
        aequitas_workloads::ArrivalProcess::Poisson { load },
        aequitas_workloads::TrafficPattern::ManyToOne { dst: n - 1 },
        vec![(priority, 1.0, sizes)],
        src,
        n,
        aequitas_sim_core::BitRate::from_gbps(100),
        Some(SimTime::from_ms(stop_ms)),
        seed,
    )
}
