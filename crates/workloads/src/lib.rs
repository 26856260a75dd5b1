#![warn(missing_docs)]

//! RPC workload generation for the Aequitas reproduction.
//!
//! Three orthogonal axes describe every workload in the paper's evaluation:
//!
//! * **What** — [`SizeDist`]: RPC payload sizes, from the fixed 32 KB WRITEs
//!   of the microbenchmarks to the heavy-tailed "production" distribution of
//!   §6.9/§6.10 (modelled after the per-class CDFs of Fig. 1).
//! * **When** — [`ArrivalProcess`]: Poisson arrivals at a target load, or the
//!   deterministic burst/idle pattern of Fig. 7 parameterized by average
//!   load μ and burst load ρ.
//! * **Where** — [`TrafficPattern`]: which (source, destination) pairs
//!   communicate — fixed pairs, all-to-all, or many-to-one incast.
//!
//! RPC priority classes ([`Priority`]) live here too, since workloads are
//! specified as per-class mixes: a [`WorkloadSpec`] is one host's mix, and
//! an [`RpcStream`] draws that host's RPCs from it — the one stream
//! Aequitas's hosts and every baseline's hosts consume.
//!
//! # Example
//!
//! ```
//! use aequitas_sim_core::{BitRate, SimRng};
//! use aequitas_workloads::{ArrivalProcess, ArrivalState, SizeDist};
//!
//! // Poisson arrivals of 32 KB RPCs at 80% of a 100 Gbps NIC.
//! let dist = SizeDist::Fixed(32_768);
//! let mut arrivals = ArrivalState::new(
//!     ArrivalProcess::Poisson { load: 0.8 },
//!     BitRate::from_gbps(100),
//!     dist.mean_bytes(),
//! );
//! let mut rng = SimRng::new(7);
//! let first = arrivals.next_arrival(&mut rng);
//! let second = arrivals.next_arrival(&mut rng);
//! assert!(second >= first);
//! ```

pub mod arrivals;
pub mod pattern;
pub mod priority;
pub mod sizes;
pub mod stream;

pub use arrivals::{ArrivalProcess, ArrivalState};
pub use pattern::TrafficPattern;
pub use priority::{Priority, QosClass, QosMapping};
pub use sizes::SizeDist;
pub use stream::{NextRpc, PrioritySpec, RpcStream, WorkloadSpec};

/// Maximum transmission unit used throughout the reproduction, in bytes.
///
/// The paper expresses RPC sizes and the multiplicative-decrease constant in
/// MTUs; 4096 B gives exact picosecond serialization at 100 Gbps and makes a
/// 32 KB RPC exactly 8 MTUs.
pub const MTU_BYTES: u64 = 4096;

/// Number of MTUs an RPC of `bytes` occupies (minimum 1), as used for the
/// paper's normalized-latency SLO and size-scaled multiplicative decrease.
pub fn size_in_mtus(bytes: u64) -> u64 {
    bytes.div_ceil(MTU_BYTES).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtu_math() {
        assert_eq!(size_in_mtus(1), 1);
        assert_eq!(size_in_mtus(4096), 1);
        assert_eq!(size_in_mtus(4097), 2);
        assert_eq!(size_in_mtus(32_768), 8);
        assert_eq!(size_in_mtus(0), 1);
    }
}
