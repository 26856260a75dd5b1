//! The baseline hosts' workload stream.

use aequitas_sim_core::{BitRate, SimTime};
use aequitas_workloads::{
    ArrivalProcess, NextRpc, Priority, PrioritySpec, RpcStream, SizeDist, TrafficPattern,
    WorkloadSpec,
};

/// A baseline host's offered RPCs: an [`RpcStream`], the one the Aequitas
/// hosts draw from too. [`WorkloadGen::new`] builds it from loose parts
/// under its own seed salt; `WorkloadGen(stream)` wraps a stream built
/// elsewhere, such as the one an Aequitas host of the same spec and seed
/// would draw.
pub struct WorkloadGen(pub RpcStream);

impl WorkloadGen {
    /// The stream of one `(priority, byte_share, sizes)` class per entry of
    /// `classes`, drawn from `seed ^ 0xB05E_11AE`.
    #[allow(
        clippy::too_many_arguments,
        reason = "plain config-carrier constructor"
    )]
    pub fn new(
        arrival: ArrivalProcess,
        pattern: TrafficPattern,
        classes: Vec<(Priority, f64, SizeDist)>,
        src: usize,
        n_hosts: usize,
        line_rate: BitRate,
        stop: Option<SimTime>,
        seed: u64,
    ) -> Self {
        let classes = classes
            .into_iter()
            .map(|(priority, byte_share, sizes)| PrioritySpec {
                priority,
                byte_share,
                sizes,
            })
            .collect();
        let spec = WorkloadSpec {
            arrival,
            pattern,
            classes,
            stop,
        };
        WorkloadGen(RpcStream::new(
            spec,
            src,
            n_hosts,
            line_rate,
            seed ^ 0xB05E_11AE,
        ))
    }

    /// Draw the next RPC, or `None` once past the stop time.
    pub fn next_rpc(&mut self) -> Option<NextRpc> {
        self.0.next_rpc()
    }
}
