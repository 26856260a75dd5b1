//! Fleet-scale experiment: a multi-thousand-host three-tier Clos fabric
//! driven through the sharded parallel engine.
//!
//! This is not a paper figure — it is the scalability demonstration for
//! the PR-6 engine work: `Topology::clos` + [`aequitas_netsim::ShardSpec`]
//! partition the fabric per pod (plus a core-tier domain) and
//! [`crate::harness::run_macro_sharded`] advances the domains concurrently
//! under conservative lookahead. Results are byte-identical for every
//! thread count (gated by `tests/sharded_determinism.rs`); `--threads`
//! only changes wall-clock time.
//!
//! Quick scale runs a 32-host miniature (2 pods) for CI; full scale
//! (`--full`) runs 2048 hosts (8 pods × 4 leaves × 64 hosts) with >10M
//! RPCs issued.

use crate::harness::{MacroSetup, PolicyChoice, RunCtx, Scale};
use crate::report::print_table;
use crate::slo::{admitted_mix, p999_rnl_per_qos};
use aequitas_netsim::{LinkSpec, ShardSpec, Topology};
use aequitas_rpc::{ArrivalProcess, Priority, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{BitRate, SimDuration};
use aequitas_workloads::SizeDist;

/// Result of the fleet-scale run.
pub struct FleetResult {
    /// Fabric size.
    pub hosts: usize,
    /// Pods (also: worker domains minus the core tier).
    pub pods: usize,
    /// Shard domains (pods + 1 core-tier domain).
    pub domains: usize,
    /// Worker threads used.
    pub threads: usize,
    /// RPCs issued across the fleet (including warm-up).
    pub issued: u64,
    /// Completions after warm-up.
    pub completed: usize,
    /// Events processed by the engine.
    pub events: u64,
    /// Per-QoS 99.9p RNL (µs) of post-warm-up completions.
    pub p999_us: [Option<f64>; 3],
    /// Admitted QoS mix (fractions of post-warm-up bytes).
    pub admitted: [f64; 3],
}

fn fleet_workload(load: f64) -> WorkloadSpec {
    WorkloadSpec::mix(
        ArrivalProcess::Poisson { load },
        TrafficPattern::AllToAll,
        Priority::ALL.into_iter().zip([0.6, 0.3, 0.1]),
        |_| SizeDist::Fixed(8_192),
    )
}

/// Fleet-scale shape. Quick: 2 pods × (2 spines, 2 leaves × 8 hosts),
/// 2 cores = 32 hosts. Full: 8 pods × (4 spines, 4 leaves × 64 hosts),
/// 8 cores = 2048 hosts.
fn shape(scale: Scale) -> (usize, usize, usize, usize, usize) {
    if scale.full {
        (8, 4, 4, 64, 8)
    } else {
        (2, 2, 2, 8, 2)
    }
}

/// Run the fleet-scale experiment on `ctx.threads` workers. Apart from
/// echoing that count, the result must not depend on it —
/// `tests/sharded_determinism.rs` runs the sharded engine at 1 vs 4 workers
/// (with and without a chaos fault plan) and asserts identical output.
pub fn fleet(ctx: &RunCtx) -> FleetResult {
    let scale = ctx.scale;
    let (pods, spines, leaves, hosts_per_leaf, cores) = shape(scale);
    // Core links span rows of the datacenter: 2 µs of wire, which is also
    // the conservative lookahead of the pod partition (wider windows =>
    // fewer synchronization barriers).
    let core = LinkSpec {
        rate: BitRate::from_gbps(100),
        propagation: SimDuration::from_us(2),
    };
    let topo = Topology::clos(
        pods,
        spines,
        leaves,
        hosts_per_leaf,
        cores,
        LinkSpec::default_100g(),
        LinkSpec::default_100g(),
        core,
    );
    let spec = ShardSpec::clos_pods(&topo, pods, spines, leaves);
    let n = topo.num_hosts();

    // Full scale: 2048 hosts × 10 Gbps offered (load 0.1) / 8 KB RPCs
    // ≈ 312 M RPC/s fleet-wide; 40 ms of simulated time issues ~12.5 M.
    // Cross-pod demand at load 0.1 stays inside the 4-spine pod uplink
    // capacity, so the run is busy but not collapsed.
    let load = scale.pick(0.2, 0.1);
    let times = scale.pick(
        [SimDuration::from_ms(2), SimDuration::from_us(500)],
        [SimDuration::from_ms(40), SimDuration::from_ms(10)],
    );
    let policy = PolicyChoice::Aequitas(crate::large::production_slo_config());
    let setup = MacroSetup {
        topo,
        ..MacroSetup::all_senders(n, policy, 6001, times, |_| fleet_workload(load))
    };

    let domains = spec.num_domains;
    let r = ctx.run_macro_sharded(setup, spec);
    let adm = admitted_mix(&r.completions, 3);
    FleetResult {
        hosts: n,
        pods,
        domains,
        threads: ctx.threads,
        issued: r.issued,
        completed: r.completions.len(),
        events: r.events,
        p999_us: p999_rnl_per_qos(&r.completions),
        admitted: adm.try_into().unwrap_or([0.0; 3]),
    }
}

/// Print the fleet-scale result.
pub fn print_fleet(r: &FleetResult) {
    let rows: Vec<Vec<String>> = ["QoSh", "QoSm", "QoSl"]
        .into_iter()
        .zip(r.p999_us)
        .map(|(qos, p)| vec![qos.to_string(), crate::report::opt(p, 1)])
        .collect();
    print_table(
        "Fleet-scale: 3-tier Clos on the sharded engine (99.9p RNL us)",
        &["QoS", "99.9p RNL (us)"],
        &rows,
    );
    println!(
        "{} hosts / {} pods ({} domains) on {} thread(s): {} RPCs issued, \
         {} completed post-warmup, {} events; admitted mix \
         {:.1}/{:.1}/{:.1}%",
        r.hosts,
        r.pods,
        r.domains,
        r.threads,
        r.issued,
        r.completed,
        r.events,
        r.admitted[0] * 100.0,
        r.admitted[1] * 100.0,
        r.admitted[2] * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_quick_runs_and_admits_traffic() {
        let r = fleet(&RunCtx {
            threads: 2,
            ..RunCtx::quick()
        });
        assert_eq!(r.hosts, 32);
        assert_eq!(r.domains, 3);
        assert!(r.issued > 1_000, "issued {}", r.issued);
        assert!(r.completed > 500, "completed {}", r.completed);
        assert!(r.events > 10_000);
        // All three classes carry traffic and the mix is a distribution.
        let sum: f64 = r.admitted.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "admitted mix {:?}", r.admitted);
        assert!(r.admitted[0] > 0.3, "QoSh share {:?}", r.admitted);
        assert!(r.p999_us[0].is_some());
    }
}
