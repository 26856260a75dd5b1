//! A disaggregated-storage cluster under overload — the workload the
//! paper's introduction motivates (75% of datacenter RPC bytes are storage).
//!
//! Twenty hosts exchange storage RPCs with production-like sizes: small
//! performance-critical metadata reads and random accesses, medium
//! non-critical sequential I/O, and bulk best-effort backups. Demand bursts
//! beyond capacity; the example contrasts per-class tails with and without
//! Aequitas.
//!
//! Run with: `cargo run --release --example storage_cluster`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use aequitas_experiments::harness::{run_macro, MacroSetup, PolicyChoice};
use aequitas_experiments::large::production_slo_config;
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_stats::Percentiles;
use aequitas_workloads::{QosClass, SizeDist};

fn storage_workload() -> WorkloadSpec {
    WorkloadSpec {
        arrival: ArrivalProcess::BurstOnOff {
            mu: 0.8,
            rho: 2.0,
            period: SimDuration::from_us(200),
        },
        pattern: TrafficPattern::AllToAll,
        classes: vec![
            PrioritySpec {
                priority: Priority::PerformanceCritical,
                byte_share: 0.4,
                sizes: SizeDist::production_like(Priority::PerformanceCritical),
            },
            PrioritySpec {
                priority: Priority::NonCritical,
                byte_share: 0.35,
                sizes: SizeDist::production_like(Priority::NonCritical),
            },
            PrioritySpec {
                priority: Priority::BestEffort,
                byte_share: 0.25,
                sizes: SizeDist::production_like(Priority::BestEffort),
            },
        ],
        stop: None,
    }
}

fn run(policy: PolicyChoice, seed: u64) -> [Percentiles; 3] {
    let n = 20;
    let mut setup = MacroSetup::star_3qos(n);
    setup.policy = policy;
    setup.duration = SimDuration::from_ms(30);
    setup.warmup = SimDuration::from_ms(8);
    setup.seed = seed;
    for h in 0..n {
        setup.workloads[h] = Some(storage_workload());
    }
    let result = run_macro(setup);
    let mut per_qos = [
        Percentiles::new(),
        Percentiles::new(),
        Percentiles::new(),
    ];
    for c in &result.completions {
        // Normalized latency (per MTU) since sizes span decades.
        per_qos[c.qos_run.index().min(2)].record(c.rnl_per_mtu().as_us_f64());
    }
    per_qos
}

fn main() {
    println!("running storage cluster without admission control...");
    let mut without = run(PolicyChoice::Static, 7);
    println!("running storage cluster with Aequitas...");
    let mut with = run(PolicyChoice::Aequitas(production_slo_config()), 8);

    println!(
        "\n{:<8} {:>16} {:>16}",
        "class", "w/o p99.9(us/MTU)", "w/ p99.9(us/MTU)"
    );
    for (q, label) in ["QoSh", "QoSm", "QoSl"].iter().enumerate() {
        println!(
            "{:<8} {:>16.1} {:>16.1}",
            label,
            without[q].p999().unwrap_or(0.0),
            with[q].p999().unwrap_or(0.0),
        );
    }
    let improvement =
        without[QosClass::HIGH.index()].p999().unwrap() / with[QosClass::HIGH.index()].p999().unwrap();
    println!("\nQoSh tail improvement: {improvement:.1}x");
    assert!(improvement > 1.0);
}
