//! Quickstart: a 3-node cluster with Aequitas admission control.
//!
//! Two clients blast 32 KB WRITE RPCs at one server — 70% of the bytes
//! marked performance-critical, far beyond what a 15 µs tail SLO can admit.
//! Aequitas downgrades the excess so that what *is* admitted on QoSh meets
//! the SLO.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use aequitas::{AequitasConfig, SloTarget};
use aequitas_experiments::harness::{run_macro, MacroSetup, PolicyChoice};
use aequitas_netsim::EngineConfig;
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_stats::Percentiles;
use aequitas_workloads::{QosClass, QosMapping, SizeDist};

fn main() {
    // 1. Describe the SLO: 15 us at the 99.9th percentile for 32 KB (8 MTU)
    //    RPCs on QoSh. QoSl is the scavenger class.
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let config = AequitasConfig::two_qos(slo);

    // 2. Describe the cluster and the workload.
    let mut setup = MacroSetup::star_3qos(3);
    setup.engine = EngineConfig::default_2qos(); // WFQ 4:1 fabric
    setup.mapping = QosMapping::two_level();
    setup.policy = PolicyChoice::Aequitas(config);
    setup.duration = SimDuration::from_ms(40);
    setup.warmup = SimDuration::from_ms(10);
    for client in 0..2 {
        setup.workloads[client] = Some(WorkloadSpec {
            arrival: ArrivalProcess::Uniform { load: 1.0 }, // line rate
            pattern: TrafficPattern::ManyToOne { dst: 2 },
            classes: vec![
                PrioritySpec {
                    priority: Priority::PerformanceCritical,
                    byte_share: 0.7,
                    sizes: SizeDist::Fixed(32_768),
                },
                PrioritySpec {
                    priority: Priority::BestEffort,
                    byte_share: 0.3,
                    sizes: SizeDist::Fixed(32_768),
                },
            ],
            stop: None,
        });
    }

    // 3. Run and report.
    let result = run_macro(setup);
    let mut admitted = Percentiles::new();
    let mut downgraded = 0usize;
    let mut admitted_bytes = 0u64;
    let mut total_bytes = 0u64;
    for c in &result.completions {
        total_bytes += c.size_bytes;
        if c.qos_run == QosClass::HIGH {
            admitted.record(c.rnl().as_us_f64());
            admitted_bytes += c.size_bytes;
        }
        if c.downgraded {
            downgraded += 1;
        }
    }
    println!("completed RPCs:        {}", result.completions.len());
    println!("downgraded to QoSl:    {downgraded}");
    println!(
        "admitted QoSh share:   {:.1}% of bytes",
        100.0 * admitted_bytes as f64 / total_bytes as f64
    );
    println!(
        "QoSh RNL p50/p99/p99.9: {:.1} / {:.1} / {:.1} us  (SLO 15 us)",
        admitted.p50().unwrap_or(0.0),
        admitted.p99().unwrap_or(0.0),
        admitted.p999().unwrap_or(0.0),
    );
    assert!(
        admitted.p999().unwrap_or(f64::MAX) < 25.0,
        "admitted tail should be near the SLO"
    );
}
