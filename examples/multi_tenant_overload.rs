//! The race to the top, and why Aequitas removes the incentive.
//!
//! Ten tenants share a cluster. Honest tenants mark only their real
//! performance-critical RPCs as PC; greedy tenants mark *everything* PC
//! (the pre-Aequitas production pathology of §2.3). Without admission
//! control, greed pays: the greedy tenants' bulk traffic rides QoSh and
//! honest PC traffic suffers. With Aequitas, over-marking just gets the
//! excess downgraded — honest tenants' admitted PC RPCs keep their SLO, so
//! marking everything high no longer buys anything.
//!
//! Run with: `cargo run --release --example multi_tenant_overload`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use aequitas_experiments::harness::{run_macro, MacroSetup, PolicyChoice};
use aequitas_experiments::slo::slo_config_33;
use aequitas_netsim::HostId;
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_stats::Percentiles;
use aequitas_workloads::{QosClass, SizeDist};

const N: usize = 11; // 10 tenants + 1 shared storage frontend

fn tenant_workload(greedy: bool) -> WorkloadSpec {
    // Every tenant's true mix: 20% PC, 80% bulk. A greedy tenant marks the
    // bulk as PC too.
    let bulk_priority = if greedy {
        Priority::PerformanceCritical
    } else {
        Priority::BestEffort
    };
    WorkloadSpec {
        arrival: ArrivalProcess::Poisson { load: 0.12 },
        pattern: TrafficPattern::ManyToOne { dst: N - 1 },
        classes: vec![
            PrioritySpec {
                priority: Priority::PerformanceCritical,
                byte_share: 0.2,
                sizes: SizeDist::Fixed(8_192),
            },
            PrioritySpec {
                priority: bulk_priority,
                byte_share: 0.8,
                sizes: SizeDist::Fixed(262_144),
            },
        ],
        stop: None,
    }
}

/// Returns the honest tenants' p99.9 RNL (µs) for small PC RPCs.
fn run(policy: PolicyChoice, seed: u64) -> (f64, f64) {
    let mut setup = MacroSetup::star_3qos(N);
    setup.policy = policy;
    setup.duration = SimDuration::from_ms(40);
    setup.warmup = SimDuration::from_ms(10);
    setup.seed = seed;
    for t in 0..N - 1 {
        // Tenants 0-4 honest, 5-9 greedy.
        setup.workloads[t] = Some(tenant_workload(t >= 5));
    }
    let result = run_macro(setup);
    let mut honest_pc = Percentiles::new();
    let mut greedy_bulk = Percentiles::new();
    for c in &result.completions {
        let tenant = c.src;
        if tenant < HostId(5) && c.size_bytes == 8_192 && c.qos_run == QosClass::HIGH {
            honest_pc.record(c.rnl().as_us_f64());
        }
        if tenant >= HostId(5) && c.size_bytes == 262_144 {
            greedy_bulk.record(c.rnl().as_us_f64());
        }
    }
    (
        honest_pc.p999().unwrap_or(f64::NAN),
        greedy_bulk.p999().unwrap_or(f64::NAN),
    )
}

fn main() {
    println!("five honest tenants vs five tenants marking ALL traffic PC\n");
    let (honest_static, bulk_static) = run(PolicyChoice::Static, 21);
    let (honest_aq, bulk_aq) = run(PolicyChoice::Aequitas(slo_config_33()), 22);

    println!("                         w/o Aequitas   w/ Aequitas");
    println!("honest PC p99.9 RNL:    {honest_static:>10.1}us {honest_aq:>12.1}us");
    println!("greedy bulk p99.9 RNL:  {bulk_static:>10.1}us {bulk_aq:>12.1}us");
    println!(
        "\nWithout admission control the greedy tenants' quarter-megabyte bulk\n\
         transfers ride QoSh and inflate everyone's tail. With Aequitas the\n\
         over-marked bulk is downgraded on SLO misses, and honest PC traffic\n\
         keeps its latency."
    );
    assert!(
        honest_aq < honest_static,
        "Aequitas should improve honest tenants' PC tail"
    );
}
