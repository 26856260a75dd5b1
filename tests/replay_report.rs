//! The replay report of one fixed traced run, pinned byte for byte.
//!
//! A small faulted star slice is traced to a file, reconstructed, audited,
//! and rendered through `report_text` and `report_json`. The stream carries
//! packet, tail-drop, fault, `admit_prob`, `cwnd_update` and retransmit
//! lines, so every reader path that feeds the report runs. The goldens in
//! `tests/fixtures/replay_report.{txt,json}` were written by an earlier
//! reader; a reader change that moves a single reconstructed number shows
//! here. On a mismatch the test writes what it got next to the trace and
//! names the file.

use aequitas::{AequitasConfig, SloTarget};
use aequitas_experiments::harness::{MacroSetup, PolicyChoice, RunCtx};
use aequitas_netsim::faults::FaultPlan;
use aequitas_netsim::EngineConfig;
use aequitas_replay::audit::audit;
use aequitas_replay::report::{report_json, report_text};
use aequitas_replay::{AuditOptions, Reconstruction};
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_telemetry::{Telemetry, TelemetryConfig};
use aequitas_workloads::{QosMapping, SizeDist};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GOLDEN_TEXT: &str = include_str!("fixtures/replay_report.txt");
const GOLDEN_JSON: &str = include_str!("fixtures/replay_report.json");

/// One flap of host 0's uplink and light loss everywhere, inside the run.
const PLAN: &str = r#"
seed = 7

[[link_flap]]
link = "host:0"
first_down_us = 1500.0
down_us = 150.0
period_us = 1000000.0
count = 1

[[loss]]
link = "any"
prob = 0.002
"#;

/// Two hosts overload a third under Aequitas (the trace-demo shape) with a
/// shallow switch buffer, so tail drops occur too.
fn traced_slice(path: &Path) {
    let plan = FaultPlan::from_toml_str(PLAN).unwrap().validated().unwrap();
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let mut setup = MacroSetup::star_3qos(3);
    setup.engine = EngineConfig::default_2qos();
    setup.engine.switch_buffer_bytes = Some(96 * 1024);
    setup.engine.faults = Some(Arc::new(plan));
    setup.mapping = QosMapping::two_level();
    setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(slo));
    setup.name = "replay-report-golden";
    setup.duration = SimDuration::from_ms(3);
    setup.warmup = SimDuration::from_ms(1);
    setup.seed = 2022;
    for h in 0..2 {
        setup.workloads[h] = Some(WorkloadSpec {
            arrival: ArrivalProcess::Uniform { load: 0.8 },
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
    setup.telemetry = Telemetry::to_file(path, TelemetryConfig::default()).unwrap();
    let telemetry = setup.telemetry.clone();
    RunCtx::quick().run_macro(setup);
    telemetry.flush();
}

fn assert_golden(got: &str, want: &str, dir: &Path, name: &str) {
    if got != want {
        let out = dir.join(name);
        std::fs::write(&out, got).unwrap();
        panic!(
            "report differs from tests/fixtures/{name}; got {}",
            out.display()
        );
    }
}

#[test]
fn replay_report_of_a_faulted_slice_matches_the_golden() {
    let dir: PathBuf = std::env::temp_dir().join("aequitas-replay-report-golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("slice.jsonl");
    traced_slice(&path);

    let mut recon = Reconstruction::from_file(&path).unwrap();
    for kind in [
        "pkt_enqueue",
        "pkt_dequeue",
        "pkt_drop",
        "fault_link_down",
        "fault_link_up",
        "fault_pkt_drop",
        "admit_prob",
        "cwnd_update",
        "retransmit",
        "rpc_issue",
        "rpc_complete",
    ] {
        assert!(
            recon.kind_counts.get(kind).is_some_and(|&n| n > 0),
            "no {kind} lines"
        );
    }
    let report = audit(&mut recon, &AuditOptions::default());
    let text = report_text(&mut recon, &report);
    let json = report_json(&mut recon, &report);
    assert_golden(&text, GOLDEN_TEXT, &dir, "replay_report.txt");
    assert_golden(&json, GOLDEN_JSON, &dir, "replay_report.json");
}
