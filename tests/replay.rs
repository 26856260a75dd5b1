//! End-to-end validation of `aequitas-replay`: a traced run must replay
//! into state that matches what the engine measured, audit PASS against
//! the paper's bounds, flip to FAIL when the trace is corrupted, replay
//! deterministically, and reject unknown schema versions.

use aequitas::{AequitasConfig, SloTarget};
use aequitas_experiments::harness::{run_macro, MacroSetup, PolicyChoice, RunCtx};
use aequitas_experiments::theory;
use aequitas_netsim::EngineConfig;
use aequitas_replay::audit::audit;
use aequitas_replay::report::report_json;
use aequitas_replay::{audit_file, AuditOptions, CheckStatus, Reconstruction};
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_stats::Percentiles;
use aequitas_telemetry::{Telemetry, TelemetryConfig};
use aequitas_workloads::{QosMapping, SizeDist};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aequitas-replay-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a fig-10 validation point (fig-8 parameters, x = 0.7) as a trace.
fn traced_fig10(path: &std::path::Path) -> theory::ValidationPoint {
    let tel = Telemetry::to_file(path, TelemetryConfig::default()).unwrap();
    let ctx = RunCtx {
        telemetry: tel,
        ..RunCtx::quick()
    };
    let point = theory::fig10_point(0.7, &ctx);
    ctx.telemetry.flush();
    point
}

/// The acceptance check for the audit layer: a fresh fig-8-parameter run
/// must come back verdict PASS with the measured worst-case delays inside
/// the Eq. 1/Eq. 8 bounds, and corrupting a single dequeue timestamp in
/// the trace must flip the verdict to FAIL.
#[test]
fn fig10_audit_passes_and_corruption_flips_verdict() {
    let dir = tmpdir("audit");
    let path = dir.join("fig10.jsonl");
    traced_fig10(&path);

    let (_, report) = audit_file(&path, &AuditOptions::default()).unwrap();
    assert_eq!(report.verdict, CheckStatus::Pass, "{:#?}", report.checks);
    for name in ["bound_delay_h", "bound_delay_l"] {
        let c = report.checks.iter().find(|c| c.name == name).unwrap();
        assert_eq!(c.status, CheckStatus::Pass, "{c:?}");
        assert!(
            c.measured.unwrap() <= c.limit.unwrap(),
            "measured {:?} over limit {:?}",
            c.measured,
            c.limit
        );
    }

    // Corrupt one delay: push the last pkt_dequeue 5 burst periods (500 us)
    // into the future. The replayed worst-case delay must now blow the
    // bound and fail the audit.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let victim = lines
        .iter()
        .rposition(|l| l.contains("\"type\":\"pkt_dequeue\""))
        .expect("trace has dequeues");
    let line = &lines[victim];
    let (pre, rest) = line.split_once("\"t_ps\":").unwrap();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    let t: u64 = digits.parse().unwrap();
    lines[victim] = format!("{pre}\"t_ps\":{}{}", t + 500_000_000, &rest[digits.len()..]);
    let corrupt = dir.join("fig10-corrupt.jsonl");
    std::fs::write(&corrupt, lines.join("\n") + "\n").unwrap();

    let (_, report) = audit_file(&corrupt, &AuditOptions::default()).unwrap();
    assert_eq!(report.verdict, CheckStatus::Fail, "{:#?}", report.checks);
    assert!(
        report
            .checks
            .iter()
            .any(|c| c.name.starts_with("bound_delay") && c.status == CheckStatus::Fail),
        "corruption must surface as a delay-bound failure: {:#?}",
        report.checks
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Round-trip: the per-class worst-case queuing delay replayed from packet
/// events at the bottleneck port must agree with what the fig-10 receiver
/// measured in-engine (the replayed figure is switch-side, the receiver's
/// includes host serialization — a fraction of a percent of the period).
#[test]
fn replayed_queue_delays_match_engine_measurement() {
    let dir = tmpdir("roundtrip");
    let path = dir.join("fig10.jsonl");
    let point = traced_fig10(&path);

    let mut recon = Reconstruction::from_file(&path).unwrap();
    assert_eq!(recon.epochs, 1);
    let key = recon.bottleneck_port().cloned().expect("packet events");
    let port = &recon.ports[&key];
    let period = 100f64 * 1e6; // 100 us in ps
    for class in 0..2u64 {
        let replayed = port.classes[&class].max_delay_ps as f64 / period;
        let engine = point.sim[class as usize];
        assert!(
            (replayed - engine).abs() < 0.03,
            "class {class}: replayed {replayed:.4} vs engine {engine:.4} periods"
        );
    }
    // And the audit agrees with the fig-10 theory columns it was built on.
    let report = audit(&mut recon, &AuditOptions::default());
    assert_eq!(report.verdict, CheckStatus::Pass, "{:#?}", report.checks);

    let _ = std::fs::remove_dir_all(&dir);
}

/// An overloaded Aequitas run whose RPC layer emits completions on both
/// QoS levels (mirrors tests/telemetry.rs).
fn traced_rpc_setup(tel: Telemetry) -> MacroSetup {
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let mut setup = MacroSetup::star_3qos(3);
    setup.name = "replay-roundtrip";
    setup.engine = EngineConfig::default_2qos();
    setup.mapping = QosMapping::two_level();
    setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(slo));
    setup.duration = SimDuration::from_ms(4);
    setup.warmup = SimDuration::from_ms(1);
    setup.telemetry = tel;
    for h in 0..2 {
        setup.workloads[h] = Some(WorkloadSpec {
            arrival: ArrivalProcess::Uniform { load: 1.0 },
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
    setup
}

/// Round-trip: per-QoS RNL percentiles reconstructed from `rpc_complete`
/// events must match the engine's own completion records (same warmup
/// filter, same sketch) — and the run's `run_info` must carry the setup.
#[test]
fn replayed_rnl_percentiles_match_completions() {
    let dir = tmpdir("rnl");
    let path = dir.join("run.jsonl");
    let tel = Telemetry::to_file(&path, TelemetryConfig::default()).unwrap();
    let result = run_macro(traced_rpc_setup(tel.clone()));
    tel.flush();
    assert!(
        result.completions.len() > 100,
        "{}",
        result.completions.len()
    );

    let mut recon = Reconstruction::from_file(&path).unwrap();
    let info = recon.run_info.clone().expect("run_info in trace");
    assert_eq!(info.experiment, "replay-roundtrip");
    assert_eq!(info.hosts, 3);
    assert_eq!(info.senders, 2);
    assert!((info.mu - 2.0).abs() < 1e-9, "aggregate load {}", info.mu);

    // Engine-side per-QoS sketches over the same post-warmup completions.
    let mut engine: std::collections::BTreeMap<u64, Percentiles> = Default::default();
    for c in &result.completions {
        engine
            .entry(c.qos_run.0 as u64)
            .or_default()
            .record(c.rnl_per_mtu().as_ps() as f64);
    }
    for (qos, mine) in engine.iter_mut() {
        let theirs = recon.qos.get_mut(qos).unwrap_or_else(|| {
            panic!("replay lost QoS {qos}");
        });
        assert_eq!(
            theirs.rnl_per_mtu_ps.count(),
            mine.count(),
            "QoS {qos} completion count"
        );
        for pct in [50.0, 99.0, 99.9] {
            let a = theirs.rnl_per_mtu_ps.percentile(pct).unwrap();
            let b = mine.percentile(pct).unwrap();
            assert!(
                (a - b).abs() <= 1e-6 * b.max(1.0),
                "QoS {qos} p{pct}: replay {a} vs engine {b}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaying the same trace twice must produce byte-identical JSON reports.
#[test]
fn replay_is_deterministic() {
    let dir = tmpdir("determinism");
    let path = dir.join("fig10.jsonl");
    traced_fig10(&path);

    let render = || {
        let mut recon = Reconstruction::from_file(&path).unwrap();
        let report = audit(&mut recon, &AuditOptions::default());
        report_json(&mut recon, &report)
    };
    let a = render();
    let b = render();
    assert!(a.len() > 500, "thin report: {a}");
    assert_eq!(a, b, "replay reports diverged across runs");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay must refuse trace schema versions it does not understand, with
/// an error naming the version, instead of silently misparsing.
#[test]
fn unknown_schema_version_is_rejected() {
    let dir = tmpdir("schema");
    let path = dir.join("future.jsonl");
    std::fs::write(
        &path,
        "{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\
         \"schema_version\":99}\n",
    )
    .unwrap();
    let err = Reconstruction::from_file(&path).unwrap_err();
    assert!(
        err.contains("schema") && err.contains("99"),
        "unhelpful error: {err}"
    );

    // And a pre-header (v1) stream is named as such.
    let v1 = dir.join("v1.jsonl");
    std::fs::write(&v1, "{\"seq\":0,\"t_ps\":0,\"type\":\"rpc_issue\"}\n").unwrap();
    let err = Reconstruction::from_file(&v1).unwrap_err();
    assert!(err.contains("pre-v2"), "unhelpful error: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}
