//! End-to-end telemetry validation: a real overloaded run with tracing
//! enabled must produce a parseable, monotonically timestamped JSONL stream
//! covering packet, RPC, transport, and admission-controller lifecycle
//! events, plus a sampled metrics CSV.

use aequitas::{AequitasConfig, SloTarget};
use aequitas_experiments::harness::{run_macro, MacroSetup, PolicyChoice};
use aequitas_netsim::EngineConfig;
use aequitas_replay::trace::parse_line;
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_telemetry::{MemorySink, Telemetry, TelemetryConfig};
use aequitas_workloads::{QosMapping, SizeDist};
use std::collections::BTreeSet;

/// An overloaded Aequitas run: enough pressure that every event family
/// (enqueue/dequeue/drop, issue/complete/downgrade, cwnd, admit-prob
/// updates) actually fires.
fn traced_setup(tel: Telemetry) -> MacroSetup {
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let mut setup = MacroSetup::star_3qos(3);
    setup.engine = EngineConfig::default_2qos();
    setup.mapping = QosMapping::two_level();
    setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(slo));
    setup.duration = SimDuration::from_ms(6);
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

#[test]
fn traced_run_emits_valid_monotone_jsonl_and_metrics() {
    let recorder = MemorySink::default();
    let tel = Telemetry::with_sink(
        recorder.clone(),
        TelemetryConfig {
            sample_every: SimDuration::from_us(100),
        },
    );
    let result = run_macro(traced_setup(tel.clone()));
    assert!(
        result.completions.len() > 100,
        "{}",
        result.completions.len()
    );

    let text = recorder.take();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1000, "only {} trace lines", lines.len());

    let mut last_seq: Option<u64> = None;
    let mut last_t: u64 = 0;
    let mut types = BTreeSet::new();
    for line in &lines {
        // The replay reader — independent of the emitter — accepts a line
        // only if it leads with `seq`, `t_ps`, `type`, in that order.
        let ev = parse_line(line).unwrap_or_else(|e| panic!("bad trace line ({e}): {line}"));
        if let Some(prev) = last_seq {
            assert_eq!(ev.seq, prev + 1, "seq gap at {line}");
        }
        last_seq = Some(ev.seq);
        assert!(
            ev.t_ps >= last_t,
            "timestamps went backwards: {} < {last_t} at {line}",
            ev.t_ps
        );
        last_t = ev.t_ps;
        types.insert(ev.tag.into_owned());
    }
    // Packet, RPC, transport, and controller families are all present.
    for required in [
        "pkt_enqueue",
        "pkt_dequeue",
        "rpc_issue",
        "rpc_complete",
        "cwnd_update",
        "admit_prob",
    ] {
        assert!(types.contains(required), "missing {required}: {types:?}");
    }

    // The sampled metrics export: header + plenty of rows, exactly 4 CSV
    // fields each (multi-pair labels embed commas, so the labels field is
    // quoted), and the counters the run must have bumped are present.
    let split_csv = |row: &str| -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        for ch in row.chars() {
            match ch {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => out.push(std::mem::take(&mut cur)),
                _ => cur.push(ch),
            }
        }
        assert!(!in_quotes, "unbalanced quotes in {row}");
        out.push(cur);
        out
    };
    let mut csv = Vec::new();
    tel.write_metrics_csv(&mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let mut rows = csv.lines();
    assert_eq!(rows.next(), Some("t_us,metric,labels,value"));
    let mut metrics_seen = BTreeSet::new();
    let mut nrows = 0;
    for row in rows {
        let cols = split_csv(row);
        assert_eq!(cols.len(), 4, "row is not 4 fields: {row}");
        cols[0]
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad t_us in {row}"));
        cols[3]
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value in {row}"));
        metrics_seen.insert(cols[1].to_string());
        nrows += 1;
    }
    assert!(nrows > 100, "only {nrows} metric samples");
    for required in [
        "rpc.issued",
        "rpc.completed",
        "rpc.rnl_per_mtu_ns.p99",
        "engine.events_processed",
        "switch.port.backlog_bytes",
    ] {
        assert!(
            metrics_seen.contains(required),
            "missing metric {required}: {metrics_seen:?}"
        );
    }
}

/// The interned-handle fast path (MetricId tables in the engine, RPC stack,
/// and transport; scratch-buffer trace serialization) must not perturb
/// output: two identical traced runs produce byte-identical JSONL streams
/// and metrics CSVs. Registration order, label strings, and sampling
/// cadence all feed the exported bytes, so any divergence from the
/// string-keyed semantics shows up here.
#[test]
fn traced_run_output_is_byte_identical_across_runs() {
    let run_once = || {
        let recorder = MemorySink::default();
        let tel = Telemetry::with_sink(
            recorder.clone(),
            TelemetryConfig {
                sample_every: SimDuration::from_us(100),
            },
        );
        let mut setup = traced_setup(tel.clone());
        setup.duration = SimDuration::from_ms(2);
        run_macro(setup);
        let mut csv = Vec::new();
        tel.write_metrics_csv(&mut csv).unwrap();
        (recorder.take(), String::from_utf8(csv).unwrap())
    };
    let (trace_a, csv_a) = run_once();
    let (trace_b, csv_b) = run_once();
    let lines = trace_a.lines().count();
    assert!(lines > 100, "only {lines} trace lines");
    assert_eq!(trace_a, trace_b, "trace streams diverged");
    assert!(csv_a.lines().count() > 50, "thin CSV: {}", csv_a.len());
    assert_eq!(csv_a, csv_b, "metrics CSVs diverged");
}

#[test]
fn jsonl_writer_produces_a_readable_file() {
    let dir = std::env::temp_dir().join("aequitas-telemetry-test");
    let path = dir.join("trace.jsonl");
    let tel = Telemetry::to_file(&path, TelemetryConfig::default()).unwrap();
    let mut setup = traced_setup(tel.clone());
    setup.duration = SimDuration::from_ms(2);
    run_macro(setup);
    tel.flush();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut n = 0;
    for line in text.lines() {
        assert!(parse_line(line).is_ok(), "bad trace line: {line}");
        n += 1;
    }
    assert!(n > 100, "only {n} lines in {}", path.display());
    let _ = std::fs::remove_dir_all(&dir);
}
