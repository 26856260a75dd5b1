//! `aequitas-replay` — replay, audit, and compare Aequitas telemetry.
//!
//! ```text
//! aequitas-replay replay  --trace t.jsonl [--metrics m.csv] [--json out.json]
//! aequitas-replay audit   --trace t.jsonl [--json out.json]
//!                         [--phi X --mu X --rho X --period-us N]
//!                         [--bound-tol X] [--slo-tol X] [--region-tol X]
//! aequitas-replay analyze --input results/ --out analysis/ [--baseline NAME]
//! aequitas-replay schema
//! ```
//!
//! Exit codes: 0 = success (audit verdict PASS), 1 = audit verdict FAIL,
//! 2 = usage, I/O, or schema error.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a CLI reports on stdout/stderr")]

use aequitas_replay::audit::{audit, AuditOptions, CheckStatus};
use aequitas_replay::compare::analyze;
use aequitas_replay::metrics::MetricsCsv;
use aequitas_replay::reconstruct::Reconstruction;
use aequitas_replay::report::{report_json, report_text};
use std::path::PathBuf;

const USAGE: &str = "usage:
  aequitas-replay replay  --trace T.jsonl [--metrics M.csv] [--json OUT.json]
  aequitas-replay audit   --trace T.jsonl [--metrics M.csv] [--json OUT.json]
                          [--phi X] [--mu X] [--rho X] [--period-us N]
                          [--bound-tol X] [--slo-tol X] [--region-tol X]
  aequitas-replay analyze --input DIR --out DIR [--baseline NAME]
  aequitas-replay schema

replay   reconstruct a trace (queues, RNL, p_admit, faults) and summarize it
audit    reconstruct + check against the paper's bounds; exits 1 on FAIL
analyze  audit every trace under --input and diff them against a baseline
schema   print the trace schema version this build understands";

fn fail(msg: &str) -> ! {
    eprintln!("aequitas-replay: {msg}");
    std::process::exit(2);
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| v.to_string());
                if value.is_some() {
                    it.next();
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn value_of(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value_of(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("bad value for --{name}: '{v}'")))
        })
    }

    fn require(&self, name: &str) -> PathBuf {
        PathBuf::from(
            self.value_of(name)
                .unwrap_or_else(|| fail(&format!("missing required --{name}\n\n{USAGE}"))),
        )
    }
}

fn audit_options(args: &Args) -> AuditOptions {
    let mut opts = AuditOptions {
        phi: args.parsed("phi"),
        mu: args.parsed("mu"),
        rho: args.parsed("rho"),
        period_ps: args.parsed::<u64>("period-us").map(|us| us * 1_000_000),
        ..AuditOptions::default()
    };
    if let Some(t) = args.parsed("bound-tol") {
        opts.bound_tol = t;
    }
    if let Some(t) = args.parsed("slo-tol") {
        opts.slo_tol = t;
    }
    if let Some(t) = args.parsed("region-tol") {
        opts.region_tol = t;
    }
    opts
}

/// Load the trace (and optional metrics CSV, which is parsed for validity
/// and cross-checked against the reconstruction where possible).
fn load(args: &Args) -> Reconstruction {
    let trace = args.require("trace");
    let recon = match Reconstruction::from_file(&trace) {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    if let Some(metrics) = args.value_of("metrics") {
        let text = std::fs::read_to_string(metrics)
            .unwrap_or_else(|e| fail(&format!("cannot read metrics CSV {metrics}: {e}")));
        let csv = MetricsCsv::parse(&text).unwrap_or_else(|e| fail(&format!("{metrics}: {e}")));
        println!(
            "metrics: {} series, {} samples",
            csv.series.len(),
            csv.rows()
        );
        // Cross-check: sampled backlog gauges must agree with the backlog
        // timeline replayed from packet events (single-epoch traces only —
        // sweep traces interleave engines through one handle).
        if recon.epochs == 1 {
            let mut checked = 0u64;
            let mut mismatches = 0u64;
            for ((metric, labels), points) in &csv.series {
                if metric != "switch.port.backlog_bytes" && metric != "host.nic.backlog_bytes" {
                    continue;
                }
                let Some(key) = port_key_from_labels(metric, labels) else {
                    continue;
                };
                let Some(port) = recon.ports.get(&key) else {
                    continue;
                };
                for &(t_us, v) in points {
                    checked += 1;
                    if port.backlog_at((t_us * 1e6) as u64) as f64 != v {
                        mismatches += 1;
                    }
                }
            }
            if checked > 0 {
                println!("metrics cross-check: {checked} backlog samples, {mismatches} mismatches");
                if mismatches > 0 {
                    fail("metrics CSV disagrees with the trace's replayed backlog");
                }
            }
        }
    }
    recon
}

/// Map a backlog gauge's label string (`sw=0,port=2` / `host=1`) to the
/// trace's port key.
fn port_key_from_labels(
    metric: &str,
    labels: &str,
) -> Option<aequitas_replay::reconstruct::PortKey> {
    let mut node_id = None;
    let mut port = 0u64;
    let mut kind = "";
    for pair in labels.split(',') {
        let (k, v) = pair.split_once('=')?;
        match k {
            "sw" => {
                kind = "switch";
                node_id = v.parse::<u64>().ok();
            }
            "host" => {
                kind = "host";
                node_id = v.parse::<u64>().ok();
            }
            "port" => port = v.parse().ok()?,
            _ => {}
        }
    }
    if metric.starts_with("host") && kind != "host" {
        return None;
    }
    Some(aequitas_replay::reconstruct::PortKey {
        node: format!("{kind}{}", node_id?),
        port,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        fail(USAGE);
    };
    let args = Args::parse(&argv[1..]);
    match cmd.as_str() {
        "schema" => {
            println!(
                "trace schema version: {}",
                aequitas_telemetry::TRACE_SCHEMA_VERSION
            );
        }
        "replay" => {
            let mut recon = load(&args);
            let report = audit(&mut recon, &audit_options(&args));
            if let Some(out) = args.value_of("json") {
                let doc = report_json(&mut recon, &report);
                std::fs::write(out, doc)
                    .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            }
            print!("{}", report_text(&mut recon, &report));
            // replay mode reports the audit but only fails on broken
            // streams, not on bound violations.
            let integrity_ok = report
                .checks
                .iter()
                .any(|c| c.name == "trace_integrity" && c.status == CheckStatus::Pass);
            if !integrity_ok {
                std::process::exit(2);
            }
        }
        "audit" => {
            let mut recon = load(&args);
            let report = audit(&mut recon, &audit_options(&args));
            if let Some(out) = args.value_of("json") {
                let doc = report_json(&mut recon, &report);
                std::fs::write(out, doc)
                    .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            }
            print!("{}", report_text(&mut recon, &report));
            if report.verdict != CheckStatus::Pass {
                std::process::exit(1);
            }
        }
        "analyze" => {
            let input = args.require("input");
            let out = args.require("out");
            match analyze(&input, &out, args.value_of("baseline"), &audit_options(&args)) {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e),
            }
        }
        other => fail(&format!("unknown command '{other}'\n\n{USAGE}")),
    }
    if !args.positional.is_empty() {
        // Unconsumed positionals are almost always a typo'd flag value.
        fail(&format!("unexpected argument '{}'", args.positional[0]));
    }
}
