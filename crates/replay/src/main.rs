//! `aequitas-replay` — replay, audit, and compare Aequitas telemetry.
//!
//! ```text
//! aequitas-replay replay  --trace t.jsonl [--metrics m.csv] [--json out.json] [audit options]
//! aequitas-replay audit   --trace t.jsonl [--metrics m.csv] [--json out.json] [audit options]
//! aequitas-replay analyze --input results/ --out analysis/ [--baseline NAME] [audit options]
//! aequitas-replay schema
//!
//! audit options: [--phi X --mu X --rho X --period-us N]
//!                [--bound-tol X] [--slo-tol X] [--region-tol X]
//! ```
//!
//! Every flag takes a value. A flag the subcommand does not take, a flag
//! without a value, a stray positional argument and a `--period-us` the
//! picosecond clock cannot hold are usage errors, reported before any file
//! is read.
//!
//! Exit codes: 0 = success (audit verdict PASS), 1 = audit verdict FAIL,
//! 2 = usage, I/O, or schema error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a CLI reports on stdout/stderr"
)]

use aequitas_replay::audit::{audit, AuditOptions, CheckStatus};
use aequitas_replay::compare::analyze;
use aequitas_replay::metrics::MetricsCsv;
use aequitas_replay::reconstruct::Reconstruction;
use aequitas_replay::report::{report_json, report_text};
use std::path::PathBuf;

const USAGE: &str = "usage:
  aequitas-replay replay  --trace T.jsonl [--metrics M.csv] [--json OUT.json] [AUDIT OPTIONS]
  aequitas-replay audit   --trace T.jsonl [--metrics M.csv] [--json OUT.json] [AUDIT OPTIONS]
  aequitas-replay analyze --input DIR --out DIR [--baseline NAME] [AUDIT OPTIONS]
  aequitas-replay schema

AUDIT OPTIONS: [--phi X] [--mu X] [--rho X] [--period-us N]
               [--bound-tol X] [--slo-tol X] [--region-tol X]

replay   reconstruct a trace (queues, RNL, p_admit, faults) and summarize it
audit    reconstruct + check against the paper's bounds; exits 1 on FAIL
analyze  audit every trace under --input and diff them against a baseline
schema   print the trace schema version this build understands";

/// The audit options every reporting subcommand takes.
const AUDIT_FLAGS: [&str; 7] = [
    "phi",
    "mu",
    "rho",
    "period-us",
    "bound-tol",
    "slo-tol",
    "region-tol",
];

fn fail(msg: &str) -> ! {
    eprintln!("aequitas-replay: {msg}");
    std::process::exit(2);
}

/// A subcommand's `--flag value` pairs. Every flag takes a value.
struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parse `argv` for a subcommand that takes the flags in `known` (and
    /// [`AUDIT_FLAGS`] when `audited`). A flag it does not take, a flag
    /// without a value and any positional argument are usage errors, found
    /// before anything is read.
    fn parse(argv: &[String], known: &[&str], audited: bool) -> Args {
        let takes = |name: &str| known.contains(&name) || (audited && AUDIT_FLAGS.contains(&name));
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                // A positional is almost always a typo'd flag value.
                fail(&format!("unexpected argument '{a}'\n\n{USAGE}"));
            };
            if !takes(name) {
                fail(&format!("unknown flag '--{name}'\n\n{USAGE}"));
            }
            match it.next_if(|v| !v.starts_with("--")) {
                Some(value) => flags.push((name.to_string(), value.clone())),
                None => fail(&format!("--{name} needs a value\n\n{USAGE}")),
            }
        }
        Args { flags }
    }

    fn value_of(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
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
    let period_ps = args.parsed::<u64>("period-us").map(|us| {
        us.checked_mul(1_000_000).unwrap_or_else(|| {
            fail(&format!(
                "--period-us {us} overflows the picosecond clock (at most {} us)",
                u64::MAX / 1_000_000
            ))
        })
    });
    let mut opts = AuditOptions {
        phi: args.parsed("phi"),
        mu: args.parsed("mu"),
        rho: args.parsed("rho"),
        period_ps,
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
    let Some((cmd, rest)) = argv.split_first() else {
        fail(USAGE);
    };
    match cmd.as_str() {
        "schema" => {
            Args::parse(rest, &[], false);
            println!(
                "trace schema version: {}",
                aequitas_telemetry::TRACE_SCHEMA_VERSION
            );
        }
        "replay" | "audit" => {
            let args = Args::parse(rest, &["trace", "metrics", "json"], true);
            let opts = audit_options(&args);
            let mut recon = load(&args);
            let report = audit(&mut recon, &opts);
            if let Some(out) = args.value_of("json") {
                let doc = report_json(&mut recon, &report);
                std::fs::write(out, doc)
                    .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            }
            print!("{}", report_text(&mut recon, &report));
            let intact = report
                .checks
                .iter()
                .any(|c| c.name == "trace_integrity" && c.status == CheckStatus::Pass);
            let status = match cmd.as_str() {
                // replay reports the audit but fails only on a broken
                // stream, not on bound violations.
                "replay" if !intact => 2,
                "audit" if report.verdict != CheckStatus::Pass => 1,
                _ => 0,
            };
            if status != 0 {
                std::process::exit(status);
            }
        }
        "analyze" => {
            let args = Args::parse(rest, &["input", "out", "baseline"], true);
            let opts = audit_options(&args);
            let input = args.require("input");
            let out = args.require("out");
            match analyze(&input, &out, args.value_of("baseline"), &opts) {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e),
            }
        }
        other => fail(&format!("unknown command '{other}'\n\n{USAGE}")),
    }
}
