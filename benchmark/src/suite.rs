//! The whole benchmark in one command: every workload in a child process
//! of its own (a re-exec of this binary, so `peak_rss_mb` is per workload),
//! first untraced, then span-traced, gathered into one result document.

use crate::json::{parse, Value};
use crate::measure::nproc;
use crate::workloads::Workload;
use std::process::Command;

/// Marks the line on which a child prints its [`crate::run::Report::detail`].
pub const DETAIL_PREFIX: &str = "#detail ";

/// What one child run produced.
struct ChildRun {
    /// Everything the child printed.
    stdout: String,
    /// Its detail document, when it printed one and exited with code 0.
    detail: Option<Value>,
}

fn run_child(w: Workload, seed: u64, seconds: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|d| parse(d).ok())
        .filter(|_| out.status.success());
    Ok(ChildRun { stdout, detail })
}

/// Run `workloads` and gather the result document. `on_child` sees each
/// child's output as it finishes. The boolean is whether every run was
/// correct.
pub fn run_all(
    workloads: &[Workload],
    seed: u64,
    seconds: u64,
    mut on_child: impl FnMut(&str),
) -> Result<(Value, bool), String> {
    let mut ok = true;
    let mut per_workload = Vec::new();
    for &w in workloads {
        let mut modes = Vec::new();
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let child = run_child(w, seed, seconds, traced)?;
            on_child(&child.stdout);
            ok &= child
                .detail
                .as_ref()
                .and_then(|d| d.get("correct"))
                .and_then(Value::as_bool)
                == Some(true);
            modes.push((key, child.detail.unwrap_or(Value::Null)));
        }
        per_workload.push((w.name(), Value::object(modes)));
    }
    let doc = Value::object([
        ("benchmark", Value::str("aequitas-benchmark")),
        ("schema", Value::num(1.0)),
        ("seed", Value::num(seed as f64)),
        ("seconds", Value::num(seconds as f64)),
        ("nproc", Value::num(nproc() as f64)),
        // This benchmark measures; it claims no gain.
        ("claim", Value::Null),
        ("correct", Value::Bool(ok)),
        ("workloads", Value::object(per_workload)),
    ]);
    Ok((doc, ok))
}
