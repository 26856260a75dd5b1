//! Cross-run analysis: `aequitas-replay analyze --input results/ --out
//! analysis/` replays every trace under the input directory, audits each,
//! writes per-run reports plus a cross-run diff (JSON + text) showing how
//! RNL quantiles (p50/p99/p99.9 per QoS), queue peaks, drops, and verdicts
//! moved against a baseline run.

use crate::audit::{audit, AuditOptions, AuditReport};
use crate::reconstruct::Reconstruction;
use crate::report::{report_json, JsonWriter};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// RNL-per-MTU quantile sketch for one QoS level, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Quantiles {
    /// Post-warmup completions behind the sketch.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Mean.
    pub mean: f64,
}

/// The per-run digest compare mode works from.
#[derive(Debug)]
pub struct RunSummary {
    /// Run name (file stem or directory name).
    pub name: String,
    /// Experiment recorded in `run_info` (`?` when absent).
    pub experiment: String,
    /// Audit verdict.
    pub verdict: String,
    /// Names of failed checks.
    pub failed_checks: Vec<String>,
    /// Trace lines consumed.
    pub events: u64,
    /// RNL quantiles per QoS (post-warmup, `qos_run`).
    pub rnl: BTreeMap<u64, Quantiles>,
    /// Peak backlog across all ports, bytes.
    pub max_backlog_bytes: u64,
    /// Tail drops across all ports.
    pub drops: u64,
    /// Fault windows (link + quota) observed.
    pub fault_windows: u64,
    /// Final admit probability averaged across channels (1.0 when no
    /// controller ran).
    pub mean_final_p: f64,
}

impl RunSummary {
    fn build(name: &str, recon: &mut Reconstruction, report: &AuditReport) -> RunSummary {
        let mut rnl = BTreeMap::new();
        for (&q, st) in recon.qos.iter_mut() {
            let p = &mut st.rnl_per_mtu_ps;
            if let (Some(p50), Some(p99), Some(p999), Some(mean)) =
                (p.p50(), p.p99(), p.p999(), p.mean())
            {
                rnl.insert(
                    q,
                    Quantiles {
                        count: p.count() as u64,
                        p50: p50 / 1e6,
                        p99: p99 / 1e6,
                        p999: p999 / 1e6,
                        mean: mean / 1e6,
                    },
                );
            }
        }
        let finals: Vec<f64> = recon
            .admit
            .values()
            .filter_map(|at| at.points.last().map(|&(_, p)| p))
            .collect();
        RunSummary {
            name: name.to_string(),
            experiment: recon
                .run_info
                .as_ref()
                .map_or("?".to_string(), |i| i.experiment.clone()),
            verdict: report.verdict.as_str().to_string(),
            failed_checks: report
                .checks
                .iter()
                .filter(|c| c.status == crate::audit::CheckStatus::Fail)
                .map(|c| c.name.clone())
                .collect(),
            events: recon.events,
            rnl,
            max_backlog_bytes: recon
                .ports
                .values()
                .map(|p| p.max_backlog_bytes)
                .max()
                .unwrap_or(0),
            drops: recon.ports.values().map(|p| p.drop_pkts).sum(),
            fault_windows: recon
                .faults
                .link_windows
                .values()
                .chain(recon.faults.quota_windows.values())
                .map(|v| v.len() as u64)
                .sum(),
            mean_final_p: if finals.is_empty() {
                1.0
            } else {
                finals.iter().sum::<f64>() / finals.len() as f64
            },
        }
    }
}

/// Find the traces under `input`: direct `*.jsonl` children (run name =
/// file stem) plus any `<subdir>/trace.jsonl` (run name = subdir name).
/// Sorted by name so every downstream artifact is deterministic.
pub fn discover_runs(input: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(input)
        .map_err(|e| format!("cannot read input dir {}: {e}", input.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir: {e}"))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_file() && name.ends_with(".jsonl") {
            runs.push((name.trim_end_matches(".jsonl").to_string(), path));
        } else if path.is_dir() {
            let nested = path.join("trace.jsonl");
            if nested.is_file() {
                runs.push((name, nested));
            }
        }
    }
    runs.sort();
    Ok(runs)
}

fn pct_delta(base: f64, run: f64) -> f64 {
    if base.abs() < 1e-12 {
        0.0
    } else {
        (run - base) / base * 100.0
    }
}

/// Analyze every run under `input`, writing per-run audit reports and the
/// cross-run comparison into `out`. Returns the comparison text (also
/// written to `out/compare.txt`). `baseline` picks the reference run by
/// name; default is the first in sorted order.
pub fn analyze(
    input: &Path,
    out: &Path,
    baseline: Option<&str>,
    opts: &AuditOptions,
) -> Result<String, String> {
    let runs = discover_runs(input)?;
    if runs.is_empty() {
        return Err(format!(
            "no traces found under {} (expected *.jsonl files or <run>/trace.jsonl)",
            input.display()
        ));
    }
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut summaries = Vec::new();
    for (name, path) in &runs {
        let mut recon =
            Reconstruction::from_file(path).map_err(|e| format!("run '{name}': {e}"))?;
        let report = audit(&mut recon, opts);
        let doc = report_json(&mut recon, &report);
        let report_path = out.join(format!("{name}.audit.json"));
        std::fs::write(&report_path, doc)
            .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
        summaries.push(RunSummary::build(name, &mut recon, &report));
    }
    let base_idx = match baseline {
        Some(b) => summaries
            .iter()
            .position(|s| s.name == b)
            .ok_or_else(|| format!("baseline run '{b}' not found"))?,
        None => 0,
    };
    let text = compare_text(&summaries, base_idx);
    let json = compare_json(&summaries, base_idx);
    std::fs::write(out.join("compare.txt"), &text)
        .map_err(|e| format!("cannot write compare.txt: {e}"))?;
    std::fs::write(out.join("compare.json"), json)
        .map_err(|e| format!("cannot write compare.json: {e}"))?;
    Ok(text)
}

fn compare_text(summaries: &[RunSummary], base_idx: usize) -> String {
    let base = &summaries[base_idx];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cross-run analysis: {} runs, baseline '{}'",
        summaries.len(),
        base.name
    );
    for s in summaries {
        let marker = if s.name == base.name {
            " (baseline)"
        } else {
            ""
        };
        let failed = if s.failed_checks.is_empty() {
            String::new()
        } else {
            format!(" failed=[{}]", s.failed_checks.join(","))
        };
        let _ = writeln!(
            out,
            "\n{}{marker}: experiment={} verdict={}{failed} events={} \
             max_backlog={}B drops={} fault_windows={} mean_final_p={:.3}",
            s.name,
            s.experiment,
            s.verdict,
            s.events,
            s.max_backlog_bytes,
            s.drops,
            s.fault_windows,
            s.mean_final_p
        );
        for (&q, quant) in &s.rnl {
            let mut line = format!(
                "  qos{q} RNL/MTU us: p50 {:.3} p99 {:.3} p99.9 {:.3} mean {:.3} (n={})",
                quant.p50, quant.p99, quant.p999, quant.mean, quant.count
            );
            if s.name != base.name {
                if let Some(bq) = base.rnl.get(&q) {
                    let _ = write!(
                        line,
                        "  | vs baseline: p50 {:+.1}% p99 {:+.1}% p99.9 {:+.1}%",
                        pct_delta(bq.p50, quant.p50),
                        pct_delta(bq.p99, quant.p99),
                        pct_delta(bq.p999, quant.p999)
                    );
                }
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

fn compare_json(summaries: &[RunSummary], base_idx: usize) -> String {
    let base = &summaries[base_idx];
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("baseline").str_val(&base.name);
    w.key("runs").begin_arr();
    for s in summaries {
        w.begin_obj();
        w.key("name").str_val(&s.name);
        w.key("experiment").str_val(&s.experiment);
        w.key("verdict").str_val(&s.verdict);
        w.key("failed_checks").begin_arr();
        for f in &s.failed_checks {
            w.str_val(f);
        }
        w.end_arr();
        w.key("events").u64_val(s.events);
        w.key("max_backlog_bytes").u64_val(s.max_backlog_bytes);
        w.key("drops").u64_val(s.drops);
        w.key("fault_windows").u64_val(s.fault_windows);
        w.key("mean_final_p").f64_val(s.mean_final_p);
        w.key("rnl_per_mtu_us").begin_arr();
        for (&q, quant) in &s.rnl {
            w.begin_obj();
            w.key("qos").u64_val(q);
            w.key("count").u64_val(quant.count);
            w.key("p50").f64_val(quant.p50);
            w.key("p99").f64_val(quant.p99);
            w.key("p999").f64_val(quant.p999);
            w.key("mean").f64_val(quant.mean);
            if s.name != base.name {
                if let Some(bq) = base.rnl.get(&q) {
                    w.key("delta_p50_pct").f64_val(pct_delta(bq.p50, quant.p50));
                    w.key("delta_p99_pct").f64_val(pct_delta(bq.p99, quant.p99));
                    w.key("delta_p999_pct")
                        .f64_val(pct_delta(bq.p999, quant.p999));
                }
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_trace(dir: &Path, name: &str, rnl_scale: u64) {
        let mut t = format!(
            "{{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\"schema_version\":{}}}\n",
            aequitas_telemetry::TRACE_SCHEMA_VERSION
        );
        for i in 0..10u64 {
            t += &format!(
                "{{\"seq\":{},\"t_ps\":{},\"type\":\"rpc_complete\",\"host\":0,\"dst\":2,\
                 \"qos_run\":0,\"downgraded\":false,\"size_bytes\":4096,\"rnl_ps\":{},\
                 \"rnl_per_mtu_ps\":{}}}\n",
                i + 1,
                1000 + i,
                rnl_scale * (i + 1),
                rnl_scale * (i + 1)
            );
        }
        std::fs::write(dir.join(format!("{name}.jsonl")), t).unwrap();
    }

    #[test]
    fn analyze_diffs_quantiles_across_runs() {
        let dir = std::env::temp_dir().join("aequitas-replay-compare-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_trace(&dir, "a-base", 1_000_000);
        write_trace(&dir, "b-slow", 2_000_000);
        let out = dir.join("analysis");
        let text = analyze(&dir, &out, None, &AuditOptions::default()).unwrap();
        assert!(text.contains("baseline 'a-base'"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
        assert!(out.join("a-base.audit.json").is_file());
        assert!(out.join("b-slow.audit.json").is_file());
        assert!(out.join("compare.json").is_file());
        let cj = std::fs::read_to_string(out.join("compare.json")).unwrap();
        assert!(cj.contains("\"delta_p99_pct\":100"), "{cj}");
        // Determinism: analyzing again produces identical bytes.
        let text2 = analyze(&dir, &out, None, &AuditOptions::default()).unwrap();
        assert_eq!(text, text2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_baseline_is_an_error() {
        let dir = std::env::temp_dir().join("aequitas-replay-compare-test2");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_trace(&dir, "only", 1_000_000);
        let err =
            analyze(&dir, &dir.join("x"), Some("nope"), &AuditOptions::default()).unwrap_err();
        assert!(err.contains("baseline run 'nope' not found"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
