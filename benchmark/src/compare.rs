//! `aequitas-benchmark compare A.json B.json`: is B no worse than A?
//!
//! Per workload and end-to-end metric the verdict is PASS, REGRESSED or
//! UNRESOLVED against the bound the benchmark fixed. Sim metrics, exact
//! counts and digests of the two files must be equal: a change meant only
//! to speed the simulator up leaves every one of them as it was.

use crate::catalog::{Better, EndToEnd, Kind, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::measure::Spread;

/// The verdict on one host metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread of either side (the distance between its quartiles) is
    /// wider than the bound, and B does not beat A on every run.
    Unresolved,
}

impl Verdict {
    /// The word the report prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// By what share of A's median B's median is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    // A zero median (no metric is meant to have one) still divides.
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Classify B against A for metric `m`.
pub fn classify(m: &EndToEnd, a: Spread, b: Spread) -> Verdict {
    if a.relative_iqr() > m.bound || b.relative_iqr() > m.bound {
        // Too noisy to call, unless every run of B beats every run of A.
        let b_always_better = match m.better {
            Better::Lower => b.max < a.min,
            Better::Higher => b.min > a.max,
        };
        return if b_always_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(m.better, a.median, b.median) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

fn spread_of(metric: &Value) -> Option<Spread> {
    let field = |key: &str| metric.get(key)?.as_f64();
    Some(Spread {
        median: field("value")?,
        min: field("min")?,
        max: field("max")?,
        q1: field("q1")?,
        q3: field("q3")?,
    })
}

fn metric<'a>(run: &'a Value, name: &str) -> Option<&'a Value> {
    run.get("metrics")?.get(name)
}

/// Compare two result files. Returns the report's lines and whether B
/// holds: no REGRESSED, no UNRESOLVED, nothing simulated differs.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_f64);
    if seed(a).is_none() || seed(a) != seed(b) {
        return Err("the two files were not taken with the same seed".to_string());
    }
    let workloads = a.get("workloads").ok_or("A has no workloads")?;
    let mut lines = Vec::new();
    let mut ok = true;
    for (name, wa) in workloads.members() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            lines.push(format!("{name}: missing from B"));
            ok = false;
            continue;
        };
        let (ea, eb) = (wa.get("end_to_end"), wb.get("end_to_end"));
        for m in &END_TO_END {
            let pair = ea
                .and_then(|r| metric(r, m.name))
                .and_then(spread_of)
                .zip(eb.and_then(|r| metric(r, m.name)).and_then(spread_of));
            let Some((sa, sb)) = pair else {
                lines.push(format!("{name} {}: missing", m.name));
                ok = false;
                continue;
            };
            let change = 100.0 * worse_by(m.better, sa.median, sb.median);
            let verdict = match m.kind {
                Kind::Host => {
                    let v = classify(m, sa, sb);
                    ok &= v == Verdict::Pass;
                    v.as_str().to_string()
                }
                // Simulated: must repeat exactly.
                Kind::Sim if sa == sb => "PASS identical".to_string(),
                Kind::Sim => {
                    ok = false;
                    format!("DIFFERS ({})", classify(m, sa, sb).as_str())
                }
            };
            lines.push(format!(
                "{name} {}: {verdict}  A {} B {} {}  worse by {change:+.2}% (bound {:.1}%)",
                m.name,
                sa.median,
                sb.median,
                m.unit,
                100.0 * m.bound
            ));
        }
        // Everything simulated: digest, operation counts, per-layer counts.
        for mode in ["end_to_end", "per_layer"] {
            let sim = |w: &'_ Value| w.get(mode).and_then(|r| r.get("sim")).cloned();
            if sim(wa) != sim(wb) {
                lines.push(format!(
                    "{name} {mode}: simulated counts or sim_digest DIFFER"
                ));
                ok = false;
            }
        }
        for m in PER_LAYER
            .iter()
            .filter(|m| m.unit == "count" || m.unit == "bytes")
        {
            let value = |w: &Value| {
                w.get("per_layer")
                    .and_then(|r| metric(r, m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            // Worker threads follow the machine, not the code.
            if m.name != "netsim.shard.threads" && value(wa) != value(wb) {
                lines.push(format!(
                    "{name} {}: DIFFERS  A {:?} B {:?}",
                    m.name,
                    value(wa),
                    value(wb)
                ));
                ok = false;
            }
        }
    }
    lines.push(if ok {
        "compare: B holds against A".to_string()
    } else {
        "compare: B does NOT hold against A".to_string()
    });
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host metric with a 10 % bound, whatever the catalog's are tuned to.
    fn host_metric(name: &'static str, better: Better) -> EndToEnd {
        EndToEnd {
            name,
            unit: "s",
            better,
            bound: 0.10,
            kind: Kind::Host,
        }
    }

    fn tight(v: f64) -> Spread {
        Spread::of(&[v * 0.99, v, v * 1.01])
    }

    #[test]
    fn bound_classification() {
        let wall = &host_metric("wall_s", Better::Lower);
        assert_eq!(classify(wall, tight(1.0), tight(1.05)), Verdict::Pass);
        assert_eq!(classify(wall, tight(1.0), tight(0.5)), Verdict::Pass);
        assert_eq!(classify(wall, tight(1.0), tight(1.12)), Verdict::Regressed);
        let ops = &host_metric("ops_per_s", Better::Higher);
        assert_eq!(classify(ops, tight(100.0), tight(95.0)), Verdict::Pass);
        assert_eq!(classify(ops, tight(100.0), tight(85.0)), Verdict::Regressed);
        assert_eq!(classify(ops, tight(100.0), tight(120.0)), Verdict::Pass);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let wall = &host_metric("wall_s", Better::Lower);
        let noisy = Spread::of(&[0.9, 1.0, 1.1]);
        assert_eq!(classify(wall, noisy, tight(1.0)), Verdict::Unresolved);
        assert_eq!(classify(wall, tight(1.0), noisy), Verdict::Unresolved);
        // Every run of B below every run of A: better for sure.
        assert_eq!(classify(wall, noisy, tight(0.5)), Verdict::Pass);
    }

    #[test]
    fn worse_by_is_direction_aware() {
        assert!((worse_by(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 2.0, 2.2) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
    }
}
