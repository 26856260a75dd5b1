//! The bound auditor: checks a reconstructed run against the closed-form
//! analysis in `crates/analysis`.
//!
//! Checks (each PASS / FAIL / SKIP; a run's verdict is FAIL iff any check
//! fails — SKIPs never fail a run, they mean the trace lacks the inputs):
//!
//! * `trace_integrity` — the stream parses cleanly, sequence numbers are
//!   contiguous, and (single-epoch traces only) the running backlog
//!   recomputed from packet events agrees with every event's own
//!   `backlog_bytes` field.
//! * `bound_delay_h` / `bound_delay_l` — worst measured queuing delay per
//!   class at the bottleneck WFQ port, normalized to the burst period, is
//!   within the Eq. 1 (`delay_h`) / Eq. 8 (`delay_l`) prediction for the
//!   measured QoS-mix (+ tolerance covering serialization granularity).
//!   For >2 classes the exact fluid model supplies the per-class bound.
//! * `admissible_region` — the realized QoS-mix sits inside the paper's
//!   admissible region (Lemma 1: QoSₕ-share ≤ φ/(φ+1) for 2 classes,
//!   inversion-freeness via the fluid model otherwise).
//! * `rnl_slo` — per-class RNL-per-MTU at the configured percentile meets
//!   the SLO recorded in `run_info` (+ relative tolerance).
//! * `p_admit_bounds` — every Algorithm 1 probability stays in (0, 1].
//!
//! Bound parameters (φ via WFQ weights, μ, ρ, burst period) come from the
//! trace's `run_info` line; command-line overrides win when provided.

use crate::reconstruct::Reconstruction;
use aequitas_analysis::{delay_h, delay_l, fluid_delays, FluidSpec, TwoQosParams};

/// Tolerances and parameter overrides for one audit.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Override: weight ratio φ (weights become `[φ, 1]`).
    pub phi: Option<f64>,
    /// Override: aggregate mean load μ.
    pub mu: Option<f64>,
    /// Override: aggregate burst rate ρ.
    pub rho: Option<f64>,
    /// Override: burst period in ps.
    pub period_ps: Option<u64>,
    /// Slack added to normalized delay bounds. Covers packetization and
    /// serialization granularity the fluid-model bounds ignore; matches the
    /// envelope the fig10 validation test accepts.
    pub bound_tol: f64,
    /// Relative slack on SLO targets (0.5 = measured may exceed the target
    /// by 50%).
    pub slo_tol: f64,
    /// Absolute slack on admissible-region share boundaries.
    pub region_tol: f64,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            phi: None,
            mu: None,
            rho: None,
            period_ps: None,
            bound_tol: 0.12,
            slo_tol: 0.5,
            region_tol: 0.05,
        }
    }
}

/// Outcome of one check (or of the whole run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// The property held.
    Pass,
    /// The property was violated.
    Fail,
    /// The trace lacks the inputs to evaluate the property.
    Skip,
}

impl CheckStatus {
    /// Stable string form used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckStatus::Pass => "PASS",
            CheckStatus::Fail => "FAIL",
            CheckStatus::Skip => "SKIP",
        }
    }
}

/// One audited property.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable check name.
    pub name: String,
    /// Outcome.
    pub status: CheckStatus,
    /// Measured quantity, when the check is quantitative.
    pub measured: Option<f64>,
    /// The limit the measurement was compared against (tolerance included).
    pub limit: Option<f64>,
    /// Human-readable explanation.
    pub detail: String,
}

impl Check {
    fn skip(name: &str, detail: String) -> Check {
        Check {
            name: name.to_string(),
            status: CheckStatus::Skip,
            measured: None,
            limit: None,
            detail,
        }
    }

    fn quantitative(name: &str, measured: f64, limit: f64, detail: String) -> Check {
        Check {
            name: name.to_string(),
            status: if measured <= limit {
                CheckStatus::Pass
            } else {
                CheckStatus::Fail
            },
            measured: Some(measured),
            limit: Some(limit),
            detail,
        }
    }
}

/// The audit result for one run.
#[derive(Debug)]
pub struct AuditReport {
    /// FAIL iff any check failed.
    pub verdict: CheckStatus,
    /// Every evaluated check.
    pub checks: Vec<Check>,
}

/// Bound parameters after merging `run_info` with CLI overrides.
#[derive(Debug, Clone, Default)]
struct BoundParams {
    weights: Vec<f64>,
    mu: f64,
    rho: f64,
    period_ps: u64,
}

fn resolve_params(recon: &Reconstruction, opts: &AuditOptions) -> BoundParams {
    let info = recon.run_info.clone().unwrap_or_default();
    BoundParams {
        weights: match opts.phi {
            Some(phi) => vec![phi, 1.0],
            None => info.weights,
        },
        mu: opts.mu.unwrap_or(info.mu),
        rho: opts.rho.unwrap_or(info.rho),
        period_ps: opts.period_ps.unwrap_or(info.period_ps),
    }
}

/// Run every check against a reconstruction.
pub fn audit(recon: &mut Reconstruction, opts: &AuditOptions) -> AuditReport {
    let mut checks = Vec::new();
    checks.push(integrity_check(recon));
    let params = resolve_params(recon, opts);
    checks.extend(delay_bound_checks(recon, &params, opts));
    checks.push(region_check(recon, &params, opts));
    checks.extend(slo_checks(recon, opts));
    checks.push(admit_prob_check(recon));
    let verdict = if checks.iter().any(|c| c.status == CheckStatus::Fail) {
        CheckStatus::Fail
    } else {
        CheckStatus::Pass
    };
    AuditReport { verdict, checks }
}

/// Reconstruct a trace file and audit it in one step.
pub fn audit_file(
    path: &std::path::Path,
    opts: &AuditOptions,
) -> Result<(Reconstruction, AuditReport), String> {
    let mut recon = Reconstruction::from_file(path)?;
    let report = audit(&mut recon, opts);
    Ok((recon, report))
}

fn integrity_check(recon: &Reconstruction) -> Check {
    let i = &recon.integrity;
    let mismatches: u64 = recon.ports.values().map(|p| p.backlog_mismatches).sum();
    let unmatched: u64 = recon.ports.values().map(|p| p.unmatched_dequeues).sum();
    let mut problems = Vec::new();
    if i.parse_errors > 0 {
        problems.push(format!("{} unparseable lines", i.parse_errors));
    }
    if i.seq_gaps > 0 {
        problems.push(format!("{} seq discontinuities", i.seq_gaps));
    }
    if recon.epochs == 1 {
        // Conservation is only meaningful when one engine wrote the stream;
        // sweep traces interleave points through a shared handle.
        if mismatches > 0 {
            problems.push(format!("{mismatches} backlog-conservation mismatches"));
        }
        if unmatched > 0 {
            problems.push(format!("{unmatched} dequeues without a matching enqueue"));
        }
    }
    let status = if problems.is_empty() {
        CheckStatus::Pass
    } else {
        CheckStatus::Fail
    };
    let mut detail = if problems.is_empty() {
        format!(
            "{} events parsed, seq contiguous, byte conservation holds",
            recon.events
        )
    } else {
        problems.join("; ")
    };
    if recon.epochs > 1 {
        detail.push_str(&format!(
            " (multi-epoch trace: {} restarts, conservation not enforced)",
            recon.epochs - 1
        ));
    }
    Check {
        name: "trace_integrity".into(),
        status,
        measured: None,
        limit: None,
        detail,
    }
}

fn delay_bound_checks(
    recon: &mut Reconstruction,
    params: &BoundParams,
    opts: &AuditOptions,
) -> Vec<Check> {
    let need = "needs WFQ weights, mu, rho and a burst period (from run_info or \
                --phi/--mu/--rho/--period-us)";
    let skip_all = |detail: String| {
        vec![
            Check::skip("bound_delay_h", detail.clone()),
            Check::skip("bound_delay_l", detail),
        ]
    };
    if params.weights.len() < 2 || params.mu <= 0.0 || params.rho <= 0.0 || params.period_ps == 0 {
        return skip_all(format!("burst parameters unknown; {need}"));
    }
    let Some(key) = recon.bottleneck_port().cloned() else {
        return skip_all("no packet events in trace".into());
    };
    let Some(port) = recon.ports.get_mut(&key) else {
        return skip_all(format!("bottleneck port {key} missing from reconstruction"));
    };
    let total_bytes = port.enq_bytes();
    if total_bytes == 0 {
        return skip_all(format!("no bytes enqueued at bottleneck port {key}"));
    }
    let n = params.weights.len();
    let shares: Vec<f64> = (0..n as u64)
        .map(|c| {
            port.classes
                .get(&c)
                .map_or(0.0, |ct| ct.enq_bytes as f64 / total_bytes as f64)
        })
        .collect();
    let period = params.period_ps as f64;
    // Per-class normalized bound for the measured mix.
    let bounds: Vec<f64> = if n == 2 {
        let p = TwoQosParams {
            phi: params.weights[0] / params.weights[1],
            mu: params.mu.min(1.0),
            rho: params.rho.max(params.mu),
        };
        let x = shares[0].clamp(0.0, 1.0);
        vec![delay_h(p, x), delay_l(p, x)]
    } else {
        fluid_delays(&FluidSpec {
            weights: params.weights.clone(),
            shares: shares.clone(),
            mu: params.mu.min(1.0),
            rho: params.rho.max(params.mu),
        })
    };
    (0..n)
        .map(|c| {
            let name = match (n, c) {
                (2, 0) => "bound_delay_h".to_string(),
                (2, 1) => "bound_delay_l".to_string(),
                _ => format!("bound_delay_class{c}"),
            };
            let measured_ps = port
                .classes
                .get(&(c as u64))
                .map_or(0, |ct| ct.max_delay_ps);
            let measured = measured_ps as f64 / period;
            let limit = bounds[c] + opts.bound_tol;
            Check::quantitative(
                &name,
                measured,
                limit,
                format!(
                    "port {key} class {c}: worst queuing delay {:.4} periods vs \
                     bound {:.4} (+{:.2} tol) at measured share {:.3}",
                    measured, bounds[c], opts.bound_tol, shares[c]
                ),
            )
        })
        .collect()
}

fn region_check(recon: &Reconstruction, params: &BoundParams, opts: &AuditOptions) -> Check {
    let name = "admissible_region";
    if params.weights.len() < 2 {
        return Check::skip(name, "WFQ weights unknown (no run_info, no --phi)".into());
    }
    // Realized mix: admitted RPC bytes per qos_run when the trace has an
    // RPC layer, else wire bytes per class at the bottleneck port.
    let n = params.weights.len();
    let (shares, source) = {
        let total = recon
            .qos
            .values()
            .fold(0u64, |sum, q| sum.saturating_add(q.issued_bytes));
        if total > 0 {
            let s: Vec<f64> = (0..n as u64)
                .map(|q| {
                    recon
                        .qos
                        .get(&q)
                        .map_or(0.0, |st| st.issued_bytes as f64 / total as f64)
                })
                .collect();
            (s, "admitted RPC bytes")
        } else if let Some(key) = recon.bottleneck_port() {
            let port = &recon.ports[key];
            let total = port.enq_bytes();
            if total == 0 {
                return Check::skip(name, "no traffic in trace".into());
            }
            let s: Vec<f64> = (0..n as u64)
                .map(|c| {
                    port.classes
                        .get(&c)
                        .map_or(0.0, |ct| ct.enq_bytes as f64 / total as f64)
                })
                .collect();
            (s, "bottleneck wire bytes")
        } else {
            return Check::skip(name, "no traffic in trace".into());
        }
    };
    if n == 2 {
        // Lemma 1 closed form: inversion-free iff QoSh-share ≤ φ/(φ+1).
        let phi = params.weights[0] / params.weights[1];
        let boundary = if params.mu > 0.0 && params.rho > 0.0 {
            aequitas_analysis::admissible_region_2qos(TwoQosParams {
                phi,
                mu: params.mu.min(1.0),
                rho: params.rho.max(params.mu),
            })
        } else {
            phi / (phi + 1.0)
        };
        Check::quantitative(
            name,
            shares[0],
            boundary + opts.region_tol,
            format!(
                "QoSh-share {:.3} ({source}) vs region boundary phi/(phi+1) = {:.3} \
                 (+{:.2} tol)",
                shares[0], boundary, opts.region_tol
            ),
        )
    } else {
        if params.mu <= 0.0 || params.rho <= 0.0 {
            return Check::skip(
                name,
                "N-QoS region needs mu and rho (run_info or --mu/--rho)".into(),
            );
        }
        let free = aequitas_analysis::inversion_free(
            &params.weights,
            &shares,
            params.mu.min(1.0),
            params.rho.max(params.mu),
        );
        Check {
            name: name.into(),
            status: if free {
                CheckStatus::Pass
            } else {
                CheckStatus::Fail
            },
            measured: Some(shares[0]),
            limit: None,
            detail: format!(
                "mix {:?} ({source}) is {} under the fluid model",
                shares
                    .iter()
                    .map(|s| (s * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>(),
                if free {
                    "inversion-free"
                } else {
                    "NOT inversion-free"
                }
            ),
        }
    }
}

fn slo_checks(recon: &mut Reconstruction, opts: &AuditOptions) -> Vec<Check> {
    let Some(info) = recon.run_info.clone() else {
        return vec![Check::skip("rnl_slo", "no run_info in trace".into())];
    };
    let targets: Vec<(u64, u64)> = info
        .slos_per_mtu_ps
        .iter()
        .enumerate()
        .filter(|(_, &slo)| slo > 0)
        .map(|(q, &slo)| (q as u64, slo))
        .collect();
    if targets.is_empty() {
        return vec![Check::skip("rnl_slo", "run has no RNL SLO targets".into())];
    }
    let pct = if info.slo_percentile > 0.0 {
        info.slo_percentile
    } else {
        99.9
    };
    targets
        .into_iter()
        .map(|(q, slo)| {
            let name = format!("rnl_slo_qos{q}");
            let Some(stats) = recon.qos.get_mut(&q) else {
                return Check::skip(&name, format!("no completions on QoS {q}"));
            };
            let Some(measured_ps) = stats.rnl_per_mtu_ps.percentile(pct) else {
                return Check::skip(&name, format!("no post-warmup completions on QoS {q}"));
            };
            let limit_ps = slo as f64 * (1.0 + opts.slo_tol);
            Check::quantitative(
                &name,
                measured_ps / 1e6,
                limit_ps / 1e6,
                format!(
                    "p{pct} RNL/MTU {:.3} us vs SLO {:.3} us (+{:.0}% tol) over {} RPCs",
                    measured_ps / 1e6,
                    slo as f64 / 1e6,
                    opts.slo_tol * 100.0,
                    stats.rnl_per_mtu_ps.count()
                ),
            )
        })
        .collect()
}

fn admit_prob_check(recon: &Reconstruction) -> Check {
    let name = "p_admit_bounds";
    if recon.admit.is_empty() {
        return Check::skip(name, "no admit_prob events in trace".into());
    }
    let mut worst: Option<f64> = None;
    let mut updates = 0u64;
    for at in recon.admit.values() {
        updates += at.points.len() as u64;
        if at.min_p <= 0.0 || at.max_p > 1.0 + 1e-9 {
            let bad = if at.min_p <= 0.0 { at.min_p } else { at.max_p };
            worst = Some(worst.map_or(bad, |w: f64| if bad < w { bad } else { w }));
        }
    }
    match worst {
        None => Check {
            name: name.into(),
            status: CheckStatus::Pass,
            measured: None,
            limit: None,
            detail: format!(
                "{updates} Algorithm 1 steps across {} channels, all p in (0, 1]",
                recon.admit.len()
            ),
        },
        Some(bad) => Check {
            name: name.into(),
            status: CheckStatus::Fail,
            measured: Some(bad),
            limit: None,
            detail: format!("admit probability left (0, 1]: saw {bad}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A synthetic 2-QoS trace at fig-8 parameters whose class-0 delay can
    /// be dialed to sit under or over the Eq. 1 bound.
    fn synthetic(delay_h_periods: f64) -> String {
        let period: u64 = 100_000_000;
        let mut t = format!(
            "{{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\"schema_version\":{}}}\n",
            aequitas_telemetry::TRACE_SCHEMA_VERSION
        );
        t += &format!(
            "{{\"seq\":1,\"t_ps\":0,\"type\":\"run_info\",\"experiment\":\"synthetic\",\"hosts\":3,\
             \"classes\":2,\"weights\":[4,1],\"slos_per_mtu_ps\":[0,0],\"slo_percentile\":99.9,\
             \"warmup_ps\":0,\"duration_ps\":{period},\"senders\":2,\"mu\":0.8,\"rho\":1.2,\
             \"period_ps\":{period}}}\n"
        );
        // Mix: 70% class 0, 30% class 1 (x = 0.7, inside the region).
        let d0 = (delay_h_periods * period as f64) as u64;
        let mut seq = 2;
        let mut line = |s: &str| {
            t += s;
            t += "\n";
        };
        line(&format!(
            "{{\"seq\":{seq},\"t_ps\":100,\"type\":\"pkt_enqueue\",\"node\":\"switch0\",\"port\":2,\
             \"class\":0,\"bytes\":7000,\"depth_pkts\":1,\"backlog_bytes\":7000}}"
        ));
        seq += 1;
        line(&format!(
            "{{\"seq\":{seq},\"t_ps\":200,\"type\":\"pkt_enqueue\",\"node\":\"switch0\",\"port\":2,\
             \"class\":1,\"bytes\":3000,\"depth_pkts\":1,\"backlog_bytes\":10000}}"
        ));
        seq += 1;
        line(&format!(
            "{{\"seq\":{seq},\"t_ps\":{},\"type\":\"pkt_dequeue\",\"node\":\"switch0\",\"port\":2,\
             \"class\":0,\"bytes\":7000,\"backlog_bytes\":3000}}",
            100 + d0
        ));
        seq += 1;
        line(&format!(
            "{{\"seq\":{seq},\"t_ps\":{},\"type\":\"pkt_dequeue\",\"node\":\"switch0\",\"port\":2,\
             \"class\":1,\"bytes\":3000,\"backlog_bytes\":0}}",
            200 + d0
        ));
        t
    }

    fn run(trace: String) -> AuditReport {
        let mut recon = Reconstruction::from_reader(Cursor::new(trace)).unwrap();
        audit(&mut recon, &AuditOptions::default())
    }

    #[test]
    fn in_bound_run_passes() {
        // Eq. 1 at x=0.7 (fig8 params) predicts ~0.033 periods; with the
        // 0.12 tolerance anything under ~0.153 passes.
        let report = run(synthetic(0.10));
        assert_eq!(report.verdict, CheckStatus::Pass, "{:#?}", report.checks);
        let bound_h = report
            .checks
            .iter()
            .find(|c| c.name == "bound_delay_h")
            .unwrap();
        assert_eq!(bound_h.status, CheckStatus::Pass, "{bound_h:?}");
        assert!(bound_h.measured.unwrap() < bound_h.limit.unwrap());
    }

    #[test]
    fn out_of_bound_run_fails() {
        // 2.5 periods of class-0 delay blows past any fig-8 bound.
        let report = run(synthetic(2.5));
        assert_eq!(report.verdict, CheckStatus::Fail);
        let bound_h = report
            .checks
            .iter()
            .find(|c| c.name == "bound_delay_h")
            .unwrap();
        assert_eq!(bound_h.status, CheckStatus::Fail, "{bound_h:?}");
    }

    #[test]
    fn missing_params_skip_not_fail() {
        let t = format!(
            "{{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\"schema_version\":{}}}\n",
            aequitas_telemetry::TRACE_SCHEMA_VERSION
        );
        let report = run(t);
        assert_eq!(report.verdict, CheckStatus::Pass, "{:#?}", report.checks);
        assert!(report.checks.iter().all(|c| c.status != CheckStatus::Fail));
    }
}
