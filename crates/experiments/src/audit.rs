//! Opt-in end-of-run self-audit.
//!
//! When the run context asks for it (CLI `--audit`), the harness replays
//! the trace a run just wrote through `aequitas-replay` and checks it
//! against the paper's closed-form bounds (Eq. 1 / Eq. 8, admissible
//! region, RNL SLOs). A FAIL verdict terminates the process with exit
//! code 1 so scripted experiments cannot silently publish figures from a
//! run that violated its own model.

use aequitas_telemetry::Telemetry;

/// Replay + audit the trace behind `tel` ([`crate::harness::RunCtx`] calls
/// this after a run when its `audit` flag is set). Prints the verdict
/// report; exits 1 on a FAIL verdict. No-op when tracing is off or the
/// sink is not file-backed (nothing to replay).
pub fn self_audit(tel: &Telemetry) {
    if !tel.is_enabled() {
        return;
    }
    let Some(path) = tel.trace_path() else {
        eprintln!("self-audit: trace sink is not file-backed (need --trace); skipping");
        return;
    };
    match aequitas_replay::audit_file(&path, &aequitas_replay::AuditOptions::default()) {
        Ok((mut recon, report)) => {
            println!("--- self-audit: {} ---", path.display());
            print!(
                "{}",
                aequitas_replay::report::report_text(&mut recon, &report)
            );
            if report.verdict == aequitas_replay::CheckStatus::Fail {
                eprintln!("self-audit: FAIL — run violates its analytical bounds");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("self-audit: cannot audit {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}
