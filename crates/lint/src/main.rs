//! `aequitas-lint` — first-party static analysis for the Aequitas workspace.
//!
//! Usage:
//! ```text
//! cargo run -p aequitas-lint                    # findings, exit 1 if any
//! cargo run -p aequitas-lint -- --rules         # list rule IDs and rationale
//! cargo run -p aequitas-lint -- --debt          # suppression-debt report
//! cargo run -p aequitas-lint -- --debt-gate     # fail if debt exceeds lint-debt.toml
//! cargo run -p aequitas-lint -- --debt-baseline # rewrite lint-debt.toml
//! ```
//!
//! It analyzes the workspace it was compiled in. See the "Correctness
//! tooling" section of DESIGN.md for the rule catalogue (including the
//! rules rustc and clippy enforce instead) and the dataflow model behind
//! AQ014–AQ016. All analysis logic lives in the library (`aequitas_lint`);
//! this binary is argument parsing and I/O.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a CLI reports on stdout/stderr")]

use aequitas_lint::debt::Debt;
use aequitas_lint::{load_workspace_files, rules, run_analysis};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("aequitas-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut list_rules = false;
    let mut debt_report = false;
    let mut debt_gate = false;
    let mut debt_baseline = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--rules" => list_rules = true,
            "--debt" => debt_report = true,
            "--debt-gate" => debt_gate = true,
            "--debt-baseline" => debt_baseline = true,
            "--help" | "-h" => {
                println!(
                    "aequitas-lint [--rules] [--debt|--debt-gate|--debt-baseline]\n\
                     Domain static analysis for the Aequitas workspace: token rules\n\
                     (AQ004, AQ005, AQ008) plus call-graph dataflow passes (AQ014..AQ016)."
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }

    if list_rules {
        for r in rules::RULES {
            println!("{}  {:<28} {}", r.id, r.name, r.desc);
        }
        return Ok(ExitCode::SUCCESS);
    }

    // The workspace this binary was compiled in.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint always sits two levels under the workspace root");

    if debt_report || debt_gate || debt_baseline {
        let debt = Debt::collect(&load_workspace_files(root)?);
        let baseline_path = root.join("lint-debt.toml");
        if debt_baseline {
            std::fs::write(&baseline_path, debt.to_toml())
                .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
            eprintln!("aequitas-lint: wrote {}", baseline_path.display());
            return Ok(ExitCode::SUCCESS);
        }
        if debt_report {
            print!("{}", debt.report());
        }
        if debt_gate {
            let baseline = std::fs::read_to_string(&baseline_path).map_err(|e| {
                format!("cannot read {} (run --debt-baseline once): {e}", baseline_path.display())
            })?;
            match debt.gate(&baseline) {
                Ok(msg) => eprintln!("aequitas-lint: {msg}"),
                Err(msg) => {
                    eprintln!("aequitas-lint: {msg}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let findings = run_analysis(root)?;
    for f in &findings {
        println!("{} {}:{}:{} {}", f.rule, f.path, f.line, f.col, f.message);
    }
    if findings.is_empty() {
        eprintln!("aequitas-lint: clean ({} rules)", rules::RULES.len());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("aequitas-lint: {} finding(s)", findings.len());
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable_and_sorted() {
        let ids: Vec<&str> = rules::RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["AQ004", "AQ005", "AQ008", "AQ014", "AQ015", "AQ016"]);
    }
}
