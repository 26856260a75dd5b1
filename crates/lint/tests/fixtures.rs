//! Fixture-corpus tests for the dataflow passes (AQ014–AQ016), plus a
//! self-lint test over the real workspace.
//!
//! Each fixture directory under `tests/fixtures/` is a miniature
//! workspace mirroring the real crate layout (the passes scope sinks and
//! domains by path). True-positive goldens must produce exactly the
//! expected findings; clean goldens must produce none. Fixtures are
//! excluded from first-party linting by the `fixtures` directory skip in
//! [`aequitas_lint::collect_rs_files`].

use aequitas_lint::rules::Finding;
use aequitas_lint::run_analysis;
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture's findings of `rule` alone: a TP fixture for a dataflow
/// pass may also trip a token rule (e.g. AQ008 on its `HashMap`).
fn run(name: &str, rule: &str) -> Vec<Finding> {
    let mut findings = run_analysis(&fixture_root(name)).expect("analysis runs");
    findings.retain(|f| f.rule == rule);
    findings
}

#[test]
fn aq014_detects_cross_function_taint_chain() {
    let f = run("aq014_tp", "AQ014");
    assert_eq!(f.len(), 2, "{f:#?}");
    // The cross-function case: sink in the hot caller, source two hops
    // down in a non-hot crate. Reported at the hot boundary with the
    // full chain in the message.
    let cross = f
        .iter()
        .find(|f| f.message.contains("deliver"))
        .expect("cross-function finding");
    assert_eq!(cross.path, "crates/netsim/src/engine.rs");
    assert!(
        cross.message.contains("pick_next")
            && cross.message.contains("crates/baselines/src/host.rs"),
        "chain should name the source hop: {}",
        cross.message
    );
    // The local case: Instant::now directly in hot code.
    let local = f
        .iter()
        .find(|f| f.message.contains("Instant"))
        .expect("local-source finding");
    assert_eq!(local.path, "crates/netsim/src/engine.rs");
}

#[test]
fn aq014_clean_golden_has_no_findings() {
    assert!(run("aq014_clean", "AQ014").is_empty());
}

#[test]
fn aq015_detects_unit_mixing() {
    let f = run("aq015_tp", "AQ015");
    assert_eq!(f.len(), 2, "{f:#?}");
    // Intra-function: ps + ns.
    assert!(
        f.iter()
            .any(|f| f.path == "crates/core/src/units.rs" && f.message.contains("ps")),
        "{f:#?}"
    );
    // Cross-function: bytes passed to a bits parameter.
    assert!(
        f.iter().any(|f| f.path == "crates/core/src/cross.rs"
            && f.message.contains("bytes")
            && f.message.contains("bits")),
        "{f:#?}"
    );
}

#[test]
fn aq015_clean_golden_has_no_findings() {
    assert!(run("aq015_clean", "AQ015").is_empty());
}

#[test]
fn aq016_detects_shared_state_in_domain_window() {
    let f = run("aq016_tp", "AQ016");
    assert_eq!(f.len(), 3, "{f:#?}");
    // Mutex primitive + .lock() call in qdisc.
    assert_eq!(
        f.iter()
            .filter(|f| f.path == "crates/qdisc/src/queue.rs")
            .count(),
        2,
        "{f:#?}"
    );
    // thread::spawn in transport.
    assert!(
        f.iter()
            .any(|f| f.path == "crates/transport/src/worker.rs" && f.message.contains("spawn")),
        "{f:#?}"
    );
    // All findings mention the reachability entry point.
    assert!(f.iter().all(|f| f.message.contains("run_until")));
}

#[test]
fn aq016_clean_golden_has_no_findings() {
    // Includes an unreachable function holding a lock: the pass is
    // reachability-based, so it must stay silent.
    assert!(run("aq016_clean", "AQ016").is_empty());
}

/// Self-lint: the real workspace must be finding-free — and the full
/// analysis must stay well under the 10 s budget the CI gate assumes.
#[test]
fn real_workspace_is_finding_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (elapsed, findings) = criterion::time_once(|| run_analysis(&root));
    let findings = findings.expect("analysis runs");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{findings:#?}"
    );
    assert!(
        elapsed.as_secs() < 10,
        "full-workspace lint took {elapsed:?}, budget is 10s"
    );
}
