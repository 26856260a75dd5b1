//! The `aequitas-replay` binary as a shell sees it: every usage error exits
//! 2 with a message naming what is wrong, before any trace is read.

use std::process::{Command, Output};

fn replay(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aequitas-replay"))
        .args(args)
        .output()
        .expect("spawn aequitas-replay")
}

/// Exit status 2 and a stderr containing each of `needles`.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let out = replay(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: no {needle:?} in {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

/// A trace path that does not exist: reaching it would be a different error.
const NO_TRACE: &str = "/nonexistent/aequitas-replay-cli/t.jsonl";

#[test]
fn an_unknown_flag_is_refused_with_the_usage() {
    assert_usage_error(
        &["audit", "--trace", NO_TRACE, "--bound_tol", "0.5"],
        &["unknown flag '--bound_tol'", "usage:"],
    );
    // A flag of another subcommand is unknown here too.
    assert_usage_error(
        &["replay", "--trace", NO_TRACE, "--baseline", "a"],
        &["unknown flag '--baseline'"],
    );
    assert_usage_error(&["schema", "--json", "x"], &["unknown flag '--json'"]);
}

#[test]
fn a_flag_without_a_value_is_refused() {
    let dir = std::env::temp_dir().join("aequitas-replay-cli-novalue");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("out.json");
    // `--json` last, and `--json` followed by another flag.
    assert_usage_error(
        &["audit", "--trace", NO_TRACE, "--json"],
        &["--json needs a value", "usage:"],
    );
    let json_arg = json.to_str().unwrap();
    assert_usage_error(
        &["audit", "--json", "--trace", NO_TRACE, json_arg],
        &["--json needs a value"],
    );
    assert!(!json.exists());
}

#[test]
fn a_stray_positional_is_refused_before_the_trace_is_read() {
    assert_usage_error(
        &["audit", "--trace", NO_TRACE, "stray"],
        &["unexpected argument 'stray'"],
    );
    assert_usage_error(
        &["replay", "stray", "--trace", NO_TRACE],
        &["unexpected argument 'stray'"],
    );
}

#[test]
fn an_overflowing_period_is_refused_by_name() {
    // u64::MAX ps is 18 446 744 073 709 us and a little more.
    assert_usage_error(
        &[
            "audit",
            "--trace",
            NO_TRACE,
            "--period-us",
            "18446744073710",
        ],
        &["--period-us", "overflows"],
    );
    // The largest period that fits gets past the options to the trace.
    let out = replay(&[
        "audit",
        "--trace",
        NO_TRACE,
        "--period-us",
        "18446744073709",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot open trace"), "{stderr}");
}
