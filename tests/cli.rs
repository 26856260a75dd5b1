//! The `aequitas-sim` binary as a shell pipeline sees it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// `aequitas-sim run all | head -1`: the reader leaves after one line. The
/// run must then end quietly, with no panic text and not with the panic
/// status 101, but with 141, as if SIGPIPE had killed it. `run all` keeps
/// printing for seconds after its first line, so the next write after the
/// reader closes always meets the broken pipe.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aequitas-sim"))
        .args(["run", "all", "--threads", "1"])
        .env_remove("RUST_BACKTRACE")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn aequitas-sim");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first line");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for aequitas-sim");
    assert!(
        !stderr.contains("panicked"),
        "panic text on stderr:\n{stderr}"
    );
    assert_eq!(status.code(), Some(141), "stderr:\n{stderr}");
}

/// `--sample-us` past what the picosecond clock holds (u64::MAX ps is
/// 18 446 744 073 709 us and a little more) is a usage error naming the
/// flag, not a period that silently wraps to under a microsecond.
#[test]
fn an_overflowing_sample_period_is_a_usage_error() {
    let run = |us: &str| {
        let metrics = std::env::temp_dir().join(format!("aequitas-sim-cli-sample-{us}.csv"));
        Command::new(env!("CARGO_BIN_EXE_aequitas-sim"))
            .args(["run", "trace-demo", "--metrics"])
            .arg(&metrics)
            .args(["--sample-us", us])
            .output()
            .expect("spawn aequitas-sim")
    };
    let out = run("18446744073710");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--sample-us") && stderr.contains("overflows"),
        "{stderr}"
    );
    let out = run("18446744073709");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The sharded engine writes no trace: `fleet-scale` with `--trace`,
/// `--metrics` or `--audit` fails with a message naming the limitation
/// instead of exiting 0 with an empty trace and no audit.
#[test]
fn telemetry_on_the_sharded_engine_is_refused() {
    let dir = std::env::temp_dir();
    let trace = dir.join("aequitas-sim-cli-sharded.jsonl");
    let metrics = dir.join("aequitas-sim-cli-sharded.csv");
    for flags in [
        vec!["--trace".as_ref(), trace.as_os_str()],
        vec!["--metrics".as_ref(), metrics.as_os_str()],
        vec!["--trace".as_ref(), trace.as_os_str(), "--audit".as_ref()],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_aequitas-sim"))
            .args(["run", "fleet-scale", "--threads", "1"])
            .args(&flags)
            .output()
            .expect("spawn aequitas-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: stderr:\n{stderr}");
        assert!(stderr.contains("sharded engine"), "{flags:?}: {stderr}");
    }
}
