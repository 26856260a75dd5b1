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
