//! No trace a user can hand to `aequitas-replay` may panic it (the library
//! denies `clippy::unwrap_used` and `clippy::expect_used`): a mutation fuzzer
//! over a short trace the real writer produced. Every mutant either reconstructs — with each damaged line
//! counted in `Integrity` — or is refused with an error; the audit of
//! whatever was reconstructed must not panic either. The suite runs with
//! overflow checks on, so a wrapped sum is a failure here too.

use aequitas_replay::audit::audit;
use aequitas_replay::trace::parse_line;
use aequitas_replay::{AuditOptions, Reconstruction};
use aequitas_telemetry::{NodeKind, TraceEvent, TRACE_SCHEMA_VERSION};

/// A small but complete trace: header, run parameters, two queued packets
/// through a switch port, an RPC, an admit-probability move, a fault window
/// and a diagnostic — every family `Reconstruction::apply` has an arm for.
fn seed_trace() -> Vec<String> {
    let (node, node_id, port) = (NodeKind::Switch, 0, 2);
    let events = vec![
        TraceEvent::TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
        },
        TraceEvent::RunInfo {
            experiment: "hostile".into(),
            hosts: 3,
            classes: 2,
            weights: vec![4.0, 1.0],
            slos_per_mtu_ps: vec![1_875_000, 0],
            slo_percentile: 99.9,
            warmup_ps: 0,
            duration_ps: 10_000_000,
            senders: 2,
            mu: 0.8,
            rho: 1.2,
            period_ps: 100_000_000,
        },
        TraceEvent::RpcIssue {
            host: 0,
            dst: 2,
            qos_req: 0,
            qos_run: 1,
            downgraded: true,
            size_bytes: 8320,
            p_admit: 0.5,
        },
        TraceEvent::PktEnqueue {
            node,
            node_id,
            port,
            class: 1,
            bytes: 4160,
            depth_pkts: 1,
            backlog_bytes: 4160,
        },
        TraceEvent::PktEnqueue {
            node,
            node_id,
            port,
            class: 1,
            bytes: 4160,
            depth_pkts: 2,
            backlog_bytes: 8320,
        },
        TraceEvent::PktDequeue {
            node,
            node_id,
            port,
            class: 1,
            bytes: 4160,
            backlog_bytes: 4160,
        },
        TraceEvent::CwndUpdate {
            host: 0,
            dst: 2,
            class: 1,
            cwnd: 12.5,
            rtt_ps: 9_000_000,
            target_ps: 8_000_000,
            over_target: true,
        },
        TraceEvent::FaultLinkDown {
            node,
            node_id,
            port,
            until_ps: 5_000_000,
        },
        TraceEvent::FaultPktDrop {
            node,
            node_id,
            port,
            class: 1,
            bytes: 4160,
            corrupt: true,
        },
        TraceEvent::FaultLinkUp {
            node,
            node_id,
            port,
        },
        TraceEvent::PktDequeue {
            node,
            node_id,
            port,
            class: 1,
            bytes: 4160,
            backlog_bytes: 0,
        },
        TraceEvent::PktDrop {
            node: NodeKind::Host,
            node_id: 1,
            port: 0,
            class: 0,
            bytes: 4160,
            backlog_bytes: 0,
        },
        TraceEvent::Retransmit {
            host: 0,
            dst: 2,
            class: 1,
            msg_id: 7,
            seq: 1,
        },
        TraceEvent::RpcComplete {
            host: 0,
            dst: 2,
            qos_run: 1,
            downgraded: true,
            size_bytes: 8320,
            rnl_ps: 6_000_000,
            rnl_per_mtu_ps: 3_000_000,
        },
        TraceEvent::AdmitProb {
            host: 0,
            dst: 2,
            qos: 0,
            p: 0.49,
            delta: -0.01,
        },
        TraceEvent::FaultQuotaOutage {
            host: 1,
            down: true,
        },
        TraceEvent::Warn {
            component: "fuzz".into(),
            message: "tab\there".into(),
        },
    ];
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| ev.to_json(i as u64, i as u64 * 500_000))
        .collect()
}

/// Reconstruct and audit `bytes`; panics are the failure this test exists
/// for. Only damage to the header line may get a trace refused; behind an
/// intact header every line must be accounted for: each is an event, a
/// counted parse error, or (a parsed line missing a field) both.
fn exercise(bytes: &[u8]) {
    let mut recon = match Reconstruction::from_reader(bytes) {
        Ok(recon) => recon,
        Err(e) => {
            let header = seed_trace().swap_remove(0) + "\n";
            assert!(
                !bytes.starts_with(header.as_bytes()),
                "refused behind a good header: {e}"
            );
            return;
        }
    };
    let lines = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !matches!(l, [] | [b'\r']))
        .count() as u64;
    let (events, errors) = (recon.events, recon.integrity.parse_errors);
    assert!(events <= lines, "{events} events from {lines} lines");
    assert!(
        events + errors >= lines,
        "{lines} lines, but only {events} events + {errors} parse errors: {:?}",
        String::from_utf8_lossy(bytes)
    );
    let report = audit(&mut recon, &AuditOptions::default());
    assert!(!report.checks.is_empty());
}

#[test]
fn the_seed_trace_itself_is_clean() {
    let text = seed_trace().join("\n") + "\n";
    let recon = Reconstruction::from_reader(text.as_bytes()).unwrap();
    assert_eq!(recon.events, seed_trace().len() as u64);
    assert_eq!(recon.integrity.parse_errors, 0, "{:?}", recon.integrity);
    assert_eq!(recon.integrity.unknown_kinds, 0);
    exercise(text.as_bytes());
}

#[test]
fn truncation_at_every_byte_never_panics() {
    let text = seed_trace().join("\n") + "\n";
    for cut in 0..text.len() {
        exercise(&text.as_bytes()[..cut]);
    }
}

#[test]
fn swapping_adjacent_bytes_never_panics() {
    let text = seed_trace().join("\n") + "\n";
    let mut bytes = text.into_bytes();
    for at in 0..bytes.len() - 1 {
        bytes.swap(at, at + 1);
        exercise(&bytes);
        bytes.swap(at, at + 1);
    }
}

#[test]
fn flipping_any_byte_to_a_hostile_one_never_panics() {
    let text = seed_trace().join("\n") + "\n";
    let mut bytes = text.into_bytes();
    for at in 0..bytes.len() {
        let original = bytes[at];
        for hostile in [0x00, 0xff, 0x80, b'"', b'\\', b'{', b'[', b'\n', b'9'] {
            bytes[at] = hostile;
            exercise(&bytes);
        }
        bytes[at] = original;
    }
}

/// Replace, one at a time, the value of every field of every line after the
/// header with each hostile token: numerics of 20 and more digits (at, just
/// past and far past `u64::MAX`), signs, fractions and huge exponents where
/// integers belong, unterminated strings, a lone surrogate escape, raw NUL
/// and control bytes, nested arrays and objects.
#[test]
fn splicing_hostile_values_never_panics() {
    const HOSTILE: [&str; 17] = [
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999",
        "00000000000000000000000001",
        "-1",
        "1.5",
        "1e400",
        "-0.0000000000000000000000001",
        "\"\\ud800\"",
        "\"unterminated",
        "\"nul\0inside\"",
        "\"\\u0000\"",
        "[[1],[2]]",
        "[1,[2,[3,[4]]]]",
        "{\"a\":{\"b\":1}}",
        "null",
        "",
    ];
    let seed = seed_trace();
    let mut mutants = 0;
    for (victim, line) in seed.iter().enumerate().skip(1) {
        // The seed's strings hold no ',' or ':' (arrays do: a split element
        // is just one more malformed value), so a flat split finds fields.
        let body = &line[1..line.len() - 1];
        let fields: Vec<&str> = body.split(',').collect();
        for (at, field) in fields.iter().enumerate() {
            let Some((key, _)) = field.split_once(':') else {
                continue;
            };
            for hostile in HOSTILE {
                let mut spliced = fields.clone();
                let replacement = format!("{key}:{hostile}");
                spliced[at] = &replacement;
                let mutant = format!("{{{}}}", spliced.join(","));
                // The line on its own...
                let _ = parse_line(&mutant);
                // ...and in its trace.
                let mut trace = seed.clone();
                trace[victim] = mutant;
                exercise((trace.join("\n") + "\n").as_bytes());
                mutants += 1;
            }
        }
    }
    assert!(mutants > 1500, "only {mutants} mutants");
}

/// Two maximal byte counts in one queue, one class: sums saturate instead
/// of wrapping (release) or panicking (overflow checks).
#[test]
fn maximal_integers_saturate() {
    let seed = seed_trace();
    let max = u64::MAX.to_string();
    let trace: Vec<String> = seed
        .iter()
        .map(|l| {
            l.replace("\"bytes\":4160", &format!("\"bytes\":{max}"))
                .replace("\"size_bytes\":8320", &format!("\"size_bytes\":{max}"))
        })
        .chain(seed.iter().skip(2).take(1).map(|l| l.replace("8320", &max)))
        .collect();
    let text = trace.join("\n") + "\n";
    let recon = Reconstruction::from_reader(text.as_bytes()).unwrap();
    assert_eq!(recon.qos[&1].issued_bytes, u64::MAX);
    let port = recon.ports.values().find(|p| p.enq_pkts == 2).unwrap();
    assert_eq!(port.enq_bytes(), u64::MAX);
    exercise(text.as_bytes());
}

/// Timestamps are the trace's to choose: two QoS-0 completions 1.8e19 ps
/// apart behind the seed's fault and QoS-0 SLO would ask the recovery
/// timeline for ~3.6e10 windows. The text report says it did not compute
/// recovery instead.
#[test]
fn a_completion_span_past_the_window_limit_is_reported_not_materialised() {
    let mut trace = seed_trace();
    for t_ps in [0, 18_000_000_000_000_000_000] {
        let seq = trace.len() as u64;
        let line = TraceEvent::RpcComplete {
            host: 0,
            dst: 2,
            qos_run: 0,
            downgraded: false,
            size_bytes: 4160,
            rnl_ps: 2_000_000,
            rnl_per_mtu_ps: 2_000_000,
        };
        trace.push(line.to_json(seq, t_ps));
    }
    let text = trace.join("\n") + "\n";
    let mut recon = Reconstruction::from_reader(text.as_bytes()).unwrap();
    assert_eq!(recon.qos_rnl_points[&0].len(), 2);
    let report = audit(&mut recon, &AuditOptions::default());
    let out = aequitas_replay::report::report_text(&mut recon, &report);
    assert!(
        out.contains("qos0: recovery not computed: completions span more than 1048576 windows"),
        "{out}"
    );
}

/// Completions in the last 500 us windows of u64 time: a window's end
/// would pass `u64::MAX`, so the recovery timeline saturates it instead
/// of wrapping (release) or panicking (overflow checks). Both windows miss
/// the seed's QoS-0 SLO, so the report says the SLO was never restored.
#[test]
fn completions_at_the_end_of_time_do_not_overflow_the_recovery_timeline() {
    let mut trace = seed_trace();
    for t_ps in [18_446_744_073_000_000_000, 18_446_744_073_600_000_000] {
        let seq = trace.len() as u64;
        let line = TraceEvent::RpcComplete {
            host: 0,
            dst: 2,
            qos_run: 0,
            downgraded: false,
            size_bytes: 4160,
            rnl_ps: 2_000_000,
            rnl_per_mtu_ps: 2_000_000,
        };
        trace.push(line.to_json(seq, t_ps));
    }
    let text = trace.join("\n") + "\n";
    let mut recon = Reconstruction::from_reader(text.as_bytes()).unwrap();
    assert_eq!(recon.qos_rnl_points[&0].len(), 2);
    let report = audit(&mut recon, &AuditOptions::default());
    let out = aequitas_replay::report::report_text(&mut recon, &report);
    assert!(
        out.contains("qos0: SLO NOT restored within the trace"),
        "{out}"
    );
    exercise(text.as_bytes());
}
