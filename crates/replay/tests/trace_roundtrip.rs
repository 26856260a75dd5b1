//! Writer → reader round trips. The reader shares no code with the emitter,
//! so agreement here is evidence about both: every field of every
//! `TraceEvent` variant must come back from `parse_line` as it went into
//! `write_json` — integers, booleans and strings exactly, floats at the
//! precision they are printed with — on the committed golden stream and on
//! random events.

#[path = "../../telemetry/tests/fixtures/golden_events.rs"]
mod golden_events;

use aequitas_replay::json::Value;
use aequitas_replay::trace::{parse_line, Kind};
use aequitas_telemetry::{NodeKind, TraceEvent};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("../../telemetry/tests/fixtures/trace_v2_golden.jsonl");

/// Parse `line` and check it carries `seq`, `t_ps` and every field of `ev`.
fn assert_recovers(ev: &TraceEvent, seq: u64, t_ps: u64, line: &str) {
    let raw = parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!((raw.seq, raw.t_ps), (seq, t_ps), "{line}");
    assert_eq!(raw.tag, ev.type_tag(), "{line}");
    assert_ne!(raw.kind, Kind::Unknown, "{line}");

    let int = |key: &str, want: u64| assert_eq!(raw.u64(key), Some(want), "'{key}' in {line}");
    let flag = |key: &str, want: bool| assert_eq!(raw.bool(key), Some(want), "'{key}' in {line}");
    let text = |key: &str, want: &str| {
        assert_eq!(raw.str(key).as_deref(), Some(want), "'{key}' in {line}")
    };
    // `{}` prints the shortest digits that parse back to the same f64.
    let exact = |key: &str, want: f64| {
        assert_eq!(
            raw.num(key).map(f64::to_bits),
            Some(want.to_bits()),
            "'{key}' in {line}"
        )
    };
    // `{:.N}` rounds to N decimals: half a unit in the last place.
    let rounded = |key: &str, want: f64, decimals: i32| {
        let got = raw
            .num(key)
            .unwrap_or_else(|| panic!("no number '{key}' in {line}"));
        let half_ulp = 0.5 * 10f64.powi(-decimals);
        assert!(
            (got - want).abs() <= half_ulp * 1.000_001,
            "'{key}' = {got}, wrote {want}: {line}"
        );
    };
    let port = |node: &NodeKind, node_id: &usize, port: &usize| {
        let kind = match node {
            NodeKind::Host => "host",
            NodeKind::Switch => "switch",
        };
        text("node", &format!("{kind}{node_id}"));
        int("port", *port as u64);
    };
    let channel = |host: &usize, dst: &usize| {
        int("host", *host as u64);
        int("dst", *dst as u64);
    };

    match ev {
        TraceEvent::TraceHeader { schema_version } => {
            text("format", "aequitas-trace");
            int("schema_version", u64::from(*schema_version));
        }
        TraceEvent::RunInfo {
            experiment,
            hosts,
            classes,
            weights,
            slos_per_mtu_ps,
            slo_percentile,
            warmup_ps,
            duration_ps,
            senders,
            mu,
            rho,
            period_ps,
        } => {
            text("experiment", experiment);
            int("hosts", u64::from(*hosts));
            int("classes", u64::from(*classes));
            let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                raw.arr("weights", Value::as_f64).map(|w| bits(&w)),
                Some(bits(weights)),
                "{line}"
            );
            assert_eq!(
                raw.arr("slos_per_mtu_ps", Value::as_u64).as_ref(),
                Some(slos_per_mtu_ps),
                "{line}"
            );
            exact("slo_percentile", *slo_percentile);
            int("warmup_ps", *warmup_ps);
            int("duration_ps", *duration_ps);
            int("senders", u64::from(*senders));
            exact("mu", *mu);
            exact("rho", *rho);
            int("period_ps", *period_ps);
        }
        TraceEvent::PktEnqueue {
            node,
            node_id,
            port: p,
            class,
            bytes,
            depth_pkts,
            backlog_bytes,
        } => {
            port(node, node_id, p);
            int("class", *class as u64);
            int("bytes", u64::from(*bytes));
            int("depth_pkts", *depth_pkts as u64);
            int("backlog_bytes", *backlog_bytes);
        }
        TraceEvent::PktDequeue {
            node,
            node_id,
            port: p,
            class,
            bytes,
            backlog_bytes,
        }
        | TraceEvent::PktDrop {
            node,
            node_id,
            port: p,
            class,
            bytes,
            backlog_bytes,
        } => {
            port(node, node_id, p);
            int("class", *class as u64);
            int("bytes", u64::from(*bytes));
            int("backlog_bytes", *backlog_bytes);
        }
        TraceEvent::RpcIssue {
            host,
            dst,
            qos_req,
            qos_run,
            downgraded,
            size_bytes,
            p_admit,
        } => {
            channel(host, dst);
            int("qos_req", u64::from(*qos_req));
            int("qos_run", u64::from(*qos_run));
            flag("downgraded", *downgraded);
            int("size_bytes", *size_bytes);
            rounded("p_admit", *p_admit, 6);
        }
        TraceEvent::RpcComplete {
            host,
            dst,
            qos_run,
            downgraded,
            size_bytes,
            rnl_ps,
            rnl_per_mtu_ps,
        } => {
            channel(host, dst);
            int("qos_run", u64::from(*qos_run));
            flag("downgraded", *downgraded);
            int("size_bytes", *size_bytes);
            int("rnl_ps", *rnl_ps);
            int("rnl_per_mtu_ps", *rnl_per_mtu_ps);
        }
        TraceEvent::CwndUpdate {
            host,
            dst,
            class,
            cwnd,
            rtt_ps,
            target_ps,
            over_target,
        } => {
            channel(host, dst);
            int("class", u64::from(*class));
            rounded("cwnd", *cwnd, 4);
            int("rtt_ps", *rtt_ps);
            int("target_ps", *target_ps);
            flag("over_target", *over_target);
        }
        TraceEvent::Retransmit {
            host,
            dst,
            class,
            msg_id,
            seq: segment,
        } => {
            channel(host, dst);
            int("class", u64::from(*class));
            int("msg_id", *msg_id);
            // The segment's `seq` follows the line's leading one; lookup by
            // key sees only the fields after the lead.
            int("seq", u64::from(*segment));
        }
        TraceEvent::AdmitProb {
            host,
            dst,
            qos,
            p,
            delta,
        } => {
            channel(host, dst);
            int("qos", u64::from(*qos));
            rounded("p", *p, 6);
            rounded("delta", *delta, 6);
        }
        TraceEvent::FaultLinkDown {
            node,
            node_id,
            port: p,
            until_ps,
        } => {
            port(node, node_id, p);
            int("until_ps", *until_ps);
        }
        TraceEvent::FaultLinkUp {
            node,
            node_id,
            port: p,
        } => port(node, node_id, p),
        TraceEvent::FaultPktDrop {
            node,
            node_id,
            port: p,
            class,
            bytes,
            corrupt,
        } => {
            port(node, node_id, p);
            int("class", *class as u64);
            int("bytes", u64::from(*bytes));
            flag("corrupt", *corrupt);
        }
        TraceEvent::FaultQuotaOutage { host, down } => {
            int("host", *host as u64);
            flag("down", *down);
        }
        TraceEvent::Warn { component, message } => {
            text("component", component);
            text("message", message);
        }
    }
}

#[test]
fn reader_recovers_every_field_of_the_golden_stream() {
    let events = golden_events::golden_events();
    assert_eq!(GOLDEN.lines().count(), events.len());
    for ((seq, t_ps, ev), line) in events.iter().zip(GOLDEN.lines()) {
        assert_recovers(ev, *seq, *t_ps, line);
    }
    // All fifteen kinds are in the fixture, each resolved to itself.
    let mut kinds: Vec<_> = GOLDEN
        .lines()
        .map(|l| parse_line(l).unwrap().kind as usize)
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds, (0..Kind::KNOWN.len()).collect::<Vec<_>>());
}

/// Build an event of variant `which` from raw material: integer words `w`
/// (each already scaled to a random magnitude), unit floats `f`, and text.
fn event_from(which: usize, w: &[u64], f: &[f64], text: &[String]) -> TraceEvent {
    let node = if w[0] & 1 == 0 {
        NodeKind::Host
    } else {
        NodeKind::Switch
    };
    let flag = w[1] & 1 == 1;
    let (a, b, c, d, e) = (w[2], w[3], w[4], w[5], w[6]);
    match which % 15 {
        0 => TraceEvent::TraceHeader {
            schema_version: a as u32,
        },
        1 => TraceEvent::RunInfo {
            experiment: text[0].clone(),
            hosts: a as u32,
            classes: b as u32,
            // Signed, and over many orders of magnitude.
            weights: f
                .iter()
                .map(|x| (x - 0.5) * 10f64.powi((c % 40) as i32 - 20))
                .collect(),
            slos_per_mtu_ps: w.to_vec(),
            slo_percentile: f[0] * 100.0,
            warmup_ps: d,
            duration_ps: e,
            senders: w[7] as u32,
            mu: f[1],
            rho: f[2] * 2.0,
            period_ps: w[8],
        },
        2 => TraceEvent::PktEnqueue {
            node,
            node_id: a as usize,
            port: b as usize,
            class: c as usize,
            bytes: d as u32,
            depth_pkts: e as usize,
            backlog_bytes: w[7],
        },
        3 => TraceEvent::PktDequeue {
            node,
            node_id: a as usize,
            port: b as usize,
            class: c as usize,
            bytes: d as u32,
            backlog_bytes: e,
        },
        4 => TraceEvent::PktDrop {
            node,
            node_id: a as usize,
            port: b as usize,
            class: c as usize,
            bytes: d as u32,
            backlog_bytes: e,
        },
        5 => TraceEvent::RpcIssue {
            host: a as usize,
            dst: b as usize,
            qos_req: c as u8,
            qos_run: d as u8,
            downgraded: flag,
            size_bytes: e,
            p_admit: f[0],
        },
        6 => TraceEvent::RpcComplete {
            host: a as usize,
            dst: b as usize,
            qos_run: c as u8,
            downgraded: flag,
            size_bytes: d,
            rnl_ps: e,
            rnl_per_mtu_ps: w[7],
        },
        7 => TraceEvent::CwndUpdate {
            host: a as usize,
            dst: b as usize,
            class: c as u8,
            cwnd: f[0] * 4096.0,
            rtt_ps: d,
            target_ps: e,
            over_target: flag,
        },
        8 => TraceEvent::Retransmit {
            host: a as usize,
            dst: b as usize,
            class: c as u8,
            msg_id: d,
            seq: e as u32,
        },
        9 => TraceEvent::AdmitProb {
            host: a as usize,
            dst: b as usize,
            qos: c as u8,
            p: f[0],
            delta: f[1] - f[2],
        },
        10 => TraceEvent::FaultLinkDown {
            node,
            node_id: a as usize,
            port: b as usize,
            until_ps: c,
        },
        11 => TraceEvent::FaultLinkUp {
            node,
            node_id: a as usize,
            port: b as usize,
        },
        12 => TraceEvent::FaultPktDrop {
            node,
            node_id: a as usize,
            port: b as usize,
            class: c as usize,
            bytes: d as u32,
            corrupt: flag,
        },
        13 => TraceEvent::FaultQuotaOutage {
            host: a as usize,
            down: flag,
        },
        _ => TraceEvent::Warn {
            component: text[0].clone(),
            message: text[1].clone(),
        },
    }
}

/// Text from `(class, code)` pairs: control characters, the characters the
/// writer escapes, printable ASCII, and any scalar value, a quarter each.
fn text_from(codes: &[(u32, u32)]) -> String {
    codes
        .iter()
        .map(|&(class, code)| match class {
            0 => char::from_u32(code % 0x20).unwrap_or('?'),
            1 => ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'][code as usize % 8],
            2 => char::from_u32(0x20 + code % 0x5f).unwrap_or('?'),
            // Surrogate code points are not chars; U+FFFD stands in.
            _ => char::from_u32(code).unwrap_or('\u{fffd}'),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Random event → `write_json` → `parse_line` gives back equal
    /// integers, booleans and strings, and floats equal at the printed
    /// precision.
    #[test]
    fn random_events_round_trip(
        which in 0usize..15,
        words in proptest::collection::vec((0u64..u64::MAX, 0u32..64), 9..10),
        floats in proptest::collection::vec(0.0f64..1.0, 3..8),
        codes in proptest::collection::vec(
            proptest::collection::vec((0u32..4, 0u32..0x11_0000), 0..24),
            2..3,
        ),
        stamp in (0u64..u64::MAX, 0u32..64, 0u64..u64::MAX, 0u32..64),
    ) {
        let words: Vec<u64> = words.iter().map(|&(w, shift)| w >> shift).collect();
        let text: Vec<String> = codes.iter().map(|c| text_from(c)).collect();
        let ev = event_from(which, &words, &floats, &text);
        let (seq, t_ps) = (stamp.0 >> stamp.1, stamp.2 >> stamp.3);
        let line = ev.to_json(seq, t_ps);
        assert_recovers(&ev, seq, t_ps, &line);
    }
}
