//! The events behind `trace_v2_golden.jsonl`: every `TraceEvent` variant at
//! its boundary values (0, the integer maxima, `p` = 0 and 1, negative and
//! `-0.0` deltas, strings exercising every JSON escape, control characters
//! and non-ASCII). Shared, via `#[path]`, by the writer test in this crate
//! and the reader test in `crates/replay` (which cannot be a dev-dependency
//! here without a cycle). The fixture was written by the serializer as it
//! stood before the hand-formatted writer replaced `core::fmt`, so the two
//! tests together pin the v2 stream byte for byte.

use aequitas_telemetry::{NodeKind, TraceEvent, TRACE_SCHEMA_VERSION};

/// Every escape class the writer knows: the two-character escapes, a
/// `\u00XX` control character at each end of the range, DEL (not escaped),
/// and multi-byte UTF-8 up to four bytes.
pub const NASTY: &str = "q\"b\\s/n\nr\rt\tbs\u{8}ff\u{c}nul\u{0}us\u{1f}del\u{7f}é✓𝄞";

/// `(seq, t_ps, event)` triples, in fixture line order.
pub fn golden_events() -> Vec<(u64, u64, TraceEvent)> {
    use NodeKind::{Host, Switch};
    let events = vec![
        TraceEvent::TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
        },
        TraceEvent::TraceHeader {
            schema_version: u32::MAX,
        },
        TraceEvent::RunInfo {
            experiment: String::new(),
            hosts: 0,
            classes: 0,
            weights: vec![],
            slos_per_mtu_ps: vec![],
            slo_percentile: 0.0,
            warmup_ps: 0,
            duration_ps: 0,
            senders: 0,
            mu: 0.0,
            rho: 0.0,
            period_ps: 0,
        },
        TraceEvent::RunInfo {
            experiment: NASTY.into(),
            hosts: u32::MAX,
            classes: u32::MAX,
            weights: vec![8.0, 4.5, 1e21, 1e-7, -0.0],
            slos_per_mtu_ps: vec![0, 1_875_000, u64::MAX],
            slo_percentile: 99.9,
            warmup_ps: u64::MAX,
            duration_ps: u64::MAX,
            senders: u32::MAX,
            mu: 0.8,
            rho: 1.4,
            period_ps: u64::MAX,
        },
        TraceEvent::PktEnqueue {
            node: Host,
            node_id: 0,
            port: 0,
            class: 0,
            bytes: 0,
            depth_pkts: 0,
            backlog_bytes: 0,
        },
        TraceEvent::PktEnqueue {
            node: Switch,
            node_id: usize::MAX,
            port: usize::MAX,
            class: usize::MAX,
            bytes: u32::MAX,
            depth_pkts: usize::MAX,
            backlog_bytes: u64::MAX,
        },
        TraceEvent::PktDequeue {
            node: Switch,
            node_id: 0,
            port: 0,
            class: 0,
            bytes: 0,
            backlog_bytes: 0,
        },
        TraceEvent::PktDequeue {
            node: Host,
            node_id: usize::MAX,
            port: usize::MAX,
            class: usize::MAX,
            bytes: u32::MAX,
            backlog_bytes: u64::MAX,
        },
        TraceEvent::PktDrop {
            node: Host,
            node_id: 32,
            port: 0,
            class: 2,
            bytes: 4160,
            backlog_bytes: 0,
        },
        TraceEvent::PktDrop {
            node: Switch,
            node_id: usize::MAX,
            port: usize::MAX,
            class: usize::MAX,
            bytes: u32::MAX,
            backlog_bytes: u64::MAX,
        },
        TraceEvent::RpcIssue {
            host: 0,
            dst: 0,
            qos_req: 0,
            qos_run: 0,
            downgraded: false,
            size_bytes: 0,
            p_admit: 0.0,
        },
        TraceEvent::RpcIssue {
            host: usize::MAX,
            dst: usize::MAX,
            qos_req: u8::MAX,
            qos_run: u8::MAX,
            downgraded: true,
            size_bytes: u64::MAX,
            p_admit: 1.0,
        },
        TraceEvent::RpcComplete {
            host: 0,
            dst: 0,
            qos_run: 0,
            downgraded: false,
            size_bytes: 0,
            rnl_ps: 0,
            rnl_per_mtu_ps: 0,
        },
        TraceEvent::RpcComplete {
            host: usize::MAX,
            dst: usize::MAX,
            qos_run: u8::MAX,
            downgraded: true,
            size_bytes: u64::MAX,
            rnl_ps: u64::MAX,
            rnl_per_mtu_ps: u64::MAX,
        },
        TraceEvent::CwndUpdate {
            host: 0,
            dst: 0,
            class: 0,
            cwnd: 0.0,
            rtt_ps: 0,
            target_ps: 0,
            over_target: false,
        },
        TraceEvent::CwndUpdate {
            host: usize::MAX,
            dst: usize::MAX,
            class: u8::MAX,
            cwnd: 1_234.567_89,
            rtt_ps: u64::MAX,
            target_ps: u64::MAX,
            over_target: true,
        },
        TraceEvent::Retransmit {
            host: 0,
            dst: 0,
            class: 0,
            msg_id: 0,
            seq: 0,
        },
        TraceEvent::Retransmit {
            host: usize::MAX,
            dst: usize::MAX,
            class: u8::MAX,
            // (host << 32) | n on a large fabric: above 2^53.
            msg_id: (1 << 53) + 1,
            seq: u32::MAX,
        },
        TraceEvent::AdmitProb {
            host: 0,
            dst: 0,
            qos: 0,
            p: 0.0,
            delta: -0.0,
        },
        TraceEvent::AdmitProb {
            host: usize::MAX,
            dst: usize::MAX,
            qos: u8::MAX,
            p: 1.0,
            delta: -0.125,
        },
        TraceEvent::AdmitProb {
            host: 7,
            dst: 9,
            qos: 1,
            p: 0.123_456_789,
            delta: -1e-9,
        },
        TraceEvent::FaultLinkDown {
            node: Host,
            node_id: 0,
            port: 0,
            until_ps: 0,
        },
        TraceEvent::FaultLinkDown {
            node: Switch,
            node_id: usize::MAX,
            port: usize::MAX,
            until_ps: u64::MAX,
        },
        TraceEvent::FaultLinkUp {
            node: Host,
            node_id: 0,
            port: 0,
        },
        TraceEvent::FaultLinkUp {
            node: Switch,
            node_id: usize::MAX,
            port: usize::MAX,
        },
        TraceEvent::FaultPktDrop {
            node: Host,
            node_id: 0,
            port: 0,
            class: 0,
            bytes: 0,
            corrupt: false,
        },
        TraceEvent::FaultPktDrop {
            node: Switch,
            node_id: usize::MAX,
            port: usize::MAX,
            class: usize::MAX,
            bytes: u32::MAX,
            corrupt: true,
        },
        TraceEvent::FaultQuotaOutage {
            host: 0,
            down: false,
        },
        TraceEvent::FaultQuotaOutage {
            host: usize::MAX,
            down: true,
        },
        TraceEvent::Warn {
            component: String::new(),
            message: String::new(),
        },
        TraceEvent::Warn {
            component: NASTY.into(),
            message: (0u8..0x20).map(char::from).collect(),
        },
    ];
    // seq/t_ps walk their own boundaries: 0, small, 2^53 + 1 (where an f64
    // reader starts rounding) and u64::MAX.
    let stamps = [
        (0, 0),
        (1, 1_000_000),
        ((1 << 53) + 1, (1 << 53) + 1),
        (u64::MAX, u64::MAX),
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, ev)| {
            let (seq, t_ps) = stamps[i % stamps.len()];
            (seq, t_ps, ev)
        })
        .collect()
}

/// Declaration-order index of `ev`'s variant. The `match` has no wildcard
/// arm: a new `TraceEvent` variant does not compile until it is listed here,
/// and `trace_golden.rs` then fails until [`golden_events`] (and with it the
/// fixture) has its lines. A new or renamed field fails there too, as a
/// byte difference from the fixture.
#[allow(dead_code, reason = "only trace_golden.rs checks coverage")]
pub fn variant_index(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::TraceHeader { .. } => 0,
        TraceEvent::RunInfo { .. } => 1,
        TraceEvent::PktEnqueue { .. } => 2,
        TraceEvent::PktDequeue { .. } => 3,
        TraceEvent::PktDrop { .. } => 4,
        TraceEvent::RpcIssue { .. } => 5,
        TraceEvent::RpcComplete { .. } => 6,
        TraceEvent::CwndUpdate { .. } => 7,
        TraceEvent::Retransmit { .. } => 8,
        TraceEvent::AdmitProb { .. } => 9,
        TraceEvent::FaultLinkDown { .. } => 10,
        TraceEvent::FaultLinkUp { .. } => 11,
        TraceEvent::FaultPktDrop { .. } => 12,
        TraceEvent::FaultQuotaOutage { .. } => 13,
        TraceEvent::Warn { .. } => 14,
    }
}

/// How many arms [`variant_index`] has.
#[allow(dead_code, reason = "only trace_golden.rs checks coverage")]
pub const VARIANTS: usize = 15;
