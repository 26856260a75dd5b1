//! The benchmark's metric and workload tables. `BENCHMARK.json` at the
//! repository root carries the same names, units, directions and bounds; a
//! unit test holds the two together.

use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The two kinds of number. *Host* is wall clock or memory of the simulator
/// process: noisy. *Sim* is a statistic of the simulated network: a pure
/// function of seed and code, repeating exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured on the host.
    Host,
    /// Computed from the simulated network.
    Sim,
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Host or Sim.
    pub kind: Kind,
}

/// The end-to-end metrics, reported on every workload. A bound is three
/// times the widest spread (quartile distance over median) ten runs with
/// ten seeds showed on any workload, capped at the contract's 0.25: the
/// host metrics drift that much on a shared sandbox, and the Sim bounds are
/// set by `star33_deadline` (terminations swing with the seed) and the
/// 1.5 ms `star33_traced_audit` slice (all start-up transient).
pub const END_TO_END: [EndToEnd; 9] = [
    // Topology + plan parse + agents + engine build + on_start, median of
    // 5 ms samples of back-to-back builds taken before every repetition.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    // Engine ready to statistics computed, median of repetitions.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    // Completed operations (RPCs; packets on fabric_raw) per host second.
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
    },
    // VmHWM of the process at exit.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        kind: Kind::Host,
    },
    // Acknowledged payload per simulated second after the stats start.
    EndToEnd {
        name: "goodput_gbps",
        unit: "Gbit/s",
        better: Better::Higher,
        bound: 0.13,
        kind: Kind::Sim,
    },
    // 1 - failed_frac: operations not failed, terminated or dropped over
    // operations attempted (never 0, which failed_frac is on four workloads).
    EndToEnd {
        name: "ok_frac",
        unit: "frac",
        better: Better::Higher,
        bound: 0.05,
        kind: Kind::Sim,
    },
    // 99th-percentile latency of performance-critical operations that ran on
    // their requested class: the highest percentile with ten samples beyond
    // it on every workload (the 99.9th is printed beside it).
    EndToEnd {
        name: "pc_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Sim,
    },
    // Share of those operations within the workload's SLO.
    EndToEnd {
        name: "pc_slo_attain_frac",
        unit: "frac",
        better: Better::Higher,
        bound: 0.22,
        kind: Kind::Sim,
    },
    // Share of performance-critical bytes completed on the class asked for.
    EndToEnd {
        name: "pc_admitted_share",
        unit: "frac",
        better: Better::Higher,
        bound: 0.09,
        kind: Kind::Sim,
    },
];

/// A per-layer metric. The layer is the part of the name before the first
/// dot: a crate directory, or `benchmark` for the harness's own overhead.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const EVERYWHERE: &str = "wall_s on every workload";
const COUNT: &str = "exact count; multiplies the unit costs of its layer";
const FABRIC_UNIT: &str = "wall_s, times netsim.fabric_events: fabric_raw first";
const RPC_UNIT: &str = "wall_s, times core.decisions: star33_rpc1k first";
const TRACE_UNIT: &str = "wall_s, times telemetry.trace_lines: star33_traced_audit only";
const SHARD: &str = "wall_s on clos128_sharded only";
const AUDIT: &str = "wall_s and peak_rss_mb on star33_traced_audit only";
const DEADLINE: &str = "wall_s on star33_deadline only";

/// The per-layer metrics, reported on every workload by the span-traced
/// run. One that does not apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 78] = [
    // Spans from the traced run.
    lower(
        "netsim.fabric_self_s",
        "s",
        "wall_s everywhere: all of fabric_raw, most of star33_rpc32k",
    ),
    lower(
        "rpc.agent_self_s",
        "s",
        "wall_s: star33_rpc1k most, star33_rpc32k less, 0 on fabric_raw",
    ),
    lower("baselines.agent_self_s", "s", DEADLINE),
    lower(
        "rpc.on_packet_ns",
        "ns",
        "rpc.agent_self_s, times netsim.host_arrivals",
    ),
    lower(
        "rpc.on_timer_ns",
        "ns",
        "rpc.agent_self_s, times netsim.timers",
    ),
    lower("experiments.harvest_s", "s", "wall_s, small"),
    lower(
        "benchmark.span_overhead_ratio",
        "ratio",
        "nothing: the price of the spans themselves",
    ),
    // Exact counts.
    lower("netsim.events", "count", COUNT),
    lower("netsim.host_arrivals", "count", COUNT),
    lower("netsim.timers", "count", COUNT),
    lower("netsim.fabric_events", "count", COUNT),
    lower("netsim.switch_tx_pkts", "count", COUNT),
    lower("netsim.nic_tx_pkts", "count", COUNT),
    lower("netsim.buffer_drops", "count", "ok_frac on fabric_raw"),
    lower("netsim.max_backlog_bytes", "bytes", "pc_p99_us"),
    higher("rpc.issued", "count", COUNT),
    higher("rpc.completed", "count", "ops_per_s, goodput_gbps"),
    lower("rpc.failed", "count", "ok_frac on star33_faults"),
    lower(
        "rpc.retries",
        "count",
        "wall_s and pc_p99_us on star33_faults",
    ),
    lower("rpc.outstanding_at_end", "count", "goodput_gbps"),
    lower("core.decisions", "count", COUNT),
    lower("core.downgraded", "count", "pc_admitted_share"),
    lower("transport.sent_segments", "count", COUNT),
    lower(
        "transport.retransmits",
        "count",
        "wall_s and goodput_gbps on star33_faults",
    ),
    lower(
        "transport.failed_messages",
        "count",
        "ok_frac on star33_faults",
    ),
    lower(
        "faults.drops",
        "count",
        "transport.retransmits on star33_faults",
    ),
    lower(
        "faults.corrupts",
        "count",
        "transport.retransmits on star33_faults",
    ),
    lower("telemetry.trace_lines", "count", AUDIT),
    lower("telemetry.trace_bytes", "bytes", AUDIT),
    higher(
        "replay.checks_pass",
        "count",
        "nothing: recorded, the slice is pre-convergence",
    ),
    lower(
        "replay.checks_fail",
        "count",
        "nothing: recorded, the slice is pre-convergence",
    ),
    lower("netsim.shard.domains", "count", SHARD),
    lower("netsim.shard.threads", "count", SHARD),
    higher("netsim.events_per_s", "1/s", EVERYWHERE),
    lower("netsim.ns_per_event", "ns/event", EVERYWHERE),
    // Derived host ratios.
    lower("netsim.shard.wall_s_t1", "s", SHARD),
    lower("netsim.shard.wall_s_plain", "s", SHARD),
    lower("netsim.shard.protocol_overhead_ratio", "ratio", SHARD),
    higher("netsim.shard.speedup", "ratio", SHARD),
    lower("telemetry.emit_s", "s", AUDIT),
    lower("telemetry.ns_per_line", "ns", AUDIT),
    lower("telemetry.nullsink_overhead_ratio", "ratio", AUDIT),
    lower("replay.reconstruct_s", "s", AUDIT),
    lower("replay.audit_s", "s", AUDIT),
    lower("replay.ns_per_line", "ns", AUDIT),
    lower(
        "faults.idle_plan_overhead_ratio",
        "ratio",
        "wall_s on every fault-free workload; should stay 1.0",
    ),
    lower("baselines.d3.wall_s", "s", DEADLINE),
    lower("baselines.pdq.wall_s", "s", DEADLINE),
    lower("baselines.d3.ns_per_event", "ns/event", DEADLINE),
    lower("baselines.pdq.ns_per_event", "ns/event", DEADLINE),
    lower(
        "baselines.pfabric.ns_per_event",
        "ns/event",
        "nothing end to end: guards the Scheme-trait refactor",
    ),
    lower(
        "baselines.qjump.ns_per_event",
        "ns/event",
        "nothing end to end: guards the Scheme-trait refactor",
    ),
    lower(
        "baselines.homa.ns_per_event",
        "ns/event",
        "nothing end to end: guards the Scheme-trait refactor",
    ),
    higher(
        "experiments.sweep.speedup",
        "ratio",
        "nothing end to end: run_sweep across independent points",
    ),
    // Isolated unit costs.
    lower("sim-core.queue.hold_ns", "ns/op", FABRIC_UNIT),
    lower("sim-core.slab.churn_ns", "ns/op", FABRIC_UNIT),
    lower("qdisc.wfq.enq_deq_ns", "ns/op", FABRIC_UNIT),
    lower(
        "qdisc.dwrr.enq_deq_ns",
        "ns/op",
        "nothing today: no workload schedules with DWRR",
    ),
    lower(
        "qdisc.spq.enq_deq_ns",
        "ns/op",
        "baselines.qjump.ns_per_event, baselines.homa.ns_per_event",
    ),
    lower(
        "qdisc.pifo.push_pop_ns",
        "ns/op",
        "baselines.pfabric.ns_per_event",
    ),
    lower(
        "netsim.fib.next_hop_ns",
        "ns/op",
        "wall_s, times netsim.switch_tx_pkts: clos128_sharded first",
    ),
    lower(
        "transport.swift.on_ack_ns",
        "ns/op",
        "wall_s, times transport.sent_segments",
    ),
    lower("core.on_issue_ns", "ns/op", RPC_UNIT),
    lower("core.on_completion_ns", "ns/op", RPC_UNIT),
    lower(
        "core.quota.allocate64_ns",
        "ns/op",
        "nothing today: no workload runs the quota server",
    ),
    lower(
        "workloads.next_rpc_ns",
        "ns/op",
        "wall_s, times rpc.issued: star33_rpc1k first",
    ),
    lower(
        "stats.percentiles.p999_1e5_ns",
        "ns/op",
        "experiments.harvest_s",
    ),
    lower(
        "stats.histogram.record_ns",
        "ns/op",
        "nothing today: kept for the histogram merge",
    ),
    lower(
        "telemetry.hist.record_ns",
        "ns/op",
        "nothing today: kept for the histogram merge",
    ),
    lower(
        "telemetry.emit_disabled_ns",
        "ns/op",
        "wall_s on every untraced workload; must hold",
    ),
    lower("telemetry.emit_nullsink_ns", "ns/op", TRACE_UNIT),
    lower("telemetry.counter_add_id_ns", "ns/op", TRACE_UNIT),
    lower(
        "faults.packet_fate_ns",
        "ns/op",
        "wall_s, times netsim.switch_tx_pkts: star33_faults",
    ),
    lower(
        "faults.idle_fastout_ns",
        "ns/op",
        "faults.idle_plan_overhead_ratio",
    ),
    lower("faults.toml_parse_us", "us/op", "setup_s on star33_faults"),
    lower("replay.parse_line_ns", "ns/op", TRACE_UNIT),
    // Cost-table check.
    higher(
        "benchmark.attributed_frac",
        "frac",
        "nothing: sum of count x unit cost over wall_s",
    ),
    lower(
        "benchmark.attributed_gap_frac",
        "frac",
        "nothing: the share of wall_s the cost table misses",
    ),
];

/// Why each workload is in the benchmark (one line, as in `BENCHMARK.json`).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::Star33Rpc32k => "The paper's 33-node run: 16 packets per RPC, so event queue, ports and qdiscs do about three quarters of the work and the per-RPC layers little.",
        Workload::Star33Rpc1k => "Same fabric with one packet per RPC: rpc, core, transport and workloads run once per ~9 events, so a per-RPC saving shows here and barely in star33_rpc32k.",
        Workload::FabricRaw => "Raw packets with no host stack: pure event queue, port, qdisc and FIB, so a host-stack change must leave it flat and an engine change shows undiluted.",
        Workload::Clos128Sharded => "128-host Clos on the sharded engine: the only workload that enters netsim.shard, multi-hop ECMP and a port count beyond cache.",
        Workload::Star33TracedAudit => "A fully traced slice, replayed and audited in memory: telemetry serialisation and replay parsing do most of the work here and none anywhere else.",
        Workload::Star33Faults => "The 33-node run under an always-active fault plan: packet_fate, deferred ports, RTO back-off, retransmits and RPC retries, the other path of the same code.",
        Workload::Star33Deadline => "D3 then PDQ on fig22's load: the only workload that runs crates/baselines, whose allocator sorts every live flow on each allocation.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "{u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|&w| why(w).len() <= 200 && !why(w).contains('\n')));
    }

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        obj.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    /// `BENCHMARK.json` lists exactly the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");

        let workloads = field(&doc, "workloads").as_array().expect("array");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, &w) in workloads.iter().zip(&Workload::ALL) {
            assert_eq!(field(entry, "name").as_str(), Some(w.name()));
            assert_eq!(field(entry, "why").as_str(), Some(why(w)));
        }

        let e2e = field(&doc, "end_to_end").as_array().expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
            assert_eq!(field(entry, "better").as_str(), Some(m.better.as_str()));
            assert_eq!(field(entry, "bound").as_f64(), Some(m.bound));
        }

        let layers = field(&doc, "per_layer").as_array().expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
            assert_eq!(field(entry, "better").as_str(), Some(m.better.as_str()));
        }

        let paths = field(&doc, "paths").as_array().expect("array");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
