//! Isolated unit costs: host ns per operation of each layer, through the
//! layer's public API, on inputs shaped like `star33_rpc32k` (a standing
//! population of a few dozen events, WFQ 8:4:1, 4160-byte packets, 33
//! destinations).
//!
//! A unit cost moves `wall_s` on the workload whose count multiplies it:
//! queue, qdisc and FIB costs times `netsim.fabric_events` (`fabric_raw`
//! first), `core.*` times `core.decisions` (`star33_rpc1k`), `telemetry.*`
//! and `replay.*` times `telemetry.trace_lines` (`star33_traced_audit`),
//! `faults.packet_fate_ns` times `netsim.switch_tx_pkts` (`star33_faults`).

use crate::measure::ns_per_op;
use crate::workloads::{clos_topology, fig22_gen, idle_plan, FAULT_PLAN_TOML};
use aequitas::{AdmissionController, QuotaServer, QuotaSpec, TenantId, UsageReport};
use aequitas_experiments::slo::slo_config_33;
use aequitas_netsim::faults::{FaultPlan, LinkId};
use aequitas_netsim::{FlowKey, HostId, SwitchId};
use aequitas_qdisc::{DwrrScheduler, PifoQueue, Scheduler, SpqScheduler, WfqScheduler};
use aequitas_sim_core::{EventQueue, SimDuration, SimTime, Slab};
use aequitas_stats::{Histogram, Percentiles};
use aequitas_telemetry::{
    labels, LogLinearHistogram, MetricsRegistry, NodeKind, NullSink, Telemetry, TelemetryConfig,
    TraceEvent,
};
use aequitas_transport::{SwiftCc, TransportConfig};
use std::hint::black_box;

const PACKET_BYTES: u32 = crate::raw::PACKET_BYTES;

/// Enqueue then dequeue through a class scheduler holding a standing
/// backlog of 16 packets.
fn scheduler_ns<S: Scheduler<u64>>(mut s: S, classes: u64) -> f64 {
    for i in 0..16 {
        s.enqueue((i % classes) as usize, PACKET_BYTES, i).ok();
    }
    ns_per_op(400_000, |n| {
        for i in 0..n {
            s.enqueue((i % classes) as usize, PACKET_BYTES, i).ok();
            black_box(s.dequeue());
        }
    })
}

fn sample_event() -> TraceEvent {
    TraceEvent::PktEnqueue {
        node: NodeKind::Switch,
        node_id: 0,
        port: 7,
        class: 1,
        bytes: PACKET_BYTES,
        depth_pkts: 3,
        backlog_bytes: 12_480,
    }
}

/// The per-packet queries the engine puts to a fault plan.
fn fault_queries_ns(plan: &FaultPlan) -> f64 {
    ns_per_op(400_000, |n| {
        for i in 0..n {
            let link = LinkId::SwitchPort {
                switch: 0,
                port: (i % 33) as usize,
            };
            let now = SimTime::from_ns(i * 400);
            black_box(plan.link_down(link, now));
            black_box(plan.gray_rate_frac(link, now));
            black_box(plan.packet_fate(link, i, now));
            black_box(plan.extra_delay(link, i, now));
        }
    })
}

/// Every isolated unit cost, by metric name.
pub fn unit_costs(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // sim-core: a standing pool of 64 events, one pop + one reschedule a
    // short horizon out per operation — the pattern the engine loop makes.
    let mut queue = EventQueue::new();
    for i in 0..64u64 {
        queue.schedule(SimTime::from_ps(i * 131 + 1), i);
    }
    let mut t = seed;
    out.push((
        "sim-core.queue.hold_ns",
        ns_per_op(400_000, |n| {
            for _ in 0..n {
                let ev = queue.pop().expect("the pool is never empty");
                t = t
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(ev.event);
                queue.schedule(
                    queue.now() + SimDuration::from_ps(t % 8_000_000 + 1),
                    ev.event,
                );
                black_box(ev.time);
            }
        }),
    ));
    let mut slab = Slab::with_capacity(64);
    let mut live: Vec<_> = (0..32u64).map(|i| slab.insert([i; 4])).collect();
    out.push((
        "sim-core.slab.churn_ns",
        ns_per_op(1_000_000, |n| {
            for k in 0..n as usize {
                let v = slab.remove(live[k & 31]);
                live[k & 31] = slab.insert(black_box(v));
            }
        }),
    ));

    // qdisc
    let cap = Some(2 << 20);
    out.push((
        "qdisc.wfq.enq_deq_ns",
        scheduler_ns(WfqScheduler::new(&[8.0, 4.0, 1.0], cap), 3),
    ));
    out.push((
        "qdisc.dwrr.enq_deq_ns",
        scheduler_ns(DwrrScheduler::new(&[8.0, 4.0, 1.0], 4096, cap), 3),
    ));
    out.push((
        "qdisc.spq.enq_deq_ns",
        scheduler_ns(SpqScheduler::new(8, cap), 8),
    ));
    let mut pifo = PifoQueue::new(cap);
    for i in 0..16u64 {
        let _ = pifo.push(i * 4096, PACKET_BYTES, i);
    }
    let mut rank = seed;
    out.push((
        "qdisc.pifo.push_pop_ns",
        ns_per_op(400_000, |n| {
            for i in 0..n {
                rank = rank.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                let _ = black_box(pifo.push(rank % 1_000_000, PACKET_BYTES, i));
                black_box(pifo.pop());
            }
        }),
    ));

    // netsim: next hop on the clos128 topology (ECMP fan-outs included).
    let clos = clos_topology();
    let (nsw, nh) = (clos.num_switches() as u64, clos.num_hosts() as u64);
    out.push((
        "netsim.fib.next_hop_ns",
        ns_per_op(1_000_000, |n| {
            for i in 0..n {
                let dst = HostId(((i / 7) % nh) as usize);
                let flow = FlowKey {
                    src: HostId((i % nh) as usize),
                    dst,
                    class: (i % 3) as u8,
                };
                black_box(clos.next_hop(SwitchId((i % nsw) as usize), dst, &flow));
            }
        }),
    ));

    // transport
    let tcfg = TransportConfig::default();
    let mut swift = SwiftCc::new(&tcfg);
    out.push((
        "transport.swift.on_ack_ns",
        ns_per_op(1_000_000, |n| {
            for i in 0..n {
                let rtt = SimDuration::from_ns(4_000 + (i % 64) * 500);
                swift.on_ack(rtt, SimTime::from_ns(i * 400), &tcfg);
            }
            black_box(swift.cwnd());
        }),
    ));

    // core: Algorithm 1 over 32 destinations, 8-MTU RPCs.
    let mut ctl = AdmissionController::new(slo_config_33(), seed);
    out.push((
        "core.on_issue_ns",
        ns_per_op(1_000_000, |n| {
            for i in 0..n {
                black_box(ctl.on_issue(SimTime::from_ns(i * 100), (i % 32) as usize, 0, 8));
            }
        }),
    ));
    out.push((
        "core.on_completion_ns",
        ns_per_op(1_000_000, |n| {
            for i in 0..n {
                let rnl = SimDuration::from_us(i % 30);
                ctl.on_completion(SimTime::from_ns(i * 100), (i % 32) as usize, 0, 8, rnl);
            }
            black_box(ctl.admit_probability(0, 0));
        }),
    ));
    let mut quota = QuotaServer::new(vec![2e9, 4e9]);
    for t in 0..64u32 {
        quota.register(
            TenantId(t),
            QuotaSpec {
                qos: (t % 2) as u8,
                guaranteed_bps: 50e6 + f64::from(t) * 1e6,
            },
        );
    }
    let reports: Vec<UsageReport> = (0..64u32)
        .map(|t| UsageReport {
            tenant: TenantId(t),
            offered_bytes: 1_000_000 + u64::from(t) * 50_000,
        })
        .collect();
    out.push((
        "core.quota.allocate64_ns",
        ns_per_op(2_000, |n| {
            for _ in 0..n {
                black_box(quota.allocate(&reports, SimDuration::from_ms(10)));
            }
        }),
    ));

    // workloads: arrival instant + class + production-like size + destination.
    let mut gen = fig22_gen(0, None, seed);
    out.push((
        "workloads.next_rpc_ns",
        ns_per_op(400_000, |n| {
            for _ in 0..n {
                black_box(gen.next_rpc());
            }
        }),
    ));

    // The three histograms ROADMAP item 3 wants merged.
    out.push((
        "stats.percentiles.p999_1e5_ns",
        ns_per_op(20, |n| {
            for _ in 0..n {
                let mut p = Percentiles::new();
                for i in 0..100_000u64 {
                    p.record((i ^ 0x5_DEEC_E66D) as f64);
                }
                black_box(p.p999());
            }
        }),
    ));
    let mut hist = Histogram::new(0.0, 1_000.0, 1_000);
    out.push((
        "stats.histogram.record_ns",
        ns_per_op(2_000_000, |n| {
            for i in 0..n {
                hist.record((i % 997) as f64);
            }
            black_box(hist.count());
        }),
    ));
    let mut loglin = LogLinearHistogram::new();
    out.push((
        "telemetry.hist.record_ns",
        ns_per_op(2_000_000, |n| {
            for i in 0..n {
                loglin.record(i.wrapping_mul(2_654_435_761) % 1_000_000);
            }
            black_box(loglin.count());
        }),
    ));

    // telemetry
    let disabled = Telemetry::disabled();
    out.push((
        "telemetry.emit_disabled_ns",
        ns_per_op(2_000_000, |n| {
            for i in 0..n {
                black_box(&disabled).emit(SimTime::from_ns(i), sample_event());
            }
        }),
    ));
    let null = Telemetry::with_sink(NullSink, TelemetryConfig::default());
    out.push((
        "telemetry.emit_nullsink_ns",
        ns_per_op(400_000, |n| {
            for i in 0..n {
                null.emit(SimTime::from_ns(i), sample_event());
            }
        }),
    ));
    let mut registry = MetricsRegistry::new();
    let id = registry.counter_id("rpc.issued", labels(&[("host", "3"), ("qos", "1")]));
    out.push((
        "telemetry.counter_add_id_ns",
        ns_per_op(4_000_000, |n| {
            for _ in 0..n {
                registry.counter_add_id(id, black_box(1));
            }
        }),
    ));

    // faults
    let active = FaultPlan::from_toml_str(FAULT_PLAN_TOML).expect("the committed plan is valid");
    out.push(("faults.packet_fate_ns", fault_queries_ns(&active)));
    out.push(("faults.idle_fastout_ns", fault_queries_ns(&idle_plan())));
    out.push((
        "faults.toml_parse_us",
        ns_per_op(2_000, |n| {
            for _ in 0..n {
                black_box(FaultPlan::from_toml_str(FAULT_PLAN_TOML).is_ok());
            }
        }) / 1e3,
    ));

    // replay: parse one trace line as the simulator writes it.
    let line = sample_event().to_json(12_345, 6_789_000);
    out.push((
        "replay.parse_line_ns",
        ns_per_op(200_000, |n| {
            for _ in 0..n {
                black_box(aequitas_replay::trace::parse_line(black_box(&line)).is_ok());
            }
        }),
    ));

    out
}
