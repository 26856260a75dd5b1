//! What the engine's traffic looks like to the future-event list.
//!
//! The calendar queue's two geometry constants (bucket width, ring size;
//! `crates/sim-core/src/event.rs`) rest on the table this test prints, not
//! on a guess about a typical fan-in: events per bucket when the cursor
//! commits to it, the share of schedules that land in the bucket being
//! drained (the sorted-insert path), and the share scheduled beyond the ring
//! horizon (the overflow heap). The counts are exact and repeat, so the
//! assertions are on counts, never on time.
//!
//! Rows are short slices of the shapes `BENCHMARK.json` runs. Regenerate:
//!
//! ```sh
//! cargo test --release --offline --test queue_traffic -- --nocapture
//! ```

use aequitas::{AequitasConfig, SloTarget};
use aequitas_baselines::{deadline, DeadlineHost, DeadlineMode, WorkloadGen};
use aequitas_experiments::harness::{build_engine, build_sharded_engine, MacroSetup, PolicyChoice};
use aequitas_experiments::{large, slo};
use aequitas_netsim::faults::FaultPlan;
use aequitas_netsim::{
    Engine, EngineConfig, FlowKey, HostAgent, HostCtx, HostId, LinkSpec, Packet, PacketKind,
    QueueStats, ShardSpec, Topology,
};
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{BitRate, SimDuration, SimRng, SimTime};
use aequitas_workloads::SizeDist;
use std::sync::Arc;

const HOSTS: usize = 33;

/// The 33-node all-to-all burst workload with every RPC `rpc_bytes` long.
fn star33(rpc_bytes: u64, config: AequitasConfig, duration_us: u64) -> MacroSetup {
    let mut setup = MacroSetup::star_3qos(HOSTS);
    setup.policy = PolicyChoice::Aequitas(config);
    setup.duration = SimDuration::from_us(duration_us);
    let mut spec = slo::node33_workload([0.6, 0.3, 0.1], None);
    for class in &mut spec.classes {
        class.sizes = SizeDist::Fixed(rpc_bytes);
    }
    setup.workloads.fill_with(|| Some(spec.clone()));
    setup
}

/// One packet per RPC: the densest regime, and the one the geometry is
/// asserted on.
fn star33_rpc1k() -> QueueStats {
    let config = AequitasConfig::three_qos(
        SloTarget::absolute(SimDuration::from_us(15), 1, 99.9),
        SloTarget::absolute(SimDuration::from_us(25), 1, 99.9),
    );
    run(star33(1024, config, 400))
}

fn run(setup: MacroSetup) -> QueueStats {
    let end = SimTime::ZERO + setup.duration;
    let mut engine = build_engine(setup);
    engine.run_until(end);
    engine.queue_stats()
}

/// Loss on every link plus a flapping host uplink: retransmit timers and
/// deferred ports on top of the 32 KB run.
fn star33_faults() -> QueueStats {
    let plan = "seed = 11\n\
        [[loss]]\nlink = \"any\"\nprob = 0.001\n\
        [[link_flap]]\nlink = \"host:5\"\nfirst_down_us = 300.0\ndown_us = 200.0\n\
        period_us = 600.0\ncount = 2\n";
    let mut setup = star33(32_768, slo::slo_config_33(), 1500);
    setup.engine.faults = Some(Arc::new(
        FaultPlan::from_toml_str(plan).expect("valid plan"),
    ));
    run(setup)
}

/// A 128-host Clos on the sharded engine (5 domains, one thread): Poisson
/// 0.1 load of 8 KB RPCs. The stats are summed over the domain queues.
fn clos128_sharded() -> QueueStats {
    let core = LinkSpec {
        rate: BitRate::from_gbps(100),
        propagation: SimDuration::from_us(2),
    };
    let edge = LinkSpec::default_100g();
    let topo = Topology::clos(4, 2, 2, 16, 4, edge, edge, core);
    let spec = ShardSpec::clos_pods(&topo, 4, 2, 2);
    let mut setup = MacroSetup::star_3qos(topo.num_hosts());
    setup.topo = topo;
    setup.policy = PolicyChoice::Aequitas(large::production_slo_config());
    setup.duration = SimDuration::from_us(1000);
    let shares = [
        (Priority::PerformanceCritical, 0.6),
        (Priority::NonCritical, 0.3),
        (Priority::BestEffort, 0.1),
    ];
    let workload = WorkloadSpec {
        arrival: ArrivalProcess::Poisson { load: 0.1 },
        pattern: TrafficPattern::AllToAll,
        classes: shares
            .iter()
            .map(|&(priority, byte_share)| PrioritySpec {
                priority,
                byte_share,
                sizes: SizeDist::Fixed(8_192),
            })
            .collect(),
        stop: None,
    };
    setup.workloads.fill_with(|| Some(workload.clone()));
    let end = SimTime::ZERO + setup.duration;
    let mut engine = build_sharded_engine(setup, spec, 1);
    engine.run_until(end);
    (0..engine.num_domains())
        .map(|d| engine.domain(d).queue_stats())
        .fold(QueueStats::default(), |a, s| QueueStats {
            schedules: a.schedules + s.schedules,
            refills: a.refills + s.refills,
            refill_events: a.refill_events + s.refill_events,
            max_bucket: a.max_bucket.max(s.max_bucket),
            current_inserts: a.current_inserts + s.current_inserts,
            current_shifted: a.current_shifted + s.current_shifted,
            overflow_pushes: a.overflow_pushes + s.overflow_pushes,
        })
}

/// D3 or PDQ on fig22's offered load: 0.25 ms of arrivals, 0.25 ms of drain.
fn star33_deadline(mode: DeadlineMode) -> QueueStats {
    let rate = BitRate::from_gbps(100);
    let stop = SimTime::ZERO + SimDuration::from_us(250);
    let classes = || {
        [
            (Priority::PerformanceCritical, 0.5),
            (Priority::NonCritical, 0.3),
            (Priority::BestEffort, 0.2),
        ]
        .map(|(p, share)| (p, share, SizeDist::production_like(p)))
        .to_vec()
    };
    let agents = (0..HOSTS)
        .map(|h| {
            let gen = WorkloadGen::new(
                ArrivalProcess::BurstOnOff {
                    mu: 0.9,
                    rho: 2.0,
                    period: SimDuration::from_us(100),
                },
                TrafficPattern::AllToAll,
                classes(),
                h,
                HOSTS,
                rate,
                Some(stop),
                2022 ^ (h as u64 * 0x9E37),
            );
            DeadlineHost::new(HostId(h), mode, Some(gen), rate)
        })
        .collect();
    let topo = Topology::star(HOSTS, LinkSpec::default_100g());
    let mut engine = Engine::new(topo, agents, deadline::engine_config());
    engine.run_until(stop + SimDuration::from_us(250));
    engine.queue_stats()
}

/// Open-loop full-MTU packets at 0.8 load with no host stack: the sparsest
/// traffic the engine carries (no ACKs, no timers but the sender's own).
struct RawSender {
    host: usize,
    rng: SimRng,
    mean_gap: SimDuration,
    next_send: SimTime,
    sent: u64,
}

impl RawSender {
    fn arm(&mut self, ctx: &mut HostCtx) {
        self.next_send += self.rng.exp_duration(self.mean_gap);
        ctx.set_timer(self.next_send, 0);
    }
}

impl HostAgent for RawSender {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.arm(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut HostCtx, _token: u64) {
        self.sent += 1;
        let id = (self.host as u64) << 40 | self.sent;
        ctx.send(Packet {
            id,
            flow: FlowKey {
                src: HostId(self.host),
                dst: HostId((self.host + 1 + self.sent as usize % (HOSTS - 1)) % HOSTS),
                class: self.rng.weighted_index(&[0.6, 0.3, 0.1]) as u8,
            },
            size_bytes: 4096 + aequitas_netsim::packet::HEADER_BYTES,
            kind: PacketKind::Data {
                msg_id: id,
                seq: 0,
                is_last: true,
            },
            sent_at: ctx.now(),
            rank: 0,
        });
        self.arm(ctx);
    }
}

fn fabric_raw() -> QueueStats {
    let line = BitRate::from_gbps(100);
    let wire_bytes = u64::from(4096 + aequitas_netsim::packet::HEADER_BYTES);
    let agents = (0..HOSTS)
        .map(|host| RawSender {
            host,
            rng: SimRng::new(2022 ^ (host as u64) << 8),
            mean_gap: line.serialize_time(wire_bytes).mul_f64(1.0 / 0.8),
            next_send: SimTime::ZERO,
            sent: 0,
        })
        .collect();
    let topo = Topology::star(HOSTS, LinkSpec::default_100g());
    let mut engine = Engine::new(topo, agents, EngineConfig::default_3qos());
    engine.run_until(SimTime::ZERO + SimDuration::from_us(2000));
    engine.queue_stats()
}

fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

#[test]
fn engine_traffic_fits_the_ring_and_fills_its_buckets() {
    let rows = [
        ("star33_rpc1k", star33_rpc1k()),
        (
            "star33_rpc32k",
            run(star33(32_768, slo::slo_config_33(), 1500)),
        ),
        ("star33_faults", star33_faults()),
        ("fabric_raw", fabric_raw()),
        ("clos128_sharded", clos128_sharded()),
        ("star33_deadline/d3", star33_deadline(DeadlineMode::D3)),
        ("star33_deadline/pdq", star33_deadline(DeadlineMode::Pdq)),
    ];
    println!(
        "{:<20} {:>10} {:>14} {:>11} {:>15} {:>15} {:>11}",
        "slice",
        "schedules",
        "events/bucket",
        "max bucket",
        "into current %",
        "shifted/insert",
        "overflow %"
    );
    for (name, s) in &rows {
        println!(
            "{:<20} {:>10} {:>14.1} {:>11} {:>15.2} {:>15.2} {:>11.3}",
            name,
            s.schedules,
            s.refill_events as f64 / s.refills.max(1) as f64,
            s.max_bucket,
            pct(s.current_inserts, s.schedules),
            s.current_shifted as f64 / s.current_inserts.max(1) as f64,
            pct(s.overflow_pushes, s.schedules),
        );
    }
    for (name, s) in &rows {
        assert!(s.schedules > 100_000, "{name}: slice too small, {s:?}");
        // The ring horizon covers the traffic: under 1 % of schedules pay
        // for the overflow heap.
        assert!(
            s.overflow_pushes * 100 < s.schedules,
            "{name}: {s:?} overflows the ring horizon too often"
        );
        // A sorted insert moves fewer entries than an average bucket holds
        // (what a min-scan per pop would read every time).
        assert!(
            s.current_shifted * s.refills < s.current_inserts * s.refill_events,
            "{name}: {s:?} shifts too much per insert"
        );
    }
    // The regime the sort-once design is for: on the one-packet-per-RPC run
    // a committed bucket holds many events and a real share of schedules
    // lands in the bucket being drained.
    let dense = &rows[0].1;
    assert!(dense.refill_events >= 4 * dense.refills, "{dense:?}");
    assert!(dense.current_inserts * 20 > dense.schedules, "{dense:?}");
}
