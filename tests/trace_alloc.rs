//! "Allocation-free" as an exact count, not a timing: a counting global
//! allocator around the trace path and the simulator's per-packet path.
//! Deterministic, so it cannot flake on a loaded sandbox the way a
//! nanosecond budget does.
//!
//! * Writer: after warm-up, `Telemetry::emit` into `NullSink` allocates
//!   nothing for any variant without a `String` field.
//! * Reader: `Reconstruction::from_reader` allocates only as its
//!   reconstructed state grows (amortised doubling), never per line.
//! * Fabric: after warm-up, event queue, ports, qdiscs and FIB allocate
//!   only on high-water `Vec` growth, far below one per packet.
//! * Full stack: transport, RPC stack, admission control and telemetry
//!   allocate a small constant per RPC, never per packet.
//! * Baselines: each of the five comparison hosts (pFabric, QJump, D3,
//!   PDQ, Homa) allocates a small constant per completed RPC, never per
//!   packet.

#[path = "../crates/telemetry/tests/fixtures/golden_events.rs"]
mod golden_events;

use aequitas::{AequitasConfig, SloTarget};
use aequitas_baselines::{
    deadline, homa, pfabric, qjump, BaselineHost, DeadlineHost, DeadlineMode, HomaHost,
    PfabricHost, QjumpHost, WorkloadGen,
};
use aequitas_experiments::harness::{self, MacroSetup, PolicyChoice};
use aequitas_experiments::slo;
use aequitas_netsim::{
    Engine, EngineConfig, FlowKey, HostAgent, HostCtx, HostId, LinkSpec, Packet, PacketKind,
    Topology,
};
use aequitas_replay::Reconstruction;
use aequitas_rpc::WorkloadHost;
use aequitas_sim_core::{SimDuration, SimRng, SimTime};
use aequitas_telemetry::{NodeKind, NullSink, Telemetry, TelemetryConfig, TraceEvent};
use aequitas_workloads::{ArrivalProcess, Priority, SizeDist, TrafficPattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Per thread, so that tests running
    /// in parallel do not see each other; const-initialised and without a
    /// destructor, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting calls that hand out memory.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
#[allow(
    unsafe_code,
    reason = "a counting allocator implements the unsafe GlobalAlloc trait"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_counter_counts() {
    let before = allocs();
    let v = std::hint::black_box(vec![1u8; 64]);
    assert_eq!(allocs() - before, 1);
    drop(v);
    assert_eq!(allocs() - before, 1, "frees are not counted");
}

#[test]
fn emit_allocates_nothing_after_warm_up() {
    // Every variant at its boundary values, hence its longest lines; the
    // two variants that own heap data are out of scope.
    let events: Vec<(u64, TraceEvent)> = golden_events::golden_events()
        .into_iter()
        .filter(|(_, _, ev)| !matches!(ev, TraceEvent::RunInfo { .. } | TraceEvent::Warn { .. }))
        .map(|(_, t_ps, ev)| (t_ps, ev))
        .collect();
    let mut tags: Vec<_> = events.iter().map(|(_, ev)| ev.type_tag()).collect();
    tags.dedup();
    assert_eq!(tags.len(), 13, "{tags:?}");

    let tel = Telemetry::with_sink(NullSink, TelemetryConfig::default());
    let emit_all = || {
        for (t_ps, ev) in &events {
            // Cloning a variant without heap fields is a copy.
            tel.emit(SimTime::from_ps(*t_ps), ev.clone());
        }
    };
    emit_all(); // the scratch buffer grows to the longest line
    let before = allocs();
    for _ in 0..200 {
        emit_all();
    }
    assert_eq!(allocs() - before, 0, "emit allocated in steady state");
}

/// A steady-state mix over a small fabric: per 20 lines, 8 packets in and
/// out of a switch port plus the transport, RPC and admission events they
/// would come with.
fn steady_trace(lines: usize) -> String {
    let mut events = vec![TraceEvent::TraceHeader {
        schema_version: aequitas_telemetry::TRACE_SCHEMA_VERSION,
    }];
    let mut backlog = [0u64; 4];
    for i in 0.. {
        if events.len() >= lines {
            break;
        }
        let (port, class, host) = (i % 4, i % 2, i % 3);
        let node = NodeKind::Switch;
        for depth in 1..=8 {
            backlog[port] += 4160;
            events.push(TraceEvent::PktEnqueue {
                node,
                node_id: 0,
                port,
                class,
                bytes: 4160,
                depth_pkts: depth,
                backlog_bytes: backlog[port],
            });
        }
        for _ in 0..8 {
            backlog[port] -= 4160;
            events.push(TraceEvent::PktDequeue {
                node,
                node_id: 0,
                port,
                class,
                bytes: 4160,
                backlog_bytes: backlog[port],
            });
        }
        events.push(TraceEvent::CwndUpdate {
            host,
            dst: 3,
            class: class as u8,
            cwnd: 16.25,
            rtt_ps: 9_000_000,
            target_ps: 8_000_000,
            over_target: true,
        });
        events.push(TraceEvent::RpcIssue {
            host,
            dst: 3,
            qos_req: 0,
            qos_run: class as u8,
            downgraded: class == 1,
            size_bytes: 32_768,
            p_admit: 0.75,
        });
        events.push(TraceEvent::RpcComplete {
            host,
            dst: 3,
            qos_run: class as u8,
            downgraded: class == 1,
            size_bytes: 32_768,
            rnl_ps: 20_000_000,
            rnl_per_mtu_ps: 2_500_000,
        });
        events.push(TraceEvent::AdmitProb {
            host,
            dst: 3,
            qos: 0,
            p: 0.74,
            delta: -0.01,
        });
    }
    events.truncate(lines);
    let mut text = String::new();
    for (seq, ev) in events.iter().enumerate() {
        ev.write_json(&mut text, seq as u64, seq as u64 * 100_000);
        text.push('\n');
    }
    text
}

/// Allocations `from_reader` makes over a clean `lines`-line trace.
fn reconstruction_allocs(lines: usize) -> u64 {
    let text = steady_trace(lines);
    let before = allocs();
    let recon = Reconstruction::from_reader(text.as_bytes()).expect("a well-formed trace");
    let spent = allocs() - before;
    assert_eq!(recon.events, lines as u64);
    assert_eq!(recon.integrity.parse_errors, 0);
    assert_eq!((recon.ports.len(), recon.channels.len()), (4, 6));
    spent
}

/// What the reader allocates is its reconstructed state — timelines and
/// sample vectors that double as they grow — never something per line: the
/// 20 000 lines that take a trace from 20 000 to 40 000 cost fewer than one
/// allocation per 100 of them. (The reader this replaced spent about 15 per
/// line.)
#[test]
fn reconstruction_allocates_per_growth_not_per_line() {
    const LINES: usize = 20_000;
    let (first, both) = (
        reconstruction_allocs(LINES),
        reconstruction_allocs(2 * LINES),
    );
    let marginal = both.saturating_sub(first);
    assert!(
        marginal * 100 < LINES as u64,
        "{first} allocations for {LINES} lines, {both} for twice that: the reader allocates per line"
    );
    // And building the state from nothing stays within a few per port,
    // class and channel doubling: under one per 50 lines at this size.
    assert!(
        first * 50 < LINES as u64,
        "{first} allocations for {LINES} lines"
    );
}

/// Hosts on the star both allocation runs below use.
const STAR: usize = 33;
/// One MTU of payload plus the header.
const PKT_BYTES: u32 = 4096 + aequitas_netsim::packet::HEADER_BYTES;

/// An open-loop Poisson source of full-MTU packets, rotating over every
/// other host, and a sink that only counts: no transport and no RPC stack,
/// so whatever allocates is the fabric.
struct Blaster {
    host: usize,
    rng: SimRng,
    gap: SimDuration,
    next_send: SimTime,
    sent: u64,
}

impl HostAgent for Blaster {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.on_timer(ctx, 0);
    }

    fn on_packet(&mut self, _: &mut HostCtx, _: Packet) {}

    fn on_timer(&mut self, ctx: &mut HostCtx, _: u64) {
        if ctx.now() > SimTime::ZERO {
            self.sent += 1;
            let id = (self.host as u64) << 40 | self.sent;
            ctx.send(Packet {
                id,
                flow: FlowKey {
                    src: HostId(self.host),
                    dst: HostId((self.host + 1 + self.sent as usize % (STAR - 1)) % STAR),
                    class: self.rng.weighted_index(&[0.6, 0.3, 0.1]) as u8,
                },
                size_bytes: PKT_BYTES,
                kind: PacketKind::Data {
                    msg_id: id,
                    seq: 0,
                    is_last: true,
                },
                sent_at: ctx.now(),
                rank: 0,
            });
        }
        self.next_send += self.rng.exp_duration(self.gap);
        ctx.set_timer(self.next_send, 0);
    }
}

/// The 33-host star at 0.8 load on WFQ 8:4:1 with no host stack: after a
/// warm-up, what allocates is `Vec` growth to a new high-water mark: ~0.3
/// per 1 000 events over 3.2 M of them. One allocation per packet would be
/// one per ~5 events.
#[test]
fn fabric_allocates_per_growth_not_per_packet() {
    let topo = Topology::star(STAR, LinkSpec::default_100g());
    let gap = topo.host_ports[0]
        .link
        .rate
        .serialize_time(PKT_BYTES.into())
        .mul_f64(1.0 / 0.8);
    let blasters = (0..STAR)
        .map(|host| Blaster {
            host,
            rng: SimRng::new(2022 ^ (host as u64) << 8),
            gap,
            next_send: SimTime::ZERO,
            sent: 0,
        })
        .collect();
    let mut engine = Engine::new(topo, blasters, EngineConfig::default_3qos());
    engine.run_until(SimTime::from_ms(4));
    let (events, before) = (engine.events_processed(), allocs());
    engine.run_until(SimTime::from_ms(12));
    let (events, spent) = (engine.events_processed() - events, allocs() - before);
    assert!(events > 2_000_000, "{events} events");
    assert!(
        spent * 1000 < events,
        "{spent} allocations in {events} events: the fabric allocates per packet"
    );
}

/// Allocations per issued RPC on the star33 run of `bytes`-sized RPCs, with
/// every layer on (Swift transport, RPC stack, Algorithm 1, telemetry into a
/// `NullSink`), counted over `[warm, end)`.
fn allocs_per_rpc(bytes: u64, warm: SimTime, end: SimTime) -> f64 {
    let mut setup = MacroSetup::star_3qos(STAR);
    setup.policy = PolicyChoice::Aequitas(AequitasConfig::three_qos(
        SloTarget::absolute(SimDuration::from_us(15), bytes.div_ceil(4096), 99.9),
        SloTarget::absolute(SimDuration::from_us(25), bytes.div_ceil(4096), 99.9),
    ));
    for w in &mut setup.workloads {
        let mut spec = slo::node33_workload([0.6, 0.3, 0.1], None);
        for class in &mut spec.classes {
            class.sizes = SizeDist::Fixed(bytes);
        }
        *w = Some(spec);
    }
    setup.telemetry = Telemetry::with_sink(NullSink, TelemetryConfig::default());
    let mut engine = harness::build_engine(setup);
    let issued =
        |engine: &Engine<WorkloadHost>| engine.agents().iter().map(|h| h.issued()).sum::<u64>();
    engine.run_until(warm);
    let (rpcs, before) = (issued(&engine), allocs());
    engine.run_until(end);
    let (rpcs, spent) = (issued(&engine) - rpcs, allocs() - before);
    assert!(rpcs > 1000, "{rpcs} RPCs");
    spent as f64 / rpcs as f64
}

/// A 32 KB RPC is 8 packets out and 8 ACKs back: one allocation per packet
/// would add at least 16 per RPC to the 3.0 the RPC itself costs.
#[test]
fn a_multi_packet_rpc_allocates_per_rpc_not_per_packet() {
    let per_rpc = allocs_per_rpc(32_768, SimTime::from_ms(1), SimTime::from_ms(3));
    assert!(per_rpc < 4.0, "{per_rpc:.3} allocations per 32 KB RPC");
}

/// One-packet RPCs: the per-RPC layers (RPC stack, Algorithm 1, workload
/// generator) run once per ~9 events here, and still cost 3.0 allocations
/// per RPC.
#[test]
fn a_one_packet_rpc_allocates_a_small_constant() {
    let per_rpc = allocs_per_rpc(1024, SimTime::from_us(250), SimTime::from_us(750));
    assert!(per_rpc < 4.0, "{per_rpc:.3} allocations per 1 KB RPC");
}

/// Allocations per completed RPC of one baseline on the 33-host star:
/// Poisson arrivals at 0.7 load, all-to-all, the production size mix per
/// class, counted over [0.5, 1.5) ms.
fn baseline_allocs_per_rpc<A: BaselineHost>(
    config: EngineConfig,
    host: impl Fn(HostId, WorkloadGen) -> A,
) -> f64 {
    let topo = Topology::star(STAR, LinkSpec::default_100g());
    let rate = topo.host_ports[0].link.rate;
    let agents = (0..STAR)
        .map(|h| {
            let classes = Priority::ALL
                .into_iter()
                .zip([0.5, 0.3, 0.2])
                .map(|(p, share)| (p, share, SizeDist::production_like(p)))
                .collect();
            let gen = WorkloadGen::new(
                ArrivalProcess::Poisson { load: 0.7 },
                TrafficPattern::AllToAll,
                classes,
                h,
                STAR,
                rate,
                None,
                2022 ^ (h as u64 * 0x9E37),
            );
            host(HostId(h), gen)
        })
        .collect();
    let mut engine = Engine::new(topo, agents, config);
    let done = |e: &Engine<A>| {
        e.agents()
            .iter()
            .map(|a| a.sender().completions().len())
            .sum::<usize>()
    };
    engine.run_until(SimTime::from_us(500));
    let (rpcs, before) = (done(&engine), allocs());
    engine.run_until(SimTime::from_us(1_500));
    let (rpcs, spent) = (done(&engine) - rpcs, allocs() - before);
    assert!(rpcs > 1000, "{rpcs} RPCs");
    spent as f64 / rpcs as f64
}

/// A production-mix RPC is several packets and as many ACKs or grants: one
/// allocation per packet would put every scheme far above 3 per RPC.
fn assert_per_rpc_constant(scheme: &str, per_rpc: f64) {
    assert!(per_rpc < 3.0, "{scheme}: {per_rpc:.3} allocations per RPC");
}

#[test]
fn pfabric_allocates_per_rpc_not_per_packet() {
    let per_rpc = baseline_allocs_per_rpc(pfabric::engine_config(), |h, gen| {
        PfabricHost::new(h, Some(gen))
    });
    assert_per_rpc_constant("pFabric", per_rpc);
}

#[test]
fn qjump_allocates_per_rpc_not_per_packet() {
    let rate = LinkSpec::default_100g().rate;
    let per_rpc = baseline_allocs_per_rpc(qjump::engine_config(), |h, gen| {
        QjumpHost::new(h, Some(gen), rate)
    });
    assert_per_rpc_constant("QJump", per_rpc);
}

#[test]
fn d3_and_pdq_allocate_per_rpc_not_per_packet() {
    let rate = LinkSpec::default_100g().rate;
    for (name, mode) in [("D3", DeadlineMode::D3), ("PDQ", DeadlineMode::Pdq)] {
        let per_rpc = baseline_allocs_per_rpc(deadline::engine_config(), |h, gen| {
            DeadlineHost::new(h, mode, Some(gen), rate)
        });
        assert_per_rpc_constant(name, per_rpc);
    }
}

#[test]
fn homa_allocates_per_rpc_not_per_packet() {
    let per_rpc =
        baseline_allocs_per_rpc(homa::engine_config(), |h, gen| HomaHost::new(h, Some(gen)));
    assert_per_rpc_constant("Homa", per_rpc);
}
