//! The seven workloads: how each builds its inputs from the seed, runs one
//! repetition, and scores the result.
//!
//! All of them are open-loop in *simulated* time (arrival processes fire on
//! schedule whatever the backlog). In host time each is a batch of fixed
//! input size, so the host rate reported is work completed per host second.
//! Sizes are frozen here; they set how long one repetition takes.

use crate::fabric::{engine_counts, Counts, Fabric};
use crate::measure::{timed, Digest};
use crate::raw::RawBlaster;
use crate::spanned::{Probe, SpanTotals, Spanned};
use aequitas::{AequitasConfig, SloTarget};
use aequitas_baselines::{
    deadline, homa, pfabric, qjump, BaselineCompletion, DeadlineHost, DeadlineMode, HomaHost,
    PfabricHost, QjumpHost, WorkloadGen,
};
use aequitas_experiments::harness::{self, MacroSetup, PolicyChoice};
use aequitas_experiments::{chaos, large, slo};
use aequitas_netsim::faults::FaultPlan;
use aequitas_netsim::{
    Engine, EngineConfig, FlowKey, HostAgent, HostId, LinkSpec, ShardSpec, ShardedEngine, Topology,
};
use aequitas_replay::{AuditOptions, CheckStatus, Reconstruction};
use aequitas_rpc::{
    ArrivalProcess, Policy, Priority, PrioritySpec, RpcStack, TrafficPattern, WorkloadHost,
    WorkloadSpec,
};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use aequitas_stats::Percentiles;
use aequitas_telemetry::{Telemetry, TelemetryConfig, TraceSink};
use aequitas_workloads::SizeDist;
use std::sync::{Arc, Mutex};

/// Hosts of the star workloads (the paper's §6.3 fabric).
pub const STAR_HOSTS: usize = 33;
/// Shape of the `clos128_sharded` fabric: pods, spines per pod, leaves per
/// pod, hosts per leaf, core switches.
const CLOS_SHAPE: (usize, usize, usize, usize, usize) = (4, 2, 2, 16, 4);

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 33-node run with 32 KB RPCs.
    Star33Rpc32k,
    /// The same fabric with 1 KB RPCs.
    Star33Rpc1k,
    /// Raw packets through the same fabric, no host stack.
    FabricRaw,
    /// A 128-host Clos on the sharded engine.
    Clos128Sharded,
    /// A fully traced slice, then replayed and audited.
    Star33TracedAudit,
    /// The 33-node run under an always-active fault plan.
    Star33Faults,
    /// D3 then PDQ on fig22's offered load.
    Star33Deadline,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 7] = [
        Workload::Star33Rpc32k,
        Workload::Star33Rpc1k,
        Workload::FabricRaw,
        Workload::Clos128Sharded,
        Workload::Star33TracedAudit,
        Workload::Star33Faults,
        Workload::Star33Deadline,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Star33Rpc32k => "star33_rpc32k",
            Workload::Star33Rpc1k => "star33_rpc1k",
            Workload::FabricRaw => "fabric_raw",
            Workload::Clos128Sharded => "clos128_sharded",
            Workload::Star33TracedAudit => "star33_traced_audit",
            Workload::Star33Faults => "star33_faults",
            Workload::Star33Deadline => "star33_deadline",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a simulated operation may fail on this workload. The four
    /// fault-free Aequitas/raw workloads must complete everything they
    /// finish; faults, the transient audit slice and deadline termination
    /// fail operations by design.
    pub fn fault_free(self) -> bool {
        matches!(
            self,
            Workload::Star33Rpc32k
                | Workload::Star33Rpc1k
                | Workload::FabricRaw
                | Workload::Clos128Sharded
        )
    }

    /// Build the workload's inputs and engine from `seed`, up to and
    /// including `on_start`; the returned runner does one repetition. With
    /// `spanned`, every host agent is wrapped in [`Spanned`].
    pub fn build(self, seed: u64, spanned: bool) -> Runner {
        match self {
            Workload::Star33Rpc32k => star33_runner(rpc32k_setup(seed), spanned),
            Workload::Star33Rpc1k => star33_runner(rpc1k_setup(seed), spanned),
            Workload::FabricRaw => raw_runner(seed, spanned),
            Workload::Clos128Sharded => {
                clos_runner(seed, ClosEngine::Sharded(shard_threads()), spanned)
            }
            Workload::Star33TracedAudit => audit_runner(seed, AuditSink::Memory, spanned),
            Workload::Star33Faults => star33_runner(faults_setup(seed), spanned),
            Workload::Star33Deadline => deadline_runner(seed, spanned),
        }
    }
}

/// Worker threads of the `clos128_sharded` workload: `min(nproc, 4)`.
pub fn shard_threads() -> usize {
    crate::measure::nproc().min(4)
}

/// The simulated outcome of one repetition: a pure function of seed and
/// code, identical on every repetition and with spans on or off.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Digest of the harvested completion stream.
    pub digest: u64,
    /// Operations attempted (RPCs; packets on `fabric_raw`).
    pub attempted: u64,
    /// Operations that ran to completion.
    pub completed: u64,
    /// Operations failed, terminated or dropped.
    pub failed: u64,
    /// Operations still outstanding at the end time (neither of the above).
    pub outstanding: u64,
    /// Acknowledged payload of operations issued after the stats start, per
    /// simulated second, Gbit/s.
    pub goodput_gbps: f64,
    /// 99th-percentile latency (µs) of performance-critical operations that
    /// ran on their requested class.
    pub pc_p99_us: f64,
    /// Their 99.9th percentile (the paper's SLO percentile).
    pub pc_p999_us: f64,
    /// Samples behind both.
    pub pc_samples: u64,
    /// Share of those operations within the workload's SLO.
    pub pc_slo_attain_frac: f64,
    /// Share of performance-critical bytes that ran to completion on the
    /// class they asked for.
    pub pc_admitted_share: f64,
    /// Exact per-layer counts.
    pub counts: Counts,
}

impl SimStats {
    /// Share of attempted operations that did not fail.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Operations the simulator lost track of: conservation says
    /// `attempted = completed + failed + outstanding`.
    pub fn unaccounted(&self) -> u64 {
        self.attempted
            .abs_diff(self.completed + self.failed + self.outstanding)
    }
}

/// One repetition's outcome: the simulated statistics and where the host
/// time went.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Simulated outcome.
    pub sim: SimStats,
    /// Host seconds advancing the engine to the end time.
    pub advance_s: f64,
    /// Host seconds harvesting, sorting and scoring.
    pub harvest_s: f64,
    /// Host seconds of further stages (trace replay and audit).
    pub post_s: f64,
    /// Callback spans (zero unless built with `spanned`).
    pub spans: SpanTotals,
    /// Per-layer host numbers only this workload produces.
    pub extra: Vec<(&'static str, f64)>,
    /// Whether the audit's `trace_integrity` check passed (audit runs only).
    pub trace_integrity: Option<bool>,
}

impl Rep {
    /// Host seconds from engine ready to statistics computed.
    pub fn wall_s(&self) -> f64 {
        self.advance_s + self.harvest_s + self.post_s
    }
}

/// One repetition, ready to run.
pub type Runner = Box<dyn FnOnce() -> Rep>;

// ---------------------------------------------------------------------------
// RPC workloads on `WorkloadHost` agents.
// ---------------------------------------------------------------------------

/// How an RPC run is advanced and scored.
struct RpcPlan {
    end: SimTime,
    stats_start: SimTime,
    /// Per-MTU latency target of performance-critical RPCs.
    pc_slo_per_mtu: SimDuration,
    shard_domains: u64,
    /// Trace capture, when telemetry is wired in.
    trace: Option<(Telemetry, TraceBuf)>,
}

/// The byte-equivalent of `MacroSetup::build_agents` (which is private):
/// same policy seeds, same stack, same host seeds. The traced run's digest
/// equalling the untraced run's — which goes through the harness — is the
/// proof.
fn replica_agents(setup: &mut MacroSetup, telemetry: &Telemetry) -> Vec<WorkloadHost> {
    let n = setup.topo.num_hosts();
    let line_rate = setup.line_rate();
    std::mem::take(&mut setup.workloads)
        .into_iter()
        .enumerate()
        .map(|(h, spec)| {
            let policy = match &setup.policy {
                PolicyChoice::Static => Policy::Static,
                PolicyChoice::Aequitas(cfg) => {
                    Policy::aequitas(cfg.clone(), setup.seed ^ (0xACE0 + h as u64))
                }
                PolicyChoice::DropExcess(cfg) => {
                    Policy::AequitasDropExcess(aequitas::AdmissionController::new(
                        cfg.clone(),
                        setup.seed ^ (0xD409 + h as u64),
                    ))
                }
            };
            let mut stack = RpcStack::new(
                HostId(h),
                setup.mapping.clone(),
                policy,
                setup.transport.clone(),
            );
            if telemetry.is_enabled() {
                stack.set_telemetry(telemetry.clone());
            }
            WorkloadHost::new(stack, spec, n, line_rate, setup.seed ^ (h as u64) << 8)
        })
        .collect()
}

fn star33_workload(rpc_bytes: u64) -> WorkloadSpec {
    let mut spec = slo::node33_workload([0.6, 0.3, 0.1], None);
    for class in &mut spec.classes {
        class.sizes = SizeDist::Fixed(rpc_bytes);
    }
    spec
}

fn star33_setup(seed: u64, rpc_bytes: u64, config: AequitasConfig) -> MacroSetup {
    let mut setup = MacroSetup::star_3qos(STAR_HOSTS);
    setup.name = "benchmark";
    setup.policy = PolicyChoice::Aequitas(config);
    setup.seed = seed;
    for w in &mut setup.workloads {
        *w = Some(star33_workload(rpc_bytes));
    }
    setup
}

/// `star33_rpc32k`: the paper's §6.3 / fig12 run.
pub fn rpc32k_setup(seed: u64) -> MacroSetup {
    let mut setup = star33_setup(seed, 32_768, slo::slo_config_33());
    setup.duration = SimDuration::from_ms(20);
    setup.warmup = SimDuration::from_ms(12);
    setup
}

/// `star33_rpc1k`: one packet per RPC. The paper's 15 µs / 25 µs targets
/// apply to the RPC as a whole: `slo_config_33` spreads them over 8 MTUs,
/// which for a 1-MTU RPC is below the fabric's unloaded round trip and
/// would pin SLO attainment at exactly zero.
fn rpc1k_setup(seed: u64) -> MacroSetup {
    let config = AequitasConfig::three_qos(
        SloTarget::absolute(SimDuration::from_us(15), 1, 99.9),
        SloTarget::absolute(SimDuration::from_us(25), 1, 99.9),
    );
    let mut setup = star33_setup(seed, 1024, config);
    setup.duration = SimDuration::from_us(2500);
    setup.warmup = SimDuration::from_us(1250);
    setup
}

/// The plan of `star33_faults`, parsed at build time like a user's
/// `--faults` file.
pub const FAULT_PLAN_TOML: &str = include_str!("../plans/star33_faults.toml");

fn faults_setup(seed: u64) -> MacroSetup {
    let mut setup = rpc32k_setup(seed);
    let plan = FaultPlan::from_toml_str(FAULT_PLAN_TOML).expect("the committed plan is valid");
    setup.engine.faults = Some(Arc::new(plan));
    setup
}

/// A validated plan whose windows never open during a run: prices the
/// fault layer's "costs nothing when off" fast path.
pub fn idle_plan() -> Arc<FaultPlan> {
    let far = SimTime::ZERO + SimDuration::from_secs(3600);
    let plan = FaultPlan {
        seed: 1,
        flaps: vec![aequitas_netsim::faults::LinkFlap {
            link: aequitas_netsim::faults::LinkSel::Any,
            first_down: far,
            down: SimDuration::from_us(100),
            period: SimDuration::from_ms(1),
            count: 1,
        }],
        ..FaultPlan::default()
    };
    Arc::new(plan.validated().expect("the idle plan is well-formed"))
}

fn plan_of(setup: &MacroSetup, shard_domains: u64) -> RpcPlan {
    let config = match &setup.policy {
        PolicyChoice::Aequitas(c) | PolicyChoice::DropExcess(c) => c,
        PolicyChoice::Static => panic!("benchmark workloads run an admission controller"),
    };
    RpcPlan {
        end: SimTime::ZERO + setup.duration,
        stats_start: SimTime::ZERO + setup.warmup,
        pc_slo_per_mtu: config.slos[0]
            .expect("every benchmark policy sets a QoSh SLO")
            .latency_target_per_mtu,
        shard_domains,
        trace: None,
    }
}

/// Runner of a star-33 RPC workload. Untraced, the engine comes from the
/// harness (the product's own path); spanned, from [`replica_agents`].
pub fn star33_runner(mut setup: MacroSetup, spanned: bool) -> Runner {
    let plan = plan_of(&setup, 0);
    if spanned {
        let agents = replica_agents(&mut setup, &Telemetry::disabled())
            .into_iter()
            .map(Spanned::new)
            .collect();
        rpc_runner(Engine::new(setup.topo, agents, setup.engine), plan)
    } else {
        rpc_runner(harness::build_engine(setup), plan)
    }
}

fn rpc_runner<A, F>(mut fabric: F, plan: RpcPlan) -> Runner
where
    A: Probe<Agent = WorkloadHost>,
    F: Fabric<A> + 'static,
{
    fabric.run_until(SimTime::ZERO); // on_start is set-up
    Box::new(move || {
        let (advance_s, ()) = timed(|| advance_rpc(&mut fabric, &plan));
        let (harvest_s, (sim, spans)) = timed(|| harvest_rpc(&mut fabric, &plan));
        let mut rep = Rep {
            sim,
            advance_s,
            harvest_s,
            post_s: 0.0,
            spans,
            extra: Vec::new(),
            trace_integrity: None,
        };
        if let Some((_, buf)) = &plan.trace {
            replay_and_audit(buf, &mut rep);
        }
        rep
    })
}

/// Advance to the end time. With telemetry wired this is the loop of
/// `harness::run_macro`: the metrics registry is sampled on its simulated
/// cadence, then once more at the end, and the sink is flushed.
fn advance_rpc<A, F>(fabric: &mut F, plan: &RpcPlan)
where
    A: Probe<Agent = WorkloadHost>,
    F: Fabric<A>,
{
    let Some((tel, _)) = &plan.trace else {
        fabric.run_until(plan.end);
        return;
    };
    let every = tel.sample_every().unwrap_or(SimDuration::MAX);
    let hosts = fabric.topo().num_hosts();
    let sample = |fabric: &mut F, now: SimTime| {
        fabric.sample_metrics();
        for h in 0..hosts {
            fabric.agent_mut(HostId(h)).agent().stack().sample_metrics();
        }
        tel.sample(now);
    };
    let mut next = if every == SimDuration::MAX {
        SimTime::MAX
    } else {
        SimTime::ZERO + every
    };
    while next < plan.end {
        fabric.run_until(next);
        sample(fabric, next);
        next += every;
    }
    fabric.run_until(plan.end);
    sample(fabric, plan.end);
    tel.flush();
}

fn harvest_rpc<A, F>(fabric: &mut F, plan: &RpcPlan) -> (SimStats, SpanTotals)
where
    A: Probe<Agent = WorkloadHost>,
    F: Fabric<A>,
{
    let hosts = fabric.topo().num_hosts();
    let mut counts = Counts {
        shard_domains: plan.shard_domains,
        ..Counts::default()
    };
    engine_counts(fabric, &mut counts);
    let mut spans = SpanTotals::default();
    let mut completions = Vec::new();
    for h in 0..hosts {
        let probe = fabric.agent_mut(HostId(h));
        spans.merge(probe.spans());
        let host = probe.agent();
        counts.rpc_issued += host.issued();
        completions.extend(host.take_completions());
        let stack = host.stack_mut();
        for f in stack.take_rpc_failures() {
            counts.rpc_failed += 1;
            counts.rpc_retries += u64::from(f.attempts - 1);
        }
        counts.rpc_outstanding += stack.outstanding() as u64;
        if let Some((decisions, downgraded)) = stack.admission_counters() {
            counts.core_decisions += decisions;
            counts.core_downgraded += downgraded;
        }
        for dst in 0..hosts {
            for class in 0..3 {
                let flow = FlowKey {
                    src: HostId(h),
                    dst: HostId(dst),
                    class,
                };
                if let Some(c) = stack.transport().connection_stats(&flow) {
                    counts.sent_segments += c.sent_segments;
                    counts.retransmits += c.retransmits;
                    counts.failed_messages += c.failed_messages;
                }
            }
        }
    }
    completions.sort_by_key(|c| c.completed_at);
    counts.rpc_completed = completions.len() as u64;

    let mut goodput_bytes = 0u64;
    let mut pc_bytes = 0u64;
    let mut pc_admitted_bytes = 0u64;
    let mut pc_within_slo = 0u64;
    let mut pc_rnl = Percentiles::new();
    for c in &completions {
        counts.rpc_retries += u64::from(c.attempts - 1);
        if c.issued_at < plan.stats_start {
            continue;
        }
        goodput_bytes += c.size_bytes;
        if c.priority != Priority::PerformanceCritical {
            continue;
        }
        pc_bytes += c.size_bytes;
        if c.qos_run == c.qos_requested {
            pc_admitted_bytes += c.size_bytes;
            pc_rnl.record(c.rnl().as_us_f64());
            if c.rnl_per_mtu() <= plan.pc_slo_per_mtu {
                pc_within_slo += 1;
            }
        }
    }
    let measure_secs = plan.end.since(plan.stats_start).as_secs_f64();
    let pc_samples = pc_rnl.count() as u64;
    let sim = SimStats {
        digest: chaos::completion_digest(&completions),
        attempted: counts.rpc_issued,
        completed: counts.rpc_completed,
        failed: counts.rpc_failed,
        outstanding: counts.rpc_outstanding,
        goodput_gbps: goodput_bytes as f64 * 8.0 / measure_secs / 1e9,
        pc_p99_us: pc_rnl.p99().unwrap_or(0.0),
        pc_p999_us: pc_rnl.p999().unwrap_or(0.0),
        pc_samples,
        pc_slo_attain_frac: pc_within_slo as f64 / pc_samples.max(1) as f64,
        pc_admitted_share: pc_admitted_bytes as f64 / pc_bytes.max(1) as f64,
        counts,
    };
    (sim, spans)
}

// ---------------------------------------------------------------------------
// clos128_sharded
// ---------------------------------------------------------------------------

/// Which engine a Clos run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosEngine {
    /// `ShardedEngine` on this many worker threads.
    Sharded(usize),
    /// The plain single-domain `Engine`.
    Plain,
}

/// The `clos128_sharded` fabric: 100G everywhere, 2 µs of wire to the cores
/// (which is also the lookahead of the pod partition).
pub fn clos_topology() -> Topology {
    let (pods, spines, leaves, hosts_per_leaf, cores) = CLOS_SHAPE;
    let core = LinkSpec {
        rate: BitRate::from_gbps(100),
        propagation: SimDuration::from_us(2),
    };
    Topology::clos(
        pods,
        spines,
        leaves,
        hosts_per_leaf,
        cores,
        LinkSpec::default_100g(),
        LinkSpec::default_100g(),
        core,
    )
}

fn clos_setup(seed: u64) -> (MacroSetup, ShardSpec) {
    let (pods, spines, leaves, ..) = CLOS_SHAPE;
    let topo = clos_topology();
    let spec = ShardSpec::clos_pods(&topo, pods, spines, leaves);
    let mut setup = MacroSetup::star_3qos(topo.num_hosts());
    setup.name = "benchmark";
    setup.topo = topo;
    setup.policy = PolicyChoice::Aequitas(large::production_slo_config());
    setup.duration = SimDuration::from_ms(10);
    setup.warmup = SimDuration::from_ms(5);
    setup.seed = seed;
    // The `fleet.rs` shape: Poisson, all-to-all, fixed 8 KB, 60/30/10. The
    // load is 0.1, not fleet-quick's 0.2: with 16 hosts under two 100G
    // uplinks a leaf offers 0.2 x 16 x 100G x 112/127 = 282G to 200G, the
    // backlog grows for as long as the run lasts and no statistic settles.
    let mix = [
        (Priority::PerformanceCritical, 0.6),
        (Priority::NonCritical, 0.3),
        (Priority::BestEffort, 0.1),
    ];
    for w in &mut setup.workloads {
        *w = Some(WorkloadSpec {
            arrival: ArrivalProcess::Poisson { load: 0.1 },
            pattern: TrafficPattern::AllToAll,
            classes: mix
                .iter()
                .map(|&(priority, byte_share)| PrioritySpec {
                    priority,
                    byte_share,
                    sizes: SizeDist::Fixed(8_192),
                })
                .collect(),
            stop: None,
        });
    }
    (setup, spec)
}

/// Runner of the Clos workload on the chosen engine.
pub fn clos_runner(seed: u64, engine: ClosEngine, spanned: bool) -> Runner {
    let (mut setup, spec) = clos_setup(seed);
    match engine {
        ClosEngine::Plain => {
            assert!(
                !spanned,
                "the plain-engine Clos run is an untraced side run"
            );
            let plan = plan_of(&setup, 0);
            rpc_runner(harness::build_engine(setup), plan)
        }
        ClosEngine::Sharded(threads) => {
            let plan = plan_of(&setup, spec.num_domains as u64);
            if spanned {
                let agents = replica_agents(&mut setup, &Telemetry::disabled())
                    .into_iter()
                    .map(Spanned::new)
                    .collect();
                let fabric = ShardedEngine::new(setup.topo, agents, setup.engine, spec, threads);
                rpc_runner(fabric, plan)
            } else {
                rpc_runner(harness::build_sharded_engine(setup, spec, threads), plan)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// star33_traced_audit
// ---------------------------------------------------------------------------

/// An in-memory JSONL buffer shared between a trace sink and the benchmark.
#[derive(Clone, Default)]
pub struct TraceBuf(Arc<Mutex<Vec<u8>>>);

/// Trace sink that appends lines to its own buffer (no lock per line) and
/// publishes it into the shared [`TraceBuf`] on flush, so disk noise stays
/// out of the number.
struct MemorySink {
    lines: Vec<u8>,
    shared: TraceBuf,
}

impl TraceSink for MemorySink {
    fn record_line(&mut self, line: &str) {
        self.lines.extend_from_slice(line.as_bytes());
        self.lines.push(b'\n');
    }

    fn flush(&mut self) {
        let mut shared = self
            .shared
            .0
            .lock()
            .expect("no thread panics holding the trace buffer");
        shared.append(&mut self.lines);
    }
}

/// Where the audit workload's trace goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditSink {
    /// No telemetry: the untraced reference of the same slice.
    Off,
    /// Telemetry into `NullSink`: serialization without storage.
    Null,
    /// Telemetry into the in-memory buffer, then replay and audit.
    Memory,
}

/// Runner of the traced slice: `star33_rpc32k`'s input for 2 ms.
pub fn audit_runner(seed: u64, sink: AuditSink, spanned: bool) -> Runner {
    let mut setup = rpc32k_setup(seed);
    setup.duration = SimDuration::from_us(1500);
    // The whole slice is start-up transient: every completion counts.
    setup.warmup = SimDuration::ZERO;
    let mut plan = plan_of(&setup, 0);
    let buf = TraceBuf::default();
    let telemetry = match sink {
        AuditSink::Off => Telemetry::disabled(),
        AuditSink::Null => {
            Telemetry::with_sink(aequitas_telemetry::NullSink, TelemetryConfig::default())
        }
        AuditSink::Memory => Telemetry::with_sink(
            MemorySink {
                lines: Vec::new(),
                shared: buf.clone(),
            },
            TelemetryConfig::default(),
        ),
    };
    if telemetry.is_enabled() {
        // The replay stage runs only on a stored trace.
        plan.trace = Some((telemetry.clone(), buf));
    }
    if spanned {
        // Same wiring as the harness minus its private `run_info` line.
        let agents = replica_agents(&mut setup, &telemetry)
            .into_iter()
            .map(Spanned::new)
            .collect();
        let mut engine = Engine::new(setup.topo, agents, setup.engine);
        if telemetry.is_enabled() {
            engine.set_telemetry(telemetry);
        }
        rpc_runner(engine, plan)
    } else {
        setup.telemetry = telemetry;
        rpc_runner(harness::build_engine(setup), plan)
    }
}

/// Reconstruct and audit the captured trace, as `--trace … --audit` does.
fn replay_and_audit(buf: &TraceBuf, rep: &mut Rep) {
    let bytes = std::mem::take(
        &mut *buf
            .0
            .lock()
            .expect("no thread panics holding the trace buffer"),
    );
    if bytes.is_empty() {
        return; // NullSink: nothing was stored
    }
    let counts = &mut rep.sim.counts;
    counts.trace_bytes = bytes.len() as u64;
    counts.trace_lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
    let (reconstruct_s, recon) = timed(|| Reconstruction::from_reader(&bytes[..]));
    let mut recon = recon.expect("the simulator's own trace parses");
    let (audit_s, report) =
        timed(|| aequitas_replay::audit::audit(&mut recon, &AuditOptions::default()));
    for check in &report.checks {
        match check.status {
            CheckStatus::Pass => counts.checks_pass += 1,
            CheckStatus::Fail => counts.checks_fail += 1,
            CheckStatus::Skip => {}
        }
    }
    rep.trace_integrity = Some(
        report
            .checks
            .iter()
            .any(|c| c.name == "trace_integrity" && c.status == CheckStatus::Pass),
    );
    rep.post_s = reconstruct_s + audit_s;
    rep.extra.push(("replay.reconstruct_s", reconstruct_s));
    rep.extra.push(("replay.audit_s", audit_s));
}

// ---------------------------------------------------------------------------
// fabric_raw
// ---------------------------------------------------------------------------

/// Offered load of every blaster, as a share of its line rate.
const RAW_LOAD: f64 = 0.8;
const RAW_STOP: SimDuration = SimDuration::from_ms(24);
const RAW_STATS_START: SimDuration = SimDuration::from_ms(4);
/// Idle time after the last send in which every queue drains, so that
/// `sent = delivered + dropped` holds exactly.
const RAW_DRAIN: SimDuration = SimDuration::from_ms(1);
/// One-way-delay target of class-0 packets on `fabric_raw`.
const RAW_PC_SLO: SimDuration = SimDuration::from_us(5);

fn raw_runner(seed: u64, spanned: bool) -> Runner {
    let topo = Topology::star(STAR_HOSTS, LinkSpec::default_100g());
    let rate = topo.host_ports[0].link.rate;
    let blasters = (0..STAR_HOSTS).map(|h| {
        RawBlaster::new(
            h,
            STAR_HOSTS,
            rate,
            RAW_LOAD,
            SimTime::ZERO + RAW_STOP,
            SimTime::ZERO + RAW_STATS_START,
            seed ^ (h as u64) << 8,
        )
    });
    let config = EngineConfig::default_3qos();
    if spanned {
        raw_run(Engine::new(
            topo,
            blasters.map(Spanned::new).collect(),
            config,
        ))
    } else {
        raw_run(Engine::new(topo, blasters.collect(), config))
    }
}

fn raw_run<A: Probe<Agent = RawBlaster> + 'static>(mut engine: Engine<A>) -> Runner {
    engine.run_until(SimTime::ZERO);
    Box::new(move || {
        let (advance_s, ()) = timed(|| engine.run_until(SimTime::ZERO + RAW_STOP + RAW_DRAIN));
        let (harvest_s, (sim, spans)) = timed(|| harvest_raw(&mut engine));
        Rep {
            sim,
            advance_s,
            harvest_s,
            post_s: 0.0,
            spans,
            extra: Vec::new(),
            trace_integrity: None,
        }
    })
}

fn harvest_raw<A: Probe<Agent = RawBlaster>>(engine: &mut Engine<A>) -> (SimStats, SpanTotals) {
    let mut counts = Counts::default();
    engine_counts(engine, &mut counts);
    let mut spans = SpanTotals::default();
    let mut digest = Digest::default();
    let (mut sent, mut delivered, mut payload_bytes) = (0u64, 0u64, 0u64);
    let (mut pc_sent, mut pc_delivered) = (0u64, 0u64);
    let mut pc_delay = Percentiles::new();
    let mut pc_within_slo = 0u64;
    for probe in engine.agents_mut() {
        spans.merge(probe.spans());
        let b = probe.agent();
        sent += b.sent.iter().sum::<u64>();
        delivered += b.delivered.iter().sum::<u64>();
        pc_sent += b.sent[0];
        pc_delivered += b.delivered[0];
        payload_bytes += b.measured_payload_bytes;
        digest.merge(b.digest);
        for &us in &b.pc_delay_us {
            pc_delay.record(us);
            if us <= RAW_PC_SLO.as_us_f64() {
                pc_within_slo += 1;
            }
        }
    }
    let pc_samples = pc_delay.count() as u64;
    let dropped = counts.buffer_drops;
    let sim = SimStats {
        digest: digest.0,
        attempted: sent,
        completed: delivered,
        failed: dropped,
        // After the drain nothing is in flight: any difference is a packet
        // the fabric lost track of, and fails the conservation check.
        outstanding: 0,
        goodput_gbps: payload_bytes as f64 * 8.0
            / (RAW_STOP.as_secs_f64() - RAW_STATS_START.as_secs_f64())
            / 1e9,
        pc_p99_us: pc_delay.p99().unwrap_or(0.0),
        pc_p999_us: pc_delay.p999().unwrap_or(0.0),
        pc_samples,
        pc_slo_attain_frac: pc_within_slo as f64 / pc_samples.max(1) as f64,
        // No controller: every class-0 packet runs on class 0 unless dropped.
        pc_admitted_share: pc_delivered as f64 / pc_sent.max(1) as f64,
        counts,
    };
    (sim, spans)
}

// ---------------------------------------------------------------------------
// star33_deadline and the other baselines
// ---------------------------------------------------------------------------

/// Slices per repetition, each `DEADLINE_STOP` of load plus the drain.
const DEADLINE_SLICES: u64 = 3;
const DEADLINE_STOP: SimDuration = SimDuration::from_us(250);
const DEADLINE_DRAIN: SimDuration = SimDuration::from_us(250);
/// D3/PDQ deadline of performance-critical RPCs (§6.10).
const DEADLINE_PC_US: f64 = 250.0;

/// fig22's offered load for host `src`, until `stop` (for ever without one).
pub fn fig22_gen(src: usize, stop: Option<SimDuration>, seed: u64) -> WorkloadGen {
    let classes = [
        (Priority::PerformanceCritical, 0.5),
        (Priority::NonCritical, 0.3),
        (Priority::BestEffort, 0.2),
    ]
    .into_iter()
    .map(|(p, share)| (p, share, SizeDist::production_like(p)))
    .collect();
    WorkloadGen::new(
        ArrivalProcess::BurstOnOff {
            mu: 0.9,
            rho: 2.0,
            period: SimDuration::from_us(100),
        },
        TrafficPattern::AllToAll,
        classes,
        src,
        STAR_HOSTS,
        BitRate::from_gbps(100),
        stop.map(|s| SimTime::ZERO + s),
        seed ^ (src as u64 * 0x9E37),
    )
}

/// RPCs and performance-critical bytes the generators offer until `stop`:
/// the denominators a scheme that never finishes an RPC cannot shrink.
fn offered(stop: SimDuration, seed: u64) -> (u64, u64) {
    let (mut rpcs, mut pc_bytes) = (0u64, 0u64);
    for src in 0..STAR_HOSTS {
        let mut gen = fig22_gen(src, Some(stop), seed);
        while let Some(rpc) = gen.next_rpc() {
            rpcs += 1;
            if rpc.qos == 0 {
                pc_bytes += rpc.size_bytes;
            }
        }
    }
    (rpcs, pc_bytes)
}

/// A baseline scheme the benchmark can run on fig22's load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// D3.
    D3,
    /// PDQ.
    Pdq,
    /// pFabric.
    Pfabric,
    /// QJump.
    Qjump,
    /// Homa.
    Homa,
}

/// A baseline engine behind one type: advance it and read it out.
trait BaselineRun {
    fn advance(&mut self, end: SimTime);
    fn harvest(&mut self, out: &mut BaselineHarvest);
}

#[derive(Default)]
struct BaselineHarvest {
    counts: Counts,
    spans: SpanTotals,
    completions: Vec<BaselineCompletion>,
}

struct BaselineEngine<A: HostAgent, G> {
    engine: Engine<A>,
    completions: G,
}

impl<A, G> BaselineRun for BaselineEngine<A, G>
where
    A: Probe,
    G: Fn(&mut A::Agent) -> &[BaselineCompletion],
{
    fn advance(&mut self, end: SimTime) {
        self.engine.run_until(end);
    }

    fn harvest(&mut self, out: &mut BaselineHarvest) {
        let mut counts = Counts::default();
        engine_counts(&self.engine, &mut counts);
        out.counts.events += counts.events;
        out.counts.switch_tx_pkts += counts.switch_tx_pkts;
        out.counts.nic_tx_pkts += counts.nic_tx_pkts;
        out.counts.buffer_drops += counts.buffer_drops;
        out.counts.max_backlog_bytes = out.counts.max_backlog_bytes.max(counts.max_backlog_bytes);
        for probe in self.engine.agents_mut() {
            out.spans.merge(probe.spans());
            out.completions
                .extend_from_slice((self.completions)(probe.agent()));
        }
    }
}

fn baseline_engine<A, G>(
    spanned: bool,
    config: EngineConfig,
    agents: impl Iterator<Item = A>,
    completions: G,
) -> Box<dyn BaselineRun>
where
    A: Probe<Agent = A> + 'static,
    G: Fn(&mut A) -> &[BaselineCompletion] + 'static,
{
    let topo = Topology::star(STAR_HOSTS, LinkSpec::default_100g());
    if spanned {
        let mut engine = Engine::new(topo, agents.map(Spanned::new).collect(), config);
        engine.run_until(SimTime::ZERO);
        Box::new(BaselineEngine {
            engine,
            completions,
        })
    } else {
        let mut engine = Engine::new(topo, agents.collect(), config);
        engine.run_until(SimTime::ZERO);
        Box::new(BaselineEngine {
            engine,
            completions,
        })
    }
}

fn scheme_engine(
    scheme: Scheme,
    stop: SimDuration,
    seed: u64,
    spanned: bool,
) -> Box<dyn BaselineRun> {
    let hosts = 0..STAR_HOSTS;
    let rate = BitRate::from_gbps(100);
    // Per-scheme seeds, as fig22 gives each scheme its own stream.
    let gen = move |h: usize, salt: u64| Some(fig22_gen(h, Some(stop), seed ^ salt));
    match scheme {
        Scheme::D3 | Scheme::Pdq => {
            let (mode, salt) = if scheme == Scheme::D3 {
                (DeadlineMode::D3, 0xD3)
            } else {
                (DeadlineMode::Pdq, 0x9D9)
            };
            baseline_engine(
                spanned,
                deadline::engine_config(),
                hosts.map(move |h| DeadlineHost::new(HostId(h), mode, gen(h, salt), rate)),
                |a: &mut DeadlineHost| a.completions(),
            )
        }
        Scheme::Pfabric => baseline_engine(
            spanned,
            pfabric::engine_config(),
            hosts.map(move |h| PfabricHost::new(HostId(h), gen(h, 0x9FAB))),
            |a: &mut PfabricHost| a.completions(),
        ),
        Scheme::Qjump => baseline_engine(
            spanned,
            qjump::engine_config(),
            hosts.map(move |h| QjumpHost::new(HostId(h), gen(h, 0x71), rate)),
            |a: &mut QjumpHost| a.completions(),
        ),
        Scheme::Homa => baseline_engine(
            spanned,
            homa::engine_config(),
            hosts.map(move |h| HomaHost::new(HostId(h), gen(h, 0x403A))),
            |a: &mut HomaHost| a.completions(),
        ),
    }
}

/// Host cost of one scheme on a short slice of fig22's load:
/// `(wall seconds, events)`.
pub fn scheme_slice(scheme: Scheme, stop: SimDuration, seed: u64) -> (f64, u64) {
    let mut run = scheme_engine(scheme, stop, seed, false);
    let (wall_s, ()) = timed(|| run.advance(SimTime::ZERO + stop + stop));
    let mut out = BaselineHarvest::default();
    run.harvest(&mut out);
    (wall_s, out.counts.events)
}

fn deadline_runner(seed: u64, spanned: bool) -> Runner {
    // Independent slices of the load, each under D3 and under PDQ. How many
    // flows the schemes terminate, and with it how hard PDQ's allocator
    // works, swings with how the hosts' bursts line up; several short
    // slices steady both the host cost and the Sim metrics.
    let slice_seeds = (0..DEADLINE_SLICES).map(|k| seed ^ (k << 32));
    let mut d3: Vec<_> = slice_seeds
        .clone()
        .map(|s| scheme_engine(Scheme::D3, DEADLINE_STOP, s, spanned))
        .collect();
    let mut pdq: Vec<_> = slice_seeds
        .clone()
        .map(|s| scheme_engine(Scheme::Pdq, DEADLINE_STOP, s, spanned))
        .collect();
    let (mut offered_rpcs, mut offered_pc_bytes) = (0, 0);
    for s in slice_seeds {
        for salt in [0xD3, 0x9D9] {
            let (rpcs, pc_bytes) = offered(DEADLINE_STOP, s ^ salt);
            offered_rpcs += rpcs;
            offered_pc_bytes += pc_bytes;
        }
    }
    let end = SimTime::ZERO + DEADLINE_STOP + DEADLINE_DRAIN;
    Box::new(move || {
        let (d3_s, ()) = timed(|| d3.iter_mut().for_each(|e| e.advance(end)));
        let (pdq_s, ()) = timed(|| pdq.iter_mut().for_each(|e| e.advance(end)));
        let (harvest_s, (sim, spans, d3_events)) = timed(|| {
            let mut out = BaselineHarvest::default();
            d3.iter_mut().for_each(|e| e.harvest(&mut out));
            let d3_events = out.counts.events;
            pdq.iter_mut().for_each(|e| e.harvest(&mut out));
            let sim = score_deadline(&out, offered_rpcs, offered_pc_bytes);
            (sim, out.spans, d3_events)
        });
        let pdq_events = sim.counts.events - d3_events;
        Rep {
            advance_s: d3_s + pdq_s,
            harvest_s,
            post_s: 0.0,
            spans,
            extra: vec![
                ("baselines.d3.wall_s", d3_s),
                ("baselines.pdq.wall_s", pdq_s),
                (
                    "baselines.d3.ns_per_event",
                    d3_s * 1e9 / d3_events.max(1) as f64,
                ),
                (
                    "baselines.pdq.ns_per_event",
                    pdq_s * 1e9 / pdq_events.max(1) as f64,
                ),
            ],
            trace_integrity: None,
            sim,
        }
    })
}

fn score_deadline(out: &BaselineHarvest, offered_rpcs: u64, offered_pc_bytes: u64) -> SimStats {
    let mut digest = Digest::default();
    let (mut completed, mut terminated) = (0u64, 0u64);
    let mut good_bytes = 0u64;
    let mut pc_good_bytes = 0u64;
    let mut pc_latency = Percentiles::new();
    let mut pc_within_slo = 0u64;
    for c in &out.completions {
        digest.add(&[
            c.issued_at.as_ps(),
            c.completed_at.as_ps(),
            u64::from(c.qos),
            c.size_bytes,
            u64::from(c.terminated),
        ]);
        if c.terminated {
            terminated += 1;
            continue;
        }
        completed += 1;
        good_bytes += c.size_bytes;
        if c.qos == 0 {
            pc_good_bytes += c.size_bytes;
            let us = c.latency().as_us_f64();
            pc_latency.record(us);
            if us <= DEADLINE_PC_US {
                pc_within_slo += 1;
            }
        }
    }
    let pc_samples = pc_latency.count() as u64;
    let mut counts = out.counts;
    counts.rpc_issued = offered_rpcs;
    counts.rpc_completed = completed;
    counts.rpc_failed = terminated;
    counts.rpc_outstanding = offered_rpcs.saturating_sub(completed + terminated);
    SimStats {
        digest: digest.0,
        attempted: offered_rpcs,
        completed,
        failed: terminated,
        outstanding: counts.rpc_outstanding,
        // Every slice offers load for `DEADLINE_STOP` under each scheme.
        goodput_gbps: good_bytes as f64 * 8.0
            / (2.0 * DEADLINE_SLICES as f64 * DEADLINE_STOP.as_secs_f64())
            / 1e9,
        pc_p99_us: pc_latency.p99().unwrap_or(0.0),
        pc_p999_us: pc_latency.p999().unwrap_or(0.0),
        pc_samples,
        pc_slo_attain_frac: pc_within_slo as f64 / pc_samples.max(1) as f64,
        pc_admitted_share: pc_good_bytes as f64 / offered_pc_bytes.max(1) as f64,
        counts,
    }
}
