//! Shared experiment plumbing: the [`RunCtx`] every experiment takes, building
//! engines of [`WorkloadHost`]s from a [`MacroSetup`], running them with
//! periodic sampling, and collecting results.

use aequitas::AequitasConfig;
use aequitas_netsim::{Engine, EngineConfig, HostId, LinkSpec, ShardSpec, ShardedEngine, Topology};
use aequitas_rpc::{Policy, RpcCompletion, RpcStack, WorkloadHost, WorkloadSpec};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use aequitas_netsim::SchedulerKind;
use aequitas_rpc::ArrivalProcess;
use aequitas_netsim::faults::FaultPlan;
use aequitas_telemetry::{Telemetry, TraceEvent};
use aequitas_transport::TransportConfig;
use aequitas_workloads::QosMapping;
use std::sync::Arc;

/// Experiment scale: quick (CI) or full (paper-scale).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Whether to use paper-scale durations/node counts.
    pub full: bool,
}

impl Scale {
    /// Quick mode.
    pub fn quick() -> Self {
        Scale { full: false }
    }
    /// Full (paper-scale) mode.
    pub fn full() -> Self {
        Scale { full: true }
    }
    /// Pick between a quick and a full value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }
}

/// The run context: everything an experiment takes from its caller rather
/// than from its own scenario. `aequitas-sim`'s `main` builds one from its
/// flags and hands `&RunCtx` to the chosen experiment; tests build one with
/// [`RunCtx::quick`]. Nothing between `main` and an engine reads a global
/// or an environment variable — what is not in here or in the
/// [`MacroSetup`] does not reach the run.
pub struct RunCtx {
    /// Quick (CI) or full (paper-scale) parameters (`--full`).
    pub scale: Scale,
    /// Worker threads for [`RunCtx::sweep`] and the sharded engine
    /// (`--threads`). Results are byte-identical for every value.
    pub threads: usize,
    /// Telemetry for every run that does not carry a handle of its own
    /// (`--trace` / `--metrics` / `--sample-us`).
    pub telemetry: Telemetry,
    /// Fault plan for every run whose scenario has none (`--faults`).
    pub faults: Option<Arc<FaultPlan>>,
    /// Replay and audit each traced run's trace when it ends (`--audit`).
    pub audit: bool,
}

impl RunCtx {
    /// The default context: quick scale, one sweep worker per available
    /// core, no telemetry, no fault plan, no self-audit.
    pub fn quick() -> RunCtx {
        RunCtx {
            scale: Scale::quick(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            telemetry: Telemetry::disabled(),
            faults: None,
            audit: false,
        }
    }

    /// Fill what the scenario left unset: its telemetry handle and its
    /// fault plan. A scenario's own always win.
    fn adopt(&self, mut setup: MacroSetup) -> MacroSetup {
        if !setup.telemetry.is_enabled() {
            setup.telemetry = self.telemetry.clone();
        }
        setup.engine.faults = self.adopt_faults(setup.engine.faults.take());
        setup
    }

    /// The fault plan a scenario runs under: its own, else this context's.
    pub(crate) fn adopt_faults(&self, own: Option<Arc<FaultPlan>>) -> Option<Arc<FaultPlan>> {
        own.or_else(|| self.faults.clone())
    }

    /// [`build_engine`] under this context, for scenarios that drive the
    /// engine themselves.
    pub fn build_engine(&self, setup: MacroSetup) -> Engine<WorkloadHost> {
        build_engine(self.adopt(setup))
    }

    /// [`run_macro`] under this context.
    pub fn run_macro(&self, setup: MacroSetup) -> MacroResult {
        self.run_macro_controlled(setup, SimDuration::MAX, |_, _| {})
    }

    /// [`run_macro_controlled`] under this context; self-audits the trace
    /// after the run when [`RunCtx::audit`] is set.
    pub fn run_macro_controlled<F>(
        &self,
        setup: MacroSetup,
        sample_every: SimDuration,
        sample: F,
    ) -> MacroResult
    where
        F: FnMut(&mut Engine<WorkloadHost>, SimTime),
    {
        let setup = self.adopt(setup);
        let tel = setup.telemetry.clone();
        let result = run_macro_controlled(setup, sample_every, sample);
        if self.audit {
            crate::audit::self_audit(&tel);
        }
        result
    }

    /// [`run_macro_sharded`] under this context, on [`RunCtx::threads`]
    /// workers.
    pub fn run_macro_sharded(&self, setup: MacroSetup, spec: ShardSpec) -> MacroResult {
        run_macro_sharded(self.adopt(setup), spec, self.threads)
    }

    /// Run `f` over independent points on [`RunCtx::threads`] workers;
    /// results come back in input order. A traced sweep runs on one worker:
    /// the points share this context's one trace stream, and only a serial
    /// sweep writes it as whole runs in input order (which is what replay
    /// needs to tell one run's epoch from the next).
    pub fn sweep<P, R, F>(&self, points: Vec<P>, f: F) -> Vec<R>
    where
        P: Send,
        R: Send,
        F: Fn(P) -> R + Sync,
    {
        let threads = if self.telemetry.is_enabled() {
            1
        } else {
            self.threads
        };
        crate::parallel::run_sweep_on(threads, points, f)
    }
}

/// Which admission policy each host runs.
#[derive(Clone)]
pub enum PolicyChoice {
    /// Static bijective mapping only ("w/o Aequitas").
    Static,
    /// Aequitas Phase 2 with this config.
    Aequitas(AequitasConfig),
    /// Ablation: Algorithm 1 decisions but excess RPCs are dropped instead
    /// of downgraded.
    DropExcess(AequitasConfig),
}

/// The workload seed of host `h` in a run seeded `seed`.
pub(crate) fn host_seed(seed: u64, h: usize) -> u64 {
    seed ^ (h as u64) << 8
}

/// Full description of a macro experiment run.
pub struct MacroSetup {
    /// Experiment name stamped into the trace's `run_info` event so replay
    /// reports and cross-run comparisons can identify what produced a trace.
    pub name: &'static str,
    /// The network.
    pub topo: Topology,
    /// Fabric configuration.
    pub engine: EngineConfig,
    /// Transport (CC) configuration.
    pub transport: TransportConfig,
    /// Priority→QoS mapping.
    pub mapping: QosMapping,
    /// Admission policy (same choice on every host; per-host seeds differ).
    pub policy: PolicyChoice,
    /// Per-host workload (`None` = receiver only).
    pub workloads: Vec<Option<WorkloadSpec>>,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Completions issued before this offset are excluded from statistics
    /// (convergence warm-up).
    pub warmup: SimDuration,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-host policy overrides (taken at build; wins over `policy`).
    /// Leave empty for a uniform policy.
    pub policy_overrides: Vec<Option<Policy>>,
    /// Telemetry handle wired through the engine, every stack, transport,
    /// and controller. Disabled by default; the [`RunCtx`] entry points
    /// fill in the context's handle when the scenario leaves it so.
    pub telemetry: Telemetry,
}

impl MacroSetup {
    /// A 100 Gbps star topology setup with 3-QoS WFQ 8:4:1 defaults.
    pub fn star_3qos(n: usize) -> MacroSetup {
        MacroSetup {
            name: "macro",
            topo: Topology::star(n, LinkSpec::default_100g()),
            engine: EngineConfig::default_3qos(),
            transport: TransportConfig::default(),
            mapping: QosMapping::three_level(),
            policy: PolicyChoice::Static,
            workloads: (0..n).map(|_| None).collect(),
            duration: SimDuration::from_ms(10),
            warmup: SimDuration::from_ms(2),
            seed: 2022,
            policy_overrides: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The line rate of host NICs in this setup (assumed uniform).
    pub fn line_rate(&self) -> BitRate {
        self.topo.host_ports[0].link.rate
    }

    /// Build one [`WorkloadHost`] per host, in host-id order. Seeds and
    /// policy construction depend only on `(seed, h)` — a sharded run
    /// calling this once gets byte-identical agents to an unsharded one.
    fn build_agents(&mut self, telemetry: &Telemetry) -> Vec<WorkloadHost> {
        let n = self.topo.num_hosts();
        assert_eq!(self.workloads.len(), n);
        let line_rate = self.line_rate();
        let mut overrides = std::mem::take(&mut self.policy_overrides);
        overrides.resize_with(n, || None);
        std::mem::take(&mut self.workloads)
            .into_iter()
            .enumerate()
            .map(|(h, spec)| {
                let policy = match overrides[h].take() {
                    Some(p) => p,
                    None => match &self.policy {
                        PolicyChoice::Static => Policy::Static,
                        PolicyChoice::Aequitas(cfg) => {
                            Policy::aequitas(cfg.clone(), self.seed ^ (0xACE0 + h as u64))
                        }
                        PolicyChoice::DropExcess(cfg) => Policy::AequitasDropExcess(
                            aequitas::AdmissionController::new(
                                cfg.clone(),
                                self.seed ^ (0xD409 + h as u64),
                            ),
                        ),
                    },
                };
                let mut stack = RpcStack::new(
                    HostId(h),
                    self.mapping.clone(),
                    policy,
                    self.transport.clone(),
                );
                if telemetry.is_enabled() {
                    stack.set_telemetry(telemetry.clone());
                }
                WorkloadHost::new(stack, spec, n, line_rate, host_seed(self.seed, h))
            })
            .collect()
    }

    /// Describe this setup as a [`TraceEvent::RunInfo`] so a trace is
    /// self-contained for offline audit (`aequitas-replay`). Aggregate
    /// `mu`/`rho`/`period_ps` describe the *sum* of sender loads at the
    /// shared bottleneck: burst-on-off loads add up; smooth (Poisson /
    /// Uniform) loads contribute `load` to both and leave the period at 0
    /// unless every sender bursts with one common period. Zero means
    /// "unknown" — the replay auditor skips the delay-bound checks rather
    /// than guessing.
    fn run_info_event(&self) -> TraceEvent {
        let weights = match &self.engine.switch_scheduler {
            SchedulerKind::Wfq(w) => w.clone(),
            SchedulerKind::Dwrr { weights, .. } => weights.clone(),
            _ => Vec::new(),
        };
        let (slos_per_mtu_ps, slo_percentile) = match &self.policy {
            PolicyChoice::Aequitas(cfg) | PolicyChoice::DropExcess(cfg) => (
                cfg.slos
                    .iter()
                    .map(|s| s.as_ref().map_or(0, |t| t.latency_target_per_mtu.as_ps()))
                    .collect(),
                cfg.slos
                    .iter()
                    .flatten()
                    .map(|t| t.target_percentile)
                    .next()
                    .unwrap_or(0.0),
            ),
            PolicyChoice::Static => (Vec::new(), 0.0),
        };
        let mut senders = 0u32;
        let mut mu = 0.0;
        let mut rho = 0.0;
        let mut period_ps = 0u64;
        let mut all_burst_same_period = true;
        for spec in self.workloads.iter().flatten() {
            senders += 1;
            match spec.arrival {
                ArrivalProcess::BurstOnOff {
                    mu: m,
                    rho: r,
                    period,
                } => {
                    mu += m;
                    rho += r;
                    if period_ps == 0 || period_ps == period.as_ps() {
                        period_ps = period.as_ps();
                    } else {
                        all_burst_same_period = false;
                    }
                }
                ArrivalProcess::Poisson { load } | ArrivalProcess::Uniform { load } => {
                    mu += load;
                    rho += load;
                    all_burst_same_period = false;
                }
            }
        }
        if !all_burst_same_period {
            period_ps = 0;
        }
        TraceEvent::RunInfo {
            experiment: self.name.to_string(),
            hosts: self.topo.num_hosts() as u32,
            classes: self.engine.classes as u32,
            weights,
            slos_per_mtu_ps,
            slo_percentile,
            warmup_ps: self.warmup.as_ps(),
            duration_ps: self.duration.as_ps(),
            senders,
            mu,
            rho,
            period_ps,
        }
    }

    fn build(mut self) -> (Engine<WorkloadHost>, SimDuration, SimDuration) {
        let telemetry = self.telemetry.clone();
        if telemetry.is_enabled() {
            telemetry.emit(SimTime::ZERO, self.run_info_event());
        }
        let agents = self.build_agents(&telemetry);
        let mut engine = Engine::new(self.topo, agents, self.engine);
        if telemetry.is_enabled() {
            engine.set_telemetry(telemetry);
        }
        (engine, self.duration, self.warmup)
    }
}

/// Build the engine for `setup` without running it (`aequitas-benchmark`
/// uses this to measure raw events/sec without harvest overhead).
pub fn build_engine(setup: MacroSetup) -> Engine<aequitas_rpc::WorkloadHost> {
    setup.build().0
}

/// Results of a macro run.
pub struct MacroResult {
    /// Completions from all hosts with `issued_at >= warmup`.
    pub completions: Vec<RpcCompletion>,
    /// Completions during warm-up (kept separate for convergence plots).
    pub warmup_completions: Vec<RpcCompletion>,
    /// Total RPCs issued across hosts (including warm-up).
    pub issued: u64,
    /// Payload bytes issued across hosts per priority (PC, NC, BE),
    /// including warm-up.
    pub issued_bytes: [u64; 3],
    /// Simulated duration after warm-up (for throughput math).
    pub measure_secs: f64,
    /// Events processed (engine work metric).
    pub events: u64,
    /// Frames the fault layer lost or corrupted.
    pub fault_drops: u64,
}

impl MacroResult {
    /// Collect completions and issue counts after a run, next to the
    /// engine's `(events, fault drops)`. `for_each_host`
    /// feeds every host, in host-id order, to the callback it is given;
    /// completions are split at the warm-up boundary and the measured ones
    /// sorted by completion time.
    fn harvest(
        duration: SimDuration,
        warmup: SimDuration,
        (events, fault_drops): (u64, u64),
        for_each_host: impl FnOnce(&mut dyn FnMut(&mut WorkloadHost)),
    ) -> MacroResult {
        let warmup_t = SimTime::ZERO + warmup;
        let mut completions = Vec::new();
        let mut warmup_completions = Vec::new();
        let mut issued = 0;
        let mut issued_bytes = [0; 3];
        for_each_host(&mut |host| {
            issued += host.issued();
            for (sum, bytes) in issued_bytes.iter_mut().zip(host.issued_bytes()) {
                *sum += bytes;
            }
            for c in host.take_completions() {
                if c.issued_at >= warmup_t {
                    completions.push(c);
                } else {
                    warmup_completions.push(c);
                }
            }
        });
        completions.sort_by_key(|c| c.completed_at);
        MacroResult {
            completions,
            warmup_completions,
            issued,
            issued_bytes,
            measure_secs: (duration.saturating_sub(warmup)).as_secs_f64(),
            events,
            fault_drops,
        }
    }
}

/// Run a macro experiment without sampling.
pub fn run_macro(setup: MacroSetup) -> MacroResult {
    run_macro_controlled(setup, SimDuration::MAX, |_, _| {})
}

/// One telemetry sampling tick: refresh engine and per-stack gauges, then
/// snapshot the registry at `now`.
fn sample_telemetry(engine: &Engine<WorkloadHost>, tel: &Telemetry, now: SimTime) {
    engine.sample_metrics();
    for host in engine.agents() {
        host.stack().sample_metrics();
    }
    tel.sample(now);
}

/// Run a macro experiment, invoking `sample(&mut engine, now)` every
/// `sample_every` of simulated time (pass `SimDuration::MAX` to disable).
/// The engine is handed out mutably so control-plane extensions can act
/// between slices (the quota server pulls usage reports and pushes grants
/// into the hosts); plain samplers just read it.
pub fn run_macro_controlled<F>(
    setup: MacroSetup,
    sample_every: SimDuration,
    mut sample: F,
) -> MacroResult
where
    F: FnMut(&mut Engine<WorkloadHost>, SimTime),
{
    let (mut engine, duration, warmup) = setup.build();
    let end = SimTime::ZERO + duration;
    let mut next_sample = if sample_every == SimDuration::MAX {
        SimTime::MAX
    } else {
        SimTime::ZERO + sample_every
    };
    // Telemetry metrics sampling runs on its own simulated-time cadence,
    // interleaved with the caller's sampling breakpoints.
    let tel = engine.telemetry().clone();
    let tel_every = tel.sample_every().unwrap_or(SimDuration::MAX);
    let mut next_tel = if tel_every == SimDuration::MAX {
        SimTime::MAX
    } else {
        SimTime::ZERO + tel_every
    };
    loop {
        let until = end.min(next_sample).min(next_tel);
        engine.run_until(until);
        if until >= end {
            break;
        }
        if until >= next_tel {
            sample_telemetry(&engine, &tel, until);
            next_tel += tel_every;
        }
        if until >= next_sample {
            sample(&mut engine, until);
            next_sample += sample_every;
        }
    }
    if tel.is_enabled() {
        // Final snapshot at the end of the run, then push buffered trace
        // lines to the backing store.
        sample_telemetry(&engine, &tel, end);
        tel.flush();
    }
    let (lost, corrupted) = engine.fault_loss_totals();
    let counts = (engine.events_processed(), lost + corrupted);
    MacroResult::harvest(duration, warmup, counts, |take| {
        engine.agents_mut().iter_mut().for_each(take)
    })
}

/// Build (without running) the sharded engine for `setup` —
/// `aequitas-benchmark` advances it in slices to price per-window
/// synchronization. Telemetry is not wired (see [`run_macro_sharded`]).
pub fn build_sharded_engine(
    mut setup: MacroSetup,
    spec: ShardSpec,
    threads: usize,
) -> ShardedEngine<WorkloadHost> {
    let agents = setup.build_agents(&Telemetry::disabled());
    ShardedEngine::new(setup.topo, agents, setup.engine, spec, threads)
}

/// Run a macro experiment on the sharded parallel engine: the fabric is
/// partitioned per `spec` and advanced on `threads` workers in conservative
/// lookahead windows (see `aequitas_netsim::shard`). Results are
/// byte-identical for every `threads` value.
///
/// Differences from [`run_macro`]: no mid-run sampling hook (domains only
/// synchronize at horizons) and telemetry is not wired through — a handle
/// shared by concurrently-running domains would interleave trace lines
/// nondeterministically. Fleet-scale runs are measured through completions
/// and port stats instead.
pub fn run_macro_sharded(setup: MacroSetup, spec: ShardSpec, threads: usize) -> MacroResult {
    let duration = setup.duration;
    let warmup = setup.warmup;
    let mut engine = build_sharded_engine(setup, spec, threads);
    let n = engine.spec().domain_of_host.len();
    engine.run_until(SimTime::ZERO + duration);
    let (lost, corrupted) = engine.fault_loss_totals();
    let counts = (engine.events_processed(), lost + corrupted);
    // Host-id order (crossing domains as needed), so the result layout is
    // independent of the partition.
    MacroResult::harvest(duration, warmup, counts, |take| {
        for h in 0..n {
            take(engine.agent_mut(HostId(h)));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern};
    use aequitas_workloads::SizeDist;

    fn small_setup(policy: PolicyChoice) -> MacroSetup {
        let mut s = MacroSetup::star_3qos(3);
        s.policy = policy;
        s.duration = SimDuration::from_ms(4);
        s.warmup = SimDuration::from_ms(1);
        for h in 0..2 {
            s.workloads[h] = Some(WorkloadSpec {
                arrival: ArrivalProcess::Poisson { load: 0.5 },
                pattern: TrafficPattern::ManyToOne { dst: 2 },
                classes: vec![PrioritySpec {
                    priority: Priority::PerformanceCritical,
                    byte_share: 1.0,
                    sizes: SizeDist::Fixed(32_768),
                }],
                stop: None,
            });
        }
        s
    }

    #[test]
    fn macro_run_collects_completions() {
        let r = run_macro(small_setup(PolicyChoice::Static));
        assert!(r.completions.len() > 200, "{}", r.completions.len());
        assert!(!r.warmup_completions.is_empty());
        assert!(r.issued as usize >= r.completions.len());
        assert!(r.events > 1000);
        // Completions sorted by completion time.
        for w in r.completions.windows(2) {
            assert!(w[0].completed_at <= w[1].completed_at);
        }
    }

    #[test]
    fn sampling_fires_on_schedule() {
        let mut ticks = Vec::new();
        run_macro_controlled(
            small_setup(PolicyChoice::Static),
            SimDuration::from_ms(1),
            |_, now| ticks.push(now),
        );
        assert_eq!(ticks.len(), 3, "{ticks:?}"); // at 1, 2, 3 ms (end at 4)
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_macro(small_setup(PolicyChoice::Static));
        let b = run_macro(small_setup(PolicyChoice::Static));
        assert_eq!(a.completions.len(), b.completions.len());
        assert_eq!(a.events, b.events);
    }
}
