//! The six systems under test, behind one list.
//!
//! Fig. 22 and the chaos containment matrix both run Aequitas and the five
//! baselines on one scenario. A [`Comparison`] states that scenario once —
//! topology, per-host offered load, seeds, fault plan, end time and the
//! Aequitas side's fabric and controller — and [`Scheme::run`] runs any of
//! the six on it, returning scheme-agnostic [`Outcome`]s and the bytes each
//! class offered. Another system under test is one more variant.

use crate::harness::{MacroSetup, PolicyChoice, RunCtx};
use aequitas::AequitasConfig;
use aequitas_baselines::{
    deadline, homa, pfabric, qjump, BaselineHost, DeadlineHost, DeadlineMode, HomaHost,
    PfabricHost, QjumpHost, WorkloadGen,
};
use aequitas_netsim::faults::FaultPlan;
use aequitas_netsim::{Engine, EngineConfig, HostId, Topology};
use aequitas_rpc::WorkloadSpec;
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_workloads::QosMapping;
use std::sync::Arc;

/// A system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Aequitas: WFQ fabric, Swift, Algorithm-1 admission control.
    Aequitas,
    /// pFabric: SRPT ranks on a PIFO fabric.
    Pfabric,
    /// QJump: per-class host rate limits on strict priority.
    Qjump,
    /// D3: greedy deadline-driven rate allocation.
    D3,
    /// PDQ: preemptive earliest-deadline-first allocation.
    Pdq,
    /// Homa: receiver-driven grants over 8 priority levels.
    Homa,
}

impl Scheme {
    /// All six, in presentation order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Aequitas,
        Scheme::Pfabric,
        Scheme::Qjump,
        Scheme::D3,
        Scheme::Pdq,
        Scheme::Homa,
    ];

    /// Table name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Aequitas => "Aequitas",
            Scheme::Pfabric => "pFabric",
            Scheme::Qjump => "QJump",
            Scheme::D3 => "D3",
            Scheme::Pdq => "PDQ",
            Scheme::Homa => "Homa",
        }
    }

    /// Run this scheme on `cmp` until `cmp.end`. Aequitas runs through
    /// `ctx`'s macro harness (telemetry, self-audit); every scheme runs
    /// under the scenario's fault plan, or `ctx`'s when it has none.
    pub fn run(self, ctx: &RunCtx, cmp: &Comparison) -> SchemeRun {
        let faults = ctx.adopt_faults(cmp.faults.clone());
        let seed = (cmp.seed)(self);
        let n = cmp.topo.num_hosts();
        let rate = cmp.topo.host_ports[0].link.rate;
        let gen = |h: HostId| {
            cmp.workloads[h.0].as_ref().map(|spec| {
                WorkloadGen::new(
                    spec.arrival.clone(),
                    spec.pattern.clone(),
                    spec.classes
                        .iter()
                        .map(|c| (c.priority, c.byte_share, c.sizes.clone()))
                        .collect(),
                    h.0,
                    n,
                    rate,
                    spec.stop,
                    seed ^ (h.0 as u64 * 0x9E37),
                )
            })
        };
        match self {
            Scheme::Aequitas => {
                let setup = MacroSetup {
                    topo: cmp.topo.clone(),
                    engine: EngineConfig {
                        faults,
                        ..cmp.engine.clone()
                    },
                    mapping: cmp.mapping.clone(),
                    policy: PolicyChoice::Aequitas(cmp.aequitas.clone()),
                    workloads: cmp.workloads.clone(),
                    duration: cmp.end.since(SimTime::ZERO),
                    warmup: SimDuration::ZERO,
                    seed,
                    ..MacroSetup::star_3qos(n)
                };
                // No warm-up: every completion is in `r.completions`.
                let r = ctx.run_macro(setup);
                SchemeRun {
                    outcomes: r
                        .completions
                        .iter()
                        .map(|c| Outcome {
                            qos: c.qos_run.0,
                            size_bytes: c.size_bytes,
                            issued_at: c.issued_at,
                            completed_at: c.completed_at,
                            terminated: false,
                            on_initial_qos: !c.downgraded,
                        })
                        .collect(),
                    offered: r.issued_bytes,
                    fault_drops: r.fault_drops,
                }
            }
            Scheme::Pfabric => baseline(cmp, faults, pfabric::engine_config(), |h| {
                PfabricHost::new(h, gen(h))
            }),
            Scheme::Qjump => baseline(cmp, faults, qjump::engine_config(), |h| {
                QjumpHost::new(h, gen(h), rate)
            }),
            Scheme::D3 => baseline(cmp, faults, deadline::engine_config(), |h| {
                DeadlineHost::new(h, DeadlineMode::D3, gen(h), rate)
            }),
            Scheme::Pdq => baseline(cmp, faults, deadline::engine_config(), |h| {
                DeadlineHost::new(h, DeadlineMode::Pdq, gen(h), rate)
            }),
            Scheme::Homa => baseline(cmp, faults, homa::engine_config(), |h| {
                HomaHost::new(h, gen(h))
            }),
        }
    }
}

/// One scenario, stated once for all six schemes.
pub struct Comparison {
    /// The network.
    pub topo: Topology,
    /// Per-host offered load (`None` = receiver only). Aequitas runs the
    /// specs as they are; a baseline host gets a [`WorkloadGen`] of its spec.
    pub workloads: Vec<Option<WorkloadSpec>>,
    /// Each scheme's seed.
    pub seed: fn(Scheme) -> u64,
    /// The scenario's fault plan; without one, [`RunCtx::faults`].
    pub faults: Option<Arc<FaultPlan>>,
    /// When every run ends.
    pub end: SimTime,
    /// Aequitas's fabric (its `faults` is replaced by the plan above).
    pub engine: EngineConfig,
    /// Aequitas's priority→QoS mapping.
    pub mapping: QosMapping,
    /// Aequitas's controller.
    pub aequitas: AequitasConfig,
}

/// A finished (or terminated) RPC, whichever scheme ran it.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// QoS class: the bijective one for the baselines, the one it ran on
    /// for Aequitas.
    pub qos: u8,
    /// Payload bytes.
    pub size_bytes: u64,
    /// When the RPC was issued.
    pub issued_at: SimTime,
    /// When it completed (or was terminated).
    pub completed_at: SimTime,
    /// D3/PDQ gave up on it; its bytes never fully transferred.
    pub terminated: bool,
    /// It ran on its initially assigned QoS (false once Aequitas
    /// downgraded it).
    pub on_initial_qos: bool,
}

impl Outcome {
    /// Completion latency in µs (RNL for Aequitas).
    pub fn latency_us(&self) -> f64 {
        self.completed_at.since(self.issued_at).as_us_f64()
    }
}

/// What one scheme did on a [`Comparison`].
#[derive(Debug, Default)]
pub struct SchemeRun {
    /// Every finished or terminated RPC.
    pub outcomes: Vec<Outcome>,
    /// Payload bytes offered per priority class (PC, NC, BE).
    pub offered: [u64; 3],
    /// Frames the fault layer lost or corrupted.
    pub fault_drops: u64,
}

/// Run one baseline: `host` builds each host's agent.
fn baseline<A: BaselineHost>(
    cmp: &Comparison,
    faults: Option<Arc<FaultPlan>>,
    config: EngineConfig,
    host: impl Fn(HostId) -> A,
) -> SchemeRun {
    let agents = (0..cmp.topo.num_hosts()).map(|h| host(HostId(h))).collect();
    let mut eng = Engine::new(cmp.topo.clone(), agents, EngineConfig { faults, ..config });
    eng.run_until(cmp.end);
    let (lost, corrupted) = eng.fault_loss_totals();
    let mut run = SchemeRun {
        fault_drops: lost + corrupted,
        ..SchemeRun::default()
    };
    for tx in eng.agents().iter().map(A::sender) {
        run.outcomes.extend(tx.completions().iter().map(|c| Outcome {
            qos: c.qos,
            size_bytes: c.size_bytes,
            issued_at: c.issued_at,
            completed_at: c.completed_at,
            terminated: c.terminated,
            on_initial_qos: true,
        }));
        for (sum, bytes) in run.offered.iter_mut().zip(tx.offered()) {
            *sum += bytes;
        }
    }
    run
}
