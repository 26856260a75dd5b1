//! The six systems under test, behind one list.
//!
//! Fig. 22 and the chaos containment matrix both run Aequitas and the five
//! baselines on one scenario. A [`Comparison`] states that scenario once —
//! topology, per-host offered load, seed, fault plan, end time and the
//! Aequitas side's fabric and controller — and [`Scheme::run`] runs any of
//! the six on it, returning [`BaselineCompletion`]s and the bytes each
//! class offered. Every scheme's host `h` draws the same [`RpcStream`],
//! so all six see the identical (time, destination, class, size) sequence
//! and their rows differ only by what the schemes do with it. Another
//! system under test is one more variant.
//!
//! [`RpcStream`]: aequitas_workloads::RpcStream

use crate::harness::{host_seed, MacroSetup, PolicyChoice, RunCtx};
use aequitas::AequitasConfig;
use aequitas_baselines::{
    deadline, homa, pfabric, qjump, BaselineCompletion, BaselineHost, DeadlineHost,
    DeadlineMode, HomaHost, PfabricHost, QjumpHost, WorkloadGen,
};
use aequitas_netsim::faults::FaultPlan;
use aequitas_netsim::{Engine, EngineConfig, HostId, Topology};
use aequitas_rpc::{WorkloadHost, WorkloadSpec};
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
        let n = cmp.topo.num_hosts();
        let rate = cmp.topo.host_ports[0].link.rate;
        // The stream `MacroSetup` hands Aequitas's host `h`.
        let gen = |h: HostId| {
            cmp.workloads[h.0].clone().map(|spec| {
                WorkloadGen(WorkloadHost::stream(spec, h.0, n, rate, host_seed(cmp.seed, h.0)))
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
                    seed: cmp.seed,
                    ..MacroSetup::star_3qos(n)
                };
                // No warm-up: every completion is in `r.completions`.
                let r = ctx.run_macro(setup);
                SchemeRun {
                    completions: r
                        .completions
                        .iter()
                        .map(|c| BaselineCompletion {
                            priority: c.priority,
                            qos: c.qos_run.0,
                            size_bytes: c.size_bytes,
                            issued_at: c.issued_at,
                            completed_at: c.completed_at,
                            terminated: false,
                            downgraded: c.downgraded,
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
    /// Per-host offered load (`None` = receiver only).
    pub workloads: Vec<Option<WorkloadSpec>>,
    /// The one seed of every scheme's run: each host's RPC stream is drawn
    /// from it exactly as [`MacroSetup`] draws Aequitas's, so all six
    /// schemes are offered the same RPCs.
    pub seed: u64,
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

/// What one scheme did on a [`Comparison`].
#[derive(Debug, Default)]
pub struct SchemeRun {
    /// Every finished or terminated RPC.
    pub completions: Vec<BaselineCompletion>,
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
        run.completions.extend_from_slice(tx.completions());
        for (sum, bytes) in run.offered.iter_mut().zip(tx.offered()) {
            *sum += bytes;
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Common random numbers: on fig22's and the containment matrix's
    /// scenarios, cut to their first 500 µs, every scheme is offered the
    /// same bytes per class.
    #[test]
    fn all_six_schemes_are_offered_the_same_load() {
        let ctx = RunCtx::quick();
        for cmp in [
            crate::related::comparison(ctx.scale),
            crate::chaos::containment_comparison(),
        ] {
            let cmp = Comparison {
                end: SimTime::from_us(500),
                ..cmp
            };
            let offered = Scheme::ALL.map(|s| s.run(&ctx, &cmp).offered);
            assert!(offered[0][0] > 0, "{offered:?}");
            assert!(offered.iter().all(|o| *o == offered[0]), "{offered:?}");
        }
    }
}
