//! The six systems under test, behind one list.
//!
//! Fig. 22 and the chaos containment matrix both run Aequitas and the five
//! baselines on one scenario, stated once as the [`MacroSetup`] Aequitas
//! runs. [`Scheme::run`] runs any of the six on it, returning
//! [`BaselineCompletion`]s and the bytes each class offered. A baseline
//! takes the setup's topology, workloads, seed, fault plan and duration,
//! and brings its own fabric. Every scheme's host `h` draws the same
//! [`RpcStream`], so all six see the identical (time, destination, class,
//! size) sequence and their rows differ only by what the schemes do with
//! it. Another system under test is one more variant.
//!
//! [`RpcStream`]: aequitas_workloads::RpcStream

use crate::harness::{host_seed, MacroSetup, RunCtx};
use aequitas_baselines::{
    deadline, homa, pfabric, qjump, BaselineCompletion, BaselineHost, DeadlineHost, DeadlineMode,
    HomaHost, PfabricHost, QjumpHost, WorkloadGen,
};
use aequitas_netsim::faults::FaultPlan;
use aequitas_netsim::{Engine, EngineConfig, HostId};
use aequitas_rpc::WorkloadHost;
use aequitas_sim_core::{SimDuration, SimTime};
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

    /// Run this scheme on `setup` for its duration. Aequitas runs `setup`
    /// itself through `ctx`'s macro harness (telemetry, self-audit); every
    /// scheme runs under the setup's fault plan, or `ctx`'s when it has
    /// none. A warm-up or per-host policies would apply to Aequitas's row
    /// only, so the setup must have neither.
    pub fn run(self, ctx: &RunCtx, setup: MacroSetup) -> SchemeRun {
        assert!(
            setup.warmup == SimDuration::ZERO && setup.policy_overrides.is_empty(),
            "a scheme comparison has no warm-up and no per-host policies"
        );
        let faults = ctx.adopt_faults(setup.engine.faults.clone());
        let n = setup.topo.num_hosts();
        let rate = setup.line_rate();
        // The stream `MacroSetup` hands Aequitas's host `h`.
        let gen = |h: HostId| {
            setup.workloads[h.0].clone().map(|spec| {
                WorkloadGen(WorkloadHost::stream(
                    spec,
                    h.0,
                    n,
                    rate,
                    host_seed(setup.seed, h.0),
                ))
            })
        };
        match self {
            Scheme::Aequitas => {
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
            Scheme::Pfabric => baseline(&setup, faults, pfabric::engine_config(), |h| {
                PfabricHost::new(h, gen(h))
            }),
            Scheme::Qjump => baseline(&setup, faults, qjump::engine_config(), |h| {
                QjumpHost::new(h, gen(h), rate)
            }),
            Scheme::D3 => baseline(&setup, faults, deadline::engine_config(), |h| {
                DeadlineHost::new(h, DeadlineMode::D3, gen(h), rate)
            }),
            Scheme::Pdq => baseline(&setup, faults, deadline::engine_config(), |h| {
                DeadlineHost::new(h, DeadlineMode::Pdq, gen(h), rate)
            }),
            Scheme::Homa => baseline(&setup, faults, homa::engine_config(), |h| {
                HomaHost::new(h, gen(h))
            }),
        }
    }
}

/// What one scheme did on a scenario.
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
    setup: &MacroSetup,
    faults: Option<Arc<FaultPlan>>,
    config: EngineConfig,
    host: impl Fn(HostId) -> A,
) -> SchemeRun {
    let agents = (0..setup.topo.num_hosts())
        .map(|h| host(HostId(h)))
        .collect();
    let mut eng = Engine::new(
        setup.topo.clone(),
        agents,
        EngineConfig { faults, ..config },
    );
    eng.run_until(SimTime::ZERO + setup.duration);
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
        let scenarios: [fn(&RunCtx) -> MacroSetup; 2] = [
            |ctx| crate::related::comparison(ctx.scale),
            |_| crate::chaos::containment_setup(),
        ];
        for scenario in scenarios {
            let offered = Scheme::ALL.map(|s| {
                let setup = MacroSetup {
                    duration: SimDuration::from_us(500),
                    ..scenario(&ctx)
                };
                s.run(&ctx, setup).offered
            });
            assert!(offered[0][0] > 0, "{offered:?}");
            assert!(offered.iter().all(|o| *o == offered[0]), "{offered:?}");
        }
    }
}
