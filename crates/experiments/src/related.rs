//! Fig. 22: comparison with pFabric, QJump, D3, PDQ, and Homa.
//!
//! All six systems run the same offered workload: 33-node star, all-to-all,
//! production-like RPC sizes, input QoS-mix (0.5, 0.3, 0.2), burst arrivals
//! μ=0.8 / ρ=1.4. Scored on:
//!
//! * **% of QoSh traffic meeting its SLO from the initially assigned QoS** —
//!   normalized (per-MTU) SLO for the SLO-aware/unaware schemes, the 250 µs
//!   deadline for D3/PDQ (as the paper translates);
//! * **network utilization** — goodput over offered bytes (terminated and
//!   never-finishing RPCs waste their bytes);
//! * **per-QoS 99.9ᵗʰ-p completion latency**.

use crate::harness::{RunCtx, Scale};
use crate::report::{f1, print_table};
use crate::scheme::{Comparison, Scheme, SchemeRun};
use aequitas::{AequitasConfig, SloTarget};
use aequitas_netsim::{EngineConfig, LinkSpec, Topology};
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_stats::Percentiles;
use aequitas_workloads::{QosMapping, SizeDist};

const N: usize = 33;
const MIX: [f64; 3] = [0.5, 0.3, 0.2];

/// Normalized per-MTU SLO targets such that an average-size QoSh RPC gets
/// the same absolute budget as D3/PDQ's 250 µs deadline (the paper's
/// translation), and QoSm maps to 300 µs.
pub fn normalized_targets() -> [SimDuration; 2] {
    let avg_pc = SizeDist::production_like(Priority::PerformanceCritical).mean_bytes();
    let avg_nc = SizeDist::production_like(Priority::NonCritical).mean_bytes();
    let mtus_pc = (avg_pc / 4096.0).max(1.0);
    let mtus_nc = (avg_nc / 4096.0).max(1.0);
    [
        SimDuration::from_us_f64(250.0 / mtus_pc),
        SimDuration::from_us_f64(300.0 / mtus_nc),
    ]
}

/// Per-scheme summary.
#[derive(Debug, Clone)]
pub struct SchemeScore {
    /// Scheme name.
    pub name: &'static str,
    /// % of QoSh bytes meeting the SLO from the initial QoS.
    pub qosh_meeting_pct: f64,
    /// % of QoSm bytes meeting the (300 µs) SLO from the initial QoS.
    pub qosm_meeting_pct: f64,
    /// Byte-weighted % of SLO-carrying (QoSh+QoSm) bytes meeting their SLO.
    pub slo_meeting_pct: f64,
    /// Goodput over offered bytes, %.
    pub utilization_pct: f64,
    /// 99.9p latency (µs) per QoS class.
    pub p999_us: [Option<f64>; 3],
}

/// Score a scheme's completions against the *offered* workload: RPCs the
/// scheme terminated or never finished count against both the SLO-meeting
/// percentage and utilization (steady-state accounting — a scheme cannot be
/// rescued by the post-workload drain).
pub fn score(name: &'static str, run: &SchemeRun) -> SchemeScore {
    let [offered_qosh_bytes, offered_qosm_bytes, _] = run.offered;
    let offered_total_bytes: u64 = run.offered.iter().sum();
    let mut good_bytes = 0u64;
    let mut qosh_meeting = 0u64;
    let mut qosm_meeting = 0u64;
    let mut per_qos = [
        Percentiles::new(),
        Percentiles::new(),
        Percentiles::new(),
    ];
    for r in &run.completions {
        let latency_us = r.latency().as_us_f64();
        if !r.terminated {
            good_bytes += r.size_bytes;
            per_qos[(r.qos as usize).min(2)].record(latency_us);
        }
        // One absolute budget per class for every scheme — the paper's
        // 250 us / 300 us targets (a per-MTU budget would hand large RPCs
        // an arbitrarily generous allowance and stop discriminating the
        // SRPT schemes' large-RPC starvation).
        let budget = match r.qos {
            0 => Some(250.0),
            1 => Some(300.0),
            _ => None,
        };
        if let Some(budget) = budget {
            if !r.terminated && !r.downgraded && latency_us <= budget {
                if r.qos == 0 {
                    qosh_meeting += r.size_bytes;
                } else {
                    qosm_meeting += r.size_bytes;
                }
            }
        }
    }
    // Offered bytes are counted where RPCs are issued, so every numerator
    // is a subset of its denominator.
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    SchemeScore {
        name,
        qosh_meeting_pct: pct(qosh_meeting, offered_qosh_bytes),
        qosm_meeting_pct: pct(qosm_meeting, offered_qosm_bytes),
        slo_meeting_pct: pct(
            qosh_meeting + qosm_meeting,
            offered_qosh_bytes + offered_qosm_bytes,
        ),
        utilization_pct: pct(good_bytes, offered_total_bytes),
        p999_us: [
            per_qos[0].p999(),
            per_qos[1].p999(),
            per_qos[2].p999(),
        ],
    }
}

fn stop_time(scale: Scale) -> SimTime {
    // Long enough for SRPT backlogs to reach steady state: the schemes'
    // large-RPC starvation only shows once queues have built.
    SimTime::ZERO + scale.pick(SimDuration::from_ms(20), SimDuration::from_ms(80))
}

fn drain_time(scale: Scale) -> SimTime {
    stop_time(scale) + scale.pick(SimDuration::from_ms(30), SimDuration::from_ms(80))
}

/// Fig. 22's scenario: every host of the 33-node star offers the bursty
/// all-to-all production-size load for 20 ms (80 ms at full scale), and
/// runs drain for another 30 (80) ms. Aequitas gets the per-MTU targets of
/// [`normalized_targets`].
pub fn comparison(scale: Scale) -> Comparison {
    let spec = WorkloadSpec {
        arrival: ArrivalProcess::BurstOnOff {
            mu: 0.9,
            rho: 2.0,
            period: SimDuration::from_us(100),
        },
        pattern: TrafficPattern::AllToAll,
        classes: Priority::ALL
            .into_iter()
            .zip(MIX)
            .map(|(priority, byte_share)| PrioritySpec {
                priority,
                byte_share,
                sizes: SizeDist::production_like(priority),
            })
            .collect(),
        stop: Some(stop_time(scale)),
    };
    let targets = normalized_targets();
    Comparison {
        topo: Topology::star(N, LinkSpec::default_100g()),
        workloads: vec![Some(spec); N],
        seed: 22_06,
        faults: None,
        end: drain_time(scale),
        engine: EngineConfig::default_3qos(),
        mapping: QosMapping::three_level(),
        aequitas: AequitasConfig::three_qos(
            SloTarget::per_mtu(targets[0], 99.9),
            SloTarget::per_mtu(targets[1], 99.9),
        ),
    }
}

/// Fig. 22 result: one score per scheme.
pub struct Fig22Result {
    /// Scores in presentation order.
    pub scores: Vec<SchemeScore>,
}

/// Run the full comparison. The six schemes are independent simulations on
/// the same offered workload, so they fan out across the sweep harness.
pub fn fig22(ctx: &RunCtx) -> Fig22Result {
    let cmp = comparison(ctx.scale);
    let scores = ctx.sweep(Scheme::ALL.to_vec(), |s| score(s.name(), &s.run(ctx, &cmp)));
    Fig22Result { scores }
}

/// Print Fig. 22.
pub fn print_fig22(r: &Fig22Result) {
    let rows: Vec<Vec<String>> = r
        .scores
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                f1(s.qosh_meeting_pct),
                f1(s.qosm_meeting_pct),
                f1(s.slo_meeting_pct),
                f1(s.utilization_pct),
                crate::report::opt(s.p999_us[0], 0),
                crate::report::opt(s.p999_us[1], 0),
                crate::report::opt(s.p999_us[2], 0),
            ]
        })
        .collect();
    print_table(
        "Fig 22: related-work comparison (33-node, production sizes, mix 50/30/20)",
        &[
            "scheme",
            "QoSh meet %",
            "QoSm meet %",
            "h+m meet %",
            "utilization %",
            "QoSh p999 us",
            "QoSm p999 us",
            "QoSl p999 us",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_targets_track_deadlines() {
        let t = normalized_targets();
        let avg_pc = SizeDist::production_like(Priority::PerformanceCritical).mean_bytes();
        let budget = t[0].as_us_f64() * (avg_pc / 4096.0);
        assert!((budget - 250.0).abs() < 1.0, "budget {budget}");
    }

    /// Fig. 22's scores of `schemes` under `ctx`.
    fn scores<const K: usize>(ctx: &RunCtx, schemes: [Scheme; K]) -> [SchemeScore; K] {
        let cmp = comparison(ctx.scale);
        schemes.map(|s| score(s.name(), &s.run(ctx, &cmp)))
    }

    #[test]
    fn deadline_schemes_sacrifice_utilization() {
        let [d3, aq] = scores(&RunCtx::quick(), [Scheme::D3, Scheme::Aequitas]);
        assert!(
            d3.utilization_pct < aq.utilization_pct - 10.0,
            "D3 {d3:?} vs Aequitas {aq:?}"
        );
    }

    #[test]
    fn aequitas_leads_the_slo_unaware_schemes() {
        let [aq, pf, qj] = scores(
            &RunCtx::quick(),
            [Scheme::Aequitas, Scheme::Pfabric, Scheme::Qjump],
        );
        // Byte-weighted across both SLO-carrying classes. (Homa is excluded
        // here: our simplified Homa — idealized receiver grants, no fleet-
        // wide priority contention or incast pathologies — outperforms the
        // paper's measured Homa by a wide margin; see EXPERIMENTS.md.)
        assert!(
            aq.slo_meeting_pct > pf.slo_meeting_pct,
            "Aequitas {:.1}% vs pFabric {:.1}%",
            aq.slo_meeting_pct,
            pf.slo_meeting_pct
        );
        assert!(
            aq.slo_meeting_pct > qj.slo_meeting_pct + 10.0,
            "Aequitas {:.1}% vs QJump {:.1}%",
            aq.slo_meeting_pct,
            qj.slo_meeting_pct
        );
        // And Aequitas never sacrifices utilization for its SLOs.
        assert!(aq.utilization_pct > 95.0, "{:.1}", aq.utilization_pct);
        // Each share's numerator is a subset of the bytes the run offered.
        for s in [&aq, &pf, &qj] {
            let shares = [s.qosh_meeting_pct, s.qosm_meeting_pct, s.utilization_pct];
            assert!(shares.iter().all(|&p| p <= 100.0), "{s:?}");
        }
    }

    /// `--faults` reaches every row, not just Aequitas's: under a plan that
    /// drops frames on any link, all six engines see fault drops.
    #[test]
    fn faults_reach_all_six_schemes() {
        use aequitas_netsim::faults::{FaultPlan, LinkSel, LossRule};
        let plan = FaultPlan {
            seed: 22,
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.01,
                burst: None,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .expect("loss plan is well-formed");
        let ctx = RunCtx {
            faults: Some(std::sync::Arc::new(plan)),
            ..RunCtx::quick()
        };
        let cmp = Comparison {
            end: SimTime::from_us(200),
            ..comparison(ctx.scale)
        };
        for s in Scheme::ALL {
            let drops = s.run(&ctx, &cmp).fault_drops;
            assert!(drops > 0, "{} ran on a healthy fabric", s.name());
        }
    }
}
