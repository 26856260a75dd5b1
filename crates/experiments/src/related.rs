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

use crate::harness::{MacroSetup, PolicyChoice, RunCtx, Scale};
use crate::report::{f1, print_table};
use aequitas::{AequitasConfig, SloTarget};
use aequitas_baselines::{
    deadline, homa, pfabric, qjump, BaselineCompletion, DeadlineHost, DeadlineMode, HomaHost,
    PfabricHost, QjumpHost, WorkloadGen,
};
use aequitas_netsim::{Engine, HostAgent, HostId, LinkSpec, Topology};
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use aequitas_stats::Percentiles;
use aequitas_workloads::SizeDist;

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

/// A scheme-agnostic completion record for scoring.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    /// Initially assigned QoS (bijective from priority).
    pub qos: u8,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Completion latency in µs.
    pub latency_us: f64,
    /// Whether the scheme terminated the RPC before completion.
    pub terminated: bool,
    /// Whether the RPC ran to completion on its initially assigned QoS
    /// (false for Aequitas-downgraded RPCs).
    pub on_initial_qos: bool,
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

/// Offered bytes (total, QoSh) of the shared workload — regenerated from
/// the deterministic per-host streams, so RPCs a scheme never finishes
/// still count in the denominators.
pub fn offered_bytes(scale: Scale, seed: u64) -> (u64, u64, u64) {
    let mut total = 0u64;
    let mut qosh = 0u64;
    let mut qosm = 0u64;
    for src in 0..N {
        let mut g = make_gen(src, scale, seed);
        while let Some(rpc) = g.next_rpc() {
            total += rpc.size_bytes;
            match rpc.qos {
                0 => qosh += rpc.size_bytes,
                1 => qosm += rpc.size_bytes,
                _ => {}
            }
        }
    }
    (total, qosh, qosm)
}

/// Score a scheme's completions against the *offered* workload: RPCs the
/// scheme terminated or never finished count against both the SLO-meeting
/// percentage and utilization (steady-state accounting — a scheme cannot be
/// rescued by the post-workload drain).
pub fn score(
    name: &'static str,
    records: &[Scored],
    offered_total_bytes: u64,
    offered_qosh_bytes: u64,
    offered_qosm_bytes: u64,
) -> SchemeScore {
    let mut good_bytes = 0u64;
    let mut qosh_meeting = 0u64;
    let mut qosm_meeting = 0u64;
    let mut per_qos = [
        Percentiles::new(),
        Percentiles::new(),
        Percentiles::new(),
    ];
    for r in records {
        if !r.terminated {
            good_bytes += r.size_bytes;
            per_qos[(r.qos as usize).min(2)].record(r.latency_us);
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
            if !r.terminated && r.on_initial_qos && r.latency_us <= budget {
                if r.qos == 0 {
                    qosh_meeting += r.size_bytes;
                } else {
                    qosm_meeting += r.size_bytes;
                }
            }
        }
    }
    let qosh_pct = (100.0 * qosh_meeting as f64 / offered_qosh_bytes.max(1) as f64).min(100.0);
    let qosm_pct = (100.0 * qosm_meeting as f64 / offered_qosm_bytes.max(1) as f64).min(100.0);
    let combined = (100.0 * (qosh_meeting + qosm_meeting) as f64
        / (offered_qosh_bytes + offered_qosm_bytes).max(1) as f64)
        .min(100.0);
    SchemeScore {
        name,
        qosh_meeting_pct: qosh_pct,
        qosm_meeting_pct: qosm_pct,
        slo_meeting_pct: combined,
        utilization_pct: (100.0 * good_bytes as f64 / offered_total_bytes.max(1) as f64)
            .min(100.0),
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

fn production_classes() -> Vec<(Priority, f64, SizeDist)> {
    vec![
        (
            Priority::PerformanceCritical,
            MIX[0],
            SizeDist::production_like(Priority::PerformanceCritical),
        ),
        (
            Priority::NonCritical,
            MIX[1],
            SizeDist::production_like(Priority::NonCritical),
        ),
        (
            Priority::BestEffort,
            MIX[2],
            SizeDist::production_like(Priority::BestEffort),
        ),
    ]
}

fn make_gen(src: usize, scale: Scale, seed: u64) -> WorkloadGen {
    WorkloadGen::new(
        ArrivalProcess::BurstOnOff {
            mu: 0.9,
            rho: 2.0,
            period: SimDuration::from_us(100),
        },
        TrafficPattern::AllToAll,
        production_classes(),
        src,
        N,
        BitRate::from_gbps(100),
        Some(stop_time(scale)),
        seed ^ (src as u64 * 0x9E37),
    )
}

fn collect<A: HostAgent>(
    mut eng: Engine<A>,
    scale: Scale,
    completions: impl Fn(&A) -> &[BaselineCompletion],
) -> Vec<Scored> {
    eng.run_until(drain_time(scale));
    let mut out = Vec::new();
    for a in eng.agents() {
        for c in completions(a) {
            out.push(Scored {
                qos: c.qos,
                size_bytes: c.size_bytes,
                latency_us: c.latency().as_us_f64(),
                terminated: c.terminated,
                on_initial_qos: true,
            });
        }
    }
    out
}

/// Run pFabric on the shared workload.
pub fn run_pfabric(scale: Scale) -> Vec<Scored> {
    let topo = Topology::star(N, LinkSpec::default_100g());
    let agents = (0..N)
        .map(|h| PfabricHost::new(HostId(h), Some(make_gen(h, scale, 22_01))))
        .collect();
    let eng = Engine::new(topo, agents, pfabric::engine_config());
    collect(eng, scale, |a: &PfabricHost| a.completions())
}

/// Run QJump on the shared workload.
pub fn run_qjump(scale: Scale) -> Vec<Scored> {
    let topo = Topology::star(N, LinkSpec::default_100g());
    let agents = (0..N)
        .map(|h| {
            QjumpHost::new(
                HostId(h),
                Some(make_gen(h, scale, 22_02)),
                BitRate::from_gbps(100),
            )
        })
        .collect();
    let eng = Engine::new(topo, agents, qjump::engine_config());
    collect(eng, scale, |a: &QjumpHost| a.completions())
}

/// Run D3 or PDQ on the shared workload.
pub fn run_deadline(scale: Scale, mode: DeadlineMode) -> Vec<Scored> {
    let topo = Topology::star(N, LinkSpec::default_100g());
    let agents = (0..N)
        .map(|h| {
            DeadlineHost::new(
                HostId(h),
                mode,
                Some(make_gen(h, scale, 22_03 + mode as u64)),
                BitRate::from_gbps(100),
            )
        })
        .collect();
    let eng = Engine::new(topo, agents, deadline::engine_config());
    collect(eng, scale, |a: &DeadlineHost| a.completions())
}

/// Run Homa on the shared workload.
pub fn run_homa(scale: Scale) -> Vec<Scored> {
    let topo = Topology::star(N, LinkSpec::default_100g());
    let agents = (0..N)
        .map(|h| HomaHost::new(HostId(h), Some(make_gen(h, scale, 22_05))))
        .collect();
    let eng = Engine::new(topo, agents, homa::engine_config());
    collect(eng, scale, |a: &HomaHost| a.completions())
}

/// Run Aequitas on the shared workload.
pub fn run_aequitas(ctx: &RunCtx) -> Vec<Scored> {
    let scale = ctx.scale;
    let targets = normalized_targets();
    let config = AequitasConfig::three_qos(
        SloTarget::per_mtu(targets[0], 99.9),
        SloTarget::per_mtu(targets[1], 99.9),
    );
    let mut setup = MacroSetup::star_3qos(N);
    setup.policy = PolicyChoice::Aequitas(config);
    setup.duration = drain_time(scale).since(SimTime::ZERO);
    setup.warmup = SimDuration::ZERO;
    setup.seed = 22_06;
    let stop = stop_time(scale);
    for h in 0..N {
        setup.workloads[h] = Some(WorkloadSpec {
            arrival: ArrivalProcess::BurstOnOff {
                mu: 0.9,
                rho: 2.0,
                period: SimDuration::from_us(100),
            },
            pattern: TrafficPattern::AllToAll,
            classes: production_classes()
                .into_iter()
                .map(|(priority, byte_share, sizes)| PrioritySpec {
                    priority,
                    byte_share,
                    sizes,
                })
                .collect(),
            stop: Some(stop),
        });
    }
    let r = ctx.run_macro(setup);
    r.completions
        .iter()
        .chain(r.warmup_completions.iter())
        .map(|c| Scored {
            qos: c.qos_run.0,
            size_bytes: c.size_bytes,
            latency_us: c.rnl().as_us_f64(),
            terminated: false,
            on_initial_qos: !c.downgraded,
        })
        .collect()
}

/// Fig. 22 result: one score per scheme.
pub struct Fig22Result {
    /// Scores in presentation order.
    pub scores: Vec<SchemeScore>,
}

/// Run the full comparison. The six schemes are independent simulations on
/// the same offered workload, so they fan out across the sweep harness.
pub fn fig22(ctx: &RunCtx) -> Fig22Result {
    let scale = ctx.scale;
    let schemes: Vec<usize> = (0..6).collect();
    let scores = ctx.sweep(schemes, |k| match k {
        0 => scored("Aequitas", scale, 22_06, run_aequitas(ctx)),
        1 => scored("pFabric", scale, 22_01, run_pfabric(scale)),
        2 => scored("QJump", scale, 22_02, run_qjump(scale)),
        3 => scored(
            "D3",
            scale,
            22_03 + DeadlineMode::D3 as u64,
            run_deadline(scale, DeadlineMode::D3),
        ),
        4 => scored(
            "PDQ",
            scale,
            22_03 + DeadlineMode::Pdq as u64,
            run_deadline(scale, DeadlineMode::Pdq),
        ),
        _ => scored("Homa", scale, 22_05, run_homa(scale)),
    });
    Fig22Result { scores }
}

/// Score helper: regenerate the scheme's offered stream (same seed the run
/// used) and score against it.
pub fn scored(name: &'static str, scale: Scale, seed: u64, records: Vec<Scored>) -> SchemeScore {
    let (total, qosh, qosm) = offered_bytes(scale, seed);
    score(name, &records, total, qosh, qosm)
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

    #[test]
    fn deadline_schemes_sacrifice_utilization() {
        let scale = Scale::quick();
        let d3 = scored(
            "D3",
            scale,
            22_03 + DeadlineMode::D3 as u64,
            run_deadline(scale, DeadlineMode::D3),
        );
        let aq = scored("Aequitas", scale, 22_06, run_aequitas(&RunCtx::quick()));
        assert!(
            d3.utilization_pct < aq.utilization_pct - 10.0,
            "D3 {d3:?} vs Aequitas {aq:?}"
        );
    }

    #[test]
    fn aequitas_leads_the_slo_unaware_schemes() {
        let scale = Scale::quick();
        let aq = scored("Aequitas", scale, 22_06, run_aequitas(&RunCtx::quick()));
        let pf = scored("pFabric", scale, 22_01, run_pfabric(scale));
        let qj = scored("QJump", scale, 22_02, run_qjump(scale));
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
    }
}
