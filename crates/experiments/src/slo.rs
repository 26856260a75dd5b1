//! Figs. 11, 12, 13: SLO compliance.

use crate::harness::{MacroResult, MacroSetup, PolicyChoice, RunCtx, Scale};
use crate::report::{f1, print_table, versus_rows};
use aequitas::{AequitasConfig, SloTarget};
use aequitas_rpc::{ArrivalProcess, Priority, RpcCompletion, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_stats::Percentiles;
use aequitas_workloads::{QosClass, SizeDist};

/// 99.9th-percentile RNL (µs) of RPCs that *ran* on `qos`.
pub fn p999_rnl_us(completions: &[RpcCompletion], qos: QosClass) -> Option<f64> {
    let mut p = Percentiles::new();
    for c in completions.iter().filter(|c| c.qos_run == qos) {
        p.record(c.rnl().as_us_f64());
    }
    p.p999()
}

/// [`p999_rnl_us`] of each of the three QoS classes.
pub fn p999_rnl_per_qos(completions: &[RpcCompletion]) -> [Option<f64>; 3] {
    [0, 1, 2].map(|q| p999_rnl_us(completions, QosClass(q)))
}

/// Share of completed bytes that ran on each QoS class (the admitted
/// QoS-mix).
pub fn admitted_mix(completions: &[RpcCompletion], classes: usize) -> Vec<f64> {
    let mut bytes = vec![0u64; classes];
    for c in completions {
        bytes[c.qos_run.index()] += c.size_bytes;
    }
    let total: u64 = bytes.iter().sum();
    if total == 0 {
        return vec![0.0; classes];
    }
    bytes.iter().map(|&b| b as f64 / total as f64).collect()
}

// ---------------------------------------------------------------------------
// Fig. 11
// ---------------------------------------------------------------------------

/// One Fig. 11 sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Point {
    /// The QoSh SLO (µs, absolute for 32 KB RPCs).
    pub slo_us: f64,
    /// Achieved 99.9p RNL of admitted QoSh RPCs (µs).
    pub p999_us: Option<f64>,
    /// Admitted QoSh share of bytes.
    pub qosh_share: f64,
}

/// Fig. 11 result.
pub struct Fig11Result {
    /// Sweep points.
    pub points: Vec<Fig11Point>,
}

fn fig11_workload() -> WorkloadSpec {
    WorkloadSpec::mix(
        ArrivalProcess::Uniform { load: 1.0 },
        TrafficPattern::ManyToOne { dst: 2 },
        [
            (Priority::PerformanceCritical, 0.7),
            (Priority::BestEffort, 0.3),
        ],
        |_| SizeDist::Fixed(32_768),
    )
}

/// Fig. 11: two line-rate channels of 32 KB WRITEs (70% QoSh / 30% QoSl)
/// into one server; the QoSh SLO is swept from 15 µs to 60 µs. The result
/// must not depend on `ctx.threads`: the determinism integration test runs
/// it at 1 vs N workers and asserts identical output.
pub fn fig11(ctx: &RunCtx) -> Fig11Result {
    let sweep: &[f64] = if ctx.scale.full {
        &[15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0]
    } else {
        &[15.0, 25.0, 40.0, 60.0]
    };
    let points = ctx.sweep(sweep.to_vec(), |slo_us| fig11_point(ctx, slo_us, 1.0));
    Fig11Result { points }
}

/// A fast Fig. 11 probe for the determinism gate: two sweep points at 5% of
/// the normal duration. The absolute numbers are far from equilibrium and
/// meaningless as a reproduction — what matters is that the output is a
/// pure function of the setup, so running it at 1 vs N sweep workers must
/// agree bit-for-bit. The full-length variant ([`fig11`]) stays available
/// behind `--ignored`.
pub fn fig11_invariance_probe(ctx: &RunCtx) -> Fig11Result {
    let points = ctx.sweep(vec![15.0, 40.0], |slo_us| fig11_point(ctx, slo_us, 0.05));
    Fig11Result { points }
}

fn fig11_point(ctx: &RunCtx, slo_us: f64, duration_factor: f64) -> Fig11Point {
    let scale = ctx.scale;
    {
        let mut setup = MacroSetup::star_2qos(
            3,
            SloTarget::absolute(SimDuration::from_us_f64(slo_us), 8, 99.9),
        );
        // The additive-increase clock ticks once per increment window
        // (SLO-dependent: 1000x the per-MTU target at 99.9p). The initial
        // transient overshoots the admit probability toward the floor
        // (stale backlogged RPCs keep missing long after p drops), and the
        // climb back runs at alpha per window — so the run must cover on
        // the order of a hundred windows to reach equilibrium.
        let window_ms = slo_us / 8.0; // per-MTU target in us == window in ms at 99.9p
        let base = 40.0 + 100.0 * window_ms;
        setup.duration = scale
            .pick(
                SimDuration::from_secs_f64(base / 1e3),
                SimDuration::from_secs_f64(base * 3.0 / 1e3),
            )
            .mul_f64(duration_factor);
        setup.warmup = setup.duration.mul_f64(0.5);
        setup.seed = 42 + slo_us as u64;
        setup.offer(2, &fig11_workload());
        // The admitted share must be measured at *issue* time: under
        // sustained line-rate overload the scavenger class's sender queues
        // grow without bound, so downgraded RPCs rarely complete inside the
        // window and completion-based shares are survivor-biased.
        let warm_t = SimTime::ZERO + setup.warmup;
        let mut at_warm: Option<Vec<(u64, u64)>> = None;
        let mut at_end: Vec<(u64, u64)> = vec![(0, 0); 2];
        let r = ctx.run_macro_controlled(setup, SimDuration::from_ms(2), |eng, now| {
            let counters: Vec<(u64, u64)> = (0..2)
                .map(|h| {
                    eng.agents()[h]
                        .stack()
                        .admission_counters()
                        .unwrap_or((0, 0))
                })
                .collect();
            if now >= warm_t && at_warm.is_none() {
                at_warm = Some(counters.clone());
            }
            at_end = counters;
        });
        let warm_counters = at_warm.unwrap_or_else(|| vec![(0, 0); 2]);
        let issued: u64 = (0..2).map(|h| at_end[h].0 - warm_counters[h].0).sum();
        let downgraded: u64 = (0..2).map(|h| at_end[h].1 - warm_counters[h].1).sum();
        // 70% of issues are PC; the admitted-on-QoSh share of all issued
        // bytes (equal sizes) is 0.7 minus the downgraded fraction.
        let qosh_share = 0.7 - downgraded as f64 / issued.max(1) as f64;
        Fig11Point {
            slo_us,
            p999_us: p999_rnl_us(&r.completions, QosClass::HIGH),
            qosh_share,
        }
    }
}

/// Print Fig. 11.
pub fn print_fig11(r: &Fig11Result) {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                f1(p.slo_us),
                crate::report::opt(p.p999_us, 1),
                format!("{:.1}%", p.qosh_share * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig 11: achieved 99.9p RNL tracks the QoSh SLO (3-node, 32KB, 70/30 h/l)",
        &["QoSh SLO (us)", "99.9p RNL (us)", "admitted QoSh-share"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Figs. 12 & 13
// ---------------------------------------------------------------------------

/// Result of the 33-node SLO-compliance experiment.
pub struct Fig12Result {
    /// SLOs (µs) for (QoSh, QoSm).
    pub slo_us: [f64; 2],
    /// Per-QoS 99.9p RNL without Aequitas (µs).
    pub without: [Option<f64>; 3],
    /// Per-QoS 99.9p RNL with Aequitas (µs).
    pub with: [Option<f64>; 3],
    /// Fig. 13: sampled outstanding RPCs per switch port, (QoSh+QoSm, QoSl),
    /// without Aequitas.
    pub outstanding_without: (Percentiles, Percentiles),
    /// Fig. 13 samples with Aequitas.
    pub outstanding_with: (Percentiles, Percentiles),
}

/// The paper's 33-node all-to-all workload: input QoS-mix (0.6, 0.3, 0.1),
/// 32 KB RPCs, burst arrivals μ=0.8 / ρ=1.4.
pub fn node33_workload(mix: [f64; 3], stop: Option<SimTime>) -> WorkloadSpec {
    WorkloadSpec {
        stop,
        ..WorkloadSpec::mix(
            ArrivalProcess::BurstOnOff {
                mu: 0.8,
                rho: 1.4,
                period: SimDuration::from_us(100),
            },
            TrafficPattern::AllToAll,
            Priority::ALL.into_iter().zip(mix),
            |_| SizeDist::Fixed(32_768),
        )
    }
}

/// The 33-node star of Figs. 12 and 14–16 and 20: host `h` offers `spec(h)`
/// for 44 ms, the first 26 ms of it warm-up (150 and 80 ms at full scale).
pub(crate) fn setup_33(
    scale: Scale,
    policy: PolicyChoice,
    seed: u64,
    spec: impl Fn(usize) -> WorkloadSpec,
) -> MacroSetup {
    let ms = SimDuration::from_ms;
    MacroSetup::all_senders(
        33,
        policy,
        seed,
        scale.pick([ms(44), ms(26)], [ms(150), ms(80)]),
        spec,
    )
}

/// The paper's SLO settings for the 33-node runs: 15 µs / 25 µs at 99.9p
/// (absolute, for 32 KB = 8 MTU RPCs).
pub fn slo_config_33() -> AequitasConfig {
    AequitasConfig::three_qos(
        SloTarget::absolute(SimDuration::from_us(15), 8, 99.9),
        SloTarget::absolute(SimDuration::from_us(25), 8, 99.9),
    )
}

/// One arm of the figure, on the seed both arms share: the gap between them
/// is the policy's alone.
fn run_33node(ctx: &RunCtx, policy: PolicyChoice) -> (MacroResult, Percentiles, Percentiles) {
    let n = 33;
    let setup = setup_33(ctx.scale, policy, 1001, |_| {
        node33_workload([0.6, 0.3, 0.1], None)
    });
    let warm = SimTime::ZERO + setup.warmup;
    let mut out_hm = Percentiles::new();
    let mut out_l = Percentiles::new();
    let result = ctx.run_macro_controlled(setup, SimDuration::from_us(50), |eng, now| {
        if now < warm {
            return;
        }
        // Outstanding-RPC proxy: queued packets per switch egress port,
        // divided by the 8 packets of a 32 KB RPC.
        let sw = aequitas_netsim::SwitchId(0);
        for port in 0..n {
            let hm = eng.switch_port_class_packets(sw, port, 0)
                + eng.switch_port_class_packets(sw, port, 1);
            let l = eng.switch_port_class_packets(sw, port, 2);
            out_hm.record(hm as f64 / 8.0);
            out_l.record(l as f64 / 8.0);
        }
    });
    (result, out_hm, out_l)
}

/// Run Figs. 12/13.
pub fn fig12(ctx: &RunCtx) -> Fig12Result {
    let (without, w_hm, w_l) = run_33node(ctx, PolicyChoice::Static);
    let (with, a_hm, a_l) = run_33node(ctx, PolicyChoice::Aequitas(slo_config_33()));
    Fig12Result {
        slo_us: [15.0, 25.0],
        without: p999_rnl_per_qos(&without.completions),
        with: p999_rnl_per_qos(&with.completions),
        outstanding_without: (w_hm, w_l),
        outstanding_with: (a_hm, a_l),
    }
}

/// Print Fig. 12.
pub fn print_fig12(r: &Fig12Result) {
    let rows = versus_rows(Some(r.slo_us.map(f1)), r.without, r.with, 1);
    print_table(
        "Fig 12: 33-node 99.9p RNL (us) vs SLO, w/o and w/ Aequitas",
        &["QoS", "SLO", "w/o Aequitas", "w/ Aequitas"],
        &rows,
    );
}

/// Print Fig. 13 (outstanding-RPC CDB tail summary).
pub fn print_fig13(r: &mut Fig12Result) {
    let (without, with) = (&mut r.outstanding_without, &mut r.outstanding_with);
    let row = |classes: &str, a: &mut Percentiles, b: &mut Percentiles| {
        let mut row = vec![classes.to_string()];
        for p in [a, b] {
            row.extend([
                crate::report::opt(p.p50(), 2),
                crate::report::opt(p.p99(), 2),
            ]);
        }
        row
    };
    let rows = vec![
        row("QoSh+QoSm", &mut without.0, &mut with.0),
        row("QoSl", &mut without.1, &mut with.1),
    ];
    print_table(
        "Fig 13: outstanding RPCs per switch port (w/o -> w/ Aequitas)",
        &["classes", "p50 w/o", "p99 w/o", "p50 w/", "p99 w/"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_rnl_tracks_slo_and_share_grows() {
        let r = fig11(&RunCtx::quick());
        // Achieved tail stays in the neighbourhood of the SLO (within 40%
        // at quick scale) for the middle of the sweep.
        for p in &r.points {
            let got = p.p999_us.expect("measurements exist");
            assert!(
                got < p.slo_us * 1.5,
                "SLO {} us but achieved {} us",
                p.slo_us,
                got
            );
        }
        // Looser SLOs admit at least as much traffic (allow small noise).
        let first = r.points.first().unwrap().qosh_share;
        let last = r.points.last().unwrap().qosh_share;
        assert!(
            last > first,
            "share should grow with SLO: {first} -> {last}"
        );
    }

    /// Quick-scale restoration claim (Fig. 12): without Aequitas the SLOs
    /// are missed badly; with it, admitted QoSh/QoSm traffic lands near
    /// the SLOs and the scavenger is not sacrificed.
    #[test]
    fn fig12_aequitas_restores_slos() {
        let mut r = fig12(&RunCtx::quick());
        let slo_h = r.slo_us[0];
        let slo_m = r.slo_us[1];
        // Without Aequitas the SLOs are missed badly under 1.4x overload.
        assert!(r.without[0].unwrap() > slo_h * 1.5, "{:?}", r.without);
        // With Aequitas the admitted traffic lands on/near the SLOs. The
        // thin per-channel rates of a 32-way fan-out equilibrate the AIMD
        // loop slightly above the target at quick scale (see EXPERIMENTS.md
        // on the calibration rate), so allow 2x here; full scale tightens.
        assert!(
            r.with[0].unwrap() < slo_h * 2.0,
            "QoSh {:?} vs SLO {slo_h}",
            r.with[0]
        );
        assert!(
            r.with[1].unwrap() < slo_m * 2.0,
            "QoSm {:?} vs SLO {slo_m}",
            r.with[1]
        );
        // And the improvement over no-admission-control is the headline.
        assert!(
            r.without[0].unwrap() > r.with[0].unwrap() * 2.0,
            "Aequitas should cut the QoSh tail at least in half: {:?} -> {:?}",
            r.without[0],
            r.with[0]
        );
        // The paper's full-scale run also shows QoSl improving outright.
        // At quick scale that margin is within noise, so this test only
        // pins the restoration claim: the scavenger must not be crushed to
        // pay for it (bounded regression, not strict improvement).
        assert!(
            r.with[2].unwrap() < r.without[2].unwrap() * 1.5,
            "QoSl should not degrade materially: {:?} -> {:?}",
            r.without[2],
            r.with[2]
        );
        // Fig 13: the high-class outstanding tail shrinks.
        let tail_wo = r.outstanding_without.0.p99().unwrap();
        let tail_w = r.outstanding_with.0.p99().unwrap();
        assert!(
            tail_w < tail_wo,
            "outstanding p99 should shrink: {tail_wo} -> {tail_w}"
        );
    }
}
