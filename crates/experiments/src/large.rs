//! Figs. 21 and 23: large-scale and testbed-analogue runs.

use crate::harness::{MacroSetup, PolicyChoice, RunCtx};
use crate::report::{print_table, versus_rows};
use crate::slo::{admitted_mix, node33_workload, p999_rnl_us};
use aequitas::{AequitasConfig, SloTarget};
use aequitas_netsim::{LinkSpec, Topology};
use aequitas_rpc::{ArrivalProcess, Priority, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_stats::Percentiles;
use aequitas_workloads::{QosClass, SizeDist};

// ---------------------------------------------------------------------------
// Fig. 21: 144-node leaf-spine, production sizes, extreme burst overload.
// ---------------------------------------------------------------------------

/// Result of the 144-node experiment.
pub struct Fig21Result {
    /// Per-QoS 99.9p normalized RNL (µs/MTU) without Aequitas.
    pub without: [Option<f64>; 3],
    /// Per-QoS 99.9p normalized RNL (µs/MTU) with Aequitas.
    pub with: [Option<f64>; 3],
    /// Normalized SLOs (µs/MTU) for (QoSh, QoSm).
    pub slo_per_mtu: [f64; 2],
    /// Input and admitted QoS-mix (with Aequitas), percent.
    pub input_mix: [f64; 3],
    /// Admitted mix, percent.
    pub admitted_mix: [f64; 3],
}

fn production_workload(mix: [f64; 3], mu: f64, rho: f64) -> WorkloadSpec {
    WorkloadSpec::mix(
        ArrivalProcess::BurstOnOff {
            mu,
            rho,
            period: SimDuration::from_us(400),
        },
        TrafficPattern::AllToAll,
        Priority::ALL.into_iter().zip(mix),
        SizeDist::production_like,
    )
}

/// The normalized SLO configuration for production-size runs: generous
/// per-MTU targets (small RPCs are dominated by per-RPC fixed costs).
pub fn production_slo_config() -> AequitasConfig {
    AequitasConfig::three_qos(
        SloTarget::per_mtu(SimDuration::from_us(30), 99.9),
        SloTarget::per_mtu(SimDuration::from_us(45), 99.9),
    )
}

fn per_mtu_p999(completions: &[aequitas_rpc::RpcCompletion], qos: QosClass) -> Option<f64> {
    let mut p = Percentiles::new();
    for c in completions.iter().filter(|c| c.qos_run == qos) {
        p.record(c.rnl_per_mtu().as_us_f64());
    }
    p.p999()
}

/// One arm of the figure, on the seed both arms share: the gap between them
/// is the policy's alone.
fn run_144(ctx: &RunCtx, policy: PolicyChoice) -> crate::harness::MacroResult {
    let scale = ctx.scale;
    // 9 racks x 16 hosts with 4 spines; intra-fabric links 100G. Quick
    // scale shrinks the fabric but keeps the run long: with 25x bursts the
    // RNL feedback the controller needs arrives milliseconds late, and the
    // paper itself reports ~20 ms convergence for this experiment.
    let racks = scale.pick(2, 9);
    let link = LinkSpec::default_100g();
    let ms = SimDuration::from_ms;
    let times = scale.pick([ms(50), ms(30)], [ms(120), ms(60)]);
    // Extreme overload: arrival-layer demand spikes to 25x link rate
    // during bursts (mu = 0.8 average, rho = 25 burst demand).
    let setup = MacroSetup::all_senders(racks * 16, policy, 2101, times, |_| {
        production_workload([0.6, 0.3, 0.1], 0.8, 25.0)
    });
    ctx.run_macro(MacroSetup {
        topo: Topology::leaf_spine(racks, 16, 4, link, link),
        ..setup
    })
}

/// Fig. 21: production sizes, 25× burst demand, leaf-spine fabric.
pub fn fig21(ctx: &RunCtx) -> Fig21Result {
    // The two policies are independent runs; fan them out.
    let mut runs = ctx.sweep(vec![false, true], |aequitas| {
        if aequitas {
            run_144(ctx, PolicyChoice::Aequitas(production_slo_config()))
        } else {
            run_144(ctx, PolicyChoice::Static)
        }
    });
    let with = runs.pop().expect("two runs");
    let without = runs.pop().expect("two runs");
    let adm = admitted_mix(&with.completions, 3);
    Fig21Result {
        without: [0, 1, 2].map(|q| per_mtu_p999(&without.completions, QosClass(q))),
        with: [0, 1, 2].map(|q| per_mtu_p999(&with.completions, QosClass(q))),
        slo_per_mtu: [30.0, 45.0],
        input_mix: [60.0, 30.0, 10.0],
        admitted_mix: [adm[0] * 100.0, adm[1] * 100.0, adm[2] * 100.0],
    }
}

/// Print Fig. 21.
pub fn print_fig21(r: &Fig21Result) {
    let slo = r.slo_per_mtu.map(|s| format!("{s:.0}"));
    let rows = versus_rows(Some(slo), r.without, r.with, 1);
    print_table(
        "Fig 21: 144-node leaf-spine, production sizes, 25x burst (99.9p RNL us/MTU)",
        &["QoS", "SLO/MTU", "w/o Aequitas", "w/ Aequitas"],
        &rows,
    );
    print_mix_shift(r.input_mix, r.admitted_mix);
}

/// Print how admission moved the QoS mix (percentages).
fn print_mix_shift(input: [f64; 3], admitted: [f64; 3]) {
    println!(
        "input mix {:.0}/{:.0}/{:.0} -> admitted {:.1}/{:.1}/{:.1}",
        input[0], input[1], input[2], admitted[0], admitted[1], admitted[2]
    );
}

// ---------------------------------------------------------------------------
// Fig. 23: the 20-node testbed analogue.
// ---------------------------------------------------------------------------

/// Result of the testbed-analogue run.
pub struct Fig23Result {
    /// Per-QoS 99.9p RNL normalized by the reference run (input = target
    /// mix), without Aequitas.
    pub without_norm: [Option<f64>; 3],
    /// Same, with Aequitas.
    pub with_norm: [Option<f64>; 3],
    /// Input mix (%), and the admitted mix with Aequitas (%).
    pub input_mix: [f64; 3],
    /// Admitted mix (%).
    pub admitted: [f64; 3],
}

fn run_testbed(
    ctx: &RunCtx,
    mix: [f64; 3],
    policy: PolicyChoice,
    seed: u64,
) -> crate::harness::MacroResult {
    let ms = SimDuration::from_ms;
    let times = ctx.scale.pick([ms(20), ms(6)], [ms(100), ms(30)]);
    ctx.run_macro(MacroSetup::all_senders(20, policy, seed, times, |_| {
        node33_workload(mix, None)
    }))
}

/// Fig. 23: 20 machines, all-to-all 32 KB WRITEs, input mix (0.5, 0.35,
/// 0.15), SLOs set for a target mix of (0.2, 0.3, 0.5). Results are
/// normalized per QoS by the reference run whose input equals the target —
/// the same normalization the paper uses for confidentiality.
pub fn fig23(ctx: &RunCtx) -> Fig23Result {
    let slos = crate::slo::slo_config_33();
    let input = [0.5, 0.35, 0.15];
    let target = [0.2, 0.3, 0.5];
    // Reference, without, and with are three independent runs.
    let mut runs = ctx.sweep(vec![0u8, 1, 2], |k| match k {
        0 => run_testbed(ctx, target, PolicyChoice::Aequitas(slos.clone()), 2301),
        1 => run_testbed(ctx, input, PolicyChoice::Static, 2302),
        _ => run_testbed(ctx, input, PolicyChoice::Aequitas(slos.clone()), 2303),
    });
    let with = runs.pop().expect("three runs");
    let without = runs.pop().expect("three runs");
    let reference = runs.pop().expect("three runs");

    let norm = |r: &crate::harness::MacroResult, q: u8| -> Option<f64> {
        let base = p999_rnl_us(&reference.completions, QosClass(q))?;
        let v = p999_rnl_us(&r.completions, QosClass(q))?;
        Some(v / base)
    };
    let adm = admitted_mix(&with.completions, 3);
    Fig23Result {
        without_norm: [0, 1, 2].map(|q| norm(&without, q)),
        with_norm: [0, 1, 2].map(|q| norm(&with, q)),
        input_mix: input.map(|v| v * 100.0),
        admitted: [adm[0] * 100.0, adm[1] * 100.0, adm[2] * 100.0],
    }
}

/// Print Fig. 23.
pub fn print_fig23(r: &Fig23Result) {
    print_table(
        "Fig 23: 20-node testbed analogue, normalized 99.9p RNL",
        &["QoS", "w/o Aequitas", "w/ Aequitas"],
        &versus_rows(None, r.without_norm, r.with_norm, 2),
    );
    print_mix_shift(r.input_mix, r.admitted);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig21_aequitas_contains_extreme_overload() {
        let r = fig21(&RunCtx::quick());
        let h_without = r.without[0].expect("samples");
        let h_with = r.with[0].expect("samples");
        let m_without = r.without[1].expect("samples");
        let m_with = r.with[1].expect("samples");
        // The paper reports 3.7x/2.2x improvements; at quick scale with a
        // 25x burst our contrast is far larger (the uncontrolled run's
        // sender queues explode). Per-channel admitted rates in the
        // all-to-all fan-out sit below Algorithm 1's implicit calibration
        // rate (alpha / (target x beta x size)), so the equilibrium tail
        // rests a small multiple above the per-MTU target rather than on it
        // (see EXPERIMENTS.md); assert the shape, not the absolute.
        assert!(
            h_with < h_without / 10.0,
            "QoSh tail should improve dramatically: {h_without} -> {h_with}"
        );
        assert!(
            m_with < m_without / 5.0,
            "QoSm tail should improve: {m_without} -> {m_with}"
        );
        assert!(
            h_with < r.slo_per_mtu[0] * 10.0,
            "QoSh normalized tail {h_with} should land within an order of the SLO {}",
            r.slo_per_mtu[0]
        );
        // Admitted QoSh share shrinks versus the 60% input.
        assert!(r.admitted_mix[0] < 50.0, "{:?}", r.admitted_mix);
    }

    #[test]
    fn fig23_converges_toward_target_mix() {
        let r = fig23(&RunCtx::quick());
        // The admitted mix moves from the 50/35/15 input toward 20/30/50.
        assert!(
            r.admitted[0] < 35.0,
            "QoSh admitted {:.1}% should fall toward 20%",
            r.admitted[0]
        );
        assert!(
            r.admitted[2] > 30.0,
            "QoSl admitted {:.1}% should grow toward 50%",
            r.admitted[2]
        );
        // With Aequitas the normalized tails are near 1.0 (i.e. matching the
        // in-profile reference), without they are much worse.
        let h_with = r.with_norm[0].unwrap();
        let h_without = r.without_norm[0].unwrap();
        assert!(h_without > h_with * 2.0, "{h_without} vs {h_with}");
        assert!(h_with < 2.0, "normalized QoSh with Aequitas: {h_with}");
    }
}
