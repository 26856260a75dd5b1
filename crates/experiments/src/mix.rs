//! Figs. 14, 15, 16: admissible share, QoS-mix convergence, burstiness.

use crate::harness::{MacroSetup, PolicyChoice, RunCtx, Scale};
use crate::report::{f1, print_table};
use crate::slo::{
    admitted_mix, node33_workload, p999_rnl_per_qos, p999_rnl_us, setup_33, slo_config_33,
};
use aequitas_rpc::{ArrivalProcess, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_stats::fit_inverse;
use aequitas_workloads::QosClass;

// ---------------------------------------------------------------------------
// Fig. 14: baseline RNL versus QoSh-share.
// ---------------------------------------------------------------------------

/// One Fig. 14 point.
#[derive(Debug, Clone, Copy)]
pub struct Fig14Point {
    /// Input QoSh-share (%).
    pub share_pct: f64,
    /// Per-QoS 99.9p RNL (µs).
    pub p999_us: [Option<f64>; 3],
}

/// Fig. 14 result.
pub struct Fig14Result {
    /// Sweep points.
    pub points: Vec<Fig14Point>,
}

/// Fig. 14: 33-node, **no Aequitas**, QoSh-share swept 5–70% with QoSm fixed
/// at 25%; the share where QoSh's tail crosses 15 µs defines the maximal
/// admissible share used by Figs. 15/16.
pub fn fig14(ctx: &RunCtx) -> Fig14Result {
    let scale = ctx.scale;
    let sweep = vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0, 70.0];
    let points = ctx.sweep(sweep, |share| {
        let x = share / 100.0;
        let mix = [x, 0.25, (1.0_f64 - x - 0.25).max(0.0)];
        let r = ctx.run_macro(setup_33(
            scale,
            PolicyChoice::Static,
            1400 + share as u64,
            |_| node33_workload(mix, None),
        ));
        Fig14Point {
            share_pct: share,
            p999_us: p999_rnl_per_qos(&r.completions),
        }
    });
    Fig14Result { points }
}

/// Print Fig. 14.
pub fn print_fig14(r: &Fig14Result) {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.share_pct),
                crate::report::opt(p.p999_us[0], 1),
                crate::report::opt(p.p999_us[1], 1),
                crate::report::opt(p.p999_us[2], 1),
            ]
        })
        .collect();
    print_table(
        "Fig 14: baseline (w/o Aequitas) 99.9p RNL (us) vs input QoSh-share (QoSm=25%)",
        &["QoSh-share", "QoSh", "QoSm", "QoSl"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Fig. 15: admitted mix converges to the target regardless of input mix.
// ---------------------------------------------------------------------------

/// One Fig. 15 column.
#[derive(Debug, Clone)]
pub struct Fig15Column {
    /// Input QoS-mix (%).
    pub input: [f64; 3],
    /// Admitted QoS-mix (%).
    pub admitted: [f64; 3],
    /// QoSh 99.9p RNL (µs) of admitted traffic.
    pub qosh_p999_us: Option<f64>,
}

/// Fig. 15 result.
pub struct Fig15Result {
    /// The target mix implied by the SLOs (from Fig. 14: ~25/25/50).
    pub target: [f64; 3],
    /// One column per input mix.
    pub columns: Vec<Fig15Column>,
}

/// Fig. 15: four input mixes, Aequitas configured with the 15/25 µs SLOs.
pub fn fig15(ctx: &RunCtx) -> Fig15Result {
    let scale = ctx.scale;
    let inputs = [
        [0.25, 0.25, 0.50],
        [0.60, 0.30, 0.10],
        [0.50, 0.30, 0.20],
        [0.40, 0.40, 0.20],
    ];
    let sweep: Vec<(usize, [f64; 3])> = inputs.into_iter().enumerate().collect();
    let columns = ctx.sweep(sweep, |(k, input)| {
        let r = ctx.run_macro(setup_33(
            scale,
            PolicyChoice::Aequitas(slo_config_33()),
            1500 + k as u64,
            |_| node33_workload(input, None),
        ));
        let adm = admitted_mix(&r.completions, 3);
        Fig15Column {
            input: input.map(|v| v * 100.0),
            admitted: [adm[0] * 100.0, adm[1] * 100.0, adm[2] * 100.0],
            qosh_p999_us: p999_rnl_us(&r.completions, QosClass::HIGH),
        }
    });
    Fig15Result {
        target: [25.0, 25.0, 50.0],
        columns,
    }
}

/// Print Fig. 15.
pub fn print_fig15(r: &Fig15Result) {
    let mut rows = Vec::new();
    for c in &r.columns {
        rows.push(vec![
            format!("{:.0}/{:.0}/{:.0}", c.input[0], c.input[1], c.input[2]),
            format!(
                "{:.1}/{:.1}/{:.1}",
                c.admitted[0], c.admitted[1], c.admitted[2]
            ),
            crate::report::opt(c.qosh_p999_us, 1),
        ]);
    }
    print_table(
        &format!(
            "Fig 15: admitted QoS-mix vs input mix (target ~{:.0}/{:.0}/{:.0}, SLOs 15/25us)",
            r.target[0], r.target[1], r.target[2]
        ),
        &["input mix", "admitted mix", "QoSh 99.9p RNL (us)"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Fig. 16: admitted share is inversely proportional to burstiness.
// ---------------------------------------------------------------------------

/// One Fig. 16 point.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Point {
    /// Burst load ρ.
    pub rho: f64,
    /// Admitted QoSh-share (%).
    pub share_pct: f64,
}

/// Fig. 16 result.
pub struct Fig16Result {
    /// Sweep points.
    pub points: Vec<Fig16Point>,
    /// Fitted constant of `share = C / rho`.
    pub fit_c: f64,
    /// Mean relative deviation from the fit.
    pub fit_err: f64,
}

/// One Fig. 16 run: the 33-node Aequitas run with burst load `rho`.
fn fig16_setup(scale: Scale, rho: f64, seed: u64) -> MacroSetup {
    setup_33(scale, PolicyChoice::Aequitas(slo_config_33()), seed, |_| {
        WorkloadSpec {
            arrival: ArrivalProcess::BurstOnOff {
                mu: 0.8,
                rho,
                period: SimDuration::from_us(100),
            },
            ..node33_workload([0.6, 0.3, 0.1], None)
        }
    })
}

/// Fig. 16: vary the burst load ρ and record the admitted QoSh-share.
pub fn fig16(ctx: &RunCtx) -> Fig16Result {
    let scale = ctx.scale;
    let sweep: Vec<(usize, f64)> = [1.4, 1.6, 1.8, 2.0, 2.2].into_iter().enumerate().collect();
    let points = ctx.sweep(sweep, |(k, rho)| {
        let r = ctx.run_macro(fig16_setup(scale, rho, 1600 + k as u64));
        let adm = admitted_mix(&r.completions, 3);
        Fig16Point {
            rho,
            share_pct: adm[0] * 100.0,
        }
    });
    let xs: Vec<f64> = points.iter().map(|p| p.rho).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.share_pct).collect();
    let fit_c = fit_inverse(&xs, &ys);
    let fit_err = points
        .iter()
        .map(|p| ((p.share_pct - fit_c / p.rho) / p.share_pct).abs())
        .sum::<f64>()
        / points.len() as f64;
    Fig16Result {
        points,
        fit_c,
        fit_err,
    }
}

/// Print Fig. 16.
pub fn print_fig16(r: &Fig16Result) {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| vec![f1(p.rho), f1(p.share_pct), f1(r.fit_c / p.rho)])
        .collect();
    print_table(
        &format!(
            "Fig 16: admitted QoSh-share vs burst load (fit C/rho, C={:.1}, mean err {:.1}%)",
            r.fit_c,
            r.fit_err * 100.0
        ),
        &["rho", "admitted share %", "C/rho"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_macro;

    #[test]
    fn fig14_rnl_grows_with_share() {
        // Trimmed sweep for test speed: compare a low and a high share.
        let scale = Scale::quick();
        let lo = run_macro(setup_33(scale, PolicyChoice::Static, 77, |_| {
            node33_workload([0.10, 0.25, 0.65], None)
        }));
        let hi = run_macro(setup_33(scale, PolicyChoice::Static, 78, |_| {
            node33_workload([0.60, 0.25, 0.15], None)
        }));
        let lo_h = p999_rnl_us(&lo.completions, QosClass::HIGH).unwrap();
        let hi_h = p999_rnl_us(&hi.completions, QosClass::HIGH).unwrap();
        assert!(
            hi_h > lo_h * 2.0,
            "QoSh tail should inflate with share: {lo_h} -> {hi_h}"
        );
    }

    #[test]
    fn fig15_converges_toward_target_mix() {
        let r = fig15(&RunCtx::quick());
        // The figure's core claim: the admitted mix is *independent of the
        // input mix* — Aequitas ends the race to the top because offering
        // more QoSh does not buy more admitted QoSh. Check the spread of
        // admitted QoSh across the four inputs.
        let shares: Vec<f64> = r.columns.iter().map(|c| c.admitted[0]).collect();
        let lo = shares.iter().cloned().fold(f64::MAX, f64::min);
        let hi = shares.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            hi - lo < 6.0,
            "admitted QoSh should be input-independent: {shares:?}"
        );
        for c in &r.columns {
            // In the target's ballpark (quick-scale equilibrium sits
            // under-admitted; see EXPERIMENTS.md on the calibration rate).
            assert!(
                c.admitted[0] > 10.0 && c.admitted[0] < 40.0,
                "input {:?} admitted {:?}",
                c.input,
                c.admitted
            );
            // SLO within the quick-scale equilibrium envelope (2x).
            assert!(c.qosh_p999_us.unwrap() < 15.0 * 2.0, "{c:?}");
        }
    }

    #[test]
    fn fig16_share_decreases_with_burstiness() {
        // Two-point version for speed.
        let scale = Scale::quick();
        let shares: Vec<f64> = [1.4f64, 2.2]
            .iter()
            .enumerate()
            .map(|(k, rho)| {
                let r = run_macro(fig16_setup(scale, *rho, 1700 + k as u64));
                admitted_mix(&r.completions, 3)[0]
            })
            .collect();
        assert!(
            shares[1] < shares[0],
            "share should fall with rho: {shares:?}"
        );
    }
}
