//! Figs. 3, 4, 5, 24: production phenomena reproduced on synthetic
//! substrates.
//!
//! The paper's production data is proprietary; these experiments model the
//! published statistics (see DESIGN.md):
//!
//! * Fig. 3 — a congestion episode: a 3-node cluster whose offered load
//!   steps up to 8× and back, showing RNL tails tracking load.
//! * Figs. 4/5 — the synthetic fleet's priority↔QoS misalignment and the
//!   race-to-the-top drift.
//! * Fig. 24 — a staged Phase-1 rollout: misalignment falls to ~0 over the
//!   weeks, and per-cluster 99ᵗʰ-p RNL improves; the RNL change is evaluated
//!   with the WFQ fluid model applied to each cluster's before/after
//!   QoS-mix.

use crate::harness::{MacroSetup, RunCtx};
use crate::report::{f1, print_table};
use aequitas::{Fleet, FleetConfig};
use aequitas_analysis::{fluid_delays, FluidSpec};
use aequitas_rpc::{ArrivalProcess, Priority, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_stats::Percentiles;
use aequitas_workloads::SizeDist;

// ---------------------------------------------------------------------------
// Fig. 3: congestion episode.
// ---------------------------------------------------------------------------

/// One time window of the congestion episode.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeWindow {
    /// Offered load multiplier versus baseline.
    pub load_x: f64,
    /// 99p RNL in this window (µs).
    pub p99_us: Option<f64>,
}

/// Fig. 3 result: load and latency per window.
pub struct Fig3Result {
    /// Windows in time order.
    pub windows: Vec<EpisodeWindow>,
}

/// Fig. 3: load steps 1× → 4× → 8× → 1× on a shared port; RNL tails follow.
pub fn fig03(ctx: &RunCtx) -> Fig3Result {
    let scale = ctx.scale;
    let phase = scale.pick(SimDuration::from_ms(6), SimDuration::from_ms(25));
    let loads: Vec<(usize, f64)> = [0.25, 1.0, 2.0, 0.25].into_iter().enumerate().collect();
    // Each phase is warmed independently, so the windows fan out.
    let windows = ctx.sweep(loads, |(k, load_x)| {
        // Each phase is run as its own (warmed) segment: two senders share
        // one downlink, each at load_x * 0.25 of line rate (so 2.0 -> 4x the
        // baseline offered bytes, overloading the port at 1.0 aggregate).
        let mut setup = MacroSetup::star_3qos(3);
        setup.duration = phase;
        setup.warmup = phase.mul_f64(0.3);
        setup.seed = 300 + k as u64;
        setup.offer(
            2,
            &WorkloadSpec::mix(
                ArrivalProcess::Poisson {
                    load: load_x * 0.25,
                },
                TrafficPattern::ManyToOne { dst: 2 },
                [(Priority::PerformanceCritical, 1.0)],
                |_| SizeDist::Fixed(32_768),
            ),
        );
        let r = ctx.run_macro(setup);
        let mut p = Percentiles::new();
        for c in &r.completions {
            p.record(c.rnl().as_us_f64());
        }
        EpisodeWindow {
            load_x: load_x * 4.0, // relative to the 0.25 baseline
            p99_us: p.p99(),
        }
    });
    Fig3Result { windows }
}

/// Print Fig. 3.
pub fn print_fig03(r: &Fig3Result) {
    let rows: Vec<Vec<String>> = r
        .windows
        .iter()
        .enumerate()
        .map(|(k, w)| {
            vec![
                format!("phase {k}"),
                format!("{:.0}x", w.load_x),
                crate::report::opt(w.p99_us, 1),
            ]
        })
        .collect();
    print_table(
        "Fig 3: congestion episode — offered load vs 99p RNL (us)",
        &["window", "load", "99p RNL"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Figs. 4/5: fleet snapshot and drift.
// ---------------------------------------------------------------------------

/// Fig. 4/5 result.
pub struct Fig45Result {
    /// `[priority][qos]` traffic shares (%), pre-Aequitas.
    pub matrix_pct: [[f64; 3]; 3],
    /// QoS-mix (%) over simulated half-years of race-to-the-top drift.
    pub drift: Vec<[f64; 3]>,
}

/// Compute Figs. 4/5 from the synthetic fleet.
pub fn fig04_05() -> Fig45Result {
    let fleet = Fleet::synthetic(FleetConfig::default());
    let m = fleet.traffic_matrix();
    let mut matrix_pct = [[0.0; 3]; 3];
    for p in 0..3 {
        let total: f64 = m[p].iter().sum();
        for q in 0..3 {
            matrix_pct[p][q] = 100.0 * m[p][q] / total;
        }
    }
    let mut fleet = fleet;
    let mut drift = vec![fleet.qos_mix().map(|v| v * 100.0)];
    for _ in 0..4 {
        for _ in 0..6 {
            fleet.race_to_top_step(0.02);
        }
        drift.push(fleet.qos_mix().map(|v| v * 100.0));
    }
    Fig45Result { matrix_pct, drift }
}

/// Print Figs. 4/5.
pub fn print_fig04_05(r: &Fig45Result) {
    let rows: Vec<Vec<String>> = ["PC", "NC", "BE"]
        .iter()
        .enumerate()
        .map(|(p, label)| {
            vec![
                label.to_string(),
                f1(r.matrix_pct[p][0]),
                f1(r.matrix_pct[p][1]),
                f1(r.matrix_pct[p][2]),
            ]
        })
        .collect();
    print_table(
        "Fig 4: priority vs network QoS misalignment (% of class traffic)",
        &["priority", "QoSh", "QoSm", "QoSl"],
        &rows,
    );
    let rows: Vec<Vec<String>> = r
        .drift
        .iter()
        .enumerate()
        .map(|(k, mix)| {
            vec![
                format!("{:.1}y", k as f64 * 0.5),
                f1(mix[0]),
                f1(mix[1]),
                f1(mix[2]),
            ]
        })
        .collect();
    print_table(
        "Fig 5: race-to-the-top QoS-mix drift over time (%)",
        &["time", "QoSh", "QoSm", "QoSl"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Fig. 24: Phase-1 rollout.
// ---------------------------------------------------------------------------

/// One rollout week.
#[derive(Debug, Clone, Copy)]
pub struct RolloutWeek {
    /// Misalignment % per priority (PC, NC, BE) and total.
    pub misalignment_pct: [f64; 4],
}

/// Fig. 24 result.
pub struct Fig24Result {
    /// Weekly misalignment trajectory.
    pub weeks: Vec<RolloutWeek>,
    /// Per-cluster 99p-RNL change (%) after full alignment, from the fluid
    /// WFQ model applied to each cluster's QoSh before/after mix.
    pub rnl_change_pct: Vec<f64>,
}

/// Run the Phase-1 rollout over a population of sampled clusters.
pub fn fig24(ctx: &RunCtx, clusters: usize) -> Fig24Result {
    // Weekly misalignment trajectory on one big fleet.
    let mut fleet = Fleet::synthetic(FleetConfig::default());
    let mut weeks = Vec::new();
    for _ in 0..6 {
        let [pc, nc, be] = fleet.misalignment_by_priority();
        weeks.push(RolloutWeek {
            misalignment_pct: [pc, nc, be, fleet.total_misalignment()].map(|m| m * 100.0),
        });
        fleet.align_cohort(0.55);
    }

    // Per-cluster RNL change: each cluster is a fleet sample; the QoSh
    // worst-case delay is evaluated at the misaligned and aligned mixes.
    let weights = [8.0, 4.0, 1.0];
    let mut rnl_change_pct = ctx.sweep((0..clusters).collect(), |k: usize| {
        let mut cluster = Fleet::synthetic(FleetConfig {
            apps: 120,
            seed: 9000 + k as u64,
        });
        let before = cluster.qos_mix();
        cluster.align_cohort(1.0);
        let after = cluster.qos_mix();
        let delay = |mix: [f64; 3]| {
            let spec = FluidSpec {
                weights: weights.to_vec(),
                shares: mix.to_vec(),
                mu: 0.8,
                rho: 1.3,
            };
            fluid_delays(&spec)[0].max(1e-6)
        };
        let d0 = delay(before);
        let d1 = delay(after);
        100.0 * (d1 - d0) / d0
    });
    rnl_change_pct.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Fig24Result {
        weeks,
        rnl_change_pct,
    }
}

/// Print Fig. 24.
pub fn print_fig24(r: &Fig24Result) {
    let rows: Vec<Vec<String>> = r
        .weeks
        .iter()
        .enumerate()
        .map(|(w, week)| {
            vec![
                format!("week {w}"),
                f1(week.misalignment_pct[0]),
                f1(week.misalignment_pct[1]),
                f1(week.misalignment_pct[2]),
                f1(week.misalignment_pct[3]),
            ]
        })
        .collect();
    print_table(
        "Fig 24 (left): misaligned RPCs (%) during Phase-1 rollout",
        &["", "PC", "NC", "BE", "total"],
        &rows,
    );
    let n = r.rnl_change_pct.len();
    let improved = r.rnl_change_pct.iter().filter(|&&c| c < -1.0).count();
    let regressed = r.rnl_change_pct.iter().filter(|&&c| c > 1.0).count();
    let mean = r.rnl_change_pct.iter().sum::<f64>() / n.max(1) as f64;
    println!(
        "Fig 24 (right): QoSh 99p-RNL change across {n} clusters: mean {mean:.1}%, \
         {improved} improved, {regressed} minor regressions, best {:.1}%, worst {:.1}%",
        r.rnl_change_pct.first().copied().unwrap_or(0.0),
        r.rnl_change_pct.last().copied().unwrap_or(0.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_latency_tracks_load() {
        let r = fig03(&RunCtx::quick());
        let base = r.windows[0].p99_us.unwrap();
        let peak = r.windows[2].p99_us.unwrap();
        let recovered = r.windows[3].p99_us.unwrap();
        assert!(
            peak > base * 5.0,
            "overload peak {peak} should dwarf baseline {base}"
        );
        assert!(
            recovered < peak / 3.0,
            "latency should recover: {recovered} vs peak {peak}"
        );
    }

    #[test]
    fn fig04_misalignment_shape() {
        let r = fig04_05();
        // Most PC on QoSh, but roughly half of BE above QoSl.
        assert!(r.matrix_pct[0][0] > 70.0);
        assert!(r.matrix_pct[2][0] + r.matrix_pct[2][1] > 35.0);
        // Drift moves share to QoSh over time.
        assert!(r.drift.last().unwrap()[0] > r.drift[0][0]);
    }

    #[test]
    fn fig24_rollout_clears_misalignment_and_improves_rnl() {
        let r = fig24(&RunCtx::quick(), 20);
        let first = r.weeks.first().unwrap().misalignment_pct[3];
        let last = r.weeks.last().unwrap().misalignment_pct[3];
        assert!(first > 15.0, "initial misalignment {first}%");
        assert!(last < 5.0, "final misalignment {last}%");
        // The typical cluster improves (negative change); a small number of
        // regressions is expected (paper reports the same).
        let mean = r.rnl_change_pct.iter().sum::<f64>() / r.rnl_change_pct.len() as f64;
        assert!(
            mean < 0.0,
            "mean RNL change {mean}% should be an improvement"
        );
    }
}
