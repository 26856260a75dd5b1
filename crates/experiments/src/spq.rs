//! Fig. 19: strict priority queuing cannot contain the race to the top.

use crate::harness::{MacroSetup, PolicyChoice, RunCtx, Scale};
use crate::report::print_table;
use crate::slo::{node33_workload, p999_rnl_us, slo_config_33};
use aequitas_netsim::SchedulerKind;
use aequitas_sim_core::SimDuration;
use aequitas_workloads::QosClass;

/// One Fig. 19 point.
#[derive(Debug, Clone, Copy)]
pub struct Fig19Point {
    /// Input QoSh-share (%).
    pub share_pct: f64,
    /// (QoSh, QoSm) 99.9p RNL under SPQ (µs).
    pub spq_us: [Option<f64>; 2],
    /// (QoSh, QoSm) 99.9p RNL under Aequitas-on-WFQ (µs).
    pub aequitas_us: [Option<f64>; 2],
}

/// Fig. 19 result.
pub struct Fig19Result {
    /// SLOs for reference (µs).
    pub slo_us: [f64; 2],
    /// Sweep points.
    pub points: Vec<Fig19Point>,
}

/// One Fig. 19 run of the 33-node star at `mix`: Aequitas over WFQ, or
/// static priorities pushed into SPQ queues.
fn fig19_setup(scale: Scale, mix: [f64; 3], aequitas: bool, seed: u64) -> MacroSetup {
    let ms = SimDuration::from_ms;
    let times = scale.pick([ms(40), ms(24)], [ms(120), ms(60)]);
    let policy = if aequitas {
        PolicyChoice::Aequitas(slo_config_33())
    } else {
        PolicyChoice::Static
    };
    let mut setup =
        MacroSetup::all_senders(33, policy, seed, times, |_| node33_workload(mix, None));
    if !aequitas {
        setup.engine.switch_scheduler = SchedulerKind::Spq(3);
        setup.engine.host_scheduler = SchedulerKind::Spq(3);
    }
    setup
}

/// Fig. 19: QoSm fixed at 20%, QoSh-share swept 50–80%; SPQ (static
/// priorities pushed into the fabric) versus Aequitas over WFQ.
pub fn fig19(ctx: &RunCtx) -> Fig19Result {
    let scale = ctx.scale;
    // Each (share, scheme) pair is an independent run; fan them all out and
    // pair the halves back up afterwards.
    let sweep: Vec<(f64, bool)> = [50.0, 60.0, 70.0, 80.0]
        .into_iter()
        .flat_map(|share| [(share, false), (share, true)])
        .collect();
    let runs = ctx.sweep(sweep, |(share, aequitas)| {
        let x = share / 100.0;
        let mix = [x, 0.20, (0.80_f64 - x).max(0.0)];
        let seed = if aequitas { 1950 } else { 1900 } + share as u64;
        let r = ctx.run_macro(fig19_setup(scale, mix, aequitas, seed));
        [
            p999_rnl_us(&r.completions, QosClass(0)),
            p999_rnl_us(&r.completions, QosClass(1)),
        ]
    });
    let points = runs
        .chunks_exact(2)
        .zip([50.0, 60.0, 70.0, 80.0])
        .map(|(pair, share)| Fig19Point {
            share_pct: share,
            spq_us: pair[0],
            aequitas_us: pair[1],
        })
        .collect();
    Fig19Result {
        slo_us: [15.0, 25.0],
        points,
    }
}

/// Print Fig. 19.
pub fn print_fig19(r: &Fig19Result) {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.share_pct),
                crate::report::opt(p.aequitas_us[0], 1),
                crate::report::opt(p.spq_us[0], 1),
                crate::report::opt(p.aequitas_us[1], 1),
                crate::report::opt(p.spq_us[1], 1),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig 19: Aequitas vs SPQ as QoSh-share grows (SLOs {}/{} us)",
            r.slo_us[0], r.slo_us[1]
        ),
        &[
            "QoSh-share",
            "QoSh Aequitas",
            "QoSh SPQ",
            "QoSm Aequitas",
            "QoSm SPQ",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_macro;

    #[test]
    fn spq_degrades_while_aequitas_holds() {
        // Single high-share point for test speed.
        let scale = Scale::quick();
        let mix = [0.80, 0.20, 0.0];
        let spq = run_macro(fig19_setup(scale, mix, false, 7));
        let aq = run_macro(fig19_setup(scale, mix, true, 8));

        let spq_h = p999_rnl_us(&spq.completions, QosClass::HIGH).unwrap();
        let aq_h = p999_rnl_us(&aq.completions, QosClass::HIGH).unwrap();
        // With 80% of traffic marked QoSh, SPQ misses the 15 us SLO while
        // Aequitas's admitted QoSh traffic still meets it.
        assert!(spq_h > 15.0 * 1.5, "SPQ QoSh p999 {spq_h} us");
        assert!(aq_h < 15.0 * 2.0, "Aequitas QoSh p999 {aq_h} us");
        assert!(aq_h < spq_h, "Aequitas {aq_h} must beat SPQ {spq_h}");
        // SPQ starves QoSm to far beyond its SLO.
        let spq_m = p999_rnl_us(&spq.completions, QosClass(1)).unwrap();
        assert!(spq_m > 25.0 * 2.0, "SPQ QoSm p999 {spq_m} us");
    }
}
