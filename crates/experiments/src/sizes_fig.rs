//! Figs. 1 and 20: RPC size distributions and mixed-size SLO compliance.

use crate::harness::{PolicyChoice, RunCtx};
use crate::report::print_table;
use crate::slo::{setup_33, slo_config_33};
use aequitas_rpc::{ArrivalProcess, Priority, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{SimDuration, SimRng};
use aequitas_stats::Percentiles;
use aequitas_workloads::{QosClass, SizeDist};

// ---------------------------------------------------------------------------
// Fig. 1: per-class size CDFs.
// ---------------------------------------------------------------------------

/// Quantiles of one priority class's size distribution.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Class label.
    pub label: &'static str,
    /// (p10, p50, p90, p99, p99.9) in KB.
    pub quantiles_kb: [f64; 5],
}

/// Fig. 1: sampled quantiles of the production-like per-class size
/// distributions.
pub fn fig01() -> Vec<Fig1Row> {
    let mut rows = Vec::new();
    for (label, prio) in [
        ("PC", Priority::PerformanceCritical),
        ("NC", Priority::NonCritical),
        ("BE", Priority::BestEffort),
    ] {
        let dist = SizeDist::production_like(prio);
        let mut rng = SimRng::new(11);
        let mut p = Percentiles::new();
        for _ in 0..100_000 {
            p.record(dist.sample(&mut rng) as f64 / 1024.0);
        }
        rows.push(Fig1Row {
            label,
            quantiles_kb: [
                p.percentile(10.0).unwrap(),
                p.p50().unwrap(),
                p.percentile(90.0).unwrap(),
                p.p99().unwrap(),
                p.p999().unwrap(),
            ],
        });
    }
    rows
}

/// Print Fig. 1.
pub fn print_fig01(rows: &[Fig1Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let q = r.quantiles_kb;
            vec![
                r.label.to_string(),
                format!("{:.1}", q[0]),
                format!("{:.1}", q[1]),
                format!("{:.1}", q[2]),
                format!("{:.1}", q[3]),
                format!("{:.1}", q[4]),
            ]
        })
        .collect();
    print_table(
        "Fig 1: production-like RPC size distribution quantiles (KB)",
        &["class", "p10", "p50", "p90", "p99", "p99.9"],
        &table,
    );
}

// ---------------------------------------------------------------------------
// Fig. 20: mixed 32 KB / 64 KB channels.
// ---------------------------------------------------------------------------

/// Per-(size, QoS) tail of the mixed-size experiment, normalized per MTU.
#[derive(Debug, Clone)]
pub struct Fig20Result {
    /// 99.9p RNL per MTU (µs/MTU) for [32 KB, 64 KB] × [QoSh, QoSm, QoSl],
    /// without Aequitas.
    pub without: [[Option<f64>; 3]; 2],
    /// Same, with Aequitas.
    pub with: [[Option<f64>; 3]; 2],
    /// Normalized SLO (µs/MTU) for (QoSh, QoSm).
    pub slo_per_mtu: [f64; 2],
}

/// One arm of the figure, on the seed both arms share: the gap between them
/// is the policy's alone.
fn run_mixed(ctx: &RunCtx, policy: PolicyChoice) -> [[Option<f64>; 3]; 2] {
    let setup = setup_33(ctx.scale, policy, 2001, |h| {
        // Half the hosts send 32 KB RPCs, the other half 64 KB.
        let size = if h % 2 == 0 { 32_768 } else { 65_536 };
        WorkloadSpec::mix(
            ArrivalProcess::BurstOnOff {
                mu: 0.8,
                rho: 1.4,
                period: SimDuration::from_us(100),
            },
            TrafficPattern::AllToAll,
            Priority::ALL.into_iter().zip([0.6, 0.3, 0.1]),
            |_| SizeDist::Fixed(size),
        )
    });
    let r = ctx.run_macro(setup);
    let mut out = [[None; 3]; 2];
    for (si, size) in [32_768u64, 65_536].iter().enumerate() {
        for q in 0..3u8 {
            let mut p = Percentiles::new();
            for c in r
                .completions
                .iter()
                .filter(|c| c.size_bytes == *size && c.qos_run == QosClass(q))
            {
                p.record(c.rnl_per_mtu().as_us_f64());
            }
            out[si][q as usize] = p.p999();
        }
    }
    out
}

/// Fig. 20: half the hosts issue 32 KB RPCs, the rest 64 KB; Aequitas's
/// per-MTU normalized SLO keeps both size classes compliant.
pub fn fig20(ctx: &RunCtx) -> Fig20Result {
    Fig20Result {
        without: run_mixed(ctx, PolicyChoice::Static),
        with: run_mixed(ctx, PolicyChoice::Aequitas(slo_config_33())),
        slo_per_mtu: [15.0 / 8.0, 25.0 / 8.0],
    }
}

/// Print Fig. 20.
pub fn print_fig20(r: &Fig20Result) {
    let mut rows = Vec::new();
    for (si, label) in ["32KB", "64KB"].iter().enumerate() {
        for (qi, qos) in ["QoSh", "QoSm", "QoSl"].iter().enumerate() {
            rows.push(vec![
                label.to_string(),
                qos.to_string(),
                if qi < 2 {
                    format!("{:.2}", r.slo_per_mtu[qi])
                } else {
                    "-".into()
                },
                crate::report::opt(r.without[si][qi], 2),
                crate::report::opt(r.with[si][qi], 2),
            ]);
        }
    }
    print_table(
        "Fig 20: mixed 32/64KB RPCs, 99.9p RNL per MTU (us/MTU)",
        &["size", "QoS", "SLO/MTU", "w/o Aequitas", "w/ Aequitas"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_classes_ordered_but_overlapping() {
        let rows = fig01();
        let pc = &rows[0].quantiles_kb;
        let nc = &rows[1].quantiles_kb;
        let be = &rows[2].quantiles_kb;
        assert!(pc[1] < nc[1] && nc[1] < be[1], "medians ordered");
        // PC's p99.9 overlaps NC's median region (large PC RPCs exist).
        assert!(pc[4] > nc[1]);
    }

    #[test]
    fn fig20_normalized_slo_holds_for_both_sizes() {
        let r = fig20(&RunCtx::quick());
        for si in 0..2 {
            let h = r.with[si][0].expect("QoSh samples");
            assert!(
                h < r.slo_per_mtu[0] * 2.8,
                "size {si}: normalized QoSh tail {h} vs SLO {}",
                r.slo_per_mtu[0]
            );
            // Without Aequitas the overload blows through the target.
            let wo = r.without[si][0].expect("QoSh samples");
            assert!(wo > h, "without {wo} should exceed with {h}");
        }
    }
}
