//! Figs. 17, 18 and the Appendix C sensitivity study (Figs. 28, 29).

use crate::harness::{MacroSetup, PolicyChoice, RunCtx};
use crate::report::{f2, print_table};
use aequitas::{AequitasConfig, SloTarget};
use aequitas_netsim::HostId;
use aequitas_rpc::{ArrivalProcess, Priority, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_stats::{Percentiles, TimeSeries};
use aequitas_workloads::{QosClass, SizeDist};

/// Per-channel outcome of a fairness run.
#[derive(Debug, Clone)]
pub struct ChannelTrace {
    /// Admit-probability samples over time.
    pub p_admit: TimeSeries,
    /// Admitted QoSh goodput (Gbps) per sampling window.
    pub throughput: TimeSeries,
    /// Steady-state mean admitted QoSh goodput (Gbps).
    pub steady_gbps: f64,
    /// 1st-percentile admit probability after warm-up.
    pub p1_admit: Option<f64>,
    /// Spread (p99 − p1) of the admit probability after warm-up — the
    /// stability metric of Appendix C.
    pub p_spread: Option<f64>,
}

/// Result of one fairness experiment.
pub struct FairnessResult {
    /// Offered QoSh share per channel (fraction of line rate).
    pub offered: [f64; 2],
    /// Traces for channels A and B.
    pub channels: [ChannelTrace; 2],
}

/// Core fairness runner: two channels (hosts 0 and 1) issue 32 KB RPCs at
/// line rate to host 2, with `offered[i]` of their bytes on QoSh and the
/// rest on QoSl. QoSh SLO = 15 µs. Returns per-channel traces.
pub fn run_fairness(ctx: &RunCtx, offered: [f64; 2], beta: f64, seed: u64) -> FairnessResult {
    let scale = ctx.scale;
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let mut setup = MacroSetup::star_2qos(3, slo);
    setup.policy = PolicyChoice::Aequitas(AequitasConfig {
        beta_per_mtu: beta,
        ..AequitasConfig::two_qos(slo)
    });
    // Equalization emerges from a slow differential drift (misses shave the
    // heavier channel faster than additive increase rebuilds it), so the
    // run must cover many increment windows.
    setup.duration = scale.pick(SimDuration::from_ms(260), SimDuration::from_ms(1500));
    setup.warmup = scale.pick(SimDuration::from_ms(160), SimDuration::from_ms(900));
    setup.seed = seed;
    for (ch, &share) in offered.iter().enumerate() {
        setup.workloads[ch] = Some(WorkloadSpec::mix(
            ArrivalProcess::Uniform { load: 1.0 },
            TrafficPattern::ManyToOne { dst: 2 },
            [
                (Priority::PerformanceCritical, share),
                (Priority::BestEffort, 1.0 - share),
            ],
            |_| SizeDist::Fixed(32_768),
        ));
    }

    let warmup = setup.warmup;
    let warm_t = SimTime::ZERO + warmup;
    let sample_every = scale.pick(SimDuration::from_us(500), SimDuration::from_ms(2));
    let mut p_series = [TimeSeries::new(), TimeSeries::new()];
    let mut p1 = [Percentiles::new(), Percentiles::new()];
    let result = ctx.run_macro_controlled(setup, sample_every, |eng, now| {
        for ch in 0..2 {
            let p = eng.agents()[ch]
                .stack()
                .admit_probability(HostId(2), QosClass::HIGH);
            p_series[ch].push(now, p);
            if now >= warm_t {
                p1[ch].record(p);
            }
        }
    });

    // Reconstruct per-channel admitted-QoSh throughput from completions.
    let window = sample_every;
    let mut traces = Vec::new();
    for ch in 0..2 {
        let mut meter = aequitas_stats::ThroughputMeter::new(window);
        let mut steady_bytes = 0u64;
        for c in result
            .warmup_completions
            .iter()
            .chain(result.completions.iter())
        {
            if c.src == HostId(ch) && c.qos_run == QosClass::HIGH {
                meter.record(c.completed_at, c.size_bytes);
                if c.completed_at >= warm_t {
                    steady_bytes += c.size_bytes;
                }
            }
        }
        let steady_secs = result.measure_secs;
        let spread = match (p1[ch].p99(), p1[ch].p1()) {
            (Some(hi), Some(lo)) => Some(hi - lo),
            _ => None,
        };
        traces.push(ChannelTrace {
            p_admit: std::mem::take(&mut p_series[ch]),
            throughput: meter.series().clone(),
            steady_gbps: steady_bytes as f64 * 8.0 / steady_secs / 1e9,
            p1_admit: p1[ch].p1(),
            p_spread: spread,
        });
    }
    let b = traces.pop().unwrap();
    let a = traces.pop().unwrap();
    FairnessResult {
        offered,
        channels: [a, b],
    }
}

/// Fig. 17: channels offering 40% and 80% of line rate on QoSh converge to
/// equal admitted throughput via different admit probabilities.
pub fn fig17(ctx: &RunCtx) -> FairnessResult {
    run_fairness(ctx, [0.4, 0.8], 0.01, 1717)
}

/// Fig. 18: an in-quota channel (10%) keeps p_admit ≈ 1 while the other
/// channel reclaims the excess (max-min fairness).
pub fn fig18(ctx: &RunCtx) -> FairnessResult {
    run_fairness(ctx, [0.1, 0.8], 0.01, 1818)
}

/// Figs. 28/29: the same experiments with β = 0.0015 — better stability
/// (higher 1st-percentile p_admit) at some cost in SLO strictness.
pub fn fig28_29(ctx: &RunCtx) -> (FairnessResult, FairnessResult) {
    (
        run_fairness(ctx, [0.4, 0.8], 0.0015, 2828),
        run_fairness(ctx, [0.1, 0.8], 0.0015, 2929),
    )
}

/// Print a fairness result.
pub fn print_fairness(title: &str, r: &FairnessResult) {
    let rows: Vec<Vec<String>> = (0..2)
        .map(|ch| {
            let c = &r.channels[ch];
            vec![
                format!("{}", (b'A' + ch as u8) as char),
                format!("{:.0}%", r.offered[ch] * 100.0),
                f2(c.p_admit.last_value().unwrap_or(1.0)),
                crate::report::opt(c.p1_admit, 2),
                format!("{:.1} Gbps", c.steady_gbps),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "channel",
            "offered QoSh",
            "final p_admit",
            "1st-p p_admit",
            "admitted goodput",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_unequal_offers_get_equal_goodput() {
        let r = fig17(&RunCtx::quick());
        let a = r.channels[0].steady_gbps;
        let b = r.channels[1].steady_gbps;
        assert!(a > 1.0 && b > 1.0, "channels idle: {a} {b}");
        let ratio = a / b;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "admitted goodput should equalize: A {a:.1} vs B {b:.1}"
        );
        // The heavier channel needs the lower admit probability.
        let pa = r.channels[0].p_admit.last_value().unwrap();
        let pb = r.channels[1].p_admit.last_value().unwrap();
        assert!(pa > pb, "p_admit A {pa} should exceed B {pb}");
    }

    #[test]
    fn fig18_in_quota_channel_keeps_high_p_admit() {
        let r = fig18(&RunCtx::quick());
        let p1a = r.channels[0].p1_admit.unwrap();
        assert!(
            p1a > 0.55,
            "in-quota channel's 1st-p p_admit {p1a} should stay high"
        );
        // Channel B reclaims the slack: it admits more than a naive equal
        // split.
        let b = r.channels[1].steady_gbps;
        let a = r.channels[0].steady_gbps;
        assert!(b > a, "B ({b:.1}) should reclaim excess over A ({a:.1})");
    }

    #[test]
    fn smaller_beta_improves_stability() {
        // Appendix C: a smaller multiplicative decrement trades SLO
        // strictness for stability. Compare the admit-probability spread of
        // the heavier (over-quota) channel under beta = 0.01 vs 0.0015.
        let ctx = &RunCtx::quick();
        let r_default = fig17(ctx);
        let (r_small, r18_small) = fig28_29(ctx);
        let spread_default = r_default.channels[1].p_spread.unwrap();
        let spread_small = r_small.channels[1].p_spread.unwrap();
        assert!(
            spread_small < spread_default + 0.02,
            "beta=0.0015 spread {spread_small} should not exceed beta=0.01 spread {spread_default}"
        );
        // And the in-quota channel of the fig-18 setup stays near 1.0 with
        // the small beta (the paper reports 1st-p 0.96 vs 0.82).
        assert!(r18_small.channels[0].p1_admit.unwrap() > 0.8);
    }
}
