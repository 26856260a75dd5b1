//! Extensions and ablations beyond the paper's evaluation.
//!
//! * [`quota`] — the §5.2 future-work extension: a centralized RPC quota
//!   server granting per-tenant admitted-rate guarantees on top of
//!   Aequitas's latency SLOs.
//! * [`ablation_md_size`] — Algorithm 1 without size-scaled multiplicative
//!   decrease: large RPCs stop paying proportionally for their misses and
//!   crowd out small ones.
//! * [`ablation_window`] — Algorithm 1 without the percentile-scaled
//!   increment window (additive increase on every good completion): the
//!   controller re-admits too eagerly and the tail SLO slips.
//! * [`ablation_drop`] — downgrade versus *drop*: classic admission control
//!   rejects excess RPCs; Aequitas's QoS-downgrade keeps them flowing on
//!   the scavenger class, preserving goodput.
//! * [`ablation_floor`] — removing the admit-probability floor starves a
//!   channel permanently after a transient overload (no probe stream, no
//!   measurements, no recovery).
//! * [`adaptive_apps`] — applications consuming the downgrade hint
//!   (Algorithm 1 lines 10–11 surface it; §5.1 leaves the response to the
//!   application): apps re-mark their least-critical traffic down a class
//!   until downgrades vanish, at unchanged admitted volume.

use crate::harness::{MacroSetup, PolicyChoice, RunCtx};
use crate::report::{f1, pct, print_table};
use crate::slo::{node33_workload, p999_rnl_us, slo_config_33};
use aequitas::{AequitasConfig, Grant, QuotaServer, QuotaSpec, SloTarget, TenantId};
use aequitas_netsim::Engine;
use aequitas_rpc::{ArrivalProcess, Policy, Priority, TrafficPattern, WorkloadHost, WorkloadSpec};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_workloads::{QosClass, SizeDist};

// ---------------------------------------------------------------------------
// Quota-server extension.
// ---------------------------------------------------------------------------

/// Per-tenant outcome of the quota experiment.
#[derive(Debug, Clone, Copy)]
pub struct TenantOutcome {
    /// Tenant id.
    pub tenant: u32,
    /// Guaranteed admitted rate, Gbps (0 = no guarantee).
    pub guarantee_gbps: f64,
    /// Achieved admitted QoSh goodput, Gbps.
    pub admitted_gbps: f64,
}

/// Quota experiment result: with and without the quota server.
pub struct QuotaResult {
    /// Outcomes with the quota server active.
    pub with_quota: Vec<TenantOutcome>,
    /// Outcomes with plain Aequitas (no guarantees).
    pub without_quota: Vec<TenantOutcome>,
    /// QoSh 99.9p RNL with quota active (µs) — SLOs must survive.
    pub qosh_p999_us: Option<f64>,
}

/// Senders of the §5.2 quota scenario: hosts `2t` and `2t + 1` belong to
/// tenant `t`, and host 6 is their server.
const QUOTA_SENDERS: usize = 6;

/// The tenant sending host `h` of the quota scenario belongs to.
fn tenant_of(h: usize) -> TenantId {
    TenantId((h / 2) as u32)
}

/// The §5.2 quota scenario, shared with [`crate::chaos::quota_outage`]:
/// six senders in three tenants offer half their line rate of 32 KB PC
/// RPCs each to one server under a 25 µs QoSh SLO. With `with_quota`, each
/// sender's controller also holds its tenant's quota grant.
pub(crate) fn quota_setup(seed: u64, with_quota: bool) -> MacroSetup {
    let slo = SloTarget::absolute(SimDuration::from_us(25), 8, 99.9);
    let mut setup = MacroSetup::star_2qos(QUOTA_SENDERS + 1, slo);
    setup.seed = seed;
    if with_quota {
        setup.policy_overrides = (0..QUOTA_SENDERS)
            .map(|h| {
                Some(Policy::aequitas_with_quota(
                    AequitasConfig::two_qos(slo),
                    seed ^ (0x1234 + h as u64),
                    tenant_of(h),
                    0,
                ))
            })
            .collect();
    }
    setup.offer(
        QUOTA_SENDERS,
        &WorkloadSpec::mix(
            ArrivalProcess::Uniform { load: 0.5 },
            TrafficPattern::ManyToOne { dst: QUOTA_SENDERS },
            [(Priority::PerformanceCritical, 1.0)],
            |_| SizeDist::Fixed(32_768),
        ),
    );
    setup
}

/// A quota server that guarantees tenant 0 `guarantee_gbps` of QoSh out of
/// the 25 µs SLO's admissible rate: ~35% of 100 Gbps, from the Fig.
/// 11-style profile.
pub(crate) fn quota_server(guarantee_gbps: f64) -> QuotaServer {
    let mut srv = QuotaServer::new(vec![0.35 * 100e9 / 8.0]);
    srv.register(
        TenantId(0),
        QuotaSpec {
            qos: 0,
            guaranteed_bps: guarantee_gbps * 1e9 / 8.0,
        },
    );
    srv
}

/// One quota sync round at `now`: the server allocates on the senders'
/// usage reports, and each sender applies `keep(h, grant)` for its half of
/// its tenant's grant.
pub(crate) fn quota_round(
    eng: &mut Engine<WorkloadHost>,
    srv: &mut QuotaServer,
    sync: SimDuration,
    now: SimTime,
    mut keep: impl FnMut(usize, Grant) -> Grant,
) {
    let reports: Vec<_> = (0..QUOTA_SENDERS)
        .filter_map(|h| eng.agents_mut()[h].stack_mut().take_usage_report())
        .collect();
    let grants = srv.allocate(&reports, sync);
    for h in 0..QUOTA_SENDERS {
        if let Some(g) = grants.get(&tenant_of(h)) {
            // Each tenant's grant is split evenly over its two hosts.
            let per_host = Grant {
                rate_bps: g.rate_bps / 2.0,
            };
            eng.agents_mut()[h]
                .stack_mut()
                .apply_grant(keep(h, per_host), now);
        }
    }
}

/// Six sender hosts belonging to three tenants (two hosts each) blast PC
/// traffic at one server far beyond the admissible rate. Tenant 0 holds a
/// guaranteed admitted rate; tenants 1 and 2 have none. With plain
/// Aequitas all tenants converge to similar shares; with the quota server
/// tenant 0's guarantee is honored and the rest compete for the remainder.
pub fn quota(ctx: &RunCtx) -> QuotaResult {
    let scale = ctx.scale;
    let guarantee_gbps = 10.0;
    // One seed for both arms: the gap between them is the policy's alone.
    let seed = 71;
    let build = |with_quota: bool| MacroSetup {
        duration: scale.pick(SimDuration::from_ms(120), SimDuration::from_ms(600)),
        warmup: scale.pick(SimDuration::from_ms(60), SimDuration::from_ms(300)),
        ..quota_setup(seed, with_quota)
    };

    let measure = |r: &crate::harness::MacroResult| -> Vec<TenantOutcome> {
        let mut bytes = [0u64; 3];
        for c in &r.completions {
            if c.qos_run == QosClass::HIGH && c.src.0 < QUOTA_SENDERS {
                bytes[tenant_of(c.src.0).0 as usize] += c.size_bytes;
            }
        }
        (0..3u32)
            .map(|t| TenantOutcome {
                tenant: t,
                guarantee_gbps: if t == 0 { guarantee_gbps } else { 0.0 },
                admitted_gbps: bytes[t as usize] as f64 * 8.0 / r.measure_secs / 1e9,
            })
            .collect()
    };

    // Without the quota server.
    let plain = ctx.run_macro(build(false));

    // With: the control loop syncs every 2 ms.
    let mut srv = quota_server(guarantee_gbps);
    let sync = SimDuration::from_ms(2);
    let quota_run = ctx.run_macro_controlled(build(true), sync, |eng, now| {
        quota_round(eng, &mut srv, sync, now, |_, grant| grant);
    });

    QuotaResult {
        with_quota: measure(&quota_run),
        without_quota: measure(&plain),
        qosh_p999_us: p999_rnl_us(&quota_run.completions, QosClass::HIGH),
    }
}

/// Print the quota experiment.
pub fn print_quota(r: &QuotaResult) {
    let rows: Vec<Vec<String>> = (0..3)
        .map(|t| {
            vec![
                format!("tenant {t}"),
                f1(r.without_quota[t].guarantee_gbps),
                f1(r.without_quota[t].admitted_gbps),
                f1(r.with_quota[t].admitted_gbps),
            ]
        })
        .collect();
    print_table(
        "Extension (Sec 5.2): per-tenant admitted QoSh goodput (Gbps)",
        &["tenant", "guarantee", "plain Aequitas", "with quota server"],
        &rows,
    );
    println!(
        "QoSh 99.9p RNL with quota active: {} us",
        crate::report::opt(r.qosh_p999_us, 1)
    );
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

/// Result of the size-scaled-MD ablation.
pub struct MdSizeAblation {
    /// Admitted QoSh byte share of the 32 KB and 64 KB populations with
    /// Algorithm 1's size scaling.
    pub with_scaling: [f64; 2],
    /// Same, with the scaling disabled.
    pub without_scaling: [f64; 2],
}

/// Half the hosts send 32 KB RPCs, half 64 KB (as Fig. 20); compare each
/// size class's admitted share with and without size-proportional MD.
pub fn ablation_md_size(ctx: &RunCtx) -> MdSizeAblation {
    let scale = ctx.scale;
    let ms = SimDuration::from_ms;
    // One seed for both arms: the gap between them is the policy's alone.
    let seed = 81;
    let run = |scaled: bool| -> [f64; 2] {
        let cfg = AequitasConfig {
            scale_md_by_size: scaled,
            ..slo_config_33()
        };
        let times = scale.pick([ms(24), ms(8)], [ms(100), ms(30)]);
        let setup = MacroSetup::all_senders(17, PolicyChoice::Aequitas(cfg), seed, times, |h| {
            let size = if h % 2 == 0 { 32_768 } else { 65_536 };
            WorkloadSpec::mix(
                ArrivalProcess::BurstOnOff {
                    mu: 0.8,
                    rho: 1.4,
                    period: SimDuration::from_us(100),
                },
                TrafficPattern::AllToAll,
                [
                    (Priority::PerformanceCritical, 0.6),
                    (Priority::BestEffort, 0.4),
                ],
                |_| SizeDist::Fixed(size),
            )
        });
        let r = ctx.run_macro(setup);
        let mut admitted = [0u64; 2];
        let mut offered = [0u64; 2];
        for c in &r.completions {
            let idx = if c.size_bytes == 32_768 { 0 } else { 1 };
            if c.qos_requested == QosClass::HIGH {
                offered[idx] += c.size_bytes;
                if c.qos_run == QosClass::HIGH {
                    admitted[idx] += c.size_bytes;
                }
            }
        }
        [
            admitted[0] as f64 / offered[0].max(1) as f64,
            admitted[1] as f64 / offered[1].max(1) as f64,
        ]
    };
    MdSizeAblation {
        with_scaling: run(true),
        without_scaling: run(false),
    }
}

/// Print the MD-size ablation.
pub fn print_ablation_md_size(r: &MdSizeAblation) {
    let rows: Vec<Vec<String>> = ["32KB", "64KB"]
        .into_iter()
        .enumerate()
        .map(|(k, size)| {
            vec![
                size.into(),
                pct(r.with_scaling[k]),
                pct(r.without_scaling[k]),
            ]
        })
        .collect();
    print_table(
        "Ablation: size-scaled multiplicative decrease (admitted QoSh fraction)",
        &["size", "with scaling (Alg 1)", "without scaling"],
        &rows,
    );
}

/// Result of the increment-window ablation.
pub struct WindowAblation {
    /// QoSh 99.9p RNL (µs) with Algorithm 1's percentile-scaled window.
    pub with_window_us: Option<f64>,
    /// QoSh 99.9p RNL (µs) with a near-zero window (AI on every good
    /// completion).
    pub without_window_us: Option<f64>,
    /// SLO for reference.
    pub slo_us: f64,
}

/// The increment window is what makes the controller respect *tail*
/// percentiles: with it removed, additive increase fires on every good
/// completion, overwhelming the occasional multiplicative decrease and
/// pushing the tail past the SLO.
pub fn ablation_window(ctx: &RunCtx) -> WindowAblation {
    let scale = ctx.scale;
    let ms = SimDuration::from_ms;
    // One seed for both arms: the gap between them is the policy's alone.
    let seed = 83;
    let run = |window_override: Option<SimDuration>| {
        let cfg = AequitasConfig {
            increment_window_override: window_override,
            ..slo_config_33()
        };
        let times = scale.pick([ms(30), ms(10)], [ms(120), ms(40)]);
        let policy = PolicyChoice::Aequitas(cfg);
        let r = ctx.run_macro(MacroSetup::all_senders(9, policy, seed, times, |_| {
            node33_workload([0.6, 0.3, 0.1], None)
        }));
        p999_rnl_us(&r.completions, QosClass::HIGH)
    };
    WindowAblation {
        with_window_us: run(None),
        without_window_us: run(Some(SimDuration::from_ns(1))),
        slo_us: 15.0,
    }
}

/// Print the window ablation.
pub fn print_ablation_window(r: &WindowAblation) {
    let rows = vec![vec![
        f1(r.slo_us),
        crate::report::opt(r.with_window_us, 1),
        crate::report::opt(r.without_window_us, 1),
    ]];
    print_table(
        "Ablation: percentile-scaled increment window (QoSh 99.9p RNL, us)",
        &["SLO", "with window (Alg 1)", "window removed"],
        &rows,
    );
}

/// Result of the downgrade-versus-drop ablation.
pub struct DropAblation {
    /// Goodput (Gbps) summed over all hosts with QoS-downgrade (Aequitas).
    pub downgrade_goodput_gbps: f64,
    /// Goodput (Gbps) summed over all hosts with drop-based admission
    /// control.
    pub drop_goodput_gbps: f64,
    /// Share of the bytes its hosts issued that the drop policy rejected,
    /// as the stacks count them.
    pub drop_fraction: f64,
    /// QoSh 99.9p RNL under both (µs): (downgrade, drop).
    pub qosh_p999_us: [Option<f64>; 2],
}

/// Downgrade versus drop: both meet the QoSh SLO, but dropping throws the
/// excess work away while downgrading completes it on the scavenger class.
pub fn ablation_drop(ctx: &RunCtx) -> DropAblation {
    let scale = ctx.scale;
    let ms = SimDuration::from_ms;
    // One seed for both arms: the gap between them is the policy's alone.
    let seed = 85;
    let run = |choice: PolicyChoice| {
        let times = scale.pick([ms(24), ms(8)], [ms(100), ms(30)]);
        ctx.run_macro(MacroSetup::all_senders(9, choice, seed, times, |_| {
            node33_workload([0.6, 0.3, 0.1], None)
        }))
    };
    let down = run(PolicyChoice::Aequitas(slo_config_33()));
    let drop = run(PolicyChoice::DropExcess(slo_config_33()));
    let goodput = |r: &crate::harness::MacroResult| {
        r.completions.iter().map(|c| c.size_bytes).sum::<u64>() as f64 * 8.0 / r.measure_secs / 1e9
    };
    let issued: u64 = drop.issued_bytes.iter().sum();
    DropAblation {
        downgrade_goodput_gbps: goodput(&down),
        drop_goodput_gbps: goodput(&drop),
        drop_fraction: drop.rejected_bytes as f64 / issued.max(1) as f64,
        qosh_p999_us: [
            p999_rnl_us(&down.completions, QosClass::HIGH),
            p999_rnl_us(&drop.completions, QosClass::HIGH),
        ],
    }
}

/// Print the drop ablation.
pub fn print_ablation_drop(r: &DropAblation) {
    let goodput = [r.downgrade_goodput_gbps, r.drop_goodput_gbps];
    let rows: Vec<Vec<String>> = ["downgrade (Aequitas)", "drop excess"]
        .into_iter()
        .enumerate()
        .map(|(k, policy)| {
            vec![
                policy.into(),
                f1(goodput[k]),
                crate::report::opt(r.qosh_p999_us[k], 1),
            ]
        })
        .collect();
    print_table(
        "Ablation: QoS-downgrade vs drop (goodput of all hosts Gbps, QoSh p999 us)",
        &["policy", "goodput", "QoSh p999"],
        &rows,
    );
    println!(
        "drop excess rejects {:.1}% of the bytes its hosts issue",
        r.drop_fraction * 100.0
    );
}

/// Result of the floor ablation.
pub struct FloorAblation {
    /// Admitted QoSh share in the recovery phase with the floor (Alg 1).
    pub with_floor_share: f64,
    /// Admitted QoSh share in the recovery phase with floor = 0.
    pub without_floor_share: f64,
}

/// Starvation avoidance: a single channel overloads QoSh for the first
/// half of the run (its admit probability collapses), then drops to a
/// light, easily admissible trickle. With the floor, the probe stream
/// rediscovers the healthy network and the probability climbs back; with
/// floor = 0 the probability pins at exactly zero — no admissions, no
/// measurements, no recovery, ever (§5.1's starvation argument).
pub fn ablation_floor(ctx: &RunCtx) -> FloorAblation {
    let scale = ctx.scale;
    // One seed for both arms: the gap between them is the policy's alone.
    let seed = 87;
    let run = |floor: f64| {
        let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
        let mut setup = MacroSetup::star_2qos(3, slo);
        setup.policy = PolicyChoice::Aequitas(AequitasConfig {
            floor,
            ..AequitasConfig::two_qos(slo)
        });
        let half = scale.pick(SimDuration::from_ms(80), SimDuration::from_ms(400));
        setup.duration = half * 2;
        setup.warmup = half + half / 4; // measure the recovery tail
        setup.seed = seed;
        // Both senders start in heavy QoSh overload; at `half` the
        // control loop below drops them to a 10% in-profile trickle on the
        // same channels.
        setup.offer(
            2,
            &WorkloadSpec::mix(
                ArrivalProcess::Uniform { load: 1.0 },
                TrafficPattern::ManyToOne { dst: 2 },
                [
                    (Priority::PerformanceCritical, 0.9),
                    (Priority::BestEffort, 0.1),
                ],
                |_| SizeDist::Fixed(32_768),
            ),
        );
        let half_t = SimTime::ZERO + half;
        let warm_t = SimTime::ZERO + setup.warmup;
        let mut switched = false;
        let mut stash: Vec<aequitas_rpc::RpcCompletion> = Vec::new();
        let r = ctx.run_macro_controlled(setup, SimDuration::from_ms(2), |eng, now| {
            for h in 0..2 {
                stash.extend(eng.agents_mut()[h].take_completions());
            }
            if !switched && now >= half_t {
                switched = true;
                for h in 0..2 {
                    // The app's demand collapses: a light trickle of PC on
                    // the same (dst, QoS) channel.
                    eng.agents_mut()[h].set_byte_share(0, 0.02);
                    eng.agents_mut()[h].set_byte_share(1, 0.98);
                }
            }
        });
        stash.extend(r.completions.iter().copied());
        stash.extend(r.warmup_completions.iter().copied());
        // Share of post-recovery PC RPCs admitted on QoSh.
        let (mut adm, mut tot) = (0u64, 0u64);
        for c in stash
            .iter()
            .filter(|c| c.issued_at >= warm_t && c.qos_requested == QosClass::HIGH)
        {
            tot += 1;
            if c.qos_run == QosClass::HIGH {
                adm += 1;
            }
        }
        if tot == 0 {
            0.0
        } else {
            adm as f64 / tot as f64
        }
    };
    FloorAblation {
        with_floor_share: run(0.01),
        without_floor_share: run(0.0),
    }
}

/// Print the floor ablation.
pub fn print_ablation_floor(r: &FloorAblation) {
    let rows = vec![vec![
        format!("{:.1}%", r.with_floor_share * 100.0),
        format!("{:.1}%", r.without_floor_share * 100.0),
    ]];
    print_table(
        "Ablation: admit-probability floor (in-profile traffic admitted after overload clears)",
        &["floor = 0.01 (Alg 1)", "floor = 0"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Adaptive applications: consuming the downgrade hint.
// ---------------------------------------------------------------------------

/// Result of the adaptive-application extension.
pub struct AdaptiveResult {
    /// Steady-state downgrade fraction without adaptation.
    pub static_downgrade_frac: f64,
    /// Steady-state downgrade fraction with apps reacting to hints.
    pub adaptive_downgrade_frac: f64,
    /// Admitted QoSh goodput (Gbps) in both runs (adaptation must not cost
    /// admitted volume): (static, adaptive).
    pub admitted_gbps: [f64; 2],
}

/// Algorithm 1 explicitly notifies applications of downgrades "as a hint to
/// adjust their RPC priorities". This experiment closes that loop: every
/// 5 ms each app lowers (or raises) its PC marking share toward the
/// fraction the network actually admits. Adapted apps see almost no
/// downgrades — they only mark what will be admitted — while the admitted
/// QoSh volume stays the same, removing the race-to-the-top incentive.
pub fn adaptive_apps(ctx: &RunCtx) -> AdaptiveResult {
    let scale = ctx.scale;
    let n = 5;
    let build = |seed: u64| {
        let mut setup =
            MacroSetup::star_2qos(n, SloTarget::absolute(SimDuration::from_us(15), 8, 99.9));
        setup.duration = scale.pick(SimDuration::from_ms(160), SimDuration::from_ms(800));
        setup.warmup = scale.pick(SimDuration::from_ms(100), SimDuration::from_ms(500));
        setup.seed = seed;
        setup.offer(
            n - 1,
            &WorkloadSpec::mix(
                ArrivalProcess::Uniform { load: 0.5 },
                TrafficPattern::ManyToOne { dst: n - 1 },
                [
                    (Priority::PerformanceCritical, 0.8),
                    (Priority::BestEffort, 0.2),
                ],
                |_| SizeDist::Fixed(32_768),
            ),
        );
        setup
    };

    // Downgrade *rates* must be read from the issue-time counters: during
    // overload, downgraded RPCs languish in the scavenger backlog and are
    // invisible in the completion stream (survivor bias).
    struct RunOut {
        downgrade_frac: f64,
        admitted_gbps: f64,
    }
    let run_one = |seed: u64, adaptive: bool| -> RunOut {
        let setup = build(seed);
        let warm_t = SimTime::ZERO + setup.warmup;
        let measure_secs = setup.duration.saturating_sub(setup.warmup).as_secs_f64();
        let mut at_warm: Option<Vec<(u64, u64)>> = None;
        let mut at_end: Vec<(u64, u64)> = vec![(0, 0); n - 1];
        let mut admitted_bytes = 0u64;
        let sync = SimDuration::from_ms(5);
        let r = ctx.run_macro_controlled(setup, sync, |eng, now| {
            // Track counters and harvest admitted-goodput completions.
            let mut counters = Vec::new();
            for h in 0..n - 1 {
                let host = &mut eng.agents_mut()[h];
                counters.push(host.stack().admission_counters().unwrap_or((0, 0)));
                let recent = host.take_completions();
                let mut pc = 0u64;
                let mut down = 0u64;
                for c in &recent {
                    if c.completed_at >= warm_t && c.qos_run == QosClass::HIGH {
                        admitted_bytes += c.size_bytes;
                    }
                    if c.qos_requested == QosClass::HIGH {
                        pc += 1;
                        if c.downgraded {
                            down += 1;
                        }
                    }
                }
                if adaptive && pc >= 10 {
                    let host = &mut eng.agents_mut()[h];
                    let downgrade_frac = down as f64 / pc as f64;
                    // The app re-marks its least-critical traffic down a
                    // class in proportion to the downgrades it was told
                    // about, and creeps back up while clean.
                    let cur = host.byte_share(0);
                    let next = if downgrade_frac > 0.02 {
                        (cur * (1.0 - 0.5 * downgrade_frac)).max(0.05)
                    } else {
                        (cur * 1.02).min(0.8)
                    };
                    host.set_byte_share(0, next);
                    host.set_byte_share(1, 1.0 - next);
                }
            }
            if now >= warm_t && at_warm.is_none() {
                at_warm = Some(counters.clone());
            }
            at_end = counters;
        });
        for c in r.completions.iter().chain(r.warmup_completions.iter()) {
            if c.completed_at >= warm_t && c.qos_run == QosClass::HIGH {
                admitted_bytes += c.size_bytes;
            }
        }
        let warm_counters = at_warm.unwrap_or_else(|| vec![(0, 0); n - 1]);
        let mut issued = 0u64;
        let mut downgraded = 0u64;
        for h in 0..n - 1 {
            issued += at_end[h].0 - warm_counters[h].0;
            downgraded += at_end[h].1 - warm_counters[h].1;
        }
        RunOut {
            downgrade_frac: downgraded as f64 / issued.max(1) as f64,
            admitted_gbps: admitted_bytes as f64 * 8.0 / measure_secs / 1e9,
        }
    };

    let stat = run_one(91, false);
    let adap = run_one(92, true);
    AdaptiveResult {
        static_downgrade_frac: stat.downgrade_frac,
        adaptive_downgrade_frac: adap.downgrade_frac,
        admitted_gbps: [stat.admitted_gbps, adap.admitted_gbps],
    }
}

/// Print the adaptive-application extension.
pub fn print_adaptive(r: &AdaptiveResult) {
    let rows = vec![
        vec![
            "static over-marking".into(),
            format!("{:.1}%", r.static_downgrade_frac * 100.0),
            f1(r.admitted_gbps[0]),
        ],
        vec![
            "adaptive (uses hints)".into(),
            format!("{:.1}%", r.adaptive_downgrade_frac * 100.0),
            f1(r.admitted_gbps[1]),
        ],
    ];
    print_table(
        "Extension: applications consuming the downgrade hint",
        &["application", "PC downgrade rate", "admitted QoSh Gbps"],
        &rows,
    );
}

// ---------------------------------------------------------------------------
// Core-fabric overload: the "no explicit signaling" structural claim.
// ---------------------------------------------------------------------------

/// Result of the oversubscribed-core experiment.
pub struct CoreOverloadResult {
    /// QoSh 99.9p RNL (µs), without Aequitas.
    pub without_us: Option<f64>,
    /// QoSh 99.9p RNL (µs), with Aequitas.
    pub with_us: Option<f64>,
    /// The SLO (µs).
    pub slo_us: f64,
}

/// §2.2.2/§3.1: overloads "can occur anywhere in the network", and Aequitas
/// handles them "without extra signaling to determine the location of
/// oversubscription points". Here the bottleneck is the *spine*, not any
/// edge link: a 2:1-oversubscribed leaf-spine carries all-to-all cross-rack
/// traffic; host NICs and ToR downlinks never saturate. The same end-host
/// RNL loop, knowing nothing about the topology, still restores the QoSh
/// SLO.
pub fn core_overload(ctx: &RunCtx) -> CoreOverloadResult {
    let scale = ctx.scale;
    use aequitas_netsim::{LinkSpec, Topology};
    use aequitas_sim_core::BitRate;

    let racks = 4;
    let per_rack = 4;
    let n = racks * per_rack;
    let slo_us = 40.0;

    // One seed for both arms: the gap between them is the policy's alone.
    let seed = 95;
    let run = |policy: PolicyChoice| {
        let edge = LinkSpec::default_100g();
        // Spine uplinks at half rate: aggregate core capacity is 2:1
        // oversubscribed versus the edge.
        let uplink = LinkSpec {
            rate: BitRate::from_gbps(50),
            propagation: edge.propagation,
        };
        let ms = SimDuration::from_ms;
        let times = scale.pick([ms(60), ms(35)], [ms(200), ms(120)]);
        // Cross-rack-only destinations would need a custom pattern;
        // all-to-all suffices because 3/4 of destinations are remote, so
        // the core is the binding constraint at this load.
        let setup = MacroSetup::all_senders(n, policy, seed, times, |_| {
            WorkloadSpec::mix(
                ArrivalProcess::Poisson { load: 0.55 },
                TrafficPattern::AllToAll,
                [
                    (Priority::PerformanceCritical, 0.5),
                    (Priority::BestEffort, 0.5),
                ],
                |_| SizeDist::Fixed(32_768),
            )
        });
        let r = ctx.run_macro(MacroSetup {
            topo: Topology::leaf_spine(racks, per_rack, 2, edge, uplink),
            ..setup
        });
        p999_rnl_us(&r.completions, QosClass::HIGH)
    };

    let slo = AequitasConfig::three_qos(
        SloTarget::absolute(SimDuration::from_us_f64(slo_us), 8, 99.9),
        SloTarget::absolute(SimDuration::from_us_f64(slo_us * 1.5), 8, 99.9),
    );
    CoreOverloadResult {
        without_us: run(PolicyChoice::Static),
        with_us: run(PolicyChoice::Aequitas(slo)),
        slo_us,
    }
}

/// Print the core-overload experiment.
pub fn print_core_overload(r: &CoreOverloadResult) {
    let rows = vec![vec![
        f1(r.slo_us),
        crate::report::opt(r.without_us, 1),
        crate::report::opt(r.with_us, 1),
    ]];
    print_table(
        "Extension: spine (core) overload — QoSh 99.9p RNL (us), no topology knowledge",
        &["SLO", "w/o Aequitas", "w/ Aequitas"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_server_honours_guarantee() {
        let r = quota(&RunCtx::quick());
        let t0_plain = r.without_quota[0].admitted_gbps;
        let t0_quota = r.with_quota[0].admitted_gbps;
        assert!(
            t0_quota >= 8.0,
            "guaranteed tenant should get ~10 Gbps, got {t0_quota:.1}"
        );
        assert!(
            t0_quota > t0_plain,
            "quota should help the guaranteed tenant: {t0_plain:.1} -> {t0_quota:.1}"
        );
        // Other tenants still admit something (they share the remainder).
        assert!(r.with_quota[1].admitted_gbps > 0.5);
        assert!(r.with_quota[2].admitted_gbps > 0.5);
    }

    #[test]
    fn md_size_scaling_limits_over_admission() {
        let r = ablation_md_size(&RunCtx::quick());
        // Without the scaling, a miss by a 16-MTU RPC costs the same as a
        // miss by a 1-MTU RPC, so the controller under-penalizes misses and
        // over-admits — visibly for both size populations.
        assert!(
            r.without_scaling[0] > r.with_scaling[0] + 0.1,
            "32KB population should be over-admitted without scaling: \
             with {:?} without {:?}",
            r.with_scaling,
            r.without_scaling
        );
        assert!(
            r.without_scaling[1] > r.with_scaling[1] + 0.1,
            "64KB population should be over-admitted without scaling: \
             with {:?} without {:?}",
            r.with_scaling,
            r.without_scaling
        );
    }

    #[test]
    fn window_removal_breaks_tail_slo() {
        let r = ablation_window(&RunCtx::quick());
        let with = r.with_window_us.unwrap();
        let without = r.without_window_us.unwrap();
        assert!(
            without > with,
            "removing the window should worsen the tail: {with} vs {without}"
        );
        assert!(
            without > r.slo_us * 1.5,
            "without the window the SLO should be violated: {without}"
        );
    }

    #[test]
    fn downgrade_preserves_goodput_over_drop() {
        let r = ablation_drop(&RunCtx::quick());
        assert!(
            r.downgrade_goodput_gbps > r.drop_goodput_gbps * 1.1,
            "downgrading should deliver more total work: {:.1} vs {:.1}",
            r.downgrade_goodput_gbps,
            r.drop_goodput_gbps
        );
        // The drop policy turns away a real share of the offered bytes.
        assert!(
            r.drop_fraction > 0.05 && r.drop_fraction < 1.0,
            "{:.3}",
            r.drop_fraction
        );
    }

    #[test]
    fn floor_enables_recovery() {
        let r = ablation_floor(&RunCtx::quick());
        assert!(
            r.with_floor_share > 0.3,
            "with the floor the in-profile trickle recovers: {:.2}",
            r.with_floor_share
        );
        assert!(
            r.with_floor_share > r.without_floor_share + 0.2,
            "floor=0 should visibly starve: {:.2} vs {:.2}",
            r.with_floor_share,
            r.without_floor_share
        );
        assert!(
            r.without_floor_share < 0.1,
            "with p pinned at zero nothing should be admitted: {:.2}",
            r.without_floor_share
        );
    }

    #[test]
    fn hints_eliminate_downgrades_without_losing_admission() {
        let r = adaptive_apps(&RunCtx::quick());
        assert!(
            r.static_downgrade_frac > 0.2,
            "static apps should see heavy downgrading: {:.2}",
            r.static_downgrade_frac
        );
        assert!(
            r.adaptive_downgrade_frac < r.static_downgrade_frac / 2.0,
            "adaptation should slash downgrades: {:.2} -> {:.2}",
            r.static_downgrade_frac,
            r.adaptive_downgrade_frac
        );
        // Admitted volume is preserved within 35%.
        let (a, b) = (r.admitted_gbps[0], r.admitted_gbps[1]);
        assert!(b > a * 0.65, "admitted volume lost: {a:.1} -> {b:.1}");
    }

    #[test]
    fn slo_restored_without_knowing_where_the_overload_is() {
        let r = core_overload(&RunCtx::quick());
        let without = r.without_us.unwrap();
        let with = r.with_us.unwrap();
        assert!(
            without > r.slo_us * 2.0,
            "the oversubscribed core should blow the SLO: {without}"
        );
        assert!(
            with < without / 2.0,
            "admission control should contain the core overload: {without} -> {with}"
        );
        assert!(
            with < r.slo_us * 2.0,
            "QoSh tail {with} should land near the {} us SLO",
            r.slo_us
        );
    }
}
