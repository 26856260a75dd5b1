//! Chaos scenarios: Aequitas under injected faults.
//!
//! The fault layer (`aequitas-faults`) makes every failure a pure function
//! of `(seed, time, entity)`, so chaos runs are exactly as reproducible as
//! healthy ones. Two scenarios exercise the properties the paper's control
//! loop should provide under infrastructure failures it was never told
//! about:
//!
//! * [`link_flap`] — one sender's uplink goes dark mid-run. Its backlogged
//!   QoSₕ RPCs complete with enormous RNL once the link returns, the
//!   admission controller slams the channel's admit probability down, and
//!   the floor + additive increase re-admit the channel once measured RNL
//!   is healthy again. Other hosts' QoSₕ tails stay bounded throughout —
//!   the blast radius is one channel, not the fabric.
//! * [`quota_outage`] — the §5.2 quota server becomes unreachable for a
//!   window. Hosts degrade to their last-known grant, decayed per missed
//!   sync round toward a floor ([`aequitas::GrantKeeper`]), so a guaranteed
//!   tenant keeps a predictable share through the outage and snaps back to
//!   its full guarantee on recovery.
//!
//! The CLI accepts `--faults <plan.toml>` to inject an operator-written
//! fault plan into *any* experiment: it travels in
//! [`RunCtx::faults`](crate::harness::RunCtx) and fills every scenario
//! that has no plan of its own.

use crate::harness::{MacroSetup, PolicyChoice, RunCtx};
use crate::report::{f1, print_table};
use crate::scheme::{Comparison, Scheme, SchemeRun};
use aequitas::{FallbackConfig, Grant, GrantKeeper, QuotaServer, QuotaSpec, SloTarget, TenantId};
use aequitas_netsim::faults::{FaultPlan, LinkFlap, LinkSel, LossRule, Window};
use aequitas_netsim::HostId;
use aequitas_rpc::{
    ArrivalProcess, Policy, Priority, PrioritySpec, RpcCompletion, TrafficPattern, WorkloadSpec,
};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_telemetry::TraceEvent;
use aequitas_workloads::{QosClass, QosMapping, SizeDist};
use std::sync::Arc;

/// Order-independent digest of a completion set, for byte-identical
/// determinism checks across runs and sanitizer configurations.
pub fn completion_digest(completions: &[RpcCompletion]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for c in completions {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            c.src.0 as u64,
            c.dst.0 as u64,
            c.rpc_id,
            c.issued_at.as_ps(),
            c.completed_at.as_ps(),
            c.qos_run.0 as u64,
            c.attempts as u64,
        ] {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        }
        acc = acc.wrapping_add(h); // order-independent combine
    }
    acc
}

// ---------------------------------------------------------------------------
// Scenario 1: link flap.
// ---------------------------------------------------------------------------

/// Result of the link-flap chaos scenario.
pub struct FlapResult {
    /// QoSₕ SLO the controller enforces (µs, absolute for 8 MTUs).
    pub slo_us: f64,
    /// When the flap starts / ends (ms into the run).
    pub flap_ms: [f64; 2],
    /// Admit probability of the flapped host's QoSₕ channel: right before
    /// the flap, its minimum after the flap (the controller's reaction to
    /// the stale completions), and at the end of the run (re-admission).
    pub p_admit: [f64; 3],
    /// QoSₕ 99p RNL (µs) over the *unaffected* hosts, whole run: the blast
    /// radius check.
    pub others_p99_us: Option<f64>,
    /// Frames lost or corrupted by the fault layer (the plan carries a mild
    /// Bernoulli loss on every link on top of the flap).
    pub fault_drops: u64,
    /// Completions from the flapped host.
    pub flapped_done: usize,
    /// RPCs the flapped host issued; `done + outstanding` must equal it —
    /// the link defers, the transport retransmits, the RPC layer retries,
    /// so nothing is silently lost.
    pub flapped_issued: u64,
    /// RPCs still in flight on the flapped host when the run ended.
    pub flapped_outstanding: usize,
    /// Stack-level RPC failures on the flapped host (retry budget or
    /// deadline exhausted) — zero here, the flap is shorter than the budget.
    pub flapped_failures: usize,
    /// Digest of all completions, for determinism checks.
    pub digest: u64,
}

/// Four senders into one receiver on a 100 Gbps star; host 0's uplink goes
/// down for a few milliseconds mid-run. Fault events land in
/// `ctx.telemetry`'s sink (tests attach a flight recorder there).
pub fn link_flap(ctx: &RunCtx) -> FlapResult {
    let scale = ctx.scale;
    let n = 5;
    let receiver = n - 1;
    let slo_us = 25.0;
    let flap_start = scale.pick(SimDuration::from_ms(10), SimDuration::from_ms(30));
    let flap_down = scale.pick(SimDuration::from_ms(3), SimDuration::from_ms(5));
    let duration = scale.pick(SimDuration::from_ms(70), SimDuration::from_ms(160));

    let plan = FaultPlan {
        seed: 7,
        flaps: vec![LinkFlap {
            link: LinkSel::HostUp(0),
            first_down: SimTime::ZERO + flap_start,
            down: flap_down,
            period: SimDuration::from_secs_f64(10.0),
            count: 1,
        }],
        // A touch of everywhere loss so retransmission recovery is part of
        // the picture, not just the flap. Kept well under the SLO's 1% tail
        // budget: a 32 KB RPC spans ~22 frames, so per-RPC exposure is
        // ~22x the per-frame probability.
        loss: vec![LossRule {
            link: LinkSel::Any,
            prob: 1e-4,
            burst: None,
        }],
        ..FaultPlan::default()
    }
    .validated()
    .expect("link-flap chaos plan is well-formed");

    let mut setup = MacroSetup::star_3qos(n);
    setup.engine = aequitas_netsim::EngineConfig::default_2qos();
    setup.engine.faults = Some(Arc::new(plan));
    setup.mapping = QosMapping::two_level();
    // A 99p SLO keeps the increment window short enough that re-admission
    // is visible within a quick-scale run.
    setup.policy = PolicyChoice::Aequitas(aequitas::AequitasConfig::two_qos(
        SloTarget::absolute(SimDuration::from_us_f64(slo_us), 8, 99.0),
    ));
    setup.duration = duration;
    setup.warmup = SimDuration::ZERO;
    setup.seed = 1077;
    for h in 0..n - 1 {
        setup.workloads[h] = Some(WorkloadSpec {
            arrival: ArrivalProcess::Uniform { load: 0.2 },
            pattern: TrafficPattern::ManyToOne { dst: receiver },
            classes: vec![
                PrioritySpec {
                    priority: Priority::PerformanceCritical,
                    byte_share: 0.5,
                    sizes: SizeDist::Fixed(32_768),
                },
                PrioritySpec {
                    priority: Priority::BestEffort,
                    byte_share: 0.5,
                    sizes: SizeDist::Fixed(32_768),
                },
            ],
            stop: None,
        });
    }

    // Drive the engine directly (rather than through `run_macro_*`) so the
    // final per-host state — issued, outstanding, stack-level failures — is
    // readable after the last event.
    let flap_end = SimTime::ZERO + flap_start + flap_down;
    let flap_start_t = SimTime::ZERO + flap_start;
    let mut engine = ctx.build_engine(setup);
    let end = SimTime::ZERO + duration;
    let step = SimDuration::from_us(500);
    let mut now = SimTime::ZERO;
    let mut p_before = 1.0f64;
    let mut p_min_after = f64::INFINITY;
    let mut p_end = 1.0f64;
    while now < end {
        now = end.min(now + step);
        engine.run_until(now);
        let p = engine.agents()[0]
            .stack()
            .admit_probability(HostId(receiver), QosClass::HIGH);
        if now <= flap_start_t {
            p_before = p;
        } else if now >= flap_end {
            p_min_after = p_min_after.min(p);
        }
        p_end = p;
    }
    let tel = engine.telemetry().clone();
    if tel.is_enabled() {
        tel.flush();
    }
    let (lost, corrupted) = engine.fault_loss_totals();

    let mut completions = Vec::new();
    let mut flapped_issued = 0u64;
    let mut flapped_outstanding = 0usize;
    let mut flapped_failures = 0usize;
    for (h, host) in engine.agents_mut().iter_mut().enumerate() {
        if h == 0 {
            flapped_issued = host.issued();
            flapped_outstanding = host.stack().outstanding();
            flapped_failures = host.stack_mut().take_rpc_failures().len();
        }
        completions.extend(host.take_completions());
    }
    completions.sort_by_key(|c| c.completed_at);

    let others_p99 = {
        let mut p = aequitas_stats::Percentiles::new();
        for c in completions
            .iter()
            .filter(|c| c.src.0 != 0 && c.qos_run == QosClass::HIGH)
        {
            p.record(c.rnl().as_us_f64());
        }
        p.p99()
    };
    let flapped_done = completions.iter().filter(|c| c.src.0 == 0).count();
    FlapResult {
        slo_us,
        flap_ms: [
            flap_start.as_secs_f64() * 1e3,
            (flap_start + flap_down).as_secs_f64() * 1e3,
        ],
        p_admit: [p_before, p_min_after, p_end],
        others_p99_us: others_p99,
        fault_drops: lost + corrupted,
        flapped_done,
        flapped_issued,
        flapped_outstanding,
        flapped_failures,
        digest: completion_digest(&completions),
    }
}

/// Print the link-flap scenario.
pub fn print_link_flap(r: &FlapResult) {
    let rows = vec![vec![
        format!("{:.0}-{:.0}", r.flap_ms[0], r.flap_ms[1]),
        format!("{:.2}", r.p_admit[0]),
        format!("{:.2}", r.p_admit[1]),
        format!("{:.2}", r.p_admit[2]),
        crate::report::opt(r.others_p99_us, 1),
    ]];
    print_table(
        "Chaos: uplink flap — flapped channel p_admit and bystander QoSh tail",
        &[
            "flap (ms)",
            "p before",
            "p min after",
            "p at end",
            "others p99 (us)",
        ],
        &rows,
    );
    println!(
        "flapped host: {} of {} RPCs completed ({} still in flight, {} failed), \
         {} frames dropped by the fault layer, digest {:#018x}",
        r.flapped_done,
        r.flapped_issued,
        r.flapped_outstanding,
        r.flapped_failures,
        r.fault_drops,
        r.digest
    );
}

// ---------------------------------------------------------------------------
// Scenario 2: quota-server outage.
// ---------------------------------------------------------------------------

/// Result of the quota-server-outage chaos scenario.
pub struct QuotaOutageResult {
    /// Tenant 0's guaranteed admitted rate (Gbps).
    pub guarantee_gbps: f64,
    /// Fallback floor as a fraction of the last grant.
    pub floor_frac: f64,
    /// Tenant 0 admitted QoSₕ goodput (Gbps) before / during / after the
    /// outage.
    pub tenant0_gbps: [f64; 3],
    /// Same for the unguaranteed tenants combined.
    pub others_gbps: [f64; 3],
    /// Outage transitions observed by the control loop (down + up = 2).
    pub transitions: u32,
    /// Digest of all completions, for determinism checks.
    pub digest: u64,
}

/// Six senders in three tenants blast PC traffic at one server (the §5.2
/// extension topology); tenant 0 holds a guaranteed admitted rate. The
/// quota server is unreachable for a mid-run window: hosts fall back to
/// decayed last-known grants. Fault events land in `ctx.telemetry`'s sink.
pub fn quota_outage(ctx: &RunCtx) -> QuotaOutageResult {
    let scale = ctx.scale;
    let n = 7;
    let server = HostId(6);
    let guarantee_gbps = 20.0;
    let fallback = FallbackConfig {
        decay: 0.9,
        floor_frac: 0.5,
    };
    let slo = SloTarget::absolute(SimDuration::from_us(25), 8, 99.9);
    let seed = 1088;
    let tenant_of = |host: usize| TenantId((host / 2) as u32);

    // Windows (ms): settle, pre-measure, outage, re-sync slack, post-measure.
    let scale_ms = |ms: u64| scale.pick(SimDuration::from_ms(ms), SimDuration::from_ms(ms * 3));
    let pre = (SimTime::ZERO + scale_ms(8), SimTime::ZERO + scale_ms(24));
    let outage = (pre.1, pre.1 + scale_ms(16));
    let post = (outage.1 + scale_ms(6), outage.1 + scale_ms(22));
    let duration = post.1.since(SimTime::ZERO);

    let plan = Arc::new(
        FaultPlan {
            seed,
            quota_outages: vec![Window {
                start: outage.0,
                end: outage.1,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .expect("quota-outage chaos plan is well-formed"),
    );

    let mut setup = MacroSetup::star_3qos(n);
    setup.engine = aequitas_netsim::EngineConfig::default_2qos();
    setup.engine.faults = Some(plan.clone());
    setup.mapping = QosMapping::two_level();
    setup.policy = PolicyChoice::Aequitas(aequitas::AequitasConfig::two_qos(slo));
    setup.duration = duration;
    setup.warmup = SimDuration::ZERO;
    setup.seed = seed;
    setup.policy_overrides = (0..n)
        .map(|h| {
            (h < 6).then(|| {
                Policy::aequitas_with_quota(
                    aequitas::AequitasConfig::two_qos(slo),
                    seed ^ (0x1234 + h as u64),
                    tenant_of(h),
                    0,
                )
            })
        })
        .collect();
    for h in 0..6 {
        setup.workloads[h] = Some(WorkloadSpec {
            arrival: ArrivalProcess::Uniform { load: 0.5 },
            pattern: TrafficPattern::ManyToOne { dst: server.0 },
            classes: vec![PrioritySpec {
                priority: Priority::PerformanceCritical,
                byte_share: 1.0,
                sizes: SizeDist::Fixed(32_768),
            }],
            stop: None,
        });
    }

    // Admissible QoSh rate for the 25 us SLO, as in the quota extension.
    let mut srv = QuotaServer::new(vec![0.35 * 100e9 / 8.0]);
    srv.register(
        TenantId(0),
        QuotaSpec {
            qos: 0,
            guaranteed_bps: guarantee_gbps * 1e9 / 8.0,
        },
    );
    let sync = SimDuration::from_ms(2);
    let mut keepers: Vec<GrantKeeper> = (0..6).map(|_| GrantKeeper::new(fallback)).collect();
    let mut was_down = false;
    let mut transitions = 0u32;
    let r = ctx.run_macro_controlled(setup, sync, |eng, now| {
        let down = plan.quota_server_down(now);
        if down != was_down {
            was_down = down;
            transitions += 1;
            let tel = eng.telemetry().clone();
            if tel.is_enabled() {
                for h in 0..6 {
                    tel.emit(now, TraceEvent::FaultQuotaOutage { host: h, down });
                }
            }
        }
        if down {
            // Server unreachable: usage reports are lost; each host applies
            // its keeper's decayed last-known grant.
            for (h, keeper) in keepers.iter_mut().enumerate() {
                eng.agents_mut()[h].stack_mut().take_usage_report();
                if let Some(g) = keeper.on_missed_round() {
                    eng.agents_mut()[h].stack_mut().apply_grant(g, now);
                }
            }
            return;
        }
        let mut reports = Vec::new();
        for h in 0..6 {
            if let Some(rep) = eng.agents_mut()[h].stack_mut().take_usage_report() {
                reports.push(rep);
            }
        }
        let grants = srv.allocate(&reports, sync);
        for (h, keeper) in keepers.iter_mut().enumerate() {
            if let Some(g) = grants.get(&tenant_of(h)) {
                // Each tenant's grant is split evenly over its two hosts.
                let per_host = Grant {
                    rate_bps: g.rate_bps / 2.0,
                };
                let g = keeper.on_grant(per_host);
                eng.agents_mut()[h].stack_mut().apply_grant(g, now);
            }
        }
    });

    let gbps = |hosts: std::ops::Range<usize>, w: (SimTime, SimTime)| -> f64 {
        let bytes: u64 = r
            .completions
            .iter()
            .filter(|c| {
                hosts.contains(&c.src.0)
                    && c.qos_run == QosClass::HIGH
                    && c.completed_at >= w.0
                    && c.completed_at < w.1
            })
            .map(|c| c.size_bytes)
            .sum();
        bytes as f64 * 8.0 / w.1.since(w.0).as_secs_f64() / 1e9
    };
    QuotaOutageResult {
        guarantee_gbps,
        floor_frac: fallback.floor_frac,
        tenant0_gbps: [gbps(0..2, pre), gbps(0..2, outage), gbps(0..2, post)],
        others_gbps: [gbps(2..6, pre), gbps(2..6, outage), gbps(2..6, post)],
        transitions,
        digest: completion_digest(&r.completions),
    }
}

/// Print the quota-outage scenario.
pub fn print_quota_outage(r: &QuotaOutageResult) {
    let rows = vec![
        vec![
            format!("tenant 0 (guaranteed {:.0})", r.guarantee_gbps),
            f1(r.tenant0_gbps[0]),
            f1(r.tenant0_gbps[1]),
            f1(r.tenant0_gbps[2]),
        ],
        vec![
            "tenants 1+2 (no guarantee)".into(),
            f1(r.others_gbps[0]),
            f1(r.others_gbps[1]),
            f1(r.others_gbps[2]),
        ],
    ];
    print_table(
        "Chaos: quota-server outage — admitted QoSh goodput (Gbps)",
        &["tenant", "before", "during outage", "after"],
        &rows,
    );
    println!(
        "fallback floor {:.0}% of last grant; {} outage transitions; digest {:#018x}",
        r.floor_frac * 100.0,
        r.transitions,
        r.digest
    );
}

// ---------------------------------------------------------------------------
// Chaos containment: the baseline × fault matrix with time-to-SLO-restore.
// ---------------------------------------------------------------------------

/// Hosts in the containment fabric: leaf_spine(2 racks × 4 hosts, 2 spines).
const CT_N: usize = 8;
/// Senders (rack 0) all target host 7 (rack 1) across the spine layer.
const CT_SENDERS: usize = 4;
const CT_DST: usize = 7;
/// Per-sender load: 4 × 0.15 = 60% of the receiver downlink.
const CT_LOAD: f64 = 0.15;
const CT_SIZE: u64 = 32_768;
/// One shared workload seed — every scheme sees the same offered stream.
const CT_SEED: u64 = 31_01;
/// Offered load stops at 16 ms; the run drains until 20 ms.
const CT_STOP_MS: u64 = 16;
const CT_RUN_MS: u64 = 20;
/// Fault window: onset at 4 ms, repair at 8 ms.
const CT_ONSET_MS: u64 = 4;
const CT_REPAIR_MS: u64 = 8;
/// Absolute completion-latency SLO for the 32 KB PC RPCs (the paper's
/// 250 µs deadline translation), evaluated per 500 µs window at p99.
const CT_SLO_US: f64 = 250.0;
const CT_WINDOW_PS: u64 = 500_000_000;

/// The one seeded fault schedule every scheme runs under: spine 3 dies
/// entirely for the window (blackholing the flows ECMP hashed through it),
/// while the receiver's ToR downlink runs gray at 25% capacity with a
/// creeping jitter ramp — offered 60 Gbps against an effective 25 Gbps, so
/// queues build for 4 ms and must drain after repair.
pub fn containment_plan() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan {
            seed: 1010,
            switch_outages: vec![aequitas_netsim::faults::SwitchOutage {
                switch: 3, // second spine: ToRs are 0-1, spines 2-3
                window: Window {
                    start: SimTime::from_ms(CT_ONSET_MS),
                    end: SimTime::from_ms(CT_REPAIR_MS),
                },
            }],
            gray: vec![aequitas_netsim::faults::GrayDegrade {
                link: LinkSel::SwitchPort { switch: 1, port: 3 }, // ToR1 -> host 7
                window: Window {
                    start: SimTime::from_ms(CT_ONSET_MS),
                    end: SimTime::from_ms(CT_REPAIR_MS),
                },
                rate_frac: 0.25,
                jitter_ramp: SimDuration::from_us(2),
            }],
            ..FaultPlan::default()
        }
        .validated()
        .expect("containment fault schedule is well-formed"),
    )
}

/// One scheme's row in the containment table.
#[derive(Debug, Clone)]
pub struct ContainmentRow {
    /// Scheme name.
    pub name: &'static str,
    /// Completions inside the offered-load horizon.
    pub completed: usize,
    /// p99 latency (µs) over the pre-fault windows.
    pub pre_fault_p99_us: Option<f64>,
    /// Worst windowed p99 (µs) from fault onset on.
    pub worst_p99_us: Option<f64>,
    /// Time from fault onset until the SLO is durably re-met (ms); `None`
    /// when the scheme never recovers within the horizon.
    pub restore_ms: Option<f64>,
}

/// The chaos containment matrix result.
pub struct ContainmentResult {
    /// One row per scheme, Aequitas first.
    pub rows: Vec<ContainmentRow>,
}

/// Window one scheme's completions: `(completed_at ps, latency µs)` of the
/// non-terminated completions, clipped at the offered-load stop so
/// drain-phase completions cannot retroactively repair a window.
fn ct_row(name: &'static str, run: SchemeRun) -> ContainmentRow {
    use aequitas_replay::timeline;
    let stop = SimTime::from_ms(CT_STOP_MS);
    let mut points: Vec<(u64, f64)> = run
        .completions
        .iter()
        .filter(|c| !c.terminated && c.completed_at <= stop)
        .map(|c| (c.completed_at.as_ps(), c.latency().as_us_f64()))
        .collect();
    points.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let horizon = stop.as_ps();
    let onset = SimTime::from_ms(CT_ONSET_MS).as_ps();
    let windows = timeline::windowed_until(&points, CT_WINDOW_PS, horizon)
        .expect("points are clipped at the 16 ms stop: 32 windows");
    let pre: Vec<f64> = windows
        .iter()
        .filter(|w| w.start_ps + CT_WINDOW_PS <= onset && w.count > 0)
        .map(|w| w.p99)
        .collect();
    let post: Vec<f64> = windows
        .iter()
        .filter(|w| w.start_ps + CT_WINDOW_PS > onset && w.count > 0)
        .map(|w| w.p99)
        .collect();
    let max = |v: &[f64]| {
        v.iter()
            .copied()
            .max_by(|a, b| a.partial_cmp(b).expect("finite"))
    };
    ContainmentRow {
        name,
        completed: points.len(),
        pre_fault_p99_us: max(&pre),
        worst_p99_us: max(&post),
        restore_ms: timeline::time_to_restore(&windows, onset, CT_SLO_US)
            .map(|ps| ps as f64 / 1e9),
    }
}

/// The containment scenario: four senders offer 32 KB PC RPCs to one
/// receiver of a 2-leaf, 2-spine fabric under [`containment_plan`].
pub(crate) fn containment_comparison() -> Comparison {
    let sender = WorkloadSpec {
        arrival: ArrivalProcess::Uniform { load: CT_LOAD },
        pattern: TrafficPattern::ManyToOne { dst: CT_DST },
        classes: vec![PrioritySpec {
            priority: Priority::PerformanceCritical,
            byte_share: 1.0,
            sizes: SizeDist::Fixed(CT_SIZE),
        }],
        stop: Some(SimTime::from_ms(CT_STOP_MS)),
    };
    let link = aequitas_netsim::LinkSpec::default_100g();
    Comparison {
        topo: aequitas_netsim::Topology::leaf_spine(2, 4, 2, link, link),
        workloads: (0..CT_N)
            .map(|h| (h < CT_SENDERS).then(|| sender.clone()))
            .collect(),
        seed: CT_SEED,
        faults: Some(containment_plan()),
        end: SimTime::from_ms(CT_RUN_MS),
        engine: aequitas_netsim::EngineConfig::default_2qos(),
        mapping: QosMapping::two_level(),
        aequitas: aequitas::AequitasConfig::two_qos(SloTarget::absolute(
            SimDuration::from_us_f64(CT_SLO_US),
            8,
            99.0,
        )),
    }
}

/// Run the containment matrix: Aequitas plus all five baselines under the
/// one seeded fault schedule of [`containment_plan`]. The six runs are
/// independent simulations, so they fan out across the sweep harness.
pub fn containment(ctx: &RunCtx) -> ContainmentResult {
    let cmp = containment_comparison();
    let rows = ctx.sweep(Scheme::ALL.to_vec(), |s| ct_row(s.name(), s.run(ctx, &cmp)));
    ContainmentResult { rows }
}

/// Print the containment table.
pub fn print_containment(r: &ContainmentResult) {
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.completed.to_string(),
                crate::report::opt(s.pre_fault_p99_us, 1),
                crate::report::opt(s.worst_p99_us, 1),
                match s.restore_ms {
                    Some(ms) => format!("{ms:.1}"),
                    None => "never".to_string(),
                },
            ]
        })
        .collect();
    print_table(
        "Chaos containment: spine outage + gray receiver downlink, 4-8 ms \
         (windowed p99 vs 250 us SLO)",
        &[
            "scheme",
            "completions",
            "pre-fault p99 us",
            "worst p99 us",
            "SLO restore ms",
        ],
        &rows,
    );
    println!(
        "fault onset {CT_ONSET_MS} ms, repair {CT_REPAIR_MS} ms; restore = end of last \
         violating 500 us window minus onset; 'never' = still violating at {CT_STOP_MS} ms"
    );
}
