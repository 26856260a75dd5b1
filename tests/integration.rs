//! Cross-crate integration tests: the full stack (analysis ↔ qdisc ↔
//! netsim ↔ transport ↔ rpc ↔ aequitas) agreeing with itself.

use aequitas::{AequitasConfig, SloTarget};
use aequitas_analysis::{delay_h, fluid_delays, FluidSpec, TwoQosParams};
use aequitas_experiments::harness::{build_engine, run_macro, MacroSetup, PolicyChoice};
use aequitas_experiments::slo::{admitted_mix, p999_rnl_us};
use aequitas_netsim::{EngineConfig, HostId, SwitchId};
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_workloads::{QosClass, QosMapping, SizeDist};

fn overload_workload(pc_share: f64, dst: usize) -> WorkloadSpec {
    WorkloadSpec {
        arrival: ArrivalProcess::Uniform { load: 1.0 },
        pattern: TrafficPattern::ManyToOne { dst },
        classes: vec![
            PrioritySpec {
                priority: Priority::PerformanceCritical,
                byte_share: pc_share,
                sizes: SizeDist::Fixed(32_768),
            },
            PrioritySpec {
                priority: Priority::BestEffort,
                byte_share: 1.0 - pc_share,
                sizes: SizeDist::Fixed(32_768),
            },
        ],
        stop: None,
    }
}

/// The headline behaviour: under 2x overload, admitted QoSh traffic meets a
/// 15 us 99.9p SLO that is blown by an order of magnitude without admission
/// control.
#[test]
fn aequitas_turns_slo_misses_into_downgrades() {
    let run = |policy: PolicyChoice, seed: u64| {
        let mut setup = MacroSetup::star_3qos(3);
        setup.engine = EngineConfig::default_2qos();
        setup.mapping = QosMapping::two_level();
        setup.policy = policy;
        setup.duration = SimDuration::from_ms(30);
        setup.warmup = SimDuration::from_ms(10);
        setup.seed = seed;
        setup.workloads[0] = Some(overload_workload(0.7, 2));
        setup.workloads[1] = Some(overload_workload(0.7, 2));
        run_macro(setup)
    };
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let with = run(PolicyChoice::Aequitas(AequitasConfig::two_qos(slo)), 1);
    let without = run(PolicyChoice::Static, 2);

    let with_h = p999_rnl_us(&with.completions, QosClass::HIGH).unwrap();
    let without_h = p999_rnl_us(&without.completions, QosClass::HIGH).unwrap();
    assert!(
        with_h < 15.0 * 1.35,
        "admitted QoSh p99.9 {with_h} us should track the 15 us SLO"
    );
    assert!(
        without_h > 100.0,
        "without Aequitas the tail should blow up, got {without_h} us"
    );
    // Downgrades happened, and plenty of them.
    let downgraded = with.completions.iter().filter(|c| c.downgraded).count();
    assert!(downgraded * 3 > with.completions.len(), "{downgraded}");
}

/// The admitted QoSh share under Aequitas approximates the analytical
/// admissible share: the closed-form delay bound evaluated at the admitted
/// share must be small, while at the offered share it is large.
#[test]
fn admitted_share_lands_in_the_admissible_region() {
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let mut setup = MacroSetup::star_3qos(3);
    setup.engine = EngineConfig::default_2qos();
    setup.mapping = QosMapping::two_level();
    setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(slo));
    setup.duration = SimDuration::from_ms(30);
    setup.warmup = SimDuration::from_ms(10);
    setup.workloads[0] = Some(overload_workload(0.7, 2));
    setup.workloads[1] = Some(overload_workload(0.7, 2));
    let r = run_macro(setup);
    let admitted = admitted_mix(&r.completions, 2)[0];

    // Offered: 2x line rate total, 70% QoSh -> QoSh alone ~1.4x the link.
    // The admitted share must be far below the offered share.
    assert!(admitted < 0.45, "admitted QoSh share {admitted}");
    // And the theory agrees the admitted point is benign: delay bound at
    // the admitted share, for the effective overload (total demand 2x),
    // stays below the bound at the offered mix.
    let p = TwoQosParams {
        phi: 4.0,
        mu: 0.8,
        rho: 2.0,
    };
    assert!(delay_h(p, admitted.min(0.99)) < delay_h(p, 0.7));
}

/// The fluid model, the closed form, and the admissible-region check all
/// tell one consistent story for the default 3-QoS configuration.
#[test]
fn analysis_stack_is_self_consistent() {
    let weights = vec![8.0, 4.0, 1.0];
    let spec = |x: f64| FluidSpec {
        weights: weights.clone(),
        shares: vec![x, (1.0 - x) * 2.0 / 3.0, (1.0 - x) / 3.0],
        mu: 0.8,
        rho: 1.4,
    };
    // Below the inversion boundary delays are ordered.
    let d = fluid_delays(&spec(0.3));
    assert!(d[0] <= d[1] + 1e-9 && d[1] <= d[2] + 1e-9, "{d:?}");
    // Far above it, the order breaks.
    let d = fluid_delays(&spec(0.9));
    assert!(d[0] > d[2], "{d:?}");
}

/// Determinism across the whole stack: same seeds, same story.
#[test]
fn full_stack_is_deterministic() {
    let run = || {
        let slo = SloTarget::absolute(SimDuration::from_us(20), 8, 99.9);
        let mut setup = MacroSetup::star_3qos(3);
        setup.engine = EngineConfig::default_2qos();
        setup.mapping = QosMapping::two_level();
        setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(slo));
        setup.duration = SimDuration::from_ms(8);
        setup.warmup = SimDuration::from_ms(2);
        setup.workloads[0] = Some(overload_workload(0.5, 2));
        setup.workloads[1] = Some(overload_workload(0.5, 2));
        let r = run_macro(setup);
        (
            r.completions.len(),
            r.events,
            r.completions.iter().map(|c| c.rnl().as_ps()).sum::<u64>(),
        )
    };
    assert_eq!(run(), run());
}

/// Packet conservation at the fabric: once the run quiesces, every packet
/// the host NICs put on the wire is accounted for at the switch as either
/// transmitted, dropped, or still queued — the port counters (and the new
/// high-water marks) must balance the offered load exactly.
#[test]
fn port_counters_conserve_offered_load() {
    let mut setup = MacroSetup::star_3qos(3);
    setup.engine = EngineConfig::default_2qos();
    // A shallow port buffer so the 2x overload actually overflows (the
    // transport's windows keep the default 2 MB buffer drop-free).
    setup.engine.switch_buffer_bytes = Some(96 << 10);
    setup.mapping = QosMapping::two_level();
    let mut spec = overload_workload(0.7, 2);
    // Stop the workload, then drain: with no arrivals past the stop time
    // the transport retires its backlog and the event queue empties, so
    // nothing is in flight when we read the counters.
    spec.stop = Some(SimTime::from_ms(4));
    setup.workloads[0] = Some(spec.clone());
    setup.workloads[1] = Some(spec);
    let mut engine = build_engine(setup);
    engine.run_until(SimTime::MAX);

    let classes = engine.classes();
    let host_tx: u64 = (0..3)
        .map(|h| {
            engine
                .host_nic_stats(HostId(h))
                .tx_packets
                .iter()
                .sum::<u64>()
        })
        .sum();
    let mut switch_accounted = 0u64;
    let mut total_drops = 0u64;
    for port in 0..3 {
        let st = engine.switch_port_stats(SwitchId(0), port);
        switch_accounted += st.tx_packets.iter().sum::<u64>() + st.total_drops();
        total_drops += st.total_drops();
        for class in 0..classes {
            switch_accounted += engine.switch_port_class_packets(SwitchId(0), port, class) as u64;
        }
    }
    let (fault_lost, fault_corrupted) = engine.fault_loss_totals();
    assert_eq!(
        host_tx,
        switch_accounted + fault_lost + fault_corrupted,
        "offered {host_tx} packets but the switch accounts for {switch_accounted}"
    );
    assert!(total_drops > 0, "a 2x overload must overflow the hot port");

    // High-water marks: the congested egress port (toward host 2) must have
    // seen real queueing, and a high-water mark can never sit below the
    // instantaneous backlog.
    for port in 0..3 {
        let st = engine.switch_port_stats(SwitchId(0), port);
        assert!(
            st.max_backlog_bytes >= engine.switch_port_backlog(SwitchId(0), port),
            "port {port} high-water mark below current backlog"
        );
    }
    let hot = engine.switch_port_stats(SwitchId(0), 2);
    assert!(
        hot.max_backlog_bytes > 0,
        "no queueing recorded at the hot port"
    );
    assert!(
        hot.max_class_depth_pkts.iter().any(|&d| d > 0),
        "no per-class depth recorded at the hot port: {:?}",
        hot.max_class_depth_pkts
    );
}

/// DWRR and virtual-time WFQ are interchangeable fabric implementations:
/// Aequitas converges to similar admitted shares on both.
///
/// Two requirements for the comparison to be well-posed:
/// * The DWRR quantum must cover a full *wire* packet (payload MTU plus
///   `HEADER_BYTES`). Shreedhar & Varghese require quantum >= max packet
///   size for every backlogged class to send each round; a runt quantum
///   makes the weight-1 class skip rotations, which distorts the 99.9p
///   tail enough to flip the admission controller onto a different
///   trajectory.
/// * Both schedulers must run the *same seed*. The admitted share under
///   2x overload is metastable (one 99.9p SLO miss collapses p_admit
///   multiplicatively and recovery is additive), so the share varies far
///   more across seeds than the implementations differ at any one seed.
#[test]
fn wfq_implementations_agree() {
    let run = |dwrr: bool, seed: u64| {
        let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
        let mut setup = MacroSetup::star_3qos(3);
        setup.engine = EngineConfig::default_2qos();
        if dwrr {
            setup.engine.switch_scheduler = aequitas_netsim::SchedulerKind::Dwrr {
                weights: vec![4.0, 1.0],
                quantum: 4096 + aequitas_netsim::packet::HEADER_BYTES,
            };
        }
        setup.mapping = QosMapping::two_level();
        setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(slo));
        setup.duration = SimDuration::from_ms(25);
        setup.warmup = SimDuration::from_ms(8);
        setup.seed = seed;
        setup.workloads[0] = Some(overload_workload(0.7, 2));
        setup.workloads[1] = Some(overload_workload(0.7, 2));
        let r = run_macro(setup);
        admitted_mix(&r.completions, 2)[0]
    };
    for seed in [5u64, 6] {
        let wfq_share = run(false, seed);
        let dwrr_share = run(true, seed);
        assert!(
            (wfq_share - dwrr_share).abs() < 0.10,
            "seed {seed}: WFQ {wfq_share} vs DWRR {dwrr_share}"
        );
    }
}
