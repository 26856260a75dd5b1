//! The sharded engine's headline guarantee: the worker-thread count is a
//! pure wall-clock knob. `--threads 1` and `--threads N` must produce
//! byte-identical results — same completions at the same picosecond, same
//! event count — on a multi-domain Clos fabric, with and without an active
//! chaos fault plan.
//!
//! (This is deliberately stronger than `tests/determinism.rs`'s sweep
//! invariance: there the parallelism is *between* independent runs; here
//! the domains of a single simulation run concurrently and exchange
//! boundary packets.)

use aequitas_experiments::harness::{run_macro_sharded, MacroResult, MacroSetup, PolicyChoice};
use aequitas_experiments::slo;
use aequitas_netsim::faults::{
    FaultPlan, GrayDegrade, LinkFlap, LinkSel, LossRule, PodLayout, PodOutage, SwitchOutage,
    Window,
};
use aequitas_netsim::{LinkSpec, QueueKind, ShardSpec, Topology};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use std::sync::Arc;

/// A 2-pod Clos (2 spines, 2 leaves × 2 hosts per pod, 2 cores = 8 hosts,
/// 3 shard domains) under the 33-node bursty all-to-all workload with
/// Aequitas admission on every host.
fn clos_setup(faults: Option<Arc<FaultPlan>>) -> (MacroSetup, ShardSpec) {
    let core = LinkSpec {
        rate: BitRate::from_gbps(100),
        propagation: SimDuration::from_us(2),
    };
    let topo = Topology::clos(
        2,
        2,
        2,
        2,
        2,
        LinkSpec::default_100g(),
        LinkSpec::default_100g(),
        core,
    );
    let spec = ShardSpec::clos_pods(&topo, 2, 2, 2);
    let n = topo.num_hosts();
    let mut setup = MacroSetup::star_3qos(n);
    setup.topo = topo;
    setup.policy = PolicyChoice::Aequitas(slo::slo_config_33());
    setup.duration = SimDuration::from_ms(3);
    setup.warmup = SimDuration::from_us(500);
    setup.seed = 777;
    setup.engine.faults = faults;
    for h in 0..n {
        setup.workloads[h] = Some(slo::node33_workload([0.6, 0.3, 0.1], None));
    }
    (setup, spec)
}

/// (issued_at, completed_at, rnl) per completion, in picoseconds.
type CompletionLog = Vec<(u64, u64, u64)>;
type Fingerprint = (u64, u64, CompletionLog, CompletionLog);

/// Every observable of the run, at picosecond resolution. Two fingerprints
/// are equal iff the simulations were byte-identical.
fn fingerprint(r: &MacroResult) -> Fingerprint {
    let enc = |cs: &[aequitas_rpc::RpcCompletion]| {
        cs.iter()
            .map(|c| {
                (
                    c.issued_at.as_ps(),
                    c.completed_at.as_ps(),
                    c.rnl().as_ps(),
                )
            })
            .collect::<Vec<_>>()
    };
    (r.issued, r.events, enc(&r.completions), enc(&r.warmup_completions))
}

fn run(threads: usize, faults: Option<Arc<FaultPlan>>) -> Fingerprint {
    run_on(QueueKind::Calendar, threads, faults)
}

/// `queue` selects the future-event list of every domain engine.
fn run_on(queue: QueueKind, threads: usize, faults: Option<Arc<FaultPlan>>) -> Fingerprint {
    let (mut setup, spec) = clos_setup(faults);
    setup.engine.event_queue = queue;
    fingerprint(&run_macro_sharded(setup, spec, threads))
}

#[test]
fn thread_count_is_a_pure_wall_clock_knob() {
    let serial = run(1, None);
    let threaded = run(4, None);
    assert!(
        serial.2.len() > 100,
        "run too small to be meaningful: {} completions",
        serial.2.len()
    );
    assert_eq!(
        serial, threaded,
        "THREADS=1 and THREADS=4 diverged on a fault-free Clos run"
    );
}

/// Loss everywhere, a host-uplink flap, and a flap on a *cross-domain*
/// spine→core port.
fn chaos_plan() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan {
            seed: 99,
            flaps: vec![
                LinkFlap {
                    link: LinkSel::HostUp(1),
                    first_down: SimTime::from_us(800),
                    down: SimDuration::from_us(300),
                    period: SimDuration::from_secs_f64(1.0),
                    count: 1,
                },
                // Spine 4's port 2 is its first core-facing uplink: this
                // flap severs a domain boundary mid-run.
                LinkFlap {
                    link: LinkSel::SwitchPort { switch: 4, port: 2 },
                    first_down: SimTime::from_us(1200),
                    down: SimDuration::from_us(400),
                    period: SimDuration::from_secs_f64(1.0),
                    count: 1,
                },
            ],
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 1e-3,
                burst: None,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .expect("chaos plan is well-formed"),
    )
}

/// The fault layer's verdicts are pure functions of (seed, time, entity),
/// so an active chaos plan — loss everywhere, a host-uplink flap, and a
/// flap on a *cross-domain* spine→core port — must not break the guarantee.
#[test]
fn thread_count_is_invisible_under_chaos() {
    let plan = chaos_plan();
    let serial = run(1, Some(plan.clone()));
    let threaded = run(4, Some(plan));
    assert_eq!(
        serial, threaded,
        "THREADS=1 and THREADS=4 diverged under an active fault plan"
    );
    // The plan did something: a chaos run differs from a fault-free one.
    let clean = run(1, None);
    assert_ne!(
        serial, clean,
        "the fault plan should have perturbed the simulation"
    );
}

/// The correlated/gray fault kinds (switch outage, pod outage, gray degrade
/// with a jitter ramp) are likewise pure functions of (seed, time, entity) —
/// a whole-switch blackhole on a domain-boundary spine plus a degraded core
/// path must stay byte-identical across thread counts.
#[test]
fn thread_count_is_invisible_under_correlated_and_gray_faults() {
    // Clos(2,2,2,...): leaves 0-3, spines 4-7 (spine 4/5 in pod 0), cores 8-9.
    let plan = Arc::new(
        FaultPlan {
            seed: 4242,
            // Spine 4 dies entirely mid-run — all ports at once, including
            // its core-facing uplinks, severing a shard boundary.
            switch_outages: vec![SwitchOutage {
                switch: 4,
                window: Window {
                    start: SimTime::from_us(900),
                    end: SimTime::from_us(1500),
                },
            }],
            // Pod 1's leaves and spines all blackhole for a short window.
            pod_outages: vec![PodOutage {
                pod: 1,
                window: Window {
                    start: SimTime::from_us(1800),
                    end: SimTime::from_us(2000),
                },
            }],
            // Spine 5 runs gray at 40% capacity with a creeping jitter ramp
            // for most of the run: slow, not down.
            gray: vec![GrayDegrade {
                link: LinkSel::Switch(5),
                window: Window {
                    start: SimTime::from_us(500),
                    end: SimTime::from_us(2500),
                },
                rate_frac: 0.4,
                jitter_ramp: SimDuration::from_ns(400),
            }],
            pod_layout: Some(PodLayout {
                pods: 2,
                leaves_per_pod: 2,
                spines_per_pod: 2,
            }),
            ..FaultPlan::default()
        }
        .validated()
        .expect("correlated-fault chaos plan is well-formed"),
    );
    let serial = run(1, Some(plan.clone()));
    let threaded = run(4, Some(plan));
    assert_eq!(
        serial, threaded,
        "THREADS=1 and THREADS=4 diverged under switch/pod outages + gray degrade"
    );
    let clean = run(1, None);
    assert_ne!(
        serial, clean,
        "the correlated fault plan should have perturbed the simulation"
    );
}

/// `EngineConfig::event_queue` also selects the per-domain queues, and the
/// window protocol is the only caller that peeks a queue and then injects
/// arrivals earlier than the peeked event. The calendar must match the heap
/// oracle there too — under the chaos plan, at 1 and N threads.
#[test]
fn queue_backend_is_invisible_on_the_sharded_engine() {
    let oracle = run_on(QueueKind::Heap, 1, Some(chaos_plan()));
    assert!(
        oracle.2.len() > 100,
        "run too small: {} completions",
        oracle.2.len()
    );
    for (queue, threads) in [
        (QueueKind::Calendar, 1),
        (QueueKind::Calendar, 4),
        (QueueKind::Heap, 4),
    ] {
        assert_eq!(
            run_on(queue, threads, Some(chaos_plan())),
            oracle,
            "{queue:?} at {threads} threads diverged from the heap at 1 thread"
        );
    }
}
