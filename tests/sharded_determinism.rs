//! The sharded engine's headline guarantee: the worker-thread count is a
//! pure wall-clock knob. `--threads 1` and `--threads N` must produce
//! byte-identical results — same completions at the same picosecond, same
//! event count — on a multi-domain Clos fabric, with and without an active
//! chaos fault plan. So must the window protocol's own counts
//! (`ShardStats`), for even, uneven and clamped lane assignments, and
//! however the run is cut into `run_until` calls.
//!
//! (This is deliberately stronger than `tests/determinism.rs`'s sweep
//! invariance: there the parallelism is *between* independent runs; here
//! the domains of a single simulation run concurrently and exchange
//! boundary packets.)

use aequitas_experiments::harness::{
    build_sharded_engine, run_macro_sharded, MacroResult, MacroSetup, PolicyChoice,
};
use aequitas_experiments::slo;
use aequitas_netsim::faults::{
    FaultPlan, GrayDegrade, LinkFlap, LinkSel, LossRule, PodLayout, PodOutage, SwitchOutage, Window,
};
use aequitas_netsim::{HostId, LinkSpec, ShardSpec, ShardStats, Topology};
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
    (
        r.issued,
        r.events,
        log_of(&r.completions),
        log_of(&r.warmup_completions),
    )
}

fn log_of(completions: &[aequitas_rpc::RpcCompletion]) -> CompletionLog {
    completions
        .iter()
        .map(|c| (c.issued_at.as_ps(), c.completed_at.as_ps(), c.rnl().as_ps()))
        .collect()
}

fn run(threads: usize, faults: Option<Arc<FaultPlan>>) -> Fingerprint {
    let (setup, spec) = clos_setup(faults);
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

/// What `run_engine` observed: the event count, every host's issue count
/// and completion stream (host-id order, picoseconds), the protocol's
/// counts, and how many worker threads the run spawned.
type EngineRun = (u64, Vec<(u64, CompletionLog)>, ShardStats, u64);

/// Drive the engine directly — `run_macro_sharded` hides it — to `duration`
/// in calls of `step` (the harness's sampling-loop shape; workers are
/// re-created per call).
fn run_engine(threads: usize, faults: Option<Arc<FaultPlan>>, step: SimDuration) -> EngineRun {
    let (setup, spec) = clos_setup(faults);
    let end = SimTime::ZERO + setup.duration;
    let hosts = setup.topo.num_hosts();
    let mut engine = build_sharded_engine(setup, spec, threads);
    assert_eq!(engine.workers(), threads.clamp(1, engine.num_domains()));
    let mut next = SimTime::ZERO;
    while next < end {
        next = if step == SimDuration::MAX {
            end
        } else {
            end.min(next + step)
        };
        engine.run_until(next);
    }
    let per_host = (0..hosts)
        .map(|h| {
            let host = engine.agent(HostId(h));
            (host.issued(), log_of(host.completions()))
        })
        .collect();
    (
        engine.events_processed(),
        per_host,
        engine.stats().clone(),
        engine.spawned_workers(),
    )
}

/// 3 domains: 2 workers is an even split of the pods, 3 one domain per
/// lane, 5 and 8 are clamped to 3. Fingerprint *and* protocol counts must
/// not notice.
#[test]
fn every_lane_assignment_gives_the_same_run_and_the_same_shard_stats() {
    for faults in [None, Some(chaos_plan())] {
        let (events, hosts, stats, spawned) = run_engine(1, faults.clone(), SimDuration::MAX);
        assert_eq!(spawned, 0, "one worker is the calling thread alone");
        assert!(stats.windows > 100, "only {} windows", stats.windows);
        assert_eq!(stats.events, events);
        assert_eq!(stats.events_per_domain.iter().sum::<u64>(), events);
        assert!(stats.boundary_packets > 0 && stats.max_window_events > 0);
        for threads in [2, 3, 5, 8] {
            let (e, h, s, spawned) = run_engine(threads, faults.clone(), SimDuration::MAX);
            assert_eq!((e, &h), (events, &hosts), "{threads} threads diverged");
            assert_eq!(s, stats, "ShardStats differ at {threads} threads");
            // One multi-window call: its workers are spawned exactly once.
            assert_eq!(spawned, threads.min(3) as u64 - 1);
        }
    }
}

/// The harness's sampling-loop shape: the run cut into 100 µs `run_until`
/// calls, workers re-created by each. Where the calls end is part of the
/// window schedule, so a stepped run is its own simulation (same-instant
/// ties at a port can fall differently than in one call, at any thread
/// count) — but it, too, must not notice the worker count.
#[test]
fn stepped_run_until_is_thread_count_invariant() {
    let step = SimDuration::from_us(100);
    let (events, hosts, stats, spawned) = run_engine(1, Some(chaos_plan()), step);
    assert_eq!(spawned, 0);
    for threads in [2, 3] {
        let (e, h, s, spawned) = run_engine(threads, Some(chaos_plan()), step);
        assert_eq!((e, &h), (events, &hosts), "{threads} threads diverged");
        assert_eq!(s, stats, "ShardStats differ at {threads} threads");
        // 30 multi-window calls, each spawning its own workers.
        assert_eq!(spawned, 30 * (threads as u64 - 1));
    }
}

/// A call that is one window long has nothing to overlap a spawn with: it
/// runs on the calling thread (the benchmark's `run_until(ZERO)` set-up
/// call, and any step no longer than the 2 µs lookahead).
#[test]
fn single_window_call_spawns_no_worker() {
    let (setup, spec) = clos_setup(None);
    let mut engine = build_sharded_engine(setup, spec, 4);
    assert_eq!(engine.workers(), 3);
    engine.run_until(SimTime::ZERO); // nothing is due at t = 0: no window
    engine.run_until(SimTime::from_us(2));
    assert_eq!(engine.stats().windows, 1);
    assert_eq!(engine.spawned_workers(), 0);
    engine.run_until(SimTime::from_us(50));
    assert!(engine.stats().windows > 10);
    assert_eq!(engine.spawned_workers(), 2);
}
