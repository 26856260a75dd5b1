//! Determinism under the performance knobs.
//!
//! The parallel sweep harness is a pure optimization: the sweep worker
//! count (`--threads`) may not change a single figure value. This runs the
//! Fig. 11 sweep — a real multi-point experiment through the full stack —
//! at 1 and 4 workers and requires bit-identical results, and requires the
//! same of a traced sweep's trace stream. (That the calendar event queue
//! pops in a binary heap's exact order is `aequitas-sim-core`'s
//! differential property tests.)

use aequitas_experiments::harness::{run_macro, MacroSetup, PolicyChoice};
use aequitas_experiments::slo::{fig11, fig11_invariance_probe, Fig11Result};
use aequitas_experiments::RunCtx;
use aequitas_sim_core::SimDuration;
use aequitas_telemetry::{MemorySink, Telemetry, TelemetryConfig};

fn on_threads(threads: usize) -> RunCtx {
    RunCtx {
        threads,
        ..RunCtx::quick()
    }
}

fn fingerprint(r: &Fig11Result) -> Vec<(u64, u64, u64)> {
    r.points
        .iter()
        .map(|p| {
            (
                p.slo_us.to_bits(),
                p.p999_us.unwrap_or(f64::NAN).to_bits(),
                p.qosh_share.to_bits(),
            )
        })
        .collect()
}

/// The CI-speed variant: a truncated two-point Fig. 11 sweep (5% duration)
/// through the same full stack. Far from equilibrium, but determinism does
/// not care — any knob-dependence shows up here just as it would at full
/// length.
#[test]
fn fig11_smoke_is_invariant_under_threads() {
    let baseline = fingerprint(&fig11_invariance_probe(&on_threads(1)));
    let threaded = fingerprint(&fig11_invariance_probe(&on_threads(4)));
    assert_eq!(
        baseline, threaded,
        "sweep results must not depend on the worker count"
    );
}

/// The full-length sweep (minutes of wall clock): superseded in CI by
/// [`fig11_smoke_is_invariant_under_threads`]; run
/// explicitly with `cargo test -- --ignored` before releases.
#[test]
#[ignore = "full-length fig11 sweep; the smoke variant covers CI"]
fn fig11_is_invariant_under_threads() {
    let baseline = fingerprint(&fig11(&on_threads(1)));
    let threaded = fingerprint(&fig11(&on_threads(4)));
    assert_eq!(
        baseline, threaded,
        "sweep results must not depend on the worker count"
    );
}

/// A `trace-demo`-shaped run: two senders overloading one receiver under
/// Aequitas, so every event family fires.
fn overload_setup(duration: SimDuration, seed: u64) -> MacroSetup {
    use aequitas::{AequitasConfig, SloTarget};
    use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
    use aequitas_workloads::{QosMapping, SizeDist};

    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let mut setup = MacroSetup::star_3qos(3);
    setup.mapping = QosMapping::two_level();
    setup.engine = aequitas_netsim::EngineConfig::default_2qos();
    setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(slo));
    setup.duration = duration;
    setup.warmup = duration.mul_f64(0.2);
    setup.seed = seed;
    for h in 0..2 {
        setup.workloads[h] = Some(WorkloadSpec {
            arrival: ArrivalProcess::Poisson { load: 0.9 },
            pattern: TrafficPattern::ManyToOne { dst: 2 },
            classes: vec![PrioritySpec {
                priority: Priority::PerformanceCritical,
                byte_share: 1.0,
                sizes: SizeDist::Fixed(32_768),
            }],
            stop: None,
        });
    }
    setup
}

/// Telemetry is an observer, never a participant: running the same
/// experiment with tracing + metrics enabled must produce bit-identical
/// simulation results to a run with telemetry disabled.
#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let run = |tel: Telemetry| {
        let mut setup = overload_setup(SimDuration::from_ms(5), 2022);
        setup.telemetry = tel;
        let r = run_macro(setup);
        (
            r.completions.len(),
            r.issued,
            r.events,
            r.completions.iter().map(|c| c.rnl().as_ps()).sum::<u64>(),
        )
    };
    let disabled = run(Telemetry::disabled());
    let recorder = MemorySink::default();
    let enabled = run(Telemetry::with_sink(
        recorder.clone(),
        TelemetryConfig::default(),
    ));
    assert_eq!(
        disabled, enabled,
        "enabling telemetry changed the simulation"
    );
    // And the traced run did actually record something.
    assert!(!recorder.take().is_empty());
}

/// A sweep traced through the run context writes one canonical stream: the
/// points land whole and in input order whatever `threads` says, so the
/// bytes are identical at 1 and 4 workers and replay sees three clean
/// epochs — not the interleaving of concurrent runs that a handle shared
/// by parallel workers produces (every line of which replay would take for
/// an epoch boundary).
#[test]
fn traced_sweep_is_deterministic_and_replays() {
    let traced_sweep = |threads: usize| {
        let sink = MemorySink::default();
        let ctx = RunCtx {
            telemetry: Telemetry::with_sink(sink.clone(), TelemetryConfig::default()),
            ..on_threads(threads)
        };
        let counts = ctx.sweep(vec![41u64, 42, 43], |seed| {
            let r = ctx.run_macro(overload_setup(SimDuration::from_ms(1), seed));
            (r.issued, r.completions.len(), r.events)
        });
        ctx.telemetry.flush();
        (counts, sink.take())
    };
    let (counts_1, trace_1) = traced_sweep(1);
    let (counts_4, trace_4) = traced_sweep(4);
    assert_eq!(counts_1, counts_4);
    assert!(
        trace_1 == trace_4,
        "trace bytes depend on the worker count ({} vs {} bytes)",
        trace_1.len(),
        trace_4.len()
    );

    let recon = aequitas_replay::Reconstruction::from_reader(trace_1.as_bytes()).unwrap();
    assert_eq!(recon.integrity.seq_gaps, 0);
    assert_eq!(recon.epochs, 3, "one epoch per sweep point");
    assert_eq!(recon.integrity.time_regressions, 2);
}
