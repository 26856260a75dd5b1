//! Chaos-harness integration tests: fault injection is deterministic, the
//! control loops degrade gracefully under injected failures, and fault
//! events reach the telemetry stream.

use aequitas_experiments::chaos;
use aequitas_experiments::harness::RunCtx;
use aequitas_sim_core::SimDuration;
use aequitas_telemetry::{MemorySink, Telemetry, TelemetryConfig};

/// The whole point of the seeded fault layer: two runs of the same chaos
/// scenario are byte-identical, and the scenario's invariants hold — the
/// flapped channel is clamped and re-admitted, bystanders keep their SLO,
/// and no RPC is silently lost.
#[test]
fn link_flap_is_contained_and_deterministic() {
    let a = chaos::link_flap(&RunCtx::quick());
    let b = chaos::link_flap(&RunCtx::quick());
    assert_eq!(a.digest, b.digest, "fault injection must be deterministic");
    assert_eq!(a.flapped_done, b.flapped_done);
    assert_eq!(a.fault_drops, b.fault_drops);

    // Pre-flap the channel is healthy and fully admitted.
    assert!(a.p_admit[0] > 0.9, "pre-flap p_admit {:.2}", a.p_admit[0]);
    // The stale completions arriving after the flap slam it to the floor...
    assert!(
        a.p_admit[1] < 0.1,
        "post-flap minimum p_admit {:.2} should reflect the MD reaction",
        a.p_admit[1]
    );
    // ...and the floor probe stream re-admits it once RNL is healthy again.
    assert!(
        a.p_admit[2] > 0.5,
        "end-of-run p_admit {:.2} should show re-admission",
        a.p_admit[2]
    );

    // Blast radius: unaffected hosts keep their QoSh tail within the SLO.
    let others = a.others_p99_us.expect("bystander completions");
    assert!(
        others < a.slo_us,
        "bystander QoSh p99 {others:.1} us breached the {} us SLO",
        a.slo_us
    );

    // Loss recovery: frames were dropped, yet every issued RPC either
    // completed or is still in flight — none failed, none vanished.
    assert!(a.fault_drops > 0, "the loss rule should have fired");
    assert_eq!(a.flapped_failures, 0, "no RPC should exhaust its budget");
    assert_eq!(
        a.flapped_done + a.flapped_outstanding,
        a.flapped_issued as usize,
        "RPCs lost without a trace"
    );
}

/// Quota-server outage: the guaranteed tenant keeps at least its decayed
/// floor share through the outage and snaps back to the full guarantee
/// after recovery.
#[test]
fn quota_outage_degrades_gracefully_and_recovers() {
    let r = chaos::quota_outage(&RunCtx::quick());
    let [pre, during, post] = r.tenant0_gbps;

    // Before the outage the guarantee (plus its share of the remainder) is
    // honored.
    assert!(
        pre > r.guarantee_gbps,
        "pre-outage goodput {pre:.1} below the {} Gbps guarantee",
        r.guarantee_gbps
    );
    // During the outage grants decay toward the floor, never below it.
    assert!(
        during > pre * r.floor_frac * 0.8,
        "outage goodput {during:.1} fell below the floored share \
         ({pre:.1} x {:.2})",
        r.floor_frac
    );
    // After the server returns, the first real grant snaps back.
    assert!(
        post > pre * 0.8,
        "post-outage goodput {post:.1} did not recover toward {pre:.1}"
    );
    // The control loop saw exactly one down and one up transition.
    assert_eq!(r.transitions, 2, "expected one outage window");
}

/// Fault lifecycle events are part of the structured trace stream: a
/// recorded link-flap run carries link-down/up and fault-drop events, and a
/// recorded quota-outage run carries the outage transitions.
#[test]
fn fault_events_reach_the_flight_recorder() {
    let traced = |run: &dyn Fn(&RunCtx)| {
        let sink = MemorySink::default();
        let telemetry = Telemetry::with_sink(
            sink.clone(),
            TelemetryConfig {
                sample_every: SimDuration::from_ms(1),
            },
        );
        run(&RunCtx {
            telemetry,
            ..RunCtx::quick()
        });
        sink.take()
    };
    let text = traced(&|ctx| {
        chaos::link_flap(ctx);
    });
    assert!(!text.is_empty(), "no trace lines recorded");
    for required in [
        "\"fault_link_down\"",
        "\"fault_link_up\"",
        "\"fault_pkt_drop\"",
    ] {
        assert!(
            text.contains(required),
            "no {required} event in {} trace lines",
            text.lines().count()
        );
    }
    drop(text); // one whole trace in memory at a time

    let text = traced(&|ctx| {
        chaos::quota_outage(ctx);
    });
    let outages: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"fault_quota_outage\""))
        .collect();
    assert!(
        outages.iter().any(|l| l.contains("\"down\":true"))
            && outages.iter().any(|l| l.contains("\"down\":false")),
        "expected both outage transitions in the trace, got {outages:?}"
    );
}

/// The chaos containment matrix: Aequitas and all five baselines run under
/// one identical seeded fault schedule (spine-switch outage + gray receiver
/// downlink), and the time-to-SLO-restore metric tells them apart. Aequitas
/// must recover in finite time, and the recovery must be attributable to
/// the fault — it happens after repair, not before.
#[test]
fn containment_matrix_restores_aequitas_slo_in_finite_time() {
    let r = chaos::containment(&RunCtx::quick());
    assert_eq!(r.rows.len(), 6, "Aequitas + five baselines");
    let names: Vec<&str> = r.rows.iter().map(|s| s.name).collect();
    assert_eq!(names, ["Aequitas", "pFabric", "QJump", "D3", "PDQ", "Homa"]);

    for row in &r.rows {
        assert!(row.completed > 0, "{} completed nothing at all", row.name);
        // Every scheme was hurt: its worst post-onset window breaches the
        // 250 us SLO (the schedule blackholes a spine and strangles the
        // receiver downlink — no scheme rides through untouched).
        let worst = row.worst_p99_us.unwrap_or(f64::INFINITY);
        assert!(
            worst > 250.0,
            "{}: worst windowed p99 {worst:.1} us should breach the SLO",
            row.name
        );
    }

    let aq = &r.rows[0];
    let restore_ms = aq
        .restore_ms
        .expect("Aequitas must re-meet its SLO in finite time");
    // The fault lasts 4 ms (onset 4 ms, repair 8 ms) and queues need drain
    // time, so restore is positive; the horizon ends 12 ms after onset.
    assert!(
        restore_ms > 0.0 && restore_ms < 12.0,
        "Aequitas restore {restore_ms:.1} ms out of range"
    );
    // Pre-fault, Aequitas was meeting the SLO — recovery is a return to a
    // previously healthy state, not a vacuous bound.
    let pre = aq.pre_fault_p99_us.expect("pre-fault completions");
    assert!(pre <= 250.0, "Aequitas pre-fault p99 {pre:.1} us over SLO");
}

/// The containment matrix is itself deterministic: the fault layer's
/// verdicts are pure functions of (seed, time, entity), so two runs agree
/// on every row, including the recovery times.
#[test]
fn containment_matrix_is_deterministic() {
    let a = chaos::containment(&RunCtx::quick());
    let b = chaos::containment(&RunCtx::quick());
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.completed, y.completed, "{} diverged", x.name);
        assert_eq!(x.restore_ms, y.restore_ms, "{} diverged", x.name);
        assert_eq!(x.worst_p99_us, y.worst_p99_us, "{} diverged", x.name);
    }
}
