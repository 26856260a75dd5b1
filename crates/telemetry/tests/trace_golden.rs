//! The v2 stream is pinned byte for byte: the writer must reproduce
//! `fixtures/trace_v2_golden.jsonl` exactly, and the fixture must hold every
//! `TraceEvent` variant. Together they are the schema check: a variant or
//! field added, removed or renamed fails here until the fixture (and, per
//! `TRACE_SCHEMA_VERSION`'s docs, the version) follows.

#[path = "fixtures/golden_events.rs"]
mod golden_events;

const GOLDEN: &str = include_str!("fixtures/trace_v2_golden.jsonl");

#[test]
fn writer_reproduces_the_golden_stream() {
    let events = golden_events::golden_events();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        lines.len(),
        events.len(),
        "fixture and event list differ in length"
    );
    // One reused buffer, as the telemetry handle does it.
    let mut scratch = String::new();
    for ((seq, t_ps, ev), want) in events.iter().zip(&lines) {
        scratch.clear();
        ev.write_json(&mut scratch, *seq, *t_ps);
        assert_eq!(&scratch, want, "{ev:?}");
        assert_eq!(ev.to_json(*seq, *t_ps), *want);
    }
}

#[test]
fn the_golden_stream_covers_every_variant() {
    let mut seen = [0usize; golden_events::VARIANTS];
    for (_, _, ev) in golden_events::golden_events() {
        seen[golden_events::variant_index(&ev)] += 1;
    }
    let missing: Vec<usize> = (0..seen.len()).filter(|&i| seen[i] == 0).collect();
    assert!(
        missing.is_empty(),
        "variants {missing:?} have no golden line"
    );
}
