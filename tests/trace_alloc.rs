//! "Allocation-free" as an exact count, not a timing: a counting global
//! allocator around the two sides of the trace path. Deterministic, so it
//! cannot flake on a loaded sandbox the way a nanosecond budget does.
//!
//! * Writer: after warm-up, `Telemetry::emit` into `NullSink` allocates
//!   nothing for any variant without a `String` field.
//! * Reader: `Reconstruction::from_reader` allocates only as its
//!   reconstructed state grows (amortised doubling), never per line.

#[path = "../crates/telemetry/tests/fixtures/golden_events.rs"]
mod golden_events;

use aequitas_replay::Reconstruction;
use aequitas_sim_core::SimTime;
use aequitas_telemetry::{NodeKind, NullSink, Telemetry, TelemetryConfig, TraceEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Per thread, so that tests running
    /// in parallel do not see each other; const-initialised and without a
    /// destructor, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting calls that hand out memory.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_counter_counts() {
    let before = allocs();
    let v = std::hint::black_box(vec![1u8; 64]);
    assert_eq!(allocs() - before, 1);
    drop(v);
    assert_eq!(allocs() - before, 1, "frees are not counted");
}

#[test]
fn emit_allocates_nothing_after_warm_up() {
    // Every variant at its boundary values, hence its longest lines; the
    // two variants that own heap data are out of scope.
    let events: Vec<(u64, TraceEvent)> = golden_events::golden_events()
        .into_iter()
        .filter(|(_, _, ev)| !matches!(ev, TraceEvent::RunInfo { .. } | TraceEvent::Warn { .. }))
        .map(|(_, t_ps, ev)| (t_ps, ev))
        .collect();
    let mut tags: Vec<_> = events.iter().map(|(_, ev)| ev.type_tag()).collect();
    tags.dedup();
    assert_eq!(tags.len(), 13, "{tags:?}");

    let tel = Telemetry::with_sink(NullSink, TelemetryConfig::default());
    let emit_all = || {
        for (t_ps, ev) in &events {
            // Cloning a variant without heap fields is a copy.
            tel.emit(SimTime::from_ps(*t_ps), ev.clone());
        }
    };
    emit_all(); // the scratch buffer grows to the longest line
    let before = allocs();
    for _ in 0..200 {
        emit_all();
    }
    assert_eq!(allocs() - before, 0, "emit allocated in steady state");
}

/// A steady-state mix over a small fabric: per 20 lines, 8 packets in and
/// out of a switch port plus the transport, RPC and admission events they
/// would come with.
fn steady_trace(lines: usize) -> String {
    let mut events = vec![TraceEvent::TraceHeader {
        schema_version: aequitas_telemetry::TRACE_SCHEMA_VERSION,
    }];
    let mut backlog = [0u64; 4];
    for i in 0.. {
        if events.len() >= lines {
            break;
        }
        let (port, class, host) = (i % 4, i % 2, i % 3);
        let node = NodeKind::Switch;
        for depth in 1..=8 {
            backlog[port] += 4160;
            events.push(TraceEvent::PktEnqueue {
                node,
                node_id: 0,
                port,
                class,
                bytes: 4160,
                depth_pkts: depth,
                backlog_bytes: backlog[port],
            });
        }
        for _ in 0..8 {
            backlog[port] -= 4160;
            events.push(TraceEvent::PktDequeue {
                node,
                node_id: 0,
                port,
                class,
                bytes: 4160,
                backlog_bytes: backlog[port],
            });
        }
        events.push(TraceEvent::CwndUpdate {
            host,
            dst: 3,
            class: class as u8,
            cwnd: 16.25,
            rtt_ps: 9_000_000,
            target_ps: 8_000_000,
            over_target: true,
        });
        events.push(TraceEvent::RpcIssue {
            host,
            dst: 3,
            qos_req: 0,
            qos_run: class as u8,
            downgraded: class == 1,
            size_bytes: 32_768,
            p_admit: 0.75,
        });
        events.push(TraceEvent::RpcComplete {
            host,
            dst: 3,
            qos_run: class as u8,
            downgraded: class == 1,
            size_bytes: 32_768,
            rnl_ps: 20_000_000,
            rnl_per_mtu_ps: 2_500_000,
        });
        events.push(TraceEvent::AdmitProb {
            host,
            dst: 3,
            qos: 0,
            p: 0.74,
            delta: -0.01,
        });
    }
    events.truncate(lines);
    let mut text = String::new();
    for (seq, ev) in events.iter().enumerate() {
        ev.write_json(&mut text, seq as u64, seq as u64 * 100_000);
        text.push('\n');
    }
    text
}

/// Allocations `from_reader` makes over a clean `lines`-line trace.
fn reconstruction_allocs(lines: usize) -> u64 {
    let text = steady_trace(lines);
    let before = allocs();
    let recon = Reconstruction::from_reader(text.as_bytes()).expect("a well-formed trace");
    let spent = allocs() - before;
    assert_eq!(recon.events, lines as u64);
    assert_eq!(recon.integrity.parse_errors, 0);
    assert_eq!((recon.ports.len(), recon.channels.len()), (4, 6));
    spent
}

/// What the reader allocates is its reconstructed state — timelines and
/// sample vectors that double as they grow — never something per line: the
/// 20 000 lines that take a trace from 20 000 to 40 000 cost fewer than one
/// allocation per 100 of them. (The reader this replaced spent about 15 per
/// line.)
#[test]
fn reconstruction_allocates_per_growth_not_per_line() {
    const LINES: usize = 20_000;
    let (first, both) = (reconstruction_allocs(LINES), reconstruction_allocs(2 * LINES));
    let marginal = both.saturating_sub(first);
    assert!(
        marginal * 100 < LINES as u64,
        "{first} allocations for {LINES} lines, {both} for twice that: the reader allocates per line"
    );
    // And building the state from nothing stays within a few per port,
    // class and channel doubling: under one per 50 lines at this size.
    assert!(first * 50 < LINES as u64, "{first} allocations for {LINES} lines");
}
