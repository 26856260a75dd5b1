//! A deliberately tiny full-stack run for telemetry smoke tests and demos.
//!
//! Every figure experiment simulates tens to hundreds of milliseconds at
//! 100 Gbps, which makes a traced run multi-gigabyte. This one keeps the
//! same shape — two hosts overloading one receiver under Aequitas, so the
//! packet, RPC, transport, *and* admission-controller event families all
//! fire — but only a few milliseconds of it (`scripts/trace_smoke.sh`
//! relies on that; `aequitas-sim run trace-demo --trace out.jsonl`).

use crate::harness::{MacroSetup, RunCtx};
use crate::report::print_table;
use aequitas::SloTarget;
use aequitas_rpc::{ArrivalProcess, Priority, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::SimDuration;
use aequitas_workloads::SizeDist;

/// Headline numbers from the demo run.
pub struct DemoResult {
    /// RPCs issued (including warm-up).
    pub issued: u64,
    /// Post-warm-up completions.
    pub completed: usize,
    /// Post-warm-up completions that ran downgraded.
    pub downgraded: usize,
    /// Engine events processed.
    pub events: u64,
}

/// Run the demo: 3-host star, 2 QoS levels, 1.6x offered load on the shared
/// downlink, Aequitas admission with a 15 us SLO.
pub fn trace_demo(ctx: &RunCtx) -> DemoResult {
    let scale = ctx.scale;
    let slo = SloTarget::absolute(SimDuration::from_us(15), 8, 99.9);
    let mut setup = MacroSetup::star_2qos(3, slo);
    setup.name = "trace-demo";
    setup.duration = scale.pick(SimDuration::from_ms(3), SimDuration::from_ms(12));
    setup.warmup = scale.pick(SimDuration::from_ms(1), SimDuration::from_ms(4));
    setup.seed = 42;
    setup.offer(
        2,
        &WorkloadSpec::mix(
            ArrivalProcess::Uniform { load: 0.8 },
            TrafficPattern::ManyToOne { dst: 2 },
            [
                (Priority::PerformanceCritical, 0.7),
                (Priority::BestEffort, 0.3),
            ],
            |_| SizeDist::Fixed(32_768),
        ),
    );
    let r = ctx.run_macro(setup);
    DemoResult {
        issued: r.issued,
        completed: r.completions.len(),
        downgraded: r.completions.iter().filter(|c| c.downgraded).count(),
        events: r.events,
    }
}

/// Print the demo summary.
pub fn print_trace_demo(r: &DemoResult) {
    print_table(
        "trace-demo: tiny Aequitas run (telemetry smoke)",
        &["issued", "completed", "downgraded", "events"],
        &[vec![
            r.issued.to_string(),
            r.completed.to_string(),
            r.downgraded.to_string(),
            r.events.to_string(),
        ]],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_exercises_the_whole_stack() {
        let r = trace_demo(&RunCtx::quick());
        assert!(r.completed > 100, "{}", r.completed);
        assert!(r.downgraded > 0, "overload must force downgrades");
        assert!(r.events > 10_000);
    }
}
