//! Running one workload: the untraced repetitions behind the end-to-end
//! metrics, the span-traced run behind the per-layer metrics, and the
//! correctness checks of both.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::measure::{median, nproc, peak_rss_mb, timed, Spread};
use crate::units::unit_costs;
use crate::workloads::{
    audit_runner, clos_runner, idle_plan, rpc32k_setup, scheme_slice, shard_threads, star33_runner,
    AuditSink, ClosEngine, Rep, Runner, Scheme, SimStats, Workload,
};
use aequitas_experiments::parallel::run_sweep_on;
use aequitas_sim_core::SimDuration;

/// `setup_s` samples taken before each repetition, and the host time one
/// sample should take.
const SETUP_SAMPLES_PER_REP: usize = 8;
const SETUP_SAMPLE_S: f64 = 5e-3;

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The values compared.
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median (the reported value) with the smallest and largest sample.
    pub value: Spread,
}

/// The outcome of one benchmark run on one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Whether this is the span-traced run (per-layer metrics).
    pub traced: bool,
    /// Every metric of the mode, in catalog order.
    pub metrics: Vec<Metric>,
    /// The simulated outcome (identical on every repetition).
    pub sim: SimStats,
    /// Wall clock of each untraced repetition measured, in the order run.
    pub rep_walls: Vec<f64>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Simulated operations attempted over all measured repetitions.
    pub attempted: u64,
    /// Operations that failed where none may: ones the simulator lost
    /// track of, and simulated failures on a fault-free workload.
    pub failed: u64,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The result line of the driver contract.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let body = Value::object([
                ("value", Value::num(m.value.median)),
                ("unit", Value::str(m.unit)),
            ]);
            (m.name, body)
        });
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::num(self.attempted.max(1) as f64)),
            ("failed", Value::num(self.failed as f64)),
            ("metrics", Value::object(metrics)),
        ])
        .to_json()
    }

    /// Everything the result file keeps of this run.
    pub fn detail(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let body = Value::object([
                ("value", Value::num(m.value.median)),
                ("unit", Value::str(m.unit)),
                ("min", Value::num(m.value.min)),
                ("max", Value::num(m.value.max)),
                ("q1", Value::num(m.value.q1)),
                ("q3", Value::num(m.value.q3)),
            ]);
            (m.name, body)
        });
        let checks = self.checks.iter().map(|c| {
            Value::object([
                ("name", Value::str(c.name)),
                ("ok", Value::Bool(c.ok)),
                ("detail", Value::str(c.detail.clone())),
            ])
        });
        let s = &self.sim;
        let counts = s
            .counts
            .named()
            .into_iter()
            .map(|(k, v)| (k, Value::num(v as f64)));
        let sim = Value::object([
            // A string: 64 bits do not survive a JSON number.
            ("sim_digest", Value::str(format!("{:016x}", s.digest))),
            ("attempted", Value::num(s.attempted as f64)),
            ("completed", Value::num(s.completed as f64)),
            ("failed", Value::num(s.failed as f64)),
            ("outstanding", Value::num(s.outstanding as f64)),
            ("pc_samples", Value::num(s.pc_samples as f64)),
            ("pc_p999_us", Value::num(s.pc_p999_us)),
            ("counts", Value::object(counts)),
        ]);
        Value::object([
            ("workload", Value::str(self.workload.name())),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("reps", Value::num(self.rep_walls.len() as f64)),
            ("metrics", Value::object(metrics)),
            ("sim", sim),
            ("checks", Value::Array(checks.collect())),
        ])
    }
}

/// Conservation and no-failure checks every run makes on its outcome.
fn outcome_checks(w: Workload, sim: &SimStats, checks: &mut Vec<Check>) {
    checks.push(check(
        "conservation",
        sim.unaccounted() == 0,
        format!(
            "attempted {} = completed {} + failed {} + outstanding {}",
            sim.attempted, sim.completed, sim.failed, sim.outstanding
        ),
    ));
    if w.fault_free() {
        checks.push(check(
            "fault_free_workload_fails_nothing",
            sim.failed == 0,
            format!("{} of {} operations failed", sim.failed, sim.attempted),
        ));
    }
}

/// Operations that count as failed in the contract's sense.
fn contract_failed(w: Workload, sim: &SimStats) -> u64 {
    sim.unaccounted() + if w.fault_free() { sim.failed } else { 0 }
}

/// Whether two runs simulated the same thing, trace and audit counts aside
/// (the spanned audit run lacks the harness's `run_info` line).
fn same_simulation(a: &SimStats, b: &SimStats) -> bool {
    let strip = |s: &SimStats| {
        let mut s = s.clone();
        s.counts = s.counts.without_trace();
        s
    };
    strip(a) == strip(b)
}

fn digest_detail(a: &SimStats, b: &SimStats) -> String {
    format!(
        "digest {:016x} vs {:016x}, events {} vs {}",
        a.digest, b.digest, a.counts.events, b.counts.events
    )
}

/// Run repetitions built by `build` until `seconds` of measured wall clock
/// are used up: a repetition starts only if it is expected to end in time,
/// and at least one runs.
fn measure_reps(seconds: f64, mut build: impl FnMut() -> Runner) -> Vec<Rep> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    loop {
        let rep = build()();
        spent += rep.wall_s();
        reps.push(rep);
        let mut walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
        if spent + median(&mut walls) > seconds {
            return reps;
        }
    }
}

/// One `setup_s` sample: the mean of as many back-to-back builds as take
/// `SETUP_SAMPLE_S` (a star-33 build takes tens of microseconds, too short
/// to time singly). Dropping an engine is not part of its set-up.
fn setup_sample(w: Workload, seed: u64) -> f64 {
    let (mut total, mut builds) = (0.0, 0u32);
    while total < SETUP_SAMPLE_S {
        total += timed(|| w.build(seed, false)).0;
        builds += 1;
    }
    total / f64::from(builds)
}

fn spread_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Spread {
    Spread::of(&reps.iter().map(f).collect::<Vec<f64>>())
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    spread_of(reps, f).median
}

/// The untraced run: set-up time, repetitions for `seconds`, the
/// end-to-end metrics and their checks.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut checks = Vec::new();

    // Set-up is sampled before every repetition, so that a slow moment of
    // the machine colours a few samples and not all of them.
    let mut setup = Vec::new();

    // The audit slice must simulate what an untraced run of it simulates.
    let untraced_slice =
        (w == Workload::Star33TracedAudit).then(|| audit_runner(seed, AuditSink::Off, false)());

    let reps = measure_reps(seconds, || {
        // One untimed build first: the previous repetition's engine was just
        // freed, and the first build after that pays for the pages again.
        drop(w.build(seed, false));
        setup.extend((0..SETUP_SAMPLES_PER_REP).map(|_| setup_sample(w, seed)));
        w.build(seed, false)
    });
    let sim = reps[0].sim.clone();
    checks.push(check(
        "every_rep_same_simulation",
        reps.iter().all(|r| r.sim == sim),
        format!("{} repetitions, digest {:016x}", reps.len(), sim.digest),
    ));
    outcome_checks(w, &sim, &mut checks);
    if let Some(off) = &untraced_slice {
        checks.push(check(
            "traced_slice_matches_untraced_slice",
            same_simulation(&off.sim, &sim),
            digest_detail(&off.sim, &sim),
        ));
        checks.push(check(
            "audit_trace_integrity_pass",
            reps.iter().all(|r| r.trace_integrity == Some(true)),
            format!("{} trace lines", sim.counts.trace_lines),
        ));
    }

    let completed = sim.completed as f64;
    let values = [
        Spread::of(&setup),
        spread_of(&reps, Rep::wall_s),
        spread_of(&reps, |r| completed / r.wall_s()),
        Spread::point(peak_rss_mb().unwrap_or(0.0)),
        Spread::point(sim.goodput_gbps),
        Spread::point(sim.ok_frac()),
        Spread::point(sim.pc_p99_us),
        Spread::point(sim.pc_slo_attain_frac),
        Spread::point(sim.pc_admitted_share),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect();
    Report {
        workload: w,
        traced: false,
        metrics,
        attempted: sim.attempted * reps.len() as u64,
        failed: contract_failed(w, &sim) * reps.len() as u64,
        rep_walls: reps.iter().map(Rep::wall_s).collect(),
        sim,
        checks,
    }
}

/// Per-layer values by name; every catalog name starts at 0.
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

fn med(samples: &[f64]) -> f64 {
    median(&mut samples.to_vec())
}

/// Host seconds of four 2 ms `star33_rpc32k` points through `run_sweep_on`.
fn sweep_wall_s(seed: u64, threads: usize) -> f64 {
    let points: Vec<u64> = (0..4).map(|i| seed.wrapping_add(i)).collect();
    timed(|| {
        run_sweep_on(threads, points, |s| {
            let mut setup = rpc32k_setup(s);
            setup.duration = SimDuration::from_ms(2);
            setup.warmup = SimDuration::from_ms(1);
            star33_runner(setup, false)().sim.digest
        })
    })
    .0
}

/// A `star33_rpc32k` slice with or without the never-opening fault plan.
fn idle_plan_slice(seed: u64, with_plan: bool) -> Rep {
    let mut setup = rpc32k_setup(seed);
    setup.duration = SimDuration::from_ms(3);
    setup.warmup = SimDuration::from_ms(1);
    if with_plan {
        setup.engine.faults = Some(idle_plan());
    }
    star33_runner(setup, false)()
}

/// The span-traced run: reference and spanned repetitions side by side
/// (plus the workload's side runs) for about `seconds`, then the isolated
/// unit costs and the cost-table check.
pub fn per_layer(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut checks = Vec::new();
    let mut layers = Layers::new();
    let threads = shard_threads();

    // Spans add up only on one thread, so the sharded workload is traced
    // (and its reference taken) at threads = 1.
    let build = |spanned: bool| match w {
        Workload::Clos128Sharded => clos_runner(seed, ClosEngine::Sharded(1), spanned),
        _ => w.build(seed, spanned),
    };

    let mut reference: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    // Side runs, one sample per round.
    let mut clos_tn: Vec<Rep> = Vec::new();
    let mut clos_plain: Vec<f64> = Vec::new();
    let mut audit_off: Vec<f64> = Vec::new();
    let mut audit_null: Vec<f64> = Vec::new();
    let mut idle_ratio: Vec<f64> = Vec::new();
    let mut idle_same = true;
    let mut schemes: [Vec<f64>; 3] = Default::default();

    // Unit costs and the sweep come after the rounds; leave them room.
    let budget = seconds * 0.7;
    let mut spent = 0.0;
    let mut round = 0usize;
    loop {
        let (round_s, ()) = timed(|| {
            reference.push(build(false)());
            traced.push(build(true)());
            match w {
                Workload::Clos128Sharded => {
                    clos_tn.push(clos_runner(seed, ClosEngine::Sharded(threads), false)());
                    clos_plain.push(clos_runner(seed, ClosEngine::Plain, false)().wall_s());
                }
                Workload::Star33TracedAudit => {
                    audit_off.push(audit_runner(seed, AuditSink::Off, false)().advance_s);
                    audit_null.push(audit_runner(seed, AuditSink::Null, false)().advance_s);
                }
                Workload::Star33Rpc32k => {
                    // With, without, without, with: drift cancels.
                    let runs = [true, false, false, true].map(|plan| idle_plan_slice(seed, plan));
                    idle_same &= runs.iter().all(|r| r.sim == runs[0].sim);
                    idle_ratio.push(
                        (runs[0].advance_s + runs[3].advance_s)
                            / (runs[1].advance_s + runs[2].advance_s),
                    );
                }
                Workload::Star33Deadline => {
                    let slice = SimDuration::from_us(500);
                    for (i, s) in [Scheme::Pfabric, Scheme::Qjump, Scheme::Homa]
                        .into_iter()
                        .enumerate()
                    {
                        let (wall_s, events) = scheme_slice(s, slice, seed);
                        schemes[i].push(wall_s * 1e9 / events.max(1) as f64);
                    }
                }
                _ => {}
            }
        });
        spent += round_s;
        round += 1;
        if spent + round_s > budget {
            break;
        }
    }

    let sim = traced[0].sim.clone();
    let spans = traced[0].spans;
    checks.push(check(
        "every_rep_same_simulation",
        reference.iter().all(|r| r.sim == reference[0].sim)
            && traced
                .iter()
                .all(|r| r.sim == sim && r.spans.packet.count == spans.packet.count),
        format!("{round} rounds, digest {:016x}", sim.digest),
    ));
    checks.push(check(
        "spans_do_not_perturb_the_simulation",
        same_simulation(&reference[0].sim, &sim),
        digest_detail(&reference[0].sim, &sim),
    ));
    outcome_checks(w, &sim, &mut checks);

    // Spans.
    let ref_wall = median_of(&reference, Rep::wall_s);
    let traced_wall = median_of(&traced, Rep::wall_s);
    let agent_self = median_of(&traced, |r| r.spans.total_s());
    layers.set(
        "netsim.fabric_self_s",
        median_of(&traced, |r| r.advance_s - r.spans.total_s()),
    );
    match w {
        // The blasters are the benchmark's load generator, no layer of the
        // repository: their spans come off the fabric's time and go nowhere.
        Workload::FabricRaw => {}
        Workload::Star33Deadline => layers.set("baselines.agent_self_s", agent_self),
        _ => {
            layers.set("rpc.agent_self_s", agent_self);
            layers.set("rpc.on_packet_ns", spans.packet.mean_ns());
            layers.set("rpc.on_timer_ns", spans.timer.mean_ns());
        }
    }
    layers.set(
        "experiments.harvest_s",
        median_of(&reference, |r| r.harvest_s),
    );
    layers.set("benchmark.span_overhead_ratio", traced_wall / ref_wall);

    // Exact counts.
    for (name, v) in sim.counts.named() {
        layers.set(name, v as f64);
    }
    let events = sim.counts.events as f64;
    layers.set("netsim.host_arrivals", spans.packet.count as f64);
    layers.set("netsim.timers", spans.timer.count as f64);
    layers.set(
        "netsim.fabric_events",
        events - (spans.packet.count + spans.timer.count) as f64,
    );
    layers.set("netsim.events_per_s", events / ref_wall);
    layers.set("netsim.ns_per_event", ref_wall * 1e9 / events.max(1.0));
    for (i, &(name, _)) in reference[0].extra.iter().enumerate() {
        layers.set(name, median_of(&reference, |r| r.extra[i].1));
    }

    // Derived host ratios.
    match w {
        Workload::Clos128Sharded => {
            checks.push(check(
                "one_thread_matches_n_threads",
                clos_tn.iter().all(|r| r.sim == reference[0].sim),
                format!(
                    "threads 1 vs {threads}: {}",
                    digest_detail(&reference[0].sim, &clos_tn[0].sim)
                ),
            ));
            let tn_wall = median_of(&clos_tn, Rep::wall_s);
            let plain_wall = med(&clos_plain);
            layers.set("netsim.shard.threads", threads as f64);
            layers.set("netsim.shard.wall_s_t1", ref_wall);
            layers.set("netsim.shard.wall_s_plain", plain_wall);
            layers.set(
                "netsim.shard.protocol_overhead_ratio",
                ref_wall / plain_wall,
            );
            // No claim about threads from one core: 0 stands for "not measured".
            if nproc() > 1 {
                layers.set("netsim.shard.speedup", ref_wall / tn_wall);
            }
        }
        Workload::Star33TracedAudit => {
            let lines = sim.counts.trace_lines.max(1) as f64;
            let off = med(&audit_off);
            let emit_s = median_of(&reference, |r| r.advance_s) - off;
            layers.set("telemetry.emit_s", emit_s);
            layers.set("telemetry.ns_per_line", emit_s * 1e9 / lines);
            layers.set("telemetry.nullsink_overhead_ratio", med(&audit_null) / off);
            layers.set(
                "replay.ns_per_line",
                layers.get("replay.reconstruct_s") * 1e9 / lines,
            );
            checks.push(check(
                "audit_trace_integrity_pass",
                reference.iter().all(|r| r.trace_integrity == Some(true)),
                format!("{} trace lines", reference[0].sim.counts.trace_lines),
            ));
            // The spanned run has no `run_info` line; report the full trace.
            for (name, v) in reference[0].sim.counts.named() {
                if name.starts_with("telemetry.") || name.starts_with("replay.") {
                    layers.set(name, v as f64);
                }
            }
        }
        Workload::Star33Rpc32k => {
            layers.set("faults.idle_plan_overhead_ratio", med(&idle_ratio));
            checks.push(check(
                "idle_fault_plan_changes_nothing",
                idle_same,
                format!("{} rounds of four slices", idle_ratio.len()),
            ));
            if nproc() > 1 {
                let serial = sweep_wall_s(seed, 1);
                layers.set(
                    "experiments.sweep.speedup",
                    serial / sweep_wall_s(seed, nproc()),
                );
            }
        }
        Workload::Star33Deadline => {
            layers.set("baselines.pfabric.ns_per_event", med(&schemes[0]));
            layers.set("baselines.qjump.ns_per_event", med(&schemes[1]));
            layers.set("baselines.homa.ns_per_event", med(&schemes[2]));
        }
        _ => {}
    }

    // Isolated unit costs, then the cost table against the reference wall.
    for (name, v) in unit_costs(seed) {
        layers.set(name, v);
    }
    let c = &sim.counts;
    let port_ops = (c.switch_tx_pkts + c.nic_tx_pkts) as f64;
    let mut attributed_ns = events
        * (layers.get("sim-core.queue.hold_ns") + layers.get("sim-core.slab.churn_ns"))
        + port_ops * layers.get("qdisc.wfq.enq_deq_ns")
        + c.switch_tx_pkts as f64 * layers.get("netsim.fib.next_hop_ns")
        + c.core_decisions as f64
            * (layers.get("core.on_issue_ns") + layers.get("core.on_completion_ns"))
        + c.sent_segments as f64 * layers.get("transport.swift.on_ack_ns")
        + c.rpc_issued as f64 * layers.get("workloads.next_rpc_ns");
    if w == Workload::Star33Faults {
        attributed_ns += port_ops * layers.get("faults.packet_fate_ns");
    }
    let trace_lines = layers.get("telemetry.trace_lines");
    attributed_ns += trace_lines
        * (layers.get("telemetry.emit_nullsink_ns") + layers.get("replay.parse_line_ns"));
    let attributed = attributed_ns / 1e9 / ref_wall;
    layers.set("benchmark.attributed_frac", attributed);
    layers.set("benchmark.attributed_gap_frac", 1.0 - attributed);

    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: Spread::point(layers.get(m.name)),
        })
        .collect();
    Report {
        workload: w,
        traced: true,
        metrics,
        attempted: sim.attempted,
        failed: contract_failed(w, &sim),
        rep_walls: reference.iter().map(Rep::wall_s).collect(),
        sim,
        checks,
    }
}
