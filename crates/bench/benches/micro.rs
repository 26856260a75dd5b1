//! Criterion microbenchmarks of the simulation hot paths: scheduler
//! enqueue/dequeue, event-queue churn, admission decisions, percentile
//! recording, and an end-to-end small simulation.

use aequitas::{AdmissionController, AequitasConfig, SloTarget};
use aequitas_qdisc::{DwrrScheduler, Scheduler, SpqScheduler, WfqScheduler};
use aequitas_sim_core::{EventQueue, QueueKind, SimDuration, SimTime};
use aequitas_stats::Percentiles;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("qdisc");
    g.bench_function("wfq_enqueue_dequeue_3class", |b| {
        let mut s = WfqScheduler::new(&[8.0, 4.0, 1.0], Some(1 << 20));
        let mut i = 0u64;
        b.iter(|| {
            s.enqueue((i % 3) as usize, 4160, i).ok();
            i += 1;
            if i.is_multiple_of(2) {
                black_box(s.dequeue());
            }
        });
        while s.dequeue().is_some() {}
    });
    g.bench_function("dwrr_enqueue_dequeue_3class", |b| {
        let mut s = DwrrScheduler::new(&[8.0, 4.0, 1.0], 4096, Some(1 << 20));
        let mut i = 0u64;
        b.iter(|| {
            s.enqueue((i % 3) as usize, 4160, i).ok();
            i += 1;
            if i.is_multiple_of(2) {
                black_box(s.dequeue());
            }
        });
        while s.dequeue().is_some() {}
    });
    g.bench_function("spq_enqueue_dequeue_8class", |b| {
        let mut s = SpqScheduler::new(8, Some(1 << 20));
        let mut i = 0u64;
        b.iter(|| {
            s.enqueue((i % 8) as usize, 4160, i).ok();
            i += 1;
            if i.is_multiple_of(2) {
                black_box(s.dequeue());
            }
        });
        while s.dequeue().is_some() {}
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop", |b| {
        let mut q = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            q.schedule(q.now() + SimDuration::from_ps(t % 10_000 + 1), t);
            if t.is_multiple_of(2) {
                black_box(q.pop());
            }
        });
    });
    // Backend comparison under a simulation-shaped load: a standing pool of
    // pending events (one pop, one reschedule a short horizon out), the
    // pattern engine hot loops produce.
    let mut g = c.benchmark_group("event_queue_hold64");
    for kind in [QueueKind::Heap, QueueKind::Calendar] {
        let label = match kind {
            QueueKind::Heap => "heap",
            QueueKind::Calendar => "calendar",
        };
        g.bench_function(label, |b| {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..64u64 {
                q.schedule(SimTime::from_ps(i * 131 + 1), i);
            }
            let mut t = 0u64;
            b.iter(|| {
                let ev = q.pop().expect("pool is never empty");
                t = t.wrapping_mul(6364136223846793005).wrapping_add(ev.event);
                // Respread within ~8 us of now, like packet/timer events.
                q.schedule(q.now() + SimDuration::from_ps(t % 8_000_000 + 1), ev.event);
                black_box(ev.time);
            });
        });
    }
    g.finish();

    // The regime whole experiments actually run in (`tests/queue_traffic.rs`
    // prints it): 4 096 live events whose delays come from the engine's own
    // mix — same instant, ACK and MTU serialisation, propagation, host
    // delay, pacing, and rare retransmit scans and burst gaps — weighted to a
    // mean of ~2.8 us, i.e. ~23 events per 16 ns bucket, with a fifth of the
    // schedules landing in the bucket being drained.
    let mut g = c.benchmark_group("event_queue_hold_dense");
    for (label, kind) in [("heap", QueueKind::Heap), ("calendar", QueueKind::Calendar)] {
        g.bench_function(label, |b| {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..4096u64 {
                q.schedule(SimTime::from_ps(i * 683), i);
            }
            let mut t = 0u64;
            b.iter(|| {
                let ev = q.pop().expect("pool is never empty");
                t = t
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(ev.event | 1);
                let delay_ps = match t >> 58 {
                    0..=7 => 0,
                    8..=19 => 5_000,
                    20..=29 => 80_000,
                    30..=37 => 333_000,
                    38..=45 => 500_000,
                    46..=62 => 2_000_000,
                    _ if (t >> 50) & 0xff != 0 => 100_000_000,
                    _ => 10_000_000_000,
                };
                q.schedule(q.now() + SimDuration::from_ps(delay_ps), ev.event);
                black_box(ev.time);
            });
        });
    }
    g.finish();
}

fn bench_engine_events(c: &mut Criterion) {
    // End-to-end events/sec: a 8-host star under the standard 3-QoS RPC
    // workload, advanced in 100 us slices per iteration. This is the number
    // the README's "Performance" section quotes. The default run leaves
    // telemetry disabled — it doubles as the guard that the permanent
    // instrumentation costs nothing when off; the "_traced" variant puts a
    // price on full tracing into a null sink.
    let mut g = c.benchmark_group("engine_run");
    let build = |telemetry: aequitas_telemetry::Telemetry| {
        let mut setup = aequitas_experiments::MacroSetup::star_3qos(8);
        setup.duration = SimDuration::from_ms(1); // harness warmup run only
        setup.warmup = SimDuration::ZERO;
        setup.seed = 7;
        setup.telemetry = telemetry;
        for h in 0..8 {
            setup.workloads[h] = Some(aequitas_experiments::slo::node33_workload(
                [0.6, 0.3, 0.1],
                None,
            ));
        }
        aequitas_experiments::harness::build_engine(setup)
    };
    g.bench_function("rpc_8host_100us_slice", |b| {
        let mut eng = build(aequitas_telemetry::Telemetry::disabled());
        let mut end = SimTime::ZERO;
        b.iter(|| {
            end += SimDuration::from_us(100);
            eng.run_until(end);
            black_box(eng.now());
        });
    });
    g.bench_function("rpc_8host_100us_slice_traced", |b| {
        let mut eng = build(aequitas_telemetry::Telemetry::with_sink(
            aequitas_telemetry::NullSink,
            aequitas_telemetry::TelemetryConfig::default(),
        ));
        let mut end = SimTime::ZERO;
        b.iter(|| {
            end += SimDuration::from_us(100);
            eng.run_until(end);
            black_box(eng.now());
        });
    });
    g.finish();
}

fn bench_arena(c: &mut Criterion) {
    // Steady-state slot churn — the pattern the engine's event slab sees:
    // a standing population, one remove + one insert per event. The Box
    // baseline prices what each event used to cost on the allocator.
    let mut g = c.benchmark_group("arena");
    g.bench_function("slab_churn32", |b| {
        let mut slab = aequitas_sim_core::Slab::with_capacity(64);
        let mut live: Vec<_> = (0..32u64).map(|i| slab.insert([i; 4])).collect();
        let mut k = 0usize;
        b.iter(|| {
            let v = slab.remove(live[k & 31]);
            live[k & 31] = slab.insert(black_box(v));
            k += 1;
        });
    });
    g.bench_function("box_churn_baseline", |b| {
        let mut live: Vec<_> = (0..32u64).map(|i| Box::new([i; 4])).collect();
        let mut k = 0usize;
        b.iter(|| {
            let v = *live[k & 31];
            // The "needless" allocation is the measurement: this baseline
            // prices a dealloc+alloc round trip against slab churn.
            #[allow(clippy::replace_box)]
            {
                live[k & 31] = Box::new(black_box(v));
            }
            k += 1;
        });
    });
    g.finish();
}

fn bench_sharded_engine(c: &mut Criterion) {
    // Per-window cost of the sharded engine: a 2-pod Clos (3 domains)
    // advanced in 100 us slices (= 50 lookahead windows per iteration at
    // the 2 us core propagation). Run at 1 thread this prices pure
    // protocol overhead vs the plain engine; thread counts >1 only change
    // wall clock, never results.
    let mut g = c.benchmark_group("sharded_engine");
    g.bench_function("clos3dom_100us_slice_1thread", |b| {
        use aequitas_netsim::{LinkSpec, ShardSpec, Topology};
        let core = LinkSpec {
            rate: aequitas_sim_core::BitRate::from_gbps(100),
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
        let mut setup = aequitas_experiments::MacroSetup::star_3qos(n);
        setup.topo = topo;
        setup.duration = SimDuration::from_ms(1);
        setup.warmup = SimDuration::ZERO;
        setup.seed = 7;
        for h in 0..n {
            setup.workloads[h] = Some(aequitas_experiments::slo::node33_workload(
                [0.6, 0.3, 0.1],
                None,
            ));
        }
        let mut eng = aequitas_experiments::harness::build_sharded_engine(setup, spec, 1);
        let mut end = SimTime::ZERO;
        b.iter(|| {
            end += SimDuration::from_us(100);
            eng.run_until(end);
            black_box(eng.events_processed());
        });
    });
    g.finish();
}

fn bench_admission(c: &mut Criterion) {
    c.bench_function("algorithm1_issue_and_completion", |b| {
        let config = AequitasConfig::three_qos(
            SloTarget::absolute(SimDuration::from_us(15), 8, 99.9),
            SloTarget::absolute(SimDuration::from_us(25), 8, 99.9),
        );
        let mut ctl = AdmissionController::new(config, 1);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let now = SimTime::from_ns(t * 100);
            let d = ctl.on_issue(now, (t % 32) as usize, 0, 8);
            ctl.on_completion(
                now,
                (t % 32) as usize,
                d.qos_run,
                8,
                SimDuration::from_us(t % 30),
            );
            black_box(d);
        });
    });
}

fn bench_percentiles(c: &mut Criterion) {
    c.bench_function("percentile_record_1e5_then_query", |b| {
        b.iter(|| {
            let mut p = Percentiles::new();
            for i in 0..100_000u64 {
                p.record((i ^ 0x5DEECE66D) as f64);
            }
            black_box(p.p999());
        });
    });
}

/// String-keyed metric updates vs interned `MetricId` handles: the
/// registry's fast path after the dense-layout work is an array index; the
/// string path re-interns `(name, labels)` on every call.
fn bench_metrics_registry(c: &mut Criterion) {
    use aequitas_telemetry::{labels, MetricsRegistry};
    let mut g = c.benchmark_group("metrics_registry");
    g.bench_function("counter_add_string_keyed", |b| {
        let mut m = MetricsRegistry::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.counter_add("rpc.issued", labels(&[("host", "3"), ("qos", "1")]), i);
        });
        black_box(m.counter("rpc.issued", "host=3,qos=1"));
    });
    // The delta must be opaque: adding a monotone `i` lets LLVM collapse
    // the whole batch loop into a closed-form sum under favorable code
    // layout, and the bench then reports sub-cycle medians that vanish on
    // the next unrelated rebuild. black_box pins the measurement to the
    // real per-call cost (bounds check + discriminant match + add).
    g.bench_function("counter_add_interned_handle_opaque", |b| {
        let mut m = MetricsRegistry::new();
        let id = m.counter_id("rpc.issued", labels(&[("host", "3"), ("qos", "1")]));
        b.iter(|| {
            m.counter_add_id(id, black_box(1));
        });
        black_box(m.counter("rpc.issued", "host=3,qos=1"));
    });
    g.finish();
}

/// Nested-Vec ECMP routing vs the flat precomputed FIB the engine dispatch
/// loop now uses (`Topology::next_hop` is the lazy-hash variant of
/// `fib_lookup`; the two lookups here take identical `(sw, dst, hash)`
/// inputs so the comparison isolates the table layout).
fn bench_fib(c: &mut Criterion) {
    use aequitas_netsim::{HostId, LinkSpec, SwitchId, Topology};
    let t = Topology::clos(
        2,
        2,
        3,
        4,
        2,
        LinkSpec::default_100g(),
        LinkSpec::default_100g(),
        LinkSpec::default_100g(),
    );
    let (nsw, nh) = (t.num_switches() as u64, t.num_hosts() as u64);
    let mut g = c.benchmark_group("forwarding");
    g.bench_function("route_nested_vec", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let sw = SwitchId((i % nsw) as usize);
            let dst = HostId(((i / 7) % nh) as usize);
            black_box(t.route(sw, dst, i));
        });
    });
    g.bench_function("fib_lookup_flat", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let sw = SwitchId((i % nsw) as usize);
            let dst = HostId(((i / 7) % nh) as usize);
            black_box(t.fib_lookup(sw, dst, i));
        });
    });
    g.finish();
}

/// The pre-densification quota allocator, kept here as a reference: hash-
/// keyed tenant state, a sort per round, and BTreeMap accumulators. The
/// shipping [`QuotaServer`] stores tenants in dense id-indexed tables.
#[allow(clippy::too_many_lines)] // faithful copy of the old algorithm
fn allocate_hashmap_reference(
    capacity_bps: &[f64],
    tenants: &std::collections::HashMap<aequitas::TenantId, aequitas::QuotaSpec>,
    reports: &[aequitas::UsageReport],
    period_secs: f64,
) -> std::collections::HashMap<aequitas::TenantId, aequitas::Grant> {
    use aequitas::{Grant, QuotaSpec, TenantId};
    use std::collections::{BTreeMap, HashMap};
    // det: bench-local reference; results are compared by keyed lookup only.
    let mut demand: HashMap<TenantId, f64> = HashMap::new();
    for r in reports {
        *demand.entry(r.tenant).or_insert(0.0) += r.offered_bytes as f64 / period_secs;
    }
    // det: keyed lookup only.
    let mut grants: HashMap<TenantId, Grant> = HashMap::new();
    for (qos, &capacity) in capacity_bps.iter().enumerate() {
        let mut members: Vec<(TenantId, QuotaSpec)> = tenants
            .iter()
            .filter(|(_, s)| s.qos as usize == qos)
            .map(|(t, s)| (*t, *s))
            .collect();
        members.sort_by_key(|(t, _)| *t);
        if members.is_empty() {
            continue;
        }
        let mut base: BTreeMap<TenantId, f64> = BTreeMap::new();
        let mut base_total = 0.0;
        for (t, s) in &members {
            let d = demand.get(t).copied().unwrap_or(0.0);
            let b = s.guaranteed_bps.min(d);
            base.insert(*t, b);
            base_total += b;
        }
        let scale = if base_total > capacity && base_total > 0.0 {
            capacity / base_total
        } else {
            1.0
        };
        for b in base.values_mut() {
            *b *= scale;
        }
        let mut leftover = (capacity - base.values().sum::<f64>()).max(0.0);
        let mut hungry: Vec<(TenantId, f64)> = members
            .iter()
            .filter(|(t, _)| demand.get(t).copied().unwrap_or(0.0) > base[t] + 1e-9)
            .map(|(t, s)| (*t, s.guaranteed_bps.max(1.0)))
            .collect();
        while leftover > 1e-6 && !hungry.is_empty() {
            let weight_total: f64 = hungry.iter().map(|(_, w)| w).sum();
            let mut next_hungry = Vec::new();
            let mut distributed = 0.0;
            for (t, w) in &hungry {
                let offer = leftover * w / weight_total;
                let need = demand.get(t).copied().unwrap_or(0.0) - base[t];
                let take = offer.min(need.max(0.0));
                *base.get_mut(t).expect("hungry tenant has base") += take;
                distributed += take;
                if take >= offer - 1e-9 {
                    next_hungry.push((*t, *w));
                }
            }
            leftover -= distributed;
            if distributed <= 1e-9 {
                break;
            }
            hungry = next_hungry;
        }
        for (t, b) in base {
            grants.insert(t, Grant { rate_bps: b });
        }
    }
    grants
}

/// Dense id-indexed quota allocation vs the old hash-keyed algorithm, at a
/// tenant count where the per-round sort and map churn are visible.
fn bench_quota_allocate(c: &mut Criterion) {
    use aequitas::{QuotaServer, QuotaSpec, TenantId, UsageReport};
    use std::collections::HashMap;
    const TENANTS: u32 = 64;
    let spec = |t: u32| QuotaSpec {
        qos: (t % 2) as u8,
        guaranteed_bps: 50e6 + (t as f64) * 1e6,
    };
    let reports: Vec<UsageReport> = (0..TENANTS)
        .map(|t| UsageReport {
            tenant: TenantId(t),
            offered_bytes: 1_000_000 + (t as u64) * 50_000,
        })
        .collect();
    let period = SimDuration::from_ms(10);

    // Sanity: both allocators produce the same grants for this workload.
    let mut srv = QuotaServer::new(vec![2e9, 4e9]);
    // det: bench-local reference; keyed lookup only.
    let mut tenants: HashMap<TenantId, QuotaSpec> = HashMap::new();
    for t in 0..TENANTS {
        srv.register(TenantId(t), spec(t));
        tenants.insert(TenantId(t), spec(t));
    }
    let dense = srv.allocate(&reports, period);
    let reference =
        allocate_hashmap_reference(&[2e9, 4e9], &tenants, &reports, period.as_secs_f64());
    assert_eq!(dense.len(), reference.len());
    for (t, g) in &dense {
        assert!((g.rate_bps - reference[t].rate_bps).abs() < 1e-3);
    }

    let mut g = c.benchmark_group("quota_allocate_64t");
    g.bench_function("dense", |b| {
        b.iter(|| black_box(srv.allocate(&reports, period)));
    });
    g.bench_function("hashmap_reference", |b| {
        b.iter(|| {
            black_box(allocate_hashmap_reference(
                &[2e9, 4e9],
                &tenants,
                &reports,
                period.as_secs_f64(),
            ))
        });
    });
    g.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_schedulers, bench_event_queue, bench_engine_events, bench_arena, bench_sharded_engine, bench_admission, bench_percentiles, bench_metrics_registry, bench_fib, bench_quota_allocate
);
criterion_main!(micro);
