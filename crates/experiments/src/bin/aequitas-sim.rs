//! `aequitas-sim` — command-line front end to the experiment suite.
//!
//! The paper open-sourced its simulator partly as an operator tool ("to
//! help define the admissible region and set the right SLOs"); this binary
//! is the equivalent entry point. Every figure of the evaluation, the
//! extension, and the ablations are invocable by name:
//!
//! ```text
//! aequitas-sim list
//! aequitas-sim run fig12
//! aequitas-sim run fig22 --full
//! aequitas-sim run all --threads 8
//! aequitas-sim run fig11 --trace out.jsonl --metrics out-metrics.csv
//! ```
//!
//! `--trace PATH` streams structured JSONL events (packet, RPC, transport,
//! and admission-controller lifecycle) for the run; `--metrics PATH` writes
//! the sampled metric time-series as CSV. `--sample-us N` sets the
//! simulated-time sampling cadence (default 10us). See the "Observability"
//! section of DESIGN.md for the event taxonomy.
//!
//! `--faults PLAN.toml` loads a deterministic fault plan (link flaps,
//! loss, corruption, jitter, quota-server outages — see the "Fault model"
//! section of README.md for the schema) and injects it into every engine
//! the chosen experiment builds.
//!
//! `--threads N` sets the worker count for parameter sweeps and the sharded
//! engine (default: the machine's available parallelism); results are
//! byte-identical for every value. A traced sweep always runs on one worker
//! so its points land in the trace whole and in order.
//!
//! These flags are the whole run context: `main` parses them into one
//! [`RunCtx`] and hands it to the experiment — no environment variable or
//! process-global carries any of it.
//!
//! `--audit` (requires `--trace`) replays the trace each traced run just
//! wrote through `aequitas-replay` and checks it against the paper's
//! analytical bounds; a FAIL verdict exits 1.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a CLI reports on stdout/stderr"
)]

use aequitas_experiments::harness::{RunCtx, Scale};
use aequitas_experiments::*;
use aequitas_netsim::faults::FaultPlan;
use aequitas_sim_core::time::PS_PER_US;
use aequitas_sim_core::SimDuration;
use aequitas_telemetry::{Telemetry, TelemetryConfig};
use std::sync::Arc;

struct Entry {
    name: &'static str,
    about: &'static str,
    run: fn(&RunCtx),
}

fn entries() -> Vec<Entry> {
    vec![
        Entry {
            name: "fig01",
            about: "per-class RPC size distribution quantiles",
            run: |_| sizes_fig::print_fig01(&sizes_fig::fig01()),
        },
        Entry {
            name: "fig03",
            about: "congestion episode: load spike -> RNL spike",
            run: |ctx| production::print_fig03(&production::fig03(ctx)),
        },
        Entry {
            name: "fig04",
            about: "fleet misalignment snapshot + race-to-the-top drift",
            run: |_| production::print_fig04_05(&production::fig04_05()),
        },
        Entry {
            name: "fig08",
            about: "closed-form 2-QoS worst-case delay",
            run: |_| theory::print_fig08(&theory::fig08()),
        },
        Entry {
            name: "fig09",
            about: "3-QoS worst-case delay (8:4:1 and 50:4:1)",
            run: |_| theory::print_fig09(&theory::fig09()),
        },
        Entry {
            name: "fig10",
            about: "packet simulator vs theory validation",
            run: |ctx| theory::print_fig10(&theory::fig10(ctx)),
        },
        Entry {
            name: "fig11",
            about: "achieved RNL tracks the SLO (3-node sweep)",
            run: |ctx| slo::print_fig11(&slo::fig11(ctx)),
        },
        Entry {
            name: "fig12",
            about: "33-node SLO compliance (+ fig13 outstanding RPCs)",
            run: |ctx| {
                let mut r = slo::fig12(ctx);
                slo::print_fig12(&r);
                slo::print_fig13(&mut r);
            },
        },
        Entry {
            name: "fig14",
            about: "baseline RNL vs input QoSh-share",
            run: |ctx| mix::print_fig14(&mix::fig14(ctx)),
        },
        Entry {
            name: "fig15",
            about: "admitted QoS-mix converges to target",
            run: |ctx| mix::print_fig15(&mix::fig15(ctx)),
        },
        Entry {
            name: "fig16",
            about: "admitted share vs burstiness (C/rho fit)",
            run: |ctx| mix::print_fig16(&mix::fig16(ctx)),
        },
        Entry {
            name: "fig17",
            about: "fairness across channels (+ fig18 max-min)",
            run: |ctx| {
                fairness::print_fairness("Fig 17", &fairness::fig17(ctx));
                fairness::print_fairness("Fig 18", &fairness::fig18(ctx));
            },
        },
        Entry {
            name: "fig19",
            about: "Aequitas vs strict priority queuing",
            run: |ctx| spq::print_fig19(&spq::fig19(ctx)),
        },
        Entry {
            name: "fig20",
            about: "mixed 32/64KB sizes under normalized SLOs",
            run: |ctx| sizes_fig::print_fig20(&sizes_fig::fig20(ctx)),
        },
        Entry {
            name: "fig21",
            about: "leaf-spine fabric, production sizes, 25x burst",
            run: |ctx| large::print_fig21(&large::fig21(ctx)),
        },
        Entry {
            name: "fig22",
            about: "vs pFabric / QJump / D3 / PDQ / Homa",
            run: |ctx| related::print_fig22(&related::fig22(ctx)),
        },
        Entry {
            name: "fig23",
            about: "20-node testbed analogue",
            run: |ctx| large::print_fig23(&large::fig23(ctx)),
        },
        Entry {
            name: "fig24",
            about: "Phase-1 rollout: misalignment -> 0",
            run: |ctx| production::print_fig24(&production::fig24(ctx, 50)),
        },
        Entry {
            name: "fig28",
            about: "beta sensitivity (Appendix C)",
            run: |ctx| {
                let (a, b) = fairness::fig28_29(ctx);
                fairness::print_fairness("Fig 28 (beta=0.0015)", &a);
                fairness::print_fairness("Fig 29 (beta=0.0015)", &b);
            },
        },
        Entry {
            name: "fleet-scale",
            about: "multi-thousand-host Clos on the sharded parallel engine",
            run: |ctx| fleet::print_fleet(&fleet::fleet(ctx)),
        },
        Entry {
            name: "trace-demo",
            about: "tiny full-stack Aequitas run for telemetry smoke/demo",
            run: |ctx| demo::print_trace_demo(&demo::trace_demo(ctx)),
        },
        Entry {
            name: "guarantee",
            about: "Sec 5.2 guaranteed-share table",
            run: |_| theory::print_guaranteed(&theory::guaranteed_table()),
        },
        Entry {
            name: "quota",
            about: "extension: centralized RPC quota server",
            run: |ctx| ext::print_quota(&ext::quota(ctx)),
        },
        Entry {
            name: "core-overload",
            about: "extension: spine overload handled with no topology knowledge",
            run: |ctx| ext::print_core_overload(&ext::core_overload(ctx)),
        },
        Entry {
            name: "adaptive-apps",
            about: "extension: apps that adapt their marking to downgrade feedback",
            run: |ctx| ext::print_adaptive(&ext::adaptive_apps(ctx)),
        },
        Entry {
            name: "chaos-flap",
            about: "chaos: uplink flap -> bounded blast radius, re-admission",
            run: |ctx| chaos::print_link_flap(&chaos::link_flap(ctx)),
        },
        Entry {
            name: "chaos-quota",
            about: "chaos: quota-server outage -> decayed-grant fallback",
            run: |ctx| chaos::print_quota_outage(&chaos::quota_outage(ctx)),
        },
        Entry {
            name: "chaos-containment",
            about: "chaos: baseline x fault matrix with time-to-SLO-restore",
            run: |ctx| chaos::print_containment(&chaos::containment(ctx)),
        },
        Entry {
            name: "ablations",
            about: "design-choice ablations (MD scaling, window, drop, floor)",
            run: |ctx| {
                ext::print_ablation_md_size(&ext::ablation_md_size(ctx));
                ext::print_ablation_window(&ext::ablation_window(ctx));
                ext::print_ablation_drop(&ext::ablation_drop(ctx));
                ext::print_ablation_floor(&ext::ablation_floor(ctx));
            },
        },
    ]
}

/// The entries `run <name>` visits, in table order: every entry for `all`,
/// the one named otherwise, `None` for an unknown name.
fn selected<'a>(table: &'a [Entry], name: &str) -> Option<Vec<&'a Entry>> {
    if name == "all" {
        return Some(table.iter().collect());
    }
    table.iter().find(|e| e.name == name).map(|e| vec![e])
}

fn usage() -> ! {
    eprintln!(
        "usage: aequitas-sim <list | run <name|all>> [--full] [--threads N] \
         [--trace PATH] [--metrics PATH] [--sample-us N] [--faults PLAN.toml] [--audit]"
    );
    eprintln!("       aequitas-sim run fig12");
    eprintln!("       aequitas-sim run fig11 --trace out.jsonl --metrics out-metrics.csv");
    eprintln!("       aequitas-sim run chaos-flap --faults plan.toml");
    eprintln!("       aequitas-sim run all --full --threads 8");
    std::process::exit(2);
}

/// Parse the value of a flag that takes a positive integer; anything else
/// is a usage error.
fn positive(flag: &str, v: &str) -> u64 {
    match v.parse::<u64>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a positive integer, got '{v}'");
            usage();
        }
    }
}

/// Load and validate the `--faults` plan (operator TOML is untrusted input).
fn load_fault_plan(path: &str) -> Arc<FaultPlan> {
    let plan = match FaultPlan::from_toml_file(std::path::Path::new(path)) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("cannot load fault plan {path}: {e}");
            std::process::exit(2);
        }
    };
    match plan.validated() {
        Ok(plan) => Arc::new(plan),
        Err(e) => {
            eprintln!("invalid fault plan {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// The `--sample-us` period: a positive number of microseconds that the
/// picosecond clock can hold.
fn sample_period(v: &str) -> SimDuration {
    let us = positive("--sample-us", v);
    match us.checked_mul(PS_PER_US) {
        Some(ps) => SimDuration::from_ps(ps),
        None => {
            eprintln!(
                "--sample-us {us} overflows the picosecond clock (at most {} us)",
                u64::MAX / PS_PER_US
            );
            usage();
        }
    }
}

/// Build the telemetry handle `--trace` / `--metrics` / `--sample-us` ask
/// for; disabled when neither output is wanted.
fn open_telemetry(
    trace: Option<&str>,
    metrics: Option<&str>,
    sample_every: Option<SimDuration>,
) -> Telemetry {
    if trace.is_none() && metrics.is_none() {
        return Telemetry::disabled();
    }
    let mut config = TelemetryConfig::default();
    if let Some(every) = sample_every {
        config.sample_every = every;
    }
    match trace {
        Some(path) => Telemetry::to_file(path, config).unwrap_or_else(|e| {
            eprintln!("cannot open trace file {path}: {e}");
            std::process::exit(2);
        }),
        // Metrics-only run: sample on cadence, discard trace lines.
        None => Telemetry::with_sink(aequitas_telemetry::NullSink, config),
    }
}

/// Exit status when stdout's reader has gone away: 128 + SIGPIPE, what a
/// shell reports for a process the signal killed.
const CLOSED_STDOUT: i32 = 141;

/// Let a closed stdout (`aequitas-sim run fig08 | head -1`) end the process
/// quietly. The Rust runtime ignores SIGPIPE, so `println!` panics on the
/// broken pipe instead; this hook turns exactly that panic into
/// [`CLOSED_STDOUT`] and leaves every other panic to the default hook.
fn exit_quietly_on_closed_stdout() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(CLOSED_STDOUT);
        }
        default_hook(info);
    }));
}

fn main() {
    exit_quietly_on_closed_stdout();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = RunCtx::quick();
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut sample_every = None;
    let mut args: Vec<&str> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| -> &str {
            match it.next() {
                Some(v) => v,
                None => {
                    eprintln!("{flag} requires a value");
                    usage();
                }
            }
        };
        match a.as_str() {
            "--full" => ctx.scale = Scale::full(),
            "--audit" => ctx.audit = true,
            "--threads" => ctx.threads = positive("--threads", value_of("--threads")) as usize,
            "--trace" => trace = Some(value_of("--trace").to_string()),
            "--metrics" => metrics = Some(value_of("--metrics").to_string()),
            "--sample-us" => sample_every = Some(sample_period(value_of("--sample-us"))),
            "--faults" => {
                if ctx.faults.is_some() {
                    eprintln!("--faults given more than once");
                    usage();
                }
                ctx.faults = Some(load_fault_plan(value_of("--faults")));
            }
            other => args.push(other),
        }
    }
    if ctx.audit && trace.is_none() {
        eprintln!("--audit needs a --trace file to replay");
        usage();
    }
    ctx.telemetry = open_telemetry(trace.as_deref(), metrics.as_deref(), sample_every);
    let table = entries();
    match args.as_slice() {
        ["list"] => {
            println!("{:<10} description", "name");
            println!("{}", "-".repeat(60));
            for e in &table {
                println!("{:<10} {}", e.name, e.about);
            }
        }
        ["run", name] => match selected(&table, name) {
            Some(chosen) => {
                for e in chosen {
                    if *name == "all" {
                        eprintln!("\n>>> {}", e.name);
                    }
                    (e.run)(&ctx);
                }
            }
            None => {
                eprintln!("unknown experiment '{name}'; try `aequitas-sim list`");
                std::process::exit(2);
            }
        },
        _ => usage(),
    }
    if ctx.telemetry.is_enabled() {
        ctx.telemetry.flush();
        if let Some(path) = &trace {
            println!("[trace written to {path}]");
        }
        if let Some(path) = &metrics {
            match ctx.telemetry.write_metrics_csv_path(path) {
                Ok(()) => println!("[metrics written to {path}]"),
                Err(e) => eprintln!("cannot write metrics file {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_names_are_unique_and_run_all_visits_each_once() {
        let table = entries();
        let names: Vec<&str> = table.iter().map(|e| e.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            names.len(),
            "duplicate entry name in {names:?}"
        );
        assert!(
            !names.contains(&"all"),
            "`all` is reserved for the whole table"
        );

        let visited: Vec<&str> = selected(&table, "all")
            .expect("`all` selects the table")
            .iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(visited, names);
        for name in &names {
            let one = selected(&table, name).expect("listed name resolves");
            assert_eq!(one.iter().map(|e| e.name).collect::<Vec<_>>(), [*name]);
        }
        assert!(selected(&table, "no-such-experiment").is_none());
    }
}
