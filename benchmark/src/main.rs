//! `aequitas-benchmark`: the repository's benchmark.
//!
//! ```text
//! aequitas-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! aequitas-benchmark [--seed N] [--seconds S] [--out FILE.json]
//! aequitas-benchmark compare A.json B.json
//! aequitas-benchmark metrics
//! ```
//!
//! The first form runs one workload and prints, last, one JSON line with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! span-traced run (`--trace 1`). The second runs every workload in a child
//! process of its own, both ways, and writes one result file. The third
//! compares two result files against the benchmark's bounds; the fourth
//! lists every metric with its unit, direction, bound and — per layer — the
//! end-to-end metric it should move.

mod catalog;
mod compare;
mod fabric;
mod json;
mod measure;
mod raw;
mod run;
mod spanned;
mod suite;
mod units;
mod workloads;

use run::Report;
use std::process::ExitCode;
use workloads::Workload;

const DEFAULT_SEED: u64 = 2022;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

const USAGE: &str = "usage:
  aequitas-benchmark --workload NAME --seed N --seconds S --trace 0|1
  aequitas-benchmark [--seed N] [--seconds S] [--out FILE.json]
  aequitas-benchmark compare A.json B.json
  aequitas-benchmark metrics
workloads:";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 600),
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

fn print_report(r: &Report, seed: u64, seconds: u64) {
    println!(
        "workload {}  seed {seed}  seconds {seconds}  trace {}  nproc {}  reps {}",
        r.workload.name(),
        u8::from(r.traced),
        measure::nproc(),
        r.rep_walls.len()
    );
    for m in &r.metrics {
        if m.value.min < m.value.max {
            println!(
                "  {:<40} {:>18} {:<9} (min {} max {})",
                m.name, m.value.median, m.unit, m.value.min, m.value.max
            );
        } else {
            println!("  {:<40} {:>18} {}", m.name, m.value.median, m.unit);
        }
    }
    println!("  rep_wall_s {:?}", r.rep_walls);
    let s = &r.sim;
    println!(
        "  sim_digest {:016x}  attempted {}  completed {}  failed {} (failed_frac {})  outstanding {}  pc_samples {}  pc_p999_us {}",
        s.digest,
        s.attempted,
        s.completed,
        s.failed,
        1.0 - s.ok_frac(),
        s.outstanding,
        s.pc_samples,
        s.pc_p999_us
    );
    for c in &r.checks {
        println!(
            "  check {:<40} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!("{}{}", suite::DETAIL_PREFIX, r.detail().to_json());
    println!("{}", r.contract_line());
}

fn print_metrics() {
    println!("end-to-end metrics (every workload; bound = share of the parent's median):");
    for m in &catalog::END_TO_END {
        println!(
            "  {:<20} {:<7} {:<6} better  bound {:<5} {:?}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.kind
        );
    }
    println!("per-layer metrics (span-traced run; the layer is the name up to the first dot):");
    for m in &catalog::PER_LAYER {
        println!(
            "  {:<38} {:<9} {:<6} better  moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (lines, ok) = compare::compare(&load(a)?, &load(b)?)?;
    for l in lines {
        println!("{l}");
    }
    Ok(ok)
}

fn run_suite(args: &Args) -> Result<bool, String> {
    let (doc, ok) = suite::run_all(&Workload::ALL, args.seed, args.seconds, |stdout| {
        // The detail line is for the result file, not for reading.
        for l in stdout
            .lines()
            .filter(|l| !l.starts_with(suite::DETAIL_PREFIX))
        {
            println!("{l}");
        }
    })?;
    if let Some(path) = &args.out {
        std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!("benchmark {}", if ok { "correct" } else { "NOT correct" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("compare") => Err("compare takes two result files".to_string()),
        Some("metrics") if args.len() == 1 => {
            print_metrics();
            Ok(true)
        }
        _ => parse_args(&args).and_then(|parsed| match parsed.workload {
            Some(w) => {
                let seconds = parsed.seconds as f64;
                let report = if parsed.traced {
                    run::per_layer(w, parsed.seed, seconds)
                } else {
                    run::end_to_end(w, parsed.seed, seconds)
                };
                print_report(&report, parsed.seed, parsed.seconds);
                Ok(report.correct())
            }
            None => run_suite(&parsed),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("aequitas-benchmark: {e}");
            eprintln!("{USAGE}");
            for w in Workload::ALL {
                eprintln!("  {:<20} {}", w.name(), catalog::why(w));
            }
            ExitCode::from(2)
        }
    }
}
