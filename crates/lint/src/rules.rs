//! The AQ rule set.
//!
//! Every rule has a stable ID (`AQ001`..) so findings can be allowlisted
//! precisely in `lint.toml` and grepped in CI logs. Rules operate on the
//! token stream from [`crate::lexer`]; they never see the inside of
//! strings or comments, so prose like "the `Instant` at which an event
//! fires" cannot trip them.
//!
//! Scoping conventions shared by several rules:
//! - *test code* means a `#[cfg(test)] mod` span inside a crate, or any
//!   file under a `tests/` directory;
//! - *hot-path crates* are `sim-core`, `netsim`, `qdisc`, `transport` —
//!   the per-packet simulation path;
//! - structural exemptions (bins, benches, the telemetry sink) are coded
//!   here so `lint.toml` allowlists stay reserved for vendored code.

use crate::config::{glob_match, Config};
use crate::lexer::{Tok, TokKind};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule ID, e.g. `AQ001`.
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation, including the fix direction.
    pub message: String,
}

/// Rule metadata, used by `--rules` and the docs test.
pub struct RuleInfo {
    /// Stable ID.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line rationale.
    pub desc: &'static str,
}

/// Every rule this binary knows, in ID order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "AQ001",
        name: "wall-clock-read",
        desc: "std::time::{Instant,SystemTime} break bit-determinism; sim code must use sim-core SimTime",
    },
    RuleInfo {
        id: "AQ002",
        name: "ambient-randomness",
        desc: "thread_rng/OsRng/RandomState et al. are nondeterministic; use sim-core SimRng with an explicit seed",
    },
    RuleInfo {
        id: "AQ003",
        name: "direct-stdio",
        desc: "println!/eprintln! outside bins, benches, tests and the telemetry sink; route through aequitas-telemetry",
    },
    RuleInfo {
        id: "AQ004",
        name: "float-exact-compare",
        desc: "== / != against a float literal is brittle; compare with a tolerance or via to_bits()",
    },
    RuleInfo {
        id: "AQ005",
        name: "raw-time-arithmetic",
        desc: "arithmetic on as_ps() values escapes the SimTime/SimDuration newtypes; use their operators/helpers",
    },
    RuleInfo {
        id: "AQ006",
        name: "naked-unwrap-hot-path",
        desc: ".unwrap() in hot-path crates hides the invariant; use .expect(\"why this cannot fail\")",
    },
    RuleInfo {
        id: "AQ007",
        name: "unjustified-lint-allow",
        desc: "#[allow(clippy::...)] needs a justification comment on the same line or the line above",
    },
    RuleInfo {
        id: "AQ008",
        name: "unordered-iteration-hazard",
        desc: "HashMap/HashSet construction needs a `det:` comment arguing iteration order cannot leak into results",
    },
    RuleInfo {
        id: "AQ009",
        name: "unsafe-code",
        desc: "the workspace is 100% safe Rust; unsafe blocks need a design discussion, not a commit",
    },
    RuleInfo {
        id: "AQ010",
        name: "todo-marker",
        desc: "todo!/unimplemented! in non-test code panics at runtime; finish it or return an error",
    },
    RuleInfo {
        id: "AQ011",
        name: "hot-path-allocation",
        desc: "Box::new/vec!/Vec::new in per-event modules; recycle via a sim-core Slab, preallocate with with_capacity, or justify with an `alloc:` comment",
    },
    RuleInfo {
        id: "AQ012",
        name: "string-keyed-telemetry",
        desc: "format!/String::new label building or per-event to_json in hot-path modules; intern a MetricId / reuse a scratch buffer, or justify with a `metric:` comment",
    },
    RuleInfo {
        id: "AQ013",
        name: "trace-schema-drift",
        desc: "TraceEvent variants/fields changed without updating TRACE_SCHEMA_FINGERPRINT (and bumping TRACE_SCHEMA_VERSION); replay tools key on the version",
    },
    RuleInfo {
        id: "AQ014",
        name: "determinism-taint",
        desc: "call-graph taint: a nondeterminism source (wall clock, ambient RNG, HashMap/HashSet iteration, pointer-address cast) reaches engine/shard/quota hot code through a call chain; `det:` comment at the source or boundary call suppresses",
    },
    RuleInfo {
        id: "AQ015",
        name: "unit-mixing",
        desc: "dataflow unit check: ps/ns/us, bytes/bits, or raw-vs-per-MTU RNL quantities mixed in arithmetic/comparison or passed to a parameter of a different unit; `unit:` comment suppresses",
    },
    RuleInfo {
        id: "AQ016",
        name: "shard-isolation",
        desc: "code reachable from Engine::run_until (the per-domain window) must not touch shared state (Mutex/RwLock/atomics/channels), spawn threads, or call the coordinator-only boundary-merge API; `shard:` comment suppresses",
    },
    RuleInfo {
        id: "AQ017",
        name: "library-unwrap",
        desc: ".unwrap()/.expect() in replay library code panics on malformed traces; return a contextful error (audit tools must report, not die); `panic:` comment suppresses",
    },
];

/// Hot-path crates for AQ006.
const HOT_PATH: &[&str] = &["sim-core", "netsim", "qdisc", "transport"];

/// Per-event modules for AQ011 — finer-grained than the AQ006 crate list,
/// because hot crates contain plenty of legitimately-allocating cold code
/// (topology builders, config structs, stats harvest). Entries ending in
/// `/` cover a whole directory.
const HOT_ALLOC_MODULES: &[&str] = &[
    "crates/sim-core/src/event.rs",
    "crates/sim-core/src/arena.rs",
    "crates/netsim/src/engine.rs",
    "crates/netsim/src/shard.rs",
    "crates/netsim/src/port.rs",
    "crates/netsim/src/packet.rs",
    "crates/qdisc/src/",
    "crates/transport/src/",
];

/// Modules whose telemetry must run on interned handles for AQ012: the
/// per-event emitters (engine dispatch, qdiscs, transport, the RPC stack,
/// the admission controller) plus the telemetry funnel itself. Registration
/// and export code living in these files escapes with a `metric:` comment
/// or a `lint.toml` allowlist entry.
const HOT_METRIC_MODULES: &[&str] = &[
    "crates/netsim/src/engine.rs",
    "crates/netsim/src/shard.rs",
    "crates/netsim/src/port.rs",
    "crates/qdisc/src/",
    "crates/transport/src/",
    "crates/rpc/src/stack.rs",
    "crates/core/src/controller.rs",
    "crates/telemetry/src/lib.rs",
];

/// Everything a rule needs to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative `/`-separated path.
    pub rel: &'a str,
    /// All tokens including comments.
    pub toks: &'a [Tok],
    /// Indices into `toks` of non-comment tokens.
    pub code: Vec<usize>,
    /// Line spans (inclusive) of `#[cfg(test)] mod` bodies.
    pub test_spans: Vec<(u32, u32)>,
    /// True when the whole file is test code (under `tests/`).
    pub whole_file_test: bool,
}

impl<'a> FileCtx<'a> {
    /// Build the context: filter comments, locate test-mod spans.
    pub fn new(rel: &'a str, toks: &'a [Tok]) -> Self {
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        // `tests/` directories are integration tests; a `tests.rs` module
        // file is by convention included via `#[cfg(test)] mod tests;`.
        let whole_file_test =
            rel.starts_with("tests/") || rel.contains("/tests/") || rel.ends_with("/tests.rs");
        let test_spans = find_test_spans(toks, &code);
        FileCtx {
            rel,
            toks,
            code,
            test_spans,
            whole_file_test,
        }
    }

    /// Is this line inside test code?
    pub fn in_test(&self, line: u32) -> bool {
        self.whole_file_test
            || self
                .test_spans
                .iter()
                .any(|&(a, b)| line >= a && line <= b)
    }

    /// Is there a justification comment for `line`: on the line itself, or
    /// in the contiguous run of comment lines directly above it? A comment
    /// qualifies when it contains `needle` (any comment if `needle` is
    /// empty).
    fn justified(&self, line: u32, needle: &str) -> bool {
        let comments = |l: u32| {
            self.toks.iter().filter(move |t| {
                matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) && t.line == l
            })
        };
        let hit =
            |l: u32| comments(l).any(|t| needle.is_empty() || t.text.contains(needle));
        if hit(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && comments(l).next().is_some() {
            if hit(l) {
                return true;
            }
            l -= 1;
        }
        false
    }

    /// The `i`-th code token.
    fn c(&self, i: usize) -> &Tok {
        &self.toks[self.code[i]]
    }
}

/// Locate `#[cfg(test)] mod ... { ... }` spans by brace matching.
fn find_test_spans(toks: &[Tok], code: &[usize]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let t = |i: usize| -> &Tok { &toks[code[i]] };
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = t(i).text == "#"
            && t(i + 1).text == "["
            && t(i + 2).text == "cfg"
            && t(i + 3).text == "("
            && t(i + 4).text == "test"
            && t(i + 5).text == ")"
            && t(i + 6).text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name {`.
        let mut j = i + 7;
        while j + 1 < code.len() && t(j).text == "#" && t(j + 1).text == "[" {
            // Skip to matching `]`.
            let mut depth = 0;
            let mut k = j + 1;
            while k < code.len() {
                match t(k).text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
        let is_mod = j < code.len() && t(j).text == "mod";
        if is_mod {
            // Find the `{` then its match.
            let mut k = j;
            while k < code.len() && t(k).text != "{" && t(k).text != ";" {
                k += 1;
            }
            if k < code.len() && t(k).text == "{" {
                let start_line = t(i).line;
                let mut depth = 0;
                let mut m = k;
                while m < code.len() {
                    match t(m).text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                let end_line = if m < code.len() {
                    t(m).line
                } else {
                    u32::MAX
                };
                spans.push((start_line, end_line));
                i = j;
                continue;
            }
        }
        i += 1;
    }
    spans
}

// Path helpers --------------------------------------------------------------

fn in_crate(rel: &str, name: &str) -> bool {
    rel.starts_with(&format!("crates/{name}/"))
}

fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Structurally exempt from AQ003: code whose job is to produce output.
fn stdio_exempt(rel: &str) -> bool {
    in_crate(rel, "experiments")          // figure/sweep drivers print results
        || in_crate(rel, "telemetry")     // the sanctioned sink itself
        || in_crate(rel, "lint")          // this binary reports findings
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.contains("/src/bin/")
        || rel.ends_with("/main.rs")
        || rel.ends_with("build.rs")
}

/// Run every enabled rule over one file.
pub fn check_file(cfg: &Config, rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    if cfg
        .global_allow
        .iter()
        .any(|g| glob_match(g, rel))
    {
        return;
    }
    let ctx = FileCtx::new(rel, toks);
    let enabled = |id: &str| -> bool {
        let r = cfg.rule(id);
        r.enabled && !r.allow.iter().any(|g| glob_match(g, rel))
    };
    if enabled("AQ001") {
        aq001_wall_clock(&ctx, out);
    }
    if enabled("AQ002") {
        aq002_ambient_randomness(&ctx, out);
    }
    if enabled("AQ003") {
        aq003_direct_stdio(&ctx, out);
    }
    if enabled("AQ004") {
        aq004_float_exact_compare(&ctx, out);
    }
    if enabled("AQ005") {
        aq005_raw_time_arith(&ctx, out);
    }
    if enabled("AQ006") {
        aq006_naked_unwrap(&ctx, out);
    }
    if enabled("AQ007") {
        aq007_unjustified_allow(&ctx, out);
    }
    if enabled("AQ008") {
        aq008_unordered_iteration(&ctx, out);
    }
    if enabled("AQ009") {
        aq009_unsafe(&ctx, out);
    }
    if enabled("AQ010") {
        aq010_todo(&ctx, out);
    }
    if enabled("AQ011") {
        aq011_hot_alloc(&ctx, out);
    }
    if enabled("AQ012") {
        aq012_string_keyed_telemetry(&ctx, out);
    }
    if enabled("AQ013") {
        aq013_trace_schema_drift(&ctx, out);
    }
    if enabled("AQ017") {
        aq017_library_unwrap(&ctx, out);
    }
}

fn finding(out: &mut Vec<Finding>, rule: &'static str, ctx: &FileCtx, t: &Tok, msg: String) {
    out.push(Finding {
        rule,
        path: ctx.rel.to_string(),
        line: t.line,
        col: t.col,
        message: msg,
    });
}

/// AQ001: `Instant` / `SystemTime` anywhere (even tests must be
/// deterministic; benchmarks go through vendored criterion, which is
/// allowlisted wholesale).
fn aq001_wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for &i in &ctx.code {
        let t = &ctx.toks[i];
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            finding(
                out,
                "AQ001",
                ctx,
                t,
                format!(
                    "wall-clock type `{}` on a simulation path; use sim-core SimTime/SimDuration",
                    t.text
                ),
            );
        }
    }
}

/// AQ002: ambient randomness sources.
fn aq002_ambient_randomness(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const BANNED: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "getrandom",
        "OsRng",
        "RandomState",
        "random_seed",
    ];
    for &i in &ctx.code {
        let t = &ctx.toks[i];
        if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
            finding(
                out,
                "AQ002",
                ctx,
                t,
                format!(
                    "ambient randomness `{}`; derive a SimRng from the experiment seed instead",
                    t.text
                ),
            );
        }
    }
}

/// AQ003: `println!`-family outside the sanctioned output layers.
fn aq003_direct_stdio(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if stdio_exempt(ctx.rel) {
        return;
    }
    const MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
    for w in 0..ctx.code.len().saturating_sub(1) {
        let (a, b) = (ctx.c(w), ctx.c(w + 1));
        if a.kind == TokKind::Ident
            && MACROS.contains(&a.text.as_str())
            && b.text == "!"
            && !ctx.in_test(a.line)
        {
            finding(
                out,
                "AQ003",
                ctx,
                a,
                format!(
                    "`{}!` bypasses aequitas-telemetry; use telemetry::diag/trace so sinks stay configurable",
                    a.text
                ),
            );
        }
    }
}

/// AQ004: `==` / `!=` with a float-literal operand, in non-test code.
fn aq004_float_exact_compare(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for w in 0..ctx.code.len().saturating_sub(1) {
        let (a, b) = (ctx.c(w), ctx.c(w + 1));
        let is_eq = a.text == "=" && b.text == "=";
        let is_ne = a.text == "!" && b.text == "=";
        if !(is_eq || is_ne) || a.kind != TokKind::Punct || b.kind != TokKind::Punct {
            continue;
        }
        // Require byte adjacency so `a = =b` noise (never valid Rust) or a
        // `!` macro bang far from an `=` cannot pair up.
        if a.line != b.line || b.col != a.col + 1 {
            continue;
        }
        if ctx.in_test(a.line) {
            continue;
        }
        let prev_float = w > 0 && ctx.c(w - 1).kind == TokKind::Float;
        let next_float = w + 2 < ctx.code.len() && ctx.c(w + 2).kind == TokKind::Float;
        if prev_float || next_float {
            finding(
                out,
                "AQ004",
                ctx,
                a,
                "exact float comparison; compare with an explicit tolerance or via f64::to_bits()"
                    .to_string(),
            );
        }
    }
}

/// AQ005: arithmetic directly on `as_ps()` results (outside sim-core,
/// which implements the newtypes and owns the raw representation).
fn aq005_raw_time_arith(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if in_crate(ctx.rel, "sim-core") || in_crate(ctx.rel, "lint") {
        return;
    }
    const OPS: &[&str] = &["+", "-", "*", "/", "%"];
    let n = ctx.code.len();
    for w in 0..n.saturating_sub(2) {
        let t = ctx.c(w);
        if !(t.kind == TokKind::Ident && t.text == "as_ps") {
            continue;
        }
        if !(ctx.c(w + 1).text == "(" && ctx.c(w + 2).text == ")") {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        // Skip `as u64` / `as f64` casts after the call.
        let mut j = w + 3;
        while j + 1 < n && ctx.c(j).text == "as" && ctx.c(j + 1).kind == TokKind::Ident {
            j += 2;
        }
        if j < n {
            let op = ctx.c(j);
            let next_is_assign = j + 1 < n && ctx.c(j + 1).text == "=";
            if op.kind == TokKind::Punct && OPS.contains(&op.text.as_str()) && !next_is_assign {
                // `->` return arrows can't follow a call; `-` here is real
                // arithmetic.
                finding(
                    out,
                    "AQ005",
                    ctx,
                    t,
                    format!(
                        "raw `{}` on as_ps() picoseconds; use SimTime/SimDuration operators or helpers",
                        op.text
                    ),
                );
            }
        }
    }
}

/// AQ006: `.unwrap()` in hot-path crates. `.expect("invariant")` is the
/// sanctioned replacement — the message documents why failure is
/// impossible, and shows up in a panic backtrace if it ever isn't.
fn aq006_naked_unwrap(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let Some(krate) = crate_of(ctx.rel) else {
        return;
    };
    if !HOT_PATH.contains(&krate) {
        return;
    }
    let n = ctx.code.len();
    for w in 1..n.saturating_sub(2) {
        let t = ctx.c(w);
        if t.kind == TokKind::Ident
            && t.text == "unwrap"
            && ctx.c(w - 1).text == "."
            && ctx.c(w + 1).text == "("
            && ctx.c(w + 2).text == ")"
            && !ctx.in_test(t.line)
        {
            finding(
                out,
                "AQ006",
                ctx,
                t,
                "naked .unwrap() on a hot path; use .expect(\"why this cannot fail\")".to_string(),
            );
        }
    }
}

/// AQ017: `.unwrap()` / `.expect()` in replay *library* code. The replay
/// tools exist to diagnose malformed or divergent traces — panicking on
/// exactly those inputs defeats them, so library paths must surface
/// contextful errors instead. Scoped to `crates/replay/src/` minus the CLI
/// entry point (`main.rs` may unwrap on already-reported errors) and test
/// code. AQ006's hot-path crates sanction `.expect("why")`; here even that
/// is a panic on user input, hence the separate rule. A genuinely
/// unreachable state escapes with a `panic:` comment arguing why.
fn aq017_library_unwrap(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.rel.starts_with("crates/replay/src/") || ctx.rel.ends_with("/main.rs") {
        return;
    }
    let n = ctx.code.len();
    for w in 1..n.saturating_sub(1) {
        let t = ctx.c(w);
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && ctx.c(w - 1).text == "."
            && ctx.c(w + 1).text == "("
            && !ctx.in_test(t.line)
            && !ctx.justified(t.line, "panic:")
        {
            finding(
                out,
                "AQ017",
                ctx,
                t,
                format!(
                    ".{}() in replay library code panics on malformed traces; bubble a contextful error instead",
                    t.text
                ),
            );
        }
    }
}

/// AQ007: `#[allow(clippy::...)]` (or `#![allow]`) without a
/// justification comment on the same line or the line above.
fn aq007_unjustified_allow(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let n = ctx.code.len();
    for w in 0..n.saturating_sub(4) {
        if ctx.c(w).text != "#" {
            continue;
        }
        let mut j = w + 1;
        if j < n && ctx.c(j).text == "!" {
            j += 1;
        }
        if !(j + 2 < n && ctx.c(j).text == "[" && ctx.c(j + 1).text == "allow") {
            continue;
        }
        let open = j + 2;
        if ctx.c(open).text != "(" {
            continue;
        }
        let arg = if open + 1 < n { ctx.c(open + 1) } else { continue };
        if arg.text != "clippy" {
            continue;
        }
        let t = ctx.c(w);
        if !ctx.justified(t.line, "") {
            finding(
                out,
                "AQ007",
                ctx,
                t,
                "#[allow(clippy::...)] without a justification comment on this line or the line above"
                    .to_string(),
            );
        }
    }
}

/// AQ008: HashMap/HashSet construction without a `det:` comment arguing
/// why the map's (per-process random) iteration order cannot reach
/// simulation results or printed output.
fn aq008_unordered_iteration(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const CTORS: &[&str] = &["new", "with_capacity", "default", "from", "from_iter"];
    let n = ctx.code.len();
    for w in 0..n.saturating_sub(3) {
        let t = ctx.c(w);
        if !(t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet")) {
            continue;
        }
        if !(ctx.c(w + 1).text == ":" && ctx.c(w + 2).text == ":") {
            continue;
        }
        let m = ctx.c(w + 3);
        if !(m.kind == TokKind::Ident && CTORS.contains(&m.text.as_str())) {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        if !ctx.justified(t.line, "det:") {
            finding(
                out,
                "AQ008",
                ctx,
                t,
                format!(
                    "{} construction without a `det:` justification; iteration order is per-process random — \
                     sort before iterating or use BTreeMap/BTreeSet",
                    t.text
                ),
            );
        }
    }
}

/// AQ009: `unsafe` anywhere, tests included. One structural exemption: an
/// integration-test file that installs a `#[global_allocator]`. `GlobalAlloc`
/// is an unsafe trait, so a test that pins "allocation-free" with an exact
/// count (`tests/trace_alloc.rs`) cannot be written without the keyword; such
/// a file is its own crate, and nothing the simulator ships links it.
fn aq009_unsafe(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let installs_allocator = || {
        ctx.code
            .iter()
            .any(|&i| ctx.toks[i].kind == TokKind::Ident && ctx.toks[i].text == "global_allocator")
    };
    if ctx.whole_file_test && installs_allocator() {
        return;
    }
    for &i in &ctx.code {
        let t = &ctx.toks[i];
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            finding(
                out,
                "AQ009",
                ctx,
                t,
                "unsafe code in a 100%-safe workspace; redesign or raise it in DESIGN.md first".to_string(),
            );
        }
    }
}

/// AQ010: `todo!` / `unimplemented!` in non-test code.
fn aq010_todo(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for w in 0..ctx.code.len().saturating_sub(1) {
        let (a, b) = (ctx.c(w), ctx.c(w + 1));
        if a.kind == TokKind::Ident
            && (a.text == "todo" || a.text == "unimplemented")
            && b.text == "!"
            && !ctx.in_test(a.line)
        {
            finding(
                out,
                "AQ010",
                ctx,
                a,
                format!("`{}!` will panic at runtime; finish the path or return an error", a.text),
            );
        }
    }
}

/// AQ011: heap allocation on the per-event path. `Box::new`, `vec![...]`,
/// and `Vec::new()` (which starts at capacity 0 and reallocates as it
/// grows) churn the allocator once per packet/event; the sanctioned forms
/// are the sim-core arena (`Slab`), `Vec::with_capacity` at setup time,
/// or buffer reuse. An `alloc:` comment marks audited
/// cold-path allocations (setup code that happens to live in a hot
/// module).
fn aq011_hot_alloc(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let hot = HOT_ALLOC_MODULES
        .iter()
        .any(|m| ctx.rel == *m || (m.ends_with('/') && ctx.rel.starts_with(m)));
    if !hot {
        return;
    }
    let n = ctx.code.len();
    let mut fire = |t: &Tok, what: &str| {
        if ctx.in_test(t.line) || ctx.justified(t.line, "alloc:") {
            return;
        }
        finding(
            out,
            "AQ011",
            ctx,
            t,
            format!(
                "`{what}` allocates on a per-event module; recycle via a Slab, \
                 preallocate with with_capacity, or justify with an `alloc:` comment"
            ),
        );
    };
    for w in 0..n.saturating_sub(1) {
        let t = ctx.c(w);
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "vec" && ctx.c(w + 1).text == "!" {
            fire(t, "vec!");
            continue;
        }
        if (t.text == "Box" || t.text == "Vec")
            && w + 3 < n
            && ctx.c(w + 1).text == ":"
            && ctx.c(w + 2).text == ":"
            && ctx.c(w + 3).text == "new"
        {
            fire(t, if t.text == "Box" { "Box::new" } else { "Vec::new" });
        }
    }
}

/// AQ012: telemetry that allocates strings per event. The registry's only
/// update path interns a `MetricId` once at wiring time and updates through
/// `counter_add_id`/`gauge_set_id`/`hist_record_id` (the string-keyed
/// update shims are gone, so the type system covers that half); trace
/// serialization reuses a scratch buffer via `write_json`. In the
/// designated hot modules this rule flags label construction with
/// `format!` / `String::new`, and per-event `.to_json()` calls. One-time
/// registration and dump/export code that happens to live in a hot module
/// escapes with a `metric:` comment;
/// whole setup/export files belong in the `lint.toml` allowlist.
fn aq012_string_keyed_telemetry(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let hot = HOT_METRIC_MODULES
        .iter()
        .any(|m| ctx.rel == *m || (m.ends_with('/') && ctx.rel.starts_with(m)));
    if !hot {
        return;
    }
    let n = ctx.code.len();
    let mut fire = |t: &Tok, what: &str, fix: &str| {
        if ctx.in_test(t.line) || ctx.justified(t.line, "metric:") {
            return;
        }
        finding(
            out,
            "AQ012",
            ctx,
            t,
            format!("`{what}` on a telemetry hot path; {fix}, or justify with a `metric:` comment"),
        );
    };
    for w in 0..n {
        let t = ctx.c(w);
        if t.kind != TokKind::Ident {
            continue;
        }
        // `format!(...)` — per-event label/string construction.
        if t.text == "format" && w + 1 < n && ctx.c(w + 1).text == "!" {
            fire(t, "format!", "build strings once at registration time");
            continue;
        }
        // `String::new()` — an empty-label allocation per call.
        if t.text == "String"
            && w + 3 < n
            && ctx.c(w + 1).text == ":"
            && ctx.c(w + 2).text == ":"
            && ctx.c(w + 3).text == "new"
        {
            fire(t, "String::new", "intern the label at wiring time");
            continue;
        }
        // `.to_json(...)` — allocates a fresh String per event; sinks
        // should serialize through `write_json` into a reused scratch.
        if t.text == "to_json" && w >= 1 && ctx.c(w - 1).text == "." && w + 1 < n && ctx.c(w + 1).text == "(" {
            fire(
                t,
                ".to_json()",
                "serialize into a reused buffer via write_json",
            );
        }
    }
}

/// The file AQ013 guards: the wire-format definition of the trace.
const TRACE_SCHEMA_FILE: &str = "crates/telemetry/src/trace.rs";

/// FNV-1a-64 over the schema-relevant shape of `TraceEvent`.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// AQ013: the trace schema (the `TraceEvent` enum in
/// `crates/telemetry/src/trace.rs`) is a wire format — external replay
/// tooling keys on `TRACE_SCHEMA_VERSION`. This rule fingerprints the
/// enum's variant and field names and compares it with the declared
/// `TRACE_SCHEMA_FINGERPRINT` constant; adding/renaming/removing a
/// variant or field without touching the constant (and, per its docs,
/// bumping `TRACE_SCHEMA_VERSION`) is flagged with the new fingerprint to
/// paste. A field whose line (or the comment block above it) carries a
/// `schema:` justification is excluded from the fingerprint — the escape
/// hatch for additions that provably do not change the serialized form.
fn aq013_trace_schema_drift(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.rel != TRACE_SCHEMA_FILE {
        return;
    }
    let n = ctx.code.len();
    // Locate `pub enum TraceEvent {`.
    let mut start = None;
    for i in 0..n.saturating_sub(3) {
        if ctx.c(i).text == "pub"
            && ctx.c(i + 1).text == "enum"
            && ctx.c(i + 2).text == "TraceEvent"
            && ctx.c(i + 3).text == "{"
        {
            start = Some(i + 3);
            break;
        }
    }
    let Some(open) = start else {
        finding(
            out,
            "AQ013",
            ctx,
            ctx.c(0),
            "cannot find `pub enum TraceEvent` to fingerprint; \
             if the enum moved, update the AQ013 rule"
                .to_string(),
        );
        return;
    };
    // Walk the enum body, hashing variant names (brace depth 1) and
    // struct-variant field names (depth 2, `ident :` after `{` or `,`).
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut depth = 0i32;
    let mut i = open;
    let mut prev_text: Option<&str> = None;
    while i < n {
        let t = ctx.c(i);
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            _ => {
                if t.kind == TokKind::Ident && !ctx.justified(t.line, "schema:") {
                    // `]` covers a variant directly after a `#[...]` attribute.
                    let is_variant =
                        depth == 1 && matches!(prev_text, Some("{" | "," | "}" | ")" | "]"));
                    let is_field = depth == 2
                        && matches!(prev_text, Some("{" | ","))
                        && i + 1 < n
                        && ctx.c(i + 1).text == ":";
                    if is_variant {
                        hash = fnv1a64(hash, t.text.as_bytes());
                        hash = fnv1a64(hash, b"|");
                    } else if is_field {
                        hash = fnv1a64(hash, b".");
                        hash = fnv1a64(hash, t.text.as_bytes());
                    }
                }
            }
        }
        prev_text = Some(&t.text);
        i += 1;
    }
    // Locate the declared constant: `TRACE_SCHEMA_FINGERPRINT ... = <int>`.
    let mut declared = None;
    for i in 0..n {
        if ctx.c(i).text == "TRACE_SCHEMA_FINGERPRINT" {
            for j in i + 1..n.min(i + 8) {
                if ctx.c(j).kind == TokKind::Int {
                    let lit = ctx
                        .c(j)
                        .text
                        .trim_end_matches("u64")
                        .replace('_', "");
                    declared = Some((
                        j,
                        if let Some(hex) = lit.strip_prefix("0x") {
                            u64::from_str_radix(hex, 16).ok()
                        } else {
                            lit.parse::<u64>().ok()
                        },
                    ));
                    break;
                }
            }
            break;
        }
    }
    let Some((at, Some(value))) = declared else {
        finding(
            out,
            "AQ013",
            ctx,
            ctx.c(open),
            format!(
                "cannot find an integer `TRACE_SCHEMA_FINGERPRINT` constant; declare it as \
                 0x{hash:016x}"
            ),
        );
        return;
    };
    if value != hash {
        finding(
            out,
            "AQ013",
            ctx,
            ctx.c(at),
            format!(
                "trace event schema drifted: TraceEvent fingerprint is 0x{hash:016x} but \
                 TRACE_SCHEMA_FINGERPRINT declares 0x{value:016x}; bump TRACE_SCHEMA_VERSION, \
                 set the fingerprint to 0x{hash:016x}, and teach crates/replay the new \
                 version (or mark a non-serialized field with a `schema:` comment)"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let cfg = Config::default();
        let toks = tokenize(src);
        let mut out = Vec::new();
        check_file(&cfg, rel, &toks, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn aq001_fires_on_instant_but_not_in_comments_or_strings() {
        let f = run(
            "crates/netsim/src/engine.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert_eq!(rules_of(&f), vec!["AQ001"]);
        assert_eq!(f[0].line, 1);

        // Doc comments, line comments, strings, raw strings: all clean.
        let clean = run(
            "crates/netsim/src/engine.rs",
            r###"
/// The `Instant` at which the event fires (SystemTime analogy).
// Instant::now() would be wrong here.
fn f() {
    let s = "Instant::now()";
    let r = r#"SystemTime::now()"#;
    let _ = (s, r);
}
"###,
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn aq001_fires_even_in_test_mods() {
        let f = run(
            "crates/netsim/src/engine.rs",
            "#[cfg(test)]\nmod tests { fn f() { let _ = Instant::now(); } }",
        );
        assert_eq!(rules_of(&f), vec!["AQ001"]);
    }

    #[test]
    fn aq002_fires_on_thread_rng() {
        let f = run("crates/core/src/lib.rs", "let mut rng = thread_rng();");
        assert_eq!(rules_of(&f), vec!["AQ002"]);
        let clean = run("crates/core/src/lib.rs", "let rng = SimRng::new(seed);");
        assert!(clean.is_empty());
    }

    #[test]
    fn aq003_scoping() {
        let src = "fn f() { println!(\"x\"); }";
        assert_eq!(rules_of(&run("crates/core/src/lib.rs", src)), vec!["AQ003"]);
        // Exempt locations:
        assert!(run("crates/experiments/src/fig12.rs", src).is_empty());
        assert!(run("crates/telemetry/src/lib.rs", src).is_empty());
        assert!(run("crates/core/benches/micro.rs", src).is_empty());
        assert!(run("crates/experiments/src/bin/aequitas-sim.rs", src).is_empty());
        assert!(run("tests/integration.rs", src).is_empty());
        // Test mod inside a library crate:
        let in_test = "#[cfg(test)]\nmod tests { fn f() { println!(\"x\"); } }";
        assert!(run("crates/core/src/lib.rs", in_test).is_empty());
    }

    #[test]
    fn aq004_float_eq() {
        let f = run("crates/core/src/lib.rs", "if p == 1.0 { }");
        assert_eq!(rules_of(&f), vec!["AQ004"]);
        let f = run("crates/core/src/lib.rs", "if 0.5 != x { }");
        assert_eq!(rules_of(&f), vec!["AQ004"]);
        // Integers, orderings, and tolerance comparisons are fine.
        assert!(run("crates/core/src/lib.rs", "if p == 1 { }").is_empty());
        assert!(run("crates/core/src/lib.rs", "if p <= 1.0 { }").is_empty());
        assert!(run("crates/core/src/lib.rs", "if (p - 1.0).abs() < 1e-9 { }").is_empty());
        // Test code may assert exact floats.
        assert!(run(
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod t { fn f() { assert!(p == 1.0); } }"
        )
        .is_empty());
    }

    #[test]
    fn aq005_raw_time_arith() {
        let f = run(
            "crates/transport/src/swift.rs",
            "let x = t.as_ps() + d.as_ps();",
        );
        assert_eq!(rules_of(&f), vec!["AQ005"]);
        // Through a cast:
        let f = run(
            "crates/transport/src/swift.rs",
            "let x = (s.as_ps() as f64 * 0.875) as u64;",
        );
        assert_eq!(rules_of(&f), vec!["AQ005"]);
        // Comparisons and method calls on the raw value are fine.
        assert!(run("crates/transport/src/swift.rs", "if a.as_ps() < b.as_ps() { }").is_empty());
        assert!(run(
            "crates/transport/src/swift.rs",
            "let x = a.as_ps().saturating_mul(2);"
        )
        .is_empty());
        // sim-core implements the newtypes; raw arithmetic is its job.
        assert!(run("crates/sim-core/src/time.rs", "let x = t.as_ps() + 1;").is_empty());
    }

    #[test]
    fn aq006_naked_unwrap_scoped_to_hot_path() {
        let src = "fn f() { q.pop().unwrap(); }";
        assert_eq!(rules_of(&run("crates/netsim/src/port.rs", src)), vec!["AQ006"]);
        assert_eq!(rules_of(&run("crates/qdisc/src/wfq.rs", src)), vec!["AQ006"]);
        // expect() with a message is the sanctioned form.
        assert!(run(
            "crates/netsim/src/port.rs",
            "fn f() { q.pop().expect(\"kicked only when backlogged\"); }"
        )
        .is_empty());
        // Cold crates and tests may unwrap.
        assert!(run("crates/experiments/src/lib.rs", src).is_empty());
        assert!(run(
            "crates/netsim/src/port.rs",
            "#[cfg(test)]\nmod t { fn f() { q.pop().unwrap(); } }"
        )
        .is_empty());
    }

    #[test]
    fn aq007_allow_needs_comment() {
        let f = run(
            "crates/core/src/lib.rs",
            "#[allow(clippy::too_many_arguments)]\nfn f() {}",
        );
        assert_eq!(rules_of(&f), vec!["AQ007"]);
        assert!(run(
            "crates/core/src/lib.rs",
            "// the builder mirrors the paper's parameter table\n#[allow(clippy::too_many_arguments)]\nfn f() {}"
        )
        .is_empty());
        // Non-clippy allows (e.g. dead_code during staging) are clippy-free.
        assert!(run("crates/core/src/lib.rs", "#[allow(dead_code)]\nfn f() {}").is_empty());
    }

    #[test]
    fn aq008_hash_construction_needs_det_comment() {
        let f = run(
            "crates/core/src/quota.rs",
            "let m: HashMap<u64, f64> = HashMap::new();",
        );
        assert_eq!(rules_of(&f), vec!["AQ008"]);
        assert!(run(
            "crates/core/src/quota.rs",
            "// det: keyed access only, never iterated\nlet m: HashMap<u64, f64> = HashMap::new();"
        )
        .is_empty());
        // Type annotations alone (no construction) do not fire.
        assert!(run("crates/core/src/quota.rs", "fn f(m: &HashMap<u64, f64>) {}").is_empty());
    }

    #[test]
    fn aq009_and_aq010() {
        assert_eq!(
            rules_of(&run("crates/core/src/lib.rs", "unsafe { std::hint::unreachable_unchecked() }")),
            vec!["AQ009"]
        );
        // An unsafe trait impl is the only way to a counting allocator; only
        // an integration test may carry one.
        let counting = "unsafe impl GlobalAlloc for C {}\n#[global_allocator]\nstatic G: C = C;";
        assert!(run("tests/trace_alloc.rs", counting).is_empty());
        assert_eq!(rules_of(&run("crates/core/src/lib.rs", counting)), vec!["AQ009"]);
        assert_eq!(
            rules_of(&run("tests/other.rs", "unsafe impl Send for C {}")),
            vec!["AQ009"]
        );
        assert_eq!(
            rules_of(&run("crates/core/src/lib.rs", "fn f() { todo!() }")),
            vec!["AQ010"]
        );
        assert!(run(
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod t { fn f() { todo!() } }"
        )
        .is_empty());
    }

    #[test]
    fn aq011_hot_path_allocation() {
        // All three forms fire in a designated per-event module.
        let f = run(
            "crates/netsim/src/engine.rs",
            "fn f() { let b = Box::new(ev); let v = Vec::new(); let w = vec![0; 4]; }",
        );
        assert_eq!(rules_of(&f), vec!["AQ011", "AQ011", "AQ011"]);
        // with_capacity is the sanctioned preallocation.
        assert!(run(
            "crates/netsim/src/engine.rs",
            "fn f() { let v: Vec<u32> = Vec::with_capacity(1024); }"
        )
        .is_empty());
        // An `alloc:` justification on the line above escapes.
        assert!(run(
            "crates/qdisc/src/wfq.rs",
            "// alloc: once per port at setup, never per packet\nfn f() { let v = Vec::new(); }"
        )
        .is_empty());
        // Cold modules of hot crates (e.g. the topology builder) and other
        // crates are out of scope.
        let src = "fn f() { let v = vec![0; 4]; }";
        assert!(run("crates/netsim/src/topology.rs", src).is_empty());
        assert!(run("crates/experiments/src/slo.rs", src).is_empty());
        // Test code may allocate.
        assert!(run(
            "crates/netsim/src/engine.rs",
            "#[cfg(test)]\nmod t { fn f() { let v = vec![1]; } }"
        )
        .is_empty());
    }

    #[test]
    fn aq012_string_keyed_telemetry() {
        // Updates through interned handles are the sanctioned form.
        assert!(run(
            "crates/rpc/src/stack.rs",
            "fn f() { m.counter_add_id(id, 1); m.gauge_set_id(id, 1.0); m.hist_record_id(id, 5); }"
        )
        .is_empty());
        // Per-event label construction fires...
        let f = run(
            "crates/netsim/src/engine.rs",
            "fn f() { let l = format!(\"sw={i}\"); let e = String::new(); }",
        );
        assert_eq!(rules_of(&f), vec!["AQ012", "AQ012"]);
        // ...but a `metric:` justification escapes registration-time code.
        assert!(run(
            "crates/netsim/src/engine.rs",
            "// metric: one-time registration at wiring, not per event\nfn f() { let l = format!(\"sw={i}\"); }"
        )
        .is_empty());
        // Per-event to_json allocation fires; write_json into a scratch is
        // the sanctioned form.
        let f = run(
            "crates/telemetry/src/lib.rs",
            "fn f() { let s = event.to_json(seq, t); }",
        );
        assert_eq!(rules_of(&f), vec!["AQ012"]);
        assert!(run(
            "crates/telemetry/src/lib.rs",
            "fn f() { event.write_json(&mut scratch, seq, t); }"
        )
        .is_empty());
        // Cold modules and test code are out of scope.
        let src = "fn f() { let l = format!(\"sw={i}\"); }";
        assert!(run("crates/experiments/src/fig12.rs", src).is_empty());
        assert!(run(
            "crates/rpc/src/stack.rs",
            "#[cfg(test)]\nmod t { fn f() { let l = format!(\"sw={i}\"); } }"
        )
        .is_empty());
    }

    #[test]
    fn aq013_trace_schema_drift() {
        // A matching fingerprint is clean. (Value computed by hand below:
        // the rule hashes "A|.x" then "B|".)
        let body = "pub enum TraceEvent { A { x: u64 }, B }";
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in b"A|.xB|" {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let ok = format!("{body}\npub const TRACE_SCHEMA_FINGERPRINT: u64 = 0x{h:016x};");
        assert!(run(TRACE_SCHEMA_FILE, &ok).is_empty(), "{h:#x}");

        // Adding a field without touching the constant fires, and the
        // message carries the new fingerprint to paste.
        let drift = format!(
            "pub enum TraceEvent {{ A {{ x: u64, y: u64 }}, B }}\n\
             pub const TRACE_SCHEMA_FINGERPRINT: u64 = 0x{h:016x};"
        );
        let f = run(TRACE_SCHEMA_FILE, &drift);
        assert_eq!(rules_of(&f), vec!["AQ013"]);
        assert!(f[0].message.contains("bump TRACE_SCHEMA_VERSION"), "{}", f[0].message);

        // ...unless the new field carries a `schema:` justification.
        let justified = format!(
            "pub enum TraceEvent {{ A {{ x: u64,\n\
             // schema: in-memory only, never serialized\n\
             y: u64\n\
             }}, B }}\n\
             pub const TRACE_SCHEMA_FINGERPRINT: u64 = 0x{h:016x};"
        );
        assert!(run(TRACE_SCHEMA_FILE, &justified).is_empty());

        // The rule only guards the schema file.
        let elsewhere = "pub enum TraceEvent { A { x: u64, y: u64 }, B }";
        assert!(run("crates/replay/src/trace.rs", elsewhere).is_empty());

        // A missing constant is itself a finding.
        let f = run(TRACE_SCHEMA_FILE, body);
        assert_eq!(rules_of(&f), vec!["AQ013"]);
        assert!(f[0].message.contains("cannot find"), "{}", f[0].message);
    }

    #[test]
    fn config_allowlists_and_disables() {
        let cfg = Config::parse(
            "[global]\nallow = [\"vendor/**\"]\n[AQ001]\nallow = [\"crates/bench/**\"]\n[AQ009]\nenabled = false\n",
        )
        .unwrap();
        let check = |rel: &str, src: &str| -> Vec<Finding> {
            let toks = tokenize(src);
            let mut out = Vec::new();
            check_file(&cfg, rel, &toks, &mut out);
            out
        };
        // Global allow silences everything in vendor.
        assert!(check("vendor/criterion/src/lib.rs", "let t = Instant::now(); unsafe {}").is_empty());
        // Per-rule allow silences only that rule.
        assert!(check("crates/bench/src/lib.rs", "let t = Instant::now();").is_empty());
        assert_eq!(
            rules_of(&check("crates/bench/src/lib.rs", "unsafe {}")),
            Vec::<&str>::new(),
            "AQ009 disabled globally"
        );
        assert_eq!(
            rules_of(&check("crates/core/src/lib.rs", "let t = Instant::now();")),
            vec!["AQ001"]
        );
    }

    #[test]
    fn test_span_detection_handles_nested_braces() {
        let src = r#"
fn prod() { let x = 1.0; if x == 1.0 {} }
#[cfg(test)]
mod tests {
    fn deep() { if a { if b { assert!(x == 1.0); } } }
}
fn prod2() { if y == 2.0 {} }
"#;
        let f = run("crates/core/src/lib.rs", src);
        // Only the two non-test comparisons fire.
        assert_eq!(rules_of(&f), vec!["AQ004", "AQ004"]);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 7);
    }
}
