//! The AQ rule set.
//!
//! Every rule has a stable ID (`AQ004`..) so findings can be grepped in CI
//! logs. Only rules without an exact rustc or clippy twin live here; the
//! rest are `[workspace.lints]` entries and `clippy.toml` settings (DESIGN
//! §8.1 has the full table). Token rules operate on the token stream from
//! [`crate::lexer`]; they never see the inside of strings or comments, so
//! prose like "compare `as_ps() + 1`" cannot trip them.
//!
//! *Test code* means a `#[cfg(test)] mod` span inside a crate, or any file
//! under a `tests/` directory; the token rules skip it.

use crate::lexer::{Tok, TokKind};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule ID, e.g. `AQ004`.
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
        id: "AQ008",
        name: "unordered-iteration-hazard",
        desc: "HashMap/HashSet construction needs a `det:` comment arguing iteration order cannot leak into results",
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
        let test_spans = find_test_spans(toks, &code);
        FileCtx {
            rel,
            toks,
            code,
            test_spans,
            whole_file_test: crate::is_test_file(rel),
        }
    }

    /// Is this line inside test code?
    pub fn in_test(&self, line: u32) -> bool {
        self.whole_file_test || self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
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
                let end_line = if m < code.len() { t(m).line } else { u32::MAX };
                spans.push((start_line, end_line));
                i = j;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Run every token rule over one file.
pub fn check_file(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let ctx = FileCtx::new(rel, toks);
    aq004_float_exact_compare(&ctx, out);
    aq005_raw_time_arith(&ctx, out);
    aq008_unordered_iteration(&ctx, out);
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

/// AQ004: `==` / `!=` with a float-literal operand, in non-test code.
/// (clippy's `float_cmp` is the near-twin, but it also flags the exact
/// asserts tests rely on.)
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
    if ctx.rel.starts_with("crates/sim-core/") || ctx.rel.starts_with("crates/lint/") {
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
        if !crate::justified(ctx.toks, t.line, "det:") {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let toks = tokenize(src);
        let mut out = Vec::new();
        check_file(rel, &toks, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
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
        assert!(run(
            "crates/transport/src/swift.rs",
            "if a.as_ps() < b.as_ps() { }"
        )
        .is_empty());
        assert!(run(
            "crates/transport/src/swift.rs",
            "let x = a.as_ps().saturating_mul(2);"
        )
        .is_empty());
        // sim-core implements the newtypes; raw arithmetic is its job.
        assert!(run("crates/sim-core/src/time.rs", "let x = t.as_ps() + 1;").is_empty());
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
