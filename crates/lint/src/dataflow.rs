//! Cross-function dataflow passes (AQ014–AQ016).
//!
//! These run over the [`crate::workspace::Workspace`] call graph rather
//! than single token streams, so a nondeterminism source three calls below
//! a hot loop, or a `_ns` value handed to a `_ps` parameter in another
//! crate, is still a finding.
//!
//! - **AQ014 determinism taint** — sources (wall clock, ambient RNG,
//!   `HashMap`/`HashSet` iteration, pointer-address casts,
//!   `thread::current`) taint their containing function; taint propagates
//!   caller-ward over the reverse call graph; any tainted function in the
//!   engine/shard/quota hot region is reported with the full call chain.
//!   Findings are reported at the *boundary*: the hot function whose taint
//!   enters from outside the region (or holds the source itself), so one
//!   deep source yields one finding, not one per transitive hot caller.
//! - **AQ015 unit safety** — units (ps/ns/us time, bytes/bits data,
//!   raw-vs-per-MTU RNL) are inferred from identifier suffixes and
//!   conversion-accessor names; additive/comparison operators mixing units
//!   and call sites passing a value of one unit to a parameter named for
//!   another are findings. Identifiers naming *rates* (a time token and a
//!   data token together, e.g. `ps_per_bit`) and conversion helpers (two
//!   units of the same kind, e.g. `us_to_ps`) carry no single unit and are
//!   skipped.
//! - **AQ016 shard isolation** — everything reachable from
//!   `Engine::run_until` executes inside a sharded domain window
//!   concurrently with its siblings; such code must not touch shared-state
//!   primitives, spawn threads, or call the coordinator-only boundary API
//!   (`inject_arrival` / `take_outbox` / `domain_mut`). `ShardedEngine`
//!   itself *is* the sanctioned merge layer and is structurally exempt, as
//!   is `crates/telemetry` (per-domain handles; determinism is enforced by
//!   `tests/sharded_determinism.rs` and the PR 2 perturbation guard).
//!
//! Escapes mirror AQ008's: a `det:` / `unit:` / `shard:`
//! justification comment on the finding line (or the comment block above)
//! suppresses it. Test functions are never reported.

use crate::ast::{CallKind, CallSite, FnDef, Operand};
use crate::rules::Finding;
use crate::workspace::Workspace;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Run AQ014–AQ016 over the workspace graph.
pub fn run_passes(ws: &Workspace, out: &mut Vec<Finding>) {
    aq014_determinism_taint(ws, out);
    aq015_unit_safety(ws, out);
    aq016_shard_isolation(ws, out);
}

// AQ014 — determinism taint ------------------------------------------------

/// Map-iteration methods whose order is the hash order.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Ambient-RNG constructors/helpers.
const RNG_SOURCES: &[&str] = &["thread_rng", "from_entropy", "os_rng", "getrandom", "random"];

/// The hot region AQ014 protects: the per-packet simulation path plus the
/// admission-control decision makers whose outputs feed every figure.
fn aq014_hot_sink(rel: &str) -> bool {
    rel.starts_with("crates/sim-core/src/")
        || rel.starts_with("crates/netsim/src/")
        || rel.starts_with("crates/qdisc/src/")
        || rel.starts_with("crates/transport/src/")
        || rel == "crates/core/src/quota.rs"
        || rel == "crates/core/src/controller.rs"
}

/// Why a function is tainted.
enum Taint {
    /// The function itself contains a source.
    Source { line: u32, col: u32, desc: String },
    /// A call in its body may invoke a tainted callee.
    ViaCall {
        callee: usize,
        line: u32,
        col: u32,
        callee_name: String,
    },
}

/// Nondeterminism sources syntactically present in `def`'s body, minus
/// `det:`-justified ones. `file` indexes `ws.files` for comment lookups.
fn taint_sources(ws: &Workspace, file: usize, id: usize, def: &FnDef) -> Vec<(u32, u32, String)> {
    let mut srcs: Vec<(u32, u32, String)> = Vec::new();
    // A receiver chain names a map when it is a local/param bound to one,
    // or `self.<field>` where the surrounding impl's struct declares that
    // field as a map. Deeper chains are unresolvable and assumed clean —
    // struct-qualification beats the global-name over-approximation that
    // misfired on every `Vec` field that shares a name with some map.
    let hashy = |chain: &[String]| -> bool {
        match chain {
            [name] => ws.fns[id].hashy_locals.contains(name),
            [head, field] if head == "self" => def
                .impl_ty
                .as_ref()
                .map(|ty| ws.hashy_fields.contains(&(ty.clone(), field.clone())))
                .unwrap_or(false),
            _ => false,
        }
    };
    for c in &def.body.calls {
        match &c.kind {
            CallKind::Qualified(q) if (q == "Instant" || q == "SystemTime") && c.name == "now" => {
                srcs.push((c.line, c.col, format!("wall-clock read `{q}::now()`")));
            }
            CallKind::Qualified(q) if q == "thread" && c.name == "current" => {
                srcs.push((c.line, c.col, "`thread::current()` identity read".into()));
            }
            _ if RNG_SOURCES.contains(&c.name.as_str()) => {
                srcs.push((c.line, c.col, format!("ambient RNG `{}()`", c.name)));
            }
            _ if c.name == "available_parallelism" => {
                srcs.push((
                    c.line,
                    c.col,
                    "`available_parallelism()` is host-dependent".into(),
                ));
            }
            CallKind::Method(recv)
                if MAP_ITER_METHODS.contains(&c.name.as_str()) && hashy(recv) =>
            {
                srcs.push((
                    c.line,
                    c.col,
                    format!(
                        "HashMap/HashSet iteration order (`{}.{}()`)",
                        recv.join("."),
                        c.name
                    ),
                ));
            }
            _ => {}
        }
    }
    for f in &def.body.for_iters {
        if !f.iter.last_is_call && hashy(&f.iter.chain) {
            srcs.push((
                f.line,
                f.col,
                format!(
                    "HashMap/HashSet iteration order (`for .. in {}`)",
                    f.iter.chain.join(".")
                ),
            ));
        }
    }
    for &(line, col) in &def.body.ptr_casts {
        srcs.push((line, col, "pointer-address cast (allocation-dependent)".into()));
    }
    for w in &def.body.watched {
        if w.name == "RandomState" {
            srcs.push((w.line, w.col, "`RandomState` seeds per-process hashing".into()));
        }
    }
    srcs.retain(|&(line, _, _)| !ws.justified(file, line, "det:"));
    srcs
}

fn aq014_determinism_taint(ws: &Workspace, out: &mut Vec<Finding>) {
    // Seed: every function containing an unjustified source.
    let mut taint: BTreeMap<usize, Taint> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for id in 0..ws.fns.len() {
        let node = &ws.fns[id];
        if let Some(&(line, col, ref desc)) =
            taint_sources(ws, node.file, id, &node.def).first()
        {
            taint.insert(
                id,
                Taint::Source {
                    line,
                    col,
                    desc: desc.clone(),
                },
            );
            queue.push_back(id);
        }
    }

    // Propagate caller-ward to a fixed point (BFS; deterministic because
    // seeds and caller lists are in function-id order).
    while let Some(t) = queue.pop_front() {
        for &(caller, call_idx) in &ws.callers[t] {
            if taint.contains_key(&caller) {
                continue;
            }
            let site: &CallSite = &ws.fns[caller].def.body.calls[call_idx];
            taint.insert(
                caller,
                Taint::ViaCall {
                    callee: t,
                    line: site.line,
                    col: site.col,
                    callee_name: site.name.clone(),
                },
            );
            queue.push_back(caller);
        }
    }

    // Report at the boundary: hot functions whose taint is local or enters
    // from a non-hot callee. A hot fn tainted only via another hot fn is
    // covered by that fn's finding.
    for (&id, cause) in &taint {
        let node = &ws.fns[id];
        let rel = ws.path(id);
        if node.def.is_test || !aq014_hot_sink(rel) {
            continue;
        }
        match cause {
            Taint::Source { line, col, desc } => out.push(Finding {
                rule: "AQ014",
                path: rel.to_string(),
                line: *line,
                col: *col,
                message: format!(
                    "nondeterminism source in hot function `{}`: {desc}; fix it or justify with a `det:` comment",
                    ws.display(id)
                ),
            }),
            Taint::ViaCall {
                callee,
                line,
                col,
                callee_name,
            } => {
                if aq014_hot_sink(ws.path(*callee)) {
                    continue; // boundary finding lands on the callee
                }
                if ws.justified(node.file, *line, "det:") {
                    continue;
                }
                out.push(Finding {
                    rule: "AQ014",
                    path: rel.to_string(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "hot function `{}` calls `{callee_name}` which transitively reaches a nondeterminism source ({}); fix the source or justify with a `det:` comment",
                        ws.display(id),
                        taint_chain(ws, &taint, *callee),
                    ),
                });
            }
        }
    }
}

/// Render the taint chain from `start` down to its source, capped.
fn taint_chain(ws: &Workspace, taint: &BTreeMap<usize, Taint>, start: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut cur = start;
    for _ in 0..8 {
        parts.push(ws.display(cur));
        match taint.get(&cur) {
            Some(Taint::ViaCall { callee, .. }) => cur = *callee,
            Some(Taint::Source { line, desc, .. }) => {
                parts.push(format!("{desc} at {}:{line}", ws.path(cur)));
                return parts.join(" -> ");
            }
            None => break,
        }
    }
    parts.push("...".into());
    parts.join(" -> ")
}

// AQ015 — unit safety ------------------------------------------------------

/// A quantity's inferred dimension signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct UnitSig {
    /// `ps` / `ns` / `us`.
    time: Option<&'static str>,
    /// `bytes` / `bits`.
    data: Option<&'static str>,
    /// The name mentions RNL.
    rnl: bool,
    /// Normalized per MTU.
    per_mtu: bool,
}

/// Infer the unit of an identifier (or accessor-method name) from its
/// `_`-separated tokens. Returns `None` for unitless names, rates (time ×
/// data), and conversions (two units of the same kind).
fn unit_of_name(name: &str) -> Option<UnitSig> {
    let lower = name.to_ascii_lowercase();
    let mut time: Option<&'static str> = None;
    let mut data: Option<&'static str> = None;
    let mut time_conflict = false;
    let mut data_conflict = false;
    let mut rnl = false;
    let mut per_mtu = false;
    for tok in lower.split('_') {
        let t = match tok {
            "ps" => Some("ps"),
            "ns" => Some("ns"),
            "us" => Some("us"),
            _ => None,
        };
        if let Some(t) = t {
            if time.is_some() && time != Some(t) {
                time_conflict = true;
            }
            time = Some(t);
        }
        let d = match tok {
            "bytes" | "byte" => Some("bytes"),
            "bits" | "bit" => Some("bits"),
            _ => None,
        };
        if let Some(d) = d {
            if data.is_some() && data != Some(d) {
                data_conflict = true;
            }
            data = Some(d);
        }
        if tok == "rnl" {
            rnl = true;
        }
        if tok == "mtu" {
            per_mtu = true;
        }
    }
    // Conversions (`us_to_ps`, `bytes_to_bits`) and rates (`ps_per_bit`,
    // `bytes_per_us`) have no single unit.
    if time_conflict || data_conflict || (time.is_some() && data.is_some()) {
        return None;
    }
    if time.is_none() && data.is_none() && !rnl {
        return None;
    }
    Some(UnitSig {
        time,
        data,
        rnl,
        per_mtu,
    })
}

/// Infer the unit an operand's value carries.
fn unit_of_operand(op: &Operand) -> Option<UnitSig> {
    if op.literal {
        return None;
    }
    let last = op.last()?;
    if op.last_is_call {
        // Constructors consume a unit but *produce* an opaque newtype.
        if last.starts_with("from_") || last == "new" {
            return None;
        }
    }
    unit_of_name(last)
}

/// Describe a signature for messages (`ps`, `bytes`, `raw RNL`, `RNL/MTU`).
fn sig_desc(s: UnitSig) -> String {
    let mut parts: Vec<&str> = Vec::new();
    if let Some(t) = s.time {
        parts.push(t);
    }
    if let Some(d) = s.data {
        parts.push(d);
    }
    if s.rnl {
        parts.push(if s.per_mtu { "RNL-per-MTU" } else { "raw RNL" });
    } else if s.per_mtu {
        parts.push("per-MTU");
    }
    parts.join(" ")
}

/// Do two signatures clash?
fn units_clash(a: UnitSig, b: UnitSig) -> bool {
    if let (Some(ta), Some(tb)) = (a.time, b.time) {
        if ta != tb {
            return true;
        }
    }
    if let (Some(da), Some(db)) = (a.data, b.data) {
        if da != db {
            return true;
        }
    }
    // A pure-time quantity mixed with a pure-data quantity.
    if a.time.is_some() && a.data.is_none() && b.data.is_some() && b.time.is_none() {
        return true;
    }
    if b.time.is_some() && b.data.is_none() && a.data.is_some() && a.time.is_none() {
        return true;
    }
    // Raw RNL vs per-MTU-normalized RNL.
    if a.rnl && b.rnl && a.per_mtu != b.per_mtu {
        return true;
    }
    false
}

fn aq015_unit_safety(ws: &Workspace, out: &mut Vec<Finding>) {
    for id in 0..ws.fns.len() {
        let node = &ws.fns[id];
        let rel = ws.path(id);
        if node.def.is_test {
            continue;
        }
        // Intra-function: additive/comparison operators mixing units.
        for b in &node.def.body.binops {
            let (Some(lu), Some(ru)) = (unit_of_operand(&b.lhs), unit_of_operand(&b.rhs)) else {
                continue;
            };
            if !units_clash(lu, ru) || ws.justified(node.file, b.line, "unit:") {
                continue;
            }
            out.push(Finding {
                rule: "AQ015",
                path: rel.to_string(),
                line: b.line,
                col: b.col,
                message: format!(
                    "`{}` mixes units: `{}` ({}) vs `{}` ({}); convert explicitly or justify with a `unit:` comment",
                    b.op,
                    b.lhs.chain.join("."),
                    sig_desc(lu),
                    b.rhs.chain.join("."),
                    sig_desc(ru),
                ),
            });
        }
        // Cross-function: argument unit vs callee parameter-name unit.
        for e in &node.callees {
            let site = &node.def.body.calls[e.call];
            let callee = &ws.fns[e.callee];
            // Only trust unambiguous resolutions: every same-call candidate
            // must agree on the param units, which holds trivially when the
            // edge set for this call has one target.
            if node
                .callees
                .iter()
                .filter(|e2| e2.call == e.call)
                .count()
                != 1
            {
                continue;
            }
            for (ai, arg) in site.args.iter().enumerate() {
                let Some(param) = callee.def.params.get(ai) else {
                    break;
                };
                let (Some(au), Some(pu)) = (unit_of_operand(arg), unit_of_name(&param.name))
                else {
                    continue;
                };
                if !units_clash(au, pu) || ws.justified(node.file, site.line, "unit:") {
                    continue;
                }
                out.push(Finding {
                    rule: "AQ015",
                    path: rel.to_string(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "passes `{}` ({}) to parameter `{}` ({}) of `{}`; convert explicitly or justify with a `unit:` comment",
                        arg.chain.join("."),
                        sig_desc(au),
                        param.name,
                        sig_desc(pu),
                        ws.display(e.callee),
                    ),
                });
            }
        }
    }
}

// AQ016 — shard isolation --------------------------------------------------

/// Crates whose code runs *inside* a domain window when reachable from
/// `Engine::run_until`. Telemetry is deliberately absent: domains own
/// per-domain handles and the determinism tests pin its behavior.
const DOMAIN_CRATES: &[&str] = &[
    "sim-core", "netsim", "qdisc", "transport", "rpc", "core", "faults", "workloads",
];

/// Method/atomic names that imply shared-state access.
const SHARED_STATE_CALLS: &[&str] = &[
    "lock",
    "try_lock",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Coordinator-only boundary-merge API on `Engine`.
const BOUNDARY_API: &[&str] = &["inject_arrival", "take_outbox", "domain_mut"];

fn in_domain_crate(rel: &str) -> bool {
    DOMAIN_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

fn aq016_shard_isolation(ws: &Workspace, out: &mut Vec<Finding>) {
    // Entry points: Engine::run_until impls (the per-domain window body).
    let Some(entries) = ws
        .by_impl
        .get(&("Engine".to_string(), "run_until".to_string()))
    else {
        return;
    };
    let mut reachable: BTreeMap<usize, bool> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in entries {
        if !ws.fns[e].def.is_test && reachable.insert(e, true).is_none() {
            queue.push_back(e);
        }
    }
    while let Some(f) = queue.pop_front() {
        for e in &ws.fns[f].callees {
            // The coordinator is the sanctioned merge layer; edges into it
            // are name-collision artifacts, not window-body code.
            if ws.fns[e.callee].def.impl_ty.as_deref() == Some("ShardedEngine") {
                continue;
            }
            if reachable.insert(e.callee, true).is_none() {
                queue.push_back(e.callee);
            }
        }
    }

    for &id in reachable.keys() {
        let node = &ws.fns[id];
        let rel = ws.path(id);
        if node.def.is_test || !in_domain_crate(rel) {
            continue;
        }
        let fname = ws.display(id);
        let mut report = |line: u32, col: u32, what: String| {
            if ws.justified(node.file, line, "shard:") {
                return;
            }
            out.push(Finding {
                rule: "AQ016",
                path: rel.to_string(),
                line,
                col,
                message: format!(
                    "`{fname}` runs inside a sharded domain window (reachable from Engine::run_until) but {what}; route through the ShardedEngine boundary merge or justify with a `shard:` comment"
                ),
            });
        };
        for w in &node.def.body.watched {
            if w.name != "RandomState" {
                report(
                    w.line,
                    w.col,
                    format!("uses shared-state primitive `{}`", w.name),
                );
            }
        }
        for c in &node.def.body.calls {
            if matches!(c.kind, CallKind::Method(_))
                && SHARED_STATE_CALLS.contains(&c.name.as_str())
            {
                report(c.line, c.col, format!("calls `.{}()`", c.name));
            }
            if c.name == "spawn" || (c.kind == CallKind::Qualified("thread".into()) && c.name == "scope")
            {
                report(c.line, c.col, format!("creates threads via `{}`", c.name));
            }
            if BOUNDARY_API.contains(&c.name.as_str()) {
                report(
                    c.line,
                    c.col,
                    format!("calls coordinator-only boundary API `{}`", c.name),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_inference_from_suffixes() {
        assert_eq!(unit_of_name("deadline_ps").unwrap().time, Some("ps"));
        assert_eq!(unit_of_name("budget_ns").unwrap().time, Some("ns"));
        assert_eq!(unit_of_name("slo_us").unwrap().time, Some("us"));
        assert_eq!(unit_of_name("len_bytes").unwrap().data, Some("bytes"));
        assert_eq!(unit_of_name("wire_bits").unwrap().data, Some("bits"));
        assert!(unit_of_name("as_ns_f64").unwrap().time == Some("ns"));
        let rnl = unit_of_name("rnl_per_mtu").unwrap();
        assert!(rnl.rnl && rnl.per_mtu);
        let raw = unit_of_name("rnl_sum").unwrap();
        assert!(raw.rnl && !raw.per_mtu);
    }

    #[test]
    fn rates_and_conversions_have_no_unit() {
        assert!(unit_of_name("ps_per_bit").is_none());
        assert!(unit_of_name("bytes_per_us").is_none());
        assert!(unit_of_name("us_to_ps").is_none());
        assert!(unit_of_name("bytes_to_bits").is_none());
        assert!(unit_of_name("count").is_none());
    }

    #[test]
    fn clash_matrix() {
        let u = |n: &str| unit_of_name(n).unwrap();
        assert!(units_clash(u("a_ps"), u("b_ns")));
        assert!(units_clash(u("a_bytes"), u("b_bits")));
        assert!(units_clash(u("a_ps"), u("b_bytes")));
        assert!(units_clash(u("rnl_raw"), u("rnl_per_mtu")));
        assert!(!units_clash(u("a_ps"), u("b_ps")));
        assert!(!units_clash(u("a_bytes"), u("b_bytes")));
        assert!(!units_clash(u("rnl_per_mtu"), u("x_rnl_mtu_norm")));
    }
}
