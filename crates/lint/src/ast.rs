//! A lightweight item/fn/expr AST over the [`crate::lexer`] token stream.
//!
//! This is not a full Rust parser — it recovers exactly the structure the
//! dataflow passes (AQ014–AQ016) need, and degrades gracefully on anything
//! it does not understand (unknown tokens are skipped, never mis-bound):
//!
//! - the **item tree**: functions (free, inherent, trait), with signatures
//!   (parameter names and type text, return type text), `impl`/`trait`
//!   targets, and `#[cfg(test)]` / `#[test]` scoping;
//! - **struct fields** with their type text (so `self.flows.iter()` can be
//!   traced back to a `HashMap` field);
//! - per-function **body events**: call sites (free / qualified / method,
//!   with receiver chains and simplified argument operands), `let`
//!   bindings, `for`-loop iteration targets, additive/comparison binary
//!   operators with their operand chains, pointer-address casts, and uses
//!   of watched concurrency primitives.
//!
//! Everything is positioned (1-based line/col) so findings point at real
//! source locations. The parser only ever walks forward or matches
//! brackets, so malformed input terminates.

use crate::lexer::{Tok, TokKind};

/// A parameter in a function signature.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`""` for destructuring patterns).
    pub name: String,
    /// Type text, space-joined tokens (e.g. `& mut HashMap < u64 , f64 >`).
    pub ty: String,
}

/// A simplified operand: the trailing simple chain of an expression.
///
/// `self.flows.iter()` → chain `["self", "flows", "iter"]` with
/// `last_is_call`; `dur_ps` → chain `["dur_ps"]`; `3.5` → `literal`.
/// Complex sub-expressions yield an empty chain.
#[derive(Debug, Clone, Default)]
pub struct Operand {
    /// The `.`/`::`-separated simple chain, outermost first.
    pub chain: Vec<String>,
    /// True when the last chain element is invoked with `(...)`.
    pub last_is_call: bool,
    /// True when the operand is a bare literal.
    pub literal: bool,
}

impl Operand {
    /// Last chain element, if any.
    pub fn last(&self) -> Option<&str> {
        self.chain.last().map(|s| s.as_str())
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)` — a free function call.
    Free,
    /// `Qual::foo(...)` — the immediate qualifier segment is recorded.
    Qualified(String),
    /// `recv.foo(...)` — the receiver chain (possibly empty) is recorded.
    Method(Vec<String>),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment).
    pub name: String,
    /// Free / qualified / method.
    pub kind: CallKind,
    /// Top-level argument operands (simplified; empty chain when complex).
    pub args: Vec<Operand>,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
}

/// A `let` binding.
#[derive(Debug, Clone)]
pub struct LetBind {
    /// Binding name (`""` for destructuring patterns).
    pub name: String,
    /// Declared type text, when annotated.
    pub ty: Option<String>,
    /// Simplified initializer operand (e.g. `HashMap::new()` →
    /// chain `["HashMap", "new"]`).
    pub init: Operand,
    /// 1-based line of the `let`.
    pub line: u32,
}

/// A `for <pat> in <expr>` loop's iteration target.
#[derive(Debug, Clone)]
pub struct ForIter {
    /// Simplified iterated operand.
    pub iter: Operand,
    /// 1-based line of the `for`.
    pub line: u32,
    /// 1-based column of the `for`.
    pub col: u32,
}

/// A binary operator with simplified operands. Only additive and
/// comparison operators are recorded (multiplicative operators legally mix
/// units; assignments and logical operators carry no unit information).
#[derive(Debug, Clone)]
pub struct BinOp {
    /// Operator text: `+ - += -= < > <= >= == !=`.
    pub op: &'static str,
    /// Left operand.
    pub lhs: Operand,
    /// Right operand.
    pub rhs: Operand,
    /// 1-based line of the operator.
    pub line: u32,
    /// 1-based column of the operator.
    pub col: u32,
}

/// A watched identifier use (concurrency/shared-state primitives and
/// ambient-nondeterminism types the dataflow passes care about).
#[derive(Debug, Clone)]
pub struct WatchedIdent {
    /// The identifier text.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Everything extracted from one function body.
#[derive(Debug, Clone, Default)]
pub struct Body {
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
    /// `let` bindings.
    pub lets: Vec<LetBind>,
    /// `for`-loop iteration targets.
    pub for_iters: Vec<ForIter>,
    /// Additive/comparison binary operators.
    pub binops: Vec<BinOp>,
    /// `as *const` / `as *mut` cast sites (pointer-address observation).
    pub ptr_casts: Vec<(u32, u32)>,
    /// Watched identifier uses.
    pub watched: Vec<WatchedIdent>,
}

/// A parsed function (free function, inherent/trait method, or default
/// trait method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// `impl`/`trait` target type name, when inside one.
    pub impl_ty: Option<String>,
    /// True for methods taking any `self` form.
    pub has_self: bool,
    /// Parameters (excluding `self`).
    pub params: Vec<Param>,
    /// True when the function is test code (`#[cfg(test)]` mod, `#[test]`
    /// attribute, or a whole-file test).
    pub is_test: bool,
    /// Extracted body events (empty for bodyless trait declarations).
    pub body: Body,
}

/// A struct field declaration.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Owning struct name.
    pub struct_name: String,
    /// Field name.
    pub name: String,
    /// Type text, space-joined tokens.
    pub ty: String,
}

/// The parsed view of one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// All functions, in source order.
    pub fns: Vec<FnDef>,
    /// All struct fields.
    pub fields: Vec<FieldDecl>,
}

/// Keywords that look like call names when followed by `(`.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "break",
    "continue", "where", "impl", "dyn", "ref", "mut", "box", "await", "yield",
];

/// Identifiers the dataflow passes watch for (shared-state primitives and
/// ambient-nondeterminism types). Recorded wherever they appear in a body.
const WATCHED: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "mpsc",
    "OnceLock",
    "RandomState",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

/// Parse one file. `whole_file_test` marks integration-test files whose
/// every function is test code.
pub fn parse_file(toks: &[Tok], whole_file_test: bool) -> ParsedFile {
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let mut out = ParsedFile::default();
    let p = Parser { toks, code: &code };
    p.parse_items(0, code.len(), &ItemCtx {
        in_test: whole_file_test,
        impl_ty: None,
    }, &mut out);
    out
}

struct ItemCtx {
    in_test: bool,
    impl_ty: Option<String>,
}

struct Parser<'a> {
    toks: &'a [Tok],
    code: &'a [usize],
}

impl<'a> Parser<'a> {
    fn t(&self, i: usize) -> &Tok {
        &self.toks[self.code[i]]
    }

    fn text(&self, i: usize) -> &str {
        &self.t(i).text
    }

    /// Find the matching close bracket for the opener at `i` (which must be
    /// `{`, `(`, or `[`). Returns the index of the closer, or `end` when
    /// unbalanced.
    fn match_bracket(&self, i: usize, end: usize) -> usize {
        let (open, close) = match self.text(i) {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => return i,
        };
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        end
    }

    /// Skip a balanced generic argument list starting at `<` (index `i`),
    /// guarding against `->` inside `Fn() -> T` bounds. Returns the index
    /// one past the closing `>`.
    fn skip_generics(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    // `->` does not close a generic list.
                    if j > 0 && self.text(j - 1) == "-" && self.adjacent(j - 1, j) {
                        j += 1;
                        continue;
                    }
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                "(" | "[" | "{" => {
                    j = self.match_bracket(j, end);
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Are code tokens `a` and `b` byte-adjacent on the same line?
    fn adjacent(&self, a: usize, b: usize) -> bool {
        let (ta, tb) = (self.t(a), self.t(b));
        ta.line == tb.line && tb.col == ta.col + ta.text.len() as u32
    }

    /// Parse items in `[i, end)` under `ctx`.
    fn parse_items(&self, mut i: usize, end: usize, ctx: &ItemCtx, out: &mut ParsedFile) {
        // Attribute state: set by `#[...]`, consumed by the next item.
        let mut attr_test = false;
        while i < end {
            match self.text(i) {
                "#" => {
                    // `#[...]` or `#![...]`: collect, detect cfg(test)/test.
                    let mut j = i + 1;
                    if j < end && self.text(j) == "!" {
                        j += 1;
                    }
                    if j < end && self.text(j) == "[" {
                        let close = self.match_bracket(j, end);
                        let body: Vec<&str> =
                            (j + 1..close).map(|k| self.text(k)).collect();
                        if body.first() == Some(&"cfg") && body.contains(&"test") {
                            attr_test = true;
                        }
                        if body.len() == 1 && body[0] == "test" {
                            attr_test = true;
                        }
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                "pub" => {
                    i += 1;
                    if i < end && self.text(i) == "(" {
                        i = self.match_bracket(i, end) + 1;
                    }
                }
                "unsafe" | "async" | "extern" | "default" => i += 1,
                "const" | "static" => {
                    // `const fn` is a prefix; `const NAME: ... = ...;` is an
                    // item to skip.
                    if i + 1 < end && self.text(i + 1) == "fn" {
                        i += 1;
                    } else {
                        i = self.skip_to_semi(i, end);
                        attr_test = false;
                    }
                }
                "fn" => {
                    let is_test = ctx.in_test || attr_test;
                    attr_test = false;
                    i = self.parse_fn(i, end, ctx, is_test, out);
                }
                "mod" => {
                    let mod_test = ctx.in_test || attr_test;
                    attr_test = false;
                    // `mod name { ... }` or `mod name;`
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if j < end && self.text(j) == "{" {
                        let close = self.match_bracket(j, end);
                        self.parse_items(
                            j + 1,
                            close,
                            &ItemCtx {
                                in_test: mod_test,
                                impl_ty: ctx.impl_ty.clone(),
                            },
                            out,
                        );
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "impl" => {
                    attr_test = false;
                    i = self.parse_impl(i, end, ctx, out);
                }
                "trait" => {
                    attr_test = false;
                    let name = if i + 1 < end && self.t(i + 1).kind == TokKind::Ident {
                        Some(self.text(i + 1).to_string())
                    } else {
                        None
                    };
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        if self.text(j) == "<" {
                            j = self.skip_generics(j, end);
                            continue;
                        }
                        j += 1;
                    }
                    if j < end && self.text(j) == "{" {
                        let close = self.match_bracket(j, end);
                        self.parse_items(
                            j + 1,
                            close,
                            &ItemCtx {
                                in_test: ctx.in_test,
                                impl_ty: name,
                            },
                            out,
                        );
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "struct" => {
                    attr_test = false;
                    i = self.parse_struct(i, end, out);
                }
                "enum" | "union" => {
                    attr_test = false;
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        if self.text(j) == "<" {
                            j = self.skip_generics(j, end);
                            continue;
                        }
                        j += 1;
                    }
                    i = if j < end && self.text(j) == "{" {
                        self.match_bracket(j, end) + 1
                    } else {
                        j + 1
                    };
                }
                "macro_rules" => {
                    attr_test = false;
                    // `macro_rules! name { ... }` — never parse the body.
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" {
                        j += 1;
                    }
                    i = if j < end {
                        self.match_bracket(j, end) + 1
                    } else {
                        end
                    };
                }
                "use" | "type" => {
                    attr_test = false;
                    i = self.skip_to_semi(i, end);
                }
                _ => {
                    i += 1;
                }
            }
        }
    }

    /// Skip to one past the next `;` at bracket depth 0.
    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            match self.text(i) {
                ";" => return i + 1,
                "{" | "(" | "[" => i = self.match_bracket(i, end) + 1,
                _ => i += 1,
            }
        }
        end
    }

    /// Parse `impl<G> Type {..}` / `impl<G> Trait for Type {..}`.
    fn parse_impl(&self, i: usize, end: usize, ctx: &ItemCtx, out: &mut ParsedFile) -> usize {
        let mut j = i + 1;
        if j < end && self.text(j) == "<" {
            j = self.skip_generics(j, end);
        }
        // Scan the header up to `{`, noting the last ident before `{` or
        // after `for` as the implementing type.
        let mut ty: Option<String> = None;
        let mut after_for = false;
        while j < end {
            match self.text(j) {
                "{" => break,
                "for" => {
                    after_for = true;
                    ty = None;
                    j += 1;
                }
                "<" => j = self.skip_generics(j, end),
                "where" => {
                    while j < end && self.text(j) != "{" {
                        if self.text(j) == "<" {
                            j = self.skip_generics(j, end);
                            continue;
                        }
                        j += 1;
                    }
                }
                _ => {
                    if self.t(j).kind == TokKind::Ident
                        && (ty.is_none() || !after_for)
                        && !matches!(self.text(j), "dyn" | "mut")
                    {
                        // First ident (or first after `for`) is the target.
                        if ty.is_none() {
                            ty = Some(self.text(j).to_string());
                        }
                    }
                    j += 1;
                }
            }
        }
        if j >= end || self.text(j) != "{" {
            return j;
        }
        let close = self.match_bracket(j, end);
        self.parse_items(
            j + 1,
            close,
            &ItemCtx {
                in_test: ctx.in_test,
                impl_ty: ty,
            },
            out,
        );
        close + 1
    }

    /// Parse `struct Name { fields }` (named-field form; tuple/unit
    /// structs carry no field names to index).
    fn parse_struct(&self, i: usize, end: usize, out: &mut ParsedFile) -> usize {
        let name = if i + 1 < end && self.t(i + 1).kind == TokKind::Ident {
            self.text(i + 1).to_string()
        } else {
            return i + 1;
        };
        let mut j = i + 2;
        while j < end && !matches!(self.text(j), "{" | "(" | ";") {
            if self.text(j) == "<" {
                j = self.skip_generics(j, end);
                continue;
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        match self.text(j) {
            "(" => self.skip_to_semi(self.match_bracket(j, end), end),
            ";" => j + 1,
            _ => {
                let close = self.match_bracket(j, end);
                // Fields: `[pub] name : ty ,` at depth 1.
                let mut k = j + 1;
                while k < close {
                    match self.text(k) {
                        "#" => {
                            let mut m = k + 1;
                            if m < close && self.text(m) == "[" {
                                m = self.match_bracket(m, close);
                            }
                            k = m + 1;
                        }
                        "pub" => {
                            k += 1;
                            if k < close && self.text(k) == "(" {
                                k = self.match_bracket(k, close) + 1;
                            }
                        }
                        _ => {
                            if self.t(k).kind == TokKind::Ident
                                && k + 1 < close
                                && self.text(k + 1) == ":"
                                && (k + 2 >= close || self.text(k + 2) != ":")
                            {
                                let fname = self.text(k).to_string();
                                // Type text runs to the next depth-0 comma.
                                let mut m = k + 2;
                                let mut ty = String::new();
                                while m < close {
                                    match self.text(m) {
                                        "," => break,
                                        "<" => {
                                            let e = self.skip_generics(m, close);
                                            for x in m..e {
                                                if !ty.is_empty() {
                                                    ty.push(' ');
                                                }
                                                ty.push_str(self.text(x));
                                            }
                                            m = e;
                                            continue;
                                        }
                                        "(" | "[" => {
                                            let e = self.match_bracket(m, close);
                                            for x in m..=e.min(close - 1) {
                                                if !ty.is_empty() {
                                                    ty.push(' ');
                                                }
                                                ty.push_str(self.text(x));
                                            }
                                            m = e + 1;
                                            continue;
                                        }
                                        t => {
                                            if !ty.is_empty() {
                                                ty.push(' ');
                                            }
                                            ty.push_str(t);
                                            m += 1;
                                        }
                                    }
                                }
                                out.fields.push(FieldDecl {
                                    struct_name: name.clone(),
                                    name: fname,
                                    ty,
                                });
                                k = m;
                            } else {
                                k += 1;
                            }
                        }
                    }
                }
                close + 1
            }
        }
    }

    /// Parse a `fn` item starting at index `i` (the `fn` keyword).
    /// Returns the index one past the item.
    fn parse_fn(
        &self,
        i: usize,
        end: usize,
        ctx: &ItemCtx,
        is_test: bool,
        out: &mut ParsedFile,
    ) -> usize {
        let mut j = i + 1;
        if j >= end || self.t(j).kind != TokKind::Ident {
            return i + 1;
        }
        let name = self.text(j).to_string();
        j += 1;
        if j < end && self.text(j) == "<" {
            j = self.skip_generics(j, end);
        }
        if j >= end || self.text(j) != "(" {
            return j;
        }
        let close_paren = self.match_bracket(j, end);
        let (params, has_self) = self.parse_params(j + 1, close_paren);
        // Skip the return type and any `where` clause to the body.
        let mut k = close_paren + 1;
        while k < end && !matches!(self.text(k), "{" | ";") {
            if self.text(k) == "<" {
                k = self.skip_generics(k, end);
                continue;
            }
            k += 1;
        }
        let (body, next) = if k < end && self.text(k) == "{" {
            let close = self.match_bracket(k, end);
            (self.extract_body(k + 1, close), close + 1)
        } else {
            (Body::default(), k.min(end) + 1)
        };
        out.fns.push(FnDef {
            name,
            impl_ty: ctx.impl_ty.clone(),
            has_self,
            params,
            is_test,
            body,
        });
        // Nested items inside the body (rare `fn`-in-`fn`) are deliberately
        // not re-parsed as items; their calls attribute to the outer fn.
        next
    }

    /// Parse a parameter list in `[i, end)` (exclusive of the parens).
    fn parse_params(&self, i: usize, end: usize) -> (Vec<Param>, bool) {
        let mut params = Vec::new();
        let mut has_self = false;
        let mut start = i;
        let mut j = i;
        let flush = |p: &Parser, s: usize, e: usize, params: &mut Vec<Param>, has_self: &mut bool| {
            if s >= e {
                return;
            }
            let texts: Vec<&str> = (s..e).map(|k| p.text(k)).collect();
            if texts.contains(&"self") {
                *has_self = true;
                return;
            }
            // Split at the first top-level `:` that is not part of `::`.
            let mut colon = None;
            let mut k = s;
            let mut idx = 0usize;
            while k < e {
                match p.text(k) {
                    ":" => {
                        let part_of_path = (k + 1 < e && p.text(k + 1) == ":")
                            || (k > s && p.text(k - 1) == ":");
                        if !part_of_path {
                            colon = Some(idx);
                            break;
                        }
                        k += 1;
                        idx += 1;
                    }
                    "<" => {
                        let n = p.skip_generics(k, e);
                        idx += n - k;
                        k = n;
                    }
                    "(" | "[" | "{" => {
                        let n = p.match_bracket(k, e) + 1;
                        idx += n - k;
                        k = n;
                    }
                    _ => {
                        k += 1;
                        idx += 1;
                    }
                }
            }
            let Some(c) = colon else { return };
            let pat = &texts[..c];
            let ty = texts[c + 1..].join(" ");
            // Binding name: the last ident of a simple pattern; complex
            // patterns (tuples, structs) get "".
            let name = pat
                .iter()
                .rev()
                .find(|t| {
                    t.chars()
                        .next()
                        .map(|ch| ch.is_ascii_alphabetic() || ch == '_')
                        .unwrap_or(false)
                        && !matches!(**t, "mut" | "ref")
                })
                .map(|t| t.to_string())
                .unwrap_or_default();
            let simple = pat
                .iter()
                .all(|t| !matches!(*t, "(" | ")" | "{" | "}" | "[" | "]"));
            params.push(Param {
                name: if simple { name } else { String::new() },
                ty,
            });
        };
        while j < end {
            match self.text(j) {
                "," => {
                    flush(self, start, j, &mut params, &mut has_self);
                    start = j + 1;
                    j += 1;
                }
                "<" => j = self.skip_generics(j, end),
                "(" | "[" | "{" => j = self.match_bracket(j, end) + 1,
                _ => j += 1,
            }
        }
        flush(self, start, end, &mut params, &mut has_self);
        (params, has_self)
    }

    // Body extraction ------------------------------------------------------

    /// Walk a function body in `[i, end)` and collect events.
    fn extract_body(&self, start: usize, end: usize) -> Body {
        let mut body = Body::default();
        let mut i = start;
        while i < end {
            let t = self.t(i);
            match t.kind {
                TokKind::Ident => {
                    let text = t.text.as_str();
                    if WATCHED.contains(&text) {
                        body.watched.push(WatchedIdent {
                            name: text.to_string(),
                            line: t.line,
                            col: t.col,
                        });
                    }
                    if text == "let" {
                        i = self.extract_let(i, end, &mut body);
                        continue;
                    }
                    if text == "for" {
                        i = self.extract_for(i, end, &mut body);
                        continue;
                    }
                    if text == "as"
                        && i + 2 < end
                        && self.text(i + 1) == "*"
                        && matches!(self.text(i + 2), "const" | "mut")
                    {
                        body.ptr_casts.push((t.line, t.col));
                        i += 3;
                        continue;
                    }
                    // Call site: `ident (` where ident is not a keyword,
                    // not a macro (`ident !`), not a definition (`fn ident`).
                    if i + 1 < end
                        && self.text(i + 1) == "("
                        && !EXPR_KEYWORDS.contains(&text)
                        && !(i > start && self.text(i - 1) == "fn")
                    {
                        let close = self.match_bracket(i + 1, end);
                        let args = self.extract_args(i + 2, close);
                        let kind = self.call_kind(i, start);
                        body.calls.push(CallSite {
                            name: text.to_string(),
                            kind,
                            args,
                            line: t.line,
                            col: t.col,
                        });
                        // Continue scanning inside the args.
                        i += 2;
                        continue;
                    }
                    // Macro use: skip the name and bang so the macro body
                    // tokens still get scanned for calls/ops.
                    i += 1;
                }
                TokKind::Punct => {
                    if let Some(adv) = self.extract_binop(i, start, end, &mut body) {
                        i = adv;
                    } else {
                        i += 1;
                    }
                }
                _ => i += 1,
            }
        }
        body
    }

    /// Classify the call at `i` (name token) by looking backward.
    fn call_kind(&self, i: usize, start: usize) -> CallKind {
        if i == start {
            return CallKind::Free;
        }
        let prev = self.text(i - 1);
        if prev == "." {
            // Receiver chain: walk back over `ident (.ident)*` / `self`.
            let mut chain = Vec::new();
            let mut k = i - 1;
            loop {
                if k == start {
                    break;
                }
                let p = self.t(k - 1);
                if p.kind == TokKind::Ident && !EXPR_KEYWORDS.contains(&p.text.as_str()) {
                    chain.push(p.text.clone());
                    if k - 1 == start {
                        break;
                    }
                    if self.text(k - 2) == "." && k >= 2 {
                        k -= 2;
                        continue;
                    }
                }
                break;
            }
            chain.reverse();
            return CallKind::Method(chain);
        }
        if prev == ":" && i >= 2 && self.text(i - 2) == ":" && i >= 3 {
            let q = self.t(i - 3);
            if q.kind == TokKind::Ident {
                return CallKind::Qualified(q.text.clone());
            }
            if q.text == ">" {
                // `Foo::<T>::bar` — find the qualifier before the generics.
                return CallKind::Free;
            }
        }
        CallKind::Free
    }

    /// Extract top-level call arguments in `[i, end)` as operands.
    fn extract_args(&self, i: usize, end: usize) -> Vec<Operand> {
        let mut args = Vec::new();
        let mut seg = i;
        let mut j = i;
        while j < end {
            match self.text(j) {
                "," => {
                    args.push(self.operand_of_range(seg, j));
                    seg = j + 1;
                    j += 1;
                }
                "(" | "[" | "{" => j = self.match_bracket(j, end) + 1,
                "<" => {
                    // In expression position `<` is comparison; do not try
                    // to bracket-match it here.
                    j += 1;
                }
                _ => j += 1,
            }
        }
        if seg < end {
            args.push(self.operand_of_range(seg, end));
        }
        args
    }

    /// Reduce the expression tokens in `[i, end)` to a simplified operand.
    fn operand_of_range(&self, mut i: usize, mut end: usize) -> Operand {
        // Strip leading `& mut` / `&` / `*` and a trailing `as <ty>` cast
        // (casts change representation, not the quantity's unit).
        while i < end && matches!(self.text(i), "&" | "mut" | "*") {
            i += 1;
        }
        let mut k = i;
        let mut first_as = None;
        while k < end {
            match self.text(k) {
                "as" => {
                    if first_as.is_none() {
                        first_as = Some(k);
                    }
                    k += 1;
                }
                "(" | "[" | "{" => k = self.match_bracket(k, end) + 1,
                _ => k += 1,
            }
        }
        // Truncate a trailing cast only when everything after `as` is a
        // type (possibly a cast chain, `x as u64 as f64`); `x as u64 * 8`
        // is arithmetic and the whole range stays complex.
        if let Some(a) = first_as {
            let mut pure_type = true;
            let mut m = a + 1;
            while m < end {
                let t = self.t(m);
                let ok = t.kind == TokKind::Ident
                    || matches!(t.text.as_str(), ":" | "<" | ">" | ",")
                    || (t.text == "*"
                        && m + 1 < end
                        && matches!(self.text(m + 1), "const" | "mut"));
                if !ok {
                    pure_type = false;
                    break;
                }
                m += 1;
            }
            if pure_type {
                end = a;
            }
        }
        if end == i {
            return Operand::default();
        }
        if end - i == 1 {
            let t = self.t(i);
            match t.kind {
                TokKind::Int | TokKind::Float | TokKind::Str => {
                    return Operand {
                        chain: Vec::new(),
                        last_is_call: false,
                        literal: true,
                    }
                }
                TokKind::Ident => {
                    return Operand {
                        chain: vec![t.text.clone()],
                        last_is_call: false,
                        literal: false,
                    }
                }
                _ => return Operand::default(),
            }
        }
        // Simple chain: ident (:: ident | . ident)* with optional call
        // parens after any element; anything else → complex (empty chain).
        let mut chain = Vec::new();
        let mut last_is_call = false;
        let mut j = i;
        let mut expect_ident = true;
        while j < end {
            let t = self.t(j);
            if expect_ident {
                if t.kind != TokKind::Ident || EXPR_KEYWORDS.contains(&t.text.as_str()) {
                    return Operand::default();
                }
                chain.push(t.text.clone());
                last_is_call = false;
                expect_ident = false;
                j += 1;
                continue;
            }
            match t.text.as_str() {
                "." => {
                    expect_ident = true;
                    j += 1;
                }
                ":" if j + 1 < end && self.text(j + 1) == ":" => {
                    expect_ident = true;
                    j += 2;
                }
                "(" => {
                    last_is_call = true;
                    j = self.match_bracket(j, end) + 1;
                }
                "?" => j += 1,
                _ => return Operand::default(),
            }
        }
        Operand {
            chain,
            last_is_call,
            literal: false,
        }
    }

    /// Extract a `let` binding starting at the `let` keyword.
    fn extract_let(&self, i: usize, end: usize, body: &mut Body) -> usize {
        let line = self.t(i).line;
        let mut j = i + 1;
        if j < end && self.text(j) == "mut" {
            j += 1;
        }
        // `let Some(x) = ...` / `let (a, b) = ...`: no simple name.
        let name = if j < end
            && self.t(j).kind == TokKind::Ident
            && j + 1 < end
            && matches!(self.text(j + 1), ":" | "=")
        {
            self.text(j).to_string()
        } else {
            String::new()
        };
        if !name.is_empty() {
            j += 1;
        } else {
            // Skip the pattern up to `:`/`=`/`;` at depth 0.
            while j < end && !matches!(self.text(j), ":" | "=" | ";") {
                match self.text(j) {
                    "(" | "[" | "{" => j = self.match_bracket(j, end) + 1,
                    "<" => j = self.skip_generics(j, end),
                    _ => j += 1,
                }
            }
        }
        // Optional `: Ty`.
        let mut ty = None;
        if j < end && self.text(j) == ":" && (j + 1 >= end || self.text(j + 1) != ":") {
            j += 1;
            let mut text = String::new();
            while j < end && !matches!(self.text(j), "=" | ";") {
                match self.text(j) {
                    "<" => {
                        let e = self.skip_generics(j, end);
                        for x in j..e {
                            if !text.is_empty() {
                                text.push(' ');
                            }
                            text.push_str(self.text(x));
                        }
                        j = e;
                    }
                    "(" | "[" => {
                        let e = self.match_bracket(j, end);
                        for x in j..=e.min(end - 1) {
                            if !text.is_empty() {
                                text.push(' ');
                            }
                            text.push_str(self.text(x));
                        }
                        j = e + 1;
                    }
                    t => {
                        if !text.is_empty() {
                            text.push(' ');
                        }
                        text.push_str(t);
                        j += 1;
                    }
                }
            }
            ty = Some(text);
        }
        // Optional `= init`: reduce the init expression up to the
        // statement `;` at depth 0.
        let mut init = Operand::default();
        if j < end && self.text(j) == "=" {
            let istart = j + 1;
            let mut k = istart;
            while k < end && self.text(k) != ";" {
                match self.text(k) {
                    "(" | "[" | "{" => k = self.match_bracket(k, end) + 1,
                    _ => k += 1,
                }
            }
            init = self.operand_of_range(istart, k);
        }
        body.lets.push(LetBind {
            name,
            ty,
            init,
            line,
        });
        i + 1
    }

    /// Extract a `for <pat> in <expr> {` loop's iteration target.
    fn extract_for(&self, i: usize, end: usize, body: &mut Body) -> usize {
        let t = self.t(i);
        // Find `in` at depth 0 before the loop body `{`.
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "in" => break,
                "{" => return i + 1, // `for` in a type position / malformed
                "(" | "[" => j = self.match_bracket(j, end) + 1,
                _ => j += 1,
            }
        }
        if j >= end || self.text(j) != "in" {
            return i + 1;
        }
        // Iterated expression: up to the `{` at depth 0.
        let estart = j + 1;
        let mut k = estart;
        while k < end && self.text(k) != "{" {
            match self.text(k) {
                "(" | "[" => k = self.match_bracket(k, end) + 1,
                _ => k += 1,
            }
        }
        body.for_iters.push(ForIter {
            iter: self.operand_of_range(estart, k),
            line: t.line,
            col: t.col,
        });
        i + 1
    }

    /// Try to extract a binary operator at punct index `i`. Returns the
    /// index to continue from when an operator (interesting or not) was
    /// consumed, or `None` to advance by one.
    fn extract_binop(&self, i: usize, start: usize, end: usize, body: &mut Body) -> Option<usize> {
        let t = self.t(i);
        let c = t.text.as_str();
        let next = if i + 1 < end && self.adjacent(i, i + 1) {
            Some(self.text(i + 1))
        } else {
            None
        };
        // Two-char operators (byte-adjacent).
        let (op, width): (&'static str, usize) = match (c, next) {
            ("=", Some("=")) => ("==", 2),
            ("!", Some("=")) => ("!=", 2),
            ("<", Some("=")) => ("<=", 2),
            (">", Some("=")) => (">=", 2),
            ("+", Some("=")) => ("+=", 2),
            ("-", Some("=")) => ("-=", 2),
            ("-", Some(">")) => return Some(i + 2), // return arrow
            ("=", Some(">")) => return Some(i + 2), // match arm
            ("<", Some("<")) | (">", Some(">")) => return Some(i + 2), // shifts
            ("&", Some("&")) | ("|", Some("|")) => return Some(i + 2),
            (".", Some(".")) => return Some(i + 2), // ranges
            ("+", _) => ("+", 1),
            ("-", _) => ("-", 1),
            ("<", _) => ("<", 1),
            (">", _) => (">", 1),
            _ => return None,
        };
        // Binary position: previous token must terminate an expression.
        if i == start {
            return Some(i + width);
        }
        let prev = self.t(i - 1);
        let prev_ends_expr = matches!(prev.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
            && !EXPR_KEYWORDS.contains(&prev.text.as_str())
            || matches!(prev.text.as_str(), ")" | "]");
        if !prev_ends_expr {
            return Some(i + width);
        }
        // Turbofish `::<` is not a comparison.
        if op == "<" && i >= 2 && self.text(i - 1) == ":" && self.text(i - 2) == ":" {
            return Some(i + width);
        }
        // `<` directly after a capitalized path segment is a generic
        // argument list (`Vec<u64>`, `Option<SimTime>`), not a comparison —
        // unit-bearing identifiers are snake_case.
        if op == "<"
            && prev.kind == TokKind::Ident
            && prev
                .text
                .chars()
                .next()
                .map(|ch| ch.is_ascii_uppercase())
                .unwrap_or(false)
        {
            return Some(i + width);
        }
        let lhs = self.operand_back(i, start);
        let rhs = self.operand_forward(i + width, end);
        body.binops.push(BinOp {
            op,
            lhs,
            rhs,
            line: t.line,
            col: t.col,
        });
        Some(i + width)
    }

    /// Simplified operand ending just before code index `i` (walk back).
    fn operand_back(&self, i: usize, start: usize) -> Operand {
        if i == start {
            return Operand::default();
        }
        let mut k = i; // exclusive end
        let mut chain_rev: Vec<String> = Vec::new();
        let mut last_is_call = false;
        // Trailing literal?
        let last = self.t(k - 1);
        if matches!(last.kind, TokKind::Int | TokKind::Float | TokKind::Str) {
            return Operand {
                chain: Vec::new(),
                last_is_call: false,
                literal: true,
            };
        }
        loop {
            if k == start {
                break;
            }
            let t = self.t(k - 1);
            if t.text == ")" {
                // Find the matching `(` backward, then the call name.
                let mut depth = 0i32;
                let mut m = k - 1;
                loop {
                    match self.text(m) {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if m == start {
                        return Operand::default();
                    }
                    m -= 1;
                }
                if m == start || self.t(m - 1).kind != TokKind::Ident {
                    return Operand::default();
                }
                if chain_rev.is_empty() {
                    last_is_call = true;
                }
                chain_rev.push(self.text(m - 1).to_string());
                k = m - 1;
            } else if t.kind == TokKind::Ident && !EXPR_KEYWORDS.contains(&t.text.as_str()) {
                chain_rev.push(t.text.clone());
                k -= 1;
            } else {
                break;
            }
            // Continue over `.` / `::`.
            if k > start && self.text(k - 1) == "." {
                k -= 1;
                continue;
            }
            if k > start + 1 && self.text(k - 1) == ":" && self.text(k - 2) == ":" {
                k -= 2;
                continue;
            }
            break;
        }
        if chain_rev.is_empty() {
            return Operand::default();
        }
        chain_rev.reverse();
        Operand {
            chain: chain_rev,
            last_is_call,
            literal: false,
        }
    }

    /// Simplified operand starting at code index `i` (walk forward).
    fn operand_forward(&self, mut i: usize, end: usize) -> Operand {
        while i < end && matches!(self.text(i), "&" | "mut" | "*") {
            i += 1;
        }
        if i >= end {
            return Operand::default();
        }
        let t = self.t(i);
        if matches!(t.kind, TokKind::Int | TokKind::Float | TokKind::Str) {
            return Operand {
                chain: Vec::new(),
                last_is_call: false,
                literal: true,
            };
        }
        if t.kind != TokKind::Ident || EXPR_KEYWORDS.contains(&t.text.as_str()) {
            return Operand::default();
        }
        let mut chain = vec![t.text.clone()];
        let mut last_is_call = false;
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "." => {
                    if j + 1 < end && self.t(j + 1).kind == TokKind::Ident {
                        chain.push(self.text(j + 1).to_string());
                        last_is_call = false;
                        j += 2;
                    } else {
                        break;
                    }
                }
                ":" if j + 1 < end && self.text(j + 1) == ":" => {
                    if j + 2 < end && self.t(j + 2).kind == TokKind::Ident {
                        chain.push(self.text(j + 2).to_string());
                        last_is_call = false;
                        j += 3;
                    } else {
                        break;
                    }
                }
                "(" => {
                    last_is_call = true;
                    j = self.match_bracket(j, end) + 1;
                }
                _ => break,
            }
        }
        Operand {
            chain,
            last_is_call,
            literal: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&tokenize(src), false)
    }

    #[test]
    fn parses_fns_with_impls_and_signatures() {
        let p = parse(
            r#"
impl<A: HostAgent> Engine<A> {
    pub fn run_until(&mut self, end: SimTime) -> u64 { self.step(end) }
}
fn free(delay_ns: u64, topo: &Topology) {}
trait Agent { fn on_packet(&mut self, p: Packet) { handle(p); } }
"#,
        );
        assert_eq!(p.fns.len(), 3);
        let run = &p.fns[0];
        assert_eq!(run.name, "run_until");
        assert_eq!(run.impl_ty.as_deref(), Some("Engine"));
        assert!(run.has_self);
        assert_eq!(run.params.len(), 1);
        assert_eq!(run.params[0].name, "end");
        assert_eq!(run.params[0].ty, "SimTime");
        // The body is found past the `-> u64` return type.
        assert_eq!(run.body.calls[0].name, "step");
        let free = &p.fns[1];
        assert_eq!(free.impl_ty, None);
        assert_eq!(free.params[0].name, "delay_ns");
        let trait_fn = &p.fns[2];
        assert_eq!(trait_fn.impl_ty.as_deref(), Some("Agent"));
        assert_eq!(trait_fn.body.calls.len(), 1);
        assert_eq!(trait_fn.body.calls[0].name, "handle");
    }

    #[test]
    fn impl_trait_for_type_targets_the_type() {
        let p = parse("impl HostAgent for RpcHost { fn f(&mut self) {} }");
        assert_eq!(p.fns[0].impl_ty.as_deref(), Some("RpcHost"));
    }

    #[test]
    fn cfg_test_mods_and_test_attrs_mark_fns() {
        let p = parse(
            "fn prod() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\n#[test]\nfn top() {}",
        );
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("t").is_test);
        assert!(by_name("top").is_test);
    }

    #[test]
    fn call_kinds_are_classified() {
        let p = parse(
            "fn f() { helper(x); Engine::start(y); self.flows.iter(); std::thread::current(); }",
        );
        let calls = &p.fns[0].body.calls;
        assert_eq!(calls[0].kind, CallKind::Free);
        assert_eq!(calls[1].kind, CallKind::Qualified("Engine".into()));
        assert_eq!(
            calls[2].kind,
            CallKind::Method(vec!["self".to_string(), "flows".to_string()])
        );
        assert_eq!(calls[3].kind, CallKind::Qualified("thread".into()));
    }

    #[test]
    fn let_bindings_capture_types_and_inits() {
        let p = parse(
            "fn f() { let mut m: HashMap < u64 , f64 > = HashMap::new(); let x = t.as_ps(); }",
        );
        let lets = &p.fns[0].body.lets;
        assert_eq!(lets[0].name, "m");
        assert!(lets[0].ty.as_deref().unwrap().contains("HashMap"));
        assert_eq!(lets[0].init.chain, vec!["HashMap", "new"]);
        assert_eq!(lets[1].init.chain, vec!["t", "as_ps"]);
        assert!(lets[1].init.last_is_call);
    }

    #[test]
    fn for_loops_capture_iteration_targets() {
        let p = parse("fn f() { for (k, v) in &self.flows { use_it(k, v); } }");
        let fi = &p.fns[0].body.for_iters;
        assert_eq!(fi.len(), 1);
        assert_eq!(fi[0].iter.chain, vec!["self", "flows"]);
    }

    #[test]
    fn binops_capture_unit_bearing_operands() {
        let p = parse("fn f() { let z = dur_ps + gap.as_ns(); if a_bytes < b_bits { } }");
        let ops = &p.fns[0].body.binops;
        let plus = ops.iter().find(|o| o.op == "+").unwrap();
        assert_eq!(plus.lhs.chain, vec!["dur_ps"]);
        assert_eq!(plus.rhs.chain, vec!["gap", "as_ns"]);
        assert!(plus.rhs.last_is_call);
        let lt = ops.iter().find(|o| o.op == "<").unwrap();
        assert_eq!(lt.lhs.chain, vec!["a_bytes"]);
        assert_eq!(lt.rhs.chain, vec!["b_bits"]);
    }

    #[test]
    fn arrows_shifts_and_generics_are_not_binops() {
        let p = parse(
            "fn f(x: u64) -> u64 { let v: Vec<u64> = c.collect::<Vec<u64>>(); match x { _ => x << 2 } }",
        );
        // `->`, `=>`, `<<`, and turbofish produce no comparison ops between
        // unit-less operands... they may record generic noise but never a
        // `Vec`-vs-`u64` pair from the annotation (type position).
        for op in &p.fns[0].body.binops {
            assert!(
                op.lhs.chain.is_empty()
                    || op.rhs.chain.is_empty()
                    || op.lhs.chain != vec!["Vec".to_string()],
                "{op:?}"
            );
        }
    }

    #[test]
    fn struct_fields_are_indexed() {
        let p = parse("pub struct Flows { pub by_id: HashMap < u64 , Flow > , count: usize }");
        assert_eq!(p.fields.len(), 2);
        assert_eq!(p.fields[0].struct_name, "Flows");
        assert_eq!(p.fields[0].name, "by_id");
        assert!(p.fields[0].ty.contains("HashMap"));
    }

    #[test]
    fn watched_idents_and_ptr_casts_are_recorded() {
        let p = parse("fn f() { let m = Mutex::new(0); let a = &x as *const u32 as usize; }");
        let b = &p.fns[0].body;
        assert!(b.watched.iter().any(|w| w.name == "Mutex"));
        assert_eq!(b.ptr_casts.len(), 1);
    }

    #[test]
    fn call_args_are_simplified_operands() {
        let p = parse("fn f() { schedule(t_ps, q.as_ns(), a + b, 7); }");
        let call = &p.fns[0].body.calls[0];
        assert_eq!(call.args.len(), 4);
        assert_eq!(call.args[0].chain, vec!["t_ps"]);
        assert_eq!(call.args[1].chain, vec!["q", "as_ns"]);
        assert!(call.args[2].chain.is_empty());
        assert!(call.args[3].literal);
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let p = parse("macro_rules! m { ($x:expr) => { bad_call($x) }; }\nfn real() { ok(); }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].body.calls[0].name, "ok");
    }
}
