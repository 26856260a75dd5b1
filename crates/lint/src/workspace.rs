//! Workspace-wide symbol table and call graph.
//!
//! Every file is parsed with [`crate::ast`]; functions are indexed by name
//! and by `(impl type, name)`, and call sites are resolved to candidate
//! callees. Resolution is deliberately *over-approximate* — a method call
//! `x.run_until(...)` links to every workspace method named `run_until` —
//! because the dataflow passes only act on facts (taint, reachability)
//! that must then combine with a concrete violation to produce a finding;
//! a spurious edge into clean code is harmless, while a missed edge would
//! hide a real bug. Calls whose name the workspace does not define (std
//! and vendored methods) produce no edges.
//!
//! Test functions are never call targets of non-test functions: production
//! code cannot call `#[cfg(test)]` items, and a name collision with a test
//! helper must not taint the production graph.

use crate::ast::{self, CallKind, FieldDecl, FnDef, ParsedFile};
use crate::SourceFile;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// A resolved call edge: `calls[call]` in the caller's body may invoke
/// `callee`.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Index into the caller's `body.calls`.
    pub call: usize,
    /// Callee function id.
    pub callee: usize,
}

/// One function in the workspace graph.
pub struct FnNode {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The parsed definition.
    pub def: FnDef,
    /// Resolved outgoing edges (caller → callee), in call-site order.
    pub callees: Vec<Edge>,
    /// Names bound to `HashMap`/`HashSet` values in this function
    /// (parameters and `let` bindings).
    pub hashy_locals: BTreeSet<String>,
}

/// The assembled workspace view the dataflow passes run over.
pub struct Workspace<'a> {
    /// The source files (token streams included, for justification
    /// comment lookups).
    pub files: &'a [SourceFile],
    /// All functions across all files.
    pub fns: Vec<FnNode>,
    /// Function ids by bare name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Function ids by `(impl type, name)`.
    pub by_impl: BTreeMap<(String, String), Vec<usize>>,
    /// Reverse edges: for each function, `(caller id, call index)` pairs.
    pub callers: Vec<Vec<(usize, usize)>>,
    /// `(struct, field)` pairs whose declared type mentions
    /// `HashMap`/`HashSet` (receiver resolution for `self.f.iter()` —
    /// struct-qualified so an unrelated `Vec` field sharing a name with
    /// some other struct's map is not misclassified).
    pub hashy_fields: BTreeSet<(String, String)>,
}

fn is_hashy_ty(ty: &str) -> bool {
    ty.contains("HashMap") || ty.contains("HashSet")
}

impl<'a> Workspace<'a> {
    /// Parse every file and assemble the symbol table and call graph.
    pub fn build(files: &'a [SourceFile]) -> Workspace<'a> {
        let mut fns: Vec<FnNode> = Vec::new();
        let mut fields: Vec<FieldDecl> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let parsed: ParsedFile = ast::parse_file(&f.toks, crate::is_test_file(&f.rel));
            fields.extend(parsed.fields);
            for def in parsed.fns {
                let mut hashy_locals = BTreeSet::new();
                for p in &def.params {
                    if !p.name.is_empty() && is_hashy_ty(&p.ty) {
                        hashy_locals.insert(p.name.clone());
                    }
                }
                for l in &def.body.lets {
                    if l.name.is_empty() {
                        continue;
                    }
                    let ty_hashy = l.ty.as_deref().map(is_hashy_ty).unwrap_or(false);
                    let init_hashy = l
                        .init
                        .chain
                        .iter()
                        .any(|s| s == "HashMap" || s == "HashSet");
                    if ty_hashy || init_hashy {
                        hashy_locals.insert(l.name.clone());
                    }
                }
                fns.push(FnNode {
                    file: fi,
                    def,
                    callees: Vec::new(),
                    hashy_locals,
                });
            }
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, n) in fns.iter().enumerate() {
            by_name.entry(n.def.name.clone()).or_default().push(id);
            if let Some(ty) = &n.def.impl_ty {
                by_impl
                    .entry((ty.clone(), n.def.name.clone()))
                    .or_default()
                    .push(id);
            }
        }

        let hashy_fields: BTreeSet<(String, String)> = fields
            .iter()
            .filter(|f| is_hashy_ty(&f.ty))
            .map(|f| (f.struct_name.clone(), f.name.clone()))
            .collect();

        // Resolve call edges.
        let mut all_edges: Vec<Vec<Edge>> = Vec::with_capacity(fns.len());
        for node in &fns {
            let mut edges = Vec::new();
            for (ci, call) in node.def.body.calls.iter().enumerate() {
                let candidates: Vec<usize> = match &call.kind {
                    CallKind::Qualified(q) => {
                        let ty = if q == "Self" {
                            node.def.impl_ty.clone().unwrap_or_else(|| q.clone())
                        } else {
                            q.clone()
                        };
                        let exact = by_impl.get(&(ty, call.name.clone()));
                        match exact {
                            Some(v) if !v.is_empty() => v.clone(),
                            // Module-qualified free call (`mix::pick(...)`):
                            // fall back to the bare name.
                            _ => by_name.get(&call.name).cloned().unwrap_or_default(),
                        }
                    }
                    CallKind::Method(_) => by_name
                        .get(&call.name)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&id| fns[id].def.has_self)
                                .collect()
                        })
                        .unwrap_or_default(),
                    CallKind::Free => by_name
                        .get(&call.name)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&id| !fns[id].def.has_self)
                                .collect()
                        })
                        .unwrap_or_default(),
                };
                for callee in candidates {
                    // Production code cannot call test items.
                    if !node.def.is_test && fns[callee].def.is_test {
                        continue;
                    }
                    edges.push(Edge { call: ci, callee });
                }
            }
            all_edges.push(edges);
        }
        for (id, edges) in all_edges.into_iter().enumerate() {
            fns[id].callees = edges;
        }

        let mut callers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); fns.len()];
        for (id, n) in fns.iter().enumerate() {
            for e in &n.callees {
                callers[e.callee].push((id, e.call));
            }
        }

        Workspace {
            files,
            fns,
            by_name,
            by_impl,
            callers,
            hashy_fields,
        }
    }

    /// Workspace-relative path of the file defining `id`.
    pub fn path(&self, id: usize) -> &str {
        &self.files[self.fns[id].file].rel
    }

    /// Human name of function `id` (`Engine::run_until` or `free_fn`).
    pub fn display(&self, id: usize) -> String {
        let n = &self.fns[id];
        match &n.def.impl_ty {
            Some(ty) => format!("{ty}::{}", n.def.name),
            None => n.def.name.clone(),
        }
    }

    /// [`crate::justified`] for `line` of file `file`.
    pub fn justified(&self, file: usize, line: u32, needle: &str) -> bool {
        crate::justified(&self.files[file].toks, line, needle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn ws_of(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(rel, src)| SourceFile {
                rel: rel.to_string(),
                toks: tokenize(src),
            })
            .collect()
    }

    #[test]
    fn resolves_cross_file_calls() {
        let files = ws_of(&[
            ("crates/a/src/lib.rs", "pub fn caller() { helper(1); }"),
            ("crates/b/src/lib.rs", "pub fn helper(x: u64) -> u64 { x }"),
        ]);
        let ws = Workspace::build(&files);
        let caller = ws.by_name["caller"][0];
        let helper = ws.by_name["helper"][0];
        assert_eq!(ws.fns[caller].callees.len(), 1);
        assert_eq!(ws.fns[caller].callees[0].callee, helper);
        assert_eq!(ws.callers[helper], vec![(caller, 0)]);
    }

    #[test]
    fn method_calls_only_target_methods_and_skip_test_fns() {
        let files = ws_of(&[(
            "crates/a/src/lib.rs",
            "impl T { pub fn go(&self) {} }\n\
                 pub fn drive(t: &T) { t.go(); }\n\
                 #[cfg(test)]\nmod tests { pub fn go() {} }",
        )]);
        let ws = Workspace::build(&files);
        let drive = ws.by_name["drive"][0];
        let method = ws.by_impl[&("T".to_string(), "go".to_string())][0];
        assert_eq!(ws.fns[drive].callees.len(), 1);
        assert_eq!(ws.fns[drive].callees[0].callee, method);
    }

    #[test]
    fn qualified_calls_prefer_the_impl_match() {
        let files = ws_of(&[(
            "crates/a/src/lib.rs",
            "impl A { pub fn make() -> A { A } }\n\
                 impl B { pub fn make() -> B { B } }\n\
                 pub fn f() { A::make(); }",
        )]);
        let ws = Workspace::build(&files);
        let f = ws.by_name["f"][0];
        let a_make = ws.by_impl[&("A".to_string(), "make".to_string())][0];
        assert_eq!(ws.fns[f].callees.len(), 1);
        assert_eq!(ws.fns[f].callees[0].callee, a_make);
    }

    #[test]
    fn hashy_locals_and_fields_are_indexed() {
        let files = ws_of(&[(
            "crates/a/src/lib.rs",
            "pub struct S { flows: HashMap < u64 , u64 > }\n\
             pub fn f(m: &HashMap<u64, u64>) { let n = HashSet::new(); let v = Vec::new(); }",
        )]);
        let ws = Workspace::build(&files);
        assert!(ws
            .hashy_fields
            .contains(&("S".to_string(), "flows".to_string())));
        let f = ws.by_name["f"][0];
        assert!(ws.fns[f].hashy_locals.contains("m"));
        assert!(ws.fns[f].hashy_locals.contains("n"));
        assert!(!ws.fns[f].hashy_locals.contains("v"));
    }

    #[test]
    fn vendored_files_contribute_nothing() {
        // Vendored crates are never loaded, so they reach neither the token
        // rules, the call graph nor the debt count.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut rels = Vec::new();
        crate::collect_rs_files(&root, &root, &mut rels);
        assert!(rels.iter().any(|r| r == "crates/lint/src/workspace.rs"));
        assert!(root.join("vendor").is_dir());
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")), "{rels:?}");
    }
}
