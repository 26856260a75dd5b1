//! `aequitas-lint` as a library: lexer, parser, workspace index, and the
//! AQ rules that neither rustc nor clippy can express (token rules plus
//! cross-function dataflow passes).
//!
//! The binary in `main.rs` is a thin CLI over [`run_analysis`]; the
//! fixture-corpus tests under `tests/` drive the same entry point against
//! miniature workspaces, and the self-lint test points it at the real
//! workspace root.
//!
//! Analysis happens in two layers:
//!
//! 1. **Token rules** (AQ004, AQ005, AQ008): per-file pattern checks over
//!    the lexer's token stream ([`rules`]).
//! 2. **Dataflow passes** (AQ014–AQ016): a lightweight AST ([`ast`]) is
//!    parsed for every file, a workspace-wide symbol table and call graph
//!    is assembled ([`workspace`]), and taint/unit/isolation facts are
//!    propagated across function boundaries ([`dataflow`]).

pub mod ast;
pub mod dataflow;
pub mod debt;
pub mod lexer;
pub mod rules;
pub mod workspace;

use lexer::TokKind;
use rules::Finding;
use std::path::{Path, PathBuf};

/// Recursively collect workspace-relative `/`-separated paths of `.rs`
/// files, skipping build output, VCS metadata, vendored third-party crates
/// and the lint fixture corpus (deliberately-broken golden files that must
/// never be linted as first-party code).
pub fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || name == "fixtures" || name == "vendor" {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
}

/// Is the whole file test code? `tests/` directories hold integration
/// tests; a `tests.rs` module file is by convention included via
/// `#[cfg(test)] mod tests;`.
pub fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.ends_with("/tests.rs")
}

/// Is there a justification comment for `line`: on the line itself, or in
/// the contiguous run of comment lines directly above it? A comment
/// qualifies when it contains `needle`.
pub fn justified(toks: &[lexer::Tok], line: u32, needle: &str) -> bool {
    let comments = |l: u32| {
        toks.iter().filter(move |t| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) && t.line == l
        })
    };
    let hit = |l: u32| comments(l).any(|t| t.text.contains(needle));
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

/// One parsed source file, shared between the token rules and the
/// workspace index so each file is read and lexed exactly once.
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// The full token stream (comments included).
    pub toks: Vec<lexer::Tok>,
}

/// Load every `.rs` file under `root` (minus `target/`, dotdirs, `vendor/`
/// and fixture corpora), sorted by path for deterministic output.
pub fn load_workspace_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels);
    rels.sort();
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let abs: PathBuf = root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let toks = lexer::tokenize(&src);
        files.push(SourceFile { rel, toks });
    }
    Ok(files)
}

/// Run the full analysis (token rules + dataflow passes) over `root`,
/// returning findings sorted by (path, line, col, rule).
pub fn run_analysis(root: &Path) -> Result<Vec<Finding>, String> {
    let files = load_workspace_files(root)?;
    let mut findings: Vec<Finding> = Vec::new();

    // Layer 1: per-file token rules.
    for f in &files {
        rules::check_file(&f.rel, &f.toks, &mut findings);
    }

    // Layer 2: workspace dataflow passes over the parsed AST.
    let ws = workspace::Workspace::build(&files);
    dataflow::run_passes(&ws, &mut findings);

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(findings)
}
