//! Suppression-debt accounting.
//!
//! Every inline justification comment (`det:`, `unit:`, `shard:`) is
//! *debt*: a place where the analyzer was told to look away. The debt
//! report counts them; the debt gate compares the counts against the
//! committed `lint-debt.toml` baseline and fails CI on any increase, so new
//! suppressions require a deliberate baseline refresh in the same diff
//! (which reviewers see), never a silent drive-by. (The rules that moved
//! to clippy take their escapes as `#[allow(.., reason = "..")]`, which
//! `clippy::allow_attributes_without_reason` keeps argued.)

use crate::lexer::TokKind;
use crate::SourceFile;
use std::collections::BTreeMap;

/// The inline justification markers, in report order.
pub const MARKERS: &[&str] = &["det:", "unit:", "shard:"];

/// A debt snapshot: counter name -> count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Debt {
    /// One counter per marker (`det`, `unit`, `shard`).
    pub counts: BTreeMap<String, usize>,
}

impl Debt {
    /// Count justification comments across the workspace's files.
    pub fn collect(files: &[SourceFile]) -> Debt {
        let mut counts: BTreeMap<String, usize> = MARKERS
            .iter()
            .map(|m| (m.trim_end_matches(':').to_string(), 0))
            .collect();
        for f in files {
            for t in &f.toks {
                if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                    continue;
                }
                // Doc comments *describe* the markers ("needs a `det:`
                // comment"); only plain comments can be suppressions.
                if t.text.starts_with("///")
                    || t.text.starts_with("//!")
                    || t.text.starts_with("/**")
                    || t.text.starts_with("/*!")
                {
                    continue;
                }
                for m in MARKERS {
                    let key = m.trim_end_matches(':');
                    let n = t.text.matches(m).count();
                    if n > 0 {
                        *counts.get_mut(key).expect("preseeded above") += n;
                    }
                }
            }
        }
        Debt { counts }
    }

    /// Render the committed-baseline format.
    pub fn to_toml(&self) -> String {
        let mut s = String::from(
            "# Suppression-debt baseline for aequitas-lint.\n\
             # Regenerate with `scripts/lint.sh --debt-baseline` ONLY when a\n\
             # suppression is removed (counts go down) or a new one has been\n\
             # argued for in review; `scripts/lint.sh --debt-gate` fails CI on\n\
             # any count above this file.\n[counts]\n",
        );
        for (k, v) in &self.counts {
            s.push_str(&format!("{k} = {v}\n"));
        }
        s
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        let total: usize = self.counts.values().sum();
        let mut s = format!("suppression debt: {total} total\n");
        for (k, v) in &self.counts {
            s.push_str(&format!("  {k:<10} {v}\n"));
        }
        s
    }

    /// Parse a baseline previously written by [`Debt::to_toml`].
    pub fn parse_baseline(src: &str) -> Result<BTreeMap<String, usize>, String> {
        let mut counts = BTreeMap::new();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() || line == "[counts]" {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("lint-debt.toml:{}: expected `key = N`", idx + 1))?;
            let n: usize = v
                .trim()
                .parse()
                .map_err(|_| format!("lint-debt.toml:{}: bad count `{}`", idx + 1, v.trim()))?;
            counts.insert(k.trim().to_string(), n);
        }
        Ok(counts)
    }

    /// Gate against a baseline: any counter above it is an error; unknown
    /// counters in the current snapshot count as increases from zero.
    pub fn gate(&self, baseline_src: &str) -> Result<String, String> {
        let base = Debt::parse_baseline(baseline_src)?;
        let mut regressions = Vec::new();
        let mut slack = 0usize;
        for (k, &cur) in &self.counts {
            let was = base.get(k).copied().unwrap_or(0);
            if cur > was {
                regressions.push(format!("  {k}: {was} -> {cur}"));
            } else {
                slack += was - cur;
            }
        }
        if regressions.is_empty() {
            let mut msg = "suppression-debt gate: PASS".to_string();
            if slack > 0 {
                msg.push_str(&format!(
                    " ({slack} below baseline — consider refreshing lint-debt.toml)"
                ));
            }
            Ok(msg)
        } else {
            Err(format!(
                "suppression-debt gate: FAIL — new suppressions vs lint-debt.toml:\n{}\n\
                 remove the suppression or refresh the baseline in the same reviewed diff",
                regressions.join("\n")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn files(src: &str) -> Vec<SourceFile> {
        vec![SourceFile {
            rel: "crates/a/src/lib.rs".into(),
            toks: tokenize(src),
        }]
    }

    #[test]
    fn counts_markers_in_plain_comments_only() {
        let d = Debt::collect(&files(
            "// det: sorted below\n/// needs a `det:` comment\nfn f() {} // unit: ratio\n",
        ));
        assert_eq!(d.counts["det"], 1, "doc comments describe markers");
        assert_eq!(d.counts["unit"], 1);
        assert_eq!(d.counts["shard"], 0);
        assert_eq!(d.counts.len(), MARKERS.len());
    }

    #[test]
    fn gate_passes_at_or_below_baseline_and_fails_above() {
        let d = Debt::collect(&files("// det: a\n// det: b\n"));
        let base = d.to_toml();
        assert!(d.gate(&base).is_ok());
        let worse = Debt::collect(&files("// det: a\n// det: b\n// shard: c\n"));
        let err = worse.gate(&base).unwrap_err();
        assert!(err.contains("shard: 0 -> 1"), "{err}");
        let better = Debt::collect(&files("// det: a\n"));
        assert!(better.gate(&base).unwrap().contains("below baseline"));
    }

    #[test]
    fn baseline_roundtrips() {
        let d = Debt::collect(&files("// unit: ratio\n"));
        let parsed = Debt::parse_baseline(&d.to_toml()).unwrap();
        assert_eq!(parsed, d.counts);
    }
}
