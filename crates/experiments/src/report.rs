//! Table rendering for experiment output.
//!
//! Experiments print the same rows/series the paper reports; these
//! helpers keep the formatting uniform. When `AEQUITAS_CSV_DIR` is set,
//! every printed table is also written there as a CSV file (named from a
//! slug of the title) so the figures can be re-plotted with any tool.

use std::io::Write as _;
use std::path::PathBuf;

fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Slugify a table title into a file name.
fn slug(title: &str) -> String {
    let mut out = String::new();
    for ch in title.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
        if out.len() >= 60 {
            break;
        }
    }
    out.trim_matches('_').to_string()
}

/// Write a table as CSV into `$AEQUITAS_CSV_DIR`, if set. Errors are
/// reported but never fatal (the printed table is the primary output).
fn maybe_write_csv(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let Ok(dir) = std::env::var("AEQUITAS_CSV_DIR") else {
        return;
    };
    let path = PathBuf::from(dir).join(format!("{}.csv", slug(title)));
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(&path)?;
        writeln!(
            f,
            "{}",
            headers
                .iter()
                .map(|h| csv_escape(h))
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for row in rows {
            writeln!(
                f,
                "{}",
                row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(",")
            )?;
        }
        Ok(())
    };
    match write() {
        Ok(()) => println!("[csv written to {}]", path.display()),
        Err(e) => eprintln!(
            "[experiments.report] csv export failed for {}: {e}",
            path.display()
        ),
    }
}

/// Print a titled, aligned table. `headers.len()` must equal each row's
/// length.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch in table '{title}'");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| s.to_string()).collect())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
    maybe_write_csv(title, headers, rows);
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Rows QoSh, QoSm and QoSl of a without/with-Aequitas table: the class,
/// its SLO cell when `slo` is given (`-` for QoSl, which has none), and
/// both runs' values to `digits` decimals.
pub fn versus_rows(
    slo: Option<[String; 2]>,
    without: [Option<f64>; 3],
    with: [Option<f64>; 3],
    digits: usize,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (q, name) in ["QoSh", "QoSm", "QoSl"].into_iter().enumerate() {
        let mut row = vec![name.to_string()];
        if let Some(slo) = &slo {
            row.push(slo.get(q).cloned().unwrap_or_else(|| "-".to_string()));
        }
        row.extend([opt(without[q], digits), opt(with[q], digits)]);
        rows.push(row);
    }
    rows
}

/// Format an optional value, "-" when absent.
pub fn opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.254), "25.4%");
        assert_eq!(opt(Some(1.5), 1), "1.5");
        assert_eq!(opt(None, 2), "-");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "test",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        print_table("bad", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(
            super::slug("Fig 12: 33-node 99.9p RNL (us)"),
            "fig_12_33_node_99_9p_rnl_us"
        );
        assert_eq!(super::slug("---"), "");
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(super::csv_escape("plain"), "plain");
        assert_eq!(super::csv_escape("a,b"), "\"a,b\"");
        assert_eq!(super::csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
