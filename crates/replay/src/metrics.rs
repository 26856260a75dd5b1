//! Parser for the sampled-metrics CSV exported by `--metrics`
//! (`t_us,metric,labels,value`; the labels field is double-quoted whenever
//! it is non-empty because multi-pair label strings embed commas).

use std::collections::BTreeMap;

/// All series from one metrics CSV, keyed by `(metric, labels)`.
#[derive(Debug, Default)]
pub struct MetricsCsv {
    /// Sample points per series, in file order (ascending time per series).
    pub series: BTreeMap<(String, String), Vec<(f64, f64)>>,
}

impl MetricsCsv {
    /// Parse a full CSV document. The header row is mandatory; any
    /// malformed row is a hard error (the exporter never produces one).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "t_us,metric,labels,value")) => {}
            Some((_, other)) => {
                return Err(format!(
                    "bad metrics CSV header: expected 't_us,metric,labels,value', got '{other}'"
                ))
            }
            None => return Err("empty metrics CSV".into()),
        }
        let mut out = MetricsCsv::default();
        for (idx, row) in lines {
            let cols =
                split_csv(row).ok_or_else(|| format!("line {}: unbalanced quotes", idx + 1))?;
            if cols.len() != 4 {
                return Err(format!(
                    "line {}: expected 4 CSV fields, got {}",
                    idx + 1,
                    cols.len()
                ));
            }
            let t: f64 = cols[0]
                .parse()
                .map_err(|_| format!("line {}: bad t_us '{}'", idx + 1, cols[0]))?;
            let v: f64 = cols[3]
                .parse()
                .map_err(|_| format!("line {}: bad value '{}'", idx + 1, cols[3]))?;
            out.series
                .entry((cols[1].clone(), cols[2].clone()))
                .or_default()
                .push((t, v));
        }
        Ok(out)
    }

    /// Look up one series.
    pub fn get(&self, metric: &str, labels: &str) -> Option<&[(f64, f64)]> {
        self.series
            .get(&(metric.to_string(), labels.to_string()))
            .map(Vec::as_slice)
    }

    /// Total sample rows.
    pub fn rows(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }
}

/// Split one CSV row honoring double-quoted fields; returns `None` on
/// unbalanced quotes. Quotes are stripped from the output.
fn split_csv(row: &str) -> Option<Vec<String>> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in row.chars() {
        match ch {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => out.push(std::mem::take(&mut cur)),
            _ => cur.push(ch),
        }
    }
    if in_quotes {
        return None;
    }
    out.push(cur);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_quoted_labels() {
        let csv = "t_us,metric,labels,value\n\
                   0.000,switch.port.backlog_bytes,\"sw=0,port=2\",128\n\
                   10.000,switch.port.backlog_bytes,\"sw=0,port=2\",0\n\
                   0.000,rpc.issued,,3\n";
        let m = MetricsCsv::parse(csv).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(
            m.get("switch.port.backlog_bytes", "sw=0,port=2").unwrap(),
            &[(0.0, 128.0), (10.0, 0.0)]
        );
        assert_eq!(m.get("rpc.issued", "").unwrap(), &[(0.0, 3.0)]);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(MetricsCsv::parse("").is_err());
        assert!(MetricsCsv::parse("nope\n").is_err());
        assert!(MetricsCsv::parse("t_us,metric,labels,value\n1,2,3\n").is_err());
        assert!(MetricsCsv::parse("t_us,metric,labels,value\nx,m,,1\n").is_err());
    }
}
