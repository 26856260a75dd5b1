//! Report rendering: a deterministic JSON writer (the workspace has no
//! serde) plus the per-run replay/audit report in JSON and human-readable
//! form. Determinism matters — replaying the same trace twice must produce
//! byte-identical reports (guarded by `tests/replay.rs`), so everything
//! iterates ordered maps and floats are formatted via Rust's shortest
//! round-trip `Display`.

use crate::audit::AuditReport;
use crate::reconstruct::{ChannelStats, Reconstruction};
use std::fmt::Write as _;

/// A push-style JSON writer producing compact (single-line-per-call,
/// no-whitespace) output with deterministic field order — the caller's call
/// order is the field order.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` once it has at least one item.
    stack: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn comma(&mut self) {
        if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.buf.push(',');
            }
            *has_items = true;
        }
    }

    /// Write an object key (inside an object).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.comma();
        let _ = write!(self.buf, "\"{}\":", escape(k));
        // The value that follows must not emit another comma.
        if let Some(has_items) = self.stack.last_mut() {
            *has_items = false;
        }
        self
    }

    /// Open an object (as a value or array element).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('{');
        self.stack.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push('}');
        if let Some(has_items) = self.stack.last_mut() {
            *has_items = true;
        }
        self
    }

    /// Open an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('[');
        self.stack.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push(']');
        if let Some(has_items) = self.stack.last_mut() {
            *has_items = true;
        }
        self
    }

    /// Write a string value.
    pub fn str_val(&mut self, v: &str) -> &mut Self {
        self.comma();
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Write an integer value.
    pub fn u64_val(&mut self, v: u64) -> &mut Self {
        self.comma();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Write a float value (shortest round-trip form; non-finite → null).
    pub fn f64_val(&mut self, v: f64) -> &mut Self {
        self.comma();
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Write a bool value.
    pub fn bool_val(&mut self, v: bool) -> &mut Self {
        self.comma();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Write a null.
    pub fn null_val(&mut self) -> &mut Self {
        self.comma();
        self.buf.push_str("null");
        self
    }

    /// Finish and take the document.
    pub fn finish(self) -> String {
        self.buf
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn quantiles_obj(w: &mut JsonWriter, p: &mut aequitas_stats::Percentiles) {
    w.begin_obj();
    w.key("count").u64_val(p.count() as u64);
    for (k, v) in [
        ("p50", p.p50()),
        ("p99", p.p99()),
        ("p999", p.p999()),
        ("mean", p.mean()),
        ("max", p.max()),
    ] {
        match v {
            // Report in microseconds for readability; ps in, us out.
            Some(v) => w.key(k).f64_val(round6(v / 1e6)),
            None => w.key(k).null_val(),
        };
    }
    w.end_obj();
}

/// Round to 6 decimals so report floats stay short and stable.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

fn channel_obj(w: &mut JsonWriter, st: &mut ChannelStats) {
    w.key("issued").u64_val(st.issued);
    w.key("issued_bytes").u64_val(st.issued_bytes);
    w.key("downgraded_in").u64_val(st.downgraded_in);
    w.key("completed").u64_val(st.completed);
    w.key("rnl_per_mtu_us");
    quantiles_obj(w, &mut st.rnl_per_mtu_ps);
    w.key("rnl_us");
    quantiles_obj(w, &mut st.rnl_ps);
}

/// Render the full per-run report as a JSON document.
pub fn report_json(recon: &mut Reconstruction, report: &AuditReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("schema_version").u64_val(recon.schema_version as u64);
    match &recon.run_info {
        Some(info) => {
            w.key("experiment").str_val(&info.experiment);
            w.key("run_info").begin_obj();
            w.key("hosts").u64_val(info.hosts);
            w.key("classes").u64_val(info.classes);
            w.key("weights").begin_arr();
            for &x in &info.weights {
                w.f64_val(x);
            }
            w.end_arr();
            w.key("slos_per_mtu_ps").begin_arr();
            for &x in &info.slos_per_mtu_ps {
                w.u64_val(x);
            }
            w.end_arr();
            w.key("slo_percentile").f64_val(info.slo_percentile);
            w.key("warmup_ps").u64_val(info.warmup_ps);
            w.key("duration_ps").u64_val(info.duration_ps);
            w.key("senders").u64_val(info.senders);
            w.key("mu").f64_val(info.mu);
            w.key("rho").f64_val(info.rho);
            w.key("period_ps").u64_val(info.period_ps);
            w.end_obj();
        }
        None => {
            w.key("experiment").str_val("?");
            w.key("run_info").null_val();
        }
    }
    w.key("events").u64_val(recon.events);
    w.key("epochs").u64_val(recon.epochs);
    w.key("last_t_us").f64_val(round6(recon.last_t_ps as f64 / 1e6));
    w.key("verdict").str_val(report.verdict.as_str());
    w.key("checks").begin_arr();
    for c in &report.checks {
        w.begin_obj();
        w.key("name").str_val(&c.name);
        w.key("status").str_val(c.status.as_str());
        match c.measured {
            Some(v) => w.key("measured").f64_val(round6(v)),
            None => w.key("measured").null_val(),
        };
        match c.limit {
            Some(v) => w.key("limit").f64_val(round6(v)),
            None => w.key("limit").null_val(),
        };
        w.key("detail").str_val(&c.detail);
        w.end_obj();
    }
    w.end_arr();
    w.key("event_counts").begin_obj();
    for (kind, n) in &recon.kind_counts {
        w.key(kind).u64_val(*n);
    }
    w.end_obj();
    w.key("qos").begin_arr();
    for (&q, st) in recon.qos.iter_mut() {
        w.begin_obj();
        w.key("qos").u64_val(q);
        channel_obj(&mut w, st);
        w.end_obj();
    }
    w.end_arr();
    w.key("channels").begin_arr();
    for (&key, st) in recon.channels.iter_mut() {
        w.begin_obj();
        w.key("src").u64_val(key.0);
        w.key("dst").u64_val(key.1);
        w.key("qos").u64_val(key.2);
        channel_obj(&mut w, st);
        w.end_obj();
    }
    w.end_arr();
    w.key("ports").begin_arr();
    for (key, port) in recon.ports.iter_mut() {
        w.begin_obj();
        w.key("node").str_val(&key.node);
        w.key("port").u64_val(key.port);
        w.key("max_backlog_bytes").u64_val(port.max_backlog_bytes);
        w.key("enq_pkts").u64_val(port.enq_pkts);
        w.key("deq_pkts").u64_val(port.deq_pkts);
        w.key("drop_pkts").u64_val(port.drop_pkts);
        w.key("fault_drop_pkts").u64_val(port.fault_drop_pkts);
        w.key("classes").begin_arr();
        for (&c, ct) in port.classes.iter_mut() {
            w.begin_obj();
            w.key("class").u64_val(c);
            w.key("enq_bytes").u64_val(ct.enq_bytes);
            w.key("max_depth_pkts").u64_val(ct.max_depth_pkts);
            w.key("max_delay_us")
                .f64_val(round6(ct.max_delay_ps as f64 / 1e6));
            match ct.delay_ps.p99() {
                Some(v) => w.key("p99_delay_us").f64_val(round6(v / 1e6)),
                None => w.key("p99_delay_us").null_val(),
            };
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.key("admit").begin_arr();
    for (&(host, dst, qos), at) in &recon.admit {
        w.begin_obj();
        w.key("host").u64_val(host);
        w.key("dst").u64_val(dst);
        w.key("qos").u64_val(qos);
        w.key("updates").u64_val(at.points.len() as u64);
        w.key("min_p").f64_val(round6(at.min_p));
        w.key("max_p").f64_val(round6(at.max_p));
        w.key("final_p")
            .f64_val(round6(at.points.last().map_or(0.0, |&(_, p)| p)));
        w.end_obj();
    }
    w.end_arr();
    w.key("faults").begin_obj();
    w.key("link_windows")
        .u64_val(recon.faults.link_windows.values().map(|v| v.len() as u64).sum());
    w.key("quota_windows")
        .u64_val(recon.faults.quota_windows.values().map(|v| v.len() as u64).sum());
    w.key("pkt_drops").u64_val(recon.faults.pkt_drops);
    w.key("corrupt_drops").u64_val(recon.faults.corrupt_drops);
    w.end_obj();
    w.key("warnings").begin_obj();
    w.key("count").u64_val(recon.warn_count);
    w.key("samples").begin_arr();
    for s in &recon.warn_samples {
        w.str_val(s);
    }
    w.end_arr();
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Render the human-readable verdict report. Returned as a string so the
/// CLI (or harness self-audit) decides where it goes.
pub fn report_text(recon: &mut Reconstruction, report: &AuditReport) -> String {
    let mut out = String::new();
    let exp = recon
        .run_info
        .as_ref()
        .map_or("?".to_string(), |i| i.experiment.clone());
    let _ = writeln!(
        out,
        "audit: experiment={exp} events={} epochs={} last_t={:.3}ms verdict={}",
        recon.events,
        recon.epochs,
        recon.last_t_ps as f64 / 1e9,
        report.verdict.as_str()
    );
    for c in &report.checks {
        let nums = match (c.measured, c.limit) {
            (Some(m), Some(l)) => format!(" [{:.4} vs {:.4}]", m, l),
            _ => String::new(),
        };
        let _ = writeln!(out, "  {:<22} {:<4}{nums} {}", c.name, c.status.as_str(), c.detail);
    }
    for (&q, st) in recon.qos.iter_mut() {
        if let (Some(p50), Some(p99), Some(p999)) = (
            st.rnl_per_mtu_ps.p50(),
            st.rnl_per_mtu_ps.p99(),
            st.rnl_per_mtu_ps.p999(),
        ) {
            let _ = writeln!(
                out,
                "  qos{q}: {} done, RNL/MTU p50 {:.3}us p99 {:.3}us p99.9 {:.3}us",
                st.completed,
                p50 / 1e6,
                p99 / 1e6,
                p999 / 1e6
            );
        }
    }
    // Recovery: when the trace carries fault windows and per-QoS SLOs,
    // report how long after the first fault onset each QoS's windowed p99
    // stayed above its SLO (crate::timeline semantics).
    let onset = recon
        .faults
        .link_windows
        .values()
        .flat_map(|ws| ws.iter().map(|&(start, _)| start))
        .min();
    if let (Some(onset), Some(info)) = (onset, recon.run_info.as_ref()) {
        const RECOVERY_WINDOW_PS: u64 = 500_000_000; // 500 us buckets
        for (&q, points) in &recon.qos_rnl_points {
            let slo = info
                .slos_per_mtu_ps
                .get(q as usize)
                .copied()
                .unwrap_or(0);
            if slo == 0 {
                continue;
            }
            let Some(tl) = crate::timeline::windowed(points, RECOVERY_WINDOW_PS) else {
                let _ = writeln!(
                    out,
                    "  qos{q}: recovery not computed: completions span more than {} windows of 500us",
                    crate::timeline::MAX_WINDOWS
                );
                continue;
            };
            let restored = crate::timeline::time_to_restore(&tl, onset, slo as f64);
            let _ = match restored {
                Some(d) => writeln!(
                    out,
                    "  qos{q}: SLO restored {:.3}ms after fault onset ({:.3}ms)",
                    d as f64 / 1e9,
                    onset as f64 / 1e9
                ),
                None => writeln!(
                    out,
                    "  qos{q}: SLO NOT restored within the trace after fault onset ({:.3}ms)",
                    onset as f64 / 1e9
                ),
            };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_nested_json() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("a").u64_val(1);
        w.key("b").begin_arr();
        w.u64_val(1);
        w.str_val("x\"y");
        w.begin_obj();
        w.key("c").bool_val(true);
        w.end_obj();
        w.end_arr();
        w.key("d").f64_val(0.5);
        w.key("e").null_val();
        w.end_obj();
        let doc = w.finish();
        assert_eq!(doc, "{\"a\":1,\"b\":[1,\"x\\\"y\",{\"c\":true}],\"d\":0.5,\"e\":null}");
        // Our own scanner accepts it (objects nested in arrays aside).
        crate::json::scan_object("{\"a\":1,\"d\":0.5,\"e\":null}", |_, _| Ok(())).unwrap();
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("x").f64_val(f64::NAN);
        w.end_obj();
        assert_eq!(w.finish(), "{\"x\":null}");
    }
}
