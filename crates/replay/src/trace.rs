//! Raw trace-line access: scan one JSONL line into a borrowed event record
//! and enforce the stream's schema contract (a `trace_header` first line
//! carrying a supported `schema_version`).

use crate::json::{scan_object, Value};
use aequitas_telemetry::TRACE_SCHEMA_VERSION;
use std::borrow::Cow;

/// Declares [`Kind`] and its tag table from one list, so that a kind's
/// position in [`Kind::KNOWN`] is its discriminant by construction.
macro_rules! kinds {
    ($($variant:ident $tag:literal,)+) => {
        /// The event types of schema v2, resolved once per line from the
        /// `type` tag so that dispatch and per-kind counting are a dense
        /// index, not a string compare. The list is this crate's own — the
        /// reader shares no code with the emitter beyond the schema
        /// constants.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kind {
            $(#[doc = concat!("`", $tag, "`")] $variant,)+
            /// A tag this build does not know.
            Unknown,
        }

        impl Kind {
            /// The known kinds with their tags: `KNOWN[kind as usize]`
            /// names `kind`.
            pub const KNOWN: &'static [(Kind, &'static str)] = &[$((Kind::$variant, $tag)),+];
        }
    };
}

kinds! {
    TraceHeader "trace_header",
    RunInfo "run_info",
    PktEnqueue "pkt_enqueue",
    PktDequeue "pkt_dequeue",
    PktDrop "pkt_drop",
    RpcIssue "rpc_issue",
    RpcComplete "rpc_complete",
    CwndUpdate "cwnd_update",
    Retransmit "retransmit",
    AdmitProb "admit_prob",
    FaultLinkDown "fault_link_down",
    FaultLinkUp "fault_link_up",
    FaultPktDrop "fault_pkt_drop",
    FaultQuotaOutage "fault_quota_outage",
    Warn "warn",
}

impl Kind {
    fn from_tag(tag: &str) -> Kind {
        let known = Kind::KNOWN.iter().find(|(_, t)| *t == tag);
        known.map_or(Kind::Unknown, |(k, _)| *k)
    }
}

/// Most fields a line may carry after `seq`/`t_ps`/`type`. The widest v2
/// event, `run_info`, has 12; a line with more is malformed.
pub const MAX_FIELDS: usize = 16;

/// One scanned trace line, borrowing from it. Field lookup is by key; the
/// leading `seq`/`t_ps`/`type` triple every record carries is hoisted out.
/// Values are converted when asked for, so a field nobody reads (all of
/// `cwnd_update`, say) is never parsed beyond its syntax check.
#[derive(Debug, Clone)]
pub struct RawEvent<'a> {
    /// Monotone per-stream sequence number.
    pub seq: u64,
    /// Simulated timestamp in picoseconds.
    pub t_ps: u64,
    /// The event's type, resolved from `tag`.
    pub kind: Kind,
    /// The event's `type` tag as written (e.g. `pkt_enqueue`).
    pub tag: Cow<'a, str>,
    /// The remaining fields, in serialized order; `len` are in use.
    fields: [(&'a str, Value<'a>); MAX_FIELDS],
    len: usize,
}

impl<'a> RawEvent<'a> {
    fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.fields[..self.len]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
    /// Numeric field as f64.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }
    /// Numeric field as an exact unsigned integer.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }
    /// String field: a slice of the line unless it holds escapes.
    pub fn str(&self, key: &str) -> Option<Cow<'a, str>> {
        self.get(key)?.as_str()
    }
    /// Boolean field.
    pub fn bool(&self, key: &str) -> Option<bool> {
        self.get(key)?.as_bool()
    }
    /// Array field with every element converted by `conv` (`None` if one
    /// does not convert).
    pub fn arr<T>(&self, key: &str, conv: impl Fn(&Value<'a>) -> Option<T>) -> Option<Vec<T>> {
        self.get(key)?.items()?.map(|v| conv(&v)).collect()
    }
}

/// Parse one trace line. Errors describe what is wrong with the line, not
/// where in the file it sits — callers add line numbers.
pub fn parse_line(line: &str) -> Result<RawEvent<'_>, String> {
    const LEAD: [&str; 3] = ["seq", "t_ps", "type"];
    let mut ev = RawEvent {
        seq: 0,
        t_ps: 0,
        kind: Kind::Unknown,
        tag: Cow::Borrowed(""),
        fields: [("", Value::NULL); MAX_FIELDS],
        len: 0,
    };
    let mut seen = 0;
    let missing =
        |at: usize| format!("line does not start with seq,t_ps,type: missing '{}'", LEAD[at]);
    scan_object(line, |key, value| {
        if seen < LEAD.len() {
            if key != LEAD[seen] {
                return Err(missing(seen));
            }
            if seen == 2 {
                ev.tag = value.as_str().ok_or_else(|| missing(seen))?;
                ev.kind = Kind::from_tag(&ev.tag);
            } else {
                let v = value
                    .as_u64()
                    .ok_or_else(|| format!("field '{key}' is not an unsigned 64-bit integer"))?;
                if seen == 0 {
                    ev.seq = v;
                } else {
                    ev.t_ps = v;
                }
            }
        } else {
            let slot = ev
                .fields
                .get_mut(ev.len)
                .ok_or_else(|| format!("more than {MAX_FIELDS} fields after seq,t_ps,type"))?;
            *slot = (key, value);
            ev.len += 1;
        }
        seen += 1;
        Ok(())
    })?;
    if seen < LEAD.len() {
        return Err(missing(seen));
    }
    Ok(ev)
}

/// Validate the stream header (must be the first line of every v2+ trace)
/// and return the schema version it declares. Errors are worded for humans:
/// a missing header means a pre-versioning trace, a version mismatch means
/// this binary is too old or too new for the file.
pub fn check_header(first: &RawEvent) -> Result<u32, String> {
    if first.kind != Kind::TraceHeader {
        return Err(format!(
            "trace does not start with a trace_header line (found '{}'); \
             this looks like a pre-v2 (unversioned) trace, which aequitas-replay \
             does not support — re-run the experiment with a current build",
            first.tag
        ));
    }
    let version = first
        .u64("schema_version")
        .ok_or("trace_header is missing a numeric schema_version field")?;
    if version != u64::from(TRACE_SCHEMA_VERSION) {
        return Err(format!(
            "unsupported trace schema version {version} (this build understands \
             version {TRACE_SCHEMA_VERSION}); regenerate the trace or use a matching \
             aequitas-replay build"
        ));
    }
    Ok(TRACE_SCHEMA_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_checks_header() {
        let ev = parse_line(
            "{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\"schema_version\":2}",
        )
        .unwrap();
        assert_eq!(ev.seq, 0);
        assert_eq!(ev.kind, Kind::TraceHeader);
        assert_eq!(check_header(&ev).unwrap(), TRACE_SCHEMA_VERSION);
    }

    #[test]
    fn rejects_wrong_version_and_missing_header() {
        let ev = parse_line(
            "{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\"schema_version\":99}",
        )
        .unwrap();
        let err = check_header(&ev).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        // 2^32 + 2 is not version 2.
        let ev = parse_line(
            "{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"schema_version\":4294967298}",
        )
        .unwrap();
        assert!(check_header(&ev).is_err());

        let ev =
            parse_line("{\"seq\":0,\"t_ps\":100,\"type\":\"pkt_enqueue\",\"node\":\"host0\"}")
                .unwrap();
        let err = check_header(&ev).unwrap_err();
        assert!(err.contains("pre-v2"), "{err}");
    }

    #[test]
    fn field_accessors() {
        let ev = parse_line(
            "{\"seq\":4,\"t_ps\":77,\"type\":\"run_info\",\"experiment\":\"x\",\"weights\":[4,1],\"mu\":0.8,\"down\":false}",
        )
        .unwrap();
        assert_eq!(ev.t_ps, 77);
        assert_eq!(ev.kind, Kind::RunInfo);
        assert_eq!(ev.str("experiment").as_deref(), Some("x"));
        assert_eq!(ev.arr("weights", Value::as_f64).unwrap(), vec![4.0, 1.0]);
        assert_eq!(ev.arr("weights", Value::as_u64).unwrap(), vec![4, 1]);
        assert_eq!(ev.arr("weights", Value::as_bool), None);
        assert_eq!(ev.num("mu"), Some(0.8));
        assert_eq!(ev.bool("down"), Some(false));
        assert_eq!(ev.u64("missing"), None);
    }

    #[test]
    fn kinds_index_their_own_table() {
        for (at, (kind, tag)) in Kind::KNOWN.iter().enumerate() {
            assert_eq!(*kind as usize, at, "{tag}");
            assert_eq!(Kind::from_tag(tag), *kind);
        }
        let ev = parse_line("{\"seq\":1,\"t_ps\":2,\"type\":\"pkt\\u005fdrop\"}").unwrap();
        assert_eq!((ev.kind, ev.tag.as_ref()), (Kind::PktDrop, "pkt_drop"));
        let ev = parse_line("{\"seq\":1,\"t_ps\":2,\"type\":\"novel\"}").unwrap();
        assert_eq!((ev.kind, ev.tag.as_ref()), (Kind::Unknown, "novel"));
    }

    /// Regression: `seq`/`t_ps` used to be read as `f64` and cast, so
    /// anything above 2^53 came back rounded and anything too large
    /// saturated, both without an error.
    #[test]
    fn lead_integers_are_exact_or_an_error() {
        let line = |n: &str| format!("{{\"seq\":{n},\"t_ps\":{n},\"type\":\"warn\",\"until_ps\":{n}}}");
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let text = line(&n.to_string());
            let ev = parse_line(&text).unwrap();
            assert_eq!((ev.seq, ev.t_ps, ev.u64("until_ps")), (n, n, Some(n)));
        }
        for bad in ["18446744073709551616", "100000000000000000000", "-1", "1.5", "\"1\""] {
            let err = parse_line(&line(bad)).unwrap_err();
            assert!(err.contains("'seq' is not an unsigned"), "{bad}: {err}");
        }
    }

    #[test]
    fn lead_and_width_are_enforced() {
        for bad in [
            "{}",
            "{\"seq\":1}",
            "{\"seq\":1,\"t_ps\":2}",
            "{\"t_ps\":2,\"seq\":1,\"type\":\"warn\"}",
            "{\"seq\":1,\"t_ps\":2,\"type\":3}",
        ] {
            let err = parse_line(bad).unwrap_err();
            assert!(err.contains("does not start with seq,t_ps,type"), "{bad}: {err}");
        }
        let wide = |n: usize| {
            let extra: String = (0..n).map(|i| format!(",\"k{i}\":{i}")).collect();
            format!("{{\"seq\":1,\"t_ps\":2,\"type\":\"warn\"{extra}}}")
        };
        let text = wide(MAX_FIELDS);
        assert_eq!(parse_line(&text).unwrap().u64("k15"), Some(15));
        assert!(parse_line(&wide(MAX_FIELDS + 1)).unwrap_err().contains("more than"));
    }
}
