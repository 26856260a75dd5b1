//! Raw trace-line access: scan one JSONL line into a borrowed event record
//! and enforce the stream's schema contract (a `trace_header` first line
//! carrying a supported `schema_version`).

use crate::json::{Fields, Value};
use aequitas_telemetry::TRACE_SCHEMA_VERSION;
use std::borrow::Cow;

/// Declares [`Kind`], its tag table and each kind's fields from one list,
/// so that a kind's position in [`Kind::KNOWN`] is its discriminant by
/// construction.
macro_rules! kinds {
    ($($variant:ident $tag:literal [$($field:ident),*],)+) => {
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

            fn from_tag(tag: &str) -> Kind {
                match tag {
                    $($tag => Kind::$variant,)+
                    _ => Kind::Unknown,
                }
            }

            /// The fields schema v2 writes for this kind after the lead, in
            /// the order it writes them.
            pub fn fields(self) -> &'static [Field] {
                match self {
                    $(Kind::$variant => &[$(Field::$field),*],)+
                    Kind::Unknown => &[],
                }
            }
        }
    };
}

kinds! {
    TraceHeader "trace_header" [Format, SchemaVersion],
    RunInfo "run_info" [
        Experiment, Hosts, Classes, Weights, SlosPerMtuPs, SloPercentile, WarmupPs, DurationPs,
        Senders, Mu, Rho, PeriodPs
    ],
    PktEnqueue "pkt_enqueue" [Node, Port, Class, Bytes, DepthPkts, BacklogBytes],
    PktDequeue "pkt_dequeue" [Node, Port, Class, Bytes, BacklogBytes],
    PktDrop "pkt_drop" [Node, Port, Class, Bytes, BacklogBytes],
    RpcIssue "rpc_issue" [Host, Dst, QosReq, QosRun, Downgraded, SizeBytes, PAdmit],
    RpcComplete "rpc_complete" [Host, Dst, QosRun, Downgraded, SizeBytes, RnlPs, RnlPerMtuPs],
    CwndUpdate "cwnd_update" [Host, Dst, Class, Cwnd, RttPs, TargetPs, OverTarget],
    Retransmit "retransmit" [Host, Dst, Class, MsgId, Seq],
    AdmitProb "admit_prob" [Host, Dst, Qos, P, Delta],
    FaultLinkDown "fault_link_down" [Node, Port, UntilPs],
    FaultLinkUp "fault_link_up" [Node, Port],
    FaultPktDrop "fault_pkt_drop" [Node, Port, Class, Bytes, Corrupt],
    FaultQuotaOutage "fault_quota_outage" [Host, Down],
    Warn "warn" [Component, Message],
}

/// Declares [`Field`] from one list of variants and keys.
macro_rules! fields {
    ($($variant:ident $key:literal,)+) => {
        /// The keys schema v2 writes after the leading `seq`/`t_ps`/`type`
        /// triple. A line's keys are resolved to these once, as it is
        /// scanned, so that reading a field is an array index rather than a
        /// search by string compare. A key outside this list is kept under
        /// its text (see [`Key`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Field {
            $(#[doc = concat!("`", $key, "`")] $variant,)+
        }

        impl Field {
            /// How many fields there are: `field as usize` is below it.
            pub const COUNT: usize = [$($key),+].len();

            /// Each field's key as it opens a field on the line, `"key":`.
            const PREFIX: [&'static str; Field::COUNT] = [$(concat!("\"", $key, "\":")),+];

            /// The field `key` names, if it is one of schema v2's.
            pub fn from_key(key: &str) -> Option<Field> {
                match key {
                    $($key => Some(Field::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

fields! {
    Format "format",
    SchemaVersion "schema_version",
    Experiment "experiment",
    Hosts "hosts",
    Classes "classes",
    Weights "weights",
    SlosPerMtuPs "slos_per_mtu_ps",
    SloPercentile "slo_percentile",
    WarmupPs "warmup_ps",
    DurationPs "duration_ps",
    Senders "senders",
    Mu "mu",
    Rho "rho",
    PeriodPs "period_ps",
    Node "node",
    Port "port",
    Class "class",
    Bytes "bytes",
    DepthPkts "depth_pkts",
    BacklogBytes "backlog_bytes",
    Host "host",
    Dst "dst",
    QosReq "qos_req",
    QosRun "qos_run",
    Downgraded "downgraded",
    SizeBytes "size_bytes",
    PAdmit "p_admit",
    RnlPs "rnl_ps",
    RnlPerMtuPs "rnl_per_mtu_ps",
    Cwnd "cwnd",
    RttPs "rtt_ps",
    TargetPs "target_ps",
    OverTarget "over_target",
    MsgId "msg_id",
    Seq "seq",
    Qos "qos",
    P "p",
    Delta "delta",
    UntilPs "until_ps",
    Corrupt "corrupt",
    Down "down",
    Component "component",
    Message "message",
}

/// What a [`RawEvent`] accessor looks a field up by. A [`Field`] is an
/// array index. A key's text converts to its `Field` when it names one, and
/// otherwise is searched for among the line's unknown keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key<'k> {
    /// One of schema v2's keys.
    Known(Field),
    /// Any other key, by its text.
    Unknown(&'k str),
}

impl From<Field> for Key<'_> {
    fn from(field: Field) -> Self {
        Key::Known(field)
    }
}

impl<'k> From<&'k str> for Key<'k> {
    fn from(key: &'k str) -> Self {
        Field::from_key(key).map_or(Key::Unknown(key), Key::Known)
    }
}

/// Most fields a line may carry after `seq`/`t_ps`/`type`. The widest v2
/// event, `run_info`, has 12; a line with more is malformed.
pub const MAX_FIELDS: usize = 16;

/// One scanned trace line, borrowing from it. The leading
/// `seq`/`t_ps`/`type` triple every record carries is hoisted out; the
/// remaining fields are found by [`Key`]. Values are converted when asked
/// for, so a field nobody reads (all of `cwnd_update`, say) is never parsed
/// beyond its syntax check.
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
    /// The whole line, which a lookup by an unknown key scans again.
    line: &'a str,
    /// Per [`Field`]: 1 + its value's position in `values`, or 0 when the
    /// line lacks it. A repeated key keeps its first value.
    slot: [u8; Field::COUNT],
    /// The known fields' values, in serialized order; `known` are in use.
    values: [Value<'a>; MAX_FIELDS],
    known: u8,
}

impl<'a> RawEvent<'a> {
    fn get<'k>(&self, key: impl Into<Key<'k>>) -> Option<Value<'a>> {
        match key.into() {
            Key::Known(field) => {
                let at = usize::from(self.slot[field as usize]).checked_sub(1)?;
                self.values.get(at).copied()
            }
            // Rare (no v2 key is unknown), so not worth storing: the line
            // parsed once already, and its fields after the lead are
            // walked again.
            Key::Unknown(key) => {
                let mut fields = Fields::new(self.line);
                std::iter::from_fn(|| fields.next_field().ok().flatten())
                    .skip(3)
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v)
            }
        }
    }
    /// Numeric field as f64.
    pub fn num<'k>(&self, key: impl Into<Key<'k>>) -> Option<f64> {
        self.get(key)?.as_f64()
    }
    /// Numeric field as an exact unsigned integer.
    pub fn u64<'k>(&self, key: impl Into<Key<'k>>) -> Option<u64> {
        self.get(key)?.as_u64()
    }
    /// String field: a slice of the line unless it holds escapes.
    pub fn str<'k>(&self, key: impl Into<Key<'k>>) -> Option<Cow<'a, str>> {
        self.get(key)?.as_str()
    }
    /// Boolean field.
    pub fn bool<'k>(&self, key: impl Into<Key<'k>>) -> Option<bool> {
        self.get(key)?.as_bool()
    }
    /// Array field with every element converted by `conv` (`None` if one
    /// does not convert).
    pub fn arr<'k, T>(
        &self,
        key: impl Into<Key<'k>>,
        conv: impl Fn(&Value<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.get(key)?.items()?.map(|v| conv(&v)).collect()
    }
}

/// The value of the line's next field, which must be the lead key written
/// as `literal` (`"key":`). The literal is tried first, for the common case.
fn lead<'a>(fields: &mut Fields<'a>, literal: &str) -> Result<Value<'a>, String> {
    if let Some(value) = fields.value_if_key(literal)? {
        return Ok(value);
    }
    let key = &literal[1..literal.len() - 2];
    match fields.next_field()? {
        Some((k, value)) if k == key => Ok(value),
        _ => Err(missing_lead(key)),
    }
}

#[cold]
fn missing_lead(key: &str) -> String {
    format!("line does not start with seq,t_ps,type: missing '{key}'")
}

/// A lead integer: exact, or an error.
fn lead_u64(fields: &mut Fields<'_>, literal: &str) -> Result<u64, String> {
    lead(fields, literal)?.as_u64().ok_or_else(|| {
        let key = &literal[1..literal.len() - 2];
        format!("field '{key}' is not an unsigned 64-bit integer")
    })
}

/// The line's next field, with its key resolved (`None` for a key outside
/// [`Field`]). The field the writer puts at this position of the line is
/// `expected`, and is tried first, by its literal.
fn resolved<'a>(
    fields: &mut Fields<'a>,
    expected: Option<&Field>,
) -> Result<Option<(Option<Field>, Value<'a>)>, String> {
    if let Some(&field) = expected {
        if let Some(value) = fields.value_if_key(Field::PREFIX[field as usize])? {
            return Ok(Some((Some(field), value)));
        }
    }
    Ok(fields
        .next_field()?
        .map(|(key, value)| (Field::from_key(key), value)))
}

/// Parse one trace line. Errors describe what is wrong with the line, not
/// where in the file it sits — callers add line numbers.
pub fn parse_line(line: &str) -> Result<RawEvent<'_>, String> {
    let mut fields = Fields::new(line);
    let seq = lead_u64(&mut fields, "\"seq\":")?;
    let t_ps = lead_u64(&mut fields, "\"t_ps\":")?;
    let tag = lead(&mut fields, "\"type\":")?
        .as_str()
        .ok_or_else(|| missing_lead("type"))?;
    let kind = Kind::from_tag(&tag);
    let mut ev = RawEvent {
        seq,
        t_ps,
        kind,
        tag,
        line,
        slot: [0; Field::COUNT],
        values: [Value::NULL; MAX_FIELDS],
        known: 0,
    };
    let expected = kind.fields();
    let mut n = 0;
    while let Some((field, value)) = resolved(&mut fields, expected.get(n))? {
        n += 1;
        if n > MAX_FIELDS {
            return Err(format!("more than {MAX_FIELDS} fields after seq,t_ps,type"));
        }
        if let Some(field) = field {
            let slot = &mut ev.slot[field as usize];
            if let (0, Some(stored)) = (*slot, ev.values.get_mut(usize::from(ev.known))) {
                *stored = value;
                ev.known += 1;
                *slot = ev.known;
            }
        }
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
        .u64(Field::SchemaVersion)
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

        let ev = parse_line("{\"seq\":0,\"t_ps\":100,\"type\":\"pkt_enqueue\",\"node\":\"host0\"}")
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

    /// `Field` and `Kind::fields` are the reader's own copy of the schema,
    /// checked here against the writer's golden stream: every key after the
    /// lead is a `Field`, and each kind lists its keys in the order they are
    /// written (the order the scan tries first).
    #[test]
    fn each_kind_lists_the_keys_the_writer_writes_in_order() {
        let golden = include_str!("../../telemetry/tests/fixtures/trace_v2_golden.jsonl");
        for line in golden.lines() {
            let mut fields = Fields::new(line);
            let keys: Vec<&str> = std::iter::from_fn(|| fields.next_field().unwrap())
                .skip(3)
                .map(|(key, _)| key)
                .collect();
            let listed: Vec<&str> = parse_line(line)
                .unwrap()
                .kind
                .fields()
                .iter()
                .map(|&f| {
                    let prefix = Field::PREFIX[f as usize];
                    assert_eq!(Field::from_key(&prefix[1..prefix.len() - 2]), Some(f));
                    &prefix[1..prefix.len() - 2]
                })
                .collect();
            assert_eq!(keys, listed, "{line}");
        }
    }

    /// Keys out of the writer's order, unknown keys among known ones, and a
    /// repeated key: every field is still found, the first value winning.
    #[test]
    fn fields_out_of_order_or_unknown_are_still_found() {
        let ev = parse_line(
            "{\"seq\":1,\"t_ps\":2,\"type\":\"pkt_enqueue\",\"bytes\":7,\"x\":\"y\",\"node\":\"host1\",\
             \"port\":3,\"bytes\":8,\"seq\":9}",
        )
        .unwrap();
        assert_eq!(ev.kind, Kind::PktEnqueue);
        assert_eq!(ev.u64(Field::Bytes), Some(7));
        assert_eq!(ev.u64("bytes"), Some(7));
        assert_eq!(ev.str(Field::Node).as_deref(), Some("host1"));
        assert_eq!(ev.u64(Field::Port), Some(3));
        assert_eq!(ev.str("x").as_deref(), Some("y"));
        // The lead is not a field; a later `seq` is.
        assert_eq!(
            (ev.seq, ev.u64(Field::Seq), ev.u64("t_ps")),
            (1, Some(9), None)
        );
        assert_eq!(ev.u64(Field::Class), None);
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
        let line =
            |n: &str| format!("{{\"seq\":{n},\"t_ps\":{n},\"type\":\"warn\",\"until_ps\":{n}}}");
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let text = line(&n.to_string());
            let ev = parse_line(&text).unwrap();
            assert_eq!((ev.seq, ev.t_ps, ev.u64("until_ps")), (n, n, Some(n)));
        }
        for bad in [
            "18446744073709551616",
            "100000000000000000000",
            "-1",
            "1.5",
            "\"1\"",
        ] {
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
            assert!(
                err.contains("does not start with seq,t_ps,type"),
                "{bad}: {err}"
            );
        }
        let wide = |n: usize| {
            let extra: String = (0..n).map(|i| format!(",\"k{i}\":{i}")).collect();
            format!("{{\"seq\":1,\"t_ps\":2,\"type\":\"warn\"{extra}}}")
        };
        let text = wide(MAX_FIELDS);
        assert_eq!(parse_line(&text).unwrap().u64("k15"), Some(15));
        assert!(parse_line(&wide(MAX_FIELDS + 1))
            .unwrap_err()
            .contains("more than"));
    }
}
