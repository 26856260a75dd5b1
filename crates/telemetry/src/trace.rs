//! Typed lifecycle events and the sinks that consume them.
//!
//! Every instrumented layer emits [`TraceEvent`]s through a shared
//! [`Telemetry`](crate::Telemetry) handle; the handle serializes them to
//! JSONL (one object per line, stable field order, `t_ps` simulated
//! timestamp plus a monotone `seq`) and forwards the line to a
//! [`TraceSink`]. Two sinks ship with the crate: [`JsonlWriter`] streams to
//! a file for offline analysis, and [`FlightRecorder`] keeps the last N
//! lines in a ring buffer so a failing test or aborted run can dump the
//! events leading up to the problem.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version of the JSONL trace schema. Every enabled telemetry handle writes
/// a `trace_header` line (seq 0) carrying this number, and `aequitas-replay`
/// refuses traces whose version it does not understand. Bump it whenever a
/// [`TraceEvent`] variant or field is added, removed, renamed, or its
/// serialized form changes. The committed golden stream
/// (`tests/fixtures/trace_v2_golden.jsonl`) makes such a change visible: its
/// event list must name every variant to compile, and the writer must
/// reproduce it byte for byte.
///
/// History: v1 = the headerless PR 2 format; v2 added the `trace_header` and
/// `run_info` lines.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Which kind of node a packet event happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A host NIC egress port.
    Host,
    /// A switch egress port.
    Switch,
}

impl NodeKind {
    fn label(self) -> &'static str {
        match self {
            NodeKind::Host => "host",
            NodeKind::Switch => "switch",
        }
    }
}

/// A structured lifecycle event. Field units are encoded in the names
/// (`*_ps` = picoseconds of simulated time, `*_bytes` = bytes).
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// Stream header, always the first line (seq 0) of a trace. Carries the
    /// schema version so offline tooling can fail loudly on drift.
    TraceHeader {
        /// The [`TRACE_SCHEMA_VERSION`] the producing build was compiled
        /// with.
        schema_version: u32,
    },
    /// Experiment parameters, emitted once per engine build by the
    /// experiment harness so a trace is self-describing: the replay auditor
    /// reads bounds inputs (WFQ weights, burst-period parameters) and SLO
    /// targets from here instead of requiring them on the command line.
    /// Unknown numeric parameters are recorded as 0 and the corresponding
    /// audit checks are skipped.
    RunInfo {
        /// Experiment name (harness setup name or figure id).
        experiment: String,
        /// Number of hosts in the topology.
        hosts: u32,
        /// Number of QoS classes.
        classes: u32,
        /// WFQ weights per class, highest QoS first (empty when the
        /// scheduler is not WFQ).
        weights: Vec<f64>,
        /// Per-class RNL-per-MTU SLO targets in picoseconds (0 = no SLO for
        /// that class).
        slos_per_mtu_ps: Vec<u64>,
        /// Percentile at which the SLOs are evaluated (e.g. 99.9).
        slo_percentile: f64,
        /// Warmup cutoff: completions issued before this are excluded from
        /// audited statistics.
        warmup_ps: u64,
        /// Scheduled run duration.
        duration_ps: u64,
        /// Number of hosts with an active workload (traffic sources).
        senders: u32,
        /// Aggregate mean offered load at the shared bottleneck as a
        /// fraction of line rate — the paper's μ (0 when unknown).
        mu: f64,
        /// Aggregate burst-phase arrival rate as a fraction of line rate —
        /// the paper's ρ (0 when unknown or the arrival process is not
        /// burst/on-off).
        rho: f64,
        /// Burst period of the on/off arrival process in picoseconds (0
        /// when not burst/on-off; bound audits need this to normalize
        /// delays).
        period_ps: u64,
    },
    /// A packet was accepted into an egress-port queue.
    PktEnqueue {
        /// Node kind the port belongs to.
        node: NodeKind,
        /// Node index (host id or switch id).
        node_id: usize,
        /// Egress port index (always 0 for host NICs).
        port: usize,
        /// QoS class of the packet.
        class: usize,
        /// Packet size on the wire.
        bytes: u32,
        /// Queued packets of this class after the enqueue.
        depth_pkts: usize,
        /// Total queued bytes at the port after the enqueue.
        backlog_bytes: u64,
    },
    /// A packet was selected for transmission.
    PktDequeue {
        /// Node kind the port belongs to.
        node: NodeKind,
        /// Node index.
        node_id: usize,
        /// Egress port index.
        port: usize,
        /// QoS class of the packet.
        class: usize,
        /// Packet size on the wire.
        bytes: u32,
        /// Total queued bytes remaining at the port.
        backlog_bytes: u64,
    },
    /// A packet was rejected at enqueue (tail drop).
    PktDrop {
        /// Node kind the port belongs to.
        node: NodeKind,
        /// Node index.
        node_id: usize,
        /// Egress port index.
        port: usize,
        /// QoS class of the packet.
        class: usize,
        /// Packet size on the wire.
        bytes: u32,
        /// Total queued bytes at the port when the drop happened.
        backlog_bytes: u64,
    },
    /// An RPC passed through admission control and entered the transport.
    RpcIssue {
        /// Issuing host.
        host: usize,
        /// Destination host.
        dst: usize,
        /// QoS the application requested.
        qos_req: u8,
        /// QoS the RPC actually runs on.
        qos_run: u8,
        /// Whether admission control downgraded it.
        downgraded: bool,
        /// Payload size.
        size_bytes: u64,
        /// Admit probability of the (dst, qos_req) channel at issue time.
        p_admit: f64,
    },
    /// An RPC completed (last byte acknowledged).
    RpcComplete {
        /// Issuing host.
        host: usize,
        /// Destination host.
        dst: usize,
        /// QoS the RPC ran on.
        qos_run: u8,
        /// Whether it had been downgraded.
        downgraded: bool,
        /// Payload size.
        size_bytes: u64,
        /// RPC network latency in picoseconds.
        rnl_ps: u64,
        /// RNL divided by the RPC's size in MTUs.
        rnl_per_mtu_ps: u64,
    },
    /// The congestion window changed after an RTT sample.
    CwndUpdate {
        /// Sending host.
        host: usize,
        /// Destination host.
        dst: usize,
        /// QoS class of the connection.
        class: u8,
        /// Congestion window after the update, in packets.
        cwnd: f64,
        /// The RTT sample that drove the update.
        rtt_ps: u64,
        /// The Swift target delay the sample was compared against.
        target_ps: u64,
        /// Whether the sample exceeded the target (decrease pressure).
        over_target: bool,
    },
    /// A segment retransmission after RTO expiry.
    Retransmit {
        /// Sending host.
        host: usize,
        /// Destination host.
        dst: usize,
        /// QoS class of the connection.
        class: u8,
        /// Message the segment belongs to.
        msg_id: u64,
        /// Segment index within the message.
        seq: u32,
    },
    /// Algorithm 1 changed an admit probability (AIMD step).
    AdmitProb {
        /// Host owning the controller (the channel's source).
        host: usize,
        /// Destination host of the channel.
        dst: usize,
        /// QoS level of the channel.
        qos: u8,
        /// Admit probability after the step.
        p: f64,
        /// Signed change applied by this step.
        delta: f64,
    },
    /// Fault injection took a link down; transmissions are deferred.
    FaultLinkDown {
        /// Node kind owning the link's transmit port.
        node: NodeKind,
        /// Node index.
        node_id: usize,
        /// Egress port index.
        port: usize,
        /// When the link is scheduled to come back up (picoseconds).
        until_ps: u64,
    },
    /// A faulted link came back up; deferred transmissions resume.
    FaultLinkUp {
        /// Node kind owning the link's transmit port.
        node: NodeKind,
        /// Node index.
        node_id: usize,
        /// Egress port index.
        port: usize,
    },
    /// Fault injection destroyed a packet in transit (loss or corruption).
    FaultPktDrop {
        /// Node kind the packet was transmitted from.
        node: NodeKind,
        /// Node index.
        node_id: usize,
        /// Egress port index.
        port: usize,
        /// QoS class of the packet.
        class: usize,
        /// Packet size on the wire.
        bytes: u32,
        /// True when the frame was corrupted rather than cleanly lost.
        corrupt: bool,
    },
    /// The quota server became unreachable or reachable again for a host.
    FaultQuotaOutage {
        /// Host observing the outage.
        host: usize,
        /// True at outage start, false at recovery.
        down: bool,
    },
    /// A diagnostic message from any layer.
    Warn {
        /// Emitting component (crate or module name).
        component: String,
        /// Human-readable message.
        message: String,
    },
}

/// A value [`TraceEvent::write_json`] formats by hand: anything but a float.
trait Put {
    /// Append the value's JSON rendering to `s`.
    fn put(self, s: &mut String);
}

/// Append `,"key":value` for each pair; the key fragment is assembled at
/// compile time.
macro_rules! put {
    ($s:ident, $($key:literal: $value:expr),+) => {{
        $(
            $s.push_str(concat!(",\"", $key, "\":"));
            Put::put($value, $s);
        )+
    }};
}
impl TraceEvent {
    /// The event's `type` tag as it appears in the JSONL output.
    pub fn type_tag(&self) -> &'static str {
        match self {
            TraceEvent::TraceHeader { .. } => "trace_header",
            TraceEvent::RunInfo { .. } => "run_info",
            TraceEvent::PktEnqueue { .. } => "pkt_enqueue",
            TraceEvent::PktDequeue { .. } => "pkt_dequeue",
            TraceEvent::PktDrop { .. } => "pkt_drop",
            TraceEvent::RpcIssue { .. } => "rpc_issue",
            TraceEvent::RpcComplete { .. } => "rpc_complete",
            TraceEvent::CwndUpdate { .. } => "cwnd_update",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::AdmitProb { .. } => "admit_prob",
            TraceEvent::FaultLinkDown { .. } => "fault_link_down",
            TraceEvent::FaultLinkUp { .. } => "fault_link_up",
            TraceEvent::FaultPktDrop { .. } => "fault_pkt_drop",
            TraceEvent::FaultQuotaOutage { .. } => "fault_quota_outage",
            TraceEvent::Warn { .. } => "warn",
        }
    }

    /// Serialize as one JSON object (no trailing newline). Convenience
    /// wrapper over [`TraceEvent::write_json`] that allocates a fresh
    /// string; hot paths reuse a scratch buffer instead.
    pub fn to_json(&self, seq: u64, t_ps: u64) -> String {
        let mut s = String::with_capacity(160);
        self.write_json(&mut s, seq, t_ps);
        s
    }

    /// Serialize as one JSON object (no trailing newline) appended to `s`.
    /// `seq` and `t_ps` lead every record so downstream tools can sort/merge
    /// streams. Byte-identical to what [`TraceEvent::to_json`] returns.
    ///
    /// Keys are literal fragments and everything but a float is formatted by
    /// hand (`Put`): `core::fmt` costs more per integer than the digits
    /// themselves, and a packet line carries nine. Floats stay on `core::fmt`
    /// so the `{}`/`{:.4}`/`{:.6}` renderings cannot drift by a digit.
    pub fn write_json(&self, s: &mut String, seq: u64, t_ps: u64) {
        s.push_str("{\"seq\":");
        seq.put(s);
        put!(s, "t_ps": t_ps);
        s.push_str(",\"type\":\""); // a tag needs no escaping
        s.push_str(self.type_tag());
        s.push('"');
        match self {
            TraceEvent::TraceHeader { schema_version } => {
                put!(s, "format": "aequitas-trace", "schema_version": *schema_version);
            }
            TraceEvent::RunInfo {
                experiment,
                hosts,
                classes,
                weights,
                slos_per_mtu_ps,
                slo_percentile,
                warmup_ps,
                duration_ps,
                senders,
                mu,
                rho,
                period_ps,
            } => {
                put!(s, "experiment": experiment.as_str(), "hosts": *hosts, "classes": *classes);
                s.push_str(",\"weights\":[");
                for (i, w) in weights.iter().enumerate() {
                    let _ = write!(s, "{}{w}", if i > 0 { "," } else { "" });
                }
                s.push_str("],\"slos_per_mtu_ps\":[");
                for (i, v) in slos_per_mtu_ps.iter().enumerate() {
                    s.push_str(if i > 0 { "," } else { "" });
                    (*v).put(s);
                }
                let _ = write!(s, "],\"slo_percentile\":{slo_percentile}");
                put!(s, "warmup_ps": *warmup_ps, "duration_ps": *duration_ps, "senders": *senders);
                let _ = write!(s, ",\"mu\":{mu},\"rho\":{rho}");
                put!(s, "period_ps": *period_ps);
            }
            TraceEvent::PktEnqueue {
                node,
                node_id,
                port,
                class,
                bytes,
                depth_pkts,
                backlog_bytes,
            } => put!(
                s, "node": (*node, *node_id), "port": *port, "class": *class, "bytes": *bytes,
                "depth_pkts": *depth_pkts, "backlog_bytes": *backlog_bytes
            ),
            TraceEvent::PktDequeue {
                node,
                node_id,
                port,
                class,
                bytes,
                backlog_bytes,
            }
            | TraceEvent::PktDrop {
                node,
                node_id,
                port,
                class,
                bytes,
                backlog_bytes,
            } => put!(
                s, "node": (*node, *node_id), "port": *port, "class": *class, "bytes": *bytes,
                "backlog_bytes": *backlog_bytes
            ),
            TraceEvent::RpcIssue {
                host,
                dst,
                qos_req,
                qos_run,
                downgraded,
                size_bytes,
                p_admit,
            } => {
                put!(
                    s, "host": *host, "dst": *dst, "qos_req": *qos_req, "qos_run": *qos_run,
                    "downgraded": *downgraded, "size_bytes": *size_bytes
                );
                let _ = write!(s, ",\"p_admit\":{p_admit:.6}");
            }
            TraceEvent::RpcComplete {
                host,
                dst,
                qos_run,
                downgraded,
                size_bytes,
                rnl_ps,
                rnl_per_mtu_ps,
            } => put!(
                s, "host": *host, "dst": *dst, "qos_run": *qos_run, "downgraded": *downgraded,
                "size_bytes": *size_bytes, "rnl_ps": *rnl_ps, "rnl_per_mtu_ps": *rnl_per_mtu_ps
            ),
            TraceEvent::CwndUpdate {
                host,
                dst,
                class,
                cwnd,
                rtt_ps,
                target_ps,
                over_target,
            } => {
                put!(s, "host": *host, "dst": *dst, "class": *class);
                let _ = write!(s, ",\"cwnd\":{cwnd:.4}");
                put!(s, "rtt_ps": *rtt_ps, "target_ps": *target_ps, "over_target": *over_target);
            }
            TraceEvent::Retransmit {
                host,
                dst,
                class,
                msg_id,
                seq,
            } => put!(s, "host": *host, "dst": *dst, "class": *class, "msg_id": *msg_id, "seq": *seq),
            TraceEvent::AdmitProb {
                host,
                dst,
                qos,
                p,
                delta,
            } => {
                put!(s, "host": *host, "dst": *dst, "qos": *qos);
                let _ = write!(s, ",\"p\":{p:.6},\"delta\":{delta:.6}");
            }
            TraceEvent::FaultLinkDown {
                node,
                node_id,
                port,
                until_ps,
            } => put!(s, "node": (*node, *node_id), "port": *port, "until_ps": *until_ps),
            TraceEvent::FaultLinkUp { node, node_id, port } => {
                put!(s, "node": (*node, *node_id), "port": *port);
            }
            TraceEvent::FaultPktDrop {
                node,
                node_id,
                port,
                class,
                bytes,
                corrupt,
            } => put!(
                s, "node": (*node, *node_id), "port": *port, "class": *class, "bytes": *bytes,
                "corrupt": *corrupt
            ),
            TraceEvent::FaultQuotaOutage { host, down } => put!(s, "host": *host, "down": *down),
            TraceEvent::Warn { component, message } => {
                put!(s, "component": component.as_str(), "message": message.as_str());
            }
        }
        s.push('}');
    }
}

impl Put for u64 {
    fn put(mut self, s: &mut String) {
        // u64::MAX has 20 digits; fill from the back.
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (self % 10) as u8;
            self /= 10;
            if self == 0 {
                break;
            }
        }
        s.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
    }
}

macro_rules! put_as_u64 {
    ($($int:ty),+) => {$(
        impl Put for $int {
            fn put(self, s: &mut String) {
                (self as u64).put(s); // lossless: none is wider
            }
        }
    )+};
}
put_as_u64!(u8, u32, usize);

impl Put for bool {
    fn put(self, s: &mut String) {
        s.push_str(if self { "true" } else { "false" });
    }
}

/// A string: quoted, and escaped for a JSON string literal — runs of ordinary
/// characters are copied whole, only the escapes are spelled out.
impl Put for &str {
    fn put(self, s: &mut String) {
        s.push('"');
        let mut copied = 0;
        for (at, b) in self.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `copied..at` lies on char
            // boundaries.
            s.push_str(&self[copied..at]);
            if esc.is_empty() {
                let _ = write!(s, "\\u{b:04x}");
            } else {
                s.push_str(esc);
            }
            copied = at + 1;
        }
        s.push_str(&self[copied..]);
        s.push('"');
    }
}

/// A node label: `"host3"`, `"switch0"`.
impl Put for (NodeKind, usize) {
    fn put(self, s: &mut String) {
        s.push('"');
        s.push_str(self.0.label());
        self.1.put(s);
        s.push('"');
    }
}

/// Consumes serialized trace lines. Implementations must be `Send` so a
/// telemetry handle can be shared across sweep worker threads.
pub trait TraceSink: Send {
    /// Record one serialized JSONL line (no trailing newline).
    fn record_line(&mut self, line: &str);
    /// Record one structured event. The default serializes into `scratch`
    /// (a caller-owned buffer reused across events — no per-event
    /// allocation) and forwards the line; sinks that can store the event
    /// more compactly (e.g. [`FlightRecorder`]) override this and skip
    /// serialization entirely.
    fn record_event(&mut self, seq: u64, t_ps: u64, event: &TraceEvent, scratch: &mut String) {
        scratch.clear();
        event.write_json(scratch, seq, t_ps);
        self.record_line(scratch);
    }
    /// Flush any buffering to the backing store.
    fn flush(&mut self) {}
    /// The filesystem path this sink writes to, when it has one. Lets the
    /// experiment harness hand a finished trace to the replay auditor
    /// without re-plumbing the CLI's `--trace` argument.
    fn path(&self) -> Option<&Path> {
        None
    }
}

/// A sink that discards everything (useful to exercise the enabled path
/// without IO, e.g. in determinism tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record_line(&mut self, _line: &str) {}
}

/// Streams trace lines to a JSONL file through a buffered writer.
pub struct JsonlWriter {
    w: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
}

impl JsonlWriter {
    /// Create (truncate) `path` and return a writer sink.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let f = std::fs::File::create(&path)?;
        Ok(JsonlWriter {
            w: std::io::BufWriter::new(f),
            path,
        })
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for JsonlWriter {
    fn record_line(&mut self, line: &str) {
        let _ = self.w.write_all(line.as_bytes());
        let _ = self.w.write_all(b"\n");
    }
    fn flush(&mut self) {
        let _ = self.w.flush();
    }
    fn path(&self) -> Option<&Path> {
        Some(&self.path)
    }
}

/// One retained flight-recorder record: either an already-serialized line
/// (from [`TraceSink::record_line`]) or a compact structured event that is
/// serialized lazily at dump time — recording costs no JSON formatting and,
/// for every variant but `Warn`, no allocation.
#[derive(Debug)]
enum FlightEntry {
    Line(String),
    Event(u64, u64, TraceEvent),
}

impl FlightEntry {
    fn render(&self) -> String {
        match self {
            FlightEntry::Line(l) => l.clone(),
            FlightEntry::Event(seq, t_ps, ev) => ev.to_json(*seq, *t_ps),
        }
    }
}

#[derive(Debug, Default)]
struct FlightBuf {
    lines: VecDeque<FlightEntry>,
    capacity: usize,
    dropped: u64,
}

impl FlightBuf {
    fn push(&mut self, entry: FlightEntry) {
        if self.lines.len() == self.capacity {
            self.lines.pop_front();
            self.dropped += 1;
        }
        self.lines.push_back(entry);
    }
}

/// A ring buffer holding the most recent trace lines ("flight recorder").
///
/// Cheap to clone — clones share the same buffer, so a test can keep one
/// clone for inspection while the telemetry handle owns the other.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Arc<Mutex<FlightBuf>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        FlightRecorder {
            buf: Arc::new(Mutex::new(FlightBuf {
                lines: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
            })),
        }
    }

    /// Snapshot of the retained lines, oldest first. Structured entries are
    /// serialized here, not at record time.
    pub fn dump(&self) -> Vec<String> {
        let buf = self.buf.lock().unwrap();
        buf.lines.iter().map(FlightEntry::render).collect()
    }

    /// Lines currently retained.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().lines.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().unwrap().dropped
    }
}

impl TraceSink for FlightRecorder {
    fn record_line(&mut self, line: &str) {
        self.buf
            .lock()
            .unwrap()
            .push(FlightEntry::Line(line.to_string()));
    }

    fn record_event(&mut self, seq: u64, t_ps: u64, event: &TraceEvent, _scratch: &mut String) {
        self.buf
            .lock()
            .unwrap()
            .push(FlightEntry::Event(seq, t_ps, event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_stable_prefix() {
        let ev = TraceEvent::PktDrop {
            node: NodeKind::Switch,
            node_id: 3,
            port: 2,
            class: 1,
            bytes: 4160,
            backlog_bytes: 99,
        };
        let j = ev.to_json(7, 1234);
        assert!(j.starts_with("{\"seq\":7,\"t_ps\":1234,\"type\":\"pkt_drop\""), "{j}");
        assert!(j.ends_with('}'));
        assert!(j.contains("\"node\":\"switch3\""));
    }

    #[test]
    fn header_and_run_info_serialize() {
        let j = TraceEvent::TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
        }
        .to_json(0, 0);
        assert_eq!(
            j,
            format!(
                "{{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\
                 \"format\":\"aequitas-trace\",\"schema_version\":{TRACE_SCHEMA_VERSION}}}"
            )
        );
        let j = TraceEvent::RunInfo {
            experiment: "fig10".into(),
            hosts: 3,
            classes: 2,
            weights: vec![4.0, 1.0],
            slos_per_mtu_ps: vec![1875, 0],
            slo_percentile: 99.9,
            warmup_ps: 5,
            duration_ps: 10,
            senders: 2,
            mu: 0.8,
            rho: 1.2,
            period_ps: 100_000_000,
        }
        .to_json(1, 0);
        assert!(j.contains("\"type\":\"run_info\""), "{j}");
        assert!(j.contains("\"weights\":[4,1]"), "{j}");
        assert!(j.contains("\"slos_per_mtu_ps\":[1875,0]"), "{j}");
        assert!(j.contains("\"mu\":0.8,\"rho\":1.2,\"period_ps\":100000000"), "{j}");
    }

    #[test]
    fn fault_events_serialize() {
        let j = TraceEvent::FaultLinkDown {
            node: NodeKind::Switch,
            node_id: 0,
            port: 2,
            until_ps: 42,
        }
        .to_json(1, 10);
        assert!(j.contains("\"type\":\"fault_link_down\"") && j.contains("\"until_ps\":42"), "{j}");
        let j = TraceEvent::FaultPktDrop {
            node: NodeKind::Host,
            node_id: 1,
            port: 0,
            class: 0,
            bytes: 4160,
            corrupt: true,
        }
        .to_json(2, 20);
        assert!(j.contains("\"corrupt\":true"), "{j}");
        let j = TraceEvent::FaultQuotaOutage { host: 3, down: false }.to_json(3, 30);
        assert!(j.contains("\"host\":3,\"down\":false"), "{j}");
    }

    #[test]
    fn warn_messages_are_escaped() {
        let ev = TraceEvent::Warn {
            component: "x".into(),
            message: "line\n\"quoted\"\\".into(),
        };
        let j = ev.to_json(0, 0);
        assert!(j.contains("line\\n\\\"quoted\\\"\\\\"), "{j}");
    }

    #[test]
    fn flight_recorder_keeps_last_n() {
        let mut fr = FlightRecorder::new(3);
        let reader = fr.clone();
        for i in 0..5 {
            fr.record_line(&format!("l{i}"));
        }
        assert_eq!(reader.dump(), vec!["l2", "l3", "l4"]);
        assert_eq!(reader.dropped(), 2);
    }

    #[test]
    fn write_json_reusing_scratch_matches_to_json() {
        let events = [
            TraceEvent::PktDequeue {
                node: NodeKind::Host,
                node_id: 4,
                port: 0,
                class: 2,
                bytes: 4160,
                backlog_bytes: 123,
            },
            TraceEvent::AdmitProb {
                host: 1,
                dst: 2,
                qos: 0,
                p: 0.75,
                delta: -0.125,
            },
            TraceEvent::Warn {
                component: "t".into(),
                message: "a\"b".into(),
            },
        ];
        let mut scratch = String::new();
        for (i, ev) in events.iter().enumerate() {
            let seq = i as u64 + 1;
            scratch.clear();
            ev.write_json(&mut scratch, seq, 99);
            assert_eq!(scratch, ev.to_json(seq, 99));
        }
    }

    #[test]
    fn flight_recorder_lazy_events_render_like_lines() {
        let mut fr = FlightRecorder::new(2);
        let reader = fr.clone();
        let ev = TraceEvent::FaultLinkUp {
            node: NodeKind::Switch,
            node_id: 1,
            port: 3,
        };
        let mut scratch = String::new();
        fr.record_event(5, 1000, &ev, &mut scratch);
        // The compact path must not have touched the scratch buffer's
        // contract (default impl uses it; the recorder stores structs).
        fr.record_line("raw");
        assert_eq!(reader.dump(), vec![ev.to_json(5, 1000), "raw".to_string()]);
    }
}
