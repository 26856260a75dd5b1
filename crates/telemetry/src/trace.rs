//! Typed lifecycle events and the sinks that consume them.
//!
//! Every instrumented layer emits [`TraceEvent`]s through a shared
//! [`Telemetry`](crate::Telemetry) handle; the handle serializes them to
//! JSONL (one object per line, stable field order, `t_ps` simulated
//! timestamp plus a monotone `seq`) and forwards the line to a
//! [`TraceSink`]. Three sinks ship with the crate: [`JsonlWriter`] streams
//! to a file for offline analysis, [`MemorySink`] keeps the same bytes in
//! memory for tests, and [`NullSink`] discards them.

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

/// A value [`TraceEvent::write_json`] formats by hand: anything but a `{}`
/// float.
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

    /// Serialize as one JSON object (no trailing newline) into a fresh
    /// string. [`Telemetry::emit`](crate::Telemetry::emit) reuses a scratch
    /// buffer through [`TraceEvent::write_json`] instead.
    pub fn to_json(&self, seq: u64, t_ps: u64) -> String {
        let mut s = String::with_capacity(160);
        self.write_json(&mut s, seq, t_ps);
        s
    }

    /// Serialize as one JSON object (no trailing newline) appended to `s`.
    /// `seq` and `t_ps` lead every record so downstream tools can sort/merge
    /// streams. Byte-identical to what [`TraceEvent::to_json`] returns.
    ///
    /// Keys are literal fragments and values are formatted by hand (`Put`):
    /// `core::fmt` costs more per integer than the digits themselves, and a
    /// packet line carries nine. Integers go two digits per table step. The
    /// `{:.4}`/`{:.6}` floats (`cwnd`, `p_admit`, `p`, `delta`) take an
    /// exact fixed-point path that prints what `core::fmt` prints, and fall
    /// back to it outside that path's domain (`Fixed::parts`). The `{}`
    /// floats of `run_info` stay on `core::fmt`.
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
                    "downgraded": *downgraded, "size_bytes": *size_bytes,
                    "p_admit": Fixed(*p_admit, 3)
                );
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
                put!(
                    s, "host": *host, "dst": *dst, "class": *class, "cwnd": Fixed(*cwnd, 2),
                    "rtt_ps": *rtt_ps, "target_ps": *target_ps, "over_target": *over_target
                );
            }
            TraceEvent::Retransmit {
                host,
                dst,
                class,
                msg_id,
                seq,
            } => {
                put!(s, "host": *host, "dst": *dst, "class": *class, "msg_id": *msg_id, "seq": *seq)
            }
            TraceEvent::AdmitProb {
                host,
                dst,
                qos,
                p,
                delta,
            } => {
                put!(
                    s, "host": *host, "dst": *dst, "qos": *qos, "p": Fixed(*p, 3),
                    "delta": Fixed(*delta, 3)
                );
            }
            TraceEvent::FaultLinkDown {
                node,
                node_id,
                port,
                until_ps,
            } => put!(s, "node": (*node, *node_id), "port": *port, "until_ps": *until_ps),
            TraceEvent::FaultLinkUp {
                node,
                node_id,
                port,
            } => {
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

/// `"00"` to `"99"` back to back: an integer is written two digits per
/// table step.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append the two digits of `pair` (below 100). A slice of the table is
/// already a `&str`, so nothing is validated as UTF-8 on the way in.
fn put_pair(pair: u64, s: &mut String) {
    let at = pair as usize * 2;
    s.push_str(&DIGIT_PAIRS[at..at + 2]);
}

/// Append `v` (below `100^pairs`, `pairs <= 3`) as exactly `2 * pairs`
/// digits, with leading zeros.
fn put_padded(mut v: u64, pairs: usize, s: &mut String) {
    let mut low = [0u64; 3];
    for pair in &mut low[..pairs] {
        *pair = v % 100;
        v /= 100;
    }
    for &pair in low[..pairs].iter().rev() {
        put_pair(pair, s);
    }
}

impl Put for u64 {
    fn put(mut self, s: &mut String) {
        // Pairs come off the low end; they wait on the stack and are
        // appended high end first. u64::MAX has 20 digits: 10 pairs, the
        // first of them (a lone digit or a pair) written directly.
        let mut low = [0u64; 9];
        let mut n = 0;
        while self >= 100 {
            low[n] = self % 100;
            self /= 100;
            n += 1;
        }
        if self >= 10 {
            put_pair(self, s);
        } else {
            s.push(char::from(b'0' + self as u8));
        }
        for &pair in low[..n].iter().rev() {
            put_pair(pair, s);
        }
    }
}

/// A float printed as `{:.4}` (`Fixed(x, 2)`) or `{:.6}` (`Fixed(x, 3)`):
/// `x` and the number of decimal digit *pairs*, 1 to 3.
#[derive(Debug, Clone, Copy)]
struct Fixed(f64, usize);

impl Fixed {
    /// `x` rounded to `2 * pairs` decimals, as its integer part and its
    /// decimals (below `100^pairs`) — exactly what `core::fmt` prints for
    /// `{:.N}`, or `None` outside this path's domain.
    ///
    /// The domain is finite `x` with the sign bit clear and an integer part
    /// below 2^63. There `x = m·2^e` with `m < 2^53`, and the fraction
    /// `f = m mod 2^-e` scaled by `10^N ≤ 10^6` stays below `2^(-e+20)`,
    /// so `f·10^N / 2^-e` is exact in `u128` for any `-e < 128`. The
    /// quotient is rounded half to even on the exact remainder, as
    /// `core::fmt` does (`0.125` → `0.12`, `2.5` → `2`). A smaller `e`
    /// means `x < 2^-75`, which rounds to zero at six decimals.
    fn parts(self) -> Option<(u64, u64)> {
        let Fixed(x, pairs) = self;
        const INT_LIMIT: f64 = 9_223_372_036_854_775_808.0; // 2^63
        if !(x.is_sign_positive() && x < INT_LIMIT) {
            return None; // negative, -0.0, NaN, +inf, or too large
        }
        let bits = x.to_bits();
        let biased = (bits >> 52) as i32; // the sign bit is clear
        let fraction = bits & ((1 << 52) - 1);
        let (m, e) = match biased {
            0 => (fraction, -1074), // subnormal
            _ => (fraction | 1 << 52, biased - 1075),
        };
        if e >= 0 {
            return Some((m << e, 0)); // an integer below 2^63
        }
        let shift = e.unsigned_abs();
        if shift >= 128 {
            return Some((0, 0));
        }
        let m = u128::from(m);
        let mut int = (m >> shift) as u64; // x's integer part: below 2^63
        let scale = [100, 10_000, 1_000_000][pairs - 1];
        let scaled = (m & ((1 << shift) - 1)) * u128::from(scale);
        let mut frac = (scaled >> shift) as u64;
        let rest = scaled & ((1 << shift) - 1);
        let half = 1u128 << (shift - 1);
        // `10^N` is even, so the rounded number's parity is `frac`'s.
        if rest > half || (rest == half && frac & 1 == 1) {
            frac += 1;
            if frac == scale {
                (int, frac) = (int + 1, 0);
            }
        }
        Some((int, frac))
    }
}

impl Put for Fixed {
    fn put(self, s: &mut String) {
        match self.parts() {
            Some((int, frac)) => {
                int.put(s);
                s.push('.');
                put_padded(frac, self.1, s);
            }
            None => {
                let _ = write!(s, "{:.*}", 2 * self.1, self.0);
            }
        }
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

/// An unbounded in-memory sink: it holds exactly the JSONL bytes a
/// [`JsonlWriter`] would write. Clones share the buffer, so a test keeps one
/// clone to read while the telemetry handle owns the other.
#[derive(Debug, Clone, Default)]
pub struct MemorySink(Arc<Mutex<String>>);

impl MemorySink {
    /// Take the JSONL text recorded so far (one `\n`-terminated line per
    /// event), leaving the sink empty.
    pub fn take(&self) -> String {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl TraceSink for MemorySink {
    fn record_line(&mut self, line: &str) {
        let mut text = self.0.lock().unwrap();
        text.push_str(line);
        text.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert!(
            j.starts_with("{\"seq\":7,\"t_ps\":1234,\"type\":\"pkt_drop\""),
            "{j}"
        );
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
        assert!(
            j.contains("\"mu\":0.8,\"rho\":1.2,\"period_ps\":100000000"),
            "{j}"
        );
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
        assert!(
            j.contains("\"type\":\"fault_link_down\"") && j.contains("\"until_ps\":42"),
            "{j}"
        );
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
        let j = TraceEvent::FaultQuotaOutage {
            host: 3,
            down: false,
        }
        .to_json(3, 30);
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

    /// What the fixed-point path prints for `x` at `2 * pairs` decimals.
    fn fixed(x: f64, pairs: usize) -> String {
        let mut s = String::new();
        Fixed(x, pairs).put(&mut s);
        s
    }

    /// `fixed` against `core::fmt`, at four and six decimals.
    fn matches_fmt(x: f64) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            fixed(x, 2),
            format!("{x:.4}"),
            "{:?} = {:#x}",
            x,
            x.to_bits()
        );
        prop_assert_eq!(
            fixed(x, 3),
            format!("{x:.6}"),
            "{:?} = {:#x}",
            x,
            x.to_bits()
        );
        Ok(())
    }

    #[test]
    fn fixed_point_rounds_half_to_even_and_falls_back_outside_its_domain() {
        assert_eq!(fixed(0.125, 1), "0.12");
        assert_eq!(fixed(0.375, 1), "0.38");
        assert_eq!(fixed(0.99995, 2), format!("{:.4}", 0.99995));
        assert_eq!(fixed(9.999_999_9, 3), "10.000000");
        assert_eq!(fixed(0.0, 2), "0.0000");
        assert_eq!(Fixed(0.0, 2).parts(), Some((0, 0)));
        let edge = [
            -0.0,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9_223_372_036_854_775_808.0, // 2^63
            1e300,
        ];
        for x in edge {
            assert_eq!(Fixed(x, 2).parts(), None, "{x}");
            assert_eq!(fixed(x, 2), format!("{x:.4}"));
        }
        let below = 9_223_372_036_854_774_784.0; // the largest f64 below 2^63
        assert_eq!(Fixed(below, 3).parts(), Some(((1 << 63) - 1024, 0)));
        for x in [
            below,
            f64::MIN_POSITIVE,
            5e-324,
            4.999_999e-7,
            5e-7,
            5.000_001e-7,
        ] {
            matches_fmt(x).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Any bit pattern: negatives, NaNs, infinities and huge values
        /// take the fallback, the rest the fixed-point path.
        #[test]
        fn fixed_point_matches_fmt_on_any_bits(bits in 0u64..u64::MAX) {
            matches_fmt(f64::from_bits(bits))?;
        }

        /// Subnormals and the smallest normals.
        #[test]
        fn fixed_point_matches_fmt_on_subnormals(bits in 0u64..(1u64 << 53)) {
            matches_fmt(f64::from_bits(bits))?;
        }

        /// `k / 2^j`: exact dyadics, among them every tie at four decimals
        /// (odd / 32) and at six (odd / 128).
        #[test]
        fn fixed_point_matches_fmt_on_dyadics(k in 0u64..(1u64 << 53), j in 0u32..80) {
            matches_fmt(k as f64 / 2f64.powi(j as i32))?;
            matches_fmt((2 * (k % 100_000) + 1) as f64 / 32.0)?;
            matches_fmt((2 * (k % 100_000_000) + 1) as f64 / 128.0)?;
        }

        /// The range congestion windows and probabilities live in.
        #[test]
        fn fixed_point_matches_fmt_on_small_values(x in 0.0f64..300.0) {
            matches_fmt(x)?;
        }
    }

    #[test]
    fn memory_sink_holds_what_the_jsonl_writer_writes() {
        let dir = std::env::temp_dir().join(format!("aequitas-memsink-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let mut file = JsonlWriter::create(&path).unwrap();
        let mut mem = MemorySink::default();
        let reader = mem.clone();
        for line in ["l0", "l1 \"quoted\""] {
            file.record_line(line);
            mem.record_line(line);
        }
        file.flush();
        assert_eq!(reader.take(), std::fs::read_to_string(&path).unwrap());
        assert_eq!(reader.take(), "", "take empties the sink");
        std::fs::remove_dir_all(dir).unwrap();
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
}
