//! Full-fabric state reconstruction from a telemetry JSONL trace.
//!
//! The simulator's trace stream is rich enough to rebuild, offline, the
//! state the engine never keeps: per-port backlog timelines, per-packet
//! queuing delays (by FIFO-matching the i-th enqueue with the i-th dequeue
//! of each `(port, class)` — valid because tail drops are rejected *at*
//! enqueue and fault drops destroy packets *after* dequeue, and WFQ serves
//! each class FIFO), per-(src,dst,QoS) RNL distributions, admit-probability
//! trajectories, and fault windows. Everything downstream (the bound
//! auditor, compare mode) works off this one pass.
//!
//! Reconstruction is resilient rather than strict: malformed lines, gaps,
//! and inconsistencies are *counted* (and surfaced by the `trace_integrity`
//! audit check) instead of aborting, so a corrupted trace yields a FAIL
//! verdict with diagnostics rather than a parse error. The hard errors are
//! the schema contract — a missing or unsupported `trace_header` — and an
//! I/O failure of the reader itself.
//!
//! The stream is read as bytes, one line at a time into one reused buffer,
//! so a line that is not UTF-8 is one more counted parse error; nothing
//! per line is allocated (see [`crate::trace::RawEvent`]). Fields are read
//! by [`Field`], an array index, and a packet event finds its port by
//! integers (`Ports`), so no line costs a string compare after its scan.

use crate::json::Value;
use crate::trace::{check_header, parse_line, Field, Kind, RawEvent};
use aequitas_stats::Percentiles;
use std::collections::{BTreeMap, VecDeque};
use std::io::BufRead;

/// Experiment parameters recovered from a `run_info` event.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Experiment name.
    pub experiment: String,
    /// Hosts in the topology.
    pub hosts: u64,
    /// QoS classes.
    pub classes: u64,
    /// WFQ weights, highest QoS first (empty when unknown).
    pub weights: Vec<f64>,
    /// Per-class RNL-per-MTU SLOs in ps (0 = none).
    pub slos_per_mtu_ps: Vec<u64>,
    /// Percentile the SLOs are evaluated at.
    pub slo_percentile: f64,
    /// Warmup cutoff in ps.
    pub warmup_ps: u64,
    /// Scheduled duration in ps.
    pub duration_ps: u64,
    /// Active traffic sources.
    pub senders: u64,
    /// Aggregate mean offered load μ (0 = unknown).
    pub mu: f64,
    /// Aggregate burst rate ρ (0 = unknown).
    pub rho: f64,
    /// Burst period in ps (0 = not burst/on-off).
    pub period_ps: u64,
}

impl RunInfo {
    fn from_event(ev: &RawEvent) -> RunInfo {
        RunInfo {
            experiment: ev
                .str(Field::Experiment)
                .map_or_else(|| "?".into(), String::from),
            hosts: ev.u64(Field::Hosts).unwrap_or(0),
            classes: ev.u64(Field::Classes).unwrap_or(0),
            weights: ev.arr(Field::Weights, Value::as_f64).unwrap_or_default(),
            slos_per_mtu_ps: ev
                .arr(Field::SlosPerMtuPs, Value::as_u64)
                .unwrap_or_default(),
            slo_percentile: ev.num(Field::SloPercentile).unwrap_or(0.0),
            warmup_ps: ev.u64(Field::WarmupPs).unwrap_or(0),
            duration_ps: ev.u64(Field::DurationPs).unwrap_or(0),
            senders: ev.u64(Field::Senders).unwrap_or(0),
            mu: ev.num(Field::Mu).unwrap_or(0.0),
            rho: ev.num(Field::Rho).unwrap_or(0.0),
            period_ps: ev.u64(Field::PeriodPs).unwrap_or(0),
        }
    }
}

/// Identifies one egress port: `node` is the serialized node label
/// (`host3`, `switch0`), `port` the egress port index.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct PortKey {
    /// Node label as serialized in the trace.
    pub node: String,
    /// Egress port index.
    pub port: u64,
}

impl std::fmt::Display for PortKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/port{}", self.node, self.port)
    }
}

/// Per-class queue statistics at one port.
#[derive(Debug, Default)]
pub struct ClassTimeline {
    /// Queuing delay (enqueue→dequeue) distribution, in ps.
    pub delay_ps: Percentiles,
    /// Worst queuing delay, in ps.
    pub max_delay_ps: u64,
    /// Bytes accepted into the queue.
    pub enq_bytes: u64,
    /// Deepest per-class occupancy seen, in packets.
    pub max_depth_pkts: u64,
    /// Pending enqueues not yet matched to a dequeue (FIFO).
    pending: VecDeque<(u64, u64)>,
}

/// Reconstructed state of one egress port.
#[derive(Debug, Default)]
pub struct PortTimeline {
    /// Backlog after each packet event: `(t_ps, backlog_bytes)`. Multiple
    /// entries may share a timestamp; the last one wins.
    pub backlog: Vec<(u64, u64)>,
    /// Peak backlog.
    pub max_backlog_bytes: u64,
    /// Enqueued packets.
    pub enq_pkts: u64,
    /// Dequeued packets.
    pub deq_pkts: u64,
    /// Tail-dropped packets.
    pub drop_pkts: u64,
    /// Packets destroyed in transit by fault injection.
    pub fault_drop_pkts: u64,
    /// Per-class statistics.
    pub classes: BTreeMap<u64, ClassTimeline>,
    /// Events whose `backlog_bytes` field disagreed with the recomputed
    /// running backlog (0 on a healthy single-run trace).
    pub backlog_mismatches: u64,
    /// Dequeues with no matching pending enqueue.
    pub unmatched_dequeues: u64,
    backlog_now: u64,
}

impl PortTimeline {
    /// Bytes accepted into the port's queues, all classes together
    /// (saturating: byte counts are whatever the trace claims).
    pub fn enq_bytes(&self) -> u64 {
        self.classes
            .values()
            .fold(0, |sum, c| sum.saturating_add(c.enq_bytes))
    }

    /// Backlog in bytes at simulated time `t_ps` (last event at or before
    /// `t_ps`; 0 before the first event).
    pub fn backlog_at(&self, t_ps: u64) -> u64 {
        match self.backlog.partition_point(|&(t, _)| t <= t_ps) {
            0 => 0,
            n => self.backlog[n - 1].1,
        }
    }
}

/// Per-(src,dst,QoS) RPC statistics — the trace's `qos_run` (the class the
/// RPC actually ran on after any admission downgrade).
#[derive(Debug, Default)]
pub struct ChannelStats {
    /// RPCs issued on this channel.
    pub issued: u64,
    /// Bytes issued.
    pub issued_bytes: u64,
    /// Issues that were admission downgrades into this class.
    pub downgraded_in: u64,
    /// Completions observed.
    pub completed: u64,
    /// Post-warmup RNL-per-MTU distribution, in ps.
    pub rnl_per_mtu_ps: Percentiles,
    /// Post-warmup absolute RNL distribution, in ps.
    pub rnl_ps: Percentiles,
}

/// Admit-probability trajectory of one (host, dst, qos) channel.
#[derive(Debug, Default)]
pub struct AdmitTimeline {
    /// `(t_ps, p)` after each Algorithm 1 step.
    pub points: Vec<(u64, f64)>,
    /// Smallest p seen.
    pub min_p: f64,
    /// Largest p seen.
    pub max_p: f64,
}

/// Fault windows recovered from fault-injection events.
#[derive(Debug, Default)]
pub struct FaultSummary {
    /// Link-down windows per port: `(down_t_ps, up_t_ps)`; `None` end means
    /// the link never came back before the trace ended.
    pub link_windows: BTreeMap<PortKey, Vec<(u64, Option<u64>)>>,
    /// Quota-server outage windows per host.
    pub quota_windows: BTreeMap<u64, Vec<(u64, Option<u64>)>>,
    /// Packets destroyed in transit.
    pub pkt_drops: u64,
    /// Of those, frames corrupted rather than cleanly lost.
    pub corrupt_drops: u64,
}

/// Stream-health counters; feeds the `trace_integrity` audit check.
#[derive(Debug, Default)]
pub struct Integrity {
    /// Lines that failed to parse.
    pub parse_errors: u64,
    /// First few parse-error messages, with line numbers.
    pub parse_error_samples: Vec<String>,
    /// Sequence-number discontinuities.
    pub seq_gaps: u64,
    /// Timestamp regressions (each starts a new epoch — expected when a
    /// sweep reuses one telemetry handle across points, otherwise a red
    /// flag).
    pub time_regressions: u64,
    /// Enqueues left unmatched when an epoch boundary reset the queues.
    pub epoch_orphans: u64,
    /// Extra `trace_header` lines after the first (concatenated streams).
    pub extra_headers: u64,
    /// Events carrying a `type` this build does not know.
    pub unknown_kinds: u64,
}

/// Everything reconstructed from one trace stream.
#[derive(Debug, Default)]
pub struct Reconstruction {
    /// Schema version declared by the header.
    pub schema_version: u32,
    /// First `run_info` event, when present.
    pub run_info: Option<RunInfo>,
    /// Total lines consumed (including the header).
    pub events: u64,
    /// Event count per `type` tag.
    pub kind_counts: BTreeMap<String, u64>,
    /// Number of epochs (1 + timestamp regressions): a single-run trace has
    /// exactly one.
    pub epochs: u64,
    /// Per-port reconstructed queues.
    pub ports: BTreeMap<PortKey, PortTimeline>,
    /// Per-(src,dst,qos_run) RPC statistics.
    pub channels: BTreeMap<(u64, u64, u64), ChannelStats>,
    /// Aggregate per-QoS RPC statistics (merged over channels).
    pub qos: BTreeMap<u64, ChannelStats>,
    /// Admit-probability trajectories per (host, dst, qos).
    pub admit: BTreeMap<(u64, u64, u64), AdmitTimeline>,
    /// Per-QoS `(completion time, RNL-per-MTU in ps)` points in stream
    /// order, warmup-filtered — the raw material for windowed recovery
    /// timelines ([`crate::timeline`]).
    pub qos_rnl_points: BTreeMap<u64, Vec<(u64, f64)>>,
    /// Fault windows and counters.
    pub faults: FaultSummary,
    /// Stream-health counters.
    pub integrity: Integrity,
    /// Warn events: count and first few messages.
    pub warn_count: u64,
    /// First few warn messages.
    pub warn_samples: Vec<String>,
    /// Largest timestamp seen.
    pub last_t_ps: u64,
}

/// `N` in plain decimal: digits, no sign, no leading zero, fitting `u64` —
/// so that one number has one spelling and `host03` stays a label apart
/// from `host3`.
fn plain_decimal(text: &str) -> Option<u64> {
    match text.as_bytes() {
        [b'0'] => Some(0),
        [b'1'..=b'9', ..] => text.parse().ok(),
        _ => None,
    }
}

/// Node numbers and port indices below these are indexed directly, so the
/// table stays under 4 MiB whatever a trace names.
const DENSE_NODES: u64 = 1 << 12;
const DENSE_PORTS: u64 = 1 << 8;

/// Where [`Ports::dense`] keeps `label`'s port `port`: the table (0 for
/// `host<N>`, 1 for `switch<N>`), `N` and the port, when all are small.
fn dense_index(label: &str, port: u64) -> Option<(usize, usize, usize)> {
    let (table, number) = match label.strip_prefix("host") {
        Some(number) => (0, number),
        None => (1, label.strip_prefix("switch")?),
    };
    let n = plain_decimal(number).filter(|&n| n < DENSE_NODES)?;
    (port < DENSE_PORTS).then_some((table, n as usize, port as usize))
}

/// The ports of a reconstruction under way, in first-seen order. A packet
/// event finds the `(node, port)` it names by integers: `host<N>` and
/// `switch<N>` index `dense` by `N` and port; any other port is looked up in
/// `sparse` with the scratch `key` rebuilt in place. Nothing is allocated
/// unless the port is new.
#[derive(Default)]
struct Ports {
    slots: Vec<(PortKey, PortTimeline)>,
    /// Per table, node and port: 1 + the port's position in `slots`, or 0.
    dense: [Vec<Vec<u32>>; 2],
    sparse: BTreeMap<PortKey, usize>,
    key: PortKey,
}

impl Ports {
    /// The timeline of the port `ev` names, created on first sight.
    fn of(&mut self, ev: &RawEvent) -> Option<&mut PortTimeline> {
        let label = ev.str(Field::Node)?;
        let port = ev.u64(Field::Port)?;
        let next = self.slots.len();
        let (at, new) = match dense_index(&label, port) {
            Some((table, n, p)) => {
                let nodes = &mut self.dense[table];
                if nodes.len() <= n {
                    nodes.resize_with(n + 1, Vec::new);
                }
                let ports = &mut nodes[n];
                if ports.len() <= p {
                    ports.resize(p + 1, 0);
                }
                match ports[p] {
                    0 => {
                        ports[p] = next as u32 + 1; // a u32 counts every port a trace can name
                        (next, true)
                    }
                    at => (at as usize - 1, false),
                }
            }
            None => {
                self.key.node.clear();
                self.key.node.push_str(&label);
                self.key.port = port;
                match self.sparse.get(&self.key) {
                    Some(&at) => (at, false),
                    None => {
                        self.sparse.insert(self.key.clone(), next);
                        (next, true)
                    }
                }
            }
        };
        if new {
            let key = PortKey {
                node: label.into_owned(),
                port,
            };
            self.slots.push((key, PortTimeline::default()));
        }
        self.slots.get_mut(at).map(|(_, timeline)| timeline)
    }
}

/// `class`, `bytes`, `backlog_bytes` and the port timeline of a queue event.
/// Fields first: a line missing one must not create its port.
fn queue_event<'p>(
    ev: &RawEvent,
    ports: &'p mut Ports,
) -> Option<(u64, u64, u64, &'p mut PortTimeline)> {
    let (class, bytes, backlog) = (
        ev.u64(Field::Class)?,
        ev.u64(Field::Bytes)?,
        ev.u64(Field::BacklogBytes)?,
    );
    Some((class, bytes, backlog, ports.of(ev)?))
}

impl Reconstruction {
    /// Reconstruct from a JSONL stream. The first line must be a valid
    /// `trace_header` with a supported version; everything after that is
    /// processed tolerantly with problems counted in [`Integrity`].
    pub fn from_reader(mut r: impl BufRead) -> Result<Reconstruction, String> {
        let mut recon = Reconstruction {
            epochs: 1,
            ..Reconstruction::default()
        };
        let mut expected_seq: Option<u64> = None;
        let mut last_t: u64 = 0;
        let mut saw_header = false;
        // Known kinds are counted densely and named once, at the end.
        let mut kind_counts = [0u64; Kind::KNOWN.len()];
        // Keyed into `recon.ports` once, at the end.
        let mut ports = Ports::default();
        let mut buf = Vec::new();
        for line_no in 1u64.. {
            buf.clear();
            let n = r
                .read_until(b'\n', &mut buf)
                .map_err(|e| format!("I/O error reading trace: {e}"))?;
            if n == 0 {
                break;
            }
            // Line terminators as `BufRead::lines` strips them.
            let mut line = buf.strip_suffix(b"\n").unwrap_or(&buf);
            line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(line)
                .map_err(|e| format!("invalid UTF-8 at byte {}", e.valid_up_to()))
                .and_then(parse_line);
            let ev = match parsed {
                Ok(ev) => ev,
                Err(e) => {
                    if !saw_header {
                        return Err(format!("line 1: {e}"));
                    }
                    recon.integrity.parse_errors += 1;
                    if recon.integrity.parse_error_samples.len() < 5 {
                        recon
                            .integrity
                            .parse_error_samples
                            .push(format!("line {line_no}: {e}"));
                    }
                    continue;
                }
            };
            if !saw_header {
                recon.schema_version = check_header(&ev)?;
                saw_header = true;
            } else if ev.kind == Kind::TraceHeader {
                recon.integrity.extra_headers += 1;
            }
            recon.events += 1;
            match kind_counts.get_mut(ev.kind as usize) {
                Some(n) => *n += 1,
                None => *recon.kind_counts.entry(ev.tag.to_string()).or_insert(0) += 1,
            }
            if let Some(exp) = expected_seq {
                if ev.seq != exp {
                    recon.integrity.seq_gaps += 1;
                }
            }
            expected_seq = ev.seq.checked_add(1);
            if ev.t_ps < last_t {
                // A new epoch: sweep harnesses reuse one telemetry handle
                // across points, so simulated time restarts. Reset queue
                // state; distributions keep accumulating.
                recon.integrity.time_regressions += 1;
                recon.epochs += 1;
                for (_, port) in &mut ports.slots {
                    for class in port.classes.values_mut() {
                        recon.integrity.epoch_orphans += class.pending.len() as u64;
                        class.pending.clear();
                    }
                    port.backlog_now = 0;
                }
            }
            last_t = ev.t_ps;
            recon.last_t_ps = recon.last_t_ps.max(ev.t_ps);
            recon.apply(&ev, &mut ports);
        }
        if !saw_header {
            return Err("empty trace: no trace_header line".into());
        }
        recon.ports = ports.slots.into_iter().collect();
        for ((_, tag), n) in Kind::KNOWN.iter().zip(kind_counts) {
            if n > 0 {
                recon.kind_counts.insert((*tag).to_string(), n);
            }
        }
        Ok(recon)
    }

    /// Reconstruct from a trace file on disk.
    pub fn from_file(path: &std::path::Path) -> Result<Reconstruction, String> {
        let f = std::fs::File::open(path)
            .map_err(|e| format!("cannot open trace {}: {e}", path.display()))?;
        Reconstruction::from_reader(std::io::BufReader::new(f))
    }

    fn port_key(ev: &RawEvent) -> Option<PortKey> {
        Some(PortKey {
            node: ev.str(Field::Node)?.into_owned(),
            port: ev.u64(Field::Port)?,
        })
    }

    fn apply(&mut self, ev: &RawEvent, ports: &mut Ports) {
        match ev.kind {
            Kind::TraceHeader => {}
            Kind::RunInfo => {
                if self.run_info.is_none() {
                    self.run_info = Some(RunInfo::from_event(ev));
                }
            }
            Kind::PktEnqueue => {
                let Some((class, bytes, backlog, port)) = queue_event(ev, ports) else {
                    self.integrity.parse_errors += 1;
                    return;
                };
                port.enq_pkts += 1;
                let ct = port.classes.entry(class).or_default();
                ct.enq_bytes = ct.enq_bytes.saturating_add(bytes);
                ct.pending.push_back((ev.t_ps, bytes));
                if let Some(depth) = ev.u64(Field::DepthPkts) {
                    ct.max_depth_pkts = ct.max_depth_pkts.max(depth);
                }
                port.backlog_now = port.backlog_now.saturating_add(bytes);
                if port.backlog_now != backlog {
                    port.backlog_mismatches += 1;
                    port.backlog_now = backlog;
                }
                port.max_backlog_bytes = port.max_backlog_bytes.max(backlog);
                port.backlog.push((ev.t_ps, backlog));
            }
            Kind::PktDequeue => {
                let Some((class, bytes, backlog, port)) = queue_event(ev, ports) else {
                    self.integrity.parse_errors += 1;
                    return;
                };
                port.deq_pkts += 1;
                let ct = port.classes.entry(class).or_default();
                match ct.pending.pop_front() {
                    Some((enq_t, _)) => {
                        let delay = ev.t_ps.saturating_sub(enq_t);
                        ct.delay_ps.record(delay as f64);
                        ct.max_delay_ps = ct.max_delay_ps.max(delay);
                    }
                    None => port.unmatched_dequeues += 1,
                }
                port.backlog_now = port.backlog_now.saturating_sub(bytes);
                if port.backlog_now != backlog {
                    port.backlog_mismatches += 1;
                    port.backlog_now = backlog;
                }
                port.backlog.push((ev.t_ps, backlog));
            }
            Kind::PktDrop => {
                let Some(port) = ports.of(ev) else {
                    self.integrity.parse_errors += 1;
                    return;
                };
                // Tail drop: rejected at enqueue, never entered the queue,
                // so the running backlog is unchanged.
                port.drop_pkts += 1;
                if let Some(backlog) = ev.u64(Field::BacklogBytes) {
                    if port.backlog_now != backlog {
                        port.backlog_mismatches += 1;
                        port.backlog_now = backlog;
                    }
                }
            }
            Kind::FaultPktDrop => {
                // Destroyed in transit, i.e. after its dequeue event — the
                // queue accounting is already settled.
                if let Some(port) = ports.of(ev) {
                    port.fault_drop_pkts += 1;
                }
                self.faults.pkt_drops += 1;
                if ev.bool(Field::Corrupt) == Some(true) {
                    self.faults.corrupt_drops += 1;
                }
            }
            Kind::RpcIssue => {
                let (Some(host), Some(dst), Some(qos), Some(bytes)) = (
                    ev.u64(Field::Host),
                    ev.u64(Field::Dst),
                    ev.u64(Field::QosRun),
                    ev.u64(Field::SizeBytes),
                ) else {
                    self.integrity.parse_errors += 1;
                    return;
                };
                let downgraded = ev.bool(Field::Downgraded) == Some(true);
                for stats in [
                    self.channels.entry((host, dst, qos)).or_default(),
                    self.qos.entry(qos).or_default(),
                ] {
                    stats.issued += 1;
                    stats.issued_bytes = stats.issued_bytes.saturating_add(bytes);
                    if downgraded {
                        stats.downgraded_in += 1;
                    }
                }
            }
            Kind::RpcComplete => {
                let (Some(host), Some(dst), Some(qos), Some(rnl), Some(rnl_per_mtu)) = (
                    ev.u64(Field::Host),
                    ev.u64(Field::Dst),
                    ev.u64(Field::QosRun),
                    ev.u64(Field::RnlPs),
                    ev.u64(Field::RnlPerMtuPs),
                ) else {
                    self.integrity.parse_errors += 1;
                    return;
                };
                // Warmup filter on *issue* time, matching the harness's own
                // completion accounting.
                let issued_at = ev.t_ps.saturating_sub(rnl);
                let warm = match &self.run_info {
                    Some(info) => issued_at >= info.warmup_ps,
                    None => true,
                };
                for stats in [
                    self.channels.entry((host, dst, qos)).or_default(),
                    self.qos.entry(qos).or_default(),
                ] {
                    stats.completed += 1;
                    if warm {
                        stats.rnl_ps.record(rnl as f64);
                        stats.rnl_per_mtu_ps.record(rnl_per_mtu as f64);
                    }
                }
                if warm {
                    self.qos_rnl_points
                        .entry(qos)
                        .or_default()
                        .push((ev.t_ps, rnl_per_mtu as f64));
                }
            }
            Kind::AdmitProb => {
                let (Some(host), Some(dst), Some(qos), Some(p)) = (
                    ev.u64(Field::Host),
                    ev.u64(Field::Dst),
                    ev.u64(Field::Qos),
                    ev.num(Field::P),
                ) else {
                    self.integrity.parse_errors += 1;
                    return;
                };
                let at = self.admit.entry((host, dst, qos)).or_default();
                if at.points.is_empty() {
                    at.min_p = p;
                    at.max_p = p;
                } else {
                    at.min_p = at.min_p.min(p);
                    at.max_p = at.max_p.max(p);
                }
                at.points.push((ev.t_ps, p));
            }
            Kind::FaultLinkDown => {
                if let Some(key) = Self::port_key(ev) {
                    self.faults
                        .link_windows
                        .entry(key)
                        .or_default()
                        .push((ev.t_ps, None));
                }
            }
            Kind::FaultLinkUp => {
                if let Some(key) = Self::port_key(ev) {
                    let windows = self.faults.link_windows.entry(key).or_default();
                    match windows.last_mut() {
                        Some(w) if w.1.is_none() => w.1 = Some(ev.t_ps),
                        _ => windows.push((ev.t_ps, Some(ev.t_ps))),
                    }
                }
            }
            Kind::FaultQuotaOutage => {
                let (Some(host), Some(down)) = (ev.u64(Field::Host), ev.bool(Field::Down)) else {
                    return;
                };
                let windows = self.faults.quota_windows.entry(host).or_default();
                if down {
                    windows.push((ev.t_ps, None));
                } else {
                    match windows.last_mut() {
                        Some(w) if w.1.is_none() => w.1 = Some(ev.t_ps),
                        _ => windows.push((ev.t_ps, Some(ev.t_ps))),
                    }
                }
            }
            Kind::Warn => {
                self.warn_count += 1;
                if self.warn_samples.len() < 5 {
                    self.warn_samples.push(format!(
                        "[{}] {}",
                        ev.str(Field::Component).as_deref().unwrap_or("?"),
                        ev.str(Field::Message).as_deref().unwrap_or("?")
                    ));
                }
            }
            Kind::CwndUpdate | Kind::Retransmit => {
                // Counted in kind_counts; no per-event state is rebuilt.
            }
            Kind::Unknown => self.integrity.unknown_kinds += 1,
        }
    }

    /// The switch port carrying the most enqueued bytes — the bottleneck
    /// the delay-bound audit evaluates. Falls back to any port when the
    /// trace has no switch events.
    pub fn bottleneck_port(&self) -> Option<&PortKey> {
        self.ports
            .iter()
            .filter(|(k, _)| k.node.starts_with("switch"))
            .max_by_key(|(_, p)| p.enq_bytes())
            .or_else(|| self.ports.iter().max_by_key(|(_, p)| p.enq_bytes()))
            .map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn header() -> String {
        format!(
            "{{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\"schema_version\":{}}}\n",
            aequitas_telemetry::TRACE_SCHEMA_VERSION
        )
    }

    fn enq(seq: u64, t: u64, class: u64, bytes: u64, backlog: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"t_ps\":{t},\"type\":\"pkt_enqueue\",\"node\":\"switch0\",\"port\":2,\
             \"class\":{class},\"bytes\":{bytes},\"depth_pkts\":1,\"backlog_bytes\":{backlog}}}\n"
        )
    }

    fn deq(seq: u64, t: u64, class: u64, bytes: u64, backlog: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"t_ps\":{t},\"type\":\"pkt_dequeue\",\"node\":\"switch0\",\"port\":2,\
             \"class\":{class},\"bytes\":{bytes},\"backlog_bytes\":{backlog}}}\n"
        )
    }

    #[test]
    fn fifo_matching_reconstructs_queue_delays() {
        let mut t = header();
        // Two class-0 packets queued, served in order; one class-1 packet
        // in between.
        t += &enq(1, 100, 0, 1000, 1000);
        t += &enq(2, 200, 0, 1000, 2000);
        t += &enq(3, 250, 1, 500, 2500);
        t += &deq(4, 300, 0, 1000, 1500);
        t += &deq(5, 450, 0, 1000, 500);
        t += &deq(6, 500, 1, 500, 0);
        let mut r = Reconstruction::from_reader(Cursor::new(t)).unwrap();
        assert_eq!(r.epochs, 1);
        assert_eq!(r.integrity.seq_gaps, 0);
        let key = PortKey {
            node: "switch0".into(),
            port: 2,
        };
        let port = r.ports.get_mut(&key).unwrap();
        assert_eq!(port.backlog_mismatches, 0);
        assert_eq!(port.unmatched_dequeues, 0);
        assert_eq!(port.max_backlog_bytes, 2500);
        assert_eq!(port.backlog_at(0), 0);
        assert_eq!(port.backlog_at(260), 2500);
        assert_eq!(port.backlog_at(9999), 0);
        let c0 = port.classes.get_mut(&0).unwrap();
        // Delays: 300-100=200, 450-200=250.
        assert_eq!(c0.max_delay_ps, 250);
        assert_eq!(c0.delay_ps.count(), 2);
        assert_eq!(port.classes.get_mut(&1).unwrap().max_delay_ps, 250);
    }

    #[test]
    fn epoch_restart_resets_queues_not_stats() {
        let mut t = header();
        t += &enq(1, 100, 0, 1000, 1000);
        t += &deq(2, 200, 0, 1000, 0);
        t += &enq(3, 300, 0, 1000, 1000); // left pending at the restart
        t += &enq(4, 50, 0, 1000, 1000); // time went backwards: new epoch
        t += &deq(5, 90, 0, 1000, 0);
        let r = Reconstruction::from_reader(Cursor::new(t)).unwrap();
        assert_eq!(r.epochs, 2);
        assert_eq!(r.integrity.epoch_orphans, 1);
        let port = &r.ports[&PortKey {
            node: "switch0".into(),
            port: 2,
        }];
        // Both epochs' dequeues matched within their own epoch.
        assert_eq!(port.unmatched_dequeues, 0);
        assert_eq!(port.backlog_mismatches, 0);
    }

    #[test]
    fn rpc_and_admit_and_fault_events_aggregate() {
        let mut t = header();
        t += "{\"seq\":1,\"t_ps\":10,\"type\":\"run_info\",\"experiment\":\"x\",\"hosts\":3,\"classes\":2,\"weights\":[4,1],\"slos_per_mtu_ps\":[1875000,0],\"slo_percentile\":99.9,\"warmup_ps\":1000,\"duration_ps\":100000,\"senders\":2,\"mu\":0.8,\"rho\":1.2,\"period_ps\":100000000}\n";
        t += "{\"seq\":2,\"t_ps\":500,\"type\":\"rpc_issue\",\"host\":0,\"dst\":2,\"qos_req\":0,\"qos_run\":1,\"downgraded\":true,\"size_bytes\":32768,\"p_admit\":0.5}\n";
        // Issued at 2000-800 >= warmup: counted in percentiles.
        t += "{\"seq\":3,\"t_ps\":2000,\"type\":\"rpc_complete\",\"host\":0,\"dst\":2,\"qos_run\":1,\"downgraded\":true,\"size_bytes\":32768,\"rnl_ps\":800,\"rnl_per_mtu_ps\":100}\n";
        // Issued at 900-400 < warmup: excluded from percentiles.
        t += "{\"seq\":4,\"t_ps\":2100,\"type\":\"rpc_complete\",\"host\":0,\"dst\":2,\"qos_run\":1,\"downgraded\":false,\"size_bytes\":32768,\"rnl_ps\":1700,\"rnl_per_mtu_ps\":999}\n";
        t += "{\"seq\":5,\"t_ps\":2200,\"type\":\"admit_prob\",\"host\":0,\"dst\":2,\"qos\":0,\"p\":0.75,\"delta\":-0.25}\n";
        t += "{\"seq\":6,\"t_ps\":2300,\"type\":\"admit_prob\",\"host\":0,\"dst\":2,\"qos\":0,\"p\":0.8,\"delta\":0.05}\n";
        t += "{\"seq\":7,\"t_ps\":2400,\"type\":\"fault_link_down\",\"node\":\"switch0\",\"port\":1,\"until_ps\":3000}\n";
        t += "{\"seq\":8,\"t_ps\":3000,\"type\":\"fault_link_up\",\"node\":\"switch0\",\"port\":1}\n";
        t += "{\"seq\":9,\"t_ps\":3100,\"type\":\"fault_quota_outage\",\"host\":1,\"down\":true}\n";
        let r = Reconstruction::from_reader(Cursor::new(t)).unwrap();
        let info = r.run_info.as_ref().unwrap();
        assert_eq!(info.weights, vec![4.0, 1.0]);
        assert_eq!(info.warmup_ps, 1000);
        let ch = &r.channels[&(0, 2, 1)];
        assert_eq!(ch.issued, 1);
        assert_eq!(ch.downgraded_in, 1);
        assert_eq!(ch.completed, 2);
        assert_eq!(ch.rnl_per_mtu_ps.count(), 1, "warmup filter");
        assert_eq!(r.qos[&1].completed, 2);
        let at = &r.admit[&(0, 2, 0)];
        assert_eq!(at.points.len(), 2);
        assert_eq!((at.min_p, at.max_p), (0.75, 0.8));
        let lw = &r.faults.link_windows[&PortKey {
            node: "switch0".into(),
            port: 1,
        }];
        assert_eq!(lw, &vec![(2400, Some(3000))]);
        assert_eq!(r.faults.quota_windows[&1], vec![(3100, None)]);
    }

    #[test]
    fn corrupt_lines_counted_not_fatal() {
        let mut t = header();
        t += "this is not json\n";
        t += &enq(2, 100, 0, 1000, 1000);
        let r = Reconstruction::from_reader(Cursor::new(t)).unwrap();
        assert_eq!(r.integrity.parse_errors, 1);
        assert_eq!(r.integrity.seq_gaps, 1);
        assert_eq!(r.events, 2);
    }

    /// Regression: `BufRead::lines` turned one stray byte into an I/O error
    /// that aborted the whole reconstruction.
    #[test]
    fn non_utf8_line_is_counted_not_fatal() {
        let mut t = header();
        t += &enq(1, 100, 0, 1000, 1000);
        t += &deq(2, 200, 0, 1000, 0);
        t += &enq(3, 300, 0, 1000, 1000);
        let mut bytes = t.into_bytes();
        let mid = bytes.len() - 60; // inside line 4
        bytes[mid] = 0xff;
        let r = Reconstruction::from_reader(Cursor::new(bytes)).unwrap();
        assert_eq!(r.integrity.parse_errors, 1);
        let sample = &r.integrity.parse_error_samples[0];
        assert!(
            sample.starts_with("line 4: invalid UTF-8 at byte"),
            "{sample}"
        );
        assert_eq!(r.events, 3);
        let mut r = r;
        let report = crate::audit::audit(&mut r, &crate::AuditOptions::default());
        let integrity = report
            .checks
            .iter()
            .find(|c| c.name == "trace_integrity")
            .unwrap();
        assert_eq!(integrity.status, crate::CheckStatus::Fail, "{integrity:?}");
    }

    #[test]
    fn crlf_and_blank_lines_and_a_missing_final_newline_are_tolerated() {
        let t = header() + &enq(1, 100, 0, 1000, 1000) + "\n" + &deq(2, 200, 0, 1000, 0);
        let t = t.replace('\n', "\r\n");
        let r = Reconstruction::from_reader(Cursor::new(t.trim_end().to_string())).unwrap();
        assert_eq!(
            (r.events, r.integrity.parse_errors, r.integrity.seq_gaps),
            (3, 0, 0)
        );
        assert_eq!(r.kind_counts["pkt_dequeue"], 1);
    }

    #[test]
    fn unknown_kinds_are_counted_by_tag() {
        let mut t = header();
        t += "{\"seq\":1,\"t_ps\":5,\"type\":\"novel\",\"x\":1}\n";
        t += "{\"seq\":2,\"t_ps\":6,\"type\":\"novel\"}\n";
        // Missing a field: counted, and no port springs into being.
        t += "{\"seq\":3,\"t_ps\":7,\"type\":\"pkt_enqueue\",\"node\":\"host1\",\"port\":0,\"class\":0}\n";
        let r = Reconstruction::from_reader(Cursor::new(t)).unwrap();
        assert_eq!(r.integrity.unknown_kinds, 2);
        assert_eq!(r.kind_counts["novel"], 2);
        assert_eq!(r.kind_counts.len(), 3, "{:?}", r.kind_counts);
        assert_eq!(r.integrity.parse_errors, 1);
        assert!(r.ports.is_empty());
    }

    /// `host<N>`/`switch<N>` ports are found by number, everything else by
    /// label: an escaped spelling of a label is the same port, `host03` is
    /// not `host3`, and large numbers and ports work like small ones.
    #[test]
    fn ports_are_told_apart_by_label_and_number() {
        let mut t = header();
        let named = [
            ("host3", 0),
            ("host\\u0033", 0),
            ("host03", 0),
            ("host3", 1),
            ("switch5000", 1),
            ("switch1", 300),
            ("nic", 0),
            ("nic", 0),
            ("switch1", 300),
        ];
        for (seq, (node, port)) in named.iter().enumerate() {
            t += &format!(
                "{{\"seq\":{},\"t_ps\":9,\"type\":\"pkt_drop\",\"node\":\"{node}\",\"port\":{port},\
                 \"class\":0,\"bytes\":1,\"backlog_bytes\":0}}\n",
                seq + 1
            );
        }
        let r = Reconstruction::from_reader(Cursor::new(t)).unwrap();
        let drops: Vec<(String, u64)> = r
            .ports
            .iter()
            .map(|(k, p)| (k.to_string(), p.drop_pkts))
            .collect();
        let want = [
            ("host03/port0", 1),
            ("host3/port0", 2),
            ("host3/port1", 1),
            ("nic/port0", 2),
            ("switch1/port300", 2),
            ("switch5000/port1", 1),
        ];
        assert_eq!(drops, want.map(|(k, n)| (k.to_string(), n)));
    }

    #[test]
    fn header_is_mandatory() {
        let err = Reconstruction::from_reader(Cursor::new(enq(0, 1, 0, 1, 1))).unwrap_err();
        assert!(err.contains("pre-v2"), "{err}");
        let err = Reconstruction::from_reader(Cursor::new(String::new())).unwrap_err();
        assert!(err.contains("empty trace"), "{err}");
    }
}
