//! Shared sender machinery for the baseline hosts.
//!
//! Every baseline host draws its RPCs whole, one arrival ahead, from an
//! [`RpcStream`] (the stream an Aequitas host of the same spec and seed
//! draws); numbers its messages and packets; and logs what finished.
//! [`Sender`] is that skeleton. The sender-driven baselines (pFabric,
//! QJump, D3, PDQ) also track outgoing messages the same way —
//! segmentation, per-packet ACKs, timeout retransmission — and differ only
//! in *when* and *at what priority* the next segment may leave. [`OutMsg`]
//! is that common bookkeeping.
//!
//! Per-flow state is ordered and dense: every host keeps its messages (and
//! a receiver its incoming flows) in a `FlowTable`, a sorted vector, so a
//! walk runs in key order without a sort, and a message's outstanding
//! segments live in an `Unacked` window indexed by sequence number.

use crate::workgen::WorkloadGen;
use crate::BaselineCompletion;
use aequitas_netsim::{FlowKey, HostAgent, HostCtx, HostId, Packet, PacketKind};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_workloads::{NextRpc, Priority, RpcStream};
use std::collections::VecDeque;

/// Slots a message's [`Unacked`] window starts with (fewer for a shorter
/// message): enough for the windows the hosts keep in flight, so most
/// messages never regrow it.
const UNACKED_SPAN_HINT: u32 = 16;

/// Idealized header bytes (matches the main transport).
pub const HEADER_BYTES: u32 = aequitas_netsim::packet::HEADER_BYTES;

/// Timer token of a host's next workload arrival; every baseline host
/// numbers its own timers from 2.
pub(crate) const ARRIVAL_TIMER: u64 = 1;

/// A host's packet-id counter and the control packets stamped from it. Ids
/// start at `host << 40`, so they are unique fabric-wide.
pub(crate) struct PacketIds {
    /// The stamping host.
    pub(crate) host: HostId,
    next: u64,
}

impl PacketIds {
    /// The next packet id.
    pub(crate) fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// A control packet to `dst`: ACK-sized, on class 0, rank 0.
    pub(crate) fn ctrl(&mut self, dst: HostId, kind: u8, a: u64, b: u64, now: SimTime) -> Packet {
        Packet {
            id: self.next_id(),
            flow: FlowKey {
                src: self.host,
                dst,
                class: 0,
            },
            size_bytes: aequitas_netsim::packet::ACK_BYTES,
            kind: PacketKind::Ctrl { kind, a, b },
            sent_at: now,
            rank: 0,
        }
    }
}

/// The sender skeleton every baseline host shares: the workload stream and
/// its one pending arrival, message and packet ids, the completion log and
/// the bytes offered per class.
pub struct Sender {
    /// Packet ids and control packets.
    pub(crate) ids: PacketIds,
    /// Completions (including terminations) so far.
    pub(crate) completions: Vec<BaselineCompletion>,
    stream: Option<RpcStream>,
    /// The next RPC, its `at` clamped to when its timer was armed.
    pending_arrival: Option<NextRpc>,
    next_msg_id: u64,
    offered: [u64; 3],
}

impl Sender {
    /// The skeleton of `host`; `gen: None` for pure receivers.
    pub(crate) fn new(host: HostId, gen: Option<WorkloadGen>) -> Self {
        Sender {
            ids: PacketIds {
                host,
                next: (host.0 as u64) << 40,
            },
            completions: Vec::new(),
            stream: gen.map(|g| g.0),
            pending_arrival: None,
            next_msg_id: (host.0 as u64) << 32,
            offered: [0; 3],
        }
    }

    /// Draw the next RPC and arm [`ARRIVAL_TIMER`] for it, unless one is
    /// already pending or the stream has ended.
    pub(crate) fn schedule_arrival(&mut self, ctx: &mut HostCtx) {
        if self.pending_arrival.is_some() {
            return;
        }
        if let Some(rpc) = self.stream.as_mut().and_then(RpcStream::next_rpc) {
            let at = rpc.at.max(ctx.now());
            self.pending_arrival = Some(NextRpc { at, ..rpc });
            ctx.set_timer(at, ARRIVAL_TIMER);
        }
    }

    /// The pending RPC if it is due at `now`, issued under a fresh message
    /// id. The caller sets the message up, then calls
    /// [`Sender::schedule_arrival`].
    pub(crate) fn due(&mut self, now: SimTime) -> Option<(u64, NextRpc)> {
        let rpc = self.pending_arrival.take_if(|rpc| rpc.at <= now)?;
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.offered[rpc.qos as usize] += rpc.size_bytes;
        Some((id, rpc))
    }

    /// Completions (including terminations) so far.
    pub fn completions(&self) -> &[BaselineCompletion] {
        &self.completions
    }

    /// Payload bytes issued so far, per QoS class.
    pub fn offered(&self) -> [u64; 3] {
        self.offered
    }
}

/// A baseline host: a [`HostAgent`] built on the shared [`Sender`].
pub trait BaselineHost: HostAgent {
    /// The host's sender skeleton.
    fn sender(&self) -> &Sender;
}

/// A map from `K` to per-flow state `V`, kept as a vector sorted by key.
///
/// Lookups are a binary search; walks run in key order, so nothing that
/// iterates it needs a sort to be deterministic. A sender allocates message
/// ids monotonically, so its inserts are appends; a receiver keyed by
/// `(src, msg_id)` inserts in the middle, which is a short move at the
/// tens of flows a host holds.
#[derive(Debug, Clone)]
pub(crate) struct FlowTable<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> Default for FlowTable<K, V> {
    fn default() -> Self {
        FlowTable {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> FlowTable<K, V> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// No entries?
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position of `key` in key order, or where it would be inserted.
    pub(crate) fn position(&self, key: &K) -> Result<usize, usize> {
        // Appends are the common insert: check the tail before searching.
        match self.entries.last() {
            None => Err(0),
            Some((last, _)) if *last < *key => Err(self.entries.len()),
            _ => self.entries.binary_search_by(|(k, _)| k.cmp(key)),
        }
    }

    /// The value under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let at = self.position(key).ok()?;
        Some(&self.entries[at].1)
    }

    /// The value under `key`, mutably.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let at = self.position(key).ok()?;
        Some(&mut self.entries[at].1)
    }

    /// Insert `value` under `key`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    /// The value under `key`, inserting `make()` first if there is none.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let at = match self.position(&key) {
            Ok(at) => at,
            Err(at) => {
                self.entries.insert(at, (key, make()));
                at
            }
        };
        &mut self.entries[at].1
    }

    /// Remove and return the value under `key`.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.position(key).ok()?;
        let v = self.entries.remove(at).1;
        self.shrink();
        Some(v)
    }

    /// Give memory back as a `BTreeMap` would: all of it once the table is
    /// empty, and half once at most a quarter is in use (keeping room for
    /// a few entries). A table holds memory for what it holds now, not for
    /// its peak, at an amortized constant cost.
    fn shrink(&mut self) {
        const FLOOR: usize = 8;
        let (len, cap) = (self.entries.len(), self.entries.capacity());
        if len == 0 {
            self.entries = Vec::new();
        } else if cap > FLOOR && len * 4 <= cap {
            self.entries.shrink_to((len * 2).max(FLOOR));
        }
    }

    /// Keep only the entries for which `keep` returns `true`, visiting them
    /// in key order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
        self.shrink();
    }

    /// Entries in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Values in key order, mutable.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// The entry at position `at` in key order.
    pub(crate) fn at_mut(&mut self, at: usize) -> (K, &mut V) {
        let (k, v) = &mut self.entries[at];
        (*k, v)
    }
}

/// A message's outstanding segments: the last transmission time of every
/// sent, unacknowledged segment, indexed by sequence number.
///
/// Slots cover the span from the lowest to the highest outstanding seq (an
/// acked segment inside it leaves an empty slot), so memory follows what is
/// in flight, not the message's size, and a walk is in seq order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Unacked {
    /// Seq of `slots[0]`.
    base: u32,
    /// `Some(sent_at)` per outstanding seq; the first and last are `Some`.
    slots: VecDeque<Option<SimTime>>,
    count: usize,
}

impl Unacked {
    /// Outstanding segments.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Slots the window can hold before it reallocates.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Make room for at least `span` slots in all.
    pub(crate) fn reserve(&mut self, span: usize) {
        self.slots.reserve(span.saturating_sub(self.slots.len()));
    }

    /// Record a transmission of `seq` at `now`; returns `true` when the
    /// segment was not outstanding before.
    pub(crate) fn mark_sent(&mut self, seq: u32, now: SimTime) -> bool {
        if self.slots.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let at = (seq - self.base) as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, None);
        }
        let fresh = self.slots[at].replace(now).is_none();
        self.count += fresh as usize;
        fresh
    }

    /// Acknowledge `seq`; returns `true` when it was outstanding.
    pub(crate) fn ack(&mut self, seq: u32) -> bool {
        let Some(at) = seq.checked_sub(self.base) else {
            return false;
        };
        if self.slots.get_mut(at as usize).and_then(Option::take).is_none() {
            return false;
        }
        self.count -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back().is_some_and(Option::is_none) {
            self.slots.pop_back();
        }
        true
    }

    /// The first outstanding seq at or after `from` whose retransmission
    /// timer expired. A retransmitting caller walks the window with it,
    /// resuming after each seq, as it may restart that seq's timer.
    pub(crate) fn next_expired(&self, from: u32, now: SimTime, rto: SimDuration) -> Option<u32> {
        let first = from.saturating_sub(self.base) as usize;
        (first..self.slots.len())
            .find(|&at| self.slots[at].is_some_and(|t| now.saturating_since(t) >= rto))
            .map(|at| self.base + at as u32)
    }
}

/// An in-progress outgoing message.
#[derive(Debug, Clone)]
pub struct OutMsg {
    /// Sender-unique message id.
    pub msg_id: u64,
    /// Destination.
    pub dst: HostId,
    /// Fabric QoS class the message's packets travel on.
    pub qos: u8,
    /// Application priority.
    pub priority: Priority,
    /// Payload bytes.
    pub size_bytes: u64,
    /// Number of segments.
    pub total_segs: u32,
    /// Next never-sent segment.
    pub next_seg: u32,
    /// Segments acknowledged.
    pub acked: u32,
    /// Issue time.
    pub issued_at: SimTime,
    /// Optional deadline (D3/PDQ).
    pub deadline: Option<SimTime>,
    /// Outstanding segments.
    unacked: Unacked,
    mtu: u64,
}

impl OutMsg {
    /// Create message `msg_id` for `rpc`, segmented at `mtu`.
    pub fn new(
        msg_id: u64,
        rpc: &NextRpc,
        mtu: u64,
        issued_at: SimTime,
        deadline: Option<SimTime>,
    ) -> Self {
        let total_segs = rpc.size_bytes.div_ceil(mtu).max(1) as u32;
        OutMsg {
            msg_id,
            dst: HostId(rpc.dst),
            qos: rpc.qos,
            priority: rpc.priority,
            size_bytes: rpc.size_bytes,
            total_segs,
            next_seg: 0,
            acked: 0,
            issued_at,
            deadline,
            unacked: Unacked::default(),
            mtu,
        }
    }

    /// Unacknowledged bytes (the pFabric rank).
    pub fn remaining_bytes(&self) -> u64 {
        self.size_bytes
            .saturating_sub(self.acked as u64 * self.mtu)
            .max(1)
    }

    /// Bytes never transmitted (excludes in-flight segments).
    pub fn unsent_bytes(&self) -> u64 {
        self.size_bytes
            .saturating_sub(self.next_seg as u64 * self.mtu)
    }

    /// Payload bytes of segment `seq`.
    pub fn seg_bytes(&self, seq: u32) -> u32 {
        if seq + 1 < self.total_segs {
            self.mtu as u32
        } else {
            (self.size_bytes - (self.total_segs as u64 - 1) * self.mtu).max(1) as u32
        }
    }

    /// All segments transmitted at least once.
    pub fn fully_sent(&self) -> bool {
        self.next_seg >= self.total_segs
    }

    /// All segments acknowledged.
    pub fn done(&self) -> bool {
        self.acked >= self.total_segs
    }

    /// Outstanding (sent, unacked) segment count.
    pub fn inflight(&self) -> usize {
        self.unacked.len()
    }

    /// Build the data packet for `seq` with the given PIFO `rank`.
    pub fn data_packet(&self, packet_id: u64, seq: u32, rank: u64, now: SimTime, src: HostId) -> Packet {
        Packet {
            id: packet_id,
            flow: FlowKey {
                src,
                dst: self.dst,
                class: self.qos,
            },
            size_bytes: self.seg_bytes(seq) + HEADER_BYTES,
            kind: PacketKind::Data {
                msg_id: self.msg_id,
                seq,
                is_last: seq + 1 == self.total_segs,
            },
            sent_at: now,
            rank,
        }
    }

    /// Record a transmission.
    pub fn mark_sent(&mut self, seq: u32, now: SimTime) {
        if self.unacked.capacity() == 0 {
            // Sized at the first transmission, so a message that waits
            // for its rate costs no window.
            self.unacked.reserve(self.total_segs.min(UNACKED_SPAN_HINT) as usize);
        }
        self.unacked.mark_sent(seq, now);
        if seq == self.next_seg {
            self.next_seg += 1;
        }
    }

    /// Record an ACK; returns `true` when the segment was newly acked.
    pub fn on_ack(&mut self, seq: u32) -> bool {
        let fresh = self.unacked.ack(seq);
        self.acked += fresh as u32;
        fresh
    }

    /// Retransmit the segments whose timer expired, in seq order:
    /// `send(msg, seq)` sends one and returns whether it did, and a sent
    /// segment's timer restarts at `now`.
    pub fn resend_expired(
        &mut self,
        now: SimTime,
        rto: SimDuration,
        mut send: impl FnMut(&OutMsg, u32) -> bool,
    ) {
        let mut from = 0;
        while let Some(seq) = self.unacked.next_expired(from, now, rto) {
            if send(self, seq) {
                self.mark_sent(seq, now);
            }
            from = seq + 1;
        }
    }

    /// Turn this message into a completion record.
    pub fn completion(&self, now: SimTime, terminated: bool) -> BaselineCompletion {
        BaselineCompletion {
            priority: self.priority,
            qos: self.qos,
            size_bytes: self.size_bytes,
            issued_at: self.issued_at,
            completed_at: now,
            terminated,
            downgraded: false,
        }
    }
}

/// Build the ACK for a received data packet (same QoS class, tiny size,
/// rank 0 so PIFO fabrics treat ACKs as highest priority).
pub fn ack_packet(receiver: HostId, data: &Packet, packet_id: u64, now: SimTime) -> Packet {
    let PacketKind::Data { msg_id, seq, .. } = data.kind else {
        panic!("ack_packet called on non-data packet");
    };
    Packet {
        id: packet_id,
        flow: FlowKey {
            src: receiver,
            dst: data.src(),
            class: data.flow.class,
        },
        size_bytes: aequitas_netsim::packet::ACK_BYTES,
        kind: PacketKind::Ack {
            msg_id,
            seq,
            echo: data.sent_at,
        },
        sent_at: now,
        rank: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Apply `ops` to a [`FlowTable`] and a `BTreeMap` oracle side by side;
    /// after every op both hold the same entries in the same order. Op
    /// codes: 0 insert, 1 get_or_insert_with, 2 get_mut (bump), 3 remove,
    /// 4 retain (drop one residue class), 5 get.
    fn differential<K: Ord + Copy + std::fmt::Debug>(
        ops: &[(u8, K, u32)],
    ) -> Result<(), TestCaseError> {
        let mut table = FlowTable::new();
        let mut oracle = BTreeMap::new();
        for &(op, key, v) in ops {
            match op % 6 {
                0 => prop_assert_eq!(table.insert(key, v), oracle.insert(key, v)),
                1 => prop_assert_eq!(
                    *table.get_or_insert_with(key, || v),
                    *oracle.entry(key).or_insert(v)
                ),
                2 => {
                    let (a, b) = (table.get_mut(&key), oracle.get_mut(&key));
                    prop_assert_eq!(a.is_some(), b.is_some());
                    if let (Some(a), Some(b)) = (a, b) {
                        *a += 1;
                        *b += 1;
                    }
                }
                3 => prop_assert_eq!(table.remove(&key), oracle.remove(&key)),
                4 => {
                    let drop = v % 3;
                    let mut visited = Vec::new();
                    table.retain(|&k, x| {
                        visited.push(k);
                        *x % 3 != drop
                    });
                    prop_assert_eq!(visited, oracle.keys().copied().collect::<Vec<_>>());
                    oracle.retain(|_, x| *x % 3 != drop);
                }
                _ => prop_assert_eq!(table.get(&key), oracle.get(&key)),
            }
            prop_assert_eq!(table.len(), oracle.len());
            prop_assert!(
                table.iter().map(|(&k, &v)| (k, v)).eq(oracle.iter().map(|(&k, &v)| (k, v))),
                "walk order differs after op {} on {:?}",
                op,
                key
            );
            for (at, (&k, _)) in oracle.iter().enumerate() {
                prop_assert_eq!(table.position(&k), Ok(at));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// A sender's table: ids only grow, so inserts append.
        #[test]
        fn prop_flow_table_matches_btreemap_on_monotone_keys(
            ops in proptest::collection::vec((0u8..6, 0u64..8, 0u32..1000), 1..300)
        ) {
            let mut next = 0u64;
            let ops: Vec<(u8, u64, u32)> = ops
                .into_iter()
                .map(|(op, back, v)| {
                    if op % 6 <= 1 {
                        next += 1;
                        (op, next, v)
                    } else {
                        (op, next.saturating_sub(back), v)
                    }
                })
                .collect();
            differential(&ops)?;
        }

        /// A receiver's table: arbitrary (src, id) keys insert anywhere.
        #[test]
        fn prop_flow_table_matches_btreemap_on_arbitrary_keys(
            ops in proptest::collection::vec((0u8..6, (0usize..6, 0u64..12), 0u32..1000), 1..300)
        ) {
            differential(&ops)?;
        }

        /// The in-flight window against a `BTreeMap<seq, sent_at>` model
        /// over send, retransmit and ack sequences: same expired seqs in
        /// the same order, same count, and slots only for the span from
        /// the lowest to the highest outstanding seq.
        #[test]
        fn prop_unacked_matches_model(
            ops in proptest::collection::vec((0u8..3, 0u32..64, 1u64..50), 1..400)
        ) {
            let rto = SimDuration::from_us(20);
            let (mut window, mut model) = (Unacked::default(), BTreeMap::new());
            let (mut next_seg, mut now, mut max_span) = (0u32, SimTime::ZERO, 0usize);
            for (op, pick, dt) in ops {
                now += SimDuration::from_us(dt % 7);
                match op {
                    // Send the next new segment.
                    0 => {
                        prop_assert!(window.mark_sent(next_seg, now));
                        model.insert(next_seg, now);
                        next_seg += 1;
                    }
                    // Resend any segment sent before: a retransmission when
                    // it is outstanding, a fresh entry when it was acked.
                    1 if next_seg > 0 => {
                        let seq = pick % next_seg;
                        let fresh = model.insert(seq, now).is_none();
                        prop_assert_eq!(window.mark_sent(seq, now), fresh);
                    }
                    1 => {}
                    // Ack any seq, outstanding, acked or never sent.
                    _ => {
                        let seq = pick % (next_seg + 2);
                        prop_assert_eq!(window.ack(seq), model.remove(&seq).is_some());
                    }
                }
                prop_assert_eq!(window.len(), model.len());
                let expired: Vec<u32> = model
                    .iter()
                    .filter(|&(_, &t)| now.saturating_since(t) >= rto)
                    .map(|(&s, _)| s)
                    .collect();
                let mut walked = Vec::new();
                let mut from = 0;
                while let Some(seq) = window.next_expired(from, now, rto) {
                    walked.push(seq);
                    from = seq + 1;
                }
                prop_assert_eq!(walked, expired);
                let span = match (model.keys().next(), model.keys().next_back()) {
                    (Some(&lo), Some(&hi)) => (hi - lo + 1) as usize,
                    _ => 0,
                };
                prop_assert_eq!(window.slots.len(), span);
                max_span = max_span.max(span);
                prop_assert!(
                    window.capacity() <= (2 * max_span).max(4),
                    "capacity {} for a largest span of {}",
                    window.capacity(),
                    max_span
                );
            }
        }
    }

    fn msg(size: u64) -> OutMsg {
        let rpc = NextRpc {
            at: SimTime::ZERO,
            dst: 1,
            priority: Priority::PerformanceCritical,
            qos: 0,
            size_bytes: size,
        };
        OutMsg::new(1, &rpc, 4096, SimTime::ZERO, None)
    }

    #[test]
    fn segmentation_math() {
        let m = msg(10_000);
        assert_eq!(m.total_segs, 3);
        assert_eq!(m.seg_bytes(0), 4096);
        assert_eq!(m.seg_bytes(2), 10_000 - 8192);
        assert_eq!(msg(4096).total_segs, 1);
        assert_eq!(msg(1).total_segs, 1);
    }

    #[test]
    fn send_ack_lifecycle() {
        let mut m = msg(8192);
        assert!(!m.fully_sent());
        m.mark_sent(0, SimTime::ZERO);
        m.mark_sent(1, SimTime::ZERO);
        assert!(m.fully_sent() && !m.done());
        assert_eq!(m.inflight(), 2);
        assert!(m.on_ack(0));
        assert!(!m.on_ack(0)); // duplicate
        assert!(m.on_ack(1));
        assert!(m.done());
    }

    #[test]
    fn remaining_bytes_shrinks_with_acks() {
        let mut m = msg(12_288);
        assert_eq!(m.remaining_bytes(), 12_288);
        m.mark_sent(0, SimTime::ZERO);
        m.on_ack(0);
        assert_eq!(m.remaining_bytes(), 12_288 - 4096);
    }

    #[test]
    fn expiry_detection() {
        let mut m = msg(8192);
        m.mark_sent(0, SimTime::ZERO);
        m.mark_sent(1, SimTime::from_us(90));
        let rto = SimDuration::from_us(100);
        // Offer every expired segment and send none, so no timer restarts.
        let expired = |m: &mut OutMsg, us| {
            let mut offered = Vec::new();
            m.resend_expired(SimTime::from_us(us), rto, |_, seq| {
                offered.push(seq);
                false
            });
            offered
        };
        assert_eq!(expired(&mut m, 100), vec![0]);
        assert_eq!(expired(&mut m, 200), vec![0, 1]);
        // Retransmission refreshes the timer.
        m.mark_sent(0, SimTime::from_us(200));
        assert_eq!(expired(&mut m, 250), vec![1]);
        // A resend restarts the timer only of the segments it sent.
        let mut offered = Vec::new();
        m.resend_expired(SimTime::from_us(300), rto, |_, seq| {
            offered.push(seq);
            seq == 1
        });
        assert_eq!(offered, vec![0, 1]);
        assert_eq!(expired(&mut m, 300), vec![0]);
    }

    #[test]
    fn ack_packet_reverses_flow() {
        let m = msg(4096);
        let data = m.data_packet(9, 0, 123, SimTime::from_us(5), HostId(0));
        let ack = ack_packet(HostId(1), &data, 10, SimTime::from_us(6));
        assert_eq!(ack.flow.src, HostId(1));
        assert_eq!(ack.flow.dst, HostId(0));
        assert_eq!(ack.flow.class, 0);
        match ack.kind {
            PacketKind::Ack { msg_id, seq, echo } => {
                assert_eq!((msg_id, seq), (1, 0));
                assert_eq!(echo, SimTime::from_us(5));
            }
            _ => panic!("not an ack"),
        }
    }
}
