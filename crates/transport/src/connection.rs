//! Per-connection sender state: message queue, segmentation, windowing,
//! loss recovery.

use crate::config::TransportConfig;
use crate::swift::SwiftCc;
use crate::{CompletedMessage, FailedMessage};
use aequitas_netsim::FlowKey;
use aequitas_sim_core::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Counters exported per connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Data segments transmitted (including retransmissions).
    pub sent_segments: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Messages fully acknowledged.
    pub completed_messages: u64,
    /// Payload bytes fully acknowledged.
    pub completed_bytes: u64,
    /// Messages abandoned after `max_retries` retransmissions of a segment.
    pub failed_messages: u64,
}

/// The per-segment RTO after `retx` retransmissions: exponential backoff
/// capped at `max_rto`, but never below the un-backed-off base (so a base
/// RTO already above the cap keeps its old behaviour).
fn backed_off_rto(base: SimDuration, retx: u32, config: &TransportConfig) -> SimDuration {
    if retx == 0 || config.rto_backoff <= 1.0 {
        return base;
    }
    let scaled = base.mul_f64(config.rto_backoff.powi(retx.min(30) as i32));
    scaled.min(config.max_rto.max(base))
}

#[derive(Debug, Clone, Copy)]
struct UnackedSeg {
    sent_at: SimTime,
    retx: u32,
}

#[derive(Debug)]
struct MsgState {
    msg_id: u64,
    size_bytes: u64,
    total_segs: u32,
    next_seg: u32,
    acked_segs: u32,
    issued_at: SimTime,
    /// Outstanding-segment table indexed by `seq`; `None` = not in flight
    /// (never sent, or already acked). One allocation per message instead of
    /// hash-map churn per segment, and iteration is in deterministic `seq`
    /// order.
    segs: Vec<Option<UnackedSeg>>,
}

/// What the connection wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transmit {
    /// Send this segment now.
    Segment {
        /// Message id.
        msg_id: u64,
        /// Segment index.
        seq: u32,
        /// Whether it is the message's final segment.
        is_last: bool,
    },
    /// Window is sub-packet; try again at this time.
    PacedUntil(SimTime),
    /// Nothing to send (idle or window-limited; re-pumped on ACK).
    Idle,
}

pub(crate) struct Connection {
    pub(crate) flow: FlowKey,
    pub(crate) cc: SwiftCc,
    /// Messages in FIFO order; segments of message k+1 are not sent until
    /// all segments of message k have been *sent* (stream semantics).
    send_order: VecDeque<u64>,
    /// Live messages in issue order, which is ascending `msg_id` order
    /// (`enqueue_message` checks it); lookups scan from the front, where
    /// windowing keeps the messages being acked. Segments go out in this
    /// order too, so the messages with a segment ever sent are a prefix:
    /// everything from the first with `next_seg == 0` on is untouched.
    msgs: Vec<MsgState>,
    inflight: usize,
    next_send_allowed: SimTime,
    stats: ConnectionStats,
}

impl Connection {
    pub(crate) fn new(flow: FlowKey, config: &TransportConfig) -> Self {
        Connection {
            flow,
            cc: SwiftCc::new(config),
            send_order: VecDeque::new(),
            msgs: Vec::new(),
            inflight: 0,
            next_send_allowed: SimTime::ZERO,
            stats: ConnectionStats::default(),
        }
    }

    fn msg_pos(&self, msg_id: u64) -> Option<usize> {
        self.msgs.iter().position(|m| m.msg_id == msg_id)
    }

    pub(crate) fn enqueue_message(&mut self, msg_id: u64, size_bytes: u64, mtu: u64, now: SimTime) {
        let total_segs = size_bytes.div_ceil(mtu).max(1) as u32;
        // Comparing with the newest message alone keeps an enqueue O(1)
        // behind a backlog of any depth, and rules out duplicates too.
        if let Some(last) = self.msgs.last() {
            assert!(
                msg_id > last.msg_id,
                "msg_id {msg_id} not above the last queued {}",
                last.msg_id
            );
        }
        self.msgs.push(MsgState {
            msg_id,
            size_bytes,
            total_segs,
            next_seg: 0,
            acked_segs: 0,
            issued_at: now,
            segs: vec![None; total_segs as usize],
        });
        self.send_order.push_back(msg_id);
    }

    /// Holds no message: nothing queued, in flight or awaiting an ACK, so a
    /// retransmission scan or a pump finds nothing to do here.
    pub(crate) fn is_idle(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Number of messages not yet fully transmitted.
    pub(crate) fn pending_messages(&self) -> usize {
        self.send_order.len()
    }

    /// Outstanding (sent, unacked) segments.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight
    }

    pub(crate) fn stats(&self) -> ConnectionStats {
        self.stats
    }

    /// Payload bytes of segment `seq` of `msg_id`.
    pub(crate) fn segment_bytes(&self, msg_id: u64, seq: u32, mtu: u64) -> u32 {
        let msg = &self.msgs[self.msg_pos(msg_id).expect("message exists")];
        if seq + 1 < msg.total_segs {
            mtu as u32
        } else {
            let rem = msg.size_bytes - (msg.total_segs as u64 - 1) * mtu;
            rem.max(1) as u32
        }
    }

    /// Decide the next transmission under window and pacing constraints.
    pub(crate) fn next_transmission(
        &mut self,
        now: SimTime,
        _config: &TransportConfig,
    ) -> Transmit {
        // Drop fully-sent heads.
        while let Some(&head) = self.send_order.front() {
            let msg = &self.msgs[self.msg_pos(head).expect("queued message exists")];
            if msg.next_seg >= msg.total_segs {
                self.send_order.pop_front();
            } else {
                break;
            }
        }
        let Some(&head) = self.send_order.front() else {
            return Transmit::Idle;
        };

        let cwnd = self.cc.cwnd();
        if cwnd >= 1.0 {
            if (self.inflight as f64) + 1.0 > cwnd + 1e-9 {
                return Transmit::Idle; // window-limited; ACKs re-pump
            }
        } else {
            // Sub-packet window: one packet at a time, paced.
            if self.inflight > 0 {
                return Transmit::Idle;
            }
            if now < self.next_send_allowed {
                return Transmit::PacedUntil(self.next_send_allowed);
            }
        }

        let pos = self.msg_pos(head).expect("head exists");
        let msg = &mut self.msgs[pos];
        let seq = msg.next_seg;
        msg.next_seg += 1;
        Transmit::Segment {
            msg_id: head,
            seq,
            is_last: seq + 1 == msg.total_segs,
        }
    }

    /// Record a (re)transmission of a segment.
    pub(crate) fn mark_sent(
        &mut self,
        msg_id: u64,
        seq: u32,
        now: SimTime,
        config: &TransportConfig,
    ) {
        self.stats.sent_segments += 1;
        let pos = self.msg_pos(msg_id).expect("message exists");
        match &mut self.msgs[pos].segs[seq as usize] {
            Some(entry) => {
                entry.sent_at = now;
                entry.retx += 1;
                self.stats.retransmits += 1;
            }
            slot @ None => {
                *slot = Some(UnackedSeg {
                    sent_at: now,
                    retx: 0,
                });
                self.inflight += 1;
            }
        }
        if self.cc.cwnd() < 1.0 {
            self.next_send_allowed = now + self.cc.pacing_gap(config);
        }
    }

    /// Process an ACK; returns the completed message, if this was its final
    /// segment.
    pub(crate) fn on_ack(
        &mut self,
        msg_id: u64,
        seq: u32,
        rtt: aequitas_sim_core::SimDuration,
        now: SimTime,
        config: &TransportConfig,
    ) -> Option<CompletedMessage> {
        let pos = self.msg_pos(msg_id)?;
        // A duplicate or stale ACK finds the segment slot already empty.
        self.msgs[pos].segs[seq as usize].take()?;
        self.inflight -= 1;
        self.cc.on_ack(rtt, now, config);

        let msg = &mut self.msgs[pos];
        msg.acked_segs += 1;
        if msg.acked_segs == msg.total_segs {
            // `remove`, not `swap_remove`: keeps `msgs` in issue order so
            // front-of-vec scans stay short and iteration stays sorted.
            let msg = self.msgs.remove(pos);
            self.stats.completed_messages += 1;
            self.stats.completed_bytes += msg.size_bytes;
            return Some(CompletedMessage {
                flow: self.flow,
                msg_id,
                issued_at: msg.issued_at,
                completed_at: now,
                size_bytes: msg.size_bytes,
            });
        }
        None
    }

    /// Append segments whose retransmission timeout has expired to
    /// `expired` as `(msg_id, seq, is_last)`, shrinking the window once if
    /// anything expired. The caller owns (and reuses) the buffer. Each
    /// segment's RTO backs off exponentially with its retransmission count;
    /// a message whose segment has already been retransmitted `max_retries`
    /// times is abandoned and pushed onto `failures` instead.
    pub(crate) fn take_expired(
        &mut self,
        now: SimTime,
        config: &TransportConfig,
        expired: &mut Vec<(u64, u32, bool)>,
        failures: &mut Vec<FailedMessage>,
    ) {
        let rto = self.cc.rto(config);
        // Abandon messages that exhausted the retry budget: one expired
        // segment at the cap fails the whole message (stream semantics — a
        // hole can never be filled once we give up on it).
        //
        // Both scans stop at the first message never sent: it and all after
        // it hold no segment in flight, and an overloaded sender can queue
        // a backlog of them that every timer would otherwise walk.
        let mut i = 0;
        while i < self.msgs.len() && self.msgs[i].next_seg > 0 {
            let give_up = self.msgs[i].segs.iter().flatten().any(|e| {
                e.retx >= config.max_retries
                    && now.saturating_since(e.sent_at) >= backed_off_rto(rto, e.retx, config)
            });
            if !give_up {
                i += 1;
                continue;
            }
            let msg = self.msgs.remove(i);
            self.send_order.retain(|&id| id != msg.msg_id);
            self.inflight -= msg.segs.iter().flatten().count();
            self.stats.failed_messages += 1;
            failures.push(FailedMessage {
                flow: self.flow,
                msg_id: msg.msg_id,
                issued_at: msg.issued_at,
                failed_at: now,
                size_bytes: msg.size_bytes,
            });
        }
        let before = expired.len();
        for msg in self.msgs.iter().take_while(|m| m.next_seg > 0) {
            for (seq, entry) in msg.segs.iter().enumerate() {
                let Some(entry) = entry else { continue };
                if now.saturating_since(entry.sent_at) >= backed_off_rto(rto, entry.retx, config) {
                    let seq = seq as u32;
                    expired.push((msg.msg_id, seq, seq + 1 == msg.total_segs));
                }
            }
        }
        if expired.len() > before {
            self.cc.on_timeout(config);
            // Deterministic retransmission order: `msgs` is in ascending
            // msg_id order and segments are scanned in seq order, so the
            // slice is already sorted; the sort stays as a cheap guard
            // because retransmission order is a correctness contract here.
            expired[before..].sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_backoff_doubles_and_caps() {
        let c = TransportConfig::default();
        let base = SimDuration::from_us(500);
        assert_eq!(backed_off_rto(base, 0, &c), base);
        assert_eq!(backed_off_rto(base, 1, &c), base * 2);
        assert_eq!(backed_off_rto(base, 3, &c), base * 8);
        // 500us * 2^10 = 512ms, far over the 10ms cap.
        assert_eq!(backed_off_rto(base, 10, &c), c.max_rto);
        // Huge retx counts must not overflow.
        assert_eq!(backed_off_rto(base, u32::MAX, &c), c.max_rto);
    }

    #[test]
    fn rto_cap_never_lowers_a_large_base() {
        let c = TransportConfig {
            max_rto: SimDuration::from_ms(1),
            ..TransportConfig::default()
        };
        let base = SimDuration::from_ms(5); // already above the cap
        assert_eq!(backed_off_rto(base, 0, &c), base);
        assert_eq!(backed_off_rto(base, 4, &c), base);
    }

    #[test]
    fn backoff_factor_one_disables() {
        let c = TransportConfig {
            rto_backoff: 1.0,
            ..TransportConfig::default()
        };
        let base = SimDuration::from_us(500);
        assert_eq!(backed_off_rto(base, 7, &c), base);
    }

    fn test_flow() -> FlowKey {
        FlowKey {
            src: aequitas_netsim::HostId(0),
            dst: aequitas_netsim::HostId(1),
            class: 0,
        }
    }

    #[test]
    #[should_panic(expected = "not above the last queued")]
    fn message_ids_must_rise() {
        let c = TransportConfig::default();
        let mut conn = Connection::new(test_flow(), &c);
        conn.enqueue_message(8, 4096, c.mtu_bytes, SimTime::ZERO);
        conn.enqueue_message(7, 4096, c.mtu_bytes, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not above the last queued")]
    fn a_repeated_message_id_is_refused() {
        let c = TransportConfig::default();
        let mut conn = Connection::new(test_flow(), &c);
        conn.enqueue_message(8, 4096, c.mtu_bytes, SimTime::ZERO);
        conn.enqueue_message(8, 4096, c.mtu_bytes, SimTime::ZERO);
    }

    /// The expiry scan stops at the first message never sent, so a backlog
    /// behind it costs nothing; every segment in flight ahead of it, on a
    /// fully sent message or on the partly sent head, still expires.
    #[test]
    fn expiry_finds_every_sent_segment_ahead_of_the_backlog() {
        let c = TransportConfig::default();
        let mtu = c.mtu_bytes;
        let mut conn = Connection::new(test_flow(), &c);
        conn.enqueue_message(1, 3 * mtu, mtu, SimTime::ZERO);
        conn.enqueue_message(2, 2 * mtu, mtu, SimTime::ZERO);
        for id in 3..=50 {
            conn.enqueue_message(id, mtu, mtu, SimTime::ZERO);
        }
        for _ in 0..4 {
            let Transmit::Segment { msg_id, seq, .. } = conn.next_transmission(SimTime::ZERO, &c)
            else {
                panic!("the initial window admits four segments");
            };
            conn.mark_sent(msg_id, seq, SimTime::ZERO, &c);
        }
        assert!(conn
            .on_ack(1, 1, SimDuration::from_us(5), SimTime::ZERO, &c)
            .is_none());

        let (mut expired, mut failures) = (Vec::new(), Vec::new());
        conn.take_expired(
            SimTime::ZERO + SimDuration::from_ms(50),
            &c,
            &mut expired,
            &mut failures,
        );
        assert_eq!(expired, vec![(1, 0, false), (1, 2, true), (2, 0, false)]);
        assert!(failures.is_empty());
        assert_eq!(conn.pending_messages(), 49);
    }

    /// A head message that exhausts its retries fails alone: the backlog
    /// behind it, never sent, stays queued, and the next message goes next.
    #[test]
    fn a_failed_head_leaves_its_backlog_queued() {
        let c = TransportConfig {
            max_retries: 2,
            ..TransportConfig::default()
        };
        let mut conn = Connection::new(test_flow(), &c);
        for id in 1..=10 {
            conn.enqueue_message(id, c.mtu_bytes, c.mtu_bytes, SimTime::ZERO);
        }
        let Transmit::Segment { msg_id, seq, .. } = conn.next_transmission(SimTime::ZERO, &c)
        else {
            panic!("the head goes out first");
        };
        conn.mark_sent(msg_id, seq, SimTime::ZERO, &c);

        let (mut expired, mut failures) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_ms(50);
            expired.clear();
            conn.take_expired(now, &c, &mut expired, &mut failures);
            if !failures.is_empty() {
                break;
            }
            for &(msg_id, seq, _) in &expired {
                conn.mark_sent(msg_id, seq, now, &c);
            }
        }
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].msg_id, 1);
        assert_eq!(conn.inflight(), 0);
        assert_eq!(conn.pending_messages(), 9);
        assert!(matches!(
            conn.next_transmission(now, &c),
            Transmit::Segment {
                msg_id: 2,
                seq: 0,
                ..
            }
        ));
    }

    #[test]
    fn exhausted_retries_fail_the_message() {
        let c = TransportConfig {
            max_retries: 2,
            ..TransportConfig::default()
        };
        let mut conn = Connection::new(test_flow(), &c);
        conn.enqueue_message(7, 4096, c.mtu_bytes, SimTime::ZERO);
        assert!(matches!(
            conn.next_transmission(SimTime::ZERO, &c),
            Transmit::Segment {
                msg_id: 7,
                seq: 0,
                ..
            }
        ));
        conn.mark_sent(7, 0, SimTime::ZERO, &c);

        let mut expired = Vec::new();
        let mut failures = Vec::new();
        let mut now = SimTime::ZERO;
        // Let the segment expire repeatedly; each pass retransmits it until
        // the retry budget runs out, at which point the message fails.
        for _ in 0..10 {
            now += SimDuration::from_ms(50); // far past any backed-off RTO
            expired.clear();
            conn.take_expired(now, &c, &mut expired, &mut failures);
            if !failures.is_empty() {
                break;
            }
            for &(msg_id, seq, _) in &expired {
                conn.mark_sent(msg_id, seq, now, &c);
            }
        }
        assert_eq!(failures.len(), 1);
        let f = &failures[0];
        assert_eq!((f.msg_id, f.size_bytes), (7, 4096));
        assert_eq!(conn.stats().failed_messages, 1);
        assert_eq!(conn.stats().retransmits, c.max_retries as u64);
        assert_eq!(conn.inflight(), 0);
        assert_eq!(conn.pending_messages(), 0);
        // The connection stays usable for new messages.
        conn.enqueue_message(8, 4096, c.mtu_bytes, now);
        assert!(matches!(
            conn.next_transmission(now, &c),
            Transmit::Segment { msg_id: 8, .. }
        ));
    }
}
