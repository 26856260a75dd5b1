//! Deterministic future-event list.
//!
//! [`EventQueue`] is a calendar queue keyed by `(time, sequence)`. The
//! monotonically increasing sequence number guarantees FIFO ordering among
//! events scheduled for the same instant, which makes simulations fully
//! deterministic.
//!
//! The calendar has *sort-once* buckets. A ring of `NUM_BUCKETS` buckets,
//! each `2^BUCKET_BITS` ps wide, holds the near future unsorted (a schedule
//! is one `push`); a binary heap holds what lies beyond the ring horizon.
//! When a pop commits the cursor to the next occupied bucket, that bucket's
//! vector is swapped into the `cur` run and sorted once, descending, so
//! every further pop from it is a `Vec::pop`; a schedule that lands in the
//! bucket being drained is a binary-search insert into `cur`. A bucket of k
//! events costs one O(k log k) sort instead of k min-scans, so the queue
//! does not depend on buckets being near-empty: the engine's traffic puts
//! 7–40 events in a bucket, at times over 100 (`tests/queue_traffic.rs`
//! prints the table). The test module keeps a plain `BinaryHeap`
//! future-event list as the oracle: differential properties assert that the
//! calendar pops the heap's exact `(time, seq)` sequence.
//!
//! Ordering contract: distinct buckets cover disjoint, increasing time
//! ranges, so cross-bucket order needs no comparisons; same-instant events
//! always land in the same bucket, where the sort and the sorted insert
//! break ties on `seq`. `cur` is exactly the unpopped remainder of bucket
//! `base`: while it is non-empty every schedule into that bucket joins it,
//! so the ring holds later buckets only. Overflow events sit at bucket
//! indices at or beyond the ring horizon and are migrated into the ring as
//! the cursor advances, before the horizon reaches them — hence they can
//! never be due before anything already in the ring.
//!
//! Only a pop that returns an event commits `base` and `cur`. `peek_time`
//! and a bounded pop that answers `None` change nothing, so an event
//! earlier than the one probed may still be scheduled afterwards (the
//! sharded engine's window protocol does exactly that).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event pulled out of the queue: when it fires and its payload.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// Tie-break sequence number (insertion order).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// Exact, deterministic work counts of a queue, for tests and for sizing
/// the ring (`tests/queue_traffic.rs`); deliberately not a telemetry
/// metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub schedules: u64,
    /// Buckets the cursor committed to.
    pub refills: u64,
    /// Events those buckets held when committed (each examined once).
    pub refill_events: u64,
    /// Largest bucket committed.
    pub max_bucket: u64,
    /// Schedules that landed in the bucket being drained.
    pub current_inserts: u64,
    /// Entries those sorted inserts moved.
    pub current_shifted: u64,
    /// Schedules beyond the ring horizon (sent to the overflow heap).
    pub overflow_pushes: u64,
}

/// A queued event. Ordered *latest first*: the overflow `BinaryHeap` (a
/// max-heap) then surfaces the earliest event, and an ascending sort leaves
/// the earliest event last, where `Vec::pop` takes it.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// log2 of the bucket width in picoseconds: 2^14 ps ≈ 16 ns, which puts
/// 3–40 events in a bucket (`tests/queue_traffic.rs`). Not a tuned value:
/// whole-experiment cost is flat within 4 % from 4 to 16 ns and 12 % higher
/// at 65 ns (README "Performance"); the width only sets the horizon.
const BUCKET_BITS: u32 = 14;
/// Ring size (power of two): 2048 buckets ≈ 33.5 µs of horizon. The
/// engine's traffic schedules under 1 % of its events further out (RTO
/// scans, burst gaps; `tests/queue_traffic.rs` asserts it) and the slot
/// headers (48 KB) plus the bitmap stay cache-resident.
const NUM_BUCKETS: usize = 2048;
const WORDS: usize = NUM_BUCKETS / 64;

#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t.as_ps() >> BUCKET_BITS
}

/// Earliest timestamp in a non-empty, unsorted bucket (`Entry`'s order puts
/// the earliest event greatest).
fn min_time<E>(bucket: &[Entry<E>]) -> SimTime {
    bucket.iter().max().expect("occupied bucket").time
}

/// Future-event list with deterministic same-instant ordering.
pub struct EventQueue<E> {
    /// Ring of unsorted buckets; slot for absolute bucket `b` is
    /// `b % NUM_BUCKETS`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bitmap of non-empty slots, for skipping runs of empty buckets.
    occupied: [u64; WORDS],
    /// Absolute bucket index of the cursor; only ever advances, and only
    /// when a pop returns an event.
    base: u64,
    /// Events resident in the ring (excludes `cur`).
    ring_len: usize,
    /// The unpopped rest of bucket `base`, sorted (latest first): the next
    /// event is the last element.
    cur: Vec<Entry<E>>,
    /// Events at bucket >= base + NUM_BUCKETS.
    overflow: BinaryHeap<Entry<E>>,
    stats: QueueStats,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            // Bucket vectors rotate through `cur` by swap and keep their
            // capacity, so the steady state allocates only on high-water
            // growth.
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            base: 0,
            ring_len: 0,
            cur: Vec::with_capacity(64),
            overflow: BinaryHeap::new(),
            stats: QueueStats::default(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at the absolute instant `at`.
    ///
    /// Panics when scheduling into the past; the kernel cannot rewind time.
    /// (Always-on: a rewound clock silently corrupts every downstream
    /// measurement, and the branch is trivially predicted.)
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let entry = Entry {
            time: at,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        let b = bucket_of(at);
        debug_assert!(b >= self.base, "schedule below base bucket");
        if b == self.base && !self.cur.is_empty() {
            // Into the bucket being drained: keep `cur` sorted. Entries due
            // before the new one sit behind it and shift by one.
            let at = self.cur.partition_point(|e| *e < entry);
            self.stats.current_inserts += 1;
            self.stats.current_shifted += (self.cur.len() - at) as u64;
            self.cur.insert(at, entry);
        } else if b < self.base + NUM_BUCKETS as u64 {
            self.push_ring(entry);
        } else {
            self.stats.overflow_pushes += 1;
            self.overflow.push(entry);
        }
    }

    #[inline]
    fn push_ring(&mut self, entry: Entry<E>) {
        let slot = (bucket_of(entry.time) as usize) & (NUM_BUCKETS - 1);
        if self.buckets[slot].is_empty() {
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
        }
        self.buckets[slot].push(entry);
        self.ring_len += 1;
    }

    /// Move overflow events that now fall inside the ring horizon into it.
    fn migrate(&mut self) {
        let horizon = self.base + NUM_BUCKETS as u64;
        while (self.overflow.peek()).is_some_and(|top| bucket_of(top.time) < horizon) {
            let e = self.overflow.pop().expect("peek above proved non-empty");
            self.push_ring(e);
        }
    }

    /// Bitmap scan from the cursor's slot, in ring order, for the first
    /// non-empty bucket. Requires `ring_len > 0` (guarantees a set bit
    /// within `NUM_BUCKETS` positions). Read-only: does not move `base`.
    fn first_occupied_slot(&self) -> usize {
        let start = (self.base as usize) & (NUM_BUCKETS - 1);
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        let mut scanned = 0usize;
        loop {
            if bits != 0 {
                break word * 64 + bits.trailing_zeros() as usize;
            }
            scanned += 64;
            debug_assert!(scanned <= NUM_BUCKETS + 64, "occupied bitmap empty");
            word = (word + 1) % WORDS;
            bits = self.occupied[word];
        }
    }

    /// Pop the next event and advance the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_if_at_or_before(SimTime::MAX)
    }

    /// Force the clock without popping — a corruption hook for the simsan
    /// fixture tests (proves the monotonicity check actually fires).
    #[cfg(test)]
    pub(crate) fn simsan_force_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// Pop the next event only if it fires at or before `end`; advances the
    /// clock on success. One bucket probe instead of a separate
    /// `peek_time` + `pop` pair — the shape of a bounded `run_until` loop.
    pub fn pop_if_at_or_before(&mut self, end: SimTime) -> Option<ScheduledEvent<E>> {
        let Entry { time, seq, event } = self.pop_entry(end)?;
        // In debug builds, assert pop-order monotonicity: the property the
        // bucket binning must deliver and that `schedule`'s
        // not-into-the-past check alone cannot guarantee.
        #[cfg(debug_assertions)]
        assert!(
            time >= self.now,
            "simsan[event-queue]: popped event at {time} behind the clock {}",
            self.now,
        );
        self.now = time;
        Some(ScheduledEvent { time, seq, event })
    }

    /// The one pop path (`end = SimTime::MAX` is the unbounded pop): serve
    /// from `cur`, else commit the cursor to the next occupied bucket and
    /// sort it into `cur`. Nothing is committed unless an event is
    /// returned — the `None` path is as read-only as a peek.
    fn pop_entry(&mut self, end: SimTime) -> Option<Entry<E>> {
        if !self.cur.is_empty() {
            return self.cur.pop_if(|next| next.time <= end);
        }
        if self.ring_len == 0 {
            let t = self.overflow.peek()?.time;
            if t > end {
                return None;
            }
            // The pop below is now certain: jump the cursor straight to the
            // earliest overflow event and pull it (plus any peers inside the
            // new horizon) into the ring.
            debug_assert!(bucket_of(t) >= self.base);
            self.base = bucket_of(t);
            self.migrate();
        }
        let slot = self.first_occupied_slot();
        // The bucket of the window [base, base + NUM_BUCKETS) at `slot`.
        let b = self.base + ((slot as u64).wrapping_sub(self.base) & (NUM_BUCKETS as u64 - 1));
        // Bucket `b` spans [b, b + 1) << BUCKET_BITS, so an `end` in another
        // bucket decides without reading an entry; only an `end` inside it
        // needs the bucket's minimum.
        let end_b = bucket_of(end);
        if end_b < b || (end_b == b && min_time(&self.buckets[slot]) > end) {
            return None;
        }
        let bucket = &mut self.buckets[slot];
        let n = bucket.len();
        let entry = if n == 1 {
            bucket.pop()
        } else {
            // `cur` is empty here: the swap parks its capacity in the slot.
            std::mem::swap(bucket, &mut self.cur);
            self.cur.sort_unstable();
            self.cur.pop()
        };
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        self.ring_len -= n;
        self.stats.refills += 1;
        self.stats.refill_events += n as u64;
        self.stats.max_bucket = self.stats.max_bucket.max(n as u64);
        if b > self.base {
            // Migrated events belong to buckets past the old horizon, all
            // later than `b`: they cannot rival what `cur` now holds.
            self.base = b;
            self.migrate();
        }
        entry
    }

    /// Timestamp of the next event without popping it. Read-only: peeking
    /// never restricts what may still be scheduled (the sharded engine
    /// peeks all domains, then injects cross-domain arrivals that can be
    /// earlier than the peeked native event).
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(next) = self.cur.last() {
            return Some(next.time);
        }
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.time);
        }
        // The first occupied slot at or after `base` holds the lowest
        // absolute bucket in the ring window; ring events always precede
        // overflow events (bucket >= base + NUM_BUCKETS).
        Some(min_time(&self.buckets[self.first_occupied_slot()]))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.cur.len() + self.overflow.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Work counts since construction (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            schedules: self.next_seq,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the classic `BinaryHeap` future-event list, keyed like
    /// the calendar. The differential properties below drive both in lock
    /// step and compare every pop, `now`, `len` and `peek_time`.
    struct HeapModel {
        heap: BinaryHeap<Entry<u64>>,
        next_seq: u64,
        now: SimTime,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        fn schedule(&mut self, time: SimTime, event: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        fn pop_if_at_or_before(&mut self, end: SimTime) -> Option<(SimTime, u64, u64)> {
            if self.heap.peek()?.time > end {
                return None;
            }
            let Entry { time, seq, event } = self.heap.pop()?;
            self.now = time;
            Some((time, seq, event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }
    }

    /// Bounded pop on the calendar, as the oracle reports it.
    fn cal_pop(q: &mut EventQueue<u64>, end: SimTime) -> Option<(SimTime, u64, u64)> {
        q.pop_if_at_or_before(end).map(|e| (e.time, e.seq, e.event))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), ());
        q.schedule(SimTime::from_us(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_us(1));
        q.pop();
        assert_eq!(q.now(), SimTime::from_us(2));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_us(2));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_us(7)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn pop_if_at_or_before_respects_bound() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), 1u32);
        q.schedule(SimTime::from_us(3), 3u32);
        let e = q.pop_if_at_or_before(SimTime::from_us(2)).unwrap();
        assert_eq!(e.event, 1);
        assert_eq!(q.now(), SimTime::from_us(1));
        // Next event is past the bound: no pop, clock untouched.
        assert!(q.pop_if_at_or_before(SimTime::from_us(2)).is_none());
        assert_eq!(q.now(), SimTime::from_us(1));
        assert_eq!(q.len(), 1);
        // Exact boundary is inclusive.
        let e = q.pop_if_at_or_before(SimTime::from_us(3)).unwrap();
        assert_eq!(e.event, 3);
        assert!(q.pop_if_at_or_before(SimTime::MAX).is_none());
    }

    #[test]
    fn peek_does_not_restrict_later_schedules() {
        // Regression for the sharded engine's window protocol: peek a
        // domain whose next native event is far away, then inject a nearer
        // boundary arrival. The peek must not have committed the calendar
        // cursor past the injection's bucket.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(10)));
        q.schedule(SimTime::from_us(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_us(3)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["near", "far"]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(5), ());
        q.pop();
        q.schedule(SimTime::from_us(4), ());
    }

    #[test]
    fn calendar_crosses_ring_horizon() {
        // Events far beyond the ring horizon (`NUM_BUCKETS` buckets of
        // `2^BUCKET_BITS` ps each) must overflow to the heap and come back in
        // order.
        let mut q = EventQueue::new();
        let horizon_ps = (NUM_BUCKETS as u64) << BUCKET_BITS;
        q.schedule(SimTime::from_ps(3 * horizon_ps), "far");
        q.schedule(SimTime::from_ps(10), "near");
        q.schedule(SimTime::from_ps(3 * horizon_ps), "far2");
        q.schedule(SimTime::from_ps(7 * horizon_ps + 123), "farther");
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["near", "far", "far2", "farther"]);
    }

    #[test]
    fn len_and_stats_cover_the_current_run() {
        let mut q = EventQueue::new();
        let horizon_ps = (NUM_BUCKETS as u64) << BUCKET_BITS;
        for t in [9u64, 3, 6] {
            q.schedule(SimTime::from_ps(t), t);
        }
        q.schedule(SimTime::from_ps(horizon_ps), 0);
        assert_eq!(q.pop().map(|e| e.event), Some(3));
        // Bucket 0 is now the sorted run [9, 6]: `len` counts it, and a
        // schedule between the two is a sorted insert that shifts one entry.
        assert_eq!(q.len(), 3);
        q.schedule(SimTime::from_ps(7), 7);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(6)));
        assert_eq!(
            q.stats(),
            QueueStats {
                schedules: 5,
                refills: 1,
                refill_events: 3,
                max_bucket: 3,
                current_inserts: 1,
                current_shifted: 1,
                overflow_pushes: 1,
            }
        );
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![6, 7, 9, 0]);
        assert_eq!(q.stats().refills, 2);
    }

    #[test]
    fn dense_bucket_is_not_quadratic() {
        // 50 000 events inside one bucket width, then drained, every tenth
        // pop scheduling one more 5 ps ahead (a sorted insert into the run).
        // The exact work counts pin the sort-once design: each entry is
        // examined by one refill and an insert shifts only the ~15 entries
        // due before it, where a min-scan per pop would examine n/2 = 25 000
        // entries per event.
        const N: u64 = 50_000;
        let width_ps = 1u64 << BUCKET_BITS;
        let mut q = EventQueue::new();
        for i in 0..N {
            q.schedule(SimTime::from_ps((i * 7919) % width_ps), i);
        }
        let (mut prev, mut popped) = (None, 0u64);
        while let Some(e) = q.pop() {
            assert!(prev < Some((e.time, e.seq)));
            prev = Some((e.time, e.seq));
            popped += 1;
            if popped.is_multiple_of(10) && e.time.as_ps() + 5 < width_ps {
                q.schedule(SimTime::from_ps(e.time.as_ps() + 5), popped);
            }
        }
        let s = q.stats();
        assert_eq!((s.refills, s.refill_events, s.max_bucket), (1, N, N));
        assert!(s.current_inserts > N / 10 && s.current_shifted > s.current_inserts);
        assert_eq!(popped, s.schedules);
        assert!(s.refill_events + s.current_shifted <= 4 * popped, "{s:?}");
    }

    #[test]
    fn calendar_interleaves_schedule_and_pop_across_horizon() {
        // Schedule-as-you-pop, the engine's actual usage pattern, with gaps
        // chosen to force base jumps and overflow migration.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        q.schedule(SimTime::ZERO, 0u64);
        let mut i = 0u64;
        while let Some(e) = q.pop() {
            expect.push(e.event);
            i += 1;
            if i < 200 {
                // Alternate short hops and horizon-crossing leaps.
                let gap = if i.is_multiple_of(3) {
                    1u64 << 31
                } else {
                    1000 * i
                };
                q.schedule(SimTime::from_ps(e.time.as_ps() + gap), i);
            }
        }
        assert_eq!(expect, (0..200).collect::<Vec<_>>());
    }

    /// A tie-heavy schedule delay from one raw draw: half the draws are 0 or
    /// 5 ns, so events share instants with events already queued (often in
    /// the bucket being drained, where the sorted insert must break the tie
    /// on `seq`); the rest are the draw itself.
    fn tie_heavy_delay(raw: u64) -> u64 {
        match raw % 4 {
            0 => 0,
            1 => 5_000,
            _ => raw,
        }
    }

    proptest! {
        /// Events always come out sorted by (time, insertion order).
        #[test]
        fn prop_total_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ps(t), i);
            }
            let mut prev: Option<(SimTime, u64)> = None;
            while let Some(e) = q.pop() {
                if let Some((pt, ps)) = prev {
                    prop_assert!(e.time > pt || (e.time == pt && e.seq > ps));
                }
                prev = Some((e.time, e.seq));
            }
        }

        /// The calendar's pop sequence is byte-identical to the binary
        /// heap's for random interleaved schedules, including spans
        /// that overflow the ring horizon.
        #[test]
        fn prop_calendar_matches_heap(
            ops in proptest::collection::vec((0u64..2_000_000_000_000, 0u32..4), 1..300)
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapModel::new();
            for (payload, &(raw, pops)) in ops.iter().enumerate() {
                // Schedule relative to `now` so both clocks stay in step.
                let dt = tie_heavy_delay(raw);
                let at = SimTime::from_ps(cal.now().as_ps().saturating_add(dt));
                cal.schedule(at, payload as u64);
                heap.schedule(at, payload as u64);
                for _ in 0..pops {
                    let a = cal_pop(&mut cal, SimTime::MAX);
                    prop_assert_eq!(a, heap.pop_if_at_or_before(SimTime::MAX));
                    prop_assert_eq!(cal.now(), heap.now);
                }
            }
            // Drain both to the end.
            loop {
                let a = cal_pop(&mut cal, SimTime::MAX);
                prop_assert_eq!(a, heap.pop_if_at_or_before(SimTime::MAX));
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(cal.len(), heap.heap.len());
        }

        /// The calendar's native bounded pop is byte-identical to the heap's
        /// peek-then-pop, including bounded probes that return `None` (which
        /// must not commit the calendar cursor: later schedules may still
        /// land before the probed event — the sharded-injection pattern).
        #[test]
        fn prop_bounded_pop_matches_heap(
            ops in proptest::collection::vec(
                (0u64..2_000_000_000_000, 0u64..600_000_000_000, 0u32..4),
                1..300,
            )
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapModel::new();
            for (payload, &(raw, bound_dt, pops)) in ops.iter().enumerate() {
                let dt = tie_heavy_delay(raw);
                let at = SimTime::from_ps(cal.now().as_ps().saturating_add(dt));
                cal.schedule(at, payload as u64);
                heap.schedule(at, payload as u64);
                let end = SimTime::from_ps(cal.now().as_ps().saturating_add(bound_dt));
                for _ in 0..pops {
                    prop_assert_eq!(cal_pop(&mut cal, end), heap.pop_if_at_or_before(end));
                    prop_assert_eq!(cal.now(), heap.now);
                }
            }
            loop {
                let a = cal_pop(&mut cal, SimTime::MAX);
                prop_assert_eq!(a, heap.pop_if_at_or_before(SimTime::MAX));
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Delays the engine actually schedules with: same instant, ACK
    /// serialisation, MTU serialisation at 100 G, propagation, host delay,
    /// pacing, the retransmit scan and a burst gap.
    const TRAFFIC_DELAYS_PS: [u64; 8] = [
        0,
        5_000,
        80_000,
        333_000,
        500_000,
        2_000_000,
        100_000_000,
        10_000_000_000,
    ];

    /// A calendar queue and the heap oracle driven in lock step.
    struct Pair {
        cal: EventQueue<u64>,
        heap: HeapModel,
        payload: u64,
    }

    impl Pair {
        fn schedule(&mut self, at: SimTime) {
            self.cal.schedule(at, self.payload);
            self.heap.schedule(at, self.payload);
            self.payload += 1;
        }

        /// Bounded pop on both; returns what the calendar answered.
        fn pop(&mut self, end: SimTime) -> Result<Option<SimTime>, TestCaseError> {
            let a = cal_pop(&mut self.cal, end);
            prop_assert_eq!(a, self.heap.pop_if_at_or_before(end));
            Ok(a.map(|e| e.0))
        }

        fn check(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.cal.now(), self.heap.now);
            prop_assert_eq!(self.cal.len(), self.heap.heap.len());
            Ok(())
        }
    }

    /// One op of the differential driver: `(kind, delay index, repeats)`.
    type TrafficOp = (u32, usize, u32);

    /// Drive the calendar and the oracle through `ops`, comparing `(time, seq, payload)`
    /// of every pop and `now()`, `len()` and `peek_time()` after every op.
    fn drive_traffic(ops: &[TrafficOp]) -> Result<QueueStats, TestCaseError> {
        let mut p = Pair {
            cal: EventQueue::new(),
            heap: HeapModel::new(),
            payload: 0,
        };
        let horizon_ps = (NUM_BUCKETS as u64) << BUCKET_BITS;
        for &(op, d, reps) in ops {
            let delay = TRAFFIC_DELAYS_PS[d];
            let now = p.cal.now().as_ps();
            match op {
                // `reps` events for one instant: ties within and across ops.
                0..=3 => {
                    for _ in 0..reps {
                        p.schedule(SimTime::from_ps(now + delay));
                    }
                }
                4..=6 => {
                    for _ in 0..reps {
                        p.pop(SimTime::MAX)?;
                        p.check()?;
                    }
                }
                // Drain up to a near bound. Once the probe answers `None`
                // nothing may have been committed, so an event earlier than
                // the probed one, and one exactly at the clock, still fit.
                7 => {
                    let end = SimTime::from_ps(now + delay.min(2_000_000));
                    while p.pop(end)?.is_some() {
                        p.check()?;
                    }
                    if let Some(next) = p.cal.peek_time() {
                        let now = p.cal.now().as_ps();
                        p.schedule(SimTime::from_ps(now + (next.as_ps() - now) / 2));
                        p.schedule(SimTime::from_ps(now));
                    }
                }
                8 => prop_assert_eq!(p.cal.peek_time(), p.heap.peek_time()),
                // Beyond the ring horizon: overflow, then migration.
                _ => p.schedule(SimTime::from_ps(now + horizon_ps * reps as u64 + delay)),
            }
            p.check()?;
            prop_assert_eq!(p.cal.peek_time(), p.heap.peek_time());
        }
        while p.pop(SimTime::MAX)?.is_some() {
            p.check()?;
        }
        prop_assert_eq!(p.cal.len(), 0);
        Ok(p.cal.stats())
    }

    #[test]
    fn traffic_ops_reach_every_calendar_path() {
        // The op vocabulary of the property below, on a fixed script: ties
        // in one bucket, a pop that sorts it, inserts into the draining run
        // (same instant and 5 ns ahead), a bounded probe answering `None`
        // with earlier injections, and a leap over the horizon.
        let ops = [
            (0, 0, 4),
            (1, 1, 4),
            (4, 0, 1),
            (2, 0, 2),
            (3, 1, 3),
            (7, 1, 1),
            (9, 2, 2),
            (8, 0, 1),
            (5, 0, 4),
        ];
        let s = drive_traffic(&ops).expect("calendar agrees with the heap");
        assert!(s.max_bucket >= 8, "{s:?}");
        assert!(s.current_inserts >= 5 && s.current_shifted > 0, "{s:?}");
        assert_eq!(s.overflow_pushes, 1, "{s:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// Differential test shaped like the engine's traffic: short delays
        /// with heavy same-instant ties, so buckets are populated *while they
        /// drain* (the sorted-insert path), bounded pops that answer `None`
        /// followed by schedules earlier than the probed event (the sharded
        /// window protocol), peeks, and leaps across the ring horizon.
        #[test]
        fn prop_engine_shaped_traffic_matches_heap(
            ops in proptest::collection::vec((0u32..10, 0usize..8, 1u32..5), 1..250)
        ) {
            drive_traffic(&ops)?;
        }
    }

    // --- simsan fixture tests -------------------------------------------
    // The corruption hook plants a clock ahead of queued events; popping
    // must panic in a debug build and stay silent in a release build,
    // proving the check (a) fires and (b) is compiled out of release.

    fn corrupted_clock_queue() -> EventQueue<u32> {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), 7);
        q.simsan_force_now(SimTime::from_us(5));
        q
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "simsan[event-queue]")]
    fn simsan_catches_non_monotonic_pop() {
        corrupted_clock_queue().pop();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn without_simsan_non_monotonic_pop_is_silent() {
        let ev = corrupted_clock_queue().pop();
        assert_eq!(ev.map(|e| e.event), Some(7));
    }
}
