//! Push-in-first-out priority queue with drop-from-tail-of-priority.
//!
//! The primitive behind pFabric's switch: dequeue always takes the packet
//! with the *smallest* rank (e.g. remaining flow size); when the buffer is
//! full, the packet with the *largest* rank is evicted to make room — so
//! short flows can never be blocked behind long ones. Ties break in arrival
//! order, keeping the simulation deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    rank: u64,
    seq: u64,
    bytes: u32,
    item: T,
}

// Min-heap ordering by (rank, seq).
struct MinEntry<T>(Entry<T>);
impl<T> PartialEq for MinEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.rank == other.0.rank && self.0.seq == other.0.seq
    }
}
impl<T> Eq for MinEntry<T> {}
impl<T> PartialOrd for MinEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MinEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .rank
            .cmp(&self.0.rank)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

// Max-heap ordering by (rank, seq): among equal ranks evict the *newest*.
struct MaxKey {
    rank: u64,
    seq: u64,
}
impl PartialEq for MaxKey {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl Eq for MaxKey {}
impl PartialOrd for MaxKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MaxKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank
            .cmp(&other.rank)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// What happened when a packet was pushed into a full [`PifoQueue`].
#[derive(Debug)]
pub enum PifoPush<T> {
    /// The packet was admitted without evicting anything.
    Admitted,
    /// The packet was admitted; the returned (rank, bytes, item) was evicted.
    Evicted(u64, u32, T),
    /// The packet was rejected because its rank is no better than the worst
    /// resident packet (or it alone exceeds capacity).
    Rejected(T),
}

/// A priority queue that dequeues the smallest rank and evicts the largest
/// rank on overflow.
///
/// Implemented with twin heaps plus a lazy-deletion tombstone set keyed by
/// `seq`; both push and pop are `O(log n)` amortized.
pub struct PifoQueue<T> {
    min_heap: BinaryHeap<MinEntry<T>>,
    max_heap: BinaryHeap<MaxKey>,
    dead: std::collections::HashSet<u64>,
    next_seq: u64,
    bytes: u64,
    packets: usize,
    capacity_bytes: Option<u64>,
    drops: u64,
}

impl<T> PifoQueue<T> {
    /// Create a PIFO with an optional byte capacity.
    pub fn new(capacity_bytes: Option<u64>) -> Self {
        PifoQueue {
            min_heap: BinaryHeap::new(),
            max_heap: BinaryHeap::new(),
            // det: lazy-deletion tombstones; membership tests only, never iterated
            dead: std::collections::HashSet::new(),
            next_seq: 0,
            bytes: 0,
            packets: 0,
            capacity_bytes,
            drops: 0,
        }
    }

    /// Queued bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.bytes
    }
    /// Queued packets.
    pub fn backlog_packets(&self) -> usize {
        self.packets
    }
    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.packets == 0
    }
    /// Packets dropped (rejected or evicted).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    fn worst_resident_rank(&mut self) -> Option<u64> {
        while let Some(top) = self.max_heap.peek() {
            if self.dead.contains(&top.seq) {
                let seq = top.seq;
                self.max_heap.pop();
                self.dead.remove(&seq);
                // An entry appears in `dead` twice (once per heap); re-insert
                // the tombstone for the twin if still pending.
                // (Handled by tracking per-heap tombstones below.)
            } else {
                return Some(top.rank);
            }
        }
        None
    }

    /// Push a packet of `bytes` with priority `rank` (lower = better). When
    /// room takes more than one eviction, `Evicted` names the last victim;
    /// [`PifoQueue::push_evicting`] reports each.
    pub fn push(&mut self, rank: u64, bytes: u32, item: T) -> PifoPush<T> {
        let mut last = None;
        match self.push_evicting(rank, bytes, item, |r, b, it| last = Some((r, b, it))) {
            Err(item) => PifoPush::Rejected(item),
            Ok(()) => match last {
                Some((r, b, it)) => PifoPush::Evicted(r, b, it),
                None => PifoPush::Admitted,
            },
        }
    }

    /// Push like [`PifoQueue::push`], handing every evicted resident to
    /// `evicted` as `(rank, bytes, item)`, worst first. A rejected newcomer
    /// comes back as `Err`; residents evicted before the rejection stay
    /// evicted, and are reported too.
    pub fn push_evicting(
        &mut self,
        rank: u64,
        bytes: u32,
        item: T,
        mut evicted: impl FnMut(u64, u32, T),
    ) -> Result<(), T> {
        if let Some(cap) = self.capacity_bytes {
            if (bytes as u64) > cap {
                self.drops += 1;
                return Err(item);
            }
            while self.bytes + bytes as u64 > cap {
                // Evict worst-ranked resident packets. Reject the newcomer if
                // it is itself the worst.
                match self.worst_resident_rank() {
                    Some(worst) if worst > rank => {
                        let (r, b, it) = self.evict_worst().expect("resident packet exists");
                        self.drops += 1;
                        evicted(r, b, it);
                    }
                    _ => {
                        self.drops += 1;
                        return Err(item);
                    }
                }
            }
        }
        self.insert(rank, bytes, item);
        Ok(())
    }

    fn insert(&mut self, rank: u64, bytes: u32, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.min_heap.push(MinEntry(Entry {
            rank,
            seq,
            bytes,
            item,
        }));
        self.max_heap.push(MaxKey { rank, seq });
        self.bytes += bytes as u64;
        self.packets += 1;
    }

    fn evict_worst(&mut self) -> Option<(u64, u32, T)> {
        // Pop live max entry, tombstone it for the min heap.
        loop {
            let top = self.max_heap.pop()?;
            if self.dead.remove(&top.seq) {
                continue; // was already dequeued via min side
            }
            self.dead.insert(top.seq);
            self.packets -= 1;
            // We must find its bytes/item lazily when the min heap reaches
            // it; but we need them *now* to return the victim. Scan-free
            // approach: rebuild min heap lazily is not enough. Instead, drain
            // min heap until we find the seq — expensive. Better: store items
            // in a slab.
            // (Implementation below replaces this path; see `PifoQueue::pop`.)
            return self.extract_from_min(top.seq);
        }
    }

    fn extract_from_min(&mut self, seq: u64) -> Option<(u64, u32, T)> {
        // Linear extraction is acceptable: evictions happen only under
        // overflow, and buffers in pFabric runs are tiny (tens of packets).
        let mut stash = Vec::new();
        let mut found = None;
        while let Some(MinEntry(e)) = self.min_heap.pop() {
            if e.seq == seq {
                self.bytes -= e.bytes as u64;
                self.dead.remove(&seq);
                found = Some((e.rank, e.bytes, e.item));
                break;
            }
            stash.push(MinEntry(e));
        }
        for e in stash {
            self.min_heap.push(e);
        }
        found
    }

    /// Remove and return the best-ranked packet as `(rank, bytes, item)`.
    pub fn pop(&mut self) -> Option<(u64, u32, T)> {
        loop {
            let MinEntry(e) = self.min_heap.pop()?;
            if self.dead.remove(&e.seq) {
                continue; // evicted earlier
            }
            self.dead.insert(e.seq); // tombstone for the max heap
            self.bytes -= e.bytes as u64;
            self.packets -= 1;
            return Some((e.rank, e.bytes, e.item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_lowest_rank_first() {
        let mut q = PifoQueue::new(None);
        q.push(30, 10, "c");
        q.push(10, 10, "a");
        q.push(20, 10, "b");
        assert_eq!(q.pop().unwrap().2, "a");
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.pop().unwrap().2, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_ranks_fifo() {
        let mut q = PifoQueue::new(None);
        for i in 0..10u32 {
            q.push(5, 10, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, i)| i)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_evicts_worst() {
        let mut q = PifoQueue::new(Some(30));
        q.push(1, 10, "best");
        q.push(9, 10, "worst");
        q.push(5, 10, "mid");
        // Full. A better packet evicts "worst".
        match q.push(2, 10, "better") {
            PifoPush::Evicted(rank, _, item) => {
                assert_eq!(rank, 9);
                assert_eq!(item, "worst");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.backlog_packets(), 3);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, i)| i)).collect();
        assert_eq!(order, vec!["best", "better", "mid"]);
    }

    #[test]
    fn push_evicting_reports_every_victim_worst_first() {
        let mut q = PifoQueue::new(Some(30));
        q.push(1, 10, "best");
        q.push(8, 10, "bad");
        q.push(9, 10, "worst");
        let mut victims = Vec::new();
        let pushed = q.push_evicting(2, 20, "big", |r, b, it| victims.push((r, b, it)));
        assert!(pushed.is_ok());
        assert_eq!(victims, [(9, 10, "worst"), (8, 10, "bad")]);
        assert_eq!(q.drops(), 2);
        assert_eq!(q.backlog_bytes(), 30);
    }

    #[test]
    fn overflow_rejects_worst_newcomer() {
        let mut q = PifoQueue::new(Some(20));
        q.push(1, 10, "a");
        q.push(2, 10, "b");
        match q.push(3, 10, "c") {
            PifoPush::Rejected(item) => assert_eq!(item, "c"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(q.drops(), 1);
        assert_eq!(q.backlog_packets(), 2);
    }

    #[test]
    fn giant_packet_rejected_outright() {
        let mut q = PifoQueue::new(Some(10));
        match q.push(0, 100, "giant") {
            PifoPush::Rejected(_) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn byte_accounting_consistent() {
        let mut q = PifoQueue::new(Some(100));
        q.push(1, 40, ());
        q.push(2, 40, ());
        assert_eq!(q.backlog_bytes(), 80);
        q.pop();
        assert_eq!(q.backlog_bytes(), 40);
        q.push(0, 60, ());
        assert_eq!(q.backlog_bytes(), 100);
    }

    proptest! {
        /// Without capacity limits, PIFO pops form a sorted-by-(rank, seq)
        /// permutation of the pushes.
        #[test]
        fn prop_sorted_permutation(ranks in proptest::collection::vec(0u64..100, 1..200)) {
            let mut q = PifoQueue::new(None);
            for (i, &r) in ranks.iter().enumerate() {
                q.push(r, 10, i);
            }
            let mut out = Vec::new();
            while let Some((r, _, i)) = q.pop() {
                out.push((r, i));
            }
            prop_assert_eq!(out.len(), ranks.len());
            for w in out.windows(2) {
                prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
            }
        }

        /// With a capacity, occupancy never exceeds it and accounting stays
        /// consistent across interleaved push/pop.
        #[test]
        fn prop_capacity_respected(
            ops in proptest::collection::vec((0u64..50, 1u32..20, proptest::bool::ANY), 1..300)
        ) {
            let cap = 100u64;
            let mut q = PifoQueue::new(Some(cap));
            for &(rank, bytes, do_pop) in &ops {
                if do_pop {
                    q.pop();
                } else {
                    q.push(rank, bytes, ());
                }
                prop_assert!(q.backlog_bytes() <= cap);
            }
            let mut drained_bytes = 0u64;
            let mut drained_packets = 0usize;
            let resident_packets = q.backlog_packets();
            let resident_bytes = q.backlog_bytes();
            while let Some((_, b, _)) = q.pop() {
                drained_packets += 1;
                drained_bytes += b as u64;
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(drained_packets, resident_packets);
            prop_assert_eq!(drained_bytes, resident_bytes);
        }
    }
}
