//! Deficit weighted round robin (Shreedhar & Varghese).
//!
//! Each class holds a deficit counter; on its turn in the active-class round
//! robin the counter is credited `quantum * weight` bytes and the class
//! transmits head packets until the counter cannot cover the next packet.
//! DWRR is the other commodity realization of WFQ named by the paper
//! (footnote 1) and is provided so experiments can confirm Aequitas is
//! insensitive to which WFQ implementation the switch uses.

use crate::{BufferAccounting, Dequeued, Scheduler};
use std::collections::VecDeque;

struct Queued<T> {
    bytes: u32,
    item: T,
}

/// A DWRR scheduler. `quantum` is the base credit in bytes per round for a
/// weight-1.0 class.
///
/// Shreedhar & Varghese require `quantum >= max packet size` for O(1) work
/// per packet and for every backlogged class to transmit each round. A
/// smaller quantum still drains (credits accumulate across rotations) but a
/// weight-1.0 class then skips rounds, which inflates its latency tail
/// relative to a PGPS/virtual-time scheduler with the same weights. For
/// fabric ports carry full wire packets, so the quantum must include the
/// packet header bytes, not just the payload MTU.
pub struct DwrrScheduler<T> {
    weights: Vec<f64>,
    quantum: u32,
    queues: Vec<VecDeque<Queued<T>>>,
    class_bytes: Vec<u64>,
    deficit: Vec<f64>,
    /// Round-robin list of currently backlogged classes.
    active: VecDeque<usize>,
    in_active: Vec<bool>,
    buffer: BufferAccounting,
}

impl<T> DwrrScheduler<T> {
    /// Create a DWRR scheduler with one queue per weight entry.
    pub fn new(weights: &[f64], quantum: u32, capacity_bytes: Option<u64>) -> Self {
        assert!(!weights.is_empty() && quantum > 0);
        assert!(weights.iter().all(|&w| w > 0.0));
        DwrrScheduler {
            weights: weights.to_vec(),
            quantum,
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            class_bytes: vec![0; weights.len()],
            deficit: vec![0.0; weights.len()],
            active: VecDeque::new(),
            in_active: vec![false; weights.len()],
            buffer: BufferAccounting::new(capacity_bytes),
        }
    }

    /// Packets dropped at enqueue.
    pub fn drops(&self) -> u64 {
        self.buffer.drops()
    }
}

impl<T> Scheduler<T> for DwrrScheduler<T> {
    fn enqueue(&mut self, class: usize, bytes: u32, item: T) -> Result<(), T> {
        if class >= self.queues.len() {
            self.buffer.count_drop();
            return Err(item);
        }
        if !self.buffer.admit(bytes) {
            return Err(item);
        }
        self.queues[class].push_back(Queued { bytes, item });
        self.class_bytes[class] += bytes as u64;
        if !self.in_active[class] {
            self.in_active[class] = true;
            self.active.push_back(class);
        }
        Ok(())
    }

    fn dequeue(&mut self) -> Option<Dequeued<T>> {
        // Walk the active list; per DWRR a class with insufficient deficit is
        // credited and rotated to the back. A packet is guaranteed to be
        // found within a bounded number of rotations because credits grow.
        loop {
            let class = *self.active.front()?;
            let head_bytes = match self.queues[class].front() {
                Some(h) => h.bytes,
                None => {
                    // Became empty (shouldn't normally happen because we
                    // deactivate eagerly, but be defensive).
                    self.active.pop_front();
                    self.in_active[class] = false;
                    self.deficit[class] = 0.0;
                    continue;
                }
            };
            if self.deficit[class] >= head_bytes as f64 {
                let pkt = self.queues[class].pop_front().expect("head exists");
                self.deficit[class] -= pkt.bytes as f64;
                self.class_bytes[class] -= pkt.bytes as u64;
                self.buffer.release(pkt.bytes);
                if self.queues[class].is_empty() {
                    self.active.pop_front();
                    self.in_active[class] = false;
                    self.deficit[class] = 0.0;
                }
                return Some(Dequeued {
                    class,
                    bytes: pkt.bytes,
                    item: pkt.item,
                });
            }
            // Not enough credit: add a quantum and move to the back.
            self.deficit[class] += self.quantum as f64 * self.weights[class];
            self.active.rotate_left(1);
        }
    }

    fn backlog_bytes(&self) -> u64 {
        self.buffer.bytes()
    }

    fn backlog_packets(&self) -> usize {
        self.buffer.packets()
    }

    fn class_backlog_bytes(&self, class: usize) -> u64 {
        self.class_bytes.get(class).copied().unwrap_or(0)
    }

    fn class_backlog_packets(&self, class: usize) -> usize {
        self.queues.get(class).map_or(0, |q| q.len())
    }

    fn num_classes(&self) -> usize {
        self.queues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_class_is_fifo() {
        let mut s = DwrrScheduler::new(&[1.0], 1500, None);
        for i in 0..10u32 {
            s.enqueue(0, 700, i).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue().map(|d| d.item)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bandwidth_shares_follow_weights() {
        let mut s = DwrrScheduler::new(&[8.0, 4.0, 1.0], 4096, None);
        for i in 0..3000u32 {
            for c in 0..3 {
                s.enqueue(c, 1000, i).unwrap();
            }
        }
        let mut served = [0u64; 3];
        // Serve a prefix while all classes stay backlogged.
        for _ in 0..3000 {
            let d = s.dequeue().unwrap();
            served[d.class] += d.bytes as u64;
        }
        let total: u64 = served.iter().sum();
        let s0 = served[0] as f64 / total as f64;
        let s1 = served[1] as f64 / total as f64;
        let s2 = served[2] as f64 / total as f64;
        assert!((s0 - 8.0 / 13.0).abs() < 0.03, "share0 {s0}");
        assert!((s1 - 4.0 / 13.0).abs() < 0.03, "share1 {s1}");
        assert!((s2 - 1.0 / 13.0).abs() < 0.03, "share2 {s2}");
    }

    #[test]
    fn work_conserving() {
        let mut s = DwrrScheduler::new(&[4.0, 1.0], 1500, None);
        for i in 0..20u32 {
            s.enqueue(1, 999, i).unwrap();
        }
        let count = std::iter::from_fn(|| s.dequeue()).count();
        assert_eq!(count, 20);
    }

    #[test]
    fn big_packets_still_served() {
        // A packet far larger than one quantum must still be transmitted
        // after enough rounds of credit.
        let mut s = DwrrScheduler::new(&[1.0, 1.0], 100, None);
        s.enqueue(0, 10_000, "big").unwrap();
        s.enqueue(1, 50, "small").unwrap();
        let mut got = Vec::new();
        while let Some(d) = s.dequeue() {
            got.push(d.item);
        }
        assert!(got.contains(&"big") && got.contains(&"small"));
    }

    #[test]
    fn capacity_enforced() {
        let mut s = DwrrScheduler::new(&[1.0], 1500, Some(1000));
        assert!(s.enqueue(0, 800, 1).is_ok());
        assert!(s.enqueue(0, 300, 2).is_err());
        assert_eq!(s.drops(), 1);
    }

    #[test]
    fn deactivation_resets_deficit() {
        let mut s = DwrrScheduler::new(&[1.0, 1.0], 1000, None);
        s.enqueue(0, 500, ()).unwrap();
        s.dequeue().unwrap();
        assert!(s.is_empty());
        // Re-enqueue; deficit must not have been carried over in a way that
        // starves class 1.
        s.enqueue(0, 500, ()).unwrap();
        s.enqueue(1, 500, ()).unwrap();
        let a = s.dequeue().unwrap();
        let b = s.dequeue().unwrap();
        assert_ne!(a.class, b.class);
    }

    proptest! {
        /// Conservation under random interleavings of enqueue/dequeue.
        #[test]
        fn prop_conservation(
            ops in proptest::collection::vec((0usize..3, 64u32..3000, proptest::bool::ANY), 1..400)
        ) {
            let mut s = DwrrScheduler::new(&[8.0, 4.0, 1.0], 1500, None);
            let mut in_flight = 0i64;
            let mut next_id = 0usize;
            let mut seen = std::collections::HashSet::new();
            for &(class, bytes, deq) in &ops {
                if deq {
                    if let Some(d) = s.dequeue() {
                        prop_assert!(seen.insert(d.item));
                        in_flight -= 1;
                    }
                } else {
                    s.enqueue(class, bytes, next_id).unwrap();
                    next_id += 1;
                    in_flight += 1;
                }
                prop_assert_eq!(s.backlog_packets() as i64, in_flight);
            }
            while let Some(d) = s.dequeue() {
                prop_assert!(seen.insert(d.item));
            }
            prop_assert_eq!(seen.len(), next_id);
        }
    }
}
