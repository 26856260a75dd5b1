//! Strict priority queuing.
//!
//! Class 0 is the highest priority; a packet of class `k` is transmitted
//! only when every class below `k` is empty. The paper evaluates SPQ as the
//! straw-man alternative to WFQ (§6.7): it starves lower classes under
//! high-priority surges and cannot resolve the race-to-the-top incentive.

use crate::{BufferAccounting, Dequeued, Scheduler};
use std::collections::VecDeque;

struct Queued<T> {
    bytes: u32,
    item: T,
}

/// A strict-priority scheduler with `n` classes (0 = highest).
pub struct SpqScheduler<T> {
    queues: Vec<VecDeque<Queued<T>>>,
    class_bytes: Vec<u64>,
    buffer: BufferAccounting,
}

impl<T> SpqScheduler<T> {
    /// Create an SPQ scheduler with `classes` priority levels.
    pub fn new(classes: usize, capacity_bytes: Option<u64>) -> Self {
        assert!(classes > 0);
        SpqScheduler {
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            class_bytes: vec![0; classes],
            buffer: BufferAccounting::new(capacity_bytes),
        }
    }

    /// Packets dropped at enqueue.
    pub fn drops(&self) -> u64 {
        self.buffer.drops()
    }
}

impl<T> Scheduler<T> for SpqScheduler<T> {
    fn enqueue(&mut self, class: usize, bytes: u32, item: T) -> Result<(), T> {
        if class >= self.queues.len() {
            self.buffer.count_drop();
            return Err(item);
        }
        if !self.buffer.admit(bytes) {
            return Err(item);
        }
        self.class_bytes[class] += bytes as u64;
        self.queues[class].push_back(Queued { bytes, item });
        Ok(())
    }

    fn dequeue(&mut self) -> Option<Dequeued<T>> {
        for class in 0..self.queues.len() {
            if let Some(pkt) = self.queues[class].pop_front() {
                self.class_bytes[class] -= pkt.bytes as u64;
                self.buffer.release(pkt.bytes);
                return Some(Dequeued {
                    class,
                    bytes: pkt.bytes,
                    item: pkt.item,
                });
            }
        }
        None
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

    #[test]
    fn higher_priority_always_first() {
        let mut s = SpqScheduler::new(3, None);
        s.enqueue(2, 100, "low").unwrap();
        s.enqueue(1, 100, "mid").unwrap();
        s.enqueue(0, 100, "high").unwrap();
        assert_eq!(s.dequeue().unwrap().item, "high");
        assert_eq!(s.dequeue().unwrap().item, "mid");
        assert_eq!(s.dequeue().unwrap().item, "low");
    }

    #[test]
    fn starvation_under_high_priority_load() {
        // The SPQ failure mode the paper highlights: continuous class-0
        // traffic starves class 1 completely.
        let mut s = SpqScheduler::new(2, None);
        s.enqueue(1, 100, "starved").unwrap();
        for i in 0..100u32 {
            s.enqueue(0, 100, "hi").unwrap();
            let d = s.dequeue().unwrap();
            assert_eq!(d.class, 0, "iteration {i}");
        }
        assert_eq!(s.class_backlog_packets(1), 1);
    }

    #[test]
    fn fifo_within_class() {
        let mut s = SpqScheduler::new(2, None);
        for i in 0..5u32 {
            s.enqueue(1, 10, i).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue().map(|d| d.item)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capacity_shared_across_classes() {
        let mut s = SpqScheduler::new(2, Some(150));
        assert!(s.enqueue(0, 100, ()).is_ok());
        assert!(s.enqueue(1, 100, ()).is_err());
        assert!(s.enqueue(1, 50, ()).is_ok());
        assert_eq!(s.drops(), 1);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut s: SpqScheduler<()> = SpqScheduler::new(4, None);
        assert!(s.dequeue().is_none());
        assert!(s.is_empty());
    }
}
