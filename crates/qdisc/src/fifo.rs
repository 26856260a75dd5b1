//! Class-blind FIFO queue.

use crate::{BufferAccounting, Dequeued, Scheduler};
use std::collections::VecDeque;

struct Queued<T> {
    class: usize,
    bytes: u32,
    item: T,
}

/// A single first-in-first-out queue that ignores class on scheduling but
/// remembers it for accounting. Used for host NIC egress in baseline runs
/// and as the no-QoS reference discipline.
pub struct FifoScheduler<T> {
    queue: VecDeque<Queued<T>>,
    classes: usize,
    class_bytes: Vec<u64>,
    class_packets: Vec<usize>,
    buffer: BufferAccounting,
}

impl<T> FifoScheduler<T> {
    /// Create a FIFO accepting classes `0..classes`.
    pub fn new(classes: usize, capacity_bytes: Option<u64>) -> Self {
        assert!(classes > 0);
        FifoScheduler {
            queue: VecDeque::new(),
            classes,
            class_bytes: vec![0; classes],
            class_packets: vec![0; classes],
            buffer: BufferAccounting::new(capacity_bytes),
        }
    }

    /// Packets dropped at enqueue.
    pub fn drops(&self) -> u64 {
        self.buffer.drops()
    }
}

impl<T> Scheduler<T> for FifoScheduler<T> {
    fn enqueue(&mut self, class: usize, bytes: u32, item: T) -> Result<(), T> {
        if class >= self.classes {
            self.buffer.count_drop();
            return Err(item);
        }
        if !self.buffer.admit(bytes) {
            return Err(item);
        }
        self.class_bytes[class] += bytes as u64;
        self.class_packets[class] += 1;
        self.queue.push_back(Queued { class, bytes, item });
        Ok(())
    }

    fn dequeue(&mut self) -> Option<Dequeued<T>> {
        let pkt = self.queue.pop_front()?;
        self.class_bytes[pkt.class] -= pkt.bytes as u64;
        self.class_packets[pkt.class] -= 1;
        self.buffer.release(pkt.bytes);
        Some(Dequeued {
            class: pkt.class,
            bytes: pkt.bytes,
            item: pkt.item,
        })
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
        self.class_packets.get(class).copied().unwrap_or(0)
    }

    fn num_classes(&self) -> usize {
        self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_arrival_order() {
        let mut s = FifoScheduler::new(3, None);
        s.enqueue(2, 10, "a").unwrap();
        s.enqueue(0, 10, "b").unwrap();
        s.enqueue(1, 10, "c").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| s.dequeue().map(|d| d.item)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn per_class_accounting() {
        let mut s = FifoScheduler::new(2, None);
        s.enqueue(0, 10, ()).unwrap();
        s.enqueue(1, 20, ()).unwrap();
        assert_eq!(s.class_backlog_bytes(0), 10);
        assert_eq!(s.class_backlog_bytes(1), 20);
        let d = s.dequeue().unwrap();
        assert_eq!(d.class, 0);
        assert_eq!(s.class_backlog_bytes(0), 0);
    }

    #[test]
    fn capacity_enforced() {
        let mut s = FifoScheduler::new(1, Some(15));
        assert!(s.enqueue(0, 10, ()).is_ok());
        assert!(s.enqueue(0, 10, ()).is_err());
        assert_eq!(s.drops(), 1);
    }
}
