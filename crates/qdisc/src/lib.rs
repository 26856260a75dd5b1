#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Packet scheduling disciplines for switch egress ports.
//!
//! Aequitas's central observation is that commodity **weighted fair queuing**
//! (WFQ) gives each QoS class both a minimum bandwidth share and a delay
//! bound that depends on the class's utilization — and that an admission
//! controller can exploit those bounds. This crate provides the scheduling
//! building blocks used by the network simulator:
//!
//! * [`WfqScheduler`] — self-clocked virtual-time fair queuing (SCFQ, the
//!   practical PGPS approximation of Golestani); the paper's "Virtual-Time"
//!   WFQ implementation.
//! * [`DwrrScheduler`] — deficit weighted round robin; the paper's other
//!   commodity WFQ realization.
//! * [`SpqScheduler`] — strict priority queuing, used by the §6.7 comparison
//!   and by the QJump/pFabric/Homa baselines.
//! * [`FifoScheduler`] — a single class-blind queue.
//! * [`PifoQueue`] — a push-in-first-out priority queue (dequeue smallest
//!   rank, drop largest rank when full), the primitive behind pFabric.
//!
//! All schedulers are generic over the queued item type `T` and account
//! buffer occupancy in bytes; enqueue fails (returning the item) when the
//! configured capacity would be exceeded, which models tail-drop at a
//! shared-buffer egress port.
//!
//! # Example
//!
//! ```
//! use aequitas_qdisc::{Scheduler, WfqScheduler};
//!
//! // Two classes at 4:1; both continuously backlogged.
//! let mut wfq = WfqScheduler::new(&[4.0, 1.0], None);
//! for i in 0..100u32 {
//!     wfq.enqueue(0, 1000, i).unwrap();
//!     wfq.enqueue(1, 1000, i).unwrap();
//! }
//! let mut served = [0u64; 2];
//! for _ in 0..50 {
//!     let d = wfq.dequeue().unwrap();
//!     served[d.class] += d.bytes as u64;
//! }
//! // Class 0 receives ~4x the service while both are backlogged.
//! assert!(served[0] > served[1] * 3);
//! ```

pub mod dwrr;
pub mod fifo;
pub mod pifo;
pub mod spq;
pub mod wfq;

pub use dwrr::DwrrScheduler;
pub use fifo::FifoScheduler;
pub use pifo::{PifoPush, PifoQueue};
pub use spq::SpqScheduler;
pub use wfq::WfqScheduler;

/// A packet handed back by [`Scheduler::dequeue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dequeued<T> {
    /// Class the packet was enqueued under.
    pub class: usize,
    /// Packet length in bytes (for serialization timing).
    pub bytes: u32,
    /// The caller's payload.
    pub item: T,
}

/// Common interface of all class-based packet schedulers.
pub trait Scheduler<T> {
    /// Enqueue `item` of length `bytes` under `class`.
    ///
    /// Returns `Err(item)` when the packet must be dropped (buffer full or
    /// invalid class), handing the payload back so the caller can account the
    /// loss.
    fn enqueue(&mut self, class: usize, bytes: u32, item: T) -> Result<(), T>;

    /// Remove and return the next packet to transmit, or `None` if idle.
    fn dequeue(&mut self) -> Option<Dequeued<T>>;

    /// Total queued bytes across all classes.
    fn backlog_bytes(&self) -> u64;

    /// Total queued packets across all classes.
    fn backlog_packets(&self) -> usize;

    /// Queued bytes in one class (0 for out-of-range classes).
    fn class_backlog_bytes(&self, class: usize) -> u64;

    /// Queued packets in one class (0 for out-of-range classes).
    fn class_backlog_packets(&self, class: usize) -> usize;

    /// Number of classes this scheduler serves.
    fn num_classes(&self) -> usize;

    /// Whether nothing is queued.
    fn is_empty(&self) -> bool {
        self.backlog_packets() == 0
    }
}

/// Byte-capacity bookkeeping shared by the schedulers.
///
/// Models a tail-drop buffer: an arriving packet that would push occupancy
/// past `capacity` is rejected.
#[derive(Debug, Clone)]
pub(crate) struct BufferAccounting {
    capacity: Option<u64>,
    bytes: u64,
    packets: usize,
    drops: u64,
}

impl BufferAccounting {
    pub(crate) fn new(capacity: Option<u64>) -> Self {
        BufferAccounting {
            capacity,
            bytes: 0,
            packets: 0,
            drops: 0,
        }
    }

    /// Try to admit a packet of `bytes`; returns false (and counts a drop)
    /// when capacity would be exceeded.
    pub(crate) fn admit(&mut self, bytes: u32) -> bool {
        if let Some(cap) = self.capacity {
            if self.bytes + bytes as u64 > cap {
                self.drops += 1;
                return false;
            }
        }
        self.bytes += bytes as u64;
        self.packets += 1;
        true
    }

    pub(crate) fn release(&mut self, bytes: u32) {
        debug_assert!(self.bytes >= bytes as u64 && self.packets > 0);
        self.bytes -= bytes as u64;
        self.packets -= 1;
    }

    pub(crate) fn count_drop(&mut self) {
        self.drops += 1;
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
    pub(crate) fn packets(&self) -> usize {
        self.packets
    }
    pub(crate) fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod accounting_tests {
    use super::*;

    #[test]
    fn admits_until_capacity() {
        let mut b = BufferAccounting::new(Some(100));
        assert!(b.admit(60));
        assert!(!b.admit(50)); // 60 + 50 > 100
        assert!(b.admit(40));
        assert_eq!(b.bytes(), 100);
        assert_eq!(b.packets(), 2);
        assert_eq!(b.drops(), 1);
    }

    #[test]
    fn unbounded_always_admits() {
        let mut b = BufferAccounting::new(None);
        for _ in 0..1000 {
            assert!(b.admit(u32::MAX / 2));
        }
    }

    #[test]
    fn release_returns_space() {
        let mut b = BufferAccounting::new(Some(100));
        assert!(b.admit(100));
        assert!(!b.admit(1));
        b.release(100);
        assert!(b.admit(1));
    }
}
