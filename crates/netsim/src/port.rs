//! Egress ports: a scheduler plus a transmitter.
//!
//! A port never holds a packet, only its handle into the engine's packet
//! slab: the schedulers queue [`SlotId`]s and the in-flight slot is one.

use aequitas_qdisc::{
    Dequeued, DwrrScheduler, FifoScheduler, PifoQueue, Scheduler, SpqScheduler, WfqScheduler,
};
use aequitas_sim_core::SlotId;

/// Which scheduling discipline an egress port runs.
#[derive(Debug, Clone)]
pub enum SchedulerKind {
    /// Virtual-time WFQ with the given class weights.
    Wfq(Vec<f64>),
    /// Deficit weighted round robin with the given weights and quantum.
    Dwrr {
        /// Class weights.
        weights: Vec<f64>,
        /// Base quantum in bytes for a weight-1.0 class. Must cover a full
        /// wire packet (payload MTU + [`crate::packet::HEADER_BYTES`]) or
        /// low-weight classes skip service rounds (see
        /// `aequitas_qdisc::DwrrScheduler`).
        quantum: u32,
    },
    /// Strict priority with `n` classes (0 = highest).
    Spq(usize),
    /// Single FIFO accepting `n` classes.
    Fifo(usize),
    /// PIFO ranked queue (pFabric-style): dequeue lowest `Packet::rank`,
    /// evict highest rank on overflow.
    Pifo,
}

/// Counters exported by every port.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Packets transmitted per class.
    pub tx_packets: Vec<u64>,
    /// Bytes transmitted per class.
    pub tx_bytes: Vec<u64>,
    /// Packets dropped at enqueue per class.
    pub drops: Vec<u64>,
    /// High-water mark of queued packets per class.
    pub max_class_depth_pkts: Vec<u64>,
    /// High-water mark of total queued bytes at the port.
    pub max_backlog_bytes: u64,
    /// Packets destroyed in transit by fault injection (clean loss).
    pub fault_drops: u64,
    /// Packets destroyed in transit by fault injection (corruption).
    pub fault_corrupts: u64,
}

impl PortStats {
    fn new(classes: usize) -> Self {
        PortStats {
            tx_packets: vec![0; classes],
            tx_bytes: vec![0; classes],
            drops: vec![0; classes],
            max_class_depth_pkts: vec![0; classes],
            max_backlog_bytes: 0,
            fault_drops: 0,
            fault_corrupts: 0,
        }
    }

    /// Total transmitted bytes across classes.
    pub fn total_tx_bytes(&self) -> u64 {
        self.tx_bytes.iter().sum()
    }

    /// Total drops across classes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }
}

enum Sched {
    Wfq(WfqScheduler<SlotId>),
    Dwrr(DwrrScheduler<SlotId>),
    Spq(SpqScheduler<SlotId>),
    Fifo(FifoScheduler<SlotId>),
    /// PIFO items carry their stats class: the queue itself has none, and an
    /// evicted victim's drop is counted under it.
    Pifo(PifoQueue<(SlotId, usize)>),
}

/// Conservation ledger (`--features simsan` only): every packet/byte the
/// scheduler accepted must either still be queued, have been dequeued for
/// transmission, or have been evicted by a PIFO push.
#[cfg(feature = "simsan")]
#[derive(Default)]
struct PortSan {
    in_pkts: u64,
    in_bytes: u64,
    out_pkts: u64,
    out_bytes: u64,
    evicted_pkts: u64,
    evicted_bytes: u64,
}

/// An egress port: scheduler, byte counters, and the in-flight transmission.
pub(crate) struct Port {
    sched: Sched,
    /// Packet currently being serialized onto the wire, if any.
    pub(crate) in_flight: Option<SlotId>,
    /// True while a `LinkUp` wake event is pending for this port, so a link
    /// down window defers transmission with exactly one scheduled wake.
    pub(crate) fault_wake_armed: bool,
    pub(crate) stats: PortStats,
    #[cfg(feature = "simsan")]
    san: PortSan,
}

impl Port {
    pub(crate) fn new(kind: &SchedulerKind, capacity_bytes: Option<u64>, classes: usize) -> Self {
        let sched = match kind {
            SchedulerKind::Wfq(weights) => {
                assert_eq!(weights.len(), classes);
                Sched::Wfq(WfqScheduler::new(weights, capacity_bytes))
            }
            SchedulerKind::Dwrr { weights, quantum } => {
                assert_eq!(weights.len(), classes);
                Sched::Dwrr(DwrrScheduler::new(weights, *quantum, capacity_bytes))
            }
            SchedulerKind::Spq(n) => {
                assert_eq!(*n, classes);
                Sched::Spq(SpqScheduler::new(*n, capacity_bytes))
            }
            SchedulerKind::Fifo(n) => {
                assert_eq!(*n, classes);
                Sched::Fifo(FifoScheduler::new(*n, capacity_bytes))
            }
            SchedulerKind::Pifo => Sched::Pifo(PifoQueue::new(capacity_bytes)),
        };
        Port {
            sched,
            in_flight: None,
            fault_wake_armed: false,
            stats: PortStats::new(classes),
            #[cfg(feature = "simsan")]
            san: PortSan::default(),
        }
    }

    /// Corruption hook for the simsan fixture tests: record an arrival on
    /// the ledger without giving the scheduler a packet.
    #[cfg(any(test, feature = "simsan"))]
    #[doc(hidden)]
    #[allow(
        dead_code,
        reason = "only fixture tests call it; unused in a plain `--features simsan` library build"
    )]
    pub(crate) fn simsan_phantom_arrival(&mut self, bytes: u64) {
        #[cfg(feature = "simsan")]
        {
            self.san.in_pkts += 1;
            self.san.in_bytes += bytes;
        }
        #[cfg(not(feature = "simsan"))]
        let _ = bytes;
    }

    /// Assert packet and byte conservation against the scheduler's actual
    /// backlog. Called after every enqueue and dequeue.
    #[cfg(feature = "simsan")]
    fn san_check_conservation(&self) {
        let queued_pkts: u64 = (0..self.stats.tx_packets.len())
            .map(|c| self.class_backlog_packets(c) as u64)
            .sum();
        let s = &self.san;
        assert!(
            s.in_pkts == s.out_pkts + s.evicted_pkts + queued_pkts,
            "simsan[port]: packet conservation violated: {} accepted != {} dequeued \
             + {} evicted + {} queued",
            s.in_pkts,
            s.out_pkts,
            s.evicted_pkts,
            queued_pkts,
        );
        let queued_bytes = self.backlog_bytes();
        assert!(
            s.in_bytes == s.out_bytes + s.evicted_bytes + queued_bytes,
            "simsan[port]: byte conservation violated: {} accepted != {} dequeued \
             + {} evicted + {} queued",
            s.in_bytes,
            s.out_bytes,
            s.evicted_bytes,
            queued_bytes,
        );
    }

    /// Queue packet `id` of `bytes` wire bytes under `class` (as the packet
    /// carries it; a class the scheduler lacks is rejected) and PIFO `rank`.
    /// Returns false, counting the drop, if the port rejected it; the caller
    /// still owns `id` then. A PIFO may instead make room by evicting
    /// lower-priority residents: each victim's drop is counted under its
    /// class and its handle passed to `evicted`.
    pub(crate) fn enqueue(
        &mut self,
        id: SlotId,
        class: usize,
        bytes: u32,
        rank: u64,
        mut evicted: impl FnMut(SlotId),
    ) -> bool {
        let stats_class = class.min(self.stats.drops.len() - 1);
        let ok = match &mut self.sched {
            Sched::Wfq(s) => s.enqueue(class, bytes, id).is_ok(),
            Sched::Dwrr(s) => s.enqueue(class, bytes, id).is_ok(),
            Sched::Spq(s) => s.enqueue(class, bytes, id).is_ok(),
            Sched::Fifo(s) => s.enqueue(class, bytes, id).is_ok(),
            Sched::Pifo(q) => q
                .push_evicting(
                    rank,
                    bytes,
                    (id, stats_class),
                    |_, _bytes, (victim, vclass)| {
                        self.stats.drops[vclass] += 1;
                        #[cfg(feature = "simsan")]
                        {
                            self.san.evicted_pkts += 1;
                            self.san.evicted_bytes += _bytes as u64;
                        }
                        evicted(victim);
                    },
                )
                .is_ok(),
        };
        if ok {
            #[cfg(feature = "simsan")]
            {
                self.san.in_pkts += 1;
                self.san.in_bytes += bytes as u64;
            }
            let depth = self.class_backlog_packets(stats_class) as u64;
            if depth > self.stats.max_class_depth_pkts[stats_class] {
                self.stats.max_class_depth_pkts[stats_class] = depth;
            }
            let backlog = self.backlog_bytes();
            if backlog > self.stats.max_backlog_bytes {
                self.stats.max_backlog_bytes = backlog;
            }
        } else {
            self.stats.drops[stats_class] += 1;
        }
        #[cfg(feature = "simsan")]
        self.san_check_conservation();
        ok
    }

    /// Take the next packet for transmission: its handle and wire bytes.
    pub(crate) fn dequeue(&mut self) -> Option<(SlotId, u32)> {
        let (class, bytes, id) = match &mut self.sched {
            Sched::Wfq(s) => s.dequeue().map(
                |Dequeued { class, bytes, item }| (class, bytes, item),
            )?,
            Sched::Dwrr(s) => s.dequeue().map(
                |Dequeued { class, bytes, item }| (class, bytes, item),
            )?,
            Sched::Spq(s) => s.dequeue().map(
                |Dequeued { class, bytes, item }| (class, bytes, item),
            )?,
            Sched::Fifo(s) => s.dequeue().map(
                |Dequeued { class, bytes, item }| (class, bytes, item),
            )?,
            Sched::Pifo(q) => q.pop().map(|(_, bytes, (id, class))| (class, bytes, id))?,
        };
        let class = class.min(self.stats.tx_packets.len() - 1);
        self.stats.tx_packets[class] += 1;
        self.stats.tx_bytes[class] += bytes as u64;
        #[cfg(feature = "simsan")]
        {
            self.san.out_pkts += 1;
            self.san.out_bytes += bytes as u64;
            self.san_check_conservation();
        }
        Some((id, bytes))
    }

    /// Queued bytes (excluding the in-flight packet).
    pub(crate) fn backlog_bytes(&self) -> u64 {
        match &self.sched {
            Sched::Wfq(s) => s.backlog_bytes(),
            Sched::Dwrr(s) => s.backlog_bytes(),
            Sched::Spq(s) => s.backlog_bytes(),
            Sched::Fifo(s) => s.backlog_bytes(),
            Sched::Pifo(q) => q.backlog_bytes(),
        }
    }

    /// WFQ system virtual time, when this port runs WFQ.
    pub(crate) fn wfq_virtual_time(&self) -> Option<f64> {
        match &self.sched {
            Sched::Wfq(s) => Some(s.virtual_time()),
            _ => None,
        }
    }

    /// Queued packets per class.
    pub(crate) fn class_backlog_packets(&self, class: usize) -> usize {
        match &self.sched {
            Sched::Wfq(s) => s.class_backlog_packets(class),
            Sched::Dwrr(s) => s.class_backlog_packets(class),
            Sched::Spq(s) => s.class_backlog_packets(class),
            Sched::Fifo(s) => s.class_backlog_packets(class),
            // PIFO has no class queues; report everything under class 0.
            Sched::Pifo(q) => {
                if class == 0 {
                    q.backlog_packets()
                } else {
                    0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequitas_sim_core::Slab;

    /// Fixture: a port whose ledger claims an arrival the scheduler never
    /// saw, so the next enqueue breaks conservation. `ids` stands in for the
    /// engine's packet slab and holds packet ids.
    fn leaky_port(ids: &mut Slab<u64>) -> Port {
        let mut port = Port::new(&SchedulerKind::Fifo(1), None, 1);
        assert!(port.enqueue(ids.insert(1), 0, 1000, 0, |_| {}));
        port.simsan_phantom_arrival(500);
        port
    }

    #[cfg(feature = "simsan")]
    #[test]
    #[should_panic(expected = "simsan[port]")]
    fn simsan_catches_conservation_violation() {
        let mut ids = Slab::new();
        let mut port = leaky_port(&mut ids);
        port.enqueue(ids.insert(2), 0, 1000, 0, |_| {});
    }

    #[cfg(not(feature = "simsan"))]
    #[test]
    fn without_simsan_conservation_violation_is_silent() {
        let mut ids = Slab::new();
        let mut port = leaky_port(&mut ids);
        assert!(port.enqueue(ids.insert(2), 0, 1000, 0, |_| {}));
        assert_eq!(port.dequeue().map(|(id, _)| ids[id]), Some(1));
    }

    #[test]
    fn pifo_hands_back_every_evicted_victim_and_counts_it_by_class() {
        let mut ids = Slab::new();
        let mut port = Port::new(&SchedulerKind::Pifo, Some(3000), 3);
        let mut victims = Vec::new();
        let a = ids.insert(1);
        let b = ids.insert(2);
        assert!(port.enqueue(a, 2, 1000, 50, |v| victims.push(v)));
        assert!(port.enqueue(b, 1, 1000, 60, |v| victims.push(v)));
        // 2500 B at the best rank fit only once both residents are gone:
        // the worst-ranked goes first.
        assert!(port.enqueue(ids.insert(3), 0, 2500, 1, |v| victims.push(v)));
        assert_eq!(victims, [b, a]);
        assert_eq!(port.stats.drops, [0, 1, 1]);
        // A newcomer no better than every resident is rejected and stays
        // the caller's.
        assert!(!port.enqueue(ids.insert(4), 1, 1000, 9, |v| victims.push(v)));
        assert_eq!(victims.len(), 2);
        assert_eq!(port.stats.drops, [0, 2, 1]);
        assert_eq!(
            port.dequeue().map(|(id, bytes)| (ids[id], bytes)),
            Some((3, 2500))
        );
    }
}
