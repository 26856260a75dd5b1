//! Self-clocked virtual-time weighted fair queuing (SCFQ).
//!
//! Each arriving packet receives a *finish tag*
//! `F = max(V, F_last[class]) + bytes / weight[class]`, where `V` is the
//! system virtual time (the finish tag of the packet most recently chosen
//! for service). The scheduler always transmits the head-of-line packet with
//! the smallest finish tag. This is Golestani's self-clocked approximation of
//! PGPS/WFQ; it provides the weighted max-min bandwidth shares and the
//! per-class delay-bound behaviour that the paper's analysis (§4) relies on.
//!
//! When the port drains completely, virtual time and the per-class state are
//! reset — the standard implementation choice, which keeps tags from growing
//! without bound.

use crate::{BufferAccounting, Dequeued, Scheduler};
use std::collections::VecDeque;

struct Queued<T> {
    bytes: u32,
    finish_tag: f64,
    item: T,
}

/// Sanitizer state for the SCFQ invariants (`--features simsan` only):
/// virtual-time monotonicity and the pairwise fairness bound. Service is
/// tracked normalized (bytes/weight); each class snapshots the full
/// service vector when it becomes backlogged so any pair's gap can be
/// measured over the interval where both were continuously backlogged.
#[cfg(feature = "simsan")]
#[derive(Default)]
struct WfqSan {
    /// Orders backlog-start events across classes.
    seq: u64,
    /// Cumulative normalized service per class.
    norm: Vec<f64>,
    /// Largest packet seen per class (the `L_max` of the SCFQ bound).
    max_bytes: Vec<u32>,
    /// Per class: (backlog-start seq, service vector at that moment).
    snap: Vec<Option<(u64, Vec<f64>)>>,
}

/// A weighted fair queuing scheduler (SCFQ virtual-time variant).
pub struct WfqScheduler<T> {
    weights: Vec<f64>,
    queues: Vec<VecDeque<Queued<T>>>,
    class_bytes: Vec<u64>,
    last_finish: Vec<f64>,
    virtual_time: f64,
    buffer: BufferAccounting,
    /// Bitmask of non-empty classes, maintained only when there are at most
    /// 64 classes (always true in practice — the fabric runs 2, 3, or 8).
    /// Enables the single-backlogged-class dequeue fast path: under Swift
    /// congestion control fabric queues are near-empty, so one backlogged
    /// class at a time is the common case.
    backlogged: u64,
    #[cfg(feature = "simsan")]
    san: WfqSan,
}

impl<T> WfqScheduler<T> {
    /// Create a WFQ scheduler with one queue per entry of `weights`.
    ///
    /// `capacity_bytes` bounds the total buffered bytes across all classes
    /// (tail drop); `None` means unbounded (used in theory-validation runs
    /// where the paper sets "a large buffer").
    pub fn new(weights: &[f64], capacity_bytes: Option<u64>) -> Self {
        assert!(!weights.is_empty(), "need at least one class");
        assert!(
            weights.iter().all(|&w| w > 0.0),
            "weights must be positive: {weights:?}"
        );
        WfqScheduler {
            weights: weights.to_vec(),
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            class_bytes: vec![0; weights.len()],
            last_finish: vec![0.0; weights.len()],
            virtual_time: 0.0,
            buffer: BufferAccounting::new(capacity_bytes),
            backlogged: 0,
            #[cfg(feature = "simsan")]
            san: WfqSan {
                seq: 0,
                norm: vec![0.0; weights.len()],
                max_bytes: vec![0; weights.len()],
                snap: vec![None; weights.len()],
            },
        }
    }

    /// Corruption hook for the simsan fixture tests: force the virtual
    /// clock past every queued finish tag.
    #[cfg(any(test, feature = "simsan"))]
    #[doc(hidden)]
    pub fn simsan_set_virtual_time(&mut self, vt: f64) {
        self.virtual_time = vt;
    }

    /// SCFQ fairness check: for every pair of classes that has stayed
    /// backlogged since the later of their backlog-start instants, the
    /// normalized service gap over that interval must stay within
    /// `L_a/w_a + L_b/w_b` (Golestani's bound; the paper's §4 delay
    /// analysis builds on it).
    #[cfg(feature = "simsan")]
    fn san_check_fairness(&mut self, served_class: usize, served_bytes: u32) {
        self.san.norm[served_class] += served_bytes as f64 / self.weights[served_class];
        let backlogged: Vec<usize> = (0..self.queues.len())
            .filter(|&c| !self.queues[c].is_empty())
            .collect();
        for (i, &a) in backlogged.iter().enumerate() {
            for &b in &backlogged[i + 1..] {
                let (Some((qa, va)), Some((qb, vb))) = (&self.san.snap[a], &self.san.snap[b])
                else {
                    continue;
                };
                // Measure from the later backlog start: both classes have
                // been continuously backlogged since then.
                let base = if qa >= qb { va } else { vb };
                let ga = self.san.norm[a] - base[a];
                let gb = self.san.norm[b] - base[b];
                let bound = self.san.max_bytes[a] as f64 / self.weights[a]
                    + self.san.max_bytes[b] as f64 / self.weights[b];
                assert!(
                    (ga - gb).abs() <= bound + 1e-6,
                    "simsan[wfq]: normalized service gap |{ga} - {gb}| between classes \
                     {a} and {b} exceeds the SCFQ bound {bound}"
                );
            }
        }
    }

    #[inline]
    fn mask_usable(&self) -> bool {
        self.queues.len() <= 64
    }

    /// The configured class weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Packets dropped at enqueue because the buffer was full.
    pub fn drops(&self) -> u64 {
        self.buffer.drops()
    }

    /// Current system virtual time: the finish tag of the packet most
    /// recently chosen for service (resets to zero when the port drains).
    pub fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    fn reset_clock(&mut self) {
        self.virtual_time = 0.0;
        self.last_finish.iter_mut().for_each(|f| *f = 0.0);
    }
}

impl<T> Scheduler<T> for WfqScheduler<T> {
    fn enqueue(&mut self, class: usize, bytes: u32, item: T) -> Result<(), T> {
        if class >= self.queues.len() {
            self.buffer.count_drop();
            return Err(item);
        }
        if !self.buffer.admit(bytes) {
            return Err(item);
        }
        let start = self.virtual_time.max(self.last_finish[class]);
        let finish = start + bytes as f64 / self.weights[class];
        self.last_finish[class] = finish;
        self.class_bytes[class] += bytes as u64;
        self.queues[class].push_back(Queued {
            bytes,
            finish_tag: finish,
            item,
        });
        if self.mask_usable() {
            self.backlogged |= 1u64 << class;
        }
        #[cfg(feature = "simsan")]
        {
            if self.queues[class].len() == 1 {
                // Class transitioned empty -> backlogged: start a fairness
                // measurement interval.
                self.san.snap[class] = Some((self.san.seq, self.san.norm.clone()));
                self.san.seq += 1;
            }
            self.san.max_bytes[class] = self.san.max_bytes[class].max(bytes);
        }
        Ok(())
    }

    fn dequeue(&mut self) -> Option<Dequeued<T>> {
        // Pick the backlogged class whose head packet has the smallest finish
        // tag (ties broken by lower class index for determinism).
        let class = if self.mask_usable() {
            let mask = self.backlogged;
            if mask == 0 {
                return None;
            }
            if mask & (mask - 1) == 0 {
                // Fast path: exactly one backlogged class — no tag comparison
                // needed, its head is the minimum by construction.
                mask.trailing_zeros() as usize
            } else {
                let mut best: Option<(usize, f64)> = None;
                let mut m = mask;
                while m != 0 {
                    let c = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let tag = self.queues[c].front().expect("masked class backlogged").finish_tag;
                    match best {
                        Some((_, t)) if tag >= t => {}
                        _ => best = Some((c, tag)),
                    }
                }
                best.expect("mask non-empty").0
            }
        } else {
            // > 64 classes: full scan (never hit by the shipped configs).
            let mut best: Option<(usize, f64)> = None;
            for (c, q) in self.queues.iter().enumerate() {
                if let Some(head) = q.front() {
                    match best {
                        Some((_, tag)) if head.finish_tag >= tag => {}
                        _ => best = Some((c, head.finish_tag)),
                    }
                }
            }
            best?.0
        };
        let pkt = self.queues[class].pop_front().expect("head exists");
        if self.mask_usable() && self.queues[class].is_empty() {
            self.backlogged &= !(1u64 << class);
        }
        // SCFQ invariant: every queued tag was assigned as max(V, F_last) +
        // service, and V only ever advances to served (minimum) tags — so no
        // dequeued tag may lie behind the current virtual time.
        #[cfg(feature = "simsan")]
        assert!(
            pkt.finish_tag >= self.virtual_time,
            "simsan[wfq]: dequeued finish tag {} behind virtual time {} (class {class})",
            pkt.finish_tag,
            self.virtual_time,
        );
        self.virtual_time = pkt.finish_tag;
        self.class_bytes[class] -= pkt.bytes as u64;
        self.buffer.release(pkt.bytes);
        #[cfg(feature = "simsan")]
        self.san_check_fairness(class, pkt.bytes);
        if self.buffer.packets() == 0 {
            self.reset_clock();
        }
        Some(Dequeued {
            class,
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

    /// Drain the scheduler completely, returning (class, bytes) in service
    /// order.
    fn drain<T>(s: &mut WfqScheduler<T>) -> Vec<(usize, u32)> {
        std::iter::from_fn(|| s.dequeue().map(|d| (d.class, d.bytes))).collect()
    }

    /// Fixture: a deliberately-broken scheduler whose virtual clock was
    /// forced past every queued finish tag, so the next dequeue violates
    /// virtual-time monotonicity.
    fn corrupted_clock_wfq() -> WfqScheduler<u32> {
        let mut s = WfqScheduler::new(&[1.0, 1.0], None);
        s.enqueue(0, 100, 7).unwrap();
        s.simsan_set_virtual_time(1e12);
        s
    }

    #[cfg(feature = "simsan")]
    #[test]
    #[should_panic(expected = "simsan[wfq]")]
    fn simsan_catches_non_monotonic_virtual_time() {
        let mut s = corrupted_clock_wfq();
        let _ = s.dequeue();
    }

    #[cfg(not(feature = "simsan"))]
    #[test]
    fn without_simsan_non_monotonic_virtual_time_is_silent() {
        let mut s = corrupted_clock_wfq();
        assert_eq!(s.dequeue().map(|d| d.item), Some(7));
    }

    #[test]
    fn single_class_is_fifo() {
        let mut s = WfqScheduler::new(&[1.0], None);
        for i in 0..10u32 {
            s.enqueue(0, 100, i).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue().map(|d| d.item)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn within_class_order_preserved() {
        let mut s = WfqScheduler::new(&[4.0, 1.0], None);
        for i in 0..5u32 {
            s.enqueue(0, 100, i).unwrap();
            s.enqueue(1, 100, 100 + i).unwrap();
        }
        let mut last_a = None;
        let mut last_b = None;
        while let Some(d) = s.dequeue() {
            if d.item < 100 {
                assert!(last_a.is_none_or(|p| d.item > p));
                last_a = Some(d.item);
            } else {
                assert!(last_b.is_none_or(|p| d.item > p));
                last_b = Some(d.item);
            }
        }
    }

    #[test]
    fn bandwidth_shares_follow_weights() {
        // Both classes continuously backlogged with equal-size packets at
        // weights 4:1 -> class 0 should get ~4/5 of the service.
        let mut s = WfqScheduler::new(&[4.0, 1.0], None);
        for i in 0..1000u32 {
            s.enqueue(0, 1000, i).unwrap();
            s.enqueue(1, 1000, i).unwrap();
        }
        // Look at the first 500 services (both classes stay backlogged).
        let mut served = [0u64; 2];
        for _ in 0..500 {
            let d = s.dequeue().unwrap();
            served[d.class] += d.bytes as u64;
        }
        let share0 = served[0] as f64 / (served[0] + served[1]) as f64;
        assert!(
            (share0 - 0.8).abs() < 0.02,
            "class0 share {share0}, want ~0.8"
        );
    }

    #[test]
    fn byte_fairness_with_unequal_packet_sizes() {
        // Class 0 sends 100-byte packets, class 1 sends 1000-byte packets,
        // equal weights -> equal byte shares, so class 0 dequeues ~10x more
        // packets.
        let mut s = WfqScheduler::new(&[1.0, 1.0], None);
        for i in 0..2000u32 {
            s.enqueue(0, 100, i).unwrap();
        }
        for i in 0..200u32 {
            s.enqueue(1, 1000, i).unwrap();
        }
        let mut served_bytes = [0u64; 2];
        // Serve half the total bytes; both classes remain backlogged.
        let mut budget = 200_000u64;
        while budget > 0 {
            let d = s.dequeue().unwrap();
            served_bytes[d.class] += d.bytes as u64;
            budget = budget.saturating_sub(d.bytes as u64);
        }
        let ratio = served_bytes[0] as f64 / served_bytes[1] as f64;
        assert!((ratio - 1.0).abs() < 0.05, "byte ratio {ratio}, want ~1");
    }

    #[test]
    fn idle_class_gets_isolated_low_delay() {
        // Class 1 heavily backlogged; a class-0 packet arriving later should
        // be served almost immediately (work conservation + isolation).
        let mut s = WfqScheduler::new(&[1.0, 1.0], None);
        for i in 0..100u32 {
            s.enqueue(1, 1000, i).unwrap();
        }
        // Serve a few to advance virtual time.
        for _ in 0..10 {
            s.dequeue();
        }
        s.enqueue(0, 1000, 999).unwrap();
        // The class-0 packet's tag is max(V, 0) + 1000; class 1's head tag is
        // already far ahead, so class 0 must be served next.
        let d = s.dequeue().unwrap();
        assert_eq!(d.class, 0);
        assert_eq!(d.item, 999);
    }

    #[test]
    fn work_conserving_when_one_class_empty() {
        let mut s = WfqScheduler::new(&[4.0, 1.0], None);
        for i in 0..10u32 {
            s.enqueue(1, 500, i).unwrap();
        }
        let order = drain(&mut s);
        assert_eq!(order.len(), 10);
        assert!(order.iter().all(|&(c, _)| c == 1));
    }

    #[test]
    fn capacity_drops_and_accounts() {
        let mut s = WfqScheduler::new(&[1.0, 1.0], Some(250));
        assert!(s.enqueue(0, 100, 1).is_ok());
        assert!(s.enqueue(1, 100, 2).is_ok());
        assert!(s.enqueue(0, 100, 3).is_err()); // 300 > 250
        assert_eq!(s.drops(), 1);
        assert_eq!(s.backlog_bytes(), 200);
        assert_eq!(s.backlog_packets(), 2);
    }

    #[test]
    fn invalid_class_is_rejected() {
        let mut s = WfqScheduler::new(&[1.0], None);
        assert!(s.enqueue(5, 100, ()).is_err());
        assert_eq!(s.drops(), 1);
    }

    #[test]
    fn clock_resets_when_drained() {
        let mut s = WfqScheduler::new(&[1.0, 1.0], None);
        s.enqueue(0, 1_000_000, ()).unwrap();
        s.dequeue();
        assert!(s.is_empty());
        // After drain the virtual clock resets, so a tiny new packet's tag is
        // small again (observable via fairness behaviour).
        s.enqueue(1, 100, ()).unwrap();
        s.enqueue(0, 100, ()).unwrap();
        let d = s.dequeue().unwrap();
        // Class 1 enqueued first with equal weights and a fresh clock, so its
        // finish tag is equal; ties break to the lower class index.
        assert!(d.class == 0 || d.class == 1);
        assert_eq!(s.backlog_packets(), 1);
    }

    #[test]
    fn per_class_backlog_tracking() {
        let mut s = WfqScheduler::new(&[1.0, 1.0, 1.0], None);
        s.enqueue(0, 10, ()).unwrap();
        s.enqueue(2, 20, ()).unwrap();
        s.enqueue(2, 30, ()).unwrap();
        assert_eq!(s.class_backlog_bytes(0), 10);
        assert_eq!(s.class_backlog_bytes(1), 0);
        assert_eq!(s.class_backlog_bytes(2), 50);
        assert_eq!(s.class_backlog_packets(2), 2);
        assert_eq!(s.class_backlog_bytes(99), 0);
    }

    proptest! {
        /// Conservation: every enqueued packet is eventually dequeued exactly
        /// once, and byte accounting returns to zero.
        #[test]
        fn prop_conservation(
            ops in proptest::collection::vec((0usize..3, 64u32..2000), 1..300)
        ) {
            let mut s = WfqScheduler::new(&[8.0, 4.0, 1.0], None);
            let mut expected_bytes = 0u64;
            for (i, &(class, bytes)) in ops.iter().enumerate() {
                s.enqueue(class, bytes, i).unwrap();
                expected_bytes += bytes as u64;
            }
            prop_assert_eq!(s.backlog_bytes(), expected_bytes);
            let mut seen = vec![false; ops.len()];
            let mut drained_bytes = 0u64;
            while let Some(d) = s.dequeue() {
                prop_assert!(!seen[d.item]);
                seen[d.item] = true;
                drained_bytes += d.bytes as u64;
            }
            prop_assert!(seen.iter().all(|&x| x));
            prop_assert_eq!(drained_bytes, expected_bytes);
            prop_assert_eq!(s.backlog_bytes(), 0);
            prop_assert!(s.is_empty());
        }

        /// Relative-fairness bound: with all classes continuously backlogged,
        /// the normalized service (bytes/weight) received by any two classes
        /// never diverges by more than one maximum packet's worth per class —
        /// the SCFQ fairness guarantee.
        #[test]
        fn prop_fairness_bound(seed_packets in 50usize..150) {
            let weights = [4.0f64, 2.0, 1.0];
            let mut s = WfqScheduler::new(&weights, None);
            let bytes = 1000u32;
            for i in 0..seed_packets {
                for c in 0..3 {
                    s.enqueue(c, bytes, i).unwrap();
                }
            }
            let mut norm = [0.0f64; 3];
            // While every class remains backlogged, check the bound.
            for _ in 0..(seed_packets * 3 / 2) {
                let d = s.dequeue().unwrap();
                norm[d.class] += d.bytes as f64 / weights[d.class];
                let still_backlogged = (0..3).all(|c| s.class_backlog_packets(c) > 0);
                if still_backlogged {
                    for a in 0..3 {
                        for b in 0..3 {
                            let gap = (norm[a] - norm[b]).abs();
                            let bound = bytes as f64 / weights[a] + bytes as f64 / weights[b];
                            prop_assert!(gap <= bound + 1e-6,
                                "normalized service gap {gap} exceeds bound {bound}");
                        }
                    }
                }
            }
        }
    }
}
