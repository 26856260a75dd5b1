//! Cross-implementation properties: the paper treats "WFQ" as one
//! mechanism with interchangeable realizations (virtual-time/PGPS and DWRR,
//! footnote 1). These tests check that the two implementations — and SPQ as
//! the degenerate infinite-weight-ratio case — agree where theory says they
//! must.

use aequitas_qdisc::{DwrrScheduler, Scheduler, SpqScheduler, WfqScheduler};
use proptest::prelude::*;

/// Drive both schedulers with an identical continuously-backlogged workload
/// and compare long-run per-class byte shares.
fn service_shares<S: Scheduler<u64>>(
    s: &mut S,
    classes: usize,
    pkt_bytes: u32,
    serves: usize,
) -> Vec<f64> {
    // Keep every class saturated.
    for round in 0..(serves * 2) {
        for c in 0..classes {
            let _ = s.enqueue(c, pkt_bytes, (round * classes + c) as u64);
        }
    }
    let mut served = vec![0u64; classes];
    for _ in 0..serves {
        let d = s.dequeue().expect("backlogged");
        served[d.class] += d.bytes as u64;
    }
    let total: u64 = served.iter().sum();
    served.iter().map(|&b| b as f64 / total as f64).collect()
}

#[test]
fn wfq_and_dwrr_converge_to_the_same_shares() {
    let weights = [8.0, 4.0, 1.0];
    let mut wfq = WfqScheduler::new(&weights, None);
    let mut dwrr = DwrrScheduler::new(&weights, 4096, None);
    let a = service_shares(&mut wfq, 3, 4160, 4000);
    let b = service_shares(&mut dwrr, 3, 4160, 4000);
    for c in 0..3 {
        assert!(
            (a[c] - b[c]).abs() < 0.02,
            "class {c}: WFQ {:.3} vs DWRR {:.3}",
            a[c],
            b[c]
        );
        let want = weights[c] / 13.0;
        assert!(
            (a[c] - want).abs() < 0.02,
            "class {c}: {:.3} vs {want:.3}",
            a[c]
        );
    }
}

#[test]
fn extreme_weight_ratio_approaches_spq() {
    // WFQ with a 10000:1 ratio serves almost exactly like SPQ while the
    // high class is backlogged.
    let mut wfq = WfqScheduler::new(&[10_000.0, 1.0], None);
    let mut spq = SpqScheduler::new(2, None);
    let a = service_shares(&mut wfq, 2, 1500, 2000);
    let b = service_shares(&mut spq, 2, 1500, 2000);
    assert!(
        (a[0] - b[0]).abs() < 0.01,
        "WFQ {:.4} vs SPQ {:.4}",
        a[0],
        b[0]
    );
    assert!(a[0] > 0.99);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// For any positive weights, both implementations deliver shares within
    /// 3 points of the theoretical weight fractions under saturation.
    #[test]
    fn prop_shares_match_weights(
        w0 in 1u32..32,
        w1 in 1u32..32,
        w2 in 1u32..32,
        pkt in 256u32..4200,
    ) {
        let weights = [w0 as f64, w1 as f64, w2 as f64];
        let total: f64 = weights.iter().sum();
        let mut wfq = WfqScheduler::new(&weights, None);
        let mut dwrr = DwrrScheduler::new(&weights, 4096, None);
        let a = service_shares(&mut wfq, 3, pkt, 3000);
        let b = service_shares(&mut dwrr, 3, pkt, 3000);
        for c in 0..3 {
            let want = weights[c] / total;
            prop_assert!((a[c] - want).abs() < 0.03, "wfq class {c}: {} vs {want}", a[c]);
            prop_assert!((b[c] - want).abs() < 0.03, "dwrr class {c}: {} vs {want}", b[c]);
        }
    }

    /// Work conservation for all three disciplines: with any backlog at all,
    /// dequeue never returns None, and total dequeued bytes equals total
    /// enqueued bytes after a drain.
    #[test]
    fn prop_work_conservation(
        ops in proptest::collection::vec((0usize..3usize, 64u32..9000), 1..200)
    ) {
        let mut wfq = WfqScheduler::new(&[4.0, 2.0, 1.0], None);
        let mut dwrr = DwrrScheduler::new(&[4.0, 2.0, 1.0], 1500, None);
        let mut spq = SpqScheduler::new(3, None);
        let mut total = 0u64;
        for (i, &(c, b)) in ops.iter().enumerate() {
            wfq.enqueue(c, b, i as u64).unwrap();
            dwrr.enqueue(c, b, i as u64).unwrap();
            spq.enqueue(c, b, i as u64).unwrap();
            total += b as u64;
        }
        let drain = |s: &mut dyn Scheduler<u64>| {
            let mut got = 0u64;
            while let Some(d) = s.dequeue() {
                got += d.bytes as u64;
            }
            got
        };
        prop_assert_eq!(drain(&mut wfq), total);
        prop_assert_eq!(drain(&mut dwrr), total);
        prop_assert_eq!(drain(&mut spq), total);
    }
}
