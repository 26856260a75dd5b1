//! Parallel sweep harness.
//!
//! Every figure that sweeps a parameter (SLO, QoS-mix, burst load, …) or
//! compares policies runs one fully independent simulation per point: each
//! point owns its engine, its seed, and its RNG streams, and no state is
//! shared between points. That makes the sweep embarrassingly parallel
//! *across* runs while each run stays strictly single-threaded and
//! deterministic — results are bit-identical to the serial loops for any
//! worker count (see DESIGN.md §3).
//!
//! [`run_sweep_on`] fans the points across a scoped thread pool and returns
//! results in input order; experiments reach it through
//! [`crate::harness::RunCtx::sweep`], which supplies the worker count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` over every point on `threads` workers; results come back in
/// input order. A point that panics fails the sweep with
/// "sweep point `<i>` panicked" (its own message has gone to stderr by then)
/// and no further point is started.
pub fn run_sweep_on<P, R, F>(threads: usize, points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n = points.len();
    // Effective worker count: spawning more workers than points only adds
    // scheduler churn. One effective worker runs inline — no threads, no
    // per-point locking — which matters on single-core machines where the
    // "parallel" path used to lose to the serial loops outright.
    let threads = threads.min(n.max(1));
    let next = AtomicUsize::new(0);
    let run_point = |i: usize, p: P| {
        // The closure is not called again for this point and the sweep's
        // result is discarded, so no broken state outlives the unwind.
        catch_unwind(AssertUnwindSafe(|| f(p))).unwrap_or_else(|_| {
            next.store(n, Ordering::Relaxed); // nothing left to claim
            panic!("sweep point {i} panicked")
        })
    };
    if threads <= 1 {
        return points
            .into_iter()
            .enumerate()
            .map(|(i, p)| run_point(i, p))
            .collect();
    }
    // Work-stealing by atomic index: each worker claims the next unclaimed
    // chunk of points, so long and short runs balance without static
    // partitioning. Chunks amortize the claim (one fetch_add + lock pair
    // per chunk instead of per point) while staying small enough — at
    // least 4 chunks per worker — that stealing still load-balances.
    let chunk = (n / (threads * 4)).max(1);
    let slots: Vec<Mutex<Option<P>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        let p = slots[i].lock().unwrap().take().expect("point claimed once");
                        let r = run_point(i, p);
                        *results[i].lock().unwrap() = Some(r);
                    }
                })
            })
            .collect();
        // Joined by hand so the point's name reaches the caller instead of
        // the scope's anonymous "a scoped thread panicked".
        let mut panicked = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker wrote result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = run_sweep_on(4, (0..37).collect(), |x: i32| x * x);
        assert_eq!(out, (0..37).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let points: Vec<u64> = (0..16).collect();
        let f = |x: u64| {
            // A run-like computation with per-point seeding.
            let mut rng = aequitas_sim_core::SimRng::new(42 + x);
            (0..100).map(|_| rng.next_u64() % 1000).sum::<u64>()
        };
        assert_eq!(
            run_sweep_on(1, points.clone(), f),
            run_sweep_on(3, points, f)
        );
    }

    fn sweep_with_a_bad_point(threads: usize) {
        run_sweep_on(threads, (0..16).collect(), |x: u32| {
            assert_ne!(x, 5, "the simulation at this point is broken");
            x
        });
    }

    #[test]
    #[should_panic(expected = "sweep point 5 panicked")]
    fn a_panicking_point_fails_the_sweep_by_name() {
        sweep_with_a_bad_point(3);
    }

    #[test]
    #[should_panic(expected = "sweep point 5 panicked")]
    fn a_panicking_point_is_named_on_the_inline_path_too() {
        sweep_with_a_bad_point(1);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(run_sweep_on(8, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(run_sweep_on(8, vec![7u8], |x| x + 1), vec![8]);
    }
}
