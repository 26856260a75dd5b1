//! Windowed timelines and the time-to-SLO-restore recovery metric.
//!
//! Chaos containment is a question about *time*: after a fault fires, how
//! long until a scheme's tail latency is back under its SLO? Extremal
//! statistics (worst queue depth, overall p99) cannot answer it — a scheme
//! that violates for 10 ms and one that violates for the rest of the run
//! can share the same overall p99. This module buckets per-completion
//! latency points into fixed windows, computes a per-window p99 timeline,
//! and derives **time-to-SLO-restore**: the delay from fault onset to the
//! start of the final stretch of SLO-compliant windows.
//!
//! Semantics that matter for gray/blackhole faults:
//!
//! * An **empty window after onset is a violation.** Under continuous
//!   offered load, zero completions means the scheme is stalled (e.g. every
//!   path blackholed), which must not vacuously count as "SLO met".
//!   Empty windows before onset are treated as compliant — the fault cannot
//!   be blamed for a quiet warmup.
//! * Restore time is measured to the **end of the last violating window**,
//!   so a scheme that oscillates in and out of compliance is charged until
//!   it stays compliant.

use std::collections::BTreeMap;

/// One fixed-width window of a latency timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Window start, in ps (windows are `[start, start + width)`).
    pub start_ps: u64,
    /// Completions that landed in this window.
    pub count: u64,
    /// p99 of the recorded values in this window (0.0 when empty).
    pub p99: f64,
}

/// The most windows one timeline may hold. Trace timestamps are the input's
/// choice, so two points 2^64 ps apart would otherwise ask for ~3.7e10
/// windows of 500 us; 2^20 windows of that width span 524 s, far past any
/// simulated run.
pub const MAX_WINDOWS: u64 = 1 << 20;

/// Bucket `(t_ps, value)` points into fixed `window_ps`-wide windows and
/// compute each window's p99. Windows between the first and last non-empty
/// bucket are emitted even when empty (count 0), so gaps — a blackholed
/// scheme completing nothing — are visible instead of silently elided.
/// `None` when that span exceeds [`MAX_WINDOWS`].
pub fn windowed(points: &[(u64, f64)], window_ps: u64) -> Option<Vec<WindowPoint>> {
    assert!(window_ps > 0, "window width must be positive");
    let mut buckets: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in points {
        buckets.entry(t / window_ps).or_default().push(v);
    }
    let (Some(&first), Some(&last)) = (buckets.keys().next(), buckets.keys().next_back()) else {
        return Some(Vec::new());
    };
    if last - first >= MAX_WINDOWS {
        return None;
    }
    let windows = (first..=last)
        .map(|k| {
            let vals = buckets.get_mut(&k);
            match vals {
                Some(vals) => {
                    vals.sort_by(|a, b| a.total_cmp(b));
                    // Nearest-rank p99.
                    let idx = ((vals.len() as f64) * 0.99).ceil() as usize;
                    let idx = idx.clamp(1, vals.len()) - 1;
                    WindowPoint {
                        start_ps: k * window_ps,
                        count: vals.len() as u64,
                        p99: vals[idx],
                    }
                }
                None => WindowPoint {
                    start_ps: k * window_ps,
                    count: 0,
                    p99: 0.0,
                },
            }
        })
        .collect();
    Some(windows)
}

/// [`windowed`], then padded with empty windows up to `horizon_ps` — the
/// end of the observation (e.g. the offered-load stop time). A scheme that
/// stalls mid-run and never completes again would otherwise end its
/// timeline at the stall and could look "recovered"; the padding turns the
/// silence into explicit empty (violating) windows. `None` when the result
/// would exceed [`MAX_WINDOWS`].
pub fn windowed_until(
    points: &[(u64, f64)],
    window_ps: u64,
    horizon_ps: u64,
) -> Option<Vec<WindowPoint>> {
    let mut w = windowed(points, window_ps)?;
    let mut next = w.last().map_or(Some(0), |x| x.start_ps.checked_add(window_ps));
    while let Some(start_ps) = next.filter(|&t| t < horizon_ps) {
        if w.len() as u64 >= MAX_WINDOWS {
            return None;
        }
        w.push(WindowPoint {
            start_ps,
            count: 0,
            p99: 0.0,
        });
        next = start_ps.checked_add(window_ps);
    }
    Some(w)
}

/// Time from `onset_ps` until the SLO is *durably* re-met, in ps.
///
/// A window starting at or after onset violates if its p99 exceeds `slo`
/// **or** it is empty (see module docs). Returns:
///
/// * `Some(0)` — no window from onset on ever violated (the fault was
///   fully contained);
/// * `Some(d)` — the last violating window ends `d` ps after onset and
///   every later window complies;
/// * `None` — the final window still violates: the scheme never recovered
///   within the observed timeline (also returned for an empty timeline,
///   where recovery cannot be demonstrated).
pub fn time_to_restore(windows: &[WindowPoint], onset_ps: u64, slo: f64) -> Option<u64> {
    if windows.is_empty() {
        return None;
    }
    let width = match windows.len() {
        1 => return (windows[0].p99 <= slo && windows[0].count > 0).then_some(0),
        _ => windows[1].start_ps - windows[0].start_ps,
    };
    // A window near the top of u64 time ends at `u64::MAX`, not past it.
    let mut last_violation_end: Option<u64> = None;
    for w in windows {
        let end = w.start_ps.saturating_add(width);
        if end <= onset_ps {
            continue;
        }
        if w.p99 > slo || w.count == 0 {
            last_violation_end = Some(end);
        }
    }
    match (last_violation_end, windows.last()) {
        (None, _) => Some(0),
        (Some(end), Some(final_w)) => {
            if final_w.p99 > slo || final_w.count == 0 {
                None // still violating at the end of the observation.
            } else {
                Some(end.saturating_sub(onset_ps))
            }
        }
        (Some(_), None) => None, // unreachable: windows checked non-empty above
    }
}

/// Render a timeline as plottable CSV (`start_us,count,p99_us`), one line
/// per window, times converted from ps to microseconds.
pub fn to_csv(windows: &[WindowPoint]) -> String {
    let mut out = String::from("start_us,count,p99_us\n");
    for w in windows {
        out.push_str(&format!(
            "{:.3},{},{:.3}\n",
            w.start_ps as f64 / 1e6,
            w.count,
            w.p99 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000_000; // ps

    #[test]
    fn windowed_buckets_and_emits_gaps() {
        let points = vec![
            (0, 10.0),
            (MS / 2, 20.0),
            // Window 1 empty.
            (2 * MS + 1, 30.0),
        ];
        let w = windowed(&points, MS).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].count, 2);
        assert_eq!(w[0].p99, 20.0);
        assert_eq!(w[1].count, 0, "gap window emitted");
        assert_eq!(w[2].count, 1);
        assert_eq!(w[2].p99, 30.0);
    }

    #[test]
    fn windowed_p99_is_nearest_rank() {
        let points: Vec<(u64, f64)> = (0..100).map(|i| (i, i as f64)).collect();
        let w = windowed(&points, MS).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].p99, 98.0); // ceil(100*0.99) = 99th value, 0-indexed 98
    }

    fn tl(p99s: &[(f64, u64)]) -> Vec<WindowPoint> {
        p99s.iter()
            .enumerate()
            .map(|(i, &(p99, count))| WindowPoint {
                start_ps: i as u64 * MS,
                count,
                p99,
            })
            .collect()
    }

    #[test]
    fn restore_zero_when_never_violated() {
        let w = tl(&[(1.0, 5), (1.0, 5), (1.0, 5)]);
        assert_eq!(time_to_restore(&w, MS, 2.0), Some(0));
    }

    #[test]
    fn restore_charges_until_last_violation_ends() {
        // Onset at 1 ms; windows 1 and 2 violate, 3 and 4 comply: the last
        // violating window ends at 3 ms, so restore takes 2 ms.
        let w = tl(&[(1.0, 5), (9.0, 5), (9.0, 5), (1.0, 5), (1.0, 5)]);
        assert_eq!(time_to_restore(&w, MS, 2.0), Some(2 * MS));
    }

    #[test]
    fn empty_window_after_onset_is_a_violation() {
        // A blackholed scheme completes nothing in windows 1-2.
        let w = tl(&[(1.0, 5), (0.0, 0), (0.0, 0), (1.0, 5)]);
        assert_eq!(time_to_restore(&w, MS, 2.0), Some(2 * MS));
    }

    #[test]
    fn empty_window_before_onset_is_not_blamed() {
        let w = tl(&[(0.0, 0), (1.0, 5), (1.0, 5)]);
        assert_eq!(time_to_restore(&w, MS, MS as f64), Some(0));
    }

    #[test]
    fn never_recovering_is_none() {
        let w = tl(&[(1.0, 5), (9.0, 5), (9.0, 5)]);
        assert_eq!(time_to_restore(&w, MS, 2.0), None);
        // Ending on an empty window is equally unrecovered.
        let w = tl(&[(1.0, 5), (9.0, 5), (0.0, 0)]);
        assert_eq!(time_to_restore(&w, MS, 2.0), None);
    }

    #[test]
    fn oscillation_is_charged_to_the_last_violation() {
        let w = tl(&[(1.0, 5), (9.0, 5), (1.0, 5), (9.0, 5), (1.0, 5)]);
        assert_eq!(time_to_restore(&w, MS, 2.0), Some(3 * MS));
    }

    #[test]
    fn windowed_until_pads_silence_to_the_horizon() {
        // One completion at 0.5 ms, horizon 4 ms: three trailing empty
        // windows make the stall explicit, so restore is None.
        let w = windowed_until(&[(MS / 2, 1.0)], MS, 4 * MS).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].count, 1);
        assert!(w[1..].iter().all(|x| x.count == 0));
        assert_eq!(time_to_restore(&w, MS, 2.0), None);
        // No points at all: all-empty, never recovered.
        let w = windowed_until(&[], MS, 2 * MS).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(time_to_restore(&w, 0, 2.0), None);
    }

    #[test]
    fn spans_past_the_window_limit_are_refused() {
        // The limit is on the span, not on the number of points.
        let last = (MAX_WINDOWS - 1) * MS;
        assert_eq!(windowed(&[(0, 1.0), (last, 1.0)], MS).unwrap().len() as u64, MAX_WINDOWS);
        assert!(windowed(&[(0, 1.0), (last + MS, 1.0)], MS).is_none());
        assert!(windowed(&[(0, 1.0), (u64::MAX, 1.0)], 1).is_none());
        // Padding counts too, and stops short of u64::MAX instead of
        // wrapping.
        assert!(windowed_until(&[], MS, u64::MAX).is_none());
        let w = windowed_until(&[(u64::MAX, 1.0)], MS, u64::MAX).unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn csv_renders_one_line_per_window() {
        let w = tl(&[(1_000_000.0, 2), (0.0, 0)]);
        let csv = to_csv(&w);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "start_us,count,p99_us");
        assert_eq!(lines[1], "0.000,2,1.000");
    }
}
