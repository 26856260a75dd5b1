//! Exact fluid (GPS) model of a WFQ bottleneck under the paper's bursty
//! arrival pattern (Fig. 7), for any number of QoS classes.
//!
//! Each class `i` receives arrivals at constant rate `ρ · share_i` (line
//! rate = 1) during the burst phase `[0, μ/ρ]` of a unit period, then the
//! source idles. Service is Generalized Processor Sharing: at every instant
//! the backlogged classes divide the line rate in proportion to their
//! weights, with unused share redistributed (work conservation). Because all
//! rates are piecewise constant, the integration is exact: the state only
//! changes when the burst ends or a class's backlog empties.
//!
//! The worst-case delay of a class is the maximum horizontal distance
//! between its (piecewise-linear) cumulative arrival and service curves —
//! precisely the network-calculus delay bound used in Appendix B. This
//! module computes it exactly from the curve kinks.

/// Specification of a fluid WFQ scenario.
#[derive(Debug, Clone)]
pub struct FluidSpec {
    /// WFQ weight per class (class 0 is conventionally the highest).
    pub weights: Vec<f64>,
    /// QoS-mix: fraction of total arrivals per class; must sum to 1.
    pub shares: Vec<f64>,
    /// Average load over the period, normalized to line rate (0 < μ ≤ 1).
    pub mu: f64,
    /// Burst load normalized to line rate (ρ ≥ μ).
    pub rho: f64,
}

impl FluidSpec {
    fn validate(&self) {
        assert_eq!(self.weights.len(), self.shares.len());
        assert!(!self.weights.is_empty());
        assert!(self.weights.iter().all(|&w| w > 0.0));
        assert!(self.shares.iter().all(|&s| s >= 0.0));
        let total: f64 = self.shares.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "shares must sum to 1, got {total}"
        );
        assert!(self.mu > 0.0 && self.mu <= 1.0);
        assert!(self.rho >= self.mu && self.rho > 0.0);
    }
}

/// Instantaneous GPS service rates.
///
/// Classes with backlog (or arrivals exceeding their allocation) share
/// capacity by weight; a class with no backlog whose arrival rate is below
/// its weighted share is served at exactly its arrival rate, and the surplus
/// is redistributed among the rest (progressive filling).
const EPS: f64 = 1e-12;

fn gps_rates(weights: &[f64], arrivals: &[f64], backlog: &[f64]) -> Vec<f64> {
    let n = weights.len();
    let mut rates = vec![0.0; n];
    let mut fixed = vec![false; n];
    let mut capacity = 1.0;

    // Classes with neither backlog nor arrivals get nothing.
    for i in 0..n {
        if backlog[i] <= EPS && arrivals[i] <= 0.0 {
            fixed[i] = true;
        }
    }
    loop {
        let active_weight: f64 = (0..n).filter(|&i| !fixed[i]).map(|i| weights[i]).sum();
        if active_weight <= 0.0 || capacity <= 1e-15 {
            break;
        }
        // Does any unbacklogged class need less than its fair share?
        let mut changed = false;
        for i in 0..n {
            if fixed[i] {
                continue;
            }
            let share = weights[i] / active_weight * capacity;
            if backlog[i] <= EPS && arrivals[i] <= share {
                rates[i] = arrivals[i];
                capacity -= arrivals[i];
                fixed[i] = true;
                changed = true;
            }
        }
        if !changed {
            // Everyone remaining is greedy: give weighted shares.
            for i in 0..n {
                if !fixed[i] {
                    rates[i] = weights[i] / active_weight * capacity;
                }
            }
            break;
        }
    }
    rates
}

/// One kink of a cumulative piecewise-linear curve: `(time, value)`.
type Curve = Vec<(f64, f64)>;

/// Time at which a nondecreasing piecewise-linear curve first reaches `y`.
fn time_to_reach(curve: &Curve, y: f64) -> Option<f64> {
    for w in curve.windows(2) {
        let (t0, y0) = w[0];
        let (t1, y1) = w[1];
        if y <= y1 + 1e-15 {
            if (y1 - y0).abs() < 1e-15 {
                // Flat segment: `y` must equal y0 (within eps); reached at t0.
                if y <= y0 + 1e-12 {
                    return Some(t0);
                }
                continue;
            }
            if y >= y0 - 1e-15 {
                return Some(t0 + (t1 - t0) * ((y - y0) / (y1 - y0)).clamp(0.0, 1.0));
            }
        }
    }
    None
}

/// Maximum horizontal distance between arrival and service curves — the
/// delay bound. Evaluated at every kink of either curve (the maximum of a
/// piecewise-linear difference is attained at a kink).
fn max_horizontal_distance(arrival: &Curve, service: &Curve) -> f64 {
    let mut max_d: f64 = 0.0;
    // Candidate y-levels: curve kink values.
    let mut levels: Vec<f64> = arrival
        .iter()
        .map(|&(_, y)| y)
        .chain(service.iter().map(|&(_, y)| y))
        .collect();
    levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let top = arrival.last().map(|&(_, y)| y).unwrap_or(0.0);
    for &y in &levels {
        if y <= 1e-15 || y > top + 1e-12 {
            continue;
        }
        let (Some(ta), Some(ts)) = (time_to_reach(arrival, y), time_to_reach(service, y)) else {
            continue;
        };
        max_d = max_d.max(ts - ta);
    }
    max_d
}

/// Per-class worst-case normalized delays for the scenario.
///
/// Returns one delay per class, as a fraction of the unit period.
pub fn fluid_delays(spec: &FluidSpec) -> Vec<f64> {
    spec.validate();
    let n = spec.weights.len();
    let burst_end = spec.mu / spec.rho;
    let arr_rates: Vec<f64> = spec.shares.iter().map(|&s| spec.rho * s).collect();

    // Build cumulative arrival curves: rate a_i until burst_end, then flat.
    let arrivals: Vec<Curve> = (0..n)
        .map(|i| {
            vec![
                (0.0, 0.0),
                (burst_end, arr_rates[i] * burst_end),
                // Extend flat to the far future so lookups succeed.
                (10.0, arr_rates[i] * burst_end),
            ]
        })
        .collect();

    // Integrate the GPS service piecewise.
    let mut t = 0.0_f64;
    let mut backlog = vec![0.0_f64; n];
    let mut served = vec![0.0_f64; n];
    let mut service_curves: Vec<Curve> = (0..n).map(|_| vec![(0.0, 0.0)]).collect();
    let horizon = 10.0;

    while t < horizon {
        let in_burst = t < burst_end - 1e-15;
        let arr_now: Vec<f64> = if in_burst {
            arr_rates.clone()
        } else {
            vec![0.0; n]
        };
        let rates = gps_rates(&spec.weights, &arr_now, &backlog);

        // Next event: burst end, a backlog emptying, or horizon.
        let mut dt = horizon - t;
        if in_burst {
            dt = dt.min(burst_end - t);
        }
        for i in 0..n {
            let drain = rates[i] - arr_now[i];
            if backlog[i] > EPS && drain > EPS {
                dt = dt.min(backlog[i] / drain);
            }
        }
        if dt <= 1e-15 {
            // No further change possible (all drained, no arrivals).
            if !in_burst && backlog.iter().all(|&b| b <= 1e-12) {
                break;
            }
            dt = 1e-12; // nudge past numerical sticking points
        }

        for i in 0..n {
            backlog[i] = (backlog[i] + (arr_now[i] - rates[i]) * dt).max(0.0);
            // Snap draining residues to zero so a sub-epsilon backlog cannot
            // keep a class marked greedy forever.
            if backlog[i] < EPS && rates[i] >= arr_now[i] {
                backlog[i] = 0.0;
            }
            served[i] += rates[i] * dt;
        }
        t += dt;
        for i in 0..n {
            service_curves[i].push((t, served[i]));
        }
        if !in_burst && backlog.iter().all(|&b| b <= 1e-12) {
            break;
        }
    }
    // Extend service curves flat to the horizon.
    for (i, c) in service_curves.iter_mut().enumerate() {
        c.push((horizon, served[i]));
        debug_assert!(
            served[i] >= arr_rates[i] * burst_end - 1e-9,
            "class {i} not fully served"
        );
    }

    (0..n)
        .map(|i| max_horizontal_distance(&arrivals[i], &service_curves[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_qos::{delay_h, delay_l, TwoQosParams};
    use proptest::prelude::*;

    #[test]
    fn gps_rates_respect_weights_when_all_backlogged() {
        let r = gps_rates(&[4.0, 1.0], &[0.0, 0.0], &[1.0, 1.0]);
        assert!((r[0] - 0.8).abs() < 1e-12);
        assert!((r[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn gps_redistributes_unused_share() {
        // Class 0 has a small arrival rate and no backlog; class 1 gets the
        // rest.
        let r = gps_rates(&[4.0, 1.0], &[0.1, 2.0], &[0.0, 0.5]);
        assert!((r[0] - 0.1).abs() < 1e-12);
        assert!((r[1] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gps_idle_class_gets_zero() {
        let r = gps_rates(&[1.0, 1.0], &[0.0, 0.4], &[0.0, 0.0]);
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 0.4).abs() < 1e-12);
    }

    /// The toy example of Appendix B.2 (Fig. 26): weights 4:1, 50/50 mix,
    /// burst 1.2, average 0.8 — QoSh sees zero delay, QoSl sees 2/3 - 4/9 ≈
    /// 0.2222 of the period.
    #[test]
    fn appendix_toy_example() {
        let spec = FluidSpec {
            weights: vec![4.0, 1.0],
            shares: vec![0.5, 0.5],
            mu: 0.8,
            rho: 1.2,
        };
        let d = fluid_delays(&spec);
        assert!(d[0].abs() < 1e-9, "QoSh delay {}", d[0]);
        assert!(
            (d[1] - (2.0 / 3.0 - 4.0 / 9.0)).abs() < 1e-6,
            "QoSl {}",
            d[1]
        );
    }

    /// Fluid model reproduces the closed-form curves of Fig. 8 across the
    /// whole share axis.
    #[test]
    fn matches_closed_form_fig8() {
        let p = TwoQosParams::fig8();
        for step in 1..100 {
            let x = step as f64 / 100.0;
            let spec = FluidSpec {
                weights: vec![p.phi, 1.0],
                shares: vec![x, 1.0 - x],
                mu: p.mu,
                rho: p.rho,
            };
            let d = fluid_delays(&spec);
            let eh = delay_h(p, x);
            let el = delay_l(p, x);
            assert!(
                (d[0] - eh).abs() < 1e-6,
                "x={x}: fluid h {} vs closed {}",
                d[0],
                eh
            );
            assert!(
                (d[1] - el).abs() < 1e-6,
                "x={x}: fluid l {} vs closed {}",
                d[1],
                el
            );
        }
    }

    /// Three-class sanity: with weights 8:4:1 and the Fig. 9 load (μ=0.8,
    /// ρ=1.4), an even mix keeps the high class at zero delay while the low
    /// class queues.
    #[test]
    fn three_class_profile() {
        let spec = FluidSpec {
            weights: vec![8.0, 4.0, 1.0],
            shares: vec![0.2, 0.4, 0.4],
            mu: 0.8,
            rho: 1.4,
        };
        let d = fluid_delays(&spec);
        // a_h = 1.4*0.2 = 0.28 < g_h = 8/13 -> zero delay.
        assert!(d[0].abs() < 1e-9);
        // The lowest class must see the largest delay here.
        assert!(d[2] > d[1] && d[1] >= 0.0);
    }

    /// Work conservation: total service time equals total work μ, so the
    /// last class to finish does so exactly at μ when the link is overloaded
    /// the whole burst.
    #[test]
    fn all_traffic_served() {
        let spec = FluidSpec {
            weights: vec![2.0, 1.0],
            shares: vec![0.6, 0.4],
            mu: 0.9,
            rho: 1.8,
        };
        // Implicitly checked by the debug_assert in fluid_delays; also no
        // delay bound can exceed the total busy period μ, and the
        // last-finishing class's delay at the final bit is μ(1 - 1/ρ).
        let d = fluid_delays(&spec);
        assert!(d.iter().all(|&x| x <= 0.9 + 1e-9));
        let last = d.iter().cloned().fold(f64::MIN, f64::max);
        assert!(last >= 0.9 * (1.0 - 1.0 / 1.8) - 1e-9, "last {last}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Fluid and closed form agree for arbitrary parameters (2 QoS).
        #[test]
        fn prop_fluid_matches_closed_form(
            phi in 0.5f64..32.0,
            mu in 0.2f64..0.95,
            rho_excess in 0.05f64..2.0,
            xi in 1u32..99,
        ) {
            let rho = 1.0 + rho_excess;
            let x = xi as f64 / 100.0;
            let p = TwoQosParams { phi, mu, rho };
            let spec = FluidSpec {
                weights: vec![phi, 1.0],
                shares: vec![x, 1.0 - x],
                mu,
                rho,
            };
            let d = fluid_delays(&spec);
            prop_assert!((d[0] - delay_h(p, x)).abs() < 1e-5,
                "h: fluid {} closed {}", d[0], delay_h(p, x));
            prop_assert!((d[1] - delay_l(p, x)).abs() < 1e-5,
                "l: fluid {} closed {}", d[1], delay_l(p, x));
        }

        /// With all classes equally weighted and equally loaded, delays are
        /// equal by symmetry.
        #[test]
        fn prop_symmetric_classes_equal_delay(
            n in 2usize..5,
            mu in 0.3f64..0.9,
            rho_excess in 0.1f64..1.5,
        ) {
            let rho = 1.0 + rho_excess;
            let spec = FluidSpec {
                weights: vec![1.0; n],
                shares: vec![1.0 / n as f64; n],
                mu,
                rho,
            };
            let d = fluid_delays(&spec);
            for i in 1..n {
                prop_assert!((d[i] - d[0]).abs() < 1e-6);
            }
        }
    }
}
