//! Algorithm 1: the QoS-downgrade admission control loop.
//!
//! State is kept per (destination host, QoS) pair at each sender, exactly as
//! the paper specifies ("per-(src-host, dst-host, QoS) basis" — the src is
//! implicit because each host owns its controller). All SLO-carrying QoS
//! levels (every level except the lowest) run the AIMD loop; the lowest
//! level is the scavenger that receives downgraded traffic and has no SLO.

use aequitas_sim_core::{SimDuration, SimRng, SimTime};
use aequitas_telemetry::{Telemetry, TraceEvent};

/// An RNL SLO for one QoS level.
#[derive(Debug, Clone, Copy)]
pub struct SloTarget {
    /// Latency target **per MTU** of RPC size (the paper's normalized SLO:
    /// an RPC of `s` MTUs must complete within `s × latency_target`).
    pub latency_target_per_mtu: SimDuration,
    /// The percentile the SLO is defined at (e.g. 99.9). Higher percentiles
    /// make the additive-increase step more conservative via the increment
    /// window (Algorithm 1 line 4).
    pub target_percentile: f64,
}

impl SloTarget {
    /// Construct from a per-MTU target and percentile.
    pub fn per_mtu(latency_target_per_mtu: SimDuration, target_percentile: f64) -> Self {
        assert!(
            (0.0..100.0).contains(&target_percentile),
            "percentile must be in [0, 100): {target_percentile}"
        );
        SloTarget {
            latency_target_per_mtu,
            target_percentile,
        }
    }

    /// Convenience: an SLO stated as an absolute target for an RPC of
    /// `reference_mtus` MTUs (e.g. "15 µs for 32 KB RPCs" → `(15us, 8)`).
    pub fn absolute(target: SimDuration, reference_mtus: u64, target_percentile: f64) -> Self {
        SloTarget::per_mtu(target / reference_mtus.max(1), target_percentile)
    }

    /// The increment window of Algorithm 1 line 4:
    /// `latency_target · 100 / (100 − target_pctl)`.
    pub fn increment_window(&self) -> SimDuration {
        let factor = 100.0 / (100.0 - self.target_percentile);
        self.latency_target_per_mtu.mul_f64(factor)
    }
}

/// Configuration of the admission controller.
#[derive(Debug, Clone)]
pub struct AequitasConfig {
    /// Additive increment α applied to the admit probability (paper: 0.01).
    pub alpha: f64,
    /// Multiplicative decrement β **per MTU** of the missing RPC's size
    /// (paper: 0.01 per MTU), so an SLO miss by a 10-packet RPC behaves like
    /// ten misses by 1-packet RPCs.
    pub beta_per_mtu: f64,
    /// Floor below which the admit probability never drops — prevents
    /// starvation: with p = 0 no RPC would run on the QoS, so no measurement
    /// could ever raise p again (§5.1). The paper does not publish the
    /// value; 0.01 keeps a 1% probe stream.
    pub floor: f64,
    /// Per-QoS SLOs, indexed by QoS level; `None` marks the scavenger
    /// level(s) with no SLO (always at least the last level).
    pub slos: Vec<Option<SloTarget>>,
    /// Scale the multiplicative decrease by the RPC's size in MTUs
    /// (Algorithm 1's behaviour). Disabled only by the ablation studies.
    pub scale_md_by_size: bool,
    /// Override the derived increment window (ablation studies). `None`
    /// uses Algorithm 1 line 4.
    pub increment_window_override: Option<SimDuration>,
}

impl AequitasConfig {
    /// The paper's default constants with the given SLOs for QoSₕ/QoS_m and
    /// a scavenger QoSₗ.
    pub fn three_qos(high: SloTarget, medium: SloTarget) -> Self {
        AequitasConfig {
            alpha: 0.01,
            beta_per_mtu: 0.01,
            floor: 0.01,
            slos: vec![Some(high), Some(medium), None],
            scale_md_by_size: true,
            increment_window_override: None,
        }
    }

    /// Two QoS levels: an SLO for QoSₕ, scavenger QoSₗ.
    pub fn two_qos(high: SloTarget) -> Self {
        AequitasConfig {
            alpha: 0.01,
            beta_per_mtu: 0.01,
            floor: 0.01,
            slos: vec![Some(high), None],
            scale_md_by_size: true,
            increment_window_override: None,
        }
    }

    /// Number of QoS levels.
    pub fn levels(&self) -> usize {
        self.slos.len()
    }

    /// Index of the lowest (scavenger) QoS level.
    pub fn lowest(&self) -> u8 {
        (self.slos.len() - 1) as u8
    }

    fn validate(&self) {
        assert!(self.alpha > 0.0 && self.alpha <= 1.0);
        assert!(self.beta_per_mtu > 0.0 && self.beta_per_mtu <= 1.0);
        assert!((0.0..1.0).contains(&self.floor));
        assert!(!self.slos.is_empty());
        assert!(
            self.slos.last().unwrap().is_none(),
            "the lowest QoS level must be the scavenger (no SLO)"
        );
    }
}

/// The outcome of an admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueDecision {
    /// The QoS the RPC actually runs on.
    pub qos_run: u8,
    /// Whether the RPC was downgraded from its requested QoS. Explicitly
    /// surfaced to the application (Algorithm 1 lines 10–11).
    pub downgraded: bool,
}

#[derive(Debug, Clone)]
struct ChannelQosState {
    p_admit: f64,
    t_last_increase: SimTime,
}

/// Per-host distributed admission controller (Algorithm 1).
pub struct AdmissionController {
    config: AequitasConfig,
    rng: SimRng,
    /// Dense channel-state table indexed `dst * levels + qos`, grown on
    /// first contact with a destination. Every RPC probes this twice
    /// (issue and completion), so the lookup is a bounds-checked index
    /// instead of a `(usize, u8)` hash; untouched channels stay `None`
    /// and read as `p_admit = 1.0`.
    state: Vec<Option<ChannelQosState>>,
    /// Counters for observability.
    issued: u64,
    downgraded: u64,
    telemetry: Telemetry,
    /// The host owning this controller, for labeling AdmitProb events.
    src_host: usize,
}

impl AdmissionController {
    /// Create a controller with the given config and RNG seed (the seed
    /// drives the admission coin flips).
    pub fn new(config: AequitasConfig, seed: u64) -> Self {
        config.validate();
        AdmissionController {
            config,
            rng: SimRng::new(seed),
            state: Vec::new(),
            issued: 0,
            downgraded: 0,
            telemetry: Telemetry::disabled(),
            src_host: 0,
        }
    }

    /// Attach a telemetry handle; every AIMD step emits an `admit_prob`
    /// event labeled with `src_host` (the host owning this controller).
    /// Telemetry never alters admission decisions.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry, src_host: usize) {
        self.telemetry = telemetry;
        self.src_host = src_host;
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AequitasConfig {
        &self.config
    }

    /// Algorithm 1, "On RPC Issue": decide the QoS for an RPC of
    /// `size_mtus` MTUs requesting `qos_req` toward `dst`.
    pub fn on_issue(
        &mut self,
        now: SimTime,
        dst: usize,
        qos_req: u8,
        _size_mtus: u64,
    ) -> IssueDecision {
        self.issued += 1;
        let lowest = self.config.lowest();
        if qos_req >= lowest || self.config.slos[qos_req as usize].is_none() {
            // Scavenger traffic is always admitted where it is.
            return IssueDecision {
                qos_run: lowest.min(qos_req),
                downgraded: false,
            };
        }
        let st = self.channel_state(now, dst, qos_req);
        let p = st.p_admit;
        if self.rng.uniform() <= p {
            IssueDecision {
                qos_run: qos_req,
                downgraded: false,
            }
        } else {
            self.downgraded += 1;
            IssueDecision {
                qos_run: lowest,
                downgraded: true,
            }
        }
    }

    /// Algorithm 1, "On RPC Completion": feed back a measured RNL for an RPC
    /// of `size_mtus` that ran on `qos_run`.
    pub fn on_completion(
        &mut self,
        now: SimTime,
        dst: usize,
        qos_run: u8,
        size_mtus: u64,
        rnl: SimDuration,
    ) {
        let Some(Some(slo)) = self.config.slos.get(qos_run as usize).copied() else {
            return; // scavenger: no SLO, no update
        };
        let size = size_mtus.max(1);
        let alpha = self.config.alpha;
        let beta = self.config.beta_per_mtu;
        let floor = self.config.floor;
        let md_scale = if self.config.scale_md_by_size {
            size as f64
        } else {
            1.0
        };
        let window = self
            .config
            .increment_window_override
            .unwrap_or_else(|| slo.increment_window());
        let (p_before, p_after) = {
            let st = self.channel_state(now, dst, qos_run);
            let p_before = st.p_admit;
            // Line 15: rpc_latency / size < latency_target  (per-MTU
            // comparison, kept in integer ps via cross-multiplication).
            let within = rnl.as_ps() < slo.latency_target_per_mtu.as_ps().saturating_mul(size);
            if within {
                // Additive increase, at most once per increment window.
                if now.saturating_since(st.t_last_increase) > window {
                    st.p_admit = (st.p_admit + alpha).min(1.0);
                    st.t_last_increase = now;
                }
            } else {
                // Multiplicative decrease, proportional to RPC size (unless
                // the size-scaling ablation is active).
                st.p_admit = (st.p_admit - beta * md_scale).max(floor);
            }
            (p_before, st.p_admit)
        };
        // Algorithm 1 keeps p within [floor, 1] by construction (line 16's
        // min and line 18's max); a value outside that band means the AIMD
        // arithmetic itself is broken.
        #[cfg(debug_assertions)]
        assert!(
            p_after.is_finite() && (floor..=1.0).contains(&p_after),
            "simsan[admission]: p_admit {p_after} outside [{floor}, 1.0] \
             for (dst {dst}, qos {qos_run})",
        );
        // Bitwise comparison: "did the probability change at all", exact by
        // construction, with no tolerance to tune (AQ004 rationale).
        if self.telemetry.is_enabled() && p_after.to_bits() != p_before.to_bits() {
            self.telemetry.emit(
                now,
                TraceEvent::AdmitProb {
                    host: self.src_host,
                    dst,
                    qos: qos_run,
                    p: p_after,
                    delta: p_after - p_before,
                },
            );
        }
    }

    /// Current admit probability for `(dst, qos)` (1.0 if never touched).
    pub fn admit_probability(&self, dst: usize, qos: u8) -> f64 {
        if (qos as usize) < self.config.levels() {
            if let Some(Some(st)) = self.state.get(self.slot(dst, qos)) {
                return st.p_admit;
            }
        }
        1.0
    }

    /// Total RPCs seen by `on_issue`.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total RPCs downgraded.
    pub fn downgraded(&self) -> u64 {
        self.downgraded
    }

    /// Corruption hook for the simsan fixture tests: force a channel's
    /// admit probability to an out-of-band value.
    #[cfg(test)]
    pub(crate) fn simsan_force_p(&mut self, now: SimTime, dst: usize, qos: u8, p: f64) {
        self.channel_state(now, dst, qos).p_admit = p;
    }

    /// Index of `(dst, qos)` in the dense state table.
    #[inline]
    fn slot(&self, dst: usize, qos: u8) -> usize {
        dst * self.config.levels() + qos as usize
    }

    fn channel_state(&mut self, now: SimTime, dst: usize, qos: u8) -> &mut ChannelQosState {
        debug_assert!((qos as usize) < self.config.levels());
        let idx = self.slot(dst, qos);
        if idx >= self.state.len() {
            self.state.resize(idx + 1, None);
        }
        self.state[idx].get_or_insert(ChannelQosState {
            p_admit: 1.0,
            // Initialize the window anchor so the first increase respects
            // the window from first contact.
            t_last_increase: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(v: f64) -> SimDuration {
        SimDuration::from_us_f64(v)
    }

    fn cfg() -> AequitasConfig {
        AequitasConfig::three_qos(
            SloTarget::per_mtu(us(15.0 / 8.0), 99.9),
            SloTarget::per_mtu(us(25.0 / 8.0), 99.9),
        )
    }

    #[test]
    fn starts_fully_admitting() {
        let mut c = AdmissionController::new(cfg(), 1);
        for i in 0..100 {
            let d = c.on_issue(SimTime::from_us(i), 3, 0, 8);
            assert_eq!(d.qos_run, 0);
            assert!(!d.downgraded);
        }
        assert_eq!(c.downgraded(), 0);
    }

    #[test]
    fn scavenger_never_touched() {
        let mut c = AdmissionController::new(cfg(), 2);
        let d = c.on_issue(SimTime::ZERO, 3, 2, 8);
        assert_eq!(d.qos_run, 2);
        assert!(!d.downgraded);
        // Completions on the scavenger never create state.
        c.on_completion(SimTime::from_us(10), 3, 2, 8, us(10_000.0));
        assert_eq!(c.admit_probability(3, 2), 1.0);
    }

    #[test]
    fn misses_decrease_p_admit_proportional_to_size() {
        let mut c = AdmissionController::new(cfg(), 3);
        // One miss by an 8-MTU RPC: p drops by beta*8 = 0.08.
        c.on_completion(SimTime::from_us(1), 5, 0, 8, us(100.0));
        assert!((c.admit_probability(5, 0) - 0.92).abs() < 1e-12);
        // Eight misses by 1-MTU RPCs: same total drop.
        let mut c2 = AdmissionController::new(cfg(), 3);
        for i in 0..8 {
            c2.on_completion(SimTime::from_us(i), 5, 0, 1, us(100.0));
        }
        assert!((c2.admit_probability(5, 0) - 0.92).abs() < 1e-12);
    }

    #[test]
    fn p_admit_floored() {
        let mut c = AdmissionController::new(cfg(), 4);
        for i in 0..1000 {
            c.on_completion(SimTime::from_us(i), 5, 0, 8, us(100.0));
        }
        assert_eq!(c.admit_probability(5, 0), c.config().floor);
    }

    #[test]
    fn increase_respects_increment_window() {
        let mut c = AdmissionController::new(cfg(), 5);
        // Knock p down first.
        c.on_completion(SimTime::from_us(1), 5, 0, 8, us(100.0));
        let p0 = c.admit_probability(5, 0);
        // Within-target completions inside one window: at most one increase.
        let window = c.config().slos[0].unwrap().increment_window();
        let t1 = SimTime::from_us(2);
        for k in 0..50u64 {
            c.on_completion(t1 + SimDuration::from_ns(k), 5, 0, 8, us(1.0));
        }
        let p1 = c.admit_probability(5, 0);
        assert!(p1 <= p0 + c.config().alpha + 1e-12);
        // After the window passes, another increase is allowed.
        let t2 = t1 + window + SimDuration::from_us(1);
        c.on_completion(t2, 5, 0, 8, us(1.0));
        assert!(c.admit_probability(5, 0) > p1);
    }

    #[test]
    fn increment_window_scales_with_percentile() {
        let slo99 = SloTarget::per_mtu(us(2.0), 99.0);
        let slo999 = SloTarget::per_mtu(us(2.0), 99.9);
        // 99th-p window: x100; 99.9th-p: x1000.
        assert_eq!(slo99.increment_window(), us(200.0));
        assert_eq!(slo999.increment_window(), us(2000.0));
    }

    #[test]
    fn downgrade_rate_tracks_p_admit() {
        let mut c = AdmissionController::new(cfg(), 6);
        // Force p to ~0.5 by alternating misses.
        while c.admit_probability(9, 0) > 0.5 {
            c.on_completion(SimTime::from_us(1), 9, 0, 1, us(100.0));
        }
        let p = c.admit_probability(9, 0);
        let n = 200_000;
        let mut down = 0;
        for i in 0..n {
            let d = c.on_issue(SimTime::from_us(2 + i), 9, 0, 1);
            if d.downgraded {
                assert_eq!(d.qos_run, 2);
                down += 1;
            }
        }
        let frac = down as f64 / n as f64;
        assert!(
            (frac - (1.0 - p)).abs() < 0.01,
            "downgrade fraction {frac} vs 1-p {}",
            1.0 - p
        );
    }

    #[test]
    fn per_destination_isolation() {
        let mut c = AdmissionController::new(cfg(), 7);
        c.on_completion(SimTime::from_us(1), 1, 0, 8, us(100.0));
        assert!(c.admit_probability(1, 0) < 1.0);
        assert_eq!(c.admit_probability(2, 0), 1.0);
    }

    #[test]
    fn per_qos_isolation() {
        let mut c = AdmissionController::new(cfg(), 8);
        c.on_completion(SimTime::from_us(1), 1, 0, 8, us(100.0));
        assert!(c.admit_probability(1, 0) < 1.0);
        assert_eq!(c.admit_probability(1, 1), 1.0);
    }

    #[test]
    fn absolute_slo_constructor() {
        let s = SloTarget::absolute(us(15.0), 8, 99.9);
        assert_eq!(
            s.latency_target_per_mtu,
            SimDuration::from_ps(us(15.0).as_ps() / 8)
        );
    }

    #[test]
    #[should_panic(expected = "scavenger")]
    fn config_requires_scavenger() {
        let bad = AequitasConfig {
            alpha: 0.01,
            beta_per_mtu: 0.01,
            floor: 0.01,
            slos: vec![Some(SloTarget::per_mtu(us(1.0), 99.0))],
            scale_md_by_size: true,
            increment_window_override: None,
        };
        AdmissionController::new(bad, 1);
    }

    /// Fixture: a channel whose admit probability was corrupted above 1.0,
    /// so the next AIMD step lands outside [floor, 1].
    fn corrupted_p_controller() -> AdmissionController {
        let mut c = AdmissionController::new(cfg(), 9);
        c.simsan_force_p(SimTime::ZERO, 5, 0, 5.0);
        c
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "simsan[admission]")]
    fn simsan_catches_out_of_band_p_admit() {
        let mut c = corrupted_p_controller();
        // A miss by a 1-MTU RPC: p = (5.0 - beta).max(floor) = 4.99 > 1.
        c.on_completion(SimTime::from_us(1), 5, 0, 1, us(100.0));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn without_simsan_out_of_band_p_admit_is_silent() {
        let mut c = corrupted_p_controller();
        c.on_completion(SimTime::from_us(1), 5, 0, 1, us(100.0));
        assert!((c.admit_probability(5, 0) - 4.99).abs() < 1e-12);
    }

    proptest! {
        /// p_admit always stays within [floor, 1].
        #[test]
        fn prop_p_admit_bounded(
            events in proptest::collection::vec(
                (0usize..4, 0u8..3, 1u64..20, 0u64..10_000, proptest::bool::ANY),
                1..500,
            )
        ) {
            let mut c = AdmissionController::new(cfg(), 11);
            let floor = c.config().floor;
            let mut t = SimTime::ZERO;
            for (dst, qos, size, dt, miss) in events {
                t += SimDuration::from_ns(dt);
                let rnl = if miss { us(10_000.0) } else { SimDuration::from_ns(1) };
                c.on_completion(t, dst, qos, size, rnl);
                c.on_issue(t, dst, qos, size);
                for d in 0..4 {
                    for q in 0..3u8 {
                        let p = c.admit_probability(d, q);
                        prop_assert!((floor..=1.0).contains(&p), "p={p}");
                    }
                }
            }
        }

        /// A channel whose RPCs always meet the SLO converges back to 1.0.
        #[test]
        fn prop_recovers_to_full_admission(knocks in 1usize..30) {
            let mut c = AdmissionController::new(cfg(), 12);
            let mut t = SimTime::ZERO;
            for _ in 0..knocks {
                t += SimDuration::from_us(1);
                c.on_completion(t, 0, 0, 8, us(1_000.0));
            }
            let window = c.config().slos[0].unwrap().increment_window();
            for _ in 0..20_000 {
                t = t + window + SimDuration::from_us(1);
                c.on_completion(t, 0, 0, 8, SimDuration::from_ns(10));
                if c.admit_probability(0, 0) >= 1.0 {
                    break;
                }
            }
            prop_assert_eq!(c.admit_probability(0, 0), 1.0);
        }
    }
}
