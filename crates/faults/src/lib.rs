//! Deterministic, seeded fault plans for the Aequitas simulator.
//!
//! A [`FaultPlan`] describes adverse fabric conditions — link down/up flaps,
//! whole-switch and correlated pod-level outages, *gray* degradations (a
//! link silently running at a fraction of its capacity, with jitter ramps
//! that creep up over a window), per-link Bernoulli and burst packet loss,
//! packet corruption, added latency jitter, and quota-server unavailability
//! windows. Every decision the plan
//! makes is a **pure function of `(seed, time, entity)`**: there is no
//! mutable RNG stream, so the verdict for a given packet on a given link at a
//! given time does not depend on event ordering, thread count, or how many
//! other faults fired before it. Two runs with the same seed and plan are
//! byte-identical, and debug and release builds of the same run agree (no
//! ambient randomness: clippy's `disallowed_types` bans `RandomState`).
//!
//! The plan is consumed by `aequitas-netsim` (links honor fault state,
//! `PortStats` counts fault drops/corruptions), by the experiments harness
//! (quota-server outage windows), and is loadable from a TOML subset via
//! [`FaultPlan::from_toml_str`] (see `scripts/chaos_smoke.sh` and the README
//! for the schema).

mod toml;

pub use toml::parse_document;

use aequitas_sim_core::{SimDuration, SimTime};

/// A directed link in the simulated fabric, identified by its transmitting
/// endpoint. Fault rules select links with [`LinkSel`]; the engine queries
/// with concrete `LinkId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// The uplink from host `h`'s NIC into the fabric.
    HostUp(usize),
    /// A switch egress port (toward a host or another switch).
    SwitchPort {
        /// Switch index.
        switch: usize,
        /// Egress port index on that switch.
        port: usize,
    },
}

impl LinkId {
    /// A stable 64-bit key for hashing (pure-function determinism).
    fn entity_key(self) -> u64 {
        match self {
            LinkId::HostUp(h) => 0x4000_0000_0000_0000 | h as u64,
            LinkId::SwitchPort { switch, port } => {
                0x8000_0000_0000_0000 | ((switch as u64) << 20) | port as u64
            }
        }
    }
}

/// Which links a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSel {
    /// Every link in the fabric.
    Any,
    /// One host uplink.
    HostUp(usize),
    /// One switch egress port.
    SwitchPort {
        /// Switch index.
        switch: usize,
        /// Egress port index.
        port: usize,
    },
    /// Every egress port of one switch.
    Switch(usize),
    /// Every egress port of every leaf/aggregation switch in one pod.
    /// Requires [`FaultPlan::pod_layout`] so switch ids resolve to pods.
    Pod(usize),
}

impl LinkSel {
    /// Does this selector cover `link`? Pod selectors need the plan's
    /// [`PodLayout`]; without one they match nothing (validation rejects
    /// plans that pair pod selectors with a missing layout).
    pub fn matches_in(self, link: LinkId, layout: Option<&PodLayout>) -> bool {
        match (self, link) {
            (LinkSel::Any, _) => true,
            (LinkSel::HostUp(a), LinkId::HostUp(b)) => a == b,
            (LinkSel::SwitchPort { switch: s, port: p }, LinkId::SwitchPort { switch, port }) => {
                s == switch && p == port
            }
            (LinkSel::Switch(s), LinkId::SwitchPort { switch, .. }) => s == switch,
            (LinkSel::Pod(p), LinkId::SwitchPort { switch, .. }) => {
                layout.and_then(|l| l.pod_of_switch(switch)) == Some(p)
            }
            _ => false,
        }
    }

    /// [`LinkSel::matches_in`] without pod-layout context (pod selectors
    /// match nothing).
    pub fn matches(self, link: LinkId) -> bool {
        self.matches_in(link, None)
    }

    /// Parse the TOML form: `"any"`, `"host:<h>"`, `"switch:<s>"` (whole
    /// switch), `"switch:<s>:<p>"` (one port), or `"pod:<p>"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "any" {
            return Ok(LinkSel::Any);
        }
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["host", h] => h
                .parse()
                .map(LinkSel::HostUp)
                .map_err(|_| format!("bad host index in link selector {s:?}")),
            ["switch", sw] => sw
                .parse()
                .map(LinkSel::Switch)
                .map_err(|_| format!("bad switch index in link selector {s:?}")),
            ["pod", p] => p
                .parse()
                .map(LinkSel::Pod)
                .map_err(|_| format!("bad pod index in link selector {s:?}")),
            ["switch", sw, p] => {
                let switch = sw
                    .parse()
                    .map_err(|_| format!("bad switch index in link selector {s:?}"))?;
                let port = p
                    .parse()
                    .map_err(|_| format!("bad port index in link selector {s:?}"))?;
                Ok(LinkSel::SwitchPort { switch, port })
            }
            _ => Err(format!(
                "bad link selector {s:?} (expected \"any\", \"host:<h>\", \"switch:<s>\", \
                 \"switch:<s>:<p>\", or \"pod:<p>\")"
            )),
        }
    }

    /// Does this selector require a [`PodLayout`] to resolve?
    fn needs_pod_layout(self) -> bool {
        matches!(self, LinkSel::Pod(_))
    }
}

/// How switch ids map onto pods. Mirrors `Topology::clos` (and
/// `ShardSpec::clos_pods`): leaves are `0..pods*leaves_per_pod` pod-major,
/// pod spines follow pod-major, core switches come last and belong to no
/// pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodLayout {
    /// Number of pods.
    pub pods: usize,
    /// Leaf (ToR) switches per pod.
    pub leaves_per_pod: usize,
    /// Aggregation (spine) switches per pod.
    pub spines_per_pod: usize,
}

impl PodLayout {
    /// The pod containing switch `switch`, or `None` for core switches
    /// (and any id past the fabric).
    pub fn pod_of_switch(&self, switch: usize) -> Option<usize> {
        let num_leaves = self.pods * self.leaves_per_pod;
        if switch < num_leaves {
            return Some(switch / self.leaves_per_pod.max(1));
        }
        let spine = switch - num_leaves;
        if spine < self.pods * self.spines_per_pod {
            return Some(spine / self.spines_per_pod.max(1));
        }
        None
    }
}

/// A periodic link down/up flap: the link is down during
/// `[first_down + k*period, first_down + k*period + down)` for `k < count`.
#[derive(Debug, Clone, Copy)]
pub struct LinkFlap {
    /// Links this flap applies to.
    pub link: LinkSel,
    /// Start of the first down window.
    pub first_down: SimTime,
    /// Length of each down window.
    pub down: SimDuration,
    /// Distance between successive down-window starts (>= `down`).
    pub period: SimDuration,
    /// Number of down windows.
    pub count: u32,
}

impl LinkFlap {
    /// The down window containing `now`, if any. `period` must be positive
    /// — [`FaultPlan::validated`] rejects zero periods instead of this
    /// method silently clamping them (a clamped 1 ps period would turn a
    /// TOML typo into a permanently-down link).
    fn window_at(&self, now: SimTime) -> Option<(SimTime, SimTime)> {
        if self.count == 0 || now < self.first_down {
            return None;
        }
        let k = now.since(self.first_down).div_duration(self.period);
        if k >= self.count as u64 {
            return None;
        }
        let start = self.first_down + self.period * k;
        let end = start + self.down;
        (now >= start && now < end).then_some((start, end))
    }

    /// The end of the last down window, or `None` when it lies past the
    /// last representable instant (~213 days).
    fn last_end(&self) -> Option<SimTime> {
        let last_start = self
            .period
            .as_ps()
            .checked_mul(self.count.saturating_sub(1) as u64)?
            .checked_add(self.first_down.as_ps())?;
        Some(SimTime::from_ps(last_start.checked_add(self.down.as_ps())?))
    }
}

/// Elevated loss during deterministically-chosen burst windows.
#[derive(Debug, Clone, Copy)]
pub struct BurstLoss {
    /// Time is bucketed into windows of this length.
    pub period: SimDuration,
    /// Fraction of windows (per link) that are bursts, in `[0, 1]`.
    pub frac: f64,
    /// Loss probability inside a burst window.
    pub prob: f64,
}

/// Per-link packet loss: a base Bernoulli probability plus optional bursts.
#[derive(Debug, Clone, Copy)]
pub struct LossRule {
    /// Links this rule applies to.
    pub link: LinkSel,
    /// Baseline per-packet loss probability.
    pub prob: f64,
    /// Optional burst elevation.
    pub burst: Option<BurstLoss>,
}

/// Per-link packet corruption (the frame is destroyed — the receiver's CRC
/// would reject it — but it is counted separately from clean loss).
#[derive(Debug, Clone, Copy)]
pub struct CorruptRule {
    /// Links this rule applies to.
    pub link: LinkSel,
    /// Per-packet corruption probability.
    pub prob: f64,
}

/// Per-link added latency jitter: each packet is delayed by an extra
/// `uniform[0, max)` drawn from the deterministic hash stream.
#[derive(Debug, Clone, Copy)]
pub struct JitterRule {
    /// Links this rule applies to.
    pub link: LinkSel,
    /// Maximum extra propagation delay.
    pub max: SimDuration,
}

/// A half-open time window `[start, end)`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl Window {
    /// Is `now` inside the window?
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }
}

/// A whole-switch outage: every egress port of `switch` is down during the
/// window. Packets already queued behind the dead ports stay buffered (and
/// may tail-drop) — the switch blackholes, it does not drain gracefully.
#[derive(Debug, Clone, Copy)]
pub struct SwitchOutage {
    /// The switch whose egress ports all go dark.
    pub switch: usize,
    /// The outage window.
    pub window: Window,
}

/// A correlated pod-level outage: every egress port of every leaf and
/// aggregation switch in `pod` is down during the window. Requires
/// [`FaultPlan::pod_layout`].
#[derive(Debug, Clone, Copy)]
pub struct PodOutage {
    /// The failing pod.
    pub pod: usize,
    /// The outage window.
    pub window: Window,
}

/// A gray failure: during `window`, matching links serialize at
/// `rate_frac` of their configured capacity, and per-packet jitter ramps
/// linearly from zero at `window.start` up to `jitter_ramp` at
/// `window.end` — creeping degradation rather than a clean step, the
/// failure mode health checks miss.
#[derive(Debug, Clone, Copy)]
pub struct GrayDegrade {
    /// Links this degradation applies to.
    pub link: LinkSel,
    /// When the link is degraded.
    pub window: Window,
    /// Effective capacity as a fraction of the configured rate, in
    /// `(0, 1]` (1.0 = rate untouched, jitter ramp only).
    pub rate_frac: f64,
    /// Peak extra per-packet delay, reached at the end of the window; each
    /// packet draws `uniform[0, ramp(now))` from the hash stream.
    pub jitter_ramp: SimDuration,
}

/// What the fault layer decided for one packet on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Deliver normally.
    Deliver,
    /// The packet is lost in transit.
    Lose,
    /// The packet is corrupted in transit (dropped, counted separately).
    Corrupt,
}

/// A complete, deterministic fault plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the pure-function hash streams.
    pub seed: u64,
    /// Link down/up flaps.
    pub flaps: Vec<LinkFlap>,
    /// Packet loss rules.
    pub loss: Vec<LossRule>,
    /// Packet corruption rules.
    pub corrupt: Vec<CorruptRule>,
    /// Latency jitter rules.
    pub jitter: Vec<JitterRule>,
    /// Quota-server unavailability windows.
    pub quota_outages: Vec<Window>,
    /// Whole-switch outages.
    pub switch_outages: Vec<SwitchOutage>,
    /// Correlated pod-level outages (require [`FaultPlan::pod_layout`]).
    pub pod_outages: Vec<PodOutage>,
    /// Gray degradations: fractional capacity and/or jitter ramps.
    pub gray: Vec<GrayDegrade>,
    /// How switch ids map onto pods; required by pod outages and
    /// `pod:<p>` selectors, ignored otherwise.
    pub pod_layout: Option<PodLayout>,
}

// Domain-separation salts so the loss, corruption, jitter, burst, and gray
// streams are mutually independent even on the same (seed, link, packet).
const SALT_LOSS: u64 = 0x10_55;
const SALT_CORRUPT: u64 = 0xC0_44;
const SALT_JITTER: u64 = 0x71_77;
const SALT_BURST: u64 = 0xB0_57;
const SALT_GRAY: u64 = 0x64_4A;

/// One round of splitmix64 — the same finalizer `SimRng` seeds with, reused
/// here as a stateless hash so fault decisions need no mutable stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` as a pure function of the inputs.
fn hash01(seed: u64, salt: u64, rule: usize, entity: u64, x: u64) -> f64 {
    let h = splitmix64(
        splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ splitmix64(entity.wrapping_add(rule as u64))
            ^ x,
    );
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Parse a plan from the fault-plan TOML subset (see the README schema).
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        toml::plan_from_toml(text)
    }

    /// Load a plan from a TOML file.
    pub fn from_toml_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading fault plan {}: {e}", path.display()))?;
        Self::from_toml_str(&text)
    }

    /// Sanity-check probabilities, periods, and window shapes; returns
    /// `self` for chaining. Malformed plans are operator input, so errors
    /// are contextful [`Err`]s naming the offending rule, never panics
    /// (the same no-panic-on-input policy `crates/replay` denies
    /// `unwrap`/`expect` for).
    pub fn validated(self) -> Result<Self, String> {
        fn prob(v: f64, what: String) -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{what} out of range [0, 1]: {v}"))
            }
        }
        fn window(w: &Window, what: String) -> Result<(), String> {
            if w.start < w.end {
                Ok(())
            } else {
                Err(format!(
                    "{what} window is empty: start {} ps >= end {} ps",
                    w.start.as_ps(),
                    w.end.as_ps()
                ))
            }
        }
        let layout = self.pod_layout;
        if let Some(l) = &layout {
            if l.pods == 0 || l.leaves_per_pod == 0 {
                return Err(format!(
                    "pod layout is degenerate: pods={} leaves_per_pod={}",
                    l.pods, l.leaves_per_pod
                ));
            }
            let switches = l
                .leaves_per_pod
                .checked_add(l.spines_per_pod)
                .and_then(|per_pod| per_pod.checked_mul(l.pods));
            if switches.is_none() {
                return Err(format!(
                    "pod layout is too large: pods={} x (leaves_per_pod={} + spines_per_pod={}) \
                     switches overflow",
                    l.pods, l.leaves_per_pod, l.spines_per_pod
                ));
            }
        }
        let need_layout = |sel: LinkSel, what: String| -> Result<(), String> {
            if sel.needs_pod_layout() && layout.is_none() {
                Err(format!(
                    "{what} uses a pod selector but the plan has no pod layout \
                     (set pods / leaves_per_pod / spines_per_pod)"
                ))
            } else {
                Ok(())
            }
        };
        for (i, f) in self.flaps.iter().enumerate() {
            let at = format!("[[link_flap]] #{i} ({:?})", f.link);
            if f.period == SimDuration::ZERO {
                return Err(format!("{at}: period must be positive"));
            }
            if f.down == SimDuration::ZERO {
                return Err(format!("{at}: down window must be positive"));
            }
            if f.down > f.period {
                return Err(format!(
                    "{at}: down window ({} ps) longer than period ({} ps)",
                    f.down.as_ps(),
                    f.period.as_ps()
                ));
            }
            if f.last_end().is_none() {
                return Err(format!(
                    "{at}: last down window ends past the last representable instant \
                     (first_down {} ps + period {} ps x (count {} - 1) + down {} ps \
                     overflows the {} ps clock)",
                    f.first_down.as_ps(),
                    f.period.as_ps(),
                    f.count,
                    f.down.as_ps(),
                    u64::MAX
                ));
            }
            need_layout(f.link, at)?;
        }
        for (i, l) in self.loss.iter().enumerate() {
            let at = format!("[[loss]] #{i} ({:?})", l.link);
            prob(l.prob, format!("{at}: prob"))?;
            if let Some(b) = &l.burst {
                prob(b.frac, format!("{at}: burst frac"))?;
                prob(b.prob, format!("{at}: burst prob"))?;
                if b.period == SimDuration::ZERO {
                    return Err(format!("{at}: burst period must be positive"));
                }
            }
            need_layout(l.link, at)?;
        }
        for (i, c) in self.corrupt.iter().enumerate() {
            let at = format!("[[corrupt]] #{i} ({:?})", c.link);
            prob(c.prob, format!("{at}: prob"))?;
            need_layout(c.link, at)?;
        }
        for (i, j) in self.jitter.iter().enumerate() {
            let at = format!("[[jitter]] #{i} ({:?})", j.link);
            if j.max == SimDuration::ZERO {
                return Err(format!("{at}: max must be positive"));
            }
            need_layout(j.link, at)?;
        }
        // A packet's extra delay is the sum of every jitter draw and gray
        // ramp that covers it; bound the sum so `extra_delay` cannot wrap.
        let delays = self.jitter.iter().map(|j| j.max);
        let delays = delays.chain(self.gray.iter().map(|g| g.jitter_ramp));
        let mut total_delay = 0u64;
        for d in delays {
            total_delay = total_delay.checked_add(d.as_ps()).ok_or_else(|| {
                format!(
                    "extra delays (every [[jitter]] max plus every [[gray_degrade]] \
                     jitter_ramp) sum past the {} ps clock",
                    u64::MAX
                )
            })?;
        }
        for (i, w) in self.quota_outages.iter().enumerate() {
            window(w, format!("[[quota_outage]] #{i}"))?;
        }
        for (i, o) in self.switch_outages.iter().enumerate() {
            window(
                &o.window,
                format!("[[switch_outage]] #{i} (switch {})", o.switch),
            )?;
        }
        for (i, o) in self.pod_outages.iter().enumerate() {
            let at = format!("[[pod_outage]] #{i} (pod {})", o.pod);
            window(&o.window, at.clone())?;
            match &layout {
                None => {
                    return Err(format!(
                        "{at}: pod outages need a pod layout \
                         (set pods / leaves_per_pod / spines_per_pod)"
                    ))
                }
                Some(l) if o.pod >= l.pods => {
                    return Err(format!("{at}: pod index >= pods ({})", l.pods))
                }
                Some(_) => {}
            }
        }
        for (i, g) in self.gray.iter().enumerate() {
            let at = format!("[[gray_degrade]] #{i} ({:?})", g.link);
            window(&g.window, at.clone())?;
            if g.window
                .end
                .as_ps()
                .checked_add(g.jitter_ramp.as_ps())
                .is_none()
            {
                return Err(format!(
                    "{at}: window end ({} ps) plus jitter ramp ({} ps) overflows the {} ps clock",
                    g.window.end.as_ps(),
                    g.jitter_ramp.as_ps(),
                    u64::MAX
                ));
            }
            if !(g.rate_frac > 0.0 && g.rate_frac <= 1.0) {
                return Err(format!(
                    "{at}: rate_frac must be in (0, 1], got {}",
                    g.rate_frac
                ));
            }
            if g.rate_frac >= 1.0 && g.jitter_ramp == SimDuration::ZERO {
                return Err(format!(
                    "{at}: rule has no effect (rate_frac 1.0 and no jitter ramp)"
                ));
            }
            need_layout(g.link, at)?;
        }
        Ok(self)
    }

    /// Does the plan contain any per-packet or per-link fabric faults? Lets
    /// the engine skip all fault queries on the hot path when false.
    pub fn affects_fabric(&self) -> bool {
        // Exhaustive destructuring: adding a `FaultPlan` field without
        // deciding whether it belongs in this predicate is a compile error
        // (a forgotten entry would silently disable the fault kind on the
        // hot path).
        let FaultPlan {
            seed: _,
            flaps,
            loss,
            corrupt,
            jitter,
            quota_outages: _, // control-plane only: never queried per-packet
            switch_outages,
            pod_outages,
            gray,
            pod_layout: _, // shape metadata, not a fault source
        } = self;
        !(flaps.is_empty()
            && loss.is_empty()
            && corrupt.is_empty()
            && jitter.is_empty()
            && switch_outages.is_empty()
            && pod_outages.is_empty()
            && gray.is_empty())
    }

    /// The end of the latest down window covering `now` on `link`
    /// (flaps, whole-switch outages, and pod outages all count), or `None`
    /// when the link is up.
    fn down_until(&self, link: LinkId, now: SimTime) -> Option<SimTime> {
        let layout = self.pod_layout.as_ref();
        let mut until: Option<SimTime> = None;
        let mut bump = |end: SimTime| until = Some(until.map_or(end, |u| u.max(end)));
        for f in &self.flaps {
            if f.link.matches_in(link, layout) {
                if let Some((_, end)) = f.window_at(now) {
                    bump(end);
                }
            }
        }
        if let LinkId::SwitchPort { switch, .. } = link {
            for o in &self.switch_outages {
                if o.switch == switch && o.window.contains(now) {
                    bump(o.window.end);
                }
            }
            if !self.pod_outages.is_empty() {
                if let Some(pod) = layout.and_then(|l| l.pod_of_switch(switch)) {
                    for o in &self.pod_outages {
                        if o.pod == pod && o.window.contains(now) {
                            bump(o.window.end);
                        }
                    }
                }
            }
        }
        until
    }

    /// Is `link` down at `now`?
    pub fn link_down(&self, link: LinkId, now: SimTime) -> bool {
        self.down_until(link, now).is_some()
    }

    /// When the down window covering `now` ends (the latest end across all
    /// matching flaps and outages, chased through overlaps so chained
    /// windows coalesce). Returns `now` when the link is not down — callers
    /// re-check after waking.
    pub fn link_up_at(&self, link: LinkId, now: SimTime) -> SimTime {
        let mut up = now;
        // A wake at one window's end may land inside another rule's window.
        while let Some(end) = self.down_until(link, up) {
            debug_assert!(end > up, "down window must extend past its interior");
            up = end;
        }
        up
    }

    /// Effective capacity of `link` at `now` as a fraction of its
    /// configured rate: the minimum `rate_frac` across matching gray rules
    /// whose window covers `now` (1.0 = healthy). The engine stretches
    /// serialization time by the reciprocal.
    pub fn gray_rate_frac(&self, link: LinkId, now: SimTime) -> f64 {
        let layout = self.pod_layout.as_ref();
        let mut frac = 1.0f64;
        for g in &self.gray {
            if g.window.contains(now) && g.link.matches_in(link, layout) {
                frac = frac.min(g.rate_frac);
            }
        }
        frac
    }

    /// Decide the fate of packet `pkt_id` crossing `link` at `now`.
    /// Corruption is evaluated before clean loss so the two counters are
    /// disjoint.
    pub fn packet_fate(&self, link: LinkId, pkt_id: u64, now: SimTime) -> PacketFate {
        let layout = self.pod_layout.as_ref();
        let entity = link.entity_key();
        for (i, c) in self.corrupt.iter().enumerate() {
            if c.link.matches_in(link, layout)
                && c.prob > 0.0
                && hash01(self.seed, SALT_CORRUPT, i, entity, pkt_id) < c.prob
            {
                return PacketFate::Corrupt;
            }
        }
        for (i, l) in self.loss.iter().enumerate() {
            if !l.link.matches_in(link, layout) {
                continue;
            }
            let mut prob = l.prob;
            if let Some(b) = &l.burst {
                // Burst period is validated positive.
                let bucket = now.since(SimTime::ZERO).div_duration(b.period);
                if hash01(self.seed, SALT_BURST, i, entity, bucket) < b.frac {
                    prob = prob.max(b.prob);
                }
            }
            if prob > 0.0 && hash01(self.seed, SALT_LOSS, i, entity, pkt_id) < prob {
                return PacketFate::Lose;
            }
        }
        PacketFate::Deliver
    }

    /// Extra propagation delay for packet `pkt_id` crossing `link` at
    /// `now`: run-long uniform jitter rules plus gray jitter *ramps*, whose
    /// cap grows linearly from zero at the window start to `jitter_ramp` at
    /// the window end. The draw itself stays a pure function of
    /// `(seed, link, pkt_id)`; only the cap depends on time.
    pub fn extra_delay(&self, link: LinkId, pkt_id: u64, now: SimTime) -> SimDuration {
        let layout = self.pod_layout.as_ref();
        let entity = link.entity_key();
        let mut extra = SimDuration::ZERO;
        for (i, j) in self.jitter.iter().enumerate() {
            if j.link.matches_in(link, layout) && j.max > SimDuration::ZERO {
                extra += j
                    .max
                    .mul_f64(hash01(self.seed, SALT_JITTER, i, entity, pkt_id));
            }
        }
        for (i, g) in self.gray.iter().enumerate() {
            if g.jitter_ramp > SimDuration::ZERO
                && g.window.contains(now)
                && g.link.matches_in(link, layout)
            {
                let span = g.window.end.since(g.window.start).as_ps();
                let elapsed = now.since(g.window.start).as_ps();
                // Windows are validated non-empty, so span > 0.
                let cap = g.jitter_ramp.mul_f64(elapsed as f64 / span as f64);
                extra += cap.mul_f64(hash01(self.seed, SALT_GRAY, i, entity, pkt_id));
            }
        }
        extra
    }

    /// Is the quota server unreachable at `now`?
    pub fn quota_server_down(&self, now: SimTime) -> bool {
        self.quota_outages.iter().any(|w| w.contains(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_us(v)
    }

    fn dus(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    fn flap_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            flaps: vec![LinkFlap {
                link: LinkSel::SwitchPort { switch: 0, port: 2 },
                first_down: us(100),
                down: dus(50),
                period: dus(200),
                count: 2,
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn flap_windows_are_periodic_and_bounded() {
        let p = flap_plan();
        let l = LinkId::SwitchPort { switch: 0, port: 2 };
        assert!(!p.link_down(l, us(99)));
        assert!(p.link_down(l, us(100)));
        assert!(p.link_down(l, us(149)));
        assert!(!p.link_down(l, us(150)));
        assert!(p.link_down(l, us(300))); // second window
        assert!(!p.link_down(l, us(500))); // count exhausted
        assert!(!p.link_down(LinkId::HostUp(0), us(120))); // other link
        assert_eq!(p.link_up_at(l, us(120)), us(150));
    }

    #[test]
    fn overlapping_flap_windows_coalesce_for_wakeup() {
        let mut p = flap_plan();
        p.flaps.push(LinkFlap {
            link: LinkSel::Any,
            first_down: us(140),
            down: dus(30),
            period: dus(1000),
            count: 1,
        });
        let l = LinkId::SwitchPort { switch: 0, port: 2 };
        // First flap ends at 150, second covers [140,170): wake must chase
        // through to 170.
        assert_eq!(p.link_up_at(l, us(120)), us(170));
    }

    #[test]
    fn loss_rate_matches_probability() {
        let p = FaultPlan {
            seed: 42,
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.3,
                burst: None,
            }],
            ..FaultPlan::default()
        };
        let l = LinkId::HostUp(0);
        let lost = (0..20_000)
            .filter(|&i| p.packet_fate(l, i, us(1)) == PacketFate::Lose)
            .count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn fate_is_pure_function_of_inputs() {
        let p = FaultPlan {
            seed: 3,
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.5,
                burst: Some(BurstLoss {
                    period: dus(10),
                    frac: 0.5,
                    prob: 0.9,
                }),
            }],
            jitter: vec![JitterRule {
                link: LinkSel::Any,
                max: dus(2),
            }],
            ..FaultPlan::default()
        };
        let l = LinkId::SwitchPort { switch: 1, port: 3 };
        for pkt in 0..100u64 {
            // Same inputs, same answers — regardless of query order.
            assert_eq!(p.packet_fate(l, pkt, us(5)), p.packet_fate(l, pkt, us(5)));
            assert_eq!(p.extra_delay(l, pkt, us(5)), p.extra_delay(l, pkt, us(5)));
        }
        // Different seed decorrelates.
        let p2 = FaultPlan {
            seed: 4,
            ..p.clone()
        };
        let same = (0..1000u64)
            .filter(|&i| p.packet_fate(l, i, us(5)) == p2.packet_fate(l, i, us(5)))
            .count();
        assert!(same < 1000, "seed change must alter some verdicts");
    }

    #[test]
    fn burst_windows_elevate_loss() {
        let p = FaultPlan {
            seed: 9,
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.0,
                burst: Some(BurstLoss {
                    period: dus(100),
                    frac: 0.5,
                    prob: 1.0,
                }),
            }],
            ..FaultPlan::default()
        };
        let l = LinkId::HostUp(1);
        // Each 100us bucket is either all-loss or no-loss; roughly half the
        // buckets burst.
        let mut burst_buckets = 0;
        for bucket in 0..200u64 {
            let t = SimTime::from_us(bucket * 100 + 50);
            let lost = (0..32)
                .filter(|&i| p.packet_fate(l, bucket * 1000 + i, t) == PacketFate::Lose)
                .count();
            assert!(
                lost == 0 || lost == 32,
                "bucket must be uniform, got {lost}/32"
            );
            if lost == 32 {
                burst_buckets += 1;
            }
        }
        assert!(
            (40..=160).contains(&burst_buckets),
            "{burst_buckets} burst buckets"
        );
    }

    #[test]
    fn corruption_and_loss_are_distinct_fates() {
        let p = FaultPlan {
            seed: 11,
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.2,
                burst: None,
            }],
            corrupt: vec![CorruptRule {
                link: LinkSel::Any,
                prob: 0.2,
            }],
            ..FaultPlan::default()
        };
        let l = LinkId::HostUp(0);
        let mut lose = 0;
        let mut corrupt = 0;
        for i in 0..10_000 {
            match p.packet_fate(l, i, us(1)) {
                PacketFate::Lose => lose += 1,
                PacketFate::Corrupt => corrupt += 1,
                PacketFate::Deliver => {}
            }
        }
        assert!(
            lose > 1000 && corrupt > 1000,
            "lose={lose} corrupt={corrupt}"
        );
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let p = FaultPlan {
            seed: 5,
            jitter: vec![JitterRule {
                link: LinkSel::HostUp(0),
                max: dus(3),
            }],
            ..FaultPlan::default()
        };
        for i in 0..1000u64 {
            let d = p.extra_delay(LinkId::HostUp(0), i, us(1));
            assert!(d < dus(3));
        }
        assert_eq!(
            p.extra_delay(LinkId::HostUp(1), 0, us(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn quota_outage_windows() {
        let p = FaultPlan {
            quota_outages: vec![Window {
                start: us(10),
                end: us(20),
            }],
            ..FaultPlan::default()
        };
        assert!(!p.quota_server_down(us(9)));
        assert!(p.quota_server_down(us(10)));
        assert!(p.quota_server_down(us(19)));
        assert!(!p.quota_server_down(us(20)));
    }

    #[test]
    fn link_selector_parsing() {
        assert_eq!(LinkSel::parse("any").unwrap(), LinkSel::Any);
        assert_eq!(LinkSel::parse("host:3").unwrap(), LinkSel::HostUp(3));
        assert_eq!(
            LinkSel::parse("switch:0:2").unwrap(),
            LinkSel::SwitchPort { switch: 0, port: 2 }
        );
        assert_eq!(LinkSel::parse("switch:4").unwrap(), LinkSel::Switch(4));
        assert_eq!(LinkSel::parse("pod:1").unwrap(), LinkSel::Pod(1));
        assert!(LinkSel::parse("spine:1").is_err());
        assert!(LinkSel::parse("host:x").is_err());
        assert!(LinkSel::parse("pod:x").is_err());
        assert!(LinkSel::parse("switch:1:2:3").is_err());
    }

    // -- window-math edge cases ---------------------------------------------

    #[test]
    fn flap_with_down_equal_to_period_is_continuously_down() {
        let p = FaultPlan {
            flaps: vec![LinkFlap {
                link: LinkSel::HostUp(0),
                first_down: us(100),
                down: dus(50),
                period: dus(50),
                count: 3,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .expect("down == period is a legal back-to-back flap");
        let l = LinkId::HostUp(0);
        // Back-to-back windows [100,150) [150,200) [200,250): no gap.
        for t in 100..250 {
            assert!(p.link_down(l, us(t)), "t={t}");
        }
        assert!(!p.link_down(l, us(250)));
        // The wake chases through all three chained windows at once.
        assert_eq!(p.link_up_at(l, us(101)), us(250));
    }

    #[test]
    fn flap_last_window_boundary_and_count_exhaustion() {
        let p = flap_plan(); // first_down 100us, down 50us, period 200us, count 2
        let l = LinkId::SwitchPort { switch: 0, port: 2 };
        // Last (second) window is [300, 350).
        assert!(p.link_down(l, us(349)));
        assert!(!p.link_down(l, us(350)), "last-window end is exclusive");
        // Exactly at the start of what would be window 3: count exhausted.
        assert!(!p.link_down(l, us(500)));
        assert!(!p.link_down(l, us(10_000)));
        // Wake from inside the last window lands exactly at its end.
        assert_eq!(p.link_up_at(l, us(300)), us(350));
        assert_eq!(p.link_up_at(l, us(350)), us(350));
    }

    // -- validation ---------------------------------------------------------

    #[test]
    fn zero_period_flap_is_rejected_not_clamped() {
        let err = FaultPlan {
            flaps: vec![LinkFlap {
                link: LinkSel::HostUp(0),
                first_down: us(1),
                down: SimDuration::ZERO,
                period: SimDuration::ZERO,
                count: 1,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap_err();
        assert!(err.contains("period must be positive"), "{err}");
        assert!(err.contains("[[link_flap]] #0"), "names the rule: {err}");
    }

    #[test]
    fn validation_errors_name_the_offending_rule() {
        let err = FaultPlan {
            jitter: vec![
                JitterRule {
                    link: LinkSel::Any,
                    max: dus(1),
                },
                JitterRule {
                    link: LinkSel::HostUp(3),
                    max: SimDuration::ZERO,
                },
            ],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap_err();
        assert!(err.contains("[[jitter]] #1"), "{err}");

        let err = FaultPlan {
            gray: vec![GrayDegrade {
                link: LinkSel::Switch(2),
                window: Window {
                    start: us(10),
                    end: us(20),
                },
                rate_frac: 1.5,
                jitter_ramp: SimDuration::ZERO,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap_err();
        assert!(err.contains("rate_frac"), "{err}");

        let err = FaultPlan {
            pod_outages: vec![PodOutage {
                pod: 0,
                window: Window {
                    start: us(10),
                    end: us(20),
                },
            }],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap_err();
        assert!(err.contains("pod layout"), "{err}");

        let err = FaultPlan {
            switch_outages: vec![SwitchOutage {
                switch: 1,
                window: Window {
                    start: us(20),
                    end: us(20),
                },
            }],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap_err();
        assert!(err.contains("window is empty"), "{err}");
    }

    // -- new fault kinds ----------------------------------------------------

    #[test]
    fn switch_outage_downs_every_port_of_that_switch_only() {
        let p = FaultPlan {
            switch_outages: vec![SwitchOutage {
                switch: 2,
                window: Window {
                    start: us(100),
                    end: us(200),
                },
            }],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap();
        for port in 0..8 {
            let l = LinkId::SwitchPort { switch: 2, port };
            assert!(!p.link_down(l, us(99)));
            assert!(p.link_down(l, us(100)));
            assert!(p.link_down(l, us(199)));
            assert!(!p.link_down(l, us(200)));
            assert_eq!(p.link_up_at(l, us(150)), us(200));
        }
        assert!(!p.link_down(LinkId::SwitchPort { switch: 1, port: 0 }, us(150)));
        assert!(!p.link_down(LinkId::HostUp(2), us(150)));
        assert!(p.affects_fabric());
    }

    fn layout222() -> PodLayout {
        PodLayout {
            pods: 2,
            leaves_per_pod: 2,
            spines_per_pod: 2,
        }
    }

    #[test]
    fn pod_layout_maps_clos_switch_ids() {
        let l = layout222();
        // Leaves 0..4 pod-major, spines 4..8 pod-major, cores 8+ podless.
        assert_eq!(l.pod_of_switch(0), Some(0));
        assert_eq!(l.pod_of_switch(1), Some(0));
        assert_eq!(l.pod_of_switch(2), Some(1));
        assert_eq!(l.pod_of_switch(3), Some(1));
        assert_eq!(l.pod_of_switch(4), Some(0));
        assert_eq!(l.pod_of_switch(5), Some(0));
        assert_eq!(l.pod_of_switch(6), Some(1));
        assert_eq!(l.pod_of_switch(7), Some(1));
        assert_eq!(l.pod_of_switch(8), None);
        assert_eq!(l.pod_of_switch(9), None);
    }

    #[test]
    fn pod_outage_downs_every_switch_in_the_pod() {
        let p = FaultPlan {
            pod_outages: vec![PodOutage {
                pod: 1,
                window: Window {
                    start: us(50),
                    end: us(90),
                },
            }],
            pod_layout: Some(layout222()),
            ..FaultPlan::default()
        }
        .validated()
        .unwrap();
        for switch in [2usize, 3, 6, 7] {
            assert!(
                p.link_down(LinkId::SwitchPort { switch, port: 0 }, us(60)),
                "switch {switch} is in pod 1"
            );
        }
        for switch in [0usize, 1, 4, 5, 8] {
            assert!(
                !p.link_down(LinkId::SwitchPort { switch, port: 0 }, us(60)),
                "switch {switch} is outside pod 1"
            );
        }
        assert!(!p.link_down(LinkId::SwitchPort { switch: 2, port: 0 }, us(90)));
    }

    #[test]
    fn overlapping_switch_outage_and_flap_coalesce_for_wakeup() {
        let mut p = flap_plan(); // flap on switch 0 port 2: [100,150)
        p.switch_outages.push(SwitchOutage {
            switch: 0,
            window: Window {
                start: us(140),
                end: us(180),
            },
        });
        let p = p.validated().unwrap();
        let l = LinkId::SwitchPort { switch: 0, port: 2 };
        assert_eq!(p.link_up_at(l, us(120)), us(180));
    }

    #[test]
    fn gray_rate_frac_is_windowed_and_takes_the_minimum() {
        let p = FaultPlan {
            gray: vec![
                GrayDegrade {
                    link: LinkSel::Switch(1),
                    window: Window {
                        start: us(100),
                        end: us(300),
                    },
                    rate_frac: 0.5,
                    jitter_ramp: SimDuration::ZERO,
                },
                GrayDegrade {
                    link: LinkSel::SwitchPort { switch: 1, port: 3 },
                    window: Window {
                        start: us(200),
                        end: us(400),
                    },
                    rate_frac: 0.1,
                    jitter_ramp: SimDuration::ZERO,
                },
            ],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap();
        let port3 = LinkId::SwitchPort { switch: 1, port: 3 };
        let port0 = LinkId::SwitchPort { switch: 1, port: 0 };
        assert_eq!(p.gray_rate_frac(port3, us(50)), 1.0);
        assert_eq!(p.gray_rate_frac(port3, us(150)), 0.5);
        assert_eq!(
            p.gray_rate_frac(port3, us(250)),
            0.1,
            "overlap takes the min"
        );
        assert_eq!(p.gray_rate_frac(port3, us(350)), 0.1);
        assert_eq!(p.gray_rate_frac(port3, us(400)), 1.0);
        assert_eq!(p.gray_rate_frac(port0, us(250)), 0.5);
        assert_eq!(p.gray_rate_frac(LinkId::HostUp(1), us(250)), 1.0);
        // A gray-degraded link is slow, not down.
        assert!(!p.link_down(port3, us(250)));
        assert!(p.affects_fabric());
    }

    #[test]
    fn gray_jitter_ramps_up_over_the_window() {
        let p = FaultPlan {
            seed: 21,
            gray: vec![GrayDegrade {
                link: LinkSel::HostUp(0),
                window: Window {
                    start: us(1000),
                    end: us(2000),
                },
                rate_frac: 1.0,
                jitter_ramp: dus(10),
            }],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap();
        let l = LinkId::HostUp(0);
        let max_at = |t: u64| {
            (0..2000u64)
                .map(|i| p.extra_delay(l, i, us(t)))
                .max()
                .unwrap()
        };
        assert_eq!(max_at(999), SimDuration::ZERO, "before the window");
        // Early in the window the cap is ~1% of the ramp; near the end ~99%.
        assert!(max_at(1010) <= dus(10).mul_f64(0.011));
        let late = max_at(1990);
        assert!(late > dus(10).mul_f64(0.9), "late cap {late:?}");
        assert!(late < dus(10), "never exceeds the ramp");
        assert_eq!(max_at(2000), SimDuration::ZERO, "after the window");
        // Determinism: same (pkt, t) -> same draw.
        assert_eq!(p.extra_delay(l, 7, us(1500)), p.extra_delay(l, 7, us(1500)));
    }

    #[test]
    fn affects_fabric_is_exhaustive_over_fault_kinds() {
        let w = Window {
            start: us(1),
            end: us(2),
        };
        assert!(!FaultPlan::default().affects_fabric());
        // Quota outages are control-plane only.
        let quota = FaultPlan {
            quota_outages: vec![w],
            ..FaultPlan::default()
        };
        assert!(!quota.affects_fabric());
        // Every fabric-side fault kind flips the predicate on its own.
        let fabric_plans = [
            FaultPlan {
                flaps: vec![LinkFlap {
                    link: LinkSel::Any,
                    first_down: us(1),
                    down: dus(1),
                    period: dus(2),
                    count: 1,
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                loss: vec![LossRule {
                    link: LinkSel::Any,
                    prob: 0.1,
                    burst: None,
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                corrupt: vec![CorruptRule {
                    link: LinkSel::Any,
                    prob: 0.1,
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                jitter: vec![JitterRule {
                    link: LinkSel::Any,
                    max: dus(1),
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                switch_outages: vec![SwitchOutage {
                    switch: 0,
                    window: w,
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                pod_outages: vec![PodOutage { pod: 0, window: w }],
                pod_layout: Some(layout222()),
                ..FaultPlan::default()
            },
            FaultPlan {
                gray: vec![GrayDegrade {
                    link: LinkSel::Any,
                    window: w,
                    rate_frac: 0.5,
                    jitter_ramp: SimDuration::ZERO,
                }],
                ..FaultPlan::default()
            },
        ];
        for (i, plan) in fabric_plans.into_iter().enumerate() {
            let plan = plan.validated().unwrap_or_else(|e| panic!("plan {i}: {e}"));
            assert!(plan.affects_fabric(), "fabric fault kind {i}");
        }
    }

    proptest! {
        /// The fate of any packet never depends on the query time except
        /// through burst buckets (here: no bursts configured).
        #[test]
        fn prop_fate_time_invariant_without_bursts(
            seed in 0u64..1000, pkt in 0u64..100_000, t1 in 0u64..10_000, t2 in 0u64..10_000
        ) {
            let p = FaultPlan {
                seed,
                loss: vec![LossRule { link: LinkSel::Any, prob: 0.5, burst: None }],
                ..FaultPlan::default()
            };
            let l = LinkId::HostUp(0);
            prop_assert_eq!(p.packet_fate(l, pkt, us(t1)), p.packet_fate(l, pkt, us(t2)));
        }
    }
}
