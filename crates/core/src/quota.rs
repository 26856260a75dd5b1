//! Tenant rate guarantees via a centralized RPC quota server — the paper's
//! §5.2 future-work extension, implemented.
//!
//! Aequitas alone guarantees *latency* for admitted traffic but "does not
//! guarantee the amount of traffic admitted on a per-application or
//! per-tenant basis — wherein the admitted traffic depends on the number of
//! co-existing applications/tenants... One can augment Aequitas to provide
//! application/tenant traffic rate guarantees with a centralized RPC quota
//! server, and we leave this for future work."
//!
//! This module provides that augmentation:
//!
//! * [`QuotaServer`] — a logically centralized allocator. Tenants register
//!   a guaranteed admitted rate per QoS. Each allocation round the server
//!   takes usage reports, clips guarantees to the admissible capacity
//!   (pro-rata when oversubscribed), and hands every tenant a token rate.
//! * [`QuotaBucket`] — the host-side enforcement point: a token bucket
//!   refilled at the granted rate. RPCs covered by tokens **bypass the
//!   admission coin flip** (they are within the tenant's paid-for share);
//!   RPCs beyond the bucket fall through to normal Algorithm 1 admission,
//!   competing for whatever headroom the SLO leaves.
//!
//! The control plane (reports up, grants down) is carried out-of-band by
//! the experiment harness at a configurable sync period — in production
//! this would be an RPC service; its latency only affects how fast grants
//! track demand shifts, not the data path.

use aequitas_sim_core::{SimDuration, SimTime};
use std::collections::HashMap;

/// Identifies a tenant (application) across hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// A tenant's registered guarantee on one QoS level.
#[derive(Debug, Clone, Copy)]
pub struct QuotaSpec {
    /// QoS level the guarantee applies to.
    pub qos: u8,
    /// Guaranteed admitted rate, bytes per second.
    pub guaranteed_bps: f64,
}

/// A usage report from one host for one tenant.
#[derive(Debug, Clone, Copy)]
pub struct UsageReport {
    /// Reporting tenant.
    pub tenant: TenantId,
    /// Bytes the tenant *offered* on the guaranteed QoS since the last
    /// report (admitted + downgraded).
    pub offered_bytes: u64,
}

/// Per-tenant grant for the next period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Token refill rate in bytes per second.
    pub rate_bps: f64,
}

/// The centralized quota allocator.
///
/// Capacity accounting is in *admitted* bytes on the guaranteed QoS: the
/// operator provides the admissible rate for that QoS (e.g. from the
/// analysis crate's admissible-share tooling), and the server never grants
/// more than that in aggregate — guarantees are clipped pro-rata when the
/// sum of registrations exceeds the admissible rate.
#[derive(Debug, Clone)]
pub struct QuotaServer {
    /// Admissible admitted-rate per QoS level, bytes/sec.
    capacity_bps: Vec<f64>,
    /// Dense per-tenant registry indexed directly by `TenantId.0`; `None`
    /// marks an unregistered id. Tenant ids are small dense integers in
    /// every harness, so direct indexing replaces hashing on the per-round
    /// allocation path, and iterating in index order is already the sorted
    /// order the float accumulations below need (det: no map iteration
    /// order can leak into results).
    specs: Vec<Option<QuotaSpec>>,
    /// Cumulative offered bytes per tenant, indexed like `specs`.
    last_usage: Vec<u64>,
}

impl QuotaServer {
    /// Create a server with the admissible capacity of each QoS level.
    pub fn new(capacity_bps: Vec<f64>) -> Self {
        assert!(!capacity_bps.is_empty());
        assert!(capacity_bps.iter().all(|&c| c >= 0.0));
        QuotaServer {
            capacity_bps,
            specs: Vec::new(),
            last_usage: Vec::new(),
        }
    }

    fn grow_to(&mut self, tenant: TenantId) -> usize {
        let i = tenant.0 as usize;
        if i >= self.specs.len() {
            self.specs.resize(i + 1, None);
            self.last_usage.resize(i + 1, 0);
        }
        i
    }

    /// Register (or update) a tenant's guarantee.
    pub fn register(&mut self, tenant: TenantId, spec: QuotaSpec) {
        assert!((spec.qos as usize) < self.capacity_bps.len());
        assert!(spec.guaranteed_bps >= 0.0);
        let i = self.grow_to(tenant);
        self.specs[i] = Some(spec);
    }

    /// Registered tenants, in ascending id order.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &QuotaSpec)> {
        self.specs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (TenantId(i as u32), s)))
    }

    /// One allocation round: ingest usage reports and return per-tenant
    /// grants.
    ///
    /// Allocation is water-filling per QoS level:
    /// 1. every tenant is granted `min(guarantee, demand)` — unused
    ///    guarantee does not hoard capacity;
    /// 2. if step 1 oversubscribes the admissible capacity, grants are
    ///    scaled pro-rata to guarantees;
    /// 3. leftover capacity is split among tenants whose demand exceeded
    ///    their guarantee, proportionally to their guarantees (weighted
    ///    max-min, mirroring WFQ semantics).
    pub fn allocate(
        &mut self,
        reports: &[UsageReport],
        period: SimDuration,
    ) -> HashMap<TenantId, Grant> {
        let period_secs = period.as_secs_f64().max(1e-9);
        // Aggregate demand per tenant (bytes/sec over the report period)
        // into a dense table indexed by tenant id — no hashing, and reading
        // it back during water-filling is an array load.
        let mut demand: Vec<f64> = vec![0.0; self.specs.len()];
        for r in reports {
            let i = r.tenant.0 as usize;
            if i >= demand.len() {
                demand.resize(i + 1, 0.0);
            }
            self.grow_to(r.tenant);
            demand[i] += r.offered_bytes as f64 / period_secs;
            self.last_usage[i] += r.offered_bytes;
        }

        // det: the returned map is documented as keyed-lookup only; the
        // values are computed from the ascending-id member list, so the
        // map's own order never reaches any result.
        let mut grants: HashMap<TenantId, Grant> = HashMap::new();
        for qos in 0..self.capacity_bps.len() {
            // Dense iteration is already ascending-id, so every f64
            // accumulation below is order-stable across runs and processes.
            let members: Vec<(u32, QuotaSpec)> = self
                .specs
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.filter(|s| s.qos as usize == qos).map(|s| (i as u32, s)))
                .collect();
            if members.is_empty() {
                continue;
            }
            let capacity = self.capacity_bps[qos]; // bytes/sec
                                                   // Step 1: base = min(guarantee, demand), positionally aligned
                                                   // with `members`.
            let mut base: Vec<f64> = Vec::with_capacity(members.len());
            let mut base_total = 0.0;
            for (id, s) in &members {
                let b = s.guaranteed_bps.min(demand[*id as usize]);
                base.push(b);
                base_total += b;
            }
            // Step 2: pro-rata clip if oversubscribed.
            let scale = if base_total > capacity && base_total > 0.0 {
                capacity / base_total
            } else {
                1.0
            };
            for b in &mut base {
                *b *= scale;
            }
            // Step 3: weighted distribution of leftover to tenants whose
            // demand exceeds their base grant. `hungry` carries positions
            // into `members`/`base`.
            let mut leftover = (capacity - base.iter().sum::<f64>()).max(0.0);
            let mut hungry: Vec<(usize, f64)> = members
                .iter()
                .enumerate()
                .filter(|(k, (id, _))| demand[*id as usize] > base[*k] + 1e-9)
                .map(|(k, (_, s))| (k, s.guaranteed_bps.max(1.0)))
                .collect();
            // Iterative water-filling: cap each hungry tenant at its demand.
            while leftover > 1e-6 && !hungry.is_empty() {
                let weight_total: f64 = hungry.iter().map(|(_, w)| w).sum();
                let mut next_hungry = Vec::new();
                let mut distributed = 0.0;
                for &(k, w) in &hungry {
                    let offer = leftover * w / weight_total;
                    let need = demand[members[k].0 as usize] - base[k];
                    let take = offer.min(need.max(0.0));
                    base[k] += take;
                    distributed += take;
                    if take >= offer - 1e-9 {
                        next_hungry.push((k, w));
                    }
                }
                leftover -= distributed;
                if distributed <= 1e-9 {
                    break;
                }
                hungry = next_hungry;
            }
            for (k, (id, _)) in members.iter().enumerate() {
                grants.insert(TenantId(*id), Grant { rate_bps: base[k] });
            }
        }
        grants
    }
}

/// How a host degrades when the quota server is unreachable.
///
/// The control plane (reports up, grants down) is best-effort: when the
/// server misses sync rounds — crashed, partitioned, overloaded — hosts must
/// neither freeze their last grant forever (the allocation goes stale while
/// demand shifts) nor drop to zero (guaranteed tenants would lose their
/// share to an outage they didn't cause). The fallback decays the
/// last-known grant geometrically per missed round toward a configurable
/// floor, trading staleness risk against guarantee continuity.
#[derive(Debug, Clone, Copy)]
pub struct FallbackConfig {
    /// Multiplier applied to the remembered rate per missed sync round.
    pub decay: f64,
    /// Floor, as a fraction of the last server-issued rate. The decayed
    /// grant never drops below `floor_frac * last_rate`.
    pub floor_frac: f64,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        FallbackConfig {
            decay: 0.9,
            floor_frac: 0.25,
        }
    }
}

/// Host-side grant failover: remembers the last grant the quota server
/// actually issued and synthesizes decayed grants while the server is
/// unreachable.
///
/// Drive it from the control loop: call [`GrantKeeper::on_grant`] whenever
/// a real grant arrives and [`GrantKeeper::on_missed_round`] on every sync
/// tick the server failed to answer. The first real grant after an outage
/// snaps the rate back to the server's allocation.
#[derive(Debug, Clone)]
pub struct GrantKeeper {
    config: FallbackConfig,
    last_grant: Option<Grant>,
    missed_rounds: u32,
}

impl GrantKeeper {
    /// New keeper; no grant is synthesized until a first real one arrives.
    pub fn new(config: FallbackConfig) -> Self {
        assert!(
            config.decay > 0.0 && config.decay <= 1.0,
            "decay must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&config.floor_frac),
            "floor_frac must be in [0, 1]"
        );
        GrantKeeper {
            config,
            last_grant: None,
            missed_rounds: 0,
        }
    }

    /// A real grant arrived: remember it and end any outage.
    pub fn on_grant(&mut self, grant: Grant) -> Grant {
        self.last_grant = Some(grant);
        self.missed_rounds = 0;
        grant
    }

    /// The server missed a sync round: return the decayed fallback grant to
    /// apply, or `None` when no grant was ever received (nothing to fall
    /// back on — the bucket stays at its initial rate).
    pub fn on_missed_round(&mut self) -> Option<Grant> {
        let last = self.last_grant?;
        self.missed_rounds = self.missed_rounds.saturating_add(1);
        let decayed = self.config.decay.powi(self.missed_rounds.min(1000) as i32);
        let frac = decayed.max(self.config.floor_frac);
        Some(Grant {
            rate_bps: last.rate_bps * frac,
        })
    }

    /// Whether the keeper is currently in outage fallback.
    pub fn in_outage(&self) -> bool {
        self.missed_rounds > 0
    }

    /// Consecutive sync rounds missed so far.
    pub fn missed_rounds(&self) -> u32 {
        self.missed_rounds
    }

    /// The last grant the server actually issued, if any.
    pub fn last_grant(&self) -> Option<Grant> {
        self.last_grant
    }
}

/// Host-side token bucket enforcing a tenant's granted rate.
///
/// Sized to hold `burst_secs` worth of tokens so short bursts within the
/// guarantee are not penalized.
#[derive(Debug, Clone)]
pub struct QuotaBucket {
    rate_bps: f64,
    burst_secs: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl QuotaBucket {
    /// New bucket, initially full at `rate_bps`.
    pub fn new(rate_bps: f64, burst_secs: f64, now: SimTime) -> Self {
        assert!(rate_bps >= 0.0 && burst_secs > 0.0);
        QuotaBucket {
            rate_bps,
            burst_secs,
            tokens: rate_bps * burst_secs,
            last_refill: now,
        }
    }

    /// Update the granted rate (from a new [`Grant`]).
    pub fn set_rate(&mut self, rate_bps: f64, now: SimTime) {
        self.refill(now);
        self.rate_bps = rate_bps.max(0.0);
        self.tokens = self.tokens.min(self.cap());
    }

    /// The current refill rate.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn cap(&self) -> f64 {
        self.rate_bps * self.burst_secs
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bps).min(self.cap());
        self.last_refill = now;
    }

    /// Try to cover an RPC of `bytes` with quota tokens. On success the RPC
    /// is within the tenant's guarantee and must bypass probabilistic
    /// admission.
    pub fn try_consume(&mut self, bytes: u64, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refill to `now`).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(t: u32, bytes: u64) -> UsageReport {
        UsageReport {
            tenant: TenantId(t),
            offered_bytes: bytes,
        }
    }

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn grants_match_demand_under_capacity() {
        let mut srv = QuotaServer::new(vec![100e9 / 8.0]); // 100 Gbps in B/s
        srv.register(
            TenantId(1),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 5e9,
            },
        );
        // Demand 1 GB/s < guarantee: granted exactly the demand... plus the
        // leftover stays unused (tenant not hungry).
        let g = srv.allocate(&[report(1, 1_000_000_000)], secs(1.0));
        assert!((g[&TenantId(1)].rate_bps - 1e9).abs() < 1.0);
    }

    #[test]
    fn oversubscribed_guarantees_clip_pro_rata() {
        let mut srv = QuotaServer::new(vec![1_000_000.0]); // 1 MB/s admissible
        srv.register(
            TenantId(1),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 1_500_000.0,
            },
        );
        srv.register(
            TenantId(2),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 500_000.0,
            },
        );
        // Both fully demand their guarantees.
        let g = srv.allocate(&[report(1, 1_500_000), report(2, 500_000)], secs(1.0));
        let g1 = g[&TenantId(1)].rate_bps;
        let g2 = g[&TenantId(2)].rate_bps;
        assert!((g1 + g2 - 1_000_000.0).abs() < 1.0, "{g1} + {g2}");
        assert!((g1 / g2 - 3.0).abs() < 0.01, "pro-rata 3:1, got {g1}/{g2}");
    }

    #[test]
    fn leftover_flows_to_hungry_tenants() {
        let mut srv = QuotaServer::new(vec![1_000_000.0]);
        srv.register(
            TenantId(1),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 300_000.0,
            },
        );
        srv.register(
            TenantId(2),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 300_000.0,
            },
        );
        // Tenant 1 demands far beyond its guarantee; tenant 2 uses little.
        let g = srv.allocate(&[report(1, 2_000_000), report(2, 100_000)], secs(1.0));
        assert!((g[&TenantId(2)].rate_bps - 100_000.0).abs() < 1.0);
        // Tenant 1 gets its guarantee plus all slack up to its demand.
        assert!(
            g[&TenantId(1)].rate_bps > 800_000.0,
            "{:?}",
            g[&TenantId(1)]
        );
        // Never exceeds capacity.
        let total: f64 = g.values().map(|x| x.rate_bps).sum();
        assert!(total <= 1_000_000.0 + 1.0);
    }

    #[test]
    fn idle_tenant_does_not_hoard() {
        let mut srv = QuotaServer::new(vec![1_000_000.0]);
        srv.register(
            TenantId(1),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 900_000.0,
            },
        );
        srv.register(
            TenantId(2),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 100_000.0,
            },
        );
        // Tenant 1 idle; tenant 2 wants everything.
        let g = srv.allocate(&[report(2, 5_000_000)], secs(1.0));
        assert_eq!(g[&TenantId(1)].rate_bps, 0.0);
        assert!(g[&TenantId(2)].rate_bps > 900_000.0);
    }

    #[test]
    fn per_qos_isolation() {
        let mut srv = QuotaServer::new(vec![1_000_000.0, 2_000_000.0]);
        srv.register(
            TenantId(1),
            QuotaSpec {
                qos: 0,
                guaranteed_bps: 1_000_000.0,
            },
        );
        srv.register(
            TenantId(2),
            QuotaSpec {
                qos: 1,
                guaranteed_bps: 2_000_000.0,
            },
        );
        let g = srv.allocate(&[report(1, 9_000_000), report(2, 9_000_000)], secs(1.0));
        assert!((g[&TenantId(1)].rate_bps - 1_000_000.0).abs() < 1.0);
        assert!((g[&TenantId(2)].rate_bps - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn bucket_covers_within_rate_and_blocks_beyond() {
        let t0 = SimTime::ZERO;
        // 1 MB/s, 10 ms burst -> 10 KB bucket.
        let mut b = QuotaBucket::new(1_000_000.0, 0.01, t0);
        assert!(b.try_consume(8_000, t0));
        assert!(!b.try_consume(8_000, t0), "bucket should be empty-ish");
        // After 10 ms the bucket refills fully.
        let t1 = t0 + SimDuration::from_ms(10);
        assert!(b.try_consume(8_000, t1));
    }

    #[test]
    fn bucket_rate_update_caps_tokens() {
        let t0 = SimTime::ZERO;
        let mut b = QuotaBucket::new(1_000_000.0, 0.01, t0);
        b.set_rate(100_000.0, t0);
        assert!(b.available(t0) <= 100_000.0 * 0.01 + 1.0);
        b.set_rate(0.0, t0);
        assert!(!b.try_consume(1, t0));
    }

    #[test]
    fn fallback_decays_toward_floor_and_recovers() {
        let mut k = GrantKeeper::new(FallbackConfig {
            decay: 0.5,
            floor_frac: 0.1,
        });
        // No grant yet: nothing to fall back on.
        assert!(k.on_missed_round().is_none());
        assert!(!k.in_outage());

        k.on_grant(Grant { rate_bps: 1000.0 });
        assert!(!k.in_outage());
        // Geometric decay: 500, 250, 125, then the 10% floor binds.
        assert_eq!(k.on_missed_round().unwrap().rate_bps, 500.0);
        assert_eq!(k.on_missed_round().unwrap().rate_bps, 250.0);
        assert_eq!(k.on_missed_round().unwrap().rate_bps, 125.0);
        assert_eq!(k.on_missed_round().unwrap().rate_bps, 100.0);
        assert_eq!(k.on_missed_round().unwrap().rate_bps, 100.0);
        assert!(k.in_outage());
        assert_eq!(k.missed_rounds(), 5);

        // Recovery snaps back to the server's allocation.
        let g = k.on_grant(Grant { rate_bps: 800.0 });
        assert_eq!(g.rate_bps, 800.0);
        assert!(!k.in_outage());
        assert_eq!(k.on_missed_round().unwrap().rate_bps, 400.0);
    }

    #[test]
    fn fallback_decay_one_freezes_last_grant() {
        let mut k = GrantKeeper::new(FallbackConfig {
            decay: 1.0,
            floor_frac: 0.0,
        });
        k.on_grant(Grant { rate_bps: 42.0 });
        for _ in 0..10 {
            assert_eq!(k.on_missed_round().unwrap().rate_bps, 42.0);
        }
    }

    #[test]
    fn sustained_rate_enforced() {
        let mut b = QuotaBucket::new(1_000_000.0, 0.01, SimTime::ZERO);
        let mut granted = 0u64;
        // Offer 4 KB every millisecond for one second (4 MB/s demand).
        for ms in 0..1000 {
            let now = SimTime::from_ms(ms);
            if b.try_consume(4_096, now) {
                granted += 4_096;
            }
        }
        let rate = granted as f64; // over ~1 second
        assert!(
            (0.8e6..1.3e6).contains(&rate),
            "sustained {rate} B/s, want ~1e6"
        );
    }
}
