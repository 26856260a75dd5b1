//! Golden completion digests for the five baselines.
//!
//! Each baseline runs a fig22-style bursty all-to-all load on a 5-host star
//! for 2 ms (plus a 2 ms drain), once on a healthy fabric and once under a
//! gray receiver downlink plus fabric-wide loss. The digest covers every
//! completion, the engine's event count and the fault layer's drop count,
//! so a reordered `send`/`set_timer` (queue sequence numbers break ties) or
//! a shifted packet id (fault fates are pure in `(seed, link, pkt_id)`)
//! fails the named scheme's test.

use aequitas_baselines::{
    deadline, homa, pfabric, qjump, BaselineCompletion, DeadlineHost, DeadlineMode, HomaHost,
    PfabricHost, QjumpHost, WorkloadGen,
};
use aequitas_netsim::faults::{FaultPlan, GrayDegrade, LinkSel, LossRule, Window};
use aequitas_netsim::{Engine, EngineConfig, HostAgent, HostId, LinkSpec, Topology};
use aequitas_sim_core::{BitRate, SimDuration, SimTime};
use aequitas_workloads::{ArrivalProcess, Priority, SizeDist, TrafficPattern};
use std::sync::Arc;

const HOSTS: usize = 5;
const STOP: SimTime = SimTime::from_ms(2);
const END: SimTime = SimTime::from_ms(4);
const RATE: BitRate = BitRate(100_000_000_000);

fn gen(src: usize) -> Option<WorkloadGen> {
    let classes = Priority::ALL
        .into_iter()
        .zip([0.5, 0.3, 0.2])
        .map(|(p, share)| (p, share, SizeDist::production_like(p)))
        .collect();
    Some(WorkloadGen::new(
        ArrivalProcess::BurstOnOff {
            mu: 0.9,
            rho: 2.0,
            period: SimDuration::from_us(100),
        },
        TrafficPattern::AllToAll,
        classes,
        src,
        HOSTS,
        RATE,
        Some(STOP),
        2207 ^ (src as u64 * 0x9E37),
    ))
}

/// Host 4's downlink runs at a quarter of line rate with a creeping jitter
/// ramp over [0.5, 1.5) ms, and every link drops one frame in a thousand.
fn faulted(config: EngineConfig) -> EngineConfig {
    let plan = FaultPlan {
        seed: 1010,
        loss: vec![LossRule {
            link: LinkSel::Any,
            prob: 1e-3,
            burst: None,
        }],
        gray: vec![GrayDegrade {
            link: LinkSel::SwitchPort { switch: 0, port: 4 },
            window: Window {
                start: SimTime::from_us(500),
                end: SimTime::from_us(1_500),
            },
            rate_frac: 0.25,
            jitter_ramp: SimDuration::from_us(2),
        }],
        ..FaultPlan::default()
    }
    .validated()
    .expect("golden fault plan is well-formed");
    EngineConfig {
        faults: Some(Arc::new(plan)),
        ..config
    }
}

/// `(completions, FNV-1a-64 digest, events, fault drops)` of one run.
fn digest<A: HostAgent>(
    config: EngineConfig,
    agents: impl Fn(usize) -> A,
    completions: impl Fn(&A) -> &[BaselineCompletion],
) -> (usize, u64, u64, u64) {
    let topo = Topology::star(HOSTS, LinkSpec::default_100g());
    let mut eng = Engine::new(topo, (0..HOSTS).map(agents).collect(), config);
    eng.run_until(END);
    let mut n = 0;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (host, a) in eng.agents().iter().enumerate() {
        for c in completions(a) {
            n += 1;
            for word in [
                host as u64,
                c.qos as u64,
                c.size_bytes,
                c.issued_at.as_ps(),
                c.completed_at.as_ps(),
                c.terminated as u64,
            ] {
                for b in word.to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    let (lost, corrupted) = eng.fault_loss_totals();
    (n, h, eng.events_processed(), lost + corrupted)
}

/// Both runs of one scheme: healthy, then faulted.
fn both<A: HostAgent>(
    config: fn() -> EngineConfig,
    agents: impl Fn(usize) -> A + Copy,
    completions: impl Fn(&A) -> &[BaselineCompletion] + Copy,
) -> [(usize, u64, u64, u64); 2] {
    [
        digest(config(), agents, completions),
        digest(faulted(config()), agents, completions),
    ]
}

#[test]
fn pfabric_golden() {
    let got = both(
        pfabric::engine_config,
        |h| PfabricHost::new(HostId(h), gen(h)),
        |a: &PfabricHost| a.completions(),
    );
    assert_eq!(got, PFABRIC, "pFabric moved");
}

#[test]
fn qjump_golden() {
    let got = both(
        qjump::engine_config,
        |h| QjumpHost::new(HostId(h), gen(h), RATE),
        |a: &QjumpHost| a.completions(),
    );
    assert_eq!(got, QJUMP, "QJump moved");
}

#[test]
fn d3_golden() {
    let got = both(
        deadline::engine_config,
        |h| DeadlineHost::new(HostId(h), DeadlineMode::D3, gen(h), RATE),
        |a: &DeadlineHost| a.completions(),
    );
    assert_eq!(got, D3, "D3 moved");
}

#[test]
fn pdq_golden() {
    let got = both(
        deadline::engine_config,
        |h| DeadlineHost::new(HostId(h), DeadlineMode::Pdq, gen(h), RATE),
        |a: &DeadlineHost| a.completions(),
    );
    assert_eq!(got, PDQ, "PDQ moved");
}

#[test]
fn homa_golden() {
    let got = both(
        homa::engine_config,
        |h| HomaHost::new(HostId(h), gen(h)),
        |a: &HomaHost| a.completions(),
    );
    assert_eq!(got, HOMA, "Homa moved");
}

/// Captured before the baselines shared one sender skeleton: healthy run,
/// then faulted run.
type Golden = [(usize, u64, u64, u64); 2];
const PFABRIC: Golden = [
    (3096, 0x5c82_d2e7_cb6d_9e99, 213_476, 0),
    (3096, 0xa84d_b7cc_0906_8ded, 214_115, 110),
];
const QJUMP: Golden = [
    (3096, 0x4e05_17fd_247c_a7de, 239_623, 0),
    (2970, 0x6d25_37fa_9550_dc7b, 235_150, 107),
];
const D3: Golden = [
    (3096, 0x8258_9a18_eea3_9f42, 816_724, 0),
    (3088, 0x2ad0_4360_2fda_33a0, 1_396_549, 683),
];
const PDQ: Golden = [
    (3096, 0x7330_1e23_8fe7_e390, 1_588_356, 0),
    (3095, 0xa6c9_dacd_6454_27a1, 1_608_658, 805),
];
const HOMA: Golden = [
    (3096, 0x7733_cd41_b78e_506c, 199_574, 0),
    (2757, 0xa6e6_2f64_f8cd_1caa, 112_289, 54),
];
