//! Integration tests: transport endpoints running over the netsim engine.

use crate::{CompletedMessage, Transport, TransportConfig};
use aequitas_netsim::{
    Engine, EngineConfig, HostAgent, HostCtx, HostId, LinkSpec, Packet, SwitchId, Topology,
};
use aequitas_sim_core::{SimDuration, SimTime};

/// A host agent that wraps a [`Transport`] and a static send script:
/// `(issue_time, dst, class, size_bytes)` tuples.
struct ScriptedHost {
    transport: Transport,
    script: Vec<(SimTime, HostId, u8, u64)>,
    next: usize,
    next_msg_id: u64,
    completed: Vec<CompletedMessage>,
}

const SCRIPT_TIMER: u64 = 1;

impl ScriptedHost {
    fn new(host: HostId, config: TransportConfig, script: Vec<(SimTime, HostId, u8, u64)>) -> Self {
        ScriptedHost {
            transport: Transport::new(host, config),
            script,
            next: 0,
            next_msg_id: (host.0 as u64) << 32,
            completed: Vec::new(),
        }
    }

    fn pump_script(&mut self, ctx: &mut HostCtx) {
        while self.next < self.script.len() && self.script[self.next].0 <= ctx.now() {
            let (_, dst, class, size) = self.script[self.next];
            self.next += 1;
            let id = self.next_msg_id;
            self.next_msg_id += 1;
            self.transport.send_message(ctx, dst, class, id, size);
        }
        if self.next < self.script.len() {
            ctx.set_timer(self.script[self.next].0, SCRIPT_TIMER);
        }
    }

    fn drain(&mut self) {
        self.completed.extend(self.transport.take_completions());
    }
}

impl HostAgent for ScriptedHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.pump_script(ctx);
    }
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        self.transport.handle_packet(ctx, pkt);
        self.drain();
    }
    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        if !self.transport.handle_timer(ctx, token) && token == SCRIPT_TIMER {
            self.pump_script(ctx);
        }
        self.drain();
    }
}

fn star(n: usize) -> Topology {
    Topology::star(n, LinkSpec::default_100g())
}

fn engine(
    topo: Topology,
    scripts: Vec<Vec<(SimTime, HostId, u8, u64)>>,
    config: TransportConfig,
) -> Engine<ScriptedHost> {
    let agents = scripts
        .into_iter()
        .enumerate()
        .map(|(i, s)| ScriptedHost::new(HostId(i), config.clone(), s))
        .collect();
    Engine::new(topo, agents, EngineConfig::default_3qos())
}

#[test]
fn single_message_completes_with_plausible_rnl() {
    // One 32 KB message, idle network: RNL should be ~ serialization of 8
    // packets + RTT, i.e. a handful of microseconds — and definitely under
    // 50 us.
    let scripts = vec![vec![(SimTime::ZERO, HostId(1), 0, 32_768)], vec![]];
    let mut eng = engine(star(2), scripts, TransportConfig::default());
    eng.run_until(SimTime::from_ms(5));
    let done = &eng.agents()[0].completed;
    assert_eq!(done.len(), 1);
    let rnl = done[0].rnl();
    assert!(
        rnl > SimDuration::from_us(2) && rnl < SimDuration::from_us(50),
        "RNL {rnl}"
    );
    assert_eq!(done[0].size_bytes, 32_768);
}

#[test]
fn all_messages_complete_under_load() {
    // Two senders each issue 200 x 32 KB messages back to back to the same
    // receiver; everything must eventually complete despite overload.
    let script = |_src: usize| -> Vec<(SimTime, HostId, u8, u64)> {
        (0..200)
            .map(|i| (SimTime::from_us(i * 2), HostId(2), 0u8, 32_768u64))
            .collect()
    };
    let scripts = vec![script(0), script(1), vec![]];
    let mut eng = engine(star(3), scripts, TransportConfig::default());
    eng.run_until(SimTime::from_ms(100));
    assert_eq!(eng.agents()[0].completed.len(), 200);
    assert_eq!(eng.agents()[1].completed.len(), 200);
}

#[test]
fn a_deep_backlog_drains_in_issue_order() {
    // 5 000 one-packet messages issued at once on one connection: every one
    // completes, in the order it was issued (stream semantics on one path).
    let scripts = vec![vec![(SimTime::ZERO, HostId(1), 0, 4096); 5000], vec![]];
    let mut eng = engine(star(2), scripts, TransportConfig::default());
    eng.run_until(SimTime::from_ms(20));
    let done = &eng.agents()[0].completed;
    assert_eq!(done.len(), 5000);
    assert!(done.windows(2).all(|w| w[0].msg_id < w[1].msg_id));
}

#[test]
fn rnl_includes_sender_queueing() {
    // Issue 50 messages at t=0 on one connection: the k-th message's RNL
    // must include waiting behind the first k-1 (RNL grows monotonically-ish;
    // the last should be far larger than the first).
    let scripts = vec![vec![(SimTime::ZERO, HostId(1), 0, 32_768); 50], vec![]];
    let mut eng = engine(star(2), scripts, TransportConfig::default());
    eng.run_until(SimTime::from_ms(50));
    let done = &eng.agents()[0].completed;
    assert_eq!(done.len(), 50);
    let first = done.first().unwrap().rnl();
    let last = done.last().unwrap().rnl();
    assert!(
        last > first * 10,
        "queueing not reflected: first {first}, last {last}"
    );
    // 50 * 32 KB at 100 Gbps is ~131 us of pure serialization; the last RNL
    // must be at least that.
    assert!(last >= SimDuration::from_us(131));
}

#[test]
fn two_senders_share_bottleneck_fairly() {
    // Both senders continuously loaded on the same class into one receiver:
    // completed bytes should be within 25% of each other.
    let script = |_| -> Vec<(SimTime, HostId, u8, u64)> {
        (0..500)
            .map(|i| (SimTime::from_us(i), HostId(2), 0u8, 32_768u64))
            .collect()
    };
    let scripts = vec![script(0), script(1), vec![]];
    let mut eng = engine(star(3), scripts, TransportConfig::default());
    eng.run_until(SimTime::from_ms(20));
    let a = eng.agents()[0]
        .completed
        .iter()
        .map(|c| c.size_bytes)
        .sum::<u64>() as f64;
    let b = eng.agents()[1]
        .completed
        .iter()
        .map(|c| c.size_bytes)
        .sum::<u64>() as f64;
    assert!(a > 0.0 && b > 0.0);
    let ratio = a / b;
    assert!(
        (0.75..=1.33).contains(&ratio),
        "unfair split: {a} vs {b} (ratio {ratio})"
    );
}

#[test]
fn cc_keeps_queues_bounded() {
    // A single sender at sustained overload: Swift should converge so that
    // the switch egress backlog stays around the target delay's worth of
    // bytes, not the buffer limit.
    let scripts = vec![
        (0..2000)
            .map(|i| (SimTime::from_us(i / 2), HostId(1), 0u8, 32_768u64))
            .collect(),
        vec![],
    ];
    let mut eng = engine(star(2), scripts, TransportConfig::default());
    eng.run_until(SimTime::from_ms(10));
    // Target queueing is 10us ~= 125 KB at 100 Gbps. Allow 4x slack.
    let backlog = eng.switch_port_backlog(SwitchId(0), 1);
    assert!(
        backlog < 500_000,
        "switch backlog {backlog} B suggests CC is not controlling the queue"
    );
}

#[test]
fn losses_are_recovered() {
    // Shrink the switch buffer so drops are certain under synchronized
    // overload; all messages must still complete via retransmission.
    let scripts = vec![
        (0..100)
            .map(|_| (SimTime::ZERO, HostId(2), 0u8, 32_768u64))
            .collect(),
        (0..100)
            .map(|_| (SimTime::ZERO, HostId(2), 0u8, 32_768u64))
            .collect(),
        vec![],
    ];
    let agents = scripts
        .into_iter()
        .enumerate()
        .map(|(i, s)| ScriptedHost::new(HostId(i), TransportConfig::default(), s))
        .collect();
    let mut config = EngineConfig::default_3qos();
    config.switch_buffer_bytes = Some(64 * 1024);
    let mut eng = Engine::new(star(3), agents, config);
    eng.run_until(SimTime::from_ms(200));
    let drops = eng.switch_port_stats(SwitchId(0), 2).total_drops();
    assert_eq!(eng.agents()[0].completed.len(), 100);
    assert_eq!(eng.agents()[1].completed.len(), 100);
    if drops > 0 {
        let retx: u64 = [0, 1]
            .iter()
            .map(|&h| {
                let flow = aequitas_netsim::FlowKey {
                    src: HostId(h),
                    dst: HostId(2),
                    class: 0,
                };
                eng.agents()[h]
                    .transport
                    .connection_stats(&flow)
                    .map(|s| s.retransmits)
                    .unwrap_or(0)
            })
            .sum();
        assert!(retx > 0, "drops happened but nothing was retransmitted");
    }
}

#[test]
fn classes_are_isolated_by_wfq() {
    // Sender 0 on class 0 and sender 1 on class 2 (weights 8:4:1) into one
    // receiver. Class 0 should complete ~8x the bytes while both are
    // backlogged.
    let script = |class: u8| -> Vec<(SimTime, HostId, u8, u64)> {
        (0..400)
            .map(|_| (SimTime::ZERO, HostId(2), class, 32_768u64))
            .collect()
    };
    let scripts = vec![script(0), script(2), vec![]];
    let mut eng = engine(star(3), scripts, TransportConfig::default());
    // Stop while both classes are still backlogged (400 x 32 KB each takes
    // >1.3 ms even at full line rate), so work conservation cannot let the
    // low class inherit freed bandwidth.
    eng.run_until(SimTime::from_ms(1));
    let a = eng.agents()[0]
        .completed
        .iter()
        .map(|c| c.size_bytes)
        .sum::<u64>() as f64;
    let b = eng.agents()[1]
        .completed
        .iter()
        .map(|c| c.size_bytes)
        .sum::<u64>() as f64;
    assert!(a > 0.0 && b > 0.0, "a={a} b={b}");
    let ratio = a / b;
    assert!(
        ratio > 4.0,
        "expected ~8x advantage for the high class, got {ratio} ({a} vs {b})"
    );
}

#[test]
fn deterministic_with_same_seeds() {
    let mk = || {
        let scripts = vec![
            (0..100)
                .map(|i| (SimTime::from_us(i), HostId(1), 0u8, 8_192u64))
                .collect(),
            vec![],
        ];
        let mut eng = engine(star(2), scripts, TransportConfig::default());
        eng.run_until(SimTime::from_ms(10));
        eng.agents()[0]
            .completed
            .iter()
            .map(|c| (c.msg_id, c.completed_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn fixed_window_transport_ignores_delay() {
    // With CC disabled the window never moves; under overload the queue is
    // then bounded only by the buffer. Verifies the theory-validation mode.
    let scripts = vec![
        (0..1000)
            .map(|_| (SimTime::ZERO, HostId(1), 0u8, 32_768u64))
            .collect(),
        vec![],
    ];
    let mut eng = engine(star(2), scripts, TransportConfig::fixed_window(64.0));
    eng.run_until(SimTime::from_ms(1));
    let flow = aequitas_netsim::FlowKey {
        src: HostId(0),
        dst: HostId(1),
        class: 0,
    };
    assert_eq!(eng.agents()[0].transport.cwnd(&flow), Some(64.0));
}

/// The 3-QoS fabric under a fault plan that drops each frame on every link
/// with probability `prob`.
fn uniform_loss_config(seed: u64, prob: f64) -> EngineConfig {
    use aequitas_netsim::faults::{FaultPlan, LinkSel, LossRule};
    let mut config = EngineConfig::default_3qos();
    config.faults = Some(std::sync::Arc::new(FaultPlan {
        seed,
        loss: vec![LossRule {
            link: LinkSel::Any,
            prob,
            burst: None,
        }],
        ..FaultPlan::default()
    }));
    config
}

#[test]
fn fault_injection_losses_are_recovered() {
    // 0.5% random packet loss on every link: the retransmission machinery
    // must still complete every message, at the cost of retransmits.
    let scripts = vec![
        (0..300)
            .map(|i| (SimTime::from_us(i * 4), HostId(1), 0u8, 32_768u64))
            .collect(),
        vec![],
    ];
    let agents: Vec<ScriptedHost> = scripts
        .into_iter()
        .enumerate()
        .map(|(i, s)| ScriptedHost::new(HostId(i), TransportConfig::default(), s))
        .collect();
    let mut eng = Engine::new(star(2), agents, uniform_loss_config(99, 0.005));
    eng.run_until(SimTime::from_ms(200));
    assert!(eng.fault_loss_totals().0 > 0, "injector never fired");
    assert_eq!(eng.agents()[0].completed.len(), 300);
    let flow = aequitas_netsim::FlowKey {
        src: HostId(0),
        dst: HostId(1),
        class: 0,
    };
    let stats = eng.agents()[0]
        .transport
        .connection_stats(&flow)
        .expect("connection exists");
    assert!(stats.retransmits > 0, "losses must force retransmissions");
}

#[test]
fn structured_loss_plan_is_recovered_by_retransmission() {
    // A 2% per-packet loss rule on the sender's uplink from the structured
    // fault plan: every message still completes, via (backed-off) retx.
    use aequitas_netsim::faults::{FaultPlan, LinkSel, LossRule};
    let scripts = vec![
        (0..200)
            .map(|i| (SimTime::from_us(i * 4), HostId(1), 0u8, 32_768u64))
            .collect(),
        vec![],
    ];
    let agents: Vec<ScriptedHost> = scripts
        .into_iter()
        .enumerate()
        .map(|(i, s)| ScriptedHost::new(HostId(i), TransportConfig::default(), s))
        .collect();
    let mut config = EngineConfig::default_3qos();
    config.faults = Some(std::sync::Arc::new(FaultPlan {
        seed: 21,
        loss: vec![LossRule {
            link: LinkSel::HostUp(0),
            prob: 0.02,
            burst: None,
        }],
        ..FaultPlan::default()
    }));
    let mut eng = Engine::new(star(2), agents, config);
    eng.run_until(SimTime::from_ms(300));
    let (drops, _) = eng.fault_loss_totals();
    assert!(drops > 0, "loss rule never fired");
    assert_eq!(eng.agents()[0].completed.len(), 200);
    let flow = aequitas_netsim::FlowKey {
        src: HostId(0),
        dst: HostId(1),
        class: 0,
    };
    let stats = eng.agents()[0]
        .transport
        .connection_stats(&flow)
        .expect("connection exists");
    assert!(stats.retransmits > 0);
    assert_eq!(stats.failed_messages, 0, "2% loss must not exhaust retries");
}

#[test]
fn outage_longer_than_retry_budget_fails_messages() {
    // The sender's uplink goes down just after the messages are issued and
    // stays down for 100 ms. A tight retry budget (3 retries, 1 ms RTO cap)
    // gives up within ~8 ms; the messages must surface as failures, not
    // hang, and the transport must go quiet (no retx timer storm).
    use aequitas_netsim::faults::{FaultPlan, LinkFlap, LinkSel};
    let tcfg = TransportConfig {
        max_retries: 3,
        max_rto: SimDuration::from_ms(1),
        ..TransportConfig::default()
    };
    let scripts = vec![
        vec![
            (SimTime::ZERO, HostId(1), 0u8, 32_768u64),
            (SimTime::ZERO, HostId(1), 0u8, 32_768u64),
        ],
        vec![],
    ];
    let agents: Vec<ScriptedHost> = scripts
        .into_iter()
        .enumerate()
        .map(|(i, s)| ScriptedHost::new(HostId(i), tcfg.clone(), s))
        .collect();
    let mut config = EngineConfig::default_3qos();
    config.faults = Some(std::sync::Arc::new(FaultPlan {
        seed: 1,
        flaps: vec![LinkFlap {
            link: LinkSel::HostUp(0),
            first_down: SimTime::ZERO,
            down: SimDuration::from_ms(100),
            period: SimDuration::from_ms(100),
            count: 1,
        }],
        ..FaultPlan::default()
    }));
    let mut eng = Engine::new(star(2), agents, config);
    eng.run_until(SimTime::from_ms(50));
    let host = &mut eng.agents_mut()[0];
    assert!(host.completed.is_empty());
    let failures = host.transport.take_failures();
    assert_eq!(failures.len(), 2, "both messages must be abandoned");
    for f in &failures {
        assert_eq!(f.size_bytes, 32_768);
        assert!(f.failed_at < SimTime::from_ms(50));
    }
    // Failing its last message leaves the connection idle, so timer scans
    // skip it.
    assert!(host.transport.conns.iter().all(|c| c.is_idle()));
}

/// A connection is idle exactly when it has nothing queued or in flight,
/// at every step of a run that opens ten connections at staggered times
/// and drains them all. The retransmission timer scan skips idle
/// connections, so this is what keeps it doing the same work.
#[test]
fn idle_connections_hold_nothing_queued_or_in_flight() {
    let n = 6;
    let mut scripts = vec![Vec::new(); n];
    scripts[0] = (1..n)
        .flat_map(|dst| {
            [0u8, 1].map(|class| {
                let at = SimTime::from_us(dst as u64 * 40 + class as u64 * 15);
                (at, HostId(dst), class, 65_536u64)
            })
        })
        .collect();
    let mut eng = engine(star(n), scripts, TransportConfig::default());
    let mut seen_busy = 0;
    for step in 1..=80 {
        eng.run_until(SimTime::from_us(step * 5));
        for (idx, conn) in eng.agents()[0].transport.conns.iter().enumerate() {
            let busy = conn.inflight() > 0 || conn.pending_messages() > 0;
            assert_eq!(busy, !conn.is_idle(), "connection {idx} at step {step}");
            seen_busy += busy as usize;
        }
    }
    assert!(seen_busy > 0);
    eng.run_until(SimTime::from_ms(5));
    let host = &eng.agents()[0];
    assert_eq!(host.completed.len(), 2 * (n - 1));
    assert_eq!(host.transport.conns.len(), 2 * (n - 1));
    assert!(host.transport.conns.iter().all(|c| c.is_idle()));
}

#[test]
fn short_flap_is_ridden_out_by_backoff() {
    // A 3 ms mid-transfer outage: the default budget (64 retries, 10 ms RTO
    // cap) rides it out, and everything completes after the link returns.
    use aequitas_netsim::faults::{FaultPlan, LinkFlap, LinkSel};
    let scripts = vec![
        (0..50)
            .map(|i| (SimTime::from_us(i * 10), HostId(1), 0u8, 32_768u64))
            .collect(),
        vec![],
    ];
    let agents: Vec<ScriptedHost> = scripts
        .into_iter()
        .enumerate()
        .map(|(i, s)| ScriptedHost::new(HostId(i), TransportConfig::default(), s))
        .collect();
    let mut config = EngineConfig::default_3qos();
    config.faults = Some(std::sync::Arc::new(FaultPlan {
        seed: 2,
        flaps: vec![LinkFlap {
            link: LinkSel::SwitchPort { switch: 0, port: 1 },
            first_down: SimTime::from_us(200),
            down: SimDuration::from_ms(3),
            period: SimDuration::from_ms(3),
            count: 1,
        }],
        ..FaultPlan::default()
    }));
    let mut eng = Engine::new(star(2), agents, config);
    eng.run_until(SimTime::from_ms(100));
    assert_eq!(eng.agents()[0].completed.len(), 50, "all messages recover");
    let flow = aequitas_netsim::FlowKey {
        src: HostId(0),
        dst: HostId(1),
        class: 0,
    };
    let stats = eng.agents()[0]
        .transport
        .connection_stats(&flow)
        .expect("connection exists");
    assert_eq!(stats.failed_messages, 0);
}

#[test]
fn deterministic_fault_injection() {
    let run = || {
        let scripts = vec![
            (0..100)
                .map(|i| (SimTime::from_us(i * 4), HostId(1), 0u8, 16_384u64))
                .collect(),
            vec![],
        ];
        let agents: Vec<ScriptedHost> = scripts
            .into_iter()
            .enumerate()
            .map(|(i, s)| ScriptedHost::new(HostId(i), TransportConfig::default(), s))
            .collect();
        let mut eng = Engine::new(star(2), agents, uniform_loss_config(7, 0.01));
        eng.run_until(SimTime::from_ms(100));
        (
            eng.fault_loss_totals(),
            eng.agents()[0]
                .completed
                .iter()
                .map(|c| c.completed_at)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}
