//! Pins the egress-port path's trace byte for byte: every enqueue, dequeue,
//! tail drop, fault loss and link flap of a small faulted run, at host NICs
//! and switch ports alike, must reproduce `fixtures/port_path.jsonl`.
//!
//! The run is a 3-host star with finite host *and* switch buffers: hosts 0
//! and 1 burst more than their NICs hold (host-NIC tail drops) into host 2's
//! switch port, which holds less than the two bursts (switch tail drops),
//! while host 2 answers towards host 0. The fault plan flaps host 2's switch
//! port and loses and corrupts a few frames everywhere. Trace emission order
//! is part of the pin, so a refactor of the port path that reorders a
//! `PktEnqueue` against a `PktDrop`, or a kick against a trace line, fails
//! here.

use aequitas_faults::{CorruptRule, FaultPlan, LinkFlap, LinkSel, LossRule};
use aequitas_netsim::{
    Engine, EngineConfig, FlowKey, HostAgent, HostCtx, HostId, LinkSpec, Packet, PacketKind,
    Topology,
};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_telemetry::{Telemetry, TelemetryConfig, TraceSink};
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("fixtures/port_path.jsonl");

/// The trace line types of the port path.
const PORT_TYPES: [&str; 6] = [
    "\"type\":\"pkt_enqueue\"",
    "\"type\":\"pkt_dequeue\"",
    "\"type\":\"pkt_drop\"",
    "\"type\":\"fault_pkt_drop\"",
    "\"type\":\"fault_link_down\"",
    "\"type\":\"fault_link_up\"",
];

/// Keeps every port-path line in memory.
struct Lines(Arc<Mutex<Vec<String>>>);

impl TraceSink for Lines {
    fn record_line(&mut self, line: &str) {
        if PORT_TYPES.iter().any(|t| line.contains(t)) {
            self.0.lock().expect("sink lock").push(line.to_owned());
        }
    }
}

/// Sends a burst of `burst` packets to `peer` every 20 µs, `rounds` times.
struct Burster {
    peer: HostId,
    burst: u64,
    rounds: u32,
    sent: u64,
}

impl Burster {
    fn fire(&mut self, ctx: &mut HostCtx) {
        let me = ctx.host();
        for _ in 0..self.burst {
            let id = me.0 as u64 * 1_000_000 + self.sent;
            self.sent += 1;
            ctx.send(Packet {
                id,
                flow: FlowKey {
                    src: me,
                    dst: self.peer,
                    class: (id % 2) as u8,
                },
                size_bytes: 1000 + (id % 3) as u32 * 500,
                kind: PacketKind::Data {
                    msg_id: 0,
                    seq: 0,
                    is_last: true,
                },
                sent_at: ctx.now(),
                rank: 0,
            });
        }
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.set_timer(ctx.now() + SimDuration::from_us(20), 0);
        }
    }
}

impl HostAgent for Burster {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.fire(ctx);
    }
    fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut HostCtx, _token: u64) {
        self.fire(ctx);
    }
}

fn port_path_trace() -> Vec<String> {
    let mut config = EngineConfig::default_2qos();
    config.host_buffer_bytes = Some(8_000);
    config.switch_buffer_bytes = Some(4_000);
    config.faults = Some(Arc::new(
        FaultPlan {
            seed: 11,
            flaps: vec![LinkFlap {
                link: LinkSel::SwitchPort { switch: 0, port: 2 },
                first_down: SimTime::from_us(1),
                down: SimDuration::from_us(3),
                period: SimDuration::from_us(20),
                count: 2,
            }],
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.05,
                burst: None,
            }],
            corrupt: vec![CorruptRule {
                link: LinkSel::Any,
                prob: 0.03,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .expect("valid plan"),
    ));
    let agents = vec![
        Burster {
            peer: HostId(2),
            burst: 12,
            rounds: 2,
            sent: 0,
        },
        Burster {
            peer: HostId(2),
            burst: 12,
            rounds: 2,
            sent: 0,
        },
        Burster {
            peer: HostId(0),
            burst: 4,
            rounds: 2,
            sent: 0,
        },
    ];
    let lines = Arc::new(Mutex::new(Vec::new()));
    let mut eng = Engine::new(Topology::star(3, LinkSpec::default_100g()), agents, config);
    eng.set_telemetry(Telemetry::with_sink(
        Lines(Arc::clone(&lines)),
        TelemetryConfig::default(),
    ));
    eng.run_until(SimTime::from_ms(1));
    let out = lines.lock().expect("sink lock").clone();
    out
}

#[test]
fn port_path_trace_matches_the_golden() {
    let got = port_path_trace();
    let want: Vec<&str> = GOLDEN.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "port-path trace differs at line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "port-path trace length");
}

#[test]
fn the_golden_covers_every_port_path_line() {
    // Host-NIC and switch tail drops both fire, as do losses on either kind
    // of port and the flap's down/up pair.
    for (kind, node) in [
        ("pkt_drop", "host"),
        ("pkt_drop", "switch"),
        ("pkt_enqueue", "host"),
        ("pkt_enqueue", "switch"),
        ("pkt_dequeue", "host"),
        ("pkt_dequeue", "switch"),
        ("fault_pkt_drop", "host"),
        ("fault_pkt_drop", "switch"),
        ("fault_link_down", "switch"),
        ("fault_link_up", "switch"),
    ] {
        let tag = format!("\"type\":\"{kind}\",\"node\":\"{node}");
        assert!(
            GOLDEN.lines().any(|l| l.contains(&tag)),
            "no {kind} line at a {node} in the golden"
        );
    }
}
