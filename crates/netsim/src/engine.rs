//! The discrete-event engine: event dispatch, switching, host callbacks.

use crate::packet::Packet;
use crate::port::{Port, PortStats, SchedulerKind};
use crate::shard::{Boundary, ShardRole, ShardSpec};
use crate::topology::{HostId, NodeRef, SwitchId, Topology};
use aequitas_faults::{FaultPlan, LinkId as FaultLinkId, PacketFate};
use aequitas_sim_core::{
    EventQueue, QueueKind, QueueStats, SimDuration, SimTime, Slab, SlotId,
};
use aequitas_telemetry::{labels, MetricId, NodeKind, Telemetry, TraceEvent};
use std::sync::Arc;

/// Sentinel rank for hosts not owned by this engine (sharded mode).
const NO_AGENT: u32 = u32::MAX;

fn node_tag(node: NodeRef) -> (NodeKind, usize) {
    match node {
        NodeRef::Host(h) => (NodeKind::Host, h.0),
        NodeRef::Switch(s) => (NodeKind::Switch, s.0),
    }
}

/// The fault-plan identity of a transmit port.
fn fault_link(node: NodeRef, port: usize) -> FaultLinkId {
    match node {
        NodeRef::Host(h) => FaultLinkId::HostUp(h.0),
        NodeRef::Switch(s) => FaultLinkId::SwitchPort { switch: s.0, port },
    }
}

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Scheduler used on every switch egress port.
    pub switch_scheduler: SchedulerKind,
    /// Scheduler used on every host NIC egress port. Hosts also apply QoS
    /// (paper footnote 2: NICs support WFQs too); default mirrors the fabric.
    pub host_scheduler: SchedulerKind,
    /// Buffer capacity per switch egress port, bytes (`None` = unbounded,
    /// used by the theory-validation runs).
    pub switch_buffer_bytes: Option<u64>,
    /// Buffer capacity per host NIC egress port, bytes. `None` models
    /// transport/NIC backpressure (a host never drops its own packets);
    /// the transport's congestion windows bound the backlog.
    pub host_buffer_bytes: Option<u64>,
    /// Number of QoS classes carried in the fabric.
    pub classes: usize,
    /// Fault injection: link flaps, per-link loss/corruption and jitter
    /// from a deterministic, seeded [`FaultPlan`]. `None` disables. Every
    /// plan decision is a pure function of `(seed, time, entity)`, so
    /// verdicts are independent of event order.
    pub faults: Option<Arc<FaultPlan>>,
    /// Future-event list backend. [`QueueKind::Calendar`] (default) is the
    /// fast path; [`QueueKind::Heap`] is the reference implementation kept
    /// for A/B determinism checks and benchmarks.
    pub event_queue: QueueKind,
}

impl EngineConfig {
    /// The paper's default fabric: 3 QoS classes, WFQ 8:4:1, 2 MB port
    /// buffers, matching host NIC scheduling.
    pub fn default_3qos() -> Self {
        let weights = vec![8.0, 4.0, 1.0];
        EngineConfig {
            switch_scheduler: SchedulerKind::Wfq(weights.clone()),
            host_scheduler: SchedulerKind::Wfq(weights),
            switch_buffer_bytes: Some(2 << 20),
            host_buffer_bytes: None,
            classes: 3,
            faults: None,
            event_queue: QueueKind::Calendar,
        }
    }

    /// 2-QoS variant with weights 4:1 (the §6.2 microbenchmarks).
    pub fn default_2qos() -> Self {
        let weights = vec![4.0, 1.0];
        EngineConfig {
            switch_scheduler: SchedulerKind::Wfq(weights.clone()),
            host_scheduler: SchedulerKind::Wfq(weights),
            switch_buffer_bytes: Some(2 << 20),
            host_buffer_bytes: None,
            classes: 2,
            faults: None,
            event_queue: QueueKind::Calendar,
        }
    }
}

/// Actions a host agent can request during a callback. Buffered and applied
/// by the engine after the callback returns (avoids aliasing the engine from
/// inside the agent).
#[derive(Debug, Default)]
pub struct HostActions {
    send: Vec<Packet>,
    timers: Vec<(SimTime, u64)>,
}

/// Callback context handed to a [`HostAgent`].
pub struct HostCtx<'a> {
    now: SimTime,
    host: HostId,
    actions: &'a mut HostActions,
}

impl HostCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This host's id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Hand a packet to the NIC for transmission.
    pub fn send(&mut self, pkt: Packet) {
        self.actions.send.push(pkt);
    }

    /// Request a timer callback at absolute time `at` with an agent-chosen
    /// token. Timers are not cancellable; agents ignore stale tokens.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.actions.timers.push((at, token));
    }
}

/// The per-host protocol logic (transport + RPC stack + admission control
/// live behind this trait in higher crates).
pub trait HostAgent {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut HostCtx);
    /// Called when a packet addressed to this host arrives.
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet);
    /// Called when a timer set via [`HostCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64);
}

#[derive(Debug)]
enum Event {
    /// Packet fully arrived at a node (serialization + propagation done);
    /// `pkt` is its handle in the packet slab.
    Arrive { node: NodeRef, pkt: SlotId },
    /// An egress port finished serializing its in-flight packet.
    TxDone { node: NodeRef, port: usize },
    /// A faulted link's down window ended; resume deferred transmissions.
    LinkUp { node: NodeRef, port: usize },
    /// Host timer.
    Timer { host: HostId, token: u64 },
}

struct SwitchState {
    ports: Vec<Port>,
}

struct HostState {
    nic: Port,
}

/// Interned gauge handles for one switch egress port, resolved once when
/// telemetry is attached so [`Engine::sample_metrics`] refreshes gauges by
/// dense index instead of string-keyed map probes.
struct PortMetricIds {
    backlog: MetricId,
    tx: MetricId,
    drops: MetricId,
    /// Present only for WFQ-scheduled ports (the gauge never existed for
    /// other schedulers in the string-keyed layout either).
    wfq_vt: Option<MetricId>,
    /// One depth gauge per configured QoS class.
    class_depth: Vec<MetricId>,
}

/// All engine-level gauge handles, pre-registered by
/// [`Engine::set_telemetry`].
struct EngineMetricIds {
    events_processed: MetricId,
    queue_len: MetricId,
    sw_ports: Vec<Vec<PortMetricIds>>,
    /// Per host: (nic backlog, nic tx bytes).
    hosts: Vec<(MetricId, MetricId)>,
}

/// The simulator engine, generic over the host agent type.
///
/// Events and packets live in two [`Slab`] arenas, and only 4-byte handles
/// move between the engine's parts: the future-event list carries event
/// handles; port queues, in-flight slots and `Arrive` events carry packet
/// handles. A packet is parked once, when its host sends it or a shard
/// boundary injects it, and taken out once: at delivery to its host agent,
/// a tail drop, a PIFO eviction, a fault loss or corruption, or export to a
/// shard outbox. So the calendar queue's bucket vectors stay small, no
/// packet is copied hop by hop, and steady-state scheduling performs no
/// heap allocation.
pub struct Engine<A: HostAgent> {
    queue: EventQueue<SlotId>,
    events: Slab<Event>,
    packets: Slab<Packet>,
    topo: Arc<Topology>,
    config: EngineConfig,
    switches: Vec<SwitchState>,
    hosts: Vec<HostState>,
    agents: Vec<A>,
    /// `agent_rank[host]` indexes into `agents`; [`NO_AGENT`] marks hosts
    /// owned by a different shard domain.
    agent_rank: Vec<u32>,
    /// Present when this engine simulates one domain of a sharded fabric.
    shard: Option<ShardRole>,
    scratch_actions: HostActions,
    started: bool,
    events_processed: u64,
    telemetry: Telemetry,
    /// Pre-registered gauge handles; `Some` exactly when telemetry is
    /// enabled.
    metric_ids: Option<EngineMetricIds>,
}

impl<A: HostAgent> Engine<A> {
    /// Build an engine over `topo` with one agent per host.
    pub fn new(topo: impl Into<Arc<Topology>>, agents: Vec<A>, config: EngineConfig) -> Self {
        let topo = topo.into();
        assert_eq!(
            agents.len(),
            topo.num_hosts(),
            "need one agent per host"
        );
        let agent_rank = (0..topo.num_hosts() as u32).collect();
        Self::build(topo, agents, agent_rank, config, None)
    }

    /// Build one domain of a sharded fabric: `agents` holds only the hosts
    /// this domain owns, in host-id order. Packets leaving the domain are
    /// parked in an outbox instead of scheduled; `crate::shard::ShardedEngine`
    /// exchanges them at lookahead horizons.
    pub(crate) fn new_sharded(
        topo: Arc<Topology>,
        agents: Vec<A>,
        config: EngineConfig,
        spec: Arc<ShardSpec>,
        domain: usize,
    ) -> Self {
        let mut rank = 0u32;
        let agent_rank: Vec<u32> = (0..topo.num_hosts())
            .map(|h| {
                if spec.domain_of_host[h] == domain {
                    let r = rank;
                    rank += 1;
                    r
                } else {
                    NO_AGENT
                }
            })
            .collect();
        assert_eq!(
            agents.len(),
            rank as usize,
            "need one agent per owned host"
        );
        let role = ShardRole {
            spec,
            domain,
            // Drained by swap with a recycled scratch buffer.
            outbox: Vec::new(),
        };
        Self::build(topo, agents, agent_rank, config, Some(role))
    }

    fn build(
        topo: Arc<Topology>,
        agents: Vec<A>,
        agent_rank: Vec<u32>,
        config: EngineConfig,
        shard: Option<ShardRole>,
    ) -> Self {
        let switches = topo
            .switch_ports
            .iter()
            .map(|ports| SwitchState {
                ports: ports
                    .iter()
                    .map(|_| {
                        Port::new(
                            &config.switch_scheduler,
                            config.switch_buffer_bytes,
                            config.classes,
                        )
                    })
                    .collect(),
            })
            .collect();
        let hosts = topo
            .host_ports
            .iter()
            .map(|_| HostState {
                nic: Port::new(
                    &config.host_scheduler,
                    config.host_buffer_bytes,
                    config.classes,
                ),
            })
            .collect();
        Engine {
            queue: EventQueue::with_kind(config.event_queue),
            events: Slab::with_capacity(1024),
            packets: Slab::with_capacity(1024),
            topo,
            config,
            switches,
            hosts,
            agents,
            agent_rank,
            shard,
            scratch_actions: HostActions::default(),
            started: false,
            events_processed: 0,
            telemetry: Telemetry::disabled(),
            metric_ids: None,
        }
    }

    /// Park `ev` in the event arena and schedule its handle.
    #[inline]
    fn schedule_ev(&mut self, at: SimTime, ev: Event) {
        let id = self.events.insert(ev);
        self.queue.schedule(at, id);
    }

    /// Attach a telemetry handle; packet lifecycle events (enqueue, dequeue,
    /// drop) are emitted through it and [`Engine::sample_metrics`] refreshes
    /// engine gauges into its registry. Telemetry never alters simulation
    /// behaviour (see `tests/determinism.rs`).
    ///
    /// Every engine gauge is interned here, once — label strings are built
    /// at wiring time only and [`Engine::sample_metrics`] runs entirely on
    /// dense handles.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metric_ids = telemetry.with_metrics(|m| {
            let events_processed = m.gauge_id("engine.events_processed", String::new());
            let queue_len = m.gauge_id("engine.event_queue_len", String::new());
            let sw_ports = self
                .switches
                .iter()
                .enumerate()
                .map(|(si, sw)| {
                    let si_s = si.to_string();
                    sw.ports
                        .iter()
                        .enumerate()
                        .map(|(pi, p)| {
                            let pi_s = pi.to_string();
                            let l = labels(&[("sw", &si_s), ("port", &pi_s)]);
                            PortMetricIds {
                                backlog: m.gauge_id("switch.port.backlog_bytes", l.clone()),
                                tx: m.gauge_id("switch.port.tx_bytes", l.clone()),
                                drops: m.gauge_id("switch.port.drops", l.clone()),
                                // Scheduler kind is fixed at construction, so
                                // probing once here matches the old lazy
                                // string-keyed registration exactly.
                                wfq_vt: p
                                    .wfq_virtual_time()
                                    .map(|_| m.gauge_id("switch.port.wfq_virtual_time", l)),
                                class_depth: (0..self.config.classes)
                                    .map(|class| {
                                        m.gauge_id(
                                            "switch.port.class_depth_pkts",
                                            labels(&[
                                                ("sw", &si_s),
                                                ("port", &pi_s),
                                                ("class", &class.to_string()),
                                            ]),
                                        )
                                    })
                                    .collect(),
                            }
                        })
                        .collect()
                })
                .collect();
            let hosts = (0..self.hosts.len())
                .map(|hi| {
                    let l = labels(&[("host", &hi.to_string())]);
                    (
                        m.gauge_id("host.nic.backlog_bytes", l.clone()),
                        m.gauge_id("host.nic.tx_bytes", l),
                    )
                })
                .collect();
            EngineMetricIds {
                events_processed,
                queue_len,
                sw_ports,
                hosts,
            }
        });
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Exact work counts of the future-event list (bucket occupancy, sorted
    /// inserts, overflow). A test and sizing aid, not a telemetry metric:
    /// exported CSVs do not carry it.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Immutable access to the agents (for collecting results).
    pub fn agents(&self) -> &[A] {
        &self.agents
    }

    /// Mutable access to the agents.
    pub fn agents_mut(&mut self) -> &mut [A] {
        &mut self.agents
    }

    /// The agent driving `host`, or `None` when a sharded engine does not
    /// own it. Unsharded engines own every host.
    pub fn agent_for_host(&self, host: HostId) -> Option<&A> {
        match self.agent_rank[host.0] {
            NO_AGENT => None,
            r => Some(&self.agents[r as usize]),
        }
    }

    /// Mutable variant of [`Engine::agent_for_host`].
    pub fn agent_for_host_mut(&mut self, host: HostId) -> Option<&mut A> {
        match self.agent_rank[host.0] {
            NO_AGENT => None,
            r => Some(&mut self.agents[r as usize]),
        }
    }

    /// Stats of a switch egress port.
    pub fn switch_port_stats(&self, sw: SwitchId, port: usize) -> &PortStats {
        &self.switches[sw.0].ports[port].stats
    }

    /// Stats of a host NIC port.
    pub fn host_nic_stats(&self, host: HostId) -> &PortStats {
        &self.hosts[host.0].nic.stats
    }

    /// Queued bytes at a switch egress port right now.
    pub fn switch_port_backlog(&self, sw: SwitchId, port: usize) -> u64 {
        self.switches[sw.0].ports[port].backlog_bytes()
    }

    /// Queued packets of `class` at a switch egress port right now.
    pub fn switch_port_class_packets(&self, sw: SwitchId, port: usize, class: usize) -> usize {
        self.switches[sw.0].ports[port].class_backlog_packets(class)
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn call_agent<F: FnOnce(&mut A, &mut HostCtx)>(&mut self, host: HostId, f: F) {
        let now = self.queue.now();
        let rank = self.agent_rank[host.0];
        debug_assert_ne!(rank, NO_AGENT, "event for unowned host {}", host.0);
        let actions = &mut self.scratch_actions;
        {
            let mut ctx = HostCtx {
                now,
                host,
                actions,
            };
            f(&mut self.agents[rank as usize], &mut ctx);
        }
        // Apply buffered actions. The vectors are moved out, drained, and
        // moved back so their capacity is reused across events — the apply
        // loops below never re-enter an agent callback, so the (empty)
        // buffers left in `scratch_actions` cannot be written to meanwhile.
        let mut send = std::mem::take(&mut self.scratch_actions.send);
        let mut timers = std::mem::take(&mut self.scratch_actions.timers);
        for pkt in send.drain(..) {
            self.host_transmit(host, pkt);
        }
        for (at, token) in timers.drain(..) {
            let at = at.max(now);
            self.schedule_ev(at, Event::Timer { host, token });
        }
        self.scratch_actions.send = send;
        self.scratch_actions.timers = timers;
    }

    /// Hand `pkt` to `host`'s NIC: park it in the packet slab, enqueue its
    /// handle and kick the transmitter.
    fn host_transmit(&mut self, host: HostId, pkt: Packet) {
        let (wire_class, bytes, rank) = (pkt.class(), pkt.size_bytes, pkt.rank);
        let class = wire_class.min(self.config.classes - 1);
        let id = self.packets.insert(pkt);
        let nic = &mut self.hosts[host.0].nic;
        if nic.enqueue(id, wire_class, bytes, rank, |victim| {
            self.packets.remove(victim);
        }) {
            if self.telemetry.is_enabled() {
                let depth_pkts = nic.class_backlog_packets(class);
                let backlog_bytes = nic.backlog_bytes();
                self.telemetry.emit(
                    self.queue.now(),
                    TraceEvent::PktEnqueue {
                        node: NodeKind::Host,
                        node_id: host.0,
                        port: 0,
                        class,
                        bytes,
                        depth_pkts,
                        backlog_bytes,
                    },
                );
            }
            self.kick_port(NodeRef::Host(host));
            return;
        }
        self.packets.remove(id);
        if self.telemetry.is_enabled() {
            let backlog_bytes = self.hosts[host.0].nic.backlog_bytes();
            self.telemetry.emit(
                self.queue.now(),
                TraceEvent::PktDrop {
                    node: NodeKind::Host,
                    node_id: host.0,
                    port: 0,
                    class,
                    bytes,
                    backlog_bytes,
                },
            );
        }
    }

    /// Start transmission on an idle port if it has queued packets.
    fn kick_port(&mut self, node: NodeRef) {
        let (port_idx_iter, _) = match node {
            NodeRef::Host(_) => (0..1, ()),
            NodeRef::Switch(s) => (0..self.switches[s.0].ports.len(), ()),
        };
        for port in port_idx_iter {
            self.kick_one(node, port);
        }
    }

    fn kick_one(&mut self, node: NodeRef, port: usize) {
        let now = self.queue.now();
        let (port_state, link, ppb) = match node {
            NodeRef::Host(h) => (
                &mut self.hosts[h.0].nic,
                self.topo.host_ports[h.0].link,
                self.topo.host_tx_ppb(h),
            ),
            NodeRef::Switch(s) => (
                &mut self.switches[s.0].ports[port],
                self.topo.switch_ports[s.0][port].link,
                self.topo.switch_tx_ppb(s, port),
            ),
        };
        if port_state.in_flight.is_some() {
            return;
        }
        // Fault injection: a downed link transmits nothing. Defer the
        // dequeue and arm exactly one wake at the end of the down window;
        // queued packets stay buffered (and may tail-drop) meanwhile. A
        // gray-degraded link still transmits, but at a fraction of its
        // nominal rate — serialization is stretched by 1/rate_frac below.
        let mut gray_frac = 1.0f64;
        if let Some(plan) = &self.config.faults {
            if plan.affects_fabric() {
                let flink = fault_link(node, port);
                if plan.link_down(flink, now) {
                    if !port_state.fault_wake_armed {
                        port_state.fault_wake_armed = true;
                        let up = plan.link_up_at(flink, now);
                        self.schedule_ev(up, Event::LinkUp { node, port });
                        if self.telemetry.is_enabled() {
                            let (kind, node_id) = node_tag(node);
                            self.telemetry.emit(
                                now,
                                TraceEvent::FaultLinkDown {
                                    node: kind,
                                    node_id,
                                    port,
                                    until_ps: up.as_ps(),
                                },
                            );
                        }
                    }
                    return;
                }
                gray_frac = plan.gray_rate_frac(flink, now);
            }
        }
        if let Some((pkt, bytes)) = port_state.dequeue() {
            // Exact fast path: ps/bit was precomputed at topology build for
            // rates that divide the picosecond grid (all the defaults);
            // bit-identical to the 128-bit division it replaces.
            let ser = if ppb != 0 {
                SimDuration::from_ps(bytes as u64 * 8 * ppb)
            } else {
                link.rate.serialize_time(bytes as u64)
            };
            let ser = if gray_frac < 1.0 {
                ser.mul_f64(1.0 / gray_frac)
            } else {
                ser
            };
            let tel_info = self
                .telemetry
                .is_enabled()
                .then(|| (self.packets[pkt].class(), bytes, port_state.backlog_bytes()));
            port_state.in_flight = Some(pkt);
            self.schedule_ev(now + ser, Event::TxDone { node, port });
            if let Some((class, bytes, backlog_bytes)) = tel_info {
                let (kind, node_id) = node_tag(node);
                self.telemetry.emit(
                    now,
                    TraceEvent::PktDequeue {
                        node: kind,
                        node_id,
                        port,
                        class: class.min(self.config.classes - 1),
                        bytes,
                        backlog_bytes,
                    },
                );
            }
        }
    }

    /// Packets destroyed in transit by the structured fault plan, summed
    /// over every port: `(clean losses, corruptions)`.
    pub fn fault_loss_totals(&self) -> (u64, u64) {
        let mut drops = 0;
        let mut corrupts = 0;
        for sw in &self.switches {
            for p in &sw.ports {
                drops += p.stats.fault_drops;
                corrupts += p.stats.fault_corrupts;
            }
        }
        for h in &self.hosts {
            drops += h.nic.stats.fault_drops;
            corrupts += h.nic.stats.fault_corrupts;
        }
        (drops, corrupts)
    }

    /// Dispatch one already-popped event.
    fn dispatch(&mut self, ev: Event) {
        self.events_processed += 1;
        match ev {
            Event::Arrive { node, pkt } => match node {
                NodeRef::Host(h) => {
                    let pkt = self.packets.remove(pkt);
                    debug_assert_eq!(pkt.dst(), h, "packet misrouted to host {}", h.0);
                    self.call_agent(h, |agent, ctx| agent.on_packet(ctx, pkt));
                }
                NodeRef::Switch(s) => {
                    // Precomputed FIB: one array load per packet; the ECMP
                    // hash is only computed on true fan-out rows.
                    let p = &self.packets[pkt];
                    let port = self.topo.next_hop(s, p.dst(), &p.flow);
                    let (wire_class, bytes, rank) = (p.class(), p.size_bytes, p.rank);
                    let class = wire_class.min(self.config.classes - 1);
                    let p = &mut self.switches[s.0].ports[port];
                    if p.enqueue(pkt, wire_class, bytes, rank, |victim| {
                        self.packets.remove(victim);
                    }) {
                        if self.telemetry.is_enabled() {
                            let depth_pkts = p.class_backlog_packets(class);
                            let backlog_bytes = p.backlog_bytes();
                            self.telemetry.emit(
                                self.queue.now(),
                                TraceEvent::PktEnqueue {
                                    node: NodeKind::Switch,
                                    node_id: s.0,
                                    port,
                                    class,
                                    bytes,
                                    depth_pkts,
                                    backlog_bytes,
                                },
                            );
                        }
                        self.kick_one(node, port);
                        return;
                    }
                    self.packets.remove(pkt);
                    if self.telemetry.is_enabled() {
                        let backlog_bytes = self.switches[s.0].ports[port].backlog_bytes();
                        self.telemetry.emit(
                            self.queue.now(),
                            TraceEvent::PktDrop {
                                node: NodeKind::Switch,
                                node_id: s.0,
                                port,
                                class,
                                bytes,
                                backlog_bytes,
                            },
                        );
                    }
                }
            },
            Event::TxDone { node, port } => {
                // Deliver the in-flight packet to the peer after propagation,
                // then start the next transmission.
                let (pkt, peer, prop) = match node {
                    NodeRef::Host(h) => {
                        let spec = self.topo.host_ports[h.0];
                        (
                            self.hosts[h.0].nic.in_flight.take(),
                            spec.peer,
                            spec.link.propagation,
                        )
                    }
                    NodeRef::Switch(s) => {
                        let spec = self.topo.switch_ports[s.0][port];
                        (
                            self.switches[s.0].ports[port].in_flight.take(),
                            spec.peer,
                            spec.link.propagation,
                        )
                    }
                };
                let pkt = pkt.expect("TxDone without in-flight packet");
                let now = self.queue.now();
                // NIC hardware timestamping: a host stamps each packet as it
                // leaves the wire, so RTT measurements exclude local queuing
                // (as Swift does). Switch forwarding leaves the stamp alone.
                if matches!(node, NodeRef::Host(_)) {
                    self.packets[pkt].sent_at = now;
                }
                // Structured fault injection: the frame just left the port;
                // the plan decides whether the link destroys it (loss,
                // corruption, or a down window that opened mid-serialization)
                // and how much extra propagation jitter it suffers. Verdicts
                // are pure functions of (seed, link, pkt.id), so they do not
                // depend on event order.
                let mut extra = SimDuration::ZERO;
                if let Some(plan) = &self.config.faults {
                    if plan.affects_fabric() {
                        let flink = fault_link(node, port);
                        let fate = if plan.link_down(flink, now) {
                            PacketFate::Lose
                        } else {
                            plan.packet_fate(flink, self.packets[pkt].id, now)
                        };
                        match fate {
                            PacketFate::Deliver => {
                                extra = plan.extra_delay(flink, self.packets[pkt].id, now);
                            }
                            PacketFate::Lose | PacketFate::Corrupt => {
                                let pkt = self.packets.remove(pkt);
                                let corrupt = fate == PacketFate::Corrupt;
                                let class =
                                    pkt.class().min(self.config.classes - 1);
                                let stats = match node {
                                    NodeRef::Host(h) => &mut self.hosts[h.0].nic.stats,
                                    NodeRef::Switch(s) => {
                                        &mut self.switches[s.0].ports[port].stats
                                    }
                                };
                                if corrupt {
                                    stats.fault_corrupts += 1;
                                } else {
                                    stats.fault_drops += 1;
                                }
                                if self.telemetry.is_enabled() {
                                    let (kind, node_id) = node_tag(node);
                                    self.telemetry.emit(
                                        now,
                                        TraceEvent::FaultPktDrop {
                                            node: kind,
                                            node_id,
                                            port,
                                            class,
                                            bytes: pkt.size_bytes,
                                            corrupt,
                                        },
                                    );
                                }
                                self.kick_one(node, port);
                                return;
                            }
                        }
                    }
                }
                let at = now + prop + extra;
                // Sharded runs: a packet bound for another domain is parked
                // in the outbox; the shard runner injects it at the next
                // horizon. Its arrival time is at least one lookahead away
                // (lookahead = min cross-domain propagation), which is what
                // makes the conservative window protocol exact.
                match &mut self.shard {
                    Some(role) if !role.owns(peer) => {
                        let pkt = self.packets.remove(pkt);
                        role.outbox.push(Boundary { at, node: peer, pkt });
                    }
                    _ => self.schedule_ev(at, Event::Arrive { node: peer, pkt }),
                }
                self.kick_one(node, port);
            }
            Event::LinkUp { node, port } => {
                let port_state = match node {
                    NodeRef::Host(h) => &mut self.hosts[h.0].nic,
                    NodeRef::Switch(s) => &mut self.switches[s.0].ports[port],
                };
                port_state.fault_wake_armed = false;
                if self.telemetry.is_enabled() {
                    let (kind, node_id) = node_tag(node);
                    self.telemetry
                        .emit(self.queue.now(), TraceEvent::FaultLinkUp {
                            node: kind,
                            node_id,
                            port,
                        });
                }
                // May immediately re-defer (and re-arm) if another down
                // window covers this instant.
                self.kick_one(node, port);
            }
            Event::Timer { host, token } => {
                self.call_agent(host, |agent, ctx| agent.on_timer(ctx, token));
            }
        }
    }

    /// Run the `on_start` callbacks (once); no-op afterwards. Called
    /// implicitly by [`Engine::run_until`]; the shard runner calls it
    /// eagerly so every domain's initial events exist before the first
    /// horizon is computed.
    pub(crate) fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for h in 0..self.topo.num_hosts() {
            if self.agent_rank[h] != NO_AGENT {
                self.call_agent(HostId(h), |agent, ctx| agent.on_start(ctx));
            }
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub(crate) fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Swap out the accumulated boundary packets (sharded mode only);
    /// `spare` should be an empty vector whose capacity is recycled.
    pub(crate) fn take_outbox(&mut self, spare: &mut Vec<Boundary>) {
        debug_assert!(spare.is_empty());
        if let Some(role) = &mut self.shard {
            std::mem::swap(&mut role.outbox, spare);
        }
    }

    /// Accept a boundary packet from another domain. `at` must not precede
    /// this domain's clock — guaranteed by the lookahead window protocol.
    pub(crate) fn inject_arrival(&mut self, b: Boundary) {
        debug_assert!(
            self.shard.as_ref().is_some_and(|r| r.owns(b.node)),
            "boundary packet injected into the wrong domain"
        );
        let pkt = self.packets.insert(b.pkt);
        self.schedule_ev(b.at, Event::Arrive { node: b.node, pkt });
    }

    /// Run until simulated time reaches `end` (or the event queue drains).
    pub fn run_until(&mut self, end: SimTime) {
        self.ensure_started();
        // Single bounded probe per event instead of a peek + pop pair.
        while let Some(ev) = self.queue.pop_if_at_or_before(end) {
            let ev = self.events.remove(ev.event);
            self.dispatch(ev);
        }
    }

    /// Packets in the fabric, counted twice: `(live packet-slab slots,
    /// queued + in flight + pending Arrive events)`. Outside a callback the
    /// two are equal, and both are 0 once the fabric drains.
    #[cfg(test)]
    pub(crate) fn packet_census(&self) -> (usize, usize) {
        let ports = self.hosts.iter().map(|h| &h.nic);
        let ports = ports.chain(self.switches.iter().flat_map(|sw| &sw.ports));
        let held: usize = ports
            .map(|p| {
                let queued: usize = (0..self.config.classes)
                    .map(|c| p.class_backlog_packets(c))
                    .sum();
                queued + usize::from(p.in_flight.is_some())
            })
            .sum();
        let arriving = self
            .events
            .values()
            .filter(|ev| matches!(ev, Event::Arrive { .. }))
            .count();
        (self.packets.len(), held + arriving)
    }

    /// Number of configured QoS classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Refresh engine-level gauges in the telemetry registry: per-port
    /// backlog and cumulative tx/drop counters, per-class queue depths, WFQ
    /// virtual time, and event-loop totals. The harness calls this right
    /// before each [`Telemetry::sample`] tick; a no-op when disabled.
    pub fn sample_metrics(&self) {
        let Some(ids) = &self.metric_ids else { return };
        self.telemetry.with_metrics(|m| {
            m.gauge_set_id(ids.events_processed, self.events_processed as f64);
            m.gauge_set_id(ids.queue_len, self.queue.len() as f64);
            for (sw, port_ids) in self.switches.iter().zip(&ids.sw_ports) {
                for (p, pid) in sw.ports.iter().zip(port_ids) {
                    m.gauge_set_id(pid.backlog, p.backlog_bytes() as f64);
                    m.gauge_set_id(pid.tx, p.stats.total_tx_bytes() as f64);
                    m.gauge_set_id(pid.drops, p.stats.total_drops() as f64);
                    if let (Some(id), Some(v)) = (pid.wfq_vt, p.wfq_virtual_time()) {
                        m.gauge_set_id(id, v);
                    }
                    for (class, &id) in pid.class_depth.iter().enumerate() {
                        m.gauge_set_id(id, p.class_backlog_packets(class) as f64);
                    }
                }
            }
            for (h, &(backlog, tx)) in self.hosts.iter().zip(&ids.hosts) {
                m.gauge_set_id(backlog, h.nic.backlog_bytes() as f64);
                m.gauge_set_id(tx, h.nic.stats.total_tx_bytes() as f64);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, PacketKind};
    use crate::topology::LinkSpec;
    use aequitas_sim_core::{SimDuration, SimTime};

    /// A trivial agent: sends `n` packets to a fixed peer at start, records
    /// every packet it receives (time, id), echoes nothing.
    struct Blaster {
        peer: Option<HostId>,
        n: u64,
        class: u8,
        size: u32,
        received: Vec<(SimTime, u64)>,
        timer_fired: Vec<u64>,
    }

    impl Blaster {
        fn sender(peer: HostId, n: u64, class: u8, size: u32) -> Self {
            Blaster {
                peer: Some(peer),
                n,
                class,
                size,
                received: Vec::new(),
                timer_fired: Vec::new(),
            }
        }
        fn sink() -> Self {
            Blaster {
                peer: None,
                n: 0,
                class: 0,
                size: 0,
                received: Vec::new(),
                timer_fired: Vec::new(),
            }
        }
    }

    impl HostAgent for Blaster {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            if let Some(peer) = self.peer {
                for i in 0..self.n {
                    ctx.send(Packet {
                        id: ctx.host().0 as u64 * 1_000_000 + i,
                        flow: FlowKey {
                            src: ctx.host(),
                            dst: peer,
                            class: self.class,
                        },
                        size_bytes: self.size,
                        kind: PacketKind::Data {
                            msg_id: 0,
                            seq: i as u32,
                            is_last: i == self.n - 1,
                        },
                        sent_at: ctx.now(),
                        rank: 0,
                    });
                }
                ctx.set_timer(ctx.now() + SimDuration::from_us(5), 42);
            }
        }
        fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
            self.received.push((ctx.now(), pkt.id));
        }
        fn on_timer(&mut self, _ctx: &mut HostCtx, token: u64) {
            self.timer_fired.push(token);
        }
    }

    fn cfg2() -> EngineConfig {
        EngineConfig::default_2qos()
    }

    #[test]
    fn single_packet_end_to_end_latency_is_exact() {
        // Host0 -> switch -> host1 at 100 Gbps, 500 ns propagation per hop.
        // 4096+64 = 4160 B packet: ser = 332.8 ns. Two serializations (host
        // NIC + switch port) + two propagations = 2*332.8 + 2*500 = 1665.6 ns.
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![Blaster::sender(HostId(1), 1, 0, 4160), Blaster::sink()];
        let mut eng = Engine::new(topo, agents, cfg2());
        eng.run_until(SimTime::from_ms(1));
        let rx = &eng.agents()[1].received;
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].0.as_ps(), 2 * 332_800 + 2 * 500_000);
    }

    #[test]
    fn packets_arrive_in_order_and_all() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![Blaster::sender(HostId(1), 100, 0, 1500), Blaster::sink()];
        let mut eng = Engine::new(topo, agents, cfg2());
        eng.run_until(SimTime::from_ms(10));
        let rx = &eng.agents()[1].received;
        assert_eq!(rx.len(), 100);
        for (i, w) in rx.windows(2).enumerate() {
            assert!(w[0].1 < w[1].1, "out of order at {i}");
        }
    }

    #[test]
    fn timer_fires() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![Blaster::sender(HostId(1), 1, 0, 100), Blaster::sink()];
        let mut eng = Engine::new(topo, agents, cfg2());
        eng.run_until(SimTime::from_ms(1));
        assert_eq!(eng.agents()[0].timer_fired, vec![42]);
    }

    #[test]
    fn wfq_shares_bottleneck_by_class() {
        // Hosts 0 and 1 both blast to host 2; host 0 on class 0, host 1 on
        // class 1, weights 4:1. While both backlogged at the switch->host2
        // port, class 0 should receive ~4x the bytes.
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            Blaster::sender(HostId(2), 2000, 0, 4160),
            Blaster::sender(HostId(2), 2000, 1, 4160),
            Blaster::sink(),
        ];
        let mut eng = Engine::new(topo, agents, cfg2());
        // Stop early while both classes are still backlogged.
        eng.run_until(SimTime::from_us(200));
        let stats = eng.switch_port_stats(SwitchId(0), 2);
        let b0 = stats.tx_bytes[0] as f64;
        let b1 = stats.tx_bytes[1] as f64;
        let share = b0 / (b0 + b1);
        assert!((share - 0.8).abs() < 0.05, "class-0 share {share}");
    }

    #[test]
    fn finite_buffer_drops_and_counts() {
        // Tiny switch buffer, two line-rate senders into one port: must drop.
        let topo = Topology::star(3, LinkSpec::default_100g());
        let mut config = cfg2();
        config.switch_buffer_bytes = Some(20_000);
        // Unbounded NIC buffers so every loss is attributable to the switch.
        config.host_buffer_bytes = None;
        let agents = vec![
            Blaster::sender(HostId(2), 1000, 0, 4160),
            Blaster::sender(HostId(2), 1000, 0, 4160),
            Blaster::sink(),
        ];
        let mut eng = Engine::new(topo, agents, config);
        eng.run_until(SimTime::from_ms(5));
        let stats = eng.switch_port_stats(SwitchId(0), 2);
        assert!(stats.total_drops() > 0, "expected drops");
        let received = eng.agents()[2].received.len() as u64;
        assert_eq!(received + stats.total_drops(), 2000);
    }

    #[test]
    fn leaf_spine_delivers_across_racks() {
        let topo = Topology::leaf_spine(2, 2, 2, LinkSpec::default_100g(), LinkSpec::default_100g());
        let agents = vec![
            Blaster::sender(HostId(3), 50, 0, 1500),
            Blaster::sink(),
            Blaster::sink(),
            Blaster::sink(),
        ];
        let mut eng = Engine::new(topo, agents, cfg2());
        eng.run_until(SimTime::from_ms(10));
        assert_eq!(eng.agents()[3].received.len(), 50);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let topo = Topology::star(3, LinkSpec::default_100g());
            let agents = vec![
                Blaster::sender(HostId(2), 500, 0, 4160),
                Blaster::sender(HostId(2), 500, 1, 4160),
                Blaster::sink(),
            ];
            let mut eng = Engine::new(topo, agents, cfg2());
            eng.run_until(SimTime::from_ms(2));
            eng.agents()[2].received.clone()
        };
        assert_eq!(run(), run());
    }

    use aequitas_faults::{LinkFlap, LinkSel, LossRule};

    #[test]
    fn link_flap_defers_delivery_until_window_end() {
        // The switch->host1 egress goes down before the packet reaches it
        // and comes back at 50 us; nothing is lost, delivery just waits.
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mut config = cfg2();
        config.faults = Some(Arc::new(FaultPlan {
            seed: 1,
            flaps: vec![LinkFlap {
                link: LinkSel::SwitchPort { switch: 0, port: 1 },
                first_down: SimTime::ZERO,
                down: SimDuration::from_us(50),
                period: SimDuration::from_us(50),
                count: 1,
            }],
            ..FaultPlan::default()
        }));
        let agents = vec![Blaster::sender(HostId(1), 1, 0, 4160), Blaster::sink()];
        let mut eng = Engine::new(topo, agents, config);
        eng.run_until(SimTime::from_ms(1));
        let rx = &eng.agents()[1].received;
        assert_eq!(rx.len(), 1, "the packet must survive the flap");
        // Up at 50 us, then one serialization (332.8 ns) + propagation
        // (500 ns) to the host.
        assert_eq!(rx[0].0.as_ps(), 50_000_000 + 332_800 + 500_000);
        assert_eq!(eng.fault_loss_totals(), (0, 0));
    }

    #[test]
    fn fault_loss_is_counted_and_packets_vanish() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mut config = cfg2();
        config.faults = Some(Arc::new(FaultPlan {
            seed: 3,
            loss: vec![LossRule {
                link: LinkSel::HostUp(0),
                prob: 0.5,
                burst: None,
            }],
            ..FaultPlan::default()
        }));
        let agents = vec![Blaster::sender(HostId(1), 400, 0, 1500), Blaster::sink()];
        let mut eng = Engine::new(topo, agents, config);
        eng.run_until(SimTime::from_ms(10));
        let received = eng.agents()[1].received.len() as u64;
        let (drops, corrupts) = eng.fault_loss_totals();
        assert_eq!(corrupts, 0);
        assert_eq!(received + drops, 400, "every packet delivered or counted");
        assert!(
            (100..=300).contains(&drops),
            "0.5 loss on 400 packets, got {drops} drops"
        );
        // The NIC's own stats hold the drops: the loss rule is on host 0's
        // uplink.
        assert_eq!(eng.host_nic_stats(HostId(0)).fault_drops, drops);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let topo = Topology::star(3, LinkSpec::default_100g());
            let mut config = cfg2();
            config.faults = Some(Arc::new(FaultPlan {
                seed: 9,
                flaps: vec![LinkFlap {
                    link: LinkSel::SwitchPort { switch: 0, port: 2 },
                    first_down: SimTime::from_us(100),
                    down: SimDuration::from_us(40),
                    period: SimDuration::from_us(200),
                    count: 3,
                }],
                loss: vec![LossRule {
                    link: LinkSel::Any,
                    prob: 0.05,
                    burst: None,
                }],
                jitter: vec![aequitas_faults::JitterRule {
                    link: LinkSel::Any,
                    max: SimDuration::from_ns(400),
                }],
                ..FaultPlan::default()
            }));
            let agents = vec![
                Blaster::sender(HostId(2), 500, 0, 4160),
                Blaster::sender(HostId(2), 500, 1, 4160),
                Blaster::sink(),
            ];
            let mut eng = Engine::new(topo, agents, config);
            eng.run_until(SimTime::from_ms(2));
            (eng.agents()[2].received.clone(), eng.fault_loss_totals())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gray_degrade_stretches_serialization_exactly() {
        // Both hops (host NIC + switch egress) degraded to 1/4 rate for the
        // whole window: each 332.8 ns serialization becomes 1331.2 ns while
        // propagation is untouched.
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mut config = cfg2();
        config.faults = Some(Arc::new(
            FaultPlan {
                seed: 1,
                gray: vec![aequitas_faults::GrayDegrade {
                    link: LinkSel::Any,
                    window: aequitas_faults::Window {
                        start: SimTime::ZERO,
                        end: SimTime::from_ms(1),
                    },
                    rate_frac: 0.25,
                    jitter_ramp: SimDuration::ZERO,
                }],
                ..FaultPlan::default()
            }
            .validated()
            .unwrap(),
        ));
        let agents = vec![Blaster::sender(HostId(1), 1, 0, 4160), Blaster::sink()];
        let mut eng = Engine::new(topo, agents, config);
        eng.run_until(SimTime::from_ms(1));
        let rx = &eng.agents()[1].received;
        assert_eq!(rx.len(), 1, "gray link is slow, not down");
        assert_eq!(rx[0].0.as_ps(), 2 * 4 * 332_800 + 2 * 500_000);
        assert_eq!(eng.fault_loss_totals(), (0, 0));
    }

    #[test]
    fn switch_outage_blackholes_then_recovers() {
        // The whole switch goes dark for [0, 50 us); the packet waits at the
        // switch egress and delivers right after recovery, like a flap but
        // driven by the switch-level fault kind.
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mut config = cfg2();
        config.faults = Some(Arc::new(
            FaultPlan {
                seed: 1,
                switch_outages: vec![aequitas_faults::SwitchOutage {
                    switch: 0,
                    window: aequitas_faults::Window {
                        start: SimTime::ZERO,
                        end: SimTime::from_us(50),
                    },
                }],
                ..FaultPlan::default()
            }
            .validated()
            .unwrap(),
        ));
        let agents = vec![Blaster::sender(HostId(1), 1, 0, 4160), Blaster::sink()];
        let mut eng = Engine::new(topo, agents, config);
        eng.run_until(SimTime::from_ms(1));
        let rx = &eng.agents()[1].received;
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].0.as_ps(), 50_000_000 + 332_800 + 500_000);
    }

    /// Every 2 µs, for `bursts` rounds, sends 8 packets of mixed size and
    /// PIFO rank to each other host, so queues fill, tail-drop and evict
    /// while the fault plan loses and corrupts frames in flight.
    struct Churn {
        hosts: usize,
        bursts: u32,
        sent: u64,
    }

    impl Churn {
        fn burst(&mut self, ctx: &mut HostCtx) {
            let me = ctx.host();
            for dst in (0..self.hosts).filter(|&d| d != me.0) {
                for _ in 0..8 {
                    let id = me.0 as u64 * 1_000_000 + self.sent;
                    self.sent += 1;
                    let mix = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    ctx.send(Packet {
                        id,
                        flow: FlowKey {
                            src: me,
                            dst: HostId(dst),
                            class: (id % 2) as u8,
                        },
                        size_bytes: 64 + (mix >> 52) as u32,
                        kind: PacketKind::Data {
                            msg_id: 0,
                            seq: 0,
                            is_last: true,
                        },
                        sent_at: ctx.now(),
                        rank: mix >> 40,
                    });
                }
            }
            if self.bursts > 0 {
                self.bursts -= 1;
                ctx.set_timer(ctx.now() + SimDuration::from_us(2), 0);
            }
        }
    }

    impl HostAgent for Churn {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            self.burst(ctx);
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut HostCtx, _token: u64) {
            self.burst(ctx);
        }
    }

    #[test]
    fn every_parked_packet_is_held_somewhere_and_freed_once() {
        let topo = Topology::star(4, LinkSpec::default_100g());
        let mut config = cfg2();
        // Tail drops at the switch; evictions (several per push at times:
        // sizes vary) and rejections at the PIFO NICs.
        config.switch_buffer_bytes = Some(20_000);
        config.host_scheduler = SchedulerKind::Pifo;
        config.host_buffer_bytes = Some(16_000);
        config.faults = Some(Arc::new(FaultPlan {
            seed: 7,
            flaps: vec![LinkFlap {
                link: LinkSel::SwitchPort { switch: 0, port: 3 },
                first_down: SimTime::from_us(10),
                down: SimDuration::from_us(15),
                period: SimDuration::from_us(40),
                count: 2,
            }],
            loss: vec![LossRule {
                link: LinkSel::Any,
                prob: 0.05,
                burst: None,
            }],
            corrupt: vec![aequitas_faults::CorruptRule {
                link: LinkSel::Any,
                prob: 0.05,
            }],
            ..FaultPlan::default()
        }));
        let agents = (0..4)
            .map(|_| Churn {
                hosts: 4,
                bursts: 40,
                sent: 0,
            })
            .collect();
        let mut eng = Engine::new(topo, agents, config);
        let mut peak = 0;
        for step in 1..=200 {
            eng.run_until(SimTime::from_us(step));
            let (live, held) = eng.packet_census();
            assert_eq!(live, held, "packet slab out of step at {step} us");
            peak = peak.max(live);
        }
        eng.run_until(SimTime::from_ms(10));
        assert_eq!(
            eng.packet_census(),
            (0, 0),
            "packets leaked after the drain"
        );
        assert!(peak > 20, "the fabric never got busy: peak {peak}");
        let nic_drops: u64 = (0..4)
            .map(|h| eng.host_nic_stats(HostId(h)).total_drops())
            .sum();
        assert!(nic_drops > 0, "no PIFO eviction or rejection happened");
        assert!(
            eng.switch_port_stats(SwitchId(0), 3).total_drops() > 0,
            "no tail drop"
        );
        let (lost, corrupted) = eng.fault_loss_totals();
        assert!(lost > 0 && corrupted > 0, "faults spared every frame");
    }
}

#[cfg(test)]
mod ecmp_tests {
    use super::*;
    use crate::packet::{FlowKey, PacketKind};
    use crate::topology::LinkSpec;
    use aequitas_sim_core::SimTime;

    /// Sends one packet per (class) flow from every host in rack 0 to every
    /// host in rack 1 and checks the spine uplinks all carried traffic.
    struct FanOut;
    impl HostAgent for FanOut {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            let me = ctx.host().0;
            if me < 8 {
                for dst in 8..16usize {
                    for class in 0..3u8 {
                        ctx.send(Packet {
                            id: (me * 100 + dst * 3 + class as usize) as u64,
                            flow: FlowKey {
                                src: ctx.host(),
                                dst: HostId(dst),
                                class,
                            },
                            size_bytes: 1500,
                            kind: PacketKind::Data {
                                msg_id: 0,
                                seq: 0,
                                is_last: true,
                            },
                            sent_at: ctx.now(),
                            rank: 0,
                        });
                    }
                }
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut HostCtx, _token: u64) {}
    }

    #[test]
    fn ecmp_spreads_cross_rack_traffic_over_spines() {
        let topo = Topology::leaf_spine(
            2,
            8,
            4,
            LinkSpec::default_100g(),
            LinkSpec::default_100g(),
        );
        let agents = (0..16).map(|_| FanOut).collect();
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(5));
        // ToR 0's four uplinks are ports 8..12; every spine should carry a
        // share of the 192 cross-rack flows.
        let mut carried = Vec::new();
        for port in 8..12 {
            let stats = eng.switch_port_stats(SwitchId(0), port);
            carried.push(stats.tx_packets.iter().sum::<u64>());
        }
        let total: u64 = carried.iter().sum();
        assert_eq!(total, 192, "all flows must cross the fabric: {carried:?}");
        for (i, &c) in carried.iter().enumerate() {
            assert!(
                c > 20,
                "spine {i} underused: {carried:?} (ECMP hash imbalance?)"
            );
        }
    }
}
