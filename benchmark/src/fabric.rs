//! One view over the plain and the sharded engine, and the exact counts
//! both export.

use aequitas_netsim::{Engine, HostAgent, HostId, PortStats, ShardedEngine, SwitchId, Topology};
use aequitas_sim_core::SimTime;

/// What a run needs from an engine, sharded or not.
pub trait Fabric<A> {
    /// Advance simulated time to `end`.
    fn run_until(&mut self, end: SimTime);
    /// Events dispatched so far.
    fn events(&self) -> u64;
    /// The topology simulated.
    fn topo(&self) -> &Topology;
    /// The agent of `host`.
    fn agent_mut(&mut self, host: HostId) -> &mut A;
    /// Counters of a switch egress port.
    fn switch_stats(&self, sw: SwitchId, port: usize) -> &PortStats;
    /// Counters of a host NIC.
    fn nic_stats(&self, host: HostId) -> &PortStats;
    /// Packets the fault plan destroyed: `(lost, corrupted)`.
    fn fault_totals(&self) -> (u64, u64);
    /// Refresh the engine's telemetry gauges (nothing where telemetry is
    /// never wired).
    fn sample_metrics(&self) {}
}

impl<A: HostAgent> Fabric<A> for Engine<A> {
    fn run_until(&mut self, end: SimTime) {
        Engine::run_until(self, end);
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn topo(&self) -> &Topology {
        self.topology()
    }
    fn agent_mut(&mut self, host: HostId) -> &mut A {
        self.agent_for_host_mut(host)
            .expect("an unsharded engine owns every host")
    }
    fn switch_stats(&self, sw: SwitchId, port: usize) -> &PortStats {
        self.switch_port_stats(sw, port)
    }
    fn nic_stats(&self, host: HostId) -> &PortStats {
        self.host_nic_stats(host)
    }
    fn fault_totals(&self) -> (u64, u64) {
        self.fault_loss_totals()
    }
    fn sample_metrics(&self) {
        Engine::sample_metrics(self);
    }
}

impl<A: HostAgent + Send> Fabric<A> for ShardedEngine<A> {
    fn run_until(&mut self, end: SimTime) {
        ShardedEngine::run_until(self, end);
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn topo(&self) -> &Topology {
        self.domain(0).topology()
    }
    fn agent_mut(&mut self, host: HostId) -> &mut A {
        ShardedEngine::agent_mut(self, host)
    }
    fn switch_stats(&self, sw: SwitchId, port: usize) -> &PortStats {
        self.switch_port_stats(sw, port)
    }
    fn nic_stats(&self, host: HostId) -> &PortStats {
        self.host_nic_stats(host)
    }
    fn fault_totals(&self) -> (u64, u64) {
        self.fault_loss_totals()
    }
}

/// Exact per-layer counts of one run. A pure function of seed and code:
/// they repeat exactly, and a change meant only to speed the simulator up
/// leaves every one of them as it was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events dispatched.
    pub events: u64,
    /// Packets transmitted by switch egress ports.
    pub switch_tx_pkts: u64,
    /// Packets transmitted by host NICs.
    pub nic_tx_pkts: u64,
    /// Packets tail-dropped at a full port buffer.
    pub buffer_drops: u64,
    /// Largest backlog any port reached, bytes.
    pub max_backlog_bytes: u64,
    /// RPCs issued.
    pub rpc_issued: u64,
    /// RPCs completed.
    pub rpc_completed: u64,
    /// RPCs failed for good.
    pub rpc_failed: u64,
    /// RPC-level re-issues of finished (completed or failed) RPCs.
    pub rpc_retries: u64,
    /// RPCs neither completed nor failed at the end time.
    pub rpc_outstanding: u64,
    /// Admission decisions taken.
    pub core_decisions: u64,
    /// Decisions that downgraded the RPC.
    pub core_downgraded: u64,
    /// Data segments the transport sent, retransmissions included.
    pub sent_segments: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Messages the transport abandoned.
    pub failed_messages: u64,
    /// Packets lost to the fault plan.
    pub fault_drops: u64,
    /// Packets corrupted by the fault plan.
    pub fault_corrupts: u64,
    /// Trace lines emitted.
    pub trace_lines: u64,
    /// Trace bytes emitted.
    pub trace_bytes: u64,
    /// Audit checks that passed.
    pub checks_pass: u64,
    /// Audit checks that failed.
    pub checks_fail: u64,
    /// Shard domains (0 on the plain engine).
    pub shard_domains: u64,
}

impl Counts {
    /// The counts with the trace and audit fields cleared: what must match
    /// between a run with telemetry and one without.
    pub fn without_trace(mut self) -> Counts {
        self.trace_lines = 0;
        self.trace_bytes = 0;
        self.checks_pass = 0;
        self.checks_fail = 0;
        self
    }

    /// Name/value pairs, for the result file and `compare`.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("netsim.events", self.events),
            ("netsim.switch_tx_pkts", self.switch_tx_pkts),
            ("netsim.nic_tx_pkts", self.nic_tx_pkts),
            ("netsim.buffer_drops", self.buffer_drops),
            ("netsim.max_backlog_bytes", self.max_backlog_bytes),
            ("rpc.issued", self.rpc_issued),
            ("rpc.completed", self.rpc_completed),
            ("rpc.failed", self.rpc_failed),
            ("rpc.retries", self.rpc_retries),
            ("rpc.outstanding_at_end", self.rpc_outstanding),
            ("core.decisions", self.core_decisions),
            ("core.downgraded", self.core_downgraded),
            ("transport.sent_segments", self.sent_segments),
            ("transport.retransmits", self.retransmits),
            ("transport.failed_messages", self.failed_messages),
            ("faults.drops", self.fault_drops),
            ("faults.corrupts", self.fault_corrupts),
            ("telemetry.trace_lines", self.trace_lines),
            ("telemetry.trace_bytes", self.trace_bytes),
            ("replay.checks_pass", self.checks_pass),
            ("replay.checks_fail", self.checks_fail),
            ("netsim.shard.domains", self.shard_domains),
        ]
    }
}

/// Fill the engine-level counts (events, port and fault counters) from `fabric`.
pub fn engine_counts<A, F: Fabric<A>>(fabric: &F, counts: &mut Counts) {
    counts.events = fabric.events();
    let topo = fabric.topo();
    let mut port = |s: &PortStats, tx: &mut u64| {
        *tx += s.tx_packets.iter().sum::<u64>();
        counts.buffer_drops += s.total_drops();
        counts.max_backlog_bytes = counts.max_backlog_bytes.max(s.max_backlog_bytes);
    };
    let mut switch_tx = 0;
    for (sw, ports) in topo.switch_ports.iter().enumerate() {
        for p in 0..ports.len() {
            port(fabric.switch_stats(SwitchId(sw), p), &mut switch_tx);
        }
    }
    let mut nic_tx = 0;
    for h in 0..topo.num_hosts() {
        port(fabric.nic_stats(HostId(h)), &mut nic_tx);
    }
    counts.switch_tx_pkts = switch_tx;
    counts.nic_tx_pkts = nic_tx;
    (counts.fault_drops, counts.fault_corrupts) = fabric.fault_totals();
}
