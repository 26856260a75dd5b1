//! pFabric: minimal near-optimal datacenter transport (Alizadeh et al.).
//!
//! Decision logic reproduced:
//!
//! * every data packet carries the message's **remaining size** as its
//!   scheduling rank;
//! * switches are tiny PIFOs — dequeue the smallest rank, evict the largest
//!   on overflow (use [`engine_config`]);
//! * hosts transmit aggressively: each active message keeps up to one BDP of
//!   packets outstanding, messages served in SRPT order (smallest remaining
//!   first), with timeout retransmission and no window adaptation.
//!
//! The known failure mode the paper exercises (Fig. 22): SLO-unaware SRPT
//! starves large RPCs regardless of their priority class.

use crate::reliable::{ack_packet, BaselineHost, FlowTable, OutMsg, Sender, ARRIVAL_TIMER};
use crate::workgen::WorkloadGen;
use crate::BaselineCompletion;
use aequitas_netsim::{
    EngineConfig, HostAgent, HostCtx, HostId, Packet, PacketKind, SchedulerKind,
};
use aequitas_sim_core::SimDuration;

const RETX_TIMER: u64 = 2;

/// Fabric/NIC configuration for pFabric: PIFO scheduling with very small
/// per-port buffers (the scheme's signature).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        switch_scheduler: SchedulerKind::Pifo,
        host_scheduler: SchedulerKind::Pifo,
        // ~2 BDP at 100 Gbps / ~4 us RTT: 128 KB.
        switch_buffer_bytes: Some(128 * 1024),
        host_buffer_bytes: Some(2 << 20),
        classes: 3,
        faults: None,
    }
}

/// A pFabric host.
pub struct PfabricHost {
    tx: Sender,
    /// Messages being sent, by id.
    msgs: FlowTable<u64, OutMsg>,
    /// Outstanding segments summed over `msgs`.
    inflight: usize,
    window: usize,
    rto: SimDuration,
    mtu: u64,
    retx_armed: bool,
}

impl PfabricHost {
    /// Create a host; `gen: None` for pure receivers.
    pub fn new(host: HostId, gen: Option<WorkloadGen>) -> Self {
        PfabricHost {
            tx: Sender::new(host, gen),
            msgs: FlowTable::new(),
            inflight: 0,
            window: 12, // ~1 BDP of MTU packets at 100 Gbps, 4 us RTT
            rto: SimDuration::from_us(300),
            mtu: 4096,
            retx_armed: false,
        }
    }

    /// Completions collected so far.
    pub fn completions(&self) -> &[BaselineCompletion] {
        self.tx.completions()
    }

    fn fire_arrival(&mut self, ctx: &mut HostCtx) {
        if let Some((id, rpc)) = self.tx.due(ctx.now()) {
            self.msgs
                .insert(id, OutMsg::new(id, &rpc, self.mtu, ctx.now(), None));
            self.tx.schedule_arrival(ctx);
        }
        self.pump(ctx);
        self.arm_retx(ctx);
    }

    /// SRPT across active messages: send new segments of the
    /// smallest-remaining message first, up to `window` outstanding packets
    /// per host.
    fn pump(&mut self, ctx: &mut HostCtx) {
        while self.inflight < self.window {
            // Pick the unsent-segment message with the smallest remaining
            // bytes (ties by id for determinism).
            let Some((&id, _)) = self
                .msgs
                .iter()
                .filter(|(_, m)| !m.fully_sent())
                .min_by_key(|(&id, m)| (m.remaining_bytes(), id))
            else {
                return;
            };
            let now = ctx.now();
            let pkt_id = self.tx.ids.next_id();
            let msg = self.msgs.get_mut(&id).expect("chosen message exists");
            let seq = msg.next_seg;
            let rank = msg.remaining_bytes();
            let pkt = msg.data_packet(pkt_id, seq, rank, now, self.tx.ids.host);
            msg.mark_sent(seq, now);
            self.inflight += 1;
            ctx.send(pkt);
        }
    }

    fn arm_retx(&mut self, ctx: &mut HostCtx) {
        // A message leaves `msgs` on its last ACK; until then it has a
        // segment in flight or one never sent.
        if !self.retx_armed && !self.msgs.is_empty() {
            self.retx_armed = true;
            ctx.set_timer(ctx.now() + self.rto / 2, RETX_TIMER);
        }
    }
}

impl BaselineHost for PfabricHost {
    fn sender(&self) -> &Sender {
        &self.tx
    }
}

impl HostAgent for PfabricHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.tx.schedule_arrival(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data { .. } => {
                let id = self.tx.ids.next_id();
                ctx.send(ack_packet(self.tx.ids.host, &pkt, id, ctx.now()));
            }
            PacketKind::Ack { msg_id, seq, .. } => {
                if let Some(msg) = self.msgs.get_mut(&msg_id) {
                    if msg.on_ack(seq) {
                        self.inflight -= 1;
                    }
                    if msg.done() {
                        let done = self.msgs.remove(&msg_id).expect("msg exists");
                        self.tx.completions.push(done.completion(ctx.now(), false));
                    }
                }
                self.pump(ctx);
            }
            PacketKind::Ctrl { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        match token {
            ARRIVAL_TIMER => self.fire_arrival(ctx),
            RETX_TIMER => {
                self.retx_armed = false;
                let now = ctx.now();
                // Resends leave in (msg id, seq) order.
                let ids = &mut self.tx.ids;
                for msg in self.msgs.values_mut() {
                    msg.resend_expired(now, self.rto, |msg, seq| {
                        let rank = msg.remaining_bytes();
                        ctx.send(msg.data_packet(ids.next_id(), seq, rank, now, ids.host));
                        true
                    });
                }
                self.pump(ctx);
                self.arm_retx(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_gen;
    use aequitas_netsim::{Engine, LinkSpec, Topology};
    use aequitas_sim_core::SimTime;
    use aequitas_workloads::Priority::PerformanceCritical as PC;
    use aequitas_workloads::SizeDist;

    #[test]
    fn completes_all_under_moderate_load() {
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            PfabricHost::new(
                HostId(0),
                Some(test_gen(0, 3, 0.4, PC, SizeDist::Fixed(32_768), 2, 1)),
            ),
            PfabricHost::new(
                HostId(1),
                Some(test_gen(1, 3, 0.4, PC, SizeDist::Fixed(32_768), 2, 2)),
            ),
            PfabricHost::new(HostId(2), None),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(20));
        let done0 = eng.agents()[0].completions().len();
        let done1 = eng.agents()[1].completions().len();
        assert!(done0 > 50 && done1 > 50, "{done0} {done1}");
        // No stuck messages.
        assert!(eng.agents()[0].msgs.is_empty());
        assert!(eng.agents()[1].msgs.is_empty());
    }

    #[test]
    fn short_rpcs_beat_long_rpcs_under_overload() {
        // The SRPT signature: with the link overloaded by a mix of small and
        // large RPCs, small ones finish near-optimally while large ones
        // stretch far beyond their serialization time.
        let mix = SizeDist::Empirical(vec![(8_192, 0.5), (262_144, 0.5)]);
        let topo = Topology::star(3, LinkSpec::default_100g());
        let agents = vec![
            PfabricHost::new(HostId(0), Some(test_gen(0, 3, 0.7, PC, mix.clone(), 5, 3))),
            PfabricHost::new(HostId(1), Some(test_gen(1, 3, 0.7, PC, mix, 5, 4))),
            PfabricHost::new(HostId(2), None),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(40));
        let mut small = Vec::new();
        let mut large = Vec::new();
        for h in 0..2 {
            for c in eng.agents()[h].completions() {
                let lat = c.latency().as_us_f64();
                // Normalize by size to compare slowdowns.
                let ser = c.size_bytes as f64 * 8.0 / 100e9 * 1e6;
                if c.size_bytes <= 8_192 {
                    small.push(lat / ser);
                } else {
                    large.push(lat / ser);
                }
            }
        }
        assert!(small.len() > 20 && large.len() > 20);
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let ms = med(&mut small);
        let ml = med(&mut large);
        assert!(
            ms < ml,
            "small RPC slowdown {ms} should beat large RPC slowdown {ml}"
        );
    }

    #[test]
    fn survives_tiny_buffers_with_retransmission() {
        // Synchronized heavy burst into one port with 128 KB buffers: drops
        // are guaranteed; completions must still happen.
        let topo = Topology::star(4, LinkSpec::default_100g());
        let agents = vec![
            PfabricHost::new(
                HostId(0),
                Some(test_gen(0, 4, 0.9, PC, SizeDist::Fixed(65_536), 2, 5)),
            ),
            PfabricHost::new(
                HostId(1),
                Some(test_gen(1, 4, 0.9, PC, SizeDist::Fixed(65_536), 2, 6)),
            ),
            PfabricHost::new(
                HostId(2),
                Some(test_gen(2, 4, 0.9, PC, SizeDist::Fixed(65_536), 2, 7)),
            ),
            PfabricHost::new(HostId(3), None),
        ];
        let mut eng = Engine::new(topo, agents, engine_config());
        eng.run_until(SimTime::from_ms(100));
        let total: usize = (0..3).map(|h| eng.agents()[h].completions().len()).sum();
        assert!(total > 100, "only {total} completions");
        for h in 0..3 {
            assert!(
                eng.agents()[h].msgs.is_empty(),
                "host {h} has stuck messages"
            );
        }
    }
}
