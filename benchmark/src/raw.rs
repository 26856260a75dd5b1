//! `RawBlaster`: the host agent of the `fabric_raw` workload.
//!
//! It puts full-MTU data packets on the wire on an open-loop Poisson
//! schedule and records the one-way delay of what it receives — no
//! transport, no RPC stack, no admission control. Whatever a run costs is
//! event queue + port + qdisc + FIB.

use crate::measure::Digest;
use aequitas_netsim::{FlowKey, HostAgent, HostCtx, HostId, Packet, PacketKind};
use aequitas_sim_core::{BitRate, SimDuration, SimRng, SimTime};

/// Wire size of every packet: one transport MTU of payload plus the header.
pub const PACKET_BYTES: u32 = 4096 + aequitas_netsim::packet::HEADER_BYTES;
/// Byte (and, sizes being equal, packet) mix over classes 0/1/2.
pub const CLASS_MIX: [f64; 3] = [0.6, 0.3, 0.1];

const SEND_TIMER: u64 = 1;

/// Open-loop packet source and delay-recording sink for one host.
pub struct RawBlaster {
    host: usize,
    n_hosts: usize,
    rng: SimRng,
    mean_gap: SimDuration,
    next_send: SimTime,
    stop: SimTime,
    stats_start: SimTime,
    rotation: usize,
    next_id: u64,
    /// Packets sent per class.
    pub sent: [u64; 3],
    /// Packets received per class.
    pub delivered: [u64; 3],
    /// Payload bytes received in packets sent at or after the stats start.
    pub measured_payload_bytes: u64,
    /// One-way delay (µs) of received class-0 packets sent at or after the
    /// stats start.
    pub pc_delay_us: Vec<f64>,
    /// Digest over `(t, src, dst, class)` of every received packet.
    pub digest: Digest,
}

impl RawBlaster {
    /// A blaster on `host` offering `load` of `line_rate` until `stop`.
    pub fn new(
        host: usize,
        n_hosts: usize,
        line_rate: BitRate,
        load: f64,
        stop: SimTime,
        stats_start: SimTime,
        seed: u64,
    ) -> Self {
        assert!(n_hosts >= 2 && load > 0.0);
        RawBlaster {
            host,
            n_hosts,
            rng: SimRng::new(seed ^ 0xB1A5_7E12),
            mean_gap: line_rate
                .serialize_time(u64::from(PACKET_BYTES))
                .mul_f64(1.0 / load),
            next_send: SimTime::ZERO,
            stop,
            stats_start,
            rotation: 0,
            next_id: (host as u64) << 40,
            sent: [0; 3],
            delivered: [0; 3],
            measured_payload_bytes: 0,
            pc_delay_us: Vec::new(),
            digest: Digest::default(),
        }
    }

    /// Arm the timer for the next scheduled send. The schedule advances
    /// from the previous *due* time, whatever the NIC backlog: open loop.
    fn arm(&mut self, ctx: &mut HostCtx) {
        self.next_send += self.rng.exp_duration(self.mean_gap);
        if self.next_send < self.stop {
            ctx.set_timer(self.next_send, SEND_TIMER);
        }
    }
}

impl HostAgent for RawBlaster {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.arm(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let class = pkt.class();
        self.delivered[class] += 1;
        self.digest.add(&[
            ctx.now().as_ps(),
            pkt.src().0 as u64,
            pkt.dst().0 as u64,
            class as u64,
        ]);
        if pkt.sent_at >= self.stats_start {
            self.measured_payload_bytes +=
                u64::from(pkt.size_bytes - aequitas_netsim::packet::HEADER_BYTES);
            if class == 0 {
                self.pc_delay_us
                    .push(ctx.now().since(pkt.sent_at).as_us_f64());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        debug_assert_eq!(token, SEND_TIMER);
        // Destinations rotate over every other host.
        let dst = (self.host + 1 + self.rotation) % self.n_hosts;
        self.rotation = (self.rotation + 1) % (self.n_hosts - 1);
        let class = self.rng.weighted_index(&CLASS_MIX);
        self.next_id += 1;
        ctx.send(Packet {
            id: self.next_id,
            flow: FlowKey {
                src: HostId(self.host),
                dst: HostId(dst),
                class: class as u8,
            },
            size_bytes: PACKET_BYTES,
            kind: PacketKind::Data {
                msg_id: self.next_id,
                seq: 0,
                is_last: true,
            },
            sent_at: ctx.now(),
            rank: 0,
        });
        self.sent[class] += 1;
        self.arm(ctx);
    }
}
