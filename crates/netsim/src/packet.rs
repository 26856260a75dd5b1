//! Packets and flow identification.

use crate::topology::HostId;
use aequitas_sim_core::SimTime;

/// Identifies a transport-level flow: one direction of a (src, dst, QoS
/// class) connection. The paper's prototype maps an RPC channel to one TCP
/// socket per QoS; this is the simulator analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Network QoS class (DSCP analogue): index into switch WFQ classes,
    /// 0 = highest weight.
    pub class: u8,
}

impl FlowKey {
    /// Deterministic hash used for ECMP path selection.
    pub fn ecmp_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in [self.src.0 as u64, self.dst.0 as u64, self.class as u64] {
            h ^= b;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// The payload-bearing part of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment of message `msg_id`; `seq` is the segment index and
    /// `is_last` marks the final segment.
    Data {
        /// Message this segment belongs to.
        msg_id: u64,
        /// Segment sequence number within the message.
        seq: u32,
        /// Whether this is the last segment of the message.
        is_last: bool,
    },
    /// Acknowledgment of segment `seq` of `msg_id`. `echo` carries the data
    /// packet's send timestamp back for RTT measurement.
    Ack {
        /// Acknowledged message.
        msg_id: u64,
        /// Acknowledged segment.
        seq: u32,
        /// Send timestamp echoed from the data packet.
        echo: SimTime,
    },
    /// Protocol control messages used by the baselines (Homa grants, D3/PDQ
    /// rate headers, pauses, ...). `kind` discriminates within a baseline;
    /// `a`/`b` are free payload words.
    Ctrl {
        /// Baseline-specific discriminator.
        kind: u8,
        /// Free payload word.
        a: u64,
        /// Free payload word.
        b: u64,
    },
}

/// A simulated packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Globally unique packet id (assigned by the sender).
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowKey,
    /// Wire size in bytes, including an idealized header.
    pub size_bytes: u32,
    /// Payload discriminator.
    pub kind: PacketKind,
    /// When the packet was handed to the sender's NIC.
    pub sent_at: SimTime,
    /// Scheduling rank for PIFO-style switches (pFabric remaining size,
    /// Homa grant priority). Ignored by class-based schedulers.
    pub rank: u64,
}

/// Idealized per-packet header overhead in bytes (Ethernet + IP + transport,
/// rounded). Applied by the transport when sizing packets.
pub const HEADER_BYTES: u32 = 64;

/// Wire size of a pure ACK/control packet.
pub const ACK_BYTES: u32 = 64;

impl Packet {
    /// Destination host of this packet.
    pub fn dst(&self) -> HostId {
        self.flow.dst
    }

    /// Source host of this packet.
    pub fn src(&self) -> HostId {
        self.flow.src
    }

    /// Scheduler class index for class-based port schedulers.
    pub fn class(&self) -> usize {
        self.flow.class as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecmp_hash_deterministic_and_flow_sensitive() {
        let a = FlowKey {
            src: HostId(1),
            dst: HostId(2),
            class: 0,
        };
        let b = FlowKey {
            src: HostId(1),
            dst: HostId(2),
            class: 1,
        };
        assert_eq!(a.ecmp_hash(), a.ecmp_hash());
        assert_ne!(a.ecmp_hash(), b.ecmp_hash());
    }

    #[test]
    fn packet_accessors() {
        let p = Packet {
            id: 7,
            flow: FlowKey {
                src: HostId(3),
                dst: HostId(9),
                class: 2,
            },
            size_bytes: 4160,
            kind: PacketKind::Data {
                msg_id: 1,
                seq: 0,
                is_last: false,
            },
            sent_at: SimTime::ZERO,
            rank: 0,
        };
        assert_eq!(p.src(), HostId(3));
        assert_eq!(p.dst(), HostId(9));
        assert_eq!(p.class(), 2);
    }
}
