#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Packet-level discrete-event datacenter network simulator.
//!
//! This is the substrate the Aequitas reproduction runs on — the equivalent
//! of the paper's YAPS-derived C++ simulator. It models:
//!
//! * **Hosts** with a NIC egress port and a pluggable [`HostAgent`] (the
//!   transport/RPC stack lives in higher crates and implements this trait).
//! * **Switches** with per-egress-port schedulers ([`SchedulerKind`]: WFQ,
//!   DWRR, SPQ, FIFO, or a PIFO ranked queue for pFabric-style baselines)
//!   and finite tail-drop buffers.
//! * **Links** with exact serialization times (integer picoseconds) and
//!   propagation delay.
//! * **Topologies** (star/single-switch, the paper's 3-node microbenchmark,
//!   and a two-tier leaf-spine with flow-hash ECMP for the 144-node runs).
//!
//! The engine is fully deterministic: event ties break in schedule order and
//! all randomness comes from seeds owned by the agents.
//!
//! # Example: a custom host agent
//!
//! ```
//! use aequitas_netsim::*;
//! use aequitas_sim_core::SimTime;
//!
//! /// Sends one packet to host 1 at start; counts receptions.
//! struct Ping(usize);
//!
//! impl HostAgent for Ping {
//!     fn on_start(&mut self, ctx: &mut HostCtx) {
//!         if ctx.host() == HostId(0) {
//!             ctx.send(Packet {
//!                 id: 1,
//!                 flow: FlowKey { src: HostId(0), dst: HostId(1), class: 0 },
//!                 size_bytes: 1500,
//!                 kind: PacketKind::Data { msg_id: 0, seq: 0, is_last: true },
//!                 sent_at: ctx.now(),
//!                 rank: 0,
//!             });
//!         }
//!     }
//!     fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {
//!         self.0 += 1;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut HostCtx, _token: u64) {}
//! }
//!
//! let topo = Topology::star(2, LinkSpec::default_100g());
//! let mut engine = Engine::new(topo, vec![Ping(0), Ping(0)], EngineConfig::default_3qos());
//! engine.run_until(SimTime::from_ms(1));
//! assert_eq!(engine.agents()[1].0, 1);
//! ```

pub mod engine;
pub mod packet;
pub mod port;
pub mod shard;
pub mod topology;

pub use aequitas_faults as faults;
pub use aequitas_sim_core::QueueStats;
pub use engine::{Engine, EngineConfig, HostActions, HostAgent, HostCtx};
pub use packet::{FlowKey, Packet, PacketKind};
pub use port::{PortStats, SchedulerKind};
pub use shard::{ShardSpec, ShardStats, ShardedEngine};
pub use topology::{HostId, LinkSpec, NodeRef, SwitchId, Topology};
