#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Discrete-event simulation kernel used by the Aequitas reproduction.
//!
//! This crate provides the three primitives every simulation layer builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — simulated time in integer picoseconds, so
//!   that per-byte serialization times at datacenter link rates are exact and
//!   the event queue never suffers floating-point drift.
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   tie-breaking for events scheduled at the same instant.
//! * [`SimRng`] — a seedable random number generator with the distribution
//!   helpers the workload generators need (exponential inter-arrivals,
//!   Bernoulli trials, log-normal samples).
//!
//! Everything is deterministic: running the same experiment with the same
//! seed produces bit-identical results.

pub mod arena;
pub mod event;
pub mod rng;
pub mod time;

pub use arena::{Slab, SlotId};
pub use event::{EventQueue, QueueStats, ScheduledEvent};
pub use rng::SimRng;
pub use time::{BitRate, SimDuration, SimTime};
