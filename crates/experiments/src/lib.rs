#![warn(missing_docs)]
#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiments print their tables"
)]

//! One experiment per table/figure of the paper's evaluation (§6).
//!
//! Every module exposes a `figNN(&RunCtx) -> …Result` function returning
//! plain data and a `print(&result)` that renders the paper-style rows; the
//! `aequitas-sim` CLI's entry table wraps these one-to-one and is the only
//! front door. The [`RunCtx`] carries everything a run takes from its
//! caller — scale, worker threads, telemetry, fault plan, self-audit — and
//! `aequitas-sim`'s `main` is its one owner; [`RunCtx::quick`] keeps
//! runtimes CI-friendly, `--full` uses paper-scale durations and node
//! counts.
//!
//! | Module | Figures |
//! |--------|---------|
//! | [`theory`] | Figs. 8, 9, 10 and the §5.2 guaranteed-share bound |
//! | [`slo`] | Figs. 11, 12, 13 (SLO compliance, outstanding RPCs) |
//! | [`mix`] | Figs. 14, 15, 16 (admissible share, mix convergence, burstiness) |
//! | [`fairness`] | Figs. 17, 18 and the Appendix C sensitivity (28/29) |
//! | [`spq`] | Fig. 19 (strict priority comparison) |
//! | [`sizes_fig`] | Figs. 1, 20 (size CDFs, mixed-size SLOs) |
//! | [`large`] | Figs. 21, 23 (144-node production sizes, testbed analogue) |
//! | [`fleet`] | Fleet-scale 3-tier Clos on the sharded parallel engine |
//! | [`related`] | Fig. 22 (pFabric/QJump/D3/PDQ/Homa comparison) |
//! | [`scheme`] | The six systems under test, run on one [`MacroSetup`] |
//! | [`production`] | Figs. 3, 4, 5, 24 (overload episode, fleet alignment) |
//! | [`chaos`] | Fault injection: link flaps, loss, quota-server outages |

pub mod audit;
pub mod chaos;
pub mod demo;
pub mod ext;
pub mod fairness;
pub mod fleet;
pub mod harness;
pub mod large;
pub mod mix;
pub mod parallel;
pub mod production;
pub mod related;
pub mod report;
pub mod scheme;
pub mod sizes_fig;
pub mod slo;
pub mod spq;
pub mod theory;

pub use harness::{MacroResult, MacroSetup, RunCtx, Scale};
