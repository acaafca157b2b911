#![warn(missing_docs)]
//! # f4t-netsim — the NS3-equivalent reference network simulator
//!
//! Fig. 14 validates F4T's congestion-control behaviour against "a
//! well-known network simulator, NS3". We cannot ship NS3, so this crate
//! is its stand-in: a discrete-event, packet-level network simulator with
//! its **own, independent** implementations of New Reno, CUBIC and Vegas
//! ([`refcc`]). Independence is the point — the Fig. 14 harness compares
//! the congestion-window trace of FtEngine's FPU (integer arithmetic over
//! TCB state in `f4t-tcp`) against this crate's NS3-style floating-point
//! MSS-unit implementations, two codebases that share nothing but the
//! RFCs.
//!
//! The simulator is deliberately classic: a sender node, a receiver node,
//! and a full-duplex link with serialization delay, propagation delay, a
//! drop-tail queue ([`link`]) and scripted or random loss ([`impair`],
//! the loss decision `f4t-system`'s engine-pair link shares).

pub mod endpoint;
pub mod impair;
pub mod link;
pub mod refcc;
pub mod sim;

pub use impair::{EveryNth, GeParams, ImpairDecision, ImpairState, Impairments};
pub use link::{LinkConfig, Offer};
pub use refcc::{RefAlgo, RefCc};
pub use sim::{CwndSample, Simulation, SimulationConfig, TraceResult};
