#![warn(missing_docs)]
//! # f4t-system — end-to-end system composition
//!
//! Wires the full F4T stack together the way the paper's testbed does
//! (§5, "evaluation setup"): application workloads running on host cores
//! (2.3 GHz, cycle-budgeted), the F4T library and per-thread command
//! queues, a PCIe Gen3 ×16 model, FtEngine, and a 100 Gbps direct-attach
//! link to a peer node running the same stack.
//!
//! ```text
//!  +----------------- Node A ------------------+   100 Gbps   +-- Node B --+
//!  | cores = F4tLib = cmd queues = PCIe = Engine|--------------| (mirrored) |
//!  +--------------------------------------------+   direct    +------------+
//! ```
//!
//! [`F4tSystem`] advances everything in 250 MHz engine cycles (host cores
//! accrue 9.2 CPU cycles per tick). The pre-built constructors
//! ([`F4tSystem::bulk`], [`F4tSystem::round_robin`], [`F4tSystem::echo`],
//! [`F4tSystem::http`]) reproduce the paper's four workload setups.
//! [`linux_system`] provides the calibrated Linux-vs-Linux comparison
//! numbers for the same workloads.

pub mod link;
pub mod linux_system;
pub mod metrics;
pub mod node;
pub mod scale;
pub mod system;

pub use link::{DuplexLink, EnginePair};
pub use linux_system::LinuxSystem;
pub use metrics::Metrics;
pub use node::{Driver, Node};
pub use scale::ScaleShard;
pub use system::F4tSystem;
