#![warn(missing_docs)]
//! # F4T — a fast and flexible full-stack TCP acceleration framework
//!
//! This is the facade crate of the F4T reproduction workspace. It
//! re-exports every subsystem so that examples, integration tests and
//! downstream users can depend on a single crate:
//!
//! * [`sim`] — simulation kernel (clocks, FIFOs, statistics, DES).
//! * [`tcp`] — the TCP protocol substrate (headers, TCBs, sequence
//!   arithmetic, cuckoo flow table, reassembly, congestion control).
//! * [`mem`] — hardware memory models (dual-port BRAM, CAM, location LUT,
//!   DRAM/HBM bandwidth models, TCB cache).
//! * [`core`] — **FtEngine**, the paper's contribution: flow processing
//!   cores with stall-free event accumulation, the scheduler and memory
//!   orchestration, and the TX/RX data paths.
//! * [`baseline`] — the comparison designs (a stalling w-RMW engine and a
//!   TONIC-like fixed-segment engine).
//! * [`host`] — the software stack: socket-style F4T library with its
//!   per-thread command ring, PCIe model, host-CPU and Linux TCP stack
//!   cost models.
//! * [`netsim`] — an NS3-equivalent reference network simulator with
//!   independent congestion-control implementations.
//! * [`workloads`] — iperf-style bulk, round-robin, echo and HTTP (Nginx +
//!   wrk) workload generators.
//! * [`system`] — end-to-end system composition and metrics.
//!
//! # Quickstart
//!
//! ```
//! use f4t::core::{Engine, EngineConfig};
//!
//! // Build the paper's reference design: 8 FPCs x 128 flows at 250 MHz.
//! let engine = Engine::new(EngineConfig::reference());
//! assert_eq!(engine.config().num_fpcs, 8);
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end data transfer and the
//! `f4t-bench` crate's `figures` binary, which regenerates every figure
//! and table of the paper's evaluation.

pub use f4t_baseline as baseline;
pub use f4t_core as core;
pub use f4t_host as host;
pub use f4t_mem as mem;
pub use f4t_netsim as netsim;
pub use f4t_sim as sim;
pub use f4t_system as system;
pub use f4t_tcp as tcp;
pub use f4t_workloads as workloads;
