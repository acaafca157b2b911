#![warn(missing_docs)]
//! # f4t-mem — hardware memory models
//!
//! The memory structures FtEngine is built from, modelled at the level
//! that matters for the paper's claims:
//!
//! * [`Cam`] — the content-addressable memory each FPC uses to map a
//!   global flow id to its local TCB-table index (§4.4.2, "a comparator
//!   array and a binary log module").
//! * [`LocationLut`] — the scheduler's location lookup table, implemented
//!   with partitioned LUT groups so multiple events can be routed per
//!   cycle (§4.4.2).
//! * [`DramModel`] — on-board DDR4 (38 GB/s) or HBM (460 GB/s) with a
//!   random-access efficiency factor and access latency; the bandwidth
//!   ceiling behind Fig. 13's knee at >1024 flows.
//! * [`TcbCache`] — the memory manager's direct-mapped TCB cache
//!   (§4.3.1).
//!
//! The FPC's dual-port block RAMs need no model of their own here: the
//! two-cycle access schedule (§4.2.3: "the two memories allow four reads
//! and four writes in two cycles") is enforced structurally by the FPC
//! tick in `f4t-core`, and FtVerify's `PortTracker` (`f4t-sim::check`)
//! flags any cycle that exceeds the two-port budget.

pub mod cam;
pub mod dram;
pub mod lut;
pub mod tcb_cache;

pub use cam::Cam;
pub use dram::{DramKind, DramModel};
pub use lut::{Location, LocationLut};
pub use tcb_cache::{CacheAccess, TcbCache};

/// Size of one TCB in bytes as stored in DRAM. The paper does not state
/// the exact figure; 128 B comfortably holds the pointer set, congestion
/// state and timer fields of [`f4t_tcp::Tcb`] and is the granularity used
/// for all DRAM bandwidth accounting.
pub const TCB_BYTES: u64 = 128;
