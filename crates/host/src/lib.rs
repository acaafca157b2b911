#![warn(missing_docs)]
//! # f4t-host — the F4T software stack and host models
//!
//! The paper's host side (§4.1.1, §4.6) consists of the **F4T library**
//! (a POSIX-socket shim preloaded into the application, turning socket
//! calls into plain function calls that write 16 B commands into a
//! per-thread ring of depth 1024) and the **F4T runtime** (a userspace
//! driver that maps the PCIe BAR and registers hugepages for those
//! rings). Of the runtime the simulation keeps what moves bytes: the ring
//! depth and the PCIe cost of each entry. This crate models the library,
//! that link, the host CPU and the Linux kernel TCP stack the paper
//! compares against:
//!
//! * [`command`] — commands and completions, and the 16 B (§6's 8 B)
//!   entry sizes charged on PCIe.
//! * [`pcie`] — a PCIe Gen3 ×16 byte-budget model (the Fig. 9 / Fig. 16a
//!   bottleneck).
//! * [`cpu`] — host-core cycle budgets at 2.3 GHz and the CPU-utilization
//!   accounting behind Fig. 1 and Fig. 11.
//! * [`lib_api`] — the F4T library: per-flow socket state, the command
//!   ring, send-buffer management, completion processing.
//! * [`linux_model`] — the calibrated Linux kernel TCP stack cost model
//!   (see DESIGN.md §5 for every anchor point).

pub mod command;
pub mod cpu;
pub mod lib_api;
pub mod linux_model;
pub mod pcie;

pub use command::{Command, Completion};
pub use cpu::{CoreBudget, CpuAccounting, CpuCategory};
pub use lib_api::{F4tLib, SendError, SocketState};
pub use linux_model::LinuxModel;
pub use pcie::{PcieDir, PcieModel};

/// Host CPU cycles the F4T library spends to issue one command (function
/// call + queue write + amortized MMIO doorbell with batching, §4.6).
/// Calibrated so one 2.3 GHz core issues ~44 M requests/s including its
/// completion-processing share (Fig. 8a's single-core 45 Gbps at 128 B).
pub const LIB_CMD_CYCLES: u64 = 46;

/// Host CPU cycles to process one hardware completion (poll + pointer
/// update in the library's socket state).
pub const LIB_COMPLETION_CYCLES: u64 = 12;

/// Host CPU cycles for one epoll-style readiness scan over the
/// completion queue when it turns out empty.
pub const LIB_POLL_CYCLES: u64 = 8;
