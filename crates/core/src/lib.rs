#![warn(missing_docs)]
//! # f4t-core — FtEngine, the F4T hardware TCP accelerator
//!
//! A cycle-level model of the paper's FPGA engine (§4). The engine runs at
//! 250 MHz; one call to [`Engine::tick`] advances one core cycle. The
//! module structure mirrors Figure 3:
//!
//! ```text
//!                 host commands            network segments
//!                      │                        │
//!                      ▼                        ▼
//!   ┌───────────┐   host i/f               RX parser ──── cuckoo flow table,
//!   │  timers   │──────┐ │                     │           logical reassembly
//!   └───────────┘      ▼ ▼                     ▼
//!                 ┌──────────────────────────────────┐
//!                 │    scheduler (location LUT,      │
//!                 │    coalesce FIFOs, pending queue, │
//!                 │    migration control)             │
//!                 └───────┬──────────────────┬───────┘
//!                         ▼                  ▼
//!                  FPC 0..N-1          memory manager ── DRAM/HBM,
//!                  (event handler,     (event handling    TCB cache
//!                   dual memory,        in DRAM, check
//!                   TCB manager, FPU,   logic)
//!                   evict checker, CAM)
//!                         │
//!                         ▼
//!                  packet generator ──► network segments out
//! ```
//!
//! The TCP algorithms the FPU executes are functionally real — genuine New
//! Reno/CUBIC/Vegas over real sequence arithmetic — so the engine can run
//! end-to-end data transfers against a peer engine or the reference
//! simulator, while every performance-relevant structure (two-cycle port
//! schedule, round-robin TCB manager, coalesce FIFOs, 12-cycle migration
//! bound, DRAM bandwidth) is modelled per cycle.

pub mod engine;
pub mod event;
pub mod fpc;
pub mod fpu;
pub mod memory_manager;
pub mod packet_gen;
pub mod parallel;
pub mod resources;
pub mod rx_parser;
pub mod scheduler;
pub mod timers;

pub use f4t_sim::digest::fold_digests;
pub use engine::{Engine, EngineConfig, EngineStats, HostNotification};
pub use event::{EventKind, FlowEvent, TimeoutKind, TxRequest};
pub use fpc::Fpc;
pub use fpu::Fpu;
pub use memory_manager::MemoryManager;
pub use packet_gen::PacketGenerator;
pub use parallel::{ParallelRunner, RENDEZVOUS_QUANTUM};
pub use resources::{resource_report, ResourceRow};
pub use rx_parser::RxParser;
pub use scheduler::Scheduler;
