#![warn(missing_docs)]
//! # f4t-sim — simulation kernel for the F4T reproduction
//!
//! This crate provides the small, dependency-free substrate every other
//! crate in the workspace builds on:
//!
//! * [`Cycle`] and [`ClockDomain`] — discrete hardware time and conversion
//!   between cycles, nanoseconds and rates.
//! * [`Fifo`] — a bounded FIFO with backpressure, modelling on-chip queues.
//! * [`SimRng`] — a tiny deterministic PRNG (SplitMix64/xorshift) so every
//!   experiment is reproducible from a seed without external crates in the
//!   hot path.
//! * [`Counter`], [`Histogram`] — statistics used by the benchmark
//!   harnesses (throughput counters, latency percentiles).
//! * [`EventQueue`] — a discrete-event scheduler used by the NS3-equivalent
//!   reference simulator in `f4t-netsim`.
//! * [`Ring`] — the bounded overwrite-oldest ring every recorder stores
//!   its entries in (trace events, journal events, pulse windows).
//! * [`digest`] — FNV-1a, the one fingerprint every recorder digest, the
//!   merged per-shard digest and the golden checks fold with.
//! * [`telemetry`] — FtScope: the metrics registry (snapshot/delta), the
//!   bounded pipeline trace ring, and Chrome-trace JSON export.
//! * [`flight`] — FtFlight: span-based per-flow latency attribution
//!   ([`FlightRecorder`], [`FlightStage`]) with per-stage histograms and
//!   deterministic breakdown JSON.
//! * [`check`] — FtVerify: the optional cycle-level hazard checker
//!   ([`InvariantChecker`], [`PortTracker`]) that simulated memories and
//!   queues register accesses against.
//! * [`probe`] — the [`Probe`] handle through which module ticks reach
//!   the checker, flight recorder and journal: one parameter per tick, one
//!   branch per emission site when a view is detached.
//! * [`pulse`] — FtPulse: windowed time-series telemetry
//!   ([`PulseRecorder`], [`PulseSeries`]) — bounded per-series rings
//!   sampled at fixed cycle intervals, byte-identical across execution
//!   modes, with per-shard aggregation and Chrome counter export.
//! * [`json`] — the one JSON codec: the shared string escaper and float
//!   formatter, and the strict reader ([`json::parse`] → [`json::Value`])
//!   that the perf gate, the shape gate and `f4tdbg` read documents with.
//! * [`journal`] — FtJournal: the bounded per-flow causal event journal
//!   ([`Journal`], [`JournalEvent`]) behind post-mortem black-box dumps.
//! * [`watchdog`] — FtJournal's online health watchdog ([`Watchdog`]):
//!   stuck flows, retransmit storms, queue SLOs, starved LUT entries.
//! * [`slab`] — FtTurbo struct-of-arrays flow tables ([`FlowSlab`],
//!   [`SlabQueue`], [`FlowSet`]): the dense, hash-free,
//!   deterministically-iterable stores behind every tick-path per-flow
//!   structure.
//!
//! # Examples
//!
//! ```
//! use f4t_sim::{ClockDomain, Fifo};
//!
//! let core = ClockDomain::new_mhz(250);
//! assert_eq!(core.cycles_to_ns(250_000_000), 1_000_000_000);
//!
//! let mut q: Fifo<u32> = Fifo::new(2);
//! assert!(q.push(1).is_ok());
//! assert!(q.push(2).is_ok());
//! assert!(q.push(3).is_err()); // backpressure
//! assert_eq!(q.pop(), Some(1));
//! ```

pub mod check;
pub mod clock;
pub mod des;
pub mod digest;
pub mod fifo;
pub mod flight;
pub mod journal;
pub mod json;
pub mod probe;
pub mod pulse;
pub mod ring;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod telemetry;
pub mod watchdog;

pub use check::{InvariantChecker, PortTracker, Violation, ViolationKind};
pub use clock::{Cycle, ClockDomain};
pub use des::EventQueue;
pub use fifo::Fifo;
pub use flight::{FlightRecorder, FlightStage};
pub use journal::{Journal, JournalEvent, JournalKind, JournalModule};
pub use probe::Probe;
pub use pulse::{PulseRecorder, PulseSeries};
pub use ring::Ring;
pub use rng::SimRng;
pub use slab::{FlowSet, FlowSlab, SlabQueue};
pub use stats::{Counter, Histogram};
pub use watchdog::{
    Alarm, AlarmKind, FlowObservation, QueueObservation, Watchdog, WatchdogConfig,
};
pub use telemetry::{MetricsRegistry, MetricValue, TraceEvent, TraceKind, TraceRing};

/// Converts a byte count over a duration in nanoseconds to gigabits/second.
///
/// # Examples
///
/// ```
/// // 12.5 GB over one second is 100 Gbps.
/// assert!((f4t_sim::gbps(12_500_000_000, 1_000_000_000) - 100.0).abs() < 1e-9);
/// ```
pub fn gbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / ns as f64
}

/// Converts an operation count over a duration in nanoseconds to
/// millions of operations per second.
///
/// # Examples
///
/// ```
/// assert!((f4t_sim::mops(44_000_000, 1_000_000_000) - 44.0).abs() < 1e-9);
/// ```
pub fn mops(ops: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    ops as f64 * 1e3 / ns as f64
}
