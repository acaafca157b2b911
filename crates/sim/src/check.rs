//! FtVerify — the cycle-level hazard checker.
//!
//! Hardware design-rule checking for the simulated datapath: simulated
//! memories and queues register their per-cycle accesses against a
//! [`PortTracker`]/[`InvariantChecker`] pair, which flags the classes of
//! bug the paper's design rules out by construction:
//!
//! * **dual-port overuse** — more accesses to a BRAM in one cycle than it
//!   has ports (the two-cycle event/dispatch schedule exists precisely to
//!   stay within the dual-port budget, paper §4.2);
//! * **schedule-parity violations** — event accumulation on an odd cycle
//!   or TCB dispatch on an even one;
//! * **same-cycle RMW hazards** — a TCB slot dispatched while its FPU
//!   result is still in flight (the stall-free claim, checked structurally
//!   instead of only counted);
//! * **migration races** — a TCB simultaneously valid in FPC SRAM and
//!   DRAM, a location-LUT entry pointing at a place that no longer holds
//!   the flow, or an illegal LUT state transition (§3.2, §4.4.2);
//! * **valid-bit leaks** — an event accumulated against a resident TCB but
//!   never dispatched within a bound;
//! * **FIFO conservation** — for every [`Fifo`], `pushed == popped +
//!   occupancy` (rejected pushes never enter the queue);
//! * **event conservation** — every event the scheduler routed to DRAM
//!   was handled there, bounced and taken back by the scheduler, or is
//!   still queued: no non-retransmittable event is ever discarded.
//!
//! The checker is *optional at runtime*: modules reach it through
//! [`Probe::check`](crate::Probe::check) and the disabled path is a single
//! null-check per call site, so production runs pay nothing. It is enabled
//! via `EngineConfig::check` / `f4tperf --check` and in integration tests.

use crate::fifo::Fifo;
use std::fmt;

/// Default bound (in cycles) after which a pending-but-never-dispatched
/// event on a resident TCB is reported as a valid-bit leak. 2M cycles is
/// 8 ms at 250 MHz — three orders of magnitude above the worst legitimate
/// dispatch latency observed under full backpressure.
pub const DEFAULT_LEAK_BOUND: u64 = 2_000_000;

/// How many violations are retained verbatim; past this only the total
/// count grows (a broken invariant tends to fire every audit).
const VIOLATION_LOG_CAP: usize = 256;

/// The class of design-rule violation detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A simulated memory saw more accesses in one cycle than it has ports.
    PortOveruse,
    /// An operation ran on the wrong phase of the two-cycle schedule.
    ScheduleParity,
    /// A same-cycle read-modify-write hazard on a TCB slot.
    RmwHazard,
    /// A TCB valid in two places at once, or a stale location-LUT entry,
    /// or an illegal LUT state transition.
    MigrationRace,
    /// An event-table entry stayed valid past the dispatch bound.
    ValidBitLeak,
    /// A FIFO's push/pop/occupancy accounting stopped balancing.
    FifoConservation,
    /// An event left the DRAM path without being handled or handed back
    /// to the scheduler (or one appeared there that was never routed).
    EventConservation,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::PortOveruse => "port_overuse",
            ViolationKind::ScheduleParity => "schedule_parity",
            ViolationKind::RmwHazard => "rmw_hazard",
            ViolationKind::MigrationRace => "migration_race",
            ViolationKind::ValidBitLeak => "valid_bit_leak",
            ViolationKind::FifoConservation => "fifo_conservation",
            ViolationKind::EventConservation => "event_conservation",
        };
        f.write_str(s)
    }
}

/// One detected violation: where, when, what.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Engine cycle at which the violation was observed.
    pub cycle: u64,
    /// The rule that fired.
    pub kind: ViolationKind,
    /// The module that reported it (e.g. `fpc0.tcb_table`).
    pub module: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {} [{}]: {}", self.cycle, self.kind, self.module, self.detail)
    }
}

/// Per-cycle access accounting for one simulated memory.
///
/// Lives inside the module that owns the memory (so state persists across
/// cycles) and is only consulted when a checker is attached. Each call to
/// [`PortTracker::access`] charges ports for the given cycle; exceeding
/// the budget reports a [`ViolationKind::PortOveruse`].
///
/// # Examples
///
/// ```
/// use f4t_sim::check::{InvariantChecker, PortTracker};
/// let mut chk = InvariantChecker::new();
/// let mut ports = PortTracker::new("tcb_table", 2);
/// ports.access(7, 1, &mut chk); // read
/// ports.access(7, 1, &mut chk); // write — at budget
/// ports.access(7, 1, &mut chk); // third access in cycle 7 — violation
/// assert_eq!(chk.total_violations(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PortTracker {
    name: String,
    ports: u32,
    cycle: u64,
    used: u32,
}

impl PortTracker {
    /// Creates a tracker for a memory called `name` with `ports` ports per
    /// cycle.
    pub fn new(name: impl Into<String>, ports: u32) -> PortTracker {
        PortTracker { name: name.into(), ports, cycle: u64::MAX, used: 0 }
    }

    /// Charges `n` port accesses in `cycle`, reporting overuse to `chk`.
    pub fn access(&mut self, cycle: u64, n: u32, chk: &mut InvariantChecker) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.used = 0;
        }
        self.used += n;
        if self.used > self.ports {
            chk.report(
                cycle,
                ViolationKind::PortOveruse,
                self.name.clone(),
                format!("{} accesses in one cycle ({} ports)", self.used, self.ports),
            );
        }
    }
}

/// Collects violations reported by the simulated modules.
///
/// Owned by the engine when `EngineConfig::check` is set; modules receive
/// it through [`Probe::check`](crate::Probe::check) so the disabled
/// configuration costs one branch per call site.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    violations: Vec<Violation>,
    total: u64,
    leak_bound: u64,
}

impl InvariantChecker {
    /// Creates a checker with the default valid-bit leak bound.
    pub fn new() -> InvariantChecker {
        InvariantChecker {
            violations: Vec::new(),
            total: 0,
            leak_bound: DEFAULT_LEAK_BOUND,
        }
    }

    /// Overrides the valid-bit leak bound (cycles); used by tests to trip
    /// the leak rule without simulating millions of cycles.
    pub fn set_leak_bound(&mut self, cycles: u64) {
        self.leak_bound = cycles.max(1);
    }

    /// The current valid-bit leak bound in cycles.
    pub fn leak_bound(&self) -> u64 {
        self.leak_bound
    }

    /// Records a violation. The first [`VIOLATION_LOG_CAP`] are retained
    /// verbatim; after that only the total count grows.
    pub fn report(
        &mut self,
        cycle: u64,
        kind: ViolationKind,
        module: impl Into<String>,
        detail: String,
    ) {
        self.total += 1;
        if self.violations.len() < VIOLATION_LOG_CAP {
            self.violations.push(Violation { cycle, kind, module: module.into(), detail });
        }
    }

    /// Audits one FIFO's conservation invariant:
    /// `pushed == popped + occupancy`.
    pub fn check_fifo<T>(&mut self, cycle: u64, name: &str, fifo: &Fifo<T>) {
        let pushed = fifo.total_pushed();
        let popped = fifo.total_popped();
        let len = fifo.len() as u64;
        if pushed != popped + len || fifo.len() > fifo.capacity() {
            self.report(
                cycle,
                ViolationKind::FifoConservation,
                name,
                format!(
                    "pushed {pushed} != popped {popped} + occupancy {len} (capacity {}, rejected {})",
                    fifo.capacity(),
                    fifo.rejected()
                ),
            );
        }
    }

    /// Total violations seen (including any past the retention cap).
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Whether no violation has been reported.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// The retained violation log, oldest first.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// A short multi-line report: total count plus the first few entries.
    pub fn summary(&self) -> String {
        use fmt::Write;
        let mut s = format!("check: {} violation(s)", self.total);
        for v in self.violations.iter().take(16) {
            let _ = write!(s, "\n  {v}");
        }
        if self.total > 16 {
            let _ = write!(s, "\n  … {} more", self.total - 16);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_tracker_flags_overuse_per_cycle() {
        let mut chk = InvariantChecker::new();
        let mut p = PortTracker::new("ev_table", 2);
        p.access(0, 1, &mut chk);
        p.access(0, 1, &mut chk);
        assert!(chk.is_clean(), "at budget is legal");
        p.access(0, 1, &mut chk);
        assert_eq!(chk.total_violations(), 1);
        assert_eq!(chk.violations()[0].kind, ViolationKind::PortOveruse);
        // New cycle resets the budget.
        p.access(1, 2, &mut chk);
        assert_eq!(chk.total_violations(), 1);
    }

    #[test]
    fn fifo_conservation_holds_for_honest_queue() {
        let mut chk = InvariantChecker::new();
        let mut f = Fifo::new(4);
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.pop();
        let _ = f.push(3);
        chk.check_fifo(0, "q", &f);
        assert!(chk.is_clean());
    }

    #[test]
    fn violation_log_caps_but_total_keeps_counting() {
        let mut chk = InvariantChecker::new();
        for i in 0..600u64 {
            chk.report(i, ViolationKind::RmwHazard, "fpc0", "test".into());
        }
        assert_eq!(chk.total_violations(), 600);
        assert_eq!(chk.violations().len(), 256);
        assert!(chk.summary().contains("600 violation(s)"));
        assert!(chk.summary().contains("more"));
    }

    #[test]
    fn display_formats_are_stable() {
        let v = Violation {
            cycle: 42,
            kind: ViolationKind::MigrationRace,
            module: "scheduler".into(),
            detail: "flow 7 in SRAM and DRAM".into(),
        };
        assert_eq!(v.to_string(), "cycle 42: migration_race [scheduler]: flow 7 in SRAM and DRAM");
    }

    #[test]
    fn leak_bound_adjustable() {
        let mut chk = InvariantChecker::new();
        assert_eq!(chk.leak_bound(), DEFAULT_LEAK_BOUND);
        chk.set_leak_bound(0);
        assert_eq!(chk.leak_bound(), 1, "bound is clamped to at least one cycle");
    }
}
