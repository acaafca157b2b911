//! The timer module.
//!
//! "Timers create timeout events" (§4.1.2 ③). The FPU arms deadlines by
//! writing them into the TCB; the engine registers them here after
//! writeback. Expiry produces a [`FlowEvent`]-shaped timeout that is
//! routed through the scheduler like any other event; the FPU validates
//! the deadline against the TCB on arrival, so stale firings (deadline
//! re-armed or cancelled since registration) are harmless no-ops.
//!
//! [`FlowEvent`]: crate::event::FlowEvent

use crate::event::TimeoutKind;
use f4t_tcp::FlowId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "Not armed" in the per-flow deadline table. Deadlines are absolute
/// nanoseconds since simulation start, so the all-ones value is never a
/// real one.
const UNARMED: u64 = u64::MAX;

/// Lazy-cancellation timer wheel keyed by absolute nanosecond deadlines.
///
/// # Examples
///
/// ```
/// use f4t_core::timers::TimerWheel;
/// use f4t_core::TimeoutKind;
/// use f4t_tcp::FlowId;
///
/// let mut w = TimerWheel::new();
/// w.arm(FlowId(1), TimeoutKind::Rto, 1_000);
/// assert!(w.expired(999).is_empty());
/// assert_eq!(w.expired(1_000), vec![(FlowId(1), TimeoutKind::Rto)]);
/// ```
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Reverse<(u64, u32, u8)>>,
    /// Latest registered deadline per flow and kind (`[rto, probe]`,
    /// [`UNARMED`] when none), indexed by flow id: 16 B per flow and no
    /// hashing on the per-writeback arm/disarm path. Older heap entries
    /// are discarded on pop (lazy cancellation).
    armed: Vec<[u64; 2]>,
    live: usize,
}

fn kind_code(kind: TimeoutKind) -> u8 {
    match kind {
        TimeoutKind::Rto => 0,
        TimeoutKind::Probe => 1,
    }
}

fn code_kind(code: u8) -> TimeoutKind {
    if code == 0 {
        TimeoutKind::Rto
    } else {
        TimeoutKind::Probe
    }
}

impl TimerWheel {
    /// Creates an empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Registers (or moves) the deadline for `(flow, kind)`. Re-arming
    /// with the same deadline is a no-op, so the engine can call this on
    /// every FPU writeback without flooding the heap.
    pub fn arm(&mut self, flow: FlowId, kind: TimeoutKind, deadline_ns: u64) {
        debug_assert!(deadline_ns != UNARMED, "deadline collides with the unarmed sentinel");
        let code = kind_code(kind);
        if self.armed.len() <= flow.0 as usize {
            self.armed.resize(flow.0 as usize + 1, [UNARMED; 2]);
        }
        let slot = &mut self.armed[flow.0 as usize][usize::from(code)];
        if *slot == deadline_ns {
            return;
        }
        if *slot == UNARMED {
            self.live += 1;
        }
        *slot = deadline_ns;
        self.heap.push(Reverse((deadline_ns, flow.0, code)));
    }

    /// Unarms `(flow, code)` if its table entry satisfies `when`; `true`
    /// when an armed entry went away.
    fn unarm_if(&mut self, flow: u32, code: u8, when: impl Fn(u64) -> bool) -> bool {
        match self.armed.get_mut(flow as usize).map(|e| &mut e[usize::from(code)]) {
            Some(slot) if *slot != UNARMED && when(*slot) => {
                *slot = UNARMED;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Cancels the timer for `(flow, kind)` (lazy: heap entries are
    /// discarded when popped).
    pub fn disarm(&mut self, flow: FlowId, kind: TimeoutKind) {
        self.unarm_if(flow.0, kind_code(kind), |_| true);
    }

    /// Pops every timer whose deadline is at or before `now_ns`.
    pub fn expired(&mut self, now_ns: u64) -> Vec<(FlowId, TimeoutKind)> {
        let mut fired = Vec::new();
        self.expired_into(now_ns, &mut fired);
        fired
    }

    /// [`expired`](Self::expired) appending into a caller-owned buffer
    /// (the engine polls every cycle and reuses one).
    pub fn expired_into(&mut self, now_ns: u64, fired: &mut Vec<(FlowId, TimeoutKind)>) {
        while let Some(&Reverse((deadline, flow, code))) = self.heap.peek() {
            if deadline > now_ns {
                break;
            }
            self.heap.pop();
            // Only the latest registration counts.
            if self.unarm_if(flow, code, |armed| armed == deadline) {
                fired.push((FlowId(flow), code_kind(code)));
            }
        }
    }

    /// Number of live (non-cancelled) timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Activity horizon in nanoseconds: the earliest heap deadline, or
    /// `None` when the heap is empty. Conservative under lazy
    /// cancellation — a cancelled entry still bounds the horizon, because
    /// the tick-by-tick run pops (and discards) it at exactly that
    /// deadline, and fast-forward must land on the same cycle to keep the
    /// heap state identical.
    pub fn next_activity_ns(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((deadline, _, _))| deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.arm(FlowId(1), TimeoutKind::Rto, 300);
        w.arm(FlowId(2), TimeoutKind::Rto, 100);
        assert_eq!(w.expired(50), vec![]);
        assert_eq!(w.expired(200), vec![(FlowId(2), TimeoutKind::Rto)]);
        assert_eq!(w.expired(400), vec![(FlowId(1), TimeoutKind::Rto)]);
    }

    #[test]
    fn rearm_supersedes_old_deadline() {
        let mut w = TimerWheel::new();
        w.arm(FlowId(1), TimeoutKind::Rto, 100);
        w.arm(FlowId(1), TimeoutKind::Rto, 500); // pushed out
        assert!(w.expired(100).is_empty(), "old registration cancelled");
        assert_eq!(w.expired(500), vec![(FlowId(1), TimeoutKind::Rto)]);
    }

    #[test]
    fn disarm_cancels() {
        let mut w = TimerWheel::new();
        w.arm(FlowId(1), TimeoutKind::Probe, 100);
        w.disarm(FlowId(1), TimeoutKind::Probe);
        assert!(w.expired(1_000).is_empty());
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn duplicate_arm_is_noop() {
        let mut w = TimerWheel::new();
        for _ in 0..1000 {
            w.arm(FlowId(1), TimeoutKind::Rto, 100);
        }
        assert_eq!(w.expired(100).len(), 1, "exactly one firing");
    }

    #[test]
    fn next_activity_tracks_earliest_heap_entry() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_activity_ns(), None);
        w.arm(FlowId(1), TimeoutKind::Rto, 300);
        w.arm(FlowId(2), TimeoutKind::Rto, 100);
        assert_eq!(w.next_activity_ns(), Some(100));
        w.disarm(FlowId(2), TimeoutKind::Rto);
        // Lazy cancellation: the stale entry still bounds the horizon
        // until popped — the tick-by-tick run pops it at this deadline,
        // so fast-forward must land on the same cycle.
        assert_eq!(w.next_activity_ns(), Some(100));
        assert!(w.expired(100).is_empty());
        assert_eq!(w.next_activity_ns(), Some(300));
    }

    /// The map-keyed wheel the dense table replaces, kept as the oracle.
    #[derive(Default)]
    struct MapWheel {
        heap: BinaryHeap<Reverse<(u64, u32, u8)>>,
        armed: std::collections::HashMap<(u32, u8), u64>,
    }

    impl MapWheel {
        fn arm(&mut self, flow: FlowId, kind: TimeoutKind, deadline_ns: u64) {
            let key = (flow.0, kind_code(kind));
            if self.armed.get(&key) == Some(&deadline_ns) {
                return;
            }
            self.armed.insert(key, deadline_ns);
            self.heap.push(Reverse((deadline_ns, flow.0, kind_code(kind))));
        }
        fn disarm(&mut self, flow: FlowId, kind: TimeoutKind) {
            self.armed.remove(&(flow.0, kind_code(kind)));
        }
        fn expired(&mut self, now_ns: u64) -> Vec<(FlowId, TimeoutKind)> {
            let mut fired = Vec::new();
            while let Some(&Reverse((deadline, flow, code))) = self.heap.peek() {
                if deadline > now_ns {
                    break;
                }
                self.heap.pop();
                if self.armed.get(&(flow, code)) == Some(&deadline) {
                    self.armed.remove(&(flow, code));
                    fired.push((FlowId(flow), code_kind(code)));
                }
            }
            fired
        }
    }

    #[test]
    fn dense_table_matches_map_reference_under_random_ops() {
        use f4t_sim::SimRng;
        // A small id pool recycles flow ids constantly (arm after disarm,
        // arm after firing, stale heap entries of a previous incarnation
        // popping against a fresh registration); deadlines cluster so
        // re-arms with the same and with different values both occur.
        for seed in 0..6u64 {
            let mut rng = SimRng::new(0x71E_0000 + seed);
            let mut wheel = TimerWheel::new();
            let mut model = MapWheel::default();
            let mut now = 0u64;
            let mut fired_total = 0;
            for op in 0..30_000u64 {
                let flow = FlowId(rng.next_below(24) as u32 * (1 + seed as u32 % 3 * 500));
                let kind = if rng.next_below(2) == 0 { TimeoutKind::Rto } else { TimeoutKind::Probe };
                match rng.next_below(8) {
                    0..=3 => {
                        let deadline = now + rng.next_below(6) * 50;
                        wheel.arm(flow, kind, deadline);
                        model.arm(flow, kind, deadline);
                    }
                    4 | 5 => {
                        wheel.disarm(flow, kind);
                        model.disarm(flow, kind);
                    }
                    _ => {
                        now += rng.next_below(120);
                        let mut got = Vec::new();
                        wheel.expired_into(now, &mut got);
                        assert_eq!(got, model.expired(now), "seed {seed} op {op}");
                        fired_total += got.len();
                    }
                }
                assert_eq!(wheel.live(), model.armed.len(), "seed {seed} op {op}");
                assert_eq!(
                    wheel.next_activity_ns(),
                    model.heap.peek().map(|&Reverse((d, _, _))| d),
                    "seed {seed} op {op}"
                );
            }
            assert!(fired_total > 1_000, "seed {seed}: only {fired_total} firings exercised");
        }
    }

    #[test]
    fn kinds_are_independent() {
        let mut w = TimerWheel::new();
        w.arm(FlowId(1), TimeoutKind::Rto, 100);
        w.arm(FlowId(1), TimeoutKind::Probe, 100);
        let fired = w.expired(100);
        assert_eq!(fired.len(), 2);
    }
}
