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
//!
//! # Heap discipline
//!
//! Cancellation and push-out are lazy: `disarm` and `arm` only write the
//! per-flow table. What keeps that cheap is one invariant —
//!
//! > an armed `(flow, kind)` always has a heap entry at or before its
//! > armed deadline
//!
//! — kept with the help of a second column, the earliest deadline already
//! queued for the key. A deadline pushed *out* (an RTO re-armed once per
//! round trip) finds an entry queued before it and pushes nothing; when
//! that entry pops early, the key is re-queued at its armed deadline
//! instead of being discarded. So a key that is only ever pushed out owns
//! one heap entry, not one per re-arm, yet it fires in the same
//! [`TimerWheel::expired_into`] call and in the same `(deadline, flow,
//! kind)` order as if every re-arm had pushed: every entry re-queued
//! during a call is later than the one just popped, so the pops of one
//! call stay sorted. A deadline pulled *in* still pushes (the invariant
//! demands it) and leaves the later entry behind as a stale one.

use crate::event::TimeoutKind;
use f4t_tcp::FlowId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "None" in the per-flow deadline columns. Deadlines are absolute
/// nanoseconds since simulation start, so the all-ones value is never a
/// real one.
const UNARMED: u64 = u64::MAX;

/// Min-heap of `(deadline, flow, kind code)`.
type Heap = BinaryHeap<Reverse<(u64, u32, u8)>>;

/// One `(flow, kind)` row of the per-flow table.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// The registered deadline ([`UNARMED`] when none).
    armed: u64,
    /// The earliest deadline this key is known to have in the heap
    /// ([`UNARMED`] when none is tracked; stale later entries may exist).
    queued: u64,
}

const IDLE: Key = Key { armed: UNARMED, queued: UNARMED };

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
    heap: Heap,
    /// `[rto, probe]` rows indexed by flow id: 32 B per flow and no
    /// hashing on the per-writeback arm/disarm path.
    keys: Vec<[Key; 2]>,
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

    /// Restores the heap invariant for an armed `key`: queues its armed
    /// deadline unless an entry at or before it is already queued.
    fn ensure_queued(heap: &mut Heap, key: &mut Key, flow: u32, code: u8) {
        if key.queued > key.armed {
            key.queued = key.armed;
            heap.push(Reverse((key.armed, flow, code)));
        }
    }

    /// Registers (or moves) the deadline for `(flow, kind)`. Re-arming
    /// with the same deadline is a no-op and pushing a deadline out
    /// touches only the table, so the engine can call this on every FPU
    /// writeback without flooding the heap.
    pub fn arm(&mut self, flow: FlowId, kind: TimeoutKind, deadline_ns: u64) {
        debug_assert!(deadline_ns != UNARMED, "deadline collides with the unarmed sentinel");
        let code = kind_code(kind);
        if self.keys.len() <= flow.0 as usize {
            self.keys.resize(flow.0 as usize + 1, [IDLE; 2]);
        }
        let key = &mut self.keys[flow.0 as usize][usize::from(code)];
        if key.armed == UNARMED {
            self.live += 1;
        }
        key.armed = deadline_ns;
        Self::ensure_queued(&mut self.heap, key, flow.0, code);
    }

    /// Cancels the timer for `(flow, kind)` (lazy: heap entries are
    /// discarded when popped).
    pub fn disarm(&mut self, flow: FlowId, kind: TimeoutKind) {
        if let Some(row) = self.keys.get_mut(flow.0 as usize) {
            let key = &mut row[usize::from(kind_code(kind))];
            if key.armed != UNARMED {
                key.armed = UNARMED;
                self.live -= 1;
            }
        }
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
            // Every entry was pushed through a row of `keys`.
            let key = &mut self.keys[flow as usize][usize::from(code)];
            if key.queued == deadline {
                key.queued = UNARMED; // the tracked entry has left the heap
            }
            if key.armed == deadline {
                key.armed = UNARMED;
                self.live -= 1;
                fired.push((FlowId(flow), code_kind(code)));
            } else if key.armed != UNARMED {
                // Pushed out (or re-armed) since this entry was queued.
                Self::ensure_queued(&mut self.heap, key, flow, code);
            }
        }
    }

    /// Number of live (non-cancelled) timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Activity horizon in nanoseconds: the earliest heap deadline, or
    /// `None` when the heap is empty. Conservative — never later than the
    /// earliest armed deadline (the heap invariant), possibly earlier: an
    /// entry of a cancelled or pushed-out timer still bounds the horizon,
    /// because the tick-by-tick run pops it at exactly that deadline, and
    /// fast-forward must land on the same cycle to keep the heap state
    /// identical.
    pub fn next_activity_ns(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((deadline, _, _))| deadline)
    }

    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heap.len()
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

    /// The map-keyed wheel that pushes a heap entry on every changed
    /// deadline, kept as the oracle.
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
                // The horizon may now be later than the push-on-every-arm
                // heap's (fewer stale entries), never later than the
                // earliest armed deadline. `None` reads as "never".
                let horizon = wheel.next_activity_ns().unwrap_or(u64::MAX);
                let oracle_head = model.heap.peek().map_or(u64::MAX, |&Reverse((d, _, _))| d);
                let earliest_armed = model.armed.values().copied().min().unwrap_or(u64::MAX);
                assert!(
                    oracle_head <= horizon && horizon <= earliest_armed,
                    "seed {seed} op {op}: {oracle_head} <= {horizon} <= {earliest_armed}"
                );
            }
            assert!(fired_total > 1_000, "seed {seed}: only {fired_total} firings exercised");
        }
    }

    #[test]
    fn rto_pushed_out_n_times_keeps_one_heap_entry() {
        let mut w = TimerWheel::new();
        // An echo flow re-arms its RTO a little later on every round trip.
        for rtt in 0..1_000u64 {
            w.arm(FlowId(9), TimeoutKind::Rto, 200_000 + rtt * 20);
            assert!(w.expired(rtt * 20).is_empty());
        }
        assert_eq!((w.heap_len(), w.live()), (1, 1), "one entry however often pushed out");
        assert_eq!(w.next_activity_ns(), Some(200_000), "conservative: the first deadline");
        // The early entry pops unfired and the key moves to its armed
        // deadline — still one entry — then fires exactly there.
        assert!(w.expired(200_000).is_empty());
        assert_eq!((w.heap_len(), w.next_activity_ns()), (1, Some(219_980)));
        assert!(w.expired(219_979).is_empty());
        assert_eq!(w.expired(219_980), vec![(FlowId(9), TimeoutKind::Rto)]);
        assert_eq!((w.heap_len(), w.live()), (0, 0));
    }

    #[test]
    fn pushed_out_past_the_poll_fires_in_deadline_order_in_one_call() {
        let mut w = TimerWheel::new();
        // Flow 1 is queued early and pushed out to 300; flow 2 sits at
        // 200. One late poll must still report (200, 2) before (300, 1).
        w.arm(FlowId(1), TimeoutKind::Rto, 100);
        w.arm(FlowId(1), TimeoutKind::Rto, 300);
        w.arm(FlowId(2), TimeoutKind::Rto, 200);
        assert_eq!(
            w.expired(1_000),
            vec![(FlowId(2), TimeoutKind::Rto), (FlowId(1), TimeoutKind::Rto)]
        );
        // Pulled in: the earlier deadline is queued at once.
        w.arm(FlowId(3), TimeoutKind::Probe, 5_000);
        w.arm(FlowId(3), TimeoutKind::Probe, 2_000);
        assert_eq!(w.next_activity_ns(), Some(2_000));
        assert_eq!(w.expired(2_000), vec![(FlowId(3), TimeoutKind::Probe)]);
        assert!(w.expired(5_000).is_empty(), "the stale later entry is discarded");
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
