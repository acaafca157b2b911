//! A minimal discrete-event scheduler.
//!
//! The NS3-equivalent reference simulator (`f4t-netsim`, used for the
//! paper's Fig. 14 congestion-window comparison) is event-driven rather
//! than cycle-driven. [`EventQueue`] provides the classic time-ordered
//! priority queue with a monotonic sequence number to break ties in
//! insertion order, which keeps simulations deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue. `E` is the event payload; times are in
/// nanoseconds (or any monotonically increasing `u64` unit).
///
/// # Examples
///
/// ```
/// use f4t_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(20, "later");
/// q.schedule(10, "sooner");
/// assert_eq!(q.pop(), Some((10, "sooner")));
/// assert_eq!(q.pop(), Some((20, "later")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64, EventSlot<E>)>>,
    seq: u64,
    now: u64,
}

/// Wrapper that gives the payload vacuous ordering so only (time, seq)
/// determine heap order.
#[derive(Debug, Clone)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0 }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current time; the event
    /// fires next, after events already due now (FIFO among equal times).
    pub fn schedule(&mut self, at: u64, event: E) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse((t, _, EventSlot(e))) = self.heap.pop()?;
        self.now = t;
        Some((t, e))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// The queue's activity horizon: the earliest time at which popping
    /// can yield an event, i.e. the time a driver may fast-forward to.
    /// `None` means the queue is drained. Synonym for
    /// [`peek_time`](Self::peek_time), named for the cross-layer horizon
    /// contract (see [`crate::clock::merge_horizon`]).
    pub fn next_activity(&self) -> Option<u64> {
        self.peek_time()
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 'c');
        q.schedule(10, 'a');
        q.schedule(20, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_and_clamps() {
        let mut q = EventQueue::new();
        q.schedule(100, "x");
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
        // Scheduling in the past clamps to now.
        q.schedule(50, "past");
        assert_eq!(q.peek_time(), Some(100));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, 0);
        assert_eq!(q.len(), 1);
    }
}
