//! FtTurbo struct-of-arrays slab allocators (DESIGN.md §12).
//!
//! Hot per-flow state used to live in `HashMap`/`VecDeque`s: every event
//! paid a SipHash plus a pointer chase, and iteration order depended on
//! the hasher seed — poison for the determinism contract. This module
//! provides the dense replacements every tick-path structure now builds
//! on:
//!
//! * [`Slab`] — a generation-checked slot arena: O(1) insert/remove/get,
//!   stable [`SlabHandle`]s, LIFO free-list reuse, and deterministic
//!   slot-order iteration (a function of the operation history only,
//!   never of a hasher seed or allocation addresses).
//! * [`FlowSlab`] — a `FlowId -> slot` dense indirection over a [`Slab`]:
//!   per-flow lookups are two array indexes, and iteration is ascending
//!   flow id, which is what the audit/watchdog/telemetry paths need.
//! * [`SlabQueue`] — a growable ring deque with batch drain, replacing
//!   the writeback / pending / swap-in `VecDeque`s.
//! * [`FlowSet`] — a dense flow-id bitset with ascending iteration,
//!   replacing `HashSet<FlowId>` membership tests.
//! * [`SlabCursor`] — an index-based iteration cursor that stays valid
//!   across insert/remove/grow, for scans that mutate as they walk.
//!
//! Everything here is index-based: no handle ever dangles (generation
//! checks turn use-after-free into `None`), and no structure allocates
//! per-entry.

/// A generation-checked reference to a [`Slab`] slot.
///
/// Handles are `Copy` and remain cheap to store in queues or secondary
/// tables. A handle whose slot has since been freed (and possibly
/// reused) no longer resolves: the generation check fails and accessors
/// return `None` instead of aliasing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabHandle {
    index: u32,
    gen: u32,
}

impl SlabHandle {
    /// The slot index this handle points at (stable for the handle's
    /// lifetime; meaningful for dense secondary arrays).
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// The generation the slot had when this handle was issued.
    pub fn generation(&self) -> u32 {
        self.gen
    }
}

/// One slab slot: the payload plus the slot's current generation. Even
/// generations are vacant, odd are occupied, so a stale handle can never
/// match a vacant slot.
#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A dense, generation-checked slot arena with deterministic iteration.
///
/// # Examples
///
/// ```
/// use f4t_sim::slab::Slab;
///
/// let mut slab: Slab<&str> = Slab::with_capacity(0); // 0-capacity grows
/// let a = slab.insert("a");
/// let b = slab.insert("b");
/// assert_eq!(slab.get(a), Some(&"a"));
/// assert_eq!(slab.remove(a), Some("a"));
/// assert_eq!(slab.get(a), None, "stale handle no longer resolves");
/// let c = slab.insert("c"); // reuses a's slot with a new generation
/// assert_eq!(c.index(), a.index());
/// assert_eq!(slab.get(a), None, "generation check still trips");
/// assert_eq!(slab.len(), 2);
/// let order: Vec<&str> = slab.iter().map(|(_, v)| *v).collect();
/// assert_eq!(order, ["c", "b"], "slot order: deterministic, reuse-first");
/// # let _ = b;
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab::with_capacity(0)
    }
}

impl<T> Slab<T> {
    /// A slab pre-sized for `capacity` entries. `0` is valid: the slab
    /// starts empty and grows on first insert.
    pub fn with_capacity(capacity: usize) -> Slab<T> {
        Slab { slots: Vec::with_capacity(capacity), free: Vec::new(), len: 0 }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (the dense-array extent secondary SoA
    /// columns must match).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Inserts a value, reusing the most recently freed slot if any
    /// (LIFO keeps the hot end of the arena dense and cache-warm).
    pub fn insert(&mut self, value: T) -> SlabHandle {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.gen = slot.gen.wrapping_add(1); // even -> odd: occupied
            slot.value = Some(value);
            return SlabHandle { index, gen: slot.gen };
        }
        let index = self.slots.len() as u32;
        self.slots.push(Slot { gen: 1, value: Some(value) });
        SlabHandle { index, gen: 1 }
    }

    fn live(&self, h: SlabHandle) -> bool {
        self.slots.get(h.index()).is_some_and(|s| s.gen == h.gen && s.value.is_some())
    }

    /// Whether `h` still refers to a live entry.
    pub fn contains(&self, h: SlabHandle) -> bool {
        self.live(h)
    }

    /// The entry behind `h`, or `None` if it was freed (generation
    /// mismatch) — a use-after-free reads as absence, never as aliasing.
    pub fn get(&self, h: SlabHandle) -> Option<&T> {
        if self.live(h) { self.slots[h.index()].value.as_ref() } else { None }
    }

    /// Mutable access behind `h` under the same generation check.
    pub fn get_mut(&mut self, h: SlabHandle) -> Option<&mut T> {
        if self.live(h) { self.slots[h.index()].value.as_mut() } else { None }
    }

    /// Frees the entry behind `h`, returning it. A stale handle is a
    /// no-op `None`.
    pub fn remove(&mut self, h: SlabHandle) -> Option<T> {
        if !self.live(h) {
            return None;
        }
        let slot = &mut self.slots[h.index()];
        slot.gen = slot.gen.wrapping_add(1); // odd -> even: vacant
        self.len -= 1;
        self.free.push(h.index);
        slot.value.take()
    }

    /// Iterates live entries in ascending slot order. The order is a
    /// pure function of the insert/remove history — two runs replaying
    /// the same operations iterate identically.
    pub fn iter(&self) -> impl Iterator<Item = (SlabHandle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| (SlabHandle { index: i as u32, gen: s.gen }, v))
        })
    }

    /// Mutable slot-order iteration.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SlabHandle, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let gen = s.gen;
            s.value.as_mut().map(move |v| (SlabHandle { index: i as u32, gen }, v))
        })
    }

    /// An index-based cursor for scans that insert/remove/grow while
    /// walking (see [`SlabCursor`]).
    pub fn cursor(&self) -> SlabCursor {
        SlabCursor { next: 0 }
    }
}

/// An iteration cursor over a [`Slab`] that stays valid across
/// mutation: it remembers only the next slot index, so growth during
/// the walk extends the walk, and removal behind the cursor is skipped
/// naturally. Entries inserted into freed slots *before* the cursor are
/// not revisited.
#[derive(Debug, Clone, Copy)]
pub struct SlabCursor {
    next: u32,
}

impl SlabCursor {
    /// Advances to the next live entry at or past the cursor position.
    pub fn next<T>(&mut self, slab: &Slab<T>) -> Option<SlabHandle> {
        while (self.next as usize) < slab.slots.len() {
            let i = self.next as usize;
            self.next += 1;
            if slab.slots[i].value.is_some() {
                return Some(SlabHandle { index: i as u32, gen: slab.slots[i].gen });
            }
        }
        None
    }
}

/// Dense `FlowId -> slot` indirection over a [`Slab`].
///
/// The index side is a flat `Vec` keyed by the raw flow id, so a lookup
/// is two bounds-checked array reads and zero hashing. Iteration is
/// ascending flow id — the deterministic order the audit, watchdog and
/// telemetry paths require.
///
/// # Examples
///
/// ```
/// use f4t_sim::slab::FlowSlab;
///
/// let mut m: FlowSlab<u64> = FlowSlab::with_capacity(8);
/// m.insert(5, 500);
/// m.insert(2, 200);
/// assert_eq!(m.get(5), Some(&500));
/// let ids: Vec<u32> = m.iter().map(|(id, _)| id).collect();
/// assert_eq!(ids, [2, 5], "ascending flow id, not insertion order");
/// assert_eq!(m.remove(5), Some(500));
/// assert_eq!(m.get(5), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowSlab<T> {
    index: Vec<Option<SlabHandle>>,
    slab: Slab<T>,
}

impl<T> FlowSlab<T> {
    /// A map pre-sized for flow ids below `capacity` (grows on demand;
    /// `0` is valid).
    pub fn with_capacity(capacity: usize) -> FlowSlab<T> {
        FlowSlab { index: Vec::with_capacity(capacity), slab: Slab::with_capacity(capacity) }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether no flow has an entry.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    fn handle(&self, id: u32) -> Option<SlabHandle> {
        self.index.get(id as usize).copied().flatten()
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: u32) -> bool {
        self.handle(id).is_some_and(|h| self.slab.contains(h))
    }

    /// The entry for `id`.
    pub fn get(&self, id: u32) -> Option<&T> {
        self.handle(id).and_then(|h| self.slab.get(h))
    }

    /// Mutable entry for `id`.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let h = self.handle(id)?;
        self.slab.get_mut(h)
    }

    /// Inserts or replaces the entry for `id`, returning the previous
    /// value if any (the `HashMap::insert` contract).
    pub fn insert(&mut self, id: u32, value: T) -> Option<T> {
        if let Some(h) = self.handle(id) {
            if let Some(v) = self.slab.get_mut(h) {
                return Some(std::mem::replace(v, value));
            }
        }
        if self.index.len() <= id as usize {
            self.index.resize(id as usize + 1, None);
        }
        let h = self.slab.insert(value);
        self.index[id as usize] = Some(h);
        None
    }

    /// Removes and returns the entry for `id`.
    pub fn remove(&mut self, id: u32) -> Option<T> {
        let h = self.handle(id)?;
        let v = self.slab.remove(h);
        if v.is_some() {
            self.index[id as usize] = None;
        }
        v
    }

    /// Iterates `(flow id, entry)` in ascending flow id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.index.iter().enumerate().filter_map(|(id, h)| {
            h.and_then(|h| self.slab.get(h)).map(|v| (id as u32, v))
        })
    }

    /// Ascending flow ids with live entries.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates entries in slab slot order (insertion/reuse order) —
    /// the cache-friendly walk for hot loops where flow-id order is not
    /// part of the observable contract.
    pub fn iter_dense(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().map(|(_, v)| v)
    }
}

/// A growable ring deque with batch drain: the slab-backed replacement
/// for tick-path `VecDeque`s (memory-manager writeback, scheduler
/// pending / swap-in). Contiguous storage, power-of-two capacity,
/// amortized O(1) at both ends.
///
/// # Examples
///
/// ```
/// use f4t_sim::slab::SlabQueue;
///
/// let mut q: SlabQueue<u32> = SlabQueue::with_capacity(0);
/// q.push_back(1);
/// q.push_back(2);
/// q.push_front(0); // re-park at the head (scheduler retry semantics)
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.front(), Some(&0));
/// let drained: Vec<u32> = q.drain_front(2).collect();
/// assert_eq!(drained, [0, 1]);
/// assert_eq!(q.pop_front(), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct SlabQueue<T> {
    buf: Vec<Option<T>>,
    head: usize,
    len: usize,
}

impl<T> Default for SlabQueue<T> {
    fn default() -> SlabQueue<T> {
        SlabQueue::with_capacity(0)
    }
}

impl<T> SlabQueue<T> {
    /// A queue pre-sized for `capacity` entries (rounded up to a power
    /// of two; `0` starts empty and grows on first push).
    pub fn with_capacity(capacity: usize) -> SlabQueue<T> {
        let cap = capacity.next_power_of_two().max(if capacity == 0 { 0 } else { 4 });
        let mut buf = Vec::new();
        buf.resize_with(cap, || None);
        SlabQueue { buf, head: 0, len: 0 }
    }

    /// Entries queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    fn grow(&mut self) {
        let old_cap = self.buf.len();
        let new_cap = (old_cap * 2).max(4);
        let mut buf = Vec::new();
        buf.resize_with(new_cap, || None);
        for (i, slot) in buf.iter_mut().enumerate().take(self.len) {
            *slot = self.buf[(self.head + i) & (old_cap.max(1) - 1)].take();
        }
        self.buf = buf;
        self.head = 0;
    }

    /// Appends at the tail.
    pub fn push_back(&mut self, value: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let at = (self.head + self.len) & self.mask();
        self.buf[at] = Some(value);
        self.len += 1;
    }

    /// Prepends at the head (the scheduler's "re-park for retry" path).
    pub fn push_front(&mut self, value: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        self.head = (self.head.wrapping_sub(1)) & self.mask();
        self.buf[self.head] = Some(value);
        self.len += 1;
    }

    /// Removes and returns the head entry.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head].take();
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        v
    }

    /// The head entry without removing it.
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 { None } else { self.buf[self.head].as_ref() }
    }

    /// Mutable head entry.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        if self.len == 0 { None } else { self.buf[self.head].as_mut() }
    }

    /// Drains up to `n` entries from the head as one batch — the
    /// per-tick drain primitive (one bounds computation per batch
    /// instead of per entry).
    pub fn drain_front(&mut self, n: usize) -> impl Iterator<Item = T> + '_ {
        let take = n.min(self.len);
        let head = self.head;
        let mask = if self.buf.is_empty() { 0 } else { self.mask() };
        self.head = if self.buf.is_empty() { 0 } else { (self.head + take) & mask };
        self.len -= take;
        let buf = &mut self.buf;
        (0..take).filter_map(move |i| buf[(head + i) & mask].take())
    }

    /// In-order iteration, head first (no removal).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mask = if self.buf.is_empty() { 0 } else { self.mask() };
        (0..self.len).filter_map(move |i| self.buf[(self.head + i) & mask].as_ref())
    }
}

/// A dense flow-id bitset with deterministic ascending iteration: the
/// replacement for `HashSet<FlowId>` membership state.
///
/// # Examples
///
/// ```
/// use f4t_sim::slab::FlowSet;
///
/// let mut s = FlowSet::with_capacity(0);
/// assert!(s.insert(130));
/// assert!(s.insert(7));
/// assert!(!s.insert(7), "already present");
/// assert!(s.contains(130));
/// assert!(s.remove(130));
/// assert!(!s.remove(130));
/// assert_eq!(s.iter().collect::<Vec<_>>(), [7]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    words: Vec<u64>,
    len: usize,
}

impl FlowSet {
    /// A set pre-sized for flow ids below `capacity` (grows on demand).
    pub fn with_capacity(capacity: usize) -> FlowSet {
        FlowSet { words: vec![0; capacity.div_ceil(64)], len: 0 }
    }

    /// Members present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`; `true` if it was newly inserted (the `HashSet`
    /// contract).
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        if !was {
            self.len += 1;
        }
        !was
    }

    /// Removes `id`; `true` if it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        let Some(word) = self.words.get_mut(w) else { return false };
        let was = *word & (1 << b) != 0;
        *word &= !(1 << b);
        if was {
            self.len -= 1;
        }
        was
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        self.words.get(id as usize / 64).is_some_and(|w| w & (1 << (id as usize % 64)) != 0)
    }

    /// Ascending member iteration: one `trailing_zeros` per member, so a
    /// sparse set costs its population, not its capacity.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let rest = rest & (rest - 1); // clear the lowest set bit
                (rest != 0).then_some(rest)
            })
            .map(move |rest| (wi * 64) as u32 + rest.trailing_zeros())
        })
    }

    /// Circular priority encode over `self ∩ and ∖ not`: the lowest such
    /// member at or after `from`, else the lowest one below it. One pass
    /// over the words — the host-side stand-in for a single-cycle
    /// hardware priority encoder (the FPC's round-robin slot pick).
    pub fn first_in_and_not(&self, and: &FlowSet, not: &FlowSet, from: u32) -> Option<u32> {
        let n = self.words.len();
        // Lowest member of word `w` among the bits `keep` selects.
        let lowest = |w: usize, keep: u64| {
            let m = self.words[w]
                & and.words.get(w).copied().unwrap_or(0)
                & !not.words.get(w).copied().unwrap_or(0)
                & keep;
            (m != 0).then(|| (w * 64) as u32 + m.trailing_zeros())
        };
        let first_word = from as usize / 64;
        let at_or_after = u64::MAX << (from % 64);
        (first_word..n)
            .find_map(|w| lowest(w, if w == first_word { at_or_after } else { u64::MAX }))
            .or_else(|| {
                (0..n.min(first_word + 1))
                    .find_map(|w| lowest(w, if w == first_word { !at_or_after } else { u64::MAX }))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashMap;

    #[test]
    fn slot_reuse_after_free_trips_generation_check() {
        let mut slab = Slab::with_capacity(2);
        let a = slab.insert("a");
        assert_eq!(slab.remove(a), Some("a"));
        // Reuse: same slot index, new generation.
        let b = slab.insert("b");
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        // The stale handle must not alias the new occupant.
        assert!(!slab.contains(a));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.remove(a), None, "stale remove is a no-op");
        assert_eq!(slab.get(b), Some(&"b"), "stale remove did not free the reused slot");
        // Double free of the fresh handle is also inert.
        assert_eq!(slab.remove(b), Some("b"));
        assert_eq!(slab.remove(b), None);
        assert!(slab.is_empty());
    }

    #[test]
    fn grow_under_iteration_keeps_cursor_and_handles_valid() {
        let mut slab = Slab::with_capacity(2);
        let first: Vec<_> = (0..4).map(|i| slab.insert(i)).collect();
        let mut cursor = slab.cursor();
        let mut seen = Vec::new();
        // Walk two entries, then grow the slab mid-iteration.
        for _ in 0..2 {
            let h = cursor.next(&slab).unwrap();
            seen.push(*slab.get(h).unwrap());
        }
        let late: Vec<_> = (100..140).map(|i| slab.insert(i)).collect();
        // Old handles survive the growth reallocation.
        for (i, h) in first.iter().enumerate() {
            assert_eq!(slab.get(*h), Some(&(i as i32)));
        }
        // The cursor keeps walking: remaining originals, then the
        // entries appended during iteration, in slot order.
        while let Some(h) = cursor.next(&slab) {
            seen.push(*slab.get(h).unwrap());
        }
        let expected: Vec<i32> = (0..4).chain(100..140).collect();
        assert_eq!(seen, expected);
        // Removal mid-walk is also safe: a fresh cursor skips the hole.
        slab.remove(first[1]);
        let mut cursor = slab.cursor();
        let mut ids = Vec::new();
        while let Some(h) = cursor.next(&slab) {
            ids.push(*slab.get(h).unwrap());
        }
        assert!(!ids.contains(&1));
        assert_eq!(ids.len(), first.len() + late.len() - 1);
    }

    #[test]
    fn zero_capacity_structures_grow_on_demand() {
        let mut slab: Slab<u32> = Slab::with_capacity(0);
        assert!(slab.is_empty());
        assert_eq!(slab.slot_count(), 0);
        let h = slab.insert(9);
        assert_eq!(slab.get(h), Some(&9));

        let mut q: SlabQueue<u32> = SlabQueue::with_capacity(0);
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.drain_front(8).count(), 0);
        q.push_front(1);
        q.push_back(2);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), [1, 2]);

        let mut m: FlowSlab<u32> = FlowSlab::with_capacity(0);
        assert_eq!(m.get(1000), None);
        m.insert(1000, 1);
        assert_eq!(m.get(1000), Some(&1));

        let mut s = FlowSet::with_capacity(0);
        assert!(!s.contains(70));
        s.insert(70);
        assert!(s.contains(70));
    }

    #[test]
    fn flow_slab_iterates_ascending_and_replaces_like_hashmap() {
        let mut m = FlowSlab::with_capacity(4);
        for id in [9u32, 3, 7, 1] {
            assert_eq!(m.insert(id, id * 10), None);
        }
        assert_eq!(m.insert(7, 700), Some(70), "replace returns the old value");
        assert_eq!(m.iter().collect::<Vec<_>>(), [(1, &10), (3, &30), (7, &700), (9, &90)]);
        assert_eq!(m.ids().collect::<Vec<_>>(), [1, 3, 7, 9]);
        assert_eq!(m.remove(3), Some(30));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.len(), 3);
        // Dense iteration touches every live entry exactly once.
        let mut dense: Vec<u32> = m.iter_dense().copied().collect();
        dense.sort_unstable();
        assert_eq!(dense, [10, 90, 700]);
    }

    #[test]
    fn slab_queue_wraps_and_batch_drains() {
        let mut q = SlabQueue::with_capacity(4);
        for round in 0..10u32 {
            q.push_back(round * 2);
            q.push_back(round * 2 + 1);
            assert_eq!(q.drain_front(2).collect::<Vec<_>>(), [round * 2, round * 2 + 1]);
        }
        assert!(q.is_empty());
        // Forced growth with a wrapped head preserves order.
        for i in 0..3u32 {
            q.push_back(i);
        }
        q.pop_front();
        for i in 3..20u32 {
            q.push_back(i);
        }
        q.push_front(99);
        let all: Vec<u32> = q.drain_front(usize::MAX).collect();
        assert_eq!(all[0], 99);
        assert_eq!(&all[1..], (1..20).collect::<Vec<_>>().as_slice());
    }

    /// Randomized model equivalence: a [`FlowSlab`] driven by an
    /// arbitrary insert/remove/get schedule behaves exactly like
    /// `HashMap`, and its iteration equals the model's sorted items.
    #[test]
    fn flow_slab_matches_hashmap_model_under_random_ops() {
        for seed in 0..4u64 {
            let mut rng = SimRng::new(0x51AB_0000 + seed);
            let mut slab: FlowSlab<u64> = FlowSlab::with_capacity(0);
            let mut model: HashMap<u32, u64> = HashMap::new();
            for op in 0..4_000u64 {
                let id = rng.next_below(96) as u32;
                match rng.next_below(4) {
                    0 | 1 => {
                        let v = op;
                        assert_eq!(slab.insert(id, v), model.insert(id, v), "seed {seed} op {op}");
                    }
                    2 => {
                        assert_eq!(slab.remove(id), model.remove(&id), "seed {seed} op {op}");
                    }
                    _ => {
                        assert_eq!(slab.get(id), model.get(&id), "seed {seed} op {op}");
                        assert_eq!(slab.contains(id), model.contains_key(&id));
                    }
                }
                assert_eq!(slab.len(), model.len());
            }
            let mut expected: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            expected.sort_unstable();
            let got: Vec<(u32, u64)> = slab.iter().map(|(k, &v)| (k, v)).collect();
            assert_eq!(got, expected, "seed {seed}: iteration must be ascending flow id");
        }
    }

    /// Same property for [`SlabQueue`] vs `VecDeque` and [`FlowSet`] vs
    /// `HashSet`.
    #[test]
    fn queue_and_set_match_std_models_under_random_ops() {
        use std::collections::{HashSet, VecDeque};
        let mut rng = SimRng::new(0x51AB_CAFE);
        let mut q: SlabQueue<u64> = SlabQueue::with_capacity(0);
        let mut qm: VecDeque<u64> = VecDeque::new();
        let mut s = FlowSet::with_capacity(0);
        let mut sm: HashSet<u32> = HashSet::new();
        for op in 0..6_000u64 {
            match rng.next_below(8) {
                0..=2 => {
                    q.push_back(op);
                    qm.push_back(op);
                }
                3 => {
                    q.push_front(op);
                    qm.push_front(op);
                }
                4 => assert_eq!(q.pop_front(), qm.pop_front(), "op {op}"),
                5 => {
                    let n = rng.next_below(5) as usize;
                    let got: Vec<u64> = q.drain_front(n).collect();
                    let want: Vec<u64> = qm.drain(..n.min(qm.len())).collect();
                    assert_eq!(got, want, "op {op}");
                }
                _ => {
                    let id = rng.next_below(200) as u32;
                    if rng.next_below(2) == 0 {
                        assert_eq!(s.insert(id), sm.insert(id), "op {op}");
                    } else {
                        assert_eq!(s.remove(id), sm.remove(&id), "op {op}");
                    }
                }
            }
            assert_eq!(q.len(), qm.len());
            assert_eq!(q.front(), qm.front());
            assert_eq!(s.len(), sm.len());
        }
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), qm.iter().copied().collect::<Vec<_>>());
        let mut want: Vec<u32> = sm.into_iter().collect();
        want.sort_unstable();
        assert_eq!(s.iter().collect::<Vec<_>>(), want);
    }

    /// A random set over `n` ids with roughly `density`/8 of them present.
    fn random_set(rng: &mut SimRng, n: u32, density: u64) -> FlowSet {
        let mut s = FlowSet::with_capacity(n as usize);
        for id in 0..n {
            if rng.next_below(8) < density {
                s.insert(id);
            }
        }
        s
    }

    /// The word-walking iterator yields exactly the ids a bit-by-bit
    /// membership probe finds, in ascending order — including empty and
    /// full words and a last partial word.
    #[test]
    fn set_iter_matches_bit_by_bit_probe() {
        let mut rng = SimRng::new(0x51AB_17E2);
        for n in [0u32, 1, 63, 64, 65, 128, 200] {
            for density in [0u64, 1, 4, 8] {
                let s = random_set(&mut rng, n, density);
                let want: Vec<u32> = (0..n + 64).filter(|&id| s.contains(id)).collect();
                assert_eq!(s.iter().collect::<Vec<_>>(), want, "n {n} density {density}");
                assert_eq!(s.len(), want.len());
            }
        }
    }

    /// The circular priority encode equals the linear walk it replaces,
    /// for every start position, also when the three sets have grown to
    /// different word counts.
    #[test]
    fn first_in_and_not_matches_linear_circular_scan() {
        let mut rng = SimRng::new(0x51AB_F1A5);
        for n in [1u32, 8, 63, 64, 65, 128, 200] {
            for round in 0..24u64 {
                let a = random_set(&mut rng, n, 1 + round % 8);
                let b = random_set(&mut rng, if round % 3 == 0 { n.div_ceil(2) } else { n }, 6);
                let c = random_set(&mut rng, if round % 5 == 0 { n + 70 } else { n }, round % 4);
                for from in 0..n {
                    let want = (0..n)
                        .map(|off| (from + off) % n)
                        .find(|&i| a.contains(i) && b.contains(i) && !c.contains(i));
                    assert_eq!(
                        a.first_in_and_not(&b, &c, from),
                        want,
                        "n {n} round {round} from {from}"
                    );
                }
            }
        }
    }
}
