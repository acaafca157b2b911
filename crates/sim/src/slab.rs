//! FtTurbo struct-of-arrays flow tables (DESIGN.md §12).
//!
//! Hot per-flow state used to live in `HashMap`/`VecDeque`s: every event
//! paid a SipHash plus a pointer chase, and iteration order depended on
//! the hasher seed — poison for the determinism contract. A flow id is an
//! index, not a hash key; this module provides the dense replacements
//! every tick-path structure builds on:
//!
//! * [`FlowSlab`] — a `FlowId -> entry` table: a 4 B-per-id position
//!   column over compact value storage. Per-flow lookups are two array
//!   reads, and iteration is ascending flow id, which is what the
//!   audit/watchdog/telemetry paths need.
//! * [`SlabQueue`] — a growable ring deque with batch drain, replacing
//!   the writeback / pending / swap-in `VecDeque`s.
//! * [`FlowSet`] — a dense flow-id bitset with ascending iteration and
//!   word-combining masked walks, replacing `HashSet<FlowId>` membership
//!   tests and per-bit filters.
//!
//! Everything here is index-based: no structure allocates per entry, and
//! every order is a function of the operation history only, never of a
//! hasher seed or allocation addresses.

/// "No entry" in [`FlowSlab`]'s id → position column. It is past the end
/// of any value vector, so a vacant id fails the same bounds check that
/// resolves a live one.
const VACANT: u32 = u32::MAX;

/// Dense flow-keyed table: the `HashMap<FlowId, T>` replacement.
///
/// A 4 B-per-id position column, sized by the largest id ever inserted,
/// indexes two compact parallel vectors holding only the live entries
/// (`ids[p]` owns `values[p]`). A lookup is two array reads and no
/// hashing; a table that owns a sparse subset of the id space (one RSS
/// core's share, say) pays 4 B for each id it does not own, not a whole
/// vacant value. Removal moves the last entry into the hole. Iteration
/// is ascending flow id — the deterministic order the audit, watchdog
/// and telemetry paths require.
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
/// *m.get_or_insert_with(5, || 1) += 1;
/// assert_eq!(m.get(5), Some(&2));
/// ```
#[derive(Debug, Clone)]
pub struct FlowSlab<T> {
    pos: Vec<u32>,
    ids: Vec<u32>,
    values: Vec<T>,
}

impl<T> Default for FlowSlab<T> {
    fn default() -> FlowSlab<T> {
        FlowSlab::with_capacity(0)
    }
}

impl<T> FlowSlab<T> {
    /// A table pre-sized for flow ids below `capacity` (grows on demand;
    /// `0` is valid).
    pub fn with_capacity(capacity: usize) -> FlowSlab<T> {
        FlowSlab {
            pos: Vec::with_capacity(capacity),
            ids: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no flow has an entry.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Position of `id`'s entry; [`VACANT`] (out of range) when it has
    /// none.
    #[inline]
    fn position(&self, id: u32) -> usize {
        self.pos.get(id as usize).copied().unwrap_or(VACANT) as usize
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: u32) -> bool {
        self.position(id) < self.values.len()
    }

    /// The entry for `id`.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&T> {
        self.values.get(self.position(id))
    }

    /// Mutable entry for `id`.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let p = self.position(id);
        self.values.get_mut(p)
    }

    /// Appends a fresh entry for an `id` known to have none.
    fn push(&mut self, id: u32, value: T) -> &mut T {
        if self.pos.len() <= id as usize {
            self.pos.resize(id as usize + 1, VACANT);
        }
        self.pos[id as usize] = self.values.len() as u32;
        self.ids.push(id);
        self.values.push(value);
        let last = self.values.len() - 1;
        &mut self.values[last]
    }

    /// Inserts or replaces the entry for `id`, returning the previous
    /// value if any (the `HashMap::insert` contract).
    pub fn insert(&mut self, id: u32, value: T) -> Option<T> {
        match self.get_mut(id) {
            Some(v) => Some(std::mem::replace(v, value)),
            None => {
                self.push(id, value);
                None
            }
        }
    }

    /// The entry for `id`, created from `make` first when there is none
    /// (the `HashMap::entry(..).or_insert_with(..)` contract).
    pub fn get_or_insert_with(&mut self, id: u32, make: impl FnOnce() -> T) -> &mut T {
        let p = self.position(id);
        if p < self.values.len() {
            &mut self.values[p]
        } else {
            self.push(id, make())
        }
    }

    /// Removes and returns the entry for `id`.
    pub fn remove(&mut self, id: u32) -> Option<T> {
        let p = self.position(id);
        if p >= self.values.len() {
            return None;
        }
        self.pos[id as usize] = VACANT;
        self.ids.swap_remove(p);
        let value = self.values.swap_remove(p);
        if let Some(&moved) = self.ids.get(p) {
            self.pos[moved as usize] = p as u32;
        }
        Some(value)
    }

    /// Iterates `(flow id, entry)` in ascending flow id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.pos
            .iter()
            .enumerate()
            .filter_map(|(id, &p)| self.values.get(p as usize).map(|v| (id as u32, v)))
    }

    /// Ascending flow ids with live entries.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates entries in storage order (insertion order, except that a
    /// removal moves the last entry into the hole) — the cache-friendly
    /// walk for order-free folds; a pure function of the operation
    /// history, never of a hasher seed.
    pub fn iter_dense(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
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
        self.words.iter().enumerate().flat_map(|(wi, &w)| word_members(wi, w))
    }

    /// Ascending iteration over `self ∖ a ∖ b`, combining one word of each
    /// set at a time: an empty difference costs two ANDs per word and
    /// yields nothing, a non-empty one visits only its members. The
    /// host-side stand-in for a masked compare tree (the FPC's eviction
    /// candidates: occupied, not evict-marked, not in the FPU) and the
    /// sibling of [`first_in_and_not`](Self::first_in_and_not).
    pub fn iter_without<'a>(
        &'a self,
        a: &'a FlowSet,
        b: &'a FlowSet,
    ) -> impl Iterator<Item = u32> + 'a {
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| word_members(wi, w & !a.word(wi) & !b.word(wi)))
    }

    /// Word `wi` of the bitset; words past the end read as empty.
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        self.words.get(wi).copied().unwrap_or(0)
    }

    /// Circular priority encode over `self ∩ and ∖ not`: the lowest such
    /// member at or after `from`, else the lowest one below it. One pass
    /// over the words — the host-side stand-in for a single-cycle
    /// hardware priority encoder (the FPC's round-robin slot pick).
    pub fn first_in_and_not(&self, and: &FlowSet, not: &FlowSet, from: u32) -> Option<u32> {
        let n = self.words.len();
        // Lowest member of word `w` among the bits `keep` selects.
        let lowest = |w: usize, keep: u64| {
            let m = self.words[w] & and.word(w) & !not.word(w) & keep;
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

/// The set bits of word `wi`'s value `w` as ascending member ids.
fn word_members(wi: usize, w: u64) -> impl Iterator<Item = u32> {
    std::iter::successors((w != 0).then_some(w), |&rest| {
        let rest = rest & (rest - 1); // clear the lowest set bit
        (rest != 0).then_some(rest)
    })
    .map(move |rest| (wi * 64) as u32 + rest.trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::HashMap;

    #[test]
    fn zero_capacity_structures_grow_on_demand() {
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
    /// arbitrary insert / replace / entry / remove / get schedule behaves
    /// exactly like `HashMap`, and its iteration equals the model's
    /// sorted items. Ids are recycled constantly (a small pool), and the
    /// odd seeds own only the ids ≡ c (mod 8) of a wide range — one RSS
    /// core's share — so the position column is mostly vacant.
    #[test]
    fn flow_slab_matches_hashmap_model_under_random_ops() {
        for seed in 0..6u64 {
            let mut rng = SimRng::new(0x51AB_0000 + seed);
            let mut slab: FlowSlab<u64> = FlowSlab::with_capacity(0);
            let mut model: HashMap<u32, u64> = HashMap::new();
            let sparse = seed % 2 == 1;
            for op in 0..4_000u64 {
                let id = if sparse {
                    rng.next_below(64) as u32 * 8 + seed as u32
                } else {
                    rng.next_below(96) as u32
                };
                match rng.next_below(6) {
                    0 | 1 => {
                        let v = op;
                        assert_eq!(slab.insert(id, v), model.insert(id, v), "seed {seed} op {op}");
                    }
                    2 => {
                        let got = slab.get_or_insert_with(id, || op);
                        let want = model.entry(id).or_insert(op);
                        assert_eq!(got, want, "seed {seed} op {op}");
                        *got += 1;
                        *want += 1;
                    }
                    3 => {
                        assert_eq!(slab.remove(id), model.remove(&id), "seed {seed} op {op}");
                    }
                    4 => {
                        assert_eq!(slab.get_mut(id), model.get_mut(&id), "seed {seed} op {op}");
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
            let mut dense: Vec<u64> = slab.iter_dense().copied().collect();
            dense.sort_unstable();
            let mut values: Vec<u64> = expected.iter().map(|&(_, v)| v).collect();
            values.sort_unstable();
            assert_eq!(dense, values, "seed {seed}: dense walk visits each entry once");
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

    /// The word-combining difference walk yields exactly what a per-bit
    /// `filter` over the first set finds, also when the three sets have
    /// grown to different word counts.
    #[test]
    fn iter_without_matches_per_bit_filter() {
        let mut rng = SimRng::new(0x51AB_D1FF);
        for n in [1u32, 63, 64, 65, 128, 200] {
            for round in 0..32u64 {
                let s = random_set(&mut rng, n, 1 + round % 8);
                // The masks are sometimes shorter, sometimes longer than `s`.
                let na = if round % 3 == 0 { n.div_ceil(2) } else { n };
                let nb = if round % 2 == 0 { n + 70 } else { n };
                let a = random_set(&mut rng, na, round % 9);
                let b = random_set(&mut rng, nb, (round / 2) % 9);
                let want: Vec<u32> =
                    s.iter().filter(|&i| !a.contains(i) && !b.contains(i)).collect();
                let got: Vec<u32> = s.iter_without(&a, &b).collect();
                assert_eq!(got, want, "n {n} round {round}");
            }
            // Everything masked out: nothing is yielded.
            let full = random_set(&mut rng, n, 8);
            assert_eq!(full.iter_without(&full, &FlowSet::default()).count(), 0, "n {n}");
            assert_eq!(full.iter_without(&FlowSet::default(), &full).count(), 0, "n {n}");
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
