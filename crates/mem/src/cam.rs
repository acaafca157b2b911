//! The per-FPC content-addressable memory.
//!
//! With parallel FPCs, each FPC "should manage the mapping between the
//! global flow ID and the local TCB table index. Therefore ... we
//! implement a content-addressable memory (CAM) in each FPC to look up
//! the table index with the flow ID. Because the scheduler always routes
//! the events to their correct destination, we can ensure that the CAM
//! lookup always hits on one entry. Therefore, we implement the CAM with
//! a comparator array and a binary log module" (§4.4.2).
//!
//! A hardware CAM compares all entries in parallel in one cycle; the model
//! keeps the same single-cycle semantics. What the comparator array does
//! in parallel the simulator answers from a host-side index — an
//! open-addressed flow→slot table plus a free-slot bitset — so a lookup
//! costs the host O(1) instead of a walk over every entry. The index is
//! simulator state only: slot numbers (which feed the TCB manager's
//! round-robin order) are assigned exactly as the linear model assigned
//! them, lowest free slot first.

use f4t_sim::FlowSet;
use f4t_tcp::FlowId;

/// A fixed-capacity CAM mapping [`FlowId`] to a local slot index.
///
/// # Examples
///
/// ```
/// use f4t_mem::Cam;
/// use f4t_tcp::FlowId;
/// let mut cam = Cam::new(128);
/// let slot = cam.insert(FlowId(700)).unwrap();
/// assert_eq!(cam.lookup(FlowId(700)), Some(slot));
/// ```
#[derive(Debug, Clone)]
pub struct Cam {
    /// The modelled comparator array: the flow each slot holds.
    entries: Vec<Option<FlowId>>,
    /// Host-side index: open-addressed, linear-probed table of
    /// `slot + 1` (0 = empty cell) sized to at least twice the capacity,
    /// so probe chains stay short and always end at an empty cell.
    index: Vec<u32>,
    /// `32 - log2(index.len())`: the multiplicative hash keeps the top bits.
    shift: u32,
    /// Host-side free-slot bitset; its lowest member is the next slot
    /// `insert` hands out, and its size gives the occupancy.
    free: FlowSet,
}

impl Cam {
    /// Creates a CAM with `capacity` slots (the FPC's TCB-slot count).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Cam {
        assert!(capacity > 0, "cam capacity must be non-zero");
        let cells = (2 * capacity).next_power_of_two();
        let mut free = FlowSet::with_capacity(capacity);
        for slot in 0..capacity {
            free.insert(slot as u32);
        }
        Cam {
            entries: vec![None; capacity],
            index: vec![0; cells],
            shift: 32 - cells.trailing_zeros(),
            free,
        }
    }

    /// Home cell of `flow` in the index (Fibonacci hashing: deterministic,
    /// no hasher seed).
    #[inline]
    fn home(&self, flow: FlowId) -> usize {
        (flow.0.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }

    /// The index cell holding `flow`, with its slot.
    #[inline]
    fn find(&self, flow: FlowId) -> Option<(usize, usize)> {
        let mask = self.index.len() - 1;
        let mut cell = self.home(flow);
        loop {
            let slot = self.index[cell].checked_sub(1)? as usize;
            if self.entries[slot] == Some(flow) {
                return Some((cell, slot));
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Finds the slot holding `flow` (the comparator array + binary log).
    pub fn lookup(&self, flow: FlowId) -> Option<usize> {
        self.find(flow).map(|(_, slot)| slot)
    }

    /// Inserts `flow` into the first free slot, returning its index, or
    /// `None` when the CAM is full.
    pub fn insert(&mut self, flow: FlowId) -> Option<usize> {
        debug_assert!(
            self.lookup(flow).is_none(),
            "flow {flow} inserted twice; scheduler routing bug"
        );
        let slot = self.free.iter().next()?;
        self.free.remove(slot);
        self.entries[slot as usize] = Some(flow);
        let mask = self.index.len() - 1;
        let mut cell = self.home(flow);
        while self.index[cell] != 0 {
            cell = (cell + 1) & mask;
        }
        self.index[cell] = slot + 1;
        Some(slot as usize)
    }

    /// Removes `flow`, returning the slot it occupied.
    pub fn remove(&mut self, flow: FlowId) -> Option<usize> {
        let (mut hole, slot) = self.find(flow)?;
        self.entries[slot] = None;
        self.free.insert(slot as u32);
        // Backward-shift delete: pull every later member of the probe
        // chain whose home lies at or before the hole into it, so lookups
        // never need tombstones.
        let mask = self.index.len() - 1;
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let Some(moved) = self.index[cell].checked_sub(1) else { break };
            let Some(other) = self.entries[moved as usize] else { break };
            let from_home = cell.wrapping_sub(self.home(other)) & mask;
            if from_home >= (cell.wrapping_sub(hole) & mask) {
                self.index[hole] = moved + 1;
                hole = cell;
            }
        }
        self.index[hole] = 0;
        Some(slot)
    }

    /// The flow occupying `slot`, if any.
    pub fn flow_at(&self, slot: usize) -> Option<FlowId> {
        self.entries.get(slot).copied().flatten()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(slot, flow)` pairs of occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FlowId)> + '_ {
        self.entries.iter().enumerate().filter_map(|(i, e)| e.map(|f| (i, f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_cycle() {
        let mut cam = Cam::new(4);
        let s0 = cam.insert(FlowId(10)).unwrap();
        let s1 = cam.insert(FlowId(20)).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(cam.lookup(FlowId(10)), Some(s0));
        assert_eq!(cam.lookup(FlowId(20)), Some(s1));
        assert_eq!(cam.lookup(FlowId(30)), None);
        assert_eq!(cam.remove(FlowId(10)), Some(s0));
        assert_eq!(cam.lookup(FlowId(10)), None);
        assert_eq!(cam.len(), 1);
    }

    #[test]
    fn fills_and_reuses_slots() {
        let mut cam = Cam::new(2);
        cam.insert(FlowId(1)).unwrap();
        cam.insert(FlowId(2)).unwrap();
        assert!(cam.is_full());
        assert_eq!(cam.insert(FlowId(3)), None);
        cam.remove(FlowId(1));
        let s = cam.insert(FlowId(3)).unwrap();
        assert_eq!(s, 0, "freed slot reused");
    }

    #[test]
    fn flow_at_and_iter() {
        let mut cam = Cam::new(3);
        cam.insert(FlowId(5));
        cam.insert(FlowId(6));
        assert_eq!(cam.flow_at(0), Some(FlowId(5)));
        assert_eq!(cam.flow_at(2), None);
        let pairs: Vec<_> = cam.iter().collect();
        assert_eq!(pairs, vec![(0, FlowId(5)), (1, FlowId(6))]);
    }

    /// The linear comparator-array walk the index replaces, kept as the
    /// oracle: first matching entry, first free slot.
    #[derive(Default)]
    struct LinearCam(Vec<Option<FlowId>>);

    impl LinearCam {
        fn lookup(&self, flow: FlowId) -> Option<usize> {
            self.0.iter().position(|&e| e == Some(flow))
        }
        fn insert(&mut self, flow: FlowId) -> Option<usize> {
            let slot = self.0.iter().position(Option::is_none)?;
            self.0[slot] = Some(flow);
            Some(slot)
        }
        fn remove(&mut self, flow: FlowId) -> Option<usize> {
            let slot = self.lookup(flow)?;
            self.0[slot] = None;
            Some(slot)
        }
    }

    #[test]
    fn indexed_cam_matches_linear_model_under_random_ops() {
        use f4t_sim::SimRng;
        // Flow ids drawn from a strided pool collide in the index far more
        // often than sequential ids, so probe chains form, wrap around the
        // table end and get deleted from the middle.
        for (seed, capacity, stride) in
            [(1u64, 1usize, 1u32), (2, 3, 1), (3, 8, 16), (4, 128, 1), (5, 128, 256), (6, 200, 4096)]
        {
            let mut rng = SimRng::new(0xCA4_0000 + seed);
            let mut cam = Cam::new(capacity);
            let mut model = LinearCam(vec![None; capacity]);
            let pool = (capacity as u64 * 3).max(4);
            for op in 0..20_000u64 {
                let flow = FlowId(rng.next_below(pool) as u32 * stride);
                let ctx = format!("seed {seed} op {op} flow {flow}");
                match rng.next_below(8) {
                    // Inserts outnumber removes, so the table runs full.
                    0..=3 => {
                        if model.lookup(flow).is_none() {
                            assert_eq!(cam.insert(flow), model.insert(flow), "{ctx}");
                        }
                    }
                    4 | 5 => assert_eq!(cam.remove(flow), model.remove(flow), "{ctx}"),
                    _ => assert_eq!(cam.lookup(flow), model.lookup(flow), "{ctx}"),
                }
                assert_eq!(cam.len(), model.0.iter().flatten().count(), "{ctx}");
                assert_eq!(cam.is_full(), model.0.iter().all(Option::is_some), "{ctx}");
            }
            // Every resident flow still resolves after the churn, and the
            // slot view agrees entry by entry.
            for (slot, e) in model.0.iter().enumerate() {
                assert_eq!(cam.flow_at(slot), *e, "seed {seed} slot {slot}");
                if let Some(flow) = e {
                    assert_eq!(cam.lookup(*flow), Some(slot), "seed {seed} slot {slot}");
                }
            }
        }
    }

    #[test]
    fn delete_in_the_middle_of_a_probe_chain_keeps_the_tail_reachable() {
        // Find three flows sharing one home cell, so they form one chain.
        let mut cam = Cam::new(4);
        let home = cam.home(FlowId(0));
        let chain: Vec<FlowId> =
            (0..10_000).map(FlowId).filter(|&f| cam.home(f) == home).take(3).collect();
        assert_eq!(chain.len(), 3, "8-cell table: plenty of colliding ids");
        for &f in &chain {
            cam.insert(f).unwrap();
        }
        assert_eq!(cam.remove(chain[1]), Some(1));
        assert_eq!(cam.lookup(chain[0]), Some(0));
        assert_eq!(cam.lookup(chain[2]), Some(2), "tail pulled back over the hole");
        assert_eq!(cam.lookup(chain[1]), None);
        assert_eq!(cam.insert(chain[1]), Some(1), "lowest free slot handed out again");
    }

    #[test]
    fn empty_state() {
        let mut cam = Cam::new(1);
        assert!(cam.is_empty());
        cam.insert(FlowId(9));
        cam.remove(FlowId(9));
        assert!(cam.is_empty());
        assert_eq!(cam.capacity(), 1);
    }
}
