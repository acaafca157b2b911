//! The memory manager's direct-mapped TCB cache.
//!
//! The memory manager "includes a direct-mapped TCB cache to handle the
//! frequently accessed TCBs more efficiently" (§4.3.1). A hit serves the
//! event from on-chip SRAM; a miss costs DRAM bandwidth. Entries are
//! write-back (dirty bit), so a flow receiving a burst of events costs one
//! DRAM fill and one eventual write-back instead of an RMW per event.
//!
//! The cache is a timing model: the TCB contents live once, in the memory
//! manager's DRAM rows, and a line here is the resident flow's tag and
//! its dirty bit — all that decides a hit, a miss and a victim write.

use f4t_tcp::FlowId;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The flow's TCB was resident.
    Hit,
    /// Not resident; `victim_dirty` says the line the fill displaces
    /// must be written back to DRAM before the fill completes.
    Miss {
        /// Dirty TCB displaced by the fill, if any.
        victim_dirty: bool,
    },
}

/// A direct-mapped, write-back cache of TCBs indexed by flow id: one
/// `(tag, dirty)` line per set.
///
/// # Examples
///
/// ```
/// use f4t_mem::{CacheAccess, TcbCache};
/// use f4t_tcp::{FlowId, Tcb};
/// let mut cache = TcbCache::new(64);
/// cache.fill(Tcb::new(FlowId(5))); // a TCB fills its flow's line
/// assert_eq!(cache.probe(FlowId(5)), CacheAccess::Hit);
/// assert!(cache.mark_dirty(FlowId(5)));
/// // Flow 69 shares set 5: the dirty line is its victim.
/// assert_eq!(cache.probe(FlowId(69)), CacheAccess::Miss { victim_dirty: true });
/// ```
#[derive(Debug, Clone)]
pub struct TcbCache {
    sets: Vec<Option<(FlowId, bool)>>,
    hits: u64,
    misses: u64,
}

impl TcbCache {
    /// Creates a cache with `sets` direct-mapped entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: usize) -> TcbCache {
        assert!(sets > 0, "cache must have at least one set");
        TcbCache { sets: vec![None; sets], hits: 0, misses: 0 }
    }

    #[inline]
    fn index(&self, flow: FlowId) -> usize {
        flow.0 as usize % self.sets.len()
    }

    /// The line holding `flow`, if it is resident.
    fn line_mut(&mut self, flow: FlowId) -> Option<&mut Option<(FlowId, bool)>> {
        let idx = self.index(flow);
        let line = &mut self.sets[idx];
        line.is_some_and(|(tag, _)| tag == flow).then_some(line)
    }

    /// Probes the cache for `flow`, recording hit/miss statistics.
    pub fn probe(&mut self, flow: FlowId) -> CacheAccess {
        match self.sets[self.index(flow)] {
            Some((tag, _)) if tag == flow => {
                self.hits += 1;
                CacheAccess::Hit
            }
            line => {
                self.misses += 1;
                CacheAccess::Miss { victim_dirty: line.is_some_and(|(_, dirty)| dirty) }
            }
        }
    }

    /// Marks a resident flow's line dirty (the in-place RMW wrote it);
    /// `false` on miss. Does not touch statistics — pair with
    /// [`probe`](TcbCache::probe).
    pub fn mark_dirty(&mut self, flow: FlowId) -> bool {
        self.line_mut(flow).map(|line| *line = Some((flow, true))).is_some()
    }

    /// Installs the line of `line`'s flow (clean) — a [`FlowId`], or a
    /// TCB, whose tag is its flow — returning the displaced `(tag,
    /// dirty)` if one was resident.
    pub fn fill(&mut self, line: impl Into<FlowId>) -> Option<(FlowId, bool)> {
        let flow = line.into();
        let idx = self.index(flow);
        self.sets[idx].replace((flow, false))
    }

    /// Removes `flow` from the cache (e.g. when it swaps into an FPC),
    /// returning its dirty bit if it was resident.
    pub fn invalidate(&mut self, flow: FlowId) -> Option<bool> {
        self.line_mut(flow).and_then(Option::take).map(|(_, dirty)| dirty)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (zero when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::SimRng;
    use f4t_tcp::Tcb;

    fn tcb(id: u32) -> Tcb {
        Tcb::new(FlowId(id))
    }

    #[test]
    fn fill_then_hit() {
        let mut c = TcbCache::new(8);
        assert_eq!(c.probe(FlowId(1)), CacheAccess::Miss { victim_dirty: false });
        c.fill(tcb(1));
        assert_eq!(c.probe(FlowId(1)), CacheAccess::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflict_eviction_reports_dirty_victim() {
        let mut c = TcbCache::new(8);
        c.fill(FlowId(1));
        assert!(c.mark_dirty(FlowId(1)));
        // Flow 9 maps to the same set (9 % 8 == 1).
        assert_eq!(c.probe(FlowId(9)), CacheAccess::Miss { victim_dirty: true });
        assert_eq!(c.fill(FlowId(9)), Some((FlowId(1), true)), "dirty victim displaced");
    }

    #[test]
    fn only_mark_dirty_dirties_a_line() {
        let mut c = TcbCache::new(4);
        c.fill(FlowId(2));
        assert_eq!(c.probe(FlowId(2)), CacheAccess::Hit);
        assert_eq!(c.fill(FlowId(2)), Some((FlowId(2), false)), "a probe leaves it clean");
        assert!(c.mark_dirty(FlowId(2)));
        assert_eq!(c.fill(FlowId(2)), Some((FlowId(2), true)));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = TcbCache::new(4);
        c.fill(FlowId(3));
        assert_eq!(c.invalidate(FlowId(3)), Some(false));
        assert_eq!(c.probe(FlowId(3)), CacheAccess::Miss { victim_dirty: false });
        assert_eq!(c.invalidate(FlowId(3)), None);
    }

    #[test]
    fn wrong_flow_in_set_is_miss() {
        let mut c = TcbCache::new(4);
        c.fill(FlowId(0));
        assert!(!c.mark_dirty(FlowId(4)), "same set, different flow");
        assert_eq!(c.invalidate(FlowId(4)), None);
        assert_eq!(c.probe(FlowId(4)), CacheAccess::Miss { victim_dirty: false });
        assert_eq!(c.probe(FlowId(0)), CacheAccess::Hit, "the resident line is untouched");
    }

    /// The cache as it was when every line held a whole TCB: the
    /// reference the tag-only cache must agree with, access for access.
    struct RowCache {
        sets: Vec<Option<(Tcb, bool)>>,
        hits: u64,
        misses: u64,
    }

    impl RowCache {
        fn probe(&mut self, flow: FlowId) -> CacheAccess {
            let n = self.sets.len();
            match &self.sets[flow.0 as usize % n] {
                Some((t, _)) if t.flow == flow => {
                    self.hits += 1;
                    CacheAccess::Hit
                }
                Some((_, dirty)) => {
                    self.misses += 1;
                    CacheAccess::Miss { victim_dirty: *dirty }
                }
                None => {
                    self.misses += 1;
                    CacheAccess::Miss { victim_dirty: false }
                }
            }
        }

        fn line(&mut self, flow: FlowId) -> Option<&mut Option<(Tcb, bool)>> {
            let n = self.sets.len();
            let line = &mut self.sets[flow.0 as usize % n];
            matches!(line, Some((t, _)) if t.flow == flow).then_some(line)
        }
    }

    #[test]
    fn seeded_trace_matches_the_whole_row_cache() {
        const SETS: usize = 8;
        let mut rng = SimRng::new(0x7cb_cac4e);
        let mut tags = TcbCache::new(SETS);
        let mut rows = RowCache { sets: vec![None; SETS], hits: 0, misses: 0 };
        // 24 flows over 8 sets: three flows collide on every set.
        for step in 0..20_000 {
            let flow = FlowId(rng.next_below(3 * SETS as u64) as u32);
            match rng.next_below(4) {
                0 => assert_eq!(tags.probe(flow), rows.probe(flow), "probe at step {step}"),
                1 => {
                    let mut t = tcb(flow.0);
                    t.cwnd = step;
                    let displaced = rows.sets[flow.0 as usize % SETS].replace((t, false));
                    let want = displaced.map(|(old, dirty)| (old.flow, dirty));
                    assert_eq!(tags.fill(t), want, "fill at step {step}");
                }
                2 => {
                    let hit = rows.line(flow).map(|l| l.as_mut().map(|(_, d)| *d = true));
                    assert_eq!(tags.mark_dirty(flow), hit.is_some(), "dirty at step {step}");
                }
                _ => {
                    let gone = rows.line(flow).and_then(Option::take).map(|(_, d)| d);
                    assert_eq!(tags.invalidate(flow), gone, "invalidate at step {step}");
                }
            }
        }
        assert_eq!((tags.hits(), tags.misses()), (rows.hits, rows.misses));
        assert!(rows.hits > 1_000 && rows.misses > 1_000, "the trace exercises both");
    }
}
