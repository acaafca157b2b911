//! The bounded overwrite-oldest ring every recorder stores entries in:
//! the FtScope trace ring, the FtJournal event ring and the FtPulse
//! per-series window rings.
//!
//! Once full, each push overwrites the oldest entry, so the ring always
//! holds the newest `capacity` entries; iteration is oldest-first. The
//! ring counts lifetime pushes, so what it lost to wraparound is derived
//! (`overwritten = total - len`), never counted twice.
//!
//! # Examples
//!
//! ```
//! use f4t_sim::Ring;
//! let mut r = Ring::new(2);
//! for v in 1..=3 {
//!     r.push(v);
//! }
//! assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3]);
//! assert_eq!((r.total(), r.overwritten(), r.last()), (3, 1, Some(&3)));
//! ```

/// A bounded ring buffer that overwrites its oldest entry once full.
///
/// Capacity zero holds nothing: every push is a no-op behind one branch.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Overwrite cursor once `buf` is full: the oldest entry.
    next: usize,
    /// Lifetime pushes, including since-overwritten entries.
    total: u64,
}

impl<T> Default for Ring<T> {
    /// A capacity-zero ring.
    fn default() -> Ring<T> {
        Ring::new(0)
    }
}

impl<T> Ring<T> {
    /// Creates a ring holding up to `cap` entries.
    pub fn new(cap: usize) -> Ring<T> {
        Ring { buf: Vec::new(), cap, next: 0, total: 0 }
    }

    /// Appends `v`, overwriting the oldest entry when full.
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Lifetime pushes, including entries since overwritten.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Entries lost to wraparound.
    pub fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Held entries, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.next);
        older.iter().chain(newer.iter())
    }

    /// The newest entry.
    pub fn last(&self) -> Option<&T> {
        self.iter().next_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(r: &Ring<u64>) -> Vec<u64> {
        r.iter().copied().collect()
    }

    #[test]
    fn wraps_oldest_first_and_derives_overwrites() {
        let mut r = Ring::new(3);
        r.push(0);
        r.push(1);
        assert_eq!((held(&r), r.total(), r.overwritten()), (vec![0, 1], 2, 0), "under capacity");
        r.push(2);
        assert_eq!((r.total(), r.overwritten()), (3, 0), "exactly full");
        r.push(3);
        assert_eq!((held(&r), r.overwritten()), (vec![1, 2, 3], 1), "first wrap");
        for v in 4..10 {
            r.push(v);
        }
        assert_eq!(held(&r), [7, 8, 9], "newest window survives");
        assert_eq!((r.len(), r.total(), r.overwritten()), (3, 10, 7));
        assert_eq!(r.last(), Some(&9));
    }

    #[test]
    fn last_tracks_the_newest_entry_across_the_seam() {
        let mut r = Ring::new(2);
        assert_eq!(r.last(), None);
        for v in 0..5u64 {
            r.push(v);
            assert_eq!(r.last(), Some(&v));
        }
    }

    #[test]
    fn capacity_zero_holds_nothing() {
        let mut r = Ring::new(0);
        for v in 0..100u64 {
            r.push(v);
        }
        assert!(r.is_empty());
        assert_eq!((r.capacity(), r.total(), r.overwritten(), r.last()), (0, 0, 0, None));
        assert_eq!(r.iter().count(), 0);
    }
}
