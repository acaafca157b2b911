//! Logical out-of-order reassembly.
//!
//! The paper's RX parser "DMAs the payload to the TCP data buffer if it
//! fits in the receive window (regardless of whether it is in order)...
//! To reassemble data in order, the RX parser stores the information of
//! out-of-sequence data chunks and merges the received data into its
//! adjacent data chunks" (§4.1.2). Payload bytes land in the buffer at
//! their sequence offset; only *ranges* are tracked here — reassembly is
//! logical, no data is moved.
//!
//! Hardware bounds the number of tracked disjoint chunks; we default to 16
//! and drop segments that would need a 17th (they will be retransmitted).

use crate::SeqNum;

/// Outcome of offering a segment to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyResult {
    /// The in-order pointer advanced by this many bytes (possibly merging
    /// previously buffered out-of-order chunks).
    Advanced(u32),
    /// Stored out of order; the in-order pointer did not move.
    OutOfOrder,
    /// Entirely old data (at or before the in-order pointer): a duplicate.
    Duplicate,
    /// Beyond the receive window, or the chunk table was full: dropped.
    Dropped,
}

/// Tracks received byte ranges for one flow and advances the cumulative
/// in-order pointer (`rcv_nxt`).
///
/// # Examples
///
/// ```
/// use f4t_tcp::{ReassemblyTracker, SeqNum};
/// use f4t_tcp::reassembly::ReassemblyResult;
///
/// let mut r = ReassemblyTracker::new(SeqNum(0), 65536);
/// // A gap: bytes 100..200 arrive first.
/// assert_eq!(r.on_segment(SeqNum(100), 100), ReassemblyResult::OutOfOrder);
/// // The gap fills: both ranges complete.
/// assert_eq!(r.on_segment(SeqNum(0), 100), ReassemblyResult::Advanced(200));
/// assert_eq!(r.rcv_nxt(), SeqNum(200));
/// ```
#[derive(Debug, Clone)]
pub struct ReassemblyTracker {
    rcv_nxt: SeqNum,
    window: u32,
    /// Disjoint, sorted (by distance from rcv_nxt), non-adjacent ranges
    /// strictly above rcv_nxt: (start, end) half-open.
    chunks: Vec<(SeqNum, SeqNum)>,
    max_chunks: usize,
    /// Total out-of-order segments accepted (diagnostics).
    ooo_accepted: u64,
    /// Total segments dropped for window/overflow reasons (diagnostics).
    dropped: u64,
}

impl ReassemblyTracker {
    /// Default bound on simultaneously tracked out-of-order chunks.
    pub const DEFAULT_MAX_CHUNKS: usize = 16;

    /// Creates a tracker expecting `rcv_nxt` next, with a receive window
    /// of `window` bytes.
    pub fn new(rcv_nxt: SeqNum, window: u32) -> ReassemblyTracker {
        ReassemblyTracker {
            rcv_nxt,
            window,
            chunks: Vec::new(),
            max_chunks: Self::DEFAULT_MAX_CHUNKS,
            ooo_accepted: 0,
            dropped: 0,
        }
    }

    /// The current cumulative in-order pointer.
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// Number of disjoint out-of-order chunks currently tracked.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Count of accepted out-of-order segments (diagnostics).
    pub fn ooo_accepted(&self) -> u64 {
        self.ooo_accepted
    }

    /// Count of dropped segments (diagnostics).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Offers a received segment `[seq, seq+len)` to the tracker.
    pub fn on_segment(&mut self, seq: SeqNum, len: u32) -> ReassemblyResult {
        if len == 0 {
            return ReassemblyResult::Duplicate;
        }
        let end = seq.add(len);
        if end.le(self.rcv_nxt) {
            return ReassemblyResult::Duplicate;
        }
        // Trim old prefix.
        let start = seq.max_seq(self.rcv_nxt);
        // Window check: data must fit inside [rcv_nxt, rcv_nxt + window).
        if end.since(self.rcv_nxt) > self.window {
            self.dropped += 1;
            return ReassemblyResult::Dropped;
        }

        if start == self.rcv_nxt {
            // In-order (possibly after trimming): advance, then absorb any
            // now-contiguous buffered chunks.
            self.rcv_nxt = end;
            self.absorb_chunks();
            let advanced = self.rcv_nxt.since(start);
            ReassemblyResult::Advanced(advanced)
        } else {
            self.insert_chunk(start, end)
        }
    }

    fn absorb_chunks(&mut self) {
        while let Some(&(s, e)) = self.chunks.first() {
            if s.le(self.rcv_nxt) {
                self.rcv_nxt = self.rcv_nxt.max_seq(e);
                self.chunks.remove(0);
            } else {
                break;
            }
        }
    }

    fn insert_chunk(&mut self, start: SeqNum, end: SeqNum) -> ReassemblyResult {
        // Find overlap/adjacency and merge. Chunks are sorted by start.
        let mut merged_start = start;
        let mut merged_end = end;
        let mut i = 0;
        let mut remove_from = None;
        let mut remove_count = 0;
        while i < self.chunks.len() {
            let (s, e) = self.chunks[i];
            if e.lt(merged_start) {
                i += 1;
                continue;
            }
            if s.gt(merged_end) {
                break;
            }
            // Overlapping or adjacent: merge.
            merged_start = merged_start.min_seq(s);
            merged_end = merged_end.max_seq(e);
            if remove_from.is_none() {
                remove_from = Some(i);
            }
            remove_count += 1;
            i += 1;
        }
        if let Some(from) = remove_from {
            self.chunks.drain(from..from + remove_count);
            let insert_at = self
                .chunks
                .iter()
                .position(|&(s, _)| s.gt(merged_start))
                .unwrap_or(self.chunks.len());
            self.chunks.insert(insert_at, (merged_start, merged_end));
            self.ooo_accepted += 1;
            ReassemblyResult::OutOfOrder
        } else {
            if self.chunks.len() >= self.max_chunks {
                self.dropped += 1;
                return ReassemblyResult::Dropped;
            }
            let insert_at = self
                .chunks
                .iter()
                .position(|&(s, _)| s.gt(merged_start))
                .unwrap_or(self.chunks.len());
            self.chunks.insert(insert_at, (merged_start, merged_end));
            self.ooo_accepted += 1;
            ReassemblyResult::OutOfOrder
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::SimRng;

    #[test]
    fn in_order_stream() {
        let mut r = ReassemblyTracker::new(SeqNum(0), 1 << 20);
        for i in 0..10u32 {
            assert_eq!(r.on_segment(SeqNum(i * 100), 100), ReassemblyResult::Advanced(100));
        }
        assert_eq!(r.rcv_nxt(), SeqNum(1000));
        assert_eq!(r.chunk_count(), 0);
    }

    #[test]
    fn gap_fills_and_merges() {
        let mut r = ReassemblyTracker::new(SeqNum(0), 1 << 20);
        assert_eq!(r.on_segment(SeqNum(200), 100), ReassemblyResult::OutOfOrder);
        assert_eq!(r.on_segment(SeqNum(100), 100), ReassemblyResult::OutOfOrder);
        assert_eq!(r.chunk_count(), 1, "adjacent chunks merged");
        assert_eq!(r.on_segment(SeqNum(0), 100), ReassemblyResult::Advanced(300));
        assert_eq!(r.rcv_nxt(), SeqNum(300));
    }

    #[test]
    fn duplicate_and_partial_overlap() {
        let mut r = ReassemblyTracker::new(SeqNum(0), 1 << 20);
        r.on_segment(SeqNum(0), 100);
        assert_eq!(r.on_segment(SeqNum(0), 100), ReassemblyResult::Duplicate);
        assert_eq!(r.on_segment(SeqNum(50), 50), ReassemblyResult::Duplicate);
        // Partial overlap past the pointer advances by the new part only.
        assert_eq!(r.on_segment(SeqNum(50), 100), ReassemblyResult::Advanced(50));
    }

    #[test]
    fn beyond_window_dropped() {
        let mut r = ReassemblyTracker::new(SeqNum(0), 1000);
        assert_eq!(r.on_segment(SeqNum(950), 100), ReassemblyResult::Dropped);
        assert_eq!(r.on_segment(SeqNum(5000), 10), ReassemblyResult::Dropped);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn chunk_table_overflow_drops() {
        let mut r = ReassemblyTracker::new(SeqNum(0), 1 << 20);
        // 16 disjoint chunks at 2k spacing fit...
        for i in 0..16u32 {
            assert_eq!(r.on_segment(SeqNum(1000 + i * 2000), 100), ReassemblyResult::OutOfOrder);
        }
        // ...the 17th disjoint chunk is dropped.
        assert_eq!(r.on_segment(SeqNum(1000 + 16 * 2000), 100), ReassemblyResult::Dropped);
        // But data merging into an existing chunk is still accepted.
        assert_eq!(r.on_segment(SeqNum(1100), 100), ReassemblyResult::OutOfOrder);
    }

    #[test]
    fn wraparound_sequence_space() {
        let start = SeqNum(u32::MAX - 150);
        let mut r = ReassemblyTracker::new(start, 1 << 20);
        assert_eq!(r.on_segment(start.add(100), 100), ReassemblyResult::OutOfOrder);
        assert_eq!(r.on_segment(start, 100), ReassemblyResult::Advanced(200));
        assert_eq!(r.rcv_nxt(), start.add(200));
    }

    // Randomized property checks, driven by the deterministic in-tree
    // PRNG (the build environment has no registry access for proptest).

    /// Delivering a contiguous byte range as segments in ANY order
    /// always reassembles to the full range, regardless of
    /// duplication, as long as the chunk bound is respected.
    #[test]
    fn any_order_reassembles() {
        let mut rng = SimRng::new(0xA55E);
        for _ in 0..256 {
            let base = SeqNum(rng.next_u64() as u32);
            let mut order: Vec<u32> = (0..12).collect();
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            if rng.chance(0.5) {
                let extra = order[0];
                order.push(extra);
            }
            let mut r = ReassemblyTracker::new(base, 1 << 20);
            for i in order {
                let _ = r.on_segment(base.add(i * 100), 100);
            }
            assert_eq!(r.rcv_nxt(), base.add(1200));
            assert_eq!(r.chunk_count(), 0);
        }
    }

    /// Exact-once delivery under a hostile schedule: a contiguous
    /// stream pushed through bounded-displacement reordering,
    /// duplication and loss-with-retransmission must advance the
    /// in-order pointer by every byte exactly once — the sum of
    /// `Advanced` amounts equals the stream length, never more (a
    /// duplicate that re-advanced would corrupt the application
    /// stream) and never less (a lost range that never completes
    /// would wedge the flow).
    #[test]
    fn impaired_schedule_delivers_exactly_once() {
        let mut rng = SimRng::new(0x5702_4A11);
        for case in 0..64u64 {
            let base = SeqNum(rng.next_u64() as u32);
            let total_segs = 40u32;
            let seg_len = 100u32;
            let mut r = ReassemblyTracker::new(base, 1 << 20);
            let mut advanced_total = 0u64;
            // Segments still owed to the receiver (retransmission queue).
            let mut pending: Vec<u32> = (0..total_segs).collect();
            // Reordered segments held back with a displacement countdown,
            // mirroring the link model's bounded-displacement contract.
            let mut held: Vec<(u64, u32)> = Vec::new();
            let mut rounds = 0;
            while r.rcv_nxt() != base.add(total_segs * seg_len) {
                rounds += 1;
                assert!(rounds < 50, "case {case}: reassembly failed to converge");
                let mut undelivered = Vec::new();
                for &i in &pending {
                    // Loss: the segment stays owed for the next round.
                    if rng.chance(0.1) {
                        undelivered.push(i);
                        continue;
                    }
                    // Bounded reorder: hold for up to 3 later deliveries.
                    if rng.chance(0.2) {
                        held.push((1 + rng.next_below(3), i));
                        continue;
                    }
                    let mut deliver = vec![i];
                    // Duplication: the wire repeats the segment verbatim.
                    if rng.chance(0.1) {
                        deliver.push(i);
                    }
                    for j in deliver {
                        if let ReassemblyResult::Advanced(n) =
                            r.on_segment(base.add(j * seg_len), seg_len)
                        {
                            advanced_total += u64::from(n);
                        }
                    }
                    let mut k = 0;
                    while k < held.len() {
                        held[k].0 -= 1;
                        if held[k].0 == 0 {
                            let (_, j) = held.remove(k);
                            if let ReassemblyResult::Advanced(n) =
                                r.on_segment(base.add(j * seg_len), seg_len)
                            {
                                advanced_total += u64::from(n);
                            }
                        } else {
                            k += 1;
                        }
                    }
                }
                // Tail flush, then retransmit what the wire ate.
                for (_, j) in held.drain(..) {
                    if let ReassemblyResult::Advanced(n) =
                        r.on_segment(base.add(j * seg_len), seg_len)
                    {
                        advanced_total += u64::from(n);
                    }
                }
                pending = undelivered;
                if pending.is_empty() && r.rcv_nxt() != base.add(total_segs * seg_len) {
                    // Dropped by the chunk bound: owed again.
                    pending = (0..total_segs).collect();
                }
            }
            assert_eq!(
                advanced_total,
                u64::from(total_segs * seg_len),
                "case {case}: bytes delivered a different number of times than once"
            );
            assert_eq!(r.chunk_count(), 0, "case {case}: leftover out-of-order state");
        }
    }

    /// The in-order pointer never moves backwards, and chunks stay
    /// strictly above it.
    #[test]
    fn pointer_monotone() {
        let mut rng = SimRng::new(0xA55F);
        for _ in 0..128 {
            let mut r = ReassemblyTracker::new(SeqNum(0), 1 << 20);
            let mut last = r.rcv_nxt();
            for _ in 0..(1 + rng.next_below(99)) {
                let off = rng.next_below(5000) as u32;
                let len = 1 + rng.next_below(299) as u32;
                let _ = r.on_segment(SeqNum(off), len);
                assert!(r.rcv_nxt().ge(last));
                last = r.rcv_nxt();
            }
        }
    }
}
