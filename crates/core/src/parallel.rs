//! FtTurbo parallel execution: independent engine shards on worker
//! threads with a deterministic rendezvous barrier.
//!
//! The model is strict fork-join over a **fixed** shard set. A workload
//! is split into N independent shards (each owning its own [`Engine`],
//! or any other `Send` state); every rendezvous round applies the same
//! step function to every shard, and a [`std::sync::Barrier`] holds all
//! workers at the round boundary until the slowest shard arrives. The
//! worker-pool size changes *wall-clock only*:
//!
//! * shards never share mutable state — each is stepped by exactly one
//!   worker, and the contiguous-chunk assignment is a pure function of
//!   `(shard_count, pool_size)`;
//! * the only cross-shard communication is the round-continuation vote,
//!   a boolean OR, which is order-insensitive;
//! * merged artifacts (telemetry, journals, digests) are folded in
//!   fixed shard order *after* the run, never concurrently (digests with
//!   [`f4t_sim::digest::fold_digests`]).
//!
//! So a pool of 1 and a pool of N execute the identical per-shard
//! instruction stream and produce byte-identical output — the property
//! `tests/determinism.rs` pins.
//!
//! Rounds are sized in [`RENDEZVOUS_QUANTUM`] cycles so that FtVerify
//! structural audits (every `AUDIT_INTERVAL` cycles) and watchdog
//! sweeps land exactly on rendezvous boundaries: each shard observes
//! its own quiescent state at the same cycle numbers whether the run is
//! tick-by-tick, fast-forwarded or parallel.

use crate::engine::AUDIT_INTERVAL;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

/// Cycles per rendezvous round. Equal to the FtVerify audit interval and
/// a divisor of every supported watchdog interval, so audit and sweep
/// cycles always coincide with a barrier.
pub const RENDEZVOUS_QUANTUM: u64 = AUDIT_INTERVAL;

/// Deterministic fork-join runner over a fixed set of independent
/// shards.
///
/// # Examples
///
/// ```
/// use f4t_core::parallel::ParallelRunner;
///
/// // Four shards, each accumulating its own series; pool size must not
/// // change the result.
/// let mk = || ParallelRunner::new(vec![0u64; 4]);
/// let run = |threads: usize| {
///     let mut r = mk();
///     r.run_rounds(threads, |acc, round| {
///         *acc = acc.wrapping_mul(31).wrapping_add(round);
///         round < 9
///     });
///     r.into_shards()
/// };
/// assert_eq!(run(1), run(4));
/// ```
pub struct ParallelRunner<S> {
    shards: Vec<S>,
}

impl<S: Send> ParallelRunner<S> {
    /// Wraps a fixed shard set. The shard count is part of the
    /// workload's identity; only the worker-pool size passed to
    /// [`run_rounds`](Self::run_rounds) may vary between runs.
    pub fn new(shards: Vec<S>) -> ParallelRunner<S> {
        ParallelRunner { shards }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the runner holds no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Read access to the shards, in fixed order (use this for merging
    /// artifacts after a run).
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Unwraps the shards, in fixed order.
    pub fn into_shards(self) -> Vec<S> {
        self.shards
    }

    /// Runs rendezvous rounds until every shard votes to stop.
    ///
    /// Each round calls `step(shard, round)` once per shard; the round
    /// counter is global and identical across shards. The run continues
    /// while *any* shard returns `true` — finished shards keep being
    /// stepped (their step should be a cheap no-op) so every shard
    /// executes the same number of rounds regardless of completion
    /// order. Returns the number of rounds executed.
    ///
    /// `threads` is clamped to `[1, shard_count]`. A pool of 1 runs the
    /// shards inline on the caller's thread with no synchronization at
    /// all — the reference sequence the threaded path must reproduce.
    pub fn run_rounds<F>(&mut self, threads: usize, step: F) -> u64
    where
        F: Fn(&mut S, u64) -> bool + Sync,
    {
        if self.shards.is_empty() {
            return 0;
        }
        let threads = threads.max(1).min(self.shards.len());
        if threads == 1 {
            let mut round = 0u64;
            loop {
                let mut again = false;
                for s in &mut self.shards {
                    again |= step(s, round);
                }
                round += 1;
                if !again {
                    return round;
                }
            }
        }
        // Contiguous chunks, one worker each: shard i is stepped only by
        // worker i / chunk, so no shard is ever touched by two threads.
        let chunk = self.shards.len().div_ceil(threads);
        let workers = self.shards.len().div_ceil(chunk);
        let barrier = Barrier::new(workers);
        let votes = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let rounds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for shards in self.shards.chunks_mut(chunk) {
                let (barrier, votes, stop, rounds, step) =
                    (&barrier, &votes, &stop, &rounds, &step);
                scope.spawn(move || {
                    let mut round = 0u64;
                    loop {
                        let mut again = false;
                        for s in shards.iter_mut() {
                            again |= step(s, round);
                        }
                        if again {
                            votes.fetch_add(1, Ordering::Relaxed);
                        }
                        // Rendezvous: every shard has reached the round
                        // boundary. The leader tallies the continuation
                        // vote; a second wait publishes it before anyone
                        // can start (or skip) the next round.
                        if barrier.wait().is_leader() {
                            stop.store(votes.load(Ordering::Relaxed) == 0, Ordering::Relaxed);
                            votes.store(0, Ordering::Relaxed);
                            rounds.store(round + 1, Ordering::Relaxed);
                        }
                        barrier.wait();
                        round += 1;
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                });
            }
        });
        rounds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::SimRng;

    /// A shard doing data-dependent pseudo-random work with a
    /// shard-specific completion round — exercises uneven finish order.
    struct Work {
        rng: SimRng,
        acc: u64,
        rounds_left: u64,
    }

    fn shards() -> Vec<Work> {
        (0..7u64)
            .map(|i| Work {
                rng: SimRng::new(0x7EAD_0000 + i),
                acc: 0,
                rounds_left: 3 + (i * 5) % 11,
            })
            .collect()
    }

    fn run(threads: usize) -> (Vec<u64>, u64) {
        let mut r = ParallelRunner::new(shards());
        let rounds = r.run_rounds(threads, |w, round| {
            if w.rounds_left == 0 {
                return false; // finished shards keep voting to stop
            }
            w.rounds_left -= 1;
            w.acc = w.acc.wrapping_add(w.rng.next_u64() ^ round);
            w.rounds_left > 0
        });
        (r.into_shards().into_iter().map(|w| w.acc).collect(), rounds)
    }

    #[test]
    fn pool_size_does_not_change_results_or_round_count() {
        let reference = run(1);
        for threads in [2, 3, 7, 16] {
            assert_eq!(run(threads), reference, "pool of {threads} diverged");
        }
    }

    #[test]
    fn empty_and_single_shard_runs() {
        let mut empty: ParallelRunner<u64> = ParallelRunner::new(Vec::new());
        assert_eq!(empty.run_rounds(4, |_, _| true), 0);
        assert!(empty.is_empty());

        let mut one = ParallelRunner::new(vec![0u64]);
        let rounds = one.run_rounds(8, |v, round| {
            *v += round;
            round < 4
        });
        assert_eq!(rounds, 5);
        assert_eq!(one.shards()[0], (0..=4u64).sum());
    }

    #[test]
    fn quantum_is_audit_aligned() {
        assert_eq!(RENDEZVOUS_QUANTUM, crate::engine::AUDIT_INTERVAL);
        assert!(RENDEZVOUS_QUANTUM.is_multiple_of(2), "even/odd FPC phases stay aligned");
    }
}
