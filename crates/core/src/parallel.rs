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
//! [`Worker`] is the other threading shape: one persistent helper thread
//! that steps one job at a time beside its caller, for work too short to
//! pay a thread spawn per call (`F4tSystem`'s node windows, DESIGN.md
//! §12.4). Jobs move to the thread and back by value, so nothing is
//! shared while both threads run.
//!
//! Rounds are sized in [`RENDEZVOUS_QUANTUM`] cycles so that FtVerify
//! structural audits (every `AUDIT_INTERVAL` cycles) and watchdog
//! sweeps land exactly on rendezvous boundaries: each shard observes
//! its own quiescent state at the same cycle numbers whether the run is
//! tick-by-tick, fast-forwarded or parallel.

use crate::engine::AUDIT_INTERVAL;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Barrier;
use std::thread::{self, JoinHandle};

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

/// Polls a side of a [`Worker`] hand-off makes before it parks: about
/// 34 µs on a 2-vCPU host. A busy hand-off lands well inside it (~0.2 µs);
/// a wake from park costs ~17 µs, and an unbounded spin would steal the
/// CPU from every other thread while the caller does something else.
pub const HANDOFF_SPINS: u32 = 1 << 11;

/// The next value on `rx`: polled [`HANDOFF_SPINS`] times, then waited
/// for parked. `None` once the sending side is gone.
fn wait<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..HANDOFF_SPINS {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv().ok()
}

/// A job and how its step ended: `Err` holds a panic's payload.
type Outcome<J> = (J, thread::Result<()>);

/// One persistent helper thread applying a fixed step to one job at a
/// time, beside the thread that owns it.
///
/// [`start`](Self::start) moves a job to the thread, which steps it at
/// once; [`finish`](Self::finish) takes it back. A panicking step is
/// caught on the thread and its payload returned with the job, so the
/// caller decides when to re-raise it. Dropping the worker closes its
/// queue and joins the thread.
///
/// # Examples
///
/// ```
/// use f4t_core::parallel::Worker;
///
/// let mut w = Worker::spawn(|n: &mut u64| *n *= 3).expect("thread");
/// w.start(7);
/// let (n, outcome) = w.finish().expect("job back");
/// assert_eq!(n, 21);
/// assert!(outcome.is_ok());
/// ```
#[derive(Debug)]
pub struct Worker<J> {
    jobs: Option<Sender<J>>,
    done: Receiver<Outcome<J>>,
    thread: Option<JoinHandle<()>>,
}

impl<J: Send + 'static> Worker<J> {
    /// Spawns the thread; `work` runs on every job it is handed. An error
    /// is the host refusing the thread, and the caller steps its jobs
    /// itself.
    pub fn spawn(work: fn(&mut J)) -> io::Result<Worker<J>> {
        let (jobs, inbox) = mpsc::channel::<J>();
        let (outbox, done) = mpsc::channel::<Outcome<J>>();
        let thread = thread::Builder::new().name("f4t-worker".into()).spawn(move || {
            while let Some(mut job) = wait(&inbox) {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(&mut job)));
                if outbox.send((job, outcome)).is_err() {
                    return;
                }
            }
        })?;
        Ok(Worker { jobs: Some(jobs), done, thread: Some(thread) })
    }

    /// Hands `job` to the thread, which starts stepping it at once.
    pub fn start(&mut self, job: J) {
        if let Some(jobs) = &self.jobs {
            // A send fails only if the thread is gone, and then so is the
            // job: `finish` reports that.
            let _ = jobs.send(job);
        }
    }

    /// Waits for the started job and returns it with its outcome; `None`
    /// if the thread is gone, and the job with it.
    pub fn finish(&mut self) -> Option<Outcome<J>> {
        wait(&self.done)
    }
}

impl<J> Drop for Worker<J> {
    fn drop(&mut self) {
        // Closing the queue ends the thread's loop once it is idle.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
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
    fn a_worker_returns_each_job_and_a_caught_panic() {
        let mut w = Worker::spawn(|n: &mut u64| {
            assert!(*n != 0, "zero job");
            *n *= 2;
        })
        .expect("thread");
        for n in [1u64, 0, 3] {
            w.start(n);
            let (back, outcome) = w.finish().expect("the job comes back");
            if n == 0 {
                let payload = outcome.expect_err("the step panicked");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"zero job"));
                assert_eq!(back, 0);
            } else {
                assert!(outcome.is_ok());
                assert_eq!(back, 2 * n, "the thread outlives a panicking step");
            }
        }
    }

    #[test]
    fn dropping_a_worker_joins_its_thread() {
        // A job the thread still holds — mid-step, or back from a caught
        // panic — is released by the time drop returns.
        let probe = std::sync::Arc::new(());
        for panics in [false, true] {
            let mut w = Worker::spawn(|job: &mut (std::sync::Arc<()>, bool)| {
                assert!(!job.1, "planted");
            })
            .expect("thread");
            w.start((std::sync::Arc::clone(&probe), panics));
            drop(w);
            assert_eq!(std::sync::Arc::strong_count(&probe), 1, "panics={panics}");
        }
    }

    #[test]
    fn quantum_is_audit_aligned() {
        assert_eq!(RENDEZVOUS_QUANTUM, crate::engine::AUDIT_INTERVAL);
        assert!(RENDEZVOUS_QUANTUM.is_multiple_of(2), "even/odd FPC phases stay aligned");
    }
}
