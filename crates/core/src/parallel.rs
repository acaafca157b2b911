//! FtTurbo's one thread substrate: the [`Worker`], and the shard runner
//! built on it.
//!
//! A [`Worker`] steps one job at a time beside its caller. Threaded, it
//! is one persistent helper thread, and jobs move to it and back by
//! value, so nothing is shared while both threads run. Where the host has
//! one CPU or refuses the thread, the same worker steps each job on the
//! caller instead, inside the same `catch_unwind`: a caller has one code
//! path whatever the host (`F4tSystem`'s node windows, DESIGN.md §12.4).
//!
//! [`ParallelRunner`] is strict fork-join over a **fixed** shard set. A
//! workload is split into N independent shards (each owning its own
//! [`Engine`](crate::Engine), or any other `Send` state); every round
//! applies the same step function to every shard. The caller steps the
//! first contiguous chunk of shards, and every other chunk moves to its
//! own worker and back once per round, carrying its continuation vote.
//! The pool size changes *wall-clock only*:
//!
//! * shards never share mutable state — each chunk is stepped by one
//!   thread at a time, and the contiguous-chunk assignment is a pure
//!   function of `(shard_count, pool_size)`;
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
//! sweeps land exactly on round boundaries: each shard observes its own
//! quiescent state at the same cycle numbers whether the run is
//! tick-by-tick, fast-forwarded or parallel.

use crate::engine::AUDIT_INTERVAL;
use std::io;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::{self, JoinHandle};

/// Cycles per round. Equal to the FtVerify audit interval and a divisor
/// of every supported watchdog interval, so audit and sweep cycles
/// always coincide with a round boundary.
pub const RENDEZVOUS_QUANTUM: u64 = AUDIT_INTERVAL;

/// The CPUs this process may run on, 1 when the host does not say. Read
/// here only: it clamps a shard pool and picks a [`Worker`]'s form.
fn host_cpus() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

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

/// A contiguous run of shards on its way to a worker for one round, and
/// back with the round's continuation vote.
struct Chunk<S, F> {
    shards: Vec<S>,
    step: F,
    round: u64,
    again: bool,
}

/// A worker's step: one round over one chunk.
fn step_chunk<S, F: Fn(&mut S, u64) -> bool>(chunk: &mut Chunk<S, F>) {
    chunk.again = step_shards(&mut chunk.shards, &chunk.step, chunk.round);
}

/// One round over `shards`: whether any of them votes to go on. Every
/// shard is stepped, whatever the others voted.
fn step_shards<S>(shards: &mut [S], step: &impl Fn(&mut S, u64) -> bool, round: u64) -> bool {
    shards.iter_mut().fold(false, |again, s| step(s, round) | again)
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

    /// Runs rounds until every shard votes to stop.
    ///
    /// Each round calls `step(shard, round)` once per shard; the round
    /// counter is global and identical across shards. The run continues
    /// while *any* shard returns `true` — finished shards keep being
    /// stepped (their step should be a cheap no-op) so every shard
    /// executes the same number of rounds regardless of completion
    /// order. Returns the number of rounds executed.
    ///
    /// `threads` is clamped to `[1, min(shard_count, host CPUs)]`: more
    /// spinning hand-offs than CPUs would only take turns. The caller
    /// steps the first of that many contiguous chunks and each other
    /// chunk runs on a [`Worker`] of its own, so a pool of 1 is the same
    /// loop with no worker. A panicking step is re-raised here once
    /// every chunk is back in place.
    pub fn run_rounds<F>(&mut self, threads: usize, step: F) -> u64
    where
        S: 'static,
        F: Fn(&mut S, u64) -> bool + Send + Copy + 'static,
    {
        if self.shards.is_empty() {
            return 0;
        }
        let pool = threads.clamp(1, self.shards.len().min(host_cpus()));
        let size = self.shards.len().div_ceil(pool);
        let mut chunks = Vec::new();
        while self.shards.len() > size {
            let shards = self.shards.split_off((self.shards.len() - 1) / size * size);
            chunks.insert(0, Chunk { shards, step, round: 0, again: false });
        }
        let mut workers: Vec<_> = chunks.iter().map(|_| Worker::new(step_chunk)).collect();
        let mut round = 0;
        let caught = loop {
            for (worker, chunk) in workers.iter_mut().zip(chunks.drain(..)) {
                worker.start(Chunk { round, ..chunk });
            }
            let mine = panic::catch_unwind(AssertUnwindSafe(|| {
                step_shards(&mut self.shards, &step, round)
            }));
            let mut again = matches!(mine, Ok(true));
            let mut caught = mine.err();
            for worker in &mut workers {
                let (chunk, outcome) = worker.finish().unwrap_or_else(|| {
                    panic::resume_unwind(Box::new("a shard worker died holding its chunk"))
                });
                again |= chunk.again;
                caught = caught.or(outcome.err());
                chunks.push(chunk);
            }
            round += 1;
            if caught.is_some() || !again {
                break caught;
            }
        };
        self.shards.extend(chunks.into_iter().flat_map(|c| c.shards));
        if let Some(payload) = caught {
            panic::resume_unwind(payload);
        }
        round
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

/// Steps `job` once, catching a panic: what both forms of [`Worker`] do.
fn step_job<J>(work: fn(&mut J), mut job: J) -> Outcome<J> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(&mut job)));
    (job, outcome)
}

/// The threaded form's ends: the job queue, the way back, the thread.
type Thread<J> = (Sender<J>, Receiver<Outcome<J>>, JoinHandle<()>);

/// Applies a fixed step to one job at a time, beside the thread that
/// owns it: on a persistent helper thread, or inline on the caller.
///
/// [`start`](Self::start) hands a job over, and a thread steps it at
/// once; [`finish`](Self::finish) takes it back. The inline form steps
/// the job inside `start`. Either way a panicking step is caught and its
/// payload returned with the job, so the caller decides when to re-raise
/// it. Dropping a threaded worker closes its queue and joins the thread.
///
/// # Examples
///
/// ```
/// use f4t_core::parallel::Worker;
///
/// for mut w in [Worker::new(|n: &mut u64| *n *= 3), Worker::inline(|n| *n *= 3)] {
///     w.start(7);
///     let (n, outcome) = w.finish().expect("job back");
///     assert_eq!(n, 21);
///     assert!(outcome.is_ok());
/// }
/// ```
#[derive(Debug)]
pub struct Worker<J> {
    work: fn(&mut J),
    /// `None` for the inline form.
    thread: Option<Thread<J>>,
    /// The inline form's stepped job, until `finish` takes it.
    stepped: Option<Outcome<J>>,
    /// A started job is not taken back yet.
    out: bool,
}

impl<J: Send + 'static> Worker<J> {
    /// A thread if the host has more than one CPU and grants one, the
    /// inline form otherwise; `work` runs on every job.
    pub fn new(work: fn(&mut J)) -> Worker<J> {
        let threaded = if host_cpus() > 1 { Worker::spawn(work).ok() } else { None };
        threaded.unwrap_or_else(|| Worker::inline(work))
    }

    /// A worker on a thread of its own, whatever the host's CPU count. An
    /// error is the host refusing the thread.
    pub fn spawn(work: fn(&mut J)) -> io::Result<Worker<J>> {
        let (jobs, inbox) = mpsc::channel::<J>();
        let (outbox, done) = mpsc::channel::<Outcome<J>>();
        let thread = thread::Builder::new().name("f4t-worker".into()).spawn(move || {
            while let Some(job) = wait(&inbox) {
                if outbox.send(step_job(work, job)).is_err() {
                    return;
                }
            }
        })?;
        Ok(Worker { work, thread: Some((jobs, done, thread)), stepped: None, out: false })
    }

    /// A worker that steps each job on the caller, inside `start`.
    pub fn inline(work: fn(&mut J)) -> Worker<J> {
        Worker { work, thread: None, stepped: None, out: false }
    }

    /// Hands `job` over: a thread starts stepping it at once, the inline
    /// form steps it before returning.
    pub fn start(&mut self, job: J) {
        self.out = true;
        match &self.thread {
            // A send fails only if the thread is gone, and then so is the
            // job: `finish` reports that.
            Some((jobs, ..)) => {
                let _ = jobs.send(job);
            }
            None => self.stepped = Some(step_job(self.work, job)),
        }
    }

    /// Waits for the started job and returns it with its outcome; `None`
    /// at once if no job is out, and `None` if the thread is gone, and the
    /// job with it.
    pub fn finish(&mut self) -> Option<Outcome<J>> {
        if !std::mem::take(&mut self.out) {
            return None;
        }
        match &self.thread {
            Some((_, done, _)) => wait(done),
            None => self.stepped.take(),
        }
    }
}

impl<J> Drop for Worker<J> {
    fn drop(&mut self) {
        if let Some((jobs, _done, thread)) = self.thread.take() {
            // Closing the queue ends the thread's loop once it is idle.
            drop(jobs);
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
    fn a_pool_wider_than_the_host_matches_a_pool_of_one() {
        let n = host_cpus() + 3;
        let run = |threads: usize| {
            let mut r = ParallelRunner::new((0..n as u64).collect::<Vec<_>>());
            let rounds = r.run_rounds(threads, |v, round| {
                *v = v.wrapping_mul(0x9E37_79B9).wrapping_add(round);
                round < 5 + *v % 7
            });
            (r.into_shards(), rounds)
        };
        assert_eq!(run(n), run(1));
    }

    #[test]
    fn a_panicking_shard_is_raised_with_every_shard_back() {
        for threads in [1, 2, 4] {
            let mut r = ParallelRunner::new(vec![0u64; 4]);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                r.run_rounds(threads, |v, round| {
                    assert!(round < 3, "round 3");
                    *v += 1;
                    true
                })
            }));
            let payload = caught.expect_err("round 3 panics");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"round 3"), "pool of {threads}");
            assert_eq!(r.shards(), [3; 4], "pool of {threads}");
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

    /// Doubles a job; panics on 0.
    fn double_nonzero(n: &mut u64) {
        assert!(*n != 0, "zero job");
        *n *= 2;
    }

    /// Steps 1, 0 and 3 on `w`: each comes back, the 0 with its panic.
    fn returns_each_job_and_a_caught_panic(mut w: Worker<u64>) {
        for n in [1u64, 0, 3] {
            w.start(n);
            let (back, outcome) = w.finish().expect("the job comes back");
            if n == 0 {
                let payload = outcome.expect_err("the step panicked");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"zero job"));
                assert_eq!(back, 0);
            } else {
                assert!(outcome.is_ok());
                assert_eq!(back, 2 * n, "the worker outlives a panicking step");
            }
        }
    }

    #[test]
    fn a_worker_returns_each_job_and_a_caught_panic() {
        returns_each_job_and_a_caught_panic(Worker::spawn(double_nonzero).expect("thread"));
    }

    #[test]
    fn an_inline_worker_returns_each_job_and_a_caught_panic() {
        returns_each_job_and_a_caught_panic(Worker::inline(double_nonzero));
    }

    /// Starts and finishes one job on `w`: a second `finish` finds none
    /// out and says so at once.
    fn a_second_finish_gives_none(mut w: Worker<u64>) {
        w.start(4);
        assert_eq!(w.finish().map(|(n, _)| n), Some(8));
        assert!(w.finish().is_none());
    }

    #[test]
    fn finish_with_no_job_out_gives_none_on_either_form() {
        a_second_finish_gives_none(Worker::inline(double_nonzero));
        a_second_finish_gives_none(Worker::spawn(double_nonzero).expect("thread"));
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
