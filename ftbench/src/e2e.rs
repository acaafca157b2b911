//! The end-to-end phase: untraced, unarmed reps of one workload.
//!
//! Simulated metrics must repeat exactly from rep to rep (a mismatch is
//! a correctness failure). Host times are fastest-of estimates — see
//! [`fastest_pieces`] — because on a shared host interference only ever
//! adds time; the quartiles and sample count beside them describe the
//! raw per-rep totals.

use crate::spans::Tracer;
use crate::stats::{median, quartiles};
use crate::workloads::{charge_failures, run_rep, setup_only, Arm, Rep, RepOpts, Size, Workload};
use std::time::Instant;

/// Fewest reps a timed run makes, however short its budget.
pub const MIN_REPS: usize = 3;

/// How long to keep measuring.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Keep starting reps until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many reps.
    Reps(usize),
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The reported value: the samples' median, or for host times the
    /// fastest-of estimate.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind the median.
    pub n: usize,
}

impl Measured {
    /// Median and quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Measured {
        let (q1, q3) = quartiles(samples);
        Measured {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A value that is exact by construction.
    pub fn exact(value: f64, n: usize) -> Measured {
        Measured {
            value,
            q1: value,
            q3: value,
            n,
        }
    }
}

/// Result of the end-to-end phase.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Every end-to-end metric, in `spec::END_TO_END` order.
    pub metrics: Vec<(&'static str, Measured)>,
    /// Flows failed ÷ flows attempted, over all reps.
    pub failed_share: f64,
    /// Flows checked, over all reps.
    pub attempted: u64,
    /// Flows failed, over all reps.
    pub failed: u64,
    /// Every failed check, deduplicated.
    pub problems: Vec<String>,
    /// The reps' common simulated digest.
    pub digest: u64,
    /// Latency samples behind the simulated percentiles.
    pub latency_samples: u64,
    /// Median share of `host_wall_s` spent in the benchmark's own code.
    pub driver_share: f64,
    /// Every rep's timed-region seconds, in run order.
    pub wall_samples: Vec<f64>,
    /// The last rep, kept for its exact per-layer counts.
    pub last: Rep,
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Extra set-ups timed after each rep, so `setup_s` rests on five
/// samples per rep instead of one.
const EXTRA_SETUPS: usize = 4;

/// The undisturbed duration of the timed region, estimated from several
/// reps of it: piece k is the same simulated work in every rep, and a
/// busy neighbour can only ever add time to a piece, so the fastest
/// observation of each piece is the closest to its true cost.
pub fn fastest_pieces(reps: &[Rep]) -> f64 {
    let pieces = reps.iter().map(|r| r.pieces_s.len()).min().unwrap_or(0);
    (0..pieces)
        .map(|k| {
            reps.iter()
                .map(|r| r.pieces_s[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Runs the reps and folds them into one result.
pub fn end_to_end(w: Workload, seed: u64, size: Size, budget: Budget) -> EndToEnd {
    let opts = RepOpts {
        seed,
        size,
        arm: Arm::Off,
    };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut rss = 0.0;
    loop {
        let done = match budget {
            Budget::Reps(n) => reps.len() >= n.max(1),
            Budget::Seconds(s) => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let rep = run_rep(w, opts, &mut Tracer::off());
        if reps.is_empty() {
            // The high-water mark of one rep: later reps only add what the
            // allocator failed to reuse, which depends on how many fit.
            rss = peak_rss_mib();
        }
        setups.push(rep.setup_s);
        setups.extend((0..EXTRA_SETUPS).map(|_| setup_only(w, opts)));
        reps.push(rep);
    }

    let first = reps[0].sim.clone();
    let mut problems: Vec<String> = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        if r.sim != first || r.pieces_s.len() != reps[0].pieces_s.len() {
            problems.push(format!(
                "rep {i}: simulated results differ from rep 0 ({:?} vs {:?})",
                r.sim, first
            ));
        }
        for p in &r.problems {
            if !problems.contains(p) {
                problems.push(p.clone());
            }
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed = charge_failures(
        reps.iter().map(|r| r.failed).sum(),
        !problems.is_empty(),
        attempted,
    );

    let n = reps.len();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall = Measured {
        value: fastest_pieces(&reps),
        ..Measured::of(&walls)
    };
    let rate = |wall_s: f64| first.cycles_timed as f64 / 1e6 / wall_s;
    // A rate's quartiles swap with the time's.
    let speed = Measured {
        value: rate(wall.value),
        q1: rate(wall.q3),
        q3: rate(wall.q1),
        n,
    };
    let setup = Measured {
        value: setups.iter().copied().fold(f64::INFINITY, f64::min),
        ..Measured::of(&setups)
    };
    let metrics = vec![
        ("sim_goodput_gbps", Measured::exact(first.goodput_gbps, n)),
        ("sim_requests_mrps", Measured::exact(first.requests_mrps, n)),
        (
            "sim_latency_p50_us",
            Measured::exact(first.latency_p50_us, n),
        ),
        (
            "sim_latency_p99_us",
            Measured::exact(first.latency_p99_us, n),
        ),
        (
            "sim_cycles_active",
            Measured::exact(first.cycles_active as f64, n),
        ),
        ("host_wall_s", wall),
        ("host_mcycles_per_s", speed),
        ("host_peak_rss_mb", Measured::exact(rss, 1)),
        ("setup_s", setup),
    ];
    let driver_share = median(
        &reps
            .iter()
            .map(|r| r.driver_s / r.wall_s)
            .collect::<Vec<_>>(),
    );
    let last = reps.pop().expect("at least one rep");
    EndToEnd {
        metrics,
        failed_share: failed as f64 / attempted.max(1) as f64,
        attempted,
        failed,
        problems,
        digest: first.digest,
        latency_samples: first.latency_samples,
        driver_share,
        wall_samples: walls,
        last,
    }
}
