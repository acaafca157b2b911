//! The per-layer phase: everything that explains the end-to-end numbers.
//!
//! One plain rep gives the exact window counts; one traced rep gives the
//! span trace and the tracing overhead; reduced-size reps with no
//! recorder, every recorder (checker, flight, journal, watchdog, pulse)
//! and each recorder alone give the recorder overheads, the FtFlight
//! stage p99s and the violation/alarm check; two sharded runs give the
//! worker-pool speed-up; the standalone drivers give host ns per unit of
//! work for each module; and the attribution table multiplies the two.

pub mod micro;
pub mod standalone;

use crate::spans::Tracer;
use crate::spec::{ATTRIB_SHARES, DRIVER_SHARE_MAX, FLIGHT_P99, PER_LAYER, RECORDER_BUDGETS};
use crate::workloads::scale::{ScaleRun, ScaleShape};
use crate::workloads::{charge_failures, run_rep, Arm, Rep, RepOpts, Size, Workload};
use f4t_core::{EngineConfig, ParallelRunner};
use micro::Micro;
use standalone::Point;
use std::collections::BTreeMap;
use std::time::Instant;

/// Result of the per-layer phase.
#[derive(Debug, Clone)]
pub struct Layers {
    /// Every per-layer metric of `spec::PER_LAYER`, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Flows checked in the plain, traced, reduced and armed reps.
    pub attempted: u64,
    /// Flows failed in them.
    pub failed: u64,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Findings that do not fail the run (recorder budgets overrun).
    pub advisories: Vec<String>,
    /// The reps' common simulated digest.
    pub digest: u64,
    /// Where the span trace was written.
    pub trace_path: String,
}

fn point(w: Workload) -> Point {
    match w {
        // 128 B requests leave the engine coalesced into MSS segments.
        Workload::Bulk128 => Point {
            flows: 2,
            tx_payload: 1_460,
            rx_payload: 1_460,
        },
        Workload::Echo4k => Point {
            flows: 4_096,
            tx_payload: 128,
            rx_payload: 128,
        },
        Workload::Scale64k => Point {
            flows: 65_536,
            tx_payload: 256,
            rx_payload: 0,
        },
        Workload::ChurnStorm => Point {
            flows: 1_024,
            tx_payload: 256,
            rx_payload: 256,
        },
    }
}

/// The recorder-arming matrix: [`Size::Mini`] reps with no recorder, all
/// of them, and each one alone, interleaved so drift hits every arming
/// alike; the best timed region of `rounds` is kept per arming. Returns
/// the overhead ratios and the last plain and fully armed reps.
fn arming_matrix(w: Workload, seed: u64, rounds: usize) -> (BTreeMap<&'static str, f64>, Rep, Rep) {
    let arms = [
        (Arm::Off, ""),
        (Arm::All, "recorders.armed_overhead_ratio"),
        (Arm::Check, "recorders.check_overhead_ratio"),
        (Arm::Flight, "recorders.flight_overhead_ratio"),
        (Arm::Journal, "recorders.journal_overhead_ratio"),
        (Arm::Pulse, "recorders.pulse_overhead_ratio"),
    ];
    let mut best = [f64::INFINITY; 6];
    let mut kept: Vec<Option<Rep>> = vec![None, None];
    for _ in 0..rounds {
        for (slot, (arm, _)) in arms.iter().enumerate() {
            let rep = run_rep(
                w,
                RepOpts {
                    seed,
                    size: Size::Mini,
                    arm: *arm,
                },
                &mut Tracer::off(),
            );
            best[slot] = best[slot].min(rep.wall_s);
            if slot < 2 {
                kept[slot] = Some(rep);
            }
        }
    }
    let ratios = arms
        .iter()
        .enumerate()
        .skip(1)
        .map(|(slot, (_, name))| (*name, best[slot] / best[0]));
    let armed = kept.pop().flatten().expect("at least one round");
    let plain = kept.pop().flatten().expect("at least one round");
    (ratios.collect(), plain, armed)
}

/// `scale-64k` cut into two fixed shards, stepped in rendezvous rounds by
/// a pool of 1 and then of 2 workers. Returns (speed-up, rounds).
fn parallel_speedup(seed: u64, size: Size) -> (f64, f64) {
    let flows = if size == Size::Full { 8_192 } else { 4_096 };
    let shape = ScaleShape {
        flows,
        tail_cycles: 1_000_000,
    };
    let mut best = [f64::INFINITY; 2];
    let mut rounds = 0;
    for _ in 0..2 {
        for (slot, pool) in [1usize, 2].into_iter().enumerate() {
            let shards: Vec<(ScaleRun, Tracer)> = (0..2)
                .map(|s| {
                    let mut off = Tracer::off();
                    (
                        ScaleRun::new(shape, seed + s, EngineConfig::reference(), &mut off),
                        off,
                    )
                })
                .collect();
            let mut runner = ParallelRunner::new(shards);
            let t = Instant::now();
            rounds = runner.run_rounds(pool, |(run, tracer), _| {
                // Several quanta per rendezvous, so barrier cost does not
                // drown the work being shared out.
                (0..16).fold(true, |_, _| run.step(tracer))
            });
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
        }
    }
    (best[0] / best[1], rounds as f64)
}

/// FPCs per engine in the reference design.
const FPCS: f64 = 8.0;

/// Splits the plain rep's `host_wall_s` across modules: in-situ count ×
/// standalone ns. An FPC tick with nothing to dispatch scans its whole
/// slot table and is the dearest kind, so FPC time is built from tick
/// classes (empty ticks at the idle price, dispatching ticks at the
/// saturated price less the FPU pass inside them) and `engine` is what
/// an idle engine tick costs beyond its eight idle FPCs. The other rows
/// are work above that floor. What the model does not explain — or
/// over-explains: the rows are measured apart and may overlap — is
/// `unattributed`.
fn attribute(
    w: Workload,
    m: &BTreeMap<&'static str, f64>,
    wall_s: f64,
    driver_share: f64,
) -> Vec<f64> {
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let system = w != Workload::Scale64k;
    let impaired = w == Workload::ChurnStorm;
    let ticks = g("engine.ticks_executed");
    let fpc_idle = g("fpc.host_ns_per_tick_idle");
    let fpu = g("fpu.processed") * g("fpu.host_ns_per_process");
    // The empty share counts skipped cycles too (all of them empty);
    // only the executed ones cost host time.
    let cycles = ticks / (1.0 - g("engine.ff_skip_ratio")).max(f64::MIN_POSITIVE);
    let empty_ticks = (g("fpc.stall_fifo_empty_share") * cycles - (cycles - ticks)).max(0.0) * FPCS;
    let ooo_extra =
        (g("rx_parser.host_ns_per_segment_ooo") - g("rx_parser.host_ns_per_segment")).max(0.0);
    let link_ns = if impaired {
        g("link.host_ns_per_segment_impaired")
    } else {
        g("link.host_ns_per_segment")
    };
    // A node tick steps its engine too; only the rest is the host model.
    let node_only = (g("host.node_tick_idle_ns") - g("engine.host_ns_per_tick_idle")).max(0.0);
    let ns = [
        ticks * (g("engine.host_ns_per_tick_idle") - FPCS * fpc_idle).max(0.0),
        g("rx_parser.segments_in") * g("rx_parser.host_ns_per_segment")
            + g("rx_parser.ooo_segments") * ooo_extra,
        g("scheduler.events_in") * g("scheduler.host_ns_per_event")
            + g("scheduler.migrations") * g("scheduler.host_ns_per_migration"),
        empty_ticks * fpc_idle
            + (g("fpc.dispatches") * g("fpc.host_ns_per_tick_saturated") - fpu).max(0.0),
        fpu,
        g("memory_manager.events_handled") * g("memory_manager.host_ns_per_event"),
        g("packet_gen.segments_out") * g("packet_gen.host_ns_per_segment"),
        if system {
            g("packet_gen.segments_out") * link_ns
        } else {
            0.0
        },
        if system {
            g("host.sends") * g("host.host_ns_per_send")
                + g("host.completions") * g("host.host_ns_per_completion")
                + ticks * node_only
        } else {
            0.0
        },
    ];
    let mut shares: Vec<f64> = ns.iter().map(|v| v / (wall_s * 1e9)).collect();
    let explained: f64 = shares.iter().sum::<f64>() + driver_share;
    shares.push(1.0 - explained);
    shares
}

/// Runs the per-layer phase. `plain` is a plain rep already in hand with
/// the driver share measured over its siblings (the end-to-end phase's
/// last), or `None` to run two here and keep the faster.
pub fn layers(
    w: Workload,
    seed: u64,
    size: Size,
    out_dir: &str,
    plain: Option<(Rep, f64)>,
) -> Result<Layers, String> {
    let opts = RepOpts {
        seed,
        size,
        arm: Arm::Off,
    };
    let alone = plain.is_none();
    let (mut plain, mut driver_share) =
        plain.unwrap_or_else(|| (run_rep(w, opts, &mut Tracer::off()), 0.0));

    let mut tracer = Tracer::on();
    let traced = run_rep(w, opts, &mut tracer);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    let trace_path = format!("{out_dir}/trace-{}.json", w.name());
    let trace = tracer
        .recorder()
        .expect("tracer is on")
        .to_chrome_trace(w.name());
    std::fs::write(&trace_path, trace.to_compact())
        .map_err(|e| format!("writing {trace_path}: {e}"))?;

    if alone {
        // One rep is a noisy yardstick for every ratio below: take a
        // second on the far side of the traced rep and keep the faster.
        let again = run_rep(w, opts, &mut Tracer::off());
        if again.wall_s < plain.wall_s {
            plain = again;
        }
        driver_share = plain.driver_s / plain.wall_s;
    }

    let (ratios, mini_plain, armed) =
        arming_matrix(w, seed, if size == Size::Full { 3 } else { 1 });

    let mut problems = Vec::new();
    let mut advisories = Vec::new();
    for (label, rep, reference) in [
        ("plain", &plain, &plain),
        ("traced", &traced, &plain),
        ("mini", &mini_plain, &mini_plain),
        ("armed", &armed, &mini_plain),
    ] {
        problems.extend(rep.problems.iter().map(|p| format!("{label} rep: {p}")));
        advisories.extend(rep.advisories.iter().map(|a| format!("{label} rep: {a}")));
        if rep.sim != reference.sim {
            problems.push(format!(
                "{label} rep perturbed the simulation: {:?} vs {:?}",
                rep.sim, reference.sim
            ));
        }
    }

    let mut m: BTreeMap<&'static str, f64> = plain.counts.clone();
    m.insert(
        "engine.host_ns_per_executed_tick",
        plain.wall_s * 1e9 / m["engine.ticks_executed"].max(1.0),
    );
    m.extend(standalone::run(&Micro::new(size != Size::Full), point(w)));
    m.extend(ratios);
    for (name, v) in FLIGHT_P99
        .into_iter()
        .zip(armed.flight_p99.unwrap_or([0; 9]))
    {
        m.insert(name, v as f64);
    }
    let (speedup, rounds) = parallel_speedup(seed, size);
    m.insert("parallel.pool2_speedup", speedup);
    m.insert("parallel.rounds", rounds);
    m.insert(
        "host_cpus",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    m.insert("driver.host_share", driver_share);
    m.insert("trace.overhead_ratio", traced.wall_s / plain.wall_s);
    let shares = attribute(w, &m, plain.wall_s, driver_share);
    m.extend(ATTRIB_SHARES.into_iter().zip(shares));

    if driver_share > DRIVER_SHARE_MAX {
        problems.push(format!(
            "driver.host_share {driver_share:.3} exceeds {DRIVER_SHARE_MAX}: the generator is the benchmark"
        ));
    }
    for (name, budget) in RECORDER_BUDGETS {
        if m[name] > budget {
            advisories.push(format!(
                "{name} = {:.3} is over its {budget} budget",
                m[name]
            ));
        }
    }
    if let Some(missing) = PER_LAYER.iter().find(|spec| !m.contains_key(spec.name)) {
        return Err(format!(
            "per-layer metric {} was not produced",
            missing.name
        ));
    }

    let reps = [&plain, &traced, &mini_plain, &armed];
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed = charge_failures(
        reps.iter().map(|r| r.failed).sum(),
        !problems.is_empty(),
        attempted,
    );
    Ok(Layers {
        metrics: m,
        attempted,
        failed,
        problems,
        advisories,
        digest: plain.sim.digest,
        trace_path,
    })
}
