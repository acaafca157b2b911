//! The three two-node workloads: `bulk-128`, `echo-4k`, `churn-storm`.
//!
//! All three drive a [`F4tSystem`] in closed loop by calling
//! `run_cycles` in fixed batches; nothing else happens inside the timed
//! region except a constant-time queue-depth sample per batch.

use super::{
    armed_findings, charge_failures, digest_telemetry, engine_counts, Fnv, Rep, RepOpts, Sim, Size,
    Workload, CYCLE_NS,
};
use crate::spans::Tracer;
use crate::stats::percentile_sorted;
use f4t_core::Engine;
use f4t_host::CpuAccounting;
use f4t_netsim::Impairments;
use f4t_system::{Driver, F4tSystem, Node};
use f4t_tcp::{FlowId, Tcb, TcpState, TCP_BUFFER};
use f4t_workloads::CHURN_REQUEST_BYTES;
use std::time::Instant;

/// System ticks per `run_cycles` call: 0.512 µs of simulated time, about
/// a quarter of a millisecond of host time. One span, one queue-depth
/// sample and one timed piece per batch; short pieces give the
/// fastest-of-reps estimator more chances to see each one undisturbed.
const BATCH_CYCLES: u64 = 128;
/// Echo and bulk request size.
const MSG_BYTES: u32 = 128;
/// A flow must have been live this long inside the window before a lack
/// of progress counts as a failure.
const PROGRESS_HORIZON_NS: u64 = 1_000_000;

/// Fixed shape of one system workload.
struct Shape {
    warmup_ns: u64,
    window_ns: u64,
    /// Flow ids `0..flow_ids` are inspected on both engines.
    flow_ids: u32,
}

fn shape(w: Workload, size: Size) -> Shape {
    let (window_ns, flow_ids) = match w {
        Workload::Bulk128 => (4_000_000, 2),
        Workload::Echo4k => (3_000_000, 4_096),
        // Churn recycles ids, so live ids stay near the live target;
        // the rep fails if an engine's live flows outgrow the range.
        Workload::ChurnStorm => (2_000_000, 4_096),
        Workload::Scale64k => unreachable!("scale-64k is not a system workload"),
    };
    let div = if size == Size::Full { 1 } else { 4 };
    Shape {
        warmup_ns: 1_000_000 / div,
        window_ns: window_ns / div,
        flow_ids,
    }
}

/// The hostile link of `churn-storm`: 5 % of data segments displaced by
/// up to 3 packets, 2 % duplicated, no loss.
pub fn churn_impairments(seed: u64) -> Impairments {
    Impairments {
        reorder_p: 0.05,
        reorder_depth: 3,
        dup_p: 0.02,
        seed,
        ..Impairments::none()
    }
}

fn build(w: Workload, opts: RepOpts) -> F4tSystem {
    let cfg = opts.arm.config();
    match w {
        Workload::Bulk128 => F4tSystem::bulk(2, MSG_BYTES, cfg),
        Workload::Echo4k => F4tSystem::echo(8, 4_096, MSG_BYTES, cfg),
        Workload::ChurnStorm => {
            let mut sys = F4tSystem::churnstorm(4, 1_024, cfg);
            sys.set_impairments(churn_impairments(opts.seed));
            sys
        }
        Workload::Scale64k => unreachable!("scale-64k is not a system workload"),
    }
}

/// A closed connection's TCB lingers in its slot until the id is reused;
/// it is not a live flow.
fn mark_flows(e: &Engine, ids: u32) -> Vec<Option<Tcb>> {
    (0..ids)
        .map(|i| {
            e.peek_tcb(FlowId(i))
                .filter(|t| t.state != TcpState::Closed)
        })
        .collect()
}

/// Whether the connection behind `before` lived through the whole window
/// (same 4-tuple at both ends) without moving either pointer while it
/// had un-ACKed or unsent data and no retransmission or probe timer
/// pending. A flow idle by protocol (everything ACKed, waiting for its
/// peer) or parked on an armed timer is waiting, not stuck — the same
/// line the repository's watchdog draws, minus its 10 ms horizon.
fn stuck(before: &Tcb, after: &Tcb, now_ns: u64) -> bool {
    let same = before.tuple == after.tuple
        && before.snd_una == after.snd_una
        && before.rcv_nxt == after.rcv_nxt;
    let outstanding =
        after.flight_size() > 0 || (after.state.can_send_data() && after.unsent() > 0);
    let timer_pending = [after.rto_deadline, after.probe_deadline]
        .into_iter()
        .flatten()
        .any(|deadline| deadline > now_ns);
    same && outstanding && !timer_pending
}

/// Cumulative host-side counters of both nodes.
#[derive(Default, Clone, Copy)]
struct HostTotals {
    sends: u64,
    completions: u64,
    eagain: u64,
    h2d: u64,
    d2h: u64,
    refusals: u64,
    cpu: CpuAccounting,
}

fn host_totals(sys: &F4tSystem) -> HostTotals {
    let mut t = HostTotals::default();
    for node in [&sys.a, &sys.b] {
        for core in 0..node.core_count() {
            let lib = node.lib(core);
            t.sends += lib.sends();
            t.completions += lib.completions();
            t.eagain += lib.eagain();
        }
        t.h2d += node.pcie().h2d_bytes();
        t.d2h += node.pcie().d2h_bytes();
        t.refusals += node.pcie().refusals();
        t.cpu.merge(&node.total_accounting());
    }
    t
}

/// Client connections opened so far (churn only; 0 elsewhere).
fn churn_opened(node: &Node) -> u64 {
    (0..node.core_count())
        .map(|c| match node.driver(c) {
            Driver::ChurnClient { client, .. } => client.opened(),
            _ => 0,
        })
        .sum()
}

/// The queue whose depth, by Little's law, gives the latency a user of
/// this workload sees: bytes the bulk senders have requested but not yet
/// seen ACKed, or churn connections currently in their lifecycle.
fn queue_depth(w: Workload, sys: &F4tSystem) -> u64 {
    match w {
        Workload::Bulk128 => (0..sys.a.core_count())
            .filter_map(|c| match sys.a.driver(c) {
                Driver::BulkSender(s) => sys.a.lib(c).socket(s.flow()),
                _ => None,
            })
            .map(|s| u64::from(s.req.since(s.acked)))
            .sum(),
        Workload::ChurnStorm => sys.a.churn_live() as u64,
        _ => 0,
    }
}

/// Times one construction of the workload's system.
pub fn setup_only(w: Workload, opts: RepOpts) -> f64 {
    let t = Instant::now();
    let sys = build(w, opts);
    let setup_s = t.elapsed().as_secs_f64();
    drop(sys);
    setup_s
}

/// Runs one rep of a system workload.
pub fn run(w: Workload, opts: RepOpts, tracer: &mut Tracer) -> Rep {
    let sh = shape(w, opts.size);

    tracer.enter("setup");
    let t = Instant::now();
    tracer.enter("open_flows");
    let mut sys = build(w, opts);
    tracer.exit();
    let setup_s = t.elapsed().as_secs_f64();
    tracer.exit();

    tracer.enter("warmup");
    sys.run_ns(sh.warmup_ns);
    tracer.exit();

    let telem0 = sys.telemetry();
    let host0 = host_totals(&sys);
    let requests0 = sys.a.requests();
    let consumed0 = sys.a.consumed_bytes() + sys.b.consumed_bytes();
    let opened0 = churn_opened(&sys.a);
    let live0 = sys.a.churn_live() as u64;
    let impair0 = sys.impairment_events();
    let marks0 = [
        mark_flows(&sys.a.engine, sh.flow_ids),
        mark_flows(&sys.b.engine, sh.flow_ids),
    ];

    let batches = sh.window_ns / CYCLE_NS / BATCH_CYCLES;
    let window_ns = batches * BATCH_CYCLES * CYCLE_NS;
    let mut depths: Vec<u64> = Vec::with_capacity(batches as usize);
    let mut in_system_s = 0.0;
    let mut pieces_s: Vec<f64> = Vec::with_capacity(batches as usize);
    tracer.enter("measure");
    let region = Instant::now();
    let mut mark = region;
    for _ in 0..batches {
        tracer.enter("system.tick");
        sys.run_cycles(BATCH_CYCLES);
        in_system_s += mark.elapsed().as_secs_f64();
        tracer.exit();
        depths.push(queue_depth(w, &sys));
        let now = Instant::now();
        pieces_s.push((now - mark).as_secs_f64());
        mark = now;
    }
    let wall_s = (mark - region).as_secs_f64();
    let driver_s = (wall_s - in_system_s).max(0.0);
    tracer.exit();

    let window = sys.telemetry().delta(&telem0);
    let host1 = host_totals(&sys);
    let requests = sys.a.requests() - requests0;
    let consumed = sys.a.consumed_bytes() + sys.b.consumed_bytes() - consumed0;
    let latency = sys.measure(0, 0).latency;
    let marks1 = [
        mark_flows(&sys.a.engine, sh.flow_ids),
        mark_flows(&sys.b.engine, sh.flow_ids),
    ];

    // Application bytes: the echo drivers keep no byte counter, but every
    // completed round trip consumed one message on each side.
    let app_bytes = match w {
        Workload::Echo4k => requests * 2 * u64::from(MSG_BYTES),
        _ => consumed,
    };
    let window_us = window_ns as f64 / 1e3;
    let (latency_p50_us, latency_p99_us, latency_samples) = match w {
        // Cumulative client histogram: covers the warm-up too, which is
        // conservative for the tail.
        Workload::Echo4k => (
            latency.percentile(50.0) as f64 / 1e3,
            latency.percentile(99.0) as f64 / 1e3,
            latency.count(),
        ),
        // Little's law per sample: depth ÷ drain rate of the window.
        _ => {
            depths.sort_unstable();
            let drained = if w == Workload::Bulk128 {
                app_bytes
            } else {
                requests
            };
            let per_us = drained as f64 / window_us;
            let at = |p| {
                if per_us == 0.0 {
                    0.0
                } else {
                    percentile_sorted(&depths, p) as f64 / per_us
                }
            };
            (at(50.0), at(99.0), depths.len() as u64)
        }
    };

    let mut problems = Vec::new();
    let mut failed_flows: Vec<(usize, u32)> = Vec::new();
    if window_ns >= PROGRESS_HORIZON_NS {
        for (side, (m0, m1)) in marks0.iter().zip(&marks1).enumerate() {
            let label = if side == 0 { "a" } else { "b" };
            for (id, (before, after)) in m0.iter().zip(m1).enumerate() {
                let (Some(b), Some(a)) = (before, after) else {
                    continue;
                };
                if stuck(b, a, sys.now_ns()) {
                    problems.push(format!("{label}: flow {id} ({}) made no progress", a.tuple));
                    failed_flows.push((side, id as u32));
                }
            }
        }
    }
    for (label, e) in [("a", &sys.a.engine), ("b", &sys.b.engine)] {
        if e.live_flows() > sh.flow_ids as usize {
            problems.push(format!(
                "{label}: {} live flows exceed the inspected id range {}",
                e.live_flows(),
                sh.flow_ids
            ));
        }
    }

    // Conservation: what receivers consumed must match what senders saw
    // ACKed, up to the data that can be in flight at the window's edges.
    let acked: u64 = marks0[0]
        .iter()
        .zip(&marks1[0])
        .filter_map(|(b, a)| Some((b.as_ref()?, a.as_ref()?)))
        .filter(|(b, a)| b.tuple == a.tuple)
        .map(|(b, a)| u64::from(a.snd_una.since(b.snd_una)))
        .sum();
    let (sent, slack) = match w {
        Workload::Bulk128 => (acked, 2 * u64::from(TCP_BUFFER)),
        Workload::Echo4k => (2 * acked, 2 * 4_096 * u64::from(MSG_BYTES)),
        _ => (
            requests * u64::from(CHURN_REQUEST_BYTES),
            2 * 1_024 * u64::from(CHURN_REQUEST_BYTES),
        ),
    };
    if app_bytes.abs_diff(sent) > slack {
        problems.push(format!(
            "conservation: receivers consumed {app_bytes} B, senders account for {sent} B (slack {slack} B)"
        ));
    }

    let mut counts = engine_counts(&window, 2);
    if counts["fpc.rmw_stall_cycles"] != 0.0 {
        problems.push(format!(
            "fpc.rmw_stall_cycles = {}",
            counts["fpc.rmw_stall_cycles"]
        ));
    }
    let cpu_total = (host1.cpu.total() - host0.cpu.total()) as f64;
    let cpu_idle = (host1.cpu.idle - host0.cpu.idle) as f64;
    counts.insert(
        "link.impairment_events",
        (sys.impairment_events() - impair0) as f64,
    );
    counts.insert("host.sends", (host1.sends - host0.sends) as f64);
    counts.insert(
        "host.completions",
        (host1.completions - host0.completions) as f64,
    );
    counts.insert("host.eagain", (host1.eagain - host0.eagain) as f64);
    counts.insert("host.pcie_h2d_bytes", (host1.h2d - host0.h2d) as f64);
    counts.insert("host.pcie_d2h_bytes", (host1.d2h - host0.d2h) as f64);
    counts.insert(
        "host.pcie_refusals",
        (host1.refusals - host0.refusals) as f64,
    );
    counts.insert(
        "host.cpu_busy_share",
        if cpu_total == 0.0 {
            0.0
        } else {
            1.0 - cpu_idle / cpu_total
        },
    );

    let mut advisories = Vec::new();
    let (alarms, named, flight_p99) = armed_findings(
        &[("a", &sys.a.engine), ("b", &sys.b.engine)],
        &mut problems,
        &mut advisories,
    );
    // An alarm names a flow id without saying which node; charge it once.
    for id in named {
        if !failed_flows.iter().any(|&(_, f)| f == id) {
            failed_flows.push((0, id));
        }
    }

    let attempted = match w {
        Workload::Bulk128 => 2,
        Workload::Echo4k => 4_096,
        _ => live0 + churn_opened(&sys.a) - opened0,
    };
    let failed = charge_failures(failed_flows.len() as u64, !problems.is_empty(), attempted);

    let mut h = Fnv::default();
    digest_telemetry(&mut h, &window);
    for v in [requests, app_bytes, latency.count(), latency_samples] {
        h.u64(v);
    }

    Rep {
        setup_s,
        wall_s,
        pieces_s,
        driver_s,
        sim: Sim {
            goodput_gbps: f4t_sim::gbps(app_bytes, window_ns),
            requests_mrps: f4t_sim::mops(requests, window_ns),
            latency_p50_us,
            latency_p99_us,
            latency_samples,
            cycles_active: window_ns / CYCLE_NS,
            cycles_timed: window_ns / CYCLE_NS,
            digest: h.0,
        },
        attempted,
        failed,
        problems,
        advisories,
        counts,
        flight_p99,
        alarms,
    }
}
