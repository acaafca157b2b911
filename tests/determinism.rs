//! Determinism regression test.
//!
//! The simulator's whole verification story (FtVerify, the equivalence
//! contract, the figure harnesses) rests on runs being a pure function
//! of (seed, config). This test pins that down twice over:
//!
//!   1. **Within a process**: two fresh `Engine` pairs driven through an
//!      identical fixed schedule must produce byte-identical Chrome
//!      traces and telemetry snapshots.
//!   2. **Across commits**: an FNV-1a digest of those artifacts is
//!      checked against `tests/golden/determinism.digest`. Any drift —
//!      an accidental HashMap iteration, a reordered tick phase, a new
//!      metric — fails with a line-level diff summary against the
//!      stored golden telemetry.
//!   3. **Every recorder, absolutely**: the same schedule with checker,
//!      flight recorder, journal, watchdog and pulse armed at 1/1
//!      sampling pins the flight breakdown, journal digest and pulse
//!      series of both engines in `tests/golden/recorders.{digest,txt}`
//!      (the fast-forward and pool-size tests only pin them relative to
//!      another run of the same build).
//!   4. **A closed dispatch gate**: the same schedule over a paced 1 Gbit/s
//!      link with a 128 B MSS turns side A's sends into more segments than
//!      the MAC buffer holds, so the packet generator stops and the FPCs'
//!      TX gate closes. Its artifacts are pinned in
//!      `tests/golden/backpressure.digest` and
//!      `tests/golden/backpressure_telemetry.txt`; the ideal-link goldens
//!      never count an `evict_backpressure` cycle.
//!
//!   5. **One stream, two views**: the schedule over a lossy link with a
//!      1/1 journal and a trace ring that never wraps. Every Chrome-trace
//!      event equals its projection of the journal's emissions (DESIGN.md
//!      §7 has the table), so the trace adds no fact the journal lacks.
//!
//!   6. **The host application model**: every `F4tSystem` workload
//!      constructor runs a fixed number of cycles; per node the request
//!      and consumed-byte counters, CPU accounting and PCIe bytes, plus
//!      both engines' telemetry, are pinned in
//!      `tests/golden/host.{digest,txt}`.
//!
//! Intentional behavior changes regenerate the goldens with
//! `UPDATE_GOLDEN=1 cargo test --test determinism`.

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::netsim::Impairments;
use f4t::sim::digest::{fnv1a, FNV_OFFSET};
use f4t::sim::json::{self, Value};
use f4t::sim::{Journal, JournalKind};
use f4t::system::{DuplexLink, EnginePair};
use std::collections::BTreeMap;
use f4t::tcp::{FlowId, FourTuple, SeqNum};
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// Chrome trace + telemetry for both sides of one scripted run.
#[derive(PartialEq)]
struct Artifacts {
    traces: [String; 2],
    telemetry: [String; 2],
}

/// FNV-1a of one artifact.
fn fnv1a_of(text: &str) -> u64 {
    fnv1a(FNV_OFFSET, text.as_bytes())
}

impl Artifacts {
    /// One FNV-1a stream over every trace, then every telemetry snapshot.
    fn digest(&self) -> u64 {
        let texts = self.traces.iter().chain(self.telemetry.iter());
        texts.fold(FNV_OFFSET, |h, text| fnv1a(h, text.as_bytes()))
    }
}

/// `steps` 48-cycle steps, both applications consuming what arrives.
fn exchange(pair: &mut EnginePair, steps: u64) {
    for _ in 0..steps {
        pair.step(48);
        for e in [&mut pair.a, &mut pair.b] {
            while let Some(n) = e.pop_notification() {
                if let HostNotification::DataReceived { flow, upto } = n {
                    e.push_host(flow, EventKind::RecvConsumed { consumed: upto });
                }
            }
        }
    }
}

/// Tiny FPCs (forcing migration) with the checker armed.
fn base_config() -> EngineConfig {
    EngineConfig {
        num_fpcs: 2,
        lut_groups: 2,
        flows_per_fpc: 4,
        check: true,
        ..EngineConfig::reference()
    }
}

/// The fixed scenario: bulk + echo over tiny FPCs, one mid-run close, and
/// an idle tail where fast-forward engages. No RNG — the schedule itself
/// is the seed.
fn run_schedule(cfg: EngineConfig) -> (Engine, Engine) {
    run_schedule_on(cfg, DuplexLink::ideal(), 1024)
}

/// [`run_schedule`] over `link`, keeping the last `trace_depth` trace
/// events.
fn run_schedule_on(cfg: EngineConfig, link: DuplexLink, trace_depth: usize) -> (Engine, Engine) {
    let mut pair = EnginePair::new(cfg, link);
    pair.a.set_trace_capacity(trace_depth);
    pair.b.set_trace_capacity(trace_depth);
    let mut flows = Vec::new();
    for p in 0..12u16 {
        let t = FourTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            40_000 + p,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let fa = pair.a.open_established(t, SeqNum(0)).unwrap();
        let fb = pair.b.open_established(t.reversed(), SeqNum(0)).unwrap();
        flows.push((fa, fb, SeqNum(0), SeqNum(0), true));
    }
    exchange(&mut pair, 4);
    for round in 0..40u32 {
        let i = (round as usize) % flows.len();
        let (fa, fb, req_a, req_b, open) = &mut flows[i];
        if *open {
            let acked = pair.a.peek_tcb(*fa).map(|t| t.snd_una).unwrap_or(*req_a);
            let add = 1024 + (round * 97) % 2048;
            if req_a.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                *req_a = req_a.add(add);
                pair.a.push_host(*fa, EventKind::SendReq { req: *req_a });
            }
            if round % 3 == 0 {
                let acked = pair.b.peek_tcb(*fb).map(|t| t.snd_una).unwrap_or(*req_b);
                let add = 128 + (round * 31) % 256;
                if req_b.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                    *req_b = req_b.add(add);
                    pair.b.push_host(*fb, EventKind::SendReq { req: *req_b });
                }
            }
        }
        if round == 25 {
            let (fa, fb, _, _, open) = &mut flows[5];
            *open = false;
            pair.a.push_host(*fa, EventKind::Close);
            pair.b.push_host(*fb, EventKind::Close);
        }
        exchange(&mut pair, 1 + u64::from(round % 3));
    }
    exchange(&mut pair, 200);
    assert_eq!(pair.a.check_total_violations() + pair.b.check_total_violations(), 0);
    (pair.a, pair.b)
}

fn run_once() -> Artifacts {
    artifacts(run_schedule(base_config()))
}

fn artifacts((a, b): (Engine, Engine)) -> Artifacts {
    Artifacts {
        traces: [a.export_chrome_trace(), b.export_chrome_trace()],
        telemetry: [a.telemetry().to_json(), b.telemetry().to_json()],
    }
}

/// The schedule again with every recorder armed at 1/1 sampling,
/// rendered as one line-diffable text: per side the telemetry registry
/// (which carries the flight, journal, watchdog and pulse families), the
/// flight breakdown, the journal and pulse digests and the pulse series.
/// Observer periods are short enough that the watchdog sweeps and the
/// pulse recorder samples several times inside the ~14K-cycle run.
fn recorder_views() -> String {
    let cfg = EngineConfig {
        flight: true,
        flight_sample: 1,
        journal: true,
        journal_sample: 1,
        watchdog: true,
        watchdog_interval: 4096,
        pulse: true,
        pulse_interval: 512,
        pulse_flow_sample: 1,
        ..base_config()
    };
    let (a, b) = run_schedule(cfg);
    let mut out = String::new();
    for (side, e) in [("a", &a), ("b", &b)] {
        out.push_str(&format!("=== side {side} telemetry ===\n{}", e.telemetry().to_json()));
        out.push_str(&format!(
            "=== side {side} flight ===\n{}",
            e.flight_json().expect("flight armed")
        ));
        out.push_str(&format!("=== side {side} journal digest ===\n{:016x}\n", e.journal_digest()));
        out.push_str(&format!("=== side {side} pulse digest ===\n{:016x}\n", e.pulse_digest()));
        out.push_str(&format!(
            "=== side {side} pulse ===\n{}",
            e.pulse_json().expect("pulse armed")
        ));
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Line-level diff summary: which lines changed, which are new, which
/// vanished; `if_identical` explains a digest drift the text does not
/// show (Chrome traces are only in the digest, so they report by length).
fn diff_summary(golden: &str, current: &str, if_identical: &str) -> String {
    let mut out = String::new();
    let golden: Vec<&str> = golden.lines().collect();
    let cur: Vec<&str> = current.lines().collect();
    for l in &cur {
        if !golden.contains(l) {
            out.push_str(&format!("  + {l}\n"));
        }
    }
    for l in &golden {
        if !cur.contains(l) {
            out.push_str(&format!("  - {l}\n"));
        }
    }
    if out.is_empty() {
        out.push_str(if_identical);
    }
    out
}

/// Checks `digest` and `text` against `tests/golden/<name>.digest` and
/// `tests/golden/<text_file>`, or rewrites both under `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, text_file: &str, digest: u64, text: &str, if_identical: &str) {
    let dir = golden_dir();
    let digest_path = dir.join(format!("{name}.digest"));
    let text_path = dir.join(text_file);
    let digest = format!("{digest:016x}");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&digest_path, &digest).unwrap();
        std::fs::write(&text_path, text).unwrap();
        eprintln!("golden files regenerated in {}", dir.display());
        return;
    }

    let golden_digest = std::fs::read_to_string(&digest_path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run UPDATE_GOLDEN=1 once", digest_path.display()));
    let golden_text = std::fs::read_to_string(&text_path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run UPDATE_GOLDEN=1 once", text_path.display()));
    assert_eq!(
        golden_digest.trim(),
        digest,
        "{name} digest drifted from the golden.\n\
         If this change is intentional, regenerate with UPDATE_GOLDEN=1.\n\
         Diff summary (+ current / - golden):\n{}",
        diff_summary(&golden_text, text, if_identical)
    );
}

#[test]
fn runs_are_deterministic_and_match_golden_digest() {
    let r1 = run_once();
    let r2 = run_once();
    for side in 0..2 {
        assert_eq!(
            r1.telemetry[side], r2.telemetry[side],
            "two fresh engines diverged on telemetry (side {side}) — nondeterminism!"
        );
        assert_eq!(
            fnv1a_of(&r1.traces[side]),
            fnv1a_of(&r2.traces[side]),
            "two fresh engines diverged on the Chrome trace (side {side}) — nondeterminism!"
        );
    }

    let telem = format!("{}\n=== side b ===\n{}", r1.telemetry[0], r1.telemetry[1]);
    check_golden(
        "determinism",
        "determinism_telemetry.txt",
        r1.digest(),
        &telem,
        &format!(
            "  telemetry identical; drift is in the Chrome traces (lengths {} / {})\n",
            r1.traces[0].len(),
            r1.traces[1].len()
        ),
    );
}

#[test]
fn armed_recorders_match_golden() {
    let views = recorder_views();
    assert_eq!(views, recorder_views(), "two armed runs diverged — nondeterminism!");
    check_golden(
        "recorders",
        "recorders.txt",
        fnv1a_of(&views),
        &views,
        "  text identical: the stored digest is stale\n",
    );
}

/// The schedule over a link too slow for it: 1 Gbit/s, and a 128 B MSS
/// that turns side A's ~80 KB into ~640 segments against a 256-segment MAC
/// buffer. The buffer fills, the packet generator stops, its request FIFO
/// fills and the FPC dispatch gate closes — the only golden that counts
/// `stall.evict_backpressure` cycles.
#[test]
fn closed_tx_gate_matches_golden() {
    let run = || {
        let cfg = EngineConfig { mss: 128, ..base_config() };
        run_schedule_on(cfg, DuplexLink::new(1, 1_000), 1024)
    };
    let (a, b) = run();
    let gated = (0..2).any(|i| {
        a.telemetry().counter_value(&format!("engine.fpc{i}.stall.evict_backpressure")) > 0
    });
    assert!(gated, "the slow link never closed side A's dispatch gate");
    let r1 = artifacts((a, b));
    assert!(r1 == artifacts(run()), "two gated runs diverged — nondeterminism!");
    let telem = format!("{}\n=== side b ===\n{}", r1.telemetry[0], r1.telemetry[1]);
    check_golden(
        "backpressure",
        "backpressure_telemetry.txt",
        r1.digest(),
        &telem,
        &format!(
            "  telemetry identical; drift is in the Chrome traces (lengths {} / {})\n",
            r1.traces[0].len(),
            r1.traces[1].len()
        ),
    );
}

/// One fixed-length run of every host workload, rendered per node: the
/// driver-level counters (`requests`, `consumed_bytes`), the five CPU
/// accounting categories, the PCIe byte counts and both engines'
/// telemetry. Paced echo runs with sleep-after-poll on both nodes, so the
/// sleeping thread's wake timer is pinned too.
fn host_views() -> String {
    use f4t::system::{F4tSystem, Node};
    const CYCLES: u64 = 100_000;
    let cfg = || EngineConfig {
        num_fpcs: 2,
        flows_per_fpc: 32,
        lut_groups: 2,
        ..EngineConfig::reference()
    };
    let paced = || {
        let mut sys = F4tSystem::echo_paced(1, 1, 128, 20_000, cfg());
        sys.a.set_sleep_after_poll(true);
        sys.b.set_sleep_after_poll(true);
        sys
    };
    let runs: [(&str, F4tSystem); 8] = [
        ("bulk(2,128)", F4tSystem::bulk(2, 128, cfg())),
        ("round_robin(2,4,128)", F4tSystem::round_robin(2, 4, 128, cfg())),
        ("echo(2,16,128)", F4tSystem::echo(2, 16, 128, cfg())),
        ("echo_paced(1,1,128,20000)+sleep", paced()),
        ("http(2,2,16)", F4tSystem::http(2, 2, 16, cfg())),
        ("incast(8,2,2048,100000)", F4tSystem::incast(8, 2, 2_048, 100_000, cfg())),
        ("churnstorm(2,32)", F4tSystem::churnstorm(2, 32, cfg())),
        ("slowloris(2,64,8,50000)", F4tSystem::slowloris(2, 64, 8, 50_000, cfg())),
    ];
    let node = |side: &str, n: &Node| {
        let cpu = n.total_accounting();
        format!(
            "{side}: requests={} consumed={} app={} tcp={} kernel={} lib={} idle={} h2d={} d2h={}\n",
            n.requests(),
            n.consumed_bytes(),
            cpu.app,
            cpu.tcp,
            cpu.kernel,
            cpu.lib,
            cpu.idle,
            n.pcie().h2d_bytes(),
            n.pcie().d2h_bytes(),
        )
    };
    let mut out = String::new();
    for (name, mut sys) in runs {
        sys.run_cycles(CYCLES);
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&node("a", &sys.a));
        out.push_str(&node("b", &sys.b));
        out.push_str(&sys.telemetry().to_json());
    }
    out
}

/// The host application model over every workload constructor: driver
/// steps, flow rotation, CPU accounting and PCIe traffic, pinned in
/// `tests/golden/host.{digest,txt}`.
#[test]
fn host_workloads_match_golden() {
    let views = host_views();
    check_golden(
        "host",
        "host.txt",
        fnv1a_of(&views),
        &views,
        "  text identical: the stored digest is stale\n",
    );
}

/// `(name, cycle, flow, arg)` of every Chrome-trace instant, sorted.
fn trace_rows(e: &Engine) -> Vec<(String, u64, u64, u64)> {
    let doc = json::parse(&e.export_chrome_trace()).expect("trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    let mut rows: Vec<_> = events
        .iter()
        .filter(|ev| ev.get("ph").and_then(Value::as_str) == Some("i"))
        .map(|ev| {
            let args = ev.get("args").expect("args");
            let num = |k: &str| args.get(k).and_then(Value::as_u64).expect("integer arg");
            let name = ev.get("name").and_then(Value::as_str).expect("name");
            (name.to_string(), num("cycle"), num("flow"), num("arg"))
        })
        .collect();
    rows.sort();
    rows
}

/// The trace rows the journal's emissions imply, sorted: one row per
/// host event, accepted segment, dispatch, evict, swap-in, DRAM
/// write-back and emitted segment, plus one row per cycle with a nonzero
/// count of merges, FPC/DRAM routes, drops, migration starts or
/// retransmitted segments.
fn journal_projection(e: &Engine) -> Vec<(String, u64, u64, u64)> {
    let journal = e.journal().expect("journal armed");
    let mut rows = Vec::new();
    let mut counts: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    for ev in journal.events() {
        let row = |name: &str, flow: u32, arg: u64| {
            Some((name.to_string(), ev.cycle, u64::from(flow), arg))
        };
        let counted = match ev.kind {
            JournalKind::EventMerged => Some("coalesce"),
            JournalKind::EventRouted if ev.a != Journal::ROUTE_PARKED => Some("route"),
            JournalKind::EventDropped => Some("drop"),
            JournalKind::TcbMigrateStart => Some("migrate_start"),
            JournalKind::TxEmit if ev.b == 1 => Some("retransmit"),
            _ => None,
        };
        if let Some(name) = counted {
            *counts.entry((name, ev.cycle)).or_default() += 1;
        }
        rows.extend(match ev.kind {
            JournalKind::HostEvent => row("host_enqueue", ev.flow, 0),
            JournalKind::SegAccepted => row("rx_enqueue", ev.flow, 0),
            JournalKind::FpuDecision => row("dispatch", ev.flow, ev.a),
            JournalKind::TcbEvict => row("evict", ev.flow, ev.a),
            JournalKind::TcbInstall => row("swap_in", ev.flow, ev.a),
            JournalKind::TcbMigrateDone if ev.a == 0 => row("migrate_done", ev.flow, 0),
            JournalKind::TxEmit => row("tx_segment", 0, ev.a),
            _ => None,
        });
    }
    for ((name, cycle), n) in counts {
        rows.push((name.to_string(), cycle, 0, n));
    }
    rows.sort();
    rows
}

/// The Chrome trace is a view of the journal's stream: over a lossy run
/// with tiny FPCs, a mid-run close and an event for an unopened flow,
/// each side's trace rows equal the journal's projection row for row,
/// and every row kind occurs.
#[test]
fn chrome_trace_is_a_projection_of_the_journal() {
    let cfg = EngineConfig { journal: true, journal_sample: 1, ..base_config() };
    let mut link = DuplexLink::ideal();
    link.set_impairments(Impairments::every_nth(16));
    let (mut a, b) = run_schedule_on(cfg, link, 1 << 20);
    // A host event for a flow id the schedule never opened is dropped.
    let stray = FlowId(12);
    assert!(a.peek_tcb(stray).is_none(), "flow 12 was never opened");
    assert!(a.push_host(stray, EventKind::Close));
    a.run(64);
    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for e in [&a, &b] {
        let journal = e.journal().expect("journal armed");
        assert_eq!(journal.events_overwritten(), 0, "the journal kept the whole run");
        let trace = trace_rows(e);
        assert_eq!(
            trace.len() as u64,
            e.telemetry().counter_value("engine.trace.recorded"),
            "the trace ring kept the whole run"
        );
        let projection = journal_projection(e);
        if let Some((t, p)) = trace.iter().zip(&projection).find(|(t, p)| t != p) {
            panic!("trace row {t:?} vs journal projection {p:?}");
        }
        assert_eq!(trace.len(), projection.len(), "trace rows vs journal projection rows");
        for row in trace {
            *seen.entry(row.0).or_default() += 1;
        }
    }
    for name in [
        "dispatch",
        "route",
        "coalesce",
        "migrate_start",
        "migrate_done",
        "evict",
        "swap_in",
        "tx_segment",
        "retransmit",
        "host_enqueue",
        "rx_enqueue",
        "drop",
    ] {
        assert!(seen.get(name).is_some_and(|&n| n > 0), "no {name} row in {seen:?}");
    }
}

/// FtTurbo pool-size invariance: the same fixed shard set driven
/// through [`ParallelRunner`] in rendezvous rounds must produce
/// byte-identical artifacts — telemetry, Chrome traces and journal
/// digests — whether the worker pool holds 1 thread (the inline
/// reference sequence) or several. Shards are deliberately uneven (flow
/// counts and tail lengths differ) so completion order varies and a
/// scheduling-order dependence would surface.
#[test]
fn parallel_pool_size_does_not_change_artifacts() {
    use f4t::core::{fold_digests, ParallelRunner};

    struct Shard {
        pair: EnginePair,
        flows: Vec<(FlowId, SeqNum)>,
        tail: u64,
    }

    const ACTIVE_ROUNDS: u64 = 24;

    fn make_shards() -> Vec<Shard> {
        (0..4u16)
            .map(|s| {
                let cfg = EngineConfig {
                    num_fpcs: 2,
                    lut_groups: 2,
                    flows_per_fpc: 4,
                    check: true,
                    journal: true,
                    journal_sample: 1,
                    pulse: true,
                    pulse_interval: 256,
                    pulse_flow_sample: 1,
                    ..EngineConfig::reference()
                };
                let mut pair = EnginePair::new(cfg, DuplexLink::ideal());
                pair.a.set_trace_capacity(512);
                pair.b.set_trace_capacity(512);
                let mut flows = Vec::new();
                for p in 0..(6 + s % 3) {
                    let t = FourTuple::new(
                        Ipv4Addr::new(10, 0, 1 + s as u8, 1),
                        50_000 + p,
                        Ipv4Addr::new(10, 0, 0, 2),
                        80,
                    );
                    let fa = pair.a.open_established(t, SeqNum(0)).unwrap();
                    pair.b.open_established(t.reversed(), SeqNum(0)).unwrap();
                    flows.push((fa, SeqNum(0)));
                }
                Shard { pair, flows, tail: 20 + u64::from(s) * 9 }
            })
            .collect()
    }

    fn step(sh: &mut Shard, round: u64) -> bool {
        if round < ACTIVE_ROUNDS {
            let i = (round as usize) % sh.flows.len();
            let (fa, req_a) = &mut sh.flows[i];
            let acked = sh.pair.a.peek_tcb(*fa).map(|t| t.snd_una).unwrap_or(*req_a);
            let add = 512 + (round as u32 * 73) % 1024;
            if req_a.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                *req_a = req_a.add(add);
                sh.pair.a.push_host(*fa, EventKind::SendReq { req: *req_a });
            }
            exchange(&mut sh.pair, 1 + round % 3);
            true
        } else if round < ACTIVE_ROUNDS + sh.tail {
            exchange(&mut sh.pair, 2);
            round + 1 < ACTIVE_ROUNDS + sh.tail
        } else {
            false
        }
    }

    /// (telemetry, chrome traces, journal digest a, journal digest b,
    /// pulse series a+b, pulse digest a, pulse digest b).
    type ShardArtifacts = (String, String, u64, u64, String, u64, u64);

    fn run(pool: usize) -> (u64, Vec<ShardArtifacts>, u64) {
        let mut r = ParallelRunner::new(make_shards());
        let rounds = r.run_rounds(pool, step);
        let arts: Vec<_> = r
            .shards()
            .iter()
            .map(|Shard { pair: EnginePair { a, b, .. }, .. }| {
                assert_eq!(
                    a.check_total_violations() + b.check_total_violations(),
                    0,
                    "checker fired inside a shard"
                );
                (
                    format!("{}{}", a.telemetry().to_json(), b.telemetry().to_json()),
                    format!("{}{}", a.export_chrome_trace(), b.export_chrome_trace()),
                    a.journal_digest(),
                    b.journal_digest(),
                    format!(
                        "{}{}",
                        a.pulse_json().unwrap_or_default(),
                        b.pulse_json().unwrap_or_default()
                    ),
                    a.pulse_digest(),
                    b.pulse_digest(),
                )
            })
            .collect();
        let merged = fold_digests(
            arts.iter().flat_map(|&(_, _, ja, jb, _, pa, pb)| [ja, jb, pa, pb]),
        );
        (rounds, arts, merged)
    }

    let reference = run(1);
    for pool in [2, 4] {
        let got = run(pool);
        assert_eq!(got.0, reference.0, "pool of {pool} changed the round count");
        for (s, (g, r)) in got.1.iter().zip(reference.1.iter()).enumerate() {
            assert_eq!(g.0, r.0, "pool of {pool}: shard {s} telemetry diverged");
            assert_eq!(g.1, r.1, "pool of {pool}: shard {s} Chrome trace diverged");
            assert_eq!((g.2, g.3), (r.2, r.3), "pool of {pool}: shard {s} journal digest diverged");
            assert_eq!(g.4, r.4, "pool of {pool}: shard {s} pulse series diverged");
            assert_eq!((g.5, g.6), (r.5, r.6), "pool of {pool}: shard {s} pulse digest diverged");
        }
        assert_eq!(got.2, reference.2, "pool of {pool}: merged digest diverged");
    }
}
