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
//! Intentional behavior changes regenerate the goldens with
//! `UPDATE_GOLDEN=1 cargo test --test determinism`.

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::sim::digest::{fnv1a, FNV_OFFSET};
use f4t::system::{DuplexLink, EnginePair};
use f4t::tcp::{FourTuple, SeqNum};
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
    run_schedule_on(cfg, DuplexLink::ideal())
}

/// [`run_schedule`] over `link`.
fn run_schedule_on(cfg: EngineConfig, link: DuplexLink) -> (Engine, Engine) {
    let mut pair = EnginePair::new(cfg, link);
    pair.a.set_trace_capacity(1024);
    pair.b.set_trace_capacity(1024);
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
        run_schedule_on(cfg, DuplexLink::new(1, 1_000))
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
    use f4t::tcp::FlowId;

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
