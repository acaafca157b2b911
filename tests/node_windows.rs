//! `F4tSystem::run_cycles(n)` against `n` calls of the reference
//! `F4tSystem::tick()`: every workload constructor, every recorder armed
//! once, every impairment profile with and without a capture, FtBench's
//! churn link, held segments that leave by their flush deadline, a slow
//! link that drains a full MAC buffer and a link that both loses and
//! reorders must end in the same bytes —
//! telemetry, per-node host counters, CPU accounting, PCIe bytes, link
//! counters, journal/pulse digests and pcap captures.
//!
//! `run_cycles` is called with a rotating mix of lengths that do not
//! divide the link's lookahead (DESIGN.md §12.4), so a run starts,
//! splits and ends windows at every phase. Every 100G link must have
//! taken node windows, on any host, impaired and capturing ones
//! included; only a direction that both loses and reorders takes none.
//! Inside the windows each node's engine sleeps through its idle cycles
//! (node `b`'s in every workload, both on the churn link) unless
//! fast-forward is off.

use f4t::core::EngineConfig;
use f4t::netsim::Impairments;
use f4t::sim::digest::{fnv1a, FNV_OFFSET};
use f4t::system::link::{DuplexLink, A_TO_B, B_TO_A};
use f4t::system::{F4tSystem, Node};

/// `run_cycles` lengths, rotated until the run's cycles are spent: one
/// cycle, under, at and over the 100G link's 250-cycle lookahead, and a
/// long call of many windows.
const SPLITS: [u64; 5] = [1, 127, 250, 251, 10_007];
/// One pass through [`SPLITS`].
const PASS: u64 = 1 + 127 + 250 + 251 + 10_007;

fn cfg() -> EngineConfig {
    EngineConfig { num_fpcs: 2, flows_per_fpc: 32, lut_groups: 2, ..EngineConfig::reference() }
}

/// Check, flight, journal, watchdog and pulse recorders all on.
fn armed() -> EngineConfig {
    EngineConfig { check: true, flight: true, journal: true, watchdog: true, pulse: true, ..cfg() }
}

/// Builds one fresh system.
type Make = fn() -> F4tSystem;

/// Every constructor `tests/determinism.rs::host_views` pins.
fn constructors() -> Vec<(&'static str, Make)> {
    vec![
        ("bulk", || F4tSystem::bulk(2, 128, cfg())),
        ("round_robin", || F4tSystem::round_robin(2, 4, 128, cfg())),
        ("echo", || F4tSystem::echo(2, 16, 128, cfg())),
        ("echo_paced+sleep", || {
            let mut sys = F4tSystem::echo_paced(1, 1, 128, 20_000, cfg());
            sys.a.set_sleep_after_poll(true);
            sys.b.set_sleep_after_poll(true);
            sys
        }),
        ("http", || F4tSystem::http(2, 2, 16, cfg())),
        ("incast", || F4tSystem::incast(8, 2, 2_048, 100_000, cfg())),
        ("churnstorm", || F4tSystem::churnstorm(2, 32, cfg())),
        ("slowloris", || F4tSystem::slowloris(2, 64, 8, 50_000, cfg())),
    ]
}

/// Everything a run leaves behind that a reader can observe, as text.
fn view(sys: &mut F4tSystem) -> String {
    let node = |side: &str, n: &Node| {
        let cpu = n.total_accounting();
        format!(
            "{side}: requests={} consumed={} app={} tcp={} kernel={} lib={} idle={} h2d={} d2h={} \
             journal={:016x} pulse={:016x} violations={} alarms={}\n",
            n.requests(),
            n.consumed_bytes(),
            cpu.app,
            cpu.tcp,
            cpu.kernel,
            cpu.lib,
            cpu.idle,
            n.pcie().h2d_bytes(),
            n.pcie().d2h_bytes(),
            n.engine.journal_digest(),
            n.engine.pulse_digest(),
            n.engine.check_total_violations(),
            n.engine.watchdog_alarm_count(),
        )
    };
    let mut out = node("a", &sys.a) + &node("b", &sys.b);
    let link = sys.link();
    for dir in [A_TO_B, B_TO_A] {
        out += &format!(
            "link[{dir}]: bytes={} segments={} lost={} duplicated={} reordered={}\n",
            link.bytes(dir),
            link.segments(dir),
            link.dropped_loss(dir),
            link.duplicated(dir),
            link.reordered(dir),
        );
    }
    out += &sys.telemetry().to_json();
    if let Some(pcap) = sys.take_pcap() {
        out += &format!("pcap: {} bytes, fnv1a {:016x}\n", pcap.len(), fnv1a(FNV_OFFSET, &pcap));
    }
    out
}

/// Counter `key` of link direction `dir` in a [`view`].
fn link_count(view: &str, dir: usize, key: &str) -> u64 {
    let line = view.lines().find(|l| l.starts_with(&format!("link[{dir}]:"))).expect("link line");
    let field = line.split_whitespace().find_map(|f| f.strip_prefix(key)?.strip_prefix('='));
    field.and_then(|v| v.parse().ok()).expect("link counter")
}

/// `cycles` reference ticks.
fn lock_step(mut sys: F4tSystem, cycles: u64) -> String {
    for _ in 0..cycles {
        sys.tick();
    }
    view(&mut sys)
}

/// What a windowed run did besides its view: the node windows that ran
/// and the engine steps each node slept through.
#[derive(Debug)]
struct Windows {
    ran: u64,
    slept: [u64; 2],
}

/// `cycles` cycles through `run_cycles`, call lengths rotating over
/// [`SPLITS`]; the view and the windows.
fn windowed(mut sys: F4tSystem, cycles: u64) -> (String, Windows) {
    let mut left = cycles;
    for split in SPLITS.iter().cycle() {
        if left == 0 {
            break;
        }
        let n = (*split).min(left);
        sys.run_cycles(n);
        left -= n;
    }
    (view(&mut sys), Windows { ran: sys.windows(), slept: sys.slept_cycles() })
}

fn assert_same(name: &str, reference: &str, got: &str) {
    if reference != got {
        let line = reference.lines().zip(got.lines()).position(|(r, g)| r != g);
        panic!(
            "{name}: run_cycles diverged from tick() at line {line:?}\n--- tick ---\n{}\n--- run_cycles ---\n{}",
            reference.lines().nth(line.unwrap_or(0)).unwrap_or(""),
            got.lines().nth(line.unwrap_or(0)).unwrap_or(""),
        );
    }
}

#[test]
fn windowed_runs_match_lock_step_for_every_constructor() {
    for (name, make) in constructors() {
        let (got, w) = windowed(make(), 2 * PASS);
        assert_same(name, &lock_step(make(), 2 * PASS), &got);
        assert!(w.ran > 0, "{name}: {w:?}");
        // Node `b`'s engine sleeps in every workload, bulk's receiver too.
        assert!(w.slept[1] > 0, "{name}: {w:?}");
    }
}

#[test]
fn windowed_runs_match_lock_step_with_every_recorder_armed() {
    let make = || F4tSystem::echo(2, 16, 128, armed());
    let reference = lock_step(make(), PASS);
    assert!(reference.contains("violations=0 alarms=0"), "{reference}");
    let (got, w) = windowed(make(), PASS);
    assert_same("echo armed", &reference, &got);
    assert!(w.ran > 0, "{w:?}");
}

#[test]
fn impaired_and_capturing_links_match_lock_step() {
    let make = |profile: &str, capture: bool| {
        let mut sys = F4tSystem::bulk(1, 1_460, cfg());
        sys.set_impairments(Impairments::profile(profile).expect("profile exists"));
        if capture {
            sys.enable_pcap(64);
        }
        sys
    };
    for profile in Impairments::profile_names() {
        for capture in [false, true] {
            let name = format!("{profile} capture={capture}");
            let reference = lock_step(make(profile, capture), PASS);
            assert_eq!(reference.contains("pcap: "), capture, "{name}");
            let (got, w) = windowed(make(profile, capture), PASS);
            assert_same(&name, &reference, &got);
            assert!(w.ran > 0, "{name}: {w:?}");
        }
    }
}

/// FtBench's `churn-storm` link: 5 % of data segments displaced by up to
/// 3 packets, 2 % duplicated.
fn churn_link(seed: u64) -> Impairments {
    Impairments { reorder_p: 0.05, reorder_depth: 3, dup_p: 0.02, seed, ..Impairments::none() }
}

#[test]
fn churnstorm_on_the_churn_link_matches_lock_step() {
    for seed in [1, 7, 11] {
        let make = || {
            let mut sys = F4tSystem::churnstorm(2, 32, cfg());
            sys.set_impairments(churn_link(seed));
            sys
        };
        let name = format!("churnstorm seed {seed}");
        let reference = lock_step(make(), 2 * PASS);
        let (got, w) = windowed(make(), 2 * PASS);
        assert_same(&name, &reference, &got);
        assert!(w.ran > 0, "{name}: {w:?}");
        assert_eq!(w.slept.map(|n| n > 0), [true; 2], "{name}: {w:?}");
        for key in ["reordered", "duplicated"] {
            assert!(link_count(&reference, A_TO_B, key) > 0, "{name}: nothing {key}");
        }
    }
}

#[test]
fn held_segments_flushed_by_deadline_cut_windows_short() {
    // One flow pinging every 20 µs: a held segment has no later data
    // segment to pass it, so it leaves by its 8 µs flush deadline, on the
    // receiver's clock — a window must end before that cycle.
    let make = |imp: Impairments| {
        let mut sys = F4tSystem::echo_paced(1, 1, 128, 20_000, cfg());
        sys.set_impairments(imp);
        sys
    };
    let held = Impairments { reorder_p: 0.5, reorder_depth: 3, seed: 5, ..Impairments::none() };
    let reference = lock_step(make(held), 4 * PASS);
    let (got, w) = windowed(make(held), 4 * PASS);
    assert_same("quiet echo, held segments", &reference, &got);
    for dir in [A_TO_B, B_TO_A] {
        assert!(link_count(&reference, dir, "reordered") > 0, "nothing held on link[{dir}]");
    }
    let (_, clean) = windowed(make(Impairments::none()), 4 * PASS);
    assert!(w.ran > clean.ran, "{w:?} vs {clean:?} on a clean link");
}

#[test]
fn a_mac_buffer_drained_under_its_cap_by_a_slow_link_matches_lock_step() {
    // A 1460 B bulk sender outruns a 25G wire: its MAC buffer fills to the
    // cap while the engine waits for ACKs, and the link drains it under
    // the cap while the engine sleeps. The packet generator's credit runs
    // again from that pop on, so the engine settles before every pop.
    let make = || {
        let mut sys = F4tSystem::bulk(1, 1_460, cfg());
        sys.set_link(DuplexLink::new(25, 1_000));
        sys
    };
    let reference = lock_step(make(), 4 * PASS);
    let (got, w) = windowed(make(), 4 * PASS);
    assert_same("bulk on a 25G link", &reference, &got);
    assert_eq!(w.slept.map(|n| n > 0), [true; 2], "{w:?}");
}

#[test]
fn a_link_that_loses_and_reorders_takes_no_windows() {
    let make = || {
        let mut sys = F4tSystem::bulk(1, 1_460, cfg());
        let lossy = Impairments::profile("lossy").expect("profile exists");
        sys.set_impairments(Impairments { reorder_p: 0.05, reorder_depth: 3, ..lossy });
        sys
    };
    let reference = lock_step(make(), PASS);
    let (got, w) = windowed(make(), PASS);
    assert_same("loss + reorder", &reference, &got);
    assert_eq!(w.ran, 0);
    assert_eq!(w.slept, [0, 0], "lock-step ticks never sleep");
    for key in ["lost", "reordered"] {
        assert!(link_count(&reference, A_TO_B, key) > 0, "nothing {key}");
    }
}

#[test]
fn engines_stay_awake_with_fast_forward_off() {
    let make = || F4tSystem::echo(2, 16, 128, EngineConfig { fast_forward: false, ..cfg() });
    let (got, w) = windowed(make(), PASS);
    assert_same("echo, fast-forward off", &lock_step(make(), PASS), &got);
    assert!(w.ran > 0, "{w:?}");
    assert_eq!(w.slept, [0, 0], "{w:?}");
}
