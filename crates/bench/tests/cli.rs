//! Exit-code contract tests for the `f4tperf` CLI (and the `figures`
//! binary's usage error).
//!
//! The contract (also printed by `--help`):
//!   * `0` — run completed, no FtVerify violations;
//!   * `1` — FtVerify found design-rule violations (`--check`);
//!   * `2` — usage error (bad flag/value) or I/O error;
//!   * `3` — perf-gate regression (`--gate`, `--pulse-gate`).
//!
//! CI scripts and the figure harnesses branch on these, so they are
//! pinned here by spawning the real binary (offline, no network).
//!
//! The committed simulated baselines, `results/flight/<w>.json` and
//! `results/pulse/<w>.json`, are a golden here too: every [`GATED`] run
//! must reproduce them byte for byte. Regenerate them with
//! `UPDATE_GOLDEN=1 cargo test -p f4t-bench --test cli`.

use f4t_sim::json::{self, Value};
use std::process::{Command, Output};

fn f4tperf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_f4tperf"))
        .args(args)
        .output()
        .expect("spawn f4tperf")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_exits_zero_and_documents_exit_codes() {
    let out = f4tperf(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("EXIT CODES"), "help must document the contract:\n{text}");
    assert!(text.contains("--inject-fault"), "help must list fault injection:\n{text}");
    assert!(
        text.contains("3 perf-gate regression"),
        "help must document exit code 3:\n{text}"
    );
}

#[test]
fn usage_errors_exit_two() {
    for bad in [
        &["--bogus-flag"][..],
        &["--cores", "0"][..],
        &["--workload", "nosuch"][..],
        &["--inject-fault", "nosuch"][..],
        &["--dram"][..], // missing value
        &["--flight-sample", "0"][..],
        &["--journal-sample", "0"][..],
        &["--threads", "0"][..],
        &["--workload", "bulk", "--threads", "2"][..],
        &["--workload", "scale", "--threads", "2", "--pcap", "x.pcap"][..],
        &["--workload", "scale", "--threads", "2", "--gate", "base.json"][..],
    ] {
        let out = f4tperf(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}:\n{}", stderr(&out));
    }
}

/// A system workload asked for more flows than one engine's flow table
/// holds is a usage error, not a panic in the flow-opening loop.
#[test]
fn too_many_flows_exits_two() {
    for bad in [
        &["--workload", "echo", "--cores", "1", "--flows", "70000"][..],
        &["--workload", "slowloris", "--flows", "70000"][..],
        &["--workload", "incast", "--flows", "70000"][..],
    ] {
        let out = f4tperf(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}:\n{}", stderr(&out));
        assert!(stderr(&out).contains("flow table"), "{}", stderr(&out));
    }
}

#[test]
fn telemetry_io_error_exits_two() {
    let out = f4tperf(&[
        "--workload", "scale", "--flows", "64", "--size", "128",
        "--duration-ms", "1", "--telemetry", "/nonexistent-dir/t.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("error: writing"), "{}", stderr(&out));
}

/// Clean runs stay clean under FtVerify: the default bulk run, echo
/// over 256 flows on 2 cores, and an incast cell under burst loss with
/// the journal and the watchdog armed too.
#[test]
fn clean_checked_run_exits_zero() {
    for run in [
        &["--warmup-ms", "1", "--duration-ms", "1", "--check"][..],
        &["--workload", "echo", "--cores", "2", "--flows", "256", "--duration-ms", "1", "--check"],
        &[
            "--workload", "incast", "--cores", "2", "--flows", "24", "--size", "2048",
            "--impair", "burst-loss", "--warmup-ms", "1", "--duration-ms", "1", "--check",
            "--journal", "--watchdog",
        ],
    ] {
        let out = f4tperf(run);
        assert_eq!(out.status.code(), Some(0), "{run:?}: {}\n{}", stdout(&out), stderr(&out));
        assert!(stdout(&out).contains("0 violation"), "{run:?}: {}", stdout(&out));
    }
}

/// More cores than flows: a core whose rotation is empty polls and
/// yields instead of panicking.
#[test]
fn more_cores_than_flows_exits_zero() {
    for workload in ["echo", "http"] {
        let out = f4tperf(&[
            "--workload", workload, "--cores", "4", "--flows", "2", "--warmup-ms", "1",
            "--duration-ms", "1",
        ]);
        assert_eq!(out.status.code(), Some(0), "{workload}: {}", stderr(&out));
    }
}

#[test]
fn injected_fault_is_caught_and_exits_one() {
    let out = f4tperf(&[
        "--warmup-ms", "1", "--duration-ms", "1", "--check",
        "--inject-fault", "lut-misdirect",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stderr(&out).contains("design-rule violation"), "{}", stderr(&out));
}

#[test]
fn scale_workload_fast_forwards_and_exits_zero() {
    let out = f4tperf(&[
        "--workload", "scale", "--flows", "128", "--size", "256", "--duration-ms", "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("all completed"), "{text}");
    assert!(text.contains("tick reduction"), "{text}");
}

/// `--no-fast-forward` is the CLI handle on the fast-forward ≡
/// tick-by-tick contract: the report must not change with it. The
/// `f4tperf: Args {..}` line echoes the flag itself, and the scale
/// report's host-side rows (ticks executed, windows skipped, wall time)
/// describe the execution mode, not the simulation.
#[test]
fn no_fast_forward_does_not_change_the_report() {
    let simulated = |out: &Output| -> Vec<String> {
        const HOST_ROWS: [&str; 5] =
            ["f4tperf:", "ticks executed", "ff skipped", "tick reduction", "wall time"];
        stdout(out)
            .lines()
            .filter(|l| !HOST_ROWS.iter().any(|row| l.trim_start().starts_with(row)))
            .map(str::to_owned)
            .collect()
    };
    for run in [&["--workload", "echo", "--duration-ms", "1"][..], SMALL_SCALE] {
        let ff = f4tperf(run);
        let tick = f4tperf(&[run, &["--no-fast-forward"]].concat());
        assert_eq!(ff.status.code(), Some(0), "{run:?}: {}", stderr(&ff));
        assert_eq!(tick.status.code(), Some(0), "{run:?}: {}", stderr(&tick));
        assert!(simulated(&ff).len() >= 4, "{run:?}: report too short to compare");
        assert_eq!(simulated(&ff), simulated(&tick), "{run:?}");
    }
}

/// A scratch path under the system temp dir, unique per test.
fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("f4tperf-cli-{}-{name}", std::process::id()));
    dir.to_str().unwrap().to_owned()
}

const SMALL_SCALE: &[&str] =
    &["--workload", "scale", "--flows", "128", "--size", "256", "--duration-ms", "1"];

#[test]
fn breakdown_json_has_per_stage_percentiles() {
    let path = tmp("breakdown.json");
    let out = f4tperf(&[SMALL_SCALE, &["--breakdown-json", &path]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("breakdown written");
    let doc = json::parse(&text).expect("breakdown is valid JSON");
    assert!(doc.get("cycles").and_then(Value::as_u64) > Some(0));
    let flight = doc.get("flight").expect("flight object");
    for stage in ["rx_ingest", "fpu_process", "tx_emit"] {
        for pct in ["p50_cycles", "p99_cycles", "p999_cycles"] {
            let v = flight.get("stages").and_then(|s| s.get(stage)).and_then(|s| s.get(pct));
            assert!(v.and_then(Value::as_u64).is_some(), "missing {stage}.{pct} in:\n{text}");
        }
    }
    assert!(flight.get("spans_recorded").and_then(Value::as_u64) > Some(0), "{text}");
    std::fs::remove_file(&path).ok();
}

/// A breakdown document with every stage's `"p99_cycles"` set to 0.
fn zero_p99s(doc: &str) -> String {
    let key = "\"p99_cycles\": ";
    let mut parts = doc.split(key);
    let mut out = parts.next().unwrap_or_default().to_owned();
    for part in parts {
        out += key;
        out += "0";
        out += part.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out
}

/// A pulse document with every windowed stage p99 series
/// (`"stage.<s>.p99_cycles": [..]`, one per line) set to 0 from window
/// `from` on.
fn lower_stage_p99s(doc: &str, from: usize) -> String {
    let lower = |line: &str| {
        let (head, rest) = line.split_once(".p99_cycles\": [")?;
        head.trim_start().starts_with("\"stage.").then_some(())?;
        let (values, tail) = rest.split_once(']')?;
        let values: Vec<&str> =
            values.split(", ").enumerate().map(|(k, v)| if k < from { v } else { "0" }).collect();
        Some(format!("{head}.p99_cycles\": [{}]{tail}", values.join(", ")))
    };
    doc.lines().map(|line| lower(line).unwrap_or_else(|| line.to_owned()) + "\n").collect()
}

#[test]
fn gate_passes_against_own_baseline_and_trips_on_a_tighter_one() {
    let base = tmp("baseline.json");
    let out = f4tperf(&[SMALL_SCALE, &["--breakdown-json", &base]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Identical deterministic run vs its own baseline: must pass.
    let out = f4tperf(&[SMALL_SCALE, &["--gate", &base]].concat());
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("perf gate          PASS"), "{}", stdout(&out));

    // Against its own breakdown with every stage p99 zeroed, the run
    // must trip the documented exit code 3 and name each moved leaf as
    // `<dotted path>: <baseline> -> <observed>`: here only stage p99s,
    // each from 0 to the run's own value.
    let own = std::fs::read_to_string(&base).expect("breakdown written");
    std::fs::write(&base, zero_p99s(&own)).expect("write");
    let out = f4tperf(&[SMALL_SCALE, &["--gate", &base]].concat());
    assert_eq!(out.status.code(), Some(3), "{}\n{}", stdout(&out), stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("perf gate FAIL"), "{err}");
    let moved = moved_leaves(&err);
    assert!(!moved.is_empty(), "no moved leaf reported in:\n{err}");
    for (path, change) in moved {
        let stage = path.strip_prefix("flight.stages.").and_then(|p| p.strip_suffix(".p99_cycles"));
        assert!(stage.is_some_and(|s| !s.contains('.')), "not a stage p99 leaf: {path}");
        let observed = change.strip_prefix("0 -> ").and_then(|v| v.parse::<u64>().ok());
        assert!(observed > Some(0), "{path}: {change}");
    }

    // A missing baseline is an I/O error (2), not a regression (3).
    let out = f4tperf(&[SMALL_SCALE, &["--gate", "/nonexistent-dir/base.json"]].concat());
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    std::fs::remove_file(&base).ok();
}

/// The `  - <path>: <change>` lines a failing gate or `f4tdbg pulse A B`
/// reports, as `(path, change)`.
fn moved_leaves(report: &str) -> Vec<(&str, &str)> {
    report.lines().filter_map(|l| l.strip_prefix("  - ")?.split_once(": ")).collect()
}

fn f4tdbg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_f4tdbg"))
        .args(args)
        .output()
        .expect("spawn f4tdbg")
}

#[test]
fn journal_run_reports_digest_and_sampling() {
    let out = f4tperf(&[SMALL_SCALE, &["--journal", "--journal-sample", "8"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("journal"), "{text}");
    assert!(text.contains("events recorded"), "{text}");
    assert!(text.contains("(1/8 sampling)"), "{text}");
}

/// FtTurbo: the sharded scale path must complete, report per-shard and
/// merged results, and the merged journal digest must be identical
/// run-to-run (the CLI ties pool size to shard count, so the deeper
/// pool-size invariance is pinned at API level in tests/determinism.rs).
#[test]
fn threaded_scale_run_is_deterministic() {
    let run = || {
        let out = f4tperf(&[SMALL_SCALE, &["--threads", "2", "--check", "--journal"]].concat());
        assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("in 2 shards (all completed)"), "{text}");
        assert!(text.contains("shard 0"), "{text}");
        assert!(text.contains("shard 1"), "{text}");
        assert!(text.contains("ftverify[0]        check: 0 violation(s)"), "{text}");
        assert!(text.contains("ftverify[1]        check: 0 violation(s)"), "{text}");
        let digest = text
            .lines()
            .find(|l| l.contains("merged digest"))
            .unwrap_or_else(|| panic!("no merged journal digest line in:\n{text}"))
            .to_owned();
        digest
    };
    assert_eq!(run(), run(), "merged digest must not vary run-to-run");
}

#[test]
fn watchdog_clean_run_exits_zero() {
    let echo = ["--workload", "echo", "--cores", "2", "--flows", "256", "--duration-ms", "1"];
    for run in [[SMALL_SCALE, &["--watchdog"]].concat(), [&echo[..], &["--journal", "--watchdog"]].concat()] {
        let out = f4tperf(&run);
        assert_eq!(out.status.code(), Some(0), "{run:?}: {}\n{}", stdout(&out), stderr(&out));
        assert!(!stderr(&out).contains("watchdog raised"), "{run:?}: {}", stderr(&out));
    }
}

/// The full forensic round trip, and the digest-replay acceptance
/// criterion: a fault-triggered black-box dump must replay through
/// `f4tdbg digest` to the same determinism digest the engine recorded.
#[test]
fn dump_on_failure_replays_through_f4tdbg() {
    // The scale workload spreads events over 128 flows, so the default
    // 1/64 sampling keeps the stream small enough to fit the ring: the
    // recomputed digest can only equal the recorded one when no event
    // was overwritten.
    let dump = tmp("fault-dump.json");
    let out = f4tperf(
        &[SMALL_SCALE, &["--check", "--inject-fault", "lut-misdirect", "--dump-on-failure", &dump]]
            .concat(),
    );
    assert_eq!(out.status.code(), Some(1), "{}\n{}", stdout(&out), stderr(&out));
    assert!(
        stderr(&out).contains("black-box dump"),
        "dump path must be announced on the failure stream:\n{}",
        stderr(&out)
    );
    let text = std::fs::read_to_string(&dump).expect("dump written");
    assert!(text.contains("\"reason\": \"invariant-violation\""), "{text}");

    // Replay: the recomputed journal digest must match the recorded one.
    let out = f4tdbg(&["digest", &dump]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("MATCH"), "{}", stdout(&out));

    // Pretty-print with filters narrows the journal view without erroring.
    let out = f4tdbg(&["print", &dump, "--module", "scheduler"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("reason"), "{}", stdout(&out));

    // A dump diffed against itself is identical (exit 0).
    let out = f4tdbg(&["diff", &dump, &dump]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("identical"), "{}", stdout(&out));

    std::fs::remove_file(&dump).ok();
}

#[test]
fn f4tdbg_usage_errors_exit_two() {
    for bad in [
        &[][..],
        &["nosuch-command", "x.json"][..],
        &["digest", "/nonexistent-dir/dump.json"][..],
        &["print", "/nonexistent-dir/dump.json"][..],
    ] {
        let out = f4tdbg(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}:\n{}", stderr(&out));
    }
}

#[test]
fn pcap_capture_writes_parseable_file() {
    let path = tmp("cap.pcap");
    let out = f4tperf(&[SMALL_SCALE, &["--pcap", &path]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let bytes = std::fs::read(&path).expect("pcap written");
    // Little-endian libpcap magic, then at least one 16-byte record
    // header past the 24-byte global header.
    assert_eq!(&bytes[..4], &0xA1B2_C3D4u32.to_le_bytes(), "bad pcap magic");
    assert!(bytes.len() > 24 + 16, "pcap holds no packets ({} bytes)", bytes.len());
    assert!(stdout(&out).contains("pcap"), "{}", stdout(&out));
    std::fs::remove_file(&path).ok();
}

/// Both `--telemetry` formats: the JSON snapshot carries the FPC stall
/// counters next to a Chrome trace, the Prometheus export its TYPE lines.
#[test]
fn prometheus_telemetry_format() {
    let path = tmp("telem.json");
    let trace = tmp("telem.trace.json");
    let out = f4tperf(&[
        "--workload", "echo", "--cores", "2", "--flows", "256", "--duration-ms", "1",
        "--telemetry", &path, "--trace-depth", "4096",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("telemetry written");
    assert!(text.contains("engine.fpc0.stall.fifo_empty"), "{text}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.contains("traceEvents"), "not a Chrome trace:\n{text}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace).ok();

    let path = tmp("telem.prom");
    let out = f4tperf(
        &[SMALL_SCALE, &["--telemetry", &path, "--telemetry-format", "prometheus"]].concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("telemetry written");
    assert!(text.contains("# TYPE engine_cycles counter"), "{text}");
    assert!(text.contains("quantile=\"0.99\""), "{text}");

    let out = f4tperf(&["--telemetry-format", "nosuch"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
    let trace = format!("{}.trace.json", path.trim_end_matches(".json"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn pulse_usage_errors_exit_two() {
    for bad in [
        &["--pulse-interval", "0"][..],
        &["--workload", "scale", "--threads", "2", "--pulse-gate", "base.json"][..],
    ] {
        let out = f4tperf(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}:\n{}", stderr(&out));
    }
    let out = f4tperf(&["--help"]);
    let text = stdout(&out);
    for flag in ["--pulse", "--pulse-interval", "--pulse-json", "--pulse-gate"] {
        assert!(text.contains(flag), "help must list {flag}:\n{text}");
    }
}

/// FtPulse round trip: a pulse-enabled run writes a series document,
/// `f4tdbg pulse` renders it (exit 0), a self-diff is identical (0),
/// a diff against a different run reports divergence (1), and a
/// missing file is an I/O error (2).
#[test]
fn pulse_smoke_and_f4tdbg_exit_contract() {
    let doc = tmp("pulse.json");
    let out = f4tperf(&[SMALL_SCALE, &["--pulse-json", &doc, "--check"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("pulse"), "{text}");
    assert!(text.contains("windows recorded"), "{text}");

    let out = f4tdbg(&["pulse", &doc]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("goodput_bytes"), "{}", stdout(&out));

    let out = f4tdbg(&["pulse", &doc, "--series", "goodput"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let out = f4tdbg(&["pulse", &doc, &doc]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("identical"), "{}", stdout(&out));

    // A run with a different flow count diverges (exit 1).
    let other = tmp("pulse-other.json");
    let out = f4tperf(&[
        "--workload", "scale", "--flows", "64", "--size", "256", "--duration-ms", "1",
        "--pulse-json", &other,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = f4tdbg(&["pulse", &doc, &other]);
    assert_eq!(out.status.code(), Some(1), "{}\n{}", stdout(&out), stderr(&out));
    assert!(moved_leaves(&stdout(&out)).iter().any(|(p, _)| p.contains("goodput")), "{}", stdout(&out));
    // `--series` narrows the paths printed, not the verdict.
    let out = f4tdbg(&["pulse", &doc, &other, "--series", "goodput"]);
    assert_eq!(out.status.code(), Some(1), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    let shown = moved_leaves(&text);
    assert!(!shown.is_empty() && shown.iter().all(|(p, _)| p.contains("goodput")), "{text}");

    let out = f4tdbg(&["pulse", "/nonexistent-dir/pulse.json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    std::fs::remove_file(&doc).ok();
    std::fs::remove_file(&other).ok();
}

/// The sharded path records per-shard pulse series and a merged digest,
/// and its document renders through `f4tdbg pulse`.
#[test]
fn threaded_pulse_smoke() {
    let doc = tmp("threaded-pulse.json");
    let out = f4tperf(&[SMALL_SCALE, &["--threads", "2", "--pulse", "--check", "--pulse-json", &doc]].concat());
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("pulse"), "{text}");
    assert!(text.contains("windows recorded"), "{text}");
    let text = std::fs::read_to_string(&doc).expect("pulse document written");
    assert!(text.contains("\"merged_digest\""), "{text}");
    assert!(text.contains("\"goodput_bytes\""), "{text}");
    let out = f4tdbg(&["pulse", &doc]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    std::fs::remove_file(&doc).ok();
}

/// The pulse gate's exit path: against a baseline whose windowed stage
/// p99s drop to 0 from pulse window 4 on, the run fails the pulse gate
/// (exit 3), naming only stage p99 windows at index 4 or later, while
/// the flight gate on its own breakdown passes. With the flight baseline
/// edited too, both gates report before the one exit.
#[test]
fn pulse_gate_trips_on_late_windows_the_flight_gate_passes() {
    let flight_base = tmp("pulse-flight-base.json");
    let pulse_base = tmp("pulse-shape-base.json");
    const BULK: &[&str] = &["--workload", "bulk", "--duration-ms", "1", "--pulse-interval", "1024"];

    let out = f4tperf(
        &[BULK, &["--flight", "--breakdown-json", &flight_base, "--pulse-json", &pulse_base]]
            .concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));

    let own = std::fs::read_to_string(&pulse_base).expect("pulse document written");
    std::fs::write(&pulse_base, lower_stage_p99s(&own, 4)).expect("write");

    // Both gates armed: the flight gate passes, the pulse gate trips.
    let gates = [BULK, &["--gate", &flight_base, "--pulse-gate", &pulse_base]].concat();
    let out = f4tperf(&gates);
    assert_eq!(out.status.code(), Some(3), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("perf gate          PASS"), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("pulse gate FAIL"), "{err}");
    let moved = moved_leaves(&err);
    assert!(!moved.is_empty(), "no moved leaf reported in:\n{err}");
    for (path, change) in moved {
        let (series, window) = path.split_once(".series.").and_then(|(_, s)| s.split_once('[')).unwrap_or_default();
        assert!(series.starts_with("stage.") && series.ends_with(".p99_cycles"), "{path}");
        let window: Option<usize> = window.strip_suffix(']').and_then(|w| w.parse().ok());
        assert!(window >= Some(4), "an unlowered window moved: {path}: {change}");
        assert!(change.starts_with("0 -> "), "{path}: {change}");
    }

    // Both baselines edited: each gate names its leaves, then one exit 3.
    let own = std::fs::read_to_string(&flight_base).expect("breakdown written");
    std::fs::write(&flight_base, zero_p99s(&own)).expect("write");
    let out = f4tperf(&gates);
    assert_eq!(out.status.code(), Some(3), "{}\n{}", stdout(&out), stderr(&out));
    let err = stderr(&out);
    let (flight, pulse) = err.split_once("pulse gate FAIL").unwrap_or_else(|| panic!("{err}"));
    assert!(flight.contains("perf gate FAIL"), "{err}");
    assert!(moved_leaves(flight).iter().all(|(p, _)| p.starts_with("flight.stages.")), "{err}");
    assert!(moved_leaves(pulse).iter().all(|(p, _)| p.contains(".series.stage.")), "{err}");

    // A missing pulse baseline is an I/O error (2), not a regression.
    let out = f4tperf(&[BULK, &["--pulse-gate", "/nonexistent-dir/p.json"]].concat());
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    std::fs::remove_file(&flight_base).ok();
    std::fs::remove_file(&pulse_base).ok();
}

/// An unknown workload is rejected where flags are validated, naming the
/// valid ones — also when another usage error (`--threads` on a
/// non-scale workload) would otherwise mask it.
#[test]
fn unknown_workload_names_the_valid_ones() {
    for bad in [&["--workload", "nosuch"][..], &["--workload", "nosuch", "--threads", "2"][..]] {
        let out = f4tperf(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}:\n{}", stderr(&out));
        let err = stderr(&out);
        let first = err.lines().next().unwrap_or_default();
        assert!(first.contains("unknown workload nosuch"), "args {bad:?}: {first}");
        for name in ["bulk", "rr", "echo", "http", "scale", "incast", "churnstorm", "slowloris", "httpstorm"] {
            assert!(first.contains(name), "args {bad:?}: error must list {name}: {first}");
        }
    }
    // --help prints every workload with its --flows default.
    let help = stdout(&f4tperf(&["--help"]));
    for row in ["incast: ", "(--flows defaults to 32)", "(--flows defaults to 16/core)", "(--flows defaults to 2048)"] {
        assert!(help.contains(row), "help must print {row:?}:\n{help}");
    }
}

/// The committed simulated baselines: each workload's `f4tperf` run,
/// recorded with 1/64 flight sampling into `results/flight/<w>.json`
/// and `results/pulse/<w>.json`. Each storm workload runs under a
/// different impairment profile, so the baselines pin loss recovery as
/// well as the clean path; impairments are seeded, so they are
/// byte-stable too. `echo-dram` is the one row whose flows outnumber the
/// FPC slots (2048 flows over 8 × 128), so it pins TCB migration between
/// the FPCs and DRAM on both nodes.
const GATED: [(&str, &str); 8] = [
    ("bulk", "--workload bulk --cores 1 --size 4096 --warmup-ms 1 --duration-ms 1"),
    ("echo", "--workload echo --cores 1 --flows 64 --size 128 --warmup-ms 1 --duration-ms 1"),
    ("echo-dram", "--workload echo --cores 8 --flows 2048 --size 128 --warmup-ms 1 --duration-ms 1"),
    ("scale", "--workload scale --flows 2048 --size 256 --duration-ms 1"),
    ("incast", "--workload incast --cores 2 --flows 24 --size 2048 --impair reorder --warmup-ms 1 --duration-ms 1"),
    ("churnstorm", "--workload churnstorm --cores 2 --flows 32 --impair lossy --warmup-ms 1 --duration-ms 2"),
    ("slowloris", "--workload slowloris --cores 2 --flows 256 --impair jitter --warmup-ms 1 --duration-ms 1"),
    ("httpstorm", "--workload httpstorm --cores 2 --flows 256 --impair duplicate --warmup-ms 1 --duration-ms 1"),
];

/// Every [`GATED`] run reproduces its committed flight breakdown and
/// pulse series byte for byte: each runs under `--gate
/// results/flight/<w>.json --pulse-gate results/pulse/<w>.json`, whose
/// one exact comparison names every moved leaf, and every committed
/// baseline has its row. The observed documents stay under
/// `CARGO_TARGET_TMPDIR`. `UPDATE_GOLDEN=1` rewrites the baselines.
#[test]
fn gated_runs_reproduce_committed_baselines_byte_for_byte() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let observed = concat!(env!("CARGO_TARGET_TMPDIR"), "/gated");
    std::fs::create_dir_all(observed).expect("observed directory");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (workload, args) in GATED {
        let [flight, pulse] = ["flight", "pulse"].map(|kind| format!("{observed}/{workload}-{kind}.json"));
        let [flight_base, pulse_base] = ["flight", "pulse"].map(|kind| format!("{root}/results/{kind}/{workload}.json"));
        let mut argv: Vec<&str> = args.split_whitespace().collect();
        argv.extend(["--flight-sample", "64", "--breakdown-json", &flight, "--pulse-json", &pulse]);
        if !update {
            argv.extend(["--gate", &flight_base, "--pulse-gate", &pulse_base]);
        }
        let out = f4tperf(&argv);
        match out.status.code() {
            Some(0) if update => {
                std::fs::copy(&flight, &flight_base).expect("rewrite baseline");
                std::fs::copy(&pulse, &pulse_base).expect("rewrite baseline");
            }
            Some(0) => {}
            Some(3) => failures.push(format!("{workload} ({args}):\n{}", stderr(&out))),
            _ => panic!("{workload}: {}\n{}", stdout(&out), stderr(&out)),
        }
    }
    for kind in ["flight", "pulse"] {
        let mut committed: Vec<String> = std::fs::read_dir(format!("{root}/results/{kind}"))
            .expect("baseline directory")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("UTF-8 name"))
            .collect();
        committed.sort();
        let mut gated: Vec<String> = GATED.iter().map(|(w, _)| format!("{w}.json")).collect();
        gated.sort();
        assert_eq!(committed, gated, "results/{kind}: one GATED row per committed baseline");
    }
    assert!(
        failures.is_empty(),
        "{}\nIf the change is intended, regenerate with UPDATE_GOLDEN=1 cargo test -p f4t-bench --test cli",
        failures.join("\n")
    );
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("spawn figures")
}

/// An unknown report name exits 2 and lists every valid name, each of
/// which is a committed `results/<name>.txt`; the reports that simulate
/// nothing print their committed file byte for byte.
#[test]
fn figures_rejects_unknown_names_and_reproduces_the_static_reports() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let out = figures(&["fig99_nosuch"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let mut listed: Vec<String> = stderr(&out)
        .rsplit("valid names: ")
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .map(|n| format!("{n}.txt"))
        .collect();
    let mut committed: Vec<String> = std::fs::read_dir(results)
        .expect("results directory")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("UTF-8 name"))
        .filter(|n| n.ends_with(".txt"))
        .collect();
    committed.sort();
    listed.sort();
    assert_eq!(listed, committed, "one report per results/*.txt");

    let statics = ["fig01_nginx_linux", "fig07_resources", "table1_summary"];
    let out = figures(&statics);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let want: String = statics
        .iter()
        .map(|n| std::fs::read_to_string(format!("{results}/{n}.txt")).expect("committed report"))
        .collect();
    assert_eq!(stdout(&out), want);
}
