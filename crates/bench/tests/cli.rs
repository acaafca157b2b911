//! Exit-code contract tests for the `f4tperf` CLI.
//!
//! The contract (also printed by `--help`):
//!   * `0` — run completed, no FtVerify violations;
//!   * `1` — FtVerify found design-rule violations (`--check`);
//!   * `2` — usage error (bad flag/value) or I/O error;
//!   * `3` — perf-gate regression (`--gate`).
//!
//! CI scripts and the figure harnesses branch on these, so they are
//! pinned here by spawning the real binary (offline, no network).

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

#[test]
fn telemetry_io_error_exits_two() {
    let out = f4tperf(&[
        "--workload", "scale", "--flows", "64", "--size", "128",
        "--duration-ms", "1", "--telemetry", "/nonexistent-dir/t.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("error: writing"), "{}", stderr(&out));
}

#[test]
fn clean_checked_run_exits_zero() {
    let out = f4tperf(&["--warmup-ms", "1", "--duration-ms", "1", "--check"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 violation"), "{}", stdout(&out));
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

#[test]
fn gate_passes_against_own_baseline_and_trips_on_slowdown() {
    let base = tmp("baseline.json");
    let out = f4tperf(&[SMALL_SCALE, &["--breakdown-json", &base]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Identical deterministic run vs its own baseline: must pass.
    let out = f4tperf(&[SMALL_SCALE, &["--gate", &base]].concat());
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("perf gate          PASS"), "{}", stdout(&out));

    // A 400-cycle span bias must trip the documented exit code 3, and
    // every violation line must name the workload, stage, metric, the
    // observed and baseline values, and the allowed bound — this format
    // is what CI log scrapers key on, so it is pinned here.
    let out = f4tperf(&[SMALL_SCALE, &["--gate", &base, "--inject-slowdown", "400"]].concat());
    assert_eq!(out.status.code(), Some(3), "{}\n{}", stdout(&out), stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("perf gate FAIL"), "{err}");
    let violation = err
        .lines()
        .find(|l| l.contains("metric=p99_cycles"))
        .unwrap_or_else(|| panic!("no pinned-format p99 violation line in:\n{err}"));
    assert!(violation.contains("workload=scale"), "{violation}");
    assert!(violation.contains("stage="), "{violation}");
    assert!(violation.contains("observed="), "{violation}");
    assert!(violation.contains("baseline="), "{violation}");
    assert!(violation.contains("allowed<="), "{violation}");

    // A missing baseline is an I/O error (2), not a regression (3).
    let out = f4tperf(&[SMALL_SCALE, &["--gate", "/nonexistent-dir/base.json"]].concat());
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    std::fs::remove_file(&base).ok();
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
    let out = f4tperf(&[SMALL_SCALE, &["--watchdog"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(!stderr(&out).contains("watchdog raised"), "{}", stderr(&out));
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

#[test]
fn prometheus_telemetry_format() {
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
        &["--inject-slowdown-after", "4"][..], // needs --inject-slowdown
        &["--workload", "scale", "--threads", "2", "--pulse-gate", "base.json"][..],
        &[
            "--workload", "scale", "--threads", "2",
            "--inject-slowdown", "12", "--inject-slowdown-after", "4",
        ][..],
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

    let out = f4tdbg(&["pulse", "/nonexistent-dir/pulse.json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    std::fs::remove_file(&doc).ok();
    std::fs::remove_file(&other).ok();
}

/// The sharded path records per-shard pulse series and a merged digest.
#[test]
fn threaded_pulse_smoke() {
    let out = f4tperf(&[SMALL_SCALE, &["--threads", "2", "--pulse", "--check"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("pulse"), "{text}");
    assert!(text.contains("windows recorded"), "{text}");
}

/// The headline FtPulse acceptance criterion: a slowdown injected only
/// after pulse window 4 is invisible to the end-of-run flight gate
/// (whole-run percentiles stay inside the 1.25x+16 envelope) but the
/// shape-aware pulse gate flags the degraded windows and exits 3.
#[test]
fn pulse_gate_catches_mid_run_shift_the_flight_gate_misses() {
    let flight_base = tmp("pulse-flight-base.json");
    let pulse_base = tmp("pulse-shape-base.json");
    const BULK: &[&str] = &["--workload", "bulk", "--duration-ms", "1", "--pulse-interval", "1024"];

    let out = f4tperf(
        &[BULK, &["--flight", "--breakdown-json", &flight_base, "--pulse-json", &pulse_base]]
            .concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));

    // Deferred bias, both gates armed: flight gate passes, pulse gate trips.
    let out = f4tperf(
        &[BULK, &[
            "--inject-slowdown", "12", "--inject-slowdown-after", "4",
            "--gate", &flight_base, "--pulse-gate", &pulse_base,
        ]]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(3), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("perf gate          PASS"), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("pulse gate FAIL"), "{err}");
    let violation = err
        .lines()
        .find(|l| l.contains("metric=window_p99_cycles"))
        .unwrap_or_else(|| panic!("no windowed p99 violation line in:\n{err}"));
    assert!(violation.contains("workload=bulk"), "{violation}");
    assert!(violation.contains("window="), "{violation}");
    assert!(violation.contains("allowed<="), "{violation}");

    // Same biased run with only the flight gate: it sails through (0).
    let out = f4tperf(
        &[BULK, &[
            "--inject-slowdown", "12", "--inject-slowdown-after", "4",
            "--gate", &flight_base,
        ]]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));

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

/// The perf gate tolerates ±25 % cycles, so by itself it does not pin the
/// schedule. This does: the gate's own `SCALE` and `BULK` runs must
/// reproduce the committed flight and pulse baselines byte for byte — the
/// one-shard `ScaleShard` schedule is the single-engine run, and the
/// shared reporters write the single-engine document shape.
#[test]
fn gate_runs_reproduce_committed_baselines_byte_for_byte() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let script = std::fs::read_to_string(format!("{root}/scripts/perf_gate.sh")).expect("perf_gate.sh");
    for (var, workload) in [("SCALE", "scale"), ("BULK", "bulk")] {
        let prefix = format!("{var}=\"");
        let line = script
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("perf_gate.sh defines no {var}"));
        let gate_args: Vec<&str> = line.trim_end_matches('"').split_whitespace().collect();
        let flight = tmp(&format!("golden-{workload}-flight.json"));
        let pulse = tmp(&format!("golden-{workload}-pulse.json"));
        let out = f4tperf(
            &[&gate_args[..], &["--flight-sample", "64", "--breakdown-json", &flight, "--pulse-json", &pulse]]
                .concat(),
        );
        assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
        for (got, committed) in [(&flight, "flight"), (&pulse, "pulse")] {
            let committed = format!("{root}/results/{committed}/{workload}.json");
            assert!(
                std::fs::read(got).expect("artifact written") == std::fs::read(&committed).expect("baseline"),
                "{workload}: {got} differs from {committed}"
            );
            std::fs::remove_file(got).ok();
        }
    }
}
