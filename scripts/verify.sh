#!/usr/bin/env sh
# Tier-1 verification: release build, full test suite, lint gate.
# Run from the repo root:  sh scripts/verify.sh
# Extra smoke: drive the telemetry path end-to-end (fast echo run) and
# check that the metrics/trace JSON come out non-trivial.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (workspace)"
cargo build --release --workspace

echo "==> cargo build --release (FtBench, against the changed crates)"
# The benchmark is a workspace of its own binding to the public module
# APIs (Fpc/Scheduler/TimerWheel/Engine signatures): a drift there must
# fail in the first minute, not at the FtBench smoke that ends this
# script.
cargo build --release --manifest-path ftbench/Cargo.toml

echo "==> f4tlint (FtProve design-rule scan and regrowth rows, per-pass timings)"
# Right after the builds, before minutes of tests: the design rules and
# the regrowth rows of crates/lint/src/rules.rs (one Probe, one wire, one
# Worker, ...; DESIGN.md section 13) fail here in seconds.
cargo run --release -q -p f4t-lint --bin f4tlint -- --timings
cargo run --release -q -p f4t-lint --bin f4tlint -- --format json >/dev/null

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> fast-forward equivalence (bit-identical, FtVerify attached)"
cargo test -q --release -p f4t --test fastforward_equiv

echo "==> cargo test -q --release --lib (unit tests with debug assertions compiled out)"
# A test that leans on a debug_assert! (or on overflow checks) passes in
# the debug run above and fails only here.
cargo test -q --release --workspace --lib

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> figures smoke (every figure and table report, quick windows)"
# tests/paper_fidelity.rs asserts three figures' shapes; this keeps every
# report running.
F4T_QUICK=1 cargo run --release -q -p f4t-bench --bin figures >/dev/null

echo "==> f4tperf --check smoke (FtVerify hazard checker)"
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload bulk --cores 2 --size 1024 --duration-ms 1 --check >/dev/null
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload echo --cores 2 --flows 256 --duration-ms 1 --check >/dev/null

echo "==> f4tperf --telemetry smoke"
out="$(mktemp -d)"
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload echo --cores 2 --flows 256 --duration-ms 1 \
    --telemetry "$out/telem.json" --trace-depth 4096 >/dev/null
for f in "$out/telem.json" "$out/telem.trace.json"; do
    [ -s "$f" ] || { echo "FAIL: $f missing or empty" >&2; exit 1; }
done
grep -q 'engine.fpc0.stall.fifo_empty' "$out/telem.json" \
    || { echo "FAIL: stall counters missing from telemetry" >&2; exit 1; }
grep -q 'traceEvents' "$out/telem.trace.json" \
    || { echo "FAIL: trace file is not Chrome-trace JSON" >&2; exit 1; }

echo "==> f4tperf FtFlight / pcap / prometheus smoke"
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload echo --cores 2 --flows 256 --duration-ms 1 \
    --breakdown-json "$out/breakdown.json" --pcap "$out/cap.pcap" \
    --telemetry "$out/telem.prom" --telemetry-format prometheus >/dev/null
grep -q '"p99_cycles"' "$out/breakdown.json" \
    || { echo "FAIL: breakdown JSON lacks stage p99s" >&2; exit 1; }
grep -q '# TYPE' "$out/telem.prom" \
    || { echo "FAIL: prometheus export lacks TYPE lines" >&2; exit 1; }
[ "$(od -An -tx1 -N4 "$out/cap.pcap" | tr -d ' ')" = "d4c3b2a1" ] \
    || { echo "FAIL: pcap magic wrong" >&2; exit 1; }
echo "==> FtJournal / f4tdbg forensic smoke"
# A planted LUT misdirect must produce a black-box dump (exit 1), and
# the dump must replay through f4tdbg: digest MATCH, filtered print,
# self-diff identical (DESIGN.md section 11).
rc=0
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload scale --flows 128 --size 256 --duration-ms 1 \
    --check --inject-fault lut-misdirect \
    --dump-on-failure "$out/fault-dump.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: planted fault exited $rc, expected 1" >&2; exit 1; }
[ -s "$out/fault-dump.json" ] || { echo "FAIL: black-box dump missing" >&2; exit 1; }
cargo run --release -q -p f4t-bench --bin f4tdbg -- \
    digest "$out/fault-dump.json" | grep -q MATCH \
    || { echo "FAIL: dump digest does not replay" >&2; exit 1; }
cargo run --release -q -p f4t-bench --bin f4tdbg -- \
    print "$out/fault-dump.json" --module scheduler >/dev/null \
    || { echo "FAIL: f4tdbg print failed" >&2; exit 1; }
cargo run --release -q -p f4t-bench --bin f4tdbg -- \
    diff "$out/fault-dump.json" "$out/fault-dump.json" >/dev/null \
    || { echo "FAIL: dump does not diff clean against itself" >&2; exit 1; }
# A healthy journal+watchdog run must stay clean (exit 0).
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload echo --cores 2 --flows 256 --duration-ms 1 \
    --journal --watchdog >/dev/null \
    || { echo "FAIL: healthy journal+watchdog run failed" >&2; exit 1; }
rm -rf "$out"

echo "==> FtStorm hostile-network smoke (scenario x impairment)"
# The full matrix lives in tests/scenario_matrix.rs (runs under cargo
# test above); this re-drives one cell end-to-end through the CLI with
# the checker, journal, and watchdog armed.
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload incast --cores 2 --flows 24 --size 2048 --impair burst-loss \
    --warmup-ms 1 --duration-ms 1 --check --journal --watchdog >/dev/null

echo "==> FtPulse time-series smoke (threaded, checked)"
# DESIGN.md section 15: a sharded pulse run must merge per-shard series
# deterministically, and the document must render through f4tdbg pulse.
out="$(mktemp -d)"
cargo run --release -q -p f4t-bench --bin f4tperf -- \
    --workload scale --flows 256 --size 1024 --duration-ms 1 \
    --threads 2 --pulse --check \
    --pulse-json "$out/pulse.json" >/dev/null
grep -q '"merged_digest"' "$out/pulse.json" \
    || { echo "FAIL: pulse document lacks merged digest" >&2; exit 1; }
grep -q '"goodput_bytes"' "$out/pulse.json" \
    || { echo "FAIL: pulse document lacks series" >&2; exit 1; }
cargo run --release -q -p f4t-bench --bin f4tdbg -- \
    pulse "$out/pulse.json" >/dev/null \
    || { echo "FAIL: f4tdbg pulse cannot render the document" >&2; exit 1; }
rm -rf "$out"

echo "==> FtFlight perf gate + FtPulse shape gate (committed baselines + self-tests)"
sh scripts/perf_gate.sh
sh scripts/perf_gate.sh --self-test

echo "==> FtBench smoke (quick run of all four workloads + its contract tests)"
sh ftbench/ci.sh

echo "verify: OK"
