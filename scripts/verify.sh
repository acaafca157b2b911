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

echo "==> recorder-plumbing regrowth gate (DESIGN.md section 8.2 / 10.2)"
# Recorders reach the data path through one `Probe` handle and FtFlight
# stamps ride inside the queue element they describe. Five bare options
# survive: the four FtBench binds plus `Engine::checker_mut`'s return type.
n=$(grep -E 'Option<&mut (InvariantChecker|FlightRecorder|Journal)>' crates/core/src/*.rs | wc -l)
[ "$n" -le 5 ] || {
    echo "FAIL: $n recorder-typed Option<&mut _> in crates/core/src (max 5): pass the Probe handle instead, DESIGN.md section 8.2" >&2
    exit 1
}
if grep -rnE '_stamps|enable_flight|tick_checked|tick_flight' crates/core/src; then
    echo "FAIL: a stamp-mirror FIFO or a per-recorder tick entry is back: stamps ride in the queue element and each module has one tick_probed, DESIGN.md section 8.2 / 10.2" >&2
    exit 1
fi

echo "==> JSON codec regrowth gate (DESIGN.md section 7)"
# Every writer escapes and every gate/tool reads through f4t_sim::json.
# The one exception is f4t-lint's json_escape: that crate keeps an empty
# [dependencies] by design.
if grep -rnE 'fn (json_str|json_string|json_f64|scan_string|balanced|find_key|top_level_fields|parse_json_string|parse_string_array)\b|mod flatjson' crates src tests; then
    echo "FAIL: a hand-rolled JSON escaper or reader is back: use f4t_sim::json, DESIGN.md section 7" >&2
    exit 1
fi

echo "==> one-wire regrowth gate (DESIGN.md section 14.1)"
# Two engines talk through f4t_system::DuplexLink: F4tSystem calls
# DuplexLink::carry, tests and figure harnesses step an EnginePair, and
# every-Nth loss is an Impairments field. The named exceptions keep their
# own segment loops: cycle-windowed fault closures (failure_injection),
# frame-by-frame parsing (wire_interop), a pinned reorder schedule
# (end_to_end) and single-engine ideal peers (engine_props,
# journal_forensics).
hits=$(grep -rl 'BytePacer::for_link' --include=*.rs crates src tests examples \
    | grep -vx 'crates/system/src/link.rs' || true)
[ -z "$hits" ] || {
    echo "FAIL: a hand-rolled link pacer is back in $hits: use DuplexLink, DESIGN.md section 14.1" >&2
    exit 1
}
if grep -rn 'DropPolicy\|struct Ferry' --include=*.rs crates src tests examples; then
    echo "FAIL: a second loss model is back: use Impairments on DuplexLink, DESIGN.md section 14.1" >&2
    exit 1
fi
hits=$(grep -rlE '\.pop_tx\(\)' tests examples crates/bench/src \
    | grep -vxE 'tests/(failure_injection|wire_interop|end_to_end|engine_props|journal_forensics)\.rs' \
    || true)
[ -z "$hits" ] || {
    echo "FAIL: a hand-rolled engine-pair loop is back in $hits: step an EnginePair, DESIGN.md section 14.1" >&2
    exit 1
}

echo "==> instrument-substrate regrowth gate (DESIGN.md section 7)"
# Every recorder stores entries in f4t_sim::Ring and fingerprints them
# with f4t_sim::digest; each derives its own deltas, so the engine keeps
# no shadow copy of a module's running totals. The f4tlint fixture keeps
# its own FNV basis: it is a lint input, not workspace code.
if grep -rnE 'TraceCounters|trace_prev|PulseCounters|pulse_prev|DualPortRam|fold_shard_digests' crates src tests; then
    echo "FAIL: a shadow counter, a second port model or a second digest fold is back: recorders derive their own deltas, DESIGN.md section 7" >&2
    exit 1
fi
hits=$(grep -rln 'cbf2_9ce4' --include=*.rs crates src tests \
    | grep -vxE 'crates/sim/src/digest.rs|crates/lint/fixtures/float_digest.rs' || true)
[ -z "$hits" ] || {
    echo "FAIL: a hand-written FNV-1a is back in $hits: use f4t_sim::digest, DESIGN.md section 7" >&2
    exit 1
}
hits=$(grep -rn 'struct Ring\b' crates | grep -v '^crates/sim/src/ring.rs:' || true)
[ -z "$hits" ] || {
    echo "FAIL: a second ring type is back ($hits): use f4t_sim::Ring, DESIGN.md section 7" >&2
    exit 1
}

echo "==> one-event-handler / one-segment-builder regrowth gate (DESIGN.md section 3.1)"
# The event-table merge is EventView::accumulate, shared by the FPC and the
# memory manager, and every FPU segment comes from fpu::segment (whose
# signature line also reads `TxRequest {`, so it is left out of the count).
if grep -n 'fn accumulate' crates/core/src/memory_manager.rs; then
    echo "FAIL: the memory manager has its own event merge again: call EventView::accumulate, DESIGN.md section 3.1" >&2
    exit 1
fi
n=$(grep -rn 'dup_ack_gen.saturating_add' crates/core/src | wc -l)
[ "$n" -eq 1 ] || {
    echo "FAIL: $n copies of the event-table merge in crates/core/src (want 1, EventView::accumulate), DESIGN.md section 3.1" >&2
    exit 1
}
n=$(grep 'TxRequest {' crates/core/src/fpu.rs | grep -vc '^fn segment(' || true)
[ "$n" -eq 1 ] || {
    echo "FAIL: $n TxRequest literals in crates/core/src/fpu.rs (want 1, in fpu::segment), DESIGN.md section 3.1" >&2
    exit 1
}

echo "==> one-idle-routine regrowth gate (DESIGN.md section 9.1)"
# An FPC cycle with nothing to dispatch is accounted by Fpc::skip_cycles,
# which fast-forward runs for a window and tick_probed's quiet path for one
# cycle. The only other fifo_empty count is dispatch's bubble on a full tick.
n=$(grep -c 'stall_fifo_empty +=' crates/core/src/fpc.rs || true)
[ "$n" -eq 2 ] || {
    echo "FAIL: $n stall_fifo_empty increments in crates/core/src/fpc.rs (want 2: dispatch's bubble and Fpc::skip_cycles), DESIGN.md section 9.1" >&2
    exit 1
}

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

echo "==> f4tlint (FtProve design-rule scan, per-pass timings)"
cargo run --release -q -p f4t-lint --bin f4tlint -- --timings
cargo run --release -q -p f4t-lint --bin f4tlint -- --format json >/dev/null

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
