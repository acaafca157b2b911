#!/usr/bin/env sh
# FtFlight perf-regression gate (DESIGN.md section 10).
#
# The reference workloads run with the FtFlight recorder at the
# default 1/64 sampling and are diffed against committed latency
# baselines by `f4tperf --gate` (total simulated cycles within +/-25%,
# every stage p99 within 1.25x + 16 cycles; exit 3 on regression).
# Every check is on the simulated clock, so the gate is exact and
# machine-independent; how fast the simulator itself runs is FtBench's
# record (ftbench/README.md), not a gate.
#
# Every workload is also gated on time-series *shape* (DESIGN.md
# section 15): the run records FtPulse windows and `--pulse-gate` diffs
# them against results/pulse/<workload>.json, so a mid-run degradation
# that averages out of the whole-run percentiles still fails CI.
#
# Usage:
#   sh scripts/perf_gate.sh              gate the current build
#   sh scripts/perf_gate.sh --update     regenerate results/flight/*.json
#                                        and results/pulse/*.json
#   sh scripts/perf_gate.sh --self-test  prove both gates trip: a
#                                        400-cycle span bias must exit 3,
#                                        and a 12-cycle bias deferred past
#                                        pulse window 4 must pass the
#                                        flight gate yet trip the shape
#                                        gate (exit 3)
set -eu

cd "$(dirname "$0")/.."

BULK="--workload bulk --cores 1 --size 4096 --warmup-ms 1 --duration-ms 1"
ECHO="--workload echo --cores 1 --flows 64 --size 128 --warmup-ms 1 --duration-ms 1"
SCALE="--workload scale --flows 2048 --size 256 --duration-ms 1"
# Hostile-network scenarios (DESIGN.md section 14): each storm workload
# is gated under a different impairment profile so the baselines pin
# loss-recovery latency, not just the clean path. Impairments are
# seeded and deterministic, so these baselines are byte-stable too.
INCAST="--workload incast --cores 2 --flows 24 --size 2048 --impair reorder --warmup-ms 1 --duration-ms 1"
CHURNSTORM="--workload churnstorm --cores 2 --flows 32 --impair lossy --warmup-ms 1 --duration-ms 2"
SLOWLORIS="--workload slowloris --cores 2 --flows 256 --impair jitter --warmup-ms 1 --duration-ms 1"
HTTPSTORM="--workload httpstorm --cores 2 --flows 256 --impair duplicate --warmup-ms 1 --duration-ms 1"
WORKLOADS="bulk echo scale incast churnstorm slowloris httpstorm"
SAMPLE=64            # flight sampling divisor the baselines were taken at

mode="${1:-gate}"

cargo build --release -q -p f4t-bench
PERF=./target/release/f4tperf

args_for() {
    case "$1" in
        bulk)       echo "$BULK" ;;
        echo)       echo "$ECHO" ;;
        scale)      echo "$SCALE" ;;
        incast)     echo "$INCAST" ;;
        churnstorm) echo "$CHURNSTORM" ;;
        slowloris)  echo "$SLOWLORIS" ;;
        httpstorm)  echo "$HTTPSTORM" ;;
        *)          echo "unknown workload $1" >&2; exit 2 ;;
    esac
}

case "$mode" in
gate)
    # Forensic artifacts land here; CI uploads the directory when a
    # gate job fails (see .github/workflows/ci.yml).
    ARTIFACTS="${PERF_GATE_ARTIFACTS:-target/ci-artifacts}"
    mkdir -p "$ARTIFACTS"
    status=0
    for w in $WORKLOADS; do
        base="results/flight/$w.json"
        pulse_base="results/pulse/$w.json"
        [ -s "$base" ] || { echo "FAIL: $base missing (run --update)" >&2; exit 2; }
        [ -s "$pulse_base" ] || { echo "FAIL: $pulse_base missing (run --update)" >&2; exit 2; }
        if $PERF $(args_for "$w") --flight-sample "$SAMPLE" --gate "$base" \
            --pulse-gate "$pulse_base" --pulse-json "$ARTIFACTS/$w-pulse.json" \
            --breakdown-json "$ARTIFACTS/$w-breakdown.json" \
            --dump-on-failure "$ARTIFACTS/$w-dump.json" >/dev/null; then
            echo "  $w: gate PASS"
        else
            rc=$?
            echo "FAIL: $w perf gate regression (f4tperf exit $rc)" >&2
            echo "      observed breakdown: $ARTIFACTS/$w-breakdown.json, pulse: $ARTIFACTS/$w-pulse.json, dump: $ARTIFACTS/$w-dump.json" >&2
            status=$rc
        fi
    done
    [ "$status" -eq 0 ] && echo "perf gate: OK"
    exit "$status"
    ;;

--update)
    mkdir -p results/flight results/pulse
    for w in $WORKLOADS; do
        # Pulse capping is semantics-preserving, so recording the pulse
        # baseline in the same run leaves the flight baseline
        # byte-identical.
        $PERF $(args_for "$w") --flight-sample "$SAMPLE" \
            --breakdown-json "results/flight/$w.json" \
            --pulse-json "results/pulse/$w.json" >/dev/null
        echo "wrote results/flight/$w.json results/pulse/$w.json"
    done
    ;;

--self-test)
    # The gate must actually trip: bias every recorded span by 400
    # cycles and demand the documented exit code 3, nothing else.
    base="results/flight/bulk.json"
    [ -s "$base" ] || { echo "FAIL: $base missing (run --update)" >&2; exit 2; }
    rc=0
    $PERF $BULK --flight-sample "$SAMPLE" --gate "$base" \
        --inject-slowdown 400 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "FAIL: injected slowdown exited $rc, expected 3" >&2
        exit 1
    fi
    echo "perf gate self-test: OK (injected slowdown trips exit 3)"

    # The shape gate must catch what the flight gate cannot: a
    # 12-cycle bias armed only after pulse window 4 stays inside the
    # whole-run 1.25x+16 envelope (flight gate passes) but shifts the
    # per-window p99 series past base + base/8 + 8 (pulse gate exit 3).
    pulse_base="results/pulse/bulk.json"
    [ -s "$pulse_base" ] || { echo "FAIL: $pulse_base missing (run --update)" >&2; exit 2; }
    rc=0
    $PERF $BULK --flight-sample "$SAMPLE" --gate "$base" \
        --inject-slowdown 12 --inject-slowdown-after 4 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: deferred slowdown tripped the flight gate alone (exit $rc)" >&2
        exit 1
    fi
    rc=0
    $PERF $BULK --flight-sample "$SAMPLE" --gate "$base" --pulse-gate "$pulse_base" \
        --inject-slowdown 12 --inject-slowdown-after 4 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "FAIL: deferred slowdown exited $rc, expected pulse gate exit 3" >&2
        exit 1
    fi
    echo "pulse gate self-test: OK (mid-run shift passes flight gate, trips shape gate)"
    ;;

*)
    echo "usage: sh scripts/perf_gate.sh [--update|--self-test]" >&2
    exit 2
    ;;
esac
