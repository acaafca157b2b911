#!/usr/bin/env sh
# Tier-1 verification: release build, full test suite, lint gate.
# Run from the repo root:  sh scripts/verify.sh
# The f4tperf/f4tdbg exit codes, their artifacts and the committed
# results/{flight,pulse} baselines are crates/bench/tests/cli.rs tests,
# run by the cargo test steps below.
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
# tests/paper_fidelity.rs asserts the Fig. 2, 15 and 16 shapes; this keeps every
# report running.
F4T_QUICK=1 cargo run --release -q -p f4t-bench --bin figures >/dev/null

echo "==> FtBench smoke (quick run of all four workloads + its contract tests)"
sh ftbench/ci.sh

echo "verify: OK"
