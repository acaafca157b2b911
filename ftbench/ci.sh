#!/bin/sh
# FtBench smoke check for CI, well under 90 s on a 2-CPU host once built:
# a --quick run of the whole set (quarter size, 1 rep, outputs checked,
# record marked non-comparable) and the benchmark's own tests, which
# reuse that record. Wiring this into .github/workflows is a later PR's
# job (the workflow file lies outside this benchmark's paths).
set -eu
cd "$(dirname "$0")/.."
sh ftbench/run.sh --quick --out-dir ftbench/out/ci
FTBENCH_QUICK_RECORD=ftbench/out/ci/BENCH.json \
    cargo test --release --offline --quiet --manifest-path ftbench/Cargo.toml
echo "ftbench ci: OK"
