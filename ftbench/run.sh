#!/bin/sh
# FtBench entry point: builds the benchmark (release, offline, into
# $CARGO_TARGET_DIR or ftbench/target) and runs it with the given arguments.
# `sh ftbench/run.sh --help` lists the modes; ftbench/README.md explains them.
set -eu
cd "$(dirname "$0")/.."

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="$commit+uncommitted"
fi
FTBENCH_COMMIT=${FTBENCH_COMMIT:-$commit}
FTBENCH_RUSTC=${FTBENCH_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}
export FTBENCH_COMMIT FTBENCH_RUSTC

cargo build --release --offline --quiet --manifest-path ftbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-ftbench/target}/release/ftbench" "$@"
