#!/usr/bin/env bash
# Builds the `pacer` CLI and pacerbench (the `pacerbench` bin of
# pacer-bench) from the root workspace, then runs pacerbench with the
# given arguments. Run it from the repository root:
#
#   bash crates/bench/src/bin/pacerbench/run.sh --workload replay-r3 --seed 1
#
# Both binaries land in one target directory, because pacerbench runs
# the `pacer` next to its own executable. CARGO_TARGET_DIR is honoured;
# by default the benchmark builds into `.bench_build`, apart from
# development builds in `target`.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p pacer-cli --bin pacer -p pacer-bench --bin pacerbench
exec "$CARGO_TARGET_DIR/release/pacerbench" "$@"
