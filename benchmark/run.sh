#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repo root.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds N]
#                    [--trace 0|1 | --traced] [--smoke] [--selfcheck]
#
# The last line of standard output is the result: one JSON object with
# `correct`, `attempted`, `failed` and `metrics`. Cargo's own output goes
# to standard error.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Without CARGO_TARGET_DIR the repo's own target directory is used, so
# the benchmark shares compiled crates with `cargo build --release`.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

BENCH_GIT_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT
exec "$target/release/minpsid-benchmark" "$@"
