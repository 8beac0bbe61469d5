#!/usr/bin/env bash
# Regenerate every table/figure of the paper into results/: one sweep,
# each table written to results/<table>.txt, the progress log to
# results/experiments.log.
# Usage: scripts/run_experiments.sh [preset] [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

preset="${1:-tiny}"
seed="${2:-42}"

cargo build --release -p minpsid-bench --bin experiments

mkdir -p results
echo "[experiments] preset=$preset seed=$seed $(date +%T)"
./target/release/experiments --preset "$preset" --seed "$seed" --out results \
  2> results/experiments.log
echo "[experiments] all done $(date +%T)"
