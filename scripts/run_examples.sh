#!/usr/bin/env bash
# Build and run every example binary (smoke test for the public API).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --examples
for ex in quickstart incubative_instruction weighted_cfg error_propagation golden_convergence; do
  echo "== example: $ex =="
  "./target/release/examples/$ex"
  echo
done
# harden_benchmark takes minutes; run it on the smallest kernel
echo "== example: harden_benchmark pathfinder =="
"./target/release/examples/harden_benchmark" pathfinder
