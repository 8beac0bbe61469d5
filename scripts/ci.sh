#!/usr/bin/env bash
# CI gate: formatting, lints, the full workspace test suite (which runs the
# `experiments` binary on two pinned tables and checks its trace, and the
# `minpsid` binary's thread-count and cold-replay identities), the tiny
# sweep against results/, CLI smokes, and the benchmark smoke.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace)"
cargo test -q --workspace --offline

echo "== cargo test --release (interpreter, engine equivalence, one-campaign coverage probe)"
# the debug profile above compiles `debug_assert!` in and std checks
# `get_unchecked`; what ships is the release build, where the restore
# checks and the slot-addressing bounds are all that stand between a bad
# checkpoint image and an out-of-bounds read
cargo test --release -q --offline -p minpsid-interp
cargo test --release -q --offline --test engine_equivalence
# coverage is read from one campaign on the original program; the rule
# that rests on, at the scale it was first measured at (11 kernels x 3
# inputs x 1,000 faults, each also run on five protected programs)
cargo test --release -q --offline --test one_campaign_coverage -- --ignored

CLI="target/release/minpsid"
cargo build --release --offline -q -p minpsid-cli

echo "== exec_loop codegen (pc stays in a register in all five instantiations)"
# LLVM puts the loop's `pc` on the stack when one more value is live
# across it (clean loop -18 %, nothing fails), and deleting code from the
# loop trips that as readily as adding to it: every `pc += 1` is then an
# `incq` on a stack slot, every `pc += 4` an `addq`. Counted per
# instantiation, so a failure names the symbol that spilled
SPILLS="$(objdump -d --no-show-raw-insn "$CLI" | awk '
  /^[0-9a-f]+ <.*exec_loop.*>:$/ { sym = $2; n[sym] = 0; next }
  sym && /^$/ { sym = "" }
  sym && /(inc|add)q .*\(%rsp\)/ { n[sym]++ }
  END { for (s in n) print s, n[s] }')"
echo "$SPILLS"
test "$(wc -l <<<"$SPILLS")" = "5" \
  || { echo "expected five exec_loop instantiations"; exit 1; }
if grep -v ' 0$' <<<"$SPILLS"; then
  echo "exec_loop keeps pc on the stack: (inc|add)q on %rsp in the symbol(s) above"; exit 1
fi

echo "== tiny sweep against results/ (seed 42; the wall-clock tables excepted)"
# results/ is what the current code prints; a change that moves a table
# commits the new file with it
cargo build --release --offline -q -p minpsid-bench --bin experiments
SWEEP="$(mktemp -d)"
target/release/experiments --preset tiny --seed 42 --out "$SWEEP" 2>"$SWEEP/experiments.log" \
  || { cat "$SWEEP/experiments.log"; exit 1; }
for TABLE in "$SWEEP"/*.txt; do
  NAME="$(basename "$TABLE")"
  case "$NAME" in
    fig8_time_breakdown.txt | ablation_knapsack.txt | ablation_search_strategy.txt) continue ;;
  esac
  diff -u "results/$NAME" "$TABLE" || { echo "results/$NAME moved"; exit 1; }
done
rm -rf "$SWEEP"

echo "== unknown-flag smoke (a misspelt flag is a usage error, not a different run)"
# --workers, --status-addr, the retry scheduler's six, the flag audit's
# three, the early-stop width, the sampling profiler's three, the IR
# optimizer's --opt, the weighted-CFG export's --fn and propagate's --nth
# and --bit: a flag an older binary accepted is refused like a typo
for BAD in "--bogus-flag" "--workers 2" "--status-addr 127.0.0.1:1" \
           "--max-retries 0" "--quarantine-after 1" "--quarantine-cap 5" \
           "--injection-timeout-ms 5" "--chaos-panic-one-in 40" \
           "--chaos-timeout-one-in 40" "--golden-cache-cap 4" \
           "--incremental" "--checkpoint-interval 500" \
           "--ci-half-width 0.1" "--profile-interp" \
           "--profile-sample-every 64" "--profile-folded f" \
           "--opt" "--fn main" "--nth 3" "--bit 3"; do
  # shellcheck disable=SC2086
  if BAD_OUT="$("$CLI" fi hpccg --quick $BAD 2>&1)"; then
    echo "fi $BAD exited 0"; exit 1
  fi
  grep -q "unknown flag ${BAD%% *}" <<<"$BAD_OUT"
done

echo "== bad-value smoke (a value a flag cannot take is a usage error)"
# each is refused when the command line is parsed, before anything runs
for BAD in "--level nan" "--level 0" "--injections 0" "--per-inst 0" \
           "--threads 0" "--deadline-secs -1" "--max-inputs 0"; do
  BAD_STATUS=0
  # shellcheck disable=SC2086
  BAD_OUT="$("$CLI" minpsid hpccg --quick $BAD 2>&1)" || BAD_STATUS=$?
  test "$BAD_STATUS" = 1 || { echo "minpsid $BAD exited $BAD_STATUS"; exit 1; }
  grep -q "^error: " <<<"$BAD_OUT" || { echo "minpsid $BAD printed no error line"; exit 1; }
done

echo "== a site analyze names pastes into propagate"
# the fn::%inst of analyze's first row, with a dynamic instance and a bit,
# is a fault propagate runs as the campaign runs it
SITE="$("$CLI" analyze fft --top 1 --per-inst 6 --seed 42 --threads 1 \
  | awk -F' [|] ' '$1 ~ /^ +1 / { split($2, a, " : "); print a[1] }')"
test -n "$SITE" || { echo "analyze fft printed no first row"; exit 1; }
PROPAGATE="$("$CLI" propagate fft "$SITE:0:33")" \
  || { echo "propagate fft $SITE:0:33 failed"; exit 1; }
grep -q '^outcome: ' <<<"$PROPAGATE" \
  || { echo "propagate fft $SITE:0:33 printed no outcome"; exit 1; }

echo "== README .ir route (a .mc compiled to .ir runs like the .mc)"
# the README's fenced block that names prog.ir, run as written with the
# release binary on PATH; its stdout must be the .mc's own run
ROUTE="$(mktemp -d)"
awk '/^```/ { if (inb) { if (hit) { printf "%s", blk; exit } inb = 0; blk = ""; hit = 0 } else inb = 1; next }
     inb { blk = blk $0 "\n"; if (/prog\.ir/) hit = 1 }' README.md >"$ROUTE/route.sh"
grep -q "minpsid run prog.ir --args i:10" "$ROUTE/route.sh" \
  || { echo "README has no .ir route block"; exit 1; }
BIN="$PWD/target/release"
ROUTE_OUT="$(cd "$ROUTE" && PATH="$BIN:$PATH" bash -e route.sh)"
MC_OUT="$(cd "$ROUTE" && "$BIN/minpsid" run prog.mc --args i:10)"
test -n "$MC_OUT" && test "$ROUTE_OUT" = "$MC_OUT" \
  || { echo "README .ir route printed '$ROUTE_OUT', the .mc '$MC_OUT'"; exit 1; }
rm -rf "$ROUTE"

echo "== fast examples (each runs to exit 0 from the release build)"
# `cargo test` compiles examples/ but runs none of them; harden_benchmark
# takes minutes and is left to scripts/run_examples.sh
cargo build --release --offline -q -p minpsid-repro --example quickstart \
  --example incubative_instruction --example weighted_cfg --example golden_convergence
for EX in quickstart incubative_instruction weighted_cfg golden_convergence; do
  "target/release/examples/$EX" >/dev/null || { echo "example $EX failed"; exit 1; }
done

# The guards below end in `|| exit 1`: `set -e` does not stop on a
# command whose status `!` inverts, so without it a guard that finds
# something only prints.
echo "== oracle-isolation guard (the reference tree walk is reachable from tests only)"
# `minpsid_interp::oracle` is what the decoded engine is compared with
# (crates/interp/tests/decode_props.rs, tests/engine_equivalence.rs); a
# production call path into it would be a second interpreter again.
# Allowed: oracle.rs itself and `#[cfg(test)]` modules, which close a file.
! awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 }
       !in_tests && /oracle::/ { print FILENAME ":" FNR ": " $0; found = 1 }
       END { exit !found }' \
  $(find crates -path '*/src/*' -name '*.rs' ! -path crates/interp/src/oracle.rs) || exit 1

echo "== byte-codec guard (one checked reader and one FNV per dependency root)"
# how bytes are read, written and hashed is decided in two modules, one
# per root of the crate graph: crates/ir/src/bytes.rs (ir <- interp <-
# faultsim/core) and crates/store/src/bytes.rs (store <- journal). An
# FNV prime, a `struct Reader` or a LEB128 loop anywhere else in
# production code is a third codec starting.
! awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 }
       { line = tolower($0); gsub(/_/, "", line) }
       !in_tests && (line ~ /100000001b3/ || /struct Reader/ || /& 0x7f/) {
         print FILENAME ":" FNR ": " $0; found = 1 }
       END { exit !found }' \
  $(find crates -path '*/src/*' -name '*.rs' ! -path 'crates/bench/*' \
      ! -path crates/ir/src/bytes.rs ! -path crates/store/src/bytes.rs) || exit 1

echo "== persistence guard (a rename, an fsync or a truncation belongs to one of two primitives)"
# what becomes durable, and how, is decided in two modules:
# crates/store/src/lib.rs (two-phase publish, named put/get, quarantine)
# and crates/journal/src/wal.rs (the framed append log and its torn-tail
# truncation). Anywhere else in production code, one of these calls is a
# third persistence path starting.
! awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 }
       !in_tests && /fs::rename|sync_all|sync_data|set_len/ {
         print FILENAME ":" FNR ": " $0; found = 1 }
       END { exit !found }' \
  $(find crates -path '*/src/*' -name '*.rs' \
      ! -path crates/store/src/lib.rs ! -path crates/journal/src/wal.rs) || exit 1

echo "== config-key guard (no hand-written Debug on a config)"
# what a config contributes to a journal, store or table key is decided
# by the exhaustive destructure in its `key` method; a hand-written
# `Debug` on a `…Config` is how a hashed rendering used to decide it, and
# a field added to one silently did not participate.
! awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 }
       !in_tests && /impl (std::)?(fmt::)?Debug for [A-Za-z0-9_]*Config([^A-Za-z0-9_]|$)/ {
         print FILENAME ":" FNR ": " $0; found = 1 }
       END { exit !found }' \
  $(find crates -path '*/src/*' -name '*.rs') || exit 1

echo "== orphan-regressions guard (a proptest-regressions file sits beside its test)"
# proptest keeps `<test>.proptest-regressions` next to `<test>.rs`; one
# whose test file is gone replays nothing, and nothing fails to say so
ORPHANS="$(find crates tests -name '*.proptest-regressions' \
  \( -path 'crates/*/tests/*' -o -path 'tests/*' \) | while read -r F; do
    test -f "${F%.proptest-regressions}.rs" || echo "$F"
  done)"
test -z "$ORPHANS" || { echo "no test beside: $ORPHANS"; exit 1; }

echo "== repo benchmark smoke (all four workloads build, run and check their results)"
# the checks that gate a performance PR (BENCHMARK.json) also run here:
# the last line of standard output is the result object, and anything but
# `"correct":true` — a digest that moved, an unaccounted injection, a unit
# that resolves differently from a checkpoint — fails the gate
BENCH_OUT="$(bash benchmark/run.sh --smoke 2>/dev/null | tail -n 1)" || true
grep -q '"correct":true' <<<"$BENCH_OUT" \
  || { echo "benchmark smoke: $BENCH_OUT"; exit 1; }

echo "== repo benchmark tests (its own package, the shared target directory)"
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml --target-dir target
# both build --offline without --locked: fail on cargo's silent rewrite of a pinned edge
git diff --exit-code -- benchmark/Cargo.lock

echo "CI OK"
