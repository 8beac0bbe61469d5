//! # minpsid-metrics — an empty crate that holds a lock-file edge
//!
//! The metrics registry, Prometheus exposition, `/status` board and HTTP
//! server that lived here were deleted in PR 20: a run is watched through
//! the trace (`--progress`, `--trace-out`, `minpsid trace report`;
//! DESIGN.md "One way to watch a run").
//!
//! The crate itself stays, with no items, because `benchmark/Cargo.lock`
//! pins the `minpsid-trace → minpsid-metrics` edge and `benchmark/run.sh`
//! builds `--offline` without `--locked`: dropping the edge makes cargo
//! rewrite a file under `benchmark/`, which only a benchmark PR may touch
//! (`scripts/ci.sh` fails on that diff). ROADMAP 4(b) — the PR that
//! refreshes the lock — deletes this directory and the dependency line in
//! `crates/trace/Cargo.toml`.
