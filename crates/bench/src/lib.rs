//! # lambek-bench — the experiment harness
//!
//! Criterion benchmarks regenerating every figure and construction of the
//! paper's evaluation narrative. The benches live in `benches/`, one per
//! figure or construction; README.md ("Paper ↔ code") maps them to the
//! paper, and the `BENCH_*.json` files at the repository root record
//! measured runs. Run with `cargo bench`.
