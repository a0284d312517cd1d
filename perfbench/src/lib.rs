//! Library half of `perfbench`: the workloads' cells, the pinned
//! digests, the span recorder, and the arithmetic the benchmark reports.
//! The runner itself is `src/main.rs`.

pub mod cells;
pub mod host;
pub mod layers;
pub mod output;
pub mod pins;
pub mod speed;
pub mod stats;
pub mod trace;
