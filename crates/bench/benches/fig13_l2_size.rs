//! Figure 13: run time as a function of the 2nd-level cache size
//! (16/32/64 KB) for Gauss (High-reuse) and Radix (Low-reuse), on all four
//! systems. NetCache keeps its 32 KB shared cache and 16 KB L2 advantage.
//!
//! Paper shape to check: larger L2s help Gauss on every system but never
//! enough — a 4× larger L2 on the baselines still loses to NetCache with
//! the base 16 KB L2 — while Radix barely moves (terrible locality)
//! except on DMON-I (fewer writebacks).

use netcache_bench::{emit, trend_rows};

const L2_KB: [u64; 3] = [16, 32, 64];

fn main() {
    let rows = trend_rows(
        |m| L2_KB.map(|kb| m.with_l2_kb(kb)),
        |reports| reports.iter().map(|r| r.cycles as f64).collect(),
    );
    emit(
        "fig13_l2_size",
        "Run time (pcycles) vs 2nd-level cache size",
        &["16 KB", "32 KB", "64 KB"],
        &rows,
    );
}
