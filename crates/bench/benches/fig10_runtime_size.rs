//! Figure 10: run times for no / 16 KB / 32 KB / 64 KB shared caches,
//! normalized to the no-shared-cache machine.
//!
//! Paper shape to check: clear run-time improvements for everything except
//! Em3d, FFT, Radix and Water; WF improves the most (~47%); 32 KB is the
//! cost/benefit sweet spot.

use netcache_bench::{app_rows, emit, machine};
use netcache_core::Arch;

const SIZES_KB: [u64; 4] = [0, 16, 32, 64];

fn main() {
    let cfgs = SIZES_KB.map(|kb| machine(Arch::NetCache).with_ring_kb(kb));
    let rows = app_rows(&cfgs, |reports| {
        let base = reports[0].cycles.max(1) as f64;
        reports.iter().map(|r| r.cycles as f64 / base).collect()
    });
    emit(
        "fig10_runtime_size",
        "Run time normalized to the no-shared-cache machine",
        &["0 KB", "16 KB", "32 KB", "64 KB"],
        &rows,
    );
}
