//! Figure 9: total read latencies for no / 16 KB / 32 KB / 64 KB shared
//! caches, normalized to the no-shared-cache machine.
//!
//! Paper shape to check: every Moderate/High-reuse app reduces read
//! latency significantly (up to ~50% for SOR at 64 KB, average ~28% at
//! 32 KB); Low-reuse apps barely move.

use netcache_bench::{app_rows, emit, machine};
use netcache_core::Arch;

const SIZES_KB: [u64; 4] = [0, 16, 32, 64];

fn main() {
    let cfgs = SIZES_KB.map(|kb| machine(Arch::NetCache).with_ring_kb(kb));
    let rows = app_rows(&cfgs, |reports| {
        let base = reports[0].total_read_stall().max(1) as f64;
        reports
            .iter()
            .map(|r| r.total_read_stall() as f64 / base)
            .collect()
    });
    emit(
        "fig09_read_latency",
        "Total read latency normalized to the no-shared-cache machine",
        &["0 KB", "16 KB", "32 KB", "64 KB"],
        &rows,
    );
}
