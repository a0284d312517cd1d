//! Figure 8: shared-cache hit rates for 16, 32 and 64 KB shared caches
//! (64 / 128 / 256 cache channels) on the 16-node NetCache machine.
//!
//! Paper shape to check: Low-reuse apps flat and low; High-reuse apps flat
//! and high (16 KB already holds the joint hot set); Moderate apps climb
//! with size (except WF, whose joint working set dwarfs every size).

use netcache_bench::{app_rows, emit, machine};
use netcache_core::Arch;

const SIZES_KB: [u64; 3] = [16, 32, 64];

fn main() {
    let cfgs = SIZES_KB.map(|kb| machine(Arch::NetCache).with_ring_kb(kb));
    let rows = app_rows(&cfgs, |reports| {
        reports
            .iter()
            .map(|r| 100.0 * r.shared_cache_hit_rate())
            .collect()
    });
    emit(
        "fig08_cache_size",
        "Shared-cache hit rates (%) vs capacity, 16 nodes",
        &["16 KB", "32 KB", "64 KB"],
        &rows,
    );
}
