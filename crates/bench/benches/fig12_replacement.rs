//! Figure 12: 32 KB shared-cache hit rates under Random, LFU, LRU and
//! FIFO replacement.
//!
//! Paper shape to check: Random (the architecture's free, native policy)
//! achieves the highest hit rates almost everywhere — the counterintuitive
//! result the paper explains by the 4-block channels and the fact that all
//! processors insert into the shared cache.

use netcache_bench::{app_rows, emit, machine};
use netcache_core::{Arch, Replacement};

fn main() {
    let cfgs = Replacement::ALL.map(|pol| machine(Arch::NetCache).with_replacement(pol));
    let rows = app_rows(&cfgs, |reports| {
        reports
            .iter()
            .map(|r| 100.0 * r.shared_cache_hit_rate())
            .collect()
    });
    emit(
        "fig12_replacement",
        "32 KB shared-cache hit rates (%) by replacement policy",
        &["Random", "LFU", "LRU", "FIFO"],
        &rows,
    );
}
