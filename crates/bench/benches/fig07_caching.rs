//! Figure 7: effectiveness of data caching in the NetCache architecture.
//! For each application, four bars:
//!
//! 1. read latency as % of run time *without* a shared cache;
//! 2. 32 KB shared-cache hit rate;
//! 3. % reduction of the average 2nd-level read-miss latency;
//! 4. % reduction of the total read latency.
//!
//! Paper shape to check: the Low/Moderate/High reuse classes — Em3d, FFT,
//! Radix below ~32% hit rate; Gauss, LU, Mg around 70%; the rest between —
//! and that Radix/Water/WF have small read-latency fractions.

use netcache_bench::{app_rows, emit, machine};
use netcache_core::{Arch, RingConfig, SysConfig};

fn main() {
    let with_ring = machine(Arch::NetCache);
    let no_ring = SysConfig {
        ring: RingConfig::sized_kb(0),
        ..with_ring
    };
    let rows = app_rows(&[no_ring, with_ring], |pair| {
        let (base, cached) = (&pair[0], &pair[1]);
        let rl_frac = 100.0 * base.read_latency_fraction();
        let hit = 100.0 * cached.shared_cache_hit_rate();
        let miss_lat_base = base.avg_shared_read_latency();
        let miss_lat_cached = cached.avg_shared_read_latency();
        let miss_red = if miss_lat_base > 0.0 {
            100.0 * (1.0 - miss_lat_cached / miss_lat_base)
        } else {
            0.0
        };
        let rl_base = base.total_read_stall() as f64;
        let rl_cached = cached.total_read_stall() as f64;
        let rl_red = if rl_base > 0.0 {
            100.0 * (1.0 - rl_cached / rl_base)
        } else {
            0.0
        };
        vec![rl_frac, hit, miss_red, rl_red]
    });
    emit(
        "fig07_caching",
        "Read-latency fraction, shared-cache hit rate, miss-latency and read-latency reductions (%)",
        &["RLofTotal%", "HitRate%", "MissLat-%", "ReadLat-%"],
        &rows,
    );
}
