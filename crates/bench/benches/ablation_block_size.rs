//! §5.3.2 ablation: shared-cache block (line) size 64 B vs 128 B at a
//! constant 32 KB capacity (128-byte lines halve the frame count).
//!
//! Paper shape to check: 128 B lines never help and hurt the apps with
//! poor spatial locality the most (paper: Em3d −33%, CG −12%) — pollution
//! wins over prefetching in a small shared cache.

use netcache_bench::{app_rows, emit, machine};
use netcache_core::{Arch, RingConfig, SysConfig};

fn main() {
    let base = machine(Arch::NetCache);
    let wide = SysConfig {
        ring: RingConfig {
            block_bytes: 128,
            frames_per_channel: 2,
            ..base.ring
        },
        ..base
    };
    let rows = app_rows(&[base, wide], |reports| {
        let penalty = 100.0 * (reports[1].cycles as f64 / reports[0].cycles as f64 - 1.0);
        vec![
            reports[0].cycles as f64,
            reports[1].cycles as f64,
            penalty,
            100.0 * reports[0].shared_cache_hit_rate(),
            100.0 * reports[1].shared_cache_hit_rate(),
        ]
    });
    emit(
        "ablation_block_size",
        "64 B vs 128 B shared-cache lines at 32 KB (penalty%: positive = 128 B is worse)",
        &["64B cyc", "128B cyc", "penalty%", "hit64%", "hit128%"],
        &rows,
    );
}
