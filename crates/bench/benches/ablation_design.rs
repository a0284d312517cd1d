//! Ablations of the NetCache's two §3.4 design mechanisms, quantifying
//! what the paper argues qualitatively:
//!
//! 1. **Dual-path reads** — "our protocol starts read transactions on both
//!    the star coupler and ring subnetworks so that a read miss in the
//!    shared cache takes no longer than a direct access to remote memory.
//!    If reads were only started on the ring subnetwork, shared cache
//!    misses would take half a roundtrip longer (on average)."
//! 2. **The update-race FIFO window** — the correctness mechanism delaying
//!    ring reads of freshly-updated blocks by up to two roundtrips; its
//!    cost should be small (the paper sizes the queue at 54 entries and
//!    never reports it as a bottleneck).

use netcache_bench::{app_rows, emit, machine};
use netcache_core::{Arch, SysConfig};

fn variant(base: &SysConfig, dual: bool, window: bool) -> SysConfig {
    let mut cfg = *base;
    cfg.ring.dual_path_reads = dual;
    cfg.ring.race_window = window;
    cfg
}

fn main() {
    let base = machine(Arch::NetCache);
    let cfgs = [
        variant(&base, true, true),  // the architecture
        variant(&base, false, true), // ring-probe-first reads
        variant(&base, true, false), // no race window (unsafe)
    ];
    let rows = app_rows(&cfgs, |reports| {
        let base_cycles = reports[0].cycles as f64;
        vec![
            reports[0].cycles as f64,
            100.0 * (reports[1].cycles as f64 / base_cycles - 1.0),
            100.0 * (reports[2].cycles as f64 / base_cycles - 1.0),
            reports[0]
                .ring
                .map(|r| r.window_delays as f64)
                .unwrap_or(0.0),
        ]
    });
    emit(
        "ablation_design",
        "NetCache §3.4 mechanism ablations (deltas vs the real design, %)",
        &["base cyc", "serial-rd +%", "no-window +%", "win delays"],
        &rows,
    );
    println!();
    println!(
        "serial-rd: read misses probe the ring before requesting memory \
         (paper predicts ~half a roundtrip of extra miss latency).\n\
         no-window: disables the race FIFO — any speedup is the price the \
         real design pays for correctness."
    );
}
