//! Figure 6: run times of NetCache, LambdaNet, DMON-U and DMON-I on the
//! 16-node machine, normalized to NetCache (= 1.0), one group of bars per
//! application. Also prints the §5.1 extra system: NetCache *without* the
//! ring shared cache (the star-coupler-only machine), which the paper
//! reports as ≈ LambdaNet ± a few percent.
//!
//! Paper shape to check: NetCache ≤ everything; DMON-I worst overall (up
//! to ~2× on WF); LambdaNet ≤ DMON-U ≤ DMON-I; ties (≈1.0×) for
//! Em3d/FFT/Radix vs LambdaNet.

use netcache_bench::{app_rows, emit, machine, normalized};
use netcache_core::{Arch, RingConfig, SysConfig};

fn main() {
    let no_ring = SysConfig {
        ring: RingConfig::sized_kb(0),
        ..machine(Arch::NetCache)
    };
    let cfgs: Vec<SysConfig> = Arch::ALL
        .map(machine)
        .into_iter()
        .chain([no_ring])
        .collect();
    let rows = app_rows(&cfgs, |reports| {
        let cycles: Vec<u64> = reports.iter().map(|r| r.cycles).collect();
        let mut values = normalized(&cycles);
        values.push(cycles[0] as f64); // absolute NetCache cycles for reference
        values
    });
    emit(
        "fig06_runtime",
        "Run time normalized to NetCache (16 nodes, 32 KB shared cache)",
        &[
            "NetCache",
            "LambdaNet",
            "DMON-U",
            "DMON-I",
            "NC-noring",
            "NC cycles",
        ],
        &rows,
    );

    // The paper's headline averages for quick comparison.
    let avg = |col: usize| rows.iter().map(|r| r.values[col]).sum::<f64>() / rows.len() as f64;
    println!();
    println!(
        "averages vs NetCache: LambdaNet {:.2}x (paper ~1.26x), DMON-U {:.2}x (~1.32x), DMON-I {:.2}x (~1.50x), no-ring {:.2}x (~LambdaNet)",
        avg(1),
        avg(2),
        avg(3),
        avg(4)
    );
}
