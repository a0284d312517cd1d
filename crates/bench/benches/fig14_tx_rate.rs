//! Figure 14: run time as a function of the per-channel optical
//! transmission rate (5 / 10 / 20 Gbit/s) for Gauss and Radix on all four
//! systems. The ring length is rescaled with the inverse of the rate so
//! the shared-cache capacity stays at 32 KB (paper §5.4.2).
//!
//! Paper shape to check: 5 Gbit/s hurts the DMON systems the most
//! (arbitration slots double); NetCache and LambdaNet degrade least; the
//! hit/miss latency gap grows with the rate, so the shared cache's benefit
//! rises with faster optics.

use netcache_bench::{emit, trend_rows};

const RATES: [f64; 3] = [5.0, 10.0, 20.0];

fn main() {
    let rows = trend_rows(
        |m| RATES.map(|rate| m.with_rate_gbps(rate)),
        |reports| reports.iter().map(|r| r.cycles as f64).collect(),
    );
    emit(
        "fig14_tx_rate",
        "Run time (pcycles) vs optical transmission rate",
        &["5 Gbps", "10 Gbps", "20 Gbps"],
        &rows,
    );
}
