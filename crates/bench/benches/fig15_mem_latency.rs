//! Figure 15: run time as a function of the memory block read latency
//! (44 / 76 / 108 pcycles) for Gauss and Radix on all four systems.
//!
//! Paper shape to check: rising memory latency hurts NetCache the least —
//! the key trend argument of the paper ("the performance benefits of our
//! architecture will continue to increase" as the processor/memory gap
//! widens).

use netcache_bench::{emit, trend_rows};

const LATENCIES: [u64; 3] = [44, 76, 108];

fn main() {
    let rows = trend_rows(
        |m| LATENCIES.map(|lat| m.with_mem_latency(lat)),
        |reports| {
            let slope =
                (reports[2].cycles as f64 - reports[0].cycles as f64) / reports[0].cycles as f64;
            let mut values: Vec<f64> = reports.iter().map(|r| r.cycles as f64).collect();
            values.push(100.0 * slope);
            values
        },
    );
    emit(
        "fig15_mem_latency",
        "Run time (pcycles) vs memory block read latency (last column: growth 44->108, %)",
        &["44 pc", "76 pc", "108 pc", "growth%"],
        &rows,
    );
}
