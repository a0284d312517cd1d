//! Figure 5: speedups of the 16-node NetCache multiprocessor (32 KB shared
//! cache) over a 1-node run of the same program.
//!
//! Paper shape to check: most apps reach good speedups; Em3d is
//! *superlinear* (terrible single-node cache behaviour); WF is poor
//! (barrier overhead / load imbalance); CG and LU are modest.

use netcache_apps::AppId;
use netcache_bench::{default_scale, emit, machine, procs, Row};
use netcache_core::{speedup, Arch};

fn main() {
    let p = procs();
    let rows: Vec<Row> = AppId::ALL
        .iter()
        .map(|&app| {
            let (t1, tp, s) = speedup(&machine(Arch::NetCache), app, p, default_scale(app), None);
            Row {
                label: app.name().to_string(),
                values: vec![t1 as f64, tp as f64, s],
            }
        })
        .collect();
    emit(
        "fig05_speedup",
        &format!("Speedup of the {p}-node NetCache machine (paper Fig. 5)"),
        &["T(1)", "T(p)", "speedup"],
        &rows,
    );
}
