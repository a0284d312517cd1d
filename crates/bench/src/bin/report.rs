//! `report` — one-screen cross-architecture comparison at the bench
//! scales: run times of all four systems for all twelve applications,
//! plus the NetCache machine's shared-cache and stall profile.
//!
//! ```text
//! cargo run --release -p netcache-bench --bin report
//! ```

use netcache_apps::AppId;
use netcache_bench::{machine, run};
use netcache_core::Arch;

fn main() {
    let cells = AppId::ALL
        .iter()
        .flat_map(|&app| Arch::ALL.map(|arch| (machine(arch), app)))
        .collect();
    let reports = run(cells);
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}  {:>6} {:>7} {:>6}",
        "app", "NetCache", "LambdaNet", "DMON-U", "DMON-I", "hit%", "rdlat%", "sync%"
    );
    for (app, reports) in AppId::ALL.iter().zip(reports.chunks(Arch::ALL.len())) {
        let cycles: Vec<u64> = reports.iter().map(|r| r.cycles).collect();
        // Arch::ALL starts with NetCache, whose profile the table shows.
        let r = &reports[0];
        let profile = (
            100.0 * r.shared_cache_hit_rate(),
            100.0 * r.read_latency_fraction(),
            100.0 * r.sync_fraction(),
        );
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}  {:>6.1} {:>7.1} {:>6.1}",
            app.name(),
            cycles[0],
            cycles[1],
            cycles[2],
            cycles[3],
            profile.0,
            profile.1,
            profile.2
        );
    }
}
