//! One-call experiment helpers used by the examples, tests and benches.

use crate::config::SysConfig;
use crate::machine::{run_workload, EngineScratch};
use crate::metrics::RunReport;
use crate::store::Store;
use crate::sweep::{default_jobs, NoopObserver, Sweep, SweepPoint};
use netcache_apps::{AppId, Workload};

/// Runs one workload on one machine configuration (statically-dispatched
/// engine; see [`crate::machine::run_streams`]).
pub fn run_app(cfg: &SysConfig, workload: &Workload) -> RunReport {
    run_workload(cfg, workload, &mut EngineScratch::new())
}

/// Runs the same app at the same scale on 1 node and on `procs` nodes and
/// returns `(t1, tp, speedup)` — the paper's Fig. 5 metric. The two runs
/// are one two-cell [`Sweep`] on every host core, read through `store`
/// when one is given (see [`crate::store`]), so a repeated Fig. 5 row
/// costs two lookups.
pub fn speedup(
    cfg: &SysConfig,
    app: AppId,
    procs: usize,
    scale: f64,
    store: Option<&Store>,
) -> (u64, u64, f64) {
    let mut uni = SysConfig { nodes: 1, ..*cfg };
    // A 1-node ring would be degenerate; the uniprocessor baseline has
    // no network at all.
    uni.ring.channels = 0;
    let par = SysConfig {
        nodes: procs,
        ..*cfg
    };
    let sweep = Sweep::from_points(vec![
        SweepPoint::new(uni, app, scale),
        SweepPoint::new(par, app, scale),
    ]);
    let result = sweep.run_stored(default_jobs(), &NoopObserver, store);
    let (t1, tp) = (result.runs[0].report.cycles, result.runs[1].report.cycles);
    (t1, tp, t1 as f64 / tp as f64)
}

/// Runs `app` across a set of configurations (e.g., the four
/// architectures), each on its own node count, as one [`Sweep`] on every
/// host core, and returns the reports in input order. With a `store`,
/// cells a previous `compare` or `sweep` computed are served from disk.
pub fn compare<'a>(
    cfgs: impl IntoIterator<Item = &'a SysConfig>,
    app: AppId,
    scale: f64,
    store: Option<&Store>,
) -> Vec<RunReport> {
    let points = cfgs
        .into_iter()
        .map(|&c| SweepPoint::new(c, app, scale))
        .collect();
    Sweep::from_points(points)
        .run_stored(default_jobs(), &NoopObserver, store)
        .into_reports()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;

    #[test]
    fn run_app_smoke() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
        let r = run_app(&cfg, &Workload::new(AppId::Water, 2).scale(0.25));
        assert!(r.cycles > 0);
    }

    #[test]
    fn speedup_is_positive() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
        let (t1, tp, s) = speedup(&cfg, AppId::Sor, 4, 0.02, None);
        assert!(t1 > 0 && tp > 0);
        assert!(s > 1.0, "4-node SOR speedup {s:.2}");
    }

    #[test]
    fn compare_returns_all_systems() {
        let cfgs: Vec<SysConfig> = Arch::ALL
            .iter()
            .map(|&a| SysConfig::base(a).with_nodes(2))
            .collect();
        let rs = compare(cfgs.iter(), AppId::Fft, 0.02, None);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].arch, "NetCache");
        assert_eq!(rs[3].arch, "DMON-I");
    }
}
