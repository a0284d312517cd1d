//! Macro/scalar differential guard.
//!
//! The op streams are generated as *macro-ops* (loop nests among scalar
//! ops) and the engine retires them through batched fast paths. Both
//! layers claim exact equivalence with the scalar op stream: expanding
//! every macro and feeding the engine one `Op` at a time must produce a
//! bit-identical `RunReport`. `OpStream::scalarized` performs exactly
//! that expansion, so running every app both ways and comparing digests
//! pins the whole macro layer — generator emission, stream cursoring,
//! and the engine's nest retirement — against the scalar oracle.

use netcache::apps::{AppId, Workload};
use netcache::mem::AddressMap;
use netcache::{run_streams, Arch, EngineScratch, RunReport, SysConfig};

/// Runs `app` macro and scalarized on `cfg`; asserts equal digests and
/// returns the macro run's report.
fn diff_cell(cfg: &SysConfig, app: AppId, scale: f64) -> RunReport {
    let wl = Workload::new(app, cfg.nodes).scale(scale);
    let map = AddressMap::new(cfg.nodes, cfg.l2.block_bytes);
    let mut scratch = EngineScratch::new();
    let macro_report = run_streams(cfg, wl.streams(&map), &mut scratch);
    let scalar_streams = wl
        .streams(&map)
        .into_iter()
        .map(|s| s.scalarized())
        .collect();
    let scalar_report = run_streams(cfg, scalar_streams, &mut scratch);
    assert_eq!(
        macro_report.digest(),
        scalar_report.digest(),
        "{:?}/{}/n{}/s{}/l1x{}/l2x{}: macro and scalarized streams diverged\n\
         macro:  {:#?}\nscalar: {:#?}",
        cfg.arch,
        app.name(),
        cfg.nodes,
        scale,
        cfg.l1.assoc,
        cfg.l2.assoc,
        macro_report,
        scalar_report,
    );
    macro_report
}

/// Every app on the paper's base architecture, two scales, 4 nodes.
#[test]
fn all_apps_netcache_macro_matches_scalar() {
    let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
    for app in AppId::ALL {
        for scale in [0.02, 0.05] {
            diff_cell(&cfg, app, scale);
        }
    }
}

/// Cross-check on an invalidate protocol (its sharing behaviour
/// exercises the bail paths differently).
#[test]
fn all_apps_dmon_i_macro_matches_scalar() {
    let cfg = SysConfig::base(Arch::DmonI).with_nodes(4);
    for app in AppId::ALL {
        for scale in [0.02, 0.05] {
            diff_cell(&cfg, app, scale);
        }
    }
}

/// The other side of the elision gate: with set-associative private
/// caches, read hits and nests go through the general path while
/// compute and write-buffer pushes still elide. Digests must match the
/// scalar oracle, and elision must be partial — neither off nor total.
#[test]
fn set_associative_private_caches_macro_matches_scalar() {
    for arch in [Arch::NetCache, Arch::DmonI] {
        let mut cfg = SysConfig::base(arch).with_nodes(4);
        cfg.l1.assoc = 2;
        cfg.l2.assoc = 4;
        for app in AppId::ALL {
            let r = diff_cell(&cfg, app, 0.02);
            assert!(
                0 < r.elided_ops && r.elided_ops < r.ops,
                "{:?}/{}: elided {} of {} ops",
                arch,
                app.name(),
                r.elided_ops,
                r.ops
            );
        }
    }
}
