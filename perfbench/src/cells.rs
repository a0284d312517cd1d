//! The three workloads and the simulation cells each one runs.

use std::collections::HashSet;

use netcache_apps::{AppId, Workload};
use netcache_core::sweep::Sweep;
use netcache_core::{point_key, Arch, SweepPoint, SysConfig, TopoKind};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig. 6 grid through the sweep pool.
    Fig6Grid,
    /// 64-node star-of-rings cells, serially, one engine scratch.
    Star64,
    /// A warm pass over a store populated in set-up.
    StoreRerun,
}

impl Kind {
    /// Every workload the command accepts.
    pub const ALL: [Kind; 3] = [Kind::Fig6Grid, Kind::Star64, Kind::StoreRerun];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig6Grid => "fig6-grid",
            Kind::Star64 => "star64",
            Kind::StoreRerun => "store-rerun",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input scale of the Fig. 6 grid (the CLI's default).
pub const FIG6_SCALE: f64 = 0.1;
/// Input scale of the 64-node cells.
pub const STAR64_SCALE: f64 = 0.05;
/// Apps of the 64-node set: scalar-heavy and event-bound.
pub const STAR64_APPS: [AppId; 6] = [
    AppId::Radix,
    AppId::Raytrace,
    AppId::Cg,
    AppId::Em3d,
    AppId::Water,
    AppId::Fft,
];
/// Machine size and input scale of the store cells (the golden grid's).
pub const STORE_NODES: usize = 4;
/// Input scale of the store cells.
pub const STORE_SCALE: f64 = 0.02;

/// One simulation cell: a machine, a workload, and its sweep point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Unique label within the workload.
    pub label: String,
    /// The machine.
    pub cfg: SysConfig,
    /// The workload, seed included.
    pub wl: Workload,
    /// The sweep point (for the sweep-driven workloads and the store).
    pub point: SweepPoint,
}

impl Cell {
    fn from_point(mut point: SweepPoint, label: String) -> Self {
        point.label = label.clone();
        let wl = Workload::new(point.app, point.cfg.nodes).scale(point.scale);
        Self {
            label,
            cfg: point.cfg,
            wl,
            point,
        }
    }
}

/// The cells of workload `kind` at benchmark seed `seed`.
///
/// Seed 0 is the library's defaults, which the pinned digests cover.
/// The sweep-driven workloads XOR the seed into `SysConfig::seed`
/// (a sweep point carries no workload seed); `star64` calls the engine
/// directly and XORs it into `Workload::seed`.
pub fn cells(kind: Kind, seed: u64) -> Vec<Cell> {
    match kind {
        Kind::Fig6Grid => {
            let mut out = Vec::new();
            for arch in Arch::ALL {
                for app in AppId::ALL {
                    let mut cfg = SysConfig::base(arch);
                    cfg.seed ^= seed;
                    let point = SweepPoint::new(cfg, app, FIG6_SCALE);
                    let label = point.label.clone();
                    out.push(Cell::from_point(point, label));
                }
            }
            out
        }
        Kind::Star64 => {
            let mut out = Vec::new();
            for arch in [Arch::NetCache, Arch::DmonI] {
                for app in STAR64_APPS {
                    let cfg = SysConfig::base(arch)
                        .with_nodes(64)
                        .with_topology(TopoKind::StarOfRings);
                    cfg.validate().expect("valid 64-node star-of-rings");
                    let point = SweepPoint::new(cfg, app, STAR64_SCALE);
                    let wl = Workload::new(app, 64).scale(STAR64_SCALE);
                    let wl = wl.seed(wl.seed ^ seed);
                    out.push(Cell {
                        label: point.label.clone(),
                        cfg,
                        wl,
                        point,
                    });
                }
            }
            out
        }
        Kind::StoreRerun => store_cells(seed),
    }
}

/// The store workload's cells: every arch × app at the golden grid's
/// size, across the paper's ring-size (Fig. 8, NetCache only), L2-size
/// (Fig. 13) and memory-latency (Fig. 15) axes. A cell shared by two
/// axes (the base machine) appears once.
fn store_cells(seed: u64) -> Vec<Cell> {
    type Axis = (&'static str, fn(SysConfig, u64) -> SysConfig, [u64; 3]);
    let axes: [Axis; 3] = [
        ("", |c, kb| c.with_ring_kb(kb), [32, 16, 64]),
        ("l2-", |c, kb| c.with_l2_kb(kb), [16, 32, 64]),
        ("mem", |c, lat| c.with_mem_latency(lat), [76, 44, 108]),
    ];
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (i, (tag, apply, values)) in axes.iter().enumerate() {
        for arch in Arch::ALL {
            if i == 0 && arch != Arch::NetCache {
                continue; // only NetCache has a ring to resize
            }
            for app in AppId::ALL {
                for &v in values {
                    let mut cfg = apply(SysConfig::base(arch).with_nodes(STORE_NODES), v);
                    cfg.seed ^= seed;
                    cfg.validate().expect("valid store cell");
                    let point = SweepPoint::new(cfg, app, STORE_SCALE);
                    if !seen.insert(point_key(&point)) {
                        continue;
                    }
                    // The first value of each axis is the base machine;
                    // the others get a suffix (ring sizes already have one).
                    let label = if tag.is_empty() || v == values[0] {
                        point.label.clone()
                    } else {
                        format!("{}/{tag}{v}", point.label)
                    };
                    out.push(Cell::from_point(point, label));
                }
            }
        }
    }
    out
}

/// The cells as a sweep, in cell order.
pub fn sweep_of(cells: &[Cell]) -> Sweep {
    Sweep::from_points(cells.iter().map(|c| c.point.clone()).collect())
}

/// FNV-1a over the cells' report digests, in cell order: one number
/// that identifies a workload's simulated results at any seed.
pub fn combined_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        for b in d.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes_and_unique_labels() {
        for (kind, n) in [
            (Kind::Fig6Grid, 48),
            (Kind::Star64, 12),
            (Kind::StoreRerun, 264),
        ] {
            let cells = cells(kind, 0);
            assert_eq!(cells.len(), n, "{}", kind.name());
            let labels: HashSet<_> = cells.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(labels.len(), n, "{} labels unique", kind.name());
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn seed_zero_is_the_library_default_and_others_differ() {
        let base = cells(Kind::Fig6Grid, 0);
        assert!(base
            .iter()
            .all(|c| c.cfg.seed == SysConfig::base(Arch::NetCache).seed));
        let star = cells(Kind::Star64, 0);
        assert!(star
            .iter()
            .all(|c| c.wl.seed == Workload::new(AppId::Cg, 1).seed));
        let other = cells(Kind::Star64, 7);
        assert!(other.iter().zip(&star).all(|(a, b)| a.wl.seed != b.wl.seed));
        let store = cells(Kind::StoreRerun, 7);
        assert!(store.iter().all(|c| c.point.cfg.seed == c.cfg.seed));
    }

    #[test]
    fn combined_digest_depends_on_order() {
        assert_ne!(combined_digest([1, 2]), combined_digest([2, 1]));
        assert_eq!(combined_digest([1, 2]), combined_digest(vec![1, 2]));
    }
}
