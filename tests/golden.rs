//! Golden-determinism guard.
//!
//! Each cell below pins the FNV-1a digest of the full `RunReport`
//! (every stat, counter, and final time — see `RunReport::digest`) for a
//! small architecture × application grid. The digests were captured from
//! the pre-timing-wheel engine (BinaryHeap event queue, HashMap ring
//! index); the rewritten engine must reproduce every report bit-for-bit.
//!
//! If a cell fails here, event delivery order (the `(time, seq)` FIFO
//! tie-break) or the ring/lock/barrier semantics changed — that is a
//! correctness bug, not a tolerable drift. Only an *intentional* model
//! change may update these constants; regenerate with:
//!
//! ```text
//! cargo test --release --test golden -- --ignored --nocapture regen
//! ```

use netcache::apps::{AppId, Workload};
use netcache::{run_app, Arch, SysConfig, TopoKind};

/// The pinned grid: `(arch, app, nodes, scale-per-mille, digest)`.
/// Scale is stored ×1000 so the table stays integer-only.
///
/// The full 48-cell grid (4 architectures × 12 apps) pins every
/// protocol/app pairing, so event elision and any future hot-path work
/// are guarded on every row, not just NetCache ones.
const GOLDEN: &[(Arch, AppId, usize, u32, u64)] = &[
    (Arch::NetCache, AppId::Cg, 4, 20, 0xa6cdcc2a44239e34),
    (Arch::NetCache, AppId::Em3d, 4, 20, 0xb81b5a2b0022e67a),
    (Arch::NetCache, AppId::Fft, 4, 20, 0xe2388b22d300ea74),
    (Arch::NetCache, AppId::Gauss, 4, 20, 0xe40f4a056055caa3),
    (Arch::NetCache, AppId::Lu, 4, 20, 0x70ae89a1ba0b974f),
    (Arch::NetCache, AppId::Mg, 4, 20, 0x774653a89afb4167),
    (Arch::NetCache, AppId::Ocean, 4, 20, 0x92b193dfb4d28b0c),
    (Arch::NetCache, AppId::Radix, 4, 20, 0x126b40ffcfc50b47),
    (Arch::NetCache, AppId::Raytrace, 4, 20, 0xd029ab1561539d1d),
    (Arch::NetCache, AppId::Sor, 4, 20, 0xa7273921d554e9e3),
    (Arch::NetCache, AppId::Water, 4, 20, 0xcf79a5ca1763fd4b),
    (Arch::NetCache, AppId::Wf, 4, 20, 0x35faac32e2b7526f),
    (Arch::LambdaNet, AppId::Cg, 4, 20, 0x4f6940db7ba1e9cb),
    (Arch::LambdaNet, AppId::Em3d, 4, 20, 0x1bd1daed61463587),
    (Arch::LambdaNet, AppId::Fft, 4, 20, 0x8820404bcd9bcc89),
    (Arch::LambdaNet, AppId::Gauss, 4, 20, 0xace8e831807d058f),
    (Arch::LambdaNet, AppId::Lu, 4, 20, 0x28ea7bc004b2c56d),
    (Arch::LambdaNet, AppId::Mg, 4, 20, 0xd834bdc966bab3af),
    (Arch::LambdaNet, AppId::Ocean, 4, 20, 0x237fc8c607522048),
    (Arch::LambdaNet, AppId::Radix, 4, 20, 0x1b1b56015a7b5a9b),
    (Arch::LambdaNet, AppId::Raytrace, 4, 20, 0xd0954840106d5cb6),
    (Arch::LambdaNet, AppId::Sor, 4, 20, 0x7020849e15b8b01d),
    (Arch::LambdaNet, AppId::Water, 4, 20, 0x69e4b8252a6ed13e),
    (Arch::LambdaNet, AppId::Wf, 4, 20, 0xbb0743670bc88ad3),
    (Arch::DmonU, AppId::Cg, 4, 20, 0xa09b790e7d96c303),
    (Arch::DmonU, AppId::Em3d, 4, 20, 0xccd933900066d8aa),
    (Arch::DmonU, AppId::Fft, 4, 20, 0x9c437045391877e0),
    (Arch::DmonU, AppId::Gauss, 4, 20, 0x78efe302a1d2a948),
    (Arch::DmonU, AppId::Lu, 4, 20, 0xa72559e9daaaa0ed),
    (Arch::DmonU, AppId::Mg, 4, 20, 0x4424111e5a1e5359),
    (Arch::DmonU, AppId::Ocean, 4, 20, 0x6cfbf8c9461da7bf),
    (Arch::DmonU, AppId::Radix, 4, 20, 0xc43305708aa030a9),
    (Arch::DmonU, AppId::Raytrace, 4, 20, 0x55bb3e4c09521fa5),
    (Arch::DmonU, AppId::Sor, 4, 20, 0xa47cb24ad031ff1a),
    (Arch::DmonU, AppId::Water, 4, 20, 0xa2a671581111123a),
    (Arch::DmonU, AppId::Wf, 4, 20, 0x0a17e5becc7d026b),
    (Arch::DmonI, AppId::Cg, 4, 20, 0xc3f751d1f4a2884b),
    (Arch::DmonI, AppId::Em3d, 4, 20, 0x0d6b4d38f4ff8c98),
    (Arch::DmonI, AppId::Fft, 4, 20, 0x6db1e8bdb707f6a8),
    (Arch::DmonI, AppId::Gauss, 4, 20, 0x76e01a73eb370c15),
    (Arch::DmonI, AppId::Lu, 4, 20, 0x065e53b71111be4a),
    (Arch::DmonI, AppId::Mg, 4, 20, 0xd9c594c2693b9596),
    (Arch::DmonI, AppId::Ocean, 4, 20, 0xf9edc0768746fee9),
    (Arch::DmonI, AppId::Radix, 4, 20, 0xdbd2cef613b1ba98),
    (Arch::DmonI, AppId::Raytrace, 4, 20, 0x594b4230066261e9),
    (Arch::DmonI, AppId::Sor, 4, 20, 0x0841c74d63c2ba2c),
    (Arch::DmonI, AppId::Water, 4, 20, 0x938adc56ddc2e900),
    (Arch::DmonI, AppId::Wf, 4, 20, 0xebfa2f686ae7c9a0),
    // Two full-size cells: the paper's 16-node base machine.
    (Arch::NetCache, AppId::Sor, 16, 50, 0x3be25979e58f09bd),
    (Arch::DmonU, AppId::Gauss, 16, 50, 0x9b4cb65db4007f37),
    // Two big-machine cells (64 nodes).
    (Arch::NetCache, AppId::Sor, 64, 50, 0xcd070e8e51692e65),
    (Arch::DmonI, AppId::Gauss, 64, 50, 0xea2a4ab2a10634cf),
];

/// Non-default-topology cells:
/// `(arch, app, nodes, scale-per-mille, kind, rings, digest)`.
///
/// Multi-ring at both stripe counts exercises split-channel ring
/// geometry; the 64-node star-of-rings cells exercise cross-cluster
/// hops, probe bypass, and per-cluster rings — on the ring architecture
/// and on an invalidate baseline (which sees only the latency change).
/// Regenerate with `--ignored --nocapture regen_topo`.
#[rustfmt::skip]
const GOLDEN_TOPO: &[(Arch, AppId, usize, u32, TopoKind, usize, u64)] = &[
    (Arch::NetCache, AppId::Sor, 16, 50, TopoKind::MultiRing, 2, 0x6cd7159199587d23),
    (Arch::NetCache, AppId::Gauss, 16, 50, TopoKind::MultiRing, 4, 0x75bbcfeaa86a6349),
    (Arch::NetCache, AppId::Sor, 64, 50, TopoKind::StarOfRings, 1, 0x68296293929c4cf6),
    (Arch::DmonI, AppId::Gauss, 64, 50, TopoKind::StarOfRings, 1, 0x478b49346dea42d2),
];

fn report_cell(arch: Arch, app: AppId, nodes: usize, scale_pm: u32) -> netcache::RunReport {
    let cfg = SysConfig::base(arch).with_nodes(nodes);
    let wl = Workload::new(app, nodes).scale(scale_pm as f64 / 1000.0);
    run_app(&cfg, &wl)
}

fn topo_cfg(arch: Arch, nodes: usize, kind: TopoKind, rings: usize) -> SysConfig {
    let cfg = SysConfig::base(arch)
        .with_nodes(nodes)
        .with_topology(kind)
        .with_rings(rings);
    cfg.validate().expect("golden topology cell must be valid");
    cfg
}

fn digest_cell(arch: Arch, app: AppId, nodes: usize, scale_pm: u32) -> u64 {
    report_cell(arch, app, nodes, scale_pm).digest()
}

#[test]
fn golden_grid_reproduces_bit_for_bit() {
    let mut bad = Vec::new();
    for &(arch, app, nodes, scale_pm, want) in GOLDEN {
        let report = report_cell(arch, app, nodes, scale_pm);
        // The orphan-window buffer is bounded by a hard cap that, if ever
        // hit, sheds a live race window (a model approximation). It must
        // never engage anywhere on the grid.
        if let Some(ring) = report.ring {
            assert_eq!(
                ring.orphans_dropped,
                0,
                "{:?}/{}/n{}: orphan-window cap engaged",
                arch,
                app.name(),
                nodes
            );
        }
        let got = report.digest();
        if got != want {
            bad.push(format!(
                "{:?}/{}/n{}/s{}: expected {:#018x}, got {:#018x}",
                arch,
                app.name(),
                nodes,
                scale_pm,
                want,
                got
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "golden RunReport digests diverged (event order or model changed):\n{}",
        bad.join("\n")
    );
}

/// The topology lattice pins the new fabrics the same way the main grid
/// pins the default one: bit-for-bit.
#[test]
fn golden_topology_cells_reproduce_bit_for_bit() {
    let mut bad = Vec::new();
    for &(arch, app, nodes, scale_pm, kind, rings, want) in GOLDEN_TOPO {
        let cfg = topo_cfg(arch, nodes, kind, rings);
        let wl = Workload::new(app, nodes).scale(scale_pm as f64 / 1000.0);
        let got = run_app(&cfg, &wl).digest();
        if got != want {
            bad.push(format!(
                "{:?}/{}/n{}/{:?}x{}: expected {:#018x}, got {:#018x}",
                arch,
                app.name(),
                nodes,
                kind,
                rings,
                want,
                got
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "golden topology digests diverged:\n{}",
        bad.join("\n")
    );
}

/// Prints the table body with fresh digests. Run with `--ignored` after an
/// *intentional* model change, and paste the output over `GOLDEN`.
#[test]
#[ignore]
fn regen() {
    for &(arch, app, nodes, scale_pm, _) in GOLDEN {
        let d = digest_cell(arch, app, nodes, scale_pm);
        println!(
            "    (Arch::{:?}, AppId::{:?}, {}, {}, {:#018x}),",
            arch, app, nodes, scale_pm, d
        );
    }
}

/// [`regen`] for the topology lattice: prints `GOLDEN_TOPO` rows.
#[test]
#[ignore]
fn regen_topo() {
    for &(arch, app, nodes, scale_pm, kind, rings, _) in GOLDEN_TOPO {
        let cfg = topo_cfg(arch, nodes, kind, rings);
        let wl = Workload::new(app, nodes).scale(scale_pm as f64 / 1000.0);
        let d = run_app(&cfg, &wl).digest();
        println!(
            "    (Arch::{:?}, AppId::{:?}, {}, {}, TopoKind::{:?}, {}, {:#018x}),",
            arch, app, nodes, scale_pm, kind, rings, d
        );
    }
}
