//! Cross-checks the benchmark's pinned digests against the repository's
//! golden suite: every golden cell that is also a benchmark cell must
//! carry the same digest in both tables.

use netcache_apps::AppId;
use netcache_core::Arch;
use perfbench::pins;

/// `(label, digest)` of every plain (single-fabric) row of the golden
/// table: `(Arch::X, AppId::Y, nodes, scale-per-mille, 0x…)`.
fn golden_rows() -> Vec<(String, u64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden.rs");
    let text = std::fs::read_to_string(path).expect("golden suite present");
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(body) = line
            .trim()
            .strip_prefix('(')
            .and_then(|l| l.strip_suffix("),"))
        else {
            continue;
        };
        let f: Vec<&str> = body.split(',').map(str::trim).collect();
        if f.len() != 5 {
            continue;
        }
        let arch = Arch::ALL
            .into_iter()
            .find(|a| f[0] == format!("Arch::{a:?}"))
            .expect("known arch");
        let app = AppId::ALL
            .into_iter()
            .find(|a| f[1] == format!("AppId::{a:?}"))
            .expect("known app");
        let nodes: usize = f[2].parse().unwrap();
        let scale = f[3].parse::<u32>().unwrap() as f64 / 1000.0;
        let digest = u64::from_str_radix(f[4].trim_start_matches("0x"), 16).unwrap();
        let label = format!(
            "{}/{}/p{nodes}/s{scale}",
            arch.name().to_lowercase(),
            app.name()
        );
        rows.push((label, digest));
    }
    rows
}

#[test]
fn pinned_digests_agree_with_the_golden_suite() {
    let table = pins::parse(pins::DIGESTS).unwrap();
    let golden = golden_rows();
    assert!(
        golden.len() >= 48,
        "golden table parsed ({} rows)",
        golden.len()
    );
    let mut overlap = 0;
    for (label, digest) in &golden {
        for ((workload, l), pinned) in &table {
            if l == label {
                overlap += 1;
                assert_eq!(pinned, digest, "{workload} {label}");
            }
        }
    }
    // The store workload holds the golden grid's 48 four-node cells.
    assert!(
        overlap >= 48,
        "only {overlap} cells overlap the golden suite"
    );
}
