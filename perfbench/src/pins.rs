//! Pinned report digests at seed 0 (`digests.txt`).
//!
//! Each line reads `<workload> <cell label> <digest as 0x… hex>`; `#`
//! starts a comment. The table was captured from the simulator with
//! `perfbench --print-digests` and cross-checked against the cells the
//! repository's golden suite pins (see `tests/golden_overlap.rs`).

use std::collections::HashMap;

/// The table compiled into the benchmark.
pub const DIGESTS: &str = include_str!("../digests.txt");

/// Parses a digest table into `(workload, label) → digest`.
pub fn parse(text: &str) -> Result<HashMap<(String, String), u64>, String> {
    let mut out = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("digests.txt line {}: {line:?}", n + 1);
        let mut parts = line.split_whitespace();
        let (Some(w), Some(label), Some(hex), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        let digest = hex
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(bad)?;
        if out
            .insert((w.to_string(), label.to_string()), digest)
            .is_some()
        {
            return Err(format!("{} (duplicate)", bad()));
        }
    }
    Ok(out)
}

/// The pinned digests of one workload, by cell label.
pub fn for_workload(workload: &str) -> HashMap<String, u64> {
    parse(DIGESTS)
        .expect("digests.txt parses")
        .into_iter()
        .filter(|((w, _), _)| w == workload)
        .map(|((_, label), d)| (label, d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lines_and_rejects_malformed_ones() {
        let t = parse("# c\nfig6-grid a/b 0x00ff\n\nstar64 c 0x1\n").unwrap();
        assert_eq!(t[&("fig6-grid".into(), "a/b".into())], 255);
        assert_eq!(t.len(), 2);
        assert!(parse("fig6-grid a/b ff").is_err());
        assert!(parse("fig6-grid a/b").is_err());
        assert!(parse("w a 0x1 extra").is_err());
        assert!(parse("w a 0x1\nw a 0x2").is_err());
    }

    #[test]
    fn compiled_table_covers_every_cell_at_seed_zero() {
        for kind in crate::cells::Kind::ALL {
            let pins = for_workload(kind.name());
            let cells = crate::cells::cells(kind, 0);
            assert_eq!(pins.len(), cells.len(), "{}", kind.name());
            assert!(cells.iter().all(|c| pins.contains_key(&c.label)));
        }
    }
}
