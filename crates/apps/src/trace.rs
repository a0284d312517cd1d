//! Trace import/export: a line-oriented text format for operation streams.
//!
//! This is the bridge to *real* front-ends: anything that can emit one
//! line per operation (a Pin/Valgrind tool, another simulator, a script)
//! can drive these machines, and any built-in workload can be dumped for
//! inspection or replay. Format, one op per line:
//!
//! ```text
//! C <cycles>     # compute
//! R <hex-addr>   # read
//! W <hex-addr>   # write
//! A <lock-id>    # acquire
//! L <lock-id>    # release (L for "leave")
//! B <barrier-id> # barrier
//! # comment / blank lines ignored
//! ```
//!
//! A multiprocessor trace is one file per processor (`trace.0`, `trace.1`,
//! ...), or the in-memory `Vec<Vec<Op>>` forms below.

use crate::ops::{Op, OpStream};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

/// Serializes one operation to its line form (no trailing newline).
pub fn format_op(op: &Op) -> String {
    match op {
        Op::Compute(n) => format!("C {n}"),
        Op::Read(a) => format!("R {a:x}"),
        Op::Write(a) => format!("W {a:x}"),
        Op::Acquire(l) => format!("A {l}"),
        Op::Release(l) => format!("L {l}"),
        Op::Barrier(b) => format!("B {b}"),
    }
}

/// Parses one line; `None` for blanks/comments.
///
/// # Errors
/// Describes the offending line on malformed input.
pub fn parse_line(line: &str) -> Result<Option<Op>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (kind, rest) = line
        .split_once(char::is_whitespace)
        .ok_or_else(|| format!("malformed trace line: {line:?}"))?;
    let rest = rest.trim();
    let op = match kind {
        "C" => Op::Compute(
            rest.parse()
                .map_err(|e| format!("bad compute count {rest:?}: {e}"))?,
        ),
        "R" => Op::Read(
            u64::from_str_radix(rest, 16).map_err(|e| format!("bad address {rest:?}: {e}"))?,
        ),
        "W" => Op::Write(
            u64::from_str_radix(rest, 16).map_err(|e| format!("bad address {rest:?}: {e}"))?,
        ),
        "A" => Op::Acquire(
            rest.parse()
                .map_err(|e| format!("bad lock id {rest:?}: {e}"))?,
        ),
        "L" => Op::Release(
            rest.parse()
                .map_err(|e| format!("bad lock id {rest:?}: {e}"))?,
        ),
        "B" => Op::Barrier(
            rest.parse()
                .map_err(|e| format!("bad barrier id {rest:?}: {e}"))?,
        ),
        other => return Err(format!("unknown op kind {other:?} in line {line:?}")),
    };
    Ok(Some(op))
}

/// Serializes a whole stream to text.
pub fn dump(ops: impl IntoIterator<Item = Op>) -> String {
    let mut out = String::new();
    for op in ops {
        let _ = writeln!(out, "{}", format_op(&op));
    }
    out
}

/// Parses a trace from any reader into a lazily-consumable stream.
///
/// # Errors
/// On the first malformed line (with its 1-based line number).
pub fn load(reader: impl Read) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| format!("I/O error at line {}: {e}", i + 1))?;
        if let Some(op) = parse_line(&line).map_err(|e| format!("line {}: {e}", i + 1))? {
            ops.push(op);
        }
    }
    Ok(ops)
}

/// Wraps parsed ops as an [`OpStream`] for `netcache_core::run_streams`.
pub fn into_stream(ops: Vec<Op>) -> OpStream {
    OpStream::from_ops(ops)
}

/// Readies a multiprocessor trace (one op vector per processor) for one
/// machine run, checking the front-end contract first:
///
/// * every trace crosses the same barrier sequence — the machine releases
///   a barrier when all processors reach it, so a mismatch would deadlock;
/// * every trace's lock pairs are properly nested — it releases only
///   locks it holds, never acquires a lock it already holds, and holds
///   none at its end; a lock left held would deadlock its next acquirer.
///
/// Lock and barrier ids are then renumbered densely in order of first
/// appearance, with one map per kind shared by all traces, so any `u32`
/// id is usable (the machine indexes its sync state by id).
///
/// # Errors
/// `(i, why)` for the first trace `i` that breaks the contract; nothing
/// is renumbered then.
pub fn renumber_sync(traces: &mut [Vec<Op>]) -> Result<(), (usize, String)> {
    let barriers = |ops: &[Op]| -> Vec<u32> {
        ops.iter()
            .filter_map(|op| match op {
                Op::Barrier(b) => Some(*b),
                _ => None,
            })
            .collect()
    };
    let first = traces.first().map(|t| barriers(t)).unwrap_or_default();
    for (i, t) in traces.iter().enumerate() {
        check_locks(t).map_err(|why| (i, why))?;
        let seq = barriers(t);
        if let Some(k) = (0..seq.len().min(first.len())).find(|&k| seq[k] != first[k]) {
            return Err((
                i,
                format!(
                    "barrier #{} is B {} where the first trace has B {}",
                    k + 1,
                    seq[k],
                    first[k]
                ),
            ));
        }
        if seq.len() != first.len() {
            return Err((
                i,
                format!(
                    "crosses {} barriers where the first trace crosses {}",
                    seq.len(),
                    first.len()
                ),
            ));
        }
    }
    let mut locks = HashMap::new();
    let mut bars = HashMap::new();
    let dense = |map: &mut HashMap<u32, u32>, id: &mut u32| {
        let next = map.len() as u32;
        *id = *map.entry(*id).or_insert(next);
    };
    for op in traces.iter_mut().flatten() {
        match op {
            Op::Acquire(l) | Op::Release(l) => dense(&mut locks, l),
            Op::Barrier(b) => dense(&mut bars, b),
            _ => {}
        }
    }
    Ok(())
}

/// Checks that one trace's lock pairs are properly nested (see
/// [`renumber_sync`]), naming the first offending op by its 1-based
/// position among the trace's ops.
fn check_locks(ops: &[Op]) -> Result<(), String> {
    let mut held = HashSet::new();
    for (k, op) in ops.iter().enumerate() {
        match *op {
            Op::Acquire(l) if !held.insert(l) => {
                return Err(format!(
                    "op #{} acquires lock {l}, which the trace already holds",
                    k + 1
                ))
            }
            Op::Release(l) if !held.remove(&l) => {
                return Err(format!(
                    "op #{} releases lock {l}, which the trace does not hold",
                    k + 1
                ))
            }
            _ => {}
        }
    }
    match held.into_iter().min() {
        Some(l) => Err(format!("ends holding lock {l}")),
        None => Ok(()),
    }
}

/// Summary statistics of a stream — handy before committing to a long
/// simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceProfile {
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
    /// Total compute cycles.
    pub compute: u64,
    /// Lock acquisitions.
    pub acquires: u64,
    /// Barrier crossings.
    pub barriers: u64,
    /// Distinct 64 B blocks touched.
    pub footprint_blocks: u64,
}

/// Profiles a stream (consumes it).
pub fn profile(ops: impl IntoIterator<Item = Op>) -> TraceProfile {
    let mut p = TraceProfile::default();
    let mut blocks = HashSet::new();
    for op in ops {
        match op {
            Op::Read(a) => {
                p.reads += 1;
                blocks.insert(a / 64);
            }
            Op::Write(a) => {
                p.writes += 1;
                blocks.insert(a / 64);
            }
            Op::Compute(n) => p.compute += n as u64,
            Op::Acquire(_) => p.acquires += 1,
            Op::Release(_) => {}
            Op::Barrier(_) => p.barriers += 1,
        }
    }
    p.footprint_blocks = blocks.len() as u64;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppId, Workload};
    use memsys::AddressMap;

    #[test]
    fn ops_round_trip_through_text() {
        let ops = vec![
            Op::Compute(17),
            Op::Read(0x1000_0000_1234),
            Op::Write(0xdead_beef),
            Op::Acquire(3),
            Op::Release(3),
            Op::Barrier(42),
        ];
        let text = dump(ops.clone());
        let back = load(text.as_bytes()).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\nC 5\n  # indented comment\nR ff\n";
        let ops = load(text.as_bytes()).unwrap();
        assert_eq!(ops, vec![Op::Compute(5), Op::Read(0xff)]);
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = load("C 5\nX 9\n".as_bytes()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unknown op kind"), "{err}");
        let err = load("R zz\n".as_bytes()).unwrap_err();
        assert!(err.contains("bad address"), "{err}");
    }

    #[test]
    fn builtin_workload_round_trips() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(AppId::Water, 2).scale(0.25);
        let original: Vec<Op> = w.streams(&map).remove(0).collect();
        let text = dump(original.clone());
        let back = load(text.as_bytes()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn renumber_sync_makes_ids_dense_across_traces() {
        let mut traces = vec![
            vec![
                Op::Acquire(4_000_000_000),
                Op::Release(4_000_000_000),
                Op::Barrier(u32::MAX),
                Op::Acquire(9),
                Op::Release(9),
                Op::Barrier(7),
            ],
            vec![
                Op::Barrier(u32::MAX),
                Op::Acquire(9),
                Op::Release(9),
                Op::Barrier(7),
            ],
        ];
        renumber_sync(&mut traces).unwrap();
        assert_eq!(
            traces,
            vec![
                vec![
                    Op::Acquire(0),
                    Op::Release(0),
                    Op::Barrier(0),
                    Op::Acquire(1),
                    Op::Release(1),
                    Op::Barrier(1),
                ],
                vec![
                    Op::Barrier(0),
                    Op::Acquire(1),
                    Op::Release(1),
                    Op::Barrier(1)
                ],
            ]
        );
    }

    #[test]
    fn renumber_sync_rejects_differing_barrier_sequences() {
        let base = vec![Op::Barrier(0), Op::Compute(1), Op::Barrier(1)];
        let mut swapped = vec![
            base.clone(),
            base.clone(),
            vec![Op::Barrier(1), Op::Barrier(0)],
        ];
        let (i, why) = renumber_sync(&mut swapped).unwrap_err();
        assert_eq!(i, 2);
        assert!(why.contains("barrier #1"), "{why}");
        let mut short = vec![base.clone(), vec![Op::Barrier(0)]];
        let (i, why) = renumber_sync(&mut short).unwrap_err();
        assert_eq!(i, 1);
        assert!(why.contains("crosses 1 barriers"), "{why}");
        // Nothing was renumbered on the error path.
        assert_eq!(short[0], base);
    }

    #[test]
    fn renumber_sync_rejects_unbalanced_locks() {
        let ok = vec![
            Op::Acquire(5),
            Op::Acquire(6),
            Op::Release(6),
            Op::Release(5),
        ];
        for (bad, cause) in [
            (
                vec![Op::Compute(1), Op::Release(5)],
                "op #2 releases lock 5",
            ),
            (
                vec![Op::Acquire(5), Op::Release(5), Op::Release(5)],
                "op #3 releases lock 5",
            ),
            (
                vec![Op::Acquire(5), Op::Acquire(5)],
                "op #2 acquires lock 5",
            ),
            (vec![Op::Acquire(9), Op::Acquire(5)], "ends holding lock 5"),
        ] {
            let mut traces = vec![ok.clone(), bad.clone()];
            let (i, why) = renumber_sync(&mut traces).unwrap_err();
            assert_eq!(i, 1, "{bad:?}");
            assert!(why.contains(cause), "{bad:?}: {why}");
            // Nothing was renumbered on the error path.
            assert_eq!(traces[0], ok);
        }
        // The first trace is checked too.
        let mut traces = vec![vec![Op::Acquire(0), Op::Compute(5)], vec![Op::Acquire(0)]];
        assert_eq!(renumber_sync(&mut traces).unwrap_err().0, 0);
    }

    #[test]
    fn profile_counts() {
        let p = profile(vec![
            Op::Read(0),
            Op::Read(64),
            Op::Read(65), // same block as 64
            Op::Write(128),
            Op::Compute(9),
            Op::Compute(1),
            Op::Barrier(0),
            Op::Acquire(1),
            Op::Release(1),
        ]);
        assert_eq!(
            p,
            TraceProfile {
                reads: 3,
                writes: 1,
                compute: 10,
                acquires: 1,
                barriers: 1,
                footprint_blocks: 3,
            }
        );
    }
}
