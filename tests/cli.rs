//! Adversarial CLI tests for the machine flags and file arguments.
//!
//! The driver's contract for bad flag values and unusable files is exit
//! code 2 with a diagnostic that **names the offending flag or file** —
//! never a panic, never a silently coerced machine or gate. These tests shell out to the real binary
//! (`CARGO_BIN_EXE_netcache`) so they pin the process-level behavior a
//! script caller actually sees: exit status, stderr wording, and the
//! absence of a simulation run on the bad path.

use std::path::PathBuf;
use std::process::Command;

fn netcache(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_netcache"))
        .args(args)
        .output()
        .expect("spawn netcache binary")
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// An unknown fabric name must exit 2 naming `--topology` and listing
/// the accepted kinds, so the caller can fix the spelling without
/// consulting the source.
#[test]
fn unknown_topology_name_exits_two_naming_the_flag() {
    let out = netcache(&["run", "sor", "--topology", "torus"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--topology"), "flag not named: {err}");
    assert!(err.contains("\"torus\""), "bad value not echoed: {err}");
    for kind in ["single", "multi-ring", "star-of-rings"] {
        assert!(err.contains(kind), "{kind} missing from suggestions: {err}");
    }
}

/// `--rings 0` is a machine with no cache rings — meaningless, and the
/// count parser must reject it by name instead of letting a modulo-zero
/// panic surface from the striping math.
#[test]
fn zero_rings_exits_two_naming_the_flag() {
    let out = netcache(&["run", "sor", "--topology", "multi-ring", "--rings", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--rings"), "flag not named: {err}");
    assert!(err.contains("at least 1"), "no lower-bound hint: {err}");
}

/// `--rings` on a topology that ignores it would silently misdescribe
/// the machine that ran, so pairing it with anything but `multi-ring`
/// (including the implicit default) is an error naming `--rings`.
#[test]
fn rings_without_multi_ring_exits_two_naming_the_flag() {
    for extra in [
        &[][..],
        &["--topology", "single"],
        &["--topology", "star-of-rings"],
    ] {
        let mut args = vec!["run", "sor", "--rings", "4"];
        args.extend_from_slice(extra);
        let out = netcache(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}, stderr: {}",
            stderr_of(&out)
        );
        let err = stderr_of(&out);
        assert!(err.contains("--rings"), "flag not named ({args:?}): {err}");
        assert!(
            err.contains("multi-ring"),
            "fix not suggested ({args:?}): {err}"
        );
    }
}

/// A fabric that fails machine validation (a star over a node count that
/// tiles into unequal clusters) is a configuration error, not a panic:
/// exit 2, naming the topology flags.
#[test]
fn invalid_topology_shape_exits_two() {
    let out = netcache(&["run", "sor", "--topology", "star-of-rings", "--procs", "24"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--topology"), "flag not named: {err}");
}

/// The good path stays good: a valid non-default fabric runs to
/// completion and reports the fabric it simulated.
#[test]
fn valid_topology_runs_clean() {
    let out = netcache(&[
        "run",
        "sor",
        "--topology",
        "multi-ring",
        "--rings",
        "2",
        "--scale",
        "0.02",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

/// A per-test scratch directory under the system temp dir, emptied.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netcache-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A baseline cut off mid-number (`"events_per_sec": 47` from 4785425)
/// must not gate against 47: it is not one complete JSON document, so
/// `bench-compare` exits 2 naming the file before measuring anything.
#[test]
fn truncated_baseline_exits_two_naming_the_file() {
    let dir = scratch("truncated");
    let path = dir.join("BENCH_engine.json");
    std::fs::write(
        &path,
        "{\n  \"cells\": [],\n  \"engine_s\": 0.521,\n  \"events_per_sec\": 47",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let out = netcache(&["bench-compare", "--baseline", path]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains(path), "file not named: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A baseline nested 200,000 arrays deep is past the JSON reader's
/// depth cap: `bench-compare` exits 2 naming the file, where an
/// unbounded recursive reader would overflow the stack and abort.
#[test]
fn deeply_nested_baseline_exits_two_naming_the_file() {
    let dir = scratch("deep-baseline");
    let path = dir.join("BENCH_engine.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let path = path.to_str().unwrap();
    let out = netcache(&["bench-compare", "--baseline", path]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains(path), "file not named: {err}");
    assert!(
        err.contains("nesting deeper than"),
        "cause not named: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store record rewritten as 30,000 nested arrays must not abort a
/// storing sweep: the record is a corrupt miss, the cell is recomputed
/// and the sweep exits 0.
#[test]
fn deeply_nested_store_record_heals_and_exits_zero() {
    let dir = scratch("deep-record");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let sweep = |csv: &str| {
        netcache(&[
            "sweep", "fft", "--archs", "netcache", "--procs", "4", "--scale", "0.02", "--quiet",
            "--store", store, "--csv", csv,
        ])
    };
    let cold_csv = dir.join("cold.csv");
    let out = sweep(cold_csv.to_str().unwrap());
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let records: Vec<_> = std::fs::read_dir(store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(records.len(), 1);
    std::fs::write(&records[0], format!("{{\"a\":{}", "[".repeat(30_000))).unwrap();
    let healed_csv = dir.join("healed.csv");
    let out = sweep(healed_csv.to_str().unwrap());
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("cached 0 / computed 1 / invalidated 1"),
        "{stdout}"
    );
    // The simulated columns (the 14 before `wall_ms`) match the cold
    // run.
    let cols = |p: &PathBuf| -> Vec<String> {
        std::fs::read_to_string(p)
            .unwrap()
            .lines()
            .map(|l| l.split(',').take(14).collect::<Vec<_>>().join(","))
            .collect()
    };
    assert_eq!(cols(&cold_csv), cols(&healed_csv));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An output path whose directory does not exist is a named error
/// (exit 2, naming `--json`), not a panic after the sweep has run.
#[test]
fn sweep_json_into_missing_dir_exits_two_naming_the_flag() {
    let dir = scratch("missing-json");
    let path = dir.join("no-such-dir").join("out.json");
    let out = netcache(&[
        "sweep",
        "fft",
        "--archs",
        "netcache",
        "--procs",
        "2",
        "--scale",
        "0.01",
        "--quiet",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--json"), "flag not named: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// 128 ring channels do not divide over 20 nodes. Every command that
/// builds a machine from `--procs` must reject that by name (exit 2),
/// not panic in the sweep builder or a worker thread.
#[test]
fn indivisible_procs_exits_two_naming_the_flag() {
    for cmd in [
        &["sweep", "gauss", "--procs", "20", "--quiet"][..],
        &["compare", "gauss", "--procs", "20"],
        &["run", "gauss", "--procs", "20"],
        &["bench-engine", "--procs", "20"],
    ] {
        let out = netcache(cmd);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{cmd:?}, stderr: {}",
            stderr_of(&out)
        );
        let err = stderr_of(&out);
        assert!(err.contains("--procs 20"), "{cmd:?}: flag not named: {err}");
        assert!(
            err.contains("multiple of nodes"),
            "{cmd:?}: no cause: {err}"
        );
    }
}

/// Sharer sets are one `u64` bit per node, so a machine of more than 64
/// nodes would silently drop update refreshes to nodes 64 and up. Every
/// command that builds a machine rejects it by name (exit 2).
#[test]
fn more_than_64_procs_exits_two_naming_the_flag() {
    for cmd in [
        &["sweep", "sor", "--procs", "128", "--quiet"][..],
        &["compare", "sor", "--procs", "128"],
        &["run", "sor", "--procs", "128"],
        &["run", "sor", "--arch", "lambdanet", "--procs", "128"],
        &["bench-engine", "--procs", "128"],
    ] {
        let out = netcache(cmd);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}, stderr: {err}");
        assert!(
            err.contains("--procs 128"),
            "{cmd:?}: flag not named: {err}"
        );
        assert!(err.contains("at most 64 nodes"), "{cmd:?}: no cause: {err}");
    }
}

/// `--scale` is a workload input fraction in (0, 1]; anything else exits
/// 2 naming the flag at parse time instead of tripping the workload
/// builder's assert (exit 101) mid-command.
#[test]
fn out_of_range_scale_exits_two_naming_the_flag() {
    let dir = scratch("bad-scale");
    let dir = dir.to_str().unwrap();
    for cmd in [
        &["run", "gauss"][..],
        &["compare", "gauss"],
        &["sweep", "gauss", "--quiet"],
        &["trace", "gauss", dir],
        &["profile", "gauss"],
        &["bench-engine"],
    ] {
        for v in ["0", "-1", "nan", "1e9"] {
            let mut args = cmd.to_vec();
            args.extend(["--procs", "2", "--scale", v]);
            let out = netcache(&args);
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}, stderr: {err}");
            assert!(err.contains("--scale"), "{args:?}: flag not named: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `--tolerance` is the fraction of baseline throughput the gate may
/// lose, in [0, 1). Outside it (or NaN) `cur < base * (1 - tolerance)`
/// can never fire, so the gate would pass every regression: exit 2
/// naming the flag at parse time, before measuring anything.
#[test]
fn out_of_range_tolerance_exits_two_naming_the_flag() {
    let dir = scratch("bad-tolerance");
    let path = dir.join("BENCH_engine.json");
    std::fs::write(&path, "{\"cells\": [], \"events_per_sec\": 1}").unwrap();
    for v in ["nan", "-0.1", "1", "1.5"] {
        let args = [
            "bench-compare",
            "--baseline",
            path.to_str().unwrap(),
            "--procs",
            "2",
            "--scale",
            "0.01",
            "--tolerance",
            v,
        ];
        let out = netcache(&args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}, stderr: {err}");
        assert!(
            err.contains("--tolerance"),
            "{args:?}: flag not named: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `files` (name, contents) into a fresh trace directory.
fn trace_dir(tag: &str, files: &[(String, &str)]) -> PathBuf {
    let dir = scratch(tag);
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
    dir
}

/// 65 trace files ask for a 65-node machine, which the 128-channel ring
/// cannot serve: exit 2 naming the trace directory.
#[test]
fn replay_of_an_unservable_file_count_exits_two_naming_the_dir() {
    let files: Vec<(String, &str)> = (0..65)
        .map(|p| (format!("t.{p:02}.trace"), "C 5\nB 0\n"))
        .collect();
    let dir = trace_dir("replay-65", &files);
    let out = netcache(&["replay", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains(dir.to_str().unwrap()), "dir not named: {err}");
    assert!(err.contains("65 trace files"), "count not named: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lock and barrier ids are renumbered densely on replay, so ids near
/// `u32::MAX` run instead of sizing the machine's sync tables by id.
#[test]
fn replay_accepts_any_u32_sync_ids() {
    let dir = trace_dir(
        "replay-ids",
        &[
            (
                "t.0.trace".into(),
                "A 4000000000\nC 5\nL 4000000000\nB 3000000000\n",
            ),
            ("t.1.trace".into(), "C 9\nB 3000000000\n"),
        ],
    );
    let out = netcache(&["replay", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replayed 2 traces"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trace files whose barrier sequences differ would deadlock the
/// machine; replay rejects them up front (exit 2), naming the file.
#[test]
fn replay_of_mismatched_barriers_exits_two_naming_the_file() {
    let dir = trace_dir(
        "replay-bars",
        &[
            ("t.0.trace".into(), "C 5\nB 0\nB 1\n"),
            ("t.1.trace".into(), "C 5\nB 0\n"),
        ],
    );
    let out = netcache(&["replay", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("t.1.trace"), "file not named: {err}");
    assert!(err.contains("barrier"), "cause not named: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lock a trace leaves held deadlocks its next acquirer; replay rejects
/// lock pairs that are not properly nested up front (exit 2), naming the
/// file.
#[test]
fn replay_of_unbalanced_locks_exits_two_naming_the_file() {
    for (tag, t0, t1, bad, cause) in [
        (
            "held",
            "A 0\nC 5\n",
            "A 0\nR 0\n",
            "t.0.trace",
            "ends holding lock 0",
        ),
        ("unheld", "C 5\n", "L 3\n", "t.1.trace", "releases lock 3"),
        (
            "twice",
            "C 5\n",
            "A 3\nA 3\n",
            "t.1.trace",
            "acquires lock 3",
        ),
    ] {
        let dir = trace_dir(
            &format!("replay-locks-{tag}"),
            &[("t.0.trace".into(), t0), ("t.1.trace".into(), t1)],
        );
        let out = netcache(&["replay", dir.to_str().unwrap()]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{tag}: stderr: {err}");
        assert!(err.contains(bad), "{tag}: file not named: {err}");
        assert!(err.contains(cause), "{tag}: cause not named: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A trace file that does not parse is bad input like any other file:
/// exit 2 naming the file and the cause.
#[test]
fn replay_of_a_malformed_trace_exits_two_naming_the_file() {
    let dir = trace_dir(
        "replay-garbage",
        &[
            ("t.0.trace".into(), "C 5\n"),
            ("t.1.trace".into(), "Z garbage\n"),
        ],
    );
    let out = netcache(&["replay", dir.to_str().unwrap()]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("t.1.trace"), "file not named: {err}");
    assert!(err.contains("\"Z\""), "cause not named: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory with no `.trace` files has nothing to replay: exit 2
/// naming the directory.
#[test]
fn replay_of_a_dir_without_traces_exits_two_naming_the_dir() {
    let dir = trace_dir("replay-empty", &[("notes.txt".into(), "C 5\n")]);
    let out = netcache(&["replay", dir.to_str().unwrap()]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains(dir.to_str().unwrap()), "dir not named: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
