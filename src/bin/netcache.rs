//! `netcache` — command-line driver for the simulator.
//!
//! ```text
//! netcache run <app> [--arch A] [--scale S] [--procs P] [--ring-kb K]
//!                    [--topology T] [--rings C]
//! netcache compare <app> [--scale S] [--procs P] [--store DIR]
//! netcache sweep [apps...] [--archs A,B|all] [--jobs N] [--scale S]
//!                [--procs P] [--ring-kbs K,K,...] [--topology T] [--rings C]
//!                [--json F] [--csv F]
//!                [--serial] [--quiet] [--store DIR|--no-store]  # grid sweep engine
//! netcache trace <app> <dir> [--scale S] [--procs P]   # dump op streams
//! netcache replay <dir> [--arch A] [--procs P]         # run dumped traces
//! netcache profile <app> [--scale S] [--procs P]       # stream statistics
//! netcache bench-engine [--update-baseline|--json F] [--procs P] [--scale S] [--store DIR]  # engine events/sec (dry run by default)
//! netcache bench-compare --baseline F [--tolerance T]  # perf-regression gate
//! ```
//!
//! Architectures: `netcache` (default), `lambdanet`, `dmon-u`, `dmon-i`.
//!
//! Topologies: `single` (default, the paper's one shared ring),
//! `multi-ring` (C cache rings striped by block address; set C with
//! `--rings`), `star-of-rings` (clusters of up to 16 nodes, each with a
//! private cache ring, under a root star).
//!
//! `sweep` runs the full (architecture × application) grid by default —
//! the paper's Fig. 6 — fanning independent simulations across `--jobs`
//! worker threads (default: every host core). Reports always come back
//! in grid order and are bit-identical to a `--serial` run; see
//! DESIGN.md on why determinism survives parallel execution.
//!
//! `--store DIR` points `sweep`/`compare` at a content-addressed on-disk
//! result store: cells already present (same config, workload, and
//! engine version) are served from disk instead of re-simulated, and
//! freshly computed cells are written back — so an interrupted sweep
//! resumes where it left off. `bench-engine` always re-simulates (it
//! measures engine time) but *seeds* the store with its reports.

use std::fmt::Display;
use std::io::{ErrorKind, Write as _};
use std::process::exit;

use netcache::apps::{trace, AppId, Op, Workload};
use netcache::json::{self, Value};
use netcache::mem::AddressMap;
use netcache::sweep::{NoopObserver, StderrProgress, SweepObserver, SweepResult, SweepSpec};
use netcache::{run_app, run_streams, Arch, EngineScratch, Store, SysConfig, TopoKind};

struct Args {
    positional: Vec<String>,
    arch: Arch,
    archs: Option<Vec<Arch>>,
    scale: f64,
    procs: usize,
    ring_kb: Option<u64>,
    ring_kbs: Option<Vec<u64>>,
    /// Fabric topology (default: the single ring).
    topology: Option<TopoKind>,
    /// Cache-ring count C for `--topology multi-ring`.
    rings: Option<usize>,
    jobs: Option<usize>,
    json: Option<String>,
    csv: Option<String>,
    serial: bool,
    quiet: bool,
    baseline: Option<String>,
    tolerance: f64,
    update_baseline: bool,
    /// Directory of the on-disk result store (sweep/compare read through
    /// it, bench-engine seeds it).
    store: Option<String>,
    no_store: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: netcache <run|compare|sweep|trace|replay|profile|bench-engine|bench-compare> ... \
         [--arch netcache|lambdanet|dmon-u|dmon-i] [--scale S] [--procs P] [--ring-kb K] \
         [--topology single|multi-ring|star-of-rings] [--rings C]\n\
         sweep flags: [--archs A,B|all] [--jobs N] [--ring-kbs K,K,...] \
         [--json FILE] [--csv FILE] [--serial] [--quiet] [--store DIR|--no-store]\n\
         bench-compare flags: --baseline FILE [--tolerance T]\n\
         bench-engine flags: [--update-baseline] [--json FILE] [--store DIR] (neither: dry run)\n\
         --store DIR caches results on disk (sweep/compare serve cached cells, \
         bench-engine seeds); --no-store forces recomputation"
    );
    exit(2)
}

/// Parses a numeric flag value, failing with the flag's name rather than
/// the generic usage dump — a typo in one flag shouldn't cost the caller
/// the context of *which* flag was wrong.
fn parse_num<T: std::str::FromStr>(name: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {v:?} for {name}: expected a number");
        exit(2)
    })
}

/// [`parse_num`] for counts that must be at least 1 (`--jobs 0` would
/// mean "no workers" — a configuration with no meaning, named as such
/// instead of misbehaving downstream).
fn parse_count(name: &str, v: &str) -> usize {
    let n: usize = parse_num(name, v);
    if n == 0 {
        eprintln!("invalid value 0 for {name}: must be at least 1");
        exit(2)
    }
    n
}

/// Parses `--scale`: a workload input fraction in (0, 1], the range
/// `Workload::scale` accepts (NaN fails the range check too).
fn parse_scale(v: &str) -> f64 {
    let s: f64 = parse_num("--scale", v);
    if !(s > 0.0 && s <= 1.0) {
        eprintln!("invalid value {v:?} for --scale: must be in (0, 1]");
        exit(2)
    }
    s
}

fn parse_arch(name: &str) -> Arch {
    match name.to_lowercase().as_str() {
        "netcache" => Arch::NetCache,
        "lambdanet" => Arch::LambdaNet,
        "dmon-u" | "dmonu" => Arch::DmonU,
        "dmon-i" | "dmoni" => Arch::DmonI,
        other => {
            eprintln!("unknown architecture {other}");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        positional: Vec::new(),
        arch: Arch::NetCache,
        archs: None,
        scale: 0.1,
        procs: 16,
        ring_kb: None,
        ring_kbs: None,
        topology: None,
        rings: None,
        jobs: None,
        json: None,
        csv: None,
        serial: false,
        quiet: false,
        baseline: None,
        tolerance: 0.15,
        update_baseline: false,
        store: None,
        no_store: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--arch" => args.arch = parse_arch(&grab("--arch")),
            "--archs" => {
                let v = grab("--archs");
                args.archs = Some(if v == "all" {
                    Arch::ALL.to_vec()
                } else {
                    v.split(',').map(parse_arch).collect()
                });
            }
            "--scale" => args.scale = parse_scale(&grab("--scale")),
            "--procs" => args.procs = parse_count("--procs", &grab("--procs")),
            "--ring-kb" => {
                args.ring_kb = Some(parse_num("--ring-kb", &grab("--ring-kb")));
            }
            "--ring-kbs" => {
                args.ring_kbs = Some(
                    grab("--ring-kbs")
                        .split(',')
                        .map(|k| parse_num("--ring-kbs", k))
                        .collect(),
                );
            }
            "--topology" => args.topology = Some(parse_topology(&grab("--topology"))),
            "--rings" => args.rings = Some(parse_count("--rings", &grab("--rings"))),
            "--jobs" => args.jobs = Some(parse_count("--jobs", &grab("--jobs"))),
            "--json" => args.json = Some(grab("--json")),
            "--csv" => args.csv = Some(grab("--csv")),
            "--serial" => args.serial = true,
            "--quiet" => args.quiet = true,
            "--baseline" => args.baseline = Some(grab("--baseline")),
            "--update-baseline" => args.update_baseline = true,
            "--store" => args.store = Some(grab("--store")),
            "--no-store" => args.no_store = true,
            "--tolerance" => {
                args.tolerance = parse_num("--tolerance", &grab("--tolerance"));
            }
            _ if a.starts_with("--") => {
                eprintln!("unknown flag {a}");
                usage()
            }
            _ => args.positional.push(a),
        }
    }
    if args.store.is_some() && args.no_store {
        eprintln!("--store and --no-store conflict: pass at most one of them");
        exit(2)
    }
    // `--rings` is meaningful only for the striped multi-ring fabric; on
    // any other topology a silently ignored value would misrepresent the
    // machine that actually ran.
    if args.rings.is_some() && args.topology != Some(TopoKind::MultiRing) {
        eprintln!(
            "invalid use of --rings: it selects the cache-ring count for \
             --topology multi-ring, which was not requested"
        );
        exit(2)
    }
    args
}

/// Parses `--topology`, naming the flag and the accepted fabrics on
/// failure (same exit-2 convention as [`parse_num`]).
fn parse_topology(v: &str) -> TopoKind {
    TopoKind::parse(v).unwrap_or_else(|| {
        eprintln!(
            "invalid value {v:?} for --topology: expected one of {}",
            TopoKind::ALL.map(|k| k.name()).join(", ")
        );
        exit(2)
    })
}

/// Opens the `--store` directory, if one was requested. Failures (path
/// not creatable, not writable) name the flag and exit 2 — the caller
/// asked for persistence, so silently running storeless would lose every
/// result they expected to keep.
fn open_store(args: &Args) -> Option<Store> {
    let dir = args.store.as_ref()?;
    Some(Store::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open --store {dir}: {e}");
        exit(2)
    }))
}

fn app_by_name(name: &str) -> AppId {
    AppId::ALL
        .iter()
        .find(|a| a.name() == name)
        .copied()
        .unwrap_or_else(|| {
            eprintln!(
                "unknown app {name}; one of: {}",
                AppId::ALL.map(|a| a.name()).join(" ")
            );
            exit(2)
        })
}

fn config(args: &Args) -> SysConfig {
    let mut cfg = SysConfig::base(args.arch).with_nodes(args.procs);
    if let Some(kb) = args.ring_kb {
        cfg = cfg.with_ring_kb(kb);
    }
    cfg = apply_topology(cfg, args);
    machine_or_exit(cfg.validate(), args);
    cfg
}

/// Applies `--topology`/`--rings` to a config (unvalidated).
fn apply_topology(mut cfg: SysConfig, args: &Args) -> SysConfig {
    if let Some(kind) = args.topology {
        cfg = cfg.with_topology(kind);
    }
    if let Some(r) = args.rings {
        cfg = cfg.with_rings(r);
    }
    cfg
}

/// Unwraps a machine-configuration result, or exits 2 naming the flags
/// that shaped the machine: a combination the validator rejects (20
/// nodes cannot share 128 ring channels evenly, a star over a node count
/// that doesn't tile into clusters) is user input, not an engine panic.
fn machine_or_exit<T>(r: Result<T, String>, args: &Args) -> T {
    r.unwrap_or_else(|e| {
        let mut flags = format!("--procs {}", args.procs);
        if let Some(kb) = args.ring_kb {
            flags.push_str(&format!(" --ring-kb {kb}"));
        }
        if let Some(kbs) = &args.ring_kbs {
            let kbs: Vec<String> = kbs.iter().map(u64::to_string).collect();
            flags.push_str(&format!(" --ring-kbs {}", kbs.join(",")));
        }
        if let Some(kind) = args.topology {
            flags.push_str(&format!(" --topology {}", kind.name()));
        }
        if let Some(r) = args.rings {
            flags.push_str(&format!(" --rings {r}"));
        }
        eprintln!("invalid machine for {flags}: {e}");
        exit(2)
    })
}

/// The serial engine-throughput grid (one arch × all twelve apps) shared
/// by `bench-engine` and `bench-compare`. Serial so cell timings don't
/// contend for cores; events/sec uses each report's own event-loop wall
/// time (`wall_ns`), which excludes machine construction but includes
/// lazy op generation — the engine's real steady-state cost.
fn engine_sweep(args: &Args) -> netcache::Sweep {
    let spec = SweepSpec::new()
        .archs([args.arch])
        .all_apps()
        .nodes([args.procs])
        .scale(args.scale);
    machine_or_exit(spec.try_build(), args)
}

fn engine_grid(args: &Args) -> SweepResult {
    engine_sweep(args).run_serial()
}

/// Grid-wide engine-throughput aggregates.
struct EngineAgg {
    events: u64,
    ops: u64,
    elided: u64,
    sim_ns: u64,
}

impl EngineAgg {
    fn of(result: &SweepResult) -> Self {
        let mut agg = EngineAgg {
            events: 0,
            ops: 0,
            elided: 0,
            sim_ns: 0,
        };
        for r in &result.runs {
            agg.events += r.report.events;
            agg.ops += r.report.ops;
            agg.elided += r.report.elided_ops;
            agg.sim_ns += r.report.wall_ns;
        }
        agg
    }

    fn engine_s(&self) -> f64 {
        self.sim_ns as f64 / 1e9
    }

    /// Throughput with a guarded denominator: a degenerate grid whose
    /// cells all finish in under a nanosecond tick reports 0, never
    /// `inf`/`NaN` — `checked_baseline_eps` hard-fails on those, so the
    /// producer must not be able to write them into a baseline.
    fn events_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.events as f64 / self.engine_s()
    }

    fn ops_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.ops as f64 / self.engine_s()
    }
}

/// Validates the baseline `events_per_sec` before it becomes the gate's
/// denominator. A zero (or negative, or non-finite) recorded value would
/// make `cur < base * (1 - tolerance)` unsatisfiable, silently passing
/// every regression — so anything that can't anchor the gate is a hard
/// error, same as a missing key.
fn checked_baseline_eps(raw: Option<f64>) -> Result<f64, String> {
    match raw {
        None => Err("no events_per_sec in baseline".into()),
        Some(v) if !v.is_finite() => Err(format!("baseline events_per_sec is not finite ({v})")),
        Some(v) if v <= 0.0 => Err(format!(
            "baseline events_per_sec is {v}; a zero or negative baseline cannot gate \
             anything — re-record with bench-engine --update-baseline"
        )),
        Some(v) => Ok(v),
    }
}

/// Unwraps a file-I/O result, or exits 2 naming what failed: a bad path
/// is user input, so it gets the same treatment as a bad flag value
/// rather than a panic.
fn or_exit<T>(r: std::io::Result<T>, what: impl Display) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("cannot {what}: {e}");
        exit(2)
    })
}

/// Parses a bench JSON file's text with the strict reader; anything that
/// is not one complete JSON document (a truncated write, garbage) exits
/// 2 naming the file — a half-read baseline must never anchor the gate.
fn parse_bench_json(path: &str, text: &str) -> Value {
    json::parse(text).unwrap_or_else(|e| {
        eprintln!("{path}: not a valid bench JSON file: {e}");
        exit(2)
    })
}

/// One cell's `events` count in a parsed bench JSON, by label.
fn baseline_cell_events(doc: &Value, label: &str) -> Option<u64> {
    doc.get("cells")?
        .as_arr()?
        .iter()
        .find(|c| c.get("label").and_then(Value::as_str) == Some(label))?
        .get("events")?
        .as_u64()
}

/// A top-level number of a parsed bench JSON.
fn summary_num(doc: &Value, key: &str) -> Option<f64> {
    doc.get(key)?.as_f64()
}

/// A bench file's summary numbers as one compact history entry (`None`
/// when a required key is missing). The same form serves an archived
/// entry and the outgoing top-level summary, so entries re-emit verbatim.
fn history_entry(summary: &Value) -> Option<String> {
    let ev = summary.get("total_events")?.as_u64()?;
    let es = summary_num(summary, "engine_s")?;
    let eps = summary_num(summary, "events_per_sec")?;
    let mut e =
        format!("{{\"total_events\": {ev}, \"engine_s\": {es:.3}, \"events_per_sec\": {eps:.0}");
    if let Some(o) = summary_num(summary, "ops_per_sec") {
        e.push_str(&format!(", \"ops_per_sec\": {o:.0}"));
    }
    e.push('}');
    Some(e)
}

/// The history a refreshed bench file should carry: the previous file's
/// own `history` entries plus its top-level summary as the newest entry.
fn history_entries(prev: &Value) -> Vec<String> {
    let old = prev
        .get("history")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    old.iter().chain([prev]).filter_map(history_entry).collect()
}

fn main() {
    let args = parse_args();
    let Some(cmd) = args.positional.first().cloned() else {
        usage()
    };
    match cmd.as_str() {
        "run" => {
            let app = app_by_name(
                args.positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage()),
            );
            let cfg = config(&args);
            let wl = Workload::new(app, args.procs).scale(args.scale);
            let r = run_app(&cfg, &wl);
            println!("{}", r.summary());
            println!(
                "read stall {:.1}%  wb stall {:.1}%  sync {:.1}%  avg shared-read {:.0} pcycles",
                100.0 * r.read_latency_fraction(),
                100.0 * r.nodes.iter().map(|n| n.wb_stall).sum::<u64>() as f64
                    / (r.cycles as f64 * r.nodes.len() as f64),
                100.0 * r.sync_fraction(),
                r.avg_shared_read_latency()
            );
        }
        "compare" => {
            let app = app_by_name(
                args.positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage()),
            );
            // All four systems run concurrently through the sweep engine.
            let cfgs: Vec<SysConfig> = Arch::ALL
                .iter()
                .map(|&a| SysConfig::base(a).with_nodes(args.procs))
                .collect();
            for cfg in &cfgs {
                machine_or_exit(cfg.validate(), &args);
            }
            let store = open_store(&args);
            let reports =
                netcache::compare_stored(cfgs.iter(), app, args.procs, args.scale, store.as_ref());
            let base = reports[0].cycles;
            for r in &reports {
                println!(
                    "{:<10} {:>12} cycles  {:>6.2}x",
                    r.arch,
                    r.cycles,
                    r.cycles as f64 / base as f64
                );
            }
        }
        "sweep" => {
            // Grid axes: positional apps (default: all twelve), --archs
            // (default: all four), --ring-kbs (default: each arch's base).
            let apps: Vec<AppId> = if args.positional.len() > 1 {
                args.positional[1..]
                    .iter()
                    .map(|n| app_by_name(n))
                    .collect()
            } else {
                AppId::ALL.to_vec()
            };
            let mut spec = SweepSpec::new()
                .archs(args.archs.clone().unwrap_or_else(|| Arch::ALL.to_vec()))
                .apps(apps)
                .nodes([args.procs])
                .scale(args.scale);
            if let Some(kbs) = &args.ring_kbs {
                spec = spec.ring_kb(kbs.iter().copied());
            }
            if args.topology.is_some() || args.rings.is_some() {
                let cfg = apply_topology(SysConfig::base(args.arch).with_nodes(args.procs), &args);
                spec = spec.topologies([(cfg.topo.kind, cfg.topo.rings)]);
            }
            let sweep = machine_or_exit(spec.try_build(), &args);
            let jobs = args.jobs.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            });
            let store = open_store(&args);
            let result = if args.serial {
                sweep.run_serial_stored(store.as_ref())
            } else {
                let obs: &dyn SweepObserver = if args.quiet {
                    &NoopObserver
                } else {
                    &StderrProgress
                };
                sweep.run_stored(jobs, obs, store.as_ref())
            };
            println!(
                "{:<32} {:>14} {:>10} {:>10}",
                "cell", "cycles", "sc-hit %", "wall ms"
            );
            for r in &result.runs {
                println!(
                    "{:<32} {:>14} {:>9.1}% {:>10.1}",
                    r.label,
                    r.report.cycles,
                    100.0 * r.report.shared_cache_hit_rate(),
                    r.wall.as_secs_f64() * 1e3
                );
            }
            println!(
                "\n{} runs on {} worker(s): {:.2} s wall",
                result.runs.len(),
                result.jobs,
                result.wall.as_secs_f64()
            );
            if let Some(st) = &store {
                // `invalidated` counts records that were present but
                // unusable (corrupt, stale engine salt, digest mismatch)
                // and therefore recomputed and overwritten.
                println!(
                    "store {}: cached {} / computed {} / invalidated {}",
                    st.dir().display(),
                    result.cached_cells(),
                    result.computed_cells(),
                    st.stats().invalidated
                );
            }
            if let Some(path) = &args.json {
                or_exit(
                    std::fs::write(path, result.to_json()),
                    format_args!("write --json {path}"),
                );
                println!("wrote {path}");
            }
            if let Some(path) = &args.csv {
                or_exit(
                    std::fs::write(path, result.to_csv()),
                    format_args!("write --csv {path}"),
                );
                println!("wrote {path}");
            }
        }
        "trace" => {
            let app = app_by_name(
                args.positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage()),
            );
            let dir = args.positional.get(2).cloned().unwrap_or_else(|| usage());
            or_exit(
                std::fs::create_dir_all(&dir),
                format_args!("create trace dir {dir}"),
            );
            let map = AddressMap::new(args.procs, 64);
            let wl = Workload::new(app, args.procs).scale(args.scale);
            for (p, stream) in wl.streams(&map).into_iter().enumerate() {
                let path = format!("{dir}/{}.{p}.trace", app.name());
                let mut f = or_exit(
                    std::fs::File::create(&path),
                    format_args!("create trace file {path}"),
                );
                for op in stream {
                    or_exit(
                        writeln!(f, "{}", trace::format_op(&op)),
                        format_args!("write trace file {path}"),
                    );
                }
                println!("wrote {path}");
            }
        }
        "replay" => {
            let dir = args.positional.get(1).cloned().unwrap_or_else(|| usage());
            let mut paths: Vec<_> = or_exit(
                std::fs::read_dir(&dir),
                format_args!("read trace dir {dir}"),
            )
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().map(|e| e == "trace").unwrap_or(false))
            .collect();
            paths.sort();
            if paths.is_empty() {
                eprintln!("no .trace files in {dir}");
                exit(1);
            }
            let mut traces: Vec<Vec<Op>> = paths
                .iter()
                .map(|p| {
                    let f = or_exit(
                        std::fs::File::open(p),
                        format_args!("open trace file {}", p.display()),
                    );
                    trace::load(f).unwrap_or_else(|e| {
                        eprintln!("{}: {e}", p.display());
                        exit(1)
                    })
                })
                .collect();
            if let Err((i, why)) = trace::renumber_sync(&mut traces) {
                eprintln!("{}: {why}", paths[i].display());
                exit(2)
            }
            let procs = traces.len();
            let cfg = SysConfig::base(args.arch).with_nodes(procs.max(args.procs));
            if let Err(e) = cfg.validate() {
                eprintln!(
                    "cannot replay {procs} trace files from {dir} on a {}-node machine \
                     (--procs {}): {e}",
                    cfg.nodes, args.procs
                );
                exit(2)
            }
            let streams = traces.into_iter().map(trace::into_stream).collect();
            let r = run_streams(&cfg, streams, &mut EngineScratch::new());
            println!("replayed {procs} traces: {}", r.summary());
        }
        "bench-engine" => {
            // Engine throughput harness: the Fig. 6-style NetCache row
            // (all twelve apps, one arch, fixed node count); see
            // `engine_grid` for the measurement discipline. A --store is
            // never *read* here — cached results have no engine time to
            // measure — but the freshly timed reports seed it below.
            let result = engine_grid(&args);
            if let Some(st) = open_store(&args) {
                let reports: Vec<&netcache::RunReport> =
                    result.runs.iter().map(|r| &r.report).collect();
                let n = st.seed(engine_sweep(&args).points(), &reports);
                println!("seeded store {} ({n} cells)", st.dir().display());
            }
            println!(
                "{:<32} {:>12} {:>10} {:>14} {:>14} {:>8}",
                "cell", "events", "wall ms", "events/sec", "ops/sec", "elided%"
            );
            for r in &result.runs {
                println!(
                    "{:<32} {:>12} {:>10.1} {:>14.0} {:>14.0} {:>7.1}%",
                    r.label,
                    r.report.events,
                    r.report.wall_ns as f64 / 1e6,
                    r.report.events_per_sec(),
                    r.report.ops_per_sec(),
                    100.0 * r.report.elided_ops as f64 / r.report.ops.max(1) as f64,
                );
            }
            let agg = EngineAgg::of(&result);
            println!(
                "\ntotal: {} events / {} ops ({:.1}% elided) in {:.2} s engine time \
                 ({:.2} s sweep wall): {:.0} events/sec, {:.0} ops/sec",
                agg.events,
                agg.ops,
                100.0 * agg.elided as f64 / agg.ops.max(1) as f64,
                agg.engine_s(),
                result.wall.as_secs_f64(),
                agg.events_per_sec(),
                agg.ops_per_sec(),
            );
            // A measurement run is the default and writes nothing: the
            // committed baseline only moves on an explicit
            // `--update-baseline` (or to a scratch file via `--json F`).
            let Some(path) = args
                .json
                .clone()
                .or_else(|| args.update_baseline.then(|| "BENCH_engine.json".into()))
            else {
                println!("dry run (pass --update-baseline or --json FILE to record)");
                return;
            };
            // The outgoing file's summary is preserved as the newest entry
            // of the refreshed file's `history`, so the committed bench
            // carries its own trajectory across engine revisions.
            let history = match std::fs::read_to_string(&path) {
                Ok(prev) => history_entries(&parse_bench_json(&path, &prev)),
                Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    exit(2)
                }
            };
            let mut json = format!(
                "{{\n  \"bench\": \"engine\",\n  \"grid\": \"{} x {} apps, {} nodes, scale {}, serial\",\n  \"cells\": [\n",
                args.arch.name(),
                result.runs.len(),
                args.procs,
                args.scale,
            );
            for (i, r) in result.runs.iter().enumerate() {
                let comma = if i + 1 < result.runs.len() { "," } else { "" };
                json.push_str(&format!(
                    "    {{\"label\": \"{}\", \"events\": {}, \"ops\": {}, \
                     \"elided_ops\": {}, \"engine_ms\": {:.3}, \
                     \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \
                     \"ops_per_sec\": {:.0}}}{comma}\n",
                    r.label,
                    r.report.events,
                    r.report.ops,
                    r.report.elided_ops,
                    r.report.wall_ns as f64 / 1e6,
                    r.wall.as_secs_f64() * 1e3,
                    r.report.events_per_sec(),
                    r.report.ops_per_sec(),
                ));
            }
            json.push_str("  ],\n  \"history\": [\n");
            for (i, h) in history.iter().enumerate() {
                let comma = if i + 1 < history.len() { "," } else { "" };
                json.push_str(&format!("    {h}{comma}\n"));
            }
            json.push_str(&format!(
                "  ],\n  \"total_events\": {},\n  \"total_ops\": {},\n  \
                 \"elided_ops\": {},\n  \"engine_s\": {:.3},\n  \
                 \"sweep_wall_s\": {:.3},\n  \"events_per_sec\": {:.0},\n  \
                 \"ops_per_sec\": {:.0}\n}}\n",
                agg.events,
                agg.ops,
                agg.elided,
                agg.engine_s(),
                result.wall.as_secs_f64(),
                agg.events_per_sec(),
                agg.ops_per_sec(),
            ));
            or_exit(
                std::fs::write(&path, json),
                format_args!("write bench JSON {path}"),
            );
            println!("wrote {path}");
        }
        "bench-compare" => {
            // Perf-regression gate: re-measure the engine grid and fail
            // (exit 1) if throughput fell more than --tolerance below the
            // baseline file's recorded events/sec.
            let Some(baseline_path) = args.baseline.clone() else {
                eprintln!("bench-compare requires --baseline FILE");
                usage()
            };
            let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                exit(2)
            });
            let baseline = parse_bench_json(&baseline_path, &baseline);
            let base_eps = checked_baseline_eps(summary_num(&baseline, "events_per_sec"))
                .unwrap_or_else(|e| {
                    eprintln!("bench-compare: {e} ({baseline_path})");
                    exit(2)
                });
            let result = engine_grid(&args);
            let agg = EngineAgg::of(&result);
            let cur_eps = agg.events_per_sec();
            println!(
                "baseline: {:>12.0} events/sec ({})",
                base_eps, baseline_path
            );
            if let Some(s) = summary_num(&baseline, "engine_s") {
                println!("          engine_s {s:.3}");
            }
            println!(
                "current:  {:>12.0} events/sec (engine_s {:.3}, {:.0} ops/sec)",
                cur_eps,
                agg.engine_s(),
                agg.ops_per_sec(),
            );
            let ratio = cur_eps / base_eps;
            println!(
                "ratio: {ratio:.3}x (tolerance: {:.0}% regression)",
                100.0 * args.tolerance
            );
            if let Some(base_events) = baseline.get("total_events").and_then(Value::as_u64) {
                if base_events != agg.events {
                    println!(
                        "note: event count changed ({} -> {}): model revision, \
                         events/sec comparison is approximate",
                        base_events, agg.events
                    );
                }
            }
            // Per-app event counts against the baseline cells: a cell whose
            // count moved is flagged so a model revision (as opposed to a
            // pure engine-speed change) is visible at a glance.
            println!(
                "\n{:<32} {:>14} {:>14}",
                "cell", "base events", "cur events"
            );
            for r in &result.runs {
                match baseline_cell_events(&baseline, &r.label) {
                    Some(be) if be != r.report.events => {
                        println!("{:<32} {:>14} {:>14}  *", r.label, be, r.report.events)
                    }
                    Some(be) => println!("{:<32} {:>14} {:>14}", r.label, be, r.report.events),
                    None => println!("{:<32} {:>14} {:>14}", r.label, "-", r.report.events),
                }
            }
            if cur_eps < base_eps * (1.0 - args.tolerance) {
                eprintln!(
                    "REGRESSION: engine throughput fell {:.1}% below baseline",
                    100.0 * (1.0 - ratio)
                );
                exit(1);
            }
            println!("OK: within tolerance");
        }
        "profile" => {
            let app = app_by_name(
                args.positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage()),
            );
            let map = AddressMap::new(args.procs, 64);
            let wl = Workload::new(app, args.procs).scale(args.scale);
            println!(
                "{:<6} {:>10} {:>10} {:>12} {:>8} {:>8} {:>12}",
                "proc", "reads", "writes", "compute", "locks", "barriers", "blocks"
            );
            for (p, stream) in wl.streams(&map).into_iter().enumerate() {
                let prof = trace::profile(stream);
                println!(
                    "{p:<6} {:>10} {:>10} {:>12} {:>8} {:>8} {:>12}",
                    prof.reads,
                    prof.writes,
                    prof.compute,
                    prof.acquires,
                    prof.barriers,
                    prof.footprint_blocks
                );
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the silent-pass gate: a baseline recording
    /// `events_per_sec: 0` (or anything else that can't anchor the
    /// `cur < base * (1 - tol)` comparison) must be a hard error, never a
    /// valid denominator.
    #[test]
    fn unusable_baseline_eps_is_a_hard_error() {
        assert!(checked_baseline_eps(None).is_err());
        assert!(checked_baseline_eps(Some(0.0)).is_err());
        assert!(checked_baseline_eps(Some(-0.0)).is_err());
        assert!(checked_baseline_eps(Some(-123.0)).is_err());
        assert!(checked_baseline_eps(Some(f64::NAN)).is_err());
        assert!(checked_baseline_eps(Some(f64::INFINITY)).is_err());
        assert_eq!(checked_baseline_eps(Some(4785425.0)), Ok(4785425.0));
    }

    /// The producer side of the same gate: sub-tick grids must emit 0,
    /// not `inf`/`NaN`, so a recorded baseline can never poison
    /// `checked_baseline_eps` in the first place.
    #[test]
    fn engine_agg_guards_zero_wall_time() {
        let degenerate = EngineAgg {
            events: 100,
            ops: 50,
            elided: 0,
            sim_ns: 0,
        };
        assert_eq!(degenerate.events_per_sec(), 0.0);
        assert_eq!(degenerate.ops_per_sec(), 0.0);
        let normal = EngineAgg {
            events: 100,
            ops: 50,
            elided: 0,
            sim_ns: 1_000_000_000,
        };
        assert_eq!(normal.events_per_sec(), 100.0);
        assert_eq!(normal.ops_per_sec(), 50.0);
    }

    #[test]
    fn baseline_cell_events_finds_each_label() {
        let j = json::parse(
            "{\n  \"cells\": [\n    \
             {\"label\": \"netcache/fft/16\", \"events\": 24548, \"ops\": 7}, \n    \
             {\"label\": \"netcache/wf/16\", \"events\": 569335, \"ops\": 9}\n  ],\n  \
             \"events_per_sec\": 123\n}",
        )
        .unwrap();
        assert_eq!(baseline_cell_events(&j, "netcache/fft/16"), Some(24548));
        assert_eq!(baseline_cell_events(&j, "netcache/wf/16"), Some(569335));
        assert_eq!(baseline_cell_events(&j, "netcache/lu/16"), None);
    }

    /// History entries repeat the summary keys; the gate reads the file's
    /// own top-level numbers, never a history entry's.
    #[test]
    fn summary_num_reads_the_top_level_key() {
        let j = json::parse("{\"history\": [{\"events_per_sec\": 11}], \"events_per_sec\": 42.5}")
            .unwrap();
        assert_eq!(summary_num(&j, "events_per_sec"), Some(42.5));
        assert_eq!(summary_num(&j, "missing"), None);
    }

    /// A baseline in the committed file's layout reads back through the
    /// strict reader, and a refresh keeps every history entry verbatim
    /// before appending the outgoing summary.
    #[test]
    fn history_survives_a_refresh() {
        let text = "{\n  \"bench\": \"engine\",\n  \"cells\": [\n    \
            {\"label\": \"netcache/fft/p16/s0.1\", \"events\": 24548, \"engine_ms\": 4.829}\n  ],\n  \
            \"history\": [\n    \
            {\"total_events\": 2493754, \"engine_s\": 0.964, \"events_per_sec\": 2587356},\n    \
            {\"total_events\": 2493754, \"engine_s\": 0.612, \"events_per_sec\": 4077940, \"ops_per_sec\": 51208203}\n  ],\n  \
            \"total_events\": 2493754,\n  \"engine_s\": 0.609,\n  \
            \"events_per_sec\": 4093618,\n  \"ops_per_sec\": 51405077\n}\n";
        let doc = json::parse(text).unwrap();
        assert_eq!(summary_num(&doc, "events_per_sec"), Some(4093618.0));
        assert_eq!(summary_num(&doc, "engine_s"), Some(0.609));
        assert_eq!(
            baseline_cell_events(&doc, "netcache/fft/p16/s0.1"),
            Some(24548)
        );
        assert_eq!(
            history_entries(&doc),
            [
                "{\"total_events\": 2493754, \"engine_s\": 0.964, \"events_per_sec\": 2587356}",
                "{\"total_events\": 2493754, \"engine_s\": 0.612, \"events_per_sec\": 4077940, \
                 \"ops_per_sec\": 51208203}",
                "{\"total_events\": 2493754, \"engine_s\": 0.609, \"events_per_sec\": 4093618, \
                 \"ops_per_sec\": 51405077}",
            ]
        );
    }
}
