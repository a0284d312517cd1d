//! `perfbench`: the NetCache simulator's end-to-end and per-layer
//! benchmark. See `README.md` in this directory for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! perfbench --workload <fig6-grid|star64|store-rerun> [--seed N]
//!           [--seconds S] [--trace 0|1] [--print-digests]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use memsys::AddressMap;
use netcache_apps::{MacroOp, OpStream};
use netcache_core::sweep::{NoopObserver, Sweep, SweepResult, SweepRun};
use netcache_core::{cell_key, json, run_workload, EngineScratch, RunReport, Store};

use perfbench::cells::{cells, combined_digest, sweep_of, Cell, Kind};
use perfbench::host::{cpu_seconds, peak_rss_mb};
use perfbench::layers::Totals;
use perfbench::output::{result_line, Metric};
use perfbench::speed::{reference_seconds, to_nominal, NOMINAL_REF_S};
use perfbench::stats::{median, pool_efficiency, pool_idle_s, quartile_spread, ratio};
use perfbench::trace::{CellSpans, Tracer};
use perfbench::{pins, stats};

const USAGE: &str = "usage: perfbench --workload <fig6-grid|star64|store-rerun> \
                     [--seed N] [--seconds S] [--trace 0|1] [--print-digests]";

/// Timed passes per run at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Stream-drain passes in a traced run.
const DRAIN_PASSES: usize = 3;
/// Seconds between samples of the host's speed in an untimed gap.
const REF_EVERY_S: f64 = 0.5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut print_digests) = (0, 10.0, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {val:?}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_digests,
    })
}

/// Pool accounting of one traced pass.
struct Pool {
    cell_s_sum: f64,
    jobs: usize,
    wall_s: f64,
}

/// What one timed pass produced.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    reports: Vec<RunReport>,
    /// Traced passes only: the pass span and the pool accounting.
    traced: Option<(usize, Pool)>,
}

/// Scratch directories under the working directory, removed on drop.
struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    fn new() -> Self {
        let root = PathBuf::from(".bench_work").join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&root);
        Self { root, next: 0 }
    }

    /// A fresh store directory path (not yet created).
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Remove `.bench_work` itself once no other run uses it.
        let _ = fs::remove_dir(".bench_work");
    }
}

struct Bench {
    kind: Kind,
    seed: u64,
    cells: Vec<Cell>,
    sweep: Sweep,
    jobs: usize,
    /// Pinned digests by label (seed 0 only).
    pins: Option<HashMap<String, u64>>,
    /// First digest this process saw for each cell.
    seen: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    work: WorkDir,
    scratch: EngineScratch,
    /// `store-rerun`: the store populated in set-up.
    store: Option<Store>,
    passes: usize,
}

impl Bench {
    fn new(kind: Kind, seed: u64) -> Self {
        let cells = cells(kind, seed);
        let n = cells.len();
        Self {
            kind,
            seed,
            sweep: sweep_of(&cells),
            cells,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pins: (seed == 0).then(|| pins::for_workload(kind.name())),
            seen: vec![None; n],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            work: WorkDir::new(),
            scratch: EngineScratch::new(),
            store: None,
            passes: 0,
        }
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// Checks cell `i`'s report: it must match the pinned digest (seed
    /// 0) or the digest this process first saw, drop no ring orphans,
    /// and pass the caller's own check (`extra`, an error message).
    fn check(&mut self, i: usize, report: &RunReport, extra: Option<String>) {
        self.attempted += 1;
        let d = report.digest();
        let label = self.cells[i].label.clone();
        let why = if let Some(e) = extra {
            Some(e)
        } else if report.ring.is_some_and(|r| r.orphans_dropped != 0) {
            Some("ring dropped orphaned windows".to_string())
        } else if let Some(want) = self.pins.as_ref().map(|p| p.get(&label).copied()) {
            (want != Some(d)).then(|| format!("digest {d:#018x}, pinned {want:#x?}"))
        } else {
            self.seen[i]
                .filter(|&prev| prev != d)
                .map(|prev| format!("digest {d:#018x} differs from earlier {prev:#018x}"))
        };
        self.seen[i].get_or_insert(d);
        if let Some(why) = why {
            self.fail(1, format!("{label}: {why}"));
        }
    }

    /// The workload's set-up, repeated; returns the seconds of each
    /// repetition. `store-rerun` populates a fresh store from cold three
    /// times and keeps the last. The others build the cells, the sweep
    /// and the engine scratch, a few microseconds of work, so a batch of
    /// repetitions is timed, and `untraced_run` takes another batch after
    /// every pass so the median spans the whole run.
    fn setup(&mut self) -> Vec<f64> {
        let mut times = Vec::new();
        if self.kind == Kind::StoreRerun {
            for _ in 0..3 {
                let t0 = Instant::now();
                let dir = self.work.fresh();
                let store = Store::open(&dir).expect("open store");
                let res = self
                    .sweep
                    .run_stored(self.jobs, &NoopObserver, Some(&store));
                times.push(t0.elapsed().as_secs_f64());
                let st = store.stats();
                for (i, run) in res.runs.iter().enumerate() {
                    let err = (run.cached || st.write_errors != 0).then(|| {
                        format!(
                            "populate: cached {} write errors {}",
                            run.cached, st.write_errors
                        )
                    });
                    self.check(i, &run.report, err);
                }
                // Earlier stores stay until the work directory goes: deleting
                // them here would put file-system work next to the timed reads.
                self.store = Some(store);
            }
        } else {
            let t_all = Instant::now();
            while times.len() < 5 || (times.len() < 200 && t_all.elapsed().as_secs_f64() < 0.05) {
                let t0 = Instant::now();
                let cells = cells(self.kind, self.seed);
                black_box(sweep_of(&cells));
                black_box(EngineScratch::new());
                times.push(t0.elapsed().as_secs_f64());
            }
        }
        times
    }

    /// One timed pass of the workload, traced when `tracer` is given.
    fn pass(&mut self, tracer: Option<&Tracer>) -> Option<Pass> {
        self.passes += 1;
        let n = self.cells.len() as u64;
        let out = catch_unwind(AssertUnwindSafe(|| match self.kind {
            Kind::Fig6Grid => self.fig6_pass(tracer),
            Kind::Star64 => self.star64_pass(tracer),
            Kind::StoreRerun => self.store_pass(tracer),
        }));
        match out {
            Ok(pass) => Some(pass),
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.attempted += n;
                self.fail(n, format!("pass {} panicked: {msg}", self.passes));
                None
            }
        }
    }

    fn fig6_pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let (res, traced) = match tracer {
            None => {
                let res = self.sweep.run_observed(self.jobs, &NoopObserver);
                black_box(res.to_json().len() + res.to_csv().len());
                (res, None)
            }
            Some(t) => {
                let pass = t.open("pass", None, None);
                let ((res, walls), pool_s) = t.span("sweep.run_observed", None, Some(pass), |id| {
                    let obs = CellSpans::new(t, id, self.cells.len());
                    let res = self.sweep.run_observed(self.jobs, &obs);
                    (res, obs.walls())
                });
                emit(t, &res, Some(pass));
                t.close(pass);
                let pool = Pool {
                    cell_s_sum: walls.iter().sum(),
                    jobs: res.jobs,
                    wall_s: pool_s,
                };
                (res, Some((pass, pool)))
            }
        };
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        let reports: Vec<RunReport> = res.runs.into_iter().map(|r| r.report).collect();
        for (i, r) in reports.iter().enumerate() {
            self.check(i, r, None);
        }
        Pass {
            wall_s,
            cpu_s,
            reports,
            traced,
        }
    }

    fn star64_pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let scratch = &mut self.scratch;
        let (reports, traced) = match tracer {
            None => {
                let reports: Vec<RunReport> = self
                    .cells
                    .iter()
                    .map(|c| run_workload(&c.cfg, &c.wl, scratch))
                    .collect();
                (reports, None)
            }
            Some(t) => {
                let pass = t.open("pass", None, None);
                let ((reports, cell_s_sum), loop_s) =
                    t.span("serial.cells", None, Some(pass), |id| {
                        let mut sum = 0.0;
                        let reports: Vec<RunReport> = self
                            .cells
                            .iter()
                            .enumerate()
                            .map(|(i, c)| {
                                let (r, s) = t.span("core.run_workload", Some(i), Some(id), |_| {
                                    run_workload(&c.cfg, &c.wl, scratch)
                                });
                                sum += s;
                                r
                            })
                            .collect();
                        (reports, sum)
                    });
                t.close(pass);
                let pool = Pool {
                    cell_s_sum,
                    jobs: 1,
                    wall_s: loop_s,
                };
                (reports, Some((pass, pool)))
            }
        };
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        for (i, r) in reports.iter().enumerate() {
            self.check(i, r, None);
        }
        Pass {
            wall_s,
            cpu_s,
            reports,
            traced,
        }
    }

    fn store_pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let store = self.store.as_ref().expect("store populated in set-up");
        let before = store.stats();
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let (res, traced) = match tracer {
            None => (
                self.sweep.run_stored(self.jobs, &NoopObserver, Some(store)),
                None,
            ),
            Some(t) => {
                let pass = t.open("pass", None, None);
                let ((res, walls), read_s) = t.span("sweep.run_stored", None, Some(pass), |id| {
                    let obs = CellSpans::new(t, id, self.cells.len());
                    let res = self.sweep.run_stored(self.jobs, &obs, Some(store));
                    (res, obs.walls())
                });
                t.close(pass);
                let pool = Pool {
                    cell_s_sum: walls.iter().sum(),
                    jobs: res.jobs,
                    wall_s: read_s,
                };
                (res, Some((pass, pool)))
            }
        };
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        let after = store.stats();
        let served = (
            after.hits - before.hits,
            res.computed_cells(),
            after.invalidated - before.invalidated,
        );
        let err = (served != (self.cells.len() as u64, 0, 0)).then(|| {
            format!(
                "not served whole: cached {} / computed {} / invalidated {}",
                served.0, served.1, served.2
            )
        });
        let reports: Vec<RunReport> = res.runs.into_iter().map(|r| r.report).collect();
        for (i, r) in reports.iter().enumerate() {
            self.check(i, r, err.clone());
        }
        Pass {
            wall_s,
            cpu_s,
            reports,
            traced,
        }
    }

    /// Traced side pass: build and drain every cell's op streams with
    /// no machine attached, checking the op count against each cell's
    /// report. Returns `(ops, macro_ops, per-cell seconds)`.
    fn drain_pass(&mut self, t: &Tracer, reports: &[RunReport]) -> (u64, u64, Vec<f64>) {
        let pass = t.open("apps.drain_pass", None, None);
        let (mut ops, mut macros, mut secs, mut wrong) = (0, 0, Vec::new(), Vec::new());
        for (i, c) in self.cells.iter().enumerate() {
            let (streams, build_s) = t.span("apps.streams", Some(i), Some(pass), |_| {
                c.wl.streams(&AddressMap::new(c.cfg.nodes, c.cfg.l2.block_bytes))
            });
            let ((o, m), drain_s) = t.span("apps.drain", Some(i), Some(pass), |_| drain(streams));
            ops += o;
            macros += m;
            secs.push(build_s + drain_s);
            if o != reports[i].ops {
                wrong.push(format!(
                    "{}: drained {o} ops, report retired {}",
                    c.label, reports[i].ops
                ));
            }
        }
        t.close(pass);
        self.attempted += self.cells.len() as u64;
        for why in wrong {
            self.fail(1, why);
        }
        (ops, macros, secs)
    }

    /// Traced side pass: save every report into a fresh store, load it
    /// back, and parse each record. Returns the record bytes and the
    /// store's counters.
    fn store_round_trip(&mut self, t: &Tracer, reports: &[RunReport]) -> (u64, [u64; 4]) {
        let dir = self.work.fresh();
        let st = Store::open(&dir).expect("open round-trip store");
        let pass = t.open("store.round_trip", None, None);
        let keys: Vec<u64> = self.cells.iter().map(|c| cell_key(&c.cfg, &c.wl)).collect();
        for (i, c) in self.cells.iter().enumerate() {
            t.span("store.save", Some(i), Some(pass), |_| {
                st.save(keys[i], &c.label, &c.wl, &reports[i])
            });
        }
        let mut bytes = 0;
        for (i, r) in reports.iter().enumerate() {
            let (back, _) = t.span("store.load", Some(i), Some(pass), |_| st.load(keys[i]));
            let text = fs::read_to_string(st.record_path(keys[i])).unwrap_or_default();
            bytes += text.len() as u64;
            let (doc, _) = t.span("json.parse", Some(i), Some(pass), |_| json::parse(&text));
            let err = match (back, doc) {
                (Ok(b), Ok(_)) if b.digest() == r.digest() => None,
                (Ok(_), Ok(_)) => Some("store round trip changed the report".to_string()),
                (Err(m), _) => Some(format!("store round trip: {m:?}")),
                (_, Err(e)) => Some(format!("record does not parse: {e}")),
            };
            self.check(i, r, err);
        }
        t.close(pass);
        let s = st.stats();
        drop(st);
        let _ = fs::remove_dir_all(&dir);
        (bytes, [s.hits, s.absent, s.invalidated, s.write_errors])
    }

    fn summary(&self, what: &str) {
        let digest = combined_digest(self.seen.iter().map(|d| d.unwrap_or(0)));
        println!(
            "perfbench {} seed {}: {what}; {} cells checked, {} failed (failed_frac {}); \
             combined digest {digest:#018x}{}",
            self.kind.name(),
            self.seed,
            self.attempted,
            self.failed,
            stats::failed_frac(self.failed, self.attempted),
            if self.pins.is_some() {
                " (every cell checked against its pinned digest)"
            } else {
                ""
            }
        );
        for n in &self.notes {
            println!("  failure: {n}");
        }
    }
}

/// The sweep emitters, in a `json.emit` span.
fn emit(t: &Tracer, res: &SweepResult, parent: Option<usize>) {
    t.span("json.emit", None, parent, |_| {
        black_box(res.to_json().len() + res.to_csv().len())
    });
}

/// Drains op streams through the engine-facing cursor: spilled scalars,
/// runs of `One`s, and whole macro-ops. Returns `(ops, macro_ops)`.
fn drain(streams: Vec<OpStream>) -> (u64, u64) {
    let (mut ops, mut macros) = (0u64, 0u64);
    for mut s in streams {
        loop {
            let spilled = s.spill().len();
            if spilled > 0 {
                s.consume_spill(spilled);
                ops += spilled as u64;
                macros += spilled as u64;
                continue;
            }
            let run = s.macro_run();
            let Some(head) = run.first() else { break };
            let ones = run
                .iter()
                .take_while(|m| matches!(m, MacroOp::One(_)))
                .count();
            if ones > 0 {
                s.consume_ones(ones);
                ops += ones as u64;
                macros += ones as u64;
            } else {
                let (len, iters) = (head.ops_len(), head.total_iters());
                s.consume_iters(iters);
                ops += len;
                macros += 1;
            }
        }
    }
    (ops, macros)
}

/// A `SweepResult` around serially computed reports (for the emitters).
fn as_result(cells: &[Cell], reports: &[RunReport]) -> SweepResult {
    SweepResult {
        runs: cells
            .iter()
            .zip(reports)
            .map(|(c, r)| SweepRun {
                label: c.label.clone(),
                arch: r.arch,
                app: c.wl.app,
                nodes: c.cfg.nodes,
                scale: c.wl.scale,
                report: r.clone(),
                wall: Duration::from_nanos(r.wall_ns),
                cached: false,
            })
            .collect(),
        wall: Duration::from_nanos(reports.iter().map(|r| r.wall_ns).sum()),
        jobs: 1,
    }
}

fn untraced_run(b: &mut Bench, seconds: f64) -> Vec<Metric> {
    let mut refs = vec![reference_seconds()];
    let mut setup = b.setup();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (t0, mut last_ref) = (Instant::now(), Instant::now());
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let Some(p) = b.pass(None) else { break };
        walls.push(p.wall_s);
        cpus.push(p.cpu_s);
        if b.kind != Kind::StoreRerun {
            setup.extend(b.setup());
        }
        if last_ref.elapsed().as_secs_f64() >= REF_EVERY_S {
            refs.push(reference_seconds());
            last_ref = Instant::now();
        }
    }
    refs.push(reference_seconds());
    let (wall, cpu, set) = (median(&walls), median(&cpus), median(&setup));
    b.summary(&format!(
        "{} timed passes of {} cells; host seconds: wall {wall} (quartile spread over passes \
         {:.3}), cpu {cpu}, set-up {set}; reference work {:.2} us (nominal {:.2} us)",
        walls.len(),
        b.cells.len(),
        quartile_spread(&walls),
        median(&refs) * 1e6,
        NOMINAL_REF_S * 1e6,
    ));
    let k = to_nominal(&refs);
    vec![
        Metric::new("wall_norm_s", wall * k, "s"),
        Metric::new("cpu_norm_s", cpu * k, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("setup_s", set * k, "s"),
    ]
}

/// Element-wise median of per-pass metric lists with identical names.
fn median_metrics(per_pass: &[Vec<Metric>]) -> Vec<Metric> {
    per_pass[0]
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let vals: Vec<f64> = per_pass.iter().map(|p| p[k].value).collect();
            Metric::new(m.name.clone(), median(&vals), m.unit)
        })
        .collect()
}

fn traced_run(b: &mut Bench, seconds: f64) -> Vec<Metric> {
    b.setup();
    let t = Tracer::new();
    let (mut plain, mut traced, mut per_pass) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Vec<RunReport>> = None;
    let t0 = Instant::now();
    // Alternate untraced and traced passes so both see the same host.
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let Some(p) = b.pass(None) else { break };
        plain.push(p.wall_s);
        let Some(p) = b.pass(Some(&t)) else { break };
        let (span, pool) = p.traced.expect("traced pass");
        traced.push(p.wall_s);
        let pass_s = t.get(span).secs();
        let mut m = Totals::of(&p.reports).metrics();
        m.extend([
            Metric::new("sweep.cell_s_sum", pool.cell_s_sum, "s"),
            Metric::new(
                "sweep.pool_efficiency",
                pool_efficiency(pool.cell_s_sum, pool.jobs, pool.wall_s),
                "fraction",
            ),
            Metric::new(
                "sweep.idle_s",
                pool_idle_s(pool.cell_s_sum, pool.jobs, pool.wall_s),
                "s",
            ),
            Metric::new(
                "trace.unattributed_frac",
                1.0 - ratio(t.covered_s(span), pass_s),
                "fraction",
            ),
        ]);
        per_pass.push(m);
        last = Some(p.reports);
    }
    let Some(reports) = last else {
        b.summary("a pass failed before any traced pass completed");
        return Vec::new();
    };

    // Side passes: the stream drain, the store round trip, the emitters.
    let mut drains = Vec::new();
    let mut cell_drain = vec![Vec::new(); b.cells.len()];
    let (mut ops, mut macros) = (0, 0);
    for _ in 0..DRAIN_PASSES {
        let secs;
        (ops, macros, secs) = b.drain_pass(&t, &reports);
        drains.push(secs.iter().sum::<f64>());
        for (i, s) in secs.into_iter().enumerate() {
            cell_drain[i].push(s);
        }
    }
    let (record_bytes, [hits, absent, invalidated, write_errors]) =
        b.store_round_trip(&t, &reports);
    emit(&t, &as_result(&b.cells, &reports), None);

    let spans = t.spans();
    let mean_us = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .collect();
        ratio(v.iter().sum::<f64>() * 1e6, v.len() as f64)
    };
    let emit_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "json.emit")
        .map(|s| s.secs())
        .collect();
    let n = |x: u64| x as f64;
    let mut metrics = vec![
        Metric::new("apps.drain_s", median(&drains), "s"),
        Metric::new("apps.ops", n(ops), "count"),
        Metric::new("apps.macro_ops", n(macros), "count"),
        Metric::new("apps.ops_per_macro", ratio(n(ops), n(macros)), "ratio"),
    ];
    metrics.extend(median_metrics(&per_pass));
    metrics.extend([
        Metric::new("store.load_us", mean_us("store.load"), "us"),
        Metric::new("store.save_us", mean_us("store.save"), "us"),
        Metric::new("store.record_bytes", n(record_bytes), "bytes"),
        Metric::new("store.hits", n(hits), "count"),
        Metric::new("store.absent", n(absent), "count"),
        Metric::new("store.invalidated", n(invalidated), "count"),
        Metric::new("store.write_errors", n(write_errors), "count"),
        Metric::new("json.parse_us", mean_us("json.parse"), "us"),
        Metric::new("json.emit_s", median(&emit_s), "s"),
        Metric::new(
            "trace.overhead_frac",
            ratio(median(&traced), median(&plain)) - 1.0,
            "fraction",
        ),
    ]);

    // Per-cell rows, on stdout and in the trace file.
    let rows: Vec<String> = b
        .cells
        .iter()
        .zip(&reports)
        .enumerate()
        .map(|(i, (c, r))| {
            format!(
                "{{\"cell\": {i}, \"label\": \"{}\", \"engine_s\": {}, \"events\": {}, \"ops\": {}, \
                 \"elided_ops\": {}, \"drain_s\": {}}}",
                json::escape(&c.label),
                r.wall_ns as f64 * 1e-9,
                r.events,
                r.ops,
                r.elided_ops,
                median(&cell_drain[i]),
            )
        })
        .collect();
    println!("per-cell rows (engine_s from the last traced pass, drain_s the median drain):");
    for row in &rows {
        println!("  {row}");
    }
    let path =
        PathBuf::from(".bench_out").join(format!("trace-{}-seed{}.json", b.kind.name(), b.seed));
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cells\": [\n  {}\n], \"spans\": {}}}\n",
        b.kind.name(),
        b.seed,
        rows.join(",\n  "),
        t.to_json()
    );
    match fs::create_dir_all(".bench_out").and_then(|()| fs::write(&path, doc)) {
        Ok(()) => println!("spans and per-cell rows written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    b.summary(&format!(
        "{} untraced and {} traced passes of {} cells",
        plain.len(),
        traced.len(),
        b.cells.len()
    ));
    metrics
}

fn print_digests(kind: Kind, seed: u64) {
    let mut scratch = EngineScratch::new();
    for c in cells(kind, seed) {
        let r = run_workload(&c.cfg, &c.wl, &mut scratch);
        println!("{} {} {:#018x}", kind.name(), c.label, r.digest());
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.print_digests {
        print_digests(args.kind, args.seed);
        return;
    }
    let mut b = Bench::new(args.kind, args.seed);
    let metrics = if args.trace {
        traced_run(&mut b, args.seconds)
    } else {
        untraced_run(&mut b, args.seconds)
    };
    for m in &metrics {
        println!("  {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    let correct = b.failed == 0 && !metrics.is_empty();
    println!(
        "{}",
        result_line(correct, b.attempted.max(1), b.failed, &metrics)
    );
}
