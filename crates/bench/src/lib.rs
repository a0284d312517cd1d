//! # netcache-bench — the experiment harness
//!
//! One bench target per table/figure of the paper (see `benches/`). This
//! library holds what they share: the per-application input scales, the
//! machine builders, [`run`] — which runs a figure's whole cell list as
//! one `netcache_core::Sweep` — and the table/series printers that emit
//! the same rows the paper reports.
//!
//! ## Knobs (environment variables)
//!
//! * `NETCACHE_SCALE` — multiply every application's default scale
//!   (e.g. `0.5` for a quick pass, `2` for a longer, lower-variance one).
//! * `NETCACHE_PROCS` — machine size (default 16, the paper's).
//! * `NETCACHE_JSON_DIR` — if set, every experiment also dumps its rows as
//!   JSON into this directory (for plotting).
//!
//! A `NETCACHE_SCALE` or `NETCACHE_PROCS` value that does not parse, or a
//! machine size the simulator cannot build, exits 2 naming the variable
//! before any cell runs.

use std::io::Write as _;

use netcache_apps::AppId;
use netcache_core::sweep::default_jobs;
use netcache_core::{Arch, RunReport, Sweep, SweepPoint, SysConfig};

/// Parses the `NETCACHE_PROCS` and `NETCACHE_SCALE` values (`None` when
/// unset) into the node count and the scale multiplier. The node count
/// must build every architecture's base machine, and the multiplier must
/// be positive and finite; an error names the variable.
pub fn parse_knobs(procs: Option<&str>, scale: Option<&str>) -> Result<(usize, f64), String> {
    let procs = match procs {
        None => 16,
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid NETCACHE_PROCS={v:?}: expected a node count"))?,
    };
    let bad_machine = Arch::ALL
        .iter()
        .find_map(|&a| SysConfig::base(a).with_nodes(procs).validate().err());
    if let Some(e) = bad_machine {
        return Err(format!("invalid NETCACHE_PROCS={procs}: {e}"));
    }
    let mult = match scale {
        None => 1.0,
        Some(v) => v
            .parse()
            .ok()
            .filter(|m: &f64| *m > 0.0 && m.is_finite())
            .ok_or_else(|| {
                format!("invalid NETCACHE_SCALE={v:?}: expected a positive multiplier")
            })?,
    };
    Ok((procs, mult))
}

/// Exits 2 with `msg`: a bad knob is user input, not a harness panic.
fn exit_bad_env(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// [`parse_knobs`] on the environment; exits 2 naming a bad variable.
fn knobs() -> (usize, f64) {
    let var = |k| std::env::var(k).ok();
    parse_knobs(
        var("NETCACHE_PROCS").as_deref(),
        var("NETCACHE_SCALE").as_deref(),
    )
    .unwrap_or_else(|e| exit_bad_env(&e))
}

/// Per-application input scale for bench runs at multiplier `mult`.
///
/// The paper's MINT simulations ran for hours; these scales keep every
/// figure reproducible in minutes while preserving each application's
/// working-set *structure* (grids and graphs keep their paper sizes where
/// that is what determines reuse; iteration counts shrink instead — each
/// app's `Params::scaled` documents its policy).
fn scaled(app: AppId, mult: f64) -> f64 {
    let base = match app {
        AppId::Cg => 0.2,
        AppId::Em3d => 0.5,
        AppId::Fft => 1.0, // paper size: FFT is cheap
        AppId::Gauss => 0.3,
        AppId::Lu => 0.2,
        AppId::Mg => 0.5,
        AppId::Ocean => 0.5,
        AppId::Radix => 0.1,
        AppId::Raytrace => 0.5,
        AppId::Sor => 0.1,
        AppId::Water => 0.5, // 2 timesteps
        AppId::Wf => 0.08,
    };
    (base * mult).clamp(0.005, 1.0)
}

/// Default per-application input scale for bench runs: a per-app base
/// scale times the `NETCACHE_SCALE` multiplier, clamped to the
/// workload's range.
pub fn default_scale(app: AppId) -> f64 {
    scaled(app, knobs().1)
}

/// Machine size for the experiments (paper: 16).
pub fn procs() -> usize {
    knobs().0
}

/// The base machine for `arch` at the bench node count.
pub fn machine(arch: Arch) -> SysConfig {
    SysConfig::base(arch).with_nodes(procs())
}

/// Runs a figure's `(config, app)` cells as one sweep on every host core
/// and returns the reports in cell order. Each workload runs at
/// [`default_scale`] on the configuration's own node count. Every
/// configuration is validated before anything runs; an invalid one exits
/// 2 naming `NETCACHE_PROCS`, the knob that sized it.
pub fn run(cells: Vec<(SysConfig, AppId)>) -> Vec<RunReport> {
    let (procs, mult) = knobs();
    let points = cells
        .into_iter()
        .map(|(cfg, app)| {
            let point = SweepPoint::new(cfg, app, scaled(app, mult));
            if let Err(e) = cfg.validate() {
                exit_bad_env(&format!(
                    "invalid NETCACHE_PROCS={procs}: machine {} fails: {e}",
                    point.label
                ));
            }
            point
        })
        .collect();
    Sweep::from_points(points)
        .run(default_jobs())
        .into_reports()
}

/// Runs a table's cells as one sweep ([`run`]) and makes one [`Row`]
/// per `(label, cells)` entry from `values(reports)`, the reports of that
/// entry's cells in order.
fn table(
    rows: Vec<(String, Vec<(SysConfig, AppId)>)>,
    values: impl Fn(&[RunReport]) -> Vec<f64>,
) -> Vec<Row> {
    let mut reports = run(rows.iter().flat_map(|(_, c)| c.iter().copied()).collect()).into_iter();
    rows.into_iter()
        .map(|(label, cells)| {
            let reports: Vec<RunReport> = reports.by_ref().take(cells.len()).collect();
            Row {
                label,
                values: values(&reports),
            }
        })
        .collect()
}

/// One row per application (in `AppId::ALL` order, labelled with its
/// name) over the machines `cfgs`: `values` gets the application's
/// reports in `cfgs` order.
pub fn app_rows(cfgs: &[SysConfig], values: impl Fn(&[RunReport]) -> Vec<f64>) -> Vec<Row> {
    let rows = AppId::ALL
        .iter()
        .map(|&app| {
            (
                app.name().to_string(),
                cfgs.iter().map(|&c| (c, app)).collect(),
            )
        })
        .collect();
    table(rows, values)
}

/// The rows of the Figs. 13–15 trend plots: Radix then Gauss, each on
/// DMON-I, LambdaNet, DMON-U and NetCache (labelled `radix-DI`, ...),
/// run on `variants` of that architecture's bench machine; `values` gets
/// the row's reports in `variants` order.
pub fn trend_rows<const N: usize>(
    variants: impl Fn(SysConfig) -> [SysConfig; N],
    values: impl Fn(&[RunReport]) -> Vec<f64>,
) -> Vec<Row> {
    let short = |a: Arch| match a {
        Arch::NetCache => "N",
        Arch::LambdaNet => "L",
        Arch::DmonU => "DU",
        Arch::DmonI => "DI",
    };
    let rows = [AppId::Radix, AppId::Gauss]
        .into_iter()
        .flat_map(|app| {
            [Arch::DmonI, Arch::LambdaNet, Arch::DmonU, Arch::NetCache].map(|arch| {
                let cells = variants(machine(arch)).map(|c| (c, app)).to_vec();
                (format!("{}-{}", app.name(), short(arch)), cells)
            })
        })
        .collect();
    table(rows, values)
}

/// One row of an emitted experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (application name, parameter value, ...).
    pub label: String,
    /// Column values, aligned with the experiment's headers.
    pub values: Vec<f64>,
}

/// Prints a figure/table in the paper's row/series layout and optionally
/// dumps JSON for plotting.
pub fn emit(name: &str, title: &str, headers: &[&str], rows: &[Row]) {
    println!();
    println!("=== {name}: {title} ===");
    print!("{:<24}", "");
    for h in headers {
        print!(" {h:>12}");
    }
    println!();
    for r in rows {
        print!("{:<24}", r.label);
        for v in &r.values {
            if v.fract() == 0.0 && v.abs() < 1e12 {
                print!(" {:>12}", *v as i64);
            } else {
                print!(" {v:>12.3}");
            }
        }
        println!();
    }
    if let Ok(dir) = std::env::var("NETCACHE_JSON_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        if let Ok(mut f) = std::fs::File::create(&path) {
            // Hand-rolled JSON: the structure is trivial and it keeps the
            // harness inside the sanctioned dependency set.
            let hdrs: Vec<String> = headers.iter().map(|h| format!("\"{h}\"")).collect();
            let _ = writeln!(f, "{{\n  \"name\": \"{name}\",\n  \"title\": \"{title}\",");
            let _ = writeln!(f, "  \"headers\": [{}],", hdrs.join(", "));
            let _ = writeln!(f, "  \"rows\": [");
            for (i, r) in rows.iter().enumerate() {
                let vals: Vec<String> = r.values.iter().map(|v| format!("{v}")).collect();
                let comma = if i + 1 < rows.len() { "," } else { "" };
                let _ = writeln!(
                    f,
                    "    {{\"label\": \"{}\", \"values\": [{}]}}{comma}",
                    r.label,
                    vals.join(", ")
                );
            }
            let _ = writeln!(f, "  ]\n}}");
        }
    }
}

/// Normalizes a set of run times to the first entry (the paper's Fig. 6
/// style, NetCache = 1.0).
pub fn normalized(cycles: &[u64]) -> Vec<f64> {
    let base = cycles.first().copied().unwrap_or(1).max(1) as f64;
    cycles.iter().map(|&c| c as f64 / base).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        for app in AppId::ALL {
            let s = default_scale(app);
            assert!(s > 0.0 && s <= 1.0, "{}: {s}", app.name());
        }
    }

    #[test]
    fn normalized_starts_at_one() {
        let n = normalized(&[200, 300, 100]);
        assert_eq!(n[0], 1.0);
        assert_eq!(n[1], 1.5);
        assert_eq!(n[2], 0.5);
    }

    #[test]
    fn par_run_preserves_order() {
        // Mixed architectures and node counts: the i-th report must come
        // from the i-th cell whatever order the pool finishes them in.
        let cells = vec![
            (SysConfig::base(Arch::DmonI).with_nodes(2), AppId::Sor),
            (SysConfig::base(Arch::NetCache).with_nodes(4), AppId::Radix),
            (SysConfig::base(Arch::LambdaNet).with_nodes(1), AppId::Wf),
            (SysConfig::base(Arch::DmonU).with_nodes(2), AppId::Sor),
        ];
        let want: Vec<(&str, usize)> = cells
            .iter()
            .map(|(cfg, _)| (cfg.arch.name(), cfg.nodes))
            .collect();
        let got: Vec<(&str, usize)> = run(cells).iter().map(|r| (r.arch, r.nodes.len())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn run_cell_smoke() {
        std::env::set_var("NETCACHE_SCALE", "0.2");
        let r = run(vec![(machine(Arch::NetCache).with_nodes(4), AppId::Water)]);
        assert!(r[0].cycles > 0);
        std::env::remove_var("NETCACHE_SCALE");
    }

    #[test]
    fn knobs_default_to_the_paper_machine() {
        assert_eq!(parse_knobs(None, None), Ok((16, 1.0)));
        assert_eq!(parse_knobs(Some("4"), Some("0.05")), Ok((4, 0.05)));
    }

    #[test]
    fn bad_knobs_name_the_variable() {
        // Unparseable, or a machine the simulator cannot build: 128
        // channels do not split over 20 nodes, 0 nodes is no machine,
        // and sharer sets cap a machine at 64 nodes.
        for v in ["sixteen", "", "-4", "2.5", "20", "0", "128"] {
            let e = parse_knobs(Some(v), None).expect_err(v);
            assert!(e.contains("NETCACHE_PROCS"), "{v}: {e}");
        }
        for v in ["fast", "", "0", "-1", "nan", "inf"] {
            let e = parse_knobs(None, Some(v)).expect_err(v);
            assert!(e.contains("NETCACHE_SCALE"), "{v}: {e}");
        }
    }
}
