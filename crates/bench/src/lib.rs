//! # cgp-bench — figure harness
//!
//! One binary per figure of the paper's evaluation (Section 6). Each
//! figure compiles its app's dialect program under every series'
//! placement, profiles each plan's units on the VM
//! ([`cgp_core::profile_plan`]), checks that every series prints what the
//! sequential interpreter prints, and replays the profiles on the
//! simulated `w-w-1` grids (see DESIGN.md for the cluster substitution):
//! execution time per series on the 1-1-1, 2-2-1 and 4-4-1
//! configurations, plus the ratios the text quotes.
//!
//! Run all figures:
//!
//! ```sh
//! cargo run --release -p cgp-bench --bin all_figures
//! ```
//!
//! The host slowdown and the effective link bandwidths, and how they were
//! derived, are recorded in EXPERIMENTS.md.
//!
//! The figure binaries print figures and take only `--trace-out`. The
//! runtime's command line is the `cgp` binary ([`harness`]): it runs,
//! launches, explains and chaos-tests the four dialect apps.

pub mod autoscale;
pub mod dataplane;
pub mod harness;
pub mod launcher;

use cgp_core::grid::{simulate, GridConfig, LinkSpec};
use cgp_core::lang::interp::Interp;
use cgp_core::lang::HostEnv;
use cgp_core::{
    compile, profile_plan, CompileOptions, Decomposition, FilterEngine, FilterPlan, Objective,
    PipelineEnv, CALIBRATION, PENTIUM_SLOWDOWN,
};

/// The paper's three configurations.
pub(crate) const WIDTHS: [usize; 3] = [1, 2, 4];

/// Per-message latency of the simulated testbed's links (seconds).
const LINK_LATENCY: f64 = 2.0e-5;

/// One figure's program, dataset and target grid.
pub struct App {
    src: &'static str,
    /// The dataset, built once per figure.
    pub host: HostEnv,
    /// What the compiler plans under: the figure's `w-w-1` grid as a
    /// [`PipelineEnv`] (the VM's power divided by [`PENTIUM_SLOWDOWN`])
    /// and the dataset's sizes.
    opts: CompileOptions,
    /// Effective link bandwidth of the figure's grid (bytes/s).
    bandwidth: f64,
    /// The packet count, which the steady-state objective plans for.
    packets: u64,
}

impl App {
    /// `src` over `elems` loop points in `packets` packets on a grid with
    /// links of `bandwidth`; add the program's symbols to `opts`.
    fn new(src: &'static str, host: HostEnv, elems: i64, packets: u64, bandwidth: f64) -> App {
        let env = PipelineEnv::uniform(
            3,
            FilterEngine::Vm.power() / PENTIUM_SLOWDOWN,
            bandwidth,
            LINK_LATENCY,
        );
        App {
            src,
            host,
            opts: CompileOptions::new(env, elems / packets as i64),
            bandwidth,
            packets,
        }
    }

    /// The figure's `w-w-1` grid.
    pub fn grid(&self, w: usize) -> GridConfig {
        let link = LinkSpec {
            bandwidth: self.bandwidth,
            latency: LINK_LATENCY,
        };
        GridConfig::w_w_1(w, CALIBRATION / PENTIUM_SLOWDOWN, link)
    }

    /// What `Interp::run_main` prints for the program on the dataset.
    fn oracle(&self) -> Result<Vec<String>, String> {
        let tp = cgp_core::lang::frontend(self.src).map_err(|e| e.to_string())?;
        let mut it = Interp::new(&tp, self.host.clone());
        it.run_main().map_err(|e| e.to_string())?;
        Ok(it.output)
    }

    /// The compiled series: **Default** (the paper's placement),
    /// **Decomp** (the latency DP's pick; `Decomp-Comp` beside a manual
    /// variant), **Decomp-steady** (the steady-state pick, when it
    /// differs) and **Decomp-Manual** (`manual` under Decomp's options).
    pub fn series(&self, manual: Option<&str>) -> Result<Vec<(String, FilterPlan)>, String> {
        let build = |name: &str, src: &str, opts: &CompileOptions| {
            compile(src, opts)
                .map(|c| (name.to_string(), c.plan))
                .map_err(|e| format!("{name}: {e}"))
        };
        let comp = if manual.is_some() {
            "Decomp-Comp"
        } else {
            "Decomp"
        };
        let decomp = build(comp, self.src, &self.opts)?;
        let n_tasks = decomp.1.decomposition.unit_of.len();
        let default = self
            .opts
            .clone()
            .with_decomposition(Decomposition::default_style(n_tasks, 3));
        let steady = self.opts.clone().with_objective(Objective::SteadyState {
            n_packets: self.packets,
        });
        let mut series = vec![build("Default", self.src, &default)?];
        let steady = build("Decomp-steady", self.src, &steady)?;
        let differs = steady.1.decomposition.unit_of != decomp.1.decomposition.unit_of;
        series.push(decomp);
        if differs {
            series.push(steady);
        }
        if let Some(src) = manual {
            series.push(build("Decomp-Manual", src, &self.opts)?);
        }
        Ok(series)
    }
}

/// One figure: every series' placement and its makespan per width.
pub struct Figure {
    pub id: &'static str,
    pub title: String,
    pub versions: Vec<String>,
    /// Each version's `unit_of`.
    pub unit_of: Vec<Vec<usize>>,
    /// `rows[w][v]` = makespan of version `v` at width `WIDTHS[w]`.
    pub rows: Vec<Vec<f64>>,
}

impl Figure {
    /// Profile every series of `app` once on the VM, check that it prints
    /// what the oracle prints, and replay the profile at each width. A
    /// series that fails to compile or prints anything else fails the
    /// figure, naming the figure and the series.
    pub fn run(
        id: &'static str,
        title: impl Into<String>,
        app: &App,
        manual: Option<&str>,
    ) -> Result<Figure, String> {
        let oracle = app.oracle().map_err(|e| format!("{id} oracle: {e}"))?;
        let mut fig = Figure {
            id,
            title: title.into(),
            versions: Vec::new(),
            unit_of: Vec::new(),
            rows: vec![Vec::new(); WIDTHS.len()],
        };
        for (name, plan) in app.series(manual).map_err(|e| format!("{id} {e}"))? {
            let p = profile_plan(&plan, &app.host).map_err(|e| format!("{id} {name}: {e}"))?;
            if p.output != oracle {
                return Err(format!(
                    "{id} {name}: printed {:?}, the oracle prints {oracle:?}",
                    p.output
                ));
            }
            for (row, &w) in fig.rows.iter_mut().zip(&WIDTHS) {
                row.push(simulate(&app.grid(w), &p.packets, &p.finalize_bytes).makespan);
            }
            fig.versions.push(name);
            fig.unit_of.push(plan.decomposition.unit_of);
        }
        Ok(fig)
    }

    /// Render the paper-style table plus derived ratios.
    pub fn print(&self) {
        println!("== {}: {} ==", self.id, self.title);
        for (v, u) in self.versions.iter().zip(&self.unit_of) {
            let cut = if u.iter().all(|&x| x == 0) {
                " (no cut)"
            } else {
                ""
            };
            println!("{v}: unit_of {u:?}{cut}, matches the oracle");
        }
        print!("{:<10}", "config");
        for v in &self.versions {
            print!(" {:>16}", format!("{v}(s)"));
        }
        println!();
        for (i, &w) in WIDTHS.iter().enumerate() {
            print!("{:<10}", format!("{w}-{w}-1"));
            for t in &self.rows[i] {
                print!(" {:>16.4}", t);
            }
            println!();
        }
        // Ratios the paper's text quotes.
        if self.versions.len() >= 2 {
            let d = &self.versions[0];
            for (vi, v) in self.versions.iter().enumerate().skip(1) {
                let g = (self.rows[0][0] / self.rows[0][vi] - 1.0) * 100.0;
                println!("{v} vs {d} at 1-1-1: {v} faster by {g:.0}%");
            }
        }
        for (vi, v) in self.versions.iter().enumerate() {
            let s2 = self.rows[0][vi] / self.rows[1][vi];
            let s4 = self.rows[0][vi] / self.rows[2][vi];
            println!("{v}: speedup {s2:.2}x at width 2, {s4:.2}x at width 4");
        }
        println!();
    }

    /// Markdown table block for EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "### {} — {}\n", self.id, self.title);
        let _ = write!(s, "| config |");
        for v in &self.versions {
            let _ = write!(s, " {v} (s) |");
        }
        let _ = writeln!(s);
        let _ = write!(s, "|---|");
        for _ in &self.versions {
            let _ = write!(s, "---|");
        }
        let _ = writeln!(s);
        for (i, &w) in WIDTHS.iter().enumerate() {
            let _ = write!(s, "| {w}-{w}-1 |");
            for t in &self.rows[i] {
                let _ = write!(s, " {t:.4} |");
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// Effective link bandwidths per application (see EXPERIMENTS.md).
pub mod env {
    /// Isosurface: in-memory grids streamed as large sequential buffers —
    /// near wire rate.
    pub(crate) const ISO_BANDWIDTH: f64 = 1.0e8;
    /// knn: large sequential point buffers stream near wire rate.
    pub(crate) const KNN_BANDWIDTH: f64 = 1.0e8;
    /// vmscope: many small pixel buffers through TCP-based streams.
    pub(crate) const VM_BANDWIDTH: f64 = 3.5e7;
}

/// The standard figure definitions (used by the per-figure binaries and
/// `all_figures`), at the sizes DESIGN.md's substitution table lists.
pub mod figures {
    use super::{env, App, Figure};
    use cgp_core::apps::dialect::{
        iso_host_env, knn_host_env, vmscope_host_env, APIX_SRC, KNN_MANUAL_SRC, KNN_SRC,
        VMSCOPE_MANUAL_SRC, VMSCOPE_SRC, ZBUF_SRC,
    };
    use cgp_core::apps::isosurface::{ScalarGrid, ISOVALUE};
    use cgp_core::apps::knn::generate_points;
    use cgp_core::apps::vmscope::Slide;

    /// The isosurface grid's plume layout.
    const ISO_SEED: u64 = 20030517;
    const ISO_PACKETS: u64 = 64;
    const KNN_POINTS: usize = 300_000;
    const KNN_PACKETS: u64 = 64;
    const KNN_QUERY: [f64; 3] = [0.5, 0.5, 0.5];

    /// An isosurface figure's grid and app: 40³ cells and a 256² screen,
    /// or 56³ and 384² (the screen scales with the extent). The crossing
    /// test's selectivity is the grid's measured crossing fraction.
    pub fn iso(large: bool, src: &'static str) -> (ScalarGrid, App) {
        let (n, screen) = if large { (56, 384) } else { (40, 256) };
        iso_sized(n, screen, ISO_PACKETS, src)
    }

    /// An isosurface app over an `n`³ grid and a `screen`² image in
    /// `packets` packets.
    pub(crate) fn iso_sized(
        n: usize,
        screen: i64,
        packets: u64,
        src: &'static str,
    ) -> (ScalarGrid, App) {
        let grid = ScalarGrid::synthetic(n, n, n, ISO_SEED);
        let host = iso_host_env(&grid, ISOVALUE as f64, screen, packets as i64);
        let ncubes = grid.cubes();
        let crossing = (0..ncubes)
            .map(|c| grid.corners(c))
            .filter(|v| {
                let lo = v.iter().fold(f32::INFINITY, |a, &b| a.min(b));
                let hi = v.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                lo <= ISOVALUE && hi > ISOVALUE
            })
            .count();
        let mut app = App::new(src, host, ncubes as i64, packets, env::ISO_BANDWIDTH);
        app.opts = app
            .opts
            .with_symbol("ncubes", ncubes as i64)
            .with_symbol("screen", screen)
            .with_selectivity(0, crossing as f64 / ncubes as f64);
        (grid, app)
    }

    fn knn(k: i64) -> App {
        let points = generate_points(KNN_POINTS, 42);
        let host = knn_host_env(&points, KNN_QUERY, k, KNN_PACKETS as i64);
        let n = KNN_POINTS as i64;
        let mut app = App::new(KNN_SRC, host, n, KNN_PACKETS, env::KNN_BANDWIDTH);
        app.opts = app.opts.with_symbol("npoints", n).with_symbol("k", k);
        app
    }

    /// A whole-slide query: `side`² pixels subsampled by `f`.
    fn vmscope(side: usize, f: i64, packets: u64) -> App {
        let slide = Slide::synthetic(side, side, 7);
        let host = vmscope_host_env(&slide, f, packets as i64);
        let side = side as i64;
        let mut app = App::new(VMSCOPE_SRC, host, side, packets, env::VM_BANDWIDTH);
        app.opts = app
            .opts
            .with_symbol("height", side)
            .with_symbol("width", side)
            .with_symbol("subsample", f)
            .with_selectivity(0, 1.0 / f as f64);
        app
    }

    pub fn fig05() -> Result<Figure, String> {
        let title = "z-buffer isosurface, small dataset";
        Figure::run("Figure 5", title, &iso(false, ZBUF_SRC).1, None)
    }

    pub fn fig06() -> Result<Figure, String> {
        let title = "z-buffer isosurface, large dataset";
        Figure::run("Figure 6", title, &iso(true, ZBUF_SRC).1, None)
    }

    pub fn fig07() -> Result<Figure, String> {
        let title = "active-pixel isosurface, small dataset";
        Figure::run("Figure 7", title, &iso(false, APIX_SRC).1, None)
    }

    pub fn fig08() -> Result<Figure, String> {
        let title = "active-pixel isosurface, large dataset";
        Figure::run("Figure 8", title, &iso(true, APIX_SRC).1, None)
    }

    pub fn fig09() -> Result<Figure, String> {
        let title = "k-nearest neighbors, k = 3";
        Figure::run("Figure 9", title, &knn(3), Some(KNN_MANUAL_SRC))
    }

    pub fn fig10() -> Result<Figure, String> {
        let title = "k-nearest neighbors, k = 200";
        Figure::run("Figure 10", title, &knn(200), Some(KNN_MANUAL_SRC))
    }

    pub fn fig11() -> Result<Figure, String> {
        let title = "virtual microscope, small query";
        let app = vmscope(256, 4, 5);
        Figure::run("Figure 11", title, &app, Some(VMSCOPE_MANUAL_SRC))
    }

    pub fn fig12() -> Result<Figure, String> {
        let title = "virtual microscope, large query";
        let app = vmscope(1024, 8, 64);
        Figure::run("Figure 12", title, &app, Some(VMSCOPE_MANUAL_SRC))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_core::apps::dialect::{knn_host_env, APIX_SRC, KNN_MANUAL_SRC, KNN_SRC, ZBUF_SRC};
    use cgp_core::apps::knn::generate_points;

    fn tiny_knn() -> App {
        let host = knn_host_env(&generate_points(400, 3), [0.5; 3], 5, 4);
        let mut app = App::new(KNN_SRC, host, 400, 4, env::KNN_BANDWIDTH);
        app.opts = app.opts.with_symbol("npoints", 400).with_symbol("k", 5);
        app
    }

    #[test]
    fn figure_runner_produces_tables() {
        let fig = Figure::run("test", "tiny knn", &tiny_knn(), Some(KNN_MANUAL_SRC)).unwrap();
        assert_eq!(fig.versions[0], "Default");
        assert_eq!(fig.unit_of[0], [0, 1, 1, 1]);
        assert!(fig.versions.contains(&"Decomp-Comp".to_string()));
        assert_eq!(fig.versions.last().unwrap(), "Decomp-Manual");
        assert_eq!(fig.rows.len(), 3);
        assert!(fig.rows.iter().all(|r| r.len() == fig.versions.len()));
        assert!(fig.rows.iter().flatten().all(|t| *t > 0.0));
        let md = fig.to_markdown();
        assert!(md.contains("| 1-1-1 |"));
    }

    #[test]
    fn a_series_printing_something_else_fails_the_figure_by_name() {
        let wrong = KNN_MANUAL_SRC.replace("print(best.checksum());", "print(best.count);");
        let err = Figure::run("Figure T", "tiny knn", &tiny_knn(), Some(&wrong))
            .err()
            .expect("a wrong series must fail the figure");
        assert!(
            err.starts_with("Figure T Decomp-Manual: printed [\"5\"]"),
            "{err}"
        );
    }

    /// An isosurface figure's Default and Decomp series print the same
    /// (`Figure::run` fails a series whose output differs from the
    /// oracle's), under different placements.
    fn default_and_decomp_agree(src: &'static str) {
        let (_, app) = figures::iso_sized(10, 16, 4, src);
        let fig = Figure::run("test", "tiny iso", &app, None).unwrap();
        assert_eq!(fig.versions[..2], ["Default", "Decomp"]);
        assert_ne!(fig.unit_of[0], fig.unit_of[1]);
    }

    #[test]
    fn default_and_decomp_agree_zbuf() {
        default_and_decomp_agree(ZBUF_SRC);
    }

    #[test]
    fn default_and_decomp_agree_apix() {
        default_and_decomp_agree(APIX_SRC);
    }
}
