//! # cgp-bench — figure harness
//!
//! One binary per figure of the paper's evaluation (Section 6). Each
//! harness runs the real application computation packet by packet and
//! replays the pipeline schedule on the simulated `w-w-1` grids (see
//! DESIGN.md for the cluster substitution), printing the same series the
//! paper plots: execution time per version on the 1-1-1, 2-2-1 and 4-4-1
//! configurations, plus the ratios the text quotes.
//!
//! Run all figures:
//!
//! ```sh
//! cargo run --release -p cgp-bench --bin all_figures
//! ```
//!
//! Per-figure environment constants (host slowdown, effective link
//! bandwidth) and their justification are recorded in EXPERIMENTS.md.
//!
//! The figure binaries print figures and take only `--trace-out`. The
//! runtime's command line is the `cgp` binary ([`harness`]): it runs,
//! launches, explains and chaos-tests the four dialect apps.

pub mod autoscale;
pub mod dataplane;
pub mod harness;
pub mod launcher;

use cgp_core::apps::profile::AppVariant;
use cgp_core::grid::{GridConfig, LinkSpec};
use cgp_core::{simulate_variant, CALIBRATION, PENTIUM_SLOWDOWN};

/// Default host slowdown re-exported for figure definitions.
pub const PENTIUM_SLOWDOWN_DEFAULT: f64 = PENTIUM_SLOWDOWN;

/// The paper's three configurations.
pub const WIDTHS: [usize; 3] = [1, 2, 4];

/// A `w-w-1` grid with an explicit effective link bandwidth (bytes/s) and
/// host slowdown (how much slower than the measuring machine the simulated
/// 700 MHz hosts run the app's instruction mix — see EXPERIMENTS.md).
pub fn grid_with(w: usize, bandwidth: f64, slowdown: f64) -> GridConfig {
    GridConfig::w_w_1(
        w,
        CALIBRATION / slowdown,
        LinkSpec {
            bandwidth,
            latency: 2.0e-5,
        },
    )
}

/// [`grid_with`] at the default [`PENTIUM_SLOWDOWN`].
pub fn grid_with_bandwidth(w: usize, bandwidth: f64) -> GridConfig {
    grid_with(w, bandwidth, PENTIUM_SLOWDOWN)
}

/// One figure: variant constructors are invoked fresh per configuration.
pub struct Figure {
    pub id: &'static str,
    pub title: String,
    pub versions: Vec<String>,
    /// `rows[w][v]` = makespan of version `v` at width `WIDTHS[w]`.
    pub rows: Vec<Vec<f64>>,
}

/// A named variant constructor.
pub type VariantMaker = (String, Box<dyn Fn() -> Box<dyn AppVariant>>);

impl Figure {
    /// Run `versions` across the three configurations.
    pub fn run(
        id: &'static str,
        title: impl Into<String>,
        bandwidth: f64,
        versions: Vec<VariantMaker>,
    ) -> Figure {
        Self::run_with(
            id,
            title,
            bandwidth,
            crate::PENTIUM_SLOWDOWN_DEFAULT,
            versions,
        )
    }

    /// [`Figure::run`] with an explicit host slowdown.
    pub fn run_with(
        id: &'static str,
        title: impl Into<String>,
        bandwidth: f64,
        slowdown: f64,
        versions: Vec<VariantMaker>,
    ) -> Figure {
        let mut rows = Vec::new();
        for &w in &WIDTHS {
            let grid = grid_with(w, bandwidth, slowdown);
            let mut row = Vec::new();
            let mut digest: Option<u64> = None;
            for (_, mk) in &versions {
                let mut v = mk();
                let run = simulate_variant(v.as_mut(), &grid);
                match digest {
                    None => digest = Some(run.result_digest),
                    Some(d) => assert_eq!(
                        d, run.result_digest,
                        "version results must agree ({id}, width {w})"
                    ),
                }
                row.push(run.makespan);
            }
            rows.push(row);
        }
        Figure {
            id,
            title: title.into(),
            versions: versions.into_iter().map(|(n, _)| n).collect(),
            rows,
        }
    }

    /// Render the paper-style table plus derived ratios.
    pub fn print(&self) {
        println!("== {}: {} ==", self.id, self.title);
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

/// Environment constants per application (see EXPERIMENTS.md).
pub mod env {
    /// Isosurface: in-memory grids streamed as large sequential slab
    /// buffers — near wire rate.
    pub const ISO_BANDWIDTH: f64 = 1.0e8;
    /// knn: large sequential point buffers stream near wire rate.
    pub const KNN_BANDWIDTH: f64 = 1.0e8;
    /// vmscope: many small pixel buffers through TCP-based streams.
    pub const VM_BANDWIDTH: f64 = 3.5e7;
    /// knn's kernel is x87-era scalar floating point — far below a modern
    /// core's auto-vectorized throughput — so its host slowdown sits higher
    /// in the calibration band (see EXPERIMENTS.md).
    pub const KNN_SLOWDOWN: f64 = 42.0;
}

/// Standard workloads for the figures (scaled from the paper's datasets;
/// see DESIGN.md substitutions).
pub mod workloads {
    use cgp_core::apps::isosurface::{IsoPipeline, IsoVersion, Renderer, ScalarGrid, ISOVALUE};
    use cgp_core::apps::knn::{generate_points, KnnPipeline, KnnVersion};
    use cgp_core::apps::vmscope::{Query, Slide, VmVersion, VmscopePipeline};

    /// Isosurface datasets: "small" and "large" synthetic grids (the
    /// paper's 150 MB / 600 MB ParSSim time-steps, scaled ~1:4 in cells).
    pub fn iso_grid(large: bool) -> ScalarGrid {
        if large {
            ScalarGrid::synthetic(192, 192, 192, 20030517)
        } else {
            ScalarGrid::synthetic(128, 128, 128, 20030517)
        }
    }

    pub const ISO_PACKETS: usize = 128;

    /// Screen scales with the dataset extent so the per-triangle raster
    /// area (hence the compute/communication balance) is size-independent.
    pub fn iso_screen(large: bool) -> usize {
        if large {
            1536
        } else {
            1024
        }
    }

    pub fn iso_variant(large: bool, renderer: Renderer, version: IsoVersion) -> IsoPipeline {
        IsoPipeline::new(
            iso_grid(large),
            ISOVALUE,
            ISO_PACKETS,
            iso_screen(large),
            renderer,
            version,
            if large { "iso-large" } else { "iso-small" },
        )
    }

    /// knn dataset: 1M `f64` points (the paper's 4.5M/108 MB, scaled).
    pub const KNN_POINTS: usize = 1_000_000;
    pub const KNN_PACKETS: usize = 8;
    pub const KNN_QUERY: [f64; 3] = [0.5, 0.5, 0.5];

    pub fn knn_variant(k: usize, version: KnnVersion) -> KnnPipeline {
        KnnPipeline::new(
            generate_points(KNN_POINTS, 42),
            KNN_QUERY,
            k,
            KNN_PACKETS,
            version,
            format!("knn-k{k}"),
        )
    }

    /// vmscope slide and the paper's two queries.
    pub fn vm_slide() -> Slide {
        Slide::synthetic(2048, 2048, 7)
    }

    pub fn vm_small_query() -> (Query, usize) {
        (
            Query {
                x0: 512,
                y0: 512,
                width: 256,
                height: 256,
                subsample: 4,
            },
            5,
        )
    }

    pub fn vm_large_query() -> (Query, usize) {
        (
            Query {
                x0: 0,
                y0: 0,
                width: 2048,
                height: 2048,
                subsample: 8,
            },
            64,
        )
    }

    pub fn vm_variant(large: bool, version: VmVersion) -> VmscopePipeline {
        let (q, packets) = if large {
            vm_large_query()
        } else {
            vm_small_query()
        };
        VmscopePipeline::new(
            vm_slide(),
            q,
            packets,
            version,
            if large { "vm-large" } else { "vm-small" },
        )
    }
}

/// Build the standard figure definitions (used by the per-figure binaries
/// and `all_figures`).
pub mod figures {
    use super::workloads::*;
    use super::{env, Figure, VariantMaker};
    use cgp_core::apps::isosurface::{IsoVersion, Renderer};
    use cgp_core::apps::knn::KnnVersion;
    use cgp_core::apps::profile::AppVariant;
    use cgp_core::apps::vmscope::VmVersion;

    fn boxed<V: AppVariant + 'static>(
        f: impl Fn() -> V + 'static,
    ) -> Box<dyn Fn() -> Box<dyn AppVariant>> {
        Box::new(move || Box::new(f()))
    }

    fn iso_versions(large: bool, renderer: Renderer) -> Vec<VariantMaker> {
        vec![
            (
                "Default".into(),
                boxed(move || iso_variant(large, renderer, IsoVersion::Default)),
            ),
            (
                "Decomp".into(),
                boxed(move || iso_variant(large, renderer, IsoVersion::Decomp)),
            ),
        ]
    }

    fn knn_versions(k: usize) -> Vec<VariantMaker> {
        vec![
            (
                "Default".into(),
                boxed(move || knn_variant(k, KnnVersion::Default)),
            ),
            (
                "Decomp-Comp".into(),
                boxed(move || knn_variant(k, KnnVersion::DecompComp)),
            ),
            (
                "Decomp-Manual".into(),
                boxed(move || knn_variant(k, KnnVersion::DecompManual)),
            ),
        ]
    }

    fn vm_versions(large: bool) -> Vec<VariantMaker> {
        vec![
            (
                "Default".into(),
                boxed(move || vm_variant(large, VmVersion::Default)),
            ),
            (
                "Decomp-Comp".into(),
                boxed(move || vm_variant(large, VmVersion::DecompComp)),
            ),
            (
                "Decomp-Manual".into(),
                boxed(move || vm_variant(large, VmVersion::DecompManual)),
            ),
        ]
    }

    pub fn fig05() -> Figure {
        Figure::run(
            "Figure 5",
            "z-buffer isosurface, small dataset",
            env::ISO_BANDWIDTH,
            iso_versions(false, Renderer::ZBuffer),
        )
    }

    pub fn fig06() -> Figure {
        Figure::run(
            "Figure 6",
            "z-buffer isosurface, large dataset",
            env::ISO_BANDWIDTH,
            iso_versions(true, Renderer::ZBuffer),
        )
    }

    pub fn fig07() -> Figure {
        Figure::run(
            "Figure 7",
            "active-pixel isosurface, small dataset",
            env::ISO_BANDWIDTH,
            iso_versions(false, Renderer::ActivePixels),
        )
    }

    pub fn fig08() -> Figure {
        Figure::run(
            "Figure 8",
            "active-pixel isosurface, large dataset",
            env::ISO_BANDWIDTH,
            iso_versions(true, Renderer::ActivePixels),
        )
    }

    pub fn fig09() -> Figure {
        Figure::run_with(
            "Figure 9",
            "k-nearest neighbors, k = 3",
            env::KNN_BANDWIDTH,
            env::KNN_SLOWDOWN,
            knn_versions(3),
        )
    }

    pub fn fig10() -> Figure {
        Figure::run_with(
            "Figure 10",
            "k-nearest neighbors, k = 200",
            env::KNN_BANDWIDTH,
            env::KNN_SLOWDOWN,
            knn_versions(200),
        )
    }

    pub fn fig11() -> Figure {
        Figure::run(
            "Figure 11",
            "virtual microscope, small query",
            env::VM_BANDWIDTH,
            vm_versions(false),
        )
    }

    pub fn fig12() -> Figure {
        Figure::run(
            "Figure 12",
            "virtual microscope, large query",
            env::VM_BANDWIDTH,
            vm_versions(true),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_core::apps::isosurface::{IsoPipeline, IsoVersion, Renderer, ScalarGrid};
    use cgp_core::apps::AppVariant;

    #[test]
    fn figure_runner_produces_tables() {
        let mk = |version: IsoVersion| -> Box<dyn Fn() -> Box<dyn AppVariant>> {
            Box::new(move || {
                Box::new(IsoPipeline::new(
                    ScalarGrid::synthetic(12, 12, 12, 1),
                    0.8,
                    4,
                    32,
                    Renderer::ZBuffer,
                    version,
                    "t",
                ))
            })
        };
        let fig = Figure::run(
            "test",
            "tiny iso",
            env::ISO_BANDWIDTH,
            vec![
                ("Default".into(), mk(IsoVersion::Default)),
                ("Decomp".into(), mk(IsoVersion::Decomp)),
            ],
        );
        assert_eq!(fig.rows.len(), 3);
        assert_eq!(fig.rows[0].len(), 2);
        assert!(fig.rows.iter().flatten().all(|t| *t > 0.0));
        let md = fig.to_markdown();
        assert!(md.contains("| 1-1-1 |"));
    }
}
