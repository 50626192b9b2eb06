//! The three workloads: their sizes, seeded datasets, compile options,
//! host-environment builders and the interpreter reference.

use cgp_apps::dialect::{iso_host_env, knn_host_env, KNN_SRC, ZBUF_SRC};
use cgp_apps::isosurface::{ScalarGrid, ISOVALUE};
use cgp_apps::knn::generate_points;
use cgp_compiler::graph::build_graph;
use cgp_compiler::{normalize, CompileOptions, Decomposition, Objective};
use cgp_core::{FilterEngine, PipelineEnv};
use cgp_lang::interp::{HostEnv, Interp};
use cgp_obs::rng::SmallRng;
use std::path::Path;
use std::sync::Arc;

/// Pipeline units of every workload (`PipelineEnv::same_host(3, ..)`).
pub const UNITS: usize = 3;
/// The knn query point (the dataset, not the query, varies with the seed).
pub const KNN_QUERY: [f64; 3] = [0.5, 0.5, 0.5];
/// The zbuf grid's plume layout. Plume placement sets how many cubes
/// cross the isovalue, and with it most of the run's work, so it is held
/// fixed; the seed jitters every grid value instead (see
/// [`Spec::dataset`]).
pub const ZBUF_LAYOUT_SEED: u64 = 20030517;
/// Amplitude of the seeded jitter on zbuf grid values: enough to move
/// every crossing cube's interpolation weight (so the output changes
/// with the seed), small enough to flip almost no cube across the
/// isovalue.
const ZBUF_JITTER: f32 = 1e-4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KnnDecomp,
    ZbufDecomp,
    KnnDefaultShm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KnnDecomp,
        Workload::ZbufDecomp,
        Workload::KnnDefaultShm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KnnDecomp => "knn-decomp",
            Workload::ZbufDecomp => "zbuf-decomp",
            Workload::KnnDefaultShm => "knn-default-shm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs as one worker process per unit over shared-memory rings.
    pub fn launched(self) -> bool {
        self == Workload::KnnDefaultShm
    }
}

/// `full` is what the benchmark measures; `tiny` keeps the tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One workload at one size and seed: everything needed to rebuild the
/// same inputs in another process.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
}

/// The seeded input data, shared read-only by every host-env build.
pub enum Dataset {
    Points(Arc<Vec<[f64; 3]>>),
    Grid(Arc<ScalarGrid>),
}

/// A host-environment builder as the runtime takes it.
pub type Builder = Arc<dyn Fn() -> HostEnv + Send + Sync>;

impl Spec {
    pub fn src(&self) -> &'static str {
        match self.workload {
            Workload::ZbufDecomp => ZBUF_SRC,
            _ => KNN_SRC,
        }
    }

    /// knn: points. zbuf: grid edge (the grid has `edge - 1` cubes a side).
    fn extent(&self) -> usize {
        match (self.workload, self.size) {
            (Workload::KnnDecomp, Size::Full) => 300_000,
            (Workload::KnnDefaultShm, Size::Full) => 100_000,
            (Workload::ZbufDecomp, Size::Full) => 32,
            (Workload::ZbufDecomp, Size::Tiny) => 10,
            (_, Size::Tiny) => 3_000,
        }
    }

    pub fn packets(&self) -> i64 {
        match (self.workload, self.size) {
            (_, Size::Tiny) => 8,
            (Workload::KnnDefaultShm, Size::Full) => 128,
            (_, Size::Full) => 64,
        }
    }

    pub fn k(&self) -> i64 {
        8
    }

    pub fn screen(&self) -> i64 {
        match self.size {
            Size::Full => 256,
            Size::Tiny => 32,
        }
    }

    /// Domain elements of one run: points or cubes.
    pub fn elems(&self) -> usize {
        match self.workload {
            Workload::ZbufDecomp => (self.extent() - 1).pow(3),
            _ => self.extent(),
        }
    }

    /// One line naming the sizes, for logs and the reference cache key.
    pub fn describe(&self) -> String {
        match self.workload {
            Workload::ZbufDecomp => format!(
                "{} size={} seed={} grid={}^3 cubes={} screen={} packets={}",
                self.workload.name(),
                self.size.name(),
                self.seed,
                self.extent(),
                self.elems(),
                self.screen(),
                self.packets()
            ),
            _ => format!(
                "{} size={} seed={} points={} k={} packets={}",
                self.workload.name(),
                self.size.name(),
                self.seed,
                self.elems(),
                self.k(),
                self.packets()
            ),
        }
    }

    pub fn dataset(&self) -> Dataset {
        match self.workload {
            Workload::ZbufDecomp => {
                let e = self.extent();
                let mut grid = ScalarGrid::synthetic(e, e, e, ZBUF_LAYOUT_SEED);
                let mut rng = SmallRng::seed_from_u64(self.seed);
                for v in grid.data.iter_mut() {
                    *v += ZBUF_JITTER * (2.0 * rng.gen_f64() as f32 - 1.0);
                }
                Dataset::Grid(Arc::new(grid))
            }
            _ => Dataset::Points(Arc::new(generate_points(self.extent(), self.seed))),
        }
    }

    /// The compile options the program is compiled with. *Decomp*
    /// workloads let the steady-state objective place the cut; the
    /// *Default* workload forces the paper's baseline placement (all
    /// computation on unit 1, the data host only reads and ships).
    pub fn compile_options(&self) -> Result<CompileOptions, String> {
        let n_packets = self.packets();
        let elems = self.elems() as i64;
        let mut opts = CompileOptions::new(
            PipelineEnv::same_host(UNITS, FilterEngine::Vm.power()),
            (elems / n_packets).max(1),
        );
        opts = match self.workload {
            Workload::ZbufDecomp => opts
                .with_symbol("ncubes", elems)
                .with_symbol("screen", self.screen())
                .with_selectivity(0, 0.15),
            _ => opts
                .with_symbol("npoints", elems)
                .with_symbol("k", self.k()),
        };
        if self.workload == Workload::KnnDefaultShm {
            let typed = cgp_lang::frontend(self.src()).map_err(|e| e.to_string())?;
            let np = normalize(&typed).map_err(|e| e.to_string())?;
            let n_tasks = build_graph(&np).map_err(|e| e.to_string())?.atoms.len() + 1;
            Ok(opts.with_decomposition(Decomposition::default_style(n_tasks, UNITS)))
        } else {
            Ok(opts.with_objective(Objective::SteadyState {
                n_packets: n_packets as u64,
            }))
        }
    }

    /// The host environment the program receives, rebuilt per call (the
    /// runtime calls it once per filter copy, on that copy's thread).
    pub fn builder(&self, data: &Dataset) -> Builder {
        let (k, packets, screen) = (self.k(), self.packets(), self.screen());
        match data {
            Dataset::Points(p) => {
                let p = Arc::clone(p);
                Arc::new(move || knn_host_env(&p, KNN_QUERY, k, packets))
            }
            Dataset::Grid(g) => {
                let g = Arc::clone(g);
                Arc::new(move || iso_host_env(&g, ISOVALUE as f64, screen, packets))
            }
        }
    }
}

/// FNV-1a digest of the dataset's values, so tests can show that a seed
/// fixes the inputs.
pub fn digest(data: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    match data {
        Dataset::Points(p) => p.iter().flatten().for_each(|v| eat(v.to_bits())),
        Dataset::Grid(g) => g.data.iter().for_each(|v| eat(v.to_bits() as u64)),
    }
    h
}

/// The reference output: the whole program on the tree-walking
/// interpreter, which shares no code with the compiler or the runtime.
/// It is slow, so it is cached per spec under `cache_dir`.
pub fn reference(spec: &Spec, data: &Dataset, cache_dir: &Path) -> Result<Vec<String>, String> {
    let key = format!(
        "{:016x}-{:016x}",
        fnv(spec.describe().as_bytes()) ^ fnv(spec.src().as_bytes()),
        digest(data)
    );
    let path = cache_dir.join(format!("{}-{key}.txt", spec.workload.name()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        return Ok(text.lines().map(str::to_string).collect());
    }
    let typed = cgp_lang::frontend(spec.src()).map_err(|e| e.to_string())?;
    let mut interp = Interp::new(&typed, spec.builder(data)());
    interp.run_main().map_err(|e| e.to_string())?;
    let out = interp.output;
    std::fs::create_dir_all(cache_dir).map_err(|e| e.to_string())?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, out.join("\n")).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    Ok(out)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}
