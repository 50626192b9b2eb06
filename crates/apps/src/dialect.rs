//! The four applications written in the paper's dialect (Section 3).
//!
//! These are the compiler-path versions: each is a compact dialect program
//! (the paper reports its inputs were under 200 lines) that `cgp-compiler`
//! normalizes, analyzes, decomposes and turns into an executable
//! [`cgp_compiler::FilterPlan`]. They are deliberately simplified relative
//! to the native Rust pipelines in this crate (e.g. the isosurface program
//! renders one fragment per crossing cube instead of full triangles): the
//! native pipelines carry the performance experiments, while these carry
//! the *compiler* experiments — boundary selection, ReqComm, packing and
//! decomposition — and are validated against the sequential interpreter.

use crate::isosurface::ScalarGrid;
use crate::knn::generate_points;
use crate::vmscope::Slide;
use cgp_compiler::cost::{FilterEngine, PipelineEnv};
use cgp_compiler::CompileOptions;
use cgp_lang::interp::{HostEnv, Interp};
use cgp_lang::value::{ObjectVal, Shape, Value};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Isosurface rendering with z-buffers (the paper's Figure 1 workload).
pub const ZBUF_SRC: &str = r#"
extern int ncubes;
extern Cube[] cubes;
extern double isoval;
extern int screen;
runtime_define int num_packets;

class Cube {
    double v0; double v1; double v2; double v3;
    double v4; double v5; double v6; double v7;
    double cx; double cy; double cz;
}

class ZBuf implements Reducinterface {
    double[] depth;
    double[] color;
    int size;
    void setup(int s) {
        size = s;
        depth = new double[s * s];
        color = new double[s * s];
        for (int i = 0; i < s * s; i += 1) { depth[i] = 1.0e30; }
    }
    void put(int x, int y, double d, double c) {
        int i = y * size + x;
        if (d < depth[i]) {
            depth[i] = d;
            color[i] = c;
        }
    }
    void reduce(ZBuf other) {
        for (int i = 0; i < size * size; i += 1) {
            if (other.depth[i] < depth[i]) {
                depth[i] = other.depth[i];
                color[i] = other.color[i];
            }
        }
    }
    double checksum() {
        double s = 0.0;
        for (int i = 0; i < size * size; i += 1) { s += color[i]; }
        return s;
    }
}

class IsoZbuf {
    void main() {
        RectDomain<1> all = [0 : ncubes - 1];
        ZBuf zb = new ZBuf();
        zb.setup(screen);
        PipelinedLoop (pkt in all; num_packets) {
            foreach (c in pkt) {
                double lo = min(min(min(cubes[c].v0, cubes[c].v1), min(cubes[c].v2, cubes[c].v3)),
                                min(min(cubes[c].v4, cubes[c].v5), min(cubes[c].v6, cubes[c].v7)));
                double hi = max(max(max(cubes[c].v0, cubes[c].v1), max(cubes[c].v2, cubes[c].v3)),
                                max(max(cubes[c].v4, cubes[c].v5), max(cubes[c].v6, cubes[c].v7)));
                if (lo <= isoval && hi > isoval) {
                    double t = (isoval - lo) / (hi - lo + 0.000001);
                    double px = cubes[c].cx * 0.7 + cubes[c].cz * 0.3;
                    double py = cubes[c].cy * 0.7 + cubes[c].cz * 0.2;
                    double d = cubes[c].cz * 0.9 - t;
                    int x = toInt(px) % screen;
                    int y = toInt(py) % screen;
                    zb.put(x, y, d, 0.2 + 0.8 * t);
                }
            }
        }
        print(zb.checksum());
    }
}
"#;

/// Isosurface rendering with active pixels: the sparse accumulation
/// variant — same front half, sparse reduction object. The pixel list's
/// order depends on which copy's partial merges first, so `checksum` sums
/// a dense screen-indexed copy in pixel order: transparent copies give the
/// same bytes as the sequential run.
pub const APIX_SRC: &str = r#"
extern int ncubes;
extern Cube[] cubes;
extern double isoval;
extern int screen;
runtime_define int num_packets;

class Cube {
    double v0; double v1; double v2; double v3;
    double v4; double v5; double v6; double v7;
    double cx; double cy; double cz;
}

class ActivePixels implements Reducinterface {
    int[] pix;
    double[] depth;
    double[] color;
    int count;
    int cap;
    void setup(int capacity) {
        cap = capacity;
        count = 0;
        pix = new int[capacity];
        depth = new double[capacity];
        color = new double[capacity];
    }
    void put(int p, double d, double c) {
        int found = 0 - 1;
        for (int i = 0; i < count; i += 1) {
            if (pix[i] == p) { found = i; }
        }
        if (found >= 0) {
            if (d < depth[found]) {
                depth[found] = d;
                color[found] = c;
            }
        } else {
            if (count < cap) {
                pix[count] = p;
                depth[count] = d;
                color[count] = c;
                count = count + 1;
            }
        }
    }
    void reduce(ActivePixels other) {
        for (int i = 0; i < other.count; i += 1) {
            put(other.pix[i], other.depth[i], other.color[i]);
        }
    }
    double checksum(int npix) {
        double[] dense = new double[npix];
        for (int i = 0; i < count; i += 1) { dense[pix[i]] = color[i] + toDouble(pix[i]); }
        double s = 0.0;
        for (int q = 0; q < npix; q += 1) { s += dense[q]; }
        return s;
    }
}

class IsoApix {
    void main() {
        RectDomain<1> all = [0 : ncubes - 1];
        ActivePixels ap = new ActivePixels();
        ap.setup(4096);
        PipelinedLoop (pkt in all; num_packets) {
            foreach (c in pkt) {
                double lo = min(min(min(cubes[c].v0, cubes[c].v1), min(cubes[c].v2, cubes[c].v3)),
                                min(min(cubes[c].v4, cubes[c].v5), min(cubes[c].v6, cubes[c].v7)));
                double hi = max(max(max(cubes[c].v0, cubes[c].v1), max(cubes[c].v2, cubes[c].v3)),
                                max(max(cubes[c].v4, cubes[c].v5), max(cubes[c].v6, cubes[c].v7)));
                if (lo <= isoval && hi > isoval) {
                    double t = (isoval - lo) / (hi - lo + 0.000001);
                    double px = cubes[c].cx * 0.7 + cubes[c].cz * 0.3;
                    double py = cubes[c].cy * 0.7 + cubes[c].cz * 0.2;
                    double d = cubes[c].cz * 0.9 - t;
                    int x = toInt(px) % screen;
                    int y = toInt(py) % screen;
                    ap.put(y * screen + x, d, 0.2 + 0.8 * t);
                }
            }
        }
        print(ap.checksum(screen * screen));
    }
}
"#;

/// k-nearest-neighbor search.
pub const KNN_SRC: &str = r#"
extern int npoints;
extern double[] px;
extern double[] py;
extern double[] pz;
extern double qx;
extern double qy;
extern double qz;
extern int k;
runtime_define int num_packets;

class KNearest implements Reducinterface {
    double[] dist;
    int[] idx;
    int count;
    int cap;
    void setup(int kk) {
        cap = kk;
        count = 0;
        dist = new double[kk];
        idx = new int[kk];
    }
    void push(double d, int i) {
        if (count < cap) {
            dist[count] = d;
            idx[count] = i;
            count = count + 1;
            int j = count - 1;
            while (j > 0 && dist[j] < dist[j - 1]) {
                double td = dist[j];
                dist[j] = dist[j - 1];
                dist[j - 1] = td;
                int ti = idx[j];
                idx[j] = idx[j - 1];
                idx[j - 1] = ti;
                j = j - 1;
            }
        } else {
            if (d < dist[cap - 1]) {
                dist[cap - 1] = d;
                idx[cap - 1] = i;
                int j2 = cap - 1;
                while (j2 > 0 && dist[j2] < dist[j2 - 1]) {
                    double td2 = dist[j2];
                    dist[j2] = dist[j2 - 1];
                    dist[j2 - 1] = td2;
                    int ti2 = idx[j2];
                    idx[j2] = idx[j2 - 1];
                    idx[j2 - 1] = ti2;
                    j2 = j2 - 1;
                }
            }
        }
    }
    void reduce(KNearest other) {
        for (int i = 0; i < other.count; i += 1) {
            push(other.dist[i], other.idx[i]);
        }
    }
    double checksum() {
        double s = 0.0;
        for (int i = 0; i < count; i += 1) { s += dist[i]; }
        return s;
    }
}

class Knn {
    void main() {
        RectDomain<1> pts = [0 : npoints - 1];
        KNearest best = new KNearest();
        best.setup(k);
        PipelinedLoop (pkt in pts; num_packets) {
            foreach (i in pkt) {
                double dx = px[i] - qx;
                double dy = py[i] - qy;
                double dz = pz[i] - qz;
                double d = dx * dx + dy * dy + dz * dz;
                best.push(d, i);
            }
        }
        print(best.checksum());
    }
}
"#;

/// Virtual microscope: clip + subsample a slide region.
pub const VMSCOPE_SRC: &str = r#"
extern int height;
extern int width;
extern int subsample;
extern double[] pixels;
runtime_define int num_packets;

class OutImage implements Reducinterface {
    double[] data;
    int w;
    void setup(int ww, int hh) {
        w = ww;
        data = new double[ww * hh];
    }
    void put(int x, int y, double v) {
        data[y * w + x] = v;
    }
    void reduce(OutImage other) {
        for (int i = 0; i < data.length(); i += 1) {
            if (other.data[i] > 0.0) {
                data[i] = other.data[i];
            }
        }
    }
    double checksum() {
        double s = 0.0;
        for (int i = 0; i < data.length(); i += 1) { s += data[i]; }
        return s;
    }
}

class Vmscope {
    void main() {
        RectDomain<1> rows = [0 : height - 1];
        OutImage img = new OutImage();
        img.setup(width / subsample, height / subsample);
        PipelinedLoop (pkt in rows; num_packets) {
            foreach (y in pkt) {
                if (y % subsample == 0) {
                    for (int sx = 0; sx < width / subsample; sx += 1) {
                        img.put(sx, y / subsample, pixels[y * width + sx * subsample]);
                    }
                }
            }
        }
        print(img.checksum());
    }
}
"#;

/// Build the host environment for the isosurface dialect programs from a
/// scalar grid (cube objects with corner values and cell coordinates).
pub fn iso_host_env(grid: &ScalarGrid, isovalue: f64, screen: i64, num_packets: i64) -> HostEnv {
    // Eight corners plus the three coordinates, in `Cube`'s declared order;
    // every cube shares this one shape.
    const FIELDS: [&str; 11] = [
        "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "cx", "cy", "cz",
    ];
    let shape = Shape::new("Cube", FIELDS.iter().map(|f| f.to_string()).collect());
    let ncubes = grid.cubes();
    let mut cubes: Vec<Value> = Vec::with_capacity(ncubes);
    for c in 0..ncubes {
        let (cx, cy, cz) = grid.cube_coords(c);
        let slots = grid
            .corners(c)
            .iter()
            .map(|&v| v as f64)
            .chain([cx as f64, cy as f64, cz as f64])
            .map(|v| Some(Value::Double(v)))
            .collect();
        cubes.push(Value::Object(Rc::new(RefCell::new(ObjectVal::new(
            Arc::clone(&shape),
            slots,
        )))));
    }
    HostEnv::new()
        .bind("ncubes", Value::Int(ncubes as i64))
        .bind("cubes", Value::Array(Rc::new(RefCell::new(cubes))))
        .bind("isoval", Value::Double(isovalue))
        .bind("screen", Value::Int(screen))
        .bind("num_packets", Value::Int(num_packets))
}

/// Host environment for the knn dialect program.
pub fn knn_host_env(points: &[[f64; 3]], query: [f64; 3], k: i64, num_packets: i64) -> HostEnv {
    let arr = |sel: fn(&[f64; 3]) -> f64| {
        Value::Array(Rc::new(RefCell::new(
            points.iter().map(|p| Value::Double(sel(p))).collect(),
        )))
    };
    HostEnv::new()
        .bind("npoints", Value::Int(points.len() as i64))
        .bind("px", arr(|p| p[0]))
        .bind("py", arr(|p| p[1]))
        .bind("pz", arr(|p| p[2]))
        .bind("qx", Value::Double(query[0]))
        .bind("qy", Value::Double(query[1]))
        .bind("qz", Value::Double(query[2]))
        .bind("k", Value::Int(k))
        .bind("num_packets", Value::Int(num_packets))
}

/// Host environment for the vmscope dialect program (grayscale in (0, 1],
/// so the merge's "written" sentinel of 0 never collides with real data).
pub fn vmscope_host_env(slide: &Slide, subsample: i64, num_packets: i64) -> HostEnv {
    let pixels: Vec<Value> = (0..slide.height)
        .flat_map(|y| (0..slide.width).map(move |x| (x, y)))
        .map(|(x, y)| {
            let p = slide.pixel(x, y);
            Value::Double(0.05 + p[0] as f64 / 260.0)
        })
        .collect();
    HostEnv::new()
        .bind("height", Value::Int(slide.height as i64))
        .bind("width", Value::Int(slide.width as i64))
        .bind("subsample", Value::Int(subsample))
        .bind("pixels", Value::Array(Rc::new(RefCell::new(pixels))))
        .bind("num_packets", Value::Int(num_packets))
}

/// One of the four apps at its demo size: the program, the options it
/// compiles under, and a builder for its host dataset (one fresh
/// environment per call). The `cgp` CLI, the conformance matrix and the
/// decomposition tests all run these, and compare every run with
/// [`DemoApp::oracle`].
#[derive(Clone)]
pub struct DemoApp {
    pub name: &'static str,
    pub src: &'static str,
    pub opts: CompileOptions,
    pub host: Arc<dyn Fn() -> HostEnv + Send + Sync>,
}

/// zbuf, apix, knn (k = 3) and vmscope, in that order. knn and vmscope
/// plan at the VM's calibrated power ([`FilterEngine::Vm`]); zbuf and
/// apix keep the conservative 1e8 they were tuned at before object
/// shapes made field reads cheap, until the cost model's calibration
/// settles their power.
pub fn demo_apps() -> Vec<DemoApp> {
    let env = |power| PipelineEnv::uniform(3, power, 1e6, 1e-5);
    let vm = FilterEngine::Vm.power();
    let iso_opts = || {
        CompileOptions::new(env(1e8), 128)
            .with_symbol("ncubes", 343)
            .with_symbol("screen", 16)
            .with_selectivity(0, 0.15)
    };
    let grid = ScalarGrid::synthetic(8, 8, 8, 21);
    let iso_host: Arc<dyn Fn() -> HostEnv + Send + Sync> =
        Arc::new(move || iso_host_env(&grid, 0.8, 16, 4));
    let pts = generate_points(300, 5);
    let slide = Slide::synthetic(32, 32, 9);
    vec![
        DemoApp {
            name: "zbuf",
            src: ZBUF_SRC,
            opts: iso_opts(),
            host: Arc::clone(&iso_host),
        },
        DemoApp {
            name: "apix",
            src: APIX_SRC,
            opts: iso_opts(),
            host: iso_host,
        },
        DemoApp {
            name: "knn",
            src: KNN_SRC,
            opts: CompileOptions::new(env(vm), 64)
                .with_symbol("npoints", 300)
                .with_symbol("k", 3),
            host: Arc::new(move || knn_host_env(&pts, [0.3, 0.6, 0.2], 3, 6)),
        },
        DemoApp {
            name: "vmscope",
            src: VMSCOPE_SRC,
            opts: CompileOptions::new(env(vm), 8)
                .with_symbol("height", 32)
                .with_symbol("width", 32)
                .with_symbol("subsample", 2)
                .with_selectivity(0, 0.5),
            host: Arc::new(move || vmscope_host_env(&slide, 2, 4)),
        },
    ]
}

impl DemoApp {
    /// What `Interp::run_main` prints for the program on its host: the
    /// oracle every run of the app is compared with.
    pub fn oracle(&self) -> Vec<String> {
        let tp = cgp_lang::frontend(self.src)
            .unwrap_or_else(|e| panic!("oracle for {}: {e}", self.name));
        let mut it = Interp::new(&tp, (self.host)());
        it.run_main()
            .unwrap_or_else(|e| panic!("oracle for {}: {e}", self.name));
        it.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_compiler::graph::BoundaryKind;
    use cgp_compiler::{compile, run_plan_sequential};
    use std::collections::HashMap;

    fn oracle(src: &str, host: &HostEnv) -> Vec<String> {
        let tp = cgp_lang::frontend(src).unwrap();
        let mut it = Interp::new(&tp, host.clone());
        it.run_main().unwrap();
        it.output
    }

    fn small_iso_host() -> HostEnv {
        let grid = ScalarGrid::synthetic(8, 8, 8, 21);
        iso_host_env(&grid, 0.8, 16, 4)
    }

    #[test]
    fn iso_host_cubes_carry_corners_and_coordinates() {
        let grid = ScalarGrid::synthetic(3, 3, 3, 21);
        let host = iso_host_env(&grid, 0.8, 16, 4);
        let Some(Value::Array(cubes)) = host.values.get("cubes") else {
            panic!("no cube array");
        };
        let cubes = cubes.borrow();
        assert_eq!(cubes.len(), grid.cubes());
        let Value::Object(first) = &cubes[0] else {
            panic!("cube 0 is not an object");
        };
        let shape = Arc::clone(first.borrow().shape());
        let declared = [
            "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "cx", "cy", "cz",
        ];
        assert_eq!(shape.names(), declared, "fields in `Cube`'s declared order");
        for (c, cube) in cubes.iter().enumerate() {
            let Value::Object(obj) = cube else {
                panic!("cube {c} is not an object");
            };
            let obj = obj.borrow();
            assert!(
                Arc::ptr_eq(obj.shape(), &shape),
                "cube {c} has its own shape"
            );
            assert_eq!(obj.class(), "Cube");
            let (cx, cy, cz) = grid.cube_coords(c);
            let mut want: HashMap<String, f64> = grid
                .corners(c)
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("v{i}"), *v as f64))
                .collect();
            want.extend([
                ("cx".to_string(), cx as f64),
                ("cy".to_string(), cy as f64),
                ("cz".to_string(), cz as f64),
            ]);
            assert_eq!(obj.field_count(), want.len(), "cube {c}");
            for (name, v) in &want {
                assert!(
                    obj.get(name).is_some_and(|f| f.deep_eq(&Value::Double(*v))),
                    "cube {c} field {name}"
                );
            }
        }
    }

    #[test]
    fn zbuf_compiles_and_matches_oracle() {
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 128)
            .with_symbol("ncubes", 343)
            .with_symbol("screen", 16)
            .with_selectivity(0, 0.15);
        let c = compile(ZBUF_SRC, &opts).unwrap();
        let host = small_iso_host();
        let out = run_plan_sequential(&c.plan, &host).unwrap();
        assert_eq!(out, oracle(ZBUF_SRC, &host), "\n{}", c.plan.describe());
    }

    #[test]
    fn zbuf_decomposition_pushes_test_to_data_node() {
        // Under the steady-state objective with a realistically fast link,
        // the crossing test (cheap, kills most of the input volume) belongs
        // on the data host and the guarded rendering goes downstream —
        // exactly the placement the paper reports for the Decomp version.
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e8, 1e-5), 512)
            .with_symbol("ncubes", 4096)
            .with_symbol("screen", 64)
            .with_selectivity(0, 0.1)
            .with_objective(cgp_compiler::Objective::SteadyState { n_packets: 64 });
        let c = compile(ZBUF_SRC, &opts).unwrap();
        let g = &c.plan.graph;
        let (_, cond_b) = g.cond_boundaries[0];
        assert_eq!(g.boundaries[cond_b].kind, BoundaryKind::CondFilter);
        // The checking computation (the min/max loop feeding the crossing
        // test) must run on the data host…
        let check_atom = g
            .atoms
            .iter()
            .position(|a| a.label.starts_with("loop"))
            .expect("check loop atom");
        assert_eq!(
            c.plan.decomposition.unit_of[check_atom + 1],
            0,
            "check loop on data host\n{}",
            c.plan.describe()
        );
        // …the rendering body must be placed downstream…
        let body_atom = cond_b + 1; // body follows the select atom
        assert!(
            c.plan.decomposition.unit_of[body_atom + 1] >= 1,
            "{}",
            c.plan.describe()
        );
        // …and the chosen decomposition must beat the Default placement on
        // the steady-state objective.
        let default = cgp_compiler::Decomposition::default_style(c.problem.n_tasks(), 3);
        let default_cost =
            cgp_compiler::decompose::stage_times(&c.problem, &c.pipeline, &default.unit_of)
                .total_time(64);
        assert!(
            c.plan.decomposition.cost < default_cost,
            "decomp {} vs default {default_cost}",
            c.plan.decomposition.cost
        );
    }

    #[test]
    fn apix_compiles_and_matches_oracle() {
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 128)
            .with_symbol("ncubes", 343)
            .with_symbol("screen", 16)
            .with_selectivity(0, 0.15);
        let c = compile(APIX_SRC, &opts).unwrap();
        let host = small_iso_host();
        let out = run_plan_sequential(&c.plan, &host).unwrap();
        assert_eq!(out, oracle(APIX_SRC, &host));
    }

    #[test]
    fn knn_compiles_and_matches_oracle() {
        let pts = crate::knn::generate_points(300, 5);
        let host = knn_host_env(&pts, [0.3, 0.6, 0.2], 5, 6);
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 64)
            .with_symbol("npoints", 300)
            .with_symbol("k", 5);
        let c = compile(KNN_SRC, &opts).unwrap();
        let out = run_plan_sequential(&c.plan, &host).unwrap();
        assert_eq!(out, oracle(KNN_SRC, &host), "\n{}", c.plan.describe());
    }

    #[test]
    fn knn_decomposition_computes_distances_at_data_node() {
        // Raw points are 3 doubles each; the distance is 1 double — a slow
        // link favors computing distances upstream.
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e9, 1e5, 1e-4), 1024)
            .with_symbol("npoints", 100000)
            .with_symbol("k", 3);
        let c = compile(KNN_SRC, &opts).unwrap();
        // The distance-computing foreach atom must be on unit 0.
        let dist_atom = c
            .plan
            .graph
            .atoms
            .iter()
            .position(|a| a.label.starts_with("loop"))
            .expect("distance loop atom");
        assert_eq!(
            c.plan.decomposition.unit_of[dist_atom + 1],
            0,
            "{}",
            c.plan.describe()
        );
    }

    #[test]
    fn vmscope_compiles_and_matches_oracle() {
        let slide = Slide::synthetic(32, 32, 9);
        let host = vmscope_host_env(&slide, 2, 4);
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 8)
            .with_symbol("height", 32)
            .with_symbol("width", 32)
            .with_symbol("subsample", 2)
            .with_selectivity(0, 0.5);
        let c = compile(VMSCOPE_SRC, &opts).unwrap();
        let out = run_plan_sequential(&c.plan, &host).unwrap();
        assert_eq!(out, oracle(VMSCOPE_SRC, &host), "\n{}", c.plan.describe());
    }

    #[test]
    fn vmscope_sections_stay_rectilinear_with_known_consts() {
        let opts = CompileOptions::new(PipelineEnv::uniform(2, 1e8, 1e6, 1e-5), 8)
            .with_symbol("height", 32)
            .with_symbol("width", 32)
            .with_symbol("subsample", 2);
        let c = compile(VMSCOPE_SRC, &opts).unwrap();
        // With width/subsample known, the pixels consumption should be a
        // strided rectilinear section, not the whole array.
        let has_section =
            c.plan.analysis.input_set.iter().any(|p| {
                p.root == "pixels" && matches!(p.sect, cgp_compiler::Sectioning::Range(_))
            });
        assert!(has_section, "input set: {}", c.plan.analysis.input_set);
    }

    #[test]
    fn all_dialect_programs_under_paper_size() {
        for (name, src) in [
            ("zbuf", ZBUF_SRC),
            ("apix", APIX_SRC),
            ("knn", KNN_SRC),
            ("vmscope", VMSCOPE_SRC),
        ] {
            let lines = src.lines().filter(|l| !l.trim().is_empty()).count();
            assert!(lines < 200, "{name} is {lines} lines");
            // and they all parse + typecheck
            cgp_lang::frontend(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn pipeline_widths_consistency_zbuf() {
        // Same program, m = 2..4 — all must match the oracle.
        let host = small_iso_host();
        let expected = oracle(ZBUF_SRC, &host);
        for m in 2..=4 {
            let opts = CompileOptions::new(PipelineEnv::uniform(m, 1e8, 1e6, 1e-5), 128)
                .with_symbol("ncubes", 343)
                .with_symbol("screen", 16);
            let c = compile(ZBUF_SRC, &opts).unwrap();
            let out = run_plan_sequential(&c.plan, &host).unwrap();
            assert_eq!(out, expected, "m={m}\n{}", c.plan.describe());
        }
    }
}
