//! Engine differential over the four dialect apps: two `FilterStepper`s
//! drive the same m = 3 DP plan through the whole per-unit lifecycle —
//! loop bounds, every packet step, reduction states, the `reduce` merge
//! chain and the epilogue — one on the register VM and one on the
//! tree-walking interpreter. Every observable must agree, and the
//! epilogue must also equal an uncompiled `Interp::run_main`.

use cgp_apps::dialect::{
    iso_host_env, knn_host_env, vmscope_host_env, APIX_SRC, KNN_SRC, VMSCOPE_SRC, ZBUF_SRC,
};
use cgp_apps::isosurface::ScalarGrid;
use cgp_apps::knn::generate_points;
use cgp_apps::vmscope::Slide;
use cgp_compiler::cost::PipelineEnv;
use cgp_compiler::{compile, CompileOptions, FilterStepper};
use cgp_lang::interp::{split_domain, HostEnv, Interp};
use cgp_lang::Value;
use std::collections::HashMap;

fn assert_states_agree(ctx: &str, vm: &HashMap<String, Value>, it: &HashMap<String, Value>) {
    assert_eq!(
        vm.keys().collect::<std::collections::BTreeSet<_>>(),
        it.keys().collect(),
        "{ctx}: reduction roots diverged"
    );
    for (root, v) in vm {
        assert!(v.deep_eq(&it[root]), "{ctx}: `{root}` diverged");
    }
}

fn assert_engines_agree(name: &str, src: &str, opts: CompileOptions, host: HostEnv) {
    let plan = compile(src, &opts)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .plan;
    assert_eq!(plan.m, 3, "{name}");
    let mut vm = FilterStepper::new(&plan, &host).unwrap().with_vm(true);
    let mut it = FilterStepper::new(&plan, &host).unwrap().with_vm(false);
    let bounds = vm.loop_bounds().unwrap();
    assert_eq!(bounds, it.loop_bounds().unwrap(), "{name}: loop bounds");
    let ((lo, hi), n_packets) = bounds;
    let mut shipped = 0usize;
    for (plo, phi) in split_domain(lo, hi, n_packets as usize) {
        let (mut vb, mut ib): (Option<Vec<u8>>, Option<Vec<u8>>) = (None, None);
        for j in 0..plan.m {
            vb = vm.step(j, (plo, phi), vb.as_deref()).unwrap();
            ib = it.step(j, (plo, phi), ib.as_deref()).unwrap();
            assert_eq!(vb, ib, "{name}: f{} packet ({plo}, {phi})", j + 1);
            shipped += vb.as_ref().map_or(0, Vec::len);
        }
    }
    assert!(shipped > 0, "{name}: no packet bytes crossed a link");
    let mut roots = 0;
    for j in 0..plan.m {
        let (vs, is) = (vm.reduction_state(j), it.reduction_state(j));
        assert_states_agree(&format!("{name}: f{} state", j + 1), &vs, &is);
        roots += vs.len();
    }
    assert!(roots > 0, "{name}: the program has no reduction state");
    // The merge chain the runtime ships: f1 into f2, then f2 into f3.
    for j in 0..plan.m - 1 {
        let (vs, is) = (vm.reduction_state(j), it.reduction_state(j));
        vm.merge_reduction(j + 1, &vs).unwrap();
        it.merge_reduction(j + 1, &is).unwrap();
        assert_states_agree(
            &format!("{name}: f{} after merge", j + 2),
            &vm.reduction_state(j + 1),
            &it.reduction_state(j + 1),
        );
    }
    let out = vm.epilogue_at(plan.m - 1).unwrap();
    assert_eq!(out, it.epilogue_at(plan.m - 1).unwrap(), "{name}: epilogue");
    let tp = cgp_lang::frontend(src).unwrap();
    let mut oracle = Interp::new(&tp, host);
    oracle.run_main().unwrap();
    assert_eq!(out, oracle.output, "{name}: differs from run_main");
}

fn env() -> PipelineEnv {
    PipelineEnv::uniform(3, 1e8, 1e6, 1e-5)
}

fn iso_opts() -> CompileOptions {
    CompileOptions::new(env(), 128)
        .with_symbol("ncubes", 343)
        .with_symbol("screen", 16)
        .with_selectivity(0, 0.15)
}

#[test]
fn zbuf_engines_agree() {
    let grid = ScalarGrid::synthetic(8, 8, 8, 21);
    assert_engines_agree(
        "zbuf",
        ZBUF_SRC,
        iso_opts(),
        iso_host_env(&grid, 0.8, 16, 4),
    );
}

#[test]
fn apix_engines_agree() {
    let grid = ScalarGrid::synthetic(8, 8, 8, 21);
    assert_engines_agree(
        "apix",
        APIX_SRC,
        iso_opts(),
        iso_host_env(&grid, 0.8, 16, 4),
    );
}

#[test]
fn knn_engines_agree() {
    let pts = generate_points(300, 5);
    let opts = CompileOptions::new(env(), 64)
        .with_symbol("npoints", 300)
        .with_symbol("k", 5);
    assert_engines_agree(
        "knn",
        KNN_SRC,
        opts,
        knn_host_env(&pts, [0.3, 0.6, 0.2], 5, 6),
    );
}

#[test]
fn vmscope_engines_agree() {
    let slide = Slide::synthetic(32, 32, 9);
    let opts = CompileOptions::new(env(), 8)
        .with_symbol("height", 32)
        .with_symbol("width", 32)
        .with_symbol("subsample", 2)
        .with_selectivity(0, 0.5);
    assert_engines_agree("vmscope", VMSCOPE_SRC, opts, vmscope_host_env(&slide, 2, 4));
}
