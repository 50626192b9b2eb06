//! Threaded (DataCutter-backed) executions of compiled plans must
//! reproduce the sequential interpreter for every pipeline width — the
//! transparent-copy reduction merge included.

use cgp_core::apps::dialect::*;
use cgp_core::apps::isosurface::ScalarGrid;
use cgp_core::apps::knn::generate_points;
use cgp_core::apps::vmscope::Slide;
use cgp_core::lang::{frontend, interp::Interp, HostEnv};
use cgp_core::{compile, run_plan_threaded_stats, CompileOptions, ExecOptions, PipelineEnv};
use std::sync::Arc;

fn oracle(src: &str, host: &HostEnv) -> Vec<String> {
    let tp = frontend(src).unwrap();
    let mut it = Interp::new(&tp, host.clone());
    it.run_main().unwrap();
    it.output
}

#[test]
fn zbuf_threaded_all_widths() {
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e7, 1e-5), 96)
        .with_symbol("ncubes", 512)
        .with_symbol("screen", 16);
    let c = compile(ZBUF_SRC, &opts).unwrap();
    let host = || iso_host_env(&ScalarGrid::synthetic(9, 9, 9, 13), 0.7, 16, 8);
    let expect = oracle(ZBUF_SRC, &host());
    for widths in [[1usize, 1, 1], [2, 2, 1], [4, 4, 1], [1, 4, 1]] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&widths),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "widths {widths:?}");
    }
}

#[test]
fn knn_threaded_all_widths() {
    let pts = generate_points(600, 21);
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 100)
        .with_symbol("npoints", 600)
        .with_symbol("k", 9);
    let c = compile(KNN_SRC, &opts).unwrap();
    let host = move || knn_host_env(&generate_points(600, 21), [0.4, 0.1, 0.9], 9, 6);
    let expect = oracle(KNN_SRC, &knn_host_env(&pts, [0.4, 0.1, 0.9], 9, 6));
    for widths in [[1usize, 1, 1], [2, 2, 1], [4, 4, 1]] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&widths),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "widths {widths:?}");
    }
}

#[test]
fn vmscope_threaded_all_widths() {
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 10)
        .with_symbol("height", 40)
        .with_symbol("width", 40)
        .with_symbol("subsample", 2);
    let c = compile(VMSCOPE_SRC, &opts).unwrap();
    let host = || vmscope_host_env(&Slide::synthetic(40, 40, 5), 2, 4);
    let expect = oracle(VMSCOPE_SRC, &host());
    for widths in [[1usize, 1, 1], [2, 2, 1], [4, 4, 1]] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&widths),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "widths {widths:?}");
    }
}

#[test]
fn threaded_runs_are_repeatable() {
    // Transparent copies introduce scheduling nondeterminism; results must
    // not depend on it (associative/commutative reductions).
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e7, 1e-5), 96)
        .with_symbol("ncubes", 343)
        .with_symbol("screen", 12);
    let c = compile(ZBUF_SRC, &opts).unwrap();
    let host = || iso_host_env(&ScalarGrid::synthetic(8, 8, 8, 2), 0.65, 12, 7);
    let plan = Arc::new(c.plan);
    let mut outputs = Vec::new();
    for _ in 0..5 {
        outputs.push(
            run_plan_threaded_stats(
                Arc::clone(&plan),
                Arc::new(host),
                Some(&[2, 3, 1]),
                &ExecOptions::default(),
            )
            .unwrap()
            .0,
        );
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

#[test]
fn wider_interior_stage_only() {
    // Width on the middle stage alone must also preserve results (buffers
    // race to different copies; merge at finalize reorders).
    let pts = generate_points(300, 8);
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 50)
        .with_symbol("npoints", 300)
        .with_symbol("k", 4);
    let c = compile(KNN_SRC, &opts).unwrap();
    let host = move || knn_host_env(&generate_points(300, 8), [0.6, 0.6, 0.1], 4, 6);
    let expect = oracle(KNN_SRC, &knn_host_env(&pts, [0.6, 0.6, 0.1], 4, 6));
    for w2 in [1usize, 2, 4] {
        let out = run_plan_threaded_stats(
            Arc::new(c.plan.clone()),
            Arc::new(host),
            Some(&[1, w2, 1]),
            &ExecOptions::default(),
        )
        .unwrap()
        .0;
        assert_eq!(out, expect, "interior width {w2}");
    }
}

#[test]
fn copied_view_stage_is_rejected() {
    let opts = CompileOptions::new(PipelineEnv::uniform(2, 1e8, 1e6, 1e-5), 50)
        .with_symbol("npoints", 300)
        .with_symbol("k", 4);
    let c = compile(KNN_SRC, &opts).unwrap();
    let host = || knn_host_env(&generate_points(300, 8), [0.6, 0.6, 0.1], 4, 6);
    let err = run_plan_threaded_stats(
        Arc::new(c.plan),
        Arc::new(host),
        Some(&[1, 2]),
        &ExecOptions::default(),
    );
    assert!(err.is_err(), "view stage width > 1 must be rejected");
}
