//! End-to-end: all four dialect applications compile, decompose, and their
//! decomposed executions reproduce the sequential interpreter exactly.

use cgp_core::apps::dialect::*;
use cgp_core::apps::isosurface::ScalarGrid;
use cgp_core::apps::knn::generate_points;
use cgp_core::apps::vmscope::Slide;
use cgp_core::lang::{frontend, interp::Interp, HostEnv};
use cgp_core::{compile, run_plan_sequential, CompileOptions, Objective, PipelineEnv};

fn oracle(src: &str, host: &HostEnv) -> Vec<String> {
    let tp = frontend(src).unwrap();
    let mut it = Interp::new(&tp, host.clone());
    it.run_main().unwrap();
    it.output
}

fn iso_host() -> HostEnv {
    iso_host_env(&ScalarGrid::synthetic(10, 10, 10, 77), 0.75, 24, 6)
}

#[test]
fn zbuf_end_to_end() {
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e7, 1e-5), 128)
        .with_symbol("ncubes", 729)
        .with_symbol("screen", 24)
        .with_selectivity(0, 0.2);
    let c = compile(ZBUF_SRC, &opts).unwrap();
    assert_eq!(c.plan.m, 3);
    assert!(c.plan.graph.n_boundaries() >= 2, "{}", c.plan.describe());
    let host = iso_host();
    assert_eq!(
        run_plan_sequential(&c.plan, &host).unwrap(),
        oracle(ZBUF_SRC, &host)
    );
}

#[test]
fn apix_end_to_end() {
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e7, 1e-5), 128)
        .with_symbol("ncubes", 729)
        .with_symbol("screen", 24);
    let c = compile(APIX_SRC, &opts).unwrap();
    let host = iso_host();
    assert_eq!(
        run_plan_sequential(&c.plan, &host).unwrap(),
        oracle(APIX_SRC, &host)
    );
}

#[test]
fn knn_end_to_end() {
    let pts = generate_points(400, 9);
    let host = knn_host_env(&pts, [0.2, 0.8, 0.5], 7, 5);
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 80)
        .with_symbol("npoints", 400)
        .with_symbol("k", 7);
    let c = compile(KNN_SRC, &opts).unwrap();
    assert_eq!(
        run_plan_sequential(&c.plan, &host).unwrap(),
        oracle(KNN_SRC, &host)
    );
}

#[test]
fn vmscope_end_to_end() {
    let slide = Slide::synthetic(48, 48, 3);
    let host = vmscope_host_env(&slide, 3, 4);
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 12)
        .with_symbol("height", 48)
        .with_symbol("width", 48)
        .with_symbol("subsample", 3)
        .with_selectivity(0, 0.34);
    let c = compile(VMSCOPE_SRC, &opts).unwrap();
    assert_eq!(
        run_plan_sequential(&c.plan, &host).unwrap(),
        oracle(VMSCOPE_SRC, &host)
    );
}

#[test]
fn steady_state_decompositions_beat_default_everywhere() {
    // For every app, the compiler's steady-state choice must cost no more
    // than the Default placement under the paper's total-time formula.
    let cases: Vec<(&str, CompileOptions)> = vec![
        (
            ZBUF_SRC,
            CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e8, 1e-5), 512)
                .with_symbol("ncubes", 100_000)
                .with_symbol("screen", 256)
                .with_selectivity(0, 0.1),
        ),
        (
            KNN_SRC,
            CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e8, 1e-5), 4096)
                .with_symbol("npoints", 1_000_000)
                .with_symbol("k", 3),
        ),
        (
            VMSCOPE_SRC,
            CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e8, 1e-5), 32)
                .with_symbol("height", 1024)
                .with_symbol("width", 1024)
                .with_symbol("subsample", 8)
                .with_selectivity(0, 0.125),
        ),
    ];
    for (src, opts) in cases {
        let opts = opts.with_objective(Objective::SteadyState { n_packets: 64 });
        let c = compile(src, &opts).unwrap();
        let default = cgp_core::Decomposition::default_style(c.problem.n_tasks(), 3);
        let default_cost =
            cgp_compiler::decompose::stage_times(&c.problem, &c.pipeline, &default.unit_of)
                .total_time(64);
        assert!(
            c.plan.decomposition.cost <= default_cost * (1.0 + 1e-9),
            "decomp {} vs default {default_cost}\n{}",
            c.plan.decomposition.cost,
            c.plan.describe()
        );
    }
}

#[test]
fn plan_description_names_every_filter_and_link() {
    let opts = CompileOptions::new(PipelineEnv::uniform(4, 1e8, 1e6, 1e-5), 64)
        .with_symbol("npoints", 400)
        .with_symbol("k", 3);
    let c = compile(KNN_SRC, &opts).unwrap();
    let d = c.plan.describe();
    for f in ["f1", "f2", "f3", "f4", "L1", "L2", "L3"] {
        assert!(d.contains(f), "{d}");
    }
}
