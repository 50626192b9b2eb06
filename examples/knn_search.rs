//! k-nearest-neighbor search: the paper's knn experiment in miniature,
//! plus the compiler path on the dialect version of the program.
//!
//! ```sh
//! cargo run --release --example knn_search
//! ```

use cgp_core::apps::dialect::{knn_host_env, KNN_SRC};
use cgp_core::apps::knn::{generate_points, KnnPipeline, KnnVersion};
use cgp_core::lang::{frontend, interp::Interp};
use cgp_core::{
    compile, paper_grid, run_plan_sequential, simulate_variant, CompileOptions, PipelineEnv,
};

fn main() {
    let n = 200_000;
    let packets = 32;
    let query = [0.5f64, 0.5, 0.5];

    // --- native pipelines on the simulated grid -------------------------
    for k in [3usize, 200] {
        println!("== knn, {n} points, k = {k} ==");
        println!(
            "{:<10} {:>12} {:>14} {:>14}",
            "config", "Default(s)", "Decomp-Comp(s)", "Decomp-Man(s)"
        );
        for w in [1usize, 2, 4] {
            let grid = paper_grid(w);
            let mk = |version| {
                KnnPipeline::new(
                    generate_points(n, 42),
                    query,
                    k,
                    packets,
                    version,
                    format!("knn-k{k}"),
                )
            };
            let d = simulate_variant(&mut mk(KnnVersion::Default), &grid);
            let c = simulate_variant(&mut mk(KnnVersion::DecompComp), &grid);
            let m = simulate_variant(&mut mk(KnnVersion::DecompManual), &grid);
            assert_eq!(d.result_digest, c.result_digest);
            assert_eq!(c.result_digest, m.result_digest);
            println!(
                "{:<10} {:>12.4} {:>14.4} {:>14.4}",
                format!("{w}-{w}-1"),
                d.makespan,
                c.makespan,
                m.makespan
            );
        }
        println!();
    }

    // --- compiler path on the dialect program ---------------------------
    println!("== dialect knn through the compiler ==");
    let pts = generate_points(2_000, 42);
    let host = knn_host_env(&pts, [0.5, 0.5, 0.5], 5, 8);
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 256)
        .with_symbol("npoints", 2_000)
        .with_symbol("k", 5)
        .with_objective(cgp_core::Objective::SteadyState { n_packets: 8 });
    let compiled = compile(KNN_SRC, &opts).expect("compile");
    print!("{}", compiled.plan.describe());
    let out = run_plan_sequential(&compiled.plan, &host).unwrap();
    let typed = frontend(KNN_SRC).unwrap();
    let mut interp = Interp::new(&typed, host);
    interp.run_main().unwrap();
    assert_eq!(out, interp.output);
    println!("decomposed run matches the interpreter: {out:?} ✓");
}
