//! Quickstart: compile a dialect program, inspect the decomposition, and
//! run it three ways — sequential interpreter (the semantics oracle),
//! single-threaded plan execution with real packed buffers, and threaded
//! execution on the DataCutter-style runtime.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cgp_core::lang::{frontend, interp::Interp, ArrayVal, HostEnv, Value};
use cgp_core::{
    compile, run_plan_sequential, run_plan_threaded_stats, CompileOptions, ExecOptions, PipelineEnv,
};
use std::sync::Arc;

const SRC: &str = r#"
    extern int n;
    extern double[] samples;
    runtime_define int num_packets;

    class Stats implements Reducinterface {
        double sum;
        int count;
        void reduce(Stats other) { sum = sum + other.sum; count = count + other.count; }
        void add(double v) { sum = sum + v; count = count + 1; }
    }

    class Quickstart {
        void main() {
            RectDomain<1> all = [0 : n - 1];
            Stats outliers = new Stats();
            PipelinedLoop (pkt in all; num_packets) {
                foreach (i in pkt) {
                    double v = samples[i] * samples[i];
                    if (v > 0.5) {
                        outliers.add(v);
                    }
                }
            }
            print(outliers.sum);
            print(outliers.count);
        }
    }
"#;

fn host() -> HostEnv {
    let n = 10_000i64;
    let samples = Value::array(ArrayVal::F64(
        (0..n).map(|i| ((i * 37 % 1000) as f64) / 1000.0).collect(),
    ));
    HostEnv::new()
        .bind("n", Value::Int(n))
        .bind("num_packets", Value::Int(16))
        .bind("samples", samples)
}

fn main() {
    // Compile for a 3-unit pipeline: data host → compute host → desktop.
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e8, 2e-6), 625)
        .with_symbol("n", 10_000)
        .with_selectivity(0, 0.4)
        .with_objective(cgp_core::Objective::SteadyState { n_packets: 16 });
    let compiled = compile(SRC, &opts).expect("compilation failed");

    println!("== decomposition ==");
    print!("{}", compiled.plan.describe());
    println!(
        "\nestimated per-packet stage times: comp {:?} comm {:?}",
        compiled.stage_times().comp,
        compiled.stage_times().comm
    );

    // 1. Sequential interpreter — defines the expected answer.
    let typed = frontend(SRC).unwrap();
    let mut interp = Interp::new(&typed, host());
    interp.run_main().unwrap();
    println!("\ninterpreter oracle : {:?}", interp.output);

    // 2. Single-threaded plan execution with real buffer packing.
    let sequential = run_plan_sequential(&compiled.plan, &host()).unwrap();
    println!("plan (sequential)  : {sequential:?}");

    // 3. Threaded execution on the filter-stream runtime, width 2 compute.
    let (threaded, _stats) = run_plan_threaded_stats(
        Arc::new(compiled.plan.clone()),
        Arc::new(host),
        Some(&[1, 2, 1]),
        &ExecOptions::default(),
    )
    .unwrap();
    println!("plan (threads 1-2-1): {threaded:?}");

    assert_eq!(interp.output, sequential);
    // The width-2 compute stage splits the reduction across copies, so the
    // double sum is accumulated in a different order than the sequential
    // oracle — compare numerically, not textually.
    assert_eq!(interp.output.len(), threaded.len());
    for (a, b) in interp.output.iter().zip(&threaded) {
        match (a.parse::<f64>(), b.parse::<f64>()) {
            (Ok(x), Ok(y)) => assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                "outputs diverge beyond rounding: {a} vs {b}"
            ),
            _ => assert_eq!(a, b),
        }
    }
    println!("\nall three executions agree ✓");
}
