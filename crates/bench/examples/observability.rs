//! Worked observability example: compile a dialect program with tracing
//! on, execute the compiled plan on the threaded DataCutter runtime,
//! replay a workload on the virtual-time grid simulator, and end with a
//! Chrome trace plus the compiler's decision report.
//!
//! ```sh
//! cargo run --release -p cgp-bench --example observability
//! ```
//!
//! Then open `/tmp/cgp_observability.json` in <https://ui.perfetto.dev>
//! (or `chrome://tracing`). Three processes appear: `cgp-compiler`
//! (pid 2, the seven phase spans), `datacutter` (pid 1, one lane per
//! filter copy with per-packet send/recv instants and stall spans), and
//! `grid-sim (virtual time)` (pid 3, the simulated stage/link timeline).

use cgp_core::apps::dialect::{iso_host_env, ZBUF_SRC};
use cgp_core::apps::isosurface::ScalarGrid;
use cgp_core::grid::{simulate, GridConfig, LinkSpec, PacketWork};
use cgp_core::{compile, run_plan_threaded_stats, CompileOptions, ExecOptions, PipelineEnv};
use cgp_obs::trace;
use cgp_obs::ChromeTraceSink;
use std::sync::Arc;

fn main() {
    let path = "/tmp/cgp_observability.json";
    let sink = ChromeTraceSink::create(path).expect("create trace file");
    trace::install_sink(Arc::new(sink));

    // 1. Compile the z-buffer isosurface dialect program. With the sink
    //    installed this emits one span per compiler phase (normalize →
    //    graph → gencons → reqcomm → cost → decompose → codegen).
    let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e6, 1e-5), 128)
        .with_symbol("ncubes", 343)
        .with_symbol("screen", 16)
        .with_selectivity(0, 0.15);
    let compiled = compile(ZBUF_SRC, &opts).expect("compile");

    // 2. The decision report says *why* this decomposition won.
    println!("{}", compiled.report.render_text());

    // 3. Run the plan on real threads. Every filter copy gets a span;
    //    every packet a send/recv instant with its byte count; blocking on
    //    backpressure or starvation shows up as stall spans.
    let grid = ScalarGrid::synthetic(8, 8, 8, 21);
    let host = Arc::new(move || iso_host_env(&grid, 0.8, 16, 4));
    let (out, _) = run_plan_threaded_stats(
        Arc::new(compiled.plan),
        host,
        Some(&[1, 2, 1]),
        &ExecOptions::default(),
    )
    .expect("threaded run");
    println!("threaded run output: {out:?}");

    // 4. Replay a synthetic workload on the virtual-time simulator — its
    //    stage/link busy intervals land in the same trace, under virtual
    //    timestamps (1 virtual second = 1 trace second).
    let sim_grid = GridConfig::w_w_1(
        2,
        1e6,
        LinkSpec {
            bandwidth: 1e6,
            latency: 1e-4,
        },
    );
    let packets: Vec<PacketWork> = (0..32)
        .map(|i| PacketWork {
            comp_ops: vec![1e4, 5e4 + 1e3 * (i % 7) as f64, 1e3],
            bytes: vec![4096.0, 512.0],
            read_bytes: 0.0,
        })
        .collect();
    let sim = simulate(&sim_grid, &packets, &[1e3, 1e3]);
    println!(
        "simulated makespan {:.4} virtual s (bottleneck {:?}, utilization {:.0}%)",
        sim.makespan,
        sim.bottleneck(),
        100.0 * sim.bottleneck_utilization
    );

    // 5. Flush: the Chrome-trace array is written on sink teardown.
    trace::clear_sink();
    println!("trace written to {path} (open in Perfetto / chrome://tracing)");
}
