//! # cgp-core — coarse-grained pipelined parallelism, end to end
//!
//! Facade over the reproduction of *"Compiler Support for Exploiting
//! Coarse-Grained Pipelined Parallelism"* (Du, Ferreira, Agrawal — SC 2003):
//!
//! - **compile** a dialect program ([`compile`], from `cgp-compiler`):
//!   boundary analysis → Gen/Cons → ReqComm → cost model → DP
//!   decomposition → packing → [`FilterPlan`];
//! - **execute** the plan: single-threaded with real packed buffers
//!   ([`run_plan_sequential`]) or on threads through the DataCutter-style
//!   runtime with transparent copies ([`run_plan_threaded_stats`]);
//! - **evaluate**: run the native applications (`cgp-apps`) for real and
//!   replay their pipeline schedule on a simulated grid
//!   ([`simulate_variant`]) — the path that regenerates the paper's
//!   figures.
//!
//! ```
//! use cgp_core::{compile, run_plan_sequential, CompileOptions, PipelineEnv};
//! use cgp_core::lang::{HostEnv, Value};
//!
//! let src = r#"
//!     extern int n;
//!     class Sum implements Reducinterface {
//!         double total;
//!         void reduce(Sum o) { total = total + o.total; }
//!         void add(double x) { total = total + x; }
//!     }
//!     class App { void main() {
//!         RectDomain<1> all = [0 : n - 1];
//!         Sum sum = new Sum();
//!         PipelinedLoop (pkt in all; 4) {
//!             foreach (i in pkt) { sum.add(toDouble(i)); }
//!         }
//!         print(sum.total);
//!     } }
//! "#;
//! let opts = CompileOptions::new(PipelineEnv::uniform(2, 1e8, 1e7, 1e-5), 16)
//!     .with_symbol("n", 64);
//! let compiled = compile(src, &opts).unwrap();
//! let host = HostEnv::new().bind("n", Value::Int(64));
//! let out = run_plan_sequential(&compiled.plan, &host).unwrap();
//! assert_eq!(out, vec!["2016"]);
//! ```

pub mod codec;
pub mod error;
pub mod exec;
pub mod sim;

pub use cgp_compiler::cost::{FilterEngine, LinkClass, PipelineEnv};
pub use cgp_compiler::{
    compile, run_plan_sequential, CompileOptions, Compiled, Decomposition, FilterPlan, Objective,
};
pub use error::CoreError;
pub use exec::{
    run_plan_threaded_stats, run_plan_worker_io, ExecOptions, HostBuilder, NetRole, WorkerIngress,
};
pub use sim::{
    paper_grid, paper_grid_disk, simulate_variant, VariantRun, CALIBRATION, DISK_BANDWIDTH,
    LINK_BANDWIDTH, PENTIUM_SLOWDOWN,
};

/// Re-exports of the underlying crates for applications that need them.
pub mod lang {
    pub use cgp_lang::interp::{split_domain, HostEnv, Interp};
    pub use cgp_lang::{frontend, parse, Diagnostic, Program, TypedProgram, Value};
}
pub use cgp_apps as apps;
pub use cgp_datacutter as datacutter;
pub use cgp_grid as grid;
