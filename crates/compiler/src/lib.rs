//! # cgp-compiler — pipeline decomposition compiler
//!
//! Implements Sections 4 and 5 of *"Compiler Support for Exploiting
//! Coarse-Grained Pipelined Parallelism"* (Du, Ferreira, Agrawal — SC 2003):
//!
//! - [`normalize()`] — locate the `PipelinedLoop`, perform loop fission (with
//!   scalar expansion) so no candidate boundary lies inside a `foreach`;
//! - [`graph`] — the candidate filter boundary graph / chain;
//! - [`gencons`] — the one-pass Gen/Cons analysis of code segments;
//! - [`reqcomm`] — ReqComm propagation over the boundary graph;
//! - [`cost`] — operation counting and the paper's cost model;
//! - [`decompose`] — the `O(nm)` dynamic-programming filter decomposition
//!   (plus the brute-force reference and a bottleneck-optimal ablation);
//! - [`packing`] — instance-wise / field-wise buffer layouts and the
//!   byte-level pack/unpack;
//! - [`codegen`] — [`FilterPlan`] generation and the Path-A executor;
//! - [`driver`] — one-call [`compile`].
//!
//! ```
//! use cgp_compiler::{compile, CompileOptions};
//! use cgp_compiler::cost::PipelineEnv;
//!
//! let src = r#"
//!     extern int n;
//!     extern double[] data;
//!     class Sum implements Reducinterface {
//!         double total;
//!         void reduce(Sum o) { total = total + o.total; }
//!         void add(double x) { total = total + x; }
//!     }
//!     class App { void main() {
//!         RectDomain<1> all = [0 : n - 1];
//!         Sum sum = new Sum();
//!         PipelinedLoop (pkt in all; 4) {
//!             foreach (i in pkt) {
//!                 double v = data[i] * 2.0;
//!                 if (v > 1.0) { sum.add(v); }
//!             }
//!         }
//!         print(sum.total);
//!     } }
//! "#;
//! let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e8, 1e7, 1e-5), 128)
//!     .with_symbol("n", 1024);
//! let compiled = compile(src, &opts).unwrap();
//! assert_eq!(compiled.plan.m, 3);
//! ```

pub mod calibrate;
pub mod codegen;
pub mod cost;
pub mod decompose;
pub mod driver;
pub mod error;
pub mod failover;
pub mod gencons;
pub mod graph;
pub mod normalize;
pub mod packing;
pub mod place;
pub mod report;
pub mod reqcomm;

pub use calibrate::{CalibrationReport, MeasuredLink, MeasuredStage, StageCalibration};
pub use codegen::{
    build_plan, run_plan_sequential, FilterPlan, FilterSpec, FilterStepper, LoweredPlan,
    LoweredSlice, LoweredStep,
};
pub use decompose::{decompose_brute_force, decompose_dp, Decomposition, Problem};
pub use driver::{
    choose_packet_count, compile, CompileOptions, Compiled, Objective, PacketSizePoint,
};
pub use error::{CompileError, CompileResult};
pub use failover::{replan, FailoverPlan};
pub use normalize::{normalize, AtomicUnit, NormalizedPipeline, UnitKind};
pub use place::{Place, PlaceSet, Section, Sectioning, SymExpr};
pub use report::DecisionReport;
