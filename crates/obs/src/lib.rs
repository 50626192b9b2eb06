//! # cgp-obs — observability for the compiler and the DataCutter runtime
//!
//! The paper's whole contribution is *choices*: where filter boundaries
//! land, what `ReqComm` each link carries, which decomposition the DP
//! picks. This crate is the substrate that makes those choices — and the
//! resulting pipeline behaviour — visible:
//!
//! - [`trace`] — a lightweight event/span layer. Events carry explicit
//!   microsecond timestamps so both wall-clock runs (the DataCutter
//!   executor, the compiler driver) and *virtual-time* runs (`cgp-grid`'s
//!   simulator) export into the same timeline format.
//! - [`sink`] — pluggable sinks: an in-memory ring buffer, a JSON-lines
//!   writer, and a Chrome `trace_event` exporter whose output loads
//!   directly in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//! - [`metrics`] — a counter/histogram registry with cross-registry merge
//!   (per-thread registries merged at end of run) and a lossless wire
//!   codec so registries shipped between processes merge faithfully.
//! - [`telemetry`] — the live telemetry plane: periodic in-flight
//!   pipeline samples ([`TelemetrySample`]) fanned out to a JSONL log /
//!   status line / latest-sample slot by a [`TelemetrySampler`].
//! - [`json`] — a minimal JSON writer/parser (the build environment is
//!   offline, so no serde); used by the sinks and by round-trip tests.
//!
//! **Zero cost when off.** The hot path is guarded by one relaxed atomic
//! load ([`trace::enabled`]); with no sink attached, instrumentation does
//! not allocate or take locks, so the cost model's inputs (measured
//! per-packet times) are not perturbed.
//!
//! The crate also hosts the workspace's dependency-free support modules
//! (the container cannot reach crates.io):
//!
//! - [`rng`] — a seeded SplitMix64/xoshiro-style PRNG (replaces `rand`)
//!   used for synthetic datasets and seeded property-test loops;
//! - [`bench`](mod@bench) — a tiny micro-benchmark harness (replaces `criterion`)
//!   used by `cgp-bench`'s ablation benches.
//!
//! ## Quick start
//!
//! ```
//! use cgp_obs::sink::RingSink;
//! use cgp_obs::trace;
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingSink::new(1024));
//! trace::install_sink(ring.clone());
//! {
//!     let _span = trace::span("compile", "phase", trace::PID_COMPILER, 0);
//!     // ... work ...
//! }
//! trace::clear_sink();
//! assert_eq!(ring.snapshot().len(), 1);
//! ```

pub mod bench;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod sink;
pub mod telemetry;
pub mod trace;

pub use json::Json;
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use rng::SmallRng;
pub use sink::{ChromeTraceSink, JsonLinesSink, RingSink, TraceSink};
pub use telemetry::{
    StageSample, TelemetrySample, TelemetrySampler, STATUS_EVERY_ENV, TELEMETRY_LOG_ENV,
};
pub use trace::{enabled, install_sink, span, ArgValue, Span, TraceEvent, TRACE_ENV};
