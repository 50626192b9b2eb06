//! # cgp-grid — simulated grid environment
//!
//! The paper evaluates on a real cluster (700 MHz Pentium nodes, Myrinet)
//! in pipeline configurations 1-1-1, 2-2-1 and 4-4-1 (data nodes → compute
//! nodes → view node). This crate substitutes that testbed with:
//!
//! - [`config`] — host/link/pipeline environment descriptions, including
//!   the paper's `w-w-1` configurations;
//! - [`sim`] — a virtual-time pipeline simulator that replays per-packet
//!   work (measured by actually running the application stages) through
//!   the configured pipeline, preserving overlap, queueing, bottleneck
//!   structure and transparent-copy parallelism, plus the paper's
//!   closed-form total-time formula for cross-checking.

pub mod adaptive;
pub mod config;
pub mod sim;

pub use adaptive::{simulate_phased, Phase, PhasedResult};
pub use config::{GridConfig, HostSpec, LinkSpec, StageResources};
pub use sim::{analytic_total_time, simulate, PacketWork, SimResult};
