//! # cgp-datacutter — filter-stream runtime
//!
//! A Rust implementation of the DataCutter middleware abstractions the
//! paper targets (Section 2.2): applications are sets of interacting
//! **filters** with `init` / `process` / `finalize` interfaces, connected
//! by **streams** that move fixed-size **buffers**, with **transparent
//! copies** providing width-w parallelism behind a single logical stream
//! (round-robin buffer delivery for load balance).
//!
//! ```
//! use cgp_datacutter::{Buffer, ClosureFilter, FilterIo, Pipeline, RunOptions, StageSpec};
//! use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
//!
//! let total = Arc::new(AtomicU64::new(0));
//! let t2 = Arc::clone(&total);
//! Pipeline::new(RunOptions::default())
//!     .add_stage(StageSpec::new("source", 1, Box::new(|_| Box::new(
//!         ClosureFilter::new("source", |io: &mut FilterIo| {
//!             for i in 0u64..10 {
//!                 io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
//!             }
//!             Ok(())
//!         })))))
//!     .add_stage(StageSpec::new("sink", 2, Box::new(move |_| {
//!         let total = Arc::clone(&t2);
//!         Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
//!             while let Some(b) = io.read() {
//!                 total.fetch_add(b.u64_le("sink")?, Ordering::Relaxed);
//!             }
//!             Ok(())
//!         }))
//!     })))
//!     .run()
//!     .unwrap();
//! assert_eq!(total.load(Ordering::Relaxed), 45);
//! ```

pub mod buffer;
pub mod channel;
pub mod error;
pub mod exec;
pub mod fault;
pub mod filter;
pub mod link;
pub mod net;
pub mod shm;
pub mod stream;
pub mod telemetry;
pub mod width;

pub use buffer::{Buffer, BufferPool, PoolStats};
pub use channel::CancelToken;
pub use error::{ErrorKind, FilterError, FilterResult};
pub use exec::{Pipeline, RunOptions, RunStats, StageSpec, StageStats, WorkerEndpoints};
pub use fault::{FaultAction, FaultPlan, FaultRule, RunControl, Trigger};
pub use filter::{ClosureFilter, Filter, FilterFactory, FilterIo};
pub use link::{egress_pump, serve_ingress, NetLinkStats, NetTuning, Transport, WorkerIngress};
pub use net::{
    connect_with_retry, decode_frame, encode_frame, is_heartbeat_timeout, serve_telemetry, Frame,
    TelemetryClient, MAX_FRAME_PAYLOAD, NET_MAGIC, NET_VERSION, TELEMETRY_LINK,
};
pub use shm::{
    remove_ring_files, shm_dir, shm_supported, ShmIngress, ShmSender, DEFAULT_SHM_CAPACITY,
    SHM_PREFIX,
};
pub use stream::{logical_stream, StreamReader, StreamWriter};
pub use telemetry::{
    decode_telemetry_payload, encode_telemetry_payload, CopyProbe, LinkProbe, StageProbe,
    TelemetryConfig,
};
pub use width::{AutoscaleConfig, AutoscaleEvent, AutoscaleReport, StageWidth, WidthController};
