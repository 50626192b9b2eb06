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
//! use cgp_datacutter::{Buffer, ClosureFilter, FilterIo, Pipeline, StageSpec};
//! use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
//!
//! let total = Arc::new(AtomicU64::new(0));
//! let t2 = Arc::clone(&total);
//! Pipeline::new()
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
pub mod net;
pub mod placement;
pub mod recover;
pub mod ring;
pub mod shm;
pub mod stream;
pub mod telemetry;
pub mod width;

pub use buffer::{
    reassemble, Buffer, BufferBuilder, BufferPool, BufferWriter, PoolStats, DEFAULT_BUFFER_CAPACITY,
};
pub use channel::CancelToken;
pub use error::{ErrorKind, FilterError, FilterResult};
pub use exec::{Pipeline, RunStats, StageSpec, StageStats, WorkerEndpoints, WorkerIngress};
pub use fault::{FaultAction, FaultPlan, FaultRule, RetryPolicy, RunControl, Trigger};
pub use filter::{ClosureFilter, Filter, FilterFactory, FilterIo};
pub use net::{
    connect_with_retry, decode_frame, egress_pump, encode_frame, is_heartbeat_timeout,
    serve_ingress, serve_telemetry, Frame, IngressFeeder, NetLinkStats, NetTuning,
    RemoteStreamReader, RemoteStreamWriter, TelemetryClient, MAX_FRAME_PAYLOAD, NET_MAGIC,
    NET_VERSION, TELEMETRY_LINK,
};
pub use placement::{HostId, Placement, StageAssignment, StagePlacement};
pub use recover::{decode_snapshot, Checkpoint, CheckpointStore, RecoveryOptions, Snapshot};
pub use ring::{spsc, RingReceiver, RingSender};
pub use shm::{
    remove_ring_files, shm_dir, shm_egress_pump, shm_supported, ShmIngress, ShmReceiver, ShmSender,
    DEFAULT_SHM_CAPACITY, SHM_PREFIX,
};
pub use stream::{logical_stream, StreamReader, StreamWriter};
pub use telemetry::{
    decode_telemetry_payload, encode_telemetry_payload, CopyProbe, LinkProbe, StageProbe,
    TelemetryConfig, TelemetryUpdate,
};
pub use width::{AutoscaleConfig, AutoscaleEvent, AutoscaleReport, StageWidth, WidthController};
