//! Shared packet-echo microbench for the data plane.
//!
//! Used by `benches/dataplane.rs` (criterion suite) and the
//! `dataplane_guard` regression binary so both measure exactly the same
//! pipeline: a three-stage source → echo → sink that moves `packets`
//! buffers of `payload` bytes. Three in-process configurations matter:
//!
//! * **legacy** — `batch = 1`, no buffer pool: every packet is a fresh
//!   allocation, every hop one lock acquisition and one condvar wakeup.
//! * **batched** — `batch = 8` with a [`BufferPool`]: packet storage is
//!   recycled and up to `batch` packets move per lock acquisition.
//! * **sampled** — batched with telemetry on. Every run keeps the same
//!   per-stage counters; telemetry adds the latency stamps, the latency
//!   histograms and the sampler thread, which is the cost the guard's
//!   5% sampling gate measures.
//!
//! [`transport_paired_packets_per_sec`] runs the batched pipeline split
//! across three worker threads joined by a real transport — loopback
//! TCP or the shared-memory ring — so the guard can compare same-host
//! transports.
//!
//! The committed `BENCH_dataplane.json` baseline records the rates; the
//! acceptance bar is batched ≥ 1.5× legacy (historically ≥ 2×).

use cgp_core::datacutter::{
    Buffer, BufferPool, ClosureFilter, FilterIo, Pipeline, RunOptions, StageSpec, TelemetryConfig,
    Transport, WorkerEndpoints, WorkerIngress,
};
use cgp_obs::telemetry::TelemetrySampler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One packet-echo configuration; see the module docs for the two
/// interesting points in this space.
#[derive(Clone, Debug)]
pub struct EchoConfig {
    /// Packets pushed by the source.
    pub packets: usize,
    /// Bytes per packet.
    pub payload: usize,
    /// Stream batch size (1 = per-packet semantics).
    pub batch: usize,
    /// Whether stages allocate from a shared [`BufferPool`].
    pub pooled: bool,
    /// Whether the telemetry plane samples the run (50 ms cadence, no
    /// log sink) — the guard asserts sampling stays within 5% of the
    /// unsampled rate.
    pub sampled: bool,
}

impl EchoConfig {
    /// The original data plane: per-packet sends and fresh allocations.
    pub fn legacy(packets: usize, payload: usize) -> Self {
        EchoConfig {
            packets,
            payload,
            batch: 1,
            pooled: false,
            sampled: false,
        }
    }

    /// The pooled + batched data plane at the batch of 8 every compiled
    /// plan runs with.
    pub fn batched(packets: usize, payload: usize) -> Self {
        EchoConfig {
            packets,
            payload,
            batch: 8,
            pooled: true,
            sampled: false,
        }
    }

    /// Enable in-flight telemetry sampling on this configuration.
    pub fn with_sampling(mut self) -> Self {
        self.sampled = true;
        self
    }
}

/// The echo pipeline under `cfg`'s options; the sink adds the bytes it
/// receives to `bytes`. Every worker of a distributed echo builds the
/// same pipeline, and its endpoints select which stage runs.
fn echo_pipeline(cfg: &EchoConfig, bytes: Arc<AtomicU64>) -> Pipeline {
    let EchoConfig {
        packets,
        payload,
        batch,
        pooled,
        sampled,
    } = *cfg;
    let opts = RunOptions {
        capacity: 64,
        batch,
        pool: pooled.then(BufferPool::new),
        telemetry: sampled.then(|| {
            let sampler = Arc::new(TelemetrySampler::new(Duration::from_millis(50)));
            TelemetryConfig::new(sampler, "echo")
        }),
        ..Default::default()
    };
    Pipeline::new(opts)
        .add_stage(StageSpec::new(
            "src",
            1,
            Box::new(move |_| {
                Box::new(ClosureFilter::new("src", move |io: &mut FilterIo| {
                    let mut pending: Vec<Buffer> = Vec::with_capacity(batch);
                    for i in 0..packets {
                        let mut v = io.alloc(payload);
                        v.resize(payload, (i & 0xFF) as u8);
                        pending.push(io.seal(v));
                        if pending.len() >= batch {
                            io.write_batch(std::mem::replace(
                                &mut pending,
                                Vec::with_capacity(batch),
                            ))?;
                        }
                    }
                    io.write_batch(pending)
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "echo",
            1,
            Box::new(move |_| {
                Box::new(ClosureFilter::new("echo", move |io: &mut FilterIo| {
                    let mut pending: Vec<Buffer> = Vec::with_capacity(batch);
                    while let Some(b) = io.read() {
                        pending.push(b);
                        if pending.len() >= batch {
                            io.write_batch(std::mem::replace(
                                &mut pending,
                                Vec::with_capacity(batch),
                            ))?;
                        }
                    }
                    io.write_batch(pending)
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "sink",
            1,
            Box::new(move |_| {
                let bytes = Arc::clone(&bytes);
                Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        bytes.fetch_add(b.len() as u64, Ordering::Relaxed);
                    }
                    Ok(())
                }))
            }),
        ))
}

/// Run the echo pipeline once. Returns total bytes observed by the sink
/// (always `packets * payload`; asserted by callers).
pub fn run_packet_echo(cfg: &EchoConfig) -> u64 {
    let bytes = Arc::new(AtomicU64::new(0));
    echo_pipeline(cfg, Arc::clone(&bytes))
        .run()
        .expect("echo pipeline failed");
    bytes.load(Ordering::Relaxed)
}

/// Best-of-`reps` throughput in packets per second. Each rep runs the
/// full pipeline (thread spawn included, as in real deployments) and the
/// byte conservation invariant is asserted every time.
pub fn echo_packets_per_sec(cfg: &EchoConfig, reps: usize) -> f64 {
    let expect = (cfg.packets * cfg.payload) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let got = run_packet_echo(cfg);
        let dt = start.elapsed().as_secs_f64();
        assert_eq!(got, expect, "packet-echo lost bytes");
        best = best.min(dt);
    }
    cfg.packets as f64 / best
}

/// Best-of-`reps` for two configurations with the reps interleaved
/// (a b, b a, a b, …), so both sample the same noise window. Sequential
/// best-of runs on a busy machine systematically penalize whichever
/// configuration runs later; a paired comparison with the within-pair
/// order alternated (used by the guard's sampling-overhead check) does
/// not favor either slot.
pub fn echo_paired_packets_per_sec(a: &EchoConfig, b: &EchoConfig, reps: usize) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    for rep in 0..reps.max(1) {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            let cfg = if slot == 0 { a } else { b };
            let expect = (cfg.packets * cfg.payload) as u64;
            let start = Instant::now();
            let got = run_packet_echo(cfg);
            let dt = start.elapsed().as_secs_f64();
            assert_eq!(got, expect, "packet-echo lost bytes");
            best[slot] = best[slot].min(dt);
        }
    }
    (a.packets as f64 / best[0], b.packets as f64 / best[1])
}

/// Run the batched echo pipeline split across three worker threads
/// joined by a real same-host `transport`: loopback TCP or the
/// shared-memory ring. Returns total bytes observed by the sink.
fn run_distributed_echo(transport: Transport, packets: usize, payload: usize) -> u64 {
    // Downstream endpoints exist before any producer connects, mirroring
    // the launcher's bind-then-announce ordering.
    let bind = || WorkerIngress::bind(transport.fresh_addr(), 1).expect("echo ingress");
    let ((i1, a1), (i2, a2)) = (bind(), bind());
    let endpoints = [(None, Some(a1)), (Some(i1), Some(a2)), (Some(i2), None)];
    let cfg = EchoConfig::batched(packets, payload);
    let bytes = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for (stage, (ingress, connect)) in endpoints.into_iter().enumerate() {
            let bytes = Arc::clone(&bytes);
            let cfg = &cfg;
            scope.spawn(move || {
                echo_pipeline(cfg, bytes)
                    .run_worker(WorkerEndpoints {
                        stage,
                        ingress,
                        connect,
                    })
                    .expect("distributed echo worker");
            });
        }
    });
    bytes.load(Ordering::Relaxed)
}

/// Paired best-of-`reps` throughput for the two same-host transports,
/// interleaved like [`echo_paired_packets_per_sec`]. Returns
/// `(tcp, shm)` in packets per second.
pub fn transport_paired_packets_per_sec(packets: usize, payload: usize, reps: usize) -> (f64, f64) {
    let expect = (packets * payload) as u64;
    let mut best = [f64::INFINITY; 2];
    for rep in 0..reps.max(1) {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            let start = Instant::now();
            let got =
                run_distributed_echo([Transport::Tcp, Transport::Shm][slot], packets, payload);
            let dt = start.elapsed().as_secs_f64();
            assert_eq!(got, expect, "distributed echo lost bytes");
            best[slot] = best[slot].min(dt);
        }
    }
    (packets as f64 / best[0], packets as f64 / best[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_conserves_bytes_in_all_configurations() {
        for cfg in [
            EchoConfig::legacy(100, 64),
            EchoConfig::batched(100, 64),
            EchoConfig::batched(100, 64).with_sampling(),
        ] {
            assert_eq!(run_packet_echo(&cfg), 100 * 64, "{cfg:?}");
        }
    }

    #[test]
    fn distributed_echo_conserves_bytes_on_both_transports() {
        assert_eq!(run_distributed_echo(Transport::Tcp, 64, 128), 64 * 128);
        if cgp_core::datacutter::shm_supported() {
            assert_eq!(run_distributed_echo(Transport::Shm, 64, 128), 64 * 128);
        }
    }
}
