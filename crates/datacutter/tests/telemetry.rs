//! Integration tests for the live telemetry plane: in-process sampling,
//! latency percentiles, and cross-process aggregation over real sockets.

use cgp_datacutter::{
    decode_frame, decode_telemetry_payload, encode_frame, encode_telemetry_payload,
    serve_telemetry, Buffer, ClosureFilter, FilterIo, Frame, Pipeline, RunControl, StageSpec,
    TelemetryClient, TelemetryConfig, WorkerEndpoints, WorkerIngress,
};
use cgp_obs::{MetricsRegistry, TelemetrySampler};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Three-stage source → double → sum pipeline; `total` receives the sum.
fn pipeline(n: u64, width: usize, total: Arc<AtomicU64>) -> Pipeline {
    Pipeline::new()
        .with_capacity(8)
        .add_stage(StageSpec::new(
            "source",
            1,
            Box::new(move |_| {
                Box::new(ClosureFilter::new("source", move |io: &mut FilterIo| {
                    for i in 0..n {
                        io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "double",
            width,
            Box::new(|_| {
                Box::new(ClosureFilter::new("double", |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        let v = u64::from_le_bytes(b.as_slice().try_into().unwrap());
                        io.write(Buffer::from_vec((v * 2).to_le_bytes().to_vec()))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "sum",
            1,
            Box::new(move |_| {
                let total = Arc::clone(&total);
                Box::new(ClosureFilter::new("sum", move |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        let v = u64::from_le_bytes(b.as_slice().try_into().unwrap());
                        total.fetch_add(v, Ordering::Relaxed);
                    }
                    Ok(())
                }))
            }),
        ))
}

/// In-process run with telemetry attached: latency histograms fill, the
/// sampler records at least the final fin sample, calibration counters
/// land in the registry — and the computed result is identical to an
/// untelemetered run.
#[test]
fn in_process_telemetry_records_latencies_and_counters() {
    let plain = Arc::new(AtomicU64::new(0));
    pipeline(200, 2, Arc::clone(&plain)).run().unwrap();
    let expect = plain.load(Ordering::Relaxed);

    let total = Arc::new(AtomicU64::new(0));
    let sampler = Arc::new(TelemetrySampler::new(Duration::from_millis(5)));
    let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
    let stats = pipeline(200, 2, Arc::clone(&total))
        .with_metrics(Arc::clone(&registry))
        .with_telemetry(TelemetryConfig::new(Arc::clone(&sampler), "local"))
        .run()
        .unwrap();
    assert_eq!(total.load(Ordering::Relaxed), expect, "output unchanged");

    // Every packet that crossed a stream got a residence measurement;
    // every packet delivered at the sink got an end-to-end one.
    assert_eq!(stats.stages[1].residence_us.count, 200, "double residence");
    assert_eq!(stats.stages[2].residence_us.count, 200, "sum residence");
    assert_eq!(stats.e2e_us.count, 200, "end-to-end at the sink");
    assert!(stats.e2e_us.percentile(0.5) <= stats.e2e_us.percentile(0.99));

    // The final fin-stamped sample is always recorded.
    assert!(sampler.samples() >= 1);
    let last = sampler.latest().expect("final sample");
    assert!(last.fin);
    assert_eq!(last.source, "local");
    assert_eq!(last.e2e_count, 200);
    assert_eq!(last.stages.len(), 3);
    let sum_stage = last.stages.iter().find(|s| s.stage == "sum").unwrap();
    assert_eq!(sum_stage.buffers_in, 200);
    assert!(
        sum_stage.busy_us_per_copy[0] > 0,
        "finished copy reports busy time"
    );

    // Calibration counters + histograms in the registry.
    let reg = registry.lock().unwrap();
    assert_eq!(reg.get_counter("stage.double.buffers_in"), 200);
    assert_eq!(reg.get_counter("stage.double.buffers_out"), 200);
    assert!(reg.get_counter("stage.sum.busy_us") > 0);
    assert_eq!(
        reg.get_histogram("stage.sum.residence_us").unwrap().count,
        200
    );
    assert_eq!(reg.get_histogram("pipeline.e2e_us").unwrap().count, 200);
}

/// Telemetry off: no histograms, no sampler, no calibration counters —
/// and the result is still exact.
#[test]
fn telemetry_off_leaves_no_trace() {
    let total = Arc::new(AtomicU64::new(0));
    let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
    let stats = pipeline(50, 2, Arc::clone(&total))
        .with_metrics(Arc::clone(&registry))
        .run()
        .unwrap();
    assert_eq!(stats.e2e_us.count, 0);
    assert!(stats.stages.iter().all(|s| s.residence_us.count == 0));
    let reg = registry.lock().unwrap();
    assert_eq!(reg.get_counter("stage.double.buffers_in"), 0);
    assert!(reg.get_histogram("pipeline.e2e_us").is_none());
}

/// The wire-merge satellite: worker-side registry snapshots round-trip
/// through a real `Telemetry` frame encode/decode and the launcher-side
/// merge equals the in-process merge — including `net.link<k>.*` keys.
#[test]
fn wire_merge_equals_in_process_registry() {
    let mut worker1 = MetricsRegistry::new();
    worker1.counter("net.link1.frames", 100);
    worker1.counter("net.link1.bytes", 800);
    worker1.counter("stage.double.busy_us", 1234);
    worker1.counter("stage.double.buffers_in", 100);
    for v in [10, 20, 300] {
        worker1.observe("stage.double.residence_us", v);
    }
    let mut worker2 = MetricsRegistry::new();
    worker2.counter("net.link1.frames", 7); // overlaps worker1
    worker2.counter("net.link2.frames", 100);
    worker2.counter("stage.sum.busy_us", 999);
    for v in [5, 15, 25, 1000] {
        worker2.observe("pipeline.e2e_us", v);
    }

    // Reference: merge the two registries directly in-process.
    let mut reference = MetricsRegistry::new();
    reference.merge(&worker1);
    reference.merge(&worker2);

    // Wire path: payload → Telemetry frame → raw bytes → decode → merge.
    let mut merged = MetricsRegistry::new();
    for (source, reg) in [("worker:1", &worker1), ("worker:2", &worker2)] {
        let payload = encode_telemetry_payload(source, true, None, Some(reg));
        let bytes = encode_frame(&Frame::Telemetry { payload });
        let Ok((Frame::Telemetry { payload }, used)) = decode_frame(&bytes) else {
            panic!("telemetry frame must decode");
        };
        assert_eq!(used, bytes.len());
        let update = decode_telemetry_payload(&payload).unwrap();
        assert_eq!(update.source, source);
        assert!(update.fin);
        merged.merge(&update.registry.unwrap());
    }

    assert_eq!(
        merged.get_counter("net.link1.frames"),
        reference.get_counter("net.link1.frames")
    );
    for (name, value) in reference.counters() {
        assert_eq!(merged.get_counter(name), value, "counter {name}");
    }
    for (name, h) in reference.histograms() {
        assert_eq!(merged.get_histogram(name), Some(h), "histogram {name}");
    }
}

/// Cross-process aggregation over real sockets: three workers ship
/// samples and final registries to a launcher-side `serve_telemetry`
/// loop; every worker shows up, the merged registry covers every stage,
/// and the distributed result matches the in-process run.
#[test]
fn three_workers_ship_telemetry_to_the_launcher() {
    let plain = Arc::new(AtomicU64::new(0));
    pipeline(100, 2, Arc::clone(&plain)).run().unwrap();
    let expect = plain.load(Ordering::Relaxed);

    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
    let lt = TcpListener::bind("127.0.0.1:0").unwrap();
    let a1 = l1.local_addr().unwrap().to_string();
    let a2 = l2.local_addr().unwrap().to_string();
    let at = lt.local_addr().unwrap().to_string();
    let total = Arc::new(AtomicU64::new(0));
    let mut listeners = [None, Some(l1), Some(l2)];
    let connects = [Some(a1), Some(a2), None];

    // Launcher-side aggregator: keep the LATEST registry per source
    // (snapshots are cumulative), merge only at the end.
    type Update = (String, bool, Option<MetricsRegistry>);
    let updates: Arc<Mutex<Vec<Update>>> = Arc::new(Mutex::new(Vec::new()));
    let u2 = Arc::clone(&updates);
    let serve = std::thread::spawn(move || {
        serve_telemetry(
            lt,
            3,
            None,
            move |_, payload| {
                if let Ok(up) = decode_telemetry_payload(&payload) {
                    u2.lock().unwrap().push((up.source, up.fin, up.registry));
                }
            },
            |_| {},
        )
    });

    std::thread::scope(|scope| {
        for stage in 0..3 {
            let listener = listeners[stage].take();
            let connect = connects[stage].clone();
            let total = Arc::clone(&total);
            let at = at.clone();
            scope.spawn(move || {
                let sampler = Arc::new(TelemetrySampler::new(Duration::from_millis(5)));
                let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
                pipeline(100, 2, total)
                    .with_metrics(registry)
                    .with_telemetry(
                        TelemetryConfig::new(sampler, format!("worker:{stage}")).ship_to(at),
                    )
                    .run_worker(WorkerEndpoints {
                        stage,
                        ingress: listener.map(WorkerIngress::Tcp),
                        connect,
                    })
                    .unwrap_or_else(|e| panic!("worker {stage}: {e}"));
            });
        }
    });
    serve.join().unwrap().unwrap();
    assert_eq!(total.load(Ordering::Relaxed), expect, "output unchanged");

    let updates = updates.lock().unwrap();
    let mut latest: Vec<(String, MetricsRegistry)> = Vec::new();
    for stage in 0..3 {
        let source = format!("worker:{stage}");
        let fin = updates
            .iter()
            .find(|(s, fin, _)| *s == source && *fin)
            .unwrap_or_else(|| panic!("{source} must ship a final update"));
        latest.push((
            source,
            fin.2.clone().expect("final update carries registry"),
        ));
    }
    let mut merged = MetricsRegistry::new();
    for (_, reg) in &latest {
        merged.merge(reg);
    }
    // Every boundary link and every stage is visible in the merge.
    assert_eq!(merged.get_counter("net.link1.frames"), 200, "tx + rx");
    assert_eq!(merged.get_counter("net.link2.frames"), 200);
    assert_eq!(merged.get_counter("stage.source.buffers_out"), 100);
    assert_eq!(merged.get_counter("stage.double.buffers_in"), 100);
    assert_eq!(merged.get_counter("stage.sum.buffers_in"), 100);
    assert!(merged.get_counter("stage.double.busy_us") > 0);
    // Residence is measured on both TCP hops (fresh ingress stamps).
    assert_eq!(
        merged
            .get_histogram("stage.double.residence_us")
            .unwrap()
            .count,
        100
    );
    assert_eq!(
        merged
            .get_histogram("stage.sum.residence_us")
            .unwrap()
            .count,
        100
    );
    // End-to-end needs origin stamps, which never cross a process
    // boundary (per-process clocks aren't comparable): absent here.
    assert!(merged.get_histogram("pipeline.e2e_us").is_none());
}

/// A worker whose launcher vanished mid-run must still finish cleanly:
/// shipping is best-effort.
#[test]
fn dead_aggregator_never_fails_the_run() {
    let lt = TcpListener::bind("127.0.0.1:0").unwrap();
    let at = lt.local_addr().unwrap().to_string();
    // Accept one connection, handshake, then slam it shut.
    let accept = std::thread::spawn(move || {
        serve_telemetry(
            lt,
            1,
            Some(RunControl::new()),
            |_, _| panic!("no payload expected before the drop"),
            |_| {},
        )
    });
    // Connect and drop immediately: the worker-side client sees a dead
    // peer on its first send.
    let client = TelemetryClient::connect(&at, 0, None).unwrap();
    drop(client);
    // The serve loop sees the disconnect and returns.
    accept.join().unwrap().unwrap();

    let total = Arc::new(AtomicU64::new(0));
    let sampler = Arc::new(TelemetrySampler::new(Duration::from_millis(5)));
    // Ship to a port with nothing listening: connects fail, run succeeds.
    pipeline(50, 1, Arc::clone(&total))
        .with_telemetry(TelemetryConfig::new(sampler, "local").ship_to("127.0.0.1:1"))
        .run()
        .unwrap();
    assert_eq!(
        total.load(Ordering::Relaxed),
        (0..50u64).map(|i| i * 2).sum()
    );
}
