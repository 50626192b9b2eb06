//! Integration tests for the live telemetry plane: in-process sampling,
//! latency percentiles, and cross-process aggregation over real sockets.

use cgp_datacutter::{
    decode_frame, decode_telemetry_payload, encode_frame, encode_telemetry_payload,
    serve_telemetry, Buffer, ClosureFilter, ErrorKind, FilterIo, Frame, Pipeline, RunControl,
    RunOptions, StageSpec, TelemetryClient, TelemetryConfig, WorkerEndpoints, WorkerIngress,
};
use cgp_obs::telemetry::{StageSample, TelemetrySample};
use cgp_obs::{MetricsRegistry, SmallRng, TelemetrySampler};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Three-stage source → double → sum pipeline; `total` receives the sum.
fn pipeline(n: u64, width: usize, total: Arc<AtomicU64>, opts: RunOptions) -> Pipeline {
    let opts = RunOptions {
        capacity: 8,
        ..opts
    };
    Pipeline::new(opts)
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
    pipeline(200, 2, Arc::clone(&plain), RunOptions::default())
        .run()
        .unwrap();
    let expect = plain.load(Ordering::Relaxed);

    let total = Arc::new(AtomicU64::new(0));
    let sampler = Arc::new(TelemetrySampler::new(Duration::from_millis(5)));
    let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
    let opts = RunOptions {
        metrics: Some(Arc::clone(&registry)),
        telemetry: Some(TelemetryConfig::new(Arc::clone(&sampler), "local")),
        ..Default::default()
    };
    let stats = pipeline(200, 2, Arc::clone(&total), opts).run().unwrap();
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

/// Telemetry off: no latency stamps, so no histograms — and the result
/// is still exact. The calibration counters come from the probes every
/// run keeps, so they reach the registry anyway.
#[test]
fn telemetry_off_leaves_no_trace() {
    let total = Arc::new(AtomicU64::new(0));
    let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
    let opts = RunOptions {
        metrics: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let stats = pipeline(50, 2, Arc::clone(&total), opts).run().unwrap();
    assert_eq!(stats.e2e_us.count, 0);
    assert!(stats.stages.iter().all(|s| s.residence_us.count == 0));
    let reg = registry.lock().unwrap();
    assert_eq!(reg.get_counter("stage.double.buffers_in"), 50);
    assert!(reg.get_histogram("stage.double.residence_us").is_none());
    assert!(reg.get_histogram("pipeline.e2e_us").is_none());
}

/// Counters are always on: one deterministic pipeline counts the same
/// buffers and bytes per stage with telemetry off and on, and busy time
/// either way; telemetry only adds the latency histograms.
#[test]
fn stage_counters_do_not_depend_on_telemetry() {
    let run = |telemetry: Option<TelemetryConfig>| {
        let total = Arc::new(AtomicU64::new(0));
        let opts = RunOptions {
            telemetry,
            ..Default::default()
        };
        let stats = pipeline(120, 2, Arc::clone(&total), opts).run().unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 2 * (0..120).sum::<u64>());
        stats
    };
    let off = run(None);
    let sampler = Arc::new(TelemetrySampler::new(Duration::from_millis(5)));
    let on = run(Some(TelemetryConfig::new(sampler, "local")));
    let counts =
        |s: &cgp_datacutter::StageStats| (s.buffers_in, s.bytes_in, s.buffers_out, s.bytes_out);
    for (a, b) in off.stages.iter().zip(&on.stages) {
        assert_eq!(counts(a), counts(b), "stage {}", a.name);
        for st in [a, b] {
            assert!(st.busy > Duration::ZERO, "stage {} busy", st.name);
            assert_eq!(st.busy, st.busy_per_copy.iter().sum(), "stage {}", st.name);
        }
    }
    assert_eq!(counts(&off.stages[0]), (0, 0, 120, 960));
    assert_eq!(counts(&off.stages[1]), (120, 960, 120, 960));
    assert_eq!(counts(&off.stages[2]), (120, 960, 0, 0));
    assert_eq!(off.e2e_us.count, 0);
    assert_eq!(on.e2e_us.count, 120);
}

/// A copy that stops reading before end of stream still reports what it
/// read: its reader's counts are published when the copy exits.
#[test]
fn stats_count_what_a_copy_read_before_it_stopped() {
    let stats = Pipeline::new(RunOptions::default())
        .add_stage(StageSpec::new(
            "source",
            1,
            Box::new(|_| {
                Box::new(ClosureFilter::new("source", |io: &mut FilterIo| {
                    for i in 0..3u64 {
                        io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "sink",
            1,
            Box::new(|_| {
                Box::new(ClosureFilter::new("sink", |io: &mut FilterIo| {
                    for _ in 0..3 {
                        io.read().expect("three packets");
                    }
                    Ok(())
                }))
            }),
        ))
        .run()
        .unwrap();
    let sink = &stats.stages[1];
    assert_eq!((sink.buffers_in, sink.bytes_in), (3, 24));
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
        let sample = TelemetrySample {
            source: source.to_string(),
            fin: true,
            ..Default::default()
        };
        let payload = encode_telemetry_payload(&sample, Some(reg));
        let bytes = encode_frame(&Frame::Telemetry { payload });
        let Ok((Frame::Telemetry { payload }, used)) = decode_frame(&bytes) else {
            panic!("telemetry frame must decode");
        };
        assert_eq!(used, bytes.len());
        let (back, registry) = decode_telemetry_payload(&payload).unwrap();
        assert_eq!(back, sample);
        merged.merge(&registry.unwrap());
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
    pipeline(100, 2, Arc::clone(&plain), RunOptions::default())
        .run()
        .unwrap();
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
    let control = RunControl::new();
    let ctl = Arc::clone(&control);
    let serve = std::thread::spawn(move || {
        serve_telemetry(
            lt,
            ctl,
            move |_, payload| {
                if let Ok((sample, registry)) = decode_telemetry_payload(&payload) {
                    u2.lock()
                        .unwrap()
                        .push((sample.source, sample.fin, registry));
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
                let opts = RunOptions {
                    metrics: Some(registry),
                    telemetry: Some(TelemetryConfig {
                        ship_to: Some(at),
                        ..TelemetryConfig::new(sampler, format!("worker:{stage}"))
                    }),
                    ..Default::default()
                };
                pipeline(100, 2, total, opts)
                    .run_worker(WorkerEndpoints {
                        stage,
                        ingress: listener.map(WorkerIngress::Tcp),
                        connect,
                    })
                    .unwrap_or_else(|e| panic!("worker {stage}: {e}"));
            });
        }
    });
    // Every worker has finished: the launcher stops its aggregator.
    control.cancel("workers finished");
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
    // Accept one connection, read its Hello, then see it slammed shut.
    let control = RunControl::new();
    let ctl = Arc::clone(&control);
    let accept = std::thread::spawn(move || {
        serve_telemetry(
            lt,
            ctl,
            |_, _| panic!("no payload expected before the drop"),
            |_| {},
        )
    });
    // Connect and drop immediately: the worker-side client sees a dead
    // peer on its first send.
    let client = TelemetryClient::connect(&at, 0, None).unwrap();
    drop(client);
    // The serve loop reads the dropped connection to its end and
    // returns once cancelled.
    control.cancel("launcher done");
    accept.join().unwrap().unwrap();

    let total = Arc::new(AtomicU64::new(0));
    let sampler = Arc::new(TelemetrySampler::new(Duration::from_millis(5)));
    // Ship to a port with nothing listening: connects fail, run succeeds.
    let opts = RunOptions {
        telemetry: Some(TelemetryConfig {
            ship_to: Some("127.0.0.1:1".to_string()),
            ..TelemetryConfig::new(sampler, "local")
        }),
        ..Default::default()
    };
    pipeline(50, 1, Arc::clone(&total), opts).run().unwrap();
    assert_eq!(
        total.load(Ordering::Relaxed),
        (0..50u64).map(|i| i * 2).sum()
    );
}

/// A random sample: up to three stages of up to three copies, a few
/// counters, and edge values (0, `u64::MAX`) among the random ones.
fn random_sample(rng: &mut SmallRng) -> TelemetrySample {
    let num = |rng: &mut SmallRng| match rng.gen_range(0, 4) {
        0 => 0,
        1 => u64::MAX,
        // Whole numbers up to 2^53 survive the f64 of a JSON number.
        _ => rng.gen_range_u64(1 << 53),
    };
    let name = |rng: &mut SmallRng, prefix: &str| format!("{prefix}{}", rng.gen_range(0, 100));
    let stages = (0..rng.gen_range(0, 4))
        .map(|_| {
            let copies = rng.gen_range(0, 4);
            StageSample {
                stage: name(rng, "f"),
                queue_depth: num(rng),
                busy_us_per_copy: (0..copies).map(|_| num(rng)).collect(),
                active_frac_per_copy: (0..copies).map(|_| rng.gen_f64()).collect(),
                blocked_send_us: num(rng),
                blocked_recv_us: num(rng),
                buffers_in: num(rng),
                buffers_out: num(rng),
                residence_p50_us: num(rng),
                residence_p95_us: num(rng),
                residence_p99_us: num(rng),
            }
        })
        .collect();
    TelemetrySample {
        source: format!("worker:{}", rng.gen_range(0, 8)),
        seq: num(rng),
        elapsed_us: num(rng),
        fin: rng.gen_bool(0.5),
        stages,
        counters: (0..rng.gen_range(0, 4))
            .map(|_| (name(rng, "net.link"), num(rng)))
            .collect(),
        e2e_count: num(rng),
        e2e_p50_us: num(rng),
        e2e_p95_us: num(rng),
        e2e_p99_us: num(rng),
    }
}

/// A random registry of counters and histograms, or none.
fn random_registry(rng: &mut SmallRng) -> Option<MetricsRegistry> {
    if rng.gen_bool(0.4) {
        return None;
    }
    let mut reg = MetricsRegistry::new();
    for _ in 0..rng.gen_range(0, 4) {
        let v = rng.gen_range_u64(1 << 40);
        reg.counter(&format!("stage.f{}.busy_us", rng.gen_range(1, 4)), v);
    }
    for _ in 0..rng.gen_range(0, 3) {
        let name = format!("stage.f{}.residence_us", rng.gen_range(1, 4));
        for _ in 0..rng.gen_range(1, 20) {
            let bits = rng.gen_range(0, 40);
            let v = rng.gen_range_u64(1 << bits);
            reg.observe(&name, v);
        }
    }
    Some(reg)
}

fn random_payload(rng: &mut SmallRng) -> (TelemetrySample, Option<MetricsRegistry>, Vec<u8>) {
    let sample = random_sample(rng);
    let registry = random_registry(rng);
    let bytes = encode_telemetry_payload(&sample, registry.as_ref());
    (sample, registry, bytes)
}

/// Registries have no `==`: compare their lossless wire form.
fn wire(registry: &Option<MetricsRegistry>) -> Option<String> {
    registry.as_ref().map(|r| r.to_wire_json().to_string())
}

/// Whatever decodes is a fixed point: encoding it again and decoding
/// that gives the same sample and registry. Never a panic.
fn assert_fixed_point(bytes: &[u8]) {
    if let Ok((sample, registry)) = decode_telemetry_payload(bytes) {
        let again = encode_telemetry_payload(&sample, registry.as_ref());
        let (back, back_registry) = decode_telemetry_payload(&again)
            .unwrap_or_else(|e| panic!("re-encoded payload fails: {e}: {again:02x?}"));
        assert_eq!(back, sample, "from {bytes:02x?}");
        assert_eq!(wire(&back_registry), wire(&registry), "from {bytes:02x?}");
    }
}

/// (a) Every generated payload round-trips: the sample exactly, the
/// registry through its wire form.
#[test]
fn generated_telemetry_payloads_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x7E1E);
    for case in 0..500 {
        let (sample, registry, bytes) = random_payload(&mut rng);
        let (back, back_registry) =
            decode_telemetry_payload(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, sample, "case {case}");
        assert_eq!(wire(&back_registry), wire(&registry), "case {case}");
    }
}

/// (b) Every strict prefix of a generated payload fails as malformed.
#[test]
fn generated_telemetry_payload_prefixes_fail() {
    let mut rng = SmallRng::seed_from_u64(0x7E1F);
    for case in 0..60 {
        let (_, _, bytes) = random_payload(&mut rng);
        for cut in 0..bytes.len() {
            let err = decode_telemetry_payload(&bytes[..cut]).expect_err("strict prefix decoded");
            assert_eq!(err.kind, ErrorKind::Malformed, "case {case} cut {cut}");
        }
    }
}

/// (c) Random bytes, single-byte mutations of valid payloads and deeply
/// nested documents never panic the decoder, and whatever decodes is a
/// fixed point.
#[test]
fn random_and_mutated_telemetry_payloads_decode_to_a_fixed_point_or_fail() {
    let mut rng = SmallRng::seed_from_u64(0x7E20);
    // JSON's own characters, so random strings get past the first byte.
    let alphabet = b"{}[]\":,0123456789.e-aflnrstu \xff";
    for _ in 0..2000 {
        let len = rng.gen_range(0, 64);
        let bytes: Vec<u8> = (0..len)
            .map(|_| alphabet[rng.gen_range(0, alphabet.len())])
            .collect();
        assert_fixed_point(&bytes);
    }
    for _ in 0..5000 {
        let (_, _, mut bytes) = random_payload(&mut rng);
        let i = rng.gen_range(0, bytes.len());
        bytes[i] = match rng.gen_bool(0.5) {
            true => alphabet[rng.gen_range(0, alphabet.len())],
            false => rng.next_u64() as u8,
        };
        assert_fixed_point(&bytes);
    }
    // Deep nesting, open or closed around a valid payload, is no sample.
    for depth in [10, 127, 128, 129, 1000, 100_000] {
        let (_, _, bytes) = random_payload(&mut rng);
        let payload = String::from_utf8(bytes).unwrap();
        let wrapped = format!("{}{payload}{}", "[".repeat(depth), "]".repeat(depth));
        for doc in ["[".repeat(depth), "{\"registry\":".repeat(depth), wrapped] {
            let err = decode_telemetry_payload(doc.as_bytes()).expect_err("no sample");
            assert_eq!(err.kind, ErrorKind::Malformed, "depth {depth}");
        }
    }
}
