//! Loopback-TCP integration tests for the distributed stream transport:
//! real sockets, real worker topologies, chaos through the wire.

use cgp_datacutter::{
    decode_frame, egress_pump, encode_frame, logical_stream, serve_ingress, Buffer, ClosureFilter,
    ErrorKind, FaultPlan, FilterIo, Frame, NetTuning, Pipeline, RecoveryOptions, RunControl,
    StageSpec, WorkerEndpoints, WorkerIngress,
};
use cgp_obs::SmallRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Encode a frame to raw bytes (tests drive the wire by hand).
fn raw(f: &Frame) -> Vec<u8> {
    cgp_datacutter::encode_frame(f)
}

fn hello(link: u32, producer: u32) -> Vec<u8> {
    raw(&Frame::Hello { link, producer })
}

fn data(from: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
    raw(&Frame::Data {
        from,
        seq,
        payload: payload.to_vec(),
    })
}

/// Read the 9-byte HelloAck and return its resume_seq.
fn read_hello_ack(s: &mut TcpStream) -> u64 {
    let mut buf = [0u8; 9];
    s.read_exact(&mut buf).expect("HelloAck");
    assert_eq!(buf[0], 2, "HelloAck tag");
    u64::from_le_bytes(buf[1..9].try_into().unwrap())
}

/// Three-stage source → double → sum pipeline; `total` receives the sum.
fn worker_pipeline(n: u64, width: usize, total: Arc<AtomicU64>) -> Pipeline {
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

/// Run the three-stage pipeline as three workers over loopback and
/// return the sum.
fn run_three_workers(n: u64, width: usize, faults: Option<FaultPlan>) -> u64 {
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
    let a1 = l1.local_addr().unwrap().to_string();
    let a2 = l2.local_addr().unwrap().to_string();
    let total = Arc::new(AtomicU64::new(0));
    let mut listeners = [None, Some(l1), Some(l2)];
    let connects = [Some(a1), Some(a2), None];
    std::thread::scope(|scope| {
        for stage in 0..3 {
            let listener = listeners[stage].take();
            let connect = connects[stage].clone();
            let total = Arc::clone(&total);
            let faults = faults.clone();
            scope.spawn(move || {
                let mut p = worker_pipeline(n, width, total);
                if let Some(f) = faults {
                    p = p.with_faults(f).with_recovery(RecoveryOptions::on());
                }
                p.run_worker(WorkerEndpoints {
                    stage,
                    ingress: listener.map(WorkerIngress::Tcp),
                    connect,
                })
                .unwrap_or_else(|e| panic!("worker {stage}: {e}"));
            });
        }
    });
    total.load(Ordering::Relaxed)
}

#[test]
fn three_workers_match_in_process_for_all_widths() {
    for width in [1usize, 2, 4] {
        let total = Arc::new(AtomicU64::new(0));
        worker_pipeline(100, width, Arc::clone(&total))
            .run()
            .unwrap();
        let expect = total.load(Ordering::Relaxed);
        assert_eq!(run_three_workers(100, width, None), expect, "width={width}");
    }
}

#[test]
fn chaos_fault_at_exact_packet_index_through_the_socket_is_recovered() {
    let expect: u64 = (0..200u64).map(|i| i * 2).sum();
    // Panic in the middle worker at packet 20: the restart replays the
    // unacked ingress tail, the egress pump dedups nothing (its acks are
    // per transmitted packet), and the result is exact.
    let plan = FaultPlan::new().panic_at("double", 0, 20);
    assert_eq!(run_three_workers(200, 2, Some(plan)), expect);
}

/// Per-producer FIFO: each producer's packets arrive in send order even
/// with several producers interleaving on separate connections.
#[test]
fn ingress_preserves_fifo_per_producer() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let producers = 3u32;
    let (writers, readers) = logical_stream(producers as usize, 1, 64, None, false, true);
    let serve = std::thread::spawn(move || {
        serve_ingress(listener, 7, writers, None, None, NetTuning::default())
    });
    let senders: Vec<_> = (0..producers)
        .map(|p| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&hello(7, p)).unwrap();
                assert_eq!(read_hello_ack(&mut s), 0);
                for i in 0..50u64 {
                    s.write_all(&data(p, i, &[p as u8, i as u8])).unwrap();
                }
                s.write_all(&raw(&Frame::End { from: p })).unwrap();
                s.write_all(&raw(&Frame::Close)).unwrap();
            })
        })
        .collect();
    let mut last_seen = vec![None::<u8>; producers as usize];
    let mut reader = readers.into_iter().next().unwrap();
    let mut count = 0;
    while let Some(b) = reader.read() {
        let &[p, i] = b.as_slice() else {
            panic!("2-byte payload")
        };
        if let Some(prev) = last_seen[p as usize] {
            assert!(i > prev, "producer {p} out of order: {i} after {prev}");
        }
        last_seen[p as usize] = Some(i);
        count += 1;
    }
    assert_eq!(count, 150);
    for s in senders {
        s.join().unwrap();
    }
    let stats = serve.join().unwrap().unwrap();
    assert_eq!(stats.frames, 150);
    assert_eq!(stats.bytes, 300);
    assert_eq!(stats.deduped, 0);
}

/// Backpressure propagates through TCP: with a gated consumer and far
/// more in-flight data than the stream capacity + socket buffers can
/// hold, the producer must stall until the gate opens — and everything
/// still arrives intact.
#[test]
fn backpressure_bounds_the_producer_through_the_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Consumer side: capacity 2, a gate holding the reader shut.
    let (writers, readers) = logical_stream(1, 1, 2, None, false, true);
    let gate = Arc::new(AtomicBool::new(false));
    let serve = std::thread::spawn(move || {
        serve_ingress(listener, 1, writers, None, None, NetTuning::default())
    });
    let gate2 = Arc::clone(&gate);
    let consumer = std::thread::spawn(move || {
        while !gate2.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reader = readers.into_iter().next().unwrap();
        let mut bytes = 0u64;
        let mut frames = 0u64;
        while let Some(b) = reader.read() {
            bytes += b.len() as u64;
            frames += 1;
        }
        (frames, bytes)
    });
    // Producer side: 16 × 4 MiB — far beyond what the capacity-2 stream
    // plus kernel socket buffers can absorb.
    let (mut pw, pr) = logical_stream(1, 1, 4, None, false, true);
    let done_sending = Arc::new(AtomicBool::new(false));
    let done2 = Arc::clone(&done_sending);
    let producer = std::thread::spawn(move || {
        for i in 0..16u8 {
            pw[0].write(Buffer::from_vec(vec![i; 4 << 20])).unwrap();
        }
        pw[0].close();
        done2.store(true, Ordering::Release);
    });
    let pump = std::thread::spawn(move || {
        let reader = pr.into_iter().next().unwrap();
        egress_pump(reader, &addr, 1, 0, None, None, NetTuning::default()).unwrap()
    });
    // With the gate shut the producer cannot finish: 64 MiB has nowhere
    // to go.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        !done_sending.load(Ordering::Acquire),
        "producer finished 64 MiB with the consumer gated — no backpressure"
    );
    gate.store(true, Ordering::Release);
    producer.join().unwrap();
    let (frames, bytes) = consumer.join().unwrap();
    assert_eq!(frames, 16);
    assert_eq!(bytes, 16 * (4 << 20) as u64);
    let egress = pump.join().unwrap();
    assert_eq!(egress.frames, 16);
    let ingress = serve.join().unwrap().unwrap();
    assert_eq!(ingress.bytes, egress.bytes);
}

/// A producer that dies mid-frame is corruption, not a clean disconnect:
/// the link fails with a Malformed error instead of hanging or silently
/// truncating the stream.
#[test]
fn disconnect_mid_frame_fails_the_link_loudly() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let control = RunControl::new();
    let (writers, readers) = logical_stream(1, 1, 16, None, false, true);
    let c2 = Arc::clone(&control);
    let serve = std::thread::spawn(move || {
        serve_ingress(listener, 1, writers, Some(c2), None, NetTuning::default())
    });
    let drain = std::thread::spawn(move || {
        let mut r = readers.into_iter().next().unwrap();
        let mut n = 0;
        while r.read().is_some() {
            n += 1;
        }
        n
    });
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&hello(1, 0)).unwrap();
    assert_eq!(read_hello_ack(&mut s), 0);
    s.write_all(&data(0, 0, b"complete")).unwrap();
    // Truncate the next frame: header promises 100 bytes, deliver 3 and
    // slam the connection.
    let partial = data(0, 1, &[9u8; 100]);
    s.write_all(&partial[..partial.len() - 97]).unwrap();
    drop(s);
    let err = serve.join().unwrap().unwrap_err();
    assert_eq!(err.kind, cgp_datacutter::ErrorKind::Malformed, "{err}");
    assert!(control.is_cancelled(), "a failed link cancels the run");
    // The local reader was unblocked (writers closed on the error path)
    // and saw only the complete packet.
    assert_eq!(drain.join().unwrap(), 1);
}

/// A clean disconnect + reconnect re-sending in-flight frames: the slot's
/// sequence watermark survives the connection, dedups the duplicates, and
/// the published resume watermark never regresses.
#[test]
fn reconnect_dedups_duplicates_and_never_regresses_acks() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (writers, readers) = logical_stream(1, 1, 16, None, false, true);
    let serve = std::thread::spawn(move || {
        serve_ingress(listener, 3, writers, None, None, NetTuning::default())
    });
    let drain = std::thread::spawn(move || {
        let mut r = readers.into_iter().next().unwrap();
        let mut seen = Vec::new();
        while let Some(b) = r.read() {
            seen.push(b.as_slice()[0]);
        }
        seen
    });
    // First connection: deliver 0..3, then vanish cleanly (as a crashed-
    // and-restarted upstream process that had frames in flight would).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&hello(3, 0)).unwrap();
    assert_eq!(read_hello_ack(&mut s), 0);
    for i in 0..3u64 {
        s.write_all(&data(0, i, &[i as u8])).unwrap();
    }
    s.write_all(&raw(&Frame::Close)).unwrap();
    drop(s);
    // Give the handler thread time to park the feeder back in the slot
    // table (a real restarted process takes far longer to come back).
    std::thread::sleep(Duration::from_millis(300));
    // Reconnect: the watermark still stands at 3 — nothing regressed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&hello(3, 0)).unwrap();
    assert_eq!(
        read_hello_ack(&mut s),
        3,
        "resume watermark after reconnect"
    );
    // Re-send the duplicated in-flight tail (1, 2), then fresh data.
    for i in 1..5u64 {
        s.write_all(&data(0, i, &[i as u8])).unwrap();
    }
    s.write_all(&raw(&Frame::End { from: 0 })).unwrap();
    s.write_all(&raw(&Frame::Close)).unwrap();
    drop(s);
    assert_eq!(drain.join().unwrap(), vec![0, 1, 2, 3, 4], "exactly once");
    let stats = serve.join().unwrap().unwrap();
    assert_eq!(stats.frames, 5, "5 unique frames delivered");
    assert_eq!(stats.deduped, 2, "2 duplicated in-flight frames dropped");
}

/// Handshake hardening: wrong link, out-of-range producer, bad magic.
#[test]
fn handshake_rejects_wrong_link_and_producer() {
    for (hello_bytes, what) in [
        (hello(99, 0), "wrong link"),
        (hello(5, 7), "producer out of range"),
        (b"XXXX-garbage-that-is-not-a-frame".to_vec(), "bad tag"),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (writers, readers) = logical_stream(1, 1, 16, None, false, true);
        let serve = std::thread::spawn(move || {
            serve_ingress(listener, 5, writers, None, None, NetTuning::default())
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello_bytes).unwrap();
        let err = serve.join().unwrap().unwrap_err();
        assert_eq!(
            err.kind,
            cgp_datacutter::ErrorKind::Malformed,
            "{what}: {err}"
        );
        drop(s);
        // The local reader is released rather than stranded.
        let mut r = readers.into_iter().next().unwrap();
        assert!(r.read().is_none(), "{what}: reader unblocked");
    }
}

/// Current thread count of this process (Linux; leak checks gated on it).
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Wait (bounded) for the thread count to fall back to `before`. Other
/// tests in this binary run concurrently, so a transient excess is
/// tolerated; a leaked thread is not.
#[cfg(target_os = "linux")]
fn assert_threads_return_to(before: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let after = thread_count();
        if after <= before {
            break;
        }
        if std::time::Instant::now() > deadline {
            panic!("thread count must return to baseline: before={before} after={after}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Distributed runs — including faulted ones — must join every bridge
/// and handler thread.
#[cfg(target_os = "linux")]
#[test]
fn distributed_runs_leak_no_threads() {
    let _ = run_three_workers(50, 2, None); // warm-up
    let before = thread_count();
    for _ in 0..2 {
        let _ = run_three_workers(50, 2, None);
        let _ = run_three_workers(50, 2, Some(FaultPlan::new().panic_at("double", 0, 10)));
    }
    assert_threads_return_to(before);
}

/// Every malformed `WorkerEndpoints` is refused with a named error before
/// the run spawns anything. Without the checks these runs would block (a
/// copy waiting on an ingress nobody feeds) until the deadline fired.
#[cfg(target_os = "linux")]
#[test]
fn worker_endpoint_validation_fails_before_any_thread_starts() {
    let tcp = || {
        Some(WorkerIngress::Tcp(
            TcpListener::bind("127.0.0.1:0").unwrap(),
        ))
    };
    let downstream = || Some("127.0.0.1:1".to_string());
    let cases = [
        ("stage >= n", 3, tcp(), None, "out of range"),
        (
            "stage 0 given an ingress",
            0,
            tcp(),
            downstream(),
            "the first stage has no ingress link",
        ),
        (
            "stage > 0 without an ingress",
            1,
            None,
            downstream(),
            "needs an ingress endpoint",
        ),
        (
            "non-last stage without connect",
            1,
            tcp(),
            None,
            "needs a connect address",
        ),
        (
            "last stage with connect",
            2,
            tcp(),
            downstream(),
            "the last stage has no egress link",
        ),
    ];
    for (what, stage, ingress, connect, expect) in cases {
        let before = thread_count();
        let total = Arc::new(AtomicU64::new(0));
        let err = worker_pipeline(10, 2, Arc::clone(&total))
            .with_deadline(Duration::from_secs(5))
            .run_worker(WorkerEndpoints {
                stage,
                ingress,
                connect,
            })
            .expect_err(what);
        assert!(err.message.contains(expect), "{what}: {err}");
        assert_eq!(total.load(Ordering::Relaxed), 0, "{what}: nothing ran");
        assert_threads_return_to(before);
    }
}

/// A random frame of any variant, with random fields and a payload of
/// 0..300 bytes.
fn random_frame(rng: &mut SmallRng) -> Frame {
    match rng.gen_range(0, 7) {
        0 => Frame::Hello {
            link: rng.next_u64() as u32,
            producer: rng.next_u64() as u32,
        },
        1 => Frame::HelloAck {
            resume_seq: rng.next_u64(),
        },
        2 => Frame::Data {
            from: rng.next_u64() as u32,
            seq: rng.next_u64(),
            payload: random_bytes(rng, 299),
        },
        3 => Frame::End {
            from: rng.next_u64() as u32,
        },
        4 => Frame::Close,
        5 => Frame::Telemetry {
            payload: random_bytes(rng, 299),
        },
        _ => Frame::Heartbeat,
    }
}

fn random_bytes(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0, max + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A successful decode is canonical: re-encoding the frame yields exactly
/// the bytes it was decoded from.
fn assert_canonical(buf: &[u8]) {
    if let Ok((f, used)) = decode_frame(buf) {
        assert_eq!(encode_frame(&f), &buf[..used], "{f:?} from {buf:02x?}");
    }
}

/// (a) Every generated frame round-trips, consuming exactly its own
/// bytes; random trailing bytes never change what is consumed.
#[test]
fn generated_frames_roundtrip_ignoring_trailing_bytes() {
    let mut rng = SmallRng::seed_from_u64(0xF4A3E);
    for case in 0..500 {
        let f = random_frame(&mut rng);
        let bytes = encode_frame(&f);
        let (back, used) = decode_frame(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!((&back, used), (&f, bytes.len()), "case {case}");
        let mut padded = bytes.clone();
        padded.extend(random_bytes(&mut rng, 64));
        let (back, used) = decode_frame(&padded).unwrap();
        assert_eq!((&back, used), (&f, bytes.len()), "case {case} with trailer");
    }
}

/// (b) Every strict prefix of a generated frame is malformed.
#[test]
fn generated_frame_prefixes_are_malformed() {
    let mut rng = SmallRng::seed_from_u64(0xF4A3F);
    for case in 0..200 {
        let f = random_frame(&mut rng);
        let bytes = encode_frame(&f);
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("strict prefix decoded");
            assert_eq!(
                err.kind,
                ErrorKind::Malformed,
                "case {case} cut {cut}: {f:?}"
            );
        }
    }
}

/// (c) Random byte strings and single-byte mutations of valid frames
/// never panic the decoder, and whatever does decode is canonical.
#[test]
fn random_and_mutated_bytes_decode_canonically_or_not_at_all() {
    let mut rng = SmallRng::seed_from_u64(0xF4A40);
    for _ in 0..2000 {
        let mut bytes = random_bytes(&mut rng, 48);
        // Bias the tag byte toward known tags so the decoder gets past
        // its first check most of the time.
        if let Some(tag) = bytes.first_mut() {
            *tag = rng.gen_range(0, 9) as u8;
        }
        assert_canonical(&bytes);
    }
    for _ in 0..1000 {
        let mut bytes = encode_frame(&random_frame(&mut rng));
        let i = rng.gen_range(0, bytes.len());
        bytes[i] = rng.next_u64() as u8;
        assert_canonical(&bytes);
    }
}
