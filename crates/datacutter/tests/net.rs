//! Integration tests for the distributed link transport: real sockets
//! and real mmap rings, real worker topologies, chaos through the wire.
//! Every behaviour both carriers share runs over each of them; the
//! few that differ by design keep single-carrier tests.

use cgp_datacutter::shm::ring_path;
use cgp_datacutter::{
    decode_frame, egress_pump, encode_frame, logical_stream, serve_ingress, shm_supported, Buffer,
    ClosureFilter, ErrorKind, FaultPlan, FilterError, FilterIo, FilterResult, Frame, NetLinkStats,
    NetTuning, Pipeline, RunControl, RunOptions, RunStats, ShmSender, StageSpec, StreamWriter,
    Transport, WorkerEndpoints, WorkerIngress, SHM_PREFIX,
};
use cgp_obs::SmallRng;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The carriers a shared behaviour runs over: TCP, and shm rings where
/// the build supports them.
fn carriers() -> Vec<Transport> {
    let mut all = vec![Transport::Tcp];
    if shm_supported() {
        all.push(Transport::Shm);
    }
    all
}

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

/// A producer's end of a link, driven byte by byte: a socket, or the
/// sending half of one ring.
enum RawProducer {
    Tcp(TcpStream),
    Shm(ShmSender),
}

impl RawProducer {
    /// Connect to the ingress at `addr`; on shm, attach to ring `ring`.
    fn open(addr: &str, ring: u32) -> Self {
        Self::try_open(addr, ring).unwrap()
    }

    fn try_open(addr: &str, ring: u32) -> Result<Self, FilterError> {
        Ok(match addr.strip_prefix(SHM_PREFIX) {
            Some(base) => RawProducer::Shm(ShmSender::attach(
                &ring_path(base, ring),
                None,
                format!("raw[{ring}]"),
            )?),
            None => RawProducer::Tcp(TcpStream::connect(addr).unwrap()),
        })
    }

    fn send(&mut self, bytes: &[u8]) {
        match self {
            RawProducer::Tcp(s) => s.write_all(bytes).unwrap(),
            RawProducer::Shm(s) => s.write_all(bytes).unwrap(),
        }
    }

    /// Say the one-way `Hello`.
    fn hello(&mut self, link: u32, producer: u32) {
        self.send(&hello(link, producer));
    }
}

/// An ingress for `producers` upstream copies on a fresh endpoint of
/// `carrier`, served on its own thread into `writers`.
fn serve(
    carrier: Transport,
    link: u32,
    writers: Vec<StreamWriter>,
    control: Option<Arc<RunControl>>,
    tuning: NetTuning,
) -> (
    String,
    std::thread::JoinHandle<Result<NetLinkStats, FilterError>>,
) {
    let (ingress, addr) = WorkerIngress::bind(carrier.fresh_addr(), writers.len()).unwrap();
    let serving = std::thread::spawn(move || {
        serve_ingress(ingress, link, writers, control, Default::default(), tuning)
    });
    (addr, serving)
}

/// Three-stage source → double → sum pipeline; `total` receives the sum.
fn worker_pipeline(n: u64, width: usize, total: Arc<AtomicU64>, opts: RunOptions) -> Pipeline {
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

/// Run the three-stage pipeline as three workers over `carrier`, each
/// under `opts`, and return the sum and every worker's result.
fn run_three_workers(
    n: u64,
    width: usize,
    opts: RunOptions,
    carrier: Transport,
) -> (u64, Vec<FilterResult<RunStats>>) {
    // Each ingress serves the upstream stage's copies: the source's 1,
    // then the doublers' `width`.
    let (i1, a1) = WorkerIngress::bind(carrier.fresh_addr(), 1).unwrap();
    let (i2, a2) = WorkerIngress::bind(carrier.fresh_addr(), width).unwrap();
    let total = Arc::new(AtomicU64::new(0));
    let mut ingresses = [None, Some(i1), Some(i2)];
    let connects = [Some(a1), Some(a2), None];
    let runs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|stage| {
                let ingress = ingresses[stage].take();
                let connect = connects[stage].clone();
                let pipeline = worker_pipeline(n, width, Arc::clone(&total), opts.clone());
                scope.spawn(move || {
                    pipeline.run_worker(WorkerEndpoints {
                        stage,
                        ingress,
                        connect,
                    })
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    (total.load(Ordering::Relaxed), runs)
}

#[test]
fn three_workers_match_in_process_for_all_widths() {
    for width in [1usize, 2, 4] {
        let total = Arc::new(AtomicU64::new(0));
        worker_pipeline(100, width, Arc::clone(&total), RunOptions::default())
            .run()
            .unwrap();
        let expect = total.load(Ordering::Relaxed);
        for carrier in carriers() {
            let (got, runs) = run_three_workers(100, width, RunOptions::default(), carrier);
            for (stage, run) in runs.into_iter().enumerate() {
                run.unwrap_or_else(|e| panic!("{carrier:?} worker {stage}: {e}"));
            }
            assert_eq!(got, expect, "{carrier:?} width={width}");
        }
    }
}

#[test]
fn chaos_fault_at_exact_packet_index_through_the_socket_fails_the_worker_by_name() {
    // Panic in the middle worker at packet 20. A worker never restarts
    // itself, whatever its budget: the copy fails its worker by name, and
    // restarting the chain is its launcher's job.
    for carrier in carriers() {
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("double", 0, 20),
            restart_budget: 2,
            deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let (_, runs) = run_three_workers(200, 2, opts, carrier);
        let err = runs[1].as_ref().expect_err("the faulted worker fails");
        assert_eq!(err.kind, ErrorKind::Panicked, "{carrier:?}: {err}");
        assert_eq!(err.filter, "double[0]", "{carrier:?}: {err}");
        assert!(err.message.contains("packet 20"), "{carrier:?}: {err}");
    }
}

/// A worker whose downstream link breaks mid-stream fails naming that
/// egress link: the producer copy's stream keeps its reader until the
/// link's error is recorded and the run cancelled, so the copy sees the
/// cancellation, never `consumer hung up`.
#[test]
fn a_broken_egress_link_fails_the_worker_by_the_links_name() {
    for carrier in carriers() {
        for _ in 0..20 {
            // The downstream ingress takes ten packets, then its run is
            // cancelled, which closes its end of the link.
            let control = RunControl::new();
            let (writers, mut readers) = logical_stream(1, 1, 16, Arc::clone(&control));
            let tuning = NetTuning::default();
            let (addr, serving) = serve(carrier, 1, writers, Some(Arc::clone(&control)), tuning);
            let breaker = std::thread::spawn(move || {
                for _ in 0..10 {
                    readers[0].read().expect("a packet before the break");
                }
                control.cancel("downstream worker died");
            });
            let err = worker_pipeline(u64::MAX, 1, Arc::default(), RunOptions::default())
                .run_worker(WorkerEndpoints {
                    stage: 0,
                    ingress: None,
                    connect: Some(addr),
                })
                .expect_err("the source cannot finish with its link broken");
            breaker.join().unwrap();
            let _ = serving.join().unwrap();
            assert_ne!(err.kind, ErrorKind::Cancelled, "{carrier:?}: {err}");
            assert_eq!(err.filter, "egress link 1", "{carrier:?}: {err}");
            assert!(!err.to_string().contains("hung up"), "{carrier:?}: {err}");
        }
    }
}

/// Per-producer FIFO: each producer's packets arrive in send order even
/// with several producers interleaving on separate connections.
#[test]
fn ingress_preserves_fifo_per_producer() {
    for carrier in carriers() {
        let producers = 3u32;
        let (writers, readers) = logical_stream(producers as usize, 1, 64, RunControl::new());
        let (addr, serving) = serve(carrier, 7, writers, None, NetTuning::default());
        let senders: Vec<_> = (0..producers)
            .map(|p| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut s = RawProducer::open(&addr, p);
                    s.hello(7, p);
                    for i in 0..50u64 {
                        s.send(&data(p, i, &[p as u8, i as u8]));
                    }
                    s.send(&raw(&Frame::End { from: p }));
                    s.send(&raw(&Frame::Close));
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
                assert!(
                    i > prev,
                    "{carrier:?}: producer {p} out of order: {i} after {prev}"
                );
            }
            last_seen[p as usize] = Some(i);
            count += 1;
        }
        assert_eq!(count, 150, "{carrier:?}");
        for s in senders {
            s.join().unwrap();
        }
        let stats = serving.join().unwrap().unwrap();
        assert_eq!(stats.frames, 150, "{carrier:?}");
        assert_eq!(stats.bytes, 300, "{carrier:?}");
    }
}

/// Backpressure propagates through the carrier: with a gated consumer
/// and far more in-flight data than the stream capacity plus socket
/// buffers or ring can hold, the producer must stall until the gate
/// opens — and everything still arrives intact.
#[test]
fn backpressure_bounds_the_producer_through_the_socket() {
    for carrier in carriers() {
        // Consumer side: capacity 2, a gate holding the reader shut.
        let (writers, readers) = logical_stream(1, 1, 2, RunControl::new());
        let gate = Arc::new(AtomicBool::new(false));
        let (addr, serving) = serve(carrier, 1, writers, None, NetTuning::default());
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
        // Producer side: 16 × 4 MiB — far beyond what the capacity-2
        // stream plus kernel socket buffers or a 4 MiB ring can absorb.
        let (mut pw, pr) = logical_stream(1, 1, 4, RunControl::new());
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
            let mut reader = pr.into_iter().next().unwrap();
            egress_pump(
                &mut reader,
                &addr,
                1,
                0,
                None,
                Default::default(),
                NetTuning::default(),
            )
            .unwrap()
        });
        // With the gate shut the producer cannot finish: 64 MiB has
        // nowhere to go.
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            !done_sending.load(Ordering::Acquire),
            "{carrier:?}: producer finished 64 MiB with the consumer gated — no backpressure"
        );
        gate.store(true, Ordering::Release);
        producer.join().unwrap();
        let (frames, bytes) = consumer.join().unwrap();
        assert_eq!(frames, 16, "{carrier:?}");
        assert_eq!(bytes, 16 * (4 << 20) as u64, "{carrier:?}");
        let egress = pump.join().unwrap();
        assert_eq!(egress.frames, 16, "{carrier:?}");
        let ingress = serving.join().unwrap().unwrap();
        assert_eq!(ingress.bytes, egress.bytes, "{carrier:?}");
    }
}

/// A producer that dies mid-frame is corruption, not a clean disconnect:
/// the link fails with a Malformed error instead of hanging or silently
/// truncating the stream.
#[test]
fn disconnect_mid_frame_fails_the_link_loudly() {
    for carrier in carriers() {
        let control = RunControl::new();
        let (writers, readers) = logical_stream(1, 1, 16, RunControl::new());
        let tuning = NetTuning::default();
        let (addr, serving) = serve(carrier, 1, writers, Some(Arc::clone(&control)), tuning);
        let drain = std::thread::spawn(move || {
            let mut r = readers.into_iter().next().unwrap();
            let mut n = 0;
            while r.read().is_some() {
                n += 1;
            }
            n
        });
        let mut s = RawProducer::open(&addr, 0);
        s.hello(1, 0);
        s.send(&data(0, 0, b"complete"));
        // Truncate the next frame: header promises 100 bytes, deliver 3
        // and slam the connection.
        let partial = data(0, 1, &[9u8; 100]);
        s.send(&partial[..partial.len() - 97]);
        drop(s);
        let err = serving.join().unwrap().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed, "{carrier:?}: {err}");
        assert!(
            control.is_cancelled(),
            "{carrier:?}: a failed link cancels the run"
        );
        // The local reader was unblocked (writers closed on the error
        // path) and saw only the complete packet.
        assert_eq!(drain.join().unwrap(), 1, "{carrier:?}");
    }
}

/// Run one producer's hand-written wire bytes (after its `Hello`) into a
/// one-producer ingress and return how the link ended. The producer
/// then vanishes.
fn link_after(carrier: Transport, frames: &[Vec<u8>]) -> Result<NetLinkStats, FilterError> {
    let (writers, mut readers) = logical_stream(1, 1, 16, RunControl::new());
    let (addr, serving) = serve(carrier, 4, writers, None, NetTuning::default());
    let drain = std::thread::spawn(move || while readers[0].read().is_some() {});
    let mut s = RawProducer::open(&addr, 0);
    for f in frames {
        s.send(f);
    }
    drop(s);
    let result = serving.join().unwrap();
    drain.join().unwrap();
    result
}

/// Assert that a link failed as malformed, naming `what`.
fn assert_malformed(result: Result<NetLinkStats, FilterError>, what: &str, carrier: Transport) {
    let err = result.expect_err(what);
    assert_eq!(err.kind, ErrorKind::Malformed, "{carrier:?}: {err}");
    assert!(err.message.contains(what), "{carrier:?}: {err}");
}

/// A sequence gap on the link — frames lost on a carrier that
/// guarantees FIFO — fails it, on both carriers.
#[test]
fn a_sequence_gap_on_the_link_is_malformed() {
    for carrier in carriers() {
        let frames = [hello(4, 0), data(0, 0, b"a"), data(0, 2, b"c")];
        assert_malformed(link_after(carrier, &frames), "sequence gap", carrier);
    }
}

/// The first frame of a connection must be `Hello`.
#[test]
fn a_frame_before_hello_is_malformed() {
    for carrier in carriers() {
        let frames = [data(0, 0, b"early")];
        assert_malformed(
            link_after(carrier, &frames),
            "expected Hello first",
            carrier,
        );
    }
}

/// A frame labelled with another producer than the connection's fails
/// the link; without the check, this run would end cleanly.
#[test]
fn a_frame_from_another_producer_is_malformed() {
    for carrier in carriers() {
        let frames = [
            hello(4, 0),
            data(1, 0, b"stray"),
            raw(&Frame::End { from: 1 }),
            raw(&Frame::Close),
        ];
        assert_malformed(link_after(carrier, &frames), "from producer 1", carrier);
    }
}

/// A producer gone before `End`, by a clean close, fails an unsupervised
/// link on both carriers.
#[test]
fn a_ring_closed_before_end_is_malformed() {
    for carrier in carriers() {
        let frames = [hello(4, 0), data(0, 0, b"a")];
        let result = link_after(carrier, &frames);
        assert_malformed(
            result,
            "producer 0 closed its connection before End",
            carrier,
        );
    }
}

/// A producer that connects or attaches and vanishes before its `Hello`,
/// and one that vanishes mid-stream before `End`: the wire bytes each
/// sends before dropping its end, and what an unsupervised link fails
/// with.
fn vanishing_producers() -> [(&'static str, Vec<Vec<u8>>, &'static str); 2] {
    [
        ("before Hello", vec![], "connection closed during handshake"),
        (
            "mid-stream",
            vec![hello(6, 0), data(0, 0, b"a"), data(0, 1, b"b")],
            "producer 0 closed its connection before End",
        ),
    ]
}

/// Unsupervised, a vanished producer fails the link at once, by name.
#[test]
fn a_vanished_producer_fails_an_unsupervised_link() {
    for carrier in carriers() {
        for (when, frames, what) in vanishing_producers() {
            let (writers, mut readers) = logical_stream(1, 1, 16, RunControl::new());
            let control = RunControl::new();
            let ctl = Some(Arc::clone(&control));
            let (addr, serving) = serve(carrier, 6, writers, ctl, NetTuning::default());
            let drain = std::thread::spawn(move || while readers[0].read().is_some() {});
            let mut s = RawProducer::open(&addr, 0);
            for f in &frames {
                s.send(f);
            }
            drop(s);
            let err = serving.join().unwrap().unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{carrier:?} {when}: {err}");
            assert!(err.message.contains(what), "{carrier:?} {when}: {err}");
            assert!(control.is_cancelled(), "{carrier:?} {when}: run cancelled");
            drain.join().unwrap();
        }
    }
}

/// Supervised, a vanished producer's process is the launcher's to report:
/// the link neither fails nor lets its local reader see end-of-work, and
/// it returns only when the run is cancelled (the launcher's teardown),
/// as a cancellation, never as malformed.
#[test]
fn a_vanished_producer_leaves_a_supervised_link_waiting_for_cancellation() {
    let tuning = NetTuning {
        supervised: true,
        ..Default::default()
    };
    for carrier in carriers() {
        for (when, frames, _) in vanishing_producers() {
            let (writers, mut readers) = logical_stream(1, 1, 16, RunControl::new());
            let control = RunControl::new();
            let (addr, serving) = serve(carrier, 6, writers, Some(Arc::clone(&control)), tuning);
            let drain = std::thread::spawn(move || {
                let mut n = 0;
                while readers[0].read().is_some() {
                    n += 1;
                }
                n
            });
            let mut s = RawProducer::open(&addr, 0);
            for f in &frames {
                s.send(f);
            }
            drop(s);
            std::thread::sleep(Duration::from_millis(300));
            assert!(
                !serving.is_finished() && !drain.is_finished(),
                "{carrier:?} {when}: the link waits, its reader still open"
            );
            assert!(!control.is_cancelled(), "{carrier:?} {when}");
            control.cancel("the launcher tears the chain down");
            let err = serving.join().unwrap().unwrap_err();
            assert_eq!(err.kind, ErrorKind::Cancelled, "{carrier:?} {when}: {err}");
            assert_eq!(
                drain.join().unwrap(),
                frames.len().saturating_sub(1),
                "{carrier:?} {when}: every complete frame was delivered"
            );
        }
    }
}

/// A producer connects once: a second connection on TCP fails the link,
/// and a second attach to a ring is refused, both as malformed.
#[test]
fn a_second_connection_for_a_producer_is_malformed() {
    for carrier in carriers() {
        let (writers, mut readers) = logical_stream(1, 1, 16, RunControl::new());
        // The link's failure cancels the run, which releases the first
        // producer's connection too.
        let ctl = Some(RunControl::new());
        let (addr, serving) = serve(carrier, 8, writers, ctl, NetTuning::default());
        let drain = std::thread::spawn(move || while readers[0].read().is_some() {});
        let mut first = RawProducer::open(&addr, 0);
        first.hello(8, 0);
        first.send(&data(0, 0, b"a"));
        match carrier {
            Transport::Tcp => {
                let mut second = RawProducer::open(&addr, 0);
                second.hello(8, 0);
                assert_malformed(
                    serving.join().unwrap(),
                    "producer 0 connected twice",
                    carrier,
                );
            }
            Transport::Shm => {
                let err = match RawProducer::try_open(&addr, 0) {
                    Err(e) => e,
                    Ok(_) => panic!("a second producer attached to ring 0"),
                };
                assert_eq!(err.kind, ErrorKind::Malformed, "{err}");
                assert!(err.message.contains("already has a producer"), "{err}");
                // The first producer is undisturbed and finishes the link.
                first.send(&raw(&Frame::End { from: 0 }));
                let stats = serving.join().unwrap().unwrap();
                assert_eq!(stats.frames, 1);
            }
        }
        drop(first);
        drain.join().unwrap();
    }
}

/// Handshake hardening: wrong link, out-of-range producer, bad tag.
#[test]
fn handshake_rejects_wrong_link_and_producer() {
    for carrier in carriers() {
        for (hello_bytes, what) in [
            (hello(99, 0), "wrong link"),
            (hello(5, 7), "producer out of range"),
            (b"XXXX-garbage-that-is-not-a-frame".to_vec(), "bad tag"),
        ] {
            let (writers, readers) = logical_stream(1, 1, 16, RunControl::new());
            let (addr, serving) = serve(carrier, 5, writers, None, NetTuning::default());
            let mut s = RawProducer::open(&addr, 0);
            s.send(&hello_bytes);
            let err = serving.join().unwrap().unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{carrier:?} {what}: {err}");
            drop(s);
            // The local reader is released rather than stranded.
            let mut r = readers.into_iter().next().unwrap();
            assert!(r.read().is_none(), "{carrier:?} {what}: reader unblocked");
        }
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
    for carrier in carriers() {
        let clean = RunOptions::default;
        let _ = run_three_workers(50, 2, clean(), carrier); // warm-up
        let before = thread_count();
        for _ in 0..2 {
            let _ = run_three_workers(50, 2, clean(), carrier);
            let panic = RunOptions {
                faults: FaultPlan::new().panic_at("double", 0, 10),
                deadline: Some(Duration::from_secs(30)),
                ..clean()
            };
            let _ = run_three_workers(50, 2, panic, carrier);
        }
        assert_threads_return_to(before);
    }
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
        let opts = RunOptions {
            deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let err = worker_pipeline(10, 2, Arc::clone(&total), opts)
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
    match rng.gen_range(0, 6) {
        0 => Frame::Hello {
            link: rng.next_u64() as u32,
            producer: rng.next_u64() as u32,
        },
        1 => Frame::Data {
            from: rng.next_u64() as u32,
            seq: rng.next_u64(),
            payload: random_bytes(rng, 299),
        },
        2 => Frame::End {
            from: rng.next_u64() as u32,
        },
        3 => Frame::Close,
        4 => Frame::Telemetry {
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
