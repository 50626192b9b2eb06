//! Chaos suite: the runtime must terminate promptly, with a structured
//! error naming the failing stage and copy, under every injected failure
//! mode — no hangs, no secondary panics, no leaked threads.

use cgp_datacutter::{
    Buffer, ClosureFilter, ErrorKind, FaultAction, FaultPlan, FaultRule, FilterError, FilterIo,
    Pipeline, RunOptions, StageSpec, Trigger,
};
use cgp_obs::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: u64 = 500;

fn source(n: u64) -> cgp_datacutter::FilterFactory {
    Box::new(move |_| {
        Box::new(ClosureFilter::new("source", move |io: &mut FilterIo| {
            for i in 0..n {
                io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
            }
            Ok(())
        }))
    })
}

/// Like [`source`], writing `batch` packets per `write_batch`.
fn batched_source(n: u64, batch: usize) -> cgp_datacutter::FilterFactory {
    Box::new(move |_| {
        Box::new(ClosureFilter::new("source", move |io: &mut FilterIo| {
            let mut pending = Vec::with_capacity(batch);
            for i in 0..n {
                pending.push(Buffer::from_vec(i.to_le_bytes().to_vec()));
                if pending.len() == batch {
                    io.write_batch(std::mem::take(&mut pending))?;
                }
            }
            io.write_batch(pending)
        }))
    })
}

fn forward() -> cgp_datacutter::FilterFactory {
    Box::new(|_| {
        Box::new(ClosureFilter::new("mid", |io: &mut FilterIo| {
            while let Some(b) = io.read() {
                io.write(b)?;
            }
            Ok(())
        }))
    })
}

fn counting_sink(count: Arc<AtomicU64>) -> cgp_datacutter::FilterFactory {
    Box::new(move |_| {
        let count = Arc::clone(&count);
        Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
            while io.read().is_some() {
                count.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        }))
    })
}

fn three_stage(mid_width: usize, count: Arc<AtomicU64>, opts: RunOptions) -> Pipeline {
    let opts = RunOptions {
        capacity: 8,
        ..opts
    };
    Pipeline::new(opts)
        .add_stage(StageSpec::new("source", 1, source(N)))
        .add_stage(StageSpec::new("mid", mid_width, forward()))
        .add_stage(StageSpec::new("sink", 1, counting_sink(count)))
}

/// Current thread count of this process (Linux; the suite's leak checks
/// are gated on it).
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn panic_mid_stream_terminates_with_named_error() {
    let count = Arc::new(AtomicU64::new(0));
    let t = Instant::now();
    let opts = RunOptions {
        faults: FaultPlan::new().panic_at("mid", 1, 50),
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let err = three_stage(2, count, opts)
        .run()
        .expect_err("injected panic must fail the run");
    assert_eq!(err.kind, ErrorKind::Panicked);
    assert_eq!(err.filter, "mid[1]", "error names stage and copy: {err}");
    assert!(err.message.contains("packet 50"), "{err}");
    assert!(t.elapsed() < Duration::from_secs(10), "no hang on panic");
}

#[test]
fn error_after_n_packets_terminates_and_counts() {
    let count = Arc::new(AtomicU64::new(0));
    let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
    let opts = RunOptions {
        faults: FaultPlan::new().fail_at("mid", 0, 100),
        deadline: Some(Duration::from_secs(30)),
        metrics: Some(Arc::clone(&metrics)),
        ..Default::default()
    };
    let err = three_stage(1, count, opts)
        .run()
        .expect_err("injected failure must fail the run");
    assert_eq!(err.kind, ErrorKind::Failed);
    assert_eq!(err.filter, "mid[0]");
    let reg = metrics.lock().unwrap();
    assert_eq!(reg.get_counter("stage.mid.failures"), 1);
    assert_eq!(reg.get_counter("stage.mid.panics"), 0);
}

#[test]
fn a_failed_source_restarts_under_recovery() {
    // The source fails on its very first packet, before the sink has
    // seen any. The run restarts: a fresh source regenerates its packets
    // and the pipeline completes with the full data set.
    let count = Arc::new(AtomicU64::new(0));
    let opts = RunOptions {
        faults: FaultPlan::new().fail_at("source", 0, 0),
        restart_budget: 2,
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let stats = three_stage(1, Arc::clone(&count), opts)
        .run()
        .expect("a restart must recover the failure");
    assert_eq!(count.load(Ordering::Relaxed), N);
    assert_eq!(stats.recoveries(), 1);
    assert_eq!(stats.failures(), 1, "the failed attempt is still counted");
}

#[test]
fn retries_exhausted_surfaces_the_error() {
    // Every packet fails, so each restart fails again until the budget
    // of two runs out.
    let count = Arc::new(AtomicU64::new(0));
    let opts = RunOptions {
        faults: FaultPlan::new().rule(FaultRule {
            stage: Some("mid".into()),
            copy: Some(0),
            trigger: Trigger::Every,
            action: FaultAction::Fail,
        }),
        restart_budget: 2,
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let err = three_stage(1, count, opts)
        .run()
        .expect_err("always-failing stage exhausts its restarts");
    assert_eq!(err.kind, ErrorKind::Failed);
    assert_eq!(err.filter, "mid[0]");
    assert!(err.message.contains("injected failure"), "{err}");
}

#[test]
fn injected_stall_is_caught_by_deadline_and_names_the_blockage() {
    // A sink that never reads wedges the whole pipeline: the source
    // fills the queues and blocks in send. The watchdog must cancel,
    // every thread must join, and the error must say who was stuck.
    let t = Instant::now();
    let opts = RunOptions {
        capacity: 2,
        deadline: Some(Duration::from_millis(250)),
        ..Default::default()
    };
    let err = Pipeline::new(opts)
        .add_stage(StageSpec::new("source", 1, source(N)))
        .add_stage(StageSpec::new(
            "wedged",
            1,
            Box::new(|_| {
                Box::new(ClosureFilter::new("wedged", |io: &mut FilterIo| {
                    while !io.cancelled() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(FilterError::cancelled("wedged", "cancelled"))
                }))
            }),
        ))
        .run()
        .expect_err("stalled run must fail");
    assert_eq!(err.kind, ErrorKind::Stalled);
    assert!(err.message.contains("deadline"), "{err}");
    assert!(
        err.message.contains("source[0] blocked in send"),
        "stall report names the blocked copy: {err}"
    );
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "watchdog fired promptly"
    );
}

#[test]
fn stall_timeout_catches_no_progress() {
    let t = Instant::now();
    let opts = RunOptions {
        capacity: 2,
        stall_timeout: Some(Duration::from_millis(200)),
        ..Default::default()
    };
    let err = Pipeline::new(opts)
        .add_stage(StageSpec::new("source", 1, source(N)))
        .add_stage(StageSpec::new(
            "wedged",
            1,
            Box::new(|_| {
                Box::new(ClosureFilter::new("wedged", |io: &mut FilterIo| {
                    while !io.cancelled() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(())
                }))
            }),
        ))
        .run()
        .expect_err("stalled run must fail");
    assert_eq!(err.kind, ErrorKind::Stalled);
    assert!(err.message.contains("stall timeout"), "{err}");
    assert!(t.elapsed() < Duration::from_secs(5));
}

#[test]
fn dropped_packets_reduce_delivery_without_failing() {
    let count = Arc::new(AtomicU64::new(0));
    let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
    let opts = RunOptions {
        faults: FaultPlan::new().drop_at("mid", 0, 10).drop_at("mid", 0, 20),
        metrics: Some(Arc::clone(&metrics)),
        ..Default::default()
    };
    let stats = three_stage(1, Arc::clone(&count), opts)
        .run()
        .expect("drops do not fail the run");
    assert_eq!(count.load(Ordering::Relaxed), N - 2);
    assert_eq!(stats.failures(), 0);
    // The loss is counted where it happened.
    assert_eq!(stats.dropped(), 2);
    assert_eq!(stats.stages[1].dropped, 2);
    assert_eq!(metrics.lock().unwrap().get_counter("stage.mid.dropped"), 2);
}

#[test]
fn probabilistic_faults_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let count = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan::new().with_seed(seed).rule(FaultRule {
            stage: Some("mid".into()),
            copy: None,
            trigger: Trigger::Prob(0.2),
            action: FaultAction::DropPacket,
        });
        let opts = RunOptions {
            faults: plan,
            ..Default::default()
        };
        three_stage(1, Arc::clone(&count), opts)
            .run()
            .expect("drops are silent");
        count.load(Ordering::Relaxed)
    };
    let a = run(7);
    assert_eq!(a, run(7), "same seed, same drops");
    assert!(a < N, "some packets dropped");
    assert_ne!(a, run(8), "different seed, different drops");
}

#[test]
fn panic_in_one_copy_does_not_poison_siblings_stats() {
    // Width-4 middle stage, one copy panics; the other three finish and
    // their stats still aggregate (poison-tolerant locking).
    let count = Arc::new(AtomicU64::new(0));
    let opts = RunOptions {
        faults: FaultPlan::new().panic_at("mid", 2, 0),
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let err = three_stage(4, Arc::clone(&count), opts)
        .run()
        .expect_err("one copy panicked");
    assert_eq!(err.filter, "mid[2]");
    // Siblings forwarded their share before/while the panic unwound.
    assert!(count.load(Ordering::Relaxed) > 0, "siblings made progress");
}

#[cfg(target_os = "linux")]
#[test]
fn no_leaked_threads_after_failures() {
    // Warm up then measure: every failure mode must join all its threads.
    let count = Arc::new(AtomicU64::new(0));
    let _ = three_stage(2, Arc::clone(&count), RunOptions::default()).run();
    let before = thread_count();
    for _ in 0..3 {
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at("mid", 0, 10),
            deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let _ = three_stage(2, Arc::clone(&count), opts).run();
        let opts = RunOptions {
            capacity: 2,
            deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        };
        let _ = Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, source(N)))
            .add_stage(StageSpec::new(
                "wedged",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("wedged", |io: &mut FilterIo| {
                        while !io.cancelled() {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Ok(())
                    }))
                }),
            ))
            .run();
    }
    // The count is process-wide and other tests in this binary spawn
    // pipelines concurrently, so poll until it settles back rather than
    // sampling once.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let after = thread_count();
        if after <= before {
            break;
        }
        if Instant::now() > deadline {
            panic!("thread count must return to baseline: before={before} after={after}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn faults_target_exact_packet_indices_through_batches() {
    // Transport batching must not smear per-packet fault semantics:
    // injection happens at the FilterIo boundary, so with an 8-packet
    // batch a panic at packet 123 of mid[1] still fires there and the
    // error still names that exact packet.
    let count = Arc::new(AtomicU64::new(0));
    let opts = RunOptions {
        batch: 8,
        faults: FaultPlan::new().panic_at("mid", 1, 123),
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let err = three_stage(2, count, opts)
        .run()
        .expect_err("injected panic must fail the batched run");
    assert_eq!(err.kind, ErrorKind::Panicked);
    assert_eq!(err.filter, "mid[1]", "{err}");
    assert!(err.message.contains("packet 123"), "{err}");

    // Drops remove exactly the targeted packets, nothing adjacent in
    // the same batch.
    let count = Arc::new(AtomicU64::new(0));
    let opts = RunOptions {
        batch: 8,
        faults: FaultPlan::new().drop_at("mid", 0, 10).drop_at("mid", 0, 20),
        ..Default::default()
    };
    let stats = three_stage(1, Arc::clone(&count), opts)
        .run()
        .expect("drops do not fail the run");
    assert_eq!(count.load(Ordering::Relaxed), N - 2);
    assert_eq!(stats.failures(), 0);
    assert_eq!(stats.dropped(), 2);

    // Source faults fire as the source writes, 8 packets per
    // `write_batch`: every packet ahead of a failure at packet 13 is
    // sent before it acts, and drops remove only their own packets.
    let run_source = |faults: FaultPlan, count: &Arc<AtomicU64>| {
        let opts = RunOptions {
            capacity: 8,
            faults,
            deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        Pipeline::new(opts)
            .add_stage(StageSpec::new("source", 1, batched_source(N, 8)))
            .add_stage(StageSpec::new("sink", 1, counting_sink(Arc::clone(count))))
            .run()
    };
    let count = Arc::new(AtomicU64::new(0));
    let err = run_source(FaultPlan::new().fail_at("source", 0, 13), &count)
        .expect_err("injected failure must fail the batched source");
    assert_eq!(err.filter, "source[0]", "{err}");
    assert!(err.message.contains("packet 13"), "{err}");
    assert_eq!(count.load(Ordering::Relaxed), 13, "packets 0..13 were sent");
    let count = Arc::new(AtomicU64::new(0));
    let drops = FaultPlan::new()
        .drop_at("source", 0, 10)
        .drop_at("source", 0, 11);
    let stats = run_source(drops, &count).expect("drops do not fail the run");
    assert_eq!(count.load(Ordering::Relaxed), N - 2);
    assert_eq!(stats.dropped(), 2);
}

#[test]
fn spec_parsed_plan_behaves_like_builder_plan() {
    let count = Arc::new(AtomicU64::new(0));
    let plan = FaultPlan::parse("mid[0]@25:panic").expect("valid spec");
    let opts = RunOptions {
        faults: plan,
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let err = three_stage(1, count, opts)
        .run()
        .expect_err("parsed panic fires");
    assert_eq!(err.kind, ErrorKind::Panicked);
    assert_eq!(err.filter, "mid[0]");
    assert!(err.message.contains("packet 25"), "{err}");
}
