//! Recovery suite: under panic / failure / delay injection with
//! recovery enabled, a pipeline must *complete* with effectively-exactly-
//! once results — the sink sees every packet exactly once and every
//! stateful stage's reduction equals the fault-free value — and must leak
//! no threads doing it.
//!
//! Drop faults are deliberately excluded from the exactness properties:
//! `DropPacket` models intentional loss at the injection point, which
//! recovery does not (and must not) resurrect.

use cgp_datacutter::{
    Buffer, ClosureFilter, FaultAction, FaultPlan, FaultRule, Filter, FilterIo, FilterResult,
    Pipeline, RecoveryOptions, RunOptions, StageSpec, Trigger,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N: u64 = 300;
/// Marker packets (a stage's end-of-work reduction shipped to the sink)
/// are 24 bytes: magic, stage id, sum.
const MARKER_MAGIC: u64 = u64::MAX;

/// Writes `n` packets, `batch` per `write_batch`.
fn source(n: u64, batch: usize) -> cgp_datacutter::FilterFactory {
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

/// A stateful stage: forwards every data packet unchanged, `batch` per
/// `write_batch`, while keeping a running sum (its reduction state),
/// checkpointing via the runtime's protocol and emitting the final sum as
/// a marker packet at end-of-work.
struct StatefulSum {
    stage_id: u64,
    sum: u64,
    batch: usize,
}

impl Filter for StatefulSum {
    fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        let mut pending = Vec::with_capacity(self.batch);
        while let Some(b) = io.read() {
            // An upstream stage's marker is forwarded untouched.
            if b.len() != 24 {
                self.sum = self.sum.wrapping_add(b.u64_le("stateful-sum")?);
            }
            pending.push(b);
            // A checkpoint covers the inputs read so far, so their
            // outputs must be written before it commits.
            if pending.len() == self.batch || io.checkpoint_due() {
                io.write_batch(std::mem::take(&mut pending))?;
            }
            if io.checkpoint_due() {
                io.commit_checkpoint(&self.sum.to_le_bytes());
            }
        }
        let mut m = Vec::with_capacity(24);
        m.extend_from_slice(&MARKER_MAGIC.to_le_bytes());
        m.extend_from_slice(&self.stage_id.to_le_bytes());
        m.extend_from_slice(&self.sum.to_le_bytes());
        pending.push(Buffer::from_vec(m));
        io.write_batch(pending)
    }

    fn restore(&mut self, snapshot: &[u8]) -> FilterResult<()> {
        self.sum =
            u64::from_le_bytes(snapshot.try_into().map_err(|_| {
                cgp_datacutter::FilterError::malformed("stateful-sum", "bad snapshot")
            })?);
        Ok(())
    }

    fn name(&self) -> &str {
        "stateful-sum"
    }
}

fn stateful(stage_id: u64, batch: usize) -> cgp_datacutter::FilterFactory {
    Box::new(move |_| {
        Box::new(StatefulSum {
            stage_id,
            sum: 0,
            batch,
        })
    })
}

/// Sink tallies: packets seen, their sum, and each stage's marker sums.
#[derive(Default)]
struct Tally {
    count: AtomicU64,
    sum: AtomicU64,
    markers: Mutex<Vec<(u64, u64)>>,
}

fn sink(tally: Arc<Tally>) -> cgp_datacutter::FilterFactory {
    Box::new(move |_| {
        let tally = Arc::clone(&tally);
        Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
            while let Some(b) = io.read() {
                if b.len() == 24 {
                    let s = b.as_slice();
                    let stage = u64::from_le_bytes(s[8..16].try_into().unwrap());
                    let sum = u64::from_le_bytes(s[16..24].try_into().unwrap());
                    tally.markers.lock().unwrap().push((stage, sum));
                } else {
                    tally.count.fetch_add(1, Ordering::Relaxed);
                    tally.sum.fetch_add(b.u64_le("sink")?, Ordering::Relaxed);
                }
            }
            Ok(())
        }))
    })
}

/// source → stateful mid1 (width 2) → stateful mid2 → counting sink,
/// the first three writing `batch` packets per `write_batch`. `opts`
/// adds the faults under test.
fn recovering_pipeline(
    tally: Arc<Tally>,
    checkpoint_every: u64,
    batch: usize,
    opts: RunOptions,
) -> Pipeline {
    let opts = RunOptions {
        capacity: 8,
        deadline: Some(Duration::from_secs(60)),
        recovery: RecoveryOptions::on()
            .with_checkpoint_every(checkpoint_every)
            .with_max_restarts(8),
        ..opts
    };
    Pipeline::new(opts)
        .add_stage(StageSpec::new("source", 1, source(N, batch)))
        .add_stage(StageSpec::new("mid1", 2, stateful(1, batch)).stateful())
        .add_stage(StageSpec::new("mid2", 1, stateful(2, batch)).stateful())
        .add_stage(StageSpec::new("sink", 1, sink(tally)))
}

fn expected_sum() -> u64 {
    (0..N).sum()
}

/// Assert the exactly-once properties: every packet reached the sink once,
/// and every stateful stage's reduction matches the fault-free value.
fn assert_exact(tally: &Tally, ctx: &str) {
    assert_eq!(
        tally.count.load(Ordering::Relaxed),
        N,
        "{ctx}: sink must see every packet exactly once"
    );
    assert_eq!(
        tally.sum.load(Ordering::Relaxed),
        expected_sum(),
        "{ctx}: no duplicated or lost packet values"
    );
    let markers = tally.markers.lock().unwrap();
    for stage in [1u64, 2] {
        let total: u64 = markers
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            total,
            expected_sum(),
            "{ctx}: stage {stage} reduction must match the fault-free run"
        );
    }
    let stage1 = markers.iter().filter(|(s, _)| *s == 1).count();
    let stage2 = markers.iter().filter(|(s, _)| *s == 2).count();
    assert_eq!((stage1, stage2), (2, 1), "{ctx}: one marker per copy");
}

/// Deterministic per-seed pseudo-random fault plans over the recoverable
/// actions (panic, fail, delay) at random stages/copies/packets. Rules on
/// the source fire as it writes, so they can land mid-batch.
fn random_plan(seed: u64) -> FaultPlan {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut plan = FaultPlan::new();
    for _ in 0..(1 + next() % 3) {
        let (stage, copies) = match next() % 3 {
            0 => ("source", 1),
            1 => ("mid1", 2),
            _ => ("mid2", 1),
        };
        let copy = (next() % copies) as usize;
        let packet = next() % 120;
        plan = plan.rule(FaultRule {
            stage: Some(stage.into()),
            copy: Some(copy),
            trigger: Trigger::Packet(packet),
            action: match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Fail,
                _ => FaultAction::Delay(Duration::from_millis(2)),
            },
        });
    }
    plan
}

#[test]
fn recovery_is_exactly_once_under_random_fault_plans() {
    for seed in 0..10u64 {
        let tally = Arc::new(Tally::default());
        let plan = random_plan(seed);
        // Batch sizes 1..=16 across the seeds.
        let batch = 1 + (seed * 5 % 16) as usize;
        let opts = RunOptions {
            faults: plan.clone(),
            ..Default::default()
        };
        let stats = recovering_pipeline(Arc::clone(&tally), 16, batch, opts)
            .run()
            .unwrap_or_else(|e| {
                panic!("seed {seed}, batch {batch}: recovery must complete ({plan:?}): {e}")
            });
        assert_exact(&tally, &format!("seed {seed}, batch {batch}"));
        // Replays stay bounded per restart by checkpoint spacing +
        // channel capacity + the batch each of (at most two) producers
        // holds in flight: a batch enters the replay buffer as it starts
        // to send.
        assert!(
            stats.replayed_packets() <= stats.recoveries() * (16 + 8 + 2 * batch as u64),
            "seed {seed}, batch {batch}: replay bounded: {} replayed over {} restarts",
            stats.replayed_packets(),
            stats.recoveries()
        );
    }
}

#[test]
fn fault_free_recovery_run_is_exact_with_zero_overhead_counters() {
    let tally = Arc::new(Tally::default());
    let stats = recovering_pipeline(Arc::clone(&tally), 16, 1, RunOptions::default())
        .run()
        .expect("clean run");
    assert_exact(&tally, "fault-free");
    assert_eq!(stats.recoveries(), 0);
    assert_eq!(stats.replayed_packets(), 0);
    assert!(stats.checkpoints() > 0, "stateful stages still checkpoint");
}

#[test]
fn recovered_run_matches_fault_free_run_byte_for_byte() {
    let clean = Arc::new(Tally::default());
    recovering_pipeline(Arc::clone(&clean), 16, 1, RunOptions::default())
        .run()
        .expect("clean run");
    let chaotic = Arc::new(Tally::default());
    let opts = RunOptions {
        faults: FaultPlan::new()
            .panic_at("mid1", 0, 40)
            .panic_at("mid2", 0, 90),
        ..Default::default()
    };
    let stats = recovering_pipeline(Arc::clone(&chaotic), 16, 1, opts)
        .run()
        .expect("recovery completes");
    assert!(stats.recoveries() >= 2);
    assert_eq!(
        clean.count.load(Ordering::Relaxed),
        chaotic.count.load(Ordering::Relaxed)
    );
    assert_eq!(
        clean.sum.load(Ordering::Relaxed),
        chaotic.sum.load(Ordering::Relaxed)
    );
    let mut a = clean.markers.lock().unwrap().clone();
    let mut b = chaotic.markers.lock().unwrap().clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "per-stage reductions identical to the clean run");
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

#[cfg(target_os = "linux")]
#[test]
fn recovery_chaos_leaks_no_threads() {
    // Warm up, then hammer the restart path: every recovery attempt must
    // join its replaced worker threads.
    let tally = Arc::new(Tally::default());
    let _ = recovering_pipeline(Arc::clone(&tally), 16, 1, RunOptions::default()).run();
    let before = thread_count();
    for seed in 0..3u64 {
        let tally = Arc::new(Tally::default());
        let opts = RunOptions {
            faults: random_plan(seed),
            ..Default::default()
        };
        let _ = recovering_pipeline(Arc::clone(&tally), 8, 1, opts).run();
    }
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
