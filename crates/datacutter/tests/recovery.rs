//! Recovery suite: under seeded panic / failure / delay plans with a
//! restart budget, a pipeline restarts the whole run and must *complete*
//! with exactly the fault-free result — the sink, which publishes its
//! tally only in `finalize`, sees every packet once and every stateful
//! stage's reduction equals the fault-free value — with one restart per
//! fired failure rule, and must leak no threads doing it.
//!
//! Drop faults are deliberately excluded from the exactness properties:
//! `DropPacket` models intentional loss at the injection point, which a
//! restart does not (and must not) resurrect.

use cgp_datacutter::{
    Buffer, ClosureFilter, FaultAction, FaultPlan, FaultRule, Filter, FilterIo, FilterResult,
    Pipeline, RunOptions, RunStats, StageSpec, Trigger,
};
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
/// `write_batch`, while keeping a running sum (its reduction state), and
/// emits the final sum as a marker packet at end-of-work.
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
            if pending.len() == self.batch {
                io.write_batch(std::mem::take(&mut pending))?;
            }
        }
        let mut m = Vec::with_capacity(24);
        m.extend_from_slice(&MARKER_MAGIC.to_le_bytes());
        m.extend_from_slice(&self.stage_id.to_le_bytes());
        m.extend_from_slice(&self.sum.to_le_bytes());
        pending.push(Buffer::from_vec(m));
        io.write_batch(pending)
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

/// What the sink saw: packets, their sum, and each stage's marker sums
/// (sorted).
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    count: u64,
    sum: u64,
    markers: Vec<(u64, u64)>,
}

/// A sink that tallies its input and publishes the tally in `finalize`:
/// an attempt that is cancelled publishes nothing.
struct Sink {
    tally: Tally,
    published: Arc<Mutex<Vec<Tally>>>,
}

impl Filter for Sink {
    fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        while let Some(b) = io.read() {
            if b.len() == 24 {
                let s = b.as_slice();
                let stage = u64::from_le_bytes(s[8..16].try_into().unwrap());
                let sum = u64::from_le_bytes(s[16..24].try_into().unwrap());
                self.tally.markers.push((stage, sum));
            } else {
                self.tally.count += 1;
                self.tally.sum += b.u64_le("sink")?;
            }
        }
        Ok(())
    }

    fn finalize(&mut self, _io: &mut FilterIo) -> FilterResult<()> {
        let mut tally = std::mem::take(&mut self.tally);
        tally.markers.sort_unstable();
        self.published.lock().unwrap().push(tally);
        Ok(())
    }
}

/// Run source → stateful mid1 (width 2) → stateful mid2 → sink, the
/// first three writing `batch` packets per `write_batch`, under `faults`
/// with `budget` restarts per stage. Returns the run's stats and every
/// tally the sink published.
fn run(faults: FaultPlan, budget: u32, batch: usize) -> (FilterResult<RunStats>, Vec<Tally>) {
    let published = Arc::new(Mutex::new(Vec::new()));
    let sink_published = Arc::clone(&published);
    let opts = RunOptions {
        capacity: 8,
        deadline: Some(Duration::from_secs(60)),
        faults,
        restart_budget: budget,
        ..Default::default()
    };
    let stats = Pipeline::new(opts)
        .add_stage(StageSpec::new("source", 1, source(N, batch)))
        .add_stage(StageSpec::new("mid1", 2, stateful(1, batch)))
        .add_stage(StageSpec::new("mid2", 1, stateful(2, batch)))
        .add_stage(StageSpec::new(
            "sink",
            1,
            Box::new(move |_| {
                Box::new(Sink {
                    tally: Tally::default(),
                    published: Arc::clone(&sink_published),
                })
            }),
        ))
        .run();
    let published = published.lock().unwrap().clone();
    (stats, published)
}

/// The fault-free tally: every packet once, and each stateful copy's
/// reduction.
fn clean_tally() -> Tally {
    let (stats, published) = run(FaultPlan::new(), 0, 1);
    stats.expect("clean run");
    let [tally] = &published[..] else {
        panic!("one published tally, got {published:?}");
    };
    assert_eq!((tally.count, tally.sum), (N, (0..N).sum()));
    let total = |stage| -> u64 {
        let sums = tally.markers.iter().filter(|(s, _)| *s == stage);
        sums.map(|(_, v)| v).sum()
    };
    assert_eq!((total(1), total(2)), ((0..N).sum(), (0..N).sum()));
    tally.clone()
}

/// A deterministic per-seed pseudo-random plan over the recoverable
/// actions (panic, fail, delay) at random packets, one rule per site and
/// packet, and how many of its rules fail. Delays land on random
/// stages and copies; the failing rules share one random copy, so they
/// fire one attempt apart (two copies failing in one attempt would be
/// masked by one restart). Every rule fires: each copy handles well over
/// 120 packets per attempt, and its packet count runs on across
/// attempts, so each rule fires exactly once per run. Rules on the
/// source fire as it writes, so they can land mid-batch.
fn random_plan(seed: u64) -> (FaultPlan, u32) {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let site = |next: &mut dyn FnMut() -> u64| {
        let (stage, copies) = match next() % 3 {
            0 => ("source", 1),
            1 => ("mid1", 2),
            _ => ("mid2", 1),
        };
        (stage, (next() % copies) as usize)
    };
    let failing_site = site(&mut next);
    let (mut plan, mut failing, mut used) = (FaultPlan::new(), 0, Vec::new());
    for _ in 0..(1 + next() % 3) {
        let packet = next() % 120;
        let (action, (stage, copy)) = match next() % 3 {
            0 => (FaultAction::Panic, failing_site),
            1 => (FaultAction::Fail, failing_site),
            _ => (
                FaultAction::Delay(Duration::from_millis(2)),
                site(&mut next),
            ),
        };
        if used.contains(&(stage, copy, packet)) {
            continue;
        }
        used.push((stage, copy, packet));
        failing +=
            u32::from((stage, copy) == failing_site && !matches!(action, FaultAction::Delay(_)));
        plan = plan.rule(FaultRule {
            stage: Some(stage.into()),
            copy: Some(copy),
            trigger: Trigger::Packet(packet),
            action,
        });
    }
    (plan, failing)
}

#[test]
fn recovery_is_exactly_once_under_random_fault_plans() {
    let clean = clean_tally();
    for seed in 0..10u64 {
        let (plan, failing) = random_plan(seed);
        // Batch sizes 1..=16 across the seeds.
        let batch = 1 + (seed * 5 % 16) as usize;
        let ctx = format!("seed {seed}, batch {batch}, {plan:?}");
        // A budget as large as the plan's failure rules never runs out.
        let (stats, published) = run(plan, failing, batch);
        let stats = stats.unwrap_or_else(|e| panic!("{ctx}: the restarts must complete: {e}"));
        assert_eq!(
            published,
            std::slice::from_ref(&clean),
            "{ctx}: one fault-free tally"
        );
        assert_eq!(
            stats.recoveries(),
            u64::from(failing),
            "{ctx}: one restart per fired failure rule"
        );
        assert_eq!(stats.failures(), stats.recoveries(), "{ctx}");
    }
}

#[test]
fn fault_free_recovery_run_is_exact_with_zero_overhead_counters() {
    let clean = clean_tally();
    let (stats, published) = run(FaultPlan::new(), 2, 1);
    let stats = stats.expect("clean run");
    assert_eq!(published, [clean]);
    assert_eq!(stats.recoveries(), 0);
    assert_eq!(stats.failures(), 0);
}

#[test]
fn recovered_run_matches_fault_free_run_byte_for_byte() {
    let clean = clean_tally();
    let faults = FaultPlan::new()
        .panic_at("mid1", 0, 40)
        .panic_at("mid2", 0, 90);
    let (stats, published) = run(faults, 2, 1);
    let stats = stats.expect("the restarts complete");
    assert_eq!(stats.recoveries(), 2);
    assert_eq!(stats.panics(), 2);
    assert_eq!(
        (stats.stages[1].recoveries, stats.stages[2].recoveries),
        (1, 1),
        "each restart is charged to the stage that failed"
    );
    assert_eq!(published, [clean], "per-stage reductions identical");
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
    // Warm up, then hammer the restart path: every attempt must join all
    // of its copy threads before the next one starts.
    let _ = run(FaultPlan::new(), 0, 1);
    let before = thread_count();
    for seed in 0..3u64 {
        let (plan, failing) = random_plan(seed);
        let (stats, _) = run(plan, failing, 1);
        stats.expect("the restarts complete");
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
