//! Worked chaos example: run the same pipeline through the fault-tolerant
//! runtime under three injected failure modes — a mid-stream panic, a
//! failure that a restart of the whole run masks, and an induced stall
//! caught by the watchdog.
//!
//! ```sh
//! cargo run --release -p cgp-bench --example chaos
//! ```
//!
//! Every run terminates promptly with either a result or a structured
//! error naming the failing stage and copy — no hangs, no unwound
//! process, no leaked threads (the executor joins every copy).

use cgp_core::datacutter::{
    Buffer, ClosureFilter, ErrorKind, FaultPlan, Filter, FilterError, FilterIo, FilterResult,
    Pipeline, RunOptions, StageSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sums its input and publishes the sum in `finalize`, which a cancelled
/// attempt never runs: a restarted run publishes one sum.
struct Sum {
    sum: u64,
    total: Arc<AtomicU64>,
}

impl Filter for Sum {
    fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        while let Some(b) = io.read() {
            self.sum += b.u64_le("sum")?;
        }
        Ok(())
    }

    fn finalize(&mut self, _io: &mut FilterIo) -> FilterResult<()> {
        self.total.fetch_add(self.sum, Ordering::Relaxed);
        Ok(())
    }
}

/// source → double → sum over `n` u64 packets.
fn pipeline(n: u64, total: Arc<AtomicU64>, opts: RunOptions) -> Pipeline {
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
            2,
            Box::new(|_| {
                Box::new(ClosureFilter::new("double", |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        let v = b.u64_le("double")?;
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
                Box::new(Sum {
                    sum: 0,
                    total: Arc::clone(&total),
                })
            }),
        ))
}

fn main() {
    const N: u64 = 1000;
    let expect: u64 = (0..N).map(|i| i * 2).sum();

    // 1. Baseline: no faults.
    let total = Arc::new(AtomicU64::new(0));
    let stats = pipeline(N, Arc::clone(&total), RunOptions::default())
        .run()
        .expect("clean run");
    println!(
        "baseline: sum={} (expected {expect}), wall {:?}",
        total.load(Ordering::Relaxed),
        stats.wall
    );

    // 2. Panic isolation: copy 1 of `double` panics at packet 100. The
    //    panic is caught, the run is cancelled, every copy joins, and the
    //    run returns a structured Panicked error naming double[1].
    let total = Arc::new(AtomicU64::new(0));
    let opts = RunOptions {
        faults: FaultPlan::new().panic_at("double", 1, 100),
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let err = pipeline(N, total, opts)
        .run()
        .expect_err("injected panic fails the run");
    assert_eq!(err.kind, ErrorKind::Panicked);
    println!("panic injection: {err}");

    // 3. Failure + restart: copy 0 of `double` fails at packet 100. The
    //    failed attempt is cancelled, publishing nothing, and the whole
    //    run restarts from packet 0 with fresh filter instances; the
    //    fault has fired, so the rerun completes with the exact sum.
    //    Without a restart budget the same fault fails the run.
    let total = Arc::new(AtomicU64::new(0));
    let opts = RunOptions {
        faults: FaultPlan::new().fail_at("double", 0, 100),
        restart_budget: 2,
        ..Default::default()
    };
    let stats = pipeline(N, Arc::clone(&total), opts)
        .run()
        .expect("the restart recovers");
    assert_eq!(total.load(Ordering::Relaxed), expect);
    println!(
        "failure under recovery: masked by {} restart(s) (sum still {})",
        stats.recoveries(),
        expect
    );

    // 4. Stall: a filter that blocks forever (never reads its input) is
    //    caught by the deadline watchdog; the error reports where the
    //    pipeline was blocked instead of hanging the process.
    let opts = RunOptions {
        capacity: 2,
        deadline: Some(Duration::from_millis(300)),
        ..Default::default()
    };
    let err = Pipeline::new(opts)
        .add_stage(StageSpec::new(
            "source",
            1,
            Box::new(|_| {
                Box::new(ClosureFilter::new("source", |io: &mut FilterIo| {
                    for i in 0u64.. {
                        io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "wedged",
            1,
            Box::new(|_| {
                Box::new(ClosureFilter::new("wedged", |io: &mut FilterIo| {
                    // Never reads; spins until the run is cancelled.
                    while !io.cancelled() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(FilterError::cancelled("wedged", "gave up after cancel"))
                }))
            }),
        ))
        .run()
        .expect_err("stalled run fails");
    assert_eq!(err.kind, ErrorKind::Stalled);
    println!("stall detection: {err}");

    println!("chaos example done: all failure modes terminated promptly");
}
