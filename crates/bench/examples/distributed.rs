//! Worked distributed-execution example: split one pipeline across three
//! worker "processes" (hosted on threads here, so the example is
//! self-contained — `cgp <app> --role launcher` does the same thing with
//! real processes) connected by loopback TCP,
//! and show that the distributed result is identical to the in-process
//! run — including when a fault injected into the middle worker fails
//! that worker, and the chain is restarted as a supervising launcher
//! restarts it.
//!
//! ```sh
//! cargo run --release -p cgp-bench --example distributed
//! ```
//!
//! The process-level equivalent, spawning one OS process per stage:
//!
//! ```sh
//! cargo run --release -p cgp-bench --bin cgp -- zbuf --role launcher
//! ```

use cgp_core::datacutter::{
    Buffer, ClosureFilter, FaultPlan, FilterIo, Pipeline, RunOptions, StageSpec, WorkerEndpoints,
    WorkerIngress,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// source → double → sum over `n` u64 packets. Every worker builds the
/// same pipeline (closures can't cross process boundaries, so each
/// participant rebuilds the plan deterministically); the endpoints
/// select which stage actually runs.
fn pipeline(n: u64, faults: FaultPlan, total: Arc<AtomicU64>) -> Pipeline {
    let opts = RunOptions {
        capacity: 8,
        faults,
        ..Default::default()
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
                let total = Arc::clone(&total);
                Box::new(ClosureFilter::new("sum", move |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        total.fetch_add(b.u64_le("sum")?, Ordering::Relaxed);
                    }
                    Ok(())
                }))
            }),
        ))
}

/// The total, or every failed worker's error.
fn run_distributed(n: u64, faults: FaultPlan) -> Result<u64, String> {
    // Bind the downstream listeners first (real launchers learn the
    // ephemeral ports from each worker's `CGP_LISTENING` announcement).
    // Each ingress serves the upstream stage's copies: 1, then 2.
    let (l1, a1) = WorkerIngress::bind("127.0.0.1:0", 1).expect("bind");
    let (l2, a2) = WorkerIngress::bind("127.0.0.1:0", 2).expect("bind");
    // What each "process" would receive from a launcher: its stage, its
    // ingress (bound above) and its downstream address.
    let connects = [Some(a1), Some(a2), None];
    let total = Arc::new(AtomicU64::new(0));
    let mut listeners = [None, Some(l1), Some(l2)];
    std::thread::scope(|scope| {
        let workers: Vec<_> = connects
            .into_iter()
            .enumerate()
            .map(|(stage, connect)| {
                let ingress = listeners[stage].take();
                println!(
                    "  worker {stage}: connect {}",
                    connect.as_deref().unwrap_or("none")
                );
                let pipeline = pipeline(n, faults.clone(), Arc::clone(&total));
                scope.spawn(move || {
                    pipeline.run_worker(WorkerEndpoints {
                        stage,
                        ingress,
                        connect,
                    })
                })
            })
            .collect();
        let errors: Vec<String> = workers
            .into_iter()
            .enumerate()
            .filter_map(|(stage, w)| Some(format!("worker {stage}: {}", w.join().unwrap().err()?)))
            .collect();
        match errors.is_empty() {
            true => Ok(total.load(Ordering::Relaxed)),
            false => Err(errors.join("; ")),
        }
    })
}

fn main() {
    let n = 100u64;
    let expect = (0..n).map(|i| i * 2).sum::<u64>();

    let total = Arc::new(AtomicU64::new(0));
    pipeline(n, FaultPlan::new(), Arc::clone(&total))
        .run()
        .expect("in-process run");
    println!(
        "in-process run:           total = {}",
        total.load(Ordering::Relaxed)
    );
    assert_eq!(total.load(Ordering::Relaxed), expect);

    println!("distributed run (3 workers over loopback TCP):");
    let got = run_distributed(n, FaultPlan::new()).expect("distributed run");
    println!("  total = {got}  (identical to in-process)");
    assert_eq!(got, expect);

    // A worker never restarts itself: the panic fails the middle worker
    // by name. A supervising launcher then restarts the whole chain from
    // packet 0 without the injected fault, which has fired.
    println!("distributed run with a panic injected into the middle worker:");
    let err = run_distributed(n, FaultPlan::new().panic_at("double", 0, 20))
        .expect_err("the panic fails its worker");
    println!("  failed: {err}");
    assert!(err.contains("double[0]"), "{err}");
    println!("restart of the whole chain:");
    let got = run_distributed(n, FaultPlan::new()).expect("restarted run");
    println!("  total = {got}  (still identical)");
    assert_eq!(got, expect);
}
