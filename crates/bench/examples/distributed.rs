//! Worked distributed-execution example: split one pipeline across three
//! worker "processes" (hosted on threads here, so the example is
//! self-contained — the bench figure binaries' `--role launcher` flag
//! does the same thing with real processes) connected by loopback TCP,
//! and show that the distributed result is identical to the in-process
//! run — including when a fault is injected into the middle worker and
//! masked by checkpointed recovery.
//!
//! ```sh
//! cargo run --release -p cgp-bench --example distributed
//! ```
//!
//! The process-level equivalent, spawning one OS process per stage:
//!
//! ```sh
//! cargo run --release -p cgp-bench --bin fig05_zbuf_small -- --role launcher
//! ```

use cgp_core::datacutter::{
    Buffer, ClosureFilter, FaultPlan, FilterIo, Pipeline, RecoveryOptions, StageAssignment,
    StageSpec, WorkerEndpoints, WorkerIngress,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// source → double → sum over `n` u64 packets. Every worker builds the
/// same pipeline (closures can't cross process boundaries, so each
/// participant rebuilds the plan deterministically); the endpoints
/// select which stage actually runs.
fn pipeline(n: u64, faults: Option<FaultPlan>, total: Arc<AtomicU64>) -> Pipeline {
    let mut p = Pipeline::new()
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
        ));
    if let Some(f) = faults {
        p = p.with_faults(f).with_recovery(RecoveryOptions::on());
    }
    p
}

fn run_distributed(n: u64, faults: Option<FaultPlan>) -> u64 {
    // Bind the downstream listeners first (real launchers learn the
    // ephemeral ports from each worker's `CGP_LISTENING` announcement).
    let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
    let l2 = TcpListener::bind("127.0.0.1:0").expect("bind");
    let a1 = l1.local_addr().expect("addr").to_string();
    let a2 = l2.local_addr().expect("addr").to_string();
    // The assignment each "process" would receive from a launcher.
    let assignments = [
        StageAssignment {
            stage: 0,
            widths: vec![1, 2, 1],
            listen: None,
            connect: Some(a1.clone()),
        },
        StageAssignment {
            stage: 1,
            widths: vec![1, 2, 1],
            listen: Some(a1),
            connect: Some(a2.clone()),
        },
        StageAssignment {
            stage: 2,
            widths: vec![1, 2, 1],
            listen: Some(a2),
            connect: None,
        },
    ];
    let total = Arc::new(AtomicU64::new(0));
    let mut listeners = [None, Some(l1), Some(l2)];
    std::thread::scope(|scope| {
        for (s, a) in assignments.iter().enumerate() {
            // Serialize/parse the assignment as a launcher would hand it
            // over (env var / argv), then run that one stage.
            let spec = StageAssignment::parse(&a.render()).expect("roundtrip");
            println!("  worker {s}: {spec}");
            let listener = listeners[s].take();
            let faults = faults.clone();
            let total = Arc::clone(&total);
            scope.spawn(move || {
                pipeline(n, faults, total)
                    .run_worker(WorkerEndpoints {
                        stage: spec.stage,
                        ingress: listener.map(WorkerIngress::Tcp),
                        connect: spec.connect,
                    })
                    .expect("worker run");
            });
        }
    });
    total.load(Ordering::Relaxed)
}

fn main() {
    let n = 100u64;
    let expect = (0..n).map(|i| i * 2).sum::<u64>();

    let total = Arc::new(AtomicU64::new(0));
    pipeline(n, None, Arc::clone(&total))
        .run()
        .expect("in-process run");
    println!(
        "in-process run:           total = {}",
        total.load(Ordering::Relaxed)
    );
    assert_eq!(total.load(Ordering::Relaxed), expect);

    println!("distributed run (3 workers over loopback TCP):");
    let got = run_distributed(n, None);
    println!("  total = {got}  (identical to in-process)");
    assert_eq!(got, expect);

    println!("distributed run with a panic injected into the middle worker:");
    let got = run_distributed(n, Some(FaultPlan::new().panic_at("double", 0, 20)));
    println!("  total = {got}  (recovery masked the fault; still identical)");
    assert_eq!(got, expect);
}
