//! Property-style tests for the filter-stream runtime: buffers are
//! conserved across arbitrary pipeline shapes, regardless of widths
//! and capacities. Cases are drawn from a seeded
//! PRNG (the build is offline, so no proptest) — failures reproduce
//! deterministically from the printed case parameters.

use cgp_datacutter::{
    channel, Buffer, BufferBuilder, BufferPool, CancelToken, ClosureFilter, FilterIo, Pipeline,
    StageSpec,
};
use cgp_obs::SmallRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

#[test]
fn every_buffer_arrives_exactly_once() {
    let mut rng = SmallRng::seed_from_u64(0xDC01);
    for _case in 0..40 {
        let n = rng.gen_range(1, 300) as u64;
        let w1 = rng.gen_range(1, 4);
        let w2 = rng.gen_range(1, 4);
        let cap = rng.gen_range(1, 32);
        // Unused draw: it keeps every later draw, and so the 40 seeded
        // case shapes, the same.
        let _ = rng.gen_bool(0.5);

        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let (s2, c2) = (Arc::clone(&sum), Arc::clone(&count));
        Pipeline::new()
            .with_capacity(cap)
            .add_stage(StageSpec::new(
                "src",
                1,
                Box::new(move |_| {
                    Box::new(ClosureFilter::new("src", move |io: &mut FilterIo| {
                        for i in 0..n {
                            io.write(Buffer::from_vec(i.to_le_bytes().to_vec()))?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .add_stage(StageSpec::new(
                "mid",
                w1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("mid", |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            io.write(b)?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .add_stage(StageSpec::new(
                "sink",
                w2,
                Box::new(move |_| {
                    let s = Arc::clone(&s2);
                    let c = Arc::clone(&c2);
                    Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            s.fetch_add(b.u64_le("sink")?, Ordering::Relaxed);
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap();
        let ctx = format!("n={n} w1={w1} w2={w2} cap={cap}");
        assert_eq!(count.load(Ordering::Relaxed), n, "{ctx}");
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2, "{ctx}");
    }
}

#[test]
fn buffer_builder_reassembles() {
    let mut rng = SmallRng::seed_from_u64(0xDC02);
    for _case in 0..100 {
        let len = rng.gen_range(0, 5000);
        let cap = rng.gen_range(1, 512);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range_u64(256) as u8).collect();

        let mut b = BufferBuilder::new(cap);
        b.push(&payload);
        let bufs = b.finish();
        for buf in &bufs {
            assert!(buf.len() <= cap, "len={len} cap={cap}");
        }
        assert_eq!(
            cgp_datacutter::reassemble(&bufs).as_slice(),
            payload.as_slice(),
            "len={len} cap={cap}"
        );
    }
}

/// A width-1 chain with batching and pooling enabled delivers every
/// packet exactly once and in exact FIFO order; random-width middles
/// still conserve the multiset. Sources allocate from the pool and
/// flush through `write_batch` so the whole batched surface is on the
/// data path.
#[test]
fn batched_streams_preserve_order_and_conserve() {
    let mut rng = SmallRng::seed_from_u64(0xDC03);
    for _case in 0..25 {
        let n = rng.gen_range(1, 300) as u64;
        let batch = rng.gen_range(2, 16);
        let cap = rng.gen_range(1, 32);
        let w = rng.gen_range(1, 4);
        let ctx = format!("n={n} batch={batch} cap={cap} w={w}");

        let batched_source = move || -> cgp_datacutter::FilterFactory {
            Box::new(move |_| {
                Box::new(ClosureFilter::new("src", move |io: &mut FilterIo| {
                    let mut pending = Vec::with_capacity(batch);
                    for i in 0..n {
                        let mut v = io.alloc(8);
                        v.extend_from_slice(&i.to_le_bytes());
                        pending.push(io.seal(v));
                        if pending.len() >= batch {
                            io.write_batch(std::mem::take(&mut pending))?;
                        }
                    }
                    io.write_batch(pending)
                }))
            })
        };

        // Width-1 chain: exact end-to-end FIFO order.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        Pipeline::new()
            .with_capacity(cap)
            .with_batch(batch)
            .with_pool(BufferPool::new())
            .add_stage(StageSpec::new("src", 1, batched_source()))
            .add_stage(StageSpec::new(
                "mid",
                1,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("mid", |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            io.write(b)?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .add_stage(StageSpec::new(
                "sink",
                1,
                Box::new(move |_| {
                    let seen = Arc::clone(&sink_seen);
                    Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            seen.lock().unwrap().push(b.u64_le("sink")?);
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            (0..n).collect::<Vec<_>>(),
            "FIFO order through batches: {ctx}"
        );

        // Random-width middle: conservation of count and sum.
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let (s2, c2) = (Arc::clone(&sum), Arc::clone(&count));
        Pipeline::new()
            .with_capacity(cap)
            .with_batch(batch)
            .with_pool(BufferPool::new())
            .add_stage(StageSpec::new("src", 1, batched_source()))
            .add_stage(StageSpec::new(
                "mid",
                w,
                Box::new(|_| {
                    Box::new(ClosureFilter::new("mid", |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            io.write(b)?;
                        }
                        Ok(())
                    }))
                }),
            ))
            .add_stage(StageSpec::new(
                "sink",
                1,
                Box::new(move |_| {
                    let (s, c) = (Arc::clone(&s2), Arc::clone(&c2));
                    Box::new(ClosureFilter::new("sink", move |io: &mut FilterIo| {
                        while let Some(b) = io.read() {
                            s.fetch_add(b.u64_le("sink")?, Ordering::Relaxed);
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(())
                    }))
                }),
            ))
            .run()
            .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), n, "{ctx}");
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2, "{ctx}");
    }
}

/// Channel-level property: under arbitrary producer chunking and a
/// consumer that mixes blocking `recv` with `try_recv_batch`, the
/// sequence arrives in exact FIFO order and the queue never exceeds its
/// capacity (the backpressure bound survives batching).
#[test]
fn channel_batched_ops_preserve_fifo_and_backpressure_bound() {
    let mut rng = SmallRng::seed_from_u64(0xDC04);
    for _case in 0..30 {
        let n = rng.gen_range(1, 1500) as u64;
        let cap = rng.gen_range(1, 16);
        let chunk = rng.gen_range(1, 24) as u64;
        let drain = rng.gen_range(1, 8);
        let consumer_seed = rng.gen_range_u64(u64::MAX);
        let ctx = format!("n={n} cap={cap} chunk={chunk} drain={drain}");

        let (tx, rx) = channel::bounded::<u64>(cap);
        let watcher = tx.clone();
        let producer = thread::spawn(move || {
            let mut i = 0u64;
            while i < n {
                let m = chunk.min(n - i);
                let mut batch: VecDeque<u64> = (i..i + m).collect();
                tx.send_batch(&mut batch).expect("receiver alive");
                i += m;
            }
        });

        let mut consumer_rng = SmallRng::seed_from_u64(consumer_seed);
        let mut got: Vec<u64> = Vec::with_capacity(n as usize);
        while got.len() < n as usize {
            assert!(watcher.len() <= cap, "queue exceeded capacity: {ctx}");
            got.push(rx.recv().expect("producer alive"));
            let max = consumer_rng.gen_range(0, drain + 1);
            if max > 0 {
                let _ = rx.try_recv_batch(max, &mut got).expect("connected");
            }
            assert!(watcher.len() <= cap, "queue exceeded capacity: {ctx}");
        }
        producer.join().unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "FIFO violated: {ctx}");
    }
}

/// Disconnect mid-batch: the delivered prefix stays delivered, the
/// unsent suffix comes back contiguously, and only in-queue packets
/// (bounded by capacity) sit in between.
#[test]
fn disconnect_mid_batch_returns_unsent_suffix() {
    // No receiver at all: the whole batch comes back.
    let (tx, rx) = channel::bounded::<u64>(4);
    drop(rx);
    let mut batch: VecDeque<u64> = (0..10).collect();
    let err = tx.send_batch(&mut batch).unwrap_err();
    assert_eq!(
        err.0.into_iter().collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>()
    );

    // Receiver takes a prefix then hangs up mid-batch.
    const CAP: usize = 4;
    let (tx, rx) = channel::bounded::<u64>(CAP);
    let producer = thread::spawn(move || {
        let mut batch: VecDeque<u64> = (0..32).collect();
        tx.send_batch(&mut batch).expect_err("receiver hangs up")
    });
    let mut got = Vec::new();
    for _ in 0..6 {
        got.push(rx.recv().unwrap());
    }
    drop(rx);
    let rest = producer.join().unwrap().0;
    assert_eq!(got, (0..6u64).collect::<Vec<_>>(), "prefix in order");
    assert!(
        !rest.is_empty(),
        "sender blocked mid-batch must get a suffix back"
    );
    let first = *rest.front().unwrap();
    assert!(
        rest.iter().copied().eq(first..first + rest.len() as u64),
        "returned suffix is contiguous: {rest:?}"
    );
    assert!(
        (first as usize - got.len()) <= CAP,
        "only in-queue packets lost, bounded by capacity (first={first})"
    );
}

/// Cancellation mid-batch unblocks a sender stuck on a full queue
/// (returning the unsent suffix) and beats queued data on the receive
/// side, for batched receives just like scalar ones.
#[test]
fn cancel_mid_batch_unblocks_both_sides() {
    let token = CancelToken::new();
    let (tx, rx) = channel::bounded_cancellable::<u64>(2, &token);
    let watcher = tx.clone();
    let producer = thread::spawn(move || {
        let mut batch: VecDeque<u64> = (0..100).collect();
        tx.send_batch(&mut batch).expect_err("cancelled mid-batch")
    });
    // Wait until the sender has filled the queue and blocked.
    while watcher.len() < 2 {
        thread::yield_now();
    }
    token.cancel();
    let rest = producer.join().unwrap().0;
    assert!(!rest.is_empty(), "unsent suffix returned on cancel");
    assert!(rest.len() >= 100 - 2 - 2, "at most capacity+in-flight sent");

    // Cancel takes priority over the (non-empty) queue on receive.
    let mut out: Vec<u64> = Vec::new();
    assert!(rx.try_recv_batch(8, &mut out).is_err(), "cancel beats data");
    assert!(out.is_empty(), "no packets leak past cancellation");
    assert!(rx.recv().is_err());
}
