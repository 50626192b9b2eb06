//! Build a filter-stream pipeline directly against the DataCutter-style
//! runtime API — no compiler involved. A three-stage text pipeline with
//! transparent copies: generate lines → hash words (width 3) → aggregate.
//!
//! ```sh
//! cargo run --example custom_pipeline
//! ```

use cgp_core::datacutter::{
    Buffer, ClosureFilter, Filter, FilterIo, FilterResult, Pipeline, RunOptions, StageSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A filter with per-copy state flushed at finalize (the reduction shape).
struct WordHasher {
    copy: usize,
    hashed: u64,
    count: u64,
}

impl Filter for WordHasher {
    fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        while let Some(buf) = io.read() {
            for word in buf.as_slice().split(|b| *b == b' ') {
                let mut h = 0xcbf29ce484222325u64;
                for b in word {
                    h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
                }
                self.hashed ^= h;
                self.count += 1;
            }
        }
        Ok(())
    }

    fn finalize(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        // Ship this copy's partial result downstream.
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.hashed.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        println!("  hasher copy {} processed {} words", self.copy, self.count);
        io.write(Buffer::from_vec(out))
    }

    fn name(&self) -> &str {
        "word-hasher"
    }
}

fn main() {
    let total_hash = Arc::new(AtomicU64::new(0));
    let total_count = Arc::new(AtomicU64::new(0));
    let (th, tc) = (Arc::clone(&total_hash), Arc::clone(&total_count));

    let opts = RunOptions {
        capacity: 16,
        ..Default::default()
    };
    let stats = Pipeline::new(opts)
        .add_stage(StageSpec::new(
            "generate",
            1,
            Box::new(|_| {
                Box::new(ClosureFilter::new("generate", |io: &mut FilterIo| {
                    for i in 0..1000 {
                        let line = format!("packet {i} carries some words to hash");
                        io.write(Buffer::from_vec(line.into_bytes()))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "hash",
            3,
            Box::new(|copy| {
                Box::new(WordHasher {
                    copy,
                    hashed: 0,
                    count: 0,
                })
            }),
        ))
        .add_stage(StageSpec::new(
            "aggregate",
            1,
            Box::new(move |_| {
                let th = Arc::clone(&th);
                let tc = Arc::clone(&tc);
                Box::new(ClosureFilter::new("aggregate", move |io: &mut FilterIo| {
                    while let Some(buf) = io.read() {
                        let b = buf.as_slice();
                        let h = u64::from_le_bytes(b[0..8].try_into().unwrap());
                        let c = u64::from_le_bytes(b[8..16].try_into().unwrap());
                        th.fetch_xor(h, Ordering::Relaxed);
                        tc.fetch_add(c, Ordering::Relaxed);
                    }
                    Ok(())
                }))
            }),
        ))
        .run()
        .expect("pipeline run");

    println!("\npipeline stats:");
    for s in &stats.stages {
        println!(
            "  {:<10} in {:>5} buffers / {:>7} B   out {:>5} buffers / {:>7} B",
            s.name, s.buffers_in, s.bytes_in, s.buffers_out, s.bytes_out
        );
    }
    println!(
        "\naggregated {} words, xor-hash {:#018x}",
        total_count.load(Ordering::Relaxed),
        total_hash.load(Ordering::Relaxed)
    );
    assert_eq!(total_count.load(Ordering::Relaxed), 7000);
}
