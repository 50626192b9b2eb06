//! Chrome-trace round-trip: run a real 3-stage pipeline with the
//! [`cgp_obs::ChromeTraceSink`] installed, parse the emitted JSON back with
//! the obs crate's own parser, and check the trace structure — per-filter
//! spans for every stage, per-packet events with byte counts, and valid
//! `trace_event` fields throughout.
//!
//! Global-sink note: this file holds a single `#[test]` because the trace
//! sink is process-global; integration-test files run as separate
//! processes, so other suites are unaffected.

use cgp_datacutter::{Buffer, ClosureFilter, FilterIo, Pipeline, RunOptions, StageSpec};
use cgp_obs::json::Json;
use cgp_obs::trace;
use cgp_obs::{ChromeTraceSink, TraceSink};
use std::io::Write;
use std::sync::{Arc, Mutex};

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const PACKETS: usize = 12;
const PAYLOAD: usize = 256;

fn three_stage_pipeline() -> Pipeline {
    let opts = RunOptions {
        capacity: 4,
        ..Default::default()
    };
    Pipeline::new(opts)
        .add_stage(StageSpec::new(
            "source",
            1,
            Box::new(|_copy| {
                Box::new(ClosureFilter::new("source", |io: &mut FilterIo| {
                    for i in 0..PACKETS {
                        let mut v = vec![0u8; PAYLOAD];
                        v[0] = i as u8;
                        io.write(Buffer::from_vec(v))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "transform",
            2,
            Box::new(|_copy| {
                Box::new(ClosureFilter::new("transform", |io: &mut FilterIo| {
                    while let Some(b) = io.read() {
                        // Halve the payload so stage boundaries are visible
                        // in the byte counts.
                        io.write(b.slice(0..b.len() / 2))?;
                    }
                    Ok(())
                }))
            }),
        ))
        .add_stage(StageSpec::new(
            "sink",
            1,
            Box::new(|_copy| {
                Box::new(ClosureFilter::new("sink", |io: &mut FilterIo| {
                    let mut n = 0usize;
                    while let Some(_b) = io.read() {
                        n += 1;
                    }
                    assert_eq!(n, PACKETS);
                    Ok(())
                }))
            }),
        ))
}

#[test]
fn chrome_trace_round_trips_through_a_three_stage_pipeline() {
    let buf = SharedBuf::default();
    let sink: Arc<dyn TraceSink> = Arc::new(ChromeTraceSink::new(Box::new(buf.clone())));
    trace::install_sink(sink);

    let stats = three_stage_pipeline().run().expect("pipeline runs");
    trace::clear_sink();

    // The run itself behaved: 3 stages, all packets through.
    assert_eq!(stats.stages.len(), 3);
    assert_eq!(stats.stages[0].buffers_out, PACKETS as u64);
    assert_eq!(stats.stages[2].buffers_in, PACKETS as u64);

    // Parse the emitted JSON back with the obs parser.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let json = Json::parse(&text).expect("trace is valid JSON");
    let events = json.as_arr().expect("Chrome trace is a JSON array");
    assert!(!events.is_empty());

    // Every event carries the mandatory trace_event fields.
    for e in events {
        assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        assert!(e.get("ph").and_then(|v| v.as_str()).is_some());
        assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(e.get("pid").and_then(|v| v.as_f64()).is_some());
        assert!(e.get("tid").and_then(|v| v.as_f64()).is_some());
    }

    // One filter-copy span per copy: source, transform[0..2], sink.
    let spans: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|v| v.as_str()) == Some("filter")
                && e.get("ph").and_then(|v| v.as_str()) == Some("X")
        })
        .map(|e| e.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(spans.len(), 4, "{spans:?}");
    for name in ["source[0]", "transform[0]", "transform[1]", "sink[0]"] {
        assert!(spans.contains(&name), "missing span {name}: {spans:?}");
    }

    // Per-packet send events carry byte counts matching the payloads.
    let send_bytes: Vec<f64> = events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|v| v.as_str()) == Some("packet")
                && e.get("name").and_then(|v| v.as_str()) == Some("send")
        })
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(|b| b.as_f64())
                .expect("send event has bytes arg")
        })
        .collect();
    // Source sends PACKETS full payloads; transforms send PACKETS halves.
    assert_eq!(send_bytes.len(), 2 * PACKETS, "{send_bytes:?}");
    assert_eq!(
        send_bytes.iter().filter(|b| **b == PAYLOAD as f64).count(),
        PACKETS
    );
    assert_eq!(
        send_bytes
            .iter()
            .filter(|b| **b == (PAYLOAD / 2) as f64)
            .count(),
        PACKETS
    );

    // Distinct tids: each of the 4 filter copies got its own virtual thread.
    let mut tids: Vec<i64> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some("filter"))
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as i64)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 4);
}
