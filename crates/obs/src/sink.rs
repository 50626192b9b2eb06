//! Trace sinks.
//!
//! A [`TraceSink`] receives stamped [`TraceEvent`]s from the global
//! dispatcher in [`crate::trace`]. Two implementations:
//!
//! - [`RingSink`] — fixed-capacity in-memory ring; keeps the newest
//!   events. Used by tests and by the in-process report printers.
//! - [`ChromeTraceSink`] — buffers events and writes a single JSON
//!   array on flush: the Chrome `trace_event` format, loadable in
//!   `chrome://tracing` and Perfetto.

use crate::trace::TraceEvent;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receiver for trace events. `record` is called under no external
/// locks; implementations synchronise internally.
pub trait TraceSink: Send + Sync {
    fn record(&self, event: TraceEvent);
    /// Persist buffered output. Called by [`crate::trace::clear_sink`]
    /// and [`crate::trace::flush`]; must be idempotent.
    fn flush(&self);
}

/// In-memory ring buffer of the most recent events.
pub struct RingSink {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Copy out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Drop all retained events.
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(event);
    }

    fn flush(&self) {}
}

/// Buffers events; `flush` writes the whole Chrome `trace_event` JSON
/// array. The array form (rather than the `traceEvents` envelope) is
/// accepted by both `chrome://tracing` and Perfetto.
pub struct ChromeTraceSink {
    state: Mutex<ChromeState>,
}

struct ChromeState {
    events: Vec<TraceEvent>,
    out: Option<Box<dyn Write + Send>>,
}

impl ChromeTraceSink {
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        ChromeTraceSink {
            state: Mutex::new(ChromeState {
                events: Vec::new(),
                out: Some(out),
            }),
        }
    }

    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(BufWriter::new(File::create(path)?))))
    }

    /// Serialize `events` as a Chrome trace array.
    pub fn render(events: &[TraceEvent]) -> String {
        let mut out = String::from("[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            ev.to_json().write(&mut out);
        }
        out.push_str("\n]\n");
        out
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&self, event: TraceEvent) {
        self.state.lock().unwrap().events.push(event);
    }

    fn flush(&self) {
        let mut state = self.state.lock().unwrap();
        // Write once; later flushes are no-ops (the array is closed).
        if let Some(mut out) = state.out.take() {
            let body = Self::render(&state.events);
            let _ = out.write_all(body.as_bytes());
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace::ArgValue;
    use std::sync::Arc;

    fn ev(name: &str, ts: f64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "t",
            ph: 'X',
            ts_us: ts,
            dur_us: 1.0,
            pid: 1,
            tid: 0,
            args: vec![("n", ArgValue::Int(3))],
        }
    }

    #[test]
    fn ring_keeps_newest() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(ev(&format!("e{i}"), i as f64));
        }
        let names: Vec<_> = ring.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
        ring.clear();
        assert!(ring.snapshot().is_empty());
    }

    /// A writer into a shared buffer, so tests can inspect sink output.
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

    #[test]
    fn chrome_trace_parses_as_array() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = ChromeTraceSink::new(Box::new(SharedBuf(buf.clone())));
        sink.record(ev("a", 1.0));
        sink.record(ev("b", 2.0));
        sink.flush();
        sink.flush(); // idempotent
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = Json::parse(text.trim()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(arr[1].get("ts").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn chrome_empty_trace_is_valid() {
        assert_eq!(
            Json::parse(ChromeTraceSink::render(&[]).trim()).unwrap(),
            Json::Arr(vec![])
        );
    }
}
