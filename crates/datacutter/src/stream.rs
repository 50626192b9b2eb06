//! Streams: how filters are logically connected (Section 2.2).
//!
//! A stream carries fixed-size [`Buffer`]s from a logical producer filter
//! to a logical consumer filter. Either side may be *transparently copied*
//! (Section 2.2, "Transparent copies"): the runtime preserves the illusion
//! of one logical point-to-point stream while distributing buffers among
//! the copies round-robin, for load balancing.

use crate::buffer::Buffer;
use crate::channel::{bounded_cancellable, Receiver, Sender};
use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::telemetry::{instant_us, StageProbe};
use crate::width::StageWidth;
use cgp_obs::metrics::Histogram;
use cgp_obs::trace::{self, PID_RUNTIME};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Stalls shorter than this are not worth a trace event (they would
/// dominate the trace without carrying signal); they still count
/// toward the accumulated blocked duration.
const STALL_EVENT_THRESHOLD: Duration = Duration::from_micros(100);

/// Lock a mutex, tolerating poisoning (a histogram is plain data — a
/// panicking peer thread cannot leave it logically corrupt).
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

enum Msg {
    /// One packet.
    Data {
        /// Tick when the packet was sent, µs (0 = unstamped: telemetry
        /// off).
        sent_us: u64,
        /// Ingest-origin tick propagated from the pipeline's source
        /// stage, µs (0 = unknown, e.g. across a process boundary where
        /// clocks are not comparable).
        origin_us: u64,
        buf: Buffer,
    },
    /// A producer copy finished its unit of work.
    End,
}

/// Reading end held by one consumer copy.
pub struct StreamReader {
    rx: Receiver<Msg>,
    producers_remaining: usize,
    /// Locally drained messages not yet handed to the filter. Filled by
    /// the adaptive drain: after a blocking receive delivers one message,
    /// up to `batch - 1` more are taken under a single extra lock
    /// acquisition, so a busy consumer amortizes synchronization while an
    /// idle one keeps per-packet latency.
    pending: VecDeque<Msg>,
    /// Max messages moved per lock acquisition; 1 disables batching.
    batch: usize,
    /// Trace thread id of the owning filter copy (see
    /// [`StreamReader::set_trace_tid`]).
    tid: u32,
    /// Run-wide control: cancellation and progress.
    control: Arc<RunControl>,
    /// Set when a receive was aborted by run cancellation — the copy was
    /// blocked here when the watchdog fired.
    cancelled_while_blocked: bool,
    /// The consumer stage's probe and this reader's copy in it: where
    /// deliveries, bytes and starved time are counted.
    probe: Arc<StageProbe>,
    copy: usize,
    /// Ingest-origin tick of the most recently delivered packet (0 =
    /// unknown); the filter shim propagates it onto the stage's output
    /// writer so end-to-end latency survives the stage hop.
    last_origin_us: u64,
    /// Clock tick taken once per channel drain: per-packet latency math
    /// reuses it instead of reading the clock per delivery (clock reads
    /// dominate probe cost otherwise). Each packet is measured with its
    /// own drain's tick, so residence is quantized to drain boundaries
    /// but never negative.
    now_us_cache: u64,
    /// Reader-local latency accumulators, merged into the shared probe
    /// histograms once per drain (and at end of stream) — per-packet
    /// recording stays lock-free.
    local_residence: Histogram,
    local_e2e: Histogram,
    /// Deliveries and their bytes not yet published to the probe
    /// (flushed with the histograms, so the per-packet path has no
    /// atomics at all).
    local_buffers_in: u64,
    local_bytes_in: u64,
    /// Channel drains so far; the queue-depth gauge refreshes on every
    /// 16th (taking the channel lock for an honest depth), which at
    /// batched drain rates is still orders of magnitude finer than any
    /// sampling cadence.
    drains: u64,
    /// Tick of the last local→shared flush. Mid-run flushes are
    /// throttled to [`FLUSH_INTERVAL_US`]; even the branch deciding
    /// whether to flush is measurable at packet-echo rates, so the
    /// publish cadence trades staleness (bounded, and well under any
    /// sampling interval) for hot-path cost.
    last_flush_us: u64,
}

/// Minimum µs between mid-run local→shared probe flushes. The sampler's
/// finest practical cadence (`--status-every`) is tens of milliseconds,
/// so a 10 ms publish lag is invisible to it; final counts are exact
/// regardless via the end-of-stream flush.
const FLUSH_INTERVAL_US: u64 = 10_000;

impl StreamReader {
    /// Set the adaptive-drain batch size (messages moved per lock
    /// acquisition); 1 restores strict per-packet operation.
    pub(crate) fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Blocking read; `None` once every producer copy has closed.
    pub fn read(&mut self) -> Option<Buffer> {
        loop {
            // Cancellation takes priority over locally drained packets,
            // matching the channel's cancel-beats-queued-data rule: a
            // cancelled pipeline stops moving data even if this copy
            // already holds some.
            if !self.pending.is_empty() && self.control.is_cancelled() {
                self.pending.clear();
                self.flush_probe_locals();
                return None;
            }
            match self.pending.pop_front() {
                Some(Msg::Data {
                    sent_us,
                    origin_us,
                    buf,
                }) => {
                    // Latency math (stamped packets only, i.e. telemetry
                    // on) reuses the tick taken when this packet's drain
                    // pulled it off the channel and records into
                    // reader-local histograms: the clock read and the
                    // shared-histogram locks are paid once per drain, not
                    // per packet, keeping sampling within the guard's 5%
                    // budget.
                    let now = self.now_us_cache;
                    if sent_us > 0 {
                        self.local_residence.record(now.saturating_sub(sent_us));
                    }
                    if origin_us > 0 && self.probe.e2e_us.is_some() {
                        self.local_e2e.record(now.saturating_sub(origin_us));
                    }
                    self.local_buffers_in += 1;
                    self.local_bytes_in += buf.len() as u64;
                    self.last_origin_us = origin_us;
                    if self.pending.is_empty()
                        && now.saturating_sub(self.last_flush_us) >= FLUSH_INTERVAL_US
                    {
                        // Local batch exhausted and the publish lag is
                        // due: push the local counts and latencies to the
                        // shared probe. Checked only at batch boundaries,
                        // fired at most every 10 ms.
                        self.flush_probe_locals();
                    }
                    return Some(self.account(buf));
                }
                Some(Msg::End) => {
                    self.producers_remaining -= 1;
                    continue;
                }
                None => {}
            }
            if self.producers_remaining == 0 {
                self.flush_probe_locals();
                return None;
            }
            let wait_start = Instant::now();
            let msg = self.rx.recv();
            let waited = wait_start.elapsed();
            let cp = self.probe.copy(self.copy);
            cp.blocked_recv_ns
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
            if trace::enabled() && waited >= STALL_EVENT_THRESHOLD {
                let end_us = trace::now_us();
                trace::complete(
                    "blocked_on_recv",
                    "stall",
                    end_us - waited.as_secs_f64() * 1e6,
                    waited.as_secs_f64() * 1e6,
                    PID_RUNTIME,
                    self.tid,
                    vec![],
                );
            }
            match msg {
                Ok(m) => {
                    self.pending.push_back(m);
                    if self.batch > 1 {
                        // Adaptive drain: whatever else is already queued
                        // comes along under one extra lock acquisition.
                        // Errors here (cancel/disconnect) are surfaced by
                        // the checks at the top of the loop.
                        let _ = self.rx.try_recv_batch(self.batch - 1, &mut self.pending);
                    }
                    // The drain tick is derived from the recv-side
                    // `Instant` the blocked accounting already paid for —
                    // epoch subtraction, no second clock read.
                    self.now_us_cache = instant_us(wait_start + waited);
                    // Refresh the depth gauge every 16th drain (the first
                    // included, so short runs report at all): `rx.len()`
                    // takes the channel lock the batched path exists to
                    // amortize, and a gauge that is at most 15 drains
                    // stale is still far fresher than any sampling
                    // cadence reading it.
                    if self.drains & 0xF == 0 {
                        cp.queue_depth.store(
                            (self.rx.len() + self.pending.len()) as u64,
                            Ordering::Relaxed,
                        );
                    }
                    self.drains = self.drains.wrapping_add(1);
                }
                Err(_) => {
                    // All senders dropped, or the run was cancelled out
                    // from under a blocked receive.
                    if self.control.is_cancelled() {
                        self.cancelled_while_blocked = true;
                    }
                    self.flush_probe_locals();
                    return None;
                }
            }
        }
    }

    /// Publish the reader-local delivery counts and merge the local
    /// latency histograms into the shared probe. Runs at most every
    /// [`FLUSH_INTERVAL_US`] mid-stream, on every end-of-stream path,
    /// and when the copy exits; a no-op while the locals are empty, so
    /// repeated flushes are idempotent.
    pub(crate) fn flush_probe_locals(&mut self) {
        self.last_flush_us = self.now_us_cache;
        let cp = self.probe.copy(self.copy);
        if self.local_buffers_in > 0 {
            cp.buffers_in
                .fetch_add(self.local_buffers_in, Ordering::Relaxed);
            cp.bytes_in
                .fetch_add(self.local_bytes_in, Ordering::Relaxed);
            self.local_buffers_in = 0;
            self.local_bytes_in = 0;
        }
        if self.local_residence.count > 0 {
            plock(&self.probe.residence_us).merge(&self.local_residence);
            self.local_residence = Histogram::default();
        }
        if self.local_e2e.count > 0 {
            if let Some(h) = &self.probe.e2e_us {
                plock(h).merge(&self.local_e2e);
            }
            self.local_e2e = Histogram::default();
        }
    }

    /// Per-packet bookkeeping for a buffer about to be handed to the
    /// filter: progress for the stall detector, trace event.
    fn account(&mut self, b: Buffer) -> Buffer {
        self.control.note_progress();
        if trace::enabled() {
            trace::instant(
                "recv",
                "packet",
                PID_RUNTIME,
                self.tid,
                vec![("bytes", (b.len() as u64).into())],
            );
        }
        b
    }

    /// Whether a blocking receive on this endpoint was aborted by run
    /// cancellation (the stall report uses this to name wedged copies).
    pub(crate) fn cancelled_while_blocked(&self) -> bool {
        self.cancelled_while_blocked
    }

    /// Set the trace row for per-packet and stall events (the executor
    /// assigns one tid per filter copy).
    pub(crate) fn set_trace_tid(&mut self, tid: u32) {
        self.tid = tid;
    }

    /// Count this reader's deliveries as copy `copy` of `probe` (the
    /// consumer stage's).
    pub(crate) fn attach_probe(&mut self, probe: Arc<StageProbe>, copy: usize) {
        self.probe = probe;
        self.copy = copy;
    }

    /// Ingest-origin tick of the most recently delivered packet
    /// (0 = unknown).
    pub(crate) fn last_origin_us(&self) -> u64 {
        self.last_origin_us
    }
}

/// Writing end held by one producer copy.
pub struct StreamWriter {
    txs: Vec<Sender<Msg>>,
    /// Packets staged for the next [`flush`](Self::flush), one queue per
    /// consumer copy. The queues keep their capacity across flushes, so a
    /// steady stream of sends allocates nothing.
    staged: Vec<VecDeque<Msg>>,
    /// Staged packets and their bytes, counted into the probe by the
    /// flush that sends them.
    staged_packets: u64,
    staged_bytes: u64,
    next: usize,
    closed: bool,
    /// Trace thread id of the owning filter copy (see
    /// [`StreamWriter::set_trace_tid`]).
    tid: u32,
    /// Run-wide control: cancellation and progress.
    control: Arc<RunControl>,
    /// Set when a send was aborted by run cancellation — the copy was
    /// blocked here (downstream backpressure) when the watchdog fired.
    cancelled_while_blocked: bool,
    /// The producer stage's probe and this writer's copy in it: where
    /// sends, bytes and backpressured time are counted.
    probe: Arc<StageProbe>,
    copy: usize,
    /// Stamp `sent_us`/`origin_us` on outgoing packets (telemetry on).
    stamp: bool,
    /// Origin tick to propagate on subsequent writes (set by the filter
    /// shim from the input side; 0 = unknown).
    origin_us: u64,
    /// Source-stage mode: every packet gets a fresh ingest-origin tick
    /// instead of a propagated one.
    fresh_origin: bool,
    /// Elastic-width gate: when set, round-robin rotates only over the
    /// consumer's *active* prefix instead of all provisioned queues
    /// (autoscaled runs). `None` = fixed width, rotate over everything.
    active_width: Option<Arc<StageWidth>>,
}

impl StreamWriter {
    /// How many consumer queues the round-robin currently rotates over:
    /// the active prefix under elastic width, every queue otherwise.
    fn fanout(&self) -> usize {
        match &self.active_width {
            Some(w) => w.active().min(self.txs.len()).max(1),
            None => self.txs.len(),
        }
    }

    /// Send one buffer to (one copy of) the logical consumer: a batch of
    /// one through [`write_batch`](Self::write_batch).
    pub fn write(&mut self, buf: Buffer) -> FilterResult<()> {
        self.write_batch([buf])
    }

    /// Send a run of buffers, amortizing lock acquisitions and condvar
    /// wakeups over the whole run instead of paying one per packet.
    /// Round-robin distribution is exact: each consumer copy receives its
    /// packets in send order.
    pub fn write_batch(&mut self, bufs: impl IntoIterator<Item = Buffer>) -> FilterResult<()> {
        for buf in bufs {
            self.stage(buf)?;
        }
        self.flush()
    }

    /// Stage one packet for the next [`flush`](Self::flush), queued for
    /// its round-robin target.
    pub(crate) fn stage(&mut self, buf: Buffer) -> FilterResult<()> {
        if self.closed {
            return Err(FilterError::new("stream", "write after close"));
        }
        let target = self.next % self.fanout();
        self.next += 1;
        self.staged_packets += 1;
        self.staged_bytes += buf.len() as u64;
        self.staged[target].push_back(Msg::Data {
            sent_us: 0,
            origin_us: 0,
            buf,
        });
        Ok(())
    }

    /// Send everything staged: one group per consumer queue, each moved
    /// under one lock acquisition and one wakeup per round of queue
    /// capacity. With telemetry on, the whole flush shares one send
    /// stamp, taken from the `Instant` the blocked accounting needs
    /// anyway. On failure the unsent rest is discarded.
    pub(crate) fn flush(&mut self) -> FilterResult<()> {
        if self.staged_packets == 0 {
            return Ok(());
        }
        let start = Instant::now();
        if self.stamp {
            let now = instant_us(start);
            let origin = if self.fresh_origin {
                now
            } else {
                self.origin_us
            };
            for msg in self.staged.iter_mut().flatten() {
                if let Msg::Data {
                    sent_us, origin_us, ..
                } = msg
                {
                    (*sent_us, *origin_us) = (now, origin);
                }
            }
        }
        let tracing = trace::enabled();
        let mut last = start;
        let mut result = Ok(());
        for (tx, group) in self.txs.iter().zip(&mut self.staged) {
            if group.is_empty() {
                continue;
            }
            let (count, bytes) = if tracing {
                let bytes: u64 = group
                    .iter()
                    .map(|m| match m {
                        Msg::Data { buf, .. } => buf.len() as u64,
                        Msg::End => 0,
                    })
                    .sum();
                (group.len() as u64, bytes)
            } else {
                (0, 0)
            };
            let depth = if tracing { tx.len() as u64 } else { 0 };
            let sent = tx.send_batch(group);
            let now = Instant::now();
            let waited = now - last;
            last = now;
            if tracing {
                if waited >= STALL_EVENT_THRESHOLD {
                    let end_us = trace::now_us();
                    trace::complete(
                        "blocked_on_send",
                        "stall",
                        end_us - waited.as_secs_f64() * 1e6,
                        waited.as_secs_f64() * 1e6,
                        PID_RUNTIME,
                        self.tid,
                        vec![("queue_depth", depth.into())],
                    );
                }
                trace::instant(
                    "send",
                    "packet",
                    PID_RUNTIME,
                    self.tid,
                    vec![
                        ("bytes", bytes.into()),
                        ("count", count.into()),
                        ("queue_depth", depth.into()),
                    ],
                );
            }
            if sent.is_err() {
                result = Err(if self.control.is_cancelled() {
                    self.cancelled_while_blocked = true;
                    FilterError::cancelled("stream", "run cancelled during send")
                } else {
                    FilterError::new("stream", "consumer hung up")
                });
                break;
            }
            self.control.note_progress();
        }
        let cp = self.probe.copy(self.copy);
        cp.blocked_send_ns
            .fetch_add((last - start).as_nanos() as u64, Ordering::Relaxed);
        cp.buffers_out
            .fetch_add(self.staged_packets, Ordering::Relaxed);
        cp.bytes_out.fetch_add(self.staged_bytes, Ordering::Relaxed);
        (self.staged_packets, self.staged_bytes) = (0, 0);
        if result.is_err() {
            self.staged.iter_mut().for_each(VecDeque::clear);
        }
        result
    }

    /// Whether a blocking send on this endpoint was aborted by run
    /// cancellation (the stall report uses this to name wedged copies).
    pub(crate) fn cancelled_while_blocked(&self) -> bool {
        self.cancelled_while_blocked
    }

    /// Signal end-of-work to every consumer copy. Idempotent.
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for tx in &self.txs {
            let _ = tx.send(Msg::End);
        }
    }

    /// Set the trace row for per-packet and stall events (the executor
    /// assigns one tid per filter copy).
    pub(crate) fn set_trace_tid(&mut self, tid: u32) {
        self.tid = tid;
    }

    /// Count this writer's sends as copy `copy` of `probe` (the producer
    /// stage's).
    pub(crate) fn attach_probe(&mut self, probe: Arc<StageProbe>, copy: usize) {
        self.probe = probe;
        self.copy = copy;
    }

    /// Stamp `sent_us` on every packet (telemetry on). Ingress bridges
    /// stamp without marking a source: residence latency at the receiving
    /// stage still works, while origins (which don't survive the process
    /// boundary — clocks are not comparable) stay unset.
    pub(crate) fn enable_stamping(&mut self) {
        self.stamp = true;
    }

    /// Source-stage mode: stamp a fresh ingest-origin tick on every
    /// packet (the pipeline's first stage, where end-to-end latency
    /// starts counting).
    pub(crate) fn mark_source(&mut self) {
        self.fresh_origin = true;
    }

    /// Propagate the given ingest-origin tick (from the input side of
    /// this copy) on subsequent writes; 0 = unknown.
    pub(crate) fn set_origin(&mut self, us: u64) {
        self.origin_us = us;
    }

    /// Gate round-robin rotation behind a live width handle (autoscaled
    /// runs): packets only route to the consumer's active prefix.
    pub(crate) fn set_active_width(&mut self, width: Arc<StageWidth>) {
        self.active_width = Some(width);
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        self.close();
    }
}

/// Build the endpoints of one logical stream between `producers` copies of
/// the upstream filter and `consumers` copies of the downstream filter.
///
/// Returns one writer per producer copy and one reader per consumer copy.
/// `capacity` bounds each underlying queue (buffers in flight), providing
/// backpressure.
///
/// `control` is the run's control: channels are cancellable through its
/// token, and every successful send/receive bumps its progress counter
/// (for the stall detector).
///
/// Each side counts into a probe of its own until the executor attaches
/// the stage probes ([`StageProbe`]).
pub fn logical_stream(
    producers: usize,
    consumers: usize,
    capacity: usize,
    control: Arc<RunControl>,
) -> (Vec<StreamWriter>, Vec<StreamReader>) {
    assert!(producers > 0 && consumers > 0);
    assert!(capacity > 0);
    let producer_probe = StageProbe::new(String::new(), producers, false);
    let consumer_probe = StageProbe::new(String::new(), consumers, false);
    let reader = |rx: Receiver<Msg>, consumer: usize| StreamReader {
        rx,
        producers_remaining: producers,
        pending: VecDeque::new(),
        batch: 1,
        tid: 0,
        control: Arc::clone(&control),
        cancelled_while_blocked: false,
        probe: Arc::clone(&consumer_probe),
        copy: consumer,
        last_origin_us: 0,
        now_us_cache: 0,
        local_residence: Histogram::default(),
        local_e2e: Histogram::default(),
        local_buffers_in: 0,
        local_bytes_in: 0,
        drains: 0,
        last_flush_us: 0,
    };
    let writer = |txs: Vec<Sender<Msg>>, copy: usize| StreamWriter {
        staged: (0..txs.len()).map(|_| VecDeque::new()).collect(),
        txs,
        staged_packets: 0,
        staged_bytes: 0,
        // Stagger start positions so multiple producers do not all hit
        // consumer 0 first.
        next: copy,
        closed: false,
        tid: 0,
        control: Arc::clone(&control),
        cancelled_while_blocked: false,
        probe: Arc::clone(&producer_probe),
        copy,
        stamp: false,
        origin_us: 0,
        fresh_origin: false,
        active_width: None,
    };
    // One queue per consumer copy; every producer can reach every
    // consumer and rotates among them. Each producer sends one End per
    // consumer; each consumer therefore waits for `producers` Ends.
    let mut txs_per_consumer = Vec::with_capacity(consumers);
    let mut readers = Vec::with_capacity(consumers);
    for c in 0..consumers {
        let (tx, rx) = bounded_cancellable(capacity, control.token());
        txs_per_consumer.push(tx);
        readers.push(reader(rx, c));
    }
    let writers = (0..producers)
        .map(|p| writer(txs_per_consumer.clone(), p))
        .collect();
    (writers, readers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::now_us;

    fn buf(tag: u8) -> Buffer {
        Buffer::from_vec(vec![tag])
    }

    /// `(buffers, bytes)` a writer counted into its probe.
    fn sent(w: &StreamWriter) -> (u64, u64) {
        let cp = w.probe.copy(w.copy);
        (
            cp.buffers_out.load(Ordering::Relaxed),
            cp.bytes_out.load(Ordering::Relaxed),
        )
    }

    /// `(buffers, bytes)` a reader counted into its probe.
    fn received(r: &mut StreamReader) -> (u64, u64) {
        r.flush_probe_locals();
        let cp = r.probe.copy(r.copy);
        (
            cp.buffers_in.load(Ordering::Relaxed),
            cp.bytes_in.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn point_to_point_delivers_in_order() {
        let (mut ws, mut rs) = logical_stream(1, 1, 16, RunControl::new());
        for t in 0..5 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        let mut seen = Vec::new();
        while let Some(b) = rs[0].read() {
            seen.push(b.as_slice()[0]);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn round_robin_distributes_evenly() {
        let (mut ws, mut rs) = logical_stream(1, 3, 16, RunControl::new());
        for t in 0..9 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        for (c, r) in rs.iter_mut().enumerate() {
            let mut seen = Vec::new();
            while let Some(b) = r.read() {
                seen.push(b.as_slice()[0]);
            }
            assert_eq!(seen.len(), 3, "consumer {c}");
            for v in seen {
                assert_eq!(v as usize % 3, c, "round robin order");
            }
        }
    }

    #[test]
    fn multiple_producers_all_must_close() {
        let (mut ws, mut rs) = logical_stream(2, 1, 16, RunControl::new());
        ws[0].write(buf(1)).unwrap();
        ws[1].write(buf(2)).unwrap();
        ws[0].close();
        // Reader must still see producer 1's buffer, then wait for its End.
        ws[1].close();
        let mut n = 0;
        while rs[0].read().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn write_after_close_errors() {
        let (mut ws, _rs) = logical_stream(1, 1, 4, RunControl::new());
        ws[0].close();
        assert!(ws[0].write(buf(0)).is_err());
    }

    #[test]
    fn drop_closes_stream() {
        let (ws, mut rs) = logical_stream(1, 1, 4, RunControl::new());
        drop(ws);
        assert!(rs[0].read().is_none());
    }

    #[test]
    fn staggered_start_balances_multi_producer_round_robin() {
        let (mut ws, mut rs) = logical_stream(2, 2, 32, RunControl::new());
        // each producer writes 2 buffers
        ws[0].write(buf(0)).unwrap();
        ws[0].write(buf(1)).unwrap();
        ws[1].write(buf(2)).unwrap();
        ws[1].write(buf(3)).unwrap();
        ws.iter_mut().for_each(StreamWriter::close);
        let c0: Vec<u8> = std::iter::from_fn(|| rs[0].read())
            .map(|b| b.as_slice()[0])
            .collect();
        let c1: Vec<u8> = std::iter::from_fn(|| rs[1].read())
            .map(|b| b.as_slice()[0])
            .collect();
        assert_eq!(c0.len(), 2);
        assert_eq!(c1.len(), 2);
    }

    #[test]
    fn stats_track_buffers_and_bytes() {
        let (mut ws, mut rs) = logical_stream(1, 1, 4, RunControl::new());
        ws[0].write(Buffer::from_vec(vec![0; 10])).unwrap();
        ws[0].write(Buffer::from_vec(vec![0; 5])).unwrap();
        assert_eq!(sent(&ws[0]), (2, 15));
        ws[0].close();
        while rs[0].read().is_some() {}
        assert_eq!(received(&mut rs[0]), (2, 15));
    }

    /// With a probe attached, delivery records residence + end-to-end
    /// latency and the in-flight gauges move.
    #[test]
    fn probes_record_latency_and_gauges() {
        let (mut ws, mut rs) = logical_stream(1, 1, 64, RunControl::new());
        let probe = StageProbe::new("sink".into(), 1, true);
        ws[0].attach_probe(probe.clone(), 0);
        ws[0].enable_stamping();
        ws[0].mark_source();
        rs[0].attach_probe(probe.clone(), 0);
        for t in 0..4 {
            ws[0].write(buf(t)).unwrap();
        }
        for _ in 0..4 {
            rs[0].read().unwrap();
        }
        // Mid-run publishing is throttled; force the local→shared flush
        // that end-of-stream (or the 10 ms cadence) would perform.
        rs[0].flush_probe_locals();
        assert_eq!(probe.residence().count, 4);
        assert_eq!(probe.e2e().unwrap().count, 4);
        assert!(rs[0].last_origin_us() > 0, "source origin propagated");
        let s = probe.sample(now_us());
        assert_eq!(s.buffers_in, 4);
        assert_eq!(s.buffers_out, 4);
        assert_eq!(s.busy_us_per_copy, vec![0], "copy never marked started");
    }

    /// Stamping without a probe (ingress bridges) sets `sent_us` but no
    /// origin, so downstream residence works while e2e stays silent.
    #[test]
    fn ingress_stamping_feeds_residence_only() {
        let (mut ws, mut rs) = logical_stream(1, 1, 16, RunControl::new());
        ws[0].enable_stamping();
        let probe = StageProbe::new("f2".into(), 1, true);
        rs[0].attach_probe(probe.clone(), 0);
        ws[0].write(buf(0)).unwrap();
        ws[0].close();
        rs[0].read().unwrap();
        rs[0].flush_probe_locals();
        assert_eq!(probe.residence().count, 1);
        assert_eq!(probe.e2e().unwrap().count, 0, "no origin crossed");
        assert_eq!(rs[0].last_origin_us(), 0);
    }
}
