//! Streams: how filters are logically connected (Section 2.2).
//!
//! A stream carries fixed-size [`Buffer`]s from a logical producer filter
//! to a logical consumer filter. Either side may be *transparently copied*
//! (Section 2.2, "Transparent copies"): the runtime preserves the illusion
//! of one logical point-to-point stream while distributing buffers among
//! the copies round-robin, for load balancing.
//!
//! ## Ack/replay delivery (recovery)
//!
//! When a pipeline runs with recovery enabled
//! ([`Pipeline::with_recovery`]), every data message carries the producer
//! copy index and a producer-global sequence number. The endpoints then
//! cooperate on an upstream-backup protocol:
//!
//! * **Producers** keep each sent packet in a per-(producer, consumer)
//!   replay buffer until the consumer acknowledges it. Sends whose
//!   sequence number is below the producer's high-water mark (a restarted
//!   producer regenerating output it already sent) are suppressed — the
//!   original is either still buffered or already processed.
//! * **Consumers** acknowledge cumulatively by publishing a per-producer
//!   watermark ("all sequence numbers below W are durable here") at
//!   durability boundaries: every packet for stateless stages, checkpoint
//!   commits for stateful ones. Acks ride on shared atomics rather than a
//!   reverse channel — the in-process analogue of piggybacking them on
//!   the channel protocol.
//! * **On restart** a consumer resets its watermarks to the acknowledged
//!   prefix and pre-loads every unacknowledged packet from the replay
//!   buffers back into its delivery queue; sequence-based dedup (accept
//!   only `seq >= watermark`) then discards the in-queue originals the
//!   replay duplicated, so each packet is processed effectively exactly
//!   once.
//!
//! Replay needs a deterministic packet→consumer mapping to requeue
//! packets where the originals went; round-robin delivery provides it,
//! since the target is a pure function of the sequence number.
//!
//! [`Pipeline::with_recovery`]: crate::exec::Pipeline::with_recovery

use crate::buffer::Buffer;
use crate::channel::{bounded, bounded_cancellable, Receiver, RecvError, SendError, Sender};
use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::ring::{self, RingReceiver, RingSender};
use crate::telemetry::{instant_us, StageProbe};
use crate::width::StageWidth;
use cgp_obs::metrics::Histogram;
use cgp_obs::trace::{self, PID_RUNTIME};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Stalls shorter than this are not worth a trace event (they would
/// dominate the trace without carrying signal); they still count
/// toward the accumulated blocked duration.
const STALL_EVENT_THRESHOLD: Duration = Duration::from_micros(100);

/// Lock a mutex, tolerating poisoning (a replay buffer is plain data —
/// a panicking peer thread cannot leave it logically corrupt).
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sent-but-unacknowledged `(seq, packet)` pairs for one
/// producer→consumer pair, in sequence order.
type UnackedQueue = Mutex<VecDeque<(u64, Buffer)>>;

enum Msg {
    /// One packet from producer copy `from`, the `seq`-th packet that
    /// producer ever wrote on this logical stream. `from`/`seq` are only
    /// meaningful under recovery; without it they are always 0 and
    /// ignored.
    Data {
        from: u32,
        seq: u64,
        /// Tick when the packet was sent, µs (0 = unstamped: telemetry
        /// off, or a packet re-delivered from a replay buffer).
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

/// Sending half of one queue backing a logical stream: the mutex
/// channel (general: N→1 fan-in, replay-friendly) or the
/// lock-free SPSC ring (selected automatically for 1→1 non-recovering
/// links). Both expose identical blocking/batched/cancel semantics, so
/// the stream layer is agnostic beyond this dispatch.
enum MsgTx {
    Chan(Sender<Msg>),
    Ring(RingSender<Msg>),
}

impl MsgTx {
    fn send(&self, msg: Msg) -> Result<(), SendError<Msg>> {
        match self {
            MsgTx::Chan(tx) => tx.send(msg),
            MsgTx::Ring(tx) => tx.send(msg),
        }
    }

    fn send_batch(&self, batch: &mut VecDeque<Msg>) -> Result<(), SendError<VecDeque<Msg>>> {
        match self {
            MsgTx::Chan(tx) => tx.send_batch(batch),
            MsgTx::Ring(tx) => tx.send_batch(batch),
        }
    }

    fn len(&self) -> usize {
        match self {
            MsgTx::Chan(tx) => tx.len(),
            MsgTx::Ring(tx) => tx.len(),
        }
    }
}

/// Receiving half, mirroring [`MsgTx`].
enum MsgRx {
    Chan(Receiver<Msg>),
    Ring(RingReceiver<Msg>),
}

impl MsgRx {
    fn recv(&self) -> Result<Msg, RecvError> {
        match self {
            MsgRx::Chan(rx) => rx.recv(),
            MsgRx::Ring(rx) => rx.recv(),
        }
    }

    fn try_recv_batch(&self, max: usize, out: &mut VecDeque<Msg>) -> Result<usize, RecvError> {
        match self {
            MsgRx::Chan(rx) => rx.try_recv_batch(max, out),
            MsgRx::Ring(rx) => rx.try_recv_batch(max, out),
        }
    }

    fn len(&self) -> usize {
        match self {
            MsgRx::Chan(rx) => rx.len(),
            MsgRx::Ring(rx) => rx.len(),
        }
    }
}

/// Ack/replay state shared by every endpoint of one logical stream
/// (recovery runs only). Indexing is `[producer][consumer]`.
pub(crate) struct ReplayShared {
    /// `acked[p][c]`: every packet from producer `p` with `seq <` this
    /// value is durable at consumer `c`. Written by the consumer at ack
    /// boundaries, read by the producer (to prune) and by the consumer
    /// itself on restart (to reset its watermark).
    acked: Vec<Vec<AtomicU64>>,
    /// `unacked[p][c]`: sent-but-unacknowledged `(seq, packet)` pairs in
    /// sequence order. Bounded by the ack cadence: at most
    /// `checkpoint_every + queue capacity` entries per pair.
    unacked: Vec<Vec<UnackedQueue>>,
    /// `order[c]`: the `(producer, seq)` consumption order at consumer `c`
    /// since its last ack commit. With several producers, per-producer
    /// sequence order alone does not pin down the interleaving the failed
    /// attempt actually processed — and a restarted *stateful* consumer
    /// must regenerate its downstream writes in the original order for
    /// the writer's sequence-based suppression to line up. Survives the
    /// consumer's restart precisely because it lives here, not in the
    /// reader. Cleared on every ack commit (acked packets never replay).
    order: Vec<Mutex<Vec<(u32, u64)>>>,
}

impl ReplayShared {
    fn new(producers: usize, consumers: usize) -> Self {
        ReplayShared {
            acked: (0..producers)
                .map(|_| (0..consumers).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            unacked: (0..producers)
                .map(|_| {
                    (0..consumers)
                        .map(|_| Mutex::new(VecDeque::new()))
                        .collect()
                })
                .collect(),
            order: (0..consumers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Total sent-but-unacknowledged packets across every
    /// producer→consumer pair (replay-buffer occupancy, for telemetry).
    pub(crate) fn unacked_total(&self) -> u64 {
        self.unacked
            .iter()
            .flatten()
            .map(|q| plock(q).len() as u64)
            .sum()
    }
}

/// Reading end held by one consumer copy.
pub struct StreamReader {
    rx: MsgRx,
    producers_remaining: usize,
    /// Locally drained messages not yet handed to the filter. Filled by
    /// the adaptive drain: after a blocking receive delivers one message,
    /// up to `batch - 1` more are taken under a single extra lock
    /// acquisition, so a busy consumer amortizes synchronization while an
    /// idle one keeps per-packet latency.
    pending: VecDeque<Msg>,
    /// Max messages moved per lock acquisition; 1 disables batching.
    batch: usize,
    buffers_read: u64,
    bytes_read: u64,
    blocked: Duration,
    /// Trace thread id of the owning filter copy (see
    /// [`StreamReader::set_trace_tid`]).
    tid: u32,
    /// Run-wide control (cancellation + progress), when the executor
    /// runs with a deadline/stall watchdog.
    control: Option<Arc<RunControl>>,
    /// Set when a receive was aborted by run cancellation — the copy was
    /// blocked here when the watchdog fired.
    cancelled_while_blocked: bool,
    /// Which consumer copy this reader belongs to (replay indexing).
    consumer: usize,
    /// Ack/replay state, present only under recovery.
    replay: Option<Arc<ReplayShared>>,
    /// Per-producer next-expected sequence number: packets with
    /// `seq < watermark[p]` were already delivered (replay duplicates)
    /// and are dropped. Reset from the acked prefix on restart.
    watermark: Vec<u64>,
    /// Packets re-delivered from replay buffers after restarts.
    replayed: u64,
    /// Duplicate packets discarded by the sequence watermark.
    deduped: u64,
    /// Accepted packets still to consume before appending to the shared
    /// consumption-order log again — i.e. the length of the replayed
    /// prefix, which is already logged from the failed attempt.
    log_skip: usize,
    /// Stage probe + this reader's copy index, when live telemetry is
    /// attached ([`Pipeline::with_telemetry`]). `None` costs one branch
    /// per delivery.
    ///
    /// [`Pipeline::with_telemetry`]: crate::exec::Pipeline::with_telemetry
    probe: Option<(Arc<StageProbe>, usize)>,
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
    /// Deliveries not yet published to the probe's `buffers_in` counter
    /// (flushed with the histograms, so the per-packet path has no
    /// atomics at all).
    local_buffers_in: u64,
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

/// Minimum µs between mid-run local→shared telemetry flushes. The
/// sampler's finest practical cadence (`--status-every`) is tens of
/// milliseconds, so a 10 ms publish lag is invisible to it; final stats
/// are exact regardless via the end-of-stream flush.
const FLUSH_INTERVAL_US: u64 = 10_000;

impl StreamReader {
    /// Set the adaptive-drain batch size (messages moved per lock
    /// acquisition); 1 restores strict per-packet operation.
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Blocking read; `None` once every producer copy has closed.
    pub fn read(&mut self) -> Option<Buffer> {
        loop {
            // Cancellation takes priority over locally drained packets,
            // matching the channel's cancel-beats-queued-data rule: a
            // cancelled pipeline stops moving data even if this copy
            // already holds some.
            if !self.pending.is_empty() && self.control.as_ref().is_some_and(|c| c.is_cancelled()) {
                self.pending.clear();
                self.flush_probe_locals();
                return None;
            }
            match self.pending.pop_front() {
                Some(Msg::Data {
                    from,
                    seq,
                    sent_us,
                    origin_us,
                    buf,
                }) => {
                    if let Some(rep) = &self.replay {
                        let wm = &mut self.watermark[from as usize];
                        if seq < *wm {
                            // Replay duplicate: the replayed copy of this
                            // packet was already delivered.
                            self.deduped += 1;
                            continue;
                        }
                        *wm = seq + 1;
                        if self.log_skip > 0 {
                            // Replayed prefix: already in the order log.
                            self.log_skip -= 1;
                        } else {
                            plock(&rep.order[self.consumer]).push((from, seq));
                        }
                    }
                    if let Some((probe, _)) = &self.probe {
                        // Latency math reuses the tick taken when this
                        // packet's drain pulled it off the channel and
                        // records into reader-local histograms: the
                        // clock read and the shared-histogram locks are
                        // paid once per drain, not per packet, keeping
                        // sampling within the guard's 5% budget.
                        let now = self.now_us_cache;
                        if sent_us > 0 {
                            self.local_residence.record(now.saturating_sub(sent_us));
                        }
                        if origin_us > 0 && probe.e2e_us.is_some() {
                            self.local_e2e.record(now.saturating_sub(origin_us));
                        }
                        self.local_buffers_in += 1;
                    }
                    self.last_origin_us = origin_us;
                    if self.pending.is_empty()
                        && self.now_us_cache.saturating_sub(self.last_flush_us) >= FLUSH_INTERVAL_US
                    {
                        // Local batch exhausted and the publish lag is
                        // due: push the locally recorded latencies to
                        // the shared probe. Checked only at batch
                        // boundaries, fired at most every 10 ms.
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
            self.blocked += waited;
            if let Some((probe, copy)) = &self.probe {
                probe
                    .copy(*copy)
                    .blocked_recv_us
                    .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
            }
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
                    if let Some((probe, copy)) = &self.probe {
                        // The drain tick is derived from the recv-side
                        // `Instant` the blocked accounting already paid
                        // for — epoch subtraction, no second clock read.
                        self.now_us_cache = instant_us(wait_start + waited);
                        // Refresh the depth gauge every 16th drain (the
                        // first included, so short runs report at all):
                        // `rx.len()` takes the channel lock the batched
                        // path exists to amortize, and a gauge that is
                        // at most 15 drains stale is still far fresher
                        // than any sampling cadence reading it.
                        if self.drains & 0xF == 0 {
                            probe.copy(*copy).queue_depth.store(
                                (self.rx.len() + self.pending.len()) as u64,
                                Ordering::Relaxed,
                            );
                        }
                        self.drains = self.drains.wrapping_add(1);
                    }
                }
                Err(_) => {
                    // All senders dropped, or the run was cancelled out
                    // from under a blocked receive.
                    if self.control.as_ref().is_some_and(|c| c.is_cancelled()) {
                        self.cancelled_while_blocked = true;
                    }
                    self.flush_probe_locals();
                    return None;
                }
            }
        }
    }

    /// Merge the reader-local latency histograms into the shared probe
    /// histograms. Runs once per channel drain and on every
    /// end-of-stream path; a no-op while the locals are empty, so the
    /// tail flush is idempotent.
    fn flush_probe_locals(&mut self) {
        self.last_flush_us = self.now_us_cache;
        let Some((probe, copy)) = &self.probe else {
            return;
        };
        if self.local_buffers_in > 0 {
            probe
                .copy(*copy)
                .buffers_in
                .fetch_add(self.local_buffers_in, Ordering::Relaxed);
            self.local_buffers_in = 0;
        }
        if self.local_residence.count > 0 {
            plock(&probe.residence_us).merge(&self.local_residence);
            self.local_residence = Histogram::default();
        }
        if self.local_e2e.count > 0 {
            if let Some(h) = &probe.e2e_us {
                plock(h).merge(&self.local_e2e);
            }
            self.local_e2e = Histogram::default();
        }
    }

    /// Per-packet accounting for a buffer about to be handed to the
    /// filter: stats, progress for the stall detector, trace event.
    fn account(&mut self, b: Buffer) -> Buffer {
        self.buffers_read += 1;
        self.bytes_read += b.len() as u64;
        if let Some(c) = &self.control {
            c.note_progress();
        }
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

    /// Publish the delivered prefix as acknowledged: every producer's
    /// watermark becomes the acked value and the replay buffers are
    /// pruned. Call only at a durability boundary — once published, a
    /// restart will NOT replay those packets.
    pub(crate) fn commit_acks(&mut self) {
        let Some(rep) = &self.replay else {
            return;
        };
        for (p, wm) in self.watermark.iter().enumerate() {
            let cell = &rep.acked[p][self.consumer];
            if cell.load(Ordering::Acquire) < *wm {
                // Prune before publishing: a producer reading the new ack
                // value only skips its own pruning work, never resurrects
                // an entry.
                let mut un = plock(&rep.unacked[p][self.consumer]);
                while un.front().is_some_and(|(s, _)| *s < *wm) {
                    un.pop_front();
                }
                drop(un);
                cell.store(*wm, Ordering::Release);
            }
        }
        // Everything consumed so far is now acknowledged — it will never
        // replay, so its consumption order no longer matters.
        plock(&rep.order[self.consumer]).clear();
        self.log_skip = 0;
    }

    /// Prepare this endpoint for a restarted unit-of-work attempt: reset
    /// watermarks to the acknowledged prefix and pre-load every
    /// unacknowledged packet ahead of whatever is already queued — first
    /// the packets the failed attempt actually consumed, in its exact
    /// consumption order (the shared order log), then the never-consumed
    /// remainder in per-producer sequence order. Replaying the consumed
    /// prefix in the original interleaving makes a deterministic filter
    /// regenerate byte-identical downstream writes, which is what the
    /// writer's sequence-based suppression relies on. In-queue originals
    /// that the replay duplicates are later discarded by the watermark.
    /// `End` markers drained into `pending` are kept — producers send
    /// them only once.
    pub(crate) fn begin_attempt(&mut self) {
        let Some(rep) = self.replay.clone() else {
            return;
        };
        // Locally drained data is a subset of the unacknowledged replay
        // set (it was never acked), so dropping it loses nothing.
        self.pending.retain(|m| matches!(m, Msg::End));
        for (p, wm) in self.watermark.iter_mut().enumerate() {
            *wm = rep.acked[p][self.consumer].load(Ordering::Acquire);
        }
        // The consumed-and-unacked prefix, in original consumption order.
        let mut log = plock(&rep.order[self.consumer]);
        let mut preload: Vec<Msg> = Vec::new();
        let mut replay_high: Vec<Option<u64>> = vec![None; self.watermark.len()];
        for &(from, seq) in log.iter() {
            let p = from as usize;
            if seq < self.watermark[p] {
                continue; // defensively skip anything already acked
            }
            let un = plock(&rep.unacked[p][self.consumer]);
            if let Some((_, buf)) = un.iter().find(|(s, _)| *s == seq) {
                // Replayed packets carry no stamps: their original send
                // time is long gone, and counting the failure stall as
                // latency would poison the percentiles.
                preload.push(Msg::Data {
                    from,
                    seq,
                    sent_us: 0,
                    origin_us: 0,
                    buf: buf.clone(),
                });
                replay_high[p] = Some(replay_high[p].map_or(seq, |h| h.max(seq)));
            }
        }
        // Re-seed the log with exactly the prefix being replayed, so the
        // skip counter and the log stay in lockstep even if an entry was
        // filtered out above.
        *log = preload
            .iter()
            .map(|m| match m {
                Msg::Data { from, seq, .. } => (*from, *seq),
                Msg::End => unreachable!("preload holds only data"),
            })
            .collect();
        self.log_skip = log.len();
        drop(log);
        // Sent-but-never-consumed packets follow; the failed attempt put
        // no ordering constraint on them.
        for (p, wm) in self.watermark.iter().enumerate() {
            let floor = replay_high[p].map_or(*wm, |h| h + 1);
            let un = plock(&rep.unacked[p][self.consumer]);
            for (seq, buf) in un.iter() {
                if *seq >= floor {
                    preload.push(Msg::Data {
                        from: p as u32,
                        seq: *seq,
                        sent_us: 0,
                        origin_us: 0,
                        buf: buf.clone(),
                    });
                }
            }
        }
        self.replayed += preload.len() as u64;
        for m in preload.into_iter().rev() {
            self.pending.push_front(m);
        }
        self.cancelled_while_blocked = false;
    }

    pub fn stats(&self) -> (u64, u64) {
        (self.buffers_read, self.bytes_read)
    }

    /// Packets re-delivered from replay buffers / duplicates discarded by
    /// the sequence watermark (both 0 without recovery).
    pub fn recovery_stats(&self) -> (u64, u64) {
        (self.replayed, self.deduped)
    }

    /// Whether a blocking receive on this endpoint was aborted by run
    /// cancellation (the stall report uses this to name wedged copies).
    pub fn cancelled_while_blocked(&self) -> bool {
        self.cancelled_while_blocked
    }

    /// Total time this endpoint spent inside blocking receives — i.e.
    /// the copy was starved waiting for upstream data.
    pub fn blocked(&self) -> Duration {
        self.blocked
    }

    /// Set the trace row for per-packet and stall events (the executor
    /// assigns one tid per filter copy).
    pub fn set_trace_tid(&mut self, tid: u32) {
        self.tid = tid;
    }

    /// Attach a live-telemetry probe for this consumer copy; also hands
    /// the stream's replay state to the probe so the sampler can report
    /// replay-buffer occupancy.
    pub(crate) fn attach_probe(&mut self, probe: Arc<StageProbe>, copy: usize) {
        if let Some(rep) = &self.replay {
            *plock(&probe.replay) = Some(rep.clone());
        }
        self.probe = Some((probe, copy));
    }

    /// Ingest-origin tick of the most recently delivered packet
    /// (0 = unknown).
    pub(crate) fn last_origin_us(&self) -> u64 {
        self.last_origin_us
    }
}

/// Writing end held by one producer copy.
pub struct StreamWriter {
    txs: Vec<MsgTx>,
    next: usize,
    buffers_written: u64,
    bytes_written: u64,
    closed: bool,
    blocked: Duration,
    /// Trace thread id of the owning filter copy (see
    /// [`StreamWriter::set_trace_tid`]).
    tid: u32,
    /// Run-wide control (cancellation + progress), when the executor
    /// runs with a deadline/stall watchdog.
    control: Option<Arc<RunControl>>,
    /// Set when a send was aborted by run cancellation — the copy was
    /// blocked here (downstream backpressure) when the watchdog fired.
    cancelled_while_blocked: bool,
    /// Which producer copy this writer belongs to (replay indexing).
    from: usize,
    /// Round-robin start offset (producer stagger); with recovery the
    /// invariant `next == stagger + write_index` makes the packet→target
    /// mapping a pure function of the sequence number, so a rewound
    /// producer regenerates the identical routing.
    stagger: usize,
    /// Sequence number of the next packet to write.
    write_index: u64,
    /// One past the highest sequence number ever sent. NOT rewound on
    /// restart: regenerated packets below it are suppressed.
    sent_high: u64,
    /// Ack/replay state, present only under recovery.
    replay: Option<Arc<ReplayShared>>,
    /// Stage probe + this writer's copy index, when live telemetry is
    /// attached.
    probe: Option<(Arc<StageProbe>, usize)>,
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

    /// Packet stamps for the next write: `(sent_us, origin_us)`, both 0
    /// when telemetry is off.
    fn stamps(&self) -> (u64, u64) {
        if !self.stamp {
            return (0, 0);
        }
        self.stamps_at(instant_us(Instant::now()))
    }

    /// [`stamps`](Self::stamps) from a tick already in hand (the batched
    /// write path reuses its blocked-accounting `Instant`, so stamping a
    /// whole batch costs no clock read at all).
    fn stamps_at(&self, now: u64) -> (u64, u64) {
        let origin = if self.fresh_origin {
            now
        } else {
            self.origin_us
        };
        (now, origin)
    }

    /// Send one buffer to (one copy of) the logical consumer.
    pub fn write(&mut self, buf: Buffer) -> FilterResult<()> {
        if self.closed {
            return Err(FilterError::new("stream", "write after close"));
        }
        let seq = self.write_index;
        self.write_index += 1;
        let target = self.next % self.fanout();
        self.next += 1;
        if let Some(rep) = &self.replay {
            if seq < self.sent_high {
                // A rewound producer regenerating already-sent output:
                // the original packet is still in the replay buffer (or
                // already processed), so re-sending would only create a
                // duplicate for the watermark to discard. Suppressed
                // sends do not count toward stats.
                return Ok(());
            }
            self.sent_high = seq + 1;
            let acked = rep.acked[self.from][target].load(Ordering::Acquire);
            let mut un = plock(&rep.unacked[self.from][target]);
            while un.front().is_some_and(|(s, _)| *s < acked) {
                un.pop_front();
            }
            un.push_back((seq, buf.clone()));
        }
        self.buffers_written += 1;
        let bytes = buf.len() as u64;
        self.bytes_written += bytes;
        // Queue depth *before* the send: how much backlog the consumer
        // already has. Only sampled when tracing (it takes the queue
        // lock).
        let tracing = trace::enabled();
        let depth = if tracing {
            self.txs[target].len() as u64
        } else {
            0
        };
        let (sent_us, origin_us) = self.stamps();
        let wait_start = Instant::now();
        let sent = self.txs[target].send(Msg::Data {
            from: self.from as u32,
            seq,
            sent_us,
            origin_us,
            buf,
        });
        let waited = wait_start.elapsed();
        self.blocked += waited;
        if let Some((probe, copy)) = &self.probe {
            let cp = probe.copy(*copy);
            cp.blocked_send_us
                .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
            cp.buffers_out.fetch_add(1, Ordering::Relaxed);
        }
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
                vec![("bytes", bytes.into()), ("queue_depth", depth.into())],
            );
        }
        match sent {
            Ok(()) => {
                if let Some(c) = &self.control {
                    c.note_progress();
                }
                Ok(())
            }
            Err(_) if self.control.as_ref().is_some_and(|c| c.is_cancelled()) => {
                self.cancelled_while_blocked = true;
                Err(FilterError::cancelled(
                    "stream",
                    "run cancelled during send",
                ))
            }
            Err(_) => Err(FilterError::new("stream", "consumer hung up")),
        }
    }

    /// Send a run of buffers, amortizing lock acquisitions and condvar
    /// wakeups over the whole run instead of paying one per packet.
    /// Round-robin distribution is preserved exactly: each consumer copy
    /// receives the same subsequence, in the same order, as `len` calls
    /// to [`write`](Self::write) would have produced.
    ///
    /// Under recovery this degrades to per-packet [`write`](Self::write):
    /// every packet must pass the sequence/replay bookkeeping
    /// individually. Runs without recovery keep the batched fast path.
    pub fn write_batch(&mut self, bufs: Vec<Buffer>) -> FilterResult<()> {
        if self.closed {
            return Err(FilterError::new("stream", "write after close"));
        }
        if bufs.is_empty() {
            return Ok(());
        }
        if self.replay.is_some() {
            for buf in bufs {
                self.write(buf)?;
            }
            return Ok(());
        }
        let count = bufs.len() as u64;
        let bytes: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        self.buffers_written += count;
        self.bytes_written += bytes;
        // Group the run by target queue. Width-1 round-robin collapses to
        // a single group; multi-consumer round-robin rotates per packet,
        // exactly like `write`. Elastic width is sampled once per batch:
        // the whole run rotates over the fanout in force when the batch
        // started.
        let targets = self.txs.len();
        let fan = self.fanout();
        // One tick for the whole run: it is the first send's
        // blocked-accounting start (message assembly lands in "blocked"
        // time — nanoseconds against the µs-scale waits it accounts) and,
        // with telemetry on, the shared send stamp. The packets leave
        // together, so a shared stamp loses nothing, and deriving it from
        // the `Instant` already needed for accounting makes stamping a
        // batch cost no extra clock read.
        let batch_start = Instant::now();
        let (sent_us, origin_us) = if self.stamp {
            self.stamps_at(instant_us(batch_start))
        } else {
            (0, 0)
        };
        let mut per_target: Vec<VecDeque<Msg>> = (0..targets).map(|_| VecDeque::new()).collect();
        for buf in bufs {
            let seq = self.write_index;
            self.write_index += 1;
            let target = self.next % fan;
            self.next += 1;
            per_target[target].push_back(Msg::Data {
                from: self.from as u32,
                seq,
                sent_us,
                origin_us,
                buf,
            });
        }
        let tracing = trace::enabled();
        let mut first_send = Some(batch_start);
        for (target, mut batch) in per_target.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let n = batch.len() as u64;
            let depth = if tracing {
                self.txs[target].len() as u64
            } else {
                0
            };
            let wait_start = first_send.take().unwrap_or_else(Instant::now);
            let sent = self.txs[target].send_batch(&mut batch);
            let waited = wait_start.elapsed();
            self.blocked += waited;
            if let Some((probe, copy)) = &self.probe {
                let cp = probe.copy(*copy);
                cp.blocked_send_us
                    .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
                cp.buffers_out.fetch_add(n, Ordering::Relaxed);
            }
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
                    "send_batch",
                    "packet",
                    PID_RUNTIME,
                    self.tid,
                    vec![("count", n.into()), ("queue_depth", depth.into())],
                );
            }
            match sent {
                Ok(()) => {
                    if let Some(c) = &self.control {
                        c.note_progress();
                    }
                }
                Err(_) if self.control.as_ref().is_some_and(|c| c.is_cancelled()) => {
                    self.cancelled_while_blocked = true;
                    return Err(FilterError::cancelled(
                        "stream",
                        "run cancelled during send",
                    ));
                }
                Err(_) => return Err(FilterError::new("stream", "consumer hung up")),
            }
        }
        Ok(())
    }

    /// Sequence number of the next packet to write (recovery bookkeeping:
    /// a checkpoint records this as its output boundary).
    pub(crate) fn write_index(&self) -> u64 {
        self.write_index
    }

    /// Rewind this endpoint to a committed output boundary before a
    /// restarted attempt. Regenerated packets keep their original
    /// sequence numbers and round-robin targets; those already sent
    /// (`seq < sent_high`, which is never rewound) are suppressed.
    pub(crate) fn rewind_for_replay(&mut self, out_index: u64) {
        self.write_index = out_index;
        self.next = self.stagger.wrapping_add(out_index as usize);
        self.cancelled_while_blocked = false;
    }

    /// Whether a blocking send on this endpoint was aborted by run
    /// cancellation (the stall report uses this to name wedged copies).
    pub fn cancelled_while_blocked(&self) -> bool {
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

    pub fn stats(&self) -> (u64, u64) {
        (self.buffers_written, self.bytes_written)
    }

    /// Total time this endpoint spent inside blocking sends — i.e. the
    /// copy was throttled by downstream backpressure.
    pub fn blocked(&self) -> Duration {
        self.blocked
    }

    /// Set the trace row for per-packet and stall events (the executor
    /// assigns one tid per filter copy).
    pub fn set_trace_tid(&mut self, tid: u32) {
        self.tid = tid;
    }

    /// Attach a live-telemetry probe for this producer copy (also turns
    /// on packet stamping).
    pub(crate) fn attach_probe(&mut self, probe: Arc<StageProbe>, copy: usize) {
        self.probe = Some((probe, copy));
        self.stamp = true;
    }

    /// Stamp `sent_us` without a probe. Used by network ingress bridges:
    /// residence latency at the receiving stage still works, while
    /// origins (which don't survive the process boundary — clocks are
    /// not comparable) stay unset.
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
/// - `control` attaches run-wide control: channels become cancellable
///   through its token, and every successful send/receive bumps its
///   progress counter (for the stall detector).
/// - `recovering` attaches ack/replay state, enabling the
///   upstream-backup protocol described in the module docs.
/// - `same_host_rings` permits the lock-free SPSC ring for 1→1
///   non-recovering links (the executor's default); `false` forces the
///   mutex channel on every link, which benchmarks use to measure the
///   ring against the channel on an otherwise identical pipeline.
#[allow(clippy::fn_params_excessive_bools)]
pub fn logical_stream(
    producers: usize,
    consumers: usize,
    capacity: usize,
    control: Option<Arc<RunControl>>,
    recovering: bool,
    same_host_rings: bool,
) -> (Vec<StreamWriter>, Vec<StreamReader>) {
    assert!(producers > 0 && consumers > 0);
    assert!(capacity > 0);
    let replay = recovering.then(|| Arc::new(ReplayShared::new(producers, consumers)));
    let channel = |cap: usize| match &control {
        Some(c) => bounded_cancellable(cap, c.token()),
        None => bounded(cap),
    };
    let reader = |rx: MsgRx, consumer: usize| StreamReader {
        rx,
        producers_remaining: producers,
        pending: VecDeque::new(),
        batch: 1,
        buffers_read: 0,
        bytes_read: 0,
        blocked: Duration::ZERO,
        tid: 0,
        control: control.clone(),
        cancelled_while_blocked: false,
        consumer,
        replay: replay.clone(),
        watermark: vec![0; producers],
        replayed: 0,
        deduped: 0,
        log_skip: 0,
        probe: None,
        last_origin_us: 0,
        now_us_cache: 0,
        local_residence: Histogram::default(),
        local_e2e: Histogram::default(),
        local_buffers_in: 0,
        drains: 0,
        last_flush_us: 0,
    };
    let writer = |txs: Vec<MsgTx>, from: usize, stagger: usize| StreamWriter {
        txs,
        next: stagger,
        buffers_written: 0,
        bytes_written: 0,
        closed: false,
        blocked: Duration::ZERO,
        tid: 0,
        control: control.clone(),
        cancelled_while_blocked: false,
        from,
        stagger,
        write_index: 0,
        sent_high: 0,
        replay: replay.clone(),
        probe: None,
        stamp: false,
        origin_us: 0,
        fresh_origin: false,
        active_width: None,
    };
    // 1→1 non-recovering links ride the lock-free SPSC ring: exactly one
    // producer endpoint and one consumer endpoint, and no replay state
    // (replay wants the channel's bookkeeping shape). Everything else —
    // fan-in, fan-out, recovering links — keeps the mutex channel.
    if same_host_rings && producers == 1 && consumers == 1 && replay.is_none() {
        let (tx, rx) = ring::spsc(capacity, control.as_ref().map(|c| c.token()));
        return (
            vec![writer(vec![MsgTx::Ring(tx)], 0, 0)],
            vec![reader(MsgRx::Ring(rx), 0)],
        );
    }
    // One queue per consumer copy; every producer can reach every
    // consumer and rotates among them. Each producer sends one End per
    // consumer; each consumer therefore waits for `producers` Ends.
    let mut txs_per_consumer = Vec::with_capacity(consumers);
    let mut readers = Vec::with_capacity(consumers);
    for c in 0..consumers {
        let (tx, rx) = channel(capacity);
        txs_per_consumer.push(tx);
        readers.push(reader(MsgRx::Chan(rx), c));
    }
    let writers = (0..producers)
        // Stagger start positions so multiple producers do not all hit
        // consumer 0 first.
        .map(|p| {
            writer(
                txs_per_consumer
                    .iter()
                    .map(|tx| MsgTx::Chan(tx.clone()))
                    .collect(),
                p,
                p,
            )
        })
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

    #[test]
    fn point_to_point_delivers_in_order() {
        let (mut ws, mut rs) = logical_stream(1, 1, 16, None, false, true);
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
        let (mut ws, mut rs) = logical_stream(1, 3, 16, None, false, true);
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
        let (mut ws, mut rs) = logical_stream(2, 1, 16, None, false, true);
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
        let (mut ws, _rs) = logical_stream(1, 1, 4, None, false, true);
        ws[0].close();
        assert!(ws[0].write(buf(0)).is_err());
    }

    #[test]
    fn drop_closes_stream() {
        let (ws, mut rs) = logical_stream(1, 1, 4, None, false, true);
        drop(ws);
        assert!(rs[0].read().is_none());
    }

    #[test]
    fn staggered_start_balances_multi_producer_round_robin() {
        let (mut ws, mut rs) = logical_stream(2, 2, 32, None, false, true);
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
        let (mut ws, mut rs) = logical_stream(1, 1, 4, None, false, true);
        ws[0].write(Buffer::from_vec(vec![0; 10])).unwrap();
        ws[0].write(Buffer::from_vec(vec![0; 5])).unwrap();
        assert_eq!(ws[0].stats(), (2, 15));
        ws[0].close();
        while rs[0].read().is_some() {}
        assert_eq!(rs[0].stats(), (2, 15));
    }

    /// A recovering logical stream with no failures behaves exactly like
    /// a plain one (same delivery, no replays, no dedups).
    #[test]
    fn recovering_stream_without_failures_is_transparent() {
        let (mut ws, mut rs) = logical_stream(1, 2, 16, None, true, true);
        for t in 0..8 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        for (c, r) in rs.iter_mut().enumerate() {
            let mut seen = Vec::new();
            while let Some(b) = r.read() {
                seen.push(b.as_slice()[0]);
            }
            assert_eq!(seen.len(), 4, "consumer {c}");
            assert_eq!(r.recovery_stats(), (0, 0));
        }
    }

    /// Consumer restart: unacked packets are replayed, the watermark
    /// dedups the in-queue originals, every packet is delivered exactly
    /// once overall.
    #[test]
    fn consumer_restart_replays_unacked_exactly_once() {
        let (mut ws, mut rs) = logical_stream(1, 1, 64, None, true, true);
        for t in 0..10 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        let r = &mut rs[0];
        // Deliver 4 packets, ack after 2 (a mid-stream checkpoint).
        let mut first = Vec::new();
        for _ in 0..2 {
            first.push(r.read().unwrap().as_slice()[0]);
        }
        r.commit_acks();
        for _ in 0..2 {
            first.push(r.read().unwrap().as_slice()[0]);
        }
        assert_eq!(first, vec![0, 1, 2, 3]);
        // Crash + restart: packets 2..10 must come back (2 and 3 were
        // delivered but never acked), with no duplicates.
        r.begin_attempt();
        let mut again = Vec::new();
        while let Some(b) = r.read() {
            again.push(b.as_slice()[0]);
        }
        assert_eq!(again, (2..10).collect::<Vec<u8>>());
        let (replayed, _deduped) = r.recovery_stats();
        assert_eq!(replayed, 8, "packets 2..10 were preloaded from replay");
    }

    /// Producer restart: rewinding to the committed boundary regenerates
    /// suppressed sends for everything at or past `sent_high`, so the
    /// consumer sees no duplicates and no losses.
    #[test]
    fn producer_rewind_suppresses_already_sent_packets() {
        let (mut ws, mut rs) = logical_stream(1, 1, 64, None, true, true);
        for t in 0..6 {
            ws[0].write(buf(t)).unwrap();
        }
        // Producer crashes having committed nothing: rewind to 0 and
        // regenerate all 6 packets, then 4 more new ones.
        ws[0].rewind_for_replay(0);
        for t in 0..10 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        let mut seen = Vec::new();
        while let Some(b) = rs[0].read() {
            seen.push(b.as_slice()[0]);
        }
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
        // Only 10 distinct packets ever hit the wire.
        assert_eq!(ws[0].stats().0, 10);
    }

    /// Round-robin targets survive a rewind: regenerated packets land on
    /// the same consumers as the originals would have.
    #[test]
    fn rewound_round_robin_keeps_target_mapping() {
        let (mut ws, mut rs) = logical_stream(1, 2, 64, None, true, true);
        for t in 0..4 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].rewind_for_replay(0);
        for t in 0..8 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        for (c, r) in rs.iter_mut().enumerate() {
            let mut seen = Vec::new();
            while let Some(b) = r.read() {
                seen.push(b.as_slice()[0]);
            }
            assert_eq!(seen.len(), 4, "consumer {c}");
            for v in seen {
                assert_eq!(v as usize % 2, c, "round robin target after rewind");
            }
        }
    }

    /// Acks bound the replay buffer: after a full ack, a restart replays
    /// nothing.
    #[test]
    fn acked_packets_are_never_replayed() {
        let (mut ws, mut rs) = logical_stream(1, 1, 64, None, true, true);
        for t in 0..5 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        let r = &mut rs[0];
        for _ in 0..5 {
            r.read().unwrap();
        }
        r.commit_acks();
        r.begin_attempt();
        assert!(r.read().is_none());
        assert_eq!(r.recovery_stats().0, 0, "nothing left to replay");
    }

    /// With a probe attached, delivery records residence + end-to-end
    /// latency and the in-flight gauges move; replayed packets are
    /// excluded from the latency percentiles.
    #[test]
    fn probes_record_latency_and_gauges() {
        let (mut ws, mut rs) = logical_stream(1, 1, 64, None, true, true);
        let probe = StageProbe::new("sink".into(), 1, true);
        ws[0].attach_probe(probe.clone(), 0);
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
        assert_eq!(s.replay_occupancy, 4, "nothing acked yet");
        // Restart: the 4 unacked packets replay with zero stamps — the
        // latency histograms must not move.
        rs[0].begin_attempt();
        for _ in 0..4 {
            rs[0].read().unwrap();
        }
        rs[0].flush_probe_locals();
        assert_eq!(probe.residence().count, 4, "replays excluded");
        assert_eq!(probe.e2e().unwrap().count, 4, "replays excluded");
        assert_eq!(probe.sample(now_us()).buffers_in, 8);
    }

    /// Stamping without a probe (ingress bridges) sets `sent_us` but no
    /// origin, so downstream residence works while e2e stays silent.
    #[test]
    fn ingress_stamping_feeds_residence_only() {
        let (mut ws, mut rs) = logical_stream(1, 1, 16, None, false, true);
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

    /// The published ack watermark is monotone: a consumer whose local
    /// watermark somehow regresses (e.g. a reconnecting remote consumer
    /// re-offering an older cumulative ack) must not pull the shared
    /// acked prefix backwards — that would resurrect replay of packets
    /// the producer already pruned.
    #[test]
    fn committed_ack_watermark_never_regresses() {
        let (mut ws, mut rs) = logical_stream(1, 1, 64, None, true, true);
        for t in 0..5 {
            ws[0].write(buf(t)).unwrap();
        }
        ws[0].close();
        let r = &mut rs[0];
        for _ in 0..5 {
            r.read().unwrap();
        }
        r.commit_acks();
        let rep = r.replay.as_ref().unwrap();
        assert_eq!(rep.acked[0][0].load(Ordering::Acquire), 5);
        // Force the local watermark below the published prefix and
        // commit again: the shared cell must keep the high-water mark.
        r.watermark[0] = 3;
        r.commit_acks();
        let rep = r.replay.as_ref().unwrap();
        assert_eq!(
            rep.acked[0][0].load(Ordering::Acquire),
            5,
            "ack watermark regressed"
        );
    }
}
