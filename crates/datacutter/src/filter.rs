//! The filter interface (Section 2.2).
//!
//! "The interface for filters consists of an initialization function
//! (`init`), a processing function (`process`), and a finalization function
//! (`finalize`)." Filter operations progress as unit-of-work cycles: the
//! service calls `init`, then `process` reads buffers arriving on the input
//! stream until end-of-work, then `finalize` releases resources (and may
//! flush final results — e.g. reduction state — downstream).

use crate::buffer::{Buffer, BufferPool};
use crate::error::{FilterError, FilterResult};
use crate::fault::{FaultAction, FaultInjector, RunControl};
use crate::stream::{StreamReader, StreamWriter};
use cgp_obs::trace::{self, PID_RUNTIME};
use std::sync::Arc;

/// Per-copy recovery bookkeeping attached to a [`FilterIo`] when the
/// pipeline runs with recovery enabled.
pub(crate) struct RecoveryCtx {
    /// The last committed state snapshot. The `FilterIo` outlives every
    /// attempt of its copy, so a restarted attempt restores from here.
    pub(crate) snapshot: Option<Vec<u8>>,
    /// Checkpoint cadence (accepted packets) for stateful stages.
    pub(crate) checkpoint_every: u64,
    /// Stateless stages acknowledge inputs as they are consumed (a
    /// packet is acked once the *next* read begins, i.e. after its
    /// outputs were written); stateful stages acknowledge only at
    /// checkpoint commits.
    pub(crate) auto_ack: bool,
    /// Inputs accepted since the last checkpoint commit.
    pub(crate) accepted: u64,
    /// Inputs accepted over the whole unit of work (trace metadata).
    pub(crate) accepted_total: u64,
    /// Output write index at the last ack boundary; restarts rewind the
    /// writer here.
    pub(crate) committed_out: u64,
    /// Checkpoint commits / snapshot bytes by this copy.
    pub(crate) checkpoints: u64,
    pub(crate) checkpoint_bytes: u64,
    /// Trace thread id of the owning filter copy.
    pub(crate) tid: u32,
}

/// I/O endpoints handed to a filter copy for one unit of work.
pub struct FilterIo {
    /// Input stream (absent for the first filter, which reads the data
    /// source itself).
    pub input: Option<StreamReader>,
    /// Output stream (absent for the last filter, which delivers results).
    pub output: Option<StreamWriter>,
    /// Which transparent copy of the logical filter this instance is.
    pub copy_index: usize,
    /// Total transparent copies of this logical filter.
    pub width: usize,
    /// Per-copy fault injection (chaos testing); interposed on the
    /// packet path by [`read`](FilterIo::read)/[`write`](FilterIo::write).
    pub(crate) injector: Option<FaultInjector>,
    /// Run-wide cancellation/progress state.
    pub(crate) control: Arc<RunControl>,
    /// Shared packet-storage pool ([`RunOptions::pool`]); when absent,
    /// [`alloc`](FilterIo::alloc)/[`seal`](FilterIo::seal) fall through
    /// to plain heap allocation.
    ///
    /// [`RunOptions::pool`]: crate::exec::RunOptions::pool
    pub(crate) pool: Option<BufferPool>,
    /// Pool hits/misses by this copy's [`alloc`](FilterIo::alloc) calls
    /// (aggregated into `StageStats` by the executor).
    pub(crate) pool_hits: u64,
    pub(crate) pool_misses: u64,
    /// Packets an injected `drop` fault discarded at this copy
    /// (aggregated into `StageStats::dropped` by the executor).
    pub(crate) dropped: u64,
    /// Recovery bookkeeping (checkpoint cadence, ack policy), present
    /// only when the pipeline runs with recovery enabled.
    pub(crate) recovery: Option<RecoveryCtx>,
}

impl FilterIo {
    /// Get scratch storage for building an output packet: recycled from
    /// the pipeline's [`BufferPool`] when one is attached, freshly
    /// allocated otherwise. Pair with [`seal`](FilterIo::seal).
    pub fn alloc(&mut self, capacity: usize) -> Vec<u8> {
        match &self.pool {
            Some(p) => {
                let (v, hit) = p.alloc_counted(capacity);
                if hit {
                    self.pool_hits += 1;
                } else {
                    self.pool_misses += 1;
                }
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Seal scratch storage (from [`alloc`](FilterIo::alloc)) into a
    /// [`Buffer`] — zero-copy; a pooled allocation returns to the pool
    /// when the last clone of the buffer drops.
    pub fn seal(&self, v: Vec<u8>) -> Buffer {
        match &self.pool {
            Some(p) => p.seal(v),
            None => Buffer::from_vec(v),
        }
    }

    /// Read the next input buffer; `None` at end-of-work.
    ///
    /// With a fault injector attached this is also where input-side
    /// faults fire: dropped packets are skipped, delays sleep
    /// (cancellably), injected failures park a structured error (the
    /// executor surfaces it) and signal end-of-work, injected panics
    /// panic — exercising the executor's panic isolation.
    ///
    /// Under recovery, a *stateless* stage acknowledges here: when read
    /// N+1 begins, packet N has been fully processed and its outputs
    /// written, so the delivered prefix is durable and the output index
    /// is a committed boundary.
    pub fn read(&mut self) -> Option<crate::buffer::Buffer> {
        if let Some(rc) = &mut self.recovery {
            if rc.auto_ack {
                if let Some(w) = &self.output {
                    rc.committed_out = w.write_index();
                }
                if let Some(r) = &mut self.input {
                    r.commit_acks();
                }
            }
        }
        let buf = self.read_inner()?;
        if let Some(rc) = &mut self.recovery {
            rc.accepted += 1;
            rc.accepted_total += 1;
        }
        // Telemetry: propagate the packet's ingest-origin tick onto the
        // output side, so end-to-end latency survives the stage hop.
        // Origins are only non-zero when telemetry is on, so untelemetered
        // runs pay one branch here.
        let origin = self
            .input
            .as_ref()
            .map_or(0, crate::stream::StreamReader::last_origin_us);
        if origin != 0 {
            if let Some(w) = &mut self.output {
                w.set_origin(origin);
            }
        }
        Some(buf)
    }

    fn read_inner(&mut self) -> Option<crate::buffer::Buffer> {
        loop {
            let buf = self.input.as_mut().and_then(StreamReader::read)?;
            let Some(inj) = self.injector.as_mut() else {
                return Some(buf);
            };
            let packet = inj.packets_seen();
            match inj.on_packet() {
                None => return Some(buf),
                Some(FaultAction::DropPacket) => self.dropped += 1,
                Some(FaultAction::Delay(d)) => {
                    if let Err(e) = self.control.cancellable_sleep(d, inj.label()) {
                        inj.set_pending(e);
                        return None;
                    }
                    return Some(buf);
                }
                Some(FaultAction::Fail) => {
                    let e = inj.injected_error(packet);
                    inj.set_pending(e);
                    return None;
                }
                Some(FaultAction::Panic) => {
                    panic!("injected panic at {} packet {packet}", inj.label())
                }
                Some(FaultAction::Kill) => crate::fault::die_hard(),
            }
        }
    }

    /// Write one buffer downstream: a batch of one through
    /// [`write_batch`](FilterIo::write_batch).
    pub fn write(&mut self, buf: Buffer) -> FilterResult<()> {
        self.write_batch([buf])
    }

    /// Write a run of buffers downstream, amortizing synchronization over
    /// the whole run (one lock acquisition + one wakeup per target queue
    /// instead of per packet).
    ///
    /// For source stages (no input) this is where faults fire, counted
    /// per written packet: the survivors go out as one batch, and every
    /// packet ahead of a fault is sent before the fault acts, so a fault
    /// fires at the same packet index however the writes are batched.
    pub fn write_batch(&mut self, bufs: impl IntoIterator<Item = Buffer>) -> FilterResult<()> {
        if self
            .injector
            .as_ref()
            .is_some_and(FaultInjector::has_pending)
        {
            // An input-side injected failure is parked: this attempt is
            // doomed and running against a fabricated end-of-work, so any
            // output it produces past the failure point (e.g. an
            // end-of-stream reduction) is an artifact of the truncated
            // input. Swallow it — sending would burn sequence numbers
            // that the restarted attempt regenerates with *different*
            // content, desynchronizing replay suppression.
            return Ok(());
        }
        // A terminal filter has no output: its writes are results it keeps
        // itself, so there is nothing to send.
        let flush =
            |out: &mut Option<StreamWriter>| out.as_mut().map_or(Ok(()), StreamWriter::flush);
        let mut injector = self.injector.as_mut().filter(|_| self.input.is_none());
        for buf in bufs {
            if let Some(inj) = injector.as_deref_mut() {
                let packet = inj.packets_seen();
                match inj.on_packet() {
                    None => {}
                    Some(FaultAction::DropPacket) => {
                        self.dropped += 1;
                        continue;
                    }
                    Some(action) => {
                        // Every packet ahead of the fault leaves before
                        // it acts.
                        flush(&mut self.output)?;
                        match action {
                            FaultAction::Delay(d) => {
                                self.control.cancellable_sleep(d, inj.label())?
                            }
                            FaultAction::Fail => return Err(inj.injected_error(packet)),
                            FaultAction::Panic => {
                                panic!("injected panic at {} packet {packet}", inj.label())
                            }
                            FaultAction::Kill => crate::fault::die_hard(),
                            FaultAction::DropPacket => unreachable!("handled above"),
                        }
                    }
                }
            }
            if let Some(w) = self.output.as_mut() {
                w.stage(buf)?;
            }
        }
        flush(&mut self.output)
    }

    pub fn has_input(&self) -> bool {
        self.input.is_some()
    }

    pub fn has_output(&self) -> bool {
        self.output.is_some()
    }

    /// Whether the run has been cancelled (deadline/stall watchdog).
    /// Long-running compute loops should poll this and bail out so a
    /// cancelled run can join all threads promptly.
    pub fn cancelled(&self) -> bool {
        self.control.is_cancelled()
    }

    /// Whether a stateful filter should checkpoint now: recovery is on,
    /// this stage acks at checkpoints, and `checkpoint_every` packets
    /// were accepted since the last commit. Always `false` for stateless
    /// stages and non-recovery runs, so filters can call it
    /// unconditionally from their process loop.
    pub fn checkpoint_due(&self) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|rc| !rc.auto_ack && rc.accepted >= rc.checkpoint_every)
    }

    /// Commit a state snapshot: keep it as this copy's restore point,
    /// then acknowledge the delivered input prefix (in that order — the
    /// snapshot is what covers those packets) and record the current
    /// output index as the restart boundary. A no-op without recovery,
    /// so filters can call it unconditionally.
    pub fn commit_checkpoint(&mut self, snapshot: &[u8]) {
        if self
            .injector
            .as_ref()
            .is_some_and(FaultInjector::has_pending)
        {
            // Doomed attempt (see `write`): must not acknowledge input —
            // the faulted packet was consumed from the stream but never
            // delivered, and only a replay can deliver it.
            return;
        }
        let out_index = self
            .output
            .as_ref()
            .map_or(0, crate::stream::StreamWriter::write_index);
        let Some(rc) = &mut self.recovery else {
            return;
        };
        rc.snapshot = Some(snapshot.to_vec());
        if let Some(r) = &mut self.input {
            r.commit_acks();
        }
        rc.committed_out = out_index;
        rc.accepted = 0;
        rc.checkpoints += 1;
        rc.checkpoint_bytes += snapshot.len() as u64;
        if trace::enabled() {
            trace::instant(
                "checkpoint",
                "recovery",
                PID_RUNTIME,
                rc.tid,
                vec![
                    ("bytes", (snapshot.len() as u64).into()),
                    ("packets", rc.accepted_total.into()),
                    ("out_index", out_index.into()),
                ],
            );
        }
    }

    /// The latest committed snapshot for this copy, if any (the executor
    /// feeds it to [`Filter::restore`] before a restarted attempt).
    pub(crate) fn latest_snapshot(&self) -> Option<&[u8]> {
        self.recovery.as_ref()?.snapshot.as_deref()
    }

    /// Reset the endpoints for a restarted unit-of-work attempt: rewind
    /// the writer to the committed output boundary and pre-load the
    /// unacknowledged input tail for replay.
    pub(crate) fn begin_attempt(&mut self) {
        let Some(rc) = &mut self.recovery else {
            return;
        };
        rc.accepted = 0;
        let committed_out = rc.committed_out;
        if let Some(w) = &mut self.output {
            w.rewind_for_replay(committed_out);
        }
        if let Some(r) = &mut self.input {
            r.begin_attempt();
        }
    }

    /// Final ack on a successfully completed unit of work: everything
    /// delivered has been fully processed, so release the replay buffers
    /// feeding this copy.
    pub(crate) fn commit_final(&mut self) {
        if self.recovery.is_some() {
            if let Some(w) = &self.output {
                let idx = w.write_index();
                if let Some(rc) = &mut self.recovery {
                    rc.committed_out = idx;
                }
            }
            if let Some(r) = &mut self.input {
                r.commit_acks();
            }
        }
    }

    /// Take the error an input-side injected failure parked (the read
    /// path can only signal end-of-work).
    pub(crate) fn take_injected_error(&mut self) -> Option<FilterError> {
        self.injector.as_mut().and_then(FaultInjector::take_pending)
    }
}

/// A user-defined filter. One instance exists per transparent copy; state
/// is per-copy (the runtime merges cross-copy results in `finalize`
/// protocols defined by the application, e.g. reduction objects flushed
/// downstream).
pub trait Filter: Send {
    /// Pre-allocate resources for the unit of work.
    fn init(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        let _ = io;
        Ok(())
    }

    /// Restore state from a checkpoint snapshot (recovery restarts only;
    /// called between `init` and `process` on a fresh instance when a
    /// committed snapshot exists for this copy). Stateful filters that
    /// participate in checkpointing must override this; the default
    /// refuses, which fails the restart rather than silently recomputing
    /// from a wrong state.
    fn restore(&mut self, snapshot: &[u8]) -> FilterResult<()> {
        let _ = snapshot;
        Err(FilterError::new(
            self.name().to_string(),
            "filter has a checkpoint but no restore support \
             (mark the stage stateless or implement Filter::restore)",
        ))
    }

    /// Consume input buffers / produce output buffers until end-of-work.
    fn process(&mut self, io: &mut FilterIo) -> FilterResult<()>;

    /// Called after `process` returns; may flush final state downstream
    /// (the executor closes the output stream afterwards).
    fn finalize(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        let _ = io;
        Ok(())
    }

    /// Display name for errors and stats.
    fn name(&self) -> &str {
        "filter"
    }
}

/// Factory producing one filter instance per transparent copy. `Sync`
/// because the executor re-invokes it from worker threads when restarting
/// a failed unit of work with a fresh filter instance.
pub type FilterFactory = Box<dyn Fn(usize) -> Box<dyn Filter> + Send + Sync>;

/// Convenience: a filter from three closures (init/process/finalize are
/// often tiny in tests and examples).
pub struct ClosureFilter<P> {
    pub name: String,
    pub process_fn: P,
}

impl<P> ClosureFilter<P>
where
    P: FnMut(&mut FilterIo) -> FilterResult<()> + Send,
{
    pub fn new(name: impl Into<String>, process_fn: P) -> Self {
        ClosureFilter {
            name: name.into(),
            process_fn,
        }
    }
}

impl<P> Filter for ClosureFilter<P>
where
    P: FnMut(&mut FilterIo) -> FilterResult<()> + Send,
{
    fn process(&mut self, io: &mut FilterIo) -> FilterResult<()> {
        (self.process_fn)(io)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::stream::logical_stream;

    fn io(input: Option<StreamReader>, output: Option<StreamWriter>) -> FilterIo {
        FilterIo {
            input,
            output,
            copy_index: 0,
            width: 1,
            injector: None,
            control: RunControl::new(),
            pool: None,
            pool_hits: 0,
            pool_misses: 0,
            dropped: 0,
            recovery: None,
        }
    }

    #[test]
    fn closure_filter_passes_through() {
        let (ws, mut rs) = logical_stream(1, 1, 8, RunControl::new(), false);
        let (mut ws2, mut rs2) = logical_stream(1, 1, 8, RunControl::new(), false);
        let mut f = ClosureFilter::new("double", |io: &mut FilterIo| {
            while let Some(b) = io.read() {
                let doubled: Vec<u8> = b.as_slice().iter().map(|x| x * 2).collect();
                io.write(Buffer::from_vec(doubled))?;
            }
            Ok(())
        });
        // feed
        let mut w = ws.into_iter().next().unwrap();
        w.write(Buffer::from_vec(vec![1, 2, 3])).unwrap();
        w.close();
        let mut io = io(Some(rs.remove(0)), Some(ws2.remove(0)));
        f.init(&mut io).unwrap();
        f.process(&mut io).unwrap();
        f.finalize(&mut io).unwrap();
        io.output.take();
        let out = rs2[0].read().unwrap();
        assert_eq!(out.as_slice(), &[2, 4, 6]);
        assert_eq!(f.name(), "double");
    }

    #[test]
    fn terminal_filter_write_is_noop() {
        let mut io = io(None, None);
        assert!(io.write(Buffer::from_vec(vec![1])).is_ok());
        assert!(!io.has_input());
        assert!(!io.has_output());
        assert!(io.read().is_none());
    }
}
