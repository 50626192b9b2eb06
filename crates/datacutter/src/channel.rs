//! Bounded MPSC channel.
//!
//! The stream layer needs a small slice of crossbeam's channel API — a
//! bounded queue, a cloneable `Sender` (N→1 fan-in), blocking `send`/`recv`
//! with disconnect detection — and the build environment is offline,
//! so this provides exactly that on `Mutex` + `Condvar`. The queue
//! bound is what gives streams backpressure (a full queue blocks the
//! producer, exactly DataCutter's fixed-buffer-pool behaviour).
//!
//! Every in-process stream link runs on this channel, 1→1 links
//! included. [`Sender::send_batch`] and [`Receiver::try_recv_batch`]
//! move several packets per lock acquisition, which is how the stream
//! layer amortizes the lock over a batch.
//!
//! Every channel is tied to a [`CancelToken`] ([`bounded_cancellable`]):
//! cancelling the token wakes every blocked `send`/`recv` and makes them
//! fail like a disconnect, which is how the executor's deadline/stall
//! watchdog unwedges a blocked pipeline without killing threads. All internal locking is poison-tolerant: a
//! filter copy that panics must not turn other copies' channel
//! operations into secondary panics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Poison-tolerant lock: a panicked peer thread must not cascade.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Error returned by [`Sender::send`] when the receiver is gone (or
/// the channel's [`CancelToken`] fired); carries the rejected message
/// back like crossbeam's.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the queue is empty and
/// every sender is gone (or the channel's [`CancelToken`] fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Cooperative cancellation for a set of channels (one per pipeline
/// run). [`CancelToken::cancel`] is sticky: every current and future
/// blocking `send`/`recv` on a channel built with the token fails
/// promptly.
#[derive(Clone, Default)]
pub struct CancelToken {
    shared: Arc<CancelShared>,
}

/// A registered waker: the channel's identity (for deduplication) plus
/// the closure that pokes both its condvars.
struct Waker {
    /// Address of the channel's `Inner` allocation; stable for the
    /// channel's lifetime and unique among live channels.
    channel_id: usize,
    /// `probe(true)` notifies the channel's condvars; `probe(false)` only
    /// reports liveness. Returns false once the channel is gone.
    probe: Box<dyn Fn(bool) -> bool + Send + Sync>,
}

#[derive(Default)]
struct CancelShared {
    flag: AtomicBool,
    /// One waker per registered channel; each notifies both condvars so
    /// blocked threads re-check the flag.
    wakers: Mutex<Vec<Waker>>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_cancelled(&self) -> bool {
        self.shared.flag.load(Ordering::Acquire)
    }

    /// Cancel: wake every blocked operation on registered channels.
    /// Idempotent.
    ///
    /// The waker list is drained *before* any waker runs, so no
    /// notification happens while the registry lock is held (a waker
    /// takes its channel's state lock; holding the registry lock across
    /// that would serialize every channel's wakeup behind one mutex and
    /// deadlock if a late registration raced the drain). Cancellation is
    /// sticky, so drained wakers are never needed again: channels built
    /// after cancel observe the flag directly.
    pub fn cancel(&self) {
        self.shared.flag.store(true, Ordering::Release);
        let wakers = std::mem::take(&mut *plock(&self.shared.wakers));
        for w in wakers {
            (w.probe)(true);
        }
    }

    /// Register a channel's waker; prunes dead entries and dedupes
    /// repeated registrations for the same channel so a long-lived token
    /// shared across many short-lived channels cannot grow its registry
    /// (or wake the same channel twice per cancel).
    fn register(&self, channel_id: usize, probe: Box<dyn Fn(bool) -> bool + Send + Sync>) {
        if self.is_cancelled() {
            // Sticky-cancelled: the new channel's operations observe the
            // flag themselves; registering would only leak the waker.
            return;
        }
        let mut wakers = plock(&self.shared.wakers);
        wakers.retain(|w| (w.probe)(false));
        if wakers.iter().any(|w| w.channel_id == channel_id) {
            return;
        }
        wakers.push(Waker { channel_id, probe });
    }

    /// Registered live wakers (racy; for tests).
    pub fn registered(&self) -> usize {
        plock(&self.shared.wakers).len()
    }
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Inner<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cancel: Arc<CancelShared>,
}

impl<T> Inner<T> {
    fn cancelled(&self) -> bool {
        self.cancel.flag.load(Ordering::Acquire)
    }
}

/// Create a bounded MPSC channel holding at most `capacity` messages,
/// whose blocking operations also abort (as if disconnected) once
/// `token` is cancelled.
pub fn bounded_cancellable<T: Send + 'static>(
    capacity: usize,
    token: &CancelToken,
) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let inner = Arc::new(Inner {
        capacity,
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cancel: Arc::clone(&token.shared),
    });
    let channel_id = Arc::as_ptr(&inner) as usize;
    let weak = Arc::downgrade(&inner);
    token.register(
        channel_id,
        Box::new(move |notify| {
            let Some(inner) = weak.upgrade() else {
                return false;
            };
            if notify {
                // Touch the lock so wakes cannot race a thread that has
                // checked the flag but not yet parked on the condvar.
                drop(plock(&inner.state));
                inner.not_empty.notify_all();
                inner.not_full.notify_all();
            }
            true
        }),
    );
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Sender<T> {
    /// Blocking send; fails (returning the message) once the receiver
    /// has been dropped or the channel is cancelled.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = plock(&self.inner.state);
        loop {
            if self.inner.cancelled() || !state.receiver_alive {
                return Err(SendError(msg));
            }
            if state.queue.len() < self.inner.capacity {
                state.queue.push_back(msg);
                drop(state);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .inner
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocking batched send: moves every message in `batch` into the
    /// queue, pushing as many as the capacity allows per lock
    /// acquisition and issuing one condvar notification per acquisition
    /// instead of one per message. Blocks for room between rounds. On
    /// disconnect or cancellation returns the messages not yet sent
    /// (prefix already delivered stays delivered — the queue bound is
    /// never exceeded and order is preserved).
    pub fn send_batch(&self, batch: &mut VecDeque<T>) -> Result<(), SendError<VecDeque<T>>> {
        while !batch.is_empty() {
            {
                let mut state = plock(&self.inner.state);
                loop {
                    if self.inner.cancelled() || !state.receiver_alive {
                        return Err(SendError(std::mem::take(batch)));
                    }
                    let room = self.inner.capacity - state.queue.len();
                    if room > 0 {
                        let n = room.min(batch.len());
                        state.queue.extend(batch.drain(..n));
                        break;
                    }
                    state = self
                        .inner
                        .not_full
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
            // One wakeup amortized over the whole round: there is a
            // single receiver to wake.
            self.inner.not_empty.notify_one();
        }
        Ok(())
    }

    /// Messages currently queued (racy; for observability only).
    pub fn len(&self) -> usize {
        plock(&self.inner.state).queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        plock(&self.inner.state).senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = plock(&self.inner.state);
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            // Receivers blocked on an empty queue must observe the
            // disconnect.
            self.inner.not_empty.notify_all();
        }
    }
}

pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Receiver<T> {
    /// Blocking receive; fails once the queue is empty and every sender
    /// has been dropped, or the channel is cancelled. Cancellation takes
    /// priority over draining: a cancelled pipeline stops moving data.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = plock(&self.inner.state);
        loop {
            if self.inner.cancelled() {
                return Err(RecvError);
            }
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .inner
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Messages currently queued (racy; for observability only).
    pub fn len(&self) -> usize {
        plock(&self.inner.state).queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking batched receive: drains up to `max` queued messages
    /// into `out` under one lock acquisition, waking blocked producers
    /// with one notification for the whole drain. Returns the number of
    /// messages taken — `Ok(0)` means "empty but connected" (the caller
    /// should fall back to blocking [`recv`](Self::recv)). Fails like
    /// `recv`: cancellation takes priority over queued data.
    pub fn try_recv_batch<E: Extend<T>>(
        &self,
        max: usize,
        out: &mut E,
    ) -> Result<usize, RecvError> {
        let taken;
        {
            let mut state = plock(&self.inner.state);
            if self.inner.cancelled() {
                return Err(RecvError);
            }
            taken = max.min(state.queue.len());
            if taken == 0 {
                return if state.senders == 0 {
                    Err(RecvError)
                } else {
                    Ok(0)
                };
            }
            out.extend(state.queue.drain(..taken));
        }
        if taken == 1 {
            self.inner.not_full.notify_one();
        } else {
            self.inner.not_full.notify_all();
        }
        Ok(taken)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        plock(&self.inner.state).receiver_alive = false;
        // Senders blocked on a full queue must observe the disconnect.
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded_cancellable(4, &CancelToken::new());
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = bounded_cancellable::<u32>(2, &CancelToken::new());
        tx.send(9).unwrap();
        let tx2 = tx.clone();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_all_receivers_drop() {
        let (tx, rx) = bounded_cancellable::<u32>(2, &CancelToken::new());
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn full_queue_blocks_until_drained() {
        let (tx, rx) = bounded_cancellable(1, &CancelToken::new());
        tx.send(0).unwrap();
        let h = thread::spawn(move || {
            tx.send(1).unwrap(); // blocks until the reader drains
            "sent"
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(h.join().unwrap(), "sent");
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded_cancellable(1, &CancelToken::new());
        tx.send(0).unwrap();
        let h = thread::spawn(move || tx.send(1).is_err());
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(h.join().unwrap(), "send must fail once receivers are gone");
    }

    #[test]
    fn cancel_wakes_blocked_sender() {
        let token = CancelToken::new();
        let (tx, _rx) = bounded_cancellable(1, &token);
        tx.send(0).unwrap();
        let h = thread::spawn(move || tx.send(1).is_err());
        thread::sleep(Duration::from_millis(20));
        token.cancel();
        assert!(h.join().unwrap(), "send must fail once cancelled");
    }

    #[test]
    fn cancel_wakes_blocked_receiver() {
        let token = CancelToken::new();
        let (_tx, rx) = bounded_cancellable::<u32>(1, &token);
        let h = thread::spawn(move || rx.recv().is_err());
        thread::sleep(Duration::from_millis(20));
        token.cancel();
        assert!(h.join().unwrap(), "recv must fail once cancelled");
    }

    #[test]
    fn cancel_is_sticky_and_beats_queued_data() {
        let token = CancelToken::new();
        let (tx, rx) = bounded_cancellable(4, &token);
        tx.send(1).unwrap();
        token.cancel();
        assert_eq!(rx.recv(), Err(RecvError));
        assert!(tx.send(2).is_err());
        assert!(token.is_cancelled());
    }

    #[test]
    fn uncancelled_token_is_inert() {
        let token = CancelToken::new();
        let (tx, rx) = bounded_cancellable(2, &token);
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn send_batch_preserves_order_and_bound() {
        let (tx, rx) = bounded_cancellable(4, &CancelToken::new());
        let mut batch: VecDeque<i32> = (0..20).collect();
        let h = thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match rx.try_recv_batch(8, &mut got) {
                    Ok(0) => match rx.recv() {
                        Ok(v) => got.push(v),
                        Err(RecvError) => break,
                    },
                    Ok(_) => {}
                    Err(RecvError) => break,
                }
                // The queue bound must never be exceeded mid-batch.
                assert!(rx.inner.state.lock().unwrap().queue.len() <= 4);
            }
            got
        });
        tx.send_batch(&mut batch).unwrap();
        assert!(batch.is_empty());
        drop(tx);
        assert_eq!(h.join().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_batch_drains_up_to_max() {
        let (tx, rx) = bounded_cancellable(8, &CancelToken::new());
        for i in 0..6 {
            tx.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(4, &mut out), Ok(4));
        assert_eq!(rx.try_recv_batch(4, &mut out), Ok(2));
        assert_eq!(rx.try_recv_batch(4, &mut out), Ok(0), "empty but connected");
        drop(tx);
        assert_eq!(rx.try_recv_batch(4, &mut out), Err(RecvError));
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn send_batch_returns_remainder_on_disconnect() {
        let (tx, rx) = bounded_cancellable(2, &CancelToken::new());
        let mut batch: VecDeque<i32> = (0..10).collect();
        let h = thread::spawn(move || {
            // Take a couple then hang up mid-batch.
            let a = rx.recv().unwrap();
            let b = rx.recv().unwrap();
            drop(rx);
            (a, b)
        });
        let err = tx.send_batch(&mut batch).expect_err("receiver hung up");
        assert_eq!(h.join().unwrap(), (0, 1));
        // Delivered prefix + returned remainder cover the batch exactly.
        let remainder = err.0;
        assert!(remainder.len() >= 6, "at most 2 consumed + 2 in flight");
        let first = *remainder.front().unwrap();
        assert_eq!(
            remainder.iter().copied().collect::<Vec<_>>(),
            (first..10).collect::<Vec<_>>(),
            "remainder is a contiguous suffix"
        );
    }

    #[test]
    fn cancel_mid_batch_returns_remainder() {
        let token = CancelToken::new();
        let (tx, _rx) = bounded_cancellable(2, &token);
        let h = thread::spawn(move || {
            let mut batch: VecDeque<i32> = (0..10).collect();
            tx.send_batch(&mut batch).expect_err("cancelled")
        });
        thread::sleep(Duration::from_millis(20));
        token.cancel();
        let SendError(remainder) = h.join().unwrap();
        assert!(!remainder.is_empty());
        assert_eq!(*remainder.back().unwrap(), 9);
    }

    #[test]
    fn cancel_beats_queued_data_in_batch_recv() {
        let token = CancelToken::new();
        let (tx, rx) = bounded_cancellable(4, &token);
        tx.send(1).unwrap();
        token.cancel();
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(4, &mut out), Err(RecvError));
        assert!(out.is_empty());
    }

    #[test]
    fn waker_registry_dedupes_and_prunes() {
        let token = CancelToken::new();
        let pair = bounded_cancellable::<u32>(1, &token);
        assert_eq!(token.registered(), 1);
        let pair2 = bounded_cancellable::<u32>(1, &token);
        assert_eq!(token.registered(), 2, "distinct channels both register");
        drop(pair);
        // Dead entries are pruned on the next registration.
        let pair3 = bounded_cancellable::<u32>(1, &token);
        assert_eq!(token.registered(), 2);
        drop(pair2);
        drop(pair3);
        token.cancel();
        assert_eq!(token.registered(), 0, "cancel drains the registry");
        let _pair4 = bounded_cancellable::<u32>(1, &token);
        assert_eq!(token.registered(), 0, "post-cancel channels skip registry");
    }

    #[test]
    fn mpmc_delivers_each_message_once() {
        let (tx, rx) = bounded_cancellable(8, &CancelToken::new());
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = consumer.join().unwrap();
        all.sort_unstable();
        let mut expect: Vec<i32> = (0..3)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
