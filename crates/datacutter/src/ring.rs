//! Lock-free single-producer/single-consumer ring buffer.
//!
//! The mutex+condvar channel ([`crate::channel`]) is the general data
//! plane: N→1 fan-in, cancellable, batched. But the overwhelmingly
//! common link shape in a decomposed pipeline is one producer copy
//! feeding one consumer copy — every width-1→width-1 stage boundary and
//! every per-copy egress stream — and there the mutex is pure overhead. This
//! ring keeps the channel's exact semantics (bounded backpressure,
//! blocking send/recv, batched variants, disconnect detection,
//! cancel-beats-queued-data) on two cache-line-padded atomic cursors:
//!
//! * The producer owns `tail`, the consumer owns `head`; both only ever
//!   *read* the other's cursor. A slot is published by the `tail` store
//!   with `Release` ordering and observed by the consumer's `Acquire`
//!   load, so the payload write happens-before the pop that reads it
//!   (and symmetrically for the `head` store freeing a slot).
//! * Each endpoint keeps a local cache of the peer's cursor and reloads
//!   it only when the ring looks full (producer) or empty (consumer).
//!   A steady-state push or pop therefore touches one shared cache line
//!   (the slot) plus its own cursor, not the peer's — the reload's
//!   `Acquire` still pairs with the peer's `Release` store, so the
//!   publish ordering is unchanged, and a stale cache only ever
//!   under-reports available room/data (backpressure and FIFO are
//!   judged against the real cursors on reload).
//! * Cursors are monotonically increasing and wrap through a
//!   power-of-two slot array (`index & mask`), so occupancy is a single
//!   wrapping subtraction and the full/empty states are unambiguous
//!   without a separate flag. The *logical* bound is the requested
//!   capacity, which may be below the allocated power of two — the
//!   backpressure bound callers observe is exactly what they asked for.
//! * Waits are adaptive spin-then-park: a bounded spin (`spin_loop`,
//!   then `yield_now`) covers the common case where the peer is actively
//!   moving packets, after which the thread parks on a condvar that the
//!   fast path never touches — the peer only takes the park mutex when
//!   the `*_parked` flag says someone is actually sleeping. Parks use a
//!   bounded timeout, so a lost wakeup (or a cancel racing a park)
//!   degrades to a 1 ms hiccup rather than a hang.
//!
//! Cancellation reuses the channel's [`CancelToken`]: the ring registers
//! a waker that pokes both condvars, and every blocking operation checks
//! the token ahead of queued data, matching the channel's
//! cancel-beats-queued-data rule.

use crate::channel::{CancelToken, RecvError, SendError};
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Poison-tolerant lock (the park mutex guards no data).
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Busy-spins before yielding the core.
const SPINS: u32 = 128;
/// `yield_now` rounds after spinning, before parking on the condvar.
const YIELDS: u32 = 16;
/// Park timeout: bounds the cost of any wakeup race to one tick.
const PARK: Duration = Duration::from_millis(1);

/// Pad to a cache line so the producer's `tail` and the consumer's
/// `head` never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct RingShared<T> {
    /// Logical capacity: the backpressure bound callers asked for.
    bound: usize,
    /// Slot-index mask (`slots.len() - 1`, power of two).
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor: next slot to pop. Monotonic, wraps through
    /// `mask`.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: next slot to fill.
    tail: CachePadded<AtomicUsize>,
    tx_alive: AtomicBool,
    rx_alive: AtomicBool,
    cancel: Option<CancelToken>,
    /// Slow-path parking. The fast path never touches these; a peer
    /// takes the mutex only when the corresponding `*_parked` flag is
    /// set.
    park: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    rx_parked: AtomicBool,
    tx_parked: AtomicBool,
}

// The slot array is shared raw storage; the SPSC cursor protocol is what
// makes access exclusive (producer writes only unpublished slots,
// consumer reads only published ones).
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> RingShared<T> {
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Wake a parked consumer, if any. Touches the park lock so the wake
    /// cannot slip between the consumer's flag-set and its condvar wait.
    fn wake_rx(&self) {
        if self.rx_parked.load(Ordering::SeqCst) {
            drop(plock(&self.park));
            self.not_empty.notify_all();
        }
    }

    /// Wake a parked producer, if any.
    fn wake_tx(&self) {
        if self.tx_parked.load(Ordering::SeqCst) {
            drop(plock(&self.park));
            self.not_full.notify_all();
        }
    }
}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Only reachable once both endpoints are gone; drop whatever is
        // still queued.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut i = head;
        while i != tail {
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Create a bounded SPSC ring holding at most `capacity` messages.
/// Neither endpoint is cloneable — the single-producer/single-consumer
/// contract is enforced by the type system. With a `cancel` token,
/// blocking operations abort like a disconnect once the token fires,
/// and cancellation beats queued data exactly as on the channel.
pub fn spsc<T: Send + 'static>(
    capacity: usize,
    cancel: Option<&CancelToken>,
) -> (RingSender<T>, RingReceiver<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let len = capacity.next_power_of_two();
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..len)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(RingShared {
        bound: capacity,
        mask: len - 1,
        slots,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        tx_alive: AtomicBool::new(true),
        rx_alive: AtomicBool::new(true),
        cancel: cancel.cloned(),
        park: Mutex::new(()),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        rx_parked: AtomicBool::new(false),
        tx_parked: AtomicBool::new(false),
    });
    if let Some(token) = cancel {
        let weak = Arc::downgrade(&shared);
        token.register_waker(
            Arc::as_ptr(&shared) as usize,
            Box::new(move |notify| {
                let Some(s) = weak.upgrade() else {
                    return false;
                };
                if notify {
                    drop(plock(&s.park));
                    s.not_empty.notify_all();
                    s.not_full.notify_all();
                }
                true
            }),
        );
    }
    (
        RingSender {
            shared: Arc::clone(&shared),
            head_cache: Cell::new(0),
        },
        RingReceiver {
            shared,
            tail_cache: Cell::new(0),
        },
    )
}

/// Producing half of an SPSC ring. Not cloneable.
pub struct RingSender<T> {
    shared: Arc<RingShared<T>>,
    /// Producer-local cache of the consumer's `head` cursor, reloaded
    /// only when the ring looks full. A steady-state push then touches
    /// no shared line except the slot and `tail`, instead of bouncing
    /// the consumer's cache line on every message.
    head_cache: Cell<usize>,
}

impl<T: Send> RingSender<T> {
    /// Producer-side push; `Err` returns the value when the ring is at
    /// its logical bound. Does not wake the consumer — callers batch
    /// that ([`RingShared::wake_rx`]).
    fn try_push(&self, v: T) -> Result<(), T> {
        let s = &*self.shared;
        let tail = s.tail.0.load(Ordering::Relaxed); // sole writer
        if tail.wrapping_sub(self.head_cache.get()) >= s.bound {
            // Looks full against the stale cursor — reload. The
            // `Acquire` pairs with the consumer's `Release` store of
            // `head`, so slots at or past `head - bound` are free to
            // overwrite.
            self.head_cache.set(s.head.0.load(Ordering::Acquire));
            if tail.wrapping_sub(self.head_cache.get()) >= s.bound {
                return Err(v);
            }
        }
        unsafe { (*s.slots[tail & s.mask].get()).write(v) };
        s.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }
    /// Blocking send; fails (returning the message) once the receiver is
    /// dropped or the ring's token is cancelled.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let s = &*self.shared;
        let mut msg = msg;
        let mut tries = 0u32;
        loop {
            if s.cancelled() || !s.rx_alive.load(Ordering::Acquire) {
                return Err(SendError(msg));
            }
            match self.try_push(msg) {
                Ok(()) => {
                    s.wake_rx();
                    return Ok(());
                }
                Err(m) => msg = m,
            }
            if tries < SPINS {
                std::hint::spin_loop();
            } else if tries < SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                return self.send_parked(msg);
            }
            tries += 1;
        }
    }

    /// Park-phase tail of [`send`](Self::send): wait for room on the
    /// condvar with a bounded timeout.
    fn send_parked(&self, msg: T) -> Result<(), SendError<T>> {
        let s = &*self.shared;
        let mut msg = msg;
        let mut guard = plock(&s.park);
        s.tx_parked.store(true, Ordering::SeqCst);
        let result = loop {
            if s.cancelled() || !s.rx_alive.load(Ordering::Acquire) {
                break Err(SendError(msg));
            }
            match self.try_push(msg) {
                Ok(()) => break Ok(()),
                Err(m) => msg = m,
            }
            guard = s
                .not_full
                .wait_timeout(guard, PARK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        s.tx_parked.store(false, Ordering::SeqCst);
        drop(guard);
        if result.is_ok() {
            s.wake_rx();
        }
        result
    }

    /// Blocking batched send: moves every message in `batch` into the
    /// ring, waking the consumer once per round instead of once per
    /// message. On disconnect or cancellation returns the messages not
    /// yet sent (the delivered prefix stays delivered), matching
    /// [`crate::channel::Sender::send_batch`].
    pub fn send_batch(&self, batch: &mut VecDeque<T>) -> Result<(), SendError<VecDeque<T>>> {
        let s = &*self.shared;
        while !batch.is_empty() {
            if s.cancelled() || !s.rx_alive.load(Ordering::Acquire) {
                return Err(SendError(std::mem::take(batch)));
            }
            let mut pushed = 0usize;
            while let Some(v) = batch.pop_front() {
                match self.try_push(v) {
                    Ok(()) => pushed += 1,
                    Err(v) => {
                        batch.push_front(v);
                        break;
                    }
                }
            }
            if pushed > 0 {
                s.wake_rx();
                continue;
            }
            // No room: fall into the blocking path for one message, then
            // resume bulk pushing.
            let head = batch.pop_front().expect("batch is non-empty");
            if let Err(SendError(v)) = self.send(head) {
                batch.push_front(v);
                return Err(SendError(std::mem::take(batch)));
            }
        }
        Ok(())
    }

    /// Messages currently queued (racy; for observability only).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        self.shared.tx_alive.store(false, Ordering::Release);
        // A parked consumer must observe the disconnect promptly.
        drop(plock(&self.shared.park));
        self.shared.not_empty.notify_all();
    }
}

/// Consuming half of an SPSC ring. Not cloneable.
pub struct RingReceiver<T> {
    shared: Arc<RingShared<T>>,
    /// Consumer-local cache of the producer's `tail` cursor, reloaded
    /// only when the ring looks empty (mirror of
    /// [`RingSender::head_cache`]).
    tail_cache: Cell<usize>,
}

impl<T: Send> RingReceiver<T> {
    /// Consumer-side pop. Does not wake the producer — callers batch
    /// that ([`RingShared::wake_tx`]).
    fn try_pop(&self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed); // sole writer
        if head == self.tail_cache.get() {
            // Looks empty against the stale cursor — reload. The
            // `Acquire` pairs with the producer's `Release` store of
            // `tail`, so every slot below it is published.
            self.tail_cache.set(s.tail.0.load(Ordering::Acquire));
            if head == self.tail_cache.get() {
                return None;
            }
        }
        let v = unsafe { (*s.slots[head & s.mask].get()).assume_init_read() };
        s.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }
    /// Blocking receive; fails once the ring is empty and the sender is
    /// gone, or the token is cancelled (cancellation beats queued data).
    pub fn recv(&self) -> Result<T, RecvError> {
        let s = &*self.shared;
        let mut tries = 0u32;
        loop {
            if s.cancelled() {
                return Err(RecvError);
            }
            if let Some(v) = self.try_pop() {
                s.wake_tx();
                return Ok(v);
            }
            if !s.tx_alive.load(Ordering::Acquire) {
                // The producer may have pushed between our pop and its
                // drop; one more look settles it.
                return match self.try_pop() {
                    Some(v) => {
                        s.wake_tx();
                        Ok(v)
                    }
                    None => Err(RecvError),
                };
            }
            if tries < SPINS {
                std::hint::spin_loop();
            } else if tries < SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                return self.recv_parked();
            }
            tries += 1;
        }
    }

    /// Park-phase tail of [`recv`](Self::recv).
    fn recv_parked(&self) -> Result<T, RecvError> {
        let s = &*self.shared;
        let mut guard = plock(&s.park);
        s.rx_parked.store(true, Ordering::SeqCst);
        let result = loop {
            if s.cancelled() {
                break Err(RecvError);
            }
            if let Some(v) = self.try_pop() {
                break Ok(v);
            }
            if !s.tx_alive.load(Ordering::Acquire) {
                break self.try_pop().ok_or(RecvError);
            }
            guard = s
                .not_empty
                .wait_timeout(guard, PARK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        s.rx_parked.store(false, Ordering::SeqCst);
        drop(guard);
        if result.is_ok() {
            s.wake_tx();
        }
        result
    }

    /// Non-blocking batched receive: drains up to `max` queued messages
    /// into `out`, waking a blocked producer once for the whole drain.
    /// `Ok(0)` means "empty but connected"; fails like
    /// [`recv`](Self::recv), with cancellation beating queued data.
    pub fn try_recv_batch<E: Extend<T>>(
        &self,
        max: usize,
        out: &mut E,
    ) -> Result<usize, RecvError> {
        let s = &*self.shared;
        if s.cancelled() {
            return Err(RecvError);
        }
        let mut taken = 0usize;
        while taken < max {
            match self.try_pop() {
                Some(v) => {
                    out.extend(std::iter::once(v));
                    taken += 1;
                }
                None => break,
            }
        }
        if taken > 0 {
            s.wake_tx();
            return Ok(taken);
        }
        if !s.tx_alive.load(Ordering::Acquire) {
            return match self.try_pop() {
                Some(v) => {
                    out.extend(std::iter::once(v));
                    s.wake_tx();
                    Ok(1)
                }
                None => Err(RecvError),
            };
        }
        Ok(0)
    }

    /// Messages currently queued (racy; for observability only).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.rx_alive.store(false, Ordering::Release);
        // A parked producer must observe the disconnect promptly.
        drop(plock(&self.shared.park));
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = spsc(4, None);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn capacity_below_power_of_two_is_the_real_bound() {
        // bound 3 inside a 4-slot array: the 4th push must block/fail.
        let (tx, rx) = spsc(3, None);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 3);
        let h = thread::spawn(move || tx.send(99).map(|()| "sent"));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(h.join().unwrap().map_err(|_| ()), Ok("sent"));
        assert_eq!(rx.len(), 3);
    }

    #[test]
    fn recv_errors_after_sender_drop() {
        let (tx, rx) = spsc::<u32>(2, None);
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receiver_drop() {
        let (tx, rx) = spsc::<u32>(2, None);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = spsc(1, None);
        tx.send(0).unwrap();
        let h = thread::spawn(move || tx.send(1).is_err());
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(
            h.join().unwrap(),
            "send must fail once the receiver is gone"
        );
    }

    #[test]
    fn cancel_wakes_blocked_sender_and_receiver() {
        let token = CancelToken::new();
        let (tx, rx) = spsc(1, Some(&token));
        tx.send(0).unwrap();
        let hs = thread::spawn(move || tx.send(1).is_err());
        let hr = thread::spawn(move || {
            // Queued data is present, but cancel must still win.
            thread::sleep(Duration::from_millis(30));
            rx.recv().is_err()
        });
        thread::sleep(Duration::from_millis(10));
        token.cancel();
        assert!(hs.join().unwrap(), "send must fail once cancelled");
        assert!(hr.join().unwrap(), "recv must fail once cancelled");
    }

    #[test]
    fn cancel_beats_queued_data() {
        let token = CancelToken::new();
        let (tx, rx) = spsc(4, Some(&token));
        tx.send(1).unwrap();
        token.cancel();
        assert_eq!(rx.recv(), Err(RecvError));
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(4, &mut out), Err(RecvError));
        assert!(out.is_empty());
        assert!(tx.send(2).is_err());
    }

    #[test]
    fn try_recv_batch_drains_up_to_max() {
        let (tx, rx) = spsc(8, None);
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
        let (tx, rx) = spsc(2, None);
        let mut batch: VecDeque<i32> = (0..10).collect();
        let h = thread::spawn(move || {
            let a = rx.recv().unwrap();
            let b = rx.recv().unwrap();
            drop(rx);
            (a, b)
        });
        let err = tx.send_batch(&mut batch).expect_err("receiver hung up");
        assert_eq!(h.join().unwrap(), (0, 1));
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
    fn wraparound_preserves_order_across_many_laps() {
        let (tx, rx) = spsc(4, None);
        let h = thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        for i in 0..10_000u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(h.join().unwrap(), (0..10_000).collect::<Vec<u64>>());
    }

    #[test]
    fn queued_items_are_dropped_with_the_ring() {
        use std::sync::atomic::AtomicU64;
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = spsc(8, None);
        for _ in 0..5 {
            assert!(tx.send(Counted).is_ok());
        }
        drop(rx.recv().unwrap()); // one consumed
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::Relaxed), 5, "4 queued + 1 consumed");
    }
}
