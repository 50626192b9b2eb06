//! The buffer abstraction (Section 2.2) and the data plane's memory pool.
//!
//! "A buffer represents a contiguous memory region containing useful data.
//! Streams transfer data in fixed size buffers." — buffers are immutable
//! once sealed ([`Buffer`]); a filter writes each packet into a vector
//! and seals it, one packet per buffer.
//!
//! ## Zero-copy and pooling
//!
//! [`Buffer::from_vec`] takes ownership of the allocation without copying
//! (clones share it; sub-ranges adjust `start`/`end` only). A size-classed
//! [`BufferPool`] recycles packet storage across the pipeline: allocate
//! with [`BufferPool::alloc`], seal with [`BufferPool::seal`] (or mark an
//! existing buffer with [`Buffer::into_pooled`]), and when the last clone
//! of a pooled buffer drops, its allocation returns to the pool instead of
//! the global allocator. Pool hit/miss counters feed `cgp-obs` metrics and
//! the executor's `StageStats`.

use crate::error::{FilterError, FilterResult};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Heap storage behind a [`Buffer`]: the payload bytes plus, for pooled
/// buffers, a handle back to the pool that recycles the allocation when
/// the last clone drops.
struct SharedVec {
    bytes: Vec<u8>,
    /// Set for pooled buffers; the drop of the last `Arc<SharedVec>`
    /// returns `bytes` (allocation, not contents) to this pool.
    pool: Option<Weak<PoolShared>>,
}

impl Drop for SharedVec {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.as_ref().and_then(Weak::upgrade) {
            pool.put(std::mem::take(&mut self.bytes));
        }
    }
}

/// Backing storage: an owned (possibly pooled) heap allocation, or a
/// pre-shared `Arc<[u8]>`. Clones share the allocation
/// and sub-ranges adjust `start`/`end` only.
#[derive(Clone)]
enum Storage {
    Owned(Arc<SharedVec>),
    Shared(Arc<[u8]>),
}

/// An immutable, cheaply-clonable chunk of stream data.
#[derive(Clone)]
pub struct Buffer {
    storage: Storage,
    start: usize,
    end: usize,
}

impl Buffer {
    /// Wrap a vector without copying; clones share the allocation.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let end = v.len();
        Buffer {
            storage: Storage::Owned(Arc::new(SharedVec {
                bytes: v,
                pool: None,
            })),
            start: 0,
            end,
        }
    }

    /// Wrap an already-shared slice without copying.
    pub fn from_arc(s: Arc<[u8]>) -> Self {
        let end = s.len();
        Buffer {
            storage: Storage::Shared(s),
            start: 0,
            end,
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.storage {
            Storage::Owned(v) => &v.bytes,
            Storage::Shared(a) => a,
        };
        &whole[self.start..self.end]
    }

    /// The payload as an `Arc<[u8]>` for cheap cross-thread handoff.
    ///
    /// Free when the buffer already wraps a full-range shared slice;
    /// otherwise one copy, after which the result owns its allocation
    /// independently of this buffer (and of any pool).
    pub fn as_arc_slice(&self) -> Arc<[u8]> {
        match &self.storage {
            Storage::Shared(a) if self.start == 0 && self.end == a.len() => Arc::clone(a),
            _ => Arc::from(self.as_slice()),
        }
    }

    /// Mark this buffer's allocation for recycling into `pool` when the
    /// last clone drops. Zero-copy when this is the only handle to an
    /// owned allocation; otherwise (shared or already-cloned
    /// storage) the buffer is returned unchanged.
    pub fn into_pooled(mut self, pool: &BufferPool) -> Buffer {
        if let Storage::Owned(arc) = &mut self.storage {
            if let Some(sv) = Arc::get_mut(arc) {
                if sv.pool.is_none() {
                    sv.pool = Some(Arc::downgrade(&pool.shared));
                }
            }
        }
        self
    }

    /// Decode this buffer as one little-endian `u64`.
    ///
    /// Returns a structured [`Malformed`](crate::error::ErrorKind::Malformed)
    /// error on a short or oversized payload instead of panicking —
    /// stream data crosses trust boundaries, so demo/test filters must
    /// not `unwrap` a `try_into` on it. `who` names the decoding filter
    /// for the error report.
    pub fn u64_le(&self, who: &str) -> FilterResult<u64> {
        let bytes: [u8; 8] = self.as_slice().try_into().map_err(|_| {
            FilterError::malformed(
                who,
                format!("expected an 8-byte u64 packet, got {} bytes", self.len()),
            )
        })?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Decode a little-endian `u64` at byte offset `at` (packets often
    /// carry several fields). Structured error on out-of-range reads —
    /// including an offset already past the end of an empty or truncated
    /// packet; this path must never index-panic, since it decodes data
    /// that crosses trust boundaries.
    pub fn u64_le_at(&self, at: usize, who: &str) -> FilterResult<u64> {
        let bytes = at
            .checked_add(8)
            .and_then(|end| self.as_slice().get(at..end))
            .ok_or_else(|| {
                FilterError::malformed(
                    who,
                    format!(
                        "u64 field at offset {at} overruns a {}-byte packet",
                        self.len()
                    ),
                )
            })?;
        let bytes: [u8; 8] = bytes.try_into().expect("checked 8-byte range");
        Ok(u64::from_le_bytes(bytes))
    }

    /// Zero-copy sub-range (shares the backing allocation).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Buffer {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Buffer {
            storage: self.storage.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Buffer {}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Buffer({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Buffer {
    fn from(v: Vec<u8>) -> Self {
        Buffer::from_vec(v)
    }
}

// ---------------------------------------------------------------------------
// buffer pool

/// Smallest pooled size class, 2^6 = 64 bytes; tiny control packets
/// below this share one class.
const MIN_CLASS_SHIFT: u32 = 6;
/// Number of power-of-two size classes: 64 B .. 2 GiB.
const CLASSES: usize = 26;
/// Default cap on idle allocations kept per size class.
const DEFAULT_MAX_PER_CLASS: usize = 64;

/// Snapshot of a pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `alloc` calls served from a recycled allocation.
    pub hits: u64,
    /// `alloc` calls that had to touch the global allocator.
    pub misses: u64,
    /// Allocations returned to the pool by pooled-buffer drops.
    pub recycled: u64,
    /// Returned allocations discarded because their class was full.
    pub discarded: u64,
}

struct PoolShared {
    /// Idle allocations, grouped by power-of-two capacity class.
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    max_per_class: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

fn class_of(capacity: usize) -> usize {
    let bits = usize::BITS - capacity.max(1).saturating_sub(1).leading_zeros();
    (bits.saturating_sub(MIN_CLASS_SHIFT) as usize).min(CLASSES - 1)
}

impl PoolShared {
    /// Return an allocation to its class (keeping capacity, clearing
    /// contents); drops it on the floor when the class is full.
    fn put(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let mut class = self.classes[class_of(v.capacity())]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if class.len() < self.max_per_class {
            class.push(v);
            drop(class);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            drop(class);
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A size-classed recycling pool for packet storage.
///
/// Cloning shares the pool. The pool never blocks: a miss falls through
/// to the global allocator, and returns to a full class are discarded.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    pub fn new() -> Self {
        Self::with_max_per_class(DEFAULT_MAX_PER_CLASS)
    }

    /// Cap the idle allocations kept per size class (bounds the pool's
    /// worst-case footprint at `cap × Σ class sizes`).
    pub(crate) fn with_max_per_class(cap: usize) -> Self {
        BufferPool {
            shared: Arc::new(PoolShared {
                classes: (0..CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
                max_per_class: cap.max(1),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            }),
        }
    }

    /// An empty vector with at least `capacity` bytes of room — recycled
    /// when the matching size class has one (hit), freshly allocated
    /// otherwise (miss).
    pub fn alloc(&self, capacity: usize) -> Vec<u8> {
        let (v, hit) = self.alloc_counted(capacity);
        let _ = hit;
        v
    }

    /// [`alloc`](Self::alloc), also reporting whether it was a pool hit
    /// (for per-stage accounting).
    pub fn alloc_counted(&self, capacity: usize) -> (Vec<u8>, bool) {
        let class = class_of(capacity);
        // A recycled vec from this class may still be smaller than
        // `capacity` if capacity is not a power of two; reserve fixes it
        // up in place (usually a no-op).
        let recycled = {
            let mut c = self.shared.classes[class]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            c.pop()
        };
        match recycled {
            Some(mut v) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                v.reserve(capacity);
                (v, true)
            }
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                (Vec::with_capacity(capacity), false)
            }
        }
    }

    /// Seal a vector into a pooled [`Buffer`]: zero-copy now, and the
    /// allocation returns here when the last clone drops.
    pub fn seal(&self, v: Vec<u8>) -> Buffer {
        let end = v.len();
        Buffer {
            storage: Storage::Owned(Arc::new(SharedVec {
                bytes: v,
                pool: Some(Arc::downgrade(&self.shared)),
            })),
            start: 0,
            end,
        }
    }

    /// Counter snapshot (for metrics / `StageStats`).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            recycled: self.shared.recycled.load(Ordering::Relaxed),
            discarded: self.shared.discarded.load(Ordering::Relaxed),
        }
    }

    /// Idle allocations currently held (all classes; racy, for tests).
    pub fn idle(&self) -> usize {
        self.shared
            .classes
            .iter()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_view() {
        let b = Buffer::from_vec(vec![0, 1, 2, 3, 4]);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn u64_decode_round_trips() {
        let b = Buffer::from_vec(0xdead_beef_u64.to_le_bytes().to_vec());
        assert_eq!(b.u64_le("t").unwrap(), 0xdead_beef);
    }

    #[test]
    fn short_packet_is_a_structured_malformed_error() {
        let b = Buffer::from_vec(vec![1, 2, 3]);
        let e = b.u64_le("sum[0]").unwrap_err();
        assert_eq!(e.kind, crate::error::ErrorKind::Malformed);
        assert_eq!(e.filter, "sum[0]");
        assert!(e.message.contains("3 bytes"), "{}", e.message);
    }

    #[test]
    fn u64_at_offset_and_overrun() {
        let mut v = 7u64.to_le_bytes().to_vec();
        v.extend_from_slice(&9u64.to_le_bytes());
        let b = Buffer::from_vec(v);
        assert_eq!(b.u64_le_at(0, "t").unwrap(), 7);
        assert_eq!(b.u64_le_at(8, "t").unwrap(), 9);
        let e = b.u64_le_at(9, "t").unwrap_err();
        assert_eq!(e.kind, crate::error::ErrorKind::Malformed);
        assert!(b.u64_le_at(usize::MAX, "t").is_err(), "offset overflow");
    }

    /// Regression: a zero-length packet (hostile or truncated input) must
    /// yield `Malformed` from every offset — including offsets that are
    /// themselves past the buffer end — never an index panic.
    #[test]
    fn u64_at_on_zero_length_packet_is_malformed_not_a_panic() {
        let b = Buffer::from_vec(Vec::new());
        assert_eq!(b.len(), 0);
        for at in [0usize, 1, 8, 16, usize::MAX - 8, usize::MAX] {
            let e = b.u64_le_at(at, "t").unwrap_err();
            assert_eq!(e.kind, crate::error::ErrorKind::Malformed, "offset {at}");
            assert!(e.message.contains("0-byte packet"), "offset {at}: {e}");
        }
        let e = b.u64_le("t").unwrap_err();
        assert_eq!(e.kind, crate::error::ErrorKind::Malformed);
    }

    #[test]
    fn as_arc_slice_round_trips_and_shares_when_possible() {
        let b = Buffer::from_vec(vec![9, 8, 7]);
        let a = b.as_arc_slice();
        assert_eq!(&a[..], &[9, 8, 7]);
        let shared = Buffer::from_arc(Arc::clone(&a));
        // Full-range shared buffer: another as_arc_slice is free.
        let a2 = shared.as_arc_slice();
        assert_eq!(a2.as_ptr(), a.as_ptr());
        // Sub-range must copy (independent allocation).
        let sub = shared.slice(1..3).as_arc_slice();
        assert_eq!(&sub[..], &[8, 7]);
    }

    #[test]
    fn pool_recycles_allocations() {
        let pool = BufferPool::new();
        let v = pool.alloc(100);
        assert_eq!(pool.stats().misses, 1);
        let cap = v.capacity();
        let buf = pool.seal(v);
        drop(buf);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.idle(), 1);
        let (v2, hit) = pool.alloc_counted(100);
        assert!(hit, "second alloc of the same class is a hit");
        assert!(v2.capacity() >= cap.min(100));
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn pooled_buffer_clones_share_and_recycle_once() {
        let pool = BufferPool::new();
        let mut v = pool.alloc(32);
        v.extend_from_slice(&[1, 2, 3]);
        let b = pool.seal(v);
        let c = b.clone();
        drop(b);
        assert_eq!(pool.stats().recycled, 0, "a clone still holds it");
        assert_eq!(c.as_slice(), &[1, 2, 3]);
        drop(c);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn into_pooled_recycles_unique_owned_buffers() {
        let pool = BufferPool::new();
        let b = Buffer::from_vec(vec![5; 128]).into_pooled(&pool);
        assert_eq!(b.as_slice()[0], 5);
        drop(b);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn into_pooled_on_shared_buffer_is_inert() {
        let pool = BufferPool::new();
        let b = Buffer::from_vec(vec![1, 2]);
        let c = b.clone(); // no longer unique
        let b = b.into_pooled(&pool);
        drop(b);
        drop(c);
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn pool_class_cap_discards_overflow() {
        let pool = BufferPool::with_max_per_class(1);
        // Both buffers live at once, so both drops race for one slot.
        let a = pool.seal(pool.alloc(64));
        let b = pool.seal(pool.alloc(64));
        drop(a);
        drop(b);
        let st = pool.stats();
        assert_eq!(st.recycled, 1);
        assert_eq!(st.discarded, 1);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn dropped_pool_does_not_break_buffers() {
        let pool = BufferPool::new();
        let mut v = pool.alloc(16);
        v.push(42);
        let b = pool.seal(v);
        drop(pool);
        assert_eq!(b.as_slice(), &[42]);
        drop(b); // weak upgrade fails; allocation freed normally
    }

    #[test]
    fn size_classes_are_monotone() {
        assert_eq!(class_of(0), 0);
        assert_eq!(class_of(64), 0);
        assert_eq!(class_of(65), 1);
        assert_eq!(class_of(128), 1);
        assert!(class_of(usize::MAX) < CLASSES);
        for c in [1usize, 63, 64, 100, 4096, 65536] {
            let v = Vec::<u8>::with_capacity(c);
            assert!(v.capacity() >= c);
            let _ = class_of(v.capacity());
        }
    }
}
