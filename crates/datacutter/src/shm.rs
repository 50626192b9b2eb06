//! Shared-memory transport for same-host logical streams.
//!
//! When both endpoints of a distributed link live on the same host,
//! pushing every packet through the loopback TCP stack costs two
//! syscalls plus a kernel copy per frame. This module replaces the
//! socket with a **file-backed mmap ring**: the consumer creates a
//! file under the shm directory (`/dev/shm` when present), maps it
//! `MAP_SHARED`, and publishes byte cursors through atomics in the
//! mapped header page. The producer maps the same file and the two
//! processes stream bytes through user-space memory — no syscalls on
//! the data path at all.
//!
//! ## What flows through the ring
//!
//! Exactly the TCP wire format ([`crate::net`]): the same length-
//! prefixed `Hello` / `Data` / `End` / `Close` frames, written and read
//! by the one frame writer and reader of [`crate::link`], which also
//! owns the ingress bridge and the egress pump. This module is only the
//! carrier and the way a producer arrives on it. The ring is a plain
//! byte pipe underneath — a frame larger than the ring streams through
//! incrementally, reader consuming while the writer is still copying,
//! so [`MAX_FRAME_PAYLOAD`](crate::net::MAX_FRAME_PAYLOAD) stays the
//! only payload cap.
//!
//! ## Layout and memory ordering
//!
//! ```text
//! offset 0    magic "CGPS", version u16, capacity u64,
//!             owner (consumer) pid u64              (written once,
//!                                       published by an atomic rename)
//! offset 64   head: AtomicU64   — bytes consumed  (reader-owned)
//! offset 128  tail: AtomicU64   — bytes produced  (writer-owned)
//! offset 192  producer_closed: AtomicU32
//! offset 256  consumer_closed: AtomicU32
//! offset 320  producer_pid: AtomicU64 — the attached producer, 0 = none yet
//! offset 4096 data[capacity]    — ring, indexed by cursor & (cap-1)
//! ```
//!
//! Cursors grow monotonically; `tail - head` is the fill level. The
//! writer copies payload bytes first and then stores `tail` with
//! `Release`; the reader `Acquire`-loads `tail` before touching the
//! bytes (and symmetrically for `head` when freeing space). The
//! `producer_closed` flag is stored `Release` *after* the final `tail`
//! store, so a reader that observes the flag re-loads `tail` once more
//! and can never miss trailing bytes.
//!
//! ## Handshake and failure model
//!
//! The handshake is **one-way**, as on TCP: the producer attaches, writes
//! `Hello` and streams. A ring takes one producer for its lifetime: the
//! attach claims the `producer_pid` slot, and a second attach is refused
//! as malformed. One reader thread serves each ring. Blocking waits are
//! spin-then-bounded-sleep polls (no cross-process condvars), checking
//! run cancellation and the peer's closed flag every lap, so a dead peer
//! or a cancelled run unwedges promptly. The consumer unlinks the ring
//! file on drop.
//!
//! Liveness on this transport is **pid-based**, not heartbeat-based: the
//! header records the consumer's pid (written before the publishing
//! rename) and the producer's pid (stored at attach), and either side
//! can probe the other with `kill(pid, 0)`. A reader whose producer is
//! gone sees a close: at a frame boundary that is EOF, mid-frame it is
//! malformed, and [`crate::link`] settles what a close before `End`
//! means. A process that is SIGKILLed never unlinks its ring files, so
//! creating a ring reclaims a leftover ring (or half-written `.tmp`)
//! whose recorded owner pid is dead, and fails with a named error when
//! the owner is still alive; a supervising launcher reclaims the rings
//! of the workers it tore down the same way ([`remove_ring_files`]).

use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::link::{send_hello, FrameSink, FrameSource, IngressLink};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring-file magic: first bytes of the mapped header.
const SHM_MAGIC: [u8; 4] = *b"CGPS";
/// Ring-layout version (checked when the producer attaches). v2 added
/// the owner-pid field; v3 dropped the ring-reset words.
const SHM_VERSION: u16 = 3;
/// Default data-area size per link ring.
pub const DEFAULT_SHM_CAPACITY: usize = 4 * 1024 * 1024;
/// Listener-marker prefix for shared-memory endpoints: a worker that
/// serves its ingress over shm announces `shm:<base>` instead of a TCP
/// port, and producers dispatch on the same prefix.
pub const SHM_PREFIX: &str = "shm:";

/// Smallest accepted data area (one header page's worth).
const MIN_CAPACITY: usize = 4096;
/// Header page reserved ahead of the data area.
const HEADER_LEN: usize = 4096;
const OFF_HEAD: usize = 64;
const OFF_TAIL: usize = 128;
const OFF_PRODUCER_CLOSED: usize = 192;
const OFF_CONSUMER_CLOSED: usize = 256;
const OFF_PRODUCER_PID: usize = 320;
/// Byte offset of the owner (consumer) pid in the static header.
const OWNER_PID_AT: usize = 16;

/// Busy-spin laps before yielding.
const SPINS: u32 = 128;
/// `yield_now` laps before sleeping.
const YIELDS: u32 = 16;
/// Bounded sleep once spinning gave up: the cross-process analogue of
/// parking, and the granularity at which a blocked side notices
/// cancellation or a dead peer.
const SLEEP: Duration = Duration::from_micros(100);
/// How long the producer waits for the consumer to publish the ring
/// file before giving up (the consumer creates it before announcing,
/// so this only covers slow filesystems and test races).
const ATTACH_BUDGET: Duration = Duration::from_secs(10);

/// Whether this build supports the shm transport (mmap is required).
pub fn shm_supported() -> bool {
    cfg!(unix)
}

/// Directory for ring files: `/dev/shm` when it exists (memory-backed
/// tmpfs on Linux), the system temp directory otherwise.
pub fn shm_dir() -> PathBuf {
    let dev_shm = PathBuf::from("/dev/shm");
    if dev_shm.is_dir() {
        dev_shm
    } else {
        std::env::temp_dir()
    }
}

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub(super) fn map_shared(file: &File, len: usize) -> std::io::Result<*mut u8> {
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ptr.cast())
    }

    pub(super) fn unmap(ptr: *mut u8, len: usize) {
        unsafe {
            munmap(ptr.cast(), len);
        }
    }

    pub(super) fn own_pid() -> u64 {
        std::process::id() as u64
    }

    /// Whether the process with `pid` still exists. `kill(pid, 0)`
    /// delivers no signal; `ESRCH` is the only errno meaning "gone"
    /// (`EPERM` means alive but not ours). Pid reuse can only produce a
    /// false *alive*, which is the safe direction for both reclaim and
    /// liveness verdicts.
    pub(super) fn process_alive(pid: u64) -> bool {
        const ESRCH: i32 = 3;
        extern "C" {
            fn kill(pid: i32, sig: c_int) -> c_int;
        }
        if pid == 0 || pid > i32::MAX as u64 {
            return false;
        }
        if unsafe { kill(pid as i32, 0) } == 0 {
            return true;
        }
        std::io::Error::last_os_error().raw_os_error() != Some(ESRCH)
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;

    pub(super) fn map_shared(_file: &File, _len: usize) -> std::io::Result<*mut u8> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "shm transport requires mmap (unix)",
        ))
    }

    pub(super) fn unmap(_ptr: *mut u8, _len: usize) {}

    pub(super) fn own_pid() -> u64 {
        std::process::id() as u64
    }

    /// Without `kill(pid, 0)` we can never prove a process dead, so
    /// report everything alive — reclaim then refuses, which is the
    /// conservative failure mode.
    pub(super) fn process_alive(_pid: u64) -> bool {
        true
    }
}

/// One mapped ring file. Owns the mapping; the file itself is unlinked
/// by the consumer side.
struct Map {
    ptr: *mut u8,
    len: usize,
    cap: u64,
    // Keeps the fd alive for the mapping's lifetime (not strictly
    // required by mmap semantics, but makes debugging via /proc easier).
    _file: File,
}

// The raw pointer targets a MAP_SHARED region whose cross-thread (and
// cross-process) accesses all go through the atomics below plus
// acquire/release-ordered byte copies.
unsafe impl Send for Map {}

impl Map {
    fn atomic_u64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= HEADER_LEN && off % 8 == 0);
        unsafe { &*self.ptr.add(off).cast::<AtomicU64>() }
    }

    fn atomic_u32(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= HEADER_LEN && off % 4 == 0);
        unsafe { &*self.ptr.add(off).cast::<AtomicU32>() }
    }

    fn head(&self) -> &AtomicU64 {
        self.atomic_u64(OFF_HEAD)
    }

    fn tail(&self) -> &AtomicU64 {
        self.atomic_u64(OFF_TAIL)
    }

    fn producer_closed(&self) -> bool {
        self.atomic_u32(OFF_PRODUCER_CLOSED).load(Ordering::Acquire) != 0
    }

    fn consumer_closed(&self) -> bool {
        self.atomic_u32(OFF_CONSUMER_CLOSED).load(Ordering::Acquire) != 0
    }

    fn close(&self, off: usize) {
        self.atomic_u32(off).store(1, Ordering::Release);
    }

    fn producer_pid(&self) -> &AtomicU64 {
        self.atomic_u64(OFF_PRODUCER_PID)
    }

    fn data(&self) -> *mut u8 {
        unsafe { self.ptr.add(HEADER_LEN) }
    }

    /// Copy `src` into the ring starting at logical cursor `at`,
    /// wrapping across the capacity boundary.
    fn copy_in(&self, at: u64, src: &[u8]) {
        let mask = self.cap - 1;
        let at = (at & mask) as usize;
        let first = src.len().min(self.cap as usize - at);
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.data().add(at), first);
            std::ptr::copy_nonoverlapping(src.as_ptr().add(first), self.data(), src.len() - first);
        }
    }

    /// Copy out of the ring starting at logical cursor `at` into `dst`.
    fn copy_out(&self, at: u64, dst: &mut [u8]) {
        let mask = self.cap - 1;
        let at = (at & mask) as usize;
        let first = dst.len().min(self.cap as usize - at);
        unsafe {
            std::ptr::copy_nonoverlapping(self.data().add(at), dst.as_mut_ptr(), first);
            std::ptr::copy_nonoverlapping(
                self.data(),
                dst.as_mut_ptr().add(first),
                dst.len() - first,
            );
        }
    }
}

impl Drop for Map {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

/// Spin → yield → bounded-sleep backoff for cross-process waits.
struct Backoff {
    step: u32,
}

impl Backoff {
    fn new() -> Self {
        Backoff { step: 0 }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn pause(&mut self) {
        if self.step < SPINS {
            std::hint::spin_loop();
        } else if self.step < SPINS + YIELDS {
            std::thread::yield_now();
        } else {
            std::thread::sleep(SLEEP);
        }
        self.step = self.step.saturating_add(1);
    }
}

fn read_header_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(buf[at..at + 2].try_into().expect("2 bytes"))
}

fn read_header_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Read the owner pid out of a ring (or ring-tmp) file's static header
/// without mapping it. `Ok(None)` means the file does not carry a valid
/// cgp ring header (foreign file, or a tmp whose header write never
/// completed).
fn ring_owner_pid(path: &Path) -> std::io::Result<Option<u64>> {
    use std::io::Read;
    let mut f = File::open(path)?;
    let mut header = [0u8; 24];
    let mut got = 0;
    while got < header.len() {
        match f.read(&mut header[got..])? {
            0 => return Ok(None),
            n => got += n,
        }
    }
    if header[0..4] != SHM_MAGIC || read_header_u16(&header, 4) != SHM_VERSION {
        return Ok(None);
    }
    Ok(Some(read_header_u64(&header, OWNER_PID_AT)))
}

/// Deal with a leftover file where we want to create a ring: reclaim it
/// when its recorded owner is provably dead (SIGKILLed consumers never
/// unlink), refuse with a named error when the owner still lives, and
/// refuse to touch files that are not cgp rings at all. `tmp` files are
/// reclaimed even with an unreadable header — a half-written header in
/// a `.tmp` of our own naming scheme is exactly the crash artifact this
/// exists for.
fn reclaim_stale(path: &Path, is_tmp: bool, who: &str) -> FilterResult<()> {
    let err = |m: String| FilterError::new(who.to_string(), m);
    match ring_owner_pid(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(err(format!("inspect {}: {e}", path.display()))),
        Ok(Some(pid)) if sys::process_alive(pid) => Err(err(format!(
            "shm ring {} already exists and its owner (pid {pid}) is still alive",
            path.display()
        ))),
        Ok(None) if !is_tmp => Err(err(format!(
            "{} already exists and is not a cgp shm ring; refusing to reclaim it",
            path.display()
        ))),
        Ok(_) => std::fs::remove_file(path)
            .or_else(|e| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    Ok(())
                } else {
                    Err(e)
                }
            })
            .map_err(|e| err(format!("reclaim stale {}: {e}", path.display()))),
    }
}

/// Remove the ring files (and stray tmps) of a dead worker's ingress at
/// `base`, so the supervisor can respawn it on a fresh base without
/// leaking `/dev/shm` entries. Returns how many files were removed.
/// Files whose recorded owner is still alive are left alone.
pub fn remove_ring_files(base: &str, producers: usize) -> usize {
    let mut removed = 0;
    for p in 0..producers {
        let path = ring_path(base, p as u32);
        for candidate in [path.with_extension("tmp"), path] {
            if matches!(ring_owner_pid(&candidate), Ok(Some(pid)) if !sys::process_alive(pid))
                && std::fs::remove_file(&candidate).is_ok()
            {
                removed += 1;
            }
        }
    }
    removed
}

/// Create one ring file at `path` (via a temp file and an atomic
/// rename, so an attaching producer never observes a half-written
/// header) and map it. Consumer side. Stale leftovers from a crashed
/// prior owner are reclaimed first.
fn create_ring(path: &Path, capacity: usize, who: &str) -> FilterResult<Map> {
    let err = |m: String| FilterError::new(who.to_string(), m);
    if !capacity.is_power_of_two() || capacity < MIN_CAPACITY {
        return Err(err(format!(
            "shm capacity {capacity} must be a power of two >= {MIN_CAPACITY}"
        )));
    }
    let tmp = path.with_extension("tmp");
    reclaim_stale(&tmp, true, who)?;
    reclaim_stale(path, false, who)?;
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&tmp)
        .map_err(|e| err(format!("create {}: {e}", tmp.display())))?;
    file.set_len((HEADER_LEN + capacity) as u64)
        .map_err(|e| err(format!("size {}: {e}", tmp.display())))?;
    let mut header = [0u8; 24];
    header[0..4].copy_from_slice(&SHM_MAGIC);
    header[4..6].copy_from_slice(&SHM_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(capacity as u64).to_le_bytes());
    header[OWNER_PID_AT..OWNER_PID_AT + 8].copy_from_slice(&sys::own_pid().to_le_bytes());
    {
        use std::io::Write;
        (&file)
            .write_all(&header)
            .map_err(|e| err(format!("init {}: {e}", tmp.display())))?;
    }
    let ptr = sys::map_shared(&file, HEADER_LEN + capacity)
        .map_err(|e| err(format!("mmap {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        sys::unmap(ptr, HEADER_LEN + capacity);
        err(format!("publish {}: {e}", path.display()))
    })?;
    Ok(Map {
        ptr,
        len: HEADER_LEN + capacity,
        cap: capacity as u64,
        _file: file,
    })
}

/// Open and validate an existing ring file. Producer side; retries
/// until the consumer's atomic rename lands (bounded by
/// [`ATTACH_BUDGET`]). Cancellation is noticed only when about to wait:
/// a cancelled producer still attaches to a ring that exists, so its
/// close reaches the consumer instead of leaving it waiting for a
/// producer that never comes.
fn attach_ring(path: &Path, control: Option<&Arc<RunControl>>, who: &str) -> FilterResult<Map> {
    let err = |m: String| FilterError::new(who.to_string(), m);
    let start = Instant::now();
    let file = loop {
        match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => break f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if control.is_some_and(|c| c.is_cancelled()) {
                    return Err(FilterError::cancelled(
                        who.to_string(),
                        "run cancelled while attaching to shm ring",
                    ));
                }
                if start.elapsed() >= ATTACH_BUDGET {
                    return Err(err(format!(
                        "shm ring {} did not appear within {ATTACH_BUDGET:?}",
                        path.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(err(format!("open {}: {e}", path.display()))),
        }
    };
    let file_len = file
        .metadata()
        .map_err(|e| err(format!("stat {}: {e}", path.display())))?
        .len() as usize;
    if file_len < HEADER_LEN + MIN_CAPACITY {
        return Err(FilterError::malformed(
            who.to_string(),
            format!(
                "shm ring {} is truncated ({file_len} bytes)",
                path.display()
            ),
        ));
    }
    let ptr = sys::map_shared(&file, file_len)
        .map_err(|e| err(format!("mmap {}: {e}", path.display())))?;
    let header = unsafe { std::slice::from_raw_parts(ptr, 16) };
    let check = (|| -> FilterResult<u64> {
        if header[0..4] != SHM_MAGIC {
            return Err(FilterError::malformed(
                who.to_string(),
                format!(
                    "bad shm magic {:02x?} (expected {SHM_MAGIC:02x?})",
                    &header[0..4]
                ),
            ));
        }
        let version = read_header_u16(header, 4);
        if version != SHM_VERSION {
            return Err(FilterError::malformed(
                who.to_string(),
                format!("shm layout version {version} (expected {SHM_VERSION})"),
            ));
        }
        let cap = read_header_u64(header, 8);
        if !cap.is_power_of_two() || cap as usize + HEADER_LEN != file_len {
            return Err(FilterError::malformed(
                who.to_string(),
                format!("shm capacity {cap} inconsistent with file size {file_len}"),
            ));
        }
        Ok(cap)
    })();
    let cap = match check {
        Ok(c) => c,
        Err(e) => {
            sys::unmap(ptr, file_len);
            return Err(e);
        }
    };
    Ok(Map {
        ptr,
        len: file_len,
        cap,
        _file: file,
    })
}

/// Producer half of one ring: frame writer over the byte pipe.
pub struct ShmSender {
    map: Map,
    control: Option<Arc<RunControl>>,
    who: String,
}

impl ShmSender {
    /// Attach to the ring file at `path` (created by the consumer) as its
    /// one producer. A ring that already has a producer refuses the
    /// attach as malformed.
    pub fn attach(
        path: &Path,
        control: Option<Arc<RunControl>>,
        who: String,
    ) -> FilterResult<Self> {
        let map = attach_ring(path, control.as_ref(), &who)?;
        if let Err(prior) = map.producer_pid().compare_exchange(
            0,
            sys::own_pid(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            return Err(FilterError::malformed(
                who,
                format!(
                    "shm ring {} already has a producer (pid {prior})",
                    path.display()
                ),
            ));
        }
        Ok(ShmSender { map, control, who })
    }

    fn cancelled(&self) -> Option<FilterError> {
        self.control
            .as_ref()
            .filter(|c| c.is_cancelled())
            .map(|_| FilterError::cancelled(self.who.clone(), "run cancelled during shm write"))
    }

    /// Stream `buf` into the ring, publishing incrementally so records
    /// larger than the ring flow through without deadlock.
    pub fn write_all(&mut self, mut buf: &[u8]) -> FilterResult<()> {
        let mut backoff = Backoff::new();
        while !buf.is_empty() {
            if let Some(e) = self.cancelled() {
                return Err(e);
            }
            if self.map.consumer_closed() {
                return Err(FilterError::new(
                    self.who.clone(),
                    "shm ring closed by consumer",
                ));
            }
            let head = self.map.head().load(Ordering::Acquire);
            let tail = self.map.tail().load(Ordering::Relaxed);
            let free = self.map.cap - tail.wrapping_sub(head);
            if free == 0 {
                backoff.pause();
                continue;
            }
            let n = (free as usize).min(buf.len());
            self.map.copy_in(tail, &buf[..n]);
            self.map
                .tail()
                .store(tail.wrapping_add(n as u64), Ordering::Release);
            buf = &buf[n..];
            backoff.reset();
        }
        Ok(())
    }
}

impl FrameSink for ShmSender {
    fn who(&self) -> &str {
        &self.who
    }

    fn send(&mut self, header: &[u8], payload: &[u8]) -> FilterResult<()> {
        self.write_all(header)?;
        self.write_all(payload)
    }
}

/// The producer end of ring `<base>.<producer>`, as the egress pump
/// ([`crate::link::egress_pump`]) drives it: attach, then `Hello`.
pub(crate) fn connect(
    base: &str,
    link: u32,
    producer: u32,
    control: Option<Arc<RunControl>>,
) -> FilterResult<ShmSender> {
    let who = format!("shm.egress[{producer}]");
    let mut tx = ShmSender::attach(&ring_path(base, producer), control, who)?;
    send_hello(&mut tx, link, producer)?;
    Ok(tx)
}

impl Drop for ShmSender {
    fn drop(&mut self) {
        // Published after any final tail store, so the reader observing
        // the flag re-loads tail and drains everything first.
        self.map.close(OFF_PRODUCER_CLOSED);
    }
}

/// Consumer half of one ring: the byte pipe a frame reader reads.
/// Unlinks the ring file on drop.
pub(crate) struct ShmReceiver {
    map: Map,
    control: Option<Arc<RunControl>>,
    who: String,
    path: PathBuf,
    last_liveness: Option<Instant>,
}

/// How often a blocked reader re-probes the producer pid.
const LIVENESS_EVERY: Duration = Duration::from_millis(50);

impl ShmReceiver {
    /// Create the ring file at `path` and take the consumer side.
    pub(crate) fn create(
        path: &Path,
        capacity: usize,
        control: Option<Arc<RunControl>>,
        who: String,
    ) -> FilterResult<Self> {
        let map = create_ring(path, capacity, &who)?;
        Ok(ShmReceiver {
            map,
            control,
            who,
            path: path.to_path_buf(),
            last_liveness: None,
        })
    }

    fn cancelled(&self) -> Option<FilterError> {
        self.control
            .as_ref()
            .filter(|c| c.is_cancelled())
            .map(|_| FilterError::cancelled(self.who.clone(), "run cancelled during shm read"))
    }

    /// The producer is gone when it set its closed flag, or when it
    /// recorded a pid that no longer exists (SIGKILL runs no drop code,
    /// so the flag alone cannot be trusted). The pid probe is a syscall,
    /// so it is rate-limited to [`LIVENESS_EVERY`].
    fn producer_gone(&mut self) -> bool {
        if self.map.producer_closed() {
            return true;
        }
        if self
            .last_liveness
            .is_some_and(|at| at.elapsed() < LIVENESS_EVERY)
        {
            return false;
        }
        self.last_liveness = Some(Instant::now());
        let pid = self.map.producer_pid().load(Ordering::Acquire);
        pid != 0 && !sys::process_alive(pid)
    }
}

impl FrameSource for ShmReceiver {
    fn who(&self) -> &str {
        &self.who
    }

    /// A close mid-frame is malformed — exactly the socket's contract.
    fn fill(&mut self, buf: &mut [u8], allow_eof: bool) -> FilterResult<bool> {
        let mut off = 0;
        let mut backoff = Backoff::new();
        while off < buf.len() {
            let head = self.map.head().load(Ordering::Relaxed);
            let tail = self.map.tail().load(Ordering::Acquire);
            let used = tail.wrapping_sub(head);
            if used == 0 {
                // Like the socket, notice cancellation only when about to
                // wait: bytes already in the ring cost nothing to read.
                if let Some(e) = self.cancelled() {
                    return Err(e);
                }
                if self.producer_gone() {
                    // The close flag trails the final tail store:
                    // re-check before declaring EOF.
                    if self.map.tail().load(Ordering::Acquire) != tail {
                        continue;
                    }
                    if off == 0 && allow_eof {
                        return Ok(false);
                    }
                    return Err(FilterError::malformed(
                        self.who.clone(),
                        "shm ring closed mid-frame",
                    ));
                }
                backoff.pause();
                continue;
            }
            let n = (used as usize).min(buf.len() - off);
            self.map.copy_out(head, &mut buf[off..off + n]);
            self.map
                .head()
                .store(head.wrapping_add(n as u64), Ordering::Release);
            off += n;
            backoff.reset();
        }
        Ok(true)
    }
}

impl Drop for ShmReceiver {
    fn drop(&mut self) {
        self.map.close(OFF_CONSUMER_CLOSED);
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Ring file path for producer copy `p` of the link at `base`.
pub fn ring_path(base: &str, producer: u32) -> PathBuf {
    PathBuf::from(format!("{base}.{producer}"))
}

/// Consumer side of one logical link over shared memory: one ring file
/// per upstream producer copy, created **eagerly** so the worker can
/// announce the base path before any producer attaches.
pub struct ShmIngress {
    base: String,
    receivers: Vec<ShmReceiver>,
}

impl std::fmt::Debug for ShmIngress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmIngress")
            .field("base", &self.base)
            .field("producers", &self.receivers.len())
            .finish()
    }
}

impl ShmIngress {
    /// Create `producers` ring files at `<base>.<p>`. `control` lets the
    /// ring readers notice a cancelled run; a run that serves the rings
    /// hands them its own instead.
    pub fn create(
        base: &str,
        producers: usize,
        capacity: usize,
        control: Option<Arc<RunControl>>,
    ) -> FilterResult<Self> {
        let mut receivers = Vec::with_capacity(producers);
        for p in 0..producers {
            receivers.push(ShmReceiver::create(
                &ring_path(base, p as u32),
                capacity,
                control.clone(),
                format!("shm.ingress[{p}]"),
            )?);
        }
        Ok(ShmIngress {
            base: base.to_string(),
            receivers,
        })
    }

    /// The base path producers derive their ring paths from.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// How producers arrive over shared memory: one reader thread per
    /// ring serves its producer through `link`
    /// ([`crate::link::serve_ingress`]). Returns once every ring's reader
    /// returned; each ring is unlinked as its reader returns. Heartbeats
    /// do not apply here — liveness is pid-based.
    pub(crate) fn serve(self, link: &IngressLink) {
        assert_eq!(
            link.producers(),
            self.receivers.len(),
            "one local writer per producer ring"
        );
        std::thread::scope(|scope| {
            for (p, mut rx) in self.receivers.into_iter().enumerate() {
                scope.spawn(move || {
                    if link.control.is_some() {
                        rx.control = link.control.clone();
                    }
                    link.serve(&mut rx, Some(p), |_, _| {});
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::link::{
        egress_pump, read_frame, serve_ingress, write_frame, NetTuning, WorkerIngress,
    };
    use crate::net::{encode_data_header, encode_frame, Frame};
    use crate::stream::logical_stream;
    use std::sync::atomic::AtomicU32 as TestCounter;

    static NEXT: TestCounter = TestCounter::new(0);

    fn test_base(tag: &str) -> String {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        shm_dir()
            .join(format!("cgp-shm-test-{}-{tag}-{n}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn send(tx: &mut ShmSender, f: &Frame) {
        write_frame(tx, &encode_frame(f), &[]).unwrap();
    }

    fn send_data(tx: &mut ShmSender, from: u32, seq: u64, payload: &[u8]) -> FilterResult<()> {
        write_frame(tx, &encode_data_header(from, seq, payload.len()), payload)
    }

    #[test]
    fn frames_roundtrip_through_the_ring() {
        let path = PathBuf::from(format!("{}.0", test_base("roundtrip")));
        let mut rx = ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()).unwrap();
        let mut tx = ShmSender::attach(&path, None, "tx".into()).unwrap();
        let sent = vec![
            Frame::Hello {
                link: 3,
                producer: 0,
            },
            Frame::Data {
                from: 0,
                seq: 0,
                payload: vec![7; 100],
            },
            Frame::End { from: 0 },
            Frame::Close,
        ];
        let expect = sent.clone();
        let writer = std::thread::spawn(move || {
            for f in &sent {
                send(&mut tx, f);
            }
        });
        for f in &expect {
            assert_eq!(read_frame(&mut rx).unwrap().as_ref(), Some(f));
        }
        writer.join().unwrap();
        drop(rx);
        assert!(!path.exists(), "receiver unlinks the ring file on drop");
    }

    #[test]
    fn frame_larger_than_the_ring_streams_through() {
        let path = PathBuf::from(format!("{}.0", test_base("large")));
        let mut rx = ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()).unwrap();
        let mut tx = ShmSender::attach(&path, None, "tx".into()).unwrap();
        // 4× the ring: the writer must publish incrementally while the
        // reader concurrently drains.
        let payload: Vec<u8> = (0..4 * MIN_CAPACITY).map(|i| (i % 251) as u8).collect();
        let want = payload.clone();
        let writer = std::thread::spawn(move || {
            send_data(&mut tx, 0, 0, &payload).unwrap();
        });
        match read_frame(&mut rx).unwrap() {
            Some(Frame::Data { from, seq, payload }) => {
                assert_eq!((from, seq), (0, 0));
                assert_eq!(payload, want);
            }
            f => panic!("expected Data, got {f:?}"),
        }
        writer.join().unwrap();
    }

    #[test]
    fn producer_drop_is_clean_eof_at_boundary_and_malformed_mid_frame() {
        let path = PathBuf::from(format!("{}.0", test_base("eof")));
        let mut rx = ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()).unwrap();
        let mut tx = ShmSender::attach(&path, None, "tx".into()).unwrap();
        send(&mut tx, &Frame::End { from: 0 });
        drop(tx);
        assert_eq!(read_frame(&mut rx).unwrap(), Some(Frame::End { from: 0 }));
        assert_eq!(
            read_frame(&mut rx).unwrap(),
            None,
            "close at boundary is EOF"
        );

        let path = PathBuf::from(format!("{}.0", test_base("midframe")));
        let mut rx = ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()).unwrap();
        let mut tx = ShmSender::attach(&path, None, "tx".into()).unwrap();
        // A data header promising bytes that never arrive.
        tx.write_all(&encode_data_header(0, 0, 64)).unwrap();
        drop(tx);
        let err = read_frame(&mut rx).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert!(err.message.contains("mid-frame"), "{err}");
    }

    #[test]
    fn attach_validates_magic_and_version() {
        let base = test_base("validate");
        let path = PathBuf::from(format!("{base}.0"));
        let _rx = ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()).unwrap();
        // Corrupt a copy of the file rather than the live mapping.
        let bogus = PathBuf::from(format!("{base}.bogus"));
        std::fs::copy(&path, &bogus).unwrap();
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&bogus).unwrap();
            f.seek(SeekFrom::Start(0)).unwrap();
            f.write_all(b"XXXX").unwrap();
        }
        let err = match ShmSender::attach(&bogus, None, "tx".into()) {
            Err(e) => e,
            Ok(_) => panic!("attach accepted a corrupt ring"),
        };
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert!(err.message.contains("magic"), "{err}");
        std::fs::remove_file(&bogus).unwrap();
    }

    #[test]
    fn cancel_unblocks_a_writer_stuck_on_a_full_ring() {
        let path = PathBuf::from(format!("{}.0", test_base("cancel")));
        let control = Arc::new(RunControl::new());
        let _rx = ShmReceiver::create(&path, MIN_CAPACITY, Some(Arc::clone(&control)), "rx".into())
            .unwrap();
        let mut tx = ShmSender::attach(&path, Some(Arc::clone(&control)), "tx".into()).unwrap();
        let writer = std::thread::spawn(move || {
            // Nobody drains: this blocks once the ring fills, and must
            // return a Cancelled error when the run is cancelled.
            send_data(&mut tx, 0, 0, &vec![0u8; 4 * MIN_CAPACITY])
        });
        std::thread::sleep(Duration::from_millis(50));
        control.cancel("test");
        let err = writer.join().unwrap().unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Cancelled);
    }

    fn write_fake_ring(path: &Path, owner: u64) {
        let mut file = vec![0u8; HEADER_LEN + MIN_CAPACITY];
        file[0..4].copy_from_slice(&SHM_MAGIC);
        file[4..6].copy_from_slice(&SHM_VERSION.to_le_bytes());
        file[8..16].copy_from_slice(&(MIN_CAPACITY as u64).to_le_bytes());
        file[OWNER_PID_AT..OWNER_PID_AT + 8].copy_from_slice(&owner.to_le_bytes());
        std::fs::write(path, &file).unwrap();
    }

    /// A pid that provably no longer exists: a reaped child's.
    fn dead_pid() -> u64 {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let pid = child.id() as u64;
        child.wait().unwrap();
        pid
    }

    #[test]
    fn stale_ring_with_dead_owner_is_reclaimed() {
        let base = test_base("reclaim");
        let path = PathBuf::from(format!("{base}.0"));
        write_fake_ring(&path, dead_pid());
        // A half-written tmp from the same crash is reclaimed too.
        std::fs::write(path.with_extension("tmp"), b"CGPS\x02").unwrap();
        let rx = ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into())
            .expect("dead-owner leftovers must be reclaimed");
        drop(rx);

        // remove_ring_files gives the supervisor the same reclaim.
        write_fake_ring(&path, dead_pid());
        assert_eq!(remove_ring_files(&base, 1), 1);
        assert!(!path.exists());
    }

    #[test]
    fn ring_owned_by_a_live_process_is_refused_with_a_named_error() {
        let base = test_base("live-owner");
        let path = PathBuf::from(format!("{base}.0"));
        write_fake_ring(&path, std::process::id() as u64);
        let err = match ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()) {
            Err(e) => e,
            Ok(_) => panic!("created over a live owner's ring"),
        };
        assert!(err.message.contains("still alive"), "{err}");
        assert_eq!(remove_ring_files(&base, 1), 0, "live rings are kept");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_in_the_ring_slot_is_not_reclaimed() {
        let base = test_base("foreign");
        let path = PathBuf::from(format!("{base}.0"));
        std::fs::write(&path, b"someone else's data").unwrap();
        let err = match ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()) {
            Err(e) => e,
            Ok(_) => panic!("clobbered a foreign file"),
        };
        assert!(err.message.contains("not a cgp shm ring"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_second_attach_to_a_ring_is_refused_by_name() {
        let path = PathBuf::from(format!("{}.0", test_base("second")));
        let mut rx = ShmReceiver::create(&path, MIN_CAPACITY, None, "rx".into()).unwrap();
        let mut tx = ShmSender::attach(&path, None, "tx1".into()).unwrap();
        let err = match ShmSender::attach(&path, None, "tx2".into()) {
            Err(e) => e,
            Ok(_) => panic!("a second producer attached"),
        };
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert!(err.message.contains("already has a producer"), "{err}");
        // The refused attach left the ring to its producer: no closed
        // flag, no bytes.
        send(&mut tx, &Frame::End { from: 0 });
        drop(tx);
        assert_eq!(read_frame(&mut rx).unwrap(), Some(Frame::End { from: 0 }));
        assert_eq!(read_frame(&mut rx).unwrap(), None);
    }

    #[test]
    fn ingress_and_egress_bridge_local_streams_byte_identically() {
        let base = test_base("bridge");
        let producers = 2usize;
        let ingress = ShmIngress::create(&base, producers, MIN_CAPACITY, None).unwrap();

        // Producer side: two local 1→1 streams, one egress pump each.
        let packets_per_producer = 200usize;
        let mut pumps = Vec::new();
        for p in 0..producers {
            let (mut ws, mut rs) = logical_stream(1, 1, 16, RunControl::new());
            let (w, r) = (ws.remove(0), rs.remove(0));
            let base = base.clone();
            pumps.push(std::thread::spawn(move || {
                let feeder = std::thread::spawn(move || {
                    let mut w = w;
                    for i in 0..packets_per_producer {
                        w.write(Buffer::from_vec(vec![p as u8, (i % 256) as u8]))
                            .unwrap();
                    }
                    w.close();
                });
                let addr = format!("{SHM_PREFIX}{base}");
                let tuning = NetTuning::default();
                let stats =
                    egress_pump(r, &addr, 7, p as u32, None, Default::default(), tuning).unwrap();
                feeder.join().unwrap();
                stats
            }));
        }

        // Consumer side: a 2→1 local stream fed by the ingress.
        let (ws, mut rs) = logical_stream(producers, 1, 16, RunControl::new());
        let reader = std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut r = rs.remove(0);
            while let Some(b) = r.read() {
                seen.push(b.as_slice().to_vec());
            }
            seen
        });
        let stats = serve_ingress(
            WorkerIngress::Shm(ingress),
            7,
            ws,
            None,
            Default::default(),
            NetTuning::default(),
        )
        .unwrap();
        assert_eq!(stats.frames, (producers * packets_per_producer) as u64);
        let mut per_producer = vec![Vec::new(); producers];
        for b in reader.join().unwrap() {
            per_producer[b[0] as usize].push(b[1]);
        }
        for (p, seen) in per_producer.iter().enumerate() {
            let want: Vec<u8> = (0..packets_per_producer).map(|i| (i % 256) as u8).collect();
            assert_eq!(seen, &want, "producer {p} FIFO preserved");
        }
        for pump in pumps {
            let stats = pump.join().unwrap();
            assert_eq!(stats.frames, packets_per_producer as u64);
        }
    }

    /// A ring file whose header says `capacity`, sized `HEADER_LEN + len`.
    fn write_header(path: &Path, capacity: u64, len: usize) -> Vec<u8> {
        let mut file = vec![0u8; HEADER_LEN + len];
        file[0..4].copy_from_slice(&SHM_MAGIC);
        file[4..6].copy_from_slice(&SHM_VERSION.to_le_bytes());
        file[8..16].copy_from_slice(&capacity.to_le_bytes());
        file[OWNER_PID_AT..OWNER_PID_AT + 8].copy_from_slice(&7u64.to_le_bytes());
        std::fs::write(path, &file).unwrap();
        file
    }

    fn malformed(path: &Path) -> String {
        match attach_ring(path, None, "tx") {
            Ok(_) => panic!("{} attached", path.display()),
            Err(e) => {
                assert_eq!(e.kind, crate::error::ErrorKind::Malformed, "{e}");
                e.message
            }
        }
    }

    #[test]
    fn generated_ring_headers_attach_with_their_capacity() {
        let mut rng = cgp_obs::SmallRng::seed_from_u64(0x5A11);
        for case in 0..12 {
            let path = PathBuf::from(format!("{}.0", test_base("header")));
            let cap = MIN_CAPACITY << rng.gen_range(0, 5);
            let created = create_ring(&path, cap, "rx").unwrap();
            let attached = attach_ring(&path, None, "tx").unwrap();
            assert_eq!(
                (created.cap, attached.cap),
                (cap as u64, cap as u64),
                "case {case}"
            );
            assert_eq!(ring_owner_pid(&path).unwrap(), Some(sys::own_pid()));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn mutated_header_bytes_are_malformed_by_name() {
        let mut rng = cgp_obs::SmallRng::seed_from_u64(0x5A12);
        let path = PathBuf::from(format!("{}.0", test_base("mutate")));
        let valid = write_header(&path, MIN_CAPACITY as u64, MIN_CAPACITY);
        for (byte, name) in (0..4)
            .map(|b| (b, "bad shm magic"))
            .chain((4..6).map(|b| (b, "shm layout version")))
            .chain((8..16).map(|b| (b, "inconsistent with file size")))
        {
            for _ in 0..8 {
                let mut file = valid.clone();
                file[byte] ^= rng.gen_range(1, 256) as u8;
                std::fs::write(&path, &file).unwrap();
                let msg = malformed(&path);
                assert!(msg.contains(name), "byte {byte}: {msg}");
            }
        }
        // A power-of-two capacity that disagrees with the file's size.
        for cap in [MIN_CAPACITY / 2, 2 * MIN_CAPACITY, 1 << 40] {
            write_header(&path, cap as u64, MIN_CAPACITY);
            let msg = malformed(&path);
            assert!(
                msg.contains(&format!("shm capacity {cap} inconsistent")),
                "{msg}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncated_ring_file_is_rejected_as_truncated() {
        let path = PathBuf::from(format!("{}.0", test_base("truncate")));
        write_header(&path, MIN_CAPACITY as u64, MIN_CAPACITY);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        for len in (0..HEADER_LEN + MIN_CAPACITY).rev() {
            file.set_len(len as u64).unwrap();
            let msg = malformed(&path);
            assert!(
                msg.ends_with(&format!("is truncated ({len} bytes)")),
                "{msg}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn owner_pid_is_read_only_behind_a_valid_magic_and_version() {
        let mut rng = cgp_obs::SmallRng::seed_from_u64(0x5A13);
        let path = PathBuf::from(format!("{}.0", test_base("owner")));
        for case in 0..300 {
            let mut header: Vec<u8> = (0..24).map(|_| rng.next_u64() as u8).collect();
            let magic = rng.gen_range(0, 2) == 0;
            let version = rng.gen_range(0, 2) == 0;
            if magic {
                header[0..4].copy_from_slice(&SHM_MAGIC);
            }
            if version {
                header[4..6].copy_from_slice(&SHM_VERSION.to_le_bytes());
            }
            let valid = header[0..4] == SHM_MAGIC && read_header_u16(&header, 4) == SHM_VERSION;
            let want = valid.then(|| read_header_u64(&header, OWNER_PID_AT));
            let short = rng.gen_range(0, 24);
            std::fs::write(&path, &header).unwrap();
            assert_eq!(ring_owner_pid(&path).unwrap(), want, "case {case}");
            std::fs::write(&path, &header[..short]).unwrap();
            assert_eq!(
                ring_owner_pid(&path).unwrap(),
                None,
                "case {case}: {short} bytes"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
