//! Recovery: checkpointed filter state and the knobs that turn fault
//! *detection* (PR 2) into fault *survival*.
//!
//! Three cooperating mechanisms make a pipeline run complete under chaos
//! instead of merely failing cleanly:
//!
//! 1. **Ack/replay delivery** (`stream.rs`) — every data message carries a
//!    per-producer sequence number; producers keep sent-but-unacknowledged
//!    packets in a bounded replay buffer shared with the consumer side.
//!    Consumers acknowledge cumulatively — at every packet for stateless
//!    stages, at checkpoint commits for stateful ones — and a restarted
//!    copy pre-loads the unacknowledged tail back into its delivery queue.
//!    Sequence-based dedup (a per-producer watermark) drops the in-queue
//!    originals the replay duplicates, giving effectively-exactly-once
//!    delivery per stage.
//! 2. **Checkpointed state** (this module + [`FilterIo`]) — stateful
//!    filters snapshot their reduction state every K accepted packets
//!    through [`FilterIo::commit_checkpoint`] into a [`CheckpointStore`]
//!    (in-memory, optionally mirrored to a JSONL audit log). A restarted
//!    copy restores the last snapshot ([`Filter::restore`]) and replays
//!    only the unacknowledged tail.
//! 3. **Restart supervision** (`exec.rs`) — with recovery enabled the
//!    executor restarts a copy after any failure but a cancellation: the
//!    copy gets a fresh filter instance, its checkpoint back, and its
//!    input replayed, up to [`RecoveryOptions::max_restarts`] times. This
//!    is the only way a failed copy runs again. Placement-level
//!    failover (re-running the decomposition DP over surviving hosts)
//!    lives in `cgp-compiler`'s `failover` module.
//!
//! The replay buffer is bounded by construction: a consumer acknowledges
//! at least every `checkpoint_every` accepted packets, so at most
//! `checkpoint_every + queue capacity` packets per (producer, consumer)
//! pair are ever retained.
//!
//! [`FilterIo`]: crate::filter::FilterIo
//! [`FilterIo::commit_checkpoint`]: crate::filter::FilterIo::commit_checkpoint
//! [`Filter::restore`]: crate::filter::Filter::restore

use crate::error::{FilterError, FilterResult};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Recovery knobs for a pipeline run ([`RunOptions::recovery`]).
///
/// [`RunOptions::recovery`]: crate::exec::RunOptions::recovery
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Master switch. Off (the default), failures are detected,
    /// isolated, and surfaced — a failed copy fails the run.
    pub enabled: bool,
    /// Stateful filters are asked to checkpoint every this many accepted
    /// packets (the `K` of the design; also bounds the replay buffers).
    pub checkpoint_every: u64,
    /// Restarts allowed per filter copy before its error becomes final.
    pub max_restarts: u32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            enabled: false,
            checkpoint_every: 64,
            max_restarts: 5,
        }
    }
}

impl RecoveryOptions {
    /// Recovery on, with default cadence and restart budget.
    pub fn on() -> Self {
        RecoveryOptions {
            enabled: true,
            ..Default::default()
        }
    }

    pub fn with_checkpoint_every(mut self, k: u64) -> Self {
        self.checkpoint_every = k.max(1);
        self
    }

    pub fn with_max_restarts(mut self, n: u32) -> Self {
        self.max_restarts = n;
        self
    }
}

/// Snapshot of one filter copy's state at an acknowledgement boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Opaque state bytes (the filter's own encoding — e.g. the plan
    /// executor uses `cgp-core`'s reduction-state codec).
    pub state: Vec<u8>,
    /// The copy's output write index at commit time; on restart the
    /// writer rewinds here so regenerated packets keep their original
    /// sequence numbers (and already-sent ones are suppressed).
    pub out_index: u64,
    /// Input packets accepted up to and covered by this snapshot
    /// (informational — the authoritative per-producer watermarks live
    /// in the stream layer's ack state).
    pub packets: u64,
}

/// Magic of one durable snapshot file.
pub const CKPT_MAGIC: [u8; 4] = *b"CGPK";
/// Durable snapshot format version.
pub const CKPT_VERSION: u16 = 1;

/// FNV-1a 64, the integrity check trailing every durable snapshot file.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Storage for per-copy checkpoints: an in-memory map keyed by
/// `(stage, copy)` keeping the latest snapshot, optionally mirrored to
/// an append-only JSONL audit log (one line per commit) and/or a
/// durable directory (one crash-consistent file per copy, committed by
/// tmp-file + atomic rename, that a freshly exec'd process can read
/// back).
///
/// Clones share the same storage, so the executor can hand one store to
/// every copy and tests can inspect it after the run.
#[derive(Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<HashMap<(String, usize), Snapshot>>>,
    jsonl: Option<Arc<Mutex<std::fs::File>>>,
    durable: Option<Arc<PathBuf>>,
    commits: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl CheckpointStore {
    /// Pure in-memory store (the executor's default).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// In-memory store that also appends every commit to a JSONL file:
    /// `{"stage":…,"copy":…,"packets":…,"out_index":…,"len":…,"state":"<hex>"}`.
    pub fn with_jsonl(path: &str) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(CheckpointStore {
            jsonl: Some(Arc::new(Mutex::new(file))),
            ..Default::default()
        })
    }

    /// Store that additionally persists every commit to `dir` as one
    /// file per `(stage, copy)` (`<stage>-<copy>.ckpt`): the snapshot is
    /// written to a temp file, fsynced, then atomically renamed over the
    /// previous one — a crash at any point leaves either the old or the
    /// new snapshot fully readable, never a torn mix.
    pub fn durable(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::default().with_durable(dir)
    }

    /// Add a durable directory to this store (composes with
    /// [`Self::with_jsonl`]). Creates the directory if needed and
    /// reclaims any `*.ckpt.tmp` left by a crash mid-commit: the rename
    /// is the only publishing step, so an orphaned temp is dead weight a
    /// supervised restart loop would otherwise accumulate forever.
    pub fn with_durable(mut self, dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let orphaned = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".ckpt.tmp"));
            if orphaned {
                // A temp vanishing between readdir and unlink just means
                // someone else (a racing open) reclaimed it first.
                let _ = std::fs::remove_file(&path);
            }
        }
        self.durable = Some(Arc::new(dir));
        Ok(self)
    }

    /// Whether this store persists commits to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Durable file path for `stage[copy]`, if this store is durable.
    /// Stage names are sanitized to a conservative character set so they
    /// can never escape the directory.
    pub fn snapshot_path(&self, stage: &str, copy: usize) -> Option<PathBuf> {
        let dir = self.durable.as_ref()?;
        let safe: String = stage
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(dir.join(format!("{safe}-{copy}.ckpt")))
    }

    /// Persist the latest snapshot for `stage[copy]`, replacing any
    /// previous one. Must complete before the matching input acks are
    /// published (the commit is what makes those packets "durable").
    pub fn save(&self, stage: &str, copy: usize, snap: Snapshot) -> FilterResult<()> {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(snap.state.len() as u64, Ordering::Relaxed);
        if let Some(file) = &self.jsonl {
            let mut hex = String::with_capacity(snap.state.len() * 2);
            for b in &snap.state {
                use std::fmt::Write as _;
                let _ = write!(hex, "{b:02x}");
            }
            let line = format!(
                "{{\"stage\":\"{}\",\"copy\":{},\"packets\":{},\"out_index\":{},\"len\":{},\"state\":\"{}\"}}\n",
                stage.replace('\\', "\\\\").replace('"', "\\\""),
                copy,
                snap.packets,
                snap.out_index,
                snap.state.len(),
                hex
            );
            let mut f = file.lock().unwrap_or_else(|e| e.into_inner());
            f.write_all(line.as_bytes()).map_err(|e| {
                FilterError::new(
                    format!("{stage}[{copy}]"),
                    format!("checkpoint JSONL write failed: {e}"),
                )
            })?;
        }
        if self.durable.is_some() {
            self.persist(stage, copy, &snap).map_err(|e| {
                FilterError::new(
                    format!("{stage}[{copy}]"),
                    format!("durable checkpoint commit failed: {e}"),
                )
            })?;
        }
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((stage.to_string(), copy), snap);
        Ok(())
    }

    /// Write one snapshot file crash-consistently: encode into
    /// `<path>.tmp`, fsync, then rename over `<path>`.
    fn persist(&self, stage: &str, copy: usize, snap: &Snapshot) -> std::io::Result<()> {
        let path = self
            .snapshot_path(stage, copy)
            .expect("persist called on a durable store");
        let tmp = path.with_extension("ckpt.tmp");
        let bytes = encode_snapshot(stage, copy, snap);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &path)
    }

    /// Read the durable snapshot a *previous incarnation* of this
    /// process committed for `stage[copy]`. `Ok(None)` when no file
    /// exists; named errors for a foreign, truncated, corrupt, or
    /// mismatched file. The in-memory [`Self::load`] intentionally only
    /// serves this incarnation's commits — restoring across an exec is
    /// an explicit act.
    pub fn load_persisted(&self, stage: &str, copy: usize) -> FilterResult<Option<Snapshot>> {
        let Some(path) = self.snapshot_path(stage, copy) else {
            return Ok(None);
        };
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(FilterError::new(
                    format!("{stage}[{copy}]"),
                    format!("read durable checkpoint {}: {e}", path.display()),
                ))
            }
        };
        decode_snapshot(&bytes, stage, copy).map(Some)
    }

    /// The latest snapshot for `stage[copy]`, if any commit happened.
    pub fn load(&self, stage: &str, copy: usize) -> Option<Snapshot> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(stage.to_string(), copy))
            .cloned()
    }

    /// Total commits across all copies.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Total snapshot bytes across all commits.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Encode one durable snapshot file:
///
/// ```text
/// magic "CGPK" · version u16 · reserved u16 · stage_len u32 · stage
/// · copy u64 · out_index u64 · packets u64 · state_len u64 · state
/// · fnv64 over everything above
/// ```
fn encode_snapshot(stage: &str, copy: usize, snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(44 + stage.len() + snap.state.len());
    out.extend_from_slice(&CKPT_MAGIC);
    out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(stage.len() as u32).to_le_bytes());
    out.extend_from_slice(stage.as_bytes());
    out.extend_from_slice(&(copy as u64).to_le_bytes());
    out.extend_from_slice(&snap.out_index.to_le_bytes());
    out.extend_from_slice(&snap.packets.to_le_bytes());
    out.extend_from_slice(&(snap.state.len() as u64).to_le_bytes());
    out.extend_from_slice(&snap.state);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode and validate one durable snapshot file, checking it really
/// belongs to `stage[copy]`. Every rejection is a named, actionable
/// error: magic, version, truncation, checksum, stage and copy
/// mismatches are all distinguished.
pub fn decode_snapshot(bytes: &[u8], stage: &str, copy: usize) -> FilterResult<Snapshot> {
    let who = format!("{stage}[{copy}]");
    let bad = |m: String| FilterError::malformed(who.clone(), m);
    let trunc = || bad("durable checkpoint truncated".into());
    if bytes.len() < 12 {
        return Err(trunc());
    }
    if bytes[0..4] != CKPT_MAGIC {
        return Err(bad(format!(
            "bad checkpoint magic {:02x?} (expected {CKPT_MAGIC:02x?})",
            &bytes[0..4]
        )));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != CKPT_VERSION {
        return Err(bad(format!(
            "checkpoint format version {version} (this build reads {CKPT_VERSION})"
        )));
    }
    if bytes.len() < 8 {
        return Err(trunc());
    }
    // Every length field is untrusted: offsets are computed with checked
    // arithmetic, so a huge length reads as truncation, never as an
    // overflow (a panic in debug builds, a wrapped offset in release).
    let field = |at: usize, len: usize| -> FilterResult<&[u8]> {
        at.checked_add(len)
            .and_then(|end| bytes.get(at..end))
            .ok_or_else(trunc)
    };
    let u64_at =
        |at: usize| field(at, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
    let stage_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let got_stage = String::from_utf8_lossy(field(12, stage_len)?);
    let mut at = 12 + stage_len;
    let got_copy = u64_at(at)?;
    let out_index = u64_at(at + 8)?;
    let packets = u64_at(at + 16)?;
    let state_len = usize::try_from(u64_at(at + 24)?).map_err(|_| trunc())?;
    at += 32;
    let state = field(at, state_len)?;
    at += state_len;
    let sum = u64_at(at)?;
    if sum != fnv64(&bytes[..at]) {
        return Err(bad("checkpoint checksum mismatch (corrupt file)".into()));
    }
    if got_stage != stage {
        return Err(bad(format!(
            "checkpoint belongs to stage '{got_stage}', not '{stage}'"
        )));
    }
    if got_copy != copy as u64 {
        return Err(bad(format!(
            "checkpoint belongs to copy {got_copy}, not {copy}"
        )));
    }
    Ok(Snapshot {
        state: state.to_vec(),
        out_index,
        packets,
    })
}

/// Snapshot/restore interface for state objects that live inside filters
/// (reduction accumulators in the figure apps implement this). Filters
/// forward [`Filter::restore`] to the state object and feed
/// [`Checkpoint::snapshot`] to [`FilterIo::commit_checkpoint`].
///
/// The contract mirrors the runtime's reduction semantics: restoring a
/// snapshot into a freshly initialized object must reproduce the state
/// the snapshot was taken from (initialization is the reduction
/// identity).
///
/// [`Filter::restore`]: crate::filter::Filter::restore
/// [`FilterIo::commit_checkpoint`]: crate::filter::FilterIo::commit_checkpoint
pub trait Checkpoint {
    /// Serialize the current state.
    fn snapshot(&self) -> Vec<u8>;
    /// Replace the current state with a previously serialized snapshot.
    fn restore(&mut self, snapshot: &[u8]) -> FilterResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_keeps_latest_snapshot_per_copy() {
        let store = CheckpointStore::in_memory();
        assert!(store.load("s", 0).is_none());
        let snap = |v: u8, out: u64| Snapshot {
            state: vec![v; 3],
            out_index: out,
            packets: out * 2,
        };
        store.save("s", 0, snap(1, 10)).unwrap();
        store.save("s", 1, snap(2, 20)).unwrap();
        store.save("s", 0, snap(3, 30)).unwrap();
        assert_eq!(store.load("s", 0).unwrap().state, vec![3; 3]);
        assert_eq!(store.load("s", 0).unwrap().out_index, 30);
        assert_eq!(store.load("s", 1).unwrap().state, vec![2; 3]);
        assert_eq!(store.commits(), 3);
        assert_eq!(store.bytes(), 9);
    }

    #[test]
    fn clones_share_storage() {
        let store = CheckpointStore::in_memory();
        let other = store.clone();
        store
            .save(
                "s",
                0,
                Snapshot {
                    state: vec![7],
                    out_index: 1,
                    packets: 1,
                },
            )
            .unwrap();
        assert_eq!(other.load("s", 0).unwrap().state, vec![7]);
        assert_eq!(other.commits(), 1);
    }

    #[test]
    fn jsonl_mirror_appends_one_line_per_commit() {
        let path = std::env::temp_dir().join(format!("cgp-ckpt-{}.jsonl", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        let store = CheckpointStore::with_jsonl(&path_s).unwrap();
        store
            .save(
                "reduce",
                1,
                Snapshot {
                    state: vec![0xab, 0xcd],
                    out_index: 4,
                    packets: 9,
                },
            )
            .unwrap();
        store
            .save(
                "reduce",
                1,
                Snapshot {
                    state: vec![0xff],
                    out_index: 5,
                    packets: 12,
                },
            )
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"stage\":\"reduce\""));
        assert!(lines[0].contains("\"state\":\"abcd\""));
        assert!(lines[1].contains("\"packets\":12"));
        let _ = std::fs::remove_file(&path);
    }

    fn durable_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cgp-durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_commit_survives_a_fresh_store_like_an_execd_process() {
        let dir = durable_dir("fresh");
        let store = CheckpointStore::durable(&dir).unwrap();
        let snap = Snapshot {
            state: vec![1, 2, 3, 4],
            out_index: 17,
            packets: 34,
        };
        store.save("f2", 1, snap.clone()).unwrap();
        // A brand-new store over the same directory models the respawned
        // process: its in-memory map is empty, the durable file is not.
        let fresh = CheckpointStore::durable(&dir).unwrap();
        assert!(fresh.load("f2", 1).is_none(), "memory is per-incarnation");
        assert_eq!(fresh.load_persisted("f2", 1).unwrap(), Some(snap));
        assert_eq!(fresh.load_persisted("f2", 0).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_commit_leaves_the_previous_snapshot_readable() {
        let dir = durable_dir("crash");
        let store = CheckpointStore::durable(&dir).unwrap();
        let committed = Snapshot {
            state: vec![9; 32],
            out_index: 8,
            packets: 16,
        };
        store.save("f3", 0, committed.clone()).unwrap();
        let path = store.snapshot_path("f3", 0).unwrap();
        // Property: whatever prefix of the *next* commit's tmp write the
        // crash leaves behind, the committed file is untouched and fully
        // readable — the rename is the only publishing step.
        let next = encode_snapshot(
            "f3",
            0,
            &Snapshot {
                state: vec![7; 64],
                out_index: 20,
                packets: 40,
            },
        );
        for cut in [0, 1, 4, 11, next.len() / 2, next.len() - 1] {
            let tmp = path.with_extension("ckpt.tmp");
            std::fs::write(&tmp, &next[..cut]).unwrap();
            let fresh = CheckpointStore::durable(&dir).unwrap();
            assert_eq!(
                fresh.load_persisted("f3", 0).unwrap(),
                Some(committed.clone()),
                "torn tmp of {cut} bytes must not shadow the commit"
            );
            // Regression: opening the store reclaims the orphaned temp —
            // without the sweep, a supervised restart loop accumulates
            // one torn `*.ckpt.tmp` per crash, unboundedly.
            assert!(
                !tmp.exists(),
                "torn tmp of {cut} bytes must be reclaimed on open"
            );
            // And the torn tmp itself decodes to a *named* error, never
            // a bogus snapshot.
            assert!(decode_snapshot(&next[..cut], "f3", 0).is_err());
        }
        // The sweep is surgical: committed snapshots and unrelated files
        // survive an open that reclaims temps.
        std::fs::write(dir.join("other-file.txt"), b"keep me").unwrap();
        std::fs::write(path.with_extension("ckpt.tmp"), b"torn").unwrap();
        let fresh = CheckpointStore::durable(&dir).unwrap();
        assert!(path.exists(), "committed snapshot survives the sweep");
        assert!(dir.join("other-file.txt").exists());
        assert_eq!(
            fresh.load_persisted("f3", 0).unwrap(),
            Some(committed.clone())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_mismatches_with_named_errors() {
        let snap = Snapshot {
            state: vec![5; 8],
            out_index: 3,
            packets: 6,
        };
        let good = encode_snapshot("f2", 1, &snap);
        assert_eq!(decode_snapshot(&good, "f2", 1).unwrap(), snap);

        let e = decode_snapshot(&good, "f4", 1).unwrap_err();
        assert!(e.message.contains("stage 'f2'"), "{e}");
        let e = decode_snapshot(&good, "f2", 0).unwrap_err();
        assert!(e.message.contains("copy 1"), "{e}");

        let mut wrong_ver = good.clone();
        wrong_ver[4..6].copy_from_slice(&99u16.to_le_bytes());
        let e = decode_snapshot(&wrong_ver, "f2", 1).unwrap_err();
        assert!(e.message.contains("version 99"), "{e}");

        let mut wrong_magic = good.clone();
        wrong_magic[0..4].copy_from_slice(b"XXXX");
        let e = decode_snapshot(&wrong_magic, "f2", 1).unwrap_err();
        assert!(e.message.contains("magic"), "{e}");

        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        let e = decode_snapshot(&corrupt, "f2", 1).unwrap_err();
        assert!(e.message.contains("checksum"), "{e}");

        let e = decode_snapshot(&good[..good.len() - 3], "f2", 1).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
        assert_eq!(e.kind, crate::error::ErrorKind::Malformed);
    }

    #[test]
    fn durable_composes_with_jsonl_mirror() {
        let dir = durable_dir("compose");
        let jsonl = dir.join("audit.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::with_jsonl(&jsonl.to_string_lossy())
            .unwrap()
            .with_durable(&dir)
            .unwrap();
        store
            .save(
                "f1",
                0,
                Snapshot {
                    state: vec![1],
                    out_index: 1,
                    packets: 1,
                },
            )
            .unwrap();
        assert!(store.snapshot_path("f1", 0).unwrap().exists());
        assert_eq!(std::fs::read_to_string(&jsonl).unwrap().lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_builders() {
        let o = RecoveryOptions::on()
            .with_checkpoint_every(16)
            .with_max_restarts(2);
        assert!(o.enabled);
        assert_eq!(o.checkpoint_every, 16);
        assert_eq!(o.max_restarts, 2);
        assert!(!RecoveryOptions::default().enabled);
        assert_eq!(
            RecoveryOptions::on()
                .with_checkpoint_every(0)
                .checkpoint_every,
            1
        );
    }
}
