//! TCP transport for logical streams (distributed DataCutter).
//!
//! The in-process runtime connects filter copies through bounded channels
//! ([`crate::stream`]). This module extends one logical stream across a
//! process boundary with length-prefixed frames over TCP, *without*
//! re-implementing any stream semantics: both sides of the socket are
//! bridged onto ordinary local streams, so batching, backpressure,
//! cancellation, deadlines, fault injection, and ack/replay recovery all
//! keep working unchanged.
//!
//! ## Topology
//!
//! One logical link `stage s → stage s+1` split across two processes:
//!
//! ```text
//!  producer process                      consumer process
//!  ┌──────────────┐  local 1→1 stream   ┌──────────────────────────────┐
//!  │ filter copy c ├──▶ egress pump c ──TCP──▶ ingress handler p ──┐   │
//!  └──────────────┘   (one socket per         (one per upstream    │   │
//!                      producer copy)          producer copy)      ▼   │
//!                                              local P→C stream, writer│
//!                                              p staggered like the    │
//!                                              in-process round robin  │
//!                                         ┌──────────────┐◀────────────┘
//!                                         │ filter copies │
//!                                         └──────────────┘
//! ```
//!
//! Each producer copy gets its own connection, so per-producer FIFO order
//! is the socket's FIFO order. The consumer side feeds a local
//! [`StreamWriter`] with the *same* producer index and stagger the
//! in-process run would use; round-robin routing is a pure function of the
//! sequence number, so packet→consumer-copy routing is reproduced exactly
//! and results stay byte-identical to the in-process run.
//!
//! ## Wire format
//!
//! Every frame is `tag: u8` followed by a fixed header and (for data) a
//! length-prefixed payload, all little-endian:
//!
//! | frame      | layout                                                  |
//! |------------|---------------------------------------------------------|
//! | `Hello`    | magic `CGPN`, `version: u16`, `link: u32`, `producer: u32` |
//! | `HelloAck` | `resume_seq: u64` (consumer's cumulative-ack watermark)  |
//! | `Data`     | `from: u32`, `seq: u64`, `len: u32`, payload             |
//! | `End`      | `from: u32` (producer finished its unit of work)         |
//! | `Close`    | — (orderly connection shutdown)                          |
//! | `Telemetry`| `len: u32`, payload (JSON telemetry update)              |
//!
//! `Telemetry` frames travel on their own connections — worker →
//! launcher, handshaken with the sentinel link id [`TELEMETRY_LINK`] —
//! never interleaved with data links, so the data plane's framing and
//! ordering are untouched when telemetry is on.
//!
//! Decoding is hardened: declared payload lengths are validated against
//! [`MAX_FRAME_PAYLOAD`] *before* any allocation, unknown tags / bad magic
//! / version mismatches are [`ErrorKind::Malformed`] errors, and EOF in
//! the middle of a frame is malformed rather than silently truncated.
//!
//! ## Recovery across the socket
//!
//! Within each process, filter-copy restarts use the local streams'
//! ack/replay machinery exactly as in-process runs do. Across the socket,
//! the consumer publishes its cumulative per-producer watermark in
//! `HelloAck` whenever a producer (re)connects: a reconnecting producer
//! resumes past the acknowledged prefix, and any duplicated in-flight
//! frame is discarded by the same sequence watermark
//! ([`IngressFeeder::feed`]) — the watermark never regresses across a
//! reconnect because it lives in the serve loop's slot table, not in the
//! per-connection handler.
//!
//! [`ErrorKind::Malformed`]: crate::error::ErrorKind

use crate::buffer::Buffer;
use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::stream::{StreamReader, StreamWriter};
use crate::telemetry::LinkProbe;
use cgp_obs::trace::{self, PID_RUNTIME};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Connection magic: first bytes of every `Hello` frame.
pub const NET_MAGIC: [u8; 4] = *b"CGPN";
/// Wire-protocol version (checked during the handshake).
pub const NET_VERSION: u16 = 1;
/// Hard cap on a single data frame's payload. A `Data` frame declaring
/// more than this is malformed and rejected before any allocation.
pub const MAX_FRAME_PAYLOAD: usize = 64 * 1024 * 1024;

/// Socket read/write timeout: the granularity at which blocked socket
/// operations notice run cancellation.
const POLL: Duration = Duration::from_millis(100);
/// Accept-loop poll interval (nonblocking listener).
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Default overall budget for [`connect_with_retry`].
const CONNECT_BUDGET: Duration = Duration::from_secs(10);

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_END: u8 = 4;
const TAG_CLOSE: u8 = 5;
const TAG_TELEMETRY: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;

/// Fixed header length (bytes after the tag) for each frame tag, or
/// `None` for an unknown tag. Shared by the socket reader and the
/// shared-memory transport so both parse the identical wire format.
pub(crate) fn frame_header_len(tag: u8) -> Option<usize> {
    match tag {
        TAG_HELLO => Some(14),
        TAG_HELLO_ACK => Some(8),
        TAG_DATA => Some(16),
        TAG_END => Some(4),
        TAG_CLOSE => Some(0),
        TAG_TELEMETRY => Some(4),
        TAG_HEARTBEAT => Some(0),
        _ => None,
    }
}

/// Offset of the `len: u32` field within the fixed header (tag included)
/// for frames that carry a variable payload.
pub(crate) fn frame_len_field_at(tag: u8) -> Option<usize> {
    match tag {
        TAG_DATA => Some(13),
        TAG_TELEMETRY => Some(1),
        _ => None,
    }
}

/// Encode a `Data` frame's fixed header (the payload follows verbatim).
pub(crate) fn encode_data_header(from: u32, seq: u64, len: usize) -> [u8; 17] {
    let mut header = [0u8; 17];
    header[0] = TAG_DATA;
    header[1..5].copy_from_slice(&from.to_le_bytes());
    header[5..13].copy_from_slice(&seq.to_le_bytes());
    header[13..17].copy_from_slice(&(len as u32).to_le_bytes());
    header
}

/// Sentinel link id carried in the `Hello` of telemetry connections, so
/// they share the data plane's versioned handshake while remaining
/// unmistakable for a data link.
pub const TELEMETRY_LINK: u32 = u32::MAX;

/// Poison-tolerant lock (slot state is plain data).
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One frame of the stream protocol (see the module docs for the wire
/// layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection opener: which logical link and which producer copy this
    /// connection carries.
    Hello { link: u32, producer: u32 },
    /// Handshake reply: the consumer's cumulative-ack watermark for this
    /// producer; the producer suppresses frames with `seq < resume_seq`.
    HelloAck { resume_seq: u64 },
    /// One packet: the `seq`-th the producer copy `from` ever sent on
    /// this link.
    Data {
        from: u32,
        seq: u64,
        payload: Vec<u8>,
    },
    /// Producer copy `from` finished its unit of work.
    End { from: u32 },
    /// Orderly connection shutdown (reconnection stays possible until
    /// `End` was seen).
    Close,
    /// One telemetry update (JSON payload; see
    /// [`crate::telemetry::decode_telemetry_payload`]). Only valid on
    /// connections handshaken with [`TELEMETRY_LINK`].
    Telemetry { payload: Vec<u8> },
    /// Liveness beacon on an otherwise idle link: carries no data and is
    /// consumed transparently by the frame reader (it only refreshes the
    /// per-peer silence deadline). Emitted by egress pumps when
    /// [`NetTuning::heartbeat`] is configured.
    Heartbeat,
}

/// Encode one frame to bytes (the socket path writes data payloads
/// without this intermediate copy; this form is for tests and small
/// control frames).
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    match f {
        Frame::Hello { link, producer } => {
            let mut out = Vec::with_capacity(15);
            out.push(TAG_HELLO);
            out.extend_from_slice(&NET_MAGIC);
            out.extend_from_slice(&NET_VERSION.to_le_bytes());
            out.extend_from_slice(&link.to_le_bytes());
            out.extend_from_slice(&producer.to_le_bytes());
            out
        }
        Frame::HelloAck { resume_seq } => {
            let mut out = Vec::with_capacity(9);
            out.push(TAG_HELLO_ACK);
            out.extend_from_slice(&resume_seq.to_le_bytes());
            out
        }
        Frame::Data { from, seq, payload } => {
            let mut out = Vec::with_capacity(17 + payload.len());
            out.push(TAG_DATA);
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
            out
        }
        Frame::End { from } => {
            let mut out = Vec::with_capacity(5);
            out.push(TAG_END);
            out.extend_from_slice(&from.to_le_bytes());
            out
        }
        Frame::Close => vec![TAG_CLOSE],
        Frame::Heartbeat => vec![TAG_HEARTBEAT],
        Frame::Telemetry { payload } => {
            let mut out = Vec::with_capacity(5 + payload.len());
            out.push(TAG_TELEMETRY);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
            out
        }
    }
}

fn get<const N: usize>(buf: &[u8], pos: usize, who: &str) -> FilterResult<[u8; N]> {
    buf.get(pos..pos + N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| FilterError::malformed(who, "truncated frame"))
}

/// Decode one frame from the front of `buf`, returning it and the bytes
/// consumed. Hardened: payload lengths are validated against
/// [`MAX_FRAME_PAYLOAD`] and the remaining buffer before allocation;
/// unknown tags, bad magic, and version mismatches are `Malformed`.
pub fn decode_frame(buf: &[u8]) -> FilterResult<(Frame, usize)> {
    let who = "net";
    let tag = *buf
        .first()
        .ok_or_else(|| FilterError::malformed(who, "empty frame"))?;
    match tag {
        TAG_HELLO => {
            let magic: [u8; 4] = get(buf, 1, who)?;
            if magic != NET_MAGIC {
                return Err(FilterError::malformed(
                    who,
                    format!("bad magic {magic:02x?} (expected {NET_MAGIC:02x?})"),
                ));
            }
            let version = u16::from_le_bytes(get(buf, 5, who)?);
            if version != NET_VERSION {
                return Err(FilterError::malformed(
                    who,
                    format!("protocol version {version} (expected {NET_VERSION})"),
                ));
            }
            let link = u32::from_le_bytes(get(buf, 7, who)?);
            let producer = u32::from_le_bytes(get(buf, 11, who)?);
            Ok((Frame::Hello { link, producer }, 15))
        }
        TAG_HELLO_ACK => {
            let resume_seq = u64::from_le_bytes(get(buf, 1, who)?);
            Ok((Frame::HelloAck { resume_seq }, 9))
        }
        TAG_DATA => {
            let from = u32::from_le_bytes(get(buf, 1, who)?);
            let seq = u64::from_le_bytes(get(buf, 5, who)?);
            let len = u32::from_le_bytes(get(buf, 13, who)?) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(FilterError::malformed(
                    who,
                    format!("data frame declares {len} bytes (cap {MAX_FRAME_PAYLOAD})"),
                ));
            }
            let payload = buf
                .get(17..17 + len)
                .ok_or_else(|| FilterError::malformed(who, "truncated data payload"))?
                .to_vec();
            Ok((Frame::Data { from, seq, payload }, 17 + len))
        }
        TAG_END => {
            let from = u32::from_le_bytes(get(buf, 1, who)?);
            Ok((Frame::End { from }, 5))
        }
        TAG_CLOSE => Ok((Frame::Close, 1)),
        TAG_HEARTBEAT => Ok((Frame::Heartbeat, 1)),
        TAG_TELEMETRY => {
            let len = u32::from_le_bytes(get(buf, 1, who)?) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(FilterError::malformed(
                    who,
                    format!("telemetry frame declares {len} bytes (cap {MAX_FRAME_PAYLOAD})"),
                ));
            }
            let payload = buf
                .get(5..5 + len)
                .ok_or_else(|| FilterError::malformed(who, "truncated telemetry payload"))?
                .to_vec();
            Ok((Frame::Telemetry { payload }, 5 + len))
        }
        t => Err(FilterError::malformed(
            who,
            format!("unknown frame tag {t}"),
        )),
    }
}

/// Per-link transfer counters, reported into `cgp_obs` metrics by the
/// executor (`net.link<id>.frames` / `.bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetLinkStats {
    /// Data frames moved across the socket(s).
    pub frames: u64,
    /// Payload bytes moved across the socket(s).
    pub bytes: u64,
    /// Duplicated in-flight frames discarded by the sequence watermark
    /// after a reconnect (ingress side only).
    pub deduped: u64,
    /// Heartbeat-deadline verdicts: a peer went silent past the liveness
    /// deadline (ingress side only; under supervision this is a dirty
    /// disconnect awaiting a respawned peer, otherwise it fails the link).
    pub timeouts: u64,
    /// Times a producer reconnected to this link after a disconnect
    /// (ingress side only): a respawned worker process rejoining.
    pub reconnects: u64,
}

/// Liveness knobs for one link's endpoints.
///
/// `heartbeat` turns the protocol on: egress pumps emit
/// [`Frame::Heartbeat`] whenever the link has been idle that long, and
/// readers fail (or, supervised, declare a dirty disconnect) when a peer
/// is silent past [`NetTuning::deadline`]. `supervised` makes the ingress
/// side *lenient*: a dead connection parks the producer's slot instead of
/// failing the link, waiting up to `reconnect` for a respawned process to
/// rejoin (the launcher's supervision layer guarantees one is coming, or
/// kills the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTuning {
    /// Emit a heartbeat after this much idle time, and derive the silence
    /// deadline from it. `None` disables the liveness protocol entirely
    /// (the pre-supervision behavior: a dead peer blocks reads until the
    /// run watchdog fires).
    pub heartbeat: Option<Duration>,
    /// Lenient ingress: treat dead connections as dirty disconnects and
    /// wait (bounded) for the producer to be respawned and reconnect.
    pub supervised: bool,
    /// How long a supervised ingress waits for a disconnected producer to
    /// reconnect before declaring the link dead.
    pub reconnect: Duration,
}

impl Default for NetTuning {
    fn default() -> Self {
        NetTuning {
            heartbeat: None,
            supervised: false,
            reconnect: Duration::from_secs(10),
        }
    }
}

impl NetTuning {
    /// Silence deadline: a peer that has sent nothing (not even a
    /// heartbeat) for this long is presumed dead or hung. Several missed
    /// beats, floored so scheduling jitter never fires it spuriously.
    pub fn deadline(&self) -> Option<Duration> {
        self.heartbeat
            .map(|every| (every * 4).max(Duration::from_secs(1)))
    }
}

/// A framed, cancellation-aware connection: blocking reads and writes
/// poll the socket at [`POLL`] granularity so a cancelled run unwedges
/// promptly even while a peer is silent.
struct FrameConn {
    stream: TcpStream,
    control: Option<Arc<RunControl>>,
    who: String,
    /// Fail a read when the peer has been silent this long (heartbeats
    /// count as traffic). `None` = wait forever (the run watchdog is the
    /// only backstop).
    deadline: Option<Duration>,
    /// Last time any byte arrived from the peer.
    last_rx: Instant,
}

/// Marker prefix for silence-deadline errors, so callers can count them
/// as heartbeat timeouts without a dedicated error kind.
const HEARTBEAT_TIMEOUT_MSG: &str = "heartbeat deadline exceeded";

/// Whether an error is a liveness verdict from a link's silence
/// deadline ([`NetTuning::deadline`]), vs. an ordinary socket/framing
/// failure.
pub fn is_heartbeat_timeout(e: &FilterError) -> bool {
    e.message.starts_with(HEARTBEAT_TIMEOUT_MSG)
}

impl FrameConn {
    fn new(stream: TcpStream, control: Option<Arc<RunControl>>, who: String) -> FilterResult<Self> {
        let err = |e: std::io::Error| FilterError::new(who.clone(), format!("socket setup: {e}"));
        stream.set_nodelay(true).map_err(err)?;
        stream.set_read_timeout(Some(POLL)).map_err(err)?;
        stream.set_write_timeout(Some(POLL)).map_err(err)?;
        Ok(FrameConn {
            stream,
            control,
            who,
            deadline: None,
            last_rx: Instant::now(),
        })
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        self.last_rx = Instant::now();
    }

    fn cancelled(&self) -> Option<FilterError> {
        self.control
            .as_ref()
            .filter(|c| c.is_cancelled())
            .map(|_| FilterError::cancelled(self.who.clone(), "run cancelled during socket I/O"))
    }

    /// Fill `buf` completely. `Ok(false)` means a clean EOF *before any
    /// byte* and `allow_eof` — the peer closed at a frame boundary. EOF
    /// mid-frame is malformed.
    fn fill(&mut self, buf: &mut [u8], allow_eof: bool) -> FilterResult<bool> {
        let mut off = 0;
        while off < buf.len() {
            match self.stream.read(&mut buf[off..]) {
                Ok(0) => {
                    if off == 0 && allow_eof {
                        return Ok(false);
                    }
                    return Err(FilterError::malformed(
                        self.who.clone(),
                        "connection closed mid-frame",
                    ));
                }
                Ok(n) => {
                    off += n;
                    self.last_rx = Instant::now();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if let Some(c) = self.cancelled() {
                        return Err(c);
                    }
                    if let Some(d) = self.deadline {
                        let silent = self.last_rx.elapsed();
                        if silent > d {
                            return Err(FilterError::stalled(
                                self.who.clone(),
                                format!(
                                    "{HEARTBEAT_TIMEOUT_MSG}: peer silent for \
                                     {silent:?} (deadline {d:?})"
                                ),
                            ));
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(FilterError::new(
                        self.who.clone(),
                        format!("socket read: {e}"),
                    ))
                }
            }
        }
        Ok(true)
    }

    /// Read one frame; `Ok(None)` on a clean EOF at a frame boundary.
    /// Heartbeats are consumed here (their only effect — refreshing the
    /// silence deadline — happens in `fill`), so callers never see them.
    /// The frame headers are re-parsed through [`decode_frame`] so the
    /// socket path and the testable slice path share one hardened parser.
    fn read_frame(&mut self) -> FilterResult<Option<Frame>> {
        loop {
            match self.read_frame_raw()? {
                Some(Frame::Heartbeat) => continue,
                other => return Ok(other),
            }
        }
    }

    fn read_frame_raw(&mut self) -> FilterResult<Option<Frame>> {
        let mut tag = [0u8; 1];
        if !self.fill(&mut tag, true)? {
            return Ok(None);
        }
        let Some(header_len) = frame_header_len(tag[0]) else {
            return Err(FilterError::malformed(
                self.who.clone(),
                format!("unknown frame tag {}", tag[0]),
            ));
        };
        let mut frame = vec![tag[0]; 1];
        frame.resize(1 + header_len, 0);
        self.fill(&mut frame[1..], false)?;
        // Frames with a variable payload: the length field's offset
        // within the fixed header.
        if let Some(at) = frame_len_field_at(tag[0]) {
            let len = u32::from_le_bytes(frame[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(FilterError::malformed(
                    self.who.clone(),
                    format!("frame declares {len} bytes (cap {MAX_FRAME_PAYLOAD})"),
                ));
            }
            let at = frame.len();
            frame.resize(at + len, 0);
            self.fill(&mut frame[at..], false)?;
        }
        decode_frame(&frame)
            .map(|(f, _)| Some(f))
            .map_err(|e| FilterError {
                filter: self.who.clone(),
                ..e
            })
    }

    fn write_all(&mut self, mut buf: &[u8]) -> FilterResult<()> {
        while !buf.is_empty() {
            match self.stream.write(buf) {
                Ok(0) => {
                    return Err(FilterError::new(
                        self.who.clone(),
                        "socket write returned 0 bytes",
                    ))
                }
                Ok(n) => buf = &buf[n..],
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if let Some(c) = self.cancelled() {
                        return Err(c);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(FilterError::new(
                        self.who.clone(),
                        format!("socket write: {e}"),
                    ))
                }
            }
        }
        Ok(())
    }

    fn write_frame(&mut self, f: &Frame) -> FilterResult<()> {
        self.write_all(&encode_frame(f))
    }

    /// Write a data frame without copying the payload into an
    /// intermediate encoding.
    fn write_data(&mut self, from: u32, seq: u64, payload: &[u8]) -> FilterResult<()> {
        debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
        self.write_all(&encode_data_header(from, seq, payload.len()))?;
        self.write_all(payload)
    }
}

/// Connect to `addr` with bounded retry and backoff (the peer worker may
/// not have bound its listener yet). Cancellable; emits a `net.connect`
/// trace span covering the whole attempt sequence.
/// Whether a failed `connect` is worth retrying: the listener may not be
/// accepting yet (the launcher spawns workers concurrently), the peer may
/// have dropped a backlogged attempt, or the kernel was momentarily out
/// of ephemeral ports. Anything else — an unparseable or unroutable
/// address, permission denied — fails identically on every attempt, so
/// retrying only burns the whole budget before reporting it.
fn connect_error_is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionRefused
            | ConnectionReset
            | ConnectionAborted
            | NotConnected
            | TimedOut
            | WouldBlock
            | Interrupted
            | AddrNotAvailable
    )
}

/// Ceiling for the exponential backoff between connect attempts.
const MAX_CONNECT_DELAY: Duration = Duration::from_millis(500);

/// Double the backoff without overflowing, capped at
/// [`MAX_CONNECT_DELAY`].
fn next_connect_delay(delay: Duration) -> Duration {
    delay.saturating_mul(2).min(MAX_CONNECT_DELAY)
}

pub fn connect_with_retry(
    addr: &str,
    control: Option<&Arc<RunControl>>,
    who: &str,
) -> FilterResult<TcpStream> {
    let _span = trace::span(format!("net.connect {addr}"), "net", PID_RUNTIME, 0);
    let start = Instant::now();
    let mut delay = Duration::from_millis(10);
    let mut attempts = 0u32;
    loop {
        if control.is_some_and(|c| c.is_cancelled()) {
            return Err(FilterError::cancelled(
                who.to_string(),
                "run cancelled while connecting",
            ));
        }
        attempts += 1;
        match TcpStream::connect(addr) {
            Ok(s) => {
                if trace::enabled() && attempts > 1 {
                    trace::instant(
                        "net.connect.retries",
                        "net",
                        PID_RUNTIME,
                        0,
                        vec![("attempts", u64::from(attempts).into())],
                    );
                }
                return Ok(s);
            }
            Err(e) => {
                if !connect_error_is_transient(&e) {
                    return Err(FilterError::new(
                        who.to_string(),
                        format!("connect to {addr} failed (not retryable): {e}"),
                    ));
                }
                if start.elapsed() >= CONNECT_BUDGET {
                    return Err(FilterError::new(
                        who.to_string(),
                        format!("connect to {addr} failed after {attempts} attempts: {e}"),
                    ));
                }
                std::thread::sleep(delay);
                delay = next_connect_delay(delay);
            }
        }
    }
}

/// Producer-side remote endpoint: one connection carrying one producer
/// copy's packets for one logical link. Sequence numbers are assigned
/// densely here; the `HelloAck` resume watermark suppresses frames the
/// consumer already acknowledged (reconnection after a consumer restart).
///
/// With [`NetTuning::heartbeat`] configured, a sidecar thread shares the
/// connection (frame-granular mutex, so a heartbeat can never interleave
/// inside a data frame) and emits [`Frame::Heartbeat`] whenever the link
/// has been idle for one heartbeat interval — a blocked or slow producer
/// stage no longer looks dead to the consumer's silence deadline.
pub struct RemoteStreamWriter {
    conn: Arc<Mutex<FrameConn>>,
    producer: u32,
    next_seq: u64,
    resume_seq: u64,
    frames: u64,
    bytes: u64,
    beat: Option<HeartbeatHandle>,
}

/// The egress heartbeat sidecar: stop flag + thread + beats-sent counter.
struct HeartbeatHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    sent: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
    last_tx: Arc<Mutex<Instant>>,
}

impl HeartbeatHandle {
    fn spawn(conn: Arc<Mutex<FrameConn>>, every: Duration) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sent = Arc::new(AtomicU64::new(0));
        let last_tx = Arc::new(Mutex::new(Instant::now()));
        let (stop2, sent2, last2) = (Arc::clone(&stop), Arc::clone(&sent), Arc::clone(&last_tx));
        let thread = std::thread::spawn(move || {
            let slice = every.min(Duration::from_millis(50));
            while !stop2.load(Ordering::Acquire) {
                std::thread::sleep(slice);
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let idle = plock(&last2).elapsed();
                if idle < every {
                    continue;
                }
                let mut conn = plock(&conn);
                // Re-check idleness under the lock (a data write may have
                // just refreshed it) and stop on write errors — the data
                // path will surface the same failure with full context.
                if plock(&last2).elapsed() < every {
                    continue;
                }
                if conn.write_frame(&Frame::Heartbeat).is_err() {
                    break;
                }
                *plock(&last2) = Instant::now();
                sent2.fetch_add(1, Ordering::Relaxed);
            }
        });
        HeartbeatHandle {
            stop,
            sent,
            thread: Some(thread),
            last_tx,
        }
    }

    fn mark_tx(&self) {
        *plock(&self.last_tx) = Instant::now();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl RemoteStreamWriter {
    /// Connect (with retry) and handshake as `producer` on `link`. The
    /// handshake wait is bounded by `tuning`'s silence deadline and, when
    /// heartbeats are on, the idle-link beacon thread is started.
    pub fn connect(
        addr: &str,
        link: u32,
        producer: u32,
        control: Option<Arc<RunControl>>,
        tuning: NetTuning,
    ) -> FilterResult<Self> {
        let who = format!("net.egress[{producer}]");
        let stream = connect_with_retry(addr, control.as_ref(), &who)?;
        let mut conn = FrameConn::new(stream, control, who.clone())?;
        // A consumer that accepted but never replies must not hang the
        // producer forever: bound the handshake by the silence deadline.
        conn.set_deadline(tuning.deadline());
        conn.write_frame(&Frame::Hello { link, producer })?;
        let resume_seq = match conn.read_frame()? {
            Some(Frame::HelloAck { resume_seq }) => resume_seq,
            Some(f) => {
                return Err(FilterError::malformed(
                    who,
                    format!("expected HelloAck, got {f:?}"),
                ))
            }
            None => {
                return Err(FilterError::malformed(
                    who,
                    "connection closed during handshake",
                ))
            }
        };
        let conn = Arc::new(Mutex::new(conn));
        let beat = tuning
            .heartbeat
            .map(|every| HeartbeatHandle::spawn(Arc::clone(&conn), every));
        Ok(RemoteStreamWriter {
            conn,
            producer,
            next_seq: resume_seq,
            resume_seq,
            frames: 0,
            bytes: 0,
            beat,
        })
    }

    /// Send one packet. Frames below the consumer's resume watermark are
    /// suppressed (already durable on the other side).
    pub fn write(&mut self, buf: &Buffer) -> FilterResult<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq < self.resume_seq {
            return Ok(());
        }
        let mut conn = plock(&self.conn);
        if buf.len() > MAX_FRAME_PAYLOAD {
            return Err(FilterError::new(
                conn.who.clone(),
                format!(
                    "packet of {} bytes exceeds the frame cap {MAX_FRAME_PAYLOAD}",
                    buf.len()
                ),
            ));
        }
        conn.write_data(self.producer, seq, buf.as_slice())?;
        drop(conn);
        if let Some(b) = &self.beat {
            b.mark_tx();
        }
        self.frames += 1;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Signal end-of-work and close the connection in order.
    pub fn finish(mut self) -> FilterResult<NetLinkStats> {
        if let Some(mut b) = self.beat.take() {
            b.stop();
        }
        let mut conn = plock(&self.conn);
        conn.write_frame(&Frame::End {
            from: self.producer,
        })?;
        conn.write_frame(&Frame::Close)?;
        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
        Ok(NetLinkStats {
            frames: self.frames,
            bytes: self.bytes,
            ..Default::default()
        })
    }

    /// Data frames / payload bytes sent so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.frames, self.bytes)
    }

    /// Heartbeats emitted on this connection so far.
    pub fn heartbeats_sent(&self) -> u64 {
        self.beat
            .as_ref()
            .map_or(0, |b| b.sent.load(Ordering::Relaxed))
    }
}

/// Consumer-side remote endpoint: one accepted, handshaken connection
/// delivering one upstream producer copy's frames.
pub struct RemoteStreamReader {
    conn: FrameConn,
    producer: u32,
}

impl RemoteStreamReader {
    /// Validate an accepted connection's `Hello` against this link and
    /// reply with the producer's resume watermark. An optional silence
    /// `deadline` applies to the connection (handshake included).
    pub fn accept(
        stream: TcpStream,
        link: u32,
        producers: usize,
        resume_seq_of: impl Fn(u32) -> u64,
        control: Option<Arc<RunControl>>,
        deadline: Option<Duration>,
    ) -> FilterResult<Self> {
        let mut conn = FrameConn::new(stream, control, "net.ingress".to_string())?;
        conn.set_deadline(deadline);
        let producer = match conn.read_frame()? {
            Some(Frame::Hello {
                link: got_link,
                producer,
            }) => {
                if got_link != link {
                    return Err(FilterError::malformed(
                        conn.who,
                        format!("connection for link {got_link} arrived at link {link}"),
                    ));
                }
                if producer as usize >= producers {
                    return Err(FilterError::malformed(
                        conn.who,
                        format!("producer {producer} out of range (link has {producers})"),
                    ));
                }
                producer
            }
            Some(f) => {
                return Err(FilterError::malformed(
                    conn.who,
                    format!("expected Hello, got {f:?}"),
                ))
            }
            None => {
                return Err(FilterError::malformed(
                    conn.who,
                    "connection closed during handshake",
                ))
            }
        };
        conn.who = format!("net.ingress[{producer}]");
        conn.write_frame(&Frame::HelloAck {
            resume_seq: resume_seq_of(producer),
        })?;
        Ok(RemoteStreamReader { conn, producer })
    }

    /// Which producer copy this connection carries.
    pub fn producer(&self) -> u32 {
        self.producer
    }

    /// Read the next frame; `Ok(None)` on a clean disconnect at a frame
    /// boundary (the producer may reconnect).
    pub fn read(&mut self) -> FilterResult<Option<Frame>> {
        self.conn.read_frame()
    }
}

/// Seq-deduplicating bridge from one remote producer onto its local
/// [`StreamWriter`]. The next-expected watermark lives in a shared atomic
/// that survives the per-connection handler, so a reconnecting producer
/// can never regress it: duplicated in-flight frames are dropped, gaps
/// are malformed.
pub struct IngressFeeder {
    writer: StreamWriter,
    next_seq: Arc<AtomicU64>,
    deduped: u64,
    ended: bool,
}

impl IngressFeeder {
    pub fn new(writer: StreamWriter) -> Self {
        IngressFeeder {
            writer,
            next_seq: Arc::new(AtomicU64::new(0)),
            deduped: 0,
            ended: false,
        }
    }

    /// The cumulative watermark published to a (re)connecting producer as
    /// `HelloAck { resume_seq }`.
    pub fn resume_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// Shared handle on the watermark, readable while the feeder itself
    /// is checked out to a connection handler (a respawned producer may
    /// handshake before the dead connection's handler has returned it).
    pub fn watermark(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.next_seq)
    }

    /// Duplicated frames discarded so far.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Whether this producer already sent `End`.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Deliver frame `seq`: `Ok(true)` if forwarded to the local stream,
    /// `Ok(false)` if it was a duplicate below the watermark. A sequence
    /// *gap* means frames were lost on a path that guarantees FIFO —
    /// that's corruption, not reordering, and is malformed.
    pub fn feed(&mut self, seq: u64, buf: Buffer) -> FilterResult<bool> {
        let expect = self.next_seq.load(Ordering::Acquire);
        if seq < expect {
            self.deduped += 1;
            return Ok(false);
        }
        if seq > expect {
            return Err(FilterError::malformed(
                "net.ingress",
                format!("sequence gap: got {seq}, expected {expect}"),
            ));
        }
        self.writer.write(buf)?;
        self.next_seq.store(expect + 1, Ordering::Release);
        Ok(true)
    }

    /// The producer finished its unit of work: propagate end-of-work to
    /// the local stream.
    pub fn end(&mut self) {
        self.ended = true;
        self.writer.close();
    }
}

/// Slot table entry for one upstream producer copy. The feeder (and its
/// watermark) live here between connections.
struct Slot {
    feeder: Option<IngressFeeder>,
    /// Shared view of the feeder's watermark, readable even while the
    /// feeder is checked out to a handler.
    watermark: Arc<AtomicU64>,
    /// When the producer's connection died without `End` (supervised
    /// mode): the reconnect deadline runs from here.
    parked_at: Option<Instant>,
    /// Whether this producer ever completed a handshake (distinguishes a
    /// first connect from a respawned process rejoining).
    connected_once: bool,
}

/// Serve one logical link's ingress side: accept one connection per
/// upstream producer copy on `listener`, handshake, and bridge frames
/// onto the local `writers` (writer `p` plays producer copy `p`, keeping
/// the in-process round-robin routing). Returns when every producer has
/// sent `End`, or with the first error (cancelling the run so blocked
/// filter copies unwedge).
///
/// Producers may disconnect cleanly (`Close` or EOF at a frame boundary)
/// and reconnect; the sequence watermark in the slot table dedups any
/// re-sent in-flight frames. With default `tuning`, EOF mid-frame is
/// malformed and fails the link.
///
/// An optional live [`LinkProbe`] ticks frame/byte/dedup counters as
/// traffic flows, so the telemetry sampler can report per-link rates
/// mid-run instead of only at link teardown.
///
/// With `tuning.supervised` the link becomes crash-tolerant: a
/// connection that dies without `End` — reset, EOF mid-frame, or silence
/// past the heartbeat deadline — parks the producer's slot instead of
/// failing the link, and a respawned process may reconnect (within
/// `tuning.reconnect`) and resume from the `HelloAck` watermark; a
/// reconnect after `End` is drained and discarded (the respawned prefix
/// deterministically regenerates everything, so its tail duplicates are
/// expected, not corruption).
pub fn serve_ingress(
    listener: TcpListener,
    link: u32,
    writers: Vec<StreamWriter>,
    control: Option<Arc<RunControl>>,
    probe: Option<Arc<LinkProbe>>,
    tuning: NetTuning,
) -> FilterResult<NetLinkStats> {
    let producers = writers.len();
    let slots: Vec<Mutex<Slot>> = writers
        .into_iter()
        .map(|w| {
            let feeder = IngressFeeder::new(w);
            Mutex::new(Slot {
                watermark: feeder.watermark(),
                feeder: Some(feeder),
                parked_at: None,
                connected_once: false,
            })
        })
        .collect();
    let slots = &slots;
    let remaining = AtomicUsize::new(producers);
    let remaining = &remaining;
    let frames = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let timeouts = &timeouts;
    let reconnects = AtomicU64::new(0);
    let errors: Mutex<Vec<FilterError>> = Mutex::new(Vec::new());
    listener
        .set_nonblocking(true)
        .map_err(|e| FilterError::new("net.ingress", format!("listener: {e}")))?;
    let cancelled = || control.as_ref().is_some_and(|c| c.is_cancelled());
    let fail = |e: FilterError, errs: &Mutex<Vec<FilterError>>| {
        if let Some(c) = &control {
            c.cancel(format!("ingress link {link} failed: {e}"));
        }
        plock(errs).push(e);
    };

    std::thread::scope(|scope| {
        loop {
            if remaining.load(Ordering::Acquire) == 0 || cancelled() {
                break;
            }
            if !plock(&errors).is_empty() {
                break;
            }
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Supervised: a parked producer whose replacement
                    // never arrives must fail in bounded time, not block
                    // the link until the run watchdog.
                    if tuning.supervised {
                        let expired = slots.iter().position(|s| {
                            plock(s)
                                .parked_at
                                .is_some_and(|t| t.elapsed() > tuning.reconnect)
                        });
                        if let Some(p) = expired {
                            fail(
                                FilterError::stalled(
                                    "net.ingress",
                                    format!(
                                        "producer {p} disconnected and no replacement \
                                         reconnected within {:?} (worker presumed dead; \
                                         restart budget exhausted?)",
                                        tuning.reconnect
                                    ),
                                ),
                                &errors,
                            );
                            break;
                        }
                    }
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    fail(
                        FilterError::new("net.ingress", format!("accept: {e}")),
                        &errors,
                    );
                    break;
                }
            };
            // Handshake inline (it is bounded by the socket timeouts),
            // then hand the connection + feeder to a handler thread so
            // every producer streams concurrently. The watermark is read
            // through the slot's shared handle: it stays correct even
            // while the feeder is checked out to a dying connection.
            let remote = match RemoteStreamReader::accept(
                stream,
                link,
                producers,
                |p| plock(&slots[p as usize]).watermark.load(Ordering::Acquire),
                control.clone(),
                tuning.deadline(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    fail(e, &errors);
                    break;
                }
            };
            let p = remote.producer() as usize;
            // A respawned producer can handshake while the dead
            // connection's handler is still timing out its read; wait
            // (bounded) for the handler to park the feeder.
            let wait_budget = Instant::now();
            let mut feeder = loop {
                if let Some(f) = plock(&slots[p]).feeder.take() {
                    break Some(f);
                }
                if !tuning.supervised || wait_budget.elapsed() > tuning.reconnect || cancelled() {
                    break None;
                }
                std::thread::sleep(ACCEPT_POLL);
            };
            let Some(feeder) = feeder.take() else {
                fail(
                    FilterError::malformed(
                        "net.ingress",
                        format!("producer {p} connected twice concurrently"),
                    ),
                    &errors,
                );
                break;
            };
            if feeder.ended() {
                plock(&slots[p]).feeder = Some(feeder);
                if tuning.supervised {
                    // A respawned prefix regenerates its full output; the
                    // tail past this link's End is duplicate by
                    // construction. Drain and discard it.
                    scope.spawn(move || {
                        let mut remote = remote;
                        loop {
                            match remote.read() {
                                Ok(Some(Frame::End { .. })) | Ok(Some(Frame::Close)) | Ok(None) => {
                                    break
                                }
                                Ok(Some(_)) => continue,
                                Err(_) => break,
                            }
                        }
                    });
                    continue;
                }
                fail(
                    FilterError::malformed(
                        "net.ingress",
                        format!("producer {p} reconnected after End"),
                    ),
                    &errors,
                );
                break;
            }
            {
                let mut slot = plock(&slots[p]);
                slot.parked_at = None;
                if slot.connected_once {
                    reconnects.fetch_add(1, Ordering::Relaxed);
                }
                slot.connected_once = true;
            }
            let (frames, bytes, errors) = (&frames, &bytes, &errors);
            let fail = &fail;
            let probe = probe.clone();
            scope.spawn(move || {
                let mut remote = remote;
                let mut feeder = feeder;
                // Whether this connection died without `End` (supervised:
                // park the slot and await a respawned producer).
                let mut parked = false;
                loop {
                    match remote.read() {
                        Ok(Some(Frame::Data { from, seq, payload })) => {
                            if from as usize != p {
                                fail(
                                    FilterError::malformed(
                                        "net.ingress",
                                        format!(
                                            "frame from producer {from} on producer {p}'s \
                                             connection"
                                        ),
                                    ),
                                    errors,
                                );
                                break;
                            }
                            let n = payload.len() as u64;
                            match feeder.feed(seq, Buffer::from_vec(payload)) {
                                Ok(true) => {
                                    frames.fetch_add(1, Ordering::Relaxed);
                                    bytes.fetch_add(n, Ordering::Relaxed);
                                    if let Some(p) = &probe {
                                        p.count_frame(n);
                                    }
                                }
                                Ok(false) => {
                                    if let Some(p) = &probe {
                                        p.deduped.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Err(e) => {
                                    fail(e, errors);
                                    break;
                                }
                            }
                        }
                        Ok(Some(Frame::End { from })) => {
                            if from as usize != p {
                                fail(
                                    FilterError::malformed(
                                        "net.ingress",
                                        format!(
                                            "End from producer {from} on producer {p}'s \
                                                 connection"
                                        ),
                                    ),
                                    errors,
                                );
                                break;
                            }
                            feeder.end();
                            remaining.fetch_sub(1, Ordering::AcqRel);
                            break;
                        }
                        // Clean disconnect: the producer may reconnect
                        // (its process restarted); the watermark in the
                        // slot table survives.
                        Ok(Some(Frame::Close)) | Ok(None) => {
                            parked = tuning.supervised;
                            break;
                        }
                        Ok(Some(f)) => {
                            fail(
                                FilterError::malformed(
                                    "net.ingress",
                                    format!("unexpected frame mid-stream: {f:?}"),
                                ),
                                errors,
                            );
                            break;
                        }
                        Err(e) => {
                            // Supervised: a dead connection — reset, EOF
                            // mid-frame, heartbeat timeout — is a dirty
                            // disconnect, not link failure. The partial
                            // frame (if any) was never fed, so the
                            // watermark is consistent and a respawned
                            // producer resumes exactly past it.
                            if tuning.supervised && e.kind != crate::error::ErrorKind::Cancelled {
                                if is_heartbeat_timeout(&e) {
                                    timeouts.fetch_add(1, Ordering::Relaxed);
                                }
                                parked = true;
                                break;
                            }
                            fail(e, errors);
                            break;
                        }
                    }
                }
                // Return the feeder (and its watermark) to the slot for a
                // possible reconnect; start the reconnect clock if the
                // connection died without End.
                let mut slot = plock(&slots[p]);
                if parked {
                    slot.parked_at = Some(Instant::now());
                }
                slot.feeder = Some(feeder);
            });
        }
    });

    // Close any local writer still open (error/cancel paths), so
    // downstream readers see end-of-work instead of blocking forever.
    let mut deduped = 0;
    for slot in slots {
        if let Some(f) = &mut plock(slot).feeder {
            deduped += f.deduped();
            f.writer.close();
        }
    }
    if let Some(e) = plock(&errors).first() {
        return Err(e.clone());
    }
    if cancelled() && remaining.load(Ordering::Acquire) > 0 {
        return Err(FilterError::cancelled(
            "net.ingress",
            "run cancelled before all producers finished",
        ));
    }
    Ok(NetLinkStats {
        frames: frames.load(Ordering::Relaxed),
        bytes: bytes.load(Ordering::Relaxed),
        deduped,
        timeouts: timeouts.load(Ordering::Relaxed),
        reconnects: reconnects.load(Ordering::Relaxed),
    })
}

/// Drain one local [`StreamReader`] (the 1→1 stream behind one producer
/// copy) into a remote connection. Each successfully transmitted packet
/// is acknowledged on the local stream — the socket plays a stateless
/// consumer, so the producer side's replay buffers stay bounded and a
/// restarted filter copy replays only untransmitted packets.
///
/// An optional live [`LinkProbe`] (shared by every producer copy's pump
/// on the link) ticks transmitted frame/byte counters per packet for the
/// telemetry sampler. `tuning` bounds the handshake wait by the silence
/// deadline and, with heartbeats configured, makes the connection emit
/// [`Frame::Heartbeat`] whenever the producer stage is idle — so the
/// consumer's deadline distinguishes "slow" from "dead".
pub fn egress_pump(
    mut reader: StreamReader,
    addr: &str,
    link: u32,
    producer: u32,
    control: Option<Arc<RunControl>>,
    probe: Option<Arc<LinkProbe>>,
    tuning: NetTuning,
) -> FilterResult<NetLinkStats> {
    let mut conn = RemoteStreamWriter::connect(addr, link, producer, control.clone(), tuning)?;
    let (mut pf, mut pb) = (0u64, 0u64);
    while let Some(buf) = reader.read() {
        conn.write(&buf)?;
        reader.commit_acks();
        if let Some(p) = &probe {
            // Delta against the connection's own counters, so suppressed
            // resends never inflate the probe.
            let (f, b) = conn.stats();
            p.frames.fetch_add(f - pf, Ordering::Relaxed);
            p.bytes.fetch_add(b - pb, Ordering::Relaxed);
            (pf, pb) = (f, b);
        }
    }
    if control.as_ref().is_some_and(|c| c.is_cancelled()) {
        return Err(FilterError::cancelled(
            format!("net.egress[{producer}]"),
            "run cancelled during transmit",
        ));
    }
    conn.finish()
}

/// Worker-side telemetry connection to the launcher's aggregator.
///
/// Handshakes with [`TELEMETRY_LINK`] (so version mismatches are caught
/// exactly like on data links), then ships opaque telemetry payloads.
/// All sends are best-effort from the caller's perspective: losing
/// telemetry must never fail a run, so callers typically drop the client
/// on the first error.
pub struct TelemetryClient {
    conn: FrameConn,
}

impl TelemetryClient {
    /// Connect (single attempt — the launcher binds its aggregator
    /// before spawning workers, and a retry budget here would stall a
    /// worker whose launcher died; telemetry is best-effort) and
    /// handshake as `worker`.
    pub fn connect(
        addr: &str,
        worker: u32,
        control: Option<Arc<RunControl>>,
    ) -> FilterResult<Self> {
        let who = format!("net.telemetry[{worker}]");
        if control.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(FilterError::cancelled(
                who,
                "run cancelled while connecting",
            ));
        }
        let stream = TcpStream::connect(addr)
            .map_err(|e| FilterError::new(who.clone(), format!("connect to {addr} failed: {e}")))?;
        let mut conn = FrameConn::new(stream, control, who.clone())?;
        conn.write_frame(&Frame::Hello {
            link: TELEMETRY_LINK,
            producer: worker,
        })?;
        match conn.read_frame()? {
            Some(Frame::HelloAck { .. }) => {}
            Some(f) => {
                return Err(FilterError::malformed(
                    who,
                    format!("expected HelloAck, got {f:?}"),
                ))
            }
            None => {
                return Err(FilterError::malformed(
                    who,
                    "connection closed during handshake",
                ))
            }
        }
        Ok(TelemetryClient { conn })
    }

    /// Ship one telemetry payload.
    pub fn send(&mut self, payload: &[u8]) -> FilterResult<()> {
        if payload.len() > MAX_FRAME_PAYLOAD {
            return Err(FilterError::new(
                self.conn.who.clone(),
                format!(
                    "telemetry payload of {} bytes exceeds the frame cap {MAX_FRAME_PAYLOAD}",
                    payload.len()
                ),
            ));
        }
        let mut header = [0u8; 5];
        header[0] = TAG_TELEMETRY;
        header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        self.conn.write_all(&header)?;
        self.conn.write_all(payload)
    }

    /// Orderly shutdown; errors are ignored (the aggregator treats EOF
    /// and `Close` the same).
    pub fn close(mut self) {
        let _ = self.conn.write_frame(&Frame::Close);
        let _ = self.conn.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// Serve the launcher side of the telemetry plane: accept worker
/// connections on `listener` and hand every decoded payload to
/// `on_update(worker, payload)`. Returns once `expected` connections
/// have terminated (cleanly or not), or when `control` is cancelled —
/// the launcher cancels after its worker processes exit, which also
/// covers workers that crash before ever connecting.
///
/// `on_disconnect(worker)` fires when a worker's connection ends (cleanly
/// or not), after its last update was delivered. Aggregators use it to
/// retire the worker's live state — without it, a crashed worker's final
/// sample haunts every merged status line.
///
/// Telemetry is best-effort: per-connection decode errors end that
/// connection but are not propagated (a run must never fail because its
/// telemetry did). Only listener setup errors are returned.
pub fn serve_telemetry<F, D>(
    listener: TcpListener,
    expected: usize,
    control: Option<Arc<RunControl>>,
    on_update: F,
    on_disconnect: D,
) -> FilterResult<()>
where
    F: Fn(u32, Vec<u8>) + Send + Sync,
    D: Fn(u32) + Send + Sync,
{
    listener
        .set_nonblocking(true)
        .map_err(|e| FilterError::new("net.telemetry", format!("listener: {e}")))?;
    let finished = AtomicUsize::new(0);
    let finished = &finished;
    let cancelled = || control.as_ref().is_some_and(|c| c.is_cancelled());
    let on_update = &on_update;
    let on_disconnect = &on_disconnect;
    std::thread::scope(|scope| {
        while finished.load(Ordering::Acquire) < expected && !cancelled() {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let control = control.clone();
            scope.spawn(move || {
                let worker = (|| -> FilterResult<(FrameConn, u32)> {
                    let mut conn = FrameConn::new(stream, control, "net.telemetry".to_string())?;
                    match conn.read_frame()? {
                        Some(Frame::Hello { link, producer }) if link == TELEMETRY_LINK => {
                            conn.who = format!("net.telemetry[{producer}]");
                            conn.write_frame(&Frame::HelloAck { resume_seq: 0 })?;
                            Ok((conn, producer))
                        }
                        _ => Err(FilterError::malformed(
                            "net.telemetry",
                            "expected telemetry Hello",
                        )),
                    }
                })();
                let Ok((mut conn, worker)) = worker else {
                    finished.fetch_add(1, Ordering::AcqRel);
                    return;
                };
                // Close, EOF, an unexpected frame, or a decode error
                // all just end the connection.
                while let Ok(Some(Frame::Telemetry { payload })) = conn.read_frame() {
                    on_update(worker, payload);
                }
                on_disconnect(worker);
                finished.fetch_add(1, Ordering::AcqRel);
            });
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::logical_stream;

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::Hello {
                link: 3,
                producer: 7,
            },
            Frame::HelloAck { resume_seq: 42 },
            Frame::Data {
                from: 1,
                seq: 99,
                payload: vec![1, 2, 3, 4, 5],
            },
            Frame::Data {
                from: 0,
                seq: 0,
                payload: vec![],
            },
            Frame::End { from: 2 },
            Frame::Close,
            Frame::Telemetry {
                payload: b"{\"source\":\"w0\"}".to_vec(),
            },
            Frame::Telemetry { payload: vec![] },
        ];
        for f in &frames {
            let bytes = encode_frame(f);
            let (back, used) = decode_frame(&bytes).unwrap();
            assert_eq!(&back, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocating() {
        // Header declares ~4 GiB with a 0-byte body: must be rejected by
        // the cap check, never by an allocation attempt.
        let mut bytes = vec![TAG_DATA];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&bytes).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert!(err.message.contains("cap"), "{err}");
    }

    #[test]
    fn truncated_frames_are_malformed_at_every_cut() {
        for f in [
            Frame::Hello {
                link: 1,
                producer: 0,
            },
            Frame::Data {
                from: 0,
                seq: 5,
                payload: vec![9; 32],
            },
            Frame::End { from: 0 },
        ] {
            let bytes = encode_frame(&f);
            for cut in 0..bytes.len() {
                let err = decode_frame(&bytes[..cut]).unwrap_err();
                assert_eq!(
                    err.kind,
                    crate::error::ErrorKind::Malformed,
                    "cut={cut} of {f:?}"
                );
            }
        }
    }

    #[test]
    fn bad_magic_version_and_tag_are_malformed() {
        let mut hello = encode_frame(&Frame::Hello {
            link: 0,
            producer: 0,
        });
        hello[1] = b'X';
        assert!(decode_frame(&hello).unwrap_err().message.contains("magic"));

        let mut hello = encode_frame(&Frame::Hello {
            link: 0,
            producer: 0,
        });
        hello[5] = 0xff;
        assert!(decode_frame(&hello)
            .unwrap_err()
            .message
            .contains("version"));

        assert!(decode_frame(&[200u8])
            .unwrap_err()
            .message
            .contains("unknown frame tag"));
    }

    #[test]
    fn oversized_telemetry_payload_is_rejected_before_allocating() {
        let mut bytes = vec![TAG_TELEMETRY];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&bytes).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert!(err.message.contains("cap"), "{err}");
    }

    #[test]
    fn truncated_telemetry_payload_is_malformed() {
        let bytes = encode_frame(&Frame::Telemetry {
            payload: vec![7; 16],
        });
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind, crate::error::ErrorKind::Malformed, "cut={cut}");
        }
    }

    #[test]
    fn telemetry_client_ships_payloads_to_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let got: Mutex<Vec<(u32, Vec<u8>)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                serve_telemetry(listener, 2, None, |w, p| plock(&got).push((w, p)), |_| {})
                    .unwrap();
            });
            for w in 0..2u32 {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = TelemetryClient::connect(&addr, w, None).unwrap();
                    client.send(format!("update-{w}-a").as_bytes()).unwrap();
                    client.send(format!("update-{w}-b").as_bytes()).unwrap();
                    client.close();
                });
            }
        });
        let mut got = plock(&got).clone();
        got.sort();
        assert_eq!(
            got,
            vec![
                (0, b"update-0-a".to_vec()),
                (0, b"update-0-b".to_vec()),
                (1, b"update-1-a".to_vec()),
                (1, b"update-1-b".to_vec()),
            ]
        );
    }

    #[test]
    fn ingress_feeder_dedups_and_rejects_gaps() {
        let (ws, mut rs) = logical_stream(1, 1, 16, None, false, true);
        let mut feeder = IngressFeeder::new(ws.into_iter().next().unwrap());
        for seq in 0..3 {
            assert!(feeder.feed(seq, Buffer::from_vec(vec![seq as u8])).unwrap());
        }
        // Duplicated in-flight frames after a reconnect: dropped.
        assert!(!feeder.feed(1, Buffer::from_vec(vec![1])).unwrap());
        assert!(!feeder.feed(2, Buffer::from_vec(vec![2])).unwrap());
        assert_eq!(feeder.deduped(), 2);
        assert_eq!(feeder.resume_seq(), 3, "watermark never regresses");
        // Next fresh frame is delivered.
        assert!(feeder.feed(3, Buffer::from_vec(vec![3])).unwrap());
        // A gap is corruption.
        let err = feeder.feed(9, Buffer::from_vec(vec![9])).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        feeder.end();
        let seen: Vec<u8> = std::iter::from_fn(|| rs[0].read())
            .map(|b| b.as_slice()[0])
            .collect();
        assert_eq!(seen, vec![0, 1, 2, 3], "each frame delivered exactly once");
    }

    #[test]
    fn connect_error_classification() {
        use std::io::{Error, ErrorKind};
        // Listener-not-up-yet races are retryable.
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::TimedOut,
            ErrorKind::AddrNotAvailable,
        ] {
            assert!(
                connect_error_is_transient(&Error::from(kind)),
                "{kind:?} should be retryable"
            );
        }
        // Config mistakes fail the same way on every attempt.
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::PermissionDenied,
            ErrorKind::NotFound,
            ErrorKind::Unsupported,
        ] {
            assert!(
                !connect_error_is_transient(&Error::from(kind)),
                "{kind:?} should fail fast"
            );
        }
    }

    #[test]
    fn connect_backoff_saturates_instead_of_overflowing() {
        assert_eq!(
            next_connect_delay(Duration::from_millis(10)),
            Duration::from_millis(20)
        );
        assert_eq!(next_connect_delay(MAX_CONNECT_DELAY), MAX_CONNECT_DELAY);
        // A pathological starting delay must not panic in the doubling.
        assert_eq!(next_connect_delay(Duration::MAX), MAX_CONNECT_DELAY);
    }

    #[test]
    fn connect_fails_fast_on_an_unparseable_address() {
        let start = std::time::Instant::now();
        let err = match connect_with_retry("definitely not an address", None, "test") {
            Err(e) => e,
            Ok(_) => panic!("nonsense address must not connect"),
        };
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "non-transient errors must not consume the 10s retry budget \
             (took {:?})",
            start.elapsed()
        );
        assert!(
            err.message.contains("not retryable"),
            "error says why it gave up immediately: {err}"
        );
    }
}
