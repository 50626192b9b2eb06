//! TCP carrier and the wire format of distributed logical streams.
//!
//! The in-process runtime connects filter copies through bounded channels
//! ([`crate::stream`]). A distributed run extends one logical stream
//! across a process boundary with length-prefixed frames, *without*
//! re-implementing any stream semantics: both ends are bridged onto
//! ordinary local streams by [`crate::link`], so batching, backpressure,
//! cancellation, deadlines and fault injection all keep working
//! unchanged. This module defines the frames, and the TCP
//! carrier: a cancellable socket, the heartbeat sidecar, and the accept
//! loop through which a producer's connection arrives. Same-host rings
//! ([`crate::shm`]) carry the same frames.
//!
//! ## Topology
//!
//! One logical link `stage s → stage s+1` split across two processes:
//!
//! ```text
//!  producer process                      consumer process
//!  ┌──────────────┐  local 1→1 stream   ┌──────────────────────────────┐
//!  │ filter copy c ├──▶ egress pump c ──TCP──▶ ingress bridge p ───┐   │
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
//! [`StreamWriter`](crate::stream::StreamWriter) with the *same* producer
//! index and stagger the in-process run would use; round-robin routing
//! is a pure function of the sequence number, so packet→consumer-copy
//! routing is reproduced exactly and results stay byte-identical to the
//! in-process run.
//!
//! ## Wire format
//!
//! Every frame is `tag: u8` followed by a fixed header and (for data) a
//! length-prefixed payload, all little-endian:
//!
//! | frame      | layout                                                  |
//! |------------|---------------------------------------------------------|
//! | `Hello`    | magic `CGPN`, `version: u16`, `link: u32`, `producer: u32` |
//! | `Data`     | `from: u32`, `seq: u64`, `len: u32`, payload             |
//! | `End`      | `from: u32` (producer finished its unit of work)         |
//! | `Close`    | — (orderly connection shutdown)                          |
//! | `Telemetry`| `len: u32`, payload (JSON telemetry update)              |
//! | `Heartbeat`| — (liveness beacon, consumed by the frame reader)        |
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
//! The handshake is one-way, as on rings: a producer writes `Hello` and
//! streams right after it, numbering its data frames from 0.
//!
//! ## Recovery across the socket
//!
//! A worker never restarts itself, and a connection is never resumed:
//! each producer connects once, a second connection for it is malformed,
//! and a producer that vanishes short of `End` is settled by
//! [`crate::link`] (the link fails, or under supervision waits for the
//! launcher to restart the whole chain from packet 0).
//!
//! [`ErrorKind::Malformed`]: crate::error::ErrorKind

use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::link::{
    read_frame, send_hello, write_frame, FrameSink, FrameSource, IngressLink, NetTuning,
};
use cgp_obs::trace::{self, PID_RUNTIME};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Connection magic: first bytes of every `Hello` frame.
pub const NET_MAGIC: [u8; 4] = *b"CGPN";
/// Wire-protocol version (checked during the handshake). Version 2 made
/// the handshake the producer's one-way `Hello`.
pub const NET_VERSION: u16 = 2;
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

/// Poison-tolerant lock (the heartbeat's shared state is plain data).
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
    /// One packet: the `seq`-th the producer copy `from` ever sent on
    /// this link.
    Data {
        from: u32,
        seq: u64,
        payload: Vec<u8>,
    },
    /// Producer copy `from` finished its unit of work.
    End { from: u32 },
    /// Orderly connection shutdown, after `End`.
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

/// A cancellation-aware TCP connection, one carrier under the frame
/// protocol ([`crate::link`]): blocking reads and writes poll the socket
/// at [`POLL`] granularity so a cancelled run unwedges promptly even
/// while a peer is silent.
struct TcpConn {
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

/// Whether a socket error only means "nothing yet" (the [`POLL`] timeout
/// fired or the call was interrupted), so the caller should re-check
/// cancellation and try again.
fn would_block(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

impl TcpConn {
    fn new(stream: TcpStream, control: Option<Arc<RunControl>>, who: String) -> FilterResult<Self> {
        let err = |e: std::io::Error| FilterError::new(who.clone(), format!("socket setup: {e}"));
        stream.set_nodelay(true).map_err(err)?;
        stream.set_read_timeout(Some(POLL)).map_err(err)?;
        stream.set_write_timeout(Some(POLL)).map_err(err)?;
        Ok(TcpConn {
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
                Err(e) if would_block(&e) => {
                    if let Some(c) = self.cancelled() {
                        return Err(c);
                    }
                }
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
}

impl FrameSource for TcpConn {
    fn who(&self) -> &str {
        &self.who
    }

    /// EOF mid-frame is malformed, and a peer silent past the deadline is
    /// a stall.
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
                Err(e) if would_block(&e) => {
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
}

impl FrameSink for TcpConn {
    fn who(&self) -> &str {
        &self.who
    }

    fn send(&mut self, header: &[u8], payload: &[u8]) -> FilterResult<()> {
        self.write_all(header)?;
        self.write_all(payload)
    }
}

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

/// Connect to `addr` with bounded retry and backoff (the peer worker may
/// not have bound its listener yet). Cancellable between attempts: a
/// cancelled producer still connects to a listening peer, so its close
/// reaches the consumer instead of leaving it waiting for a producer
/// that never comes. Emits a `net.connect` trace span covering the whole
/// attempt sequence.
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
                if control.is_some_and(|c| c.is_cancelled()) {
                    return Err(FilterError::cancelled(
                        who.to_string(),
                        "run cancelled while connecting",
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

/// The producer end of one TCP link connection, as the egress pump
/// ([`crate::link::egress_pump`]) drives it.
///
/// With [`NetTuning::heartbeat`] configured, a sidecar thread shares the
/// connection (frame-granular mutex, so a heartbeat can never interleave
/// inside a data frame) and emits [`Frame::Heartbeat`] whenever the link
/// has been idle for one heartbeat interval — a blocked or slow producer
/// stage no longer looks dead to the consumer's silence deadline.
pub(crate) struct TcpEgress {
    conn: Arc<Mutex<TcpConn>>,
    who: String,
    beat: Option<HeartbeatHandle>,
}

/// Connect (with retry) and say `Hello` as `producer` on `link`. When
/// heartbeats are on, the idle-link beacon thread is started.
pub(crate) fn connect(
    addr: &str,
    link: u32,
    producer: u32,
    control: Option<Arc<RunControl>>,
    tuning: NetTuning,
) -> FilterResult<TcpEgress> {
    let who = format!("net.egress[{producer}]");
    let stream = connect_with_retry(addr, control.as_ref(), &who)?;
    let mut conn = TcpConn::new(stream, control, who.clone())?;
    send_hello(&mut conn, link, producer)?;
    let conn = Arc::new(Mutex::new(conn));
    let beat = tuning
        .heartbeat
        .map(|every| HeartbeatHandle::spawn(Arc::clone(&conn), every));
    Ok(TcpEgress { conn, who, beat })
}

impl FrameSink for TcpEgress {
    fn who(&self) -> &str {
        &self.who
    }

    fn send(&mut self, header: &[u8], payload: &[u8]) -> FilterResult<()> {
        plock(&self.conn).send(header, payload)?;
        if let Some(b) = &self.beat {
            b.mark_tx();
        }
        Ok(())
    }

    /// Stop the heartbeat first, so nothing follows `Close`, then close
    /// the write side in order.
    fn finish(mut self, last: &[u8]) -> FilterResult<()> {
        if let Some(mut b) = self.beat.take() {
            b.stop();
        }
        let mut conn = plock(&self.conn);
        conn.send(last, &[])?;
        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
        Ok(())
    }
}

/// The egress heartbeat sidecar: stop flag + thread.
struct HeartbeatHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    last_tx: Arc<Mutex<Instant>>,
}

impl HeartbeatHandle {
    fn spawn(conn: Arc<Mutex<TcpConn>>, every: Duration) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let last_tx = Arc::new(Mutex::new(Instant::now()));
        let (stop2, last2) = (Arc::clone(&stop), Arc::clone(&last_tx));
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
                let beat = encode_frame(&Frame::Heartbeat);
                if write_frame(&mut *conn, &beat, &[]).is_err() {
                    break;
                }
                *plock(&last2) = Instant::now();
            }
        });
        HeartbeatHandle {
            stop,
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

/// How a producer's connection arrives over TCP: accept one connection
/// per upstream producer copy on `listener` and serve each on its own
/// thread through `link` ([`crate::link::serve_ingress`]), with the
/// silence `deadline` on every read, the `Hello` included. Returns once
/// every producer sent `End`, the link failed, or the run was cancelled.
pub(crate) fn serve_tcp(listener: TcpListener, link: &IngressLink, deadline: Option<Duration>) {
    if let Err(e) = listener.set_nonblocking(true) {
        link.fail(FilterError::new("net.ingress", format!("listener: {e}")));
    }
    std::thread::scope(|scope| {
        while !link.done() {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    link.fail(FilterError::new("net.ingress", format!("accept: {e}")));
                    break;
                }
            };
            let mut conn = match TcpConn::new(stream, link.control.clone(), "net.ingress".into()) {
                Ok(c) => c,
                Err(e) => {
                    link.fail(e);
                    break;
                }
            };
            conn.set_deadline(deadline);
            scope.spawn(move || {
                link.serve(&mut conn, None, |c, p| c.who = format!("net.ingress[{p}]"));
            });
        }
    });
}

/// Worker-side telemetry connection to the launcher's aggregator.
///
/// Says `Hello` with [`TELEMETRY_LINK`] (so version mismatches are
/// caught exactly like on data links), then ships opaque telemetry
/// payloads.
/// All sends are best-effort from the caller's perspective: losing
/// telemetry must never fail a run, so callers typically drop the client
/// on the first error.
pub struct TelemetryClient {
    conn: TcpConn,
}

impl TelemetryClient {
    /// Connect (single attempt — the launcher binds a chain's aggregator
    /// before it spawns the chain, and a retry budget here would stall a
    /// worker whose launcher died; telemetry is best-effort) and say
    /// `Hello` as `worker`.
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
        let mut conn = TcpConn::new(stream, control, who)?;
        send_hello(&mut conn, TELEMETRY_LINK, worker)?;
        Ok(TelemetryClient { conn })
    }

    /// Ship one telemetry payload.
    pub fn send(&mut self, payload: &[u8]) -> FilterResult<()> {
        let mut header = [0u8; 5];
        header[0] = TAG_TELEMETRY;
        header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        write_frame(&mut self.conn, &header, payload)
    }

    /// Orderly shutdown; errors are ignored (the aggregator treats EOF
    /// and `Close` the same).
    pub fn close(mut self) {
        let _ = write_frame(&mut self.conn, &encode_frame(&Frame::Close), &[]);
        let _ = self.conn.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// Serve the launcher side of the telemetry plane: accept worker
/// connections on `listener` and hand every payload to
/// `on_update(worker, payload)`, until `control` is cancelled. The
/// launcher serves one chain of workers per listener and cancels once
/// they have exited; connections already waiting to be accepted are
/// still served, and a served connection is read to its end.
///
/// `on_disconnect(worker)` fires when a worker's connection ends (cleanly
/// or not), after its last update was delivered. Aggregators use it to
/// retire the worker's live state — without it, a crashed worker's last
/// sample haunts every merged status line.
///
/// Telemetry is best-effort: per-connection decode errors end that
/// connection but are not propagated (a run must never fail because its
/// telemetry did). Only listener setup errors are returned.
pub fn serve_telemetry<F, D>(
    listener: TcpListener,
    control: Arc<RunControl>,
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
    let on_update = &on_update;
    let on_disconnect = &on_disconnect;
    std::thread::scope(|scope| loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if control.is_cancelled() {
                    break;
                }
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let control = Arc::clone(&control);
        scope.spawn(move || {
            let Ok(mut conn) = TcpConn::new(stream, Some(control), "net.telemetry".to_string())
            else {
                return;
            };
            let worker = match read_frame(&mut conn) {
                Ok(Some(Frame::Hello { link, producer })) if link == TELEMETRY_LINK => producer,
                _ => return,
            };
            // Close, EOF, an unexpected frame, or a decode error all just
            // end the connection.
            while let Ok(Some(Frame::Telemetry { payload })) = read_frame(&mut conn) {
                on_update(worker, payload);
            }
            on_disconnect(worker);
        });
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::link::IngressFeeder;
    use crate::stream::logical_stream;

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::Hello {
                link: 3,
                producer: 7,
            },
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
        let control = RunControl::new();
        std::thread::scope(|s| {
            let serving = s.spawn(|| {
                let on_update = |w, p| plock(&got).push((w, p));
                serve_telemetry(listener, Arc::clone(&control), on_update, |_| {}).unwrap();
            });
            for w in 0..2u32 {
                let mut client = TelemetryClient::connect(&addr, w, None).unwrap();
                client.send(format!("update-{w}-a").as_bytes()).unwrap();
                client.send(format!("update-{w}-b").as_bytes()).unwrap();
                client.close();
            }
            // Both clients closed: the server still reads each connection
            // to its end once cancelled.
            control.cancel("clients done");
            serving.join().unwrap();
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
    fn ingress_feeder_rejects_repeats_and_gaps() {
        let (ws, mut rs) = logical_stream(1, 1, 16, RunControl::new());
        let mut feeder = IngressFeeder::new(ws.into_iter().next().unwrap());
        for seq in 0..3 {
            feeder.feed(seq, Buffer::from_vec(vec![seq as u8])).unwrap();
        }
        // A repeat and a gap are both corruption on a FIFO carrier, and
        // neither moves the next expected sequence number.
        for (seq, what) in [(2, "repeated sequence"), (9, "sequence gap")] {
            let err = feeder.feed(seq, Buffer::from_vec(vec![9])).unwrap_err();
            assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
            assert_eq!(err.message, format!("{what}: got {seq}, expected 3"));
        }
        feeder.feed(3, Buffer::from_vec(vec![3])).unwrap();
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
