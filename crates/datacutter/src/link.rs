//! One link transport: a logical stream across a process boundary.
//!
//! A distributed link `stage s → stage s+1` rides one of two carriers:
//! loopback or cross-host TCP ([`crate::net`]) or same-host mmap rings
//! ([`crate::shm`]). Both move the same frames (wire format in
//! [`crate::net`]). A carrier keeps only its byte pipe and the way a
//! producer's connection arrives; everything above the bytes is written
//! once, here:
//!
//! - **Frame I/O.** One frame reader parses tag → fixed header → length
//!   cap → payload → [`decode_frame`] over either carrier and consumes
//!   heartbeats. One frame writer checks [`MAX_FRAME_PAYLOAD`] and hands
//!   the carrier a whole frame, so a TCP heartbeat can never land inside
//!   a data frame.
//! - **Ingress.** [`serve_ingress`] bridges each producer copy's
//!   connection onto its local [`StreamWriter`] through a
//!   sequence-deduplicating feeder. The bridge reports how a connection
//!   ended (`End`, a clean close, a ring reset, or a carrier error), and
//!   the carrier's arrival code decides whether that parks the producer
//!   or fails the link. Counters, the first error (which cancels the
//!   run) and teardown are link-level and shared.
//! - **Egress.** [`egress_pump`] drains one producer copy's local 1→1
//!   stream. Every incarnation of a producer numbers its packets from 0.
//!   Packets below the consumer's resume watermark, handed over in
//!   `HelloAck` on TCP and in the ring header on a ring reset, are
//!   suppressed and counted in [`NetLinkStats::deduped`].
//! - **Endpoints.** [`WorkerIngress::bind`] turns a listen address into
//!   an ingress, and [`Transport`] names the carrier a launcher picks.
//!
//! What stays per carrier is policy that tests pin:
//!
//! | | TCP | shm |
//! |---|---|---|
//! | arrival | accept loop, `Hello`/`HelloAck` slot routing | one eagerly created ring and reader thread per producer |
//! | liveness | silence deadline, heartbeat sidecar | pid probe |
//! | close before `End`, unsupervised | the producer may reconnect | error |
//! | supervised | a dead connection parks the slot for `reconnect` | the reader parks until the ring is reset |

use crate::buffer::Buffer;
use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::net::{
    self, decode_frame, encode_data_header, encode_frame, frame_header_len, frame_len_field_at,
    Frame, MAX_FRAME_PAYLOAD,
};
use crate::shm::{self, shm_dir, shm_supported, ShmIngress, DEFAULT_SHM_CAPACITY, SHM_PREFIX};
use crate::stream::{StreamReader, StreamWriter};
use crate::telemetry::LinkProbe;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Poison-tolerant lock (link state is plain data).
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-link transfer counters, read off the link's [`LinkProbe`] and
/// reported into `cgp_obs` metrics by the executor
/// (`net.link<id>.frames` / `.bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetLinkStats {
    /// Data frames moved across the carrier.
    pub frames: u64,
    /// Payload bytes moved across the carrier.
    pub bytes: u64,
    /// Packets that were not moved twice: on ingress, duplicated frames
    /// the sequence watermark discarded; on egress, packets below the
    /// consumer's resume watermark that were never sent.
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
/// `heartbeat` turns the TCP liveness protocol on: egress connections
/// emit [`Frame::Heartbeat`] whenever the link has been idle that long,
/// and readers fail (or, supervised, declare a dirty disconnect) when a
/// peer is silent past [`NetTuning::deadline`]. Rings probe the
/// producer's pid instead. `supervised` makes the ingress side
/// *lenient*: a dead producer parks instead of failing the link, waiting
/// up to `reconnect` for a respawned process to rejoin (the launcher's
/// supervision layer guarantees one is coming, or kills the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTuning {
    /// Emit a heartbeat after this much idle time, and derive the silence
    /// deadline from it. `None` disables the liveness protocol entirely
    /// (a dead TCP peer blocks reads until the run watchdog fires).
    pub heartbeat: Option<Duration>,
    /// Lenient ingress: treat dead producers as dirty disconnects and
    /// wait (bounded) for the producer to be respawned and rejoin.
    pub supervised: bool,
    /// How long a supervised ingress waits for a disconnected producer to
    /// rejoin before declaring the link dead.
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

/// The carrier of a link between co-located worker processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Shared-memory rings (`shm:<base>` addresses), same host only.
    Shm,
    /// Loopback or cross-host TCP.
    Tcp,
}

impl Transport {
    /// An explicit choice wins. Otherwise shared memory is picked when
    /// the build supports it (a single-machine launcher always co-locates
    /// its workers), and TCP when it does not.
    pub fn select(requested: Option<Transport>) -> Transport {
        requested.unwrap_or(if shm_supported() {
            Transport::Shm
        } else {
            Transport::Tcp
        })
    }

    /// The listen address for which [`WorkerIngress::bind`] picks a fresh
    /// endpoint on this carrier.
    pub fn fresh_addr(self) -> &'static str {
        match self {
            Transport::Shm => "shm:auto",
            Transport::Tcp => "127.0.0.1:0",
        }
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "shm" => Ok(Transport::Shm),
            "tcp" => Ok(Transport::Tcp),
            other => Err(format!("expected `shm` or `tcp`, got `{other}`")),
        }
    }
}

/// Ingress endpoint for a worker's upstream link: a bound TCP listener
/// or pre-created shared-memory rings. Made before the run starts, so a
/// launcher learns the address before any producer connects.
#[derive(Debug)]
pub enum WorkerIngress {
    Tcp(TcpListener),
    Shm(ShmIngress),
}

/// Tells apart the ring bases that `shm:auto` picks within one process.
static AUTO_BASES: AtomicUsize = AtomicUsize::new(0);

impl WorkerIngress {
    /// Open the ingress for `producers` upstream copies at `addr`:
    /// `host:port` binds a TCP listener (port 0 picks a free one),
    /// `shm:<base>` creates one ring per producer at `<base>.<p>`, and
    /// `shm:auto` does so at a fresh base under [`shm_dir`]. Returns the
    /// endpoint and the address its producers connect to.
    pub fn bind(addr: &str, producers: usize) -> FilterResult<(WorkerIngress, String)> {
        let Some(base) = addr.strip_prefix(SHM_PREFIX) else {
            let err =
                |e: std::io::Error| FilterError::new("net.ingress", format!("bind {addr}: {e}"));
            let listener = TcpListener::bind(addr).map_err(err)?;
            let at = listener.local_addr().map_err(err)?.to_string();
            return Ok((WorkerIngress::Tcp(listener), at));
        };
        if !shm_supported() {
            return Err(FilterError::new(
                "shm.ingress",
                "transport `shm` requested but this build has no shared-memory support",
            ));
        }
        let base = match base {
            "" | "auto" => {
                let n = AUTO_BASES.fetch_add(1, Ordering::Relaxed);
                let name = format!("cgp-{}-{n}", std::process::id());
                shm_dir().join(name).display().to_string()
            }
            base => base.to_string(),
        };
        let rings = ShmIngress::create(&base, producers, DEFAULT_SHM_CAPACITY, None)?;
        Ok((WorkerIngress::Shm(rings), format!("{SHM_PREFIX}{base}")))
    }
}

/// What one blocking carrier read produced.
pub(crate) enum Filled {
    /// The buffer is full.
    Full,
    /// The peer closed cleanly before any byte.
    Eof,
    /// A respawned producer reset the ring: any partial frame is gone,
    /// and a fresh `Hello` comes next.
    Reset,
}

/// The reading end of a carrier.
pub(crate) trait FrameSource {
    /// Names the endpoint in errors.
    fn who(&self) -> &str;

    /// Fill `buf` completely. [`Filled::Eof`] is returned only when
    /// `allow_eof` and no byte was read yet; a close mid-frame is
    /// malformed.
    fn fill(&mut self, buf: &mut [u8], allow_eof: bool) -> FilterResult<Filled>;
}

/// The writing end of a carrier.
pub(crate) trait FrameSink {
    /// Names the endpoint in errors.
    fn who(&self) -> &str;

    /// Write one whole frame: `header`, then `payload`, with nothing of
    /// any other frame between them.
    fn send(&mut self, header: &[u8], payload: &[u8]) -> FilterResult<()>;

    /// Write the connection's last frames and release the carrier.
    fn finish(mut self, last: &[u8]) -> FilterResult<()>
    where
        Self: Sized,
    {
        self.send(last, &[])
    }
}

/// One read from a carrier.
pub(crate) enum Read {
    Frame(Frame),
    /// The peer closed at a frame boundary.
    Eof,
    /// The ring was reset; see [`Filled::Reset`].
    Reset,
}

/// The frame reader: tag, fixed header, length cap, payload, then the
/// one hardened [`decode_frame`]. Heartbeats are consumed here; their
/// only effect, refreshing a silence deadline, happens in the carrier.
pub(crate) fn read_frame(src: &mut impl FrameSource) -> FilterResult<Read> {
    loop {
        let mut tag = [0u8; 1];
        match src.fill(&mut tag, true)? {
            Filled::Full => {}
            Filled::Eof => return Ok(Read::Eof),
            Filled::Reset => return Ok(Read::Reset),
        }
        let Some(header_len) = frame_header_len(tag[0]) else {
            return Err(FilterError::malformed(
                src.who(),
                format!("unknown frame tag {}", tag[0]),
            ));
        };
        let mut frame = vec![tag[0]; 1 + header_len];
        if let Filled::Reset = src.fill(&mut frame[1..], false)? {
            return Ok(Read::Reset);
        }
        if let Some(at) = frame_len_field_at(tag[0]) {
            let len = u32::from_le_bytes(frame[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(FilterError::malformed(
                    src.who(),
                    format!("frame declares {len} bytes (cap {MAX_FRAME_PAYLOAD})"),
                ));
            }
            let at = frame.len();
            frame.resize(at + len, 0);
            if let Filled::Reset = src.fill(&mut frame[at..], false)? {
                return Ok(Read::Reset);
            }
        }
        match decode_frame(&frame) {
            Ok((Frame::Heartbeat, _)) => continue,
            Ok((f, _)) => return Ok(Read::Frame(f)),
            Err(e) => {
                return Err(FilterError {
                    filter: src.who().to_string(),
                    ..e
                })
            }
        }
    }
}

/// The frame writer: `header` is an encoded frame, or the fixed header
/// of a frame whose `payload` follows verbatim (no intermediate copy).
pub(crate) fn write_frame(
    sink: &mut impl FrameSink,
    header: &[u8],
    payload: &[u8],
) -> FilterResult<()> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(FilterError::new(
            sink.who(),
            format!(
                "payload of {} bytes exceeds the frame cap {MAX_FRAME_PAYLOAD}",
                payload.len()
            ),
        ));
    }
    sink.send(header, payload)
}

/// Check a connection's opening frame: a `Hello` for `link` from a
/// producer below `producers`. Returns that producer.
pub(crate) fn expect_hello(
    read: Read,
    link: u32,
    producers: usize,
    who: &str,
) -> FilterResult<usize> {
    match read {
        Read::Frame(Frame::Hello {
            link: got,
            producer,
        }) => {
            if got != link {
                return Err(FilterError::malformed(
                    who,
                    format!("connection for link {got} arrived at link {link}"),
                ));
            }
            if producer as usize >= producers {
                return Err(FilterError::malformed(
                    who,
                    format!("producer {producer} out of range (link has {producers})"),
                ));
            }
            Ok(producer as usize)
        }
        Read::Frame(f) => Err(FilterError::malformed(
            who,
            format!("expected Hello first, got {f:?}"),
        )),
        Read::Eof | Read::Reset => Err(FilterError::malformed(
            who,
            "connection closed during handshake",
        )),
    }
}

/// Seq-deduplicating bridge from one remote producer onto its local
/// [`StreamWriter`]. The feeder, and with it the next-expected
/// watermark, outlives any one connection, so a reconnecting producer
/// can never regress it: duplicated frames are dropped, gaps are
/// malformed.
pub(crate) struct IngressFeeder {
    writer: StreamWriter,
    next_seq: u64,
    ended: bool,
}

impl IngressFeeder {
    pub(crate) fn new(writer: StreamWriter) -> Self {
        IngressFeeder {
            writer,
            next_seq: 0,
            ended: false,
        }
    }

    /// The watermark handed to a (re)connecting producer: `HelloAck {
    /// resume_seq }` on TCP, the ring header's resume word on shm.
    pub(crate) fn resume_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether this producer already sent `End`.
    pub(crate) fn ended(&self) -> bool {
        self.ended
    }

    /// Deliver frame `seq`: `Ok(true)` if forwarded to the local stream,
    /// `Ok(false)` if it was a duplicate below the watermark. A sequence
    /// *gap* means frames were lost on a path that guarantees FIFO —
    /// that's corruption, not reordering, and is malformed.
    pub(crate) fn feed(&mut self, seq: u64, buf: Buffer) -> FilterResult<bool> {
        let expect = self.next_seq;
        if seq < expect {
            return Ok(false);
        }
        if seq > expect {
            return Err(FilterError::malformed(
                "net.ingress",
                format!("sequence gap: got {seq}, expected {expect}"),
            ));
        }
        self.writer.write(buf)?;
        self.next_seq = expect + 1;
        Ok(true)
    }

    /// The producer finished its unit of work: propagate end-of-work to
    /// the local stream.
    pub(crate) fn end(&mut self) {
        self.ended = true;
        self.writer.close();
    }
}

/// A data or `End` frame must carry the label of the producer whose
/// connection it arrived on.
fn check_from(who: &str, from: u32, p: usize) -> FilterResult<()> {
    if from as usize == p {
        return Ok(());
    }
    Err(FilterError::malformed(
        who,
        format!("frame from producer {from} on producer {p}'s connection"),
    ))
}

/// How one producer connection ended.
pub(crate) enum Ended {
    /// The producer sent `End`; its local writer is closed.
    End,
    /// `Close`, or EOF at a frame boundary.
    Closed,
    /// A respawned producer reset the ring.
    Reset,
    /// The carrier failed: a read error, EOF mid-frame, a malformed frame
    /// or the silence deadline. The partial frame, if any, was never fed.
    Lost(FilterError),
}

/// Link-level state shared by every producer's bridge: the link's
/// probe, the first error and the run's cancel fan-in.
#[derive(Default)]
pub(crate) struct IngressLink {
    pub(crate) link: u32,
    pub(crate) control: Option<Arc<RunControl>>,
    probe: Arc<LinkProbe>,
    /// Producers that sent `End`.
    ended: AtomicUsize,
    error: Mutex<Option<FilterError>>,
}

impl IngressLink {
    pub(crate) fn cancelled(&self) -> bool {
        self.control.as_ref().is_some_and(|c| c.is_cancelled())
    }

    pub(crate) fn failed(&self) -> bool {
        plock(&self.error).is_some()
    }

    pub(crate) fn ended(&self) -> usize {
        self.ended.load(Ordering::Acquire)
    }

    /// Record the link's first error and cancel the run, so filter
    /// copies blocked on either side of the link unwedge.
    pub(crate) fn fail(&self, e: FilterError) {
        if let Some(c) = &self.control {
            c.cancel(format!("ingress link {} failed: {e}", self.link));
        }
        plock(&self.error).get_or_insert(e);
    }

    /// A producer handshook again after a disconnect.
    pub(crate) fn reconnected(&self) {
        self.probe.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// A producer went silent past the heartbeat deadline.
    pub(crate) fn timed_out(&self) {
        self.probe.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Bridge producer `p`'s connection onto its feeder until the
    /// connection ends. A frame labelled with another producer, a
    /// sequence gap or an unexpected frame is an error on every carrier.
    pub(crate) fn bridge(
        &self,
        src: &mut impl FrameSource,
        p: usize,
        feeder: &mut IngressFeeder,
    ) -> FilterResult<Ended> {
        loop {
            let frame = match read_frame(src) {
                Ok(Read::Frame(f)) => f,
                Ok(Read::Eof) => return Ok(Ended::Closed),
                Ok(Read::Reset) => return Ok(Ended::Reset),
                Err(e) => return Ok(Ended::Lost(e)),
            };
            match frame {
                Frame::Data { from, seq, payload } => {
                    check_from(src.who(), from, p)?;
                    let n = payload.len() as u64;
                    if feeder.feed(seq, Buffer::from_vec(payload))? {
                        self.probe.count_frame(n);
                    } else {
                        self.probe.deduped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Frame::End { from } => {
                    check_from(src.who(), from, p)?;
                    feeder.end();
                    self.ended.fetch_add(1, Ordering::AcqRel);
                    return Ok(Ended::End);
                }
                Frame::Close => return Ok(Ended::Closed),
                f => {
                    return Err(FilterError::malformed(
                        src.who(),
                        format!("unexpected frame mid-stream: {f:?}"),
                    ))
                }
            }
        }
    }

    /// Close every local writer still open (error and cancel paths), so
    /// downstream readers see end-of-work instead of blocking forever,
    /// then report the link.
    fn finish(self, feeders: Vec<IngressFeeder>, producers: usize) -> FilterResult<NetLinkStats> {
        for mut f in feeders {
            f.writer.close();
        }
        let cancelled = self.cancelled();
        let ended = self.ended();
        if let Some(e) = self.error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        if cancelled && ended < producers {
            return Err(FilterError::cancelled(
                "net.ingress",
                "run cancelled before all producers finished",
            ));
        }
        Ok(self.probe.stats())
    }
}

/// Serve one logical link's ingress side: bridge every upstream producer
/// copy's connection onto the local `writers` (writer `p` plays producer
/// copy `p`, keeping the in-process round-robin routing). Returns when
/// every producer has sent `End`, or with the first error, after
/// cancelling the run so blocked filter copies unwedge.
///
/// The link's [`LinkProbe`] counts frames, bytes, dedups, timeouts and
/// reconnects as traffic flows (the telemetry sampler reads it mid-run);
/// the returned stats are read off it. `tuning.supervised` makes the
/// link crash-tolerant: a
/// producer that dies without `End` parks until its respawn rejoins and
/// resumes from the watermark (see the module docs for each carrier's
/// policy).
pub fn serve_ingress(
    ingress: WorkerIngress,
    link: u32,
    writers: Vec<StreamWriter>,
    control: Option<Arc<RunControl>>,
    probe: Arc<LinkProbe>,
    tuning: NetTuning,
) -> FilterResult<NetLinkStats> {
    let producers = writers.len();
    let state = IngressLink {
        link,
        control,
        probe,
        ..Default::default()
    };
    let feeders = writers.into_iter().map(IngressFeeder::new).collect();
    let feeders = match ingress {
        WorkerIngress::Tcp(listener) => net::serve_tcp(listener, &state, feeders, tuning),
        WorkerIngress::Shm(rings) => rings.serve(&state, feeders, tuning),
    };
    state.finish(feeders, producers)
}

/// Drain one local [`StreamReader`] (the 1→1 stream behind one producer
/// copy) into the downstream worker at `addr`: a `shm:<base>` address
/// attaches to that worker's ring, anything else is dialled over TCP.
/// Each transmitted packet is acknowledged on the local stream — the
/// carrier plays a stateless consumer, so the producer side's replay
/// buffers stay bounded and a restarted filter copy replays only
/// untransmitted packets.
///
/// The link's [`LinkProbe`] (shared by every producer copy's pump on the
/// link) counts transmitted and suppressed packets; the returned stats
/// are read off it when this pump finishes. `tuning`
/// bounds the TCP handshake by the silence deadline and, with heartbeats
/// configured, makes the connection beat whenever the producer stage is
/// idle, so the consumer's deadline tells "slow" from "dead".
pub fn egress_pump(
    reader: StreamReader,
    addr: &str,
    link: u32,
    producer: u32,
    control: Option<Arc<RunControl>>,
    probe: Arc<LinkProbe>,
    tuning: NetTuning,
) -> FilterResult<NetLinkStats> {
    match addr.strip_prefix(SHM_PREFIX) {
        Some(base) => {
            let (tx, resume) = shm::connect(base, link, producer, control.clone())?;
            pump(tx, resume, reader, producer, control, &probe)?;
        }
        None => {
            let (tx, resume) = net::connect(addr, link, producer, control.clone(), tuning)?;
            pump(tx, resume, reader, producer, control, &probe)?;
        }
    }
    Ok(probe.stats())
}

/// The send loop behind [`egress_pump`], once the carrier's handshake
/// produced `resume`, the first sequence number the consumer still
/// needs.
fn pump(
    mut tx: impl FrameSink,
    resume: u64,
    mut reader: StreamReader,
    producer: u32,
    control: Option<Arc<RunControl>>,
    probe: &LinkProbe,
) -> FilterResult<()> {
    let mut seq = 0u64;
    while let Some(buf) = reader.read() {
        if seq < resume {
            probe.deduped.fetch_add(1, Ordering::Relaxed);
        } else {
            let n = buf.len();
            write_frame(
                &mut tx,
                &encode_data_header(producer, seq, n),
                buf.as_slice(),
            )?;
            probe.count_frame(n as u64);
        }
        seq += 1;
        reader.commit_acks();
    }
    if control.as_ref().is_some_and(|c| c.is_cancelled()) {
        return Err(FilterError::cancelled(
            tx.who(),
            "run cancelled during transmit",
        ));
    }
    let mut last = encode_frame(&Frame::End { from: producer });
    last.extend(encode_frame(&Frame::Close));
    tx.finish(&last)
}
