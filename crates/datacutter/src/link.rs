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
//! - **Ingress.** [`serve_ingress`] serves each producer copy's
//!   connection from its one-way `Hello` to its `End`, feeding its local
//!   [`StreamWriter`] in strict sequence order. A protocol violation fails
//!   the link. A producer that vanishes short of `End` is settled in one
//!   place for both carriers: unsupervised, that fails the link;
//!   supervised, the link waits for the launcher to tear the chain down.
//!   Counters, the first error (which cancels the run) and teardown are
//!   link-level and shared.
//! - **Egress.** [`egress_pump`] drains one producer copy's local 1→1
//!   stream, numbering its packets from 0.
//! - **Endpoints.** [`WorkerIngress::bind`] turns a listen address into
//!   an ingress, and [`Transport`] names the carrier a launcher picks.
//!
//! What stays per carrier is policy that tests pin:
//!
//! | | TCP | shm |
//! |---|---|---|
//! | arrival | accept loop; the `Hello` names the producer | one eagerly created ring and reader thread per producer |
//! | liveness | silence deadline, heartbeat sidecar | pid probe |
//! | a second producer | fails the link (malformed) | its attach is refused (malformed) |

use crate::buffer::Buffer;
use crate::error::{ErrorKind, FilterError, FilterResult};
use crate::fault::RunControl;
use crate::net::{
    self, decode_frame, encode_data_header, encode_frame, frame_header_len, frame_len_field_at,
    is_heartbeat_timeout, Frame, MAX_FRAME_PAYLOAD,
};
use crate::shm::{self, shm_dir, shm_supported, ShmIngress, DEFAULT_SHM_CAPACITY, SHM_PREFIX};
use crate::stream::{StreamReader, StreamWriter};
use crate::telemetry::LinkProbe;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Poison-tolerant lock (link state is plain data).
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How long a supervised ingress waits, after a producer vanished, for
/// the launcher to tear the chain down before it fails as stalled.
const SUPERVISED_WAIT: Duration = Duration::from_secs(10);

/// Per-link transfer counters, read off the link's [`LinkProbe`] and
/// reported into `cgp_obs` metrics by the executor
/// (`net.link<id>.frames` / `.bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetLinkStats {
    /// Data frames moved across the carrier.
    pub frames: u64,
    /// Payload bytes moved across the carrier.
    pub bytes: u64,
    /// Heartbeat-deadline verdicts: a producer went silent past the
    /// liveness deadline (ingress side only).
    pub timeouts: u64,
}

/// Liveness knobs for one link's endpoints.
///
/// `heartbeat` turns the TCP liveness protocol on: egress connections
/// emit [`Frame::Heartbeat`] whenever the link has been idle that long,
/// and a reader declares its producer vanished when it is silent past
/// [`NetTuning::deadline`]. Rings probe the producer's pid instead.
/// `supervised` says what a vanished producer means: unsupervised, it
/// fails the link; supervised, the producer's process died and the
/// launcher restarts the whole chain, so the link waits for that
/// teardown (cancellable, and bounded at 10 s).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTuning {
    /// Emit a heartbeat after this much idle time, and derive the silence
    /// deadline from it. `None` disables the liveness protocol entirely
    /// (a dead TCP peer blocks reads until the run watchdog fires).
    pub heartbeat: Option<Duration>,
    /// A launcher supervises this worker: a vanished producer waits for
    /// the chain's teardown instead of failing the link.
    pub supervised: bool,
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

/// The reading end of a carrier.
pub(crate) trait FrameSource {
    /// Names the endpoint in errors.
    fn who(&self) -> &str;

    /// Fill `buf` completely. Returns `false` only when `allow_eof` and
    /// the peer closed before any byte was read; a close mid-frame is
    /// malformed.
    fn fill(&mut self, buf: &mut [u8], allow_eof: bool) -> FilterResult<bool>;
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

/// The frame reader: tag, fixed header, length cap, payload, then the
/// one hardened [`decode_frame`]. Heartbeats are consumed here; their
/// only effect, refreshing a silence deadline, happens in the carrier.
/// `None` means the peer closed at a frame boundary.
pub(crate) fn read_frame(src: &mut impl FrameSource) -> FilterResult<Option<Frame>> {
    loop {
        let mut tag = [0u8; 1];
        if !src.fill(&mut tag, true)? {
            return Ok(None);
        }
        let Some(header_len) = frame_header_len(tag[0]) else {
            return Err(FilterError::malformed(
                src.who(),
                format!("unknown frame tag {}", tag[0]),
            ));
        };
        let mut frame = vec![tag[0]; 1 + header_len];
        src.fill(&mut frame[1..], false)?;
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
            src.fill(&mut frame[at..], false)?;
        }
        match decode_frame(&frame) {
            Ok((Frame::Heartbeat, _)) => continue,
            Ok((f, _)) => return Ok(Some(f)),
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

/// Open a connection: the one-way `Hello` naming `link` and `producer`.
/// Nothing comes back; the producer streams right after it.
pub(crate) fn send_hello(sink: &mut impl FrameSink, link: u32, producer: u32) -> FilterResult<()> {
    write_frame(sink, &encode_frame(&Frame::Hello { link, producer }), &[])
}

/// Bridge from one remote producer onto its local [`StreamWriter`].
/// Frames must arrive in sequence order: every carrier is FIFO and every
/// producer numbers its packets from 0, so a repeat or a gap is
/// corruption and is malformed.
pub(crate) struct IngressFeeder {
    writer: StreamWriter,
    next_seq: u64,
}

impl IngressFeeder {
    pub(crate) fn new(writer: StreamWriter) -> Self {
        IngressFeeder {
            writer,
            next_seq: 0,
        }
    }

    /// Deliver frame `seq`, which must be the next one expected.
    pub(crate) fn feed(&mut self, seq: u64, buf: Buffer) -> FilterResult<()> {
        let expect = self.next_seq;
        if seq != expect {
            let what = if seq < expect {
                "repeated sequence"
            } else {
                "sequence gap"
            };
            return Err(FilterError::malformed(
                "net.ingress",
                format!("{what}: got {seq}, expected {expect}"),
            ));
        }
        self.writer.write(buf)?;
        self.next_seq = expect + 1;
        Ok(())
    }

    /// The producer finished its unit of work: propagate end-of-work to
    /// the local stream.
    pub(crate) fn end(&mut self) {
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

/// Check a connection's opening frame: a `Hello` for `link` from a
/// producer below `producers`. Returns that producer.
fn expect_hello(first: Frame, link: u32, producers: usize, who: &str) -> FilterResult<usize> {
    match first {
        Frame::Hello {
            link: got,
            producer,
        } => {
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
        f => Err(FilterError::malformed(
            who,
            format!("expected Hello first, got {f:?}"),
        )),
    }
}

/// Link-level state shared by every producer's connection: the feeders,
/// the link's probe, the first error and the run's cancel fan-in.
pub(crate) struct IngressLink {
    link: u32,
    pub(crate) control: Option<Arc<RunControl>>,
    supervised: bool,
    probe: Arc<LinkProbe>,
    /// Producer `p`'s feeder until a connection claims it. A feeder is
    /// dropped, closing its local writer, only once its connection is
    /// settled or the link is torn down.
    feeders: Vec<Mutex<Option<IngressFeeder>>>,
    /// Producers that sent `End`.
    ended: AtomicUsize,
    error: Mutex<Option<FilterError>>,
}

impl IngressLink {
    pub(crate) fn producers(&self) -> usize {
        self.feeders.len()
    }

    pub(crate) fn cancelled(&self) -> bool {
        self.control.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Whether the link has nothing left to accept: every producer sent
    /// `End`, the run was cancelled or the link failed.
    pub(crate) fn done(&self) -> bool {
        self.ended.load(Ordering::Acquire) == self.producers()
            || self.cancelled()
            || plock(&self.error).is_some()
    }

    /// Record the link's first error and cancel the run, so filter
    /// copies blocked on either side of the link unwedge.
    pub(crate) fn fail(&self, e: FilterError) {
        if let Some(c) = &self.control {
            c.cancel(format!("ingress link {} failed: {e}", self.link));
        }
        plock(&self.error).get_or_insert(e);
    }

    /// Serve one producer connection from its `Hello` to its `End`.
    /// `ring` is the producer a shm ring belongs to (`None` on TCP, where
    /// the `Hello` picks it), and `claimed(src, p)` lets the carrier name
    /// the connection once its producer is known. A protocol violation,
    /// including a second connection for a producer, fails the link, and
    /// so may a producer that vanishes (see [`Self::vanished`]). The
    /// producer's feeder lives here, so its local writer closes only
    /// after that failure has cancelled the run: nothing downstream
    /// mistakes a dead or broken producer for a finished one.
    pub(crate) fn serve<S: FrameSource>(
        &self,
        src: &mut S,
        ring: Option<usize>,
        claimed: impl FnOnce(&mut S, usize),
    ) {
        let mut feeder = None;
        if let Err(e) = self.serve_producer(src, ring, claimed, &mut feeder) {
            self.fail(e);
        }
    }

    fn serve_producer<S: FrameSource>(
        &self,
        src: &mut S,
        ring: Option<usize>,
        claimed: impl FnOnce(&mut S, usize),
        held: &mut Option<IngressFeeder>,
    ) -> FilterResult<()> {
        let first = match read_frame(src) {
            Ok(Some(f)) => f,
            Ok(None) => {
                let why = FilterError::malformed(src.who(), "connection closed during handshake");
                return self.vanished(why);
            }
            Err(e) => return self.vanished(e),
        };
        let p = expect_hello(first, self.link, self.producers(), src.who())?;
        if let Some(r) = ring.filter(|&r| r != p) {
            return Err(FilterError::malformed(
                src.who(),
                format!("Hello from producer {p} on producer {r}'s ring"),
            ));
        }
        claimed(src, p);
        let Some(feeder) = plock(&self.feeders[p]).take() else {
            return Err(FilterError::malformed(
                src.who(),
                format!("producer {p} connected twice"),
            ));
        };
        let feeder = held.insert(feeder);
        loop {
            match read_frame(src) {
                Ok(None | Some(Frame::Close)) => {
                    let why = FilterError::malformed(
                        src.who(),
                        format!("producer {p} closed its connection before End"),
                    );
                    return self.vanished(why);
                }
                Err(e) => return self.vanished(e),
                Ok(Some(Frame::Data { from, seq, payload })) => {
                    check_from(src.who(), from, p)?;
                    let n = payload.len() as u64;
                    feeder.feed(seq, Buffer::from_vec(payload))?;
                    self.probe.count_frame(n);
                }
                Ok(Some(Frame::End { from })) => {
                    check_from(src.who(), from, p)?;
                    feeder.end();
                    self.ended.fetch_add(1, Ordering::AcqRel);
                    return Ok(());
                }
                Ok(Some(f)) => {
                    return Err(FilterError::malformed(
                        src.who(),
                        format!("unexpected frame mid-stream: {f:?}"),
                    ))
                }
            }
        }
    }

    /// A producer vanished (`why`): it closed before `End` (cleanly or
    /// not), its carrier broke off mid-frame, or it went silent past its
    /// deadline. Every heartbeat verdict is counted here. Unsupervised,
    /// the link fails by `why`. Supervised, the producer's process died
    /// and is the launcher's to report: it tears the whole chain down,
    /// so wait for the run's cancellation, and fail as stalled only if
    /// [`SUPERVISED_WAIT`] passes first.
    fn vanished(&self, why: FilterError) -> FilterResult<()> {
        if is_heartbeat_timeout(&why) {
            self.probe.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        if !self.supervised || why.kind == ErrorKind::Cancelled {
            return Err(why);
        }
        let since = Instant::now();
        while !self.cancelled() && plock(&self.error).is_none() {
            if since.elapsed() > SUPERVISED_WAIT {
                return Err(FilterError::stalled(
                    why.filter,
                    format!(
                        "{}; no supervisor tore the chain down within {SUPERVISED_WAIT:?}",
                        why.message
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    /// Close every local writer still open (error and cancel paths), so
    /// downstream readers see end-of-work instead of blocking forever,
    /// then report the link.
    fn finish(self) -> FilterResult<NetLinkStats> {
        let unfinished = self.ended.load(Ordering::Acquire) < self.producers();
        let cancelled = self.cancelled();
        drop(self.feeders);
        if let Some(e) = self.error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        if cancelled && unfinished {
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
/// The link's [`LinkProbe`] counts frames, bytes and heartbeat timeouts
/// as traffic flows (the telemetry sampler reads it mid-run); the
/// returned stats are read off it. With `tuning.supervised`, a producer
/// that vanishes leaves the link waiting for the run's cancellation (see
/// [`NetTuning`]), which it then returns as the error.
pub fn serve_ingress(
    ingress: WorkerIngress,
    link: u32,
    writers: Vec<StreamWriter>,
    control: Option<Arc<RunControl>>,
    probe: Arc<LinkProbe>,
    tuning: NetTuning,
) -> FilterResult<NetLinkStats> {
    let state = IngressLink {
        link,
        control,
        supervised: tuning.supervised,
        probe,
        feeders: writers
            .into_iter()
            .map(|w| Mutex::new(Some(IngressFeeder::new(w))))
            .collect(),
        ended: AtomicUsize::new(0),
        error: Mutex::new(None),
    };
    match ingress {
        WorkerIngress::Tcp(listener) => net::serve_tcp(listener, &state, tuning.deadline()),
        WorkerIngress::Shm(rings) => rings.serve(&state),
    }
    state.finish()
}

/// Drain one local [`StreamReader`] (the 1→1 stream behind one producer
/// copy) into the downstream worker at `addr`: a `shm:<base>` address
/// attaches to that worker's ring, anything else is dialled over TCP.
///
/// The link's [`LinkProbe`] (shared by every producer copy's pump on the
/// link) counts transmitted packets; the returned stats are read off it
/// when this pump finishes. With heartbeats configured in `tuning`, a
/// TCP connection beats whenever the producer stage is idle, so the
/// consumer's deadline tells "slow" from "dead". The caller keeps
/// `reader`: after a failed pump the producer copy's stream stays open
/// until the caller has recorded the failure and cancelled the run.
pub fn egress_pump(
    reader: &mut StreamReader,
    addr: &str,
    link: u32,
    producer: u32,
    control: Option<Arc<RunControl>>,
    probe: Arc<LinkProbe>,
    tuning: NetTuning,
) -> FilterResult<NetLinkStats> {
    match addr.strip_prefix(SHM_PREFIX) {
        Some(base) => {
            let tx = shm::connect(base, link, producer, control.clone())?;
            pump(tx, reader, producer, control, &probe)?;
        }
        None => {
            let tx = net::connect(addr, link, producer, control.clone(), tuning)?;
            pump(tx, reader, producer, control, &probe)?;
        }
    }
    Ok(probe.stats())
}

/// The send loop behind [`egress_pump`], once the carrier's `Hello` is
/// out: packet `seq` of this producer goes out as data frame `seq`.
fn pump(
    mut tx: impl FrameSink,
    reader: &mut StreamReader,
    producer: u32,
    control: Option<Arc<RunControl>>,
    probe: &LinkProbe,
) -> FilterResult<()> {
    let mut seq = 0u64;
    while let Some(buf) = reader.read() {
        let n = buf.len();
        write_frame(
            &mut tx,
            &encode_data_header(producer, seq, n),
            buf.as_slice(),
        )?;
        probe.count_frame(n as u64);
        seq += 1;
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
