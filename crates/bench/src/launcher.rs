//! Single-machine distributed launcher with worker supervision.
//!
//! Re-executes the current binary once per pipeline unit with
//! `CGP_ROLE=worker:<stage>`, so `cgp --role launcher` spawns `cgp`
//! workers and the conformance matrix spawns its own test binary (both
//! run a worker through [`crate::harness::run_worker`]). The workers form
//! a chain over loopback TCP or shared-memory rings. They are spawned
//! **last stage first**: each one binds an ephemeral endpoint
//! (`CGP_LISTEN=127.0.0.1:0` or `shm:auto`), announces it on stdout as
//! `CGP_LISTENING <addr>`, and the launcher passes that address to the
//! next worker upstream as `CGP_CONNECT`. The final stage's remaining stdout is the run's result,
//! which the caller compares with the oracle (the sequential
//! interpreter's output for the same program).
//!
//! Closures can't cross process boundaries, so there is no plan shipping:
//! every worker recompiles the same program with the same options (both
//! are deterministic), and the role env vars select which stage of the
//! shared plan each process executes.
//!
//! # Supervision (`LaunchOptions::supervise`)
//!
//! With supervision on, the launcher monitors worker exits and masks
//! crashes by **restarting the whole chain**: the data plane carries no
//! wire-level acks, and a compiled plan recomputes every packet
//! deterministically from packet 0, so the supervisor kills and reaps
//! every live worker, reclaims every stage's shm rings, and respawns all
//! stages (last first, fresh endpoints re-announced up the chain) exactly
//! as it started them. The survivors' ingress links, supervised because
//! the workers run with `--recover`, wait for that teardown instead of
//! failing, so the worker that died is the only one that exits on its
//! own. The result stays byte-identical; the price is that a crash also
//! recomputes the stages that survived it. Each crash charges one unit
//! to the dead stage's restart budget; exhaustion surfaces as
//! [`LaunchError::BudgetExhausted`] so the caller can replan the
//! decomposition over the surviving units instead.
//!
//! This is the in-process restart model ([`cgp_core::datacutter::exec`])
//! with the launcher as its owner: a worker never restarts itself, so a
//! failed copy fails its worker by name and the supervisor restarts the
//! chain like any crash. A respawned chain runs without injected faults
//! (`--faults`, `CGP_FAULTS`, `CGP_KILL`), so an injected fault fires
//! once per run, as it does in-process.

pub use cgp_core::datacutter::Transport;
use cgp_core::datacutter::{remove_ring_files, shm_supported, SHM_PREFIX};
use cgp_core::exec::RESTART_BUDGET;
use cgp_obs::trace;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Marker line a worker prints (and flushes) on stdout once its ingress
/// endpoint is ready, before it starts the run. The payload is the
/// address producers connect to (`host:port` or `shm:<base>`).
pub const LISTENING_MARKER: &str = "CGP_LISTENING";

/// What the launcher itself decides for a distributed launch: transport,
/// telemetry aggregation, and the supervision policy (crash masking via
/// whole-chain restarts). Worker settings it does not act on reach the
/// workers unchanged, in the forwarded arguments and the inherited
/// environment.
#[derive(Debug, Clone)]
pub struct LaunchOptions {
    /// Launcher-side telemetry aggregator address (`CGP_TELEMETRY`).
    pub telemetry: Option<String>,
    /// Data plane between co-located workers.
    pub transport: Transport,
    /// Monitor worker exits and mask crashes with whole-chain restarts.
    pub supervise: bool,
    /// Restart budget **per stage**: a stage that dies more than this
    /// many times exhausts its budget and fails the launch with
    /// [`LaunchError::BudgetExhausted`].
    pub max_worker_restarts: u32,
}

impl LaunchOptions {
    pub fn new(transport: Transport) -> LaunchOptions {
        LaunchOptions {
            telemetry: None,
            transport,
            supervise: false,
            max_worker_restarts: RESTART_BUDGET,
        }
    }
}

/// Teardown grace: SIGTERM first, escalate to SIGKILL only after this
/// long.
const GRACE: Duration = Duration::from_secs(2);

/// What a supervised launch produced.
#[derive(Debug, Default)]
pub struct LaunchReport {
    /// The last stage's output lines (the run's result).
    pub lines: Vec<String>,
    /// Restarts charged per stage (indexed by stage).
    pub restarts: Vec<u32>,
    /// Total crash events masked by a whole-chain restart.
    pub restart_events: u32,
}

impl LaunchReport {
    pub fn total_restarts(&self) -> u32 {
        self.restarts.iter().sum()
    }
}

/// Why a launch failed.
#[derive(Debug)]
pub enum LaunchError {
    /// A stage died more times than its restart budget allows. The
    /// caller can treat the stage's host as dead and replan the
    /// decomposition over the survivors.
    BudgetExhausted {
        stage: usize,
        restarts: u32,
        last: String,
    },
    /// Anything else: spawn failures, protocol errors, divergent
    /// replayed output, unsupervised worker deaths.
    Failed(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::BudgetExhausted {
                stage,
                restarts,
                last,
            } => write!(
                f,
                "worker stage {stage} exhausted its restart budget after {restarts} \
                 restart(s); last exit: {last}"
            ),
            LaunchError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<String> for LaunchError {
    fn from(msg: String) -> LaunchError {
        LaunchError::Failed(msg)
    }
}

/// Drop the flags the launcher replaces for each worker from a forwarded
/// argument list: `--role`, `--listen` and `--connect` arrive as
/// `CGP_ROLE`, `CGP_LISTEN` and `CGP_CONNECT` per worker, and a flag
/// would override them. `--telemetry-log` is also stripped: workers ship
/// samples to the launcher's aggregator instead of each clobbering the
/// same file. Every other flag reaches the workers as given.
pub fn strip_net_flags(args: &[String]) -> Vec<String> {
    strip_flags(
        args,
        &["--role", "--listen", "--connect", "--telemetry-log"],
    )
}

/// `args` without each flag in `strip` and its value, in either form.
fn strip_flags(args: &[String], strip: &[&str]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if strip.contains(&a.as_str()) {
            let _ = it.next();
        } else if strip
            .iter()
            .any(|f| a.starts_with(f) && a.as_bytes().get(f.len()) == Some(&b'='))
        {
            // `--flag=value` form: drop in one token.
        } else {
            out.push(a.clone());
        }
    }
    out
}

/// One spawned worker: the process, its announced ingress address
/// (`None` for the source stage), and its exit status once reaped.
struct Slot {
    child: Child,
    addr: Option<String>,
    exited: Option<ExitStatus>,
}

/// Spawn one worker process per pipeline unit (`stages` of them) and
/// collect the last stage's output lines. `passthrough` is forwarded to
/// every worker verbatim (strip the net flags first — see
/// [`strip_net_flags`]), so fault injection, recovery and heartbeat
/// flags apply inside the workers exactly as they would in-process,
/// except that a respawned chain runs without injected faults.
///
/// Worker exits are the distributed run's error surface: a mid-pipeline
/// failure is invisible in the last stage's output (its ingress just
/// sees end-of-work). Without [`LaunchOptions::supervise`] any
/// unsuccessful exit fails the launch; with it, crashes are masked by
/// whole-chain restarts until the dead stage's restart budget runs out.
///
/// When [`LaunchOptions::telemetry`] names the launcher's aggregator
/// address, every worker ships periodic samples and its final metrics
/// snapshot there (`CGP_TELEMETRY`); the caller must have bound that
/// listener *before* this call, since workers connect with a single
/// attempt.
pub fn launch_supervised(
    stages: usize,
    passthrough: &[String],
    opts: &LaunchOptions,
) -> Result<LaunchReport, LaunchError> {
    if stages == 0 {
        return Err(LaunchError::Failed("launch: no stages".to_string()));
    }
    if opts.transport == Transport::Shm && !shm_supported() {
        // Named refusal, not a downstream hang: every worker would fail
        // to create its rings anyway.
        return Err(LaunchError::Failed(
            "transport `shm` requested but this build has no shared-memory support \
             (shm_supported() is false); use --transport tcp"
                .to_string(),
        ));
    }
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate current executable: {e}"))?;
    let collector = OutputCollector::new();
    let mut slots: Vec<Option<Slot>> = std::iter::repeat_with(|| None).take(stages).collect();
    let mut restarts = vec![0u32; stages];
    let mut events = 0u32;

    if let Err(e) = spawn_chain(&exe, passthrough, opts, &collector, &mut slots, false) {
        shutdown(&mut slots);
        return Err(e.into());
    }

    loop {
        if let Some(msg) = collector.diverged() {
            shutdown(&mut slots);
            return Err(LaunchError::Failed(msg));
        }
        // Reap exits. A crash usually cascades (the dead stage's producer
        // dies on a broken pipe moments later), so the *highest* dead
        // stage this poll is the true restart frontier.
        let mut dead: Option<usize> = None;
        for (stage, slot) in slots.iter_mut().enumerate() {
            let slot = slot.as_mut().expect("all slots spawned");
            if slot.exited.is_some() {
                continue;
            }
            match slot.child.try_wait() {
                Ok(Some(status)) => {
                    slot.exited = Some(status);
                    if !status.success() {
                        dead = Some(stage);
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    shutdown(&mut slots);
                    return Err(LaunchError::Failed(format!("wait for worker {stage}: {e}")));
                }
            }
        }
        if let Some(k) = dead {
            let status = slots[k]
                .as_ref()
                .and_then(|s| s.exited)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "unknown".to_string());
            if !opts.supervise {
                shutdown(&mut slots);
                return Err(LaunchError::Failed(format!(
                    "worker {k} exited with {status}"
                )));
            }
            events += 1;
            restarts[k] += 1;
            if restarts[k] > opts.max_worker_restarts {
                eprintln!(
                    "[obs] supervisor: worker stage {k} died again ({status}); restart \
                     budget ({}) exhausted",
                    opts.max_worker_restarts
                );
                shutdown(&mut slots);
                return Err(LaunchError::BudgetExhausted {
                    stage: k,
                    restarts: restarts[k] - 1,
                    last: status,
                });
            }
            eprintln!(
                "[obs] supervisor: worker stage {k} died ({status}); restarting the whole \
                 chain of {stages} stages (restart {}/{})",
                restarts[k], opts.max_worker_restarts
            );
            trace::instant(
                "restart",
                "recovery",
                trace::PID_RUNTIME,
                0,
                vec![
                    ("stage", format!("f{}", k + 1).into()),
                    ("restart", u64::from(restarts[k]).into()),
                    ("error", status.clone().into()),
                ],
            );
            // Every stage recomputes from packet 0, so even stages that
            // already finished successfully must go.
            shutdown(&mut slots);
            if let Err(e) = spawn_chain(&exe, passthrough, opts, &collector, &mut slots, true) {
                shutdown(&mut slots);
                return Err(LaunchError::Failed(e));
            }
            continue;
        }
        if slots
            .iter()
            .all(|s| s.as_ref().expect("spawned").exited.is_some())
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Every worker exited cleanly; the reader thread drains the last
    // stage's remaining buffered output and then sees EOF.
    let lines = collector
        .finish(Duration::from_secs(10))
        .map_err(LaunchError::Failed)?;
    Ok(LaunchReport {
        lines,
        restarts,
        restart_events: events,
    })
}

/// Reclaim the shm ingress rings of reaped workers. A dead consumer
/// leaves its ring files behind (SIGKILL and SIGTERM run no Drop);
/// removing them keeps /dev/shm from accumulating a file per crash.
/// Worker-mode links have one producer, but probe a few extra paths —
/// `remove_ring_files` only deletes dead-owner files.
fn reclaim_rings(slots: &[Option<Slot>]) {
    for slot in slots {
        let addr = slot.as_ref().and_then(|s| s.addr.as_deref());
        if let Some(base) = addr.and_then(|a| a.strip_prefix(SHM_PREFIX)) {
            let n = remove_ring_files(base, 4);
            if n > 0 {
                eprintln!("[obs] supervisor: reclaimed {n} stale ring file(s) at {base}");
            }
        }
    }
}

/// Spawn every stage, last first, chaining each announced address into
/// the next worker upstream. The last stage's stdout goes to
/// `collector`.
fn spawn_chain(
    exe: &std::path::Path,
    passthrough: &[String],
    opts: &LaunchOptions,
    collector: &OutputCollector,
    slots: &mut [Option<Slot>],
    respawn: bool,
) -> Result<(), String> {
    let mut connect = None;
    for stage in (0..slots.len()).rev() {
        let (child, addr, reader) =
            spawn_worker(exe, passthrough, stage, opts, connect.as_deref(), respawn)?;
        if stage == slots.len() - 1 {
            collector.attach(reader);
        }
        connect = addr.clone();
        slots[stage] = Some(Slot {
            child,
            addr,
            exited: None,
        });
    }
    Ok(())
}

/// Spawn one worker and, for non-source stages, block until it announces
/// its ingress endpoint. Returns the buffered stdout reader so the last
/// stage's result lines (already partially buffered behind the announce)
/// aren't lost.
fn spawn_worker(
    exe: &std::path::Path,
    passthrough: &[String],
    stage: usize,
    opts: &LaunchOptions,
    connect: Option<&str>,
    respawn: bool,
) -> Result<(Child, Option<String>, BufReader<ChildStdout>), String> {
    let mut cmd = Command::new(exe);
    if respawn {
        // An injected fault fires once per run: the replacement chain
        // must run clean, or the restart budget drains on the same
        // deterministic fault.
        cmd.args(strip_flags(passthrough, &["--faults"]))
            .env_remove("CGP_FAULTS")
            .env_remove("CGP_KILL");
    } else {
        cmd.args(passthrough);
    }
    cmd.env("CGP_ROLE", format!("worker:{stage}"))
        .env_remove("CGP_LISTEN")
        .env_remove("CGP_CONNECT")
        // The merged telemetry log is the launcher's to write.
        .env_remove("CGP_TELEMETRY_LOG")
        .stdout(Stdio::piped());
    match &opts.telemetry {
        Some(addr) => {
            cmd.env("CGP_TELEMETRY", addr);
        }
        None => {
            cmd.env_remove("CGP_TELEMETRY");
        }
    }
    if stage > 0 {
        // `shm:auto` tells the worker to create rings at a path of its
        // own choosing, `127.0.0.1:0` to bind an ephemeral port; either
        // way it announces the address it got. Respawns pick *fresh*
        // endpoints the same way — nothing ever reuses a torn-down
        // worker's address.
        cmd.env("CGP_LISTEN", opts.transport.fresh_addr());
    }
    if let Some(addr) = connect {
        cmd.env("CGP_CONNECT", addr);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn worker {stage}: {e}"))?;
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let addr = if stage > 0 {
        // Block until the worker announces its bound endpoint;
        // everything upstream needs it before it can be spawned.
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("read worker {stage} stdout: {e}"))?;
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "worker {stage} exited before announcing its listener"
                ));
            }
            if let Some(announce) = line.trim().strip_prefix(LISTENING_MARKER) {
                let addr = announce.trim().to_string();
                eprintln!("[obs] launcher: worker {stage} ingress at {addr}");
                break Some(addr);
            }
        }
    } else {
        None
    };
    Ok((child, addr, reader))
}

/// Last-stage stdout across restarts.
///
/// Output lines are **committed** only once fully received (terminated
/// by a newline — a SIGKILLed writer can leave a torn final line in the
/// pipe, which must never count as result data). When the last stage is
/// respawned, its replacement re-produces the whole deterministic output
/// stream; the committed prefix is *verified*, not re-appended, and any
/// mismatch fails the run rather than silently corrupting the result.
struct OutputCollector {
    state: Arc<Mutex<OutputState>>,
}

struct OutputState {
    committed: Vec<String>,
    /// Next line index the current generation will produce.
    cursor: usize,
    /// Bumped on every attach; readers from older generations go quiet.
    generation: u64,
    /// Current generation saw a clean EOF (pipe closed, no torn line).
    eof: bool,
    diverged: Option<String>,
}

impl OutputCollector {
    fn new() -> OutputCollector {
        OutputCollector {
            state: Arc::new(Mutex::new(OutputState {
                committed: Vec::new(),
                cursor: 0,
                generation: 0,
                eof: false,
                diverged: None,
            })),
        }
    }

    /// Start a reader thread for a (re)spawned last stage. Older
    /// generations' threads notice the bump and stop committing.
    fn attach<R: Read + Send + 'static>(&self, reader: BufReader<R>) {
        let state = Arc::clone(&self.state);
        let generation = {
            let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
            st.generation += 1;
            st.cursor = 0;
            st.eof = false;
            st.generation
        };
        std::thread::spawn(move || {
            let mut reader = reader;
            let mut line = String::new();
            loop {
                line.clear();
                let n = match reader.read_line(&mut line) {
                    Ok(n) => n,
                    Err(_) => break,
                };
                if n == 0 {
                    break;
                }
                if !line.ends_with('\n') {
                    // Torn final line from a killed writer: uncommitted.
                    break;
                }
                let text = line.trim_end_matches(['\n', '\r']).to_string();
                let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                if st.generation != generation {
                    return;
                }
                if st.cursor < st.committed.len() {
                    if st.committed[st.cursor] != text {
                        st.diverged = Some(format!(
                            "restarted last stage diverged from committed output at \
                             line {}: expected {:?}, got {:?}",
                            st.cursor, st.committed[st.cursor], text
                        ));
                        return;
                    }
                } else {
                    st.committed.push(text);
                }
                st.cursor += 1;
            }
            let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
            if st.generation == generation {
                st.eof = true;
            }
        });
    }

    fn diverged(&self) -> Option<String> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .diverged
            .clone()
    }

    /// Wait for the current generation's clean EOF and take the
    /// committed lines.
    fn finish(&self, timeout: Duration) -> Result<Vec<String>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(d) = &st.diverged {
                    return Err(d.clone());
                }
                if st.eof {
                    return Ok(st.committed.clone());
                }
            }
            if Instant::now() > deadline {
                return Err("timed out draining the last stage's output".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Teardown: SIGTERM every live worker, give the set [`GRACE`] to exit
/// on its own, then SIGKILL the stragglers. Every child is reaped either
/// way (and marked exited, so no later signal reaches a reused pid), and
/// then every worker's shm rings reclaimed.
fn shutdown(slots: &mut [Option<Slot>]) {
    let mut live: Vec<&mut Slot> = slots
        .iter_mut()
        .filter_map(|s| s.as_mut())
        .filter(|s| s.exited.is_none())
        .collect();
    for slot in live.iter() {
        terminate(slot.child.id());
    }
    let deadline = Instant::now() + GRACE;
    loop {
        live.retain_mut(|slot| {
            slot.exited = slot.child.try_wait().ok().flatten();
            slot.exited.is_none()
        });
        if live.is_empty() || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for slot in live {
        let _ = slot.child.kill();
        slot.exited = slot.child.wait().ok();
    }
    reclaim_rings(slots);
}

/// Politely ask a worker to exit (SIGTERM); [`shutdown`] escalates to
/// SIGKILL after [`GRACE`].
#[cfg(unix)]
fn terminate(pid: u32) {
    use std::os::raw::c_int;
    extern "C" {
        fn kill(pid: c_int, sig: c_int) -> c_int;
    }
    const SIGTERM: c_int = 15;
    if pid <= i32::MAX as u32 {
        unsafe {
            kill(pid as c_int, SIGTERM);
        }
    }
}

#[cfg(not(unix))]
fn terminate(_pid: u32) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn strip_net_flags_removes_both_forms_and_keeps_the_rest() {
        let args = argv(&[
            "--role",
            "launcher",
            "--faults",
            "panic@f2[0]#3",
            "--listen=127.0.0.1:0",
            "--recover",
            "--connect",
            "127.0.0.1:9999",
            "--role=worker:1",
            "--telemetry-log",
            "/tmp/t.jsonl",
            "--status-every",
            "50",
            "--telemetry-log=/tmp/t2.jsonl",
            "--transport",
            "shm",
            "--transport=tcp",
            "--heartbeat-ms=50",
            "--max-worker-restarts",
            "3",
        ]);
        // Worker settings the launcher does not replace pass through
        // as given, in either form.
        assert_eq!(
            strip_net_flags(&args),
            argv(&[
                "--faults",
                "panic@f2[0]#3",
                "--recover",
                "--status-every",
                "50",
                "--transport",
                "shm",
                "--transport=tcp",
                "--heartbeat-ms=50",
                "--max-worker-restarts",
                "3",
            ])
        );
    }

    #[test]
    fn transport_selection_prefers_shm_on_supported_builds() {
        let parse = |s: &str| s.parse::<Transport>().unwrap();
        assert_eq!(Transport::select(Some(parse("tcp"))), Transport::Tcp);
        assert_eq!(Transport::select(Some(parse("shm"))), Transport::Shm);
        assert_eq!(parse(" SHM "), Transport::Shm);
        assert_eq!(parse("Tcp"), Transport::Tcp);
        let auto = Transport::select(None);
        if shm_supported() {
            assert_eq!(auto, Transport::Shm);
        } else {
            assert_eq!(auto, Transport::Tcp);
        }
    }

    fn reader(s: &str) -> BufReader<std::io::Cursor<Vec<u8>>> {
        BufReader::new(std::io::Cursor::new(s.as_bytes().to_vec()))
    }

    #[test]
    fn collector_never_commits_a_torn_line() {
        let c = OutputCollector::new();
        c.attach(reader("alpha\nbeta\ntorn-by-sigki"));
        // A torn tail still counts as this generation's EOF (the committed
        // prefix is what the replacement must reproduce).
        let lines = c.finish(Duration::from_secs(5)).unwrap();
        assert_eq!(lines, vec!["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn collector_verifies_and_extends_across_generations() {
        let c = OutputCollector::new();
        c.attach(reader("alpha\nbeta\n"));
        let first = c.finish(Duration::from_secs(5)).unwrap();
        assert_eq!(first.len(), 2);
        // The respawned writer re-produces the committed prefix, then
        // extends it.
        c.attach(reader("alpha\nbeta\ngamma\n"));
        let lines = c.finish(Duration::from_secs(5)).unwrap();
        assert_eq!(
            lines,
            vec!["alpha".to_string(), "beta".to_string(), "gamma".to_string()]
        );
    }

    #[test]
    fn collector_flags_divergent_replay() {
        let c = OutputCollector::new();
        c.attach(reader("alpha\nbeta\n"));
        c.finish(Duration::from_secs(5)).unwrap();
        c.attach(reader("alpha\nBETA\n"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while c.diverged().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let msg = c.diverged().expect("divergence detected");
        assert!(msg.contains("diverged"), "{msg}");
    }

    #[test]
    fn stale_generations_stop_committing() {
        let c = OutputCollector::new();
        // Generation 1 never finishes (empty reader blocks on nothing —
        // use a completed one, then attach over it before reading back).
        c.attach(reader("old\n"));
        c.attach(reader("new\n"));
        // Whichever generation-1 lines landed before the bump, generation
        // 2 must either catch the mismatch ("old" != "new" → divergence)
        // or own the log outright — it may never silently interleave.
        match c.finish(Duration::from_secs(5)) {
            Ok(lines) => assert_eq!(lines, vec!["new".to_string()]),
            Err(msg) => assert!(msg.contains("diverged"), "{msg}"),
        }
    }

    #[test]
    fn shm_transport_without_support_is_a_named_error() {
        if shm_supported() {
            return;
        }
        let opts = LaunchOptions::new(Transport::Shm);
        match launch_supervised(2, &[], &opts) {
            Err(LaunchError::Failed(msg)) => assert!(msg.contains("shared-memory")),
            other => panic!("expected a named shm error, got {other:?}"),
        }
    }
}
