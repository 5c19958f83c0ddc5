//! Loopback chaos mode: the seeded `FaultPlan` mapped onto real sockets.
//!
//! Topology (all loopback, all real sockets):
//!
//! ```text
//! worker ⇄ chaos proxy ⇄ pinned master (DES fault engine + wire hooks)
//! ```
//!
//! The master runs `borg_models::queueing::run_async_with` — the same DES
//! the determinism gate replays as the fault oracle — with the virtual
//! executor's own `BorgHooks` (same seed derivations, same `SplitMix64`
//! call order, same sampled `T_A` charging, because it is the same code),
//! except that its [`ObjectiveSource`] physically sends the candidate
//! over the wire on produce/reissue and physically blocks on consume
//! until the worker's result frame arrives, feeding the remote objective
//! bits into the engine. All fate decisions and ledger writes stay in the
//! shared DES transport, so the fault ledger, recovery actions, and final
//! archive are bit-identical to the DES oracle by construction — while
//! the wire stays load-bearing: every consumed objective travelled
//! through two real sockets and an interposing proxy.
//!
//! The proxy consults the *same* `FaultPlan` from the frame coordinates
//! (`Work.seq` mirrors the engine's per-worker dispatch counter,
//! `Outcome.attempt` echoes the dispatch) and physically enacts each
//! fate: crash ⇒ the work item is not forwarded and the worker's
//! connection is reset (exercising reconnect backoff + re-registration),
//! drop ⇒ the result frame is swallowed, duplicate ⇒ the result frame
//! is forwarded twice. Its
//! wire-side ledger must agree with the oracle's per fault kind.

use crate::codec::{self, Msg, TraceCtx, UNASSIGNED};
use crate::metrics;
use crate::serve::register_pool;
use crate::serve::ServeConfig;
use crate::transport::{
    connect_with_backoff, Backoff, Conn, NetAddr, NetError, NetListener, NetStream,
};
use crate::worker::{run_worker, WorkerOptions};
use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_desim::fault::{DispatchFate, FaultConfig, FaultKind, FaultLog, FaultPlan, MessageFate};
use borg_models::queueing::run_async_with;
use borg_obs::{Recorder, TraceEdge, TraceEdgeKind};
use borg_parallel::virtual_exec::{
    BorgHooks, FaultyRun, ObjectiveSource, TaMode, VirtualConfig, VirtualRunResult,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Socket-level knobs for the chaos harness.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Public (worker-facing) endpoint the proxy listens on.
    pub listen: NetAddr,
    /// Master-facing endpoint (the proxy dials this). For Unix sockets
    /// derive it from `listen`; for TCP use an ephemeral port.
    pub master_listen: NetAddr,
    /// Worker threads to spawn in-process (`0` = external worker
    /// processes are expected to connect to `listen`).
    pub in_process_workers: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Longest the pinned master will block for one wire result before
    /// latching an error and falling back to local evaluation.
    pub result_wait: Duration,
    /// Whether a crash fate physically resets the worker's connection
    /// (exercises reconnect backoff + re-registration).
    pub reset_on_crash: bool,
}

impl ChaosConfig {
    /// Loopback defaults over Unix sockets under `dir`; `tag`
    /// disambiguates concurrent harnesses in one test process.
    pub fn loopback(dir: &std::path::Path, tag: &str, in_process_workers: usize) -> Self {
        let base = dir.join(format!("borg-net-{}-{tag}", std::process::id()));
        ChaosConfig {
            listen: NetAddr::Unix(base.with_extension("pub.sock")),
            master_listen: NetAddr::Unix(base.with_extension("master.sock")),
            in_process_workers,
            read_timeout: Duration::from_millis(25),
            result_wait: Duration::from_secs(30),
            reset_on_crash: true,
        }
    }
}

/// What a chaos-mode networked run produced.
pub struct ChaosRunResult {
    /// The pinned master's run as the DES fault oracle records it: virtual
    /// outcome, engine, the authoritative (DES-side) ledger and the sampled
    /// `T_A`/`T_F` logs. Every field must equal the oracle's bit for bit.
    pub run: VirtualRunResult,
    /// The proxy's wire-side ledger: faults it physically enacted on the
    /// sockets. Record times are wall-clock, so it is compared to the
    /// oracle per fault kind, not per record.
    pub wire_log: FaultLog,
    /// Results consumed off the wire (0 would mean the wire was not
    /// load-bearing — asserted against by callers).
    pub wire_results: u64,
    /// Extra result frames received (chaos duplication).
    pub wire_duplicates: u64,
    /// Re-registrations performed by in-process workers (crash resets).
    pub worker_reconnects: u64,
    /// Error latched during the run, if any: the run result is then
    /// *not* oracle-comparable (some objectives were evaluated locally
    /// to keep the engine alive).
    pub degraded: Option<String>,
}

// ---------------------------------------------------------------------------
// Pinned mode: the virtual executor's hooks with the evaluation on the wire
// ---------------------------------------------------------------------------

/// A decoded result frame waiting for its `consume`.
struct WireOutcome {
    eval_id: u64,
    attempt: u32,
    objectives: Vec<f64>,
    constraints: Vec<f64>,
    ctx: Option<TraceCtx>,
}

enum MasterNote {
    Outcome(WireOutcome),
    Dead,
}

/// The [`ObjectiveSource`] of the pinned master: `send` ships the
/// candidate over a real socket, `receive` blocks until the result frame
/// returns. It draws nothing from the run's RNG streams — timing and
/// `T_A` charging stay in the shared `BorgHooks`.
struct WireSource<'p, 'w, P: Problem + ?Sized, R: Recorder + ?Sized> {
    /// Local fallback once an error is latched, so the run terminates.
    problem: &'p P,
    /// Mirror of the engine's per-eval attempt counter (carried in
    /// `Work.attempt` so the proxy can key `message_fate`).
    attempts: BTreeMap<u64, u32>,
    /// Mirror of the engine's per-worker dispatch counter (carried in
    /// `Work.seq` so the proxy can key `dispatch_fate`).
    dispatch_seq: Vec<u64>,
    writers: Vec<NetStream>,
    /// The outgoing frame, re-encoded in place by every `send`.
    frame: Vec<u8>,
    rx: mpsc::Receiver<MasterNote>,
    buffered: BTreeMap<u64, Vec<WireOutcome>>,
    result_wait: Duration,
    error: Option<NetError>,
    wire_results: u64,
    wire_duplicates: u64,
    rec: &'w R,
}

impl<P: Problem + ?Sized, R: Recorder + ?Sized> WireSource<'_, '_, P, R> {
    /// Blocks until the result frame for `eval_id` arrives (buffering
    /// out-of-order arrivals for their own consumes). Once an error is
    /// latched the wait is skipped entirely: the caller falls back to
    /// local evaluation so the run still terminates.
    fn await_outcome(&mut self, eval_id: u64) -> Result<WireOutcome, NetError> {
        if let Some(list) = self.buffered.get_mut(&eval_id) {
            if !list.is_empty() {
                let outcome = list.remove(0);
                if list.is_empty() {
                    self.buffered.remove(&eval_id);
                }
                return Ok(outcome);
            }
        }
        if self.error.is_some() {
            return Err(NetError::ResultTimeout {
                eval_id,
                waited: Duration::ZERO,
            });
        }
        let started = Instant::now();
        loop {
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok(MasterNote::Outcome(outcome)) => {
                    self.rec.counter(metrics::RESULTS, 1);
                    if outcome.eval_id == eval_id {
                        self.rec.observe(
                            metrics::RESULT_WAIT_SECONDS,
                            started.elapsed().as_secs_f64(),
                        );
                        return Ok(outcome);
                    }
                    self.buffered
                        .entry(outcome.eval_id)
                        .or_default()
                        .push(outcome);
                }
                Ok(MasterNote::Dead) => {} // a master-side conn died; keep draining the rest
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if started.elapsed() > self.result_wait {
                        return Err(NetError::ResultTimeout {
                            eval_id,
                            waited: started.elapsed(),
                        });
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Disconnected {
                        context: "chaos result channel",
                    });
                }
            }
        }
    }
}

impl<P: Problem + ?Sized, R: Recorder + ?Sized> ObjectiveSource for WireSource<'_, '_, P, R> {
    /// `now` is the DES virtual clock: trace stamps and flight events on
    /// the pinned master stay deterministic for a fixed seed.
    fn send(&mut self, worker: usize, eval_id: u64, variables: &[f64], now: f64) {
        // First send of an id is attempt 0, every resend one more.
        let attempt = *self
            .attempts
            .entry(eval_id)
            .and_modify(|a| *a += 1)
            .or_insert(0);
        let seq = self.dispatch_seq[worker];
        self.dispatch_seq[worker] += 1;
        let ctx = TraceCtx {
            trace_id: eval_id,
            parent_span: codec::span_id(eval_id, attempt, 0),
            sent_at: now,
        };
        codec::encode_work_into(&mut self.frame, eval_id, attempt, seq, variables, Some(ctx));
        if self.writers[worker].write_all(&self.frame).is_ok() {
            self.rec.counter(metrics::DISPATCHES, 1);
            self.rec.counter(metrics::FRAMES_SENT, 1);
            self.rec
                .counter(metrics::BYTES_SENT, self.frame.len() as u64);
            self.rec.counter(metrics::TRACE_CTX_SENT, 1);
            self.rec.trace_edge(TraceEdge {
                kind: TraceEdgeKind::DispatchSent,
                trace_id: eval_id,
                eval_id,
                attempt,
                worker: worker as u64,
                local_t: now,
                remote_t: 0.0,
            });
            self.rec
                .flight("net.work_sent", now, eval_id, worker as u64, attempt.into());
        } else if self.error.is_none() {
            self.error = Some(NetError::Disconnected {
                context: "chaos dispatch write",
            });
        }
    }

    fn receive(
        &mut self,
        worker: usize,
        eval_id: u64,
        variables: &[f64],
        now: f64,
        objectives: &mut [f64],
        constraints: &mut [f64],
    ) {
        self.attempts.remove(&eval_id);
        // The frame came from outside the process: its lengths are checked
        // before a single value is used.
        let fits = |got: &[f64], want: &[f64]| got.len() == want.len();
        let err = match self.await_outcome(eval_id) {
            Ok(outcome)
                if fits(&outcome.objectives, objectives)
                    && fits(&outcome.constraints, constraints) =>
            {
                self.wire_results += 1;
                // Only consumed wire results close a trace chain (the
                // local-fallback path below is a degraded run, not a
                // cross-process evaluation).
                self.rec.trace_edge(TraceEdge {
                    kind: TraceEdgeKind::ResultReceived,
                    trace_id: eval_id,
                    eval_id,
                    attempt: outcome.attempt,
                    worker: worker as u64,
                    local_t: now,
                    remote_t: outcome.ctx.map_or(0.0, |c| c.sent_at),
                });
                self.rec
                    .flight("net.result_received", now, eval_id, worker as u64, 0.0);
                objectives.copy_from_slice(&outcome.objectives);
                constraints.copy_from_slice(&outcome.constraints);
                return;
            }
            Ok(_) => NetError::Protocol(format!("result of eval {eval_id} has the wrong shape")),
            Err(err) => err,
        };
        // Keep the run alive on a local evaluation; the latched error
        // marks the result non-oracle-comparable.
        self.error.get_or_insert(err);
        self.problem.evaluate(variables, objectives, constraints);
    }
}

// ---------------------------------------------------------------------------
// The interposing chaos proxy
// ---------------------------------------------------------------------------

struct Link {
    conn: Option<NetStream>,
    /// Encoded frames dispatched while the worker was reconnecting.
    queue: Vec<Vec<u8>>,
}

struct ProxyWorker {
    idx: usize,
    link: Mutex<Link>,
    master_writer: Mutex<NetStream>,
    welcome: Msg,
}

impl ProxyWorker {
    /// Writes an encoded frame toward the worker, queueing it if the
    /// worker is mid-reconnect.
    fn to_worker(&self, frame: Vec<u8>) {
        let mut link = self.link.lock();
        let delivered = match link.conn.as_mut() {
            Some(conn) => conn.write_all(&frame).is_ok(),
            None => false,
        };
        if !delivered {
            if let Some(dead) = link.conn.take() {
                dead.shutdown();
            }
            link.queue.push(frame);
        }
    }

    fn to_master(&self, frame: &[u8]) {
        // Best-effort: if the master is gone the run is ending.
        let _ = self.master_writer.lock().write_all(frame);
    }
}

struct ProxyShared<'a, R: Recorder + Sync + ?Sized> {
    plan: &'a FaultPlan,
    wire_log: Mutex<FaultLog>,
    start: Instant,
    stop: AtomicBool,
    reset_on_crash: bool,
    read_timeout: Duration,
    workers: Mutex<Vec<Arc<ProxyWorker>>>,
    rec: &'a R,
}

impl<R: Recorder + Sync + ?Sized> ProxyShared<'_, R> {
    fn wall(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn inject(&self, kind: FaultKind, worker: usize, eval_id: u64) {
        let at = self.wall();
        self.wire_log.lock().inject(kind, worker, eval_id, at);
        self.rec.counter(metrics::CHAOS_INJECTIONS, 1);
    }
}

/// Relays master→worker traffic for one worker, enacting dispatch fates.
fn relay_master_to_worker<R: Recorder + Sync + ?Sized>(
    mut conn: Conn,
    pw: &ProxyWorker,
    shared: &ProxyShared<'_, R>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match conn.recv() {
            Ok(Some(msg @ Msg::Work { .. })) => {
                let Msg::Work {
                    eval_id,
                    attempt: _,
                    seq,
                    ..
                } = &msg
                else {
                    continue;
                };
                match shared.plan.dispatch_fate(pw.idx, *seq) {
                    DispatchFate::Normal => pw.to_worker(codec::encode(&msg)),
                    DispatchFate::CrashDuring { .. } => {
                        // The worker "dies" mid-evaluation: the work item
                        // never completes. Physically: don't forward it,
                        // and (optionally) reset the connection so the
                        // worker exercises reconnect backoff.
                        shared.inject(FaultKind::Crash, pw.idx, *eval_id);
                        if shared.reset_on_crash {
                            let mut link = pw.link.lock();
                            if let Some(dead) = link.conn.take() {
                                dead.shutdown();
                            }
                        }
                    }
                }
            }
            Ok(Some(other)) => pw.to_worker(codec::encode(&other)),
            Ok(None) => {}
            Err(_) => break,
        }
    }
    // Master side is gone (teardown or failure): sever the worker so its
    // loop unblocks and exits.
    let mut link = pw.link.lock();
    if let Some(conn) = link.conn.take() {
        conn.shutdown();
    }
}

/// Relays worker→master traffic for one worker socket generation,
/// enacting result-message fates.
fn relay_worker_to_master<R: Recorder + Sync + ?Sized>(
    mut conn: Conn,
    pw: &ProxyWorker,
    shared: &ProxyShared<'_, R>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match conn.recv() {
            Ok(Some(msg @ Msg::Outcome { .. })) => {
                let Msg::Outcome {
                    eval_id, attempt, ..
                } = &msg
                else {
                    continue;
                };
                let frame = codec::encode(&msg);
                match shared.plan.message_fate(*eval_id, *attempt) {
                    MessageFate::Deliver => pw.to_master(&frame),
                    MessageFate::Drop => {
                        shared.inject(FaultKind::MessageDrop, pw.idx, *eval_id);
                    }
                    MessageFate::Duplicate => {
                        shared.inject(FaultKind::MessageDuplicate, pw.idx, *eval_id);
                        pw.to_master(&frame);
                        pw.to_master(&frame);
                    }
                }
            }
            Ok(Some(other)) => pw.to_master(&codec::encode(&other)),
            Ok(None) => {}
            Err(_) => return, // worker reconnecting or gone
        }
    }
}

/// Waits for `Hello` on a fresh proxy-side connection.
fn proxy_await_hello(conn: &mut Conn, shared_stop: &AtomicBool) -> Result<u64, NetError> {
    for _ in 0..200 {
        if shared_stop.load(Ordering::SeqCst) {
            break;
        }
        match conn.recv()? {
            Some(Msg::Hello { worker }) => return Ok(worker),
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "proxy expected Hello, got {other:?}"
                )))
            }
            None => {}
        }
    }
    Err(NetError::Protocol("proxy handshake timed out".to_string()))
}

/// One accepted worker-side socket: registration or re-registration.
fn proxy_admit<'s, R: Recorder + Sync + ?Sized>(
    scope: &'s Scope<'s, '_>,
    shared: &'s ProxyShared<'s, R>,
    master_addr: &NetAddr,
    stream: NetStream,
) -> Result<(), NetError> {
    let writer = stream.try_clone()?;
    let mut conn = Conn::new(stream);
    let hello = proxy_await_hello(&mut conn, &shared.stop)?;
    if hello == UNASSIGNED {
        // Fresh registration: splice a master-side connection through.
        let idx = shared.workers.lock().len();
        let mut backoff = Backoff::default_schedule();
        let mstream = connect_with_backoff(master_addr, &mut backoff, shared.read_timeout)?;
        let mut mconn = Conn::new(mstream);
        mconn.send(&Msg::Hello { worker: UNASSIGNED })?;
        let welcome = loop {
            match mconn.recv()? {
                Some(msg @ Msg::Welcome { .. }) => break msg,
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "master sent {other:?} instead of Welcome"
                    )))
                }
                None => {
                    if shared.stop.load(Ordering::SeqCst) {
                        return Err(NetError::Protocol("proxy stopping".to_string()));
                    }
                }
            }
        };
        if let Msg::Welcome { worker, .. } = &welcome {
            if *worker != idx as u64 {
                return Err(NetError::Protocol(format!(
                    "master assigned index {worker}, proxy expected {idx}"
                )));
            }
        }
        let master_writer = mconn.stream().try_clone()?;
        let pw = Arc::new(ProxyWorker {
            idx,
            link: Mutex::new(Link {
                conn: Some(writer),
                queue: Vec::new(),
            }),
            master_writer: Mutex::new(master_writer),
            welcome: welcome.clone(),
        });
        pw.to_worker(codec::encode(&welcome));
        shared.workers.lock().push(Arc::clone(&pw));
        {
            let pw = Arc::clone(&pw);
            scope.spawn(move || relay_master_to_worker(mconn, &pw, shared));
        }
        scope.spawn(move || relay_worker_to_master(conn, &pw, shared));
        Ok(())
    } else {
        // Re-registration after a chaos reset: swap the socket, absorb
        // the handshake (the master never sees reconnect churn), flush
        // anything dispatched while the worker was away.
        let pw = {
            let workers = shared.workers.lock();
            let idx = usize::try_from(hello)
                .ok()
                .filter(|i| *i < workers.len())
                .ok_or_else(|| {
                    NetError::Protocol(format!("reconnect for unknown worker {hello}"))
                })?;
            Arc::clone(&workers[idx])
        };
        let queued = {
            let mut link = pw.link.lock();
            if let Some(old) = link.conn.take() {
                old.shutdown();
            }
            link.conn = Some(writer);
            std::mem::take(&mut link.queue)
        };
        pw.to_worker(codec::encode(&pw.welcome));
        for frame in queued {
            pw.to_worker(frame);
        }
        scope.spawn(move || relay_worker_to_master(conn, &pw, shared));
        Ok(())
    }
}

/// The proxy's accept loop: admits workers until the stop flag rises.
fn proxy_accept_loop<'s, R: Recorder + Sync + ?Sized>(
    scope: &'s Scope<'s, '_>,
    shared: &'s ProxyShared<'s, R>,
    listener: &NetListener,
    master_addr: &NetAddr,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept(shared.read_timeout) {
            Ok(Some(stream)) => {
                // A failed handshake abandons that socket, not the proxy.
                let _ = proxy_admit(scope, shared, master_addr, stream);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
    }
    // Sever every live worker link so their loops unblock.
    for pw in shared.workers.lock().iter() {
        let mut link = pw.link.lock();
        if let Some(conn) = link.conn.take() {
            conn.shutdown();
        }
    }
}

/// Master-side reader: decodes result frames into the hooks' channel.
fn master_reader<R: Recorder + Sync + ?Sized>(
    mut conn: Conn,
    tx: &mpsc::Sender<MasterNote>,
    stop: &AtomicBool,
    rec: &R,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn.recv() {
            Ok(Some(Msg::Outcome {
                eval_id,
                attempt,
                objectives,
                constraints,
                ctx,
                ..
            })) => {
                rec.counter(metrics::FRAMES_RECEIVED, 1);
                if ctx.is_some() {
                    rec.counter(metrics::TRACE_CTX_RECEIVED, 1);
                }
                let note = MasterNote::Outcome(WireOutcome {
                    eval_id,
                    attempt,
                    objectives,
                    constraints,
                    ctx,
                });
                if tx.send(note).is_err() {
                    return;
                }
            }
            Ok(Some(Msg::Heartbeat { .. })) => rec.counter(metrics::HEARTBEATS, 1),
            Ok(Some(_)) => rec.counter(metrics::FRAMES_RECEIVED, 1),
            Ok(None) => {}
            Err(e) => {
                if matches!(e, NetError::Decode(_)) {
                    rec.counter(metrics::DECODE_ERRORS, 1);
                }
                let _ = tx.send(MasterNote::Dead);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// Runs a pinned-timing networked chaos run and returns its result.
///
/// `resolve` maps the announced problem name to instances for the
/// in-process worker threads (and must resolve `problem_name`).
/// Requires `config.t_a` to be `TaMode::Sampled` — wall-clock must not
/// leak into the virtual timeline, or bit-identity with the oracle is
/// impossible by construction.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_loopback<P, R>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    faults: &FaultConfig,
    chaos: &ChaosConfig,
    problem_name: &str,
    resolve: &(dyn Fn(&str) -> Option<Box<dyn Problem>> + Sync),
    rec: &R,
) -> Result<ChaosRunResult, NetError>
where
    P: Problem + ?Sized,
    R: Recorder + Sync + ?Sized,
{
    assert!(
        config.processors >= 2,
        "need a master and at least one worker"
    );
    assert!(
        matches!(config.t_a, TaMode::Sampled(_)),
        "chaos loopback requires pinned timing (TaMode::Sampled)"
    );
    let workers = (config.processors - 1) as usize;
    let run = FaultyRun::new(config, faults);
    let plan = run.plan();

    let master_listener = NetListener::bind(&chaos.master_listen)?;
    let master_addr = master_listener.local_addr()?;
    let public_listener = NetListener::bind(&chaos.listen)?;
    let public_addr = public_listener.local_addr()?;

    let shared = ProxyShared {
        plan: &plan,
        wire_log: Mutex::new(FaultLog::default()),
        start: Instant::now(),
        stop: AtomicBool::new(false),
        reset_on_crash: chaos.reset_on_crash,
        read_timeout: chaos.read_timeout,
        workers: Mutex::new(Vec::new()),
        rec,
    };
    let serve_cfg = ServeConfig {
        listen: chaos.master_listen.clone(),
        workers,
        max_nfe: config.max_nfe,
        seed: config.seed,
        problem_name: problem_name.to_string(),
        eval_delay: Duration::ZERO,
        reissue_timeout: None,
        heartbeat_timeout: f64::INFINITY,
        register_timeout: Duration::from_secs(30),
        read_timeout: chaos.read_timeout,
    };
    let reader_stop = AtomicBool::new(false);

    let result = std::thread::scope(|scope| -> Result<ChaosRunResult, NetError> {
        scope.spawn(|| proxy_accept_loop(scope, &shared, &public_listener, &master_addr));

        let mut worker_handles = Vec::new();
        for _ in 0..chaos.in_process_workers {
            let opts = WorkerOptions {
                connect: public_addr.clone(),
                read_timeout: chaos.read_timeout,
                heartbeat_every: Duration::from_millis(100),
                backoff: Backoff::default_schedule(),
            };
            worker_handles.push(scope.spawn(move || run_worker(&opts, resolve, rec)));
        }

        // The pool registers through the proxy; the master sees ordinary
        // registrations on its own listener.
        let conns = register_pool(&master_listener, &serve_cfg)?;
        let mut writers = Vec::with_capacity(conns.len());
        for conn in &conns {
            writers.push(conn.stream().try_clone()?);
        }
        let (tx, rx) = mpsc::channel::<MasterNote>();
        for conn in conns {
            let tx = tx.clone();
            let reader_stop = &reader_stop;
            scope.spawn(move || master_reader(conn, &tx, reader_stop, rec));
        }
        drop(tx);

        let source = WireSource {
            problem,
            attempts: BTreeMap::new(),
            dispatch_seq: vec![0; workers],
            writers,
            frame: Vec::new(),
            rx,
            buffered: BTreeMap::new(),
            result_wait: chaos.result_wait,
            error: None,
            wire_results: 0,
            wire_duplicates: 0,
            rec,
        };
        let mut hooks = BorgHooks::new(problem, source, config, borg, |_, _| {});
        let outcome = run_async_with(&mut hooks, run.engine_config(), &plan, rec);
        let (run, mut wire) = hooks.finish(outcome);

        // Teardown: tell workers the run is over, then sever everything
        // so every blocked thread unblocks and the scope join is prompt.
        let shutdown_frame = codec::encode(&Msg::Shutdown);
        for pw in shared.workers.lock().iter() {
            pw.to_worker(shutdown_frame.clone());
        }
        shared.stop.store(true, Ordering::SeqCst);
        reader_stop.store(true, Ordering::SeqCst);
        for writer in &wire.writers {
            writer.shutdown();
        }

        // Drain late frames (second copies of duplicated results).
        while let Ok(note) = wire.rx.try_recv() {
            if let MasterNote::Outcome(_) = note {
                wire.wire_duplicates += 1;
            }
        }
        for list in wire.buffered.values() {
            wire.wire_duplicates += list.len() as u64;
        }

        let mut worker_reconnects = 0u64;
        for handle in worker_handles {
            if let Ok(Ok(report)) = handle.join() {
                worker_reconnects += report.reconnects;
                rec.counter(metrics::RECONNECTS, report.reconnects);
            }
        }

        Ok(ChaosRunResult {
            run,
            // Filled in below, once the proxy threads have let go of it.
            wire_log: FaultLog::default(),
            wire_results: wire.wire_results,
            wire_duplicates: wire.wire_duplicates,
            worker_reconnects,
            degraded: wire.error.map(|e| e.to_string()),
        })
    });
    let mut result = result?;
    result.wire_log = shared.wire_log.into_inner();

    // Remove Unix socket files; harmless if already gone.
    for addr in [&chaos.listen, &chaos.master_listen] {
        if let NetAddr::Unix(path) = addr {
            let _ = std::fs::remove_file(path);
        }
    }

    Ok(result)
}
