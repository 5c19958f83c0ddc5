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
//! The master's wire half is `serve`'s: it registers the pool with
//! `register_pool` and sends, consumes, counts and traces through the
//! same `NetLink`, stamped with the DES clock. Only the reading differs:
//! there are no connection threads; each consume reads the connection of
//! the worker the DES names, on the master's own thread, skipping
//! heartbeats and copies of results the run no longer wants.
//!
//! The proxy consults the *same* `FaultPlan` from the frame coordinates
//! (`Work.seq` mirrors the engine's per-worker dispatch counter,
//! `Outcome.attempt` echoes the dispatch) and physically enacts each
//! fate: crash ⇒ the work item is not forwarded and the worker's socket
//! is closed for good (the worker reads EOF and exits, the death `serve`
//! detects; the pinned master never dispatches to that worker again),
//! drop ⇒ the result frame is swallowed, duplicate ⇒ the result frame
//! is forwarded twice. A worker registers once: a `Hello` after the
//! whole pool has registered is refused. Its wire-side ledger must agree
//! with the oracle's per fault kind.

use crate::codec::{self, Msg, TraceCtx};
use crate::metrics;
use crate::serve::{await_hello, register_pool, NetLink, ServeConfig};
use crate::transport::{
    connect_with_backoff, Backoff, Conn, NetAddr, NetError, NetListener, NetStream,
};
use crate::worker::{run_worker, WorkerOptions};
use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_desim::fault::{DispatchFate, FaultConfig, FaultKind, FaultLog, FaultPlan, MessageFate};
use borg_models::queueing::run_async_with;
use borg_obs::{NoopRecorder, Recorder};
use borg_parallel::virtual_exec::{
    BorgHooks, FaultyRun, ObjectiveSource, TaMode, VirtualConfig, VirtualRunResult,
};
use borg_parallel::wallclock::Link as _;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Socket-level knobs for the chaos harness.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Public (worker-facing) endpoint the proxy listens on. The
    /// master-facing endpoint the proxy dials is derived from it.
    pub listen: NetAddr,
    /// Worker threads to spawn in-process (`0` = external worker
    /// processes are expected to connect to `listen`).
    pub in_process_workers: usize,
}

/// Longest the pinned master blocks for one wire result before latching
/// an error and falling back to local evaluation.
const RESULT_WAIT: Duration = Duration::from_secs(30);

/// Read timeout of every harness socket: the master's, the proxy's and
/// the in-process workers'.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// The master-facing endpoint behind `listen`: `<listen path>.master` for
/// a Unix socket, an ephemeral loopback port for TCP.
fn master_endpoint(listen: &NetAddr) -> NetAddr {
    match listen {
        NetAddr::Unix(path) => {
            let mut os = path.as_os_str().to_os_string();
            os.push(".master");
            NetAddr::Unix(PathBuf::from(os))
        }
        NetAddr::Tcp(_) => NetAddr::Tcp("127.0.0.1:0".to_string()),
    }
}

impl ChaosConfig {
    /// Loopback defaults over Unix sockets under `dir`; `tag`
    /// disambiguates concurrent harnesses in one test process.
    pub fn loopback(dir: &std::path::Path, tag: &str, in_process_workers: usize) -> Self {
        let base = dir.join(format!("borg-net-{}-{tag}", std::process::id()));
        ChaosConfig {
            listen: NetAddr::Unix(base.with_extension("pub.sock")),
            in_process_workers,
        }
    }
}

/// What a chaos-mode networked run produced.
pub struct ChaosRunResult {
    /// The pinned master's run as the DES fault oracle records it: virtual
    /// outcome, engine and the authoritative (DES-side) ledger. Every field
    /// must equal the oracle's bit for bit.
    pub run: VirtualRunResult,
    /// The proxy's wire-side ledger: faults it physically enacted on the
    /// sockets. Record times are wall-clock, so it is compared to the
    /// oracle per fault kind, not per record.
    pub wire_log: FaultLog,
    /// Results consumed off the wire: every consume of a run that did
    /// not degrade.
    pub wire_results: u64,
    /// Result frames read and absorbed ahead of an awaited one: copies of
    /// results already consumed or abandoned (chaos duplication, a
    /// reissue's second answer). Copies still unread when the run ends
    /// are not counted.
    pub wire_duplicates: u64,
    /// Error latched during the run, if any: the run result is then
    /// *not* oracle-comparable (some objectives were evaluated locally
    /// to keep the engine alive).
    pub degraded: Option<String>,
}

// ---------------------------------------------------------------------------
// Pinned mode: the virtual executor's hooks with the evaluation on the wire
// ---------------------------------------------------------------------------

/// The [`ObjectiveSource`] of the pinned master: `send` ships the
/// candidate through `serve`'s [`NetLink`], `receive` reads the named
/// worker's connection until that eval's result frame arrives. It draws
/// nothing from the run's RNG streams — timing and `T_A` charging stay in
/// the shared `BorgHooks`.
struct WireSource<'a, R: Recorder + ?Sized> {
    /// Local fallback once an error is latched, so the run terminates.
    problem: &'a dyn Problem,
    /// Per sent eval: its last attempt (carried in `Work.attempt` so the
    /// proxy can key `message_fate`) and the DES time it went out.
    sent: BTreeMap<u64, (u32, f64)>,
    /// Mirror of the engine's per-worker dispatch counter (carried in
    /// `Work.seq` so the proxy can key `dispatch_fate`).
    dispatch_seq: Vec<u64>,
    /// Each worker's registered connection, read only by `receive`.
    conns: Vec<Conn>,
    link: NetLink<'a, R>,
    error: Option<NetError>,
    rec: &'a R,
}

impl<R: Recorder + ?Sized> WireSource<'_, R> {
    /// Reads `worker`'s connection up to the result frame of `eval_id`,
    /// writes its values into `objectives` and `constraints` and returns
    /// its receipt. Each connection is FIFO, and the DES hands a worker a
    /// new eval only once its last one is consumed or abandoned (reissues
    /// go back to the same worker), so every frame ahead of the awaited
    /// one is a heartbeat or a copy of a result the run no longer wants: a
    /// duplicated frame, a reissue's second answer, a late answer to an
    /// abandoned eval. Once an error is latched the read is skipped: the
    /// caller falls back to local evaluation so the run still terminates.
    fn await_outcome(
        &mut self,
        worker: usize,
        eval_id: u64,
        objectives: &mut [f64],
        constraints: &mut [f64],
    ) -> Result<(u32, Option<TraceCtx>), NetError> {
        if self.error.is_some() {
            return Err(NetError::ResultTimeout {
                eval_id,
                waited: Duration::ZERO,
            });
        }
        let same_len = |got: &[f64], want: &[f64]| got.len() == want.len();
        let conn = &mut self.conns[worker];
        let deadline = Instant::now() + RESULT_WAIT;
        loop {
            match conn.recv() {
                Ok(Some(Msg::Outcome {
                    eval_id: id,
                    attempt,
                    objectives: got_objectives,
                    constraints: got_constraints,
                    ctx,
                    ..
                })) => {
                    self.rec.counter(metrics::FRAMES_RECEIVED, 1);
                    if ctx.is_some() {
                        self.rec.counter(metrics::TRACE_CTX_RECEIVED, 1);
                    }
                    // The frame came from outside the process: its lengths
                    // are checked before a single value is used.
                    let fits = same_len(&got_objectives, objectives)
                        && same_len(&got_constraints, constraints);
                    if id == eval_id && fits {
                        objectives.copy_from_slice(&got_objectives);
                        constraints.copy_from_slice(&got_constraints);
                    }
                    conn.recycle(got_objectives);
                    conn.recycle(got_constraints);
                    if id == eval_id {
                        return if fits {
                            Ok((attempt, ctx))
                        } else {
                            Err(NetError::Protocol(format!(
                                "result of eval {eval_id} has the wrong shape"
                            )))
                        };
                    }
                    self.link.duplicate();
                }
                Ok(Some(Msg::Heartbeat { .. })) => self.rec.counter(metrics::HEARTBEATS, 1),
                Ok(Some(_)) => self.rec.counter(metrics::FRAMES_RECEIVED, 1),
                Ok(None) => {
                    if Instant::now() > deadline {
                        return Err(NetError::ResultTimeout {
                            eval_id,
                            waited: RESULT_WAIT,
                        });
                    }
                }
                Err(e) => {
                    if matches!(e, NetError::Decode(_)) {
                        self.rec.counter(metrics::DECODE_ERRORS, 1);
                    }
                    return Err(e);
                }
            }
        }
    }
}

impl<R: Recorder + ?Sized> ObjectiveSource for WireSource<'_, R> {
    /// `now` is the DES virtual clock: trace stamps, flight events and
    /// `net.rtt_seconds` on the pinned master stay deterministic for a
    /// fixed seed.
    fn send(&mut self, worker: usize, eval_id: u64, variables: &[f64], now: f64) {
        // First send of an id is attempt 0, every resend one more.
        let sent = self
            .sent
            .entry(eval_id)
            .and_modify(|(attempt, _)| *attempt += 1)
            .or_insert((0, now));
        sent.1 = now;
        let attempt = sent.0;
        let seq = self.dispatch_seq[worker];
        self.dispatch_seq[worker] += 1;
        if !self
            .link
            .send_work(worker, eval_id, attempt, seq, variables, now)
        {
            self.link.sever(worker);
            self.error.get_or_insert(NetError::Disconnected {
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
        let sent_at = self.sent.remove(&eval_id).map_or(now, |(_, at)| at);
        match self.await_outcome(worker, eval_id, objectives, constraints) {
            // Only consumed wire results close a trace chain (the
            // local fallback is a degraded run, not a cross-process
            // evaluation).
            Ok(receipt) => self.link.consumed(worker, eval_id, &receipt, sent_at, now),
            Err(err) => {
                // Keep the run alive on a local evaluation; the latched
                // error marks the result non-oracle-comparable.
                self.error.get_or_insert(err);
                self.problem.evaluate(variables, objectives, constraints);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The interposing chaos proxy
// ---------------------------------------------------------------------------

struct ProxyShared<'a, R: Recorder + Sync + ?Sized> {
    plan: &'a FaultPlan,
    wire_log: Mutex<FaultLog>,
    start: Instant,
    stop: AtomicBool,
    /// The pinned master's registration settings: pool size, timeouts.
    serve: &'a ServeConfig,
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

/// Relays master→worker traffic for worker `idx` onto the worker's socket,
/// enacting dispatch fates. A crash closes that socket for good: the
/// worker reads EOF and exits, as it does when `serve` drops it.
fn relay_master_to_worker<R: Recorder + Sync + ?Sized>(
    mut conn: Conn,
    idx: usize,
    mut worker: NetStream,
    shared: &ProxyShared<'_, R>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match conn.recv() {
            Ok(Some(msg @ Msg::Work { .. })) => {
                let Msg::Work { eval_id, seq, .. } = &msg else {
                    continue;
                };
                match shared.plan.dispatch_fate(idx, *seq) {
                    // Best-effort, here and below: a closed socket stays
                    // closed.
                    DispatchFate::Normal => {
                        let _ = worker.write_all(&codec::encode(&msg));
                    }
                    DispatchFate::CrashDuring { .. } => {
                        // The worker dies mid-evaluation and stays dead:
                        // the work item is never forwarded and the
                        // worker's socket is closed for good.
                        shared.inject(FaultKind::Crash, idx, *eval_id);
                        worker.shutdown();
                    }
                }
            }
            Ok(Some(other)) => {
                let _ = worker.write_all(&codec::encode(&other));
            }
            Ok(None) => {}
            Err(_) => break,
        }
    }
    // Master side is gone (teardown or failure), or the proxy is stopping:
    // sever the worker so its loop unblocks and exits.
    worker.shutdown();
}

/// Relays worker→master traffic for worker `idx`, enacting result-message
/// fates, until the worker's socket closes.
fn relay_worker_to_master<R: Recorder + Sync + ?Sized>(
    mut conn: Conn,
    idx: usize,
    mut master: NetStream,
    shared: &ProxyShared<'_, R>,
) {
    // Best-effort: if the master is gone the run is ending.
    let mut to_master = |frame: &[u8]| {
        let _ = master.write_all(frame);
    };
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
                    MessageFate::Deliver => to_master(&frame),
                    MessageFate::Drop => {
                        shared.inject(FaultKind::MessageDrop, idx, *eval_id);
                    }
                    MessageFate::Duplicate => {
                        shared.inject(FaultKind::MessageDuplicate, idx, *eval_id);
                        to_master(&frame);
                        to_master(&frame);
                    }
                }
            }
            Ok(Some(other)) => to_master(&codec::encode(&other)),
            Ok(None) => {}
            Err(_) => return, // the worker is gone
        }
    }
}

/// One accepted worker-side socket: the worker's first and only
/// registration, spliced through a master-side connection of its own.
fn proxy_admit<'s, R: Recorder + Sync + ?Sized>(
    scope: &'s Scope<'s, '_>,
    shared: &'s ProxyShared<'s, R>,
    master_addr: &NetAddr,
    stream: NetStream,
    idx: usize,
) -> Result<(), NetError> {
    let mut writer = stream.try_clone()?;
    let mut conn = Conn::new(stream);
    await_hello(&mut conn, Instant::now() + shared.serve.register_timeout)?;
    if idx == shared.serve.workers {
        return Err(NetError::Protocol(format!(
            "Hello after all {idx} workers registered"
        )));
    }
    let mut backoff = Backoff::default_schedule();
    let mstream = connect_with_backoff(master_addr, &mut backoff, shared.serve.read_timeout)?;
    let mut mconn = Conn::new(mstream);
    mconn.send(&Msg::Hello)?;
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
    // Best-effort: a worker gone already reads as a dead one.
    let _ = writer.write_all(&codec::encode(&welcome));
    scope.spawn(move || relay_master_to_worker(mconn, idx, writer, shared));
    scope.spawn(move || relay_worker_to_master(conn, idx, master_writer, shared));
    Ok(())
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
    let mut admitted = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept(shared.serve.read_timeout) {
            Ok(Some(stream)) => {
                // A failed handshake abandons that socket, not the proxy.
                if proxy_admit(scope, shared, master_addr, stream, admitted).is_ok() {
                    admitted += 1;
                }
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// Raises the proxy's stop flag when the harness leaves its scope, on
/// every path: an early error must not leave the accept loop running.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs a pinned-timing networked chaos run and returns its result.
///
/// `resolve` maps the announced problem name to instances for the pinned
/// master and the in-process worker threads; `problem_name` must resolve.
/// Requires `config.t_a` to be `TaMode::Sampled` — wall-clock must not
/// leak into the virtual timeline, or bit-identity with the oracle is
/// impossible by construction.
pub fn run_chaos_loopback<R>(
    borg: BorgConfig,
    config: &VirtualConfig,
    faults: &FaultConfig,
    chaos: &ChaosConfig,
    problem_name: &str,
    resolve: &(dyn Fn(&str) -> Option<Box<dyn Problem>> + Sync),
    rec: &R,
) -> Result<ChaosRunResult, NetError>
where
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
    let problem = resolve(problem_name)
        .ok_or_else(|| NetError::Protocol(format!("cannot resolve problem {problem_name:?}")))?;
    let workers = (config.processors - 1) as usize;
    let run = FaultyRun::new(config, faults);
    let plan = run.plan();

    let master_listen = master_endpoint(&chaos.listen);
    let master_listener = NetListener::bind(&master_listen)?;
    let master_addr = master_listener.local_addr()?;
    let public_listener = NetListener::bind(&chaos.listen)?;
    let public_addr = public_listener.local_addr()?;

    let serve_cfg = ServeConfig {
        problem_name: problem_name.to_string(),
        register_timeout: Duration::from_secs(30),
        read_timeout: READ_TIMEOUT,
        ..ServeConfig::new(master_listen.clone(), workers, config.max_nfe, config.seed)
    };
    let shared = ProxyShared {
        plan: &plan,
        wire_log: Mutex::new(FaultLog::default()),
        start: Instant::now(),
        stop: AtomicBool::new(false),
        serve: &serve_cfg,
        rec,
    };

    let result = std::thread::scope(|scope| -> Result<ChaosRunResult, NetError> {
        let _stop = StopOnDrop(&shared.stop);
        scope.spawn(|| proxy_accept_loop(scope, &shared, &public_listener, &master_addr));

        for _ in 0..chaos.in_process_workers {
            let opts = WorkerOptions {
                connect: public_addr.clone(),
                read_timeout: READ_TIMEOUT,
            };
            // A worker is its own process role: its wall-clock spans and
            // counters stay out of the master's recorder, which then holds
            // each evaluation's virtual `T_F` once.
            scope.spawn(move || run_worker(&opts, resolve, &NoopRecorder));
        }

        // The pool registers through the proxy; the master sees ordinary
        // registrations on its own listener.
        let conns = register_pool(&master_listener, &serve_cfg)?;
        let source = WireSource {
            problem: &*problem,
            sent: BTreeMap::new(),
            dispatch_seq: vec![0; workers],
            link: NetLink::new(&conns, rec)?,
            conns,
            error: None,
            rec,
        };
        let mut hooks = BorgHooks::new(&*problem, source, config, borg, |_, _| {});
        let outcome = run_async_with(&mut hooks, run.engine_config(), &plan, rec);
        let (run, mut wire) = hooks.finish(outcome);
        wire.link.hang_up();

        Ok(ChaosRunResult {
            run,
            // Filled in below, once the proxy threads have let go of it.
            wire_log: FaultLog::default(),
            wire_results: wire.link.results,
            wire_duplicates: wire.link.duplicates,
            degraded: wire.error.map(|e| e.to_string()),
        })
    });
    // Remove Unix socket files; harmless if already gone.
    for addr in [&chaos.listen, &master_listen] {
        if let NetAddr::Unix(path) = addr {
            let _ = std::fs::remove_file(path);
        }
    }
    let mut result = result?;
    result.wire_log = shared.wire_log.into_inner();
    Ok(result)
}
