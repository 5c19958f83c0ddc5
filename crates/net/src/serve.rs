//! The real-clock networked master: drives the shared
//! `borg_protocol::MasterEngine` over live sockets.
//!
//! Mirrors the real-thread executor (`borg_parallel::threads`) with the
//! channel pair replaced by framed socket connections. One master
//! interaction — result in, archive update, next dispatch out — runs on
//! the connection thread that read the result: it decodes the frame
//! outside any lock, takes the one master lock ([`Master`]: the protocol
//! engine, the transport with the Borg engine and every socket's write
//! half, the liveness tables), feeds the engine the [`Event`] and writes
//! the follow-up dispatch before releasing it. The engine decides
//! everything else (deadline reissue, duplicate suppression by eval id,
//! worker retirement). The thread that called [`serve`] keeps the clock:
//! it wakes every tick to sweep expired deadlines and stale heartbeats,
//! is unparked once when the run ends, and tears the connections down.
//! Worker death is detected two ways — connection EOF (a `SIGKILL`ed
//! process closes its socket), seen by the connection thread, and
//! wire-heartbeat staleness (a hung-but-connected peer), seen by the
//! tick — and both feed the engine's existing recovery machinery via
//! [`Event::WorkerDied`].
//!
//! All socket writes happen under the master lock, so frames never
//! interleave. Holding it across a blocking `write_all` cannot deadlock:
//! a worker holds at most one work item, so at most one frame of a few
//! KiB is in flight per direction per connection, far below a socket
//! buffer, and no write waits for a peer to drain; reads and decoding
//! happen before the lock is taken, so a slow sender delays only its own
//! thread. A peer that stops reading altogether runs into the write
//! timeout every stream carries (`transport.rs`) and is then handled like
//! any failed write.

use crate::codec::{self, Msg, TraceCtx};
use crate::metrics;
use crate::transport::{Conn, NetAddr, NetError, NetListener, NetStream};
use borg_core::algorithm::{BorgConfig, BorgEngine, Candidate};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::{FaultKind, FaultLog};
use borg_obs::{Recorder, TraceEdge, TraceEdgeKind};
use borg_protocol::{Clock, Event, MasterEngine, RecoveryPolicy, Transport};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Reissue cap before an evaluation is abandoned (matches the
/// real-thread executor).
const MAX_REISSUES: u32 = 32;

/// How the networked master runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Endpoint to listen on (`tcp:HOST:PORT` / `unix:PATH`).
    pub listen: NetAddr,
    /// Worker registrations to wait for before starting.
    pub workers: usize,
    /// Evaluation budget.
    pub max_nfe: u64,
    /// Engine seed (derived deterministically).
    pub seed: u64,
    /// Problem name announced to workers in `Welcome`.
    pub problem_name: String,
    /// Artificial per-evaluation delay announced to workers (keeps test
    /// runs killable mid-flight). Zero for real runs.
    pub eval_delay: Duration,
    /// Reissue deadline in wall-clock seconds (`None` = never).
    pub reissue_timeout: Option<f64>,
    /// Declare a worker dead after this much wire silence, in seconds
    /// (`INFINITY` = EOF detection only). Must exceed the worst
    /// evaluation time: workers only heartbeat while idle.
    pub heartbeat_timeout: f64,
    /// How long to wait for the pool to register.
    pub register_timeout: Duration,
    /// Per-connection read timeout (also the reader-thread stop tick).
    pub read_timeout: Duration,
}

impl ServeConfig {
    pub fn new(listen: NetAddr, workers: usize, max_nfe: u64, seed: u64) -> Self {
        ServeConfig {
            listen,
            workers,
            max_nfe,
            seed,
            problem_name: "dtlz2-5".to_string(),
            eval_delay: Duration::ZERO,
            reissue_timeout: None,
            heartbeat_timeout: f64::INFINITY,
            register_timeout: Duration::from_secs(20),
            read_timeout: Duration::from_millis(50),
        }
    }
}

/// What a networked run produced.
pub struct ServeReport {
    /// Final engine state (archive, NFE).
    pub engine: BorgEngine,
    /// Wall-clock seconds from pool-ready to budget completion.
    pub elapsed: f64,
    /// Recovery ledger (real deaths are injected as `Crash` records).
    pub fault_log: FaultLog,
    /// Result frames consumed.
    pub wire_results: u64,
    /// Duplicate result frames absorbed.
    pub wire_duplicates: u64,
    /// Heartbeat frames received.
    pub wire_heartbeats: u64,
}

/// A decoded result waiting for the engine to consume it.
struct WireResult {
    worker: usize,
    eval_id: u64,
    attempt: u32,
    objectives: Vec<f64>,
    constraints: Vec<f64>,
    ctx: Option<TraceCtx>,
}

/// The engine's executor half over live sockets.
struct NetTransport<'a, R: Recorder + ?Sized> {
    start: Instant,
    engine: BorgEngine,
    /// Objective and constraint counts every result frame must match.
    shape: (usize, usize),
    writers: Vec<Option<NetStream>>,
    /// The outgoing frame, re-encoded in place by every write.
    frame: Vec<u8>,
    /// Every evaluation out on the wire: its candidate (kept for reissue
    /// and for the consume) and when it was last dispatched.
    in_flight: BTreeMap<u64, (Candidate, f64)>,
    /// The evaluation each worker currently holds (shared-pool mode
    /// dispatches one at a time), for fast `lost_eval` reporting on EOF.
    current_eval: Vec<Option<u64>>,
    /// Per-worker dispatch counters, carried in `Work.seq`.
    dispatch_seq: Vec<u64>,
    /// The result the event being handled is about.
    pending: Option<WireResult>,
    timeout: Option<f64>,
    latched: Option<NetError>,
    wire_results: u64,
    wire_duplicates: u64,
    rec: &'a R,
}

impl<R: Recorder + ?Sized> NetTransport<'_, R> {
    /// Writes the frame in `self.frame` to `target`'s socket. A failed
    /// (or timed-out) write drops the write half: the connection thread
    /// will surface the death, and until then the deadline machinery
    /// covers the loss.
    fn write_frame(&mut self, target: usize) -> bool {
        let Some(stream) = self.writers[target].as_mut() else {
            return false;
        };
        if stream.write_all(&self.frame).is_ok() {
            self.rec.counter(metrics::FRAMES_SENT, 1);
            self.rec
                .counter(metrics::BYTES_SENT, self.frame.len() as u64);
            true
        } else {
            self.writers[target] = None;
            false
        }
    }

    /// Sends a work item toward `worker`'s socket — or any live socket
    /// if that one is gone. The engine's shared-pool discipline treats
    /// dispatch indices as notional (it reissues a dead worker's lost
    /// eval under the dead worker's own index, the way the thread
    /// executor's shared queue lets any survivor pick it up), so the
    /// physical route is ours to choose. Returns the socket actually
    /// written, `None` if nothing could be sent (EOF detection and the
    /// deadline machinery cover the loss).
    fn send_work(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        variables: &[f64],
    ) -> Option<usize> {
        let target = if self.writers[worker].is_some() {
            worker
        } else {
            self.writers.iter().position(Option::is_some)?
        };
        let seq = self.dispatch_seq[target];
        self.dispatch_seq[target] += 1;
        let now = self.now();
        let ctx = TraceCtx {
            trace_id: eval_id,
            parent_span: codec::span_id(eval_id, attempt, 0),
            sent_at: now,
        };
        codec::encode_work_into(&mut self.frame, eval_id, attempt, seq, variables, Some(ctx));
        if !self.write_frame(target) {
            return None;
        }
        self.rec.counter(metrics::DISPATCHES, 1);
        self.rec.counter(metrics::TRACE_CTX_SENT, 1);
        self.rec.trace_edge(TraceEdge {
            kind: TraceEdgeKind::DispatchSent,
            trace_id: eval_id,
            eval_id,
            attempt,
            worker: target as u64,
            local_t: now,
            remote_t: 0.0,
        });
        self.rec
            .flight("net.work_sent", now, eval_id, target as u64, attempt.into());
        Some(target)
    }
}

impl<R: Recorder + ?Sized> Clock for NetTransport<'_, R> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl<R: Recorder + ?Sized> Transport for NetTransport<'_, R> {
    fn dispatch(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        _seq: u64,
        _log: &mut FaultLog,
    ) -> f64 {
        let candidate = if attempt == 0 {
            self.engine.produce()
        } else {
            match self.in_flight.remove(&eval_id) {
                Some((candidate, _)) => candidate,
                // Abandoned and re-dispatched? Should not happen; fail
                // open with no deadline rather than panic.
                None => return f64::INFINITY,
            }
        };
        if let Some(target) = self.send_work(worker, eval_id, attempt, &candidate.variables) {
            // Track the eval on the socket that physically carries it
            // (may differ from the notional index after a death), so a
            // later EOF on that connection reports the right lost eval.
            self.current_eval[target] = Some(eval_id);
        }
        let now = self.now();
        self.in_flight.insert(eval_id, (candidate, now));
        self.timeout.map_or(f64::INFINITY, |t| now + t)
    }

    fn consume(&mut self, worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
        let Some(result) = &self.pending else {
            self.latched = Some(NetError::Protocol(format!(
                "engine consumed eval {eval_id} with no wire result staged"
            )));
            return self.now();
        };
        let Some((candidate, dispatched_at)) = self.in_flight.remove(&eval_id) else {
            self.latched = Some(NetError::Protocol(format!(
                "wire result for eval {eval_id} has no produced candidate"
            )));
            return self.now();
        };
        // The frame came from outside the process: its shape is checked
        // before a value is used.
        if (result.objectives.len(), result.constraints.len()) != self.shape {
            self.latched = Some(NetError::Protocol(format!(
                "result of eval {eval_id} has the wrong shape"
            )));
            return self.now();
        }
        let (attempt, ctx) = (result.attempt, result.ctx);
        let solution =
            self.engine
                .make_solution_recycled(candidate, &result.objectives, &result.constraints);
        self.engine.consume(solution);
        self.current_eval[worker] = None;
        self.wire_results += 1;
        self.rec.counter(metrics::RESULTS, 1);
        let now = self.now();
        self.rec.observe(metrics::RTT_SECONDS, now - dispatched_at);
        // Only *consumed* results close a trace chain: duplicates and
        // late frames never reach here, so the merged trace has exactly
        // one master-consume leg per completed evaluation.
        self.rec.trace_edge(TraceEdge {
            kind: TraceEdgeKind::ResultReceived,
            trace_id: eval_id,
            eval_id,
            attempt,
            worker: worker as u64,
            local_t: now,
            remote_t: ctx.map_or(0.0, |c| c.sent_at),
        });
        self.rec
            .flight("net.result_received", now, eval_id, worker as u64, 0.0);
        now
    }

    fn absorb_duplicate(&mut self, _worker: usize, _eval_id: u64, _ready_at: f64) -> f64 {
        self.wire_duplicates += 1;
        self.rec.counter(metrics::DUPLICATES, 1);
        self.now()
    }

    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        let now = self.now();
        (now, now)
    }

    fn rearm_heartbeat(&mut self, _at: f64) {}

    fn abandon(&mut self, eval_id: u64) {
        self.in_flight.remove(&eval_id);
        self.latched = Some(NetError::Protocol(format!(
            "eval {eval_id} exhausted its {MAX_REISSUES} reissues"
        )));
    }

    fn unknown_result(&mut self, _worker: usize, _eval_id: u64) {
        // A result for an id the engine no longer tracks (late duplicate
        // after abandonment): absorb and count, don't fail the run.
        self.wire_duplicates += 1;
        self.rec.counter(metrics::DUPLICATES, 1);
    }
}

/// Everything one master interaction touches, behind the one master lock:
/// connection threads take it per frame, the calling thread per tick.
struct Master<'a, R: Recorder + ?Sized> {
    proto: MasterEngine,
    transport: NetTransport<'a, R>,
    alive: Vec<bool>,
    last_seen: Vec<f64>,
    wire_heartbeats: u64,
    cfg: &'a ServeConfig,
    /// How the run ended — its end time or the error that stopped it.
    /// Set once; every later frame or tick finds it and stands down.
    verdict: Option<Result<f64, NetError>>,
    /// The thread that called `serve`, unparked when the verdict is set.
    caller: Thread,
}

impl<R: Recorder + ?Sized> Master<'_, R> {
    /// Ends the run, once, and wakes the calling thread.
    fn end(&mut self, verdict: Result<f64, NetError>) -> bool {
        self.verdict = Some(verdict);
        self.caller.unpark();
        true
    }

    /// Whether the run is over. Called after every engine event: a
    /// latched transport error or a completed budget ends it.
    fn settle(&mut self) -> bool {
        if self.verdict.is_some() {
            true
        } else if let Some(err) = self.transport.latched.take() {
            self.end(Err(err))
        } else if self.proto.finished() {
            let now = self.transport.now();
            self.end(Ok(now))
        } else {
            false
        }
    }

    fn handle(&mut self, event: Event) -> bool {
        let rec = self.transport.rec;
        self.proto.handle(event, &mut self.transport, rec);
        self.settle()
    }

    /// One master interaction. Hands the result back so its vectors can
    /// be recycled once the lock is released.
    fn on_result(&mut self, result: WireResult) -> (bool, Option<WireResult>) {
        let (worker, eval_id) = (result.worker, result.eval_id);
        // A result after the end of the run, or from a worker already
        // declared dead (stale by definition: its eval was reissued).
        if self.verdict.is_some() || !self.alive[worker] {
            return (self.verdict.is_some(), Some(result));
        }
        let at = self.transport.now();
        self.last_seen[worker] = at;
        self.transport.pending = Some(result);
        let over = self.handle(Event::ResultArrived {
            worker,
            eval_id,
            at,
        });
        (over, self.transport.pending.take())
    }

    fn on_beat(&mut self, worker: usize, ctx: Option<TraceCtx>) -> bool {
        if self.verdict.is_some() {
            return true;
        }
        self.wire_heartbeats += 1;
        self.last_seen[worker] = self.transport.now();
        // A heartbeat carrying a context is a clock probe: echo it back
        // with the probe's send time preserved in `parent_span` (bit
        // pattern) plus our own clock, so the worker can compute RTT and
        // clock offset.
        if let Some(probe) = ctx {
            let echo = Msg::Heartbeat {
                worker: worker as u64,
                ctx: Some(TraceCtx {
                    trace_id: probe.trace_id,
                    parent_span: probe.sent_at.to_bits(),
                    sent_at: self.transport.now(),
                }),
            };
            codec::encode_into(&mut self.transport.frame, &echo);
            if self.transport.write_frame(worker) {
                self.transport.rec.counter(metrics::TRACE_PROBE_ECHOES, 1);
            }
        }
        false
    }

    /// Records a physically observed death in the ledger and lets the
    /// engine's recovery machinery (retire + immediate reissue of the
    /// lost evaluation) act on it.
    fn on_death(&mut self, worker: usize, kind: FaultKind) -> bool {
        if self.verdict.is_some() {
            return true;
        }
        if !self.alive[worker] {
            return false;
        }
        self.alive[worker] = false;
        let at = self.transport.now();
        let lost_eval = self.transport.current_eval[worker];
        self.proto
            .log_mut()
            .inject(kind, worker, lost_eval.unwrap_or(0), at);
        self.transport.writers[worker] = None;
        let rec = self.transport.rec;
        rec.counter(metrics::WORKER_DEATHS, 1);
        rec.flight(
            "net.worker_death",
            at,
            worker as u64,
            lost_eval.unwrap_or(u64::MAX),
            match kind {
                FaultKind::Hang => 1.0,
                _ => 0.0,
            },
        );
        if self.handle(Event::WorkerDied {
            worker,
            at,
            will_respawn: false,
            lost_eval,
        }) {
            return true;
        }
        if self.alive.iter().any(|a| *a) {
            return false;
        }
        let lost = NetError::AllWorkersLost {
            completed: self.transport.engine.nfe(),
            target: self.cfg.max_nfe,
        };
        self.end(Err(lost))
    }

    /// The clock duties: expired deadlines, then stale heartbeats.
    fn on_tick(&mut self) -> bool {
        if self.verdict.is_some() {
            return true;
        }
        let now = self.transport.now();
        for (eval_id, worker, deadline_bits) in self.proto.expired_deadlines(now) {
            if self.handle(Event::DeadlineFired {
                eval_id,
                worker,
                deadline_bits,
                at: now,
            }) {
                return true;
            }
        }
        if self.cfg.heartbeat_timeout.is_finite() {
            for worker in 0..self.alive.len() {
                if now - self.last_seen[worker] > self.cfg.heartbeat_timeout
                    && self.on_death(worker, FaultKind::Hang)
                {
                    return true;
                }
            }
        }
        false
    }
}

/// Waits for `Hello` on a fresh connection (bounded by read timeouts).
fn await_hello(conn: &mut Conn, deadline: Instant) -> Result<u64, NetError> {
    loop {
        match conn.recv()? {
            Some(Msg::Hello { worker }) => return Ok(worker),
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "expected Hello during registration, got {other:?}"
                )))
            }
            None => {
                if Instant::now() > deadline {
                    return Err(NetError::Protocol(
                        "connection never sent Hello".to_string(),
                    ));
                }
            }
        }
    }
}

/// Accepts and registers the full worker pool. `pub(crate)` so the
/// chaos harness can register proxy-splice connections itself.
pub(crate) fn register_pool(
    listener: &NetListener,
    cfg: &ServeConfig,
) -> Result<Vec<Conn>, NetError> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + cfg.register_timeout;
    let mut conns: Vec<Conn> = Vec::with_capacity(cfg.workers);
    while conns.len() < cfg.workers {
        if Instant::now() > deadline {
            return Err(NetError::Protocol(format!(
                "only {}/{} workers registered within {:?}",
                conns.len(),
                cfg.workers,
                cfg.register_timeout
            )));
        }
        let Some(stream) = listener.accept(cfg.read_timeout)? else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let mut conn = Conn::new(stream);
        await_hello(&mut conn, deadline)?;
        let worker = conns.len() as u64;
        conn.send(&Msg::Welcome {
            worker,
            problem: cfg.problem_name.clone(),
            eval_delay_us: cfg.eval_delay.as_micros() as u64,
        })?;
        conns.push(conn);
    }
    Ok(conns)
}

/// Takes the master lock for one interaction. The holder is out again
/// within a few microseconds (one engine event and one small write), so a
/// contending connection thread polls for about that long before it
/// blocks: going to sleep and being woken costs more than the wait, and
/// with every connection thread doing so the lock turns into a convoy.
/// Measured with in-process workers on two CPUs (`serve_saturated_p*` in
/// `crates/bench/benches/net.rs`, thousand evaluations per second, plain
/// `lock()` → polling first): P = 8: 64–65 → 69–82, P = 32: 66–67 →
/// 82–89; pinned to one CPU, where the holder cannot run while another
/// thread polls, nothing moves (150 → 151).
fn lock_master<'m, 'a, R: Recorder + ?Sized>(
    master: &'m Mutex<Master<'a, R>>,
) -> parking_lot::MutexGuard<'m, Master<'a, R>> {
    for _ in 0..200 {
        if let Some(guard) = master.try_lock() {
            return guard;
        }
        std::hint::spin_loop();
    }
    master.lock()
}

/// One connection's thread: reads and decodes frames, then handles each
/// under the master lock. Exits on EOF, decode error, the stop flag, or
/// the end of the run.
fn connection_loop<R: Recorder + ?Sized>(
    mut conn: Conn,
    worker: usize,
    master: &Mutex<Master<'_, R>>,
    stop: &AtomicBool,
    rec: &R,
) {
    while !stop.load(Ordering::SeqCst) {
        let over = match conn.recv() {
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
                // Trust the connection index, not the frame's claim.
                let (over, spent) = lock_master(master).on_result(WireResult {
                    worker,
                    eval_id,
                    attempt,
                    objectives,
                    constraints,
                    ctx,
                });
                if let Some(spent) = spent {
                    conn.recycle(spent.objectives);
                    conn.recycle(spent.constraints);
                }
                over
            }
            Ok(Some(Msg::Heartbeat { ctx, .. })) => {
                rec.counter(metrics::HEARTBEATS, 1);
                if ctx.is_some() {
                    rec.counter(metrics::TRACE_CTX_RECEIVED, 1);
                }
                lock_master(master).on_beat(worker, ctx)
            }
            Ok(Some(_)) => {
                rec.counter(metrics::FRAMES_RECEIVED, 1);
                false
            }
            Ok(None) => false, // read timeout: poll the stop flag again
            Err(e) => {
                if matches!(e, NetError::Decode(_)) {
                    rec.counter(metrics::DECODE_ERRORS, 1);
                }
                master.lock().on_death(worker, FaultKind::Crash);
                true
            }
        };
        if over {
            return;
        }
    }
}

/// Binds, registers the pool, runs the budget, returns the report.
pub fn serve<P, R>(
    problem: &P,
    borg: BorgConfig,
    cfg: &ServeConfig,
    rec: &R,
) -> Result<ServeReport, NetError>
where
    P: Problem + ?Sized,
    R: Recorder + Sync + ?Sized,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.max_nfe >= 1, "need at least one evaluation");
    let listener = NetListener::bind(&cfg.listen)?;
    let conns = register_pool(&listener, cfg)?;
    let workers = conns.len();
    let engine_seed = SplitMix64::new(cfg.seed).derive_seed("net-serve-engine");
    let mut writers = Vec::with_capacity(workers);
    for conn in &conns {
        writers.push(Some(conn.stream().try_clone()?));
    }
    let transport = NetTransport {
        start: Instant::now(),
        engine: BorgEngine::new(problem, borg, engine_seed),
        shape: (problem.num_objectives(), problem.num_constraints()),
        writers,
        frame: Vec::new(),
        in_flight: BTreeMap::new(),
        current_eval: vec![None; workers],
        dispatch_seq: vec![0; workers],
        pending: None,
        timeout: cfg.reissue_timeout,
        latched: None,
        wire_results: 0,
        wire_duplicates: 0,
        rec,
    };
    let proto = MasterEngine::new(borg_protocol::EngineConfig::shared_pool_async(
        workers,
        cfg.max_nfe,
        RecoveryPolicy {
            timeout: cfg.reissue_timeout.unwrap_or(f64::INFINITY),
            heartbeat_interval: f64::INFINITY,
            max_reissues: MAX_REISSUES,
        },
    ));
    let mut master = Master {
        proto,
        last_seen: vec![transport.now(); workers],
        transport,
        alive: vec![true; workers],
        wire_heartbeats: 0,
        cfg,
        verdict: None,
        caller: std::thread::current(),
    };
    master.proto.seed(&mut master.transport, rec);
    master.settle();
    let master = Mutex::new(master);
    let stop = AtomicBool::new(false);
    let tick = cfg.reissue_timeout.map_or(Duration::from_millis(50), |t| {
        Duration::from_secs_f64((t / 4.0).clamp(0.001, 0.1))
    });

    std::thread::scope(|scope| {
        for (worker, conn) in conns.into_iter().enumerate() {
            let (master, stop) = (&master, &stop);
            scope.spawn(move || connection_loop(conn, worker, master, stop, rec));
        }
        // The clock: tick until a connection thread (or a tick) ends the
        // run. `settle` unparks this thread, so the end is seen at once;
        // a spurious wake-up only ticks early.
        loop {
            std::thread::park_timeout(tick);
            if master.lock().on_tick() {
                break;
            }
        }
        // Orderly teardown regardless of outcome: tell live workers the
        // run is over, then sever every connection so blocked reads
        // return immediately and the scope join cannot hang.
        let m = &mut *master.lock();
        codec::encode_into(&mut m.transport.frame, &Msg::Shutdown);
        for writer in m.transport.writers.iter_mut().flatten() {
            let _ = writer.write_all(&m.transport.frame);
        }
        stop.store(true, Ordering::SeqCst);
        for writer in m.transport.writers.iter().flatten() {
            writer.shutdown();
        }
    });
    let Master {
        proto,
        transport,
        wire_heartbeats,
        verdict,
        ..
    } = master.into_inner();
    let elapsed = verdict.unwrap_or_else(|| {
        Err(NetError::Protocol(
            "the master stopped without a verdict".to_string(),
        ))
    })?;

    let mut fault_log = proto.into_log();
    fault_log.finalize(elapsed);
    rec.gauge("master.busy_seconds", elapsed);
    rec.gauge("master.utilization", 1.0);
    rec.counter(
        "archive.box_probes",
        transport.engine.archive().box_probes(),
    );
    Ok(ServeReport {
        engine: transport.engine,
        elapsed,
        fault_log,
        wire_results: transport.wire_results,
        wire_duplicates: transport.wire_duplicates,
        wire_heartbeats,
    })
}
