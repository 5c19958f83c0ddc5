//! The real-clock networked master: the one wall-clock master
//! (`borg_parallel::wallclock`) over live sockets.
//!
//! The loop is the shared one — one master interaction (result in,
//! archive update, next dispatch out) runs on the connection thread that
//! read the result, under the one master lock; the thread that called
//! [`serve`] keeps the clock and tears the connections down. This module
//! is the socket half: configuration, registration, the `NetLink` that
//! frames work items onto each connection's write half and records the
//! `net.*` counters, trace edges and flight events (the chaos harness's
//! pinned master registers and sends through the same two), the connection
//! threads that read and decode frames outside any lock, and the
//! heartbeat echo. Worker death is detected two ways — connection EOF (a
//! `SIGKILL`ed process closes its socket), seen by the connection thread,
//! and wire-heartbeat staleness (a hung-but-connected peer), seen by the
//! tick — and both go through the master's one death path.
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
use borg_core::algorithm::{BorgConfig, BorgEngine};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::{FaultKind, FaultLog};
use borg_obs::{Recorder, TraceEdge, TraceEdgeKind};
use borg_parallel::wallclock::{keep_clock, lock_master, Failure, Link, Master, MasterConfig};
use parking_lot::Mutex;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

/// The master's [`Link`] to worker processes: every connection's write
/// half and the one frame they are all encoded into. Both socket masters
/// send, consume and count through it: [`serve`] and the chaos harness's
/// pinned master.
pub(crate) struct NetLink<'a, R: ?Sized> {
    /// `None` once severed (failed write, declared death).
    writers: Vec<Option<NetStream>>,
    /// The outgoing frame, re-encoded in place by every write.
    frame: Vec<u8>,
    /// Results consumed.
    pub(crate) results: u64,
    /// Duplicate or stale result frames absorbed.
    pub(crate) duplicates: u64,
    heartbeats: u64,
    rec: &'a R,
}

impl<'a, R: Recorder + ?Sized> NetLink<'a, R> {
    /// A link over the write halves of the registered `conns`.
    pub(crate) fn new(conns: &[Conn], rec: &'a R) -> Result<Self, NetError> {
        let writers = conns
            .iter()
            .map(|conn| conn.stream().try_clone().map(Some))
            .collect::<Result<_, _>>()?;
        Ok(NetLink {
            writers,
            frame: Vec::new(),
            results: 0,
            duplicates: 0,
            heartbeats: 0,
            rec,
        })
    }

    /// Tells every live worker the run is over, then severs every
    /// connection so blocked reads on either end return at once.
    pub(crate) fn hang_up(&mut self) {
        codec::encode_into(&mut self.frame, &Msg::Shutdown);
        for writer in self.writers.iter_mut().flatten() {
            let _ = writer.write_all(&self.frame);
        }
        for writer in self.writers.iter().flatten() {
            writer.shutdown();
        }
    }

    /// Writes the frame in `self.frame` to `target`'s socket. After a
    /// failed (or timed-out) write the caller severs the route: the
    /// connection thread will report the death, and until then the
    /// deadline machinery covers the loss.
    fn write_frame(&mut self, target: usize) -> bool {
        let Some(stream) = self.writers[target].as_mut() else {
            return false;
        };
        let sent = stream.write_all(&self.frame).is_ok();
        if sent {
            self.rec.counter(metrics::FRAMES_SENT, 1);
            self.rec
                .counter(metrics::BYTES_SENT, self.frame.len() as u64);
        }
        sent
    }

    /// Counts a heartbeat and, when it carries a context, answers the
    /// clock probe: the echo preserves the probe's send time in
    /// `parent_span` (bit pattern) and adds our own clock, so the worker
    /// can compute RTT and clock offset.
    fn on_beat(&mut self, worker: usize, ctx: Option<TraceCtx>, now: f64) {
        self.heartbeats += 1;
        let Some(probe) = ctx else { return };
        let echo = Msg::Heartbeat {
            worker: worker as u64,
            ctx: Some(TraceCtx {
                trace_id: probe.trace_id,
                parent_span: probe.sent_at.to_bits(),
                sent_at: now,
            }),
        };
        codec::encode_into(&mut self.frame, &echo);
        if self.write_frame(worker) {
            self.rec.counter(metrics::TRACE_PROBE_ECHOES, 1);
        } else {
            self.sever(worker);
        }
    }
}

impl<R: Recorder + ?Sized> Link for NetLink<'_, R> {
    /// The attempt the result answers and the worker's trace context.
    type Receipt = (u32, Option<TraceCtx>);

    fn send_work(
        &mut self,
        target: usize,
        eval_id: u64,
        attempt: u32,
        seq: u64,
        variables: &[f64],
        now: f64,
    ) -> bool {
        let ctx = TraceCtx {
            trace_id: eval_id,
            parent_span: codec::span_id(eval_id, attempt, 0),
            sent_at: now,
        };
        codec::encode_work_into(&mut self.frame, eval_id, attempt, seq, variables, Some(ctx));
        if !self.write_frame(target) {
            return false;
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
        true
    }

    fn is_up(&self, target: usize) -> bool {
        self.writers[target].is_some()
    }

    fn sever(&mut self, target: usize) {
        self.writers[target] = None;
    }

    fn consumed(
        &mut self,
        worker: usize,
        eval_id: u64,
        &(attempt, ctx): &Self::Receipt,
        dispatched_at: f64,
        now: f64,
    ) {
        self.results += 1;
        self.rec.counter(metrics::RESULTS, 1);
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
    }

    fn duplicate(&mut self) {
        self.duplicates += 1;
        self.rec.counter(metrics::DUPLICATES, 1);
    }

    fn died(&mut self, worker: usize, lost_eval: Option<u64>, kind: FaultKind, at: f64) {
        self.rec.counter(metrics::WORKER_DEATHS, 1);
        self.rec.flight(
            "net.worker_death",
            at,
            lost_eval.unwrap_or(u64::MAX),
            worker as u64,
            match kind {
                FaultKind::Hang => 1.0,
                _ => 0.0,
            },
        );
    }
}

type NetMaster<'a, R> = Mutex<Master<'a, NetLink<'a, R>, R>>;

/// Waits for `Hello` on a fresh connection until `deadline` (checked
/// at each read timeout). The chaos proxy admits workers through it too.
pub(crate) fn await_hello(conn: &mut Conn, deadline: Instant) -> Result<(), NetError> {
    loop {
        match conn.recv()? {
            Some(Msg::Hello) => return Ok(()),
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

/// First and longest sleep of [`register_pool`] between `accept`s that
/// find nobody.
const IDLE_ACCEPT_FIRST: Duration = Duration::from_micros(50);
const IDLE_ACCEPT_MAX: Duration = Duration::from_millis(2);

/// Accepts and registers the full worker pool. `pub(crate)` so the
/// chaos harness can register proxy-splice connections itself.
pub(crate) fn register_pool(
    listener: &NetListener,
    cfg: &ServeConfig,
) -> Result<Vec<Conn>, NetError> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + cfg.register_timeout;
    let mut conns: Vec<Conn> = Vec::with_capacity(cfg.workers);
    // Nobody waiting: sleep, 50 µs first and twice as long each time up to
    // 2 ms, so a pool that is already dialling registers within
    // microseconds and a slow one settles at the fixed 2 ms poll.
    let mut idle = IDLE_ACCEPT_FIRST;
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
            std::thread::sleep(idle);
            idle = (idle * 2).min(IDLE_ACCEPT_MAX);
            continue;
        };
        idle = IDLE_ACCEPT_FIRST;
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

/// One connection's thread: reads and decodes frames, then handles each
/// under the master lock. Exits on EOF, decode error, the stop flag, or
/// the end of the run.
fn connection_loop<R: Recorder + ?Sized>(
    mut conn: Conn,
    worker: usize,
    master: &NetMaster<'_, R>,
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
                let over = lock_master(master).on_result(
                    worker,
                    eval_id,
                    &objectives,
                    &constraints,
                    (attempt, ctx),
                );
                conn.recycle(objectives);
                conn.recycle(constraints);
                over
            }
            Ok(Some(Msg::Heartbeat { ctx, .. })) => {
                rec.counter(metrics::HEARTBEATS, 1);
                if ctx.is_some() {
                    rec.counter(metrics::TRACE_CTX_RECEIVED, 1);
                }
                let mut m = lock_master(master);
                let beat = m.on_beat(worker);
                if let Some(now) = beat {
                    m.link_mut().on_beat(worker, ctx, now);
                }
                beat.is_none()
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
    let listener = NetListener::bind(&cfg.listen)?;
    let conns = register_pool(&listener, cfg)?;
    let master = Mutex::new(Master::new(
        problem,
        borg,
        &MasterConfig {
            workers: conns.len(),
            max_nfe: cfg.max_nfe,
            engine_seed: SplitMix64::new(cfg.seed).derive_seed("net-serve-engine"),
            reissue_timeout: cfg.reissue_timeout,
            heartbeat_timeout: cfg.heartbeat_timeout,
        },
        NetLink::new(&conns, rec)?,
        rec,
    ));
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for (worker, conn) in conns.into_iter().enumerate() {
            let (master, stop) = (&master, &stop);
            scope.spawn(move || connection_loop(conn, worker, master, stop, rec));
        }
        keep_clock(&master);
        // Orderly teardown regardless of outcome, so the scope join
        // cannot hang.
        stop.store(true, Ordering::SeqCst);
        master.lock().link_mut().hang_up();
    });
    let run = master
        .into_inner()
        .finish()
        .map_err(|failure| match failure {
            Failure::PoolLost { completed, .. } => NetError::AllWorkersLost {
                completed,
                target: cfg.max_nfe,
            },
            Failure::ReissueLimit { eval_id } => {
                NetError::Protocol(format!("eval {eval_id} exhausted its reissues"))
            }
            Failure::BadResult { eval_id } => NetError::Protocol(format!(
                "result of eval {eval_id} has the wrong shape or no candidate"
            )),
        })?;
    Ok(ServeReport {
        engine: run.engine,
        elapsed: run.elapsed,
        fault_log: run.fault_log,
        wire_results: run.link.results,
        wire_duplicates: run.link.duplicates,
        wire_heartbeats: run.link.heartbeats,
    })
}
