//! The worker side of the deployment pair: connect, register, evaluate
//! dispatched candidates, stream results back, heartbeat while idle.
//! Only the first dial backs off (a worker may start before its master
//! binds); a dropped connection ends the worker, which never dials again.

use crate::codec::{self, Msg, TraceCtx};
use crate::metrics;
use crate::transport::{connect_with_backoff, Backoff, Conn, NetAddr, NetError};
use borg_core::problem::Problem;
use borg_obs::{Activity, Actor, Recorder, TraceEdge, TraceEdgeKind};
use borg_parallel::delayed::precise_delay;
use std::time::{Duration, Instant};

/// How a worker connects and paces itself.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Master (or chaos proxy) endpoint.
    pub connect: NetAddr,
    /// Per-read socket timeout; also the idle-loop tick.
    pub read_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: NetAddr::Tcp("127.0.0.1:0".to_string()),
            read_timeout: Duration::from_millis(50),
        }
    }
}

/// Idle time after which a worker sends a heartbeat frame.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// What a worker did over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Index the master assigned at registration.
    pub worker: u64,
    /// Evaluations completed (results sent, delivered or not).
    pub evaluated: u64,
    /// Heartbeat frames sent.
    pub heartbeats_sent: u64,
}

/// Maximum consecutive read timeouts while waiting for `Welcome` before
/// declaring registration failed (~10 s at the 50 ms default timeout).
const REGISTRATION_READS: u32 = 200;

fn await_welcome(conn: &mut Conn) -> Result<(u64, String, u64), NetError> {
    for _ in 0..REGISTRATION_READS {
        match conn.recv()? {
            Some(Msg::Welcome {
                worker,
                problem,
                eval_delay_us,
            }) => return Ok((worker, problem, eval_delay_us)),
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "expected Welcome during registration, got {other:?}"
                )))
            }
            None => {} // timeout tick; keep waiting
        }
    }
    Err(NetError::Protocol(
        "no Welcome within the registration window".to_string(),
    ))
}

fn connect_and_register(opts: &WorkerOptions) -> Result<(Conn, u64, String, u64), NetError> {
    let mut backoff = Backoff::default_schedule();
    let stream = connect_with_backoff(&opts.connect, &mut backoff, opts.read_timeout)?;
    let mut conn = Conn::new(stream);
    conn.send(&Msg::Hello)?;
    let (worker, problem, eval_delay_us) = await_welcome(&mut conn)?;
    Ok((conn, worker, problem, eval_delay_us))
}

/// Runs the worker loop until the master sends `Shutdown` or goes away.
///
/// `resolve` maps the problem name announced in `Welcome` to a live
/// [`Problem`] instance (keeps this crate independent of any particular
/// problem suite). A master that disappears *after* registration ends
/// the run cleanly with the report so far — operationally the master
/// finishing and closing sockets is a normal way for a worker to learn
/// the run is over; failing to register at all is an error. A lost
/// connection is never redialled: a master never takes a worker back.
pub fn run_worker<R: Recorder + ?Sized>(
    opts: &WorkerOptions,
    resolve: &dyn Fn(&str) -> Option<Box<dyn Problem>>,
    rec: &R,
) -> Result<WorkerReport, NetError> {
    let mut report = WorkerReport::default();
    let (mut conn, worker, problem_name, eval_delay_us) = connect_and_register(opts)?;
    report.worker = worker;
    let problem = resolve(&problem_name)
        .ok_or_else(|| NetError::Protocol(format!("cannot resolve problem {problem_name:?}")))?;
    let eval_delay = Duration::from_micros(eval_delay_us).as_secs_f64();
    // The worker's own trace clock: seconds on its private epoch. The
    // merge aligns it to the master clock from heartbeat-probe samples.
    let epoch = Instant::now();
    let mut last_beat = Instant::now();
    let mut probe_seq = 0u64;
    // The one result message of this worker: every evaluation writes its
    // objectives straight into it and sends it at once.
    let mut outcome = Msg::Outcome {
        worker,
        eval_id: 0,
        attempt: 0,
        objectives: vec![0.0; problem.num_objectives()],
        constraints: vec![0.0; problem.num_constraints()],
        ctx: None,
    };

    loop {
        match conn.recv() {
            Ok(Some(Msg::Work {
                eval_id,
                attempt,
                seq: _,
                variables,
                ctx,
            })) => {
                rec.counter(metrics::FRAMES_RECEIVED, 1);
                let received_at = epoch.elapsed().as_secs_f64();
                if ctx.is_some() {
                    rec.counter(metrics::TRACE_CTX_RECEIVED, 1);
                }
                rec.trace_edge(TraceEdge {
                    kind: TraceEdgeKind::WorkReceived,
                    trace_id: ctx.map_or(eval_id, |c| c.trace_id),
                    eval_id,
                    attempt,
                    worker,
                    local_t: received_at,
                    remote_t: ctx.map_or(0.0, |c| c.sent_at),
                });
                rec.flight("net.work_received", received_at, eval_id, worker, 0.0);
                if variables.len() != problem.num_variables() {
                    return Err(NetError::Protocol(format!(
                        "work item has {} variables, problem {problem_name:?} wants {}",
                        variables.len(),
                        problem.num_variables()
                    )));
                }
                precise_delay(eval_delay);
                let mut done_at = received_at;
                if let Msg::Outcome {
                    eval_id: sent_id,
                    attempt: sent_attempt,
                    objectives,
                    constraints,
                    ctx: sent_ctx,
                    ..
                } = &mut outcome
                {
                    problem.evaluate(&variables, objectives, constraints);
                    done_at = epoch.elapsed().as_secs_f64();
                    (*sent_id, *sent_attempt) = (eval_id, attempt);
                    *sent_ctx = Some(TraceCtx {
                        trace_id: eval_id,
                        parent_span: codec::span_id(eval_id, attempt, 2),
                        sent_at: done_at,
                    });
                }
                conn.recycle(variables);
                report.evaluated += 1;
                rec.span(
                    Actor::Worker(worker as usize),
                    Activity::Evaluation,
                    received_at,
                    done_at,
                );
                if conn.send(&outcome).is_err() {
                    return Ok(report);
                }
                rec.counter(metrics::FRAMES_SENT, 1);
                rec.counter(metrics::TRACE_CTX_SENT, 1);
                rec.trace_edge(TraceEdge {
                    kind: TraceEdgeKind::ResultSent,
                    trace_id: eval_id,
                    eval_id,
                    attempt,
                    worker,
                    local_t: done_at,
                    remote_t: 0.0,
                });
                rec.flight("net.result_sent", done_at, eval_id, worker, 0.0);
            }
            Ok(Some(Msg::Shutdown)) => {
                rec.counter(metrics::FRAMES_RECEIVED, 1);
                return Ok(report);
            }
            Ok(Some(Msg::Heartbeat {
                ctx: Some(echo), ..
            })) => {
                // The master echoed one of our clock probes: our send
                // time came back in `parent_span` (bit pattern), the
                // master's clock in `sent_at`. Estimate the offset at
                // the probe midpoint (symmetric-path assumption).
                rec.counter(metrics::FRAMES_RECEIVED, 1);
                let t1 = epoch.elapsed().as_secs_f64();
                let t0 = f64::from_bits(echo.parent_span);
                let rtt = t1 - t0;
                let offset = echo.sent_at - (t0 + t1) / 2.0;
                rec.observe(metrics::TRACE_PROBE_RTT_SECONDS, rtt);
                rec.trace_edge(TraceEdge {
                    kind: TraceEdgeKind::ClockSample,
                    trace_id: echo.trace_id,
                    eval_id: u64::MAX,
                    attempt: 0,
                    worker,
                    local_t: rtt,
                    remote_t: offset,
                });
            }
            Ok(Some(_)) => rec.counter(metrics::FRAMES_RECEIVED, 1),
            Ok(None) => {
                // Idle tick: heartbeat if due. Every idle heartbeat
                // doubles as a clock probe.
                if last_beat.elapsed() >= HEARTBEAT_EVERY {
                    last_beat = Instant::now();
                    probe_seq += 1;
                    let beat = Msg::Heartbeat {
                        worker,
                        ctx: Some(TraceCtx {
                            trace_id: probe_seq,
                            parent_span: 0,
                            sent_at: epoch.elapsed().as_secs_f64(),
                        }),
                    };
                    if conn.send(&beat).is_ok() {
                        report.heartbeats_sent += 1;
                        rec.counter(metrics::HEARTBEATS, 1);
                        rec.counter(metrics::TRACE_CTX_SENT, 1);
                    }
                    // A failed heartbeat write is caught by the next
                    // recv returning an error.
                }
            }
            // The master is gone: it finished, or it declared this worker
            // dead. Either way the run is over for us.
            Err(_) => return Ok(report),
        }
    }
}
