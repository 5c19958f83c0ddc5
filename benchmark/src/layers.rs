//! The traced pass: per-layer metrics, measured from the benchmark's side
//! of each layer's public functions (layer = crate).
//!
//! Three kinds of measurement, all recorded as spans under one root:
//! * the workload's own executor rerun with an `InMemoryRecorder` attached
//!   (against an untraced rerun: the difference *is* the tracing overhead);
//! * benchmark-owned stepped loops over the workload's problem — a copy of
//!   `run_serial`'s loop with a span per call — whose evaluated stream then
//!   feeds the archive replay and the codec timers;
//! * isolated-call timers on fixed inputs (socket round trip, protocol
//!   engine against a null transport, event heap, queueing model, …).
//!
//! Which end-to-end metric each of these should move, and on which
//! workload, is written down in README.md before anything is optimised.

use crate::affinity::on_one_cpu;
use crate::alloc::{allocations, count_allocations};
use crate::report::Values;
use crate::spans::{SpanId, SpanLog, NO_EVAL, ROOT};
use crate::stats;
use crate::workloads::{
    run_segment, run_wire, table2_config, virtual_config, CoreInput, ProblemId, SegmentOptions,
    SegmentOutcome, Workload, SERVE_WALL_GAUGE, TABLE2_CELLS, WIRE_WORKERS,
};
use borg_core::algorithm::{run_serial, BorgEngine};
use borg_core::archive::EpsilonArchive;
use borg_core::rng::SplitMix64;
use borg_core::solution::Solution;
use borg_desim::fault::FaultLog;
use borg_desim::EventQueue;
use borg_experiments::table2::run_table2;
use borg_models::dist::Dist;
use borg_models::distfit::{fit_all, Family};
use borg_models::perfsim::{simulate_async, PerfSimConfig, TimingModel};
use borg_net::codec::{self, Msg, TraceCtx};
use borg_net::{Conn, NetStream};
use borg_obs::{InMemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder};
use borg_parallel::threads::{estimate_comm_time, run_threaded, ThreadedConfig};
use borg_parallel::virtual_exec::run_virtual_async;
use borg_protocol::{Clock, EngineConfig, Event, MasterEngine, RecoveryPolicy, Transport};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Frames the codec timers run over: the workload's first real ones.
const CODEC_FRAMES: usize = 10_000;
/// Round trips per socket probe (p99 then has 200 samples beyond it).
const RTT_SAMPLES: usize = 20_000;
/// Events per protocol-engine drive.
const HANDLE_EVENTS: u64 = 200_000;
/// Fixed probe sizes (÷ 20 under `--smoke`).
const WIRE_PROBE_EVALS: u64 = 50_000;
const THREADS_PROBE_EVALS: u64 = 50_000;
const TABLE2_PROBE_EVALS_PER_CELL: u64 = 5_000;
const QUEUEING_EVALS: u64 = 100_000;
const DISTFIT_SAMPLES: usize = 100_000;
const MAP_JOBS_ITEMS: u64 = 4_096;
/// Per-call spans are written out for this many evaluations of each
/// stepped run (all of them are kept in memory and averaged).
const SPAN_FILE_EVALS: u64 = 2_000;

/// What the traced pass hands back.
pub struct TracedPass {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

/// A transport that does nothing and charges nothing: what remains of a
/// `MasterEngine::handle` call is the engine's own bookkeeping. It
/// remembers which evaluation each worker holds so a driver can deliver
/// results the engine will accept.
pub struct NullTransport {
    now: f64,
    /// Deadline offset handed back from `dispatch` (`INFINITY` = none).
    timeout: f64,
    holding: Vec<Option<u64>>,
}

impl NullTransport {
    pub fn new(workers: usize, timeout: f64) -> Self {
        NullTransport {
            now: 0.0,
            timeout,
            holding: vec![None; workers],
        }
    }
}

impl Clock for NullTransport {
    fn now(&self) -> f64 {
        self.now
    }
}

impl Transport for NullTransport {
    fn dispatch(&mut self, worker: usize, eval_id: u64, _: u32, _: u64, _: &mut FaultLog) -> f64 {
        self.holding[worker] = Some(eval_id);
        self.now + self.timeout
    }
    fn consume(&mut self, _worker: usize, _eval_id: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn absorb_duplicate(&mut self, _worker: usize, _eval_id: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        (self.now, self.now)
    }
    fn rearm_heartbeat(&mut self, _at: f64) {}
    fn abandon(&mut self, _eval_id: u64) {}
}

/// Drives `config` to its budget against a [`NullTransport`], delivering
/// each worker's held evaluation in worker order. Returns events handled.
pub fn drive_null_engine(config: EngineConfig, timeout: f64) -> u64 {
    let mut engine = MasterEngine::new(config);
    let mut t = NullTransport::new(config.workers, timeout);
    let rec = NoopRecorder;
    engine.seed(&mut t, &rec);
    let mut events = 0;
    while !engine.finished() {
        let before = events;
        for worker in 0..config.workers {
            let Some(eval_id) = t.holding[worker].take() else {
                continue;
            };
            t.now += 1e-6;
            let at = t.now;
            engine.handle(
                Event::ResultArrived {
                    worker,
                    eval_id,
                    at,
                },
                &mut t,
                &rec,
            );
            events += 1;
            if engine.finished() {
                break;
            }
        }
        assert!(events > before, "null-transport drive stalled");
    }
    events
}

/// Best (smallest) nanoseconds per operation over repeated batches of
/// `ops` operations each, for about `budget` and at least three batches.
fn best_ns_per_op(budget: Duration, ops: u64, mut batch: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut batches = 0;
    while batches < 3 || started.elapsed() < budget {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
        batches += 1;
    }
    best
}

fn seconds_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// How many times slower `recorded` ran than `plain`. Both cut their timed
/// region into the same windows wherever the workload has them, and the
/// median of the per-window ratios shrugs off a noise burst that hits a few
/// windows of either run; the sweep has no windows and compares whole runs.
fn slowdown(plain: &SegmentOutcome, recorded: &SegmentOutcome) -> f64 {
    let (p, r) = (&plain.windows_ns, &recorded.windows_ns);
    if p.is_empty() || p.len() != r.len() {
        return recorded.timed_s / plain.timed_s;
    }
    let ratios: Vec<f64> = p
        .iter()
        .zip(r)
        .map(|(&p, &r)| r as f64 / p.max(1) as f64)
        .collect();
    stats::median(&ratios)
}

/// One evaluated candidate of a stepped run.
struct Evaluated {
    variables: Vec<f64>,
    objectives: Vec<f64>,
    constraints: Vec<f64>,
    operator: Option<usize>,
}

/// A benchmark-owned copy of `run_serial`'s loop with a span per call.
struct SteppedRun {
    stream: Vec<Evaluated>,
    engine: BorgEngine,
}

fn stepped_run(input: CoreInput, seed: u64, log: &mut SpanLog, parent: SpanId) -> SteppedRun {
    let problem = input.problem.build();
    let n = input.evaluations;
    let mut engine = BorgEngine::new(problem.as_ref(), input.borg(), seed);
    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];
    let mut stream = Vec::with_capacity(n as usize);
    log.reserve(3 * n as usize);
    while engine.nfe() < n {
        let eval = engine.nfe();
        let s = log.begin("core.produce", parent, eval);
        let cand = engine.produce();
        log.end(s);
        let s = log.begin("problems.evaluate", parent, eval);
        problem.evaluate(&cand.variables, &mut objs, &mut cons);
        log.end(s);
        stream.push(Evaluated {
            variables: cand.variables.clone(),
            objectives: objs.clone(),
            constraints: cons.clone(),
            operator: cand.operator,
        });
        let s = log.begin("core.consume", parent, eval);
        let sol = engine.make_solution_recycled(cand, &objs, &cons);
        engine.consume(sol);
        log.end(s);
    }
    SteppedRun { stream, engine }
}

/// Best ns per `evaluate` call over the recorded candidates, in a tight
/// loop.
fn evaluate_loop_ns(problem: ProblemId, stream: &[Evaluated], budget: Duration) -> f64 {
    let problem = problem.build();
    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];
    best_ns_per_op(budget, stream.len() as u64, || {
        for e in stream {
            problem.evaluate(black_box(&e.variables), &mut objs, &mut cons);
            black_box(&objs);
        }
    })
}

/// Mean µs of the `name` spans under `parent` whose evaluation id is
/// below `evals`.
fn mean_span_us(log: &SpanLog, name: &str, parent: SpanId, evals: u64) -> f64 {
    let (sum, count) = log
        .spans()
        .iter()
        .filter(|s| s.parent == parent && s.name == name && s.eval < evals)
        .fold((0u64, 0u64), |(sum, n), s| {
            (sum + (s.end_ns - s.start_ns), n + 1)
        });
    sum as f64 / count.max(1) as f64 / 1e3
}

/// Codec timings over the Work/Outcome frames that would carry `stream`.
struct CodecTimes {
    encode_work_ns: f64,
    decode_work_ns: f64,
    encode_outcome_ns: f64,
    decode_outcome_ns: f64,
    frame_bytes_work: f64,
    frame_bytes_outcome: f64,
    allocs_per_frame: f64,
}

fn wire_messages(stream: &[Evaluated]) -> (Vec<Msg>, Vec<Msg>) {
    let ctx = |eval_id: u64, role: u8| {
        Some(TraceCtx {
            trace_id: eval_id,
            parent_span: codec::span_id(eval_id, 0, role),
            sent_at: eval_id as f64 * 1e-5,
        })
    };
    stream
        .iter()
        .take(CODEC_FRAMES)
        .enumerate()
        .map(|(i, e)| {
            let eval_id = i as u64;
            (
                Msg::Work {
                    eval_id,
                    attempt: 0,
                    seq: eval_id / WIRE_WORKERS as u64,
                    variables: e.variables.clone(),
                    ctx: ctx(eval_id, 0),
                },
                Msg::Outcome {
                    worker: eval_id % WIRE_WORKERS as u64,
                    eval_id,
                    attempt: 0,
                    objectives: e.objectives.clone(),
                    constraints: e.constraints.clone(),
                    ctx: ctx(eval_id, 2),
                },
            )
        })
        .unzip()
}

fn codec_times(stream: &[Evaluated], budget: Duration) -> CodecTimes {
    let (work, outcome) = wire_messages(stream);
    let frames = |msgs: &[Msg]| msgs.iter().map(codec::encode).collect::<Vec<_>>();
    let (work_frames, outcome_frames) = (frames(&work), frames(&outcome));
    let n = work.len() as u64;
    let encode = |msgs: &[Msg]| {
        best_ns_per_op(budget, n, || {
            for m in msgs {
                black_box(codec::encode(black_box(m)));
            }
        })
    };
    let decode = |frames: &[Vec<u8>]| {
        best_ns_per_op(budget, n, || {
            for f in frames {
                black_box(codec::decode_complete(black_box(f)).expect("own frame decodes"));
            }
        })
    };
    count_allocations(true);
    let before = allocations();
    for (m, f) in work
        .iter()
        .zip(&work_frames)
        .chain(outcome.iter().zip(&outcome_frames))
    {
        black_box(codec::encode(m));
        black_box(codec::decode_complete(f).expect("own frame decodes"));
    }
    let allocs = allocations() - before;
    count_allocations(false);
    CodecTimes {
        encode_work_ns: encode(&work),
        decode_work_ns: decode(&work_frames),
        encode_outcome_ns: encode(&outcome),
        decode_outcome_ns: decode(&outcome_frames),
        frame_bytes_work: work_frames[0].len() as f64,
        frame_bytes_outcome: outcome_frames[0].len() as f64,
        allocs_per_frame: allocs as f64 / (2 * n) as f64,
    }
}

/// `Conn::send`/`recv` ping-pong of one Work/Outcome pair between two
/// threads: the `2·T_C` floor of one master interaction. Returns the
/// sorted round-trip times in µs.
fn socket_rtt_us(
    a: NetStream,
    b: NetStream,
    work: &Msg,
    outcome: &Msg,
) -> Result<Vec<f64>, String> {
    for s in [&a, &b] {
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| e.to_string())?;
    }
    let (mut near, mut far) = (Conn::new(a), Conn::new(b));
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            loop {
                match far.recv().map_err(|e| e.to_string())? {
                    Some(Msg::Work { .. }) => {
                        far.send(outcome).map_err(|e| e.to_string())?;
                    }
                    Some(Msg::Shutdown) => return Ok(()),
                    Some(other) => return Err(format!("echo side got {other:?}")),
                    None => return Err("echo side timed out".to_string()),
                }
            }
        });
        let ping = |near: &mut Conn| -> Result<f64, String> {
            let t = Instant::now();
            near.send(work).map_err(|e| e.to_string())?;
            match near.recv().map_err(|e| e.to_string())? {
                Some(Msg::Outcome { .. }) => Ok(t.elapsed().as_nanos() as f64 / 1e3),
                other => Err(format!("ping side got {other:?}")),
            }
        };
        let measured = (|| {
            for _ in 0..200 {
                ping(&mut near)?; // warm-up
            }
            (0..RTT_SAMPLES)
                .map(|_| ping(&mut near))
                .collect::<Result<Vec<_>, _>>()
        })();
        // Always release the echo thread before joining it.
        let _ = near.send(&Msg::Shutdown);
        near.stream().shutdown();
        let echoed = echo
            .join()
            .map_err(|_| "echo thread panicked".to_string())?;
        let samples = measured?;
        echoed?;
        Ok(stats::sorted(&samples))
    })
}

fn uds_pair() -> Result<(NetStream, NetStream), String> {
    let (a, b) = std::os::unix::net::UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
    Ok((NetStream::Unix(a), NetStream::Unix(b)))
}

fn tcp_pair() -> Result<(NetStream, NetStream), String> {
    use std::net::{TcpListener, TcpStream};
    let err = |e: std::io::Error| format!("tcp loopback: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let a = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
    let (b, _) = listener.accept().map_err(err)?;
    Ok((NetStream::Tcp(a), NetStream::Tcp(b)))
}

fn histogram_us(snapshot: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snapshot
        .histograms
        .get(name)
        .map_or(0.0, |h| h.quantile(q) * 1e6)
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

/// State shared by the probes of one traced pass. Every probe runs under
/// a span of its own below `root` and files its metrics in `v`.
struct Pass<'a> {
    workload: Workload,
    seed: u64,
    smoke: bool,
    /// What each isolated-call timer may spend.
    slice: Duration,
    out_dir: &'a Path,
    log: SpanLog,
    root: SpanId,
    v: Values,
    attempted: u64,
    failed: u64,
    check_failures: Vec<String>,
}

/// What the core probes leave behind for the probes that reuse them.
struct CoreProbe {
    input: CoreInput,
    /// Parent of the per-call `core.produce` / `core.consume` spans.
    stepped_span: SpanId,
    stream: Vec<Evaluated>,
    evaluate_ns: f64,
}

/// Runs the traced pass for `workload`.
pub fn traced_pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<TracedPass, String> {
    let mut log = SpanLog::new();
    let root = log.begin("traced-pass", ROOT, NO_EVAL);
    let mut pass = Pass {
        workload,
        seed,
        smoke,
        slice: Duration::from_secs_f64(seconds / 80.0),
        out_dir,
        log,
        root,
        v: Values::default(),
        attempted: 0,
        failed: 0,
        check_failures: Vec::new(),
    };
    let (plain, recorded) = pass.rerun_workload();
    let mut input = workload.core_input();
    input.evaluations = pass.scale(input.evaluations);
    let core = pass.core(input);
    let codec = pass.codec(&core.stream);
    pass.sockets(&core.stream)?;
    // The two probes below subtract core costs from a whole, so they need a
    // core whose cost does not depend on the trajectory: DTLZ2-2 with its
    // 11-member archive. Measured again when the workload's own problem is
    // another.
    let (flat_core, flat_codec) = if core.input.problem == ProblemId::Dtlz2_2 {
        (core, codec)
    } else {
        pass.flat_core()
    };
    pass.virtual_executor(&flat_core);
    let saturated_rate = pass.saturated_wire(plain, recorded)?;
    let handle_w2_ns = pass.protocol();
    pass.desim();
    pass.threads()?;
    pass.models();
    pass.sweep();
    pass.runner();
    pass.obs();
    pass.budget(&flat_core, &flat_codec, saturated_rate, handle_w2_ns);

    pass.log.end(root);
    write_trace(&pass.log, root, &pass.v, workload, out_dir)?;
    Ok(TracedPass {
        values: pass.v,
        attempted: pass.attempted,
        failed: pass.failed,
        check_failures: pass.check_failures,
    })
}

impl Pass<'_> {
    /// `--smoke` divides every probe's N by 20, as it does the workloads'.
    fn scale(&self, n: u64) -> u64 {
        if self.smoke {
            (n / 20).max(1)
        } else {
            n
        }
    }

    /// obs: the workload's own executor, untraced against recorder-attached.
    fn rerun_workload(&mut self) -> (SegmentOutcome, SegmentOutcome) {
        let (workload, seed, smoke, out_dir) = (self.workload, self.seed, self.smoke, self.out_dir);
        let segment = |recorded| {
            run_segment(
                workload,
                &SegmentOptions {
                    seed,
                    smoke,
                    recorded,
                    out_dir,
                },
            )
        };
        let plain = self
            .log
            .scope("segment.untraced", self.root, || segment(false));
        let recorded = self
            .log
            .scope("segment.recorded", self.root, || segment(true));
        for outcome in [&plain, &recorded] {
            self.attempted += outcome.attempted;
            self.failed += outcome.failed;
            self.check_failures
                .extend(outcome.check_failures.iter().cloned());
        }
        self.v.set(
            "obs.recorder_overhead_pct",
            (slowdown(&plain, &recorded) - 1.0) * 100.0,
        );
        (plain, recorded)
    }

    /// core / problems / metrics: the workload's problem, stepped by hand,
    /// then run again through `run_serial` with the engine's own profile.
    fn core(&mut self, input: CoreInput) -> CoreProbe {
        let (seed, slice, root, n) = (self.seed, self.slice, self.root, input.evaluations);
        let stepped_span = self.log.begin("core.stepped_run", root, NO_EVAL);
        let stepped = stepped_run(input, seed, &mut self.log, stepped_span);
        self.log.end(stepped_span);
        for (metric, span) in [
            ("core.produce_us", "core.produce"),
            ("core.consume_us", "core.consume"),
        ] {
            self.v
                .set(metric, mean_span_us(&self.log, span, stepped_span, n));
        }

        // Allocations are counted once the population has filled, and only
        // while this thread is the only one running.
        let problem = input.problem.build();
        let warm = n / 10;
        let (mut allocs_at_warm, mut borg) = (0, input.borg());
        borg.profile_ta = true;
        count_allocations(true);
        let profiled = self.log.scope("core.profiled_run", root, || {
            run_serial(problem.as_ref(), borg, seed, n, |e| {
                if e.nfe() == warm {
                    allocs_at_warm = allocations();
                }
            })
        });
        let allocs = allocations() - allocs_at_warm;
        count_allocations(false);
        let ta = profiled.ta_profile();
        for (metric, seconds) in [
            ("core.ta_selection_us", ta.selection),
            ("core.ta_variation_us", ta.variation),
            ("core.ta_archive_us", ta.archive),
            ("core.ta_population_us", ta.population),
            ("core.ta_adaptation_us", ta.adaptation),
            ("core.ta_restarts_us", ta.restarts),
        ] {
            self.v.set(metric, seconds * 1e6 / n as f64);
        }
        let (hits, misses) = profiled.arena_stats();
        let v = &mut self.v;
        v.set("core.archive_len", profiled.archive().len() as f64);
        v.set("core.restarts", profiled.stats().restarts as f64);
        v.set(
            "core.arena_reuse_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        v.set(
            "core.allocs_per_eval",
            allocs as f64 / (n - warm).max(1) as f64,
        );
        if stepped.engine.archive().objective_rows().as_slice()
            != profiled.archive().objective_rows().as_slice()
        {
            self.check_failures
                .push("stepped loop and run_serial disagree on the final archive".to_string());
        }

        // Replay the evaluated stream into a fresh archive.
        let solutions: Vec<Solution> = stepped
            .stream
            .iter()
            .map(|e| {
                let mut s = Solution::from_parts(
                    e.variables.clone(),
                    e.objectives.clone(),
                    e.constraints.clone(),
                );
                s.operator = e.operator;
                s
            })
            .collect();
        let mut archive = EpsilonArchive::new(input.borg().epsilons);
        let (_, add_s) = self.log.scope("core.archive_replay", root, || {
            seconds_of(|| {
                for s in solutions {
                    black_box(archive.add(s));
                }
            })
        });
        self.v.set("core.archive_add_us", add_s * 1e6 / n as f64);
        self.v.set(
            "core.box_probes_per_add",
            archive.box_probes() as f64 / n as f64,
        );

        let evaluate_ns = self.log.scope("problems.evaluate_loop", root, || {
            evaluate_loop_ns(input.problem, &stepped.stream, slice)
        });
        self.v.set("problems.evaluate_ns", evaluate_ns);

        let (_, hv_s) = self.log.scope("metrics.hv", root, || {
            seconds_of(|| {
                let hv = input.problem.hypervolume();
                black_box(hv.ratio_rows(profiled.archive().objective_rows().iter_rows()))
            })
        });
        self.v.set("metrics.hv_ms", hv_s * 1e3);
        CoreProbe {
            input,
            stepped_span,
            stream: stepped.stream,
            evaluate_ns,
        }
    }

    /// The `wire-saturated` input stepped by hand: its stream, its per-call
    /// spans, its evaluate loop and its codec timings, for the workloads
    /// whose own problem is not DTLZ2-2.
    fn flat_core(&mut self) -> (CoreProbe, CodecTimes) {
        let (seed, slice, root) = (self.seed, self.slice, self.root);
        let mut input = Workload::WireSaturated.core_input();
        input.evaluations = self.scale(input.evaluations);
        let stepped_span = self.log.begin("flat.stepped_run", root, NO_EVAL);
        let stepped = stepped_run(input, seed, &mut self.log, stepped_span);
        self.log.end(stepped_span);
        let evaluate_ns = self.log.scope("flat.evaluate_loop", root, || {
            evaluate_loop_ns(input.problem, &stepped.stream, slice)
        });
        let codec = self
            .log
            .scope("flat.codec", root, || codec_times(&stepped.stream, slice));
        let probe = CoreProbe {
            input,
            stepped_span,
            stream: stepped.stream,
            evaluate_ns,
        };
        (probe, codec)
    }

    /// parallel: the virtual executor's self time — `run_virtual_async`
    /// wall per evaluation minus the core and problem time of the same
    /// evaluations stepped serially.
    fn virtual_executor(&mut self, core: &CoreProbe) {
        let (input, seed) = (core.input, self.seed);
        let n = input.evaluations;
        let (_, virtual_s) = self.log.scope("parallel.virtual_run", self.root, || {
            seconds_of(|| {
                let problem = input.problem.build();
                let cfg = virtual_config(n, seed);
                run_virtual_async(
                    problem.as_ref(),
                    input.borg(),
                    &cfg,
                    &NoopRecorder,
                    |_, _| {},
                )
            })
        });
        let inner_us = mean_span_us(&self.log, "core.produce", core.stepped_span, n)
            + mean_span_us(&self.log, "core.consume", core.stepped_span, n)
            + core.evaluate_ns / 1e3;
        self.v.set(
            "parallel.virtual_overhead_us",
            virtual_s * 1e6 / n as f64 - inner_us,
        );
    }

    /// net codec, on the workload's first real frames.
    fn codec(&mut self, stream: &[Evaluated]) -> CodecTimes {
        let slice = self.slice;
        let codec = self
            .log
            .scope("net.codec", self.root, || codec_times(stream, slice));
        let v = &mut self.v;
        v.set("net.encode_work_ns", codec.encode_work_ns);
        v.set("net.decode_work_ns", codec.decode_work_ns);
        v.set("net.encode_outcome_ns", codec.encode_outcome_ns);
        v.set("net.decode_outcome_ns", codec.decode_outcome_ns);
        v.set("net.frame_bytes_work", codec.frame_bytes_work);
        v.set("net.frame_bytes_outcome", codec.frame_bytes_outcome);
        v.set("net.allocs_per_frame", codec.allocs_per_frame);
        v.set(
            "net.bytes_per_eval",
            codec.frame_bytes_work + codec.frame_bytes_outcome,
        );
        codec
    }

    /// net sockets: the 2·T_C floor, one Work/Outcome pair ping-ponged.
    fn sockets(&mut self, stream: &[Evaluated]) -> Result<(), String> {
        let (work, outcome) = wire_messages(&stream[..1]);
        // Both ends on one CPU, placed as the wire segments are.
        let probe = |pair: fn() -> Result<(NetStream, NetStream), String>| {
            on_one_cpu(|| pair().and_then(|(a, b)| socket_rtt_us(a, b, &work[0], &outcome[0])))
        };
        let uds = self
            .log
            .scope("net.uds_rtt", self.root, || probe(uds_pair))?;
        if stats::highest_supported_percentile(uds.len()).is_none_or(|q| q < 0.99) {
            return Err(format!(
                "{} round trips are too few to quote a p99",
                uds.len()
            ));
        }
        self.v
            .set("net.uds_rtt_us.p50", stats::percentile(&uds, 0.5));
        self.v
            .set("net.uds_rtt_us.p99", stats::percentile(&uds, 0.99));
        let tcp = self
            .log
            .scope("net.tcp_rtt", self.root, || probe(tcp_pair))?;
        self.v
            .set("net.tcp_rtt_us.p50", stats::percentile(&tcp, 0.5));
        Ok(())
    }

    /// The saturated wire run every budget line refers to: the workload's
    /// own two reruns when it *is* `wire-saturated`, a shorter run of that
    /// input otherwise. Files what the recorder-attached run recorded and
    /// returns the untraced run's evaluations/s.
    fn saturated_wire(
        &mut self,
        plain: SegmentOutcome,
        recorded: SegmentOutcome,
    ) -> Result<f64, String> {
        let (plain, recorded) = if self.workload == Workload::WireSaturated {
            (plain, recorded)
        } else {
            let (n, seed, out_dir) = (self.scale(WIRE_PROBE_EVALS), self.seed, self.out_dir);
            let probe = |recorded| {
                let rec = InMemoryRecorder::metrics_only();
                let p = ProblemId::Dtlz2_2;
                // Placed as the workload's own segments are: on one CPU.
                let run = on_one_cpu(|| {
                    if recorded {
                        run_wire(p, Duration::ZERO, n, seed, out_dir, &rec)
                    } else {
                        run_wire(p, Duration::ZERO, n, seed, out_dir, &NoopRecorder)
                    }
                });
                let run = run.map_err(|e| format!("wire-saturated probe: {e}"))?;
                let mut snapshot = rec.snapshot();
                snapshot.gauges.insert(SERVE_WALL_GAUGE, run.serve_wall_s);
                Ok::<_, String>(SegmentOutcome {
                    attempted: n,
                    timed_s: run.report.elapsed,
                    snapshot: Some(snapshot),
                    ..SegmentOutcome::default()
                })
            };
            (
                self.log
                    .scope("net.wire_saturated.untraced", self.root, || probe(false))?,
                self.log
                    .scope("net.wire_saturated.recorded", self.root, || probe(true))?,
            )
        };
        let snapshot = recorded.snapshot.unwrap_or_default();
        let serve_wall = snapshot
            .gauges
            .get(SERVE_WALL_GAUGE)
            .copied()
            .unwrap_or(recorded.timed_s);
        let frames = counter(&snapshot, borg_net::metrics::FRAMES_SENT)
            + counter(&snapshot, borg_net::metrics::FRAMES_RECEIVED);
        let rtt = borg_net::metrics::RTT_SECONDS;
        let v = &mut self.v;
        v.set("net.register_ms", (serve_wall - recorded.timed_s) * 1e3);
        v.set("net.rtt_us.p50", histogram_us(&snapshot, rtt, 0.5));
        v.set("net.rtt_us.p99", histogram_us(&snapshot, rtt, 0.99));
        v.set("net.frames_per_eval", frames / recorded.attempted as f64);
        v.set(
            "engine.consume_us.p50",
            histogram_us(&snapshot, "engine.consume_seconds", 0.5),
        );
        v.set(
            "engine.dispatch_latency_us.p50",
            histogram_us(&snapshot, "engine.dispatch_latency_seconds", 0.5),
        );
        Ok(plain.evals_per_s())
    }

    /// protocol: `MasterEngine::handle` per event against a null
    /// transport. Returns the 2-worker figure for the budget.
    fn protocol(&mut self) -> f64 {
        let slice = self.slice;
        let quiet = RecoveryPolicy::from_expected_eval_time(0.01, 4.0);
        let handle = |config: EngineConfig, timeout: f64| {
            best_ns_per_op(slice, HANDLE_EVENTS, || {
                black_box(drive_null_engine(black_box(config), timeout));
            })
        };
        let (w2, w1023, tolerant) = self.log.scope("protocol.handle", self.root, || {
            (
                handle(
                    EngineConfig::shared_pool_async(2, HANDLE_EVENTS, RecoveryPolicy::disabled()),
                    f64::INFINITY,
                ),
                handle(
                    EngineConfig::fault_free_async(1023, HANDLE_EVENTS),
                    f64::INFINITY,
                ),
                handle(
                    EngineConfig::fault_tolerant_async(1023, HANDLE_EVENTS, quiet),
                    quiet.timeout,
                ),
            )
        });
        self.v.set("protocol.handle_ns.w2", w2);
        self.v.set("protocol.handle_ns.w1023", w1023);
        self.v
            .set("protocol.recovery_quiet_ratio", tolerant / w1023);
        w2
    }

    /// desim: `schedule_in` + `pop` with 1023 events pending.
    fn desim(&mut self) {
        let (slice, seed) = (self.slice, self.seed);
        let queue_ns = self.log.scope("desim.queue", self.root, || {
            let mut queue: EventQueue<u32> = EventQueue::new();
            let mut lcg = seed | 1;
            let mut delay = || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0.009 + (lcg >> 40) as f64 * 1e-10
            };
            for i in 0..1023 {
                queue.schedule_in(delay(), i);
            }
            best_ns_per_op(slice, 1_000_000, || {
                for _ in 0..1_000_000 {
                    let (_, event) = queue.pop().expect("queue holds 1023 events");
                    queue.schedule_in(delay(), event);
                }
            })
        });
        self.v.set("desim.queue_ns_per_event", queue_ns);
    }

    /// parallel: the threads executor on the `wire-saturated` input. Not a
    /// workload: bimodal with thread placement (README, anomalies).
    fn threads(&mut self) -> Result<(), String> {
        let (n, seed) = (self.scale(THREADS_PROBE_EVALS), self.seed);
        let threaded = self
            .log
            .scope("parallel.threads", self.root, || {
                let input = Workload::WireSaturated.core_input();
                let cfg = ThreadedConfig::new(WIRE_WORKERS, n, None, seed);
                run_threaded(input.problem.build().as_ref(), input.borg(), &cfg)
            })
            .map_err(|e| format!("threads probe: {e:?}"))?;
        self.v
            .set("parallel.threads_evals_per_s", n as f64 / threaded.elapsed);
        let tc = self
            .log
            .scope("parallel.threads_tc", self.root, || {
                estimate_comm_time(2_000)
            })
            .map_err(|e| format!("comm-time probe: {e:?}"))?;
        self.v.set("parallel.threads_tc_us", tc * 1e6);
        Ok(())
    }

    /// models: the queueing simulation and the distribution fits.
    fn models(&mut self) {
        let (slice, seed, n) = (self.slice, self.seed, self.scale(QUEUEING_EVALS));
        let queueing_ns = self.log.scope("models.queueing", self.root, || {
            let config = PerfSimConfig {
                processors: 1024,
                evaluations: n,
                timing: TimingModel::controlled_delay(0.01, 0.1, 0.000_006, 0.000_03),
                seed,
            };
            best_ns_per_op(slice, n, || {
                black_box(simulate_async(black_box(&config)));
            })
        });
        self.v.set("models.queueing_ns_per_eval", queueing_ns);
        let (_, distfit_s) = self.log.scope("models.distfit", self.root, || {
            let mut rng = SplitMix64::new(seed).derive("benchmark-distfit");
            let t_f = Dist::normal_cv(0.01, 0.1);
            let samples: Vec<f64> = (0..DISTFIT_SAMPLES).map(|_| t_f.sample(&mut rng)).collect();
            seconds_of(|| black_box(fit_all(&samples, &Family::all())))
        });
        self.v.set("models.distfit_ms", distfit_s * 1e3);
    }

    /// runner / experiments / models: a quarter-size Table II sweep, serial
    /// against two sweep threads.
    fn sweep(&mut self) {
        let (per_cell, seed) = (self.scale(TABLE2_PROBE_EVALS_PER_CELL), self.seed);
        let sweep = |jobs| seconds_of(|| run_table2(&table2_config(per_cell, seed, jobs)));
        let (rows, serial_s) = self
            .log
            .scope("experiments.sweep.jobs1", self.root, || sweep(1));
        let (_, jobs2_s) = self
            .log
            .scope("experiments.sweep.jobs2", self.root, || sweep(2));
        let worst = |f: fn(&borg_experiments::table2::Table2Row) -> f64| {
            rows.iter().map(f).fold(0.0, f64::max)
        };
        let v = &mut self.v;
        v.set("runner.jobs2_speedup", serial_s / jobs2_s);
        v.set("experiments.cell_ms", serial_s * 1e3 / TABLE2_CELLS as f64);
        v.set("models.sim_err_max", worst(|r| r.simulation_error));
        v.set("models.ana_err_max", worst(|r| r.analytical_error));
    }

    /// runner: what `map_jobs` adds per trivial job on two workers.
    fn runner(&mut self) {
        let slice = self.slice;
        let map_jobs_us = self.log.scope("runner.map_jobs", self.root, || {
            let time = |workers| {
                best_ns_per_op(slice, MAP_JOBS_ITEMS, || {
                    let items: Vec<u64> = (0..MAP_JOBS_ITEMS).collect();
                    black_box(borg_runner::map_jobs(workers, items, |_, x| {
                        x.wrapping_mul(31)
                    }))
                    .expect("trivial jobs do not panic");
                })
            };
            (time(2) - time(1)) / 1e3
        });
        self.v.set("runner.map_jobs_overhead_us", map_jobs_us);
    }

    /// obs: one counter bump, one histogram observation.
    fn obs(&mut self) {
        let slice = self.slice;
        let (counter_ns, observe_ns) = self.log.scope("obs.recorder_calls", self.root, || {
            let rec = InMemoryRecorder::metrics_only();
            (
                best_ns_per_op(slice, 1_000_000, || {
                    for _ in 0..1_000_000 {
                        rec.counter("benchmark.probe", 1);
                    }
                }),
                best_ns_per_op(slice, 1_000_000, || {
                    for i in 0..1_000_000u32 {
                        rec.observe("benchmark.probe_seconds", 1e-6 * f64::from(i & 1023));
                    }
                }),
            )
        });
        self.v.set("obs.counter_ns", counter_ns);
        self.v.set("obs.observe_ns", observe_ns);
    }

    /// budget: do the parts of one saturated master interaction sum to the
    /// whole? Every term is the DTLZ2-2 one.
    fn budget(&mut self, core: &CoreProbe, codec: &CodecTimes, saturated_rate: f64, w2_ns: f64) {
        let n = core.input.evaluations;
        let core_us = mean_span_us(&self.log, "core.produce", core.stepped_span, n)
            + mean_span_us(&self.log, "core.consume", core.stepped_span, n);
        let codec_us = (codec.encode_work_ns
            + codec.decode_work_ns
            + codec.encode_outcome_ns
            + codec.decode_outcome_ns)
            / 1e3;
        let rtt_us = self.v.get("net.uds_rtt_us.p50").unwrap_or(0.0);
        let master_us = 1e6 / saturated_rate;
        let explained_us = core_us + w2_ns / 1e3 + codec_us + rtt_us;
        let v = &mut self.v;
        v.set("budget.master_us_per_eval", master_us);
        v.set("budget.explained_us", explained_us);
        v.set(
            "budget.unexplained_share",
            (master_us - explained_us) / master_us,
        );
    }
}

/// Writes the spans and a per-probe self-time table under `out_dir`.
fn write_trace(
    log: &SpanLog,
    root: SpanId,
    values: &Values,
    workload: Workload,
    out_dir: &Path,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let spans_path = out_dir.join(format!("trace-{}.spans.jsonl", workload.name()));
    log.write_jsonl(&spans_path, SPAN_FILE_EVALS)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# traced pass of {}: probes under the root span",
        workload.name()
    );
    let _ = writeln!(
        table,
        "# {} spans recorded; the spans file keeps every probe span and the per-call spans of evaluations 0..{SPAN_FILE_EVALS}",
        log.spans().len()
    );
    let _ = writeln!(table, "{:<34} {:>12} {:>12}", "span", "total_ms", "self_ms");
    for (id, s) in log.spans().iter().enumerate() {
        if s.parent == root || id as SpanId == root {
            let _ = writeln!(
                table,
                "{:<34} {:>12.3} {:>12.3}",
                s.name,
                (s.end_ns - s.start_ns) as f64 / 1e6,
                log.self_time_ns(id as SpanId) as f64 / 1e6
            );
        }
    }
    let _ = writeln!(table, "\n# per-layer metrics");
    for def in crate::report::PER_LAYER {
        if let Some(value) = values.get(def.name) {
            let _ = writeln!(table, "{}", crate::report::table_row(def, value, ""));
        }
    }
    let table_path = out_dir.join(format!("trace-{}.layers.txt", workload.name()));
    std::fs::write(&table_path, table).map_err(|e| format!("{}: {e}", table_path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_transport_drives_every_engine_shape_to_its_budget() {
        let quiet = RecoveryPolicy::from_expected_eval_time(0.01, 4.0);
        for (config, timeout) in [
            (
                EngineConfig::shared_pool_async(2, 1_000, RecoveryPolicy::disabled()),
                f64::INFINITY,
            ),
            (EngineConfig::fault_free_async(1023, 5_000), f64::INFINITY),
            (
                EngineConfig::fault_tolerant_async(1023, 5_000, quiet),
                quiet.timeout,
            ),
            (EngineConfig::fault_free_async(1, 10), f64::INFINITY),
        ] {
            // One event per consumed result, none wasted: the transport
            // delivers exactly what it was handed.
            assert_eq!(drive_null_engine(config, timeout), config.budget);
        }
    }

    #[test]
    fn null_transport_remembers_the_dispatched_evaluation() {
        let mut t = NullTransport::new(3, 0.5);
        let mut log = FaultLog::default();
        assert_eq!(t.dispatch(1, 42, 0, 0, &mut log), 0.5);
        assert_eq!(t.holding, [None, Some(42), None]);
        assert_eq!(t.consume(1, 42, 0.25), 0.25);
        assert_eq!(t.ping(0), (0.0, 0.0));
    }

    #[test]
    fn slowdown_is_the_median_window_ratio_or_the_whole_run_ratio() {
        let run = |timed_s: f64, windows_ns: &[u64]| SegmentOutcome {
            timed_s,
            windows_ns: windows_ns.to_vec(),
            ..SegmentOutcome::default()
        };
        // One window of the recorded run caught a burst; the median ignores it.
        let plain = run(0.3, &[100, 100, 100]);
        let recorded = run(1.12, &[110, 900, 110]);
        assert!((slowdown(&plain, &recorded) - 1.1).abs() < 1e-12);
        // No windows (the sweep): whole runs.
        assert_eq!(slowdown(&run(2.0, &[]), &run(3.0, &[])), 1.5);
        assert_eq!(slowdown(&run(2.0, &[1, 2]), &run(3.0, &[1])), 1.5);
    }

    #[test]
    fn best_ns_per_op_runs_at_least_three_batches() {
        let mut batches = 0;
        let ns = best_ns_per_op(Duration::ZERO, 10, || batches += 1);
        assert_eq!(batches, 3);
        assert!(ns >= 0.0);
    }

    #[test]
    fn stepped_loop_reproduces_run_serial_and_spans_every_call() {
        let input = CoreInput {
            evaluations: 600,
            ..Workload::WireSaturated.core_input()
        };
        let mut log = SpanLog::new();
        let parent = log.begin("run", ROOT, NO_EVAL);
        let stepped = stepped_run(input, 7, &mut log, parent);
        log.end(parent);
        let problem = input.problem.build();
        let reference = run_serial(problem.as_ref(), input.borg(), 7, 600, |_| {});
        assert_eq!(
            stepped.engine.archive().objective_vectors(),
            reference.archive().objective_vectors()
        );
        assert_eq!(stepped.stream.len(), 600);
        assert_eq!(log.spans().len(), 1 + 3 * 600);
        assert!(mean_span_us(&log, "core.consume", parent, 600) > 0.0);
        assert_eq!(mean_span_us(&log, "core.consume", parent, 0), 0.0);
    }

    #[test]
    fn socket_probe_round_trips_over_a_unix_pair() {
        let stream = [Evaluated {
            variables: vec![0.5; 11],
            objectives: vec![1.0, 2.0],
            constraints: vec![],
            operator: None,
        }];
        let (work, outcome) = wire_messages(&stream);
        let (a, b) = uds_pair().unwrap();
        let rtt = socket_rtt_us(a, b, &work[0], &outcome[0]).unwrap();
        assert_eq!(rtt.len(), RTT_SAMPLES);
        assert!(rtt[0] > 0.0 && rtt.windows(2).all(|w| w[0] <= w[1]));
    }
}
