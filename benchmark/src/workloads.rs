//! The five workloads: their fixed inputs, the one timed call each makes
//! into the program under test, and the output checks every segment runs.
//!
//! N (and everything else about an input) is a constant of the benchmark,
//! identical on every commit; only the seed is an argument, and the program
//! under test receives nothing but the inputs generated from it.

use crate::affinity::on_one_cpu;
use borg_core::algorithm::{run_serial, BorgConfig, BorgEngine};
use borg_core::problem::Problem;
use borg_experiments::suite::PaperProblem;
use borg_experiments::table2::{run_table2, run_table2_with, Table2Config, Table2Row};
use borg_metrics::relative::RelativeHypervolume;
use borg_models::analytical::{serial_time, TimingParams};
use borg_models::dist::Dist;
use borg_net::serve::{serve, ServeConfig, ServeReport};
use borg_net::worker::{run_worker, WorkerOptions, WorkerReport};
use borg_net::{NetAddr, NetError};
use borg_obs::{
    Activity, Actor, InMemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder, TraceEdge,
};
use borg_parallel::virtual_exec::{run_virtual_async, TaMode, VirtualConfig, VirtualRunResult};
use borg_problems::dtlz::{Dtlz, DtlzVariant};
use borg_problems::refsets::{dtlz2_front, uf11_front};
use std::path::Path;
use std::time::{Duration, Instant};

/// Archive ε of the four single-run workloads (uniform across objectives).
pub const EPSILON: f64 = 0.06;
/// Worker connections of the wire workloads: closed loop, each worker
/// waits for its next work item. Matches this host's `nproc`.
pub const WIRE_WORKERS: usize = 2;
/// Injected evaluation time of `wire-delay-1ms`.
pub const WIRE_DELAY: Duration = Duration::from_millis(1);
/// Timing inputs of `virtual-p1024` (the paper's controlled-delay shape).
pub const VIRTUAL_P: u32 = 1024;
pub const VIRTUAL_TF: f64 = 0.01;
pub const VIRTUAL_TC: f64 = 0.000_006;
pub const VIRTUAL_TA: f64 = 0.000_03;
/// Grid of `table2-sweep`: 2 problems × 2 `T_F` × 3 `P` = 12 cells.
pub const TABLE2_PROCESSORS: [u32; 3] = [16, 128, 1024];
pub const TABLE2_TF_MEANS: [f64; 2] = [0.001, 0.01];
pub const TABLE2_EPSILON: f64 = 0.1;
pub const TABLE2_CELLS: u64 = 12;
const TABLE2_EVALS_PER_CELL: u64 = 20_000;
/// Engine seed of the workloads whose cost depends on it (see
/// [`Workload::engine_seed`]).
const PINNED_ENGINE_SEED: u64 = 7;
/// Gauge a recorded wire segment adds to its snapshot: wall seconds of the
/// whole `serve` call, so registration + teardown can be read off it.
pub const SERVE_WALL_GAUGE: &str = "benchmark.serve_wall_seconds";
/// NFE at which the deterministic workloads are replayed and compared.
const REPLAY_NFE: u64 = 5_000;
/// `--smoke` divides every N by this.
const SMOKE_DIVISOR: u64 = 20;
/// Reference-front lattice divisions and Monte-Carlo sample count / seed of
/// `hv_ratio` (fixed, so estimator error is common to every commit).
const HV_DIVISIONS: usize = 8;
const HV_SAMPLES: usize = 20_000;
const HV_SEED: u64 = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SerialDtlz25,
    WireSaturated,
    WireDelay1ms,
    VirtualP1024,
    Table2Sweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SerialDtlz25,
        Workload::WireSaturated,
        Workload::WireDelay1ms,
        Workload::VirtualP1024,
        Workload::Table2Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialDtlz25 => "serial-dtlz2-5",
            Workload::WireSaturated => "wire-saturated",
            Workload::WireDelay1ms => "wire-delay-1ms",
            Workload::VirtualP1024 => "virtual-p1024",
            Workload::Table2Sweep => "table2-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Evaluations one segment performs.
    pub fn evaluations(self, smoke: bool) -> u64 {
        let n = match self {
            Workload::SerialDtlz25 => 50_000,
            Workload::WireSaturated => 100_000,
            Workload::WireDelay1ms => 3_000,
            Workload::VirtualP1024 => 2_000_000,
            Workload::Table2Sweep => TABLE2_CELLS * TABLE2_EVALS_PER_CELL,
        };
        if smoke {
            n / SMOKE_DIVISOR
        } else {
            n
        }
    }

    /// The seed handed to the executor for a run at `--seed`. On the two
    /// workloads that run the 5-objective core to a large archive, the
    /// cost of one trajectory swings ±20 % with the engine seed (restart
    /// timing sets the population size, and the population scan is most
    /// of `T_A`) — more than any bound could resolve and more than ten
    /// 3-second runs could average away — so there the engine seed is a
    /// constant of the workload, like N. The other three keep an
    /// 11-member archive whatever the seed, and take it from `--seed`.
    pub fn engine_seed(self, seed: u64) -> u64 {
        match self {
            Workload::SerialDtlz25 | Workload::Table2Sweep => PINNED_ENGINE_SEED,
            Workload::WireSaturated | Workload::WireDelay1ms | Workload::VirtualP1024 => seed,
        }
    }

    /// `efficiency` where it is a function of the measured rate:
    /// `N·T_F / (2·elapsed)` on `wire-delay-1ms`. Elsewhere it is read in
    /// virtual time (or is n/a) and does not depend on how fast this host
    /// ran.
    pub fn efficiency_at(self, evals_per_s: f64) -> Option<f64> {
        (self == Workload::WireDelay1ms)
            .then(|| evals_per_s * WIRE_DELAY.as_secs_f64() / WIRE_WORKERS as f64)
    }

    /// Whether the same seed gives the same run, bit for bit (on the wire
    /// the arrival order of results differs from run to run).
    pub fn deterministic(self) -> bool {
        !matches!(self, Workload::WireSaturated | Workload::WireDelay1ms)
    }

    /// Whether a segment runs confined to one CPU (see `affinity`): every
    /// workload but the sweep, whose two sweep threads are the point.
    fn one_cpu(self) -> bool {
        self != Workload::Table2Sweep
    }

    /// `hv_ratio` floor: 0.9 × the value measured at the commit that
    /// defined the benchmark. `None` where the metric does not apply.
    fn hv_floor(self) -> Option<f64> {
        match self {
            Workload::SerialDtlz25 => Some(0.9 * 0.995),
            // DTLZ2-2, converged: 1.06–1.10 on every run.
            Workload::WireSaturated | Workload::WireDelay1ms | Workload::VirtualP1024 => {
                Some(0.9 * 1.09)
            }
            Workload::Table2Sweep => None,
        }
    }

    /// The single-problem input the traced pass steps through by hand:
    /// the workload's own problem, archive ε and a step count (capped so
    /// the pass stays short; `table2-sweep` uses its costlier problem).
    pub fn core_input(self) -> CoreInput {
        match self {
            Workload::SerialDtlz25 => CoreInput::new(ProblemId::Dtlz2_5, EPSILON, 50_000),
            Workload::WireSaturated => CoreInput::new(ProblemId::Dtlz2_2, EPSILON, 100_000),
            Workload::WireDelay1ms => CoreInput::new(ProblemId::Dtlz2_2, EPSILON, 3_000),
            Workload::VirtualP1024 => CoreInput::new(ProblemId::Dtlz2_2, EPSILON, 200_000),
            Workload::Table2Sweep => CoreInput::new(ProblemId::Uf11, TABLE2_EPSILON, 20_000),
        }
    }
}

/// The problems the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemId {
    Dtlz2_2,
    Dtlz2_5,
    Uf11,
}

impl ProblemId {
    /// Name announced to wire workers in `Welcome`.
    pub fn wire_name(self) -> &'static str {
        match self {
            ProblemId::Dtlz2_2 => "dtlz2-2",
            ProblemId::Dtlz2_5 => "dtlz2-5",
            ProblemId::Uf11 => "uf11",
        }
    }

    pub fn build(self) -> Box<dyn Problem> {
        match self {
            ProblemId::Dtlz2_2 => Box::new(Dtlz::new(DtlzVariant::Dtlz2, 2)),
            ProblemId::Dtlz2_5 => Box::new(Dtlz::dtlz2_5()),
            ProblemId::Uf11 => PaperProblem::Uf11.build(),
        }
    }

    pub fn objectives(self) -> usize {
        match self {
            ProblemId::Dtlz2_2 => 2,
            ProblemId::Dtlz2_5 | ProblemId::Uf11 => 5,
        }
    }

    fn reference_front(self) -> Vec<Vec<f64>> {
        match self {
            ProblemId::Uf11 => uf11_front(HV_DIVISIONS),
            _ => dtlz2_front(self.objectives(), HV_DIVISIONS),
        }
    }

    /// The `hv_ratio` metric for this problem's front.
    pub fn hypervolume(self) -> RelativeHypervolume {
        RelativeHypervolume::monte_carlo(&self.reference_front(), HV_SAMPLES, HV_SEED)
    }
}

/// Worker-side name → problem resolution for the wire workloads.
pub fn resolve_problem(name: &str) -> Option<Box<dyn Problem>> {
    [ProblemId::Dtlz2_2, ProblemId::Dtlz2_5, ProblemId::Uf11]
        .into_iter()
        .find(|p| p.wire_name() == name)
        .map(ProblemId::build)
}

/// A problem, an archive ε and an evaluation count.
#[derive(Debug, Clone, Copy)]
pub struct CoreInput {
    pub problem: ProblemId,
    pub epsilon: f64,
    pub evaluations: u64,
}

impl CoreInput {
    const fn new(problem: ProblemId, epsilon: f64, evaluations: u64) -> Self {
        CoreInput {
            problem,
            epsilon,
            evaluations,
        }
    }

    pub fn borg(&self) -> BorgConfig {
        BorgConfig::new(self.problem.objectives(), self.epsilon)
    }
}

/// Windows a timed region is cut into.
const WINDOWS: u64 = 50;

/// Splits a timed region into [`WINDOWS`] windows of equal evaluation
/// count, ticked once per consumed evaluation from inside the executor.
/// Window j does the same work in every segment of a run — identical on
/// the deterministic workloads, the same 11-member archive and frame sizes
/// on the wire — so the parent can take each window's fastest instance
/// (`best_evals_per_s` in main.rs): a burst of neighbour noise then costs
/// one window of one segment, not the segment.
struct WindowClock {
    stride: u64,
    started: Instant,
    last_ns: u64,
    windows_ns: Vec<u64>,
}

impl WindowClock {
    fn start(evaluations: u64) -> Self {
        WindowClock {
            stride: (evaluations / WINDOWS).max(1),
            started: Instant::now(),
            last_ns: 0,
            windows_ns: Vec::with_capacity(WINDOWS as usize + 1),
        }
    }

    /// Call after every consumed evaluation.
    #[inline]
    fn tick(&mut self, nfe: u64) {
        if nfe.is_multiple_of(self.stride) {
            self.mark();
        }
    }

    fn mark(&mut self) {
        let now_ns = self.started.elapsed().as_nanos() as u64;
        self.windows_ns.push(now_ns - self.last_ns);
        self.last_ns = now_ns;
    }

    /// Closes the region: the remainder after the last tick becomes the
    /// final window, so the windows sum to the returned seconds exactly.
    fn finish(mut self) -> (f64, Vec<u64>) {
        self.mark();
        (self.last_ns as f64 / 1e9, self.windows_ns)
    }
}

/// The recorder of the wire segments. `serve` has no per-evaluation
/// observer, but it bumps `net.results` once per consumed result; this sink
/// turns that one counter into the window clock. An untraced segment drops
/// everything else, as `NoopRecorder` would; a recorded one forwards
/// everything to the `InMemoryRecorder` it wraps. The clock starts at the
/// first result, one round trip into `ServeReport.elapsed`.
struct ResultWindows<'a> {
    evaluations: u64,
    inner: Option<&'a InMemoryRecorder>,
    // `serve` shares its recorder with the reader threads; only the master
    // thread bumps `net.results`, so the lock is never contended.
    state: std::sync::Mutex<(u64, Option<WindowClock>)>,
}

impl<'a> ResultWindows<'a> {
    fn new(evaluations: u64, inner: Option<&'a InMemoryRecorder>) -> Self {
        ResultWindows {
            evaluations,
            inner,
            state: std::sync::Mutex::new((0, None)),
        }
    }

    fn into_windows(self) -> Vec<u64> {
        let (_, clock) = self
            .state
            .into_inner()
            .expect("no thread panics holding the window clock");
        clock.map_or_else(Vec::new, |c| c.windows_ns)
    }
}

impl Recorder for ResultWindows<'_> {
    fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if let Some(inner) = self.inner {
            inner.counter(name, delta);
        }
        if name != borg_net::metrics::RESULTS {
            return;
        }
        let mut state = self
            .state
            .lock()
            .expect("no thread panics holding the window clock");
        let (seen, clock) = &mut *state;
        let clock = clock.get_or_insert_with(|| WindowClock::start(self.evaluations));
        for _ in 0..delta {
            *seen += 1;
            clock.tick(*seen);
        }
    }

    fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = self.inner {
            inner.gauge(name, value);
        }
    }

    fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = self.inner {
            inner.observe(name, value);
        }
    }

    fn span(&self, actor: Actor, activity: Activity, start: f64, end: f64) {
        if let Some(inner) = self.inner {
            inner.span(actor, activity, start, end);
        }
    }

    fn trace_edge(&self, edge: TraceEdge) {
        if let Some(inner) = self.inner {
            inner.trace_edge(edge);
        }
    }

    fn flight(&self, code: &'static str, t: f64, a: u64, b: u64, x: f64) {
        if let Some(inner) = self.inner {
            inner.flight(code, t, a, b, x);
        }
    }
}

/// What one segment (one run of a workload's fixed input) produced.
#[derive(Debug, Default)]
pub struct SegmentOutcome {
    /// Evaluations attempted (the workload's N).
    pub attempted: u64,
    /// Evaluations not consumed exactly once; all N when a check failed.
    pub failed: u64,
    /// Seconds of the executor's own timed region.
    pub timed_s: f64,
    /// The timed region cut into windows of equal evaluation count (all
    /// workloads but `table2-sweep`, whose sweep offers no hook).
    pub windows_ns: Vec<u64>,
    /// Seconds spent verifying outputs after the timed region.
    pub verify_s: f64,
    /// `N·T_F / (P·elapsed)` where the workload has a `T_F`, else 1.
    pub efficiency: f64,
    /// Relative hypervolume of the final archive, 1 where not applicable.
    pub hv_ratio: f64,
    /// Final archive size (0 for `table2-sweep`).
    pub archive_len: u64,
    /// Output checks that failed, one line each. Empty = correct.
    pub check_failures: Vec<String>,
    /// Metrics the executor recorded, when a recorder was attached.
    pub snapshot: Option<MetricsSnapshot>,
    /// `table2-sweep` only: largest simulation / analytical error.
    pub sim_err_max: f64,
    pub ana_err_max: f64,
}

impl SegmentOutcome {
    pub fn evals_per_s(&self) -> f64 {
        self.attempted as f64 / self.timed_s
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// A segment that fails any output check counts all its N as failed.
    fn settle(&mut self) {
        if !self.check_failures.is_empty() {
            self.failed = self.attempted;
        }
    }
}

/// How a segment is run.
#[derive(Debug, Clone, Copy)]
pub struct SegmentOptions<'a> {
    pub seed: u64,
    /// N ÷ 20 and no thresholds that depend on N.
    pub smoke: bool,
    /// Attach an `InMemoryRecorder` to the executor's `rec` parameter
    /// (`profile_ta` for the serial workload, which has none).
    pub recorded: bool,
    /// Directory for the wire workloads' socket file.
    pub out_dir: &'a Path,
}

/// Runs one segment of `workload`: the timed call, then the output checks.
pub fn run_segment(workload: Workload, opts: &SegmentOptions<'_>) -> SegmentOutcome {
    let opts = &SegmentOptions {
        seed: workload.engine_seed(opts.seed),
        ..*opts
    };
    let run = || match workload {
        Workload::SerialDtlz25 => serial_segment(workload, opts),
        Workload::WireSaturated => wire_segment(workload, ProblemId::Dtlz2_2, Duration::ZERO, opts),
        Workload::WireDelay1ms => wire_segment(workload, ProblemId::Dtlz2_2, WIRE_DELAY, opts),
        Workload::VirtualP1024 => virtual_segment(workload, opts),
        Workload::Table2Sweep => table2_segment(workload, opts),
    };
    let mut out = if workload.one_cpu() {
        on_one_cpu(run)
    } else {
        run()
    };
    out.settle();
    out
}

/// Bit pattern of an archive's objective rows, for exact comparison.
fn archive_bits(engine: &BorgEngine) -> Vec<u64> {
    engine
        .archive()
        .objective_rows()
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// The checks every single-engine workload shares, plus `hv_ratio`.
fn check_engine(
    out: &mut SegmentOutcome,
    workload: Workload,
    problem: ProblemId,
    engine: &BorgEngine,
    smoke: bool,
) {
    let n = out.attempted;
    out.failed = n.saturating_sub(engine.nfe()) + engine.nfe().saturating_sub(n);
    out.check(engine.nfe() == n, || {
        format!("engine.nfe() = {} but N = {n}", engine.nfe())
    });
    if let Err(e) = engine.archive().check_invariants() {
        out.check_failures.push(format!("archive invariants: {e}"));
    }
    out.archive_len = engine.archive().len() as u64;
    out.hv_ratio = problem
        .hypervolume()
        .ratio_rows(engine.archive().objective_rows().iter_rows());
    if let (Some(floor), false) = (workload.hv_floor(), smoke) {
        let hv = out.hv_ratio;
        out.check(hv >= floor, || format!("hv_ratio {hv} below floor {floor}"));
    }
}

fn serial_segment(workload: Workload, opts: &SegmentOptions<'_>) -> SegmentOutcome {
    let problem = Dtlz::dtlz2_5();
    let mut borg = workload.core_input().borg();
    borg.profile_ta = opts.recorded;
    let n = workload.evaluations(opts.smoke);
    let replay_at = REPLAY_NFE.min(n);
    let mut out = SegmentOutcome {
        attempted: n,
        efficiency: 1.0, // one processor: T_S / (1 · T_S)
        ..SegmentOutcome::default()
    };

    let mut at_replay = None;
    let mut clock = WindowClock::start(n);
    let engine = run_serial(&problem, borg.clone(), opts.seed, n, |e| {
        clock.tick(e.nfe());
        if e.nfe() == replay_at {
            at_replay = Some(archive_bits(e));
        }
    });
    (out.timed_s, out.windows_ns) = clock.finish();

    let verify = Instant::now();
    check_engine(&mut out, workload, ProblemId::Dtlz2_5, &engine, opts.smoke);
    let replay = run_serial(&problem, borg, opts.seed, replay_at, |_| {});
    out.check(at_replay == Some(archive_bits(&replay)), || {
        format!("{replay_at}-NFE same-seed replay is not bit-identical")
    });
    out.verify_s = verify.elapsed().as_secs_f64();
    out
}

/// Result of one `serve` + workers run over a Unix socket.
pub struct WireRun {
    pub report: ServeReport,
    pub workers: Vec<Result<WorkerReport, NetError>>,
    /// Wall seconds of the whole `serve` call (bind, registration, run,
    /// teardown); `report.elapsed` is the run alone.
    pub serve_wall_s: f64,
}

/// Runs `serve` on this thread and `WIRE_WORKERS` `run_worker` threads
/// against it over a Unix socket under `out_dir`. Workers connect only once
/// the socket path exists, so their connect back-off never fires and
/// registration time is not quantised by its sleeps.
pub fn run_wire<R: Recorder + Sync + ?Sized>(
    problem: ProblemId,
    eval_delay: Duration,
    evaluations: u64,
    seed: u64,
    out_dir: &Path,
    rec: &R,
) -> Result<WireRun, NetError> {
    // Relative and short: a Unix socket path is limited to ~100 bytes.
    let path = out_dir.join(format!("wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut cfg = ServeConfig::new(NetAddr::Unix(path.clone()), WIRE_WORKERS, evaluations, seed);
    cfg.problem_name = problem.wire_name().to_string();
    cfg.eval_delay = eval_delay;
    let borg = BorgConfig::new(problem.objectives(), EPSILON);
    let built = problem.build();
    let worker_opts = WorkerOptions {
        connect: NetAddr::Unix(path.clone()),
        ..WorkerOptions::default()
    };

    let run = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WIRE_WORKERS)
            .map(|_| {
                let (opts, path) = (&worker_opts, &path);
                scope.spawn(move || {
                    // Bounded wait: if the master never binds, fall through
                    // and let the connect back-off report the failure.
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while !path.exists() && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    run_worker(opts, &resolve_problem, &NoopRecorder)
                })
            })
            .collect();
        let started = Instant::now();
        let report = serve(built.as_ref(), borg, &cfg, rec);
        let serve_wall_s = started.elapsed().as_secs_f64();
        let workers = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(NetError::Protocol("worker thread panicked".into())))
            })
            .collect();
        report.map(|report| WireRun {
            report,
            workers,
            serve_wall_s,
        })
    });
    let _ = std::fs::remove_file(&path);
    run
}

fn wire_segment(
    workload: Workload,
    problem: ProblemId,
    eval_delay: Duration,
    opts: &SegmentOptions<'_>,
) -> SegmentOutcome {
    let n = workload.evaluations(opts.smoke);
    let mut out = SegmentOutcome {
        attempted: n,
        efficiency: 1.0,
        hv_ratio: 1.0,
        ..SegmentOutcome::default()
    };
    let rec = InMemoryRecorder::metrics_only();
    let windows = ResultWindows::new(n, opts.recorded.then_some(&rec));
    let run = run_wire(problem, eval_delay, n, opts.seed, opts.out_dir, &windows);
    out.windows_ns = windows.into_windows();
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            out.timed_s = f64::INFINITY;
            out.check_failures.push(format!("serve failed: {e}"));
            return out;
        }
    };
    out.timed_s = run.report.elapsed;
    if opts.recorded {
        let mut snapshot = rec.snapshot();
        // Registration + teardown, for `net.register_ms`.
        snapshot.gauges.insert(SERVE_WALL_GAUGE, run.serve_wall_s);
        out.snapshot = Some(snapshot);
    }
    if let Some(efficiency) = workload.efficiency_at(n as f64 / run.report.elapsed) {
        out.efficiency = efficiency;
    }

    let verify = Instant::now();
    let report = &run.report;
    check_engine(&mut out, workload, problem, &report.engine, opts.smoke);
    let worker_errors = run.workers.iter().filter(|w| w.is_err()).count() as u64;
    let evaluated: u64 = run.workers.iter().flatten().map(|w| w.evaluated).sum();
    out.failed += report.wire_duplicates + worker_errors;
    out.check(report.wire_results == n, || {
        format!("wire_results = {} but N = {n}", report.wire_results)
    });
    out.check(report.wire_duplicates == 0, || {
        format!("{} duplicate result frames", report.wire_duplicates)
    });
    out.check(worker_errors == 0, || {
        format!("{worker_errors} workers ended with an error")
    });
    out.check(evaluated == n, || {
        format!("workers evaluated {evaluated} but N = {n}")
    });
    let log = &report.fault_log;
    out.check(
        log.records.is_empty() && log.deaths_detected == 0 && log.reissues == 0,
        || {
            format!(
                "fault log not empty: {} records, {} deaths, {} reissues",
                log.records.len(),
                log.deaths_detected,
                log.reissues
            )
        },
    );
    out.verify_s = verify.elapsed().as_secs_f64();
    out
}

/// The `virtual-p1024` executor configuration for `evaluations` at `seed`.
pub fn virtual_config(evaluations: u64, seed: u64) -> VirtualConfig {
    VirtualConfig {
        processors: VIRTUAL_P,
        max_nfe: evaluations,
        t_f: Dist::normal_cv(VIRTUAL_TF, 0.1),
        t_c: Dist::Constant(VIRTUAL_TC),
        t_a: TaMode::Sampled(Dist::Constant(VIRTUAL_TA)),
        seed,
    }
}

fn virtual_segment(workload: Workload, opts: &SegmentOptions<'_>) -> SegmentOutcome {
    let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
    let borg = workload.core_input().borg();
    let n = workload.evaluations(opts.smoke);
    let mut out = SegmentOutcome {
        attempted: n,
        ..SegmentOutcome::default()
    };

    let rec = InMemoryRecorder::metrics_only();
    let config = virtual_config(n, opts.seed);
    let mut clock = WindowClock::start(n);
    let result: VirtualRunResult = if opts.recorded {
        run_virtual_async(&problem, borg.clone(), &config, &rec, |_, e| {
            clock.tick(e.nfe())
        })
    } else {
        run_virtual_async(&problem, borg.clone(), &config, &NoopRecorder, |_, e| {
            clock.tick(e.nfe())
        })
    };
    (out.timed_s, out.windows_ns) = clock.finish();
    if opts.recorded {
        out.snapshot = Some(rec.snapshot());
    }
    // The paper's efficiency T_S / (P · T_P), in virtual time: a property of
    // the protocol's schedule, not of how fast this host simulates it.
    let timing = TimingParams::new(VIRTUAL_TF, VIRTUAL_TC, VIRTUAL_TA);
    out.efficiency = serial_time(n, timing) / (f64::from(VIRTUAL_P) * result.outcome.elapsed);

    let verify = Instant::now();
    check_engine(
        &mut out,
        workload,
        ProblemId::Dtlz2_2,
        &result.engine,
        opts.smoke,
    );
    out.check(result.outcome.completed == n, || {
        format!(
            "outcome.completed = {} but N = {n}",
            result.outcome.completed
        )
    });
    let replay_n = REPLAY_NFE.min(n);
    let replay = || {
        let cfg = virtual_config(replay_n, opts.seed);
        let r = run_virtual_async(&problem, borg.clone(), &cfg, &NoopRecorder, |_, _| {});
        (archive_bits(&r.engine), r.outcome.elapsed.to_bits())
    };
    out.check(replay() == replay(), || {
        format!("{replay_n}-NFE same-seed replay is not bit-identical")
    });
    out.verify_s = verify.elapsed().as_secs_f64();
    out
}

/// The `table2-sweep` configuration at `seed` with `jobs` sweep threads.
pub fn table2_config(evaluations: u64, seed: u64, jobs: usize) -> Table2Config {
    Table2Config {
        evaluations,
        replicates: 1,
        processors: TABLE2_PROCESSORS.to_vec(),
        tf_means: TABLE2_TF_MEANS.to_vec(),
        problems: vec![PaperProblem::Dtlz2, PaperProblem::Uf11],
        epsilon: TABLE2_EPSILON,
        seed,
        jobs,
        sampled_ta: Some(VIRTUAL_TA),
    }
}

/// Bit pattern of the columns of a Table II row that the runs determine.
fn row_bits(rows: &[Table2Row]) -> Vec<[u64; 4]> {
    rows.iter()
        .map(|r| {
            [
                r.experimental_time.to_bits(),
                r.analytical_time.to_bits(),
                r.simulation_time.to_bits(),
                r.t_a.to_bits(),
            ]
        })
        .collect()
}

fn table2_segment(workload: Workload, opts: &SegmentOptions<'_>) -> SegmentOutcome {
    let n = workload.evaluations(opts.smoke);
    let per_cell = n / TABLE2_CELLS;
    let mut out = SegmentOutcome {
        attempted: n,
        hv_ratio: 1.0, // the sweep returns rows, not archives
        ..SegmentOutcome::default()
    };
    let config = table2_config(per_cell, opts.seed, 2);
    let mut merged = MetricsSnapshot::default();
    let started = Instant::now();
    let rows = if opts.recorded {
        run_table2_with(&config, |_, snapshot| merged.merge(snapshot))
    } else {
        run_table2(&config)
    };
    out.timed_s = started.elapsed().as_secs_f64();
    if opts.recorded {
        out.snapshot = Some(merged);
    }

    let verify = Instant::now();
    out.check(rows.len() as u64 == TABLE2_CELLS, || {
        format!("{} rows, expected {TABLE2_CELLS}", rows.len())
    });
    out.failed = (TABLE2_CELLS.saturating_sub(rows.len() as u64)) * per_cell;
    out.efficiency = rows.iter().map(|r| r.efficiency).sum::<f64>() / rows.len().max(1) as f64;
    out.sim_err_max = rows.iter().map(|r| r.simulation_error).fold(0.0, f64::max);
    out.ana_err_max = rows.iter().map(|r| r.analytical_error).fold(0.0, f64::max);
    for r in &rows {
        out.check(
            r.experimental_time.is_finite() && r.experimental_time > 0.0,
            || format!("{} P={} has no elapsed time", r.problem, r.processors),
        );
    }
    if !opts.smoke {
        // The paper's Table II shape: the simulation model tracks the
        // experiment everywhere; Eq. 2 fails where the master saturates
        // and holds where it does not.
        for r in &rows {
            out.check(r.simulation_error <= 0.05, || {
                format!(
                    "{} P={} T_F={}: simulation_error {}",
                    r.problem, r.processors, r.t_f, r.simulation_error
                )
            });
            if r.processors == 1024 && r.t_f == 0.001 {
                out.check(r.analytical_error >= 0.5, || {
                    format!(
                        "{} saturated cell: analytical_error {}",
                        r.problem, r.analytical_error
                    )
                });
            }
            if r.processors == 16 && r.t_f == 0.01 {
                out.check(r.analytical_error <= 0.05, || {
                    format!(
                        "{} unsaturated cell: analytical_error {}",
                        r.problem, r.analytical_error
                    )
                });
            }
        }
    }
    // Same-seed replay of a 5 000-NFE sweep (4 cells × 1 250), serial
    // against two sweep threads: the rows must not depend on `jobs`.
    let replay = |jobs| {
        let mut cfg = table2_config(REPLAY_NFE / 4, opts.seed, jobs);
        cfg.processors = vec![16];
        row_bits(&run_table2(&cfg))
    };
    out.check(replay(1) == replay(2), || {
        format!("{REPLAY_NFE}-NFE same-seed sweep replay is not bit-identical")
    });
    out.verify_s = verify.elapsed().as_secs_f64();
    out
}
