//! `borg-exp` — regenerate the paper's tables and figures.
//!
//! `borg-exp help` lists the subcommands and `borg-exp <subcommand> --help`
//! the flags that subcommand reads, with their defaults. Both texts are
//! rendered from the two tables in this file — the [`Flag`] statics and
//! [`SUBS`] — which also drive parsing and dispatch, so a flag or a
//! subcommand is written once: add it there and nowhere else.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_desim::fault::FaultConfig;
use borg_experiments::ablation::{
    ablation_archive, ablation_contention, ablation_operators, ablation_restarts,
    ablation_ta_breakdown, ablation_variance, AblationConfig,
};
use borg_experiments::bounds::{paper_bounds, render_bounds};
use borg_experiments::dynamics::{render_dynamics_summary, run_dynamics, DynamicsConfig};
use borg_experiments::fitdemo::{run_fit_demo, FitDemoConfig};
use borg_experiments::heatmap::{run_figure5, HeatmapConfig};
use borg_experiments::hvspeedup::{render_panel, run_figure, HvSpeedupConfig};
use borg_experiments::report::{write_output, TextTable};
use borg_experiments::suite::PaperProblem;
use borg_experiments::table2::{render_table2, run_table2_with, Table2Config};
use borg_experiments::timeline::{figure1, figure2, Timeline, TimelineConfig};
use borg_experiments::tracebundle::{trace_bundle, TraceBundleConfig};
use borg_models::advisor::{recommend_partition, recommend_processor_count};
use borg_models::dist::Dist;
use borg_models::perfsim::TimingModel;
use borg_net::chaos::{run_chaos_loopback, ChaosConfig};
use borg_net::serve::{serve, ServeConfig};
use borg_net::tap::{tap_loop, TapConfig};
use borg_net::worker::{run_worker, WorkerOptions};
use borg_net::{connect_with_backoff, Backoff, Conn, Msg, NetAddr, NetListener};
use borg_obs::export::metrics_jsonl;
use borg_obs::{merge_shards, FlightRecorder, InMemoryRecorder, Recorder, TraceShard, WithFlight};
use borg_parallel::virtual_exec::{TaMode, VirtualConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the flags parsed to. Every field starts at its type's zero and is
/// then set through its flag's `set`: first from the flag's `default`, then
/// from the command line.
#[derive(Debug, Clone, Default)]
struct Cli {
    out: PathBuf,
    nfe: Option<u64>,
    replicates: Option<u32>,
    seed: Option<u64>,
    jobs: usize,
    smoke: bool,
    full: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    listen: Option<String>,
    connect: Option<String>,
    workers: usize,
    problem: String,
    eval_delay_us: u64,
    reissue_timeout: Option<f64>,
    chaos: bool,
    crash_rate: f64,
    drop_rate: f64,
    duplicate_rate: f64,
    live: Option<String>,
    flight_out: Option<PathBuf>,
    trace_shard: Option<PathBuf>,
    ticks: u64,
    /// Positional arguments after the subcommand (trace-merge shards).
    rest: Vec<String>,
}

/// One command-line flag; all that is known about it is its row in
/// [`flags`].
struct Flag {
    name: &'static str,
    /// Placeholder for the value it takes; empty for a switch, which is
    /// set from `"true"`.
    value: &'static str,
    /// Value it has when not given (applied through `set`, shown by
    /// `--help`); empty leaves the field at its zero.
    default: &'static str,
    set: fn(&mut Cli, &str) -> Result<(), String>,
    help: &'static str,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    set: fn(&mut Cli, &str) -> Result<(), String>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        default,
        set,
        help,
    }
}

impl Flag {
    /// `--name VALUE`, or `--name` for a switch.
    fn spec(&self) -> String {
        format!("{} {}", self.name, self.value)
            .trim_end()
            .to_string()
    }
}

fn parsed<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// The flag table, a row per flag: name, value placeholder, default, the
/// `Cli` field it is parsed into, help. Laid out by hand so that a flag
/// stays one row.
#[rustfmt::skip]
mod flags {
    use super::{flag, parsed, Flag};
    pub(crate) static OUT: Flag = flag("--out", "DIR", "results", |c, v| parsed(v).map(|x| c.out = x),
        "output directory (trace-merge: the merged trace, FILE.json or a directory)");
    pub(crate) static NFE: Flag = flag("--nfe", "N", "", |c, v| parsed(v).map(|x| c.nfe = Some(x)),
        "evaluations per run (default: the subcommand's own)");
    pub(crate) static REPLICATES: Flag = flag("--replicates", "R", "",
        |c, v| parsed(v).map(|x| c.replicates = Some(x)),
        "replicates per configuration (default: the experiment's own)");
    pub(crate) static SEED: Flag = flag("--seed", "S", "", |c, v| parsed(v).map(|x| c.seed = Some(x)),
        "root seed (default: the subcommand's own)");
    pub(crate) static JOBS: Flag = flag("--jobs", "N", "0", |c, v| parsed(v).map(|x| c.jobs = x),
        "worker threads for replicate sweeps (0 = all cores, 1 = serial; the\n\
         fan-out is deterministic, see README \"Parallel experiment runner\")");
    pub(crate) static SMOKE: Flag = flag("--smoke", "", "", |c, v| parsed(v).map(|x| c.smoke = x),
        "tiny scale (CI)");
    pub(crate) static FULL: Flag = flag("--full", "", "", |c, v| parsed(v).map(|x| c.full = x),
        "paper scale (hours)");
    pub(crate) static TRACE_OUT: Flag = flag("--trace-out", "FILE", "",
        |c, v| parsed(v).map(|x| c.trace_out = Some(x)),
        "afterwards run the three-executor trace bundle (sized by --smoke,\n\
         seeded by --seed) and write Chrome-trace JSON (open in\n\
         chrome://tracing or https://ui.perfetto.dev)");
    pub(crate) static METRICS_OUT: Flag = flag("--metrics-out", "FILE", "",
        |c, v| parsed(v).map(|x| c.metrics_out = Some(x)),
        "write metrics as JSON Lines (table2: per-cell empirical T_F/T_C/T_A\n\
         histograms, engine counters, master occupancy; serve/worker: net.*\n\
         counters)");
    pub(crate) static LISTEN: Flag = flag("--listen", "ADDR", "",
        |c, v| parsed(v).map(|x| c.listen = Some(x)),
        "endpoint to serve on, tcp:HOST:PORT or unix:PATH (required; see\n\
         README \"Networked deployment\")");
    pub(crate) static CONNECT: Flag = flag("--connect", "ADDR", "",
        |c, v| parsed(v).map(|x| c.connect = Some(x)),
        "endpoint to connect to (required): for worker the master or chaos\n\
         proxy, for tail the master's --live endpoint");
    pub(crate) static WORKERS: Flag = flag("--workers", "N", "2", |c, v| parsed(v).map(|x| c.workers = x),
        "registrations to wait for");
    pub(crate) static PROBLEM: Flag = flag("--problem", "NAME", "dtlz2-5",
        |c, v| parsed(v).map(|x| c.problem = x),
        "problem announced to workers (dtlz2-5 or dtlz2-2)");
    pub(crate) static EVAL_DELAY_US: Flag = flag("--eval-delay-us", "N", "0",
        |c, v| parsed(v).map(|x| c.eval_delay_us = x),
        "artificial per-evaluation delay (keeps smoke runs killable mid-flight)");
    pub(crate) static REISSUE_TIMEOUT: Flag = flag("--reissue-timeout", "S", "",
        |c, v| parsed(v).map(|x| c.reissue_timeout = Some(x)),
        "wall-clock reissue deadline in seconds (default: none)");
    pub(crate) static CHAOS: Flag = flag("--chaos", "", "", |c, v| parsed(v).map(|x| c.chaos = x),
        "loopback chaos mode: pinned virtual timing, a seeded fault plan\n\
         enacted on the wire");
    pub(crate) static CRASH_RATE: Flag = flag("--crash-rate", "F", "0.25",
        |c, v| parsed(v).map(|x| c.crash_rate = x),
        "chaos: per-worker crash probability");
    pub(crate) static DROP_RATE: Flag = flag("--drop-rate", "F", "0.05",
        |c, v| parsed(v).map(|x| c.drop_rate = x),
        "chaos: per-result drop probability");
    pub(crate) static DUPLICATE_RATE: Flag = flag("--duplicate-rate", "F", "0.02",
        |c, v| parsed(v).map(|x| c.duplicate_rate = x),
        "chaos: per-result duplication probability");
    pub(crate) static LIVE: Flag = flag("--live", "ADDR", "", |c, v| parsed(v).map(|x| c.live = Some(x)),
        "stream live MetricsSnapshot deltas to subscribers on this endpoint\n\
         (`borg-exp tail`; see README \"Distributed tracing & flight recorder\")");
    pub(crate) static FLIGHT_OUT: Flag = flag("--flight-out", "FILE", "",
        |c, v| parsed(v).map(|x| c.flight_out = Some(x)),
        "dump the black-box flight recorder (deterministic JSONL) when the run\n\
         ends, a worker dies, or the process panics");
    pub(crate) static TRACE_SHARD: Flag = flag("--trace-shard", "FILE", "",
        |c, v| parsed(v).map(|x| c.trace_shard = Some(x)),
        "write this process's trace-edge shard (JSONL) for `borg-exp trace-merge`");
    pub(crate) static TICKS: Flag = flag("--ticks", "N", "8", |c, v| parsed(v).map(|x| c.ticks = x),
        "tap frames to render before exiting");
}
use flags::*;

/// One subcommand; all that is known about it is its row in [`SUBS`].
struct Sub {
    name: &'static str,
    about: &'static str,
    /// Positional arguments, as its usage line shows them (empty: none).
    args: &'static str,
    /// The flags it reads; any other flag is a usage error.
    flags: &'static [&'static Flag],
    /// Member of `all`.
    in_all: bool,
    /// `None` is the composite: every `in_all` member, in table order.
    run: Option<fn(&Cli)>,
}

/// Every subcommand, in the order `help` lists them and `all` runs its
/// members. Laid out by hand so that a subcommand stays one row.
#[rustfmt::skip]
static SUBS: [Sub; 16] = [
    Sub { name: "bounds", about: "Eqs. 3-4 processor-count bounds",
          args: "", flags: &[&OUT, &TRACE_OUT], in_all: true, run: Some(bounds) },
    Sub { name: "fig1", about: "Figure 1 (synchronous timeline)",
          args: "", flags: &[&OUT, &TRACE_OUT], in_all: true,
          run: Some(|cli| timeline("fig1", figure1, cli)) },
    Sub { name: "fig2", about: "Figure 2 (asynchronous timeline)",
          args: "", flags: &[&OUT, &TRACE_OUT], in_all: true,
          run: Some(|cli| timeline("fig2", figure2, cli)) },
    Sub { name: "fig5", about: "Figure 5 (sync vs async efficiency heatmaps)",
          args: "", flags: &[&OUT, &SEED, &JOBS, &SMOKE, &TRACE_OUT], in_all: true,
          run: Some(fig5) },
    Sub { name: "table2", about: "Table II (experimental vs analytical vs simulation model)",
          args: "", in_all: true, run: Some(table2),
          flags: &[&OUT, &NFE, &REPLICATES, &SEED, &JOBS, &SMOKE, &FULL, &TRACE_OUT, &METRICS_OUT] },
    Sub { name: "fig3", about: "Figure 3 (hypervolume speedup, DTLZ2)",
          args: "", in_all: true, run: Some(|cli| hv_speedup("fig3", PaperProblem::Dtlz2, cli)),
          flags: &[&OUT, &NFE, &REPLICATES, &SEED, &JOBS, &SMOKE, &FULL, &TRACE_OUT] },
    Sub { name: "fig4", about: "Figure 4 (hypervolume speedup, UF11)",
          args: "", in_all: true, run: Some(|cli| hv_speedup("fig4", PaperProblem::Uf11, cli)),
          flags: &[&OUT, &NFE, &REPLICATES, &SEED, &JOBS, &SMOKE, &FULL, &TRACE_OUT] },
    Sub { name: "fit", about: "§IV-B distribution-fitting pipeline on this machine",
          args: "", flags: &[&OUT, &NFE, &SEED, &TRACE_OUT], in_all: true, run: Some(fit) },
    Sub { name: "ablations", about: "DESIGN.md §5 ablation studies",
          args: "", in_all: true, run: Some(ablations),
          flags: &[&OUT, &NFE, &REPLICATES, &SEED, &JOBS, &SMOKE, &TRACE_OUT] },
    Sub { name: "dynamics", about: "§VI/VII algorithm dynamics per processor count (extension)",
          args: "", flags: &[&OUT, &NFE, &SEED, &JOBS, &SMOKE, &TRACE_OUT], in_all: true,
          run: Some(dynamics) },
    Sub { name: "advise", about: "§VI/VII topology advice from the simulation model (extension)",
          args: "", flags: &[&OUT, &NFE, &SEED, &TRACE_OUT], in_all: true, run: Some(advise) },
    Sub { name: "all", about: "every subcommand above, in that order",
          args: "", flags: &[], in_all: false, run: None },
    Sub { name: "serve", about: "networked master: listen, register workers, run a budget",
          args: "", in_all: false, run: Some(serve_master),
          flags: &[&LISTEN, &WORKERS, &NFE, &SEED, &PROBLEM, &EVAL_DELAY_US, &REISSUE_TIMEOUT,
                   &CHAOS, &CRASH_RATE, &DROP_RATE, &DUPLICATE_RATE, &LIVE, &FLIGHT_OUT,
                   &TRACE_SHARD, &METRICS_OUT] },
    Sub { name: "worker", about: "networked worker: connect to a master and evaluate",
          args: "", flags: &[&CONNECT, &FLIGHT_OUT, &TRACE_SHARD, &METRICS_OUT], in_all: false,
          run: Some(worker) },
    Sub { name: "tail", about: "subscribe to a serving master's live metrics tap",
          args: "", flags: &[&CONNECT, &TICKS], in_all: false, run: Some(tail) },
    Sub { name: "trace-merge", about: "merge per-process trace shards (the master's and one per\n\
              worker) into one Chrome trace with each evaluation's t_c_out /\n\
              t_f / t_c_back on the master clock",
          args: "SHARD...", flags: &[&OUT], in_all: false, run: Some(trace_merge) },
];

impl Sub {
    /// The flags it reads; the composite reads what its members read.
    fn reads(&self) -> Vec<&'static Flag> {
        if self.run.is_some() {
            return self.flags.to_vec();
        }
        let mut union: Vec<&'static Flag> = Vec::new();
        for flag in SUBS.iter().filter(|s| s.in_all).flat_map(|s| s.flags) {
            if !union.iter().any(|f| f.name == flag.name) {
                union.push(flag);
            }
        }
        union
    }

    fn usage(&self) -> String {
        let mut line = format!("usage: borg-exp {}", self.name);
        if !self.args.is_empty() {
            line.push_str(&format!(" {}", self.args));
        }
        for flag in self.reads() {
            line.push_str(&format!(" [{}]", flag.spec()));
        }
        line
    }

    /// What `borg-exp <name> --help` prints.
    fn help(&self) -> String {
        let mut text = format!(
            "borg-exp {}: {}\n\n{}\n\nflags:\n",
            self.name,
            self.about,
            self.usage()
        );
        for flag in self.reads() {
            let head = flag.spec();
            let mut body = flag.help.replace('\n', HELP_INDENT);
            if !flag.default.is_empty() {
                body.push_str(&format!(" (default: {})", flag.default));
            }
            text.push_str(&format!("  {head:<20} {body}\n"));
        }
        text
    }

    fn execute(&self, cli: &Cli) {
        match self.run {
            Some(run) => {
                println!("==> {}", self.name);
                run(cli);
            }
            None => SUBS
                .iter()
                .filter(|s| s.in_all)
                .for_each(|s| s.execute(cli)),
        }
    }
}

/// Continuation lines of a help text start under its first line.
const HELP_INDENT: &str = "\n                       ";

fn usage() -> String {
    let names: Vec<&str> = SUBS.iter().map(|s| s.name).collect();
    format!(
        "usage: borg-exp <{}> [flags]\n       borg-exp <subcommand> --help lists the flags it reads",
        names.join("|")
    )
}

/// What `borg-exp help` prints.
fn help() -> String {
    let mut text = format!("{}\n\nsubcommands:\n", usage());
    for sub in &SUBS {
        text.push_str(&format!(
            "  {:<12} {}\n",
            sub.name,
            sub.about.replace('\n', "\n               ")
        ));
    }
    text
}

/// The override order the experiments share, `smoke → nfe → replicates →
/// seed → jobs`, applied for the knobs a config has (what `--full` means is
/// each experiment's own, between `smoke` and the rest).
macro_rules! scale {
    (@smoke $cfg:ident, $cli:ident) => {
        if $cli.smoke {
            $cfg = $cfg.smoke();
        }
    };
    (@nfe $cfg:ident, $cli:ident) => {
        $cfg.evaluations = $cli.nfe.unwrap_or($cfg.evaluations);
    };
    (@replicates $cfg:ident, $cli:ident) => {
        $cfg.replicates = $cli.replicates.unwrap_or($cfg.replicates);
    };
    (@seed $cfg:ident, $cli:ident) => {
        $cfg.seed = $cli.seed.unwrap_or($cfg.seed);
    };
    (@jobs $cfg:ident, $cli:ident) => {
        $cfg.jobs = $cli.jobs;
    };
    ($cfg:ident, $cli:ident: $($knob:ident),+) => {
        $(scale!(@$knob $cfg, $cli);)+
    };
}

/// Parses `args` (what follows the subcommand) against the flags `sub`
/// reads.
fn parse_args(sub: &Sub, args: &[String]) -> Result<Cli, String> {
    let flags = sub.reads();
    let mut cli = Cli::default();
    for flag in &flags {
        if !flag.default.is_empty() {
            (flag.set)(&mut cli, flag.default).expect("table default parses");
        }
    }
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            if sub.args.is_empty() {
                return Err(format!("unexpected argument {arg}"));
            }
            cli.rest.push(arg.clone());
            continue;
        }
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            let known = SUBS.iter().flat_map(|s| s.flags).any(|f| f.name == arg);
            return Err(if known {
                format!("{} does not read {arg}", sub.name)
            } else {
                format!("unknown flag {arg}")
            });
        };
        let value = match flag.value {
            "" => "true",
            _ => args.next().ok_or(format!("{arg} needs a value"))?,
        };
        (flag.set)(&mut cli, value).map_err(|e| format!("{arg}: {e}"))?;
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("error: missing subcommand\n{}", usage());
        std::process::exit(2);
    };
    if name == "help" || name == "--help" {
        print!("{}", help());
        return;
    }
    let Some(sub) = SUBS.iter().find(|s| s.name == name) else {
        eprintln!("error: unknown subcommand {name}\n{}", usage());
        std::process::exit(2);
    };
    if args[1..].iter().any(|a| a == "--help") {
        print!("{}", sub.help());
        return;
    }
    let cli = parse_args(sub, &args[1..]).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", sub.usage());
        std::process::exit(2);
    });
    sub.execute(&cli);
    if let Some(path) = &cli.trace_out {
        let mut tcfg = TraceBundleConfig::default();
        if cli.smoke {
            tcfg.processors = 4;
            tcfg.evaluations = 80;
        }
        scale!(tcfg, cli: seed);
        eprintln!(
            "tracing one seeded run per executor path (P = {}, N = {})...",
            tcfg.processors, tcfg.evaluations
        );
        let bundle = trace_bundle(&tcfg);
        write_file(path, &bundle.json).expect("write trace bundle");
        println!(
            "wrote {} ({} DES + {} virtual + {} threaded spans; open in chrome://tracing or ui.perfetto.dev)",
            path.display(),
            bundle.span_counts[0],
            bundle.span_counts[1],
            bundle.span_counts[2]
        );
    }
}

/// Writes to an explicit path (unlike [`write_output`], which is rooted
/// at `--out`), creating parent directories as needed.
fn write_file(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
}

/// Writes one artefact under `--out`.
fn emit(cli: &Cli, name: &str, content: &str) {
    write_output(&cli.out, name, content).unwrap_or_else(|e| panic!("write {name}: {e}"));
}

/// The value, or exit 1 saying what failed.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    })
}

/// Parses a wire address or exits with usage.
fn parse_addr(s: &str) -> NetAddr {
    NetAddr::parse(s).unwrap_or_else(|e| {
        eprintln!("bad address {s:?}: {e}");
        std::process::exit(2);
    })
}

/// The address a required `flag` was given, or exits with usage.
fn required_addr(given: Option<&str>, flag: &Flag) -> NetAddr {
    parse_addr(given.unwrap_or_else(|| {
        eprintln!("missing {} (tcp:HOST:PORT or unix:PATH)", flag.spec());
        std::process::exit(2);
    }))
}

/// Maps a wire problem name to an instance (the `Welcome` vocabulary).
fn resolve_problem(name: &str) -> Option<Box<dyn Problem>> {
    match name {
        "dtlz2-5" => Some(Box::new(borg_problems::dtlz::Dtlz::dtlz2_5())),
        "dtlz2-2" => Some(Box::new(borg_problems::dtlz::Dtlz::new(
            borg_problems::dtlz::DtlzVariant::Dtlz2,
            2,
        ))),
        _ => None,
    }
}

/// Dumps the recorder's `net.*` metrics as JSON Lines if requested.
fn write_net_metrics(cli: &Cli, rec: &InMemoryRecorder, role: &str) {
    if let Some(path) = &cli.metrics_out {
        let labels = [("experiment", role.to_string())];
        let jsonl = metrics_jsonl(&labels, &rec.snapshot());
        write_file(path, &jsonl).expect("write metrics jsonl");
        println!("wrote {}", path.display());
    }
}

/// Runs `body` with an optional live metrics tap alongside: when
/// `--live ADDR` was given, the tap listens there and streams
/// stable-schema `MetricsSnapshot` deltas to any `borg-exp tail`
/// subscriber for the duration of the run.
fn with_optional_tap<T>(live: Option<&str>, rec: &InMemoryRecorder, body: impl FnOnce() -> T) -> T {
    let Some(addr) = live else { return body() };
    let addr = parse_addr(addr);
    let listener = or_exit(
        NetListener::bind(&addr),
        &format!("cannot bind live tap {addr}"),
    );
    println!("live metrics tap on {addr} (subscribe with: borg-exp tail --connect ...)");
    let tap = TapConfig::new(addr.clone());
    let stop = AtomicBool::new(false);
    let out = std::thread::scope(|scope| {
        let handle = scope.spawn(|| tap_loop(&listener, &tap, &|| rec.snapshot(), &stop, rec));
        let out = body();
        stop.store(true, Ordering::SeqCst);
        let _ = handle.join();
        out
    });
    if let NetAddr::Unix(path) = &addr {
        let _ = std::fs::remove_file(path);
    }
    out
}

/// Installs a panic hook that dumps the flight recorder before the
/// default hook runs, so a crashing master/worker still leaves its black
/// box behind.
fn install_panic_dump(ring: &Arc<FlightRecorder>, path: &Path) {
    let ring = Arc::clone(ring);
    let path = path.to_path_buf();
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = write_file(&path, &ring.dump_jsonl("panic"));
        default(info);
    }));
}

/// End-of-run observability drain: dumps the flight recorder (trigger
/// `worker_death` when the ring saw one, else `shutdown`) and writes
/// this process's trace-edge shard for `borg-exp trace-merge`.
fn finish_observability(
    cli: &Cli,
    rec: &InMemoryRecorder,
    ring: &FlightRecorder,
    process: &str,
    worker: Option<u64>,
) {
    rec.counter(borg_net::metrics::FLIGHT_EVENTS, ring.recorded());
    if let Some(path) = &cli.flight_out {
        let trigger = if ring.events().iter().any(|e| e.code == "net.worker_death") {
            "worker_death"
        } else {
            "shutdown"
        };
        rec.counter(borg_net::metrics::FLIGHT_DUMPS, 1);
        write_file(path, &ring.dump_jsonl(trigger)).expect("write flight dump");
        println!("wrote {} (trigger: {trigger})", path.display());
    }
    if let Some(path) = &cli.trace_shard {
        let shard = TraceShard::new(process, worker, rec.take_trace_edges());
        write_file(path, &shard.to_jsonl()).expect("write trace shard");
        println!("wrote {}", path.display());
    }
}

fn table2(cli: &Cli) {
    let mut cfg = Table2Config::default();
    scale!(cfg, cli: smoke);
    if cli.full {
        cfg = cfg.paper_scale();
    }
    scale!(cfg, cli: nfe, replicates, seed, jobs);
    let total = cfg.problems.len() * cfg.tf_means.len() * cfg.processors.len();
    let mut done = 0usize;
    let mut metrics = String::new();
    let rows = run_table2_with(&cfg, |row, snap| {
        done += 1;
        eprintln!(
            "  [{done}/{total}] {} P={} T_F={}s: time {:.2}s, util {:.2}, T_A p50 {:.1}us",
            row.problem,
            row.processors,
            row.t_f,
            row.experimental_time,
            row.master_utilization,
            snap.histograms
                .get("t_a_seconds")
                .map_or(f64::NAN, |h| h.quantile(0.5) * 1e6)
        );
        if cli.metrics_out.is_some() {
            let labels = [
                ("experiment", "table2".to_string()),
                ("problem", row.problem.to_string()),
                ("P", row.processors.to_string()),
                ("t_f", format!("{}", row.t_f)),
            ];
            metrics.push_str(&metrics_jsonl(&labels, snap));
        }
    });
    let table = render_table2(&rows);
    println!("{}", table.render());
    emit(cli, "table2.csv", &table.to_csv());
    println!("wrote {}", cli.out.join("table2.csv").display());
    if let Some(path) = &cli.metrics_out {
        write_file(path, &metrics).expect("write metrics jsonl");
        println!("wrote {}", path.display());
    }
}

fn timeline(cmd: &str, figure: fn(&TimelineConfig) -> Timeline, cli: &Cli) {
    let t = figure(&TimelineConfig::default());
    println!("{}", t.ascii);
    println!(
        "elapsed {:.4}s, master utilization {:.2}",
        t.elapsed, t.master_utilization
    );
    emit(cli, &format!("{cmd}_timeline.csv"), &t.csv);
    emit(cli, &format!("{cmd}_timeline.txt"), &t.ascii);
}

fn hv_speedup(cmd: &str, problem: PaperProblem, cli: &Cli) {
    let mut cfg = HvSpeedupConfig::new(problem);
    scale!(cfg, cli: smoke);
    if cli.full {
        cfg = cfg.paper_scale();
    }
    scale!(cfg, cli: nfe, replicates, seed, jobs);
    for panel in run_figure(&cfg) {
        let table = render_panel(&panel);
        println!(
            "{} speedup to hypervolume threshold, T_F = {}s",
            panel.problem, panel.t_f
        );
        println!("{}", table.render());
        let name = format!("{cmd}_{}_tf{}.csv", panel.problem.to_lowercase(), panel.t_f);
        emit(cli, &name, &table.to_csv());
    }
}

fn fig5(cli: &Cli) {
    let mut cfg = HeatmapConfig::default();
    scale!(cfg, cli: smoke, seed, jobs);
    let surfaces = run_figure5(&cfg);
    let sync_art = surfaces.to_ascii(&surfaces.sync, "Figure 5a: synchronous efficiency (Eq. 6)");
    let async_art = surfaces.to_ascii(
        &surfaces.async_,
        "Figure 5b: asynchronous efficiency (simulation model)",
    );
    println!("{sync_art}\n{async_art}");
    emit(cli, "fig5_sync.csv", &surfaces.to_csv(&surfaces.sync));
    emit(cli, "fig5_async.csv", &surfaces.to_csv(&surfaces.async_));
    emit(cli, "fig5.txt", &format!("{sync_art}\n{async_art}"));
    // Also emit the Table II parameter ordering (see DESIGN.md §4).
    let mut alt_cfg = HeatmapConfig::default().table2_params();
    alt_cfg.jobs = cli.jobs;
    let alt = run_figure5(&alt_cfg);
    emit(cli, "fig5_sync_table2params.csv", &alt.to_csv(&alt.sync));
    emit(cli, "fig5_async_table2params.csv", &alt.to_csv(&alt.async_));
}

fn bounds(cli: &Cli) {
    let table = render_bounds(&paper_bounds());
    println!("{}", table.render());
    emit(cli, "bounds.csv", &table.to_csv());
}

fn fit(cli: &Cli) {
    let mut cfg = FitDemoConfig::default();
    scale!(cfg, cli: nfe, seed);
    let demo = run_fit_demo(&cfg).expect("fit demo run");
    println!(
        "measured on this machine: T_A mean {:.2}us (cv {:.2}), T_F mean {:.3}ms (cv {:.2}), T_C ~ {:.2}us",
        demo.ta_stats.mean * 1e6,
        demo.ta_stats.cv(),
        demo.tf_stats.mean * 1e3,
        demo.tf_stats.cv(),
        demo.t_c * 1e6
    );
    println!("\nT_A distribution ranking (log-likelihood, best first):");
    println!("{}", demo.ta_table.render());
    println!("T_F distribution ranking:");
    println!("{}", demo.tf_table.render());
    emit(cli, "fit_ta.csv", &demo.ta_table.to_csv());
    emit(cli, "fit_tf.csv", &demo.tf_table.to_csv());
}

fn ablations(cli: &Cli) {
    let mut cfg = AblationConfig::default();
    scale!(cfg, cli: smoke, nfe, replicates, seed, jobs);
    let runs: Vec<(&str, TextTable)> = vec![
        ("ablation_archive", ablation_archive(&cfg)),
        ("ablation_operators", ablation_operators(&cfg)),
        ("ablation_restarts", ablation_restarts(&cfg)),
        ("ablation_contention", ablation_contention(&cfg)),
        ("ablation_variance", ablation_variance(&cfg)),
        ("ablation_ta_breakdown", ablation_ta_breakdown(&cfg)),
    ];
    for (name, table) in runs {
        println!("{name}:");
        println!("{}", table.render());
        emit(cli, &format!("{name}.csv"), &table.to_csv());
    }
}

fn advise(cli: &Cli) {
    // §VI/§VII: use the simulation model to size the topology.
    let budget = 1024u32;
    let nfe = cli.nfe.unwrap_or(50_000);
    let mut table = TextTable::new(vec![
        "T_F (s)",
        "best single-master P",
        "its efficiency",
        "best islands",
        "procs/island",
        "island efficiency",
    ]);
    for tf in [0.001, 0.01, 0.1] {
        let timing = TimingModel::controlled_delay(tf, 0.1, 0.000_006, 0.000_030);
        let single = recommend_processor_count(timing, budget, nfe, 0.0, cli.seed.unwrap_or(9));
        let part = recommend_partition(timing, budget, nfe, cli.seed.unwrap_or(9));
        table.row(vec![
            format!("{tf}"),
            single.processors.to_string(),
            format!("{:.2}", single.efficiency),
            part.islands.to_string(),
            part.processors_per_island.to_string(),
            format!("{:.2}", part.efficiency),
        ]);
    }
    println!("topology advice for a {budget}-processor budget (T_A = 30us, T_C = 6us, N = {nfe}):");
    println!("{}", table.render());
    emit(cli, "advise.csv", &table.to_csv());
}

fn dynamics(cli: &Cli) {
    let mut cfg = DynamicsConfig::default();
    scale!(cfg, cli: smoke, nfe, seed, jobs);
    let trajs = run_dynamics(&cfg);
    println!(
        "algorithm dynamics on {} (T_F = {}s, N = {}):",
        cfg.problem.name(),
        cfg.t_f,
        cfg.evaluations
    );
    let table = render_dynamics_summary(&trajs);
    println!("{}", table.render());
    emit(cli, "dynamics_summary.csv", &table.to_csv());
    for t in &trajs {
        emit(cli, &format!("dynamics_p{}.csv", t.processors), &t.to_csv());
    }
}

fn serve_master(cli: &Cli) {
    let listen = required_addr(cli.listen.as_deref(), &LISTEN);
    let workers = cli.workers;
    let nfe = cli.nfe.unwrap_or(500);
    let seed = cli.seed.unwrap_or(42);
    let problem = resolve_problem(&cli.problem).unwrap_or_else(|| {
        eprintln!("unknown problem {:?} (try dtlz2-5)", cli.problem);
        std::process::exit(2);
    });
    let borg = BorgConfig::new(problem.num_objectives(), 0.06);
    let rec = InMemoryRecorder::metrics_only();
    let ring = Arc::new(FlightRecorder::new(4096));
    if let Some(path) = &cli.flight_out {
        install_panic_dump(&ring, path);
    }
    let frec = WithFlight::new(&rec, &ring);
    if cli.chaos {
        // Pinned-timing chaos mode: the DES fault oracle drives a
        // real master whose faults the proxy enacts on the wire.
        let config = VirtualConfig {
            processors: workers as u32 + 1,
            max_nfe: nfe,
            t_f: Dist::normal_cv(0.001, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
            seed,
        };
        let faults = FaultConfig {
            crash_rate: cli.crash_rate,
            drop_rate: cli.drop_rate,
            duplicate_rate: cli.duplicate_rate,
        };
        let chaos = ChaosConfig {
            listen,
            in_process_workers: 0,
        };
        let run = with_optional_tap(cli.live.as_deref(), &rec, || {
            run_chaos_loopback(
                borg,
                &config,
                &faults,
                &chaos,
                &cli.problem,
                &resolve_problem,
                &frec,
            )
        });
        let result = or_exit(run, "chaos serve failed");
        println!(
            "serve summary: mode=chaos nfe={} archive={} elapsed={:.6} \
             deaths_detected={} reissues={} wasted_nfe={} wire_results={} \
             wire_duplicates={} wire_faults={}",
            result.run.engine.nfe(),
            result.run.engine.archive().len(),
            result.run.outcome.elapsed,
            result.run.fault_log.detected(),
            result.run.fault_log.reissues,
            result.run.fault_log.wasted_nfe,
            result.wire_results,
            result.wire_duplicates,
            result.wire_log.injected(),
        );
        finish_observability(cli, &rec, &ring, "master", None);
        write_net_metrics(cli, &rec, "serve-chaos");
        if let Some(err) = &result.degraded {
            eprintln!("run degraded to local evaluation: {err}");
            std::process::exit(1);
        }
    } else {
        let mut scfg = ServeConfig::new(listen, workers, nfe, seed);
        scfg.problem_name = cli.problem.clone();
        scfg.eval_delay = Duration::from_micros(cli.eval_delay_us);
        scfg.reissue_timeout = cli.reissue_timeout;
        let run = with_optional_tap(cli.live.as_deref(), &rec, || {
            serve(&*problem, borg, &scfg, &frec)
        });
        let report = or_exit(run, "serve failed");
        println!(
            "serve summary: mode=real nfe={} archive={} elapsed={:.3} \
             deaths_detected={} reissues={} wire_results={} wire_duplicates={} \
             wire_heartbeats={}",
            report.engine.nfe(),
            report.engine.archive().len(),
            report.elapsed,
            report.fault_log.injected(),
            report.fault_log.reissues,
            report.wire_results,
            report.wire_duplicates,
            report.wire_heartbeats,
        );
        finish_observability(cli, &rec, &ring, "master", None);
        write_net_metrics(cli, &rec, "serve");
    }
}

fn worker(cli: &Cli) {
    let connect = required_addr(cli.connect.as_deref(), &CONNECT);
    let opts = WorkerOptions {
        connect,
        ..WorkerOptions::default()
    };
    let rec = InMemoryRecorder::metrics_only();
    let ring = Arc::new(FlightRecorder::new(4096));
    if let Some(path) = &cli.flight_out {
        install_panic_dump(&ring, path);
    }
    let frec = WithFlight::new(&rec, &ring);
    let report = or_exit(run_worker(&opts, &resolve_problem, &frec), "worker failed");
    println!(
        "worker summary: worker={} evaluated={} heartbeats={}",
        report.worker, report.evaluated, report.heartbeats_sent,
    );
    finish_observability(
        cli,
        &rec,
        &ring,
        &format!("worker{}", report.worker),
        Some(report.worker),
    );
    write_net_metrics(cli, &rec, "worker");
}

fn tail(cli: &Cli) {
    let connect = required_addr(cli.connect.as_deref(), &CONNECT);
    let mut backoff = Backoff::default_schedule();
    let stream = or_exit(
        connect_with_backoff(&connect, &mut backoff, Duration::from_millis(100)),
        &format!("cannot reach live tap {connect}"),
    );
    let mut conn = Conn::new(stream);
    println!(
        "{:>6} {:>9} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "tick", "t(s)", "results", "reissue", "outst", "frames/s", "util"
    );
    let mut shown = 0u64;
    let mut prev_at: Option<f64> = None;
    while shown < cli.ticks {
        match conn.recv() {
            Ok(Some(Msg::Tap { seq, at, jsonl })) => {
                let results = tap_value(&jsonl, "counter", "net.results").unwrap_or(0.0);
                let reissues = tap_value(&jsonl, "counter", "engine.reissues").unwrap_or(0.0);
                let frames = tap_value(&jsonl, "counter", "net.frames_sent").unwrap_or(0.0)
                    + tap_value(&jsonl, "counter", "net.frames_received").unwrap_or(0.0);
                let outstanding = tap_value(&jsonl, "gauge", "engine.outstanding").unwrap_or(0.0);
                let idle = tap_value(&jsonl, "gauge", "engine.idle_workers").unwrap_or(0.0);
                let dt = prev_at.map_or(0.0, |p| at - p);
                prev_at = Some(at);
                let fps = if dt > 0.0 { frames / dt } else { 0.0 };
                // Busy-worker estimate: in-flight work over the
                // pool the master believes is available.
                let pool = outstanding + idle;
                let util = if pool > 0.0 { outstanding / pool } else { 0.0 };
                println!(
                    "{seq:>6} {at:>9.2} {results:>8} {reissues:>8} {outstanding:>8} {fps:>9.1} {util:>8.2}"
                );
                shown += 1;
            }
            Ok(Some(_)) => {}
            // A read timeout between tap ticks; keep waiting.
            Ok(None) => {}
            Err(_) => {
                eprintln!("tap closed after {shown} frames");
                break;
            }
        }
    }
}

fn trace_merge(cli: &Cli) {
    if cli.rest.is_empty() {
        eprintln!("trace-merge needs shard paths: borg-exp trace-merge SHARD... --out FILE");
        std::process::exit(2);
    }
    let shards: Vec<TraceShard> = cli
        .rest
        .iter()
        .map(|p| {
            let text = or_exit(
                std::fs::read_to_string(p),
                &format!("cannot read shard {p}"),
            );
            or_exit(TraceShard::from_jsonl(&text), &format!("bad shard {p}"))
        })
        .collect();
    let merged = or_exit(merge_shards(&shards), "merge failed");
    let out = if cli.out.extension().is_some_and(|e| e == "json") {
        cli.out.clone()
    } else {
        cli.out.join("trace_merged.json")
    };
    write_file(&out, &merged.chrome_json()).expect("write merged trace");
    println!(
        "merged {} shards: {} eval chains ({} incomplete)",
        shards.len(),
        merged.chains.len(),
        merged.incomplete,
    );
    for (w, off) in &merged.offsets {
        let samples = merged.clock_samples.get(w).copied().unwrap_or(0);
        println!("  worker {w}: clock offset {off:+.6}s vs master ({samples} probe samples)");
    }
    println!(
        "wrote {} (open in chrome://tracing or ui.perfetto.dev)",
        out.display()
    );
}

/// Extracts the `value` of a named metric from one stable-schema tap
/// JSONL payload (hand-rolled scan; the workspace has no serde).
fn tap_value(jsonl: &str, kind: &str, name: &str) -> Option<f64> {
    let needle = format!("{{\"type\":\"{kind}\",\"name\":\"{name}\",");
    let line = jsonl.lines().find(|l| l.starts_with(&needle))?;
    let idx = line.rfind("\"value\":")?;
    let tail = &line[idx + 8..];
    let end = tail.find(['}', ','])?;
    tail[..end].trim().parse().ok()
}
