//! `borg-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! borg-exp <subcommand> [flags]
//!
//! Subcommands:
//!   table2      Table II  (experimental vs analytical vs simulation model)
//!   fig1        Figure 1  (synchronous timeline)
//!   fig2        Figure 2  (asynchronous timeline)
//!   fig3        Figure 3  (hypervolume speedup, DTLZ2)
//!   fig4        Figure 4  (hypervolume speedup, UF11)
//!   fig5        Figure 5  (sync vs async efficiency heatmaps)
//!   bounds      Eqs. 3–4 processor-count bounds
//!   fit         §IV-B distribution-fitting pipeline on this machine
//!   ablations   DESIGN.md §5 ablation studies
//!   faults      fault-injection sweep (failure rate × P, self-healing master)
//!   serve       networked master: listen, register workers, run a budget
//!   worker      networked worker: connect to a master and evaluate
//!   tail        subscribe to a serving master's live metrics tap
//!   trace-merge merge per-process trace shards into one Chrome trace
//!   all         everything above (excluding serve/worker/tail/trace-merge)
//!
//! Flags:
//!   --out DIR         output directory (default ./results)
//!   --nfe N           evaluations per run (overrides defaults)
//!   --replicates R    replicates per configuration
//!   --seed S          root seed
//!   --jobs N          worker threads for replicate sweeps (default: all
//!                     cores; 1 = serial; the fan-out is deterministic —
//!                     see README "Parallel experiment runner")
//!   --smoke           tiny scale (CI)
//!   --full            paper scale (hours)
//!   --trace-out FILE  also run the three-executor trace bundle and write
//!                     Chrome-trace JSON (open in chrome://tracing or
//!                     https://ui.perfetto.dev)
//!   --metrics-out FILE  write per-cell metrics as JSON Lines (table2:
//!                     empirical T_F/T_C/T_A histograms, engine counters,
//!                     master occupancy; serve/worker: net.* counters)
//!
//! Networked flags (serve/worker; see README "Networked deployment"):
//!   --listen ADDR        serve: endpoint (`tcp:HOST:PORT` / `unix:PATH`)
//!   --connect ADDR       worker: master (or chaos proxy) endpoint
//!   --workers N          serve: registrations to wait for (default 2)
//!   --problem NAME       problem announced to workers (default dtlz2-5)
//!   --eval-delay-us N    artificial per-evaluation delay (keeps smoke
//!                        runs killable mid-flight)
//!   --reissue-timeout S  serve: wall-clock reissue deadline in seconds
//!   --chaos              serve: loopback chaos mode — pinned virtual
//!                        timing, seeded fault plan enacted on the wire
//!   --crash-rate F       chaos: per-worker crash probability (default 0.25)
//!   --drop-rate F        chaos: per-result drop probability (default 0.05)
//!   --duplicate-rate F   chaos: per-result duplication probability (0.02)
//!
//! Observability flags (see README "Distributed tracing & flight
//! recorder"):
//!   --live ADDR          serve: stream live MetricsSnapshot deltas to
//!                        subscribers on this endpoint (`borg-exp tail`)
//!   --flight-out FILE    serve/worker: dump the black-box flight
//!                        recorder (deterministic JSONL) when the run
//!                        ends, a worker dies, or the process panics
//!   --trace-shard FILE   serve/worker: write this process's trace-edge
//!                        shard (JSONL) for `borg-exp trace-merge`
//!   --ticks N            tail: tap frames to render before exiting (8)
//!
//! trace-merge usage:
//!   borg-exp trace-merge SHARD... --out FILE   (master shard + one per
//!   worker; writes a merged cross-process Chrome trace with per-eval
//!   t_c_out / t_f / t_c_back decomposition on the master clock)
//! ```

use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_desim::fault::FaultConfig;
use borg_experiments::ablation::{
    ablation_archive, ablation_contention, ablation_operators, ablation_restarts,
    ablation_variance, AblationConfig,
};
use borg_experiments::bounds::{paper_bounds, render_bounds};
use borg_experiments::dynamics::{render_dynamics_summary, run_dynamics, DynamicsConfig};
use borg_experiments::faults::{render_faults, run_faults, FaultsConfig};
use borg_experiments::fitdemo::{run_fit_demo, FitDemoConfig};
use borg_experiments::heatmap::{run_figure5, HeatmapConfig};
use borg_experiments::hvspeedup::{render_panel, run_figure, HvSpeedupConfig};
use borg_experiments::islands_exp::{render_islands, run_islands_experiment, IslandsExpConfig};
use borg_experiments::report::write_output;
use borg_experiments::suite::PaperProblem;
use borg_experiments::table2::{render_table2, run_table2_with, Table2Config};
use borg_experiments::timeline::{figure1, figure2, TimelineConfig};
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

#[derive(Debug, Clone)]
struct Cli {
    command: String,
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
    workers: Option<usize>,
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

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing subcommand; try --help")?;
    let mut cli = Cli {
        command,
        out: PathBuf::from("results"),
        nfe: None,
        replicates: None,
        seed: None,
        jobs: 0,
        smoke: false,
        full: false,
        trace_out: None,
        metrics_out: None,
        listen: None,
        connect: None,
        workers: None,
        problem: "dtlz2-5".to_string(),
        eval_delay_us: 0,
        reissue_timeout: None,
        chaos: false,
        crash_rate: 0.25,
        drop_rate: 0.05,
        duplicate_rate: 0.02,
        live: None,
        flight_out: None,
        trace_shard: None,
        ticks: 8,
        rest: Vec::new(),
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => cli.out = PathBuf::from(args.next().ok_or("--out needs a value")?),
            "--nfe" => {
                cli.nfe = Some(
                    args.next()
                        .ok_or("--nfe needs a value")?
                        .parse()
                        .map_err(|e| format!("--nfe: {e}"))?,
                )
            }
            "--replicates" => {
                cli.replicates = Some(
                    args.next()
                        .ok_or("--replicates needs a value")?
                        .parse()
                        .map_err(|e| format!("--replicates: {e}"))?,
                )
            }
            "--seed" => {
                cli.seed = Some(
                    args.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--jobs" => {
                cli.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--smoke" => cli.smoke = true,
            "--full" => cli.full = true,
            "--trace-out" => {
                cli.trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a value")?,
                ))
            }
            "--metrics-out" => {
                cli.metrics_out = Some(PathBuf::from(
                    args.next().ok_or("--metrics-out needs a value")?,
                ))
            }
            "--listen" => cli.listen = Some(args.next().ok_or("--listen needs a value")?),
            "--connect" => cli.connect = Some(args.next().ok_or("--connect needs a value")?),
            "--workers" => {
                cli.workers = Some(
                    args.next()
                        .ok_or("--workers needs a value")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--problem" => cli.problem = args.next().ok_or("--problem needs a value")?,
            "--eval-delay-us" => {
                cli.eval_delay_us = args
                    .next()
                    .ok_or("--eval-delay-us needs a value")?
                    .parse()
                    .map_err(|e| format!("--eval-delay-us: {e}"))?
            }
            "--reissue-timeout" => {
                cli.reissue_timeout = Some(
                    args.next()
                        .ok_or("--reissue-timeout needs a value")?
                        .parse()
                        .map_err(|e| format!("--reissue-timeout: {e}"))?,
                )
            }
            "--chaos" => cli.chaos = true,
            "--crash-rate" => {
                cli.crash_rate = args
                    .next()
                    .ok_or("--crash-rate needs a value")?
                    .parse()
                    .map_err(|e| format!("--crash-rate: {e}"))?
            }
            "--drop-rate" => {
                cli.drop_rate = args
                    .next()
                    .ok_or("--drop-rate needs a value")?
                    .parse()
                    .map_err(|e| format!("--drop-rate: {e}"))?
            }
            "--duplicate-rate" => {
                cli.duplicate_rate = args
                    .next()
                    .ok_or("--duplicate-rate needs a value")?
                    .parse()
                    .map_err(|e| format!("--duplicate-rate: {e}"))?
            }
            "--live" => cli.live = Some(args.next().ok_or("--live needs a value")?),
            "--flight-out" => {
                cli.flight_out = Some(PathBuf::from(
                    args.next().ok_or("--flight-out needs a value")?,
                ))
            }
            "--trace-shard" => {
                cli.trace_shard = Some(PathBuf::from(
                    args.next().ok_or("--trace-shard needs a value")?,
                ))
            }
            "--ticks" => {
                cli.ticks = args
                    .next()
                    .ok_or("--ticks needs a value")?
                    .parse()
                    .map_err(|e| format!("--ticks: {e}"))?
            }
            other if !other.starts_with("--") => cli.rest.push(other.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: borg-exp <table2|fig1|fig2|fig3|fig4|fig5|bounds|fit|ablations|faults|islands|dynamics|advise|serve|worker|tail|trace-merge|all> [--out DIR] [--nfe N] [--replicates R] [--seed S] [--jobs N] [--smoke|--full]");
            std::process::exit(2);
        }
    };
    let commands: Vec<&str> = if cli.command == "all" {
        vec![
            "bounds",
            "fig1",
            "fig2",
            "fig5",
            "table2",
            "fig3",
            "fig4",
            "fit",
            "ablations",
            "faults",
            "islands",
            "dynamics",
            "advise",
        ]
    } else if cli.command == "--help" || cli.command == "help" {
        eprintln!("usage: borg-exp <table2|fig1|fig2|fig3|fig4|fig5|bounds|fit|ablations|faults|islands|dynamics|advise|serve|worker|tail|trace-merge|all> [--out DIR] [--nfe N] [--replicates R] [--seed S] [--jobs N] [--smoke|--full]");
        return;
    } else {
        vec![cli.command.as_str()]
    };
    for cmd in commands {
        println!("==> {cmd}");
        run_command(cmd, &cli);
    }
    if let Some(path) = &cli.trace_out {
        let mut tcfg = TraceBundleConfig::default();
        if cli.smoke {
            tcfg.processors = 4;
            tcfg.evaluations = 80;
        }
        if let Some(s) = cli.seed {
            tcfg.seed = s;
        }
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

/// Parses a wire address or exits with usage.
fn parse_addr(s: &str) -> NetAddr {
    NetAddr::parse(s).unwrap_or_else(|e| {
        eprintln!("bad address {s:?}: {e}");
        std::process::exit(2);
    })
}

/// For chaos mode the proxy needs a second, master-facing endpoint
/// derived from the public one.
fn derive_master_addr(public: &NetAddr) -> NetAddr {
    match public {
        NetAddr::Unix(path) => {
            let mut os = path.as_os_str().to_os_string();
            os.push(".master");
            NetAddr::Unix(PathBuf::from(os))
        }
        NetAddr::Tcp(_) => NetAddr::Tcp("127.0.0.1:0".to_string()),
    }
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
    let listener = NetListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot bind live tap {addr}: {e}");
        std::process::exit(1);
    });
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

fn run_command(cmd: &str, cli: &Cli) {
    match cmd {
        "table2" => {
            let mut cfg = Table2Config::default();
            if cli.smoke {
                cfg = cfg.smoke();
            }
            if cli.full {
                cfg = cfg.paper_scale();
            }
            if let Some(n) = cli.nfe {
                cfg.evaluations = n;
            }
            if let Some(r) = cli.replicates {
                cfg.replicates = r;
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
            cfg.jobs = cli.jobs;
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
            write_output(&cli.out, "table2.csv", &table.to_csv()).expect("write table2.csv");
            println!("wrote {}", cli.out.join("table2.csv").display());
            if let Some(path) = &cli.metrics_out {
                write_file(path, &metrics).expect("write metrics jsonl");
                println!("wrote {}", path.display());
            }
        }
        "fig1" | "fig2" => {
            let cfg = TimelineConfig::default();
            let t = if cmd == "fig1" {
                figure1(&cfg)
            } else {
                figure2(&cfg)
            };
            println!("{}", t.ascii);
            println!(
                "elapsed {:.4}s, master utilization {:.2}",
                t.elapsed, t.master_utilization
            );
            write_output(&cli.out, &format!("{cmd}_timeline.csv"), &t.csv).expect("write timeline");
            write_output(&cli.out, &format!("{cmd}_timeline.txt"), &t.ascii)
                .expect("write timeline");
        }
        "fig3" | "fig4" => {
            let problem = if cmd == "fig3" {
                PaperProblem::Dtlz2
            } else {
                PaperProblem::Uf11
            };
            let mut cfg = HvSpeedupConfig::new(problem);
            if cli.smoke {
                cfg = cfg.smoke();
            }
            if cli.full {
                cfg.evaluations = 100_000;
                cfg.replicates = 50;
            }
            if let Some(n) = cli.nfe {
                cfg.evaluations = n;
            }
            if let Some(r) = cli.replicates {
                cfg.replicates = r;
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
            cfg.jobs = cli.jobs;
            for panel in run_figure(&cfg) {
                let table = render_panel(&panel);
                println!(
                    "{} speedup to hypervolume threshold, T_F = {}s",
                    panel.problem, panel.t_f
                );
                println!("{}", table.render());
                let name = format!("{cmd}_{}_tf{}.csv", panel.problem.to_lowercase(), panel.t_f);
                write_output(&cli.out, &name, &table.to_csv()).expect("write panel");
            }
        }
        "fig5" => {
            let mut cfg = HeatmapConfig::default();
            if cli.smoke {
                cfg = cfg.smoke();
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
            cfg.jobs = cli.jobs;
            let surfaces = run_figure5(&cfg);
            let sync_art =
                surfaces.to_ascii(&surfaces.sync, "Figure 5a: synchronous efficiency (Eq. 6)");
            let async_art = surfaces.to_ascii(
                &surfaces.async_,
                "Figure 5b: asynchronous efficiency (simulation model)",
            );
            println!("{sync_art}\n{async_art}");
            write_output(&cli.out, "fig5_sync.csv", &surfaces.to_csv(&surfaces.sync)).unwrap();
            write_output(
                &cli.out,
                "fig5_async.csv",
                &surfaces.to_csv(&surfaces.async_),
            )
            .unwrap();
            write_output(&cli.out, "fig5.txt", &format!("{sync_art}\n{async_art}")).unwrap();
            // Also emit the Table II parameter ordering (see DESIGN.md §4).
            let mut alt_cfg = HeatmapConfig::default().table2_params();
            alt_cfg.jobs = cli.jobs;
            let alt = run_figure5(&alt_cfg);
            write_output(
                &cli.out,
                "fig5_sync_table2params.csv",
                &alt.to_csv(&alt.sync),
            )
            .unwrap();
            write_output(
                &cli.out,
                "fig5_async_table2params.csv",
                &alt.to_csv(&alt.async_),
            )
            .unwrap();
        }
        "bounds" => {
            let table = render_bounds(&paper_bounds());
            println!("{}", table.render());
            write_output(&cli.out, "bounds.csv", &table.to_csv()).unwrap();
        }
        "fit" => {
            let mut cfg = FitDemoConfig::default();
            if let Some(n) = cli.nfe {
                cfg.evaluations = n;
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
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
            write_output(&cli.out, "fit_ta.csv", &demo.ta_table.to_csv()).unwrap();
            write_output(&cli.out, "fit_tf.csv", &demo.tf_table.to_csv()).unwrap();
        }
        "ablations" => {
            let mut cfg = AblationConfig::default();
            if cli.smoke {
                cfg = cfg.smoke();
            }
            if let Some(n) = cli.nfe {
                cfg.evaluations = n;
            }
            if let Some(r) = cli.replicates {
                cfg.replicates = r;
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
            cfg.jobs = cli.jobs;
            let runs: Vec<(&str, borg_experiments::report::TextTable)> = vec![
                ("ablation_archive", ablation_archive(&cfg)),
                (
                    "ablation_baseline",
                    borg_experiments::ablation::ablation_baseline(&cfg),
                ),
                ("ablation_operators", ablation_operators(&cfg)),
                ("ablation_restarts", ablation_restarts(&cfg)),
                ("ablation_contention", ablation_contention(&cfg)),
                ("ablation_variance", ablation_variance(&cfg)),
                (
                    "ablation_ta_breakdown",
                    borg_experiments::ablation::ablation_ta_breakdown(&cfg),
                ),
            ];
            for (name, table) in runs {
                println!("{name}:");
                println!("{}", table.render());
                write_output(&cli.out, &format!("{name}.csv"), &table.to_csv()).unwrap();
            }
        }
        "faults" => {
            let mut cfg = FaultsConfig::default();
            if cli.smoke {
                cfg = cfg.smoke();
            }
            if let Some(n) = cli.nfe {
                cfg.evaluations = n;
            }
            if let Some(r) = cli.replicates {
                cfg.replicates = r;
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
            cfg.jobs = cli.jobs;
            let rows = run_faults(&cfg);
            let table = render_faults(&rows);
            println!(
                "fault-injection sweep on {} (T_F = {}s, N = {}; f = crash rate + 1% msg loss):",
                cfg.problem.name(),
                cfg.tf_mean,
                cfg.evaluations
            );
            println!("{}", table.render());
            write_output(&cli.out, "faults.csv", &table.to_csv()).expect("write faults.csv");
            println!("wrote {}", cli.out.join("faults.csv").display());
        }
        "advise" => {
            // §VI/§VII: use the simulation model to size the topology.
            use borg_experiments::report::TextTable;
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
                let single =
                    recommend_processor_count(timing, budget, nfe, 0.0, cli.seed.unwrap_or(9));
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
            write_output(&cli.out, "advise.csv", &table.to_csv()).unwrap();
        }
        "dynamics" => {
            let mut cfg = DynamicsConfig::default();
            if cli.smoke {
                cfg = cfg.smoke();
            }
            if let Some(n) = cli.nfe {
                cfg.evaluations = n;
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
            cfg.jobs = cli.jobs;
            let trajs = run_dynamics(&cfg);
            println!(
                "algorithm dynamics on {} (T_F = {}s, N = {}):",
                cfg.problem.name(),
                cfg.t_f,
                cfg.evaluations
            );
            let table = render_dynamics_summary(&trajs);
            println!("{}", table.render());
            write_output(&cli.out, "dynamics_summary.csv", &table.to_csv()).unwrap();
            for t in &trajs {
                write_output(
                    &cli.out,
                    &format!("dynamics_p{}.csv", t.processors),
                    &t.to_csv(),
                )
                .unwrap();
            }
        }
        "islands" => {
            let mut cfg = IslandsExpConfig::default();
            if cli.smoke {
                cfg = cfg.smoke();
            }
            if let Some(n) = cli.nfe {
                cfg.evaluations = n;
            }
            if let Some(s) = cli.seed {
                cfg.seed = s;
            }
            let rows = run_islands_experiment(&cfg);
            let table = render_islands(&rows);
            println!(
                "island topology on {} ({} total processors, T_F = {}s):",
                cfg.problem.name(),
                cfg.total_processors,
                cfg.t_f
            );
            println!("{}", table.render());
            write_output(&cli.out, "islands.csv", &table.to_csv()).unwrap();
        }
        "serve" => {
            let listen = match &cli.listen {
                Some(a) => parse_addr(a),
                None => {
                    eprintln!("serve needs --listen (tcp:HOST:PORT or unix:PATH)");
                    std::process::exit(2);
                }
            };
            let workers = cli.workers.unwrap_or(2);
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
                    ..FaultConfig::default()
                };
                let chaos = ChaosConfig {
                    master_listen: derive_master_addr(&listen),
                    listen,
                    in_process_workers: 0,
                    read_timeout: Duration::from_millis(25),
                    result_wait: Duration::from_secs(30),
                    reset_on_crash: true,
                };
                let result = with_optional_tap(cli.live.as_deref(), &rec, || {
                    run_chaos_loopback(
                        &*problem,
                        borg,
                        &config,
                        &faults,
                        &chaos,
                        &cli.problem,
                        &resolve_problem,
                        &frec,
                    )
                })
                .unwrap_or_else(|e| {
                    eprintln!("chaos serve failed: {e}");
                    std::process::exit(1);
                });
                println!(
                    "serve summary: mode=chaos nfe={} archive={} elapsed={:.6} \
                     deaths_detected={} reissues={} wasted_nfe={} wire_results={} \
                     wire_duplicates={} wire_faults={} worker_reconnects={}",
                    result.engine.nfe(),
                    result.engine.archive().solutions().len(),
                    result.outcome.elapsed,
                    result.fault_log.detected(),
                    result.fault_log.reissues,
                    result.fault_log.wasted_nfe,
                    result.wire_results,
                    result.wire_duplicates,
                    result.wire_log.injected(),
                    result.worker_reconnects,
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
                let report = with_optional_tap(cli.live.as_deref(), &rec, || {
                    serve(&*problem, borg, &scfg, &frec)
                })
                .unwrap_or_else(|e| {
                    eprintln!("serve failed: {e}");
                    std::process::exit(1);
                });
                println!(
                    "serve summary: mode=real nfe={} archive={} elapsed={:.3} \
                     deaths_detected={} reissues={} wire_results={} wire_duplicates={} \
                     wire_heartbeats={}",
                    report.engine.nfe(),
                    report.engine.archive().solutions().len(),
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
        "worker" => {
            let connect = match &cli.connect {
                Some(a) => parse_addr(a),
                None => {
                    eprintln!("worker needs --connect (tcp:HOST:PORT or unix:PATH)");
                    std::process::exit(2);
                }
            };
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
            let report = run_worker(&opts, &resolve_problem, &frec).unwrap_or_else(|e| {
                eprintln!("worker failed: {e}");
                std::process::exit(1);
            });
            println!(
                "worker summary: worker={} evaluated={} reconnects={} heartbeats={}",
                report.worker, report.evaluated, report.reconnects, report.heartbeats_sent,
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
        "tail" => {
            let connect = match &cli.connect {
                Some(a) => parse_addr(a),
                None => {
                    eprintln!("tail needs --connect (the master's --live endpoint)");
                    std::process::exit(2);
                }
            };
            let mut backoff = Backoff::default_schedule();
            let stream = connect_with_backoff(&connect, &mut backoff, Duration::from_millis(100))
                .unwrap_or_else(|e| {
                    eprintln!("cannot reach live tap {connect}: {e}");
                    std::process::exit(1);
                });
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
                        let reissues =
                            tap_value(&jsonl, "counter", "engine.reissues").unwrap_or(0.0);
                        let frames = tap_value(&jsonl, "counter", "net.frames_sent").unwrap_or(0.0)
                            + tap_value(&jsonl, "counter", "net.frames_received").unwrap_or(0.0);
                        let outstanding =
                            tap_value(&jsonl, "gauge", "engine.outstanding").unwrap_or(0.0);
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
        "trace-merge" => {
            if cli.rest.is_empty() {
                eprintln!(
                    "trace-merge needs shard paths: borg-exp trace-merge SHARD... --out FILE"
                );
                std::process::exit(2);
            }
            let shards: Vec<TraceShard> = cli
                .rest
                .iter()
                .map(|p| {
                    let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
                        eprintln!("cannot read shard {p}: {e}");
                        std::process::exit(1);
                    });
                    TraceShard::from_jsonl(&text).unwrap_or_else(|e| {
                        eprintln!("bad shard {p}: {e}");
                        std::process::exit(1);
                    })
                })
                .collect();
            let merged = merge_shards(&shards).unwrap_or_else(|e| {
                eprintln!("merge failed: {e}");
                std::process::exit(1);
            });
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
                println!(
                    "  worker {w}: clock offset {off:+.6}s vs master ({samples} probe samples)"
                );
            }
            println!(
                "wrote {} (open in chrome://tracing or ui.perfetto.dev)",
                out.display()
            );
        }
        other => {
            eprintln!("unknown subcommand {other}");
            std::process::exit(2);
        }
    }
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
