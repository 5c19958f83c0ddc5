//! `borg-benchmark`: the repo's benchmark. See README.md in this directory
//! for the workloads, the metrics and the layer → metric map.
//!
//! ```text
//! borg-benchmark [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! borg-benchmark selfcheck [--seed S] [--seconds T]
//! borg-benchmark segment --workload W --seed S [--smoke]      (internal)
//! ```
//!
//! `run` with `--trace 0` measures the end-to-end metrics from untraced
//! segments — fresh child processes, as many as fit in `--seconds`, the best
//! one reported; with `--trace 1` it runs the traced pass instead and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod affinity;
mod alloc;
mod layers;
mod report;
mod segment;
mod spans;
mod stats;
mod workloads;

use report::{MetricDef, Values, END_TO_END, PER_LAYER};
use segment::SegmentReport;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{SegmentOptions, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 7;
/// Seconds one workload measures for when none are given; `BENCHMARK.json`
/// passes the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Segments every run makes at least, however short `--seconds` is.
const MIN_SEGMENTS: usize = 2;

#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().cloned().unwrap_or_default();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke && !seconds_given {
        // No timing assertions under --smoke: measure for no longer than
        // the two segments every run makes anyway.
        args.seconds = 0.0;
    }
    Ok(args)
}

/// Best evaluations/s over the segments. Where every segment cut its timed
/// region into the same windows (every workload but the sweep), the best is
/// taken window by window — N ÷ Σⱼ minᵢ tᵢⱼ, the lower envelope of the k
/// repeats — so a noise burst costs one window of one segment; elsewhere it
/// is the fastest whole segment.
fn best_evals_per_s(segments: &[SegmentReport]) -> f64 {
    let windows = segments.first().map_or(0, |s| s.windows_ns.len());
    let attempted = segments.first().map_or(0, |s| s.attempted);
    let comparable = windows > 0
        && segments
            .iter()
            .all(|s| s.windows_ns.len() == windows && s.attempted == attempted);
    if !comparable {
        let rates: Vec<f64> = segments.iter().map(|s| s.evals_per_s).collect();
        return stats::max(&rates);
    }
    let envelope_ns: u64 = (0..windows)
        .map(|j| segments.iter().map(|s| s.windows_ns[j]).min().unwrap_or(0))
        .sum();
    attempted as f64 / (envelope_ns as f64 / 1e9)
}

/// The end-to-end metrics of one workload over its segments: the best
/// for the three timings (this host's noise only ever adds time), medians
/// for the rest.
fn end_to_end_values(workload: Workload, segments: &[SegmentReport]) -> Values {
    let col = |f: fn(&SegmentReport) -> f64| segments.iter().map(f).collect::<Vec<f64>>();
    let mut v = Values::default();
    let rate = best_evals_per_s(segments);
    v.set("evals_per_s", rate);
    v.set(
        "efficiency",
        workload
            .efficiency_at(rate)
            .unwrap_or_else(|| stats::max(&col(|s| s.efficiency))),
    );
    v.set("hv_ratio", stats::median(&col(|s| s.hv_ratio)));
    v.set("peak_rss_mb", stats::median(&col(|s| s.peak_rss_mb)));
    v.set("setup_s", stats::min(&col(|s| s.setup_s)));
    v
}

/// Everything measured for one workload in one set of runs.
struct WorkloadResult {
    workload: Workload,
    segments: Vec<SegmentReport>,
    values: Values,
}

impl WorkloadResult {
    fn attempted(&self) -> u64 {
        self.segments.iter().map(|s| s.attempted).sum()
    }
    fn failed(&self) -> u64 {
        self.segments.iter().map(|s| s.failed).sum()
    }
    fn correct(&self) -> bool {
        self.segments.iter().all(SegmentReport::correct)
    }
}

/// Runs the untraced segments of `workloads`, round-robin, so that each
/// workload's segments span the whole set (a noisy minute then hits every
/// workload a little instead of one entirely). A workload keeps getting
/// segments while its own measured time plus one more segment fits in
/// `seconds`.
fn run_segments(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<Vec<WorkloadResult>, String> {
    let mut segments: Vec<Vec<SegmentReport>> = vec![Vec::new(); workloads.len()];
    let mut spent = vec![0.0f64; workloads.len()];
    loop {
        let mut progressed = false;
        for (i, &workload) in workloads.iter().enumerate() {
            let done = segments[i].len();
            let mean = if done == 0 {
                0.0
            } else {
                spent[i] / done as f64
            };
            if done >= MIN_SEGMENTS && spent[i] + mean > seconds {
                continue;
            }
            let started = Instant::now();
            let report = segment::spawn(workload, seed, smoke, out_dir)?;
            spent[i] += started.elapsed().as_secs_f64();
            for failure in &report.check_failures {
                eprintln!(
                    "{}: segment {done}: CHECK FAILED: {failure}",
                    workload.name()
                );
            }
            segments[i].push(report);
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    Ok(workloads
        .iter()
        .zip(segments)
        .map(|(&workload, segments)| WorkloadResult {
            workload,
            values: end_to_end_values(workload, &segments),
            segments,
        })
        .collect())
}

fn print_end_to_end(result: &WorkloadResult) {
    let k = result.segments.len();
    println!(
        "== {} — {} segments, {} evaluations attempted, {} failed (failed_ops_share {})",
        result.workload.name(),
        k,
        result.attempted(),
        result.failed(),
        report::format_value(result.failed() as f64 / result.attempted().max(1) as f64),
    );
    println!("{}", report::table_header());
    for def in END_TO_END {
        let value = result.values.get(def.name).unwrap_or(f64::NAN);
        let note = if def.name == "evals_per_s" {
            let rates: Vec<f64> = result.segments.iter().map(|s| s.evals_per_s).collect();
            format!(
                "best of {k}; evals_per_s.median {} evals_per_s.iqr {}",
                report::format_value(stats::median(&rates)),
                report::format_value(stats::iqr(&rates))
            )
        } else {
            String::new()
        };
        println!("{}", report::table_row(def, value, &note));
    }
}

fn print_per_layer(workload: Workload, values: &Values) {
    println!("== {} — traced pass", workload.name());
    println!("{}", report::table_header());
    for def in PER_LAYER {
        println!(
            "{}",
            report::table_row(def, values.get(def.name).unwrap_or(f64::NAN), "")
        );
    }
}

/// Prints the result line: bare — the last line of standard output — when
/// one workload was asked for, labelled when several ran. Returns whether
/// it could be printed.
fn print_result_line(
    label: Option<Workload>,
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> bool {
    match report::result_line(correct, attempted.max(1), failed, defs, values) {
        Ok(line) => {
            match label {
                Some(workload) => println!("{}: {line}", workload.name()),
                None => println!("{line}"),
            }
            true
        }
        Err(e) => {
            eprintln!("borg-benchmark: {e}");
            false
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = args
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    // One workload asked for: its result line is printed bare, last.
    let label = |w: Workload| args.workload.is_none().then_some(w);
    let mut all_correct = true;
    if args.trace {
        for &workload in &workloads {
            let pass =
                layers::traced_pass(workload, args.seed, args.seconds, args.smoke, &args.out_dir)?;
            for failure in &pass.check_failures {
                eprintln!("{}: traced pass: CHECK FAILED: {failure}", workload.name());
            }
            let correct = pass.check_failures.is_empty() && pass.failed == 0;
            print_per_layer(workload, &pass.values);
            all_correct &= correct
                & print_result_line(
                    label(workload),
                    correct,
                    pass.attempted,
                    pass.failed,
                    PER_LAYER,
                    &pass.values,
                );
        }
    } else {
        let results = run_segments(
            &workloads,
            args.seed,
            args.seconds,
            args.smoke,
            &args.out_dir,
        )?;
        for result in &results {
            print_end_to_end(result);
        }
        for result in &results {
            all_correct &= result.correct()
                & print_result_line(
                    label(result.workload),
                    result.correct(),
                    result.attempted(),
                    result.failed(),
                    END_TO_END,
                    &result.values,
                );
        }
    }
    Ok(all_correct)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better), in the metric's own direction.
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    match def.better {
        report::Better::Higher => (first - second) / first,
        report::Better::Lower => (second - first) / first,
    }
}

/// Two full sets of runs on the current tree; fails if any end-to-end
/// metric of any workload differs between the sets, in either direction,
/// by more than its bound — or at all, for the values the deterministic
/// workloads compute (`hv_ratio`, virtual-time `efficiency`).
fn selfcheck(args: &Args) -> Result<bool, String> {
    let set = || {
        run_segments(
            &Workload::ALL,
            args.seed,
            args.seconds,
            args.smoke,
            &args.out_dir,
        )
    };
    let (first, second) = (set()?, set()?);
    let mut ok = true;
    println!(
        "  {:<16} {:<12} {:>14} {:>14} {:>16} {:<6}",
        "workload", "metric", "set 1", "set 2", "set 2 / set 1", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for run in [a, b] {
            if !run.correct() {
                println!("  {}: output checks failed", run.workload.name());
                ok = false;
            }
        }
        for def in END_TO_END {
            let (x, y) = (
                a.values.get(def.name).unwrap_or(f64::NAN),
                b.values.get(def.name).unwrap_or(f64::NAN),
            );
            let bound = def.bound.unwrap_or(0.0);
            let worst = worsening(def, x, y).max(worsening(def, y, x));
            // What a deterministic workload computes, as opposed to times,
            // must repeat to the last digit. NaN (a metric that was not
            // measured) fails either test.
            let exact = a.workload.deterministic() && !matches!(def.unit, "1/s" | "s" | "MB");
            let within = if exact { x == y } else { worst <= bound };
            ok &= within;
            println!(
                "  {:<16} {:<12} {:>14} {:>14} {:>16} {:<6} {}",
                a.workload.name(),
                def.name,
                report::format_value(x),
                report::format_value(y),
                format!("{:.4} (base {})", y / x, report::format_value(x)),
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", bound * 100.0)
                },
                if within { "ok" } else { "DIFFERS" }
            );
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("borg-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Socket files and the traced pass's output go here.
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("borg-benchmark: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let outcome = match args.command.as_str() {
        "run" => run(&args),
        "selfcheck" => selfcheck(&args),
        "segment" => match args.workload {
            Some(workload) => {
                segment::child_main(
                    workload,
                    &SegmentOptions {
                        seed: args.seed,
                        smoke: args.smoke,
                        recorded: false,
                        out_dir: &args.out_dir,
                    },
                );
                Ok(true)
            }
            None => Err("segment needs --workload".to_string()),
        },
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("borg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload wire-saturated --seed 11 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload, Some(Workload::WireSaturated));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (11, 20.0, true, false)
        );
        let b = parse_args(&argv("selfcheck --smoke")).unwrap();
        assert_eq!(
            (b.command.as_str(), b.seed, b.smoke),
            ("selfcheck", DEFAULT_SEED, true)
        );
        assert_eq!(b.seconds, 0.0);
        assert_eq!(
            parse_args(&argv("--smoke --seconds 3")).unwrap().seconds,
            3.0
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
    }

    #[test]
    fn end_to_end_takes_the_best_timings_and_median_costs() {
        let seg = |rate: f64, rss: f64, setup: f64| SegmentReport {
            attempted: 100,
            evals_per_s: rate,
            efficiency: rate / 1000.0,
            hv_ratio: 0.9,
            peak_rss_mb: rss,
            setup_s: setup,
            ..SegmentReport::default()
        };
        let segments = [
            seg(700.0, 10.0, 0.3),
            seg(900.0, 30.0, 0.1),
            seg(800.0, 20.0, 0.2),
        ];
        let v = end_to_end_values(Workload::VirtualP1024, &segments);
        assert_eq!(v.get("evals_per_s"), Some(900.0));
        assert_eq!(v.get("efficiency"), Some(0.9));
        // 900 evals/s × 1 ms ÷ 2 workers.
        let delay = end_to_end_values(Workload::WireDelay1ms, &segments);
        assert_eq!(delay.get("efficiency"), Some(0.45));
        assert_eq!(v.get("peak_rss_mb"), Some(20.0));
        assert_eq!(v.get("setup_s"), Some(0.1));
        assert!(END_TO_END.iter().all(|d| v.get(d.name).is_some()));
    }

    #[test]
    fn windowed_segments_are_combined_window_by_window() {
        let seg = |windows: &[u64]| SegmentReport {
            attempted: 1_000,
            evals_per_s: 1_000.0 / (windows.iter().sum::<u64>() as f64 / 1e9),
            windows_ns: windows.to_vec(),
            ..SegmentReport::default()
        };
        // Each segment has one slow window; the envelope has none.
        let a = seg(&[100_000_000, 900_000_000, 100_000_000]);
        let b = seg(&[500_000_000, 300_000_000, 100_000_000]);
        assert_eq!(best_evals_per_s(&[a.clone(), b.clone()]), 1_000.0 / 0.5);
        // Differing window counts fall back to the fastest whole segment.
        let c = seg(&[400_000_000]);
        assert_eq!(best_evals_per_s(&[a, b, c]), 1_000.0 / 0.4);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let higher = &END_TO_END[0];
        let lower = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 110.0) < 0.0);
        assert!((worsening(lower, 1.0, 1.25) - 0.25).abs() < 1e-12);
        assert!(worsening(lower, 1.0, 0.5) < 0.0);
    }
}
