//! A segment is one fresh child process running a workload's fixed input
//! once. This module is both ends of that: what the child prints and how
//! the parent starts it, times it and reads the report back.

use crate::report::peak_rss_mb;
use crate::workloads::{run_segment, SegmentOptions, SegmentOutcome, Workload};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One segment as the parent sees it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentReport {
    pub attempted: u64,
    pub failed: u64,
    pub evals_per_s: f64,
    pub efficiency: f64,
    pub hv_ratio: f64,
    pub peak_rss_mb: f64,
    /// Segment wall − timed region − output verification: process start,
    /// problem/front construction, bind, pool registration, teardown, exit.
    pub setup_s: f64,
    pub timed_s: f64,
    /// The timed region in windows of equal evaluation count (empty where
    /// the workload has none).
    pub windows_ns: Vec<u64>,
    pub verify_s: f64,
    pub archive_len: u64,
    pub check_failures: Vec<String>,
}

impl SegmentReport {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }
}

/// The child's report: one `key value` line per field, `check_failure`
/// repeated per failed check (the value is the rest of the line).
pub fn render(outcome: &SegmentOutcome, peak_rss_mb: f64) -> String {
    let mut s = String::new();
    let mut line = |k: &str, v: String| {
        s.push_str(k);
        s.push(' ');
        s.push_str(&v);
        s.push('\n');
    };
    line("attempted", outcome.attempted.to_string());
    line("failed", outcome.failed.to_string());
    line("timed_s", format!("{:?}", outcome.timed_s));
    line("verify_s", format!("{:?}", outcome.verify_s));
    line("efficiency", format!("{:?}", outcome.efficiency));
    line("hv_ratio", format!("{:?}", outcome.hv_ratio));
    line("archive_len", outcome.archive_len.to_string());
    line("peak_rss_mb", format!("{peak_rss_mb:?}"));
    if !outcome.windows_ns.is_empty() {
        let windows: Vec<String> = outcome.windows_ns.iter().map(u64::to_string).collect();
        line("windows_ns", windows.join(" "));
    }
    for failure in &outcome.check_failures {
        line("check_failure", failure.replace('\n', " "));
    }
    s
}

/// Parses [`render`]'s output; `wall_s` is the parent's own measurement of
/// the child's lifetime.
pub fn parse(text: &str, wall_s: f64) -> Result<SegmentReport, String> {
    let mut r = SegmentReport::default();
    let mut seen = 0u32;
    for line in text.lines() {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        let num = || {
            value
                .parse::<f64>()
                .map_err(|e| format!("segment report: {key} {value:?}: {e}"))
        };
        let int = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("segment report: {key} {value:?}: {e}"))
        };
        match key {
            "attempted" => r.attempted = int()?,
            "failed" => r.failed = int()?,
            "timed_s" => r.timed_s = num()?,
            "verify_s" => r.verify_s = num()?,
            "efficiency" => r.efficiency = num()?,
            "hv_ratio" => r.hv_ratio = num()?,
            "archive_len" => r.archive_len = int()?,
            "peak_rss_mb" => r.peak_rss_mb = num()?,
            "windows_ns" => {
                r.windows_ns = value
                    .split(' ')
                    .map(|w| {
                        w.parse()
                            .map_err(|e| format!("segment report: window {w:?}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                continue;
            }
            "check_failure" => {
                r.check_failures.push(value.to_string());
                continue;
            }
            _ => continue,
        }
        seen += 1;
    }
    if seen != 8 || r.attempted == 0 {
        return Err(format!("segment report incomplete ({seen}/8 fields)"));
    }
    r.evals_per_s = r.attempted as f64 / r.timed_s;
    r.setup_s = (wall_s - r.timed_s - r.verify_s).max(0.0);
    Ok(r)
}

/// Child side: run the segment and print the report.
pub fn child_main(workload: Workload, opts: &SegmentOptions<'_>) {
    let outcome = run_segment(workload, opts);
    let rss = peak_rss_mb().unwrap_or(0.0);
    print!("{}", render(&outcome, rss));
}

/// Parent side: run one segment of `workload` in a fresh process of this
/// same executable and wait for it.
pub fn spawn(
    workload: Workload,
    seed: u64,
    smoke: bool,
    out_dir: &Path,
) -> Result<SegmentReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("segment")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let started = Instant::now();
    let output = cmd
        .output()
        .map_err(|e| format!("spawning segment {}: {e}", workload.name()))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!(
            "segment {} exited with {}",
            workload.name(),
            output.status
        ));
    }
    parse(&String::from_utf8_lossy(&output.stdout), wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_child_protocol() {
        let outcome = SegmentOutcome {
            attempted: 50_000,
            failed: 0,
            timed_s: 2.5,
            verify_s: 0.25,
            efficiency: 0.8,
            hv_ratio: 0.9274,
            archive_len: 3825,
            windows_ns: vec![1_500_000_000, 1_000_000_000],
            check_failures: vec!["hv_ratio 0.1 below\nfloor 0.8".to_string()],
            ..SegmentOutcome::default()
        };
        let report = parse(&render(&outcome, 12.5), 3.0).unwrap();
        assert_eq!(report.attempted, 50_000);
        assert_eq!(report.evals_per_s, 20_000.0);
        assert_eq!(report.setup_s, 0.25);
        assert_eq!(report.hv_ratio, 0.9274);
        assert_eq!(report.peak_rss_mb, 12.5);
        assert_eq!(report.archive_len, 3825);
        assert_eq!(report.windows_ns, [1_500_000_000, 1_000_000_000]);
        assert_eq!(report.check_failures, ["hv_ratio 0.1 below floor 0.8"]);
        assert!(!report.correct());
    }

    #[test]
    fn truncated_reports_are_rejected() {
        assert!(parse("attempted 10\nfailed 0\n", 1.0).is_err());
        assert!(parse("", 1.0).is_err());
        assert!(parse("attempted ten\n", 1.0).is_err());
    }
}
