//! `cargo xtask bench` — the perf-trajectory step.
//!
//! Runs the smoke criterion groups (`core`, `protocol`, `faults`, `obs`,
//! `runner`, `mc`, `net`) through the vendored criterion stand-in with
//! `CRITERION_JSON` set, then
//! aggregates the per-bench medians into a trajectory point: one median
//! ns/op per group (the median of the group's per-bench medians) plus
//! every bench that contributed. `--bless` writes the point to
//! `BENCH_runner.json` at the workspace root — commit-over-commit diffs
//! show where protocol, fault-handling, observability, or runner-dispatch
//! cost moved; without it (in particular under `--compare`, whose baseline
//! is usually that very file) nothing is written.

use std::path::Path;
use std::process::Command;

/// The groups the trajectory tracks, each with the bench target hosting it
/// (the `faults` group lives in the `extensions` bench binary).
const GROUPS: [(&str, &str); 7] = [
    ("core", "core"),
    ("protocol", "protocol"),
    ("faults", "extensions"),
    ("obs", "obs"),
    ("runner", "runner"),
    ("mc", "mc"),
    ("net", "net"),
];

/// Output file, relative to the workspace root.
pub const BENCH_OUT_REL: &str = "BENCH_runner.json";

/// One sampled benchmark from the `CRITERION_JSON` stream.
struct Sample {
    id: String,
    group: String,
    median_ns: u128,
}

/// Summary of a completed `xtask bench` run.
pub struct BenchReport {
    /// `(group, median ns/op, benches contributing)`, in [`GROUPS`] order.
    pub groups: Vec<(&'static str, u128, usize)>,
    /// The trajectory point (`borg-bench-trajectory/v1`).
    json: String,
}

impl BenchReport {
    /// Writes the trajectory point to [`BENCH_OUT_REL`] under `root` (the
    /// `--bless` step) and returns the path.
    pub fn bless(&self, root: &Path) -> Result<std::path::PathBuf, String> {
        let out_path = root.join(BENCH_OUT_REL);
        std::fs::write(&out_path, &self.json)
            .map_err(|e| format!("write {}: {e}", out_path.display()))?;
        Ok(out_path)
    }
}

/// Runs the tracked bench targets and summarises them. Writes nothing but
/// the sample stream under `target/`.
pub fn run(root: &Path) -> Result<BenchReport, String> {
    let samples_path = root.join("target").join("criterion-samples.jsonl");
    let _ = std::fs::remove_file(&samples_path);

    let mut targets: Vec<&str> = GROUPS.iter().map(|&(_, target)| target).collect();
    targets.dedup();
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .arg("bench")
        .arg("-p")
        .arg("borg-bench");
    for target in targets {
        cmd.arg("--bench").arg(target);
    }
    cmd.env("CRITERION_JSON", &samples_path);
    let status = cmd
        .status()
        .map_err(|e| format!("spawn cargo bench: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench exited with {status}"));
    }

    let text = std::fs::read_to_string(&samples_path).map_err(|e| {
        format!(
            "read {}: {e} (CRITERION_JSON hook lost?)",
            samples_path.display()
        )
    })?;
    summarize(&parse_samples(&text)?)
}

/// Aggregates parsed samples into the per-group trajectory point.
fn summarize(samples: &[Sample]) -> Result<BenchReport, String> {
    let mut groups = Vec::new();
    let mut json =
        String::from("{\n  \"schema\": \"borg-bench-trajectory/v1\",\n  \"groups\": {\n");
    for (gi, &(group, _)) in GROUPS.iter().enumerate() {
        let mine: Vec<&Sample> = samples.iter().filter(|s| s.group == group).collect();
        if mine.is_empty() {
            return Err(format!(
                "bench group `{group}` produced no samples; its bench target changed names?"
            ));
        }
        let mut medians: Vec<u128> = mine.iter().map(|s| s.median_ns).collect();
        medians.sort_unstable();
        let group_median = medians[medians.len() / 2];
        json.push_str(&format!(
            "    \"{group}\": {{\n      \"median_ns_per_op\": {group_median},\n      \"benches\": {{\n"
        ));
        for (i, s) in mine.iter().enumerate() {
            let comma = if i + 1 < mine.len() { "," } else { "" };
            json.push_str(&format!("        \"{}\": {}{comma}\n", s.id, s.median_ns));
        }
        let comma = if gi + 1 < GROUPS.len() { "," } else { "" };
        json.push_str(&format!("      }}\n    }}{comma}\n"));
        groups.push((group, group_median, mine.len()));
    }
    json.push_str("  }\n}\n");
    Ok(BenchReport { groups, json })
}

/// One group's baseline-vs-current comparison (`--compare`).
#[derive(Debug)]
pub struct CompareRow {
    pub group: &'static str,
    pub baseline_ns: u128,
    pub current_ns: u128,
    /// Percent change vs baseline (positive = slower).
    pub delta_pct: f64,
    /// Whether the slowdown exceeds the configured tolerance.
    pub regressed: bool,
}

/// Diffs a fresh [`BenchReport`] against a committed trajectory file
/// (the `BENCH_runner.json` of the last blessed run). A group regresses
/// when its median slows by more than `max_regress_pct` percent.
pub fn compare(
    baseline: &str,
    report: &BenchReport,
    max_regress_pct: f64,
) -> Result<Vec<CompareRow>, String> {
    let mut rows = Vec::new();
    for &(group, current_ns, _) in &report.groups {
        let baseline_ns = baseline_median(baseline, group).ok_or_else(|| {
            format!(
                "baseline has no `{group}` group median; re-bless the trajectory \
                 with `cargo xtask bench`"
            )
        })?;
        let delta_pct = if baseline_ns == 0 {
            0.0
        } else {
            (current_ns as f64 - baseline_ns as f64) / baseline_ns as f64 * 100.0
        };
        rows.push(CompareRow {
            group,
            baseline_ns,
            current_ns,
            delta_pct,
            regressed: delta_pct > max_regress_pct,
        });
    }
    Ok(rows)
}

/// Folds a re-measurement into `rows`, keeping the faster sample per group.
/// A busy machine can skew one measurement past the tolerance; a true
/// regression reproduces, so a group only stays regressed when both runs
/// flagged it.
pub fn keep_faster(rows: &mut [CompareRow], retry: &[CompareRow]) {
    for (row, again) in rows.iter_mut().zip(retry) {
        if again.current_ns < row.current_ns {
            row.current_ns = again.current_ns;
            row.delta_pct = again.delta_pct;
            row.regressed = again.regressed;
        }
    }
}

/// Extracts one group's `median_ns_per_op` from a trajectory file.
fn baseline_median(text: &str, group: &str) -> Option<u128> {
    let pat = format!("\"{group}\": {{");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let rest = &rest[rest.find("\"median_ns_per_op\":")? + "\"median_ns_per_op\":".len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the stand-in criterion's JSONL stream. The lines are produced by
/// workspace code, so a forgiving field scan beats a JSON dependency.
fn parse_samples(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = (|| {
            Some(Sample {
                id: field_str(line, "id")?.to_string(),
                group: field_str(line, "group")?.to_string(),
                median_ns: field_u128(line, "median_ns")?,
            })
        })();
        match parsed {
            Some(sample) => samples.push(sample),
            None => return Err(format!("malformed CRITERION_JSON line {}: {line}", n + 1)),
        }
    }
    if samples.is_empty() {
        return Err("CRITERION_JSON stream was empty; no benchmarks ran".to_string());
    }
    Ok(samples)
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn field_u128(line: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_standin_criterion_lines() {
        let text = "{\"id\":\"runner/map_jobs_w4\",\"group\":\"runner\",\"iters\":10,\
                    \"median_ns\":1234,\"mean_ns\":1300}\n\
                    {\"id\":\"obs/sink\",\"group\":\"obs\",\"iters\":10,\
                    \"median_ns\":77,\"mean_ns\":80}\n";
        let samples = parse_samples(text).expect("parse");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].id, "runner/map_jobs_w4");
        assert_eq!(samples[0].group, "runner");
        assert_eq!(samples[0].median_ns, 1234);
        assert_eq!(samples[1].median_ns, 77);
    }

    #[test]
    fn rejects_malformed_and_empty_streams() {
        assert!(parse_samples("not json\n").is_err());
        assert!(parse_samples("").is_err());
        assert!(parse_samples("{\"id\":\"a/b\",\"group\":\"a\"}\n").is_err());
    }

    fn report(groups: Vec<(&'static str, u128, usize)>) -> BenchReport {
        BenchReport {
            groups,
            json: String::new(),
        }
    }

    const BASELINE: &str = "{\n  \"schema\": \"borg-bench-trajectory/v1\",\n  \"groups\": {\n    \
        \"protocol\": {\n      \"median_ns_per_op\": 1000,\n      \"benches\": {\n      }\n    },\n    \
        \"obs\": {\n      \"median_ns_per_op\": 200,\n      \"benches\": {\n      }\n    }\n  }\n}\n";

    #[test]
    fn compare_flags_only_regressions_past_the_tolerance() {
        // protocol +20% (regression at 10% tolerance), obs -50% (never).
        let rows = compare(
            BASELINE,
            &report(vec![("protocol", 1200, 3), ("obs", 100, 2)]),
            10.0,
        )
        .expect("compare");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].regressed && rows[0].delta_pct > 19.0);
        assert!(!rows[1].regressed && rows[1].delta_pct < 0.0);
        // The same +20% within a 25% tolerance passes.
        let rows = compare(BASELINE, &report(vec![("protocol", 1200, 3)]), 25.0).expect("compare");
        assert!(!rows[0].regressed);
    }

    #[test]
    fn keep_faster_clears_a_regression_that_does_not_reproduce() {
        // First sample +20% (regressed), retry -2%: noise, cleared.
        let mut rows = compare(BASELINE, &report(vec![("protocol", 1200, 3)]), 10.0).unwrap();
        let retry = compare(BASELINE, &report(vec![("protocol", 980, 3)]), 10.0).unwrap();
        keep_faster(&mut rows, &retry);
        assert!(!rows[0].regressed);
        assert_eq!(rows[0].current_ns, 980);

        // Both samples past the bar: the regression stands, faster one kept.
        let mut rows = compare(BASELINE, &report(vec![("protocol", 1300, 3)]), 10.0).unwrap();
        let retry = compare(BASELINE, &report(vec![("protocol", 1250, 3)]), 10.0).unwrap();
        keep_faster(&mut rows, &retry);
        assert!(rows[0].regressed);
        assert_eq!(rows[0].current_ns, 1250);
    }

    #[test]
    fn only_bless_writes_the_trajectory_file() {
        let dir = std::env::temp_dir().join(format!("borg-xtask-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = dir.join(BENCH_OUT_REL);
        let samples: Vec<Sample> = GROUPS
            .iter()
            .map(|&(group, _)| Sample {
                id: format!("{group}/only"),
                group: group.to_string(),
                median_ns: 1_000,
            })
            .collect();

        // Summarising and comparing leave the directory untouched...
        let report = summarize(&samples).expect("summarize");
        assert!(!out.exists());
        // ...blessing writes the point, which then serves as a baseline a
        // later compare reads without rewriting.
        assert_eq!(report.bless(&dir).expect("bless"), out);
        let blessed = std::fs::read_to_string(&out).expect("read back");
        let rows = compare(&blessed, &report, 10.0).expect("compare");
        assert!(rows.iter().all(|r| r.delta_pct == 0.0 && !r.regressed));
        assert_eq!(std::fs::read_to_string(&out).expect("reread"), blessed);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn compare_rejects_a_baseline_missing_the_group() {
        let err = compare(BASELINE, &report(vec![("net", 10, 1)]), 10.0).unwrap_err();
        assert!(err.contains("`net`"), "unhelpful error: {err}");
    }
}
