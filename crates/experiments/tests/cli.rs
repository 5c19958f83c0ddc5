//! End-to-end tests of the `borg-exp` binary at smoke scale: every
//! subcommand must run, exit 0, and leave its CSV artifacts behind.

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(args: &[&str], out: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_borg-exp"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn borg-exp")
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("borg-exp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bounds_subcommand_writes_csv() {
    let out = temp_out("bounds");
    let result = run(&["bounds"], &out);
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let csv = std::fs::read_to_string(out.join("bounds.csv")).unwrap();
    assert!(csv.lines().count() == 7); // header + 6 scenarios
    assert!(csv.contains("DTLZ2 T_F=10ms"));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn timeline_subcommands_write_artifacts() {
    let out = temp_out("timeline");
    for cmd in ["fig1", "fig2"] {
        let result = run(&[cmd], &out);
        assert!(result.status.success());
        assert!(out.join(format!("{cmd}_timeline.csv")).exists());
        assert!(out.join(format!("{cmd}_timeline.txt")).exists());
        let stdout = String::from_utf8_lossy(&result.stdout);
        assert!(stdout.contains("master"), "missing Gantt output for {cmd}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn table2_smoke_writes_csv_with_all_cells() {
    let out = temp_out("table2");
    let result = run(&["table2", "--smoke"], &out);
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let csv = std::fs::read_to_string(out.join("table2.csv")).unwrap();
    // Smoke config: 2 problems × 2 T_F × 2 P + header.
    assert_eq!(csv.lines().count(), 9);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn hv_speedup_smoke_writes_panels() {
    // UF11's reference bounds are not the unit box, so fig4 also exercises
    // the normalization in front of the hypervolume tracker.
    for (cmd, csv) in [
        ("fig3", "fig3_dtlz2_tf0.01.csv"),
        ("fig4", "fig4_uf11_tf0.01.csv"),
    ] {
        let out = temp_out(cmd);
        let result = run(&[cmd, "--smoke"], &out);
        assert!(
            result.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&result.stderr)
        );
        assert!(out.join(csv).exists(), "{cmd}: no {csv}");
        let _ = std::fs::remove_dir_all(&out);
    }
}

#[test]
fn fig5_smoke_writes_both_surfaces() {
    let out = temp_out("fig5");
    let result = run(&["fig5", "--smoke"], &out);
    assert!(result.status.success());
    for name in [
        "fig5_sync.csv",
        "fig5_async.csv",
        "fig5_sync_table2params.csv",
        "fig5_async_table2params.csv",
        "fig5.txt",
    ] {
        assert!(out.join(name).exists(), "missing {name}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn dynamics_and_advise_smoke() {
    let out = temp_out("ext");
    assert!(run(&["dynamics", "--smoke"], &out).status.success());
    assert!(out.join("dynamics_summary.csv").exists());
    assert!(out.join("dynamics_p8.csv").exists());
    let result = run(&["advise", "--nfe", "5000"], &out);
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let csv = std::fs::read_to_string(out.join("advise.csv")).unwrap();
    let t_f: Vec<&str> = csv
        .lines()
        .skip(1)
        .filter_map(|l| l.split(',').next())
        .collect();
    assert_eq!(t_f, ["0.001", "0.01", "0.1"], "{csv}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = temp_out("bad");
    let result = run(&["frobnicate"], &out);
    assert!(!result.status.success());
    let _ = std::fs::remove_dir_all(&out);
}

/// Runs the binary with exactly `args` (no `--out` appended).
fn bare(args: &[&str]) -> (Option<i32>, String, String) {
    let result = Command::new(env!("CARGO_BIN_EXE_borg-exp"))
        .args(args)
        .output()
        .expect("spawn borg-exp");
    (
        result.status.code(),
        String::from_utf8_lossy(&result.stdout).into_owned(),
        String::from_utf8_lossy(&result.stderr).into_owned(),
    )
}

#[test]
fn flag_parsing_rejects_bad_values() {
    let (code, _, stderr) = bare(&["table2", "--nfe", "not-a-number"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--nfe"));
    // A value flag given last, with its value missing.
    for args in [&["table2", "--nfe"][..], &["serve", "--listen"][..]] {
        let (code, _, stderr) = bare(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains("needs a value"), "{args:?}: {stderr}");
    }
}

#[test]
fn flags_a_subcommand_does_not_read_are_rejected_with_its_usage() {
    for args in [
        &["bounds", "--chaos"][..],
        &["fig5", "--listen", "unix:/tmp/x"][..],
        &["tail", "--nfe", "5"][..],
        &["fig1", "stray-positional"][..],
    ] {
        let (code, stdout, stderr) = bare(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(
            stderr.contains(&format!("usage: borg-exp {}", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(!stdout.contains("==>"), "{args:?} ran before failing");
    }
    // `all` reads what its members read, and nothing else.
    assert_eq!(bare(&["all", "--listen", "unix:/tmp/x"]).0, Some(2));
    let (code, stdout, _) = bare(&["all", "--help"]);
    assert_eq!(code, Some(0));
    for flag in ["--full", "--metrics-out", "--replicates", "--jobs"] {
        assert!(stdout.contains(flag), "all --help lacks {flag}");
    }
    assert!(!stdout.contains("--listen"));
}

#[test]
fn every_listed_subcommand_answers_help_with_the_flags_it_reads() {
    let (code, listing, _) = bare(&["help"]);
    assert_eq!(code, Some(0));
    assert_eq!(bare(&["--help"]), (Some(0), listing.clone(), String::new()));
    // Subcommand rows are indented by exactly two spaces.
    let names: Vec<&str> = listing
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for expected in [
        "table2",
        "fig1",
        "bounds",
        "advise",
        "all",
        "serve",
        "trace-merge",
    ] {
        assert!(names.contains(&expected), "help does not list {expected}");
    }
    for name in names {
        let (code, text, stderr) = bare(&[name, "--help"]);
        assert_eq!(code, Some(0), "{name} --help: {stderr}");
        let usage = text
            .lines()
            .find(|l| l.starts_with(&format!("usage: borg-exp {name}")))
            .unwrap_or_else(|| panic!("{name} --help has no usage line:\n{text}"));
        // Every flag of the usage line has its own row, with help text.
        for flag in usage.split(['[', ']', ' ']).filter(|w| w.starts_with("--")) {
            let row = text
                .lines()
                .find(|l| l.trim_start().starts_with(flag) && l.starts_with("  --"))
                .unwrap_or_else(|| panic!("{name} --help does not describe {flag}"));
            assert!(
                row.split_whitespace().count() > 2,
                "{name}: bare row {row:?}"
            );
        }
        // `--help` wins wherever it stands, and nothing runs.
        assert!(!text.contains("==>"));
    }
    // Spot checks against the table: flags and defaults.
    let (_, serve, _) = bare(&["serve", "--help"]);
    for needle in [
        "--listen ADDR",
        "--chaos",
        "--crash-rate F",
        "(default: 0.25)",
        "(default: dtlz2-5)",
    ] {
        assert!(serve.contains(needle), "serve --help lacks {needle:?}");
    }
    let (_, table2, _) = bare(&["table2", "--smoke", "--help"]);
    for needle in ["--metrics-out FILE", "--full", "(default: results)"] {
        assert!(table2.contains(needle), "table2 --help lacks {needle:?}");
    }
    assert!(bare(&["tail", "--help"]).1.contains("--ticks N"));
    assert!(bare(&["trace-merge", "--help"]).1.contains("SHARD..."));
}
