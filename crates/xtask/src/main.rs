//! `cargo xtask` — the workspace correctness toolchain.
//!
//! The `check` subcommand runs the custom BORG-Lxxx static-analysis pass
//! over every workspace crate (see [`rules`] for the rule catalog), with an
//! annotated-fixture self-test as a preflight so a silently broken lint
//! pass cannot report a clean workspace. `--determinism` additionally runs
//! a same-seed-twice virtual-time Borg run and demands bit-identical
//! archives, plus the jobs=1-vs-jobs=4 parallel-runner arm.
//!
//! Exit codes: `0` clean, `1` violations or determinism divergence,
//! `2` usage / IO / self-test errors.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod determinism;
mod files;
mod golden;
mod itemtree;
mod lexer;
mod mc_cmd;
mod rules;

use rules::{Violation, MOVED, RULES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("check") => check_command(&args[1..]),
        Some("golden") => golden_command(&args[1..]),
        Some("mc") => mc_cmd::mc_command(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print_help();
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`; try `cargo xtask help`")),
        None => {
            print_help();
            Ok(ExitCode::from(2))
        }
    }
}

fn print_help() {
    println!(
        "cargo xtask — workspace correctness toolchain\n\
         \n\
         USAGE:\n\
         \x20   cargo xtask check [--json] [--determinism] [--self-test] [--list]\n\
         \x20   cargo xtask golden --bless\n\
         \x20   cargo xtask mc [--smoke] [--depth N] [--json]\n\
         \n\
         FLAGS:\n\
         \x20   --json          machine-readable JSON report on stdout\n\
         \x20   --determinism   also run the same-seed-twice determinism gate\n\
         \x20                   (incl. the jobs=1-vs-jobs=4 parallel-runner\n\
         \x20                   arm and the networked chaos-loopback-vs-DES-\n\
         \x20                   oracle arm) and diff golden Table II / faults\n\
         \x20                   cells\n\
         \x20   --self-test     run only the annotated-fixture self-test\n\
         \x20   --list          print the rule catalog (and where each moved\n\
         \x20                   rule is enforced now) and exit\n\
         \x20   --bless         (golden) regenerate the crates/xtask/golden CSV\n\
         \n\
         SUBCOMMANDS:\n\
         \x20   mc              explore every event-delivery schedule into the\n\
         \x20                   protocol engine (borg-mc): --smoke runs the CI\n\
         \x20                   subset, --depth caps deliveries per schedule\n\
         \n\
         RULES:"
    );
    for rule in &RULES {
        println!("    {}  {}", rule.id, rule.summary);
    }
    println!("\nMOVED OUT OF THIS PASS:");
    for rule in &MOVED {
        println!("    {}  {}", rule.id, rule.summary);
    }
}

fn golden_command(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [flag] if flag == "--bless" => {
            let root = files::workspace_root()?;
            golden::bless(&root)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: cargo xtask golden --bless".to_string()),
    }
}

struct CheckFlags {
    json: bool,
    determinism: bool,
    self_test_only: bool,
    list: bool,
}

fn parse_flags(args: &[String]) -> Result<CheckFlags, String> {
    let mut flags = CheckFlags {
        json: false,
        determinism: false,
        self_test_only: false,
        list: false,
    };
    for arg in args {
        match arg.as_str() {
            "--json" => flags.json = true,
            "--determinism" => flags.determinism = true,
            "--self-test" => flags.self_test_only = true,
            "--list" => flags.list = true,
            other => return Err(format!("unknown flag `{other}` for `check`")),
        }
    }
    Ok(flags)
}

fn check_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    if flags.list {
        for rule in &RULES {
            println!("{}  {}", rule.id, rule.summary);
        }
        for rule in &MOVED {
            println!("{}  {}", rule.id, rule.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = files::workspace_root()?;
    let fixture = root.join(rules::FIXTURE_PATH);

    // Preflight: prove the lint pass still catches every seeded violation
    // (and keeps honoring the test-region / allowlist escapes) before
    // trusting its verdict on the real tree.
    let expected_found = rules::self_test(&fixture)?;
    if flags.self_test_only {
        if !flags.json {
            println!("self-test OK: {expected_found} seeded violations caught, escapes silent");
        } else {
            println!("{{\"self_test\":{{\"ok\":true,\"expected_violations\":{expected_found}}}}}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let report = rules::check_workspace(&root)?;
    let determinism_result = if flags.determinism {
        Some(determinism::run(&root))
    } else {
        None
    };

    let lint_clean = report.violations.is_empty();
    let det_clean = !matches!(determinism_result, Some(Err(_)));

    if flags.json {
        print_json(&report, expected_found, determinism_result.as_ref());
    } else {
        print_human(&report, expected_found, determinism_result.as_ref());
    }

    if lint_clean && det_clean {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

fn print_human(
    report: &rules::WorkspaceReport,
    expected_found: usize,
    determinism: Option<&Result<determinism::DeterminismReport, String>>,
) {
    for v in &report.violations {
        println!("{}:{}: {}: {}", v.file, v.line, v.rule, v.message);
    }
    if report.violations.is_empty() {
        println!(
            "lint OK: {} files scanned, 0 violations (self-test caught {} seeded)",
            report.files_scanned, expected_found
        );
    } else {
        println!(
            "lint FAIL: {} violation(s) across {} files",
            report.violations.len(),
            report.files_scanned
        );
    }
    match determinism {
        Some(Ok(d)) => println!(
            "determinism OK: seed-identical archives ({} members, NFE {}, virtual {:.4}s); \
             fault replay identical ({} injected, {} reissues); \
             recorder-attached run identical ({} evals observed); \
             flight dumps byte-identical ({} events); \
             jobs=1 ≡ jobs=4 sweeps ({} rows, {} metrics lines byte-identical); \
             networked chaos loopback ≡ DES oracle ({} wire results, {} wire faults, \
             {} live-tap frames); \
             golden cells match ({} rows)",
            d.archive_size,
            d.nfe,
            d.elapsed,
            d.faults_injected,
            d.fault_reissues,
            d.recorder_evals,
            d.flight_events,
            d.parallel_rows,
            d.parallel_jsonl_lines,
            d.net_wire_results,
            d.net_wire_faults,
            d.tap_frames,
            d.golden_rows
        ),
        Some(Err(e)) => println!("determinism FAIL: {e}"),
        None => {}
    }
}

fn print_json(
    report: &rules::WorkspaceReport,
    expected_found: usize,
    determinism: Option<&Result<determinism::DeterminismReport, String>>,
) {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"ok\":{},\"files_scanned\":{},\"self_test\":{{\"ok\":true,\"expected_violations\":{}}},",
        report.violations.is_empty() && !matches!(determinism, Some(Err(_))),
        report.files_scanned,
        expected_found
    ));
    out.push_str("\"violations\":[");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&violation_json(v));
    }
    out.push(']');
    match determinism {
        Some(Ok(d)) => out.push_str(&format!(
            ",\"determinism\":{{\"ok\":true,\"archive_size\":{},\"nfe\":{},\"elapsed\":{},\
             \"faults_injected\":{},\"fault_reissues\":{},\"recorder_evals\":{},\
             \"flight_events\":{},\"parallel_rows\":{},\"parallel_jsonl_lines\":{},\
             \"net_wire_results\":{},\"net_wire_faults\":{},\"tap_frames\":{},\
             \"golden_rows\":{}}}",
            d.archive_size,
            d.nfe,
            d.elapsed,
            d.faults_injected,
            d.fault_reissues,
            d.recorder_evals,
            d.flight_events,
            d.parallel_rows,
            d.parallel_jsonl_lines,
            d.net_wire_results,
            d.net_wire_faults,
            d.tap_frames,
            d.golden_rows
        )),
        Some(Err(e)) => out.push_str(&format!(
            ",\"determinism\":{{\"ok\":false,\"error\":{}}}",
            json_string(e)
        )),
        None => {}
    }
    out.push('}');
    println!("{out}");
}

fn violation_json(v: &Violation) -> String {
    format!(
        "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
        json_string(v.rule),
        json_string(&v.file),
        v.line,
        json_string(&v.message)
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn flag_parsing() {
        let f = parse_flags(&["--json".into(), "--determinism".into()]).expect("flags");
        assert!(f.json && f.determinism && !f.self_test_only);
        assert!(parse_flags(&["--bogus".into()]).is_err());
    }
}
