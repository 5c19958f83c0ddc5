//! `cargo xtask` — the workspace's gates that are programs, not lints.
//!
//! `determinism` runs a same-seed-twice virtual-time Borg run and demands
//! bit-identical archives, plus the fault-replay, recorder-attached,
//! jobs=1-vs-jobs=4 and chaos-loopback arms and the golden cells (see
//! [`determinism`]). `golden --bless` rewrites the golden cells; `mc` runs
//! the schedule-space model checker. The BORG-Lxxx rules are clippy
//! configuration and `tests/inventory.rs` checks (README, "Correctness &
//! static analysis").
//!
//! Exit codes: `0` clean, `1` divergence or violations, `2` usage / IO
//! errors.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod determinism;
mod golden;
mod mc_cmd;

use std::path::{Path, PathBuf};
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
        Some("determinism") if args.len() == 1 => determinism_command(),
        Some("determinism") => Err("usage: cargo xtask determinism".to_string()),
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
         \x20   cargo xtask determinism\n\
         \x20   cargo xtask golden --bless\n\
         \x20   cargo xtask mc [--smoke] [--depth N] [--json]\n\
         \n\
         SUBCOMMANDS:\n\
         \x20   determinism     the same-seed-twice gate: seed, fault-replay,\n\
         \x20                   recorder-attached, jobs=1-vs-jobs=4 and\n\
         \x20                   chaos-loopback-vs-DES-oracle arms, then the\n\
         \x20                   golden Table II / fault-path cells\n\
         \x20   golden --bless  regenerate the crates/xtask/golden CSV\n\
         \x20   mc              explore every event-delivery schedule into the\n\
         \x20                   protocol engine (borg-mc): --smoke runs the CI\n\
         \x20                   subset, --depth caps deliveries per schedule\n\
         \n\
         The BORG-Lxxx lint rules are clippy configuration and\n\
         tests/inventory.rs checks; see README.md."
    );
}

/// Locates the workspace root from the xtask manifest directory.
fn workspace_root() -> Result<PathBuf, String> {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map_err(|_| "CARGO_MANIFEST_DIR not set; run via `cargo xtask`".to_string())?;
    Path::new(&manifest)
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("cannot derive workspace root from {manifest}"))
}

fn golden_command(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [flag] if flag == "--bless" => {
            golden::bless(&workspace_root()?)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: cargo xtask golden --bless".to_string()),
    }
}

fn determinism_command() -> Result<ExitCode, String> {
    match determinism::run(&workspace_root()?) {
        Ok(d) => {
            println!(
                "determinism OK: seed-identical archives ({} members, NFE {}, virtual {:.4}s); \
                 fault replay identical ({} injected, {} reissues); \
                 recorder-attached run identical ({} evals observed); \
                 flight dumps byte-identical ({} events); \
                 jobs=1 ≡ jobs=4 Table II sweep ({} rows, {} metrics lines byte-identical); \
                 networked chaos loopback ≡ DES oracle ({} wire results, {} wire faults); \
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
                d.golden_rows
            );
            // Paced by the wall clock, so it varies run to run; kept off the
            // line above so that one compares byte for byte across commits.
            println!(
                "live tap (wall-clock, varies): {} delta frames drained",
                d.tap_frames
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            println!("determinism FAIL: {e}");
            Ok(ExitCode::from(1))
        }
    }
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
}
