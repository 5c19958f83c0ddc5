//! The `cargo xtask mc` front end for the `borg-mc` schedule-space
//! model checker.
//!
//! A mutation self-test runs first as a preflight (a checker that cannot
//! catch a sabotaged engine must not report a clean one), then the
//! scenario catalogue — the smoke subset with `--smoke`, the full set
//! otherwise. `--json` emits a stable machine-readable report; exit codes
//! are `0` clean, `1` violations or truncation, `2` usage / self-test
//! errors.

use std::process::ExitCode;
use std::time::Instant;

struct McFlags {
    json: bool,
    smoke: bool,
    depth: Option<usize>,
}

fn parse_flags(args: &[String]) -> Result<McFlags, String> {
    let mut flags = McFlags {
        json: false,
        smoke: false,
        depth: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => flags.json = true,
            "--smoke" => flags.smoke = true,
            "--depth" => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| "--depth requires a value".to_string())?;
                let depth: usize = value
                    .parse()
                    .map_err(|_| format!("--depth: `{value}` is not a number"))?;
                if depth == 0 {
                    return Err("--depth must be at least 1".to_string());
                }
                flags.depth = Some(depth);
            }
            other => return Err(format!("unknown flag `{other}` for `mc`")),
        }
        i += 1;
    }
    Ok(flags)
}

/// Entry point for `cargo xtask mc`.
pub(crate) fn mc_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let started = Instant::now();
    let report = borg_mc::run(flags.smoke, flags.depth)?;
    let elapsed = started.elapsed().as_secs_f64();
    if flags.json {
        print_json(&report, elapsed);
    } else {
        print_human(&report, elapsed, flags.smoke);
    }
    if report.ok() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

fn print_human(report: &borg_mc::McReport, elapsed: f64, smoke: bool) {
    println!(
        "mutation self-test OK: sabotaged engine caught ({} violating schedule(s), e.g. [{}])",
        report.mutation.violations.len(),
        report.mutation.violations[0].trace.join(", ")
    );
    for s in &report.scenarios {
        let status = if s.violations.is_empty() && s.truncated == 0 {
            "ok"
        } else {
            "FAIL"
        };
        println!(
            "mc {status}: {:<18} {:>8} schedules, {:>6} states, {:>8} pruned, {} outcome(s){}",
            s.name,
            s.schedules,
            s.unique_states,
            s.pruned,
            s.outcomes,
            if s.truncated > 0 {
                format!(", {} TRUNCATED", s.truncated)
            } else {
                String::new()
            }
        );
        for v in &s.violations {
            println!("  violation [{}]: {}", v.invariant, v.detail);
            println!("    schedule: [{}]", v.trace.join(", "));
        }
    }
    let schedules = report.schedules();
    let rate = if elapsed > 0.0 {
        schedules as f64 / elapsed
    } else {
        0.0
    };
    if report.ok() {
        println!(
            "mc OK ({}): {} schedules across {} scenarios ({} states, {} pruned) in {:.2}s — {:.0} schedules/sec",
            if smoke { "smoke" } else { "full" },
            schedules,
            report.scenarios.len(),
            report.unique_states(),
            report.pruned(),
            elapsed,
            rate
        );
    } else {
        println!(
            "mc FAIL: {} violation(s) across {} scenarios",
            report.violations().len(),
            report.scenarios.len()
        );
    }
}

fn print_json(report: &borg_mc::McReport, elapsed: f64) {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"ok\":{},\"schedules\":{},\"unique_states\":{},\"pruned\":{},\"elapsed_seconds\":{:.3},",
        report.ok(),
        report.schedules(),
        report.unique_states(),
        report.pruned(),
        elapsed
    ));
    out.push_str(&format!(
        "\"mutation_self_test\":{{\"ok\":{},\"violations\":{}}},",
        !report.mutation.violations.is_empty(),
        report.mutation.violations.len()
    ));
    out.push_str("\"scenarios\":[");
    for (i, s) in report.scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"schedules\":{},\"unique_states\":{},\"pruned\":{},\
             \"truncated\":{},\"outcomes\":{},\"violations\":[",
            crate::json_string(s.name.as_str()),
            s.schedules,
            s.unique_states,
            s.pruned,
            s.truncated,
            s.outcomes
        ));
        for (j, v) in s.violations.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"invariant\":{},\"detail\":{},\"trace\":{}}}",
                crate::json_string(v.invariant),
                crate::json_string(&v.detail),
                crate::json_string(&v.trace.join(", "))
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_accepts_depth_values() {
        let f = parse_flags(&["--smoke".into(), "--depth".into(), "40".into()]).expect("flags");
        assert!(f.smoke && !f.json);
        assert_eq!(f.depth, Some(40));
        assert!(parse_flags(&["--depth".into()]).is_err());
        assert!(parse_flags(&["--depth".into(), "zero".into()]).is_err());
        assert!(parse_flags(&["--depth".into(), "0".into()]).is_err());
        assert!(parse_flags(&["--bogus".into()]).is_err());
    }
}
