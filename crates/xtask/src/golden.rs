//! Golden-cell regression gate: one Table II cell and one fault-path cell
//! (`run_virtual_async_with` under `FaultConfig::degraded`), pinned to a
//! checked-in CSV under `crates/xtask/golden/`.
//!
//! The same-seed-twice arm in [`crate::determinism`] proves a build agrees
//! with *itself*; this gate proves it agrees with the build that generated
//! the goldens — i.e. that a refactor of the master-slave protocol did not
//! change the schedule, the archive, or the fault ledger for fixed seeds.
//! Both cells run the real Borg MOEA in the virtual-time executor with
//! **sampled** `T_A` (`TaMode::Measured` charges wall-clock noise into the
//! virtual schedule, which would make a cross-build golden meaningless) and
//! the exact replicate-seed derivation Table II uses, so a drift here is a
//! drift in the published experiment tables or in the DES fault path.
//!
//! Regenerate deliberately with `cargo xtask golden --bless` — never to
//! silence a diff you cannot explain.

use borg_desim::fault::FaultConfig;
use borg_experiments::suite::PaperProblem;
use borg_experiments::table2::replicate_seeds;
use borg_models::dist::Dist;
use borg_obs::NoopRecorder;
use borg_parallel::virtual_exec::{
    run_virtual_async, run_virtual_async_with, FaultyRun, TaMode, VirtualConfig, VirtualRunResult,
};
use std::path::Path;

/// Golden CSV location, relative to the workspace root.
pub const GOLDEN_REL: &str = "crates/xtask/golden/protocol_cells.csv";

/// Root seed shared with `Table2Config::default`, so these cells pin the
/// same replicate streams the experiment consumes.
const ROOT_SEED: u64 = 20130520;
const TF_MEAN: f64 = 0.001;
const PROCESSORS: u32 = 8;
const REPLICATES: u32 = 2;
const MAX_NFE: u64 = 2_000;
/// Failure rate of the fault-path cell: a quarter of the workers crash.
const FAILURE_RATE: f64 = 0.25;

/// Summary of a passing golden comparison.
pub struct GoldenReport {
    /// Data rows compared (excludes the header).
    pub rows: usize,
}

fn cell_config(seed: u64) -> VirtualConfig {
    VirtualConfig {
        processors: PROCESSORS,
        max_nfe: MAX_NFE,
        t_f: Dist::normal_cv(TF_MEAN, 0.1),
        t_c: Dist::Constant(0.000_006),
        t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
        seed,
    }
}

/// FNV-1a over every archive member's variable and objective bits, in
/// archive order — a compact, bit-exact fingerprint of the final front.
fn archive_fingerprint(result: &VirtualRunResult) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for s in result.engine.archive().members() {
        for v in s.variables() {
            mix(v.to_bits());
        }
        for o in s.objectives() {
            mix(o.to_bits());
        }
    }
    h
}

fn push_row(out: &mut String, arm: &str, f: f64, replicate: u32, seed: u64, r: &VirtualRunResult) {
    use std::fmt::Write as _;
    let log = &r.fault_log;
    // Floats are serialized as raw bit patterns: the gate's contract is
    // bit-identity, and decimal round-tripping would hide 1-ulp drift.
    let _ = writeln!(
        out,
        "{arm},{},{PROCESSORS},{:016x},{f},{replicate},{seed:016x},{:016x},{},{},{:016x},{},{},{},{},{},{}",
        PaperProblem::Dtlz2.name(),
        TF_MEAN.to_bits(),
        r.outcome.elapsed.to_bits(),
        r.engine.nfe(),
        r.engine.archive().len(),
        archive_fingerprint(r),
        log.injected(),
        log.detected(),
        log.recovered(),
        log.reissues,
        log.duplicates_suppressed,
        log.wasted_nfe,
    );
}

/// Recomputes both golden cells with the current engine and renders the CSV.
pub fn compute() -> String {
    let mut out = String::from(
        "arm,problem,P,tf_bits,f,replicate,seed,elapsed_bits,nfe,archive_len,\
         archive_fnv,injected,detected,recovered,reissues,dups_suppressed,wasted_nfe\n",
    );
    let problem = PaperProblem::Dtlz2.build();
    let borg = PaperProblem::Dtlz2.borg_config(0.1);
    let seeds = replicate_seeds(
        ROOT_SEED,
        PaperProblem::Dtlz2,
        TF_MEAN,
        PROCESSORS,
        REPLICATES,
    );

    for (i, &seed) in seeds.iter().enumerate() {
        let r = run_virtual_async(
            problem.as_ref(),
            borg.clone(),
            &cell_config(seed),
            &NoopRecorder,
            |_, _| {},
        );
        push_row(&mut out, "table2", 0.0, i as u32, seed, &r);
    }

    let faults = FaultConfig::degraded(FAILURE_RATE);
    for (i, &seed) in seeds.iter().enumerate() {
        let r = run_virtual_async_with(
            problem.as_ref(),
            borg.clone(),
            &FaultyRun::new(&cell_config(seed), &faults),
            &NoopRecorder,
            |_, _| {},
        );
        push_row(&mut out, "faults", FAILURE_RATE, i as u32, seed, &r);
    }
    out
}

/// Compares the current engine's cells against the checked-in golden CSV.
pub fn check(root: &Path) -> Result<GoldenReport, String> {
    let path = root.join(GOLDEN_REL);
    let golden = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "golden CSV {} unreadable ({e}); generate it with `cargo xtask golden --bless`",
            path.display()
        )
    })?;
    let current = compute();
    if golden == current {
        return Ok(GoldenReport {
            rows: current.lines().count().saturating_sub(1),
        });
    }
    // Point at the first diverging line so the failure is actionable.
    for (n, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
        if g != c {
            return Err(format!(
                "golden drift at {GOLDEN_REL}:{}: golden `{g}` vs current `{c}`",
                n + 1
            ));
        }
    }
    Err(format!(
        "golden drift: {GOLDEN_REL} has {} lines, current output has {}",
        golden.lines().count(),
        current.lines().count()
    ))
}

/// Regenerates the golden CSV from the current engine.
pub fn bless(root: &Path) -> Result<(), String> {
    let path = root.join(GOLDEN_REL);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, compute()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("golden CSV written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_cells_are_reproducible_in_process() {
        // The golden gate is only meaningful if compute() is deterministic.
        let a = compute();
        let b = compute();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 1 + 2 * REPLICATES as usize);
    }

    #[test]
    fn faults_arm_actually_injects() {
        let csv = compute();
        let faults_row = csv
            .lines()
            .find(|l| l.starts_with("faults,"))
            .expect("faults arm present");
        let injected: u64 = faults_row
            .split(',')
            .nth(11)
            .expect("injected column")
            .parse()
            .expect("numeric injected column");
        assert!(injected > 0, "faults cell injected nothing: {faults_row}");
    }

    #[test]
    fn checked_in_golden_matches_current_engine() {
        let root = crate::workspace_root().expect("workspace root");
        let report = check(&root).expect("golden CSV must match the current engine");
        assert_eq!(report.rows, 2 * REPLICATES as usize);
    }
}
