//! The `cargo xtask determinism` gate.
//!
//! Runs a small DTLZ2 instance through the virtual-time asynchronous
//! master-slave executor twice with the same seed and demands bit-identical
//! results: every queueing-outcome field, NFE, every archive member's
//! variables, objectives and constraints, the final population's variable
//! and objective rows, and the sampled `T_A` the two runs charged (their
//! metrics-only recorders' `t_a_seconds` histograms: count, every bucket,
//! min, max and the sum's bits). A second arm repeats the check **with
//! fault injection live** (25% worker crashes + 5% message loss) and
//! additionally demands identical fault ledgers — recovery is part of the
//! reproducibility contract, not an excuse to break it. This is the
//! executable form of the workspace's guarantee (which BORG-L003's clippy
//! entry and the entropy-free vendored `rand` guard statically): same
//! seed, same archive — across runs and across machines.
//!
//! `T_A` is *sampled*, not measured: `TaMode::Measured` charges real
//! wall-clock costs into the virtual event ordering, which is exactly the
//! nondeterminism this gate must not depend on.
//!
//! A third arm checks the observability contract: a run observed through
//! an [`InMemoryRecorder`] must be bit-identical (archive, virtual clock,
//! fault ledger) to the same-seed run with the no-op recorder. Recorders
//! receive values and never influence control flow; this arm is what makes
//! that a tested guarantee instead of a comment. The arm also straps the
//! black-box [`FlightRecorder`] onto two same-seed fault-replay runs and
//! demands byte-identical dumps and equal `t_f_seconds` histograms (the
//! drawn `T_F`): under virtual time both are a pure function of the seed,
//! so the black box is itself deterministic.
//!
//! A fourth arm checks the parallel-runner contract: the same smoke-scale
//! Table II sweep run with `jobs = 1` and `jobs = 4` must produce
//! byte-identical rows and metrics JSONL — the shared-queue pool in
//! `borg-runner` may change *when* a replicate runs, never *what* it
//! produces or the order results are folded in.
//!
//! A fifth arm takes the contract onto real sockets: a chaos-mode
//! networked loopback run (`borg_net::chaos`) — in-process workers over
//! Unix-domain sockets, a chaos proxy physically enacting the same seeded
//! `FaultPlan` — must produce a fault ledger, recovery actions, virtual
//! clock, and final archive bit-identical to the DES fault oracle (the
//! fault-replay arm above), with the proxy's wire-side ledger matching
//! the oracle's injections kind for kind. That run carries the *full*
//! observability stack — tracing recorder, flight ring, and a live
//! metrics tap with a real subscriber draining delta frames — so the
//! bit-identity it demands doubles as proof that none of it perturbs
//! the algorithm.

use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_desim::fault::{FaultConfig, FaultKind};
use borg_experiments::suite::PaperProblem;
use borg_experiments::table2::{render_table2, run_table2_with, Table2Config};
use borg_models::dist::Dist;
use borg_net::chaos::{run_chaos_loopback, ChaosConfig};
use borg_net::tap::{tap_loop, TapConfig};
use borg_net::{connect_with_backoff, Backoff, Conn, Msg, NetAddr, NetListener};
use borg_obs::export::metrics_jsonl;
use borg_obs::{FlightRecorder, InMemoryRecorder, NoopRecorder, Recorder, WithFlight};
use borg_parallel::virtual_exec::{
    run_virtual_async, run_virtual_async_with, FaultyRun, TaMode, VirtualConfig, VirtualRunResult,
};
use borg_problems::dtlz::Dtlz;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Summary of a passing determinism check.
pub(crate) struct DeterminismReport {
    pub nfe: u64,
    pub archive_size: usize,
    pub elapsed: f64,
    /// Faults injected by the fault-replay arm (same-seed faulty runs must
    /// inject, detect, and recover identically).
    pub faults_injected: usize,
    /// Reissues performed by the fault-replay arm.
    pub fault_reissues: u64,
    /// Golden Table II / fault-path cells compared bit-for-bit against the
    /// checked-in CSV (see [`crate::golden`]).
    pub golden_rows: usize,
    /// Evaluations observed by the recorder arm (an in-memory recorder
    /// attached to a run must observe everything and change nothing).
    pub recorder_evals: u64,
    /// Table II rows compared byte-for-byte between the `jobs = 1` and
    /// `jobs = 4` sweeps by the parallel-runner arm.
    pub parallel_rows: usize,
    /// Metrics-JSONL lines compared byte-for-byte by the same arm.
    pub parallel_jsonl_lines: usize,
    /// Events the black-box flight ring recorded during the fault-replay
    /// arm (two same-seed runs must dump byte-identical black boxes).
    pub flight_events: u64,
    /// Result frames the networked chaos arm consumed off real sockets
    /// while staying bit-identical to the DES fault oracle.
    pub net_wire_results: u64,
    /// Faults the chaos proxy physically enacted on the wire in that run
    /// (matched kind-for-kind against the oracle's ledger).
    pub net_wire_faults: usize,
    /// Live-tap delta frames a real subscriber drained during the
    /// networked chaos arm (the tap must stream without perturbing).
    pub tap_frames: u64,
}

fn run_once(seed: u64, rec: &dyn Recorder) -> VirtualRunResult {
    let problem = Dtlz::dtlz2_5();
    run_virtual_async(
        &problem,
        BorgConfig::new(5, 0.06),
        &gate_config(seed),
        rec,
        |_, _| {},
    )
}

fn gate_config(seed: u64) -> VirtualConfig {
    VirtualConfig {
        processors: 8,
        max_nfe: 2_000,
        t_f: Dist::normal_cv(0.001, 0.1),
        t_c: Dist::Constant(0.000_006),
        t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
        seed,
    }
}

fn gate_faults() -> FaultConfig {
    FaultConfig {
        crash_rate: 0.25,
        drop_rate: 0.05,
        ..FaultConfig::default()
    }
}

fn run_once_faulty(seed: u64, rec: &dyn Recorder) -> VirtualRunResult {
    let problem = Dtlz::dtlz2_5();
    run_virtual_async_with(
        &problem,
        BorgConfig::new(5, 0.06),
        &FaultyRun::new(&gate_config(seed), &gate_faults()),
        rec,
        |_, _| {},
    )
}

/// Compares two same-seed runs bit-for-bit — every queueing-outcome field,
/// NFE, the final archive and population and the fault ledger; `Err`
/// carries a readable diff prefixed with `label`. The sampled `T_A` is not
/// in the result: [`diff_histograms`] compares it on the runs' recorders.
fn diff_runs(label: &str, a: &VirtualRunResult, b: &VirtualRunResult) -> Result<(), String> {
    // `{:?}` prints each f64 as its shortest round-trip decimal, so two
    // renderings are equal exactly when every field's bits are (NaN aside).
    let (outcome_a, outcome_b) = (format!("{:?}", a.outcome), format!("{:?}", b.outcome));
    if outcome_a != outcome_b {
        return Err(format!(
            "{label}: outcome diverged: {outcome_a} vs {outcome_b}"
        ));
    }
    if a.engine.nfe() != b.engine.nfe() {
        return Err(format!(
            "{label}: NFE diverged: {} vs {}",
            a.engine.nfe(),
            b.engine.nfe()
        ));
    }
    // Every archive member's objectives, variables and constraints, and
    // the population's variable and objective rows.
    let (arch_a, arch_b) = (a.engine.archive(), b.engine.archive());
    if arch_a.len() != arch_b.len() {
        return Err(format!(
            "{label}: archive size diverged: {} vs {}",
            arch_a.len(),
            arch_b.len()
        ));
    }
    for (i, (sa, sb)) in arch_a.members().zip(arch_b.members()).enumerate() {
        for (rows, x, y) in [
            ("objectives", sa.objectives(), sb.objectives()),
            ("variables", sa.variables(), sb.variables()),
            ("constraints", sa.constraints(), sb.constraints()),
        ] {
            if !bits_eq(x, y) {
                return Err(format!(
                    "{label}: archive member {i} {rows} diverged: {x:?} vs {y:?}"
                ));
            }
        }
    }
    let (pop_a, pop_b) = (a.engine.population(), b.engine.population());
    if pop_a.len() != pop_b.len() {
        return Err(format!(
            "{label}: population size diverged: {} vs {}",
            pop_a.len(),
            pop_b.len()
        ));
    }
    for i in 0..pop_a.len() {
        if !bits_eq(pop_a.variables(i), pop_b.variables(i)) {
            return Err(format!("{label}: population member {i} variables diverged"));
        }
        let bits = |o: f64| o.to_bits();
        if !pop_a
            .objectives(i)
            .map(bits)
            .eq(pop_b.objectives(i).map(bits))
        {
            return Err(format!(
                "{label}: population member {i} objectives diverged"
            ));
        }
    }
    if a.fault_log != b.fault_log {
        return Err(format!(
            "{label}: fault ledgers diverged: {} vs {}",
            a.fault_log.summary(),
            b.fault_log.summary()
        ));
    }
    Ok(())
}

/// Compares the `name` duration histograms two same-seed runs left on
/// their recorders: count, every bucket, min, max and the sum's bits. An
/// empty histogram fails, so a lost instrumentation hook cannot pass.
fn diff_histograms(
    label: &str,
    name: &str,
    a: &InMemoryRecorder,
    b: &InMemoryRecorder,
) -> Result<(), String> {
    let hist = |rec: &InMemoryRecorder| rec.snapshot().histograms.remove(name).unwrap_or_default();
    let (a, b) = (hist(a), hist(b));
    if a.count() == 0 || a != b || a.sum().to_bits() != b.sum().to_bits() {
        return Err(format!(
            "{label}: {name} histograms empty or diverged: count {} vs {}, sum {} vs {}",
            a.count(),
            b.count(),
            a.sum(),
            b.sum()
        ));
    }
    Ok(())
}

/// Runs the same-seed-twice check — a fault-free arm and a fault-replay arm
/// (crashes + message loss) — demanding bit-identical archives, virtual
/// clocks, and fault ledgers, then diffs the golden Table II / faults cells
/// under `crates/xtask/golden/` against the current engine. `Err` carries a
/// human-readable diff.
pub(crate) fn run(root: &std::path::Path) -> Result<DeterminismReport, String> {
    let seed = 0xB0C4_2026u64;
    let metrics = InMemoryRecorder::metrics_only;
    let (rec_a, rec_b) = (metrics(), metrics());
    let a = run_once(seed, &rec_a);
    let b = run_once(seed, &rec_b);
    diff_runs("fault-free", &a, &b)?;
    diff_histograms("fault-free", "t_a_seconds", &rec_a, &rec_b)?;

    let (frec_a, frec_b) = (metrics(), metrics());
    let fa = run_once_faulty(seed, &frec_a);
    let fb = run_once_faulty(seed, &frec_b);
    diff_runs("fault-replay", &fa, &fb)?;
    diff_histograms("fault-replay", "t_a_seconds", &frec_a, &frec_b)?;
    if fa.fault_log.injected() == 0 {
        return Err(
            "fault-replay arm injected nothing; the replay check is vacuous \
             (crash/drop rates or the plan seed derivation changed?)"
                .to_string(),
        );
    }
    if fa.engine.nfe() != a.engine.nfe() {
        return Err(format!(
            "fault-replay arm did not complete the budget: NFE {} vs {}",
            fa.engine.nfe(),
            a.engine.nfe()
        ));
    }

    // Observability arm: attaching the collecting sink must not perturb
    // the run — archive, virtual clock, and fault ledger of the observed
    // runs above stay bit-identical to no-op-recorder runs.
    let quiet = run_once(seed, &NoopRecorder);
    diff_runs("recorder-attach", &quiet, &a)?;
    let fquiet = run_once_faulty(seed, &NoopRecorder);
    diff_runs("recorder-attach (fault replay)", &fquiet, &fa)?;
    let recorder_evals = rec_a
        .snapshot()
        .histograms
        .get("t_f_seconds")
        .map_or(0, |h| h.count());
    if recorder_evals < a.engine.nfe() {
        return Err(format!(
            "recorder arm observed {recorder_evals} evaluations for an NFE-{} run; \
             instrumentation hooks lost?",
            a.engine.nfe()
        ));
    }

    // Flight-recorder arm: strap the black box (tracing recorder + flight
    // ring) onto two more same-seed fault-replay runs. Both must stay
    // bit-identical to the oracle above, and — because the DES is
    // single-threaded virtual time — the two rings must dump
    // byte-identical JSONL.
    let flight_events = flight_arm(seed, &fa)?;

    // Parallel-runner arm: the runner's sweep contract. `--jobs 1`
    // and `--jobs 4` must yield byte-identical experiment outputs.
    let (parallel_rows, parallel_jsonl_lines) = parallel_runner_arm()?;

    // Networked arm: the same faulty run over real Unix-domain sockets
    // with the chaos proxy enacting the plan must match the DES oracle
    // (the fault-replay run above) bit for bit — with the full
    // observability stack (tracing + flight ring + live tap) attached.
    let (net_wire_results, net_wire_faults, tap_frames) = networked_chaos_arm(seed, &fa, &frec_a)?;

    let golden = crate::golden::check(root)?;

    Ok(DeterminismReport {
        nfe: a.engine.nfe(),
        archive_size: a.engine.archive().len(),
        elapsed: a.outcome.elapsed,
        faults_injected: fa.fault_log.injected(),
        fault_reissues: fa.fault_log.reissues,
        golden_rows: golden.rows,
        recorder_evals,
        parallel_rows,
        parallel_jsonl_lines,
        flight_events,
        net_wire_results,
        net_wire_faults,
        tap_frames,
    })
}

/// Runs the fault-replay configuration twice with a [`FlightRecorder`]
/// ring layered over a tracing recorder; demands both runs bit-identical
/// to `oracle`, their `t_f_seconds` histograms identical and the two
/// black-box dumps byte-identical. Returns the events recorded per run.
fn flight_arm(seed: u64, oracle: &VirtualRunResult) -> Result<u64, String> {
    let fly = |label: &str| -> Result<(u64, String, InMemoryRecorder), String> {
        let rec = InMemoryRecorder::new();
        let ring = FlightRecorder::new(4096);
        let run = run_once_faulty(seed, &WithFlight::new(&rec, &ring));
        diff_runs(label, oracle, &run)?;
        Ok((ring.recorded(), ring.dump_jsonl("shutdown"), rec))
    };
    let (events, dump_a, rec_a) = fly("flight-attach")?;
    let (_, dump_b, rec_b) = fly("flight-attach (second run)")?;
    // The drawn T_F.
    diff_histograms("flight arm", "t_f_seconds", &rec_a, &rec_b)?;
    if events == 0 {
        return Err(
            "flight arm recorded zero events; the engine's flight hooks are lost".to_string(),
        );
    }
    if dump_a != dump_b {
        let diverged = dump_a
            .lines()
            .zip(dump_b.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y);
        return Err(match diverged {
            Some((n, (x, y))) => format!(
                "flight arm: black-box dumps diverged at line {}: `{x}` vs `{y}`",
                n + 1
            ),
            None => format!(
                "flight arm: black-box dump line counts diverged: {} vs {}",
                dump_a.lines().count(),
                dump_b.lines().count()
            ),
        });
    }
    Ok(events)
}

/// Runs the chaos-mode networked loopback (in-process workers over Unix
/// sockets, faults physically enacted by the proxy) under the full
/// observability stack — tracing [`InMemoryRecorder`], black-box
/// [`FlightRecorder`] ring, and a live metrics tap with a real
/// subscriber draining delta frames — and demands bit-identity with the
/// DES fault oracle, the sampled `T_A` charged included (`oracle_rec`'s
/// `t_a_seconds`); returns (result frames consumed off the wire,
/// faults enacted on the wire, tap frames the subscriber drained).
fn networked_chaos_arm(
    seed: u64,
    oracle: &VirtualRunResult,
    oracle_rec: &InMemoryRecorder,
) -> Result<(u64, usize, u64), String> {
    let config = gate_config(seed);
    let workers = (config.processors - 1) as usize;
    let chaos = ChaosConfig::loopback(&std::env::temp_dir(), "determinism-gate", workers);
    let resolve = |name: &str| -> Option<Box<dyn Problem>> {
        (name == "dtlz2-5").then(|| Box::new(Dtlz::dtlz2_5()) as Box<dyn Problem>)
    };
    let rec = InMemoryRecorder::new();
    let ring = FlightRecorder::new(4096);
    let observed = WithFlight::new(&rec, &ring);
    let tap_path =
        std::env::temp_dir().join(format!("borg-determinism-tap-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&tap_path);
    let tap_addr = NetAddr::Unix(tap_path.clone());
    let tap_cfg = TapConfig {
        listen: tap_addr.clone(),
        interval: Duration::from_millis(10),
        read_timeout: Duration::from_millis(5),
    };
    let listener = NetListener::bind(&tap_addr)
        .map_err(|e| format!("networked arm: bind tap listener: {e}"))?;
    let stop = AtomicBool::new(false);
    let (net, tap_frames) = std::thread::scope(|scope| {
        let tap = scope.spawn(|| tap_loop(&listener, &tap_cfg, &|| rec.snapshot(), &stop, &rec));
        let sub = scope.spawn(|| {
            let mut backoff = Backoff::default_schedule();
            let Ok(stream) =
                connect_with_backoff(&tap_addr, &mut backoff, Duration::from_millis(250))
            else {
                return 0u64;
            };
            let mut conn = Conn::new(stream);
            let mut frames = 0u64;
            loop {
                // `Ok(None)` is a read-timeout tick; the tap severing the
                // subscriber at shutdown surfaces as `Err`.
                match conn.recv() {
                    Ok(Some(Msg::Tap { .. })) => frames += 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            frames
        });
        let net = run_chaos_loopback(
            BorgConfig::new(5, 0.06),
            &config,
            &gate_faults(),
            &chaos,
            "dtlz2-5",
            &resolve,
            &observed,
        );
        stop.store(true, Ordering::SeqCst);
        let _ = tap.join();
        let tap_frames = sub.join().unwrap_or(0);
        (net, tap_frames)
    });
    let _ = std::fs::remove_file(&tap_path);
    let net = net.map_err(|e| format!("networked arm: chaos loopback run failed: {e}"))?;
    if ring.recorded() == 0 {
        return Err(
            "networked arm: the flight ring recorded nothing; net.* flight hooks lost?".to_string(),
        );
    }
    if tap_frames == 0 {
        return Err(
            "networked arm: the live-tap subscriber drained zero delta frames; \
             the tap never ticked"
                .to_string(),
        );
    }

    if let Some(why) = &net.degraded {
        return Err(format!(
            "networked arm degraded to local evaluation ({why}); the wire was not load-bearing"
        ));
    }
    if net.wire_results == 0 {
        return Err("networked arm consumed zero result frames off the wire; \
                    the check is vacuous"
            .to_string());
    }
    diff_runs("networked arm", &net.run, oracle)?;
    diff_histograms("networked arm", "t_a_seconds", &rec, oracle_rec)?;
    // The proxy's wire-side ledger enacted the same faults kind for kind
    // (its timestamps are wall-clock, so only the counts are comparable).
    for kind in [
        FaultKind::Crash,
        FaultKind::MessageDrop,
        FaultKind::MessageDuplicate,
    ] {
        if net.wire_log.injected_of(kind) != oracle.fault_log.injected_of(kind) {
            return Err(format!(
                "networked arm: wire ledger count for {kind:?} diverged: {} vs {}",
                net.wire_log.injected_of(kind),
                oracle.fault_log.injected_of(kind)
            ));
        }
    }
    Ok((net.wire_results, net.wire_log.injected(), tap_frames))
}

/// One jobs-setting's rendered sweep outputs, plus bit-exact row
/// fingerprints (rendering rounds floats; the raw bits catch 1-ulp drift
/// the CSV would hide).
struct SweepOutputs {
    table_csv: String,
    table_bits: Vec<u64>,
    metrics_jsonl: String,
}

fn sweep_outputs(jobs: usize) -> SweepOutputs {
    // Sampled T_A keeps the runs independent of host timing, so equality
    // across jobs settings is exact, not approximate.
    // Several cells of several replicates each, so at jobs = 4 cells
    // finish, and fold, out of order.
    let t2 = Table2Config {
        evaluations: 1_000,
        replicates: 3,
        processors: vec![8, 16],
        tf_means: vec![0.001, 0.01],
        problems: vec![PaperProblem::Dtlz2],
        sampled_ta: Some(0.000_03),
        jobs,
        ..Table2Config::default()
    };
    let mut jsonl = String::new();
    let rows = run_table2_with(&t2, |row, snap| {
        jsonl.push_str(&metrics_jsonl(
            &[
                ("problem", row.problem.to_string()),
                ("p", row.processors.to_string()),
            ],
            snap,
        ));
    });
    let mut table_bits = Vec::new();
    for r in &rows {
        table_bits.extend([
            r.experimental_time.to_bits(),
            r.t_a.to_bits(),
            r.efficiency.to_bits(),
            r.simulation_time.to_bits(),
            r.master_utilization.to_bits(),
        ]);
    }

    SweepOutputs {
        table_csv: render_table2(&rows).to_csv(),
        table_bits,
        metrics_jsonl: jsonl,
    }
}

/// Runs the smoke sweep at `jobs = 1` and `jobs = 4` and demands
/// byte-identical outputs; returns (rows compared, JSONL lines compared).
fn parallel_runner_arm() -> Result<(usize, usize), String> {
    let serial = sweep_outputs(1);
    let parallel = sweep_outputs(4);
    if serial.table_bits != parallel.table_bits || serial.table_csv != parallel.table_csv {
        return Err(format!(
            "parallel-runner arm: Table II rows diverged between jobs=1 and jobs=4:\n\
             --- jobs=1 ---\n{}--- jobs=4 ---\n{}",
            serial.table_csv, parallel.table_csv
        ));
    }
    if serial.metrics_jsonl != parallel.metrics_jsonl {
        let diverged = serial
            .metrics_jsonl
            .lines()
            .zip(parallel.metrics_jsonl.lines())
            .enumerate()
            .find(|(_, (s, p))| s != p);
        return Err(match diverged {
            Some((n, (s, p))) => format!(
                "parallel-runner arm: metrics JSONL diverged at line {}: jobs=1 `{s}` vs \
                 jobs=4 `{p}`",
                n + 1
            ),
            None => format!(
                "parallel-runner arm: metrics JSONL line counts diverged: jobs=1 has {}, \
                 jobs=4 has {}",
                serial.metrics_jsonl.lines().count(),
                parallel.metrics_jsonl.lines().count()
            ),
        });
    }
    let jsonl_lines = serial.metrics_jsonl.lines().count();
    if jsonl_lines == 0 {
        return Err(
            "parallel-runner arm compared zero metrics lines; the check is vacuous \
             (per-replicate recorders lost?)"
                .to_string(),
        );
    }
    let rows = serial.table_csv.lines().count().saturating_sub(1);
    Ok((rows, jsonl_lines))
}

/// Bit-exact slice comparison (plain f64 `==` on objectives is exactly what
/// BORG-L005's `clippy::float_cmp` rejects; bit comparison is the honest
/// test here).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_gate_passes() {
        let root = crate::workspace_root().expect("workspace root");
        let report = run(&root).expect("same-seed runs must be identical");
        assert_eq!(report.nfe, 2_000);
        assert!(report.archive_size > 5);
        assert!(report.elapsed > 0.0);
        assert!(report.faults_injected > 0, "fault-replay arm must inject");
        assert!(report.golden_rows > 0, "golden gate must compare rows");
        assert!(
            report.recorder_evals >= report.nfe,
            "recorder arm must observe every evaluation"
        );
        assert!(
            report.parallel_rows > 0,
            "parallel-runner arm must compare rows"
        );
        assert!(
            report.parallel_jsonl_lines > 0,
            "parallel-runner arm must compare metrics lines"
        );
        assert!(
            report.flight_events > 0,
            "flight arm must record black-box events"
        );
        assert_eq!(
            report.net_wire_results, report.nfe,
            "networked arm must pull every evaluation off the wire"
        );
        assert!(
            report.net_wire_faults > 0,
            "networked arm must physically enact faults"
        );
        assert!(
            report.tap_frames > 0,
            "the live-tap subscriber must drain delta frames"
        );
    }

    #[test]
    fn different_seeds_actually_differ() {
        // Guards against the gate vacuously passing because the config is
        // ignored: two different seeds must not produce identical archives.
        let a = run_once(1, &NoopRecorder);
        let b = run_once(2, &NoopRecorder);
        assert_ne!(
            a.engine.archive().objective_vectors(),
            b.engine.archive().objective_vectors()
        );
    }
}
