//! The headline claim of the networked transport: under pinned timing
//! (`TaMode::Sampled`), a chaos-mode loopback run — real sockets, real
//! worker threads, a chaos proxy physically enacting the seeded
//! `FaultPlan` — produces a fault ledger, recovery actions, and final
//! archive **bit-for-bit identical** to the DES fault oracle fed the
//! same plan, and draws the same virtual `T_F` and `T_A` streams (their
//! `t_f_seconds` and `t_a_seconds` histograms).

use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_desim::fault::{FaultConfig, FaultKind};
use borg_models::dist::Dist;
use borg_net::chaos::{run_chaos_loopback, ChaosConfig};
use borg_obs::{Histogram, InMemoryRecorder};
use borg_parallel::virtual_exec::{run_virtual_async_with, FaultyRun, TaMode, VirtualConfig};
use borg_problems::dtlz::Dtlz;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn histogram(rec: &InMemoryRecorder, name: &str) -> Histogram {
    rec.snapshot()
        .histograms
        .remove(name)
        .unwrap_or_else(|| panic!("the run recorded no {name}"))
}

/// The same draws of `name` in the same order: equal counts and sum bits.
fn assert_same_draws(name: &str, net: &InMemoryRecorder, oracle: &InMemoryRecorder) {
    let (net, oracle) = (histogram(net, name), histogram(oracle, name));
    assert_eq!(net.count(), oracle.count(), "{name} count diverged");
    assert_eq!(
        net.sum().to_bits(),
        oracle.sum().to_bits(),
        "{name} stream diverged: sum {} vs {}",
        net.sum(),
        oracle.sum()
    );
}

fn resolve(name: &str) -> Option<Box<dyn Problem>> {
    (name == "dtlz2-5").then(|| Box::new(Dtlz::dtlz2_5()) as Box<dyn Problem>)
}

fn gate_config(seed: u64) -> VirtualConfig {
    VirtualConfig {
        processors: 8,
        max_nfe: 1_200,
        t_f: Dist::normal_cv(0.001, 0.1),
        t_c: Dist::Constant(0.000_006),
        t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
        seed,
    }
}

#[test]
fn chaos_loopback_matches_des_oracle_bit_for_bit() {
    let config = gate_config(0xB0C4_2026);
    let faults = FaultConfig {
        crash_rate: 0.25,
        drop_rate: 0.05,
        duplicate_rate: 0.02,
    };
    let problem = Dtlz::dtlz2_5();
    let borg = BorgConfig::new(5, 0.06);
    let oracle_rec = InMemoryRecorder::metrics_only();
    let net_rec = InMemoryRecorder::metrics_only();

    let oracle = run_virtual_async_with(
        &problem,
        borg.clone(),
        &FaultyRun::new(&config, &faults),
        &oracle_rec,
        |_, _| {},
    );
    assert!(
        oracle.fault_log.injected() > 0,
        "fault config must actually inject for the comparison to mean anything"
    );

    let chaos = ChaosConfig::loopback(&std::env::temp_dir(), "oracle-test", 7);
    let net = run_chaos_loopback(
        &problem, borg, &config, &faults, &chaos, "dtlz2-5", &resolve, &net_rec,
    )
    .expect("chaos loopback run failed");

    assert_eq!(net.degraded, None, "run fell back to local evaluation");
    assert!(
        net.wire_results > 0,
        "wire must be load-bearing: no result frame was ever consumed"
    );

    // The recovery ledger: injected faults, detection/recovery stamps,
    // reissues, suppressed duplicates, wasted NFE — all bit-identical.
    assert_eq!(
        net.run.fault_log, oracle.fault_log,
        "networked fault ledger diverged from the DES oracle"
    );

    // The run outcome: elapsed virtual time to the bit, NFE, archive.
    assert_eq!(
        net.run.outcome.elapsed.to_bits(),
        oracle.outcome.elapsed.to_bits(),
        "elapsed virtual time diverged: {} vs {}",
        net.run.outcome.elapsed,
        oracle.outcome.elapsed
    );
    assert_eq!(net.run.engine.nfe(), oracle.engine.nfe(), "NFE diverged");
    let arch_net = net.run.engine.archive();
    let arch_oracle = oracle.engine.archive();
    assert_eq!(arch_net.len(), arch_oracle.len(), "archive size diverged");
    for (i, (a, b)) in arch_net.members().zip(arch_oracle.members()).enumerate() {
        assert!(
            bits_eq(a.objectives(), b.objectives()),
            "archive member {i} objectives diverged: {:?} vs {:?}",
            a.objectives(),
            b.objectives()
        );
        assert!(
            bits_eq(a.variables(), b.variables()),
            "archive member {i} variables diverged"
        );
    }

    // The sampled timing streams consumed in the same order.
    assert_same_draws("t_a_seconds", &net_rec, &oracle_rec);
    assert_same_draws("t_f_seconds", &net_rec, &oracle_rec);

    // The proxy's wire-side ledger physically enacted the same faults,
    // kind for kind (its timestamps are wall-clock, so the full records
    // are not comparable — the counts per kind are).
    for kind in [
        FaultKind::Crash,
        FaultKind::MessageDrop,
        FaultKind::MessageDuplicate,
    ] {
        assert_eq!(
            net.wire_log.injected_of(kind),
            oracle.fault_log.injected_of(kind),
            "wire ledger count for {kind:?} diverged from the oracle"
        );
    }
}

#[test]
fn chaos_loopback_fault_free_matches_oracle_too() {
    let config = gate_config(0x5EED_0007);
    let faults = FaultConfig::default();
    let problem = Dtlz::dtlz2_5();
    let borg = BorgConfig::new(5, 0.06);
    let oracle_rec = InMemoryRecorder::metrics_only();
    let net_rec = InMemoryRecorder::metrics_only();

    let oracle = run_virtual_async_with(
        &problem,
        borg.clone(),
        &FaultyRun::new(&config, &faults),
        &oracle_rec,
        |_, _| {},
    );
    assert_eq!(oracle.fault_log.injected(), 0);

    let chaos = ChaosConfig::loopback(&std::env::temp_dir(), "quiet-test", 7);
    let net = run_chaos_loopback(
        &problem, borg, &config, &faults, &chaos, "dtlz2-5", &resolve, &net_rec,
    )
    .expect("fault-free loopback run failed");

    assert_eq!(net.degraded, None);
    assert_eq!(net.wire_log.injected(), 0, "quiet plan must inject nothing");
    assert_eq!(net.run.fault_log, oracle.fault_log);
    assert_eq!(net.run.engine.nfe(), oracle.engine.nfe());
    assert_eq!(
        net.run.outcome.elapsed.to_bits(),
        oracle.outcome.elapsed.to_bits()
    );
    assert_eq!(
        net.run.engine.archive().len(),
        oracle.engine.archive().len()
    );
    assert_same_draws("t_a_seconds", &net_rec, &oracle_rec);
    assert_same_draws("t_f_seconds", &net_rec, &oracle_rec);
    let p = u64::from(config.processors);
    let nfe = net.run.engine.nfe();
    assert_eq!(histogram(&net_rec, "t_a_seconds").count(), p - 1 + nfe);
    assert_eq!(histogram(&net_rec, "t_f_seconds").count(), nfe);
    assert_eq!(
        net.wire_results,
        net.run.engine.nfe(),
        "every NFE came off the wire"
    );
}
