//! End-to-end algorithm quality: the Borg MOEA must actually solve the
//! paper's workloads, serially and in (virtual-time) parallel.

use borg_obs::NoopRecorder;
use borg_repro::core::algorithm::{run_serial, BorgConfig};
use borg_repro::metrics::relative::RelativeHypervolume;
use borg_repro::models::dist::Dist;
use borg_repro::parallel::virtual_exec::{run_virtual_async, TaMode, VirtualConfig};
use borg_repro::problems::dtlz::{Dtlz, DtlzVariant};
use borg_repro::problems::refsets::dtlz2_front;
use borg_repro::problems::uf::uf11;

#[test]
fn serial_borg_solves_dtlz2_2_to_high_quality() {
    let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
    let engine = run_serial(&problem, BorgConfig::new(2, 0.01), 3, 15_000, |_| {});
    let metric = RelativeHypervolume::exact(&dtlz2_front(2, 499));
    let hv = metric.ratio(&engine.archive().objective_vectors());
    assert!(hv > 0.9, "DTLZ2-2 hypervolume ratio only {hv}");
}

#[test]
fn serial_borg_makes_progress_on_dtlz2_5d() {
    let problem = Dtlz::dtlz2_5();
    let metric = RelativeHypervolume::monte_carlo(&dtlz2_front(5, 6), 20_000, 5);
    let mut mid_hv = 0.0;
    let engine = run_serial(&problem, BorgConfig::new(5, 0.1), 4, 20_000, |e| {
        if e.nfe() == 2_000 {
            mid_hv = 0.0; // placeholder until we can compute outside
        }
    });
    let final_hv = metric.ratio(&engine.archive().objective_vectors());
    assert!(final_hv > 0.5, "DTLZ2-5D hypervolume ratio only {final_hv}");
}

#[test]
fn hypervolume_improves_with_budget_on_uf11() {
    let problem = uf11();
    let metric =
        RelativeHypervolume::monte_carlo(&borg_repro::problems::refsets::uf11_front(6), 20_000, 6);
    let cheap = run_serial(&problem, paper_cfg(), 7, 2_000, |_| {});
    let rich = run_serial(&problem, paper_cfg(), 7, 20_000, |_| {});
    let hv_cheap = metric.ratio(&cheap.archive().objective_vectors());
    let hv_rich = metric.ratio(&rich.archive().objective_vectors());
    assert!(
        hv_rich > hv_cheap,
        "more evaluations must help: {hv_cheap} → {hv_rich}"
    );
    assert!(hv_rich > 0.3, "UF11 final hv ratio only {hv_rich}");
}

fn paper_cfg() -> BorgConfig {
    let mut cfg = BorgConfig::new(5, 0.1);
    cfg.epsilons = vec![0.1, 0.2, 0.3, 0.4, 0.5];
    cfg
}

#[test]
fn dtlz2_is_easier_than_uf11_at_equal_budget() {
    // The paper's premise: UF11's rotation makes it harder for MOEAs.
    let nfe = 15_000;
    let d_metric = RelativeHypervolume::monte_carlo(&dtlz2_front(5, 6), 20_000, 8);
    let u_metric =
        RelativeHypervolume::monte_carlo(&borg_repro::problems::refsets::uf11_front(6), 20_000, 8);
    let d = run_serial(&Dtlz::dtlz2_5(), BorgConfig::new(5, 0.1), 9, nfe, |_| {});
    let u = run_serial(&uf11(), paper_cfg(), 9, nfe, |_| {});
    let d_hv = d_metric.ratio(&d.archive().objective_vectors());
    let u_hv = u_metric.ratio(&u.archive().objective_vectors());
    assert!(
        d_hv > u_hv,
        "expected DTLZ2 ({d_hv}) to outpace UF11 ({u_hv}) at {nfe} NFE"
    );
}

#[test]
fn parallel_execution_preserves_search_quality() {
    // Asynchronous parallelization changes evaluation ordering, not
    // solution quality in any systematic way.
    let problem = Dtlz::new(DtlzVariant::Dtlz2, 3);
    let metric = RelativeHypervolume::exact(&dtlz2_front(3, 12));
    let nfe = 10_000;

    let serial = run_serial(&problem, BorgConfig::new(3, 0.05), 11, nfe, |_| {});
    let serial_hv = metric.ratio(&serial.archive().objective_vectors());

    let vcfg = VirtualConfig {
        processors: 64,
        max_nfe: nfe,
        t_f: Dist::normal_cv(0.01, 0.1),
        t_c: Dist::Constant(0.000_006),
        t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
        seed: 11,
    };
    let parallel = run_virtual_async(
        &problem,
        BorgConfig::new(3, 0.05),
        &vcfg,
        &NoopRecorder,
        |_, _| {},
    );
    let parallel_hv = metric.ratio(&parallel.engine.archive().objective_vectors());

    assert!(serial_hv > 0.8, "serial hv {serial_hv}");
    assert!(
        (serial_hv - parallel_hv).abs() < 0.15,
        "parallel quality diverged: serial {serial_hv} vs parallel {parallel_hv}"
    );
}

/// Bit-exact trajectory pin for the algorithm core: FNV-1a over the variable
/// and objective bits of every archive member, then every population
/// member, in storage order. Nine restarts grow the population to 3 820
/// slots, so the replacement scan and the tournament run over hundreds of
/// members per evaluation — any change to a dominance decision, to the
/// order dominated members are collected in, or to the RNG stream lands in
/// a different fingerprint.
#[test]
fn dtlz2_5_trajectory_fingerprint_is_pinned() {
    // Computed on commit 014d872 (the scalar replacement scan). Regenerate
    // only for a diff you can explain.
    const PINNED: u64 = 0x3093_b552_0f9b_4d35;
    let engine = run_serial(
        &Dtlz::dtlz2_5(),
        BorgConfig::new(5, 0.06),
        7,
        10_000,
        |_| {},
    );
    assert_eq!(engine.stats().restarts, 9);
    assert_eq!(engine.population().capacity(), 3_820);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |values: &mut dyn Iterator<Item = f64>| {
        for value in values {
            for byte in value.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    for s in engine.archive().members() {
        mix(&mut s.variables().iter().chain(s.objectives()).copied());
    }
    let population = engine.population();
    for i in 0..population.len() {
        mix(&mut population
            .variables(i)
            .iter()
            .copied()
            .chain(population.objectives(i)));
    }
    assert_eq!(h, PINNED, "trajectory fingerprint is {h:#018x}");
    // The archive's work on that trajectory, as a count: member boxes
    // compared over the 10 000 offers, eight per block of its key mirror
    // visited. It moves when the scan visits blocks in another order or
    // stops at another one, even if every decision stays the same.
    assert_eq!(engine.archive().box_probes(), 2_853_984);
}
