//! Integration tests for the extension components: the NSGA-II baseline
//! and the island topology.

use borg_repro::core::algorithm::{run_serial, BorgConfig};
use borg_repro::core::nsga2::{run_nsga2_serial, Nsga2Config};
use borg_repro::metrics::relative::RelativeHypervolume;
use borg_repro::models::dist::Dist;
use borg_repro::parallel::islands::{run_islands, IslandConfig};
use borg_repro::parallel::virtual_exec::TaMode;
use borg_repro::problems::dtlz::Dtlz;
use borg_repro::problems::refsets::{dtlz2_front, zdt_front};
use borg_repro::problems::zdt::{Zdt, ZdtVariant};

#[test]
fn nsga2_and_borg_agree_on_biobjective_quality() {
    // On bi-objective ZDT2 both algorithms should reach a high-quality
    // front; neither should be wildly ahead.
    let problem = Zdt::with_variables(ZdtVariant::Zdt2, 12);
    let reference = zdt_front(&problem, 400);
    let metric = RelativeHypervolume::exact(&reference);
    let nfe = 12_000;

    let borg = run_serial(&problem, BorgConfig::new(2, 0.01), 5, nfe, |_| {});
    let borg_hv = metric.ratio(&borg.archive().objective_vectors());

    let nsga = run_nsga2_serial(&problem, Nsga2Config::default(), 5, nfe, |_| {});
    let front: Vec<Vec<f64>> = nsga
        .front()
        .iter()
        .map(|s| s.objectives().to_vec())
        .collect();
    let nsga_hv = metric.ratio(&front);

    assert!(borg_hv > 0.85, "Borg hv {borg_hv}");
    assert!(nsga_hv > 0.85, "NSGA-II hv {nsga_hv}");
}

#[test]
fn nsga2_collapses_on_many_objectives_where_borg_does_not() {
    // The many-objective failure mode that motivated ε-dominance methods:
    // with 5 objectives nearly everything is Pareto-nondominated, so
    // NSGA-II's rank-based selection degenerates to random walk while
    // Borg's ε-archive + adaptive operators keep converging.
    let problem = Dtlz::dtlz2_5();
    let metric = RelativeHypervolume::monte_carlo(&dtlz2_front(5, 6), 20_000, 17);
    let nfe = 10_000;

    let borg = run_serial(&problem, BorgConfig::new(5, 0.1), 6, nfe, |_| {});
    let borg_hv = metric.ratio(&borg.archive().objective_vectors());

    let nsga = run_nsga2_serial(&problem, Nsga2Config::default(), 6, nfe, |_| {});
    let front: Vec<Vec<f64>> = nsga
        .front()
        .iter()
        .map(|s| s.objectives().to_vec())
        .collect();
    let nsga_hv = metric.ratio(&front);

    assert!(borg_hv > 0.5, "Borg hv {borg_hv}");
    assert!(
        borg_hv > 3.0 * nsga_hv.max(1e-6),
        "expected a decisive gap: Borg {borg_hv} vs NSGA-II {nsga_hv}"
    );
}

#[test]
fn island_topology_scales_throughput_with_master_count() {
    let problem = Dtlz::dtlz2_5();
    let nfe = 8_000;
    let elapsed_for = |islands: usize, workers: usize| {
        let cfg = IslandConfig {
            islands,
            workers_per_island: workers,
            max_nfe: nfe,
            t_f: Dist::Constant(0.0002), // deep saturation for one master
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
            migration_interval: 500,
            migration_size: 4,
            seed: 77,
        };
        run_islands(&problem, BorgConfig::new(5, 0.1), &cfg).elapsed
    };
    let one = elapsed_for(1, 128);
    let four = elapsed_for(4, 32);
    // Saturated throughput ∝ master count: expect close to 4× (allow 2.5×).
    assert!(
        four < one / 2.5,
        "4 masters should give ≳2.5× throughput: {one} vs {four}"
    );
}
