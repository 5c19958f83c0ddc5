//! Benches for the extension components: the island topology, the
//! algorithm-dynamics sweep, the fault-injected virtual executor (recovery
//! overhead vs the fault-free path), and the NSGA-II baseline's generation
//! step.

use borg_core::algorithm::BorgConfig;
use borg_core::nsga2::{Nsga2Config, Nsga2Engine};
use borg_core::problem::Problem;
use borg_core::solution::Solution;
use borg_desim::fault::FaultConfig;
use borg_experiments::dynamics::{run_dynamics, DynamicsConfig};
use borg_experiments::islands_exp::{run_islands_experiment, IslandsExpConfig};
use borg_models::dist::Dist;
use borg_obs::NoopRecorder;
use borg_parallel::islands::{run_islands, IslandConfig};
use borg_parallel::virtual_exec::{
    run_virtual_async, run_virtual_async_with, FaultyRun, TaMode, VirtualConfig,
};
use borg_problems::dtlz::Dtlz;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_islands(c: &mut Criterion) {
    let mut group = c.benchmark_group("islands");
    group.sample_size(10);
    for k in [1usize, 8] {
        let problem = Dtlz::dtlz2_5();
        let cfg = IslandConfig {
            islands: k,
            workers_per_island: 64 / k,
            max_nfe: 2_000,
            t_f: Dist::Constant(0.001),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
            migration_interval: 500,
            migration_size: 4,
            seed: 1,
        };
        group.bench_with_input(BenchmarkId::new("run_2k_nfe", k), &cfg, |b, cfg| {
            b.iter(|| run_islands(&problem, BorgConfig::new(5, 0.1), cfg).elapsed)
        });
    }
    group.bench_function("experiment_smoke", |b| {
        let cfg = IslandsExpConfig::default().smoke();
        b.iter(|| run_islands_experiment(&cfg))
    });
    group.finish();
}

fn bench_dynamics(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics");
    group.sample_size(10);
    let cfg = DynamicsConfig::default().smoke();
    group.bench_function("smoke_sweep", |b| b.iter(|| run_dynamics(&cfg)));
    group.finish();
}

fn bench_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("faults");
    group.sample_size(10);
    let problem = Dtlz::dtlz2_5();
    let cfg = VirtualConfig {
        processors: 64,
        max_nfe: 2_000,
        t_f: Dist::Constant(0.001),
        t_c: Dist::Constant(0.000_006),
        t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
        seed: 7,
    };
    group.bench_function("virtual_2k_nfe_fault_free", |b| {
        b.iter(|| {
            run_virtual_async(
                &problem,
                BorgConfig::new(5, 0.1),
                &cfg,
                &NoopRecorder,
                |_, _| {},
            )
            .outcome
            .elapsed
        })
    });
    for f in [0.1, 0.25] {
        let faults = FaultConfig::degraded(f);
        group.bench_with_input(
            BenchmarkId::new("virtual_2k_nfe_degraded", f),
            &faults,
            |b, faults| {
                b.iter(|| {
                    run_virtual_async_with(
                        &problem,
                        BorgConfig::new(5, 0.1),
                        &FaultyRun::new(&cfg, faults),
                        &NoopRecorder,
                        |_, _| {},
                    )
                    .outcome
                    .elapsed
                })
            },
        );
    }
    group.finish();
}

fn bench_nsga2(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2");
    group.sample_size(20);
    group.bench_function("generation_dtlz2_5d", |b| {
        let problem = Dtlz::dtlz2_5();
        let mut engine = Nsga2Engine::new(&problem, Nsga2Config::default(), 2);
        let mut objs = vec![0.0; 5];
        let mut cons = vec![];
        // Warm up a few generations so sorting runs on a full 2N pool.
        for _ in 0..5 {
            step(&problem, &mut engine, &mut objs, &mut cons);
        }
        b.iter(|| {
            step(&problem, &mut engine, &mut objs, &mut cons);
            engine.nfe()
        })
    });
    group.finish();
}

fn step(problem: &Dtlz, engine: &mut Nsga2Engine, objs: &mut [f64], cons: &mut [f64]) {
    let candidates = engine.produce_generation();
    let offspring: Vec<Solution> = candidates
        .into_iter()
        .map(|vars| {
            problem.evaluate(&vars, objs, cons);
            Solution::from_parts(vars, objs.to_vec(), cons.to_vec())
        })
        .collect();
    engine.consume_generation(offspring);
}

criterion_group!(
    benches,
    bench_islands,
    bench_dynamics,
    bench_faults,
    bench_nsga2
);
criterion_main!(benches);
