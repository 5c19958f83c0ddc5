//! The `core` bench group: the algorithm-core hot paths the speed campaign
//! targets — ε-archive insertion (indexed vs the retained linear-scan
//! oracle), the steady-state tournament + replacement step, the population
//! replacement scan and tournament at paper scale (12k members, 5-D), batch
//! problem evaluation over the flat objective matrix, and incremental
//! hypervolume insertion. Tracked by `cargo xtask bench` as the `core`
//! trajectory group.

use borg_core::algorithm::{BorgConfig, BorgEngine};
use borg_core::archive::{EpsilonArchive, LinearScanArchive};
use borg_core::matrix::ObjectiveMatrix;
use borg_core::population::Population;
use borg_core::problem::Problem;
use borg_core::rng::rng_from_seed;
use borg_core::solution::Solution;
use borg_metrics::incremental::IncrementalHv;
use borg_problems::dtlz::Dtlz;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng;

/// A candidate stream of mutually nondominated front points in scrambled
/// order: the archive grows to ~n members, the regime where the linear
/// scan's O(members) per candidate dominates `T_A` and the ε-grid index
/// pays off.
fn candidate_stream(n: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            // Bit-reversal-ish scramble so insertions arrive in no useful
            // order while every t stays distinct.
            let j = (i.wrapping_mul(0x9E37) ^ (i >> 3)) % n;
            let t = j as f64 / n as f64;
            let mut objs = vec![1.0 - t; m];
            objs[0] = t;
            objs
        })
        .collect()
}

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("core");
    group.sample_size(10);

    // ε-archive insertion at two scales, indexed vs the linear oracle. The
    // tiny ε keeps acceptance high so the archive really reaches ~n members
    // and the scan cost dominates.
    for &n in &[1_000usize, 10_000] {
        let stream = candidate_stream(n, 2);
        group.bench_function(format!("archive_add_{n}_indexed"), |b| {
            b.iter(|| {
                let mut a = EpsilonArchive::uniform(2, 1e-4);
                for objs in &stream {
                    a.add(Solution::from_parts(vec![], objs.clone(), vec![]));
                }
                black_box(a.len())
            })
        });
        group.bench_function(format!("archive_add_{n}_linear"), |b| {
            b.iter(|| {
                let mut a = LinearScanArchive::uniform(2, 1e-4);
                for objs in &stream {
                    a.add(Solution::from_parts(vec![], objs.clone(), vec![]));
                }
                black_box(a.len())
            })
        });
    }

    // One full steady-state iteration: adaptive selection + tournament
    // parents + variation (produce), evaluation, then archive offer +
    // population replacement (consume). The engine is warmed past its
    // initial fill first so every measured step takes the steady arm.
    let problem = Dtlz::new(borg_problems::dtlz::DtlzVariant::Dtlz2, 3);
    let mut engine = BorgEngine::new(
        &problem,
        BorgConfig::new(problem.num_objectives(), 0.05),
        11,
    );
    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];
    for _ in 0..500 {
        let cand = engine.produce();
        problem.evaluate(&cand.variables, &mut objs, &mut cons);
        let sol = engine.make_solution_recycled(cand, &objs, &cons);
        engine.consume(sol);
    }
    group.bench_function("steady_state_step", |b| {
        b.iter(|| {
            let cand = engine.produce();
            problem.evaluate(&cand.variables, &mut objs, &mut cons);
            let sol = engine.make_solution_recycled(cand, &objs, &cons);
            engine.consume(sol);
            engine.nfe()
        })
    });

    // The paper-scale population (`serial-dtlz2-5` ends at 12 372 members):
    // 12 288 mutually nondominated 5-D rows — points of the positive unit
    // sphere, DTLZ2's front — so every offer scans the whole population and
    // replaces a random member, and every tournament comparison is between
    // nondominated rows. `steady_state_step` above runs a 100-member
    // population and cannot see this regime. The displaced member is the
    // next offspring, so the loop allocates nothing.
    let mut rng = rng_from_seed(17);
    let mut sphere_point = || {
        let mut objs: Vec<f64> = (0..5).map(|_| rng.gen_range(0.05..1.0)).collect();
        let norm = objs.iter().map(|x| x * x).sum::<f64>().sqrt();
        objs.iter_mut().for_each(|x| *x /= norm);
        Solution::from_parts(vec![], objs, vec![])
    };
    let mut population = Population::new(12_288);
    while population.fill(sphere_point()) {}
    let mut offspring = Some(sphere_point());
    let mut rng = rng_from_seed(19);
    group.bench_function("population_offer_12k_5d", |b| {
        b.iter(|| {
            let next = offspring.take().expect("an offer returns a member");
            let (verdict, displaced) = population.offer_replacing(next, &mut rng);
            offspring = displaced;
            verdict
        })
    });
    // Warm the row-major rows into cache first, where the steady-state loop
    // (a thousand random rows an evaluation) keeps most of them; ten cold
    // calls would time first touches of a 490 KB matrix instead.
    for _ in 0..4_096 {
        black_box(population.tournament_select(248, &mut rng));
    }
    group.bench_function("tournament_k248_12k_5d", |b| {
        b.iter(|| population.tournament_select(black_box(248), &mut rng))
    });

    // Batch evaluation over the flat matrix: 256 DTLZ2 rows behind a single
    // virtual call.
    let mut rng = rng_from_seed(23);
    let l = problem.num_variables();
    let mut vars = ObjectiveMatrix::new(l);
    let mut row = vec![0.0; l];
    for _ in 0..256 {
        for slot in row.iter_mut() {
            *slot = rng.gen();
        }
        vars.push_row(&row);
    }
    let mut batch_objs = ObjectiveMatrix::new(problem.num_objectives());
    let mut batch_cons = ObjectiveMatrix::new(problem.num_constraints());
    group.bench_function("batch_dtlz2_eval_256", |b| {
        b.iter(|| {
            problem.evaluate_batch(black_box(&vars), &mut batch_objs, &mut batch_cons);
            batch_objs.rows()
        })
    });

    // Incremental hypervolume: 32 inserts against a ~200-member 3-D front
    // (the clone of the base tracker is amortized across the inserts).
    let mut base = IncrementalHv::new(vec![1.5; 3]);
    let mut rng = rng_from_seed(31);
    for _ in 0..200 {
        let p: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
        base.insert(&p);
    }
    let fresh: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..3).map(|_| rng.gen::<f64>()).collect())
        .collect();
    group.bench_function("incremental_hv_insert_32", |b| {
        b.iter(|| {
            let mut inc = base.clone();
            for p in &fresh {
                inc.insert(p);
            }
            black_box(inc.value())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_core);
criterion_main!(benches);
