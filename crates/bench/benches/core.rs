//! The `core` bench group: the algorithm-core hot paths the speed campaign
//! targets — ε-archive insertion (a 2-D curve at two sizes and the
//! paper-shaped 5-D case), the steady-state tournament + replacement step,
//! the population replacement scan and tournament at paper scale (12k
//! members, 5-D) and at the other end (100 members, 2-D, every lane
//! decided: where the order-key filter is pure overhead), batch problem
//! evaluation over the flat objective matrix, and incremental hypervolume
//! insertion.

use borg_core::algorithm::{BorgConfig, BorgEngine};
use borg_core::archive::EpsilonArchive;
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
/// order: the archive grows to ~n members, so every insertion scans all of
/// them.
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

    // ε-archive insertion on a 2-D curve at two scales. The tiny ε keeps
    // acceptance high so the archive really reaches ~n members and the scan
    // cost dominates. (The ids predate the blocked scan; "indexed" is the
    // archive, whatever it does inside.)
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
    }

    // The paper-shaped case (`serial-dtlz2-5` ends at 3 825 members): 5-D
    // points of the positive unit sphere at ε = 0.06. The archive is filled
    // to that size first; each timed call then offers the next 1 000 points
    // of the same stream — rejections, in-box replacements and new boxes
    // with evictions — so divide the printed time by 1 000.
    let mut rng = rng_from_seed(13);
    let mut sphere_point = || {
        let mut objs: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..1.0)).collect();
        let norm = objs.iter().map(|x| x * x).sum::<f64>().sqrt();
        objs.iter_mut().for_each(|x| *x /= norm);
        Solution::from_parts(vec![], objs, vec![])
    };
    let mut archive = EpsilonArchive::uniform(5, 0.06);
    while archive.len() < 3_825 {
        archive.offer(&sphere_point());
    }
    group.bench_function("archive_offer_3k8_5d", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                black_box(archive.offer(&sphere_point()));
            }
            archive.len()
        })
    });

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
    // 100 000 steps a timed call, so divide the printed time by 10⁵. One
    // step a call (this id's form until PR 17) timed ten draws from a
    // distribution whose steps differ by the operator drawn and by whether
    // the archive accepts, on top of two clock reads: the same binary read
    // 529–929 ns from run to run (DESIGN.md §16).
    group.bench_function("steady_state_100k_steps", |b| {
        b.iter(|| {
            for _ in 0..100_000 {
                let cand = engine.produce();
                problem.evaluate(&cand.variables, &mut objs, &mut cons);
                let sol = engine.make_solution_recycled(cand, &objs, &cons);
                engine.consume(sol);
            }
            engine.nfe()
        })
    });

    // The paper-scale population (`serial-dtlz2-5` ends at 12 372 members):
    // 12 288 mutually nondominated 5-D rows — points of the positive unit
    // sphere, DTLZ2's front — so every offer scans the whole population and
    // replaces a random member, and every tournament comparison is between
    // nondominated rows. `steady_state_100k_steps` above starts from a
    // 100-member population and cannot see this regime. The displaced member is the
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
    // Warm the packed keys into cache first, where the steady-state loop (a
    // thousand random members an evaluation) keeps most of them; ten cold
    // calls would time first touches of 197 KB of keys instead.
    for _ in 0..4_096 {
        black_box(population.tournament_select(248, &mut rng));
    }
    group.bench_function("tournament_k248_12k_5d", |b| {
        b.iter(|| population.tournament_select(black_box(248), &mut rng))
    });

    // The other end of the scale: 100 members in two objectives (13 blocks,
    // the population `virtual-p1024` and the wire workloads run), every
    // offspring a little better than the last and so dominating every
    // member. Each block is decided, the order keys can skip none, and what
    // they cost there is this id's difference from its parent.
    let mut rng = rng_from_seed(21);
    let mut small = Population::new(100);
    while small.fill(Solution::from_parts(
        vec![],
        vec![rng.gen_range(1.0..2.0), rng.gen_range(1.0..2.0)],
        vec![],
    )) {}
    let mut level = 1.0;
    let mut offspring = Some(Solution::from_parts(vec![], vec![level; 2], vec![]));
    group.bench_function("population_offer_100_2d", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                let next = offspring.take().expect("an offer returns a member");
                let (_, displaced) = small.offer_replacing(next, &mut rng);
                let (variables, mut objectives, constraints) =
                    displaced.expect("a full population displaces").into_parts();
                level -= 1e-9;
                objectives.fill(level);
                offspring = Some(Solution::from_parts(variables, objectives, constraints));
            }
            small.len()
        })
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
