//! Differential test: every `evaluate_batch` override must agree exactly
//! with per-row `evaluate` (the batch path feeds the benchmark suite and
//! any future vectorized evaluators, so bit-identity is the contract).

use borg_core::matrix::ObjectiveMatrix;
use borg_core::problem::Problem;
use borg_problems::dtlz::{Dtlz, DtlzVariant};
use borg_problems::misc::BinhKorn;
use borg_problems::uf::uf11;

/// Tiny deterministic generator so the test needs no RNG dependency.
fn next_unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

fn check_batch<P: Problem>(p: &P) {
    let l = p.num_variables();
    let rows = 64;
    let mut vars = ObjectiveMatrix::new(l);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut row = vec![0.0; l];
    for _ in 0..rows {
        for (i, slot) in row.iter_mut().enumerate() {
            let b = p.bounds(i);
            *slot = b.lower + next_unit(&mut state) * b.range();
        }
        vars.push_row(&row);
    }

    let mut objs = ObjectiveMatrix::new(0);
    let mut cons = ObjectiveMatrix::new(0);
    p.evaluate_batch(&vars, &mut objs, &mut cons);
    assert_eq!(objs.rows(), rows, "{}", p.name());
    assert_eq!(objs.stride(), p.num_objectives(), "{}", p.name());
    assert_eq!(cons.rows(), rows, "{}", p.name());
    assert_eq!(cons.stride(), p.num_constraints(), "{}", p.name());

    let mut o = vec![0.0; p.num_objectives()];
    let mut c = vec![0.0; p.num_constraints()];
    for i in 0..rows {
        p.evaluate(vars.row(i), &mut o, &mut c);
        assert_eq!(objs.row(i), &o[..], "{} objective row {i}", p.name());
        assert_eq!(cons.row(i), &c[..], "{} constraint row {i}", p.name());
    }

    // Re-running on the same (non-empty) output matrices must reset them,
    // not append.
    p.evaluate_batch(&vars, &mut objs, &mut cons);
    assert_eq!(objs.rows(), rows);
}

#[test]
fn dtlz_batch_matches_per_row() {
    check_batch(&Dtlz::dtlz2_5());
    check_batch(&Dtlz::new(DtlzVariant::Dtlz2, 2));
}

#[test]
fn uf_batch_matches_per_row() {
    check_batch(&uf11());
}

#[test]
fn default_batch_on_dyn_problem_matches_per_row() {
    // The trait default (one dynamic dispatch per row) must agree too,
    // constraint rows included.
    let p: &dyn Problem = &BinhKorn;
    assert_eq!(p.num_constraints(), 2);
    check_batch(&p);
}
