//! Defining your own optimization problem — a constrained two-bar truss
//! sizing problem in the spirit of the engineering workloads that motivate
//! the paper (expensive evaluations, conflicting objectives, constraints).
//!
//! ```sh
//! cargo run --release --example custom_problem
//! ```

use borg_repro::core::algorithm::{run_serial, BorgConfig};
use borg_repro::core::problem::{Bounds, Problem};

/// Two-bar truss design: choose cross-sectional areas `a1`, `a2` (cm²) and
/// the joint height `y` (m) to simultaneously minimize structural volume
/// and joint deflection, subject to stress limits in both members.
struct TwoBarTruss;

impl Problem for TwoBarTruss {
    fn name(&self) -> &str {
        "TwoBarTruss"
    }
    fn num_variables(&self) -> usize {
        3
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn num_constraints(&self) -> usize {
        2
    }
    fn bounds(&self, i: usize) -> Bounds {
        match i {
            0 | 1 => Bounds::new(0.1, 2.0), // areas (cm², scaled)
            _ => Bounds::new(0.5, 3.0),     // joint height (m)
        }
    }
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]) {
        let (a1, a2, y) = (vars[0] * 1e-4, vars[1] * 1e-4, vars[2]);
        let load = 50_000.0; // 50 kN
        let (x1, x2) = (1.0, 1.0); // anchor offsets (m)
        let l1 = (x1 * x1 + y * y).sqrt();
        let l2 = (x2 * x2 + y * y).sqrt();
        // Member forces from static equilibrium (symmetric anchors).
        let f1 = load * l1 / (2.0 * y);
        let f2 = load * l2 / (2.0 * y);
        // Objectives: material volume (m³) and total member elongation (m)
        // — stiffer (bigger, shorter) members deflect less but weigh more.
        let e = 200e9; // steel
        objs[0] = a1 * l1 + a2 * l2;
        objs[1] = f1 * l1 / (e * a1) + f2 * l2 / (e * a2);
        // Constraints: member stresses under 400 MPa (≤ 0 feasible).
        let s_max = 400e6;
        cons[0] = f1 / a1 - s_max;
        cons[1] = f2 / a2 - s_max;
    }
}

fn main() {
    // Per-objective ε matched to each objective's magnitude (volume is
    // O(1e-4) m³, elongation O(1e-3) m).
    let mut config = BorgConfig::new(2, 1e-5);
    config.epsilons = vec![5e-6, 2e-5];
    let engine = run_serial(&TwoBarTruss, config, 11, 15_000, |_| {});

    println!(
        "archive: {} trade-off designs, all feasible",
        engine.archive().len()
    );
    println!(
        "{:>10}  {:>10}  {:>8}  {:>8}  {:>8}",
        "volume", "deflect", "a1(cm2)", "a2(cm2)", "y(m)"
    );
    let mut solutions: Vec<_> = engine.archive().members().collect();
    solutions.sort_by(|a, b| a.objectives()[0].partial_cmp(&b.objectives()[0]).unwrap());
    for s in solutions.iter().step_by((solutions.len() / 10).max(1)) {
        assert!(s.is_feasible());
        println!(
            "{:>10.5}  {:>10.6}  {:>8.2}  {:>8.2}  {:>8.2}",
            s.objectives()[0],
            s.objectives()[1],
            s.variables()[0],
            s.variables()[1],
            s.variables()[2]
        );
    }
    println!("\nSmaller volume trades against larger deflection along the front.");
}
