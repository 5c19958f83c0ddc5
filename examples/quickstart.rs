//! Quickstart: solve a multiobjective problem with the serial Borg MOEA.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use borg_repro::prelude::*;

fn main() {
    // The 3-objective DTLZ2 benchmark: minimize three conflicting
    // objectives whose Pareto front is the positive octant of the unit
    // sphere.
    let problem = Dtlz::new(DtlzVariant::Dtlz2, 3);

    // ε = 0.05 controls the archive resolution: smaller ε keeps more,
    // finer-grained solutions.
    let config = BorgConfig::new(3, 0.05);

    // Run 20,000 function evaluations with a fixed seed.
    let engine = run_serial(&problem, config, 42, 20_000, |engine| {
        if engine.nfe() % 5_000 == 0 {
            println!(
                "nfe {:>6}: archive {:>4} solutions, {} restarts",
                engine.nfe(),
                engine.archive().len(),
                engine.stats().restarts
            );
        }
    });

    // Measure quality against the analytic Pareto front.
    let reference = dtlz2_front(3, 20);
    let metric = RelativeHypervolume::exact(&reference);
    let ratio = metric.ratio(&engine.archive().objective_vectors());
    println!("\nfinal archive: {} solutions", engine.archive().len());
    println!("hypervolume ratio vs true front: {ratio:.3} (1.0 = ideal)");

    println!("\noperator selection probabilities after adaptation:");
    for (name, p) in engine
        .operator_names()
        .iter()
        .zip(engine.operator_probabilities())
    {
        println!("  {name:<7} {:>5.1}%", p * 100.0);
    }

    println!("\nfirst five archive members (objectives):");
    for s in engine.archive().members().take(5) {
        let objs: Vec<String> = s.objectives().iter().map(|o| format!("{o:.3}")).collect();
        println!("  [{}]", objs.join(", "));
    }

    assert!(ratio > 0.5, "search failed to approach the front");
}
