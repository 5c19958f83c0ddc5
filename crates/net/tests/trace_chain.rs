//! Cross-process distributed tracing under chaos: every process records
//! only the trace edges it observed (master shard + one shard per
//! external worker thread with its own recorder), and the deterministic
//! merge must reconstruct **exactly one** connected dispatch → evaluate →
//! consume chain per completed evaluation — despite crashes (a crashed
//! worker's socket is closed for good), dropped results, and duplicated
//! frames on the wire.

use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_desim::fault::FaultConfig;
use borg_models::dist::Dist;
use borg_net::chaos::{run_chaos_loopback, ChaosConfig};
use borg_net::worker::{run_worker, WorkerOptions};
use borg_obs::{merge_shards, InMemoryRecorder, TraceShard};
use borg_parallel::virtual_exec::{TaMode, VirtualConfig};
use borg_problems::dtlz::Dtlz;
use std::time::Duration;

fn resolve(name: &str) -> Option<Box<dyn Problem>> {
    (name == "dtlz2-5").then(|| Box::new(Dtlz::dtlz2_5()) as Box<dyn Problem>)
}

#[test]
fn merged_trace_has_one_chain_per_completed_eval_under_chaos() {
    let workers = 3usize;
    let config = VirtualConfig {
        processors: workers as u32 + 1,
        max_nfe: 400,
        t_f: Dist::normal_cv(0.001, 0.1),
        t_c: Dist::Constant(0.000_006),
        t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
        seed: 0x7ACE_CA11,
    };
    let faults = FaultConfig {
        crash_rate: 0.2,
        drop_rate: 0.05,
        duplicate_rate: 0.05,
    };
    let problem = Dtlz::dtlz2_5();
    let borg = BorgConfig::new(5, 0.06);

    // External workers with private recorders: each process (thread,
    // here) sees only its own side of the wire.
    let chaos = ChaosConfig::loopback(&std::env::temp_dir(), "trace-chain", 0);
    let master_rec = InMemoryRecorder::new();
    let worker_recs: Vec<InMemoryRecorder> =
        (0..workers).map(|_| InMemoryRecorder::new()).collect();

    let (net, reports) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rec in &worker_recs {
            let opts = WorkerOptions {
                connect: chaos.listen.clone(),
                read_timeout: Duration::from_millis(25),
            };
            handles.push(scope.spawn(move || run_worker(&opts, &resolve, rec)));
        }
        let net = run_chaos_loopback(
            &problem,
            borg,
            &config,
            &faults,
            &chaos,
            "dtlz2-5",
            &resolve,
            &master_rec,
        )
        .expect("chaos loopback run failed");
        let reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (net, reports)
    });

    assert_eq!(net.degraded, None, "run fell back to local evaluation");
    assert!(net.wire_results > 0, "wire was not load-bearing");

    // One shard per process, merged on the master clock.
    let mut shards = vec![TraceShard::new(
        "master",
        None,
        master_rec.take_trace_edges(),
    )];
    for (rec, report) in worker_recs.iter().zip(&reports) {
        let report = report.as_ref().expect("worker errored");
        shards.push(TraceShard::new(
            format!("worker{}", report.worker),
            Some(report.worker),
            rec.take_trace_edges(),
        ));
    }

    // The shard JSONL round-trip is part of the pipeline (borg-exp
    // writes shards to disk before merging): merge the re-parsed form.
    let reparsed: Vec<TraceShard> = shards
        .iter()
        .map(|s| TraceShard::from_jsonl(&s.to_jsonl()).expect("shard reparse"))
        .collect();
    let merged = merge_shards(&reparsed).expect("merge");

    // Exactly one connected chain per completed evaluation, and one
    // completed evaluation per consumed wire result — chaos reissues and
    // duplicated frames must not fabricate extra chains.
    assert_eq!(
        merged.chains.len() as u64,
        net.wire_results,
        "chain count != consumed wire results (incomplete: {})",
        merged.incomplete
    );
    for (eval, n) in merged.chains_per_eval() {
        assert_eq!(n, 1, "eval {eval} reconstructed {n} chains");
    }

    // The crash/drop plan must have left some incomplete groups behind
    // (a dispatch that never completed), or the chaos did nothing.
    assert!(
        net.wire_log.injected() > 0,
        "fault plan injected nothing; weaken the rates and re-seed"
    );

    // The Chrome render carries the per-eval decomposition for every
    // chain and nothing else.
    let json = merged.chrome_json();
    assert_eq!(
        json.matches("\"name\":\"evaluate\"").count(),
        merged.chains.len()
    );
    assert!(json.contains("\"t_c_out\""));
}
