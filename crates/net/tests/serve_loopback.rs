//! The real `serve` against in-process `run_worker`s over a Unix socket:
//! the saturated loop where every result is handled on the connection
//! thread that read it, the EOF path (a connection thread declares its
//! worker dead) and the tick path (the calling thread reissues a missed
//! deadline and retires a silent peer), the injected delay as a floor on
//! elapsed time, and one worker against a hand-rolled master.

use borg_core::algorithm::{run_serial, BorgConfig, BorgEngine};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::FaultKind;
use borg_net::serve::{serve, ServeConfig, ServeReport};
use borg_net::transport::{connect_with_backoff, Backoff};
use borg_net::worker::{run_worker, WorkerOptions, WorkerReport};
use borg_net::{Conn, Msg, NetAddr, NetError, NetListener};
use borg_obs::{FlightRecorder, InMemoryRecorder, NoopRecorder, Recorder, WithFlight};
use borg_parallel::threads::{run_threaded, ThreadedConfig};
use borg_problems::dtlz::{Dtlz, DtlzVariant};
use std::time::Duration;

const PROBLEM: &str = "dtlz2-2";

fn problem() -> Dtlz {
    Dtlz::new(DtlzVariant::Dtlz2, 2)
}

fn resolve(name: &str) -> Option<Box<dyn Problem>> {
    (name == PROBLEM).then(|| Box::new(problem()) as Box<dyn Problem>)
}

/// A socket path of this test's own (tests run on parallel threads).
fn config(tag: &str, workers: usize, max_nfe: u64) -> ServeConfig {
    let path = std::env::temp_dir().join(format!(
        "borg-serve-loopback-{}-{tag}.sock",
        std::process::id()
    ));
    ServeConfig {
        problem_name: PROBLEM.to_string(),
        ..ServeConfig::new(NetAddr::Unix(path), workers, max_nfe, 0x5E12_7E57)
    }
}

fn worker_options(cfg: &ServeConfig) -> WorkerOptions {
    WorkerOptions {
        connect: cfg.listen.clone(),
        ..WorkerOptions::default()
    }
}

/// Registers like a worker and returns the connection — for the peers
/// below that stop playing along after their first work item.
fn register_raw(cfg: &ServeConfig) -> Result<Conn, NetError> {
    let mut backoff = Backoff::default_schedule();
    let stream = connect_with_backoff(&cfg.listen, &mut backoff, Duration::from_millis(50))?;
    let mut conn = Conn::new(stream);
    conn.send(&Msg::Hello)?;
    loop {
        match conn.recv()? {
            Some(Msg::Welcome { .. }) => return Ok(conn),
            Some(other) => return Err(NetError::Protocol(format!("got {other:?}"))),
            None => {}
        }
    }
}

/// Blocks until the master's first work item arrives on `conn`.
fn await_work(conn: &mut Conn) -> Result<u64, NetError> {
    loop {
        if let Some(Msg::Work { eval_id, .. }) = conn.recv()? {
            return Ok(eval_id);
        }
    }
}

/// Runs `serve` with `real` well-behaved workers and `peer` on a thread of
/// its own; returns the master's report and the real workers' reports.
fn run_with(
    cfg: &ServeConfig,
    real: usize,
    peer: impl FnOnce() + Send,
) -> (ServeReport, Vec<WorkerReport>) {
    run_observed(cfg, real, peer, &NoopRecorder)
}

/// [`run_with`], the master reporting to `rec`.
fn run_observed<R: Recorder + Sync>(
    cfg: &ServeConfig,
    real: usize,
    peer: impl FnOnce() + Send,
    rec: &R,
) -> (ServeReport, Vec<WorkerReport>) {
    let problem = problem();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..real)
            .map(|_| {
                let opts = worker_options(cfg);
                scope.spawn(move || run_worker(&opts, &resolve, &NoopRecorder))
            })
            .collect();
        scope.spawn(peer);
        let report = serve(&problem, BorgConfig::new(2, 0.05), cfg, rec).expect("serve failed");
        let workers = workers
            .into_iter()
            .map(|w| {
                w.join()
                    .expect("worker thread panicked")
                    .expect("worker errored")
            })
            .collect();
        (report, workers)
    })
}

fn assert_complete(report: &ServeReport, n: u64) {
    assert_eq!(report.wire_results, n);
    assert_eq!(report.wire_duplicates, 0);
    assert_eq!(report.engine.nfe(), n);
    report
        .engine
        .archive()
        .check_invariants()
        .expect("archive invariants");
}

#[test]
fn saturated_run_consumes_every_result_exactly_once() {
    const N: u64 = 20_000;
    for p in [1usize, 2, 8] {
        let cfg = config(&format!("saturated-p{p}"), p, N);
        let (report, workers) = run_with(&cfg, p, || {});
        assert_complete(&report, N);
        let evaluated: u64 = workers.iter().map(|w| w.evaluated).sum();
        assert_eq!(evaluated, N, "P = {p}");
        assert!(report.fault_log.records.is_empty(), "P = {p}");
        assert_eq!(report.fault_log.reissues, 0, "P = {p}");
    }
}

/// Every bit a search ends with: NFE, restarts, each archive member's
/// variables, objectives and constraints, and the population's variable
/// and objective rows.
fn fingerprint(engine: &BorgEngine) -> Vec<u64> {
    let mut bits = vec![engine.nfe(), engine.stats().restarts];
    for m in engine.archive().members() {
        let rows = m
            .variables()
            .iter()
            .chain(m.objectives())
            .chain(m.constraints());
        bits.extend(rows.map(|x| x.to_bits()));
    }
    let population = engine.population();
    for i in 0..population.len() {
        bits.extend(population.variables(i).iter().map(|x| x.to_bits()));
        bits.extend(population.objectives(i).map(f64::to_bits));
    }
    bits
}

#[test]
fn one_worker_runs_the_serial_search() {
    // With one worker the wall-clock loop is strictly produce → evaluate
    // → consume, over the socket: the run is `run_serial`'s for the same
    // engine seed.
    const N: u64 = 3_000;
    let cfg = config("one-worker-serial", 1, N);
    let (report, _) = run_with(&cfg, 1, || {});
    let seed = SplitMix64::new(cfg.seed).derive_seed("net-serve-engine");
    let serial = run_serial(&problem(), BorgConfig::new(2, 0.05), seed, N, |_| {});
    assert_eq!(fingerprint(&report.engine), fingerprint(&serial));
}

#[test]
fn eof_from_a_connection_thread_reissues_to_the_survivor() {
    const N: u64 = 2_000;
    let cfg = config("eof", 2, N);
    // Takes its first work item and hangs up without answering: the
    // budget cannot complete until the master sees the EOF.
    let (report, workers) = run_with(&cfg, 1, || {
        let mut conn = register_raw(&cfg).expect("quitter registration");
        await_work(&mut conn).expect("quitter's work item");
    });
    assert_complete(&report, N);
    // The quitter evaluated nothing, so the survivor did everything,
    // the reissued evaluation included.
    assert_eq!(workers[0].evaluated, N);
    let log = &report.fault_log;
    assert_eq!(log.deaths_detected, 1);
    assert_eq!(log.reissues, 1);
    assert_eq!(log.records.len(), 1);
    assert_eq!(log.records[0].kind, FaultKind::Crash);
}

#[test]
fn tick_reissues_a_missed_deadline_and_retires_a_silent_peer() {
    const N: u64 = 2_000;
    let cfg = ServeConfig {
        reissue_timeout: Some(0.4),
        heartbeat_timeout: 1.0,
        ..config("mute", 2, N)
    };
    // Takes its first work item, then reads on without ever answering,
    // heartbeating or hanging up, until the master closes the socket.
    let (report, workers) = run_with(&cfg, 1, || {
        let mut conn = register_raw(&cfg).expect("mute registration");
        await_work(&mut conn).expect("mute's work item");
        while conn.recv().is_ok() {}
    });
    assert_complete(&report, N);
    assert_eq!(workers[0].evaluated, N);
    let log = &report.fault_log;
    // The deadline tick re-sent the evaluation (to the mute peer, whose
    // socket was still up); the staleness tick then declared it hung and
    // moved the evaluation to the survivor.
    assert!(log.reissues >= 2, "reissues = {}", log.reissues);
    assert_eq!(log.deaths_detected, 1);
    assert_eq!(log.records.len(), 1);
    assert_eq!(log.records[0].kind, FaultKind::Hang);
}

#[test]
fn losing_the_last_worker_ends_the_run_with_an_error() {
    let cfg = config("lost", 1, 100);
    let problem = problem();
    let err = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut conn = register_raw(&cfg).expect("quitter registration");
            await_work(&mut conn).expect("quitter's work item");
        });
        serve(&problem, BorgConfig::new(2, 0.05), &cfg, &NoopRecorder).err()
    });
    assert!(
        matches!(
            err,
            Some(NetError::AllWorkersLost {
                completed: 0,
                target: 100
            })
        ),
        "{err:?}"
    );
}

#[test]
fn master_utilization_is_the_measured_share_of_holds() {
    // Two workers sleeping 1 ms per evaluation keep the master busy a few
    // microseconds per millisecond; the gauge must say so, not 1.0.
    const N: u64 = 400;
    let cfg = ServeConfig {
        eval_delay: Duration::from_millis(1),
        ..config("utilization", 2, N)
    };
    let rec = InMemoryRecorder::new();
    let (report, _) = run_observed(&cfg, 2, || {}, &rec);
    assert_complete(&report, N);
    let gauges = rec.snapshot().gauges;
    let (busy, utilization) = (gauges["master.busy_seconds"], gauges["master.utilization"]);
    assert!(busy > 0.0 && busy < report.elapsed, "busy = {busy}");
    assert!(
        utilization > 0.0 && utilization < 0.5,
        "utilization = {utilization}"
    );
}

#[test]
fn every_consumed_result_records_one_master_hold() {
    // The wall-clock master records each hold as an `Algorithm` span, the
    // measured `T_A`, on every link: over sockets too, one per consumed
    // result on a fault-free run.
    const N: u64 = 300;
    let rec = InMemoryRecorder::metrics_only();
    let (report, _) = run_observed(&config("holds", 2, N), 2, || {}, &rec);
    assert_complete(&report, N);
    let holds = &rec.snapshot().histograms["t_a_seconds"];
    assert_eq!(holds.count(), report.wire_results);
    assert!(holds.sum() > 0.0, "holds sum {}", holds.sum());
}

#[test]
fn engine_and_wire_flight_records_agree_on_eval_and_worker() {
    // `Recorder::flight` puts the eval id in `a` and the worker in `b`: the
    // engine's dispatch record and the wire's send record of one
    // evaluation must carry the same pair.
    const N: u64 = 200;
    let ring = FlightRecorder::new(8_192);
    let rec = WithFlight::new(&NoopRecorder, &ring);
    let (report, _) = run_observed(&config("flight", 2, N), 2, || {}, &rec);
    assert_complete(&report, N);
    let events = ring.events();
    let coords = |code: &str| -> Vec<(u64, u64)> {
        events
            .iter()
            .filter(|e| e.code == code)
            .map(|e| (e.a, e.b))
            .collect()
    };
    let dispatched = coords("engine.commands.dispatch");
    assert!(
        dispatched.len() as u64 >= N,
        "{} dispatches",
        dispatched.len()
    );
    assert!(
        dispatched.iter().all(|&(_, worker)| worker < 2),
        "{dispatched:?}"
    );
    assert_eq!(dispatched, coords("net.work_sent"));
}

#[test]
fn the_injected_delay_is_never_cut_short() {
    // Two workers each spend at least 2 ms on every evaluation they hold,
    // so N of them cannot finish in less than the busier worker's share.
    // A lower bound only: a slow host can make the run longer, never
    // shorter.
    const N: u64 = 100;
    const T_F: Duration = Duration::from_millis(2);
    let cfg = ServeConfig {
        eval_delay: T_F,
        ..config("lower-bound", 2, N)
    };
    let (report, workers) = run_with(&cfg, 2, || {});
    assert_complete(&report, N);
    assert_eq!(workers.iter().map(|w| w.evaluated).sum::<u64>(), N);
    let floor = (N / 2 - 1) as f64 * T_F.as_secs_f64();
    assert!(
        report.elapsed >= floor,
        "elapsed {:.4} s < {floor:.4} s",
        report.elapsed
    );
}

#[test]
fn a_misshapen_work_item_fails_before_the_delay() {
    // A hand-rolled master: it announces a 5 s evaluation delay, then
    // sends a work item one variable too long. The worker must reject it;
    // that it does so without first spending the delay is a wall-clock
    // band, checked by `reject_bound.rs` in `ci.sh`.
    let cfg = config("misshapen", 1, 1);
    let listener = NetListener::bind(&cfg.listen).expect("bind");
    let opts = worker_options(&cfg);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_worker(&opts, &resolve, &NoopRecorder));
        let stream = listener
            .accept(Duration::from_millis(50))
            .expect("accept")
            .expect("a blocking accept returns a connection");
        let mut conn = Conn::new(stream);
        while !matches!(conn.recv().expect("hello"), Some(Msg::Hello)) {}
        conn.send(&Msg::Welcome {
            worker: 0,
            problem: PROBLEM.to_string(),
            eval_delay_us: 5_000_000,
        })
        .expect("welcome");
        conn.send(&Msg::Work {
            eval_id: 0,
            attempt: 0,
            seq: 0,
            variables: vec![0.5; problem().num_variables() + 1],
            ctx: None,
        })
        .expect("work");
        let result = worker.join().expect("worker thread panicked");
        assert!(
            matches!(result, Err(NetError::Protocol(_))),
            "got {result:?}"
        );
    });
}

#[test]
fn a_worker_whose_master_hangs_up_never_dials_again() {
    // A hand-rolled master: it registers the worker, has it evaluate one
    // item, then hangs up. No master takes a worker back, so the worker
    // must end with its report and never dial again.
    let cfg = config("hang-up", 1, 1);
    let listener = NetListener::bind(&cfg.listen).expect("bind");
    let opts = WorkerOptions {
        read_timeout: Duration::from_millis(5),
        ..worker_options(&cfg)
    };
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_worker(&opts, &resolve, &NoopRecorder));
        let stream = listener
            .accept(Duration::from_millis(50))
            .expect("accept")
            .expect("a blocking accept returns a connection");
        let mut conn = Conn::new(stream);
        while !matches!(conn.recv().expect("hello"), Some(Msg::Hello)) {}
        conn.send(&Msg::Welcome {
            worker: 0,
            problem: PROBLEM.to_string(),
            eval_delay_us: 0,
        })
        .expect("welcome");
        conn.send(&Msg::Work {
            eval_id: 7,
            attempt: 0,
            seq: 0,
            variables: vec![0.5; problem().num_variables()],
            ctx: None,
        })
        .expect("work");
        loop {
            if let Some(Msg::Outcome { eval_id, .. }) = conn.recv().expect("outcome") {
                assert_eq!(eval_id, 7);
                break;
            }
        }
        conn.stream().shutdown();
        let report = worker
            .join()
            .expect("worker thread panicked")
            .expect("a worker whose master hangs up ends with its report");
        assert_eq!(report.evaluated, 1);
        // The worker has returned, so a second dial of its would already
        // wait in the listener's backlog, ahead of this marker connection.
        let mut backoff = Backoff::default_schedule();
        let stream = connect_with_backoff(&cfg.listen, &mut backoff, Duration::from_millis(50))
            .expect("marker dial");
        Conn::new(stream).send(&Msg::Shutdown).expect("marker");
        let stream = listener
            .accept(Duration::from_millis(50))
            .expect("accept")
            .expect("a blocking accept returns a connection");
        let mut next = Conn::new(stream);
        let first = loop {
            if let Some(msg) = next.recv().expect("first frame") {
                break msg;
            }
        };
        assert_eq!(first, Msg::Shutdown, "the worker dialled its master again");
    });
}

/// One-process ratio test (ROADMAP 4(a)), run by `ci.sh` and ignored in
/// tier-1 because it times: the same master loop on the same input must be
/// faster over in-memory pipes than over a Unix socket — no frames, no
/// syscalls.
#[test]
#[ignore = "timing; ci.sh runs it"]
fn threads_outrun_sockets_on_the_same_input() {
    const N: u64 = 50_000;
    const P: usize = 2;
    let best_of_three = |run: &dyn Fn(usize) -> f64| (0..3).map(run).fold(0.0, f64::max);
    let sockets = best_of_three(&|i| {
        let (report, _) = run_with(&config(&format!("ratio-{i}"), P, N), P, || {});
        assert_complete(&report, N);
        N as f64 / report.elapsed
    });
    let threads = best_of_three(&|_| {
        let cfg = ThreadedConfig::new(P, N, None, 0x5E12_7E57);
        let run = run_threaded(&problem(), BorgConfig::new(2, 0.05), &cfg).expect("threaded run");
        assert_eq!(run.engine.nfe(), N);
        N as f64 / run.elapsed
    });
    println!(
        "run_threaded {threads:.0}/s, serve {sockets:.0}/s, ratio {:.2}",
        threads / sockets
    );
    assert!(
        threads >= 1.5 * sockets,
        "threads {threads:.0}/s < 1.5 x sockets {sockets:.0}/s"
    );
}
