//! Wire-transport benches: codec encode/decode ns/op for the frames the
//! hot path actually carries (`Work` out, `Outcome` back), a full
//! Unix-socket loopback round trip through the framed [`Conn`] — the
//! per-evaluation wire overhead a networked deployment adds on top of
//! the evaluation itself — and the real `serve` against in-process
//! workers at zero evaluation delay, where the master is saturated and
//! evaluations per second *is* the observed `1/(2T_C + T_A)`.

use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_net::codec::{decode_complete, encode, Msg, TraceCtx};
use borg_net::serve::{serve, ServeConfig};
use borg_net::worker::{run_worker, WorkerOptions};
use borg_net::{Conn, NetAddr};
use borg_obs::NoopRecorder;
use borg_problems::dtlz::{Dtlz, DtlzVariant};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::os::unix::net::UnixStream;
use std::time::Duration;

// The deployment stamps a trace context on every hot-path frame, so the
// benches carry one too — the measured cost includes trace propagation.
fn ctx() -> Option<TraceCtx> {
    Some(TraceCtx {
        trace_id: 123_456,
        parent_span: 7,
        sent_at: 0.061_803,
    })
}

fn work_msg() -> Msg {
    Msg::Work {
        eval_id: 123_456,
        attempt: 0,
        seq: 42,
        variables: (0..14).map(|i| f64::from(i) * 0.061_803).collect(),
        ctx: ctx(),
    }
}

fn outcome_msg() -> Msg {
    Msg::Outcome {
        worker: 3,
        eval_id: 123_456,
        attempt: 0,
        objectives: vec![0.25, 0.5, 0.75, 0.125, 0.625],
        constraints: Vec::new(),
        ctx: ctx(),
    }
}

/// Evaluations per saturated `serve` run (one bench iteration).
const SERVE_EVALUATIONS: u64 = 20_000;

fn saturated_problem(name: &str) -> Option<Box<dyn Problem>> {
    (name == "dtlz2-2").then(|| Box::new(Dtlz::new(DtlzVariant::Dtlz2, 2)) as Box<dyn Problem>)
}

/// One master-saturated run: `serve` on this thread, `workers` in-process
/// `run_worker` threads, a Unix socket, zero evaluation delay. Returns
/// evaluations per second over the master's own timed region.
fn serve_saturated(workers: usize) -> f64 {
    let path = std::env::temp_dir().join(format!(
        "borg-bench-serve-{}-p{workers}.sock",
        std::process::id()
    ));
    let cfg = ServeConfig {
        problem_name: "dtlz2-2".to_string(),
        ..ServeConfig::new(NetAddr::Unix(path), workers, SERVE_EVALUATIONS, 42)
    };
    let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let opts = WorkerOptions {
                connect: cfg.listen.clone(),
                ..WorkerOptions::default()
            };
            scope.spawn(move || run_worker(&opts, &saturated_problem, &NoopRecorder));
        }
        let report = serve(&problem, BorgConfig::new(2, 0.01), &cfg, &NoopRecorder)
            .expect("saturated serve run");
        assert_eq!(report.wire_results, SERVE_EVALUATIONS);
        SERVE_EVALUATIONS as f64 / report.elapsed
    })
}

fn bench_net(c: &mut Criterion) {
    let mut group = c.benchmark_group("net");
    group.sample_size(10);

    group.bench_function("codec_encode_work_14var", |b| {
        let msg = work_msg();
        b.iter(|| encode(black_box(&msg)))
    });
    group.bench_function("codec_decode_work_14var", |b| {
        let frame = encode(&work_msg());
        b.iter(|| decode_complete(black_box(&frame)).expect("bench frame decodes"))
    });
    group.bench_function("codec_encode_outcome_5obj", |b| {
        let msg = outcome_msg();
        b.iter(|| encode(black_box(&msg)))
    });
    group.bench_function("codec_decode_outcome_5obj", |b| {
        let frame = encode(&outcome_msg());
        b.iter(|| decode_complete(black_box(&frame)).expect("bench frame decodes"))
    });

    // One dispatch-shaped round trip over a real (loopback) Unix socket:
    // Work down the wire, Outcome back, both through the framed Conn.
    group.bench_function("uds_loopback_round_trip", |b| {
        let (m, w) = UnixStream::pair().expect("socketpair");
        for s in [&m, &w] {
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set bench read timeout");
        }
        let mut master = Conn::new(borg_net::NetStream::Unix(m));
        let mut worker = Conn::new(borg_net::NetStream::Unix(w));
        let work = work_msg();
        let outcome = outcome_msg();
        b.iter(|| {
            master.send(&work).expect("send work");
            let got = worker.recv().expect("recv work").expect("work frame");
            worker.send(&outcome).expect("send outcome");
            let back = master.recv().expect("recv outcome").expect("outcome frame");
            black_box((got, back))
        })
    });

    group.finish();

    // A group of their own: whole runs of hundreds of milliseconds beside
    // the per-frame costs above. The time per iteration
    // includes registration and teardown; the evaluations per second
    // printed after each id do not.
    let mut group = c.benchmark_group("net_serve");
    group.sample_size(10);
    for workers in [2usize, 8, 32] {
        let id = format!("serve_saturated_p{workers}");
        let mut rates = Vec::new();
        group.bench_function(&id, |b| b.iter(|| rates.push(serve_saturated(workers))));
        rates.sort_by(f64::total_cmp);
        println!(
            "net_serve/{id}: {:.0} evals/s median, {:.0} best ({} runs of {SERVE_EVALUATIONS})",
            rates[rates.len() / 2],
            rates[rates.len() - 1],
            rates.len()
        );
    }

    group.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
