//! One wall-clock band, ignored in tier-1 and run by `ci.sh` in release: a
//! worker rejects a misshapen work item within a second, though its master
//! announced a 5 s evaluation delay, so the shape check runs before the
//! delay. `serve_loopback.rs`'s `a_misshapen_work_item_fails_before_the_delay`
//! checks the rejection itself in tier-1.

use borg_core::problem::Problem;
use borg_net::worker::{run_worker, WorkerOptions};
use borg_net::{Conn, Msg, NetAddr, NetError, NetListener};
use borg_obs::NoopRecorder;
use borg_problems::dtlz::{Dtlz, DtlzVariant};
use std::time::{Duration, Instant};

const PROBLEM: &str = "dtlz2-2";

fn problem() -> Dtlz {
    Dtlz::new(DtlzVariant::Dtlz2, 2)
}

fn resolve(name: &str) -> Option<Box<dyn Problem>> {
    (name == PROBLEM).then(|| Box::new(problem()) as Box<dyn Problem>)
}

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn a_misshapen_work_item_is_rejected_within_a_second() {
    let path = std::env::temp_dir().join(format!("borg-reject-bound-{}.sock", std::process::id()));
    let listen = NetAddr::Unix(path);
    let listener = NetListener::bind(&listen).expect("bind");
    let opts = WorkerOptions {
        connect: listen,
        ..WorkerOptions::default()
    };
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_worker(&opts, &resolve, &NoopRecorder));
        let stream = listener
            .accept(Duration::from_millis(50))
            .expect("accept")
            .expect("a blocking accept returns a connection");
        let mut conn = Conn::new(stream);
        while !matches!(conn.recv().expect("hello"), Some(Msg::Hello { .. })) {}
        conn.send(&Msg::Welcome {
            worker: 0,
            problem: PROBLEM.to_string(),
            eval_delay_us: 5_000_000,
        })
        .expect("welcome");
        let sent = Instant::now();
        conn.send(&Msg::Work {
            eval_id: 0,
            attempt: 0,
            seq: 0,
            variables: vec![0.5; problem().num_variables() + 1],
            ctx: None,
        })
        .expect("work");
        let result = worker.join().expect("worker thread panicked");
        let waited = sent.elapsed();
        assert!(
            matches!(result, Err(NetError::Protocol(_))),
            "got {result:?}"
        );
        assert!(waited < Duration::from_secs(1), "rejected after {waited:?}");
    });
}
