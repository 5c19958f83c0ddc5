//! One-process ratio test: how late `precise_delay(1 ms)` returns against
//! how late `thread::sleep(1 ms)` does, both timed on the same threads in
//! alternation so the host's timer and load cancel. The sleep overshoots by
//! the timer slack plus the wake-up latency; `precise_delay` sleeps short
//! and yields the rest, so its median overshoot must be at most a third of
//! the sleep's, and neither may ever return early. A second test holds
//! that a zero or negative delay returns at once. Timing needs an
//! optimised build and a quiet moment, so both are ignored by default;
//! `ci.sh` runs them with `cargo test --release -p borg-parallel --test
//! delay_ratio -- --ignored`.

use borg_parallel::delayed::precise_delay;
use std::time::{Duration, Instant};

/// The delay both functions are asked for.
const TARGET: Duration = Duration::from_millis(1);

/// Calls of each function per thread.
const ROUNDS: usize = 300;

/// Threads delaying at once, as two workers do.
const THREADS: usize = 2;

/// Time `ROUNDS` alternating calls of each function on this thread:
/// `(precise_delay, thread::sleep)` elapsed times.
fn alternate() -> (Vec<Duration>, Vec<Duration>) {
    let mut precise = Vec::with_capacity(ROUNDS);
    let mut sleep = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        precise_delay(TARGET.as_secs_f64());
        precise.push(t.elapsed());
        let t = Instant::now();
        std::thread::sleep(TARGET);
        sleep.push(t.elapsed());
    }
    (precise, sleep)
}

/// Median overshoot past `TARGET` in microseconds, after checking that no
/// sample returned early.
fn median_overshoot_us(name: &str, samples: &[Duration]) -> f64 {
    let mut over: Vec<f64> = samples
        .iter()
        .map(|&d| {
            assert!(d >= TARGET, "{name} returned early: {d:?} < {TARGET:?}");
            (d - TARGET).as_secs_f64() * 1e6
        })
        .collect();
    over.sort_by(f64::total_cmp);
    over[over.len() / 2]
}

#[test]
#[ignore = "wall-clock ratio; ci.sh runs it in release"]
fn precise_delay_overshoots_a_third_of_sleep_or_less() {
    let (mut precise, mut sleep) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS).map(|_| scope.spawn(alternate)).collect();
        for t in threads {
            let (p, s) = t.join().expect("delay thread panicked");
            precise.extend(p);
            sleep.extend(s);
        }
    });
    let precise = median_overshoot_us("precise_delay", &precise);
    let sleep = median_overshoot_us("thread::sleep", &sleep);
    println!(
        "median overshoot at {TARGET:?}: precise_delay {precise:.1} us, thread::sleep {sleep:.1} us, ratio {:.3}",
        precise / sleep
    );
    assert!(
        3.0 * precise <= sleep,
        "precise_delay overshoots {precise:.1} us, more than a third of thread::sleep's {sleep:.1} us"
    );
}

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn zero_and_negative_delays_return_within_a_millisecond() {
    let start = Instant::now();
    precise_delay(0.0);
    precise_delay(-1.0);
    assert!(start.elapsed().as_secs_f64() < 0.001);
}
