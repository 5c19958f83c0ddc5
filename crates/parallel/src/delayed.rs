//! The one wall-clock evaluation delay.
//!
//! The paper's experimental control: the analytical problems evaluate in
//! under a microsecond, so delays of 0.001–0.1 s (CV 0.1) were injected to
//! emulate expensive engineering evaluations. [`precise_delay`] applies
//! such a delay in real time for every wall-clock executor; the
//! virtual-time executors charge the same distributions on the simulated
//! clock instead.

use std::time::{Duration, Instant};

/// How much of a delay [`precise_delay`] spends yielding instead of
/// asleep: the tail that absorbs the OS timer's wake-up overshoot.
const YIELD_TAIL: Duration = Duration::from_micros(200);

/// Delays the calling thread for `seconds`, never less and rarely more
/// than a few microseconds over. Every wall-clock evaluation delay goes
/// through here: the real-thread executor's workers and the socket worker
/// of `borg-net`.
///
/// It fixes the deadline once, sleeps until 200 µs before it, then calls
/// `thread::yield_now` until the deadline passes. A plain `thread::sleep`
/// wakes late by the timer slack plus the wake-up latency (p50 80–100 µs
/// at 1 ms on a 2-vCPU host), which inflates every injected `T_F`; the
/// tail hides that overshoot as long as it is below 200 µs. Delays
/// shorter than the tail are all tail.
///
/// The sleep is what lets concurrent evaluations overlap on fewer cores
/// than workers: the injected delay emulates an evaluation that *waits*
/// on external work, not one that burns a core. The tail yields rather
/// than spins for the same reason, so the master and the other workers
/// sharing a CPU still run during it. Its cost is at most 200 µs of
/// yielding CPU per evaluation: at most 2 % of one core at `T_F` ≥ 10 ms.
pub fn precise_delay(seconds: f64) {
    if seconds <= 0.0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let nap = deadline
        .saturating_duration_since(Instant::now())
        .saturating_sub(YIELD_TAIL);
    if !nap.is_zero() {
        std::thread::sleep(nap);
    }
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_delay_hits_sub_millisecond_targets() {
        for target in [0.0002, 0.001, 0.004] {
            let start = Instant::now();
            precise_delay(target);
            let elapsed = start.elapsed().as_secs_f64();
            // Lower bound only: precision here means "never early", which
            // is what callers charging simulated time need. Overshoot is
            // the OS scheduler's business — an upper bound on a wall-clock
            // sleep makes the test flake on loaded runners.
            assert!(elapsed >= target);
        }
    }

    #[test]
    fn zero_and_negative_delays_are_noops() {
        // `Duration::from_secs_f64` panics on a negative argument; the
        // guard must return before reaching it. How fast they return is a
        // wall-clock claim: `tests/delay_ratio.rs` holds it.
        for seconds in [0.0, -1.0, -1e300] {
            precise_delay(seconds);
        }
    }
}
