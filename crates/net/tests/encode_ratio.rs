//! One-process ratio test: `codec::encode_into` into one reused frame
//! against encoding into a fresh `Vec` per message, both timed in the same
//! process so the host's speed cancels. A connection keeps one frame
//! buffer for its whole life, so once it has held its largest frame
//! encoding must not allocate; a `frame_into` that gave the buffer's
//! capacity back first would allocate and regrow on every frame, as the
//! fresh side does, and read about 1.0 here.
//!
//! The fresh side starts from an empty `Vec`, not from `codec::encode`:
//! `encode` pre-sizes its one allocation and then runs the same
//! `frame_into`, so a `frame_into` that drops capacity slows it as much
//! as the reused side and the ratio cannot see the loss.
//!
//! Timing needs an optimised build and a quiet moment, so the test is
//! ignored by default; `ci.sh` runs it with `cargo test --release -p
//! borg-net --test encode_ratio -- --ignored`.

use borg_net::codec::{self, Msg, TraceCtx};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Frames encoded per timed run.
const FRAMES: u64 = 200_000;

/// A dispatch frame as `serve` sends it: 11 variables and a trace context.
fn work() -> Msg {
    Msg::Work {
        eval_id: 4_242,
        attempt: 0,
        seq: 17,
        variables: (0..11).map(|i| 0.1 * f64::from(i)).collect(),
        ctx: Some(TraceCtx {
            trace_id: 4_242,
            parent_span: 9,
            sent_at: 12.5,
        }),
    }
}

/// Encodes `msg` `FRAMES` times into one buffer.
fn reused(msg: &Msg) -> Duration {
    let mut frame = Vec::new();
    let start = Instant::now();
    for _ in 0..FRAMES {
        codec::encode_into(&mut frame, black_box(msg));
        black_box(&frame);
    }
    start.elapsed()
}

/// Encodes `msg` `FRAMES` times, each into a `Vec` of its own.
fn fresh(msg: &Msg) -> Duration {
    let start = Instant::now();
    for _ in 0..FRAMES {
        let mut frame = Vec::new();
        codec::encode_into(&mut frame, black_box(msg));
        black_box(frame);
    }
    start.elapsed()
}

#[test]
#[ignore = "wall-clock ratio; ci.sh runs it in release"]
fn encoding_into_a_reused_frame_beats_a_fresh_one() {
    let msg = work();
    let (mut into, mut alloc) = (Duration::MAX, Duration::MAX);
    // Alternated, best of seven each, the order swapped every round so a
    // change of the host's speed mid-round favours neither side.
    for round in 0..7 {
        for side in [round % 2, 1 - round % 2] {
            if side == 0 {
                into = into.min(reused(&msg));
            } else {
                alloc = alloc.min(fresh(&msg));
            }
        }
    }
    let per_frame = |d: Duration| d.as_secs_f64() * 1e9 / FRAMES as f64;
    let ratio = into.as_secs_f64() / alloc.as_secs_f64();
    println!(
        "encode Work(11): {:.1} ns into a reused frame, {:.1} ns into a fresh one, \
         ratio {ratio:.2}",
        per_frame(into),
        per_frame(alloc)
    );
    assert!(
        ratio <= 0.6,
        "encoding into a reused frame costs {ratio:.2}x a fresh frame"
    );
}
