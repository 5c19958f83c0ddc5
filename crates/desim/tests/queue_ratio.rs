//! One-process ratio test of what one event costs in [`EventQueue`] against
//! the float-ordered `BinaryHeap` queue it replaced, timed in the same
//! process so the host's speed cancels.
//!
//! The traffic is a saturated master's: 1 023 evaluations in flight, and
//! each popped result holds the master for 42 µs before its worker's next
//! result is scheduled one `T_F` (~9 ms) after the hold ends. The
//! `(time bits, seq)` integer order is meant to make a pop-and-push at
//! least 1.5× cheaper than a `partial_cmp` with a `seq` tie-break at every
//! level of `std::collections::BinaryHeap`; it reads about 2×.
//!
//! Timing needs an optimised build and a quiet moment, so the test is
//! ignored by default; `ci.sh` runs it with `cargo test --release -p
//! borg-desim --test queue_ratio -- --ignored`.

#![expect(
    clippy::disallowed_types,
    reason = "BORG-L003 keeps wall time out of simulated schedules; this test times the queue and schedules nothing by the clock"
)]

use borg_desim::EventQueue;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Events pending at every pop.
const PENDING: u32 = 1_023;

/// Pops (each followed by one push) per timed run.
const EVENTS: u32 = 1_000_000;

/// The master's hold per result: `2 T_C + T_A`, seconds.
const HOLD: f64 = 42e-6;

/// A DES payload the size of `borg_models::queueing`'s `DesEvent`.
type Payload = (u32, u64);

/// The queue both sides implement.
trait Queue: Default {
    fn schedule_at(&mut self, at: f64, event: Payload);
    fn pop(&mut self) -> Option<(f64, Payload)>;
}

impl Queue for EventQueue<Payload> {
    fn schedule_at(&mut self, at: f64, event: Payload) {
        EventQueue::schedule_at(self, at, event);
    }
    fn pop(&mut self) -> Option<(f64, Payload)> {
        EventQueue::pop(self)
    }
}

/// The queue as it was: `std`'s max-heap over entries whose order is the
/// reversed `partial_cmp` of their times, ties broken by insertion number.
#[derive(Default)]
struct FloatHeap {
    heap: BinaryHeap<FloatEntry>,
    now: f64,
    seq: u64,
}

struct FloatEntry {
    time: f64,
    seq: u64,
    event: Payload,
}

impl PartialEq for FloatEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for FloatEntry {}
impl PartialOrd for FloatEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl Queue for FloatHeap {
    fn schedule_at(&mut self, at: f64, event: Payload) {
        assert!(at.is_finite() && at >= self.now);
        self.heap.push(FloatEntry {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(f64, Payload)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }
}

/// Runs the saturated-master traffic on a fresh `Q`; returns the time the
/// pops and pushes took and a digest of every popped `(time, payload)`.
fn drive<Q: Queue>() -> (Duration, u64) {
    let mut lcg = 0x2013_u64;
    let mut t_f = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        0.009 + (lcg >> 40) as f64 * 1e-10
    };
    let mut queue = Q::default();
    let mut master_free = 0.0_f64;
    for worker in 0..PENDING {
        master_free += HOLD;
        queue.schedule_at(master_free + t_f(), (worker, u64::from(worker)));
    }
    let mut digest = 0xCBF2_9CE4_8422_2325_u64;
    let start = Instant::now();
    for id in u64::from(PENDING)..u64::from(PENDING + EVENTS) {
        let (at, (worker, done)) = queue.pop().expect("the pool never drains");
        digest = (digest ^ at.to_bits() ^ done).wrapping_mul(0x0000_0100_0000_01B3);
        master_free = master_free.max(at) + HOLD;
        queue.schedule_at(master_free + t_f(), black_box((worker, id)));
    }
    (start.elapsed(), black_box(digest))
}

#[test]
#[ignore = "wall-clock ratio; ci.sh runs it in release"]
fn integer_ordered_heap_outruns_the_float_ordered_one() {
    // Alternated, best of seven each: a slow stretch of the host hits both.
    let (mut fast, mut reference) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        let (took, digest) = drive::<EventQueue<Payload>>();
        let (took_ref, digest_ref) = drive::<FloatHeap>();
        assert_eq!(digest, digest_ref, "the two queues popped different events");
        fast = fast.min(took);
        reference = reference.min(took_ref);
    }
    let per_event = |d: Duration| d.as_secs_f64() * 1e9 / f64::from(EVENTS);
    let ratio = reference.as_secs_f64() / fast.as_secs_f64();
    println!(
        "event queue: {:.1} ns per event, float-ordered BinaryHeap {:.1} ns, ratio {ratio:.2}",
        per_event(fast),
        per_event(reference)
    );
    assert!(
        ratio >= 1.5,
        "EventQueue is only {ratio:.2}x as fast as the float-ordered BinaryHeap"
    );
}
