//! A model-checkable miniature of the work-stealing deque race.
//!
//! [`crate::map_jobs`] rests on one concurrency protocol: an owner drains
//! its own chunk from the **front** while idle workers steal from the
//! **back** (`take_job`). The production code serialises each
//! deque behind a `parking_lot::Mutex`, so the protocol is trivially safe
//! there — but the *scheme* (two ends, disjoint claims, every job exactly
//! once) is what the determinism contract leans on, and this module
//! restates it as a lock-free claim array so it can be model-checked.
//!
//! Each job slot carries one atomic claim flag. The owner scans
//! front-to-back, a thief scans back-to-front, and both claim slots with
//! a single `compare_exchange` — the miniature of "pop under the lock".
//! The invariants mirror `map_jobs`: every slot is claimed **exactly
//! once** (no lost job, no double execution), and the union of the
//! owner's and thieves' claims covers the whole chunk.
//!
//! Two execution modes share the model via the [`sync`] shim:
//!
//! * **Normal build** — `cargo test -p borg-runner steal` runs the model
//!   repeatedly over real `std::thread`s as a scheduling stress test.
//! * **Loom build** — with the real loom crate supplied and
//!   `RUSTFLAGS="--cfg loom"`, the same tests run under `loom::model`,
//!   which explores every interleaving of the claim flags. The offline
//!   build environment cannot fetch loom, so the dependency is wired
//!   through `cfg(loom)` only; the workspace `check-cfg` table keeps the
//!   gate honest.

/// Synchronization primitives, swapped wholesale under `--cfg loom`.
pub mod sync {
    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicU8, Ordering};
    #[cfg(loom)]
    pub use loom::sync::Arc;
    #[cfg(loom)]
    pub use loom::thread;

    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicU8, Ordering};
    #[cfg(not(loom))]
    pub use std::sync::Arc;
    #[cfg(not(loom))]
    pub use std::thread;
}

use sync::{AtomicU8, Ordering};

/// Claim state of one job slot.
const FREE: u8 = 0;
/// The slot has been claimed by exactly one worker.
const TAKEN: u8 = 1;

/// One worker's chunk: a fixed array of claimable job slots.
///
/// The owner drains it front-to-back, thieves back-to-front; a
/// successful [`ChunkModel::claim`] is the model's "ran the job".
#[derive(Debug)]
pub struct ChunkModel {
    slots: Vec<AtomicU8>,
}

impl ChunkModel {
    /// A chunk of `len` unclaimed job slots.
    pub fn new(len: usize) -> Self {
        Self {
            slots: (0..len).map(|_| AtomicU8::new(FREE)).collect(),
        }
    }

    /// Number of slots in the chunk.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the chunk has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Tries to claim slot `i`; `true` exactly once per slot, ever.
    ///
    /// Acquire on success orders the claimant's use of the job after the
    /// claim; Acquire on failure keeps the loser's subsequent scan from
    /// being reordered ahead of the verdict.
    pub fn claim(&self, i: usize) -> bool {
        self.slots.get(i).is_some_and(|slot| {
            slot.compare_exchange(FREE, TAKEN, Ordering::Acquire, Ordering::Acquire)
                .is_ok()
        })
    }

    /// The owner's drain: claim front-to-back, return claimed indices.
    pub fn drain_as_owner(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.claim(i)).collect()
    }

    /// A thief's drain: claim back-to-front, return claimed indices.
    pub fn drain_as_thief(&self) -> Vec<usize> {
        (0..self.len()).rev().filter(|&i| self.claim(i)).collect()
    }
}

/// Runs one owner and `thieves` stealing workers over a `len`-slot chunk
/// and asserts the work-conservation invariants: claims are pairwise
/// disjoint and their union is the whole chunk — every job exactly once,
/// regardless of how the claim races interleave.
pub fn steal_model(len: usize, thieves: usize) {
    let chunk = sync::Arc::new(ChunkModel::new(len));

    let workers: Vec<_> = (0..thieves)
        .map(|_| {
            let chunk = sync::Arc::clone(&chunk);
            sync::thread::spawn(move || chunk.drain_as_thief())
        })
        .collect();

    let mut claims = vec![chunk.drain_as_owner()];
    for worker in workers {
        match worker.join() {
            Ok(claimed) => claims.push(claimed),
            Err(_) => panic!("thief panicked inside the model"),
        }
    }

    let mut seen = vec![false; len];
    for claimed in &claims {
        for &i in claimed {
            assert!(!seen[i], "slot {i} claimed twice (double execution)");
            seen[i] = true;
        }
    }
    let total: usize = claims.iter().map(Vec::len).sum();
    assert_eq!(total, len, "a job slot was lost");
    assert!(seen.iter().all(|&s| s), "some slot was never claimed");
}

/// Runs a model body: exhaustively under loom, `iterations` times as a
/// scheduling stress test otherwise.
pub fn check_model<F: Fn() + Sync + Send + 'static>(iterations: usize, body: F) {
    #[cfg(loom)]
    {
        let _ = iterations; // loom explores interleavings itself
        loom::model(body);
    }
    #[cfg(not(loom))]
    {
        for _ in 0..iterations {
            body();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Loom guidance: keep modeled thread counts tiny (interleavings grow
    // exponentially). One owner × one thief over three slots already
    // covers the race that matters: both ends converging on the middle.

    #[test]
    fn steal_single_thief() {
        check_model(200, || steal_model(3, 1));
    }

    #[test]
    fn steal_two_thieves() {
        check_model(100, || steal_model(4, 2));
    }

    #[cfg(not(loom))]
    #[test]
    fn steal_stress_wide() {
        // Beyond loom's budget, but a good OS-schedule shakedown.
        check_model(20, || steal_model(256, 7));
    }

    #[test]
    fn claim_is_exactly_once() {
        let chunk = ChunkModel::new(2);
        assert!(chunk.claim(0));
        assert!(!chunk.claim(0), "second claim of a slot must fail");
        assert!(chunk.claim(1));
        assert!(!chunk.claim(7), "out-of-range claims must fail, not panic");
    }

    #[test]
    fn drains_meet_in_the_middle() {
        let chunk = ChunkModel::new(5);
        assert!(chunk.claim(2));
        let owner = chunk.drain_as_owner();
        let thief = chunk.drain_as_thief();
        assert_eq!(owner, [0, 1, 3, 4]);
        assert!(thief.is_empty());
        assert!(chunk.is_empty() || chunk.len() == 5);
    }
}
