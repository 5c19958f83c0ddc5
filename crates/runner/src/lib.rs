//! # borg-runner
//!
//! A deterministic job pool, fed from one shared queue, for the experiment
//! drivers.
//!
//! The paper's replicate sweeps (Table II is 2 problems × 3 `T_F` × 7
//! processor counts × 50 replicates) are embarrassingly parallel: every
//! replicate carries its own pre-derived seed and touches no shared state.
//! [`map_jobs`] fans such jobs out over a pool of scoped threads while
//! keeping the workspace's reproducibility contract:
//!
//! **The output of `map_jobs(workers, items, job)` (and of
//! [`map_groups`]) is bit-identical for every worker count**, including
//! `workers = 1`. Three rules make that hold, and every caller must
//! respect them:
//!
//! 1. *Inputs are pre-derived.* Jobs receive their seeds and parameters up
//!    front; nothing is drawn from a shared RNG stream at execution time,
//!    so scheduling order cannot perturb seed derivation.
//! 2. *Results are index-ordered.* Workers finish in nondeterministic
//!    order; results are slotted into an index-addressed buffer and
//!    returned in submission order, and a group's fold (below) sees its
//!    results in item order, so downstream float accumulation (means,
//!    histogram merges) folds in the same order every run.
//! 3. *Jobs are pure up to their return value.* A job must not mutate
//!    state shared with other jobs; per-job telemetry goes into a per-job
//!    `InMemoryRecorder` whose snapshot is returned and merged in index
//!    order by the caller or the group's fold (see
//!    `borg_obs::MetricsSnapshot::merge`).
//!
//! Scheduling is one shared queue: the items wait in group order behind
//! one lock, and every worker — the calling thread is one of them —
//! takes the next item, runs it, and goes back for another. The queue
//! only changes *who* runs a job and *when* — never what the job
//! computes or where its result lands.
//!
//! **Grouped folds.** [`map_groups`] takes the items in groups — one Table
//! II cell's replicates, say — with a fold per group. Each item is still
//! one job; the worker that stores a group's last result folds the group
//! in item order and drops its results, so a sweep holds only the results
//! of groups in flight, not all of them until the end. [`map_jobs`] is
//! `map_groups` with one-item groups.
//!
//! *The bound.* With `W` workers (after clamping to the item count), at
//! most `W + 1` groups hold results at any instant, so with groups of at
//! most `s` items at most `(W + 1)·s − 1` results are alive, however many
//! groups there are; serially (`W = 1`) it is one group. The queue hands
//! items out in group order, so every item before its head has been
//! taken, and an item taken but unfinished is running. A group holding
//! results therefore straddles the head (at most one group), holds a
//! running item, or has stored every result and is being folded by the
//! worker that stored the last one: one group per worker, besides the
//! straddling one. Each of those holds at most `s` results, counting the
//! one its running item is about to store; the straddling group has an
//! item still queued, so it holds at most `s − 1`.
//!
//! A panicking job or fold does not poison the pool: the panic is caught
//! at its boundary, surfaced as [`JobPanicked`] (lowest index wins, so
//! the error itself is deterministic), and the remaining jobs keep
//! running; subsequent calls are unaffected because the pool is scoped
//! per call and owns no long-lived state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A job or fold panicked; the pool survived and every other job still
/// ran.
///
/// `index` is the smallest failing index (deterministic even when several
/// jobs fail in racing worker threads): the job's item index in
/// [`map_jobs`], the group's index in [`map_groups`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanicked {
    /// Index of the failing job (or group) in submission order.
    pub index: usize,
    /// The panic payload, when it was a string; a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for JobPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanicked {}

/// Worker threads this machine can usefully run (`available_parallelism`,
/// falling back to 1 when the OS refuses to say).
pub(crate) fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a `--jobs`-style knob: `0` means "auto" ([`available_jobs`]),
/// anything else is taken literally.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        available_jobs()
    } else {
        jobs
    }
}

/// Runs `job` over every item on `workers` threads and returns the
/// results **in item order** — bit-identical for every worker count.
///
/// `workers = 0` means auto (`available_jobs`); `workers = 1` runs the
/// jobs serially on the calling thread, which is always one of the
/// workers. The pool never outlives the call (scoped threads), so a
/// panicking job cannot poison later calls; the first panic by *job
/// index* is returned as [`JobPanicked`] after every surviving job has
/// finished.
///
/// This is [`map_groups`] with one-item groups, so `job` receives the
/// item's index.
pub fn map_jobs<T, R, F>(workers: usize, items: Vec<T>, job: F) -> Result<Vec<R>, JobPanicked>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let groups: Vec<[T; 1]> = items.into_iter().map(|item| [item]).collect();
    let folded = map_groups(workers, groups, job, |_, results| results)?;
    Ok(folded.into_iter().flatten().collect())
}

/// Runs `job(group, item)` over the items of every group on `workers`
/// threads, folds each group's results **in item order** as soon as its
/// last item finishes, and returns the folded values **in group order** —
/// bit-identical for every worker count.
///
/// Morally `groups.enumerate().map(|(g, items)| fold(g, items.map(|x|
/// job(g, x)).collect()))`. Each item is still one job, scheduled like any
/// other, so one group's items spread over every worker; the worker that
/// stores a group's last result runs `fold` on it and drops the results.
/// Only groups still in flight hold results: at most `workers + 1` groups
/// at once (derived in the crate docs), one at `workers = 1`. An empty
/// group folds an empty vector.
///
/// Panics in jobs and folds are both caught. The error's `index` is the
/// lowest *group* that failed; its message is the group's first panicking
/// job in item order, or its fold's when every job returned (a group with
/// a failed job is not folded). Every other job and fold still runs.
pub fn map_groups<T, I, R, G, F, Fold>(
    workers: usize,
    groups: Vec<I>,
    job: F,
    fold: Fold,
) -> Result<Vec<G>, JobPanicked>
where
    I: IntoIterator<Item = T>,
    T: Send,
    R: Send,
    G: Send,
    F: Fn(usize, T) -> R + Sync,
    Fold: Fn(usize, Vec<R>) -> G + Sync,
{
    // Every item in group order, tagged with its group; `spans[g]` is the
    // range of group g's slots. No item finishes an empty group, so those
    // fold here.
    let mut items = Vec::new();
    let mut spans = Vec::with_capacity(groups.len());
    let mut folded = Vec::with_capacity(groups.len());
    for (group, members) in groups.into_iter().enumerate() {
        let start = items.len();
        items.extend(members.into_iter().map(|item| (group, item)));
        let span = start..items.len();
        folded.push(Mutex::new(
            span.is_empty()
                .then(|| fold_group(&fold, group, Vec::new())),
        ));
        spans.push(span);
    }
    let n = items.len();
    let workers = resolve_jobs(workers).min(n);
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let remaining: Vec<AtomicUsize> = spans.iter().map(|s| AtomicUsize::new(s.len())).collect();

    let work = || loop {
        // The guard drops at the end of this statement: held across the
        // job, it would run every job one at a time.
        let next = queue.lock().next();
        let Some((slot, (group, item))) = next else {
            break;
        };
        *results[slot].lock() = Some(guarded(|| job(group, item)));
        // AcqRel: each decrement releases its slot's store, and the last
        // one acquires them all, so the worker that folds sees every
        // result of the group.
        if remaining[group].fetch_sub(1, Ordering::AcqRel) == 1 {
            let outcomes = spans[group]
                .clone()
                .map(|s| results[s].lock().take().unwrap_or_else(missing))
                .collect();
            *folded[group].lock() = Some(fold_group(&fold, group, outcomes));
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    collect(folded.into_iter().map(Mutex::into_inner))
}

/// Runs one job or fold behind a panic boundary.
///
/// `AssertUnwindSafe` is sound here: on panic the call's entire state
/// (inputs, partial result) is dropped and the failure is surfaced as an
/// error; callers only share immutable references with jobs (rule 3 of
/// the module contract), so no cross-job state can be left torn.
fn guarded<X>(call: impl FnOnce() -> X) -> Result<X, String> {
    catch_unwind(AssertUnwindSafe(call)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Folds one group's job outcomes, given in item order: the first failed
/// job's message if any failed (the results are dropped unfolded), else
/// the fold's value behind its own panic boundary.
fn fold_group<R, G, Fold>(
    fold: &Fold,
    group: usize,
    outcomes: Vec<Result<R, String>>,
) -> Result<G, String>
where
    Fold: Fn(usize, Vec<R>) -> G,
{
    let results = outcomes.into_iter().collect::<Result<Vec<R>, String>>()?;
    guarded(|| fold(group, results))
}

/// The outcome of a result slot found empty. Unreachable with caught
/// panics, but a lost result must be an error, not a silently short fold.
fn missing<R>() -> Result<R, String> {
    Err("job result missing (worker terminated unexpectedly)".to_string())
}

/// Turns the group-ordered outcome buffer into the final result,
/// surfacing the lowest-index failure if any group failed.
fn collect<G>(
    slots: impl ExactSizeIterator<Item = Option<Result<G, String>>>,
) -> Result<Vec<G>, JobPanicked> {
    let mut results = Vec::with_capacity(slots.len());
    for (index, slot) in slots.enumerate() {
        match slot.unwrap_or_else(missing) {
            Ok(r) => results.push(r),
            Err(message) => return Err(JobPanicked { index, message }),
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_every_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [0usize, 1, 2, 3, 4, 8, 64] {
            let got = map_jobs(workers, items.clone(), |_, x| x * x).expect("no panics");
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn job_index_matches_item_position() {
        let items: Vec<char> = "abcdef".chars().collect();
        let got = map_jobs(3, items, |i, c| (i, c)).expect("no panics");
        assert_eq!(
            got,
            [(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e'), (5, 'f')]
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = map_jobs(4, Vec::<u32>::new(), |_, x| x).expect("no panics");
        assert!(got.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let got = map_jobs(16, vec![1u32, 2], |_, x| x + 1).expect("no panics");
        assert_eq!(got, [2, 3]);
    }

    #[test]
    fn zero_workers_means_auto() {
        assert!(available_jobs() >= 1);
        assert_eq!(resolve_jobs(0), available_jobs());
        assert_eq!(resolve_jobs(3), 3);
        let got = map_jobs(0, vec![5u32], |_, x| x).expect("no panics");
        assert_eq!(got, [5]);
    }

    #[test]
    fn panicking_job_surfaces_as_error_and_pool_stays_usable() {
        for workers in [1usize, 4] {
            let err = map_jobs(workers, (0..10u32).collect(), |_, x| {
                if x == 3 || x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
            .expect_err("must surface the panic");
            // Lowest panicking index wins, deterministically.
            assert_eq!(err.index, 3, "workers = {workers}");
            assert!(err.message.contains("boom at 3"), "{}", err.message);
            // The pool is per-call; the next call is unaffected.
            let ok = map_jobs(workers, vec![1u32, 2, 3], |_, x| x * 10).expect("healthy again");
            assert_eq!(ok, [10, 20, 30]);
        }
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let err = map_jobs(2, vec![0u32, 1], |_, x| {
            if x == 1 {
                std::panic::panic_any(42u64);
            }
            x
        })
        .expect_err("must surface the panic");
        assert_eq!(err.index, 1);
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn stealing_actually_spreads_work() {
        // Deliberately skewed job costs keep the first workers busy on
        // the slow early items while the others drain the rest of the
        // queue; the assertion is only that the contract holds — order
        // preserved, every job run exactly once.
        let items: Vec<u64> = (0..101).collect();
        let got = map_jobs(4, items.clone(), |_, x| {
            // Uneven job cost: early indices are much slower.
            let spin = if x < 8 { 20_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        })
        .expect("no panics");
        assert_eq!(got, items);
    }
}
