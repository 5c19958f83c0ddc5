//! The runner's core contract as a property: for arbitrary item vectors
//! and worker counts, `map_jobs` returns exactly what the serial loop
//! returns, in the same order, and `map_groups` exactly what a serial
//! nested map followed by the fold returns — the shared queue changes
//! scheduling, never results. Beside the properties: the grouped map's
//! memory bound, and that one group's items spread over workers.

use borg_runner::{map_groups, map_jobs};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::{self, ThreadId};
use std::time::Duration;

/// A job whose output depends on both the index and the item, so any
/// index/slot mix-up changes the result.
fn job(index: usize, item: u64) -> (usize, u64) {
    (
        index,
        item.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64,
    )
}

/// One item of the grouped property: a value, and whether its job panics.
type Item = (u64, bool);

fn grouped_job(group: usize, (value, panics): Item) -> u64 {
    if panics {
        panic!("job {value} of group {group}");
    }
    job(group, value).1
}

/// An order-sensitive fold (FNV-style), so a fold handed its results out
/// of item order gives another value.
fn grouped_fold(group: usize, results: Vec<u64>, panics: bool) -> (usize, u64, usize) {
    if panics {
        panic!("fold of group {group}");
    }
    let hash = results.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &r| {
        (h ^ r).wrapping_mul(0x0100_0000_01b3)
    });
    (group, hash, results.len())
}

/// The oracle: each group's jobs in item order, then its fold; the first
/// group with a panicking job or fold is the error.
type Folded = Vec<(usize, u64, usize)>;

fn serial_nested_map_then_fold(
    groups: &[Vec<Item>],
    fold_panics: &[bool],
) -> Result<Folded, (usize, String)> {
    let mut folded = Vec::new();
    for (group, items) in groups.iter().enumerate() {
        if let Some(&(value, _)) = items.iter().find(|(_, panics)| *panics) {
            return Err((group, format!("job {value} of group {group}")));
        }
        if fold_panics[group] {
            return Err((group, format!("fold of group {group}")));
        }
        let results = items.iter().map(|&item| grouped_job(group, item)).collect();
        folded.push(grouped_fold(group, results, false));
    }
    Ok(folded)
}

const MAX_GROUPS: usize = 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_jobs_equals_serial_for_arbitrary_inputs(
        items in prop::collection::vec(0u64..=u64::MAX, 0..48),
        workers in 0usize..9,
    ) {
        let serial: Vec<(usize, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| job(i, x))
            .collect();
        let pooled = map_jobs(workers, items, job).expect("pure jobs never panic");
        prop_assert_eq!(pooled, serial);
    }

    #[test]
    fn worker_count_never_changes_output(
        items in prop::collection::vec(0u64..=u64::MAX, 1..32),
    ) {
        let one = map_jobs(1, items.clone(), job).expect("no panics");
        for workers in 2usize..6 {
            let many = map_jobs(workers, items.clone(), job).expect("no panics");
            prop_assert_eq!(&many, &one, "workers = {}", workers);
        }
    }

    #[test]
    fn map_groups_equals_serial_nested_map_then_fold(
        groups in prop::collection::vec(
            prop::collection::vec(
                (0u64..=u64::MAX, 0u8..24).prop_map(|(value, die)| (value, die == 0)),
                0..6,
            ),
            0..MAX_GROUPS,
        ),
        fold_panics in prop::collection::vec((0u8..12).prop_map(|die| die == 0), MAX_GROUPS),
        workers in 0usize..7,
    ) {
        let expected = serial_nested_map_then_fold(&groups, &fold_panics);
        let pooled = map_groups(workers, groups, grouped_job, |group, results| {
            grouped_fold(group, results, fold_panics[group])
        })
        .map_err(|err| (err.index, err.message));
        prop_assert_eq!(pooled, expected, "workers = {}", workers);
    }
}

#[test]
fn empty_groups_fold_empty_vectors() {
    for workers in [1usize, 2, 4] {
        let groups = vec![vec![], vec![3u32, 4], vec![], vec![5], vec![]];
        let folded = map_groups(workers, groups, |_, x| x * 10, |g, r| (g, r)).expect("no panics");
        assert_eq!(
            folded,
            [
                (0, vec![]),
                (1, vec![30, 40]),
                (2, vec![]),
                (3, vec![50]),
                (4, vec![]),
            ],
            "workers = {workers}"
        );
        let only_empty = map_groups(workers, vec![Vec::<u32>::new(); 3], |_, x| x, |g, r| (g, r))
            .expect("no panics");
        assert_eq!(only_empty, [(0, vec![]), (1, vec![]), (2, vec![])]);
    }
}

/// How many [`Counted`] results are alive, and the most ever alive.
#[derive(Default)]
struct Live {
    now: AtomicUsize,
    peak: AtomicUsize,
}

/// A job result that counts itself alive from creation until its drop.
struct Counted<'a> {
    value: u64,
    live: &'a Live,
}

impl<'a> Counted<'a> {
    fn new(value: u64, live: &'a Live) -> Self {
        let now = live.now.fetch_add(1, Ordering::SeqCst) + 1;
        live.peak.fetch_max(now, Ordering::SeqCst);
        Self { value, live }
    }
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.live.now.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn only_groups_in_flight_hold_results() {
    // 48 groups of 4: collect-then-fold would hold all 192 results. The
    // crate docs bound the grouped map at `(W + 1)·s − 1` (one group, `s`,
    // serially). Uneven job costs make workers finish out of order, so
    // groups overlap.
    const GROUPS: usize = 48;
    const SIZE: usize = 4;
    let groups: Vec<Vec<u64>> = (0..GROUPS)
        .map(|g| (0..SIZE as u64).map(|i| (g * SIZE) as u64 + i).collect())
        .collect();
    let expected: Vec<u64> = groups.iter().map(|items| items.iter().sum()).collect();
    for workers in [1usize, 2, 3, 4] {
        let live = Live::default();
        let sums = map_groups(
            workers,
            groups.clone(),
            |_, x| {
                let spin = if x % 7 == 0 { 40_000 } else { 2_000 };
                let mut acc = x;
                for i in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(acc);
                Counted::new(x, &live)
            },
            |_, results: Vec<Counted<'_>>| results.iter().map(|c| c.value).sum::<u64>(),
        )
        .expect("no panics");
        assert_eq!(sums, expected, "workers = {workers}");
        assert_eq!(live.now.load(Ordering::SeqCst), 0, "a result leaked");
        let peak = live.peak.load(Ordering::SeqCst);
        let bound = if workers == 1 {
            SIZE
        } else {
            (workers + 1) * SIZE - 1
        };
        assert!(bound < GROUPS * SIZE);
        assert!(
            (SIZE..=bound).contains(&peak),
            "workers = {workers}: {peak} results alive at once, bound {bound}"
        );
    }
}

#[test]
fn one_group_spreads_over_workers() {
    // One group of four items on two workers. Items 0 and 2 each wait for
    // the other, so they must run at once on two threads: a worker blocked
    // in item 0 cannot take item 2 itself, so the other worker must. A
    // scheduler that ran a group's items on one worker, or that held the
    // queue's lock while a job runs, would time out here instead. A
    // receiver cannot be shared between threads, so each sits behind a
    // lock only the one job that waits on it takes.
    let (to_0, at_0) = mpsc::channel();
    let (to_2, at_2) = mpsc::channel();
    let (at_0, at_2) = (Mutex::new(at_0), Mutex::new(at_2));
    let folded = map_groups(
        2,
        vec![vec![0u32, 1, 2, 3]],
        |_, x| {
            let met = match x {
                0 | 2 => {
                    let (tell, wait) = if x == 0 {
                        (&to_2, &at_0)
                    } else {
                        (&to_0, &at_2)
                    };
                    tell.send(())
                        .expect("the receiver lives until the call returns");
                    wait.lock().recv_timeout(Duration::from_secs(30)).is_ok()
                }
                _ => true,
            };
            (x, met, thread::current().id())
        },
        |_, results| results,
    )
    .expect("no panics");
    let results = &folded[0];
    assert_eq!(
        results.iter().map(|&(x, _, _)| x).collect::<Vec<_>>(),
        [0, 1, 2, 3]
    );
    assert!(results[0].1, "item 0 never saw item 2 run");
    assert!(results[2].1, "item 2 never saw item 0 run");
    let threads: Vec<ThreadId> = results.iter().map(|&(_, _, id)| id).collect();
    assert_ne!(threads[0], threads[2]);
}
