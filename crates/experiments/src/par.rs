//! Bridge between the experiment drivers and [`borg_runner::map_jobs`] /
//! [`borg_runner::map_groups`].
//!
//! Every replicate sweep in this crate fans out through [`run_jobs`] or,
//! when its replicates fold per cell, [`run_groups`]. Both keep the
//! workspace's determinism contract (index-ordered results, pre-derived
//! seeds — see the `borg-runner` crate docs) and re-raise a job panic on
//! the calling thread, matching what the old serial nested loops did when
//! a replicate panicked.
//!
//! Direct `std::thread::spawn` is forbidden in this crate (lint BORG-L009):
//! ad-hoc threads have no index-ordered collection story, so results would
//! depend on scheduling. All parallelism goes through here.

/// Runs `job` over `items` on `workers` threads (`0` = auto, `1` = serial)
/// and returns the results in item order.
///
/// # Panics
/// If a job panics: the pool finishes the surviving jobs, then the panic of
/// the lowest-indexed failing job is re-raised here — the same observable
/// behaviour as the serial loops these sweeps replaced.
pub(crate) fn run_jobs<T, R, F>(workers: usize, items: Vec<T>, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    match borg_runner::map_jobs(workers, items, job) {
        Ok(results) => results,
        Err(err) => panic!("{err}"),
    }
}

/// Runs `job(cell, item)` over every cell's items on `workers` threads and
/// `fold(cell, results)` over each cell's results in item order as soon
/// as its last item finishes; returns the folded values in cell order.
/// Only cells in flight hold replicate results.
///
/// # Panics
/// As [`run_jobs`], for a panicking job or fold: the lowest-indexed
/// failing cell's panic is re-raised here.
pub(crate) fn run_groups<T, R, G, F, Fold>(
    workers: usize,
    cells: Vec<Vec<T>>,
    job: F,
    fold: Fold,
) -> Vec<G>
where
    T: Send,
    R: Send,
    G: Send,
    F: Fn(usize, T) -> R + Sync,
    Fold: Fn(usize, Vec<R>) -> G + Sync,
{
    match borg_runner::map_groups(workers, cells, job, fold) {
        Ok(folded) => folded,
        Err(err) => panic!("cell {} panicked: {}", err.index, err.message),
    }
}
