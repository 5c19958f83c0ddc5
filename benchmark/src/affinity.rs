//! CPU placement for a segment's threads.
//!
//! On this 2-vCPU host the scheduler's placement of the wire workloads'
//! five threads is a lottery that decides the result: the same input ran
//! at 33 k–90 k evaluations/s from one segment to the next (README, "noise
//! study"); confined to one CPU its best-of-12 repeats within 3 %. There
//! is no safe std API for thread affinity, so these are the benchmark's
//! only foreign calls.

/// Bits in the kernel's `cpu_set_t` (1024) as `u64` words.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, lowest first (empty if the kernel
/// refuses to say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted it; a refusal leaves the
/// thread where it was, and the measurement merely noisier.
pub fn restrict_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Runs `f` with this thread, and every thread `f` spawns, confined to the
/// lowest CPU the process may use; restores the previous set afterwards.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let allowed = allowed_cpus();
    let pinned = allowed
        .first()
        .is_some_and(|&cpu| restrict_current_thread(&[cpu]));
    let out = f();
    if pinned {
        restrict_current_thread(&allowed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_is_inherited_by_spawned_threads_and_restored_afterwards() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        let (inside, spawned) = on_one_cpu(|| {
            (
                allowed_cpus(),
                std::thread::spawn(allowed_cpus).join().unwrap(),
            )
        });
        assert_eq!(inside, [before[0]]);
        assert_eq!(spawned, [before[0]]);
        assert_eq!(allowed_cpus(), before);
        assert!(!restrict_current_thread(&[MASK_WORDS * 64]));
        assert_eq!(allowed_cpus(), before);
    }
}
