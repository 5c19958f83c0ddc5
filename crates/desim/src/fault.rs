//! Deterministic fault injection for master-slave simulations.
//!
//! The paper's experiments (and its Eq. 2–4 models) assume a perfect
//! cluster: every worker survives the run and every message is delivered
//! exactly once. This module supplies the machinery to *break* that
//! assumption reproducibly: a seeded [`FaultPlan`] decides, purely as a
//! function of `(seed, worker, dispatch index)` or `(seed, eval id,
//! attempt)`, which evaluations crash their worker for good and which
//! result messages are lost or duplicated. Because every decision is a
//! stateless hash of its coordinates, the same plan drives the
//! virtual-time executor (where faults become first-class DES events) and
//! the socket chaos proxy (which enacts each fate on the wire) — and a
//! same-seed replay is bit-identical.
//!
//! The [`FaultLog`] is the common ledger every executor fills in: each
//! injected fault is recorded with its injection, detection and recovery
//! timestamps, alongside the aggregate recovery counters (reissues,
//! suppressed duplicates, wasted NFE, detected deaths). The wall-clock
//! master, which injects nothing, records the deaths it finds there.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function used to
/// derive all fault decisions statelessly. (Re-implemented here rather
/// than imported so `borg-desim` stays dependency-free.)
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit hash to the unit interval `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Domain-separation tags so independent decisions never share a stream.
const TAG_CRASH: u64 = 0x11;
const TAG_CRASH_WHEN: u64 = 0x12;
const TAG_CRASH_FRAC: u64 = 0x13;
const TAG_MESSAGE: u64 = 0x31;

/// Configurable fault rates. All probabilities are per the unit named in
/// their doc comment; `0.0` everywhere yields a fault-free plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Probability that a given worker *crashes* at some point during the
    /// run (the paper-facing failure rate `f`). A crashed worker dies
    /// silently mid-evaluation and never returns.
    pub crash_rate: f64,
    /// Per-result probability that the result message is dropped.
    pub drop_rate: f64,
    /// Per-result probability that the result message is duplicated.
    pub duplicate_rate: f64,
}

impl FaultConfig {
    /// Crash rate `f`, 1% message loss, everything else quiet: the
    /// scenario of the golden fault-path cell (`f = 0.25`).
    pub fn degraded(f: f64) -> Self {
        Self {
            crash_rate: f,
            drop_rate: 0.01,
            ..Self::default()
        }
    }
}

/// What the plan decrees for one dispatched evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchFate {
    /// Evaluate normally.
    Normal,
    /// The worker dies for good after completing fraction `frac` of this
    /// evaluation.
    CrashDuring {
        /// Fraction of the evaluation completed before death, in `(0, 1)`.
        frac: f64,
    },
}

/// What the plan decrees for one result message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered exactly once.
    Deliver,
    /// Lost in transit; the master never sees it.
    Drop,
    /// Delivered twice (e.g. a retransmit racing the original).
    Duplicate,
}

/// A deterministic schedule of faults for one run.
///
/// Per-worker crash points are pre-drawn at construction (so the failure
/// rate reads as "fraction of workers lost during the run"); per-message
/// decisions are stateless hashes, so the plan can be consulted
/// concurrently from several threads without any shared RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
    /// Per worker: the dispatch index during which it crashes.
    crash_at: Vec<Option<u64>>,
}

impl FaultPlan {
    /// Draws a plan for `workers` workers expected to perform about
    /// `expected_evals` evaluations in total.
    pub fn new(config: FaultConfig, workers: usize, expected_evals: u64, seed: u64) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let per_worker = (expected_evals / workers as u64).max(1);
        let crash_at = (0..workers as u64)
            .map(|w| {
                let r = unit(mix64(seed ^ TAG_CRASH ^ (w << 8)));
                let when = 1
                    + (unit(mix64(seed ^ TAG_CRASH_WHEN ^ (w << 8))) * (per_worker - 1) as f64)
                        as u64;
                (r < config.crash_rate).then_some(when)
            })
            .collect();
        Self {
            config,
            seed,
            crash_at,
        }
    }

    /// Number of workers covered by the plan.
    pub fn workers(&self) -> usize {
        self.crash_at.len()
    }

    /// Workers scheduled to crash at some point.
    pub fn doomed_workers(&self) -> usize {
        self.crash_at.iter().filter(|c| c.is_some()).count()
    }

    /// The fate of the `dispatch`-th evaluation dispatched to `worker`
    /// (0-based, counted per worker).
    #[inline]
    pub fn dispatch_fate(&self, worker: usize, dispatch: u64) -> DispatchFate {
        if self.crash_at.get(worker).copied().flatten() == Some(dispatch) {
            let frac =
                unit(mix64(self.seed ^ TAG_CRASH_FRAC ^ ((worker as u64) << 8))).clamp(0.05, 0.95);
            return DispatchFate::CrashDuring { frac };
        }
        DispatchFate::Normal
    }

    /// The fate of the result message for evaluation `eval_id`, on its
    /// `attempt`-th transmission (reissues are re-rolled independently).
    #[inline]
    pub fn message_fate(&self, eval_id: u64, attempt: u32) -> MessageFate {
        // Zero rates decide without the hash (`unit(h) < 0` never holds).
        if self.config.drop_rate <= 0.0 && self.config.drop_rate + self.config.duplicate_rate <= 0.0
        {
            return MessageFate::Deliver;
        }
        let h = mix64(self.seed ^ TAG_MESSAGE ^ (eval_id << 8) ^ u64::from(attempt));
        let r = unit(h);
        if r < self.config.drop_rate {
            MessageFate::Drop
        } else if r < self.config.drop_rate + self.config.duplicate_rate {
            MessageFate::Duplicate
        } else {
            MessageFate::Deliver
        }
    }
}

/// The kind of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Worker died silently mid-evaluation.
    Crash,
    /// Worker stopped answering and was declared dead by heartbeat
    /// timeout (recorded by the wall-clock master, never injected).
    Hang,
    /// Result message lost in transit.
    MessageDrop,
    /// Result message delivered twice.
    MessageDuplicate,
}

/// One injected fault and the master's response to it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// What was injected.
    pub kind: FaultKind,
    /// Worker the fault struck.
    pub worker: usize,
    /// Evaluation in flight when it struck.
    pub eval_id: u64,
    /// Simulated (or wall-clock) time of injection.
    pub injected_at: f64,
    /// When the master noticed something was wrong (`None` = never).
    pub detected_at: Option<f64>,
    /// When the run stopped depending on the fault being repaired —
    /// the lost evaluation was re-consumed, the duplicate suppressed, or
    /// the run completed its budget without it (`None` = never).
    pub recovered_at: Option<f64>,
}

/// Indices into [`FaultLog::records`] of those not yet recovered,
/// ascending — what the per-result scans read, so a faulty run costs
/// O(open records) a result, not O(faults so far). Covers
/// `records[..tracked]`; whatever was appended since joins at the next
/// scan. Bookkeeping only: two ledgers with the same records are the same
/// ledger however far each has scanned, so any two indexes compare equal.
#[derive(Debug, Clone, Default)]
struct OpenIndex {
    indices: Vec<usize>,
    tracked: usize,
}

impl PartialEq for OpenIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The ledger of injected faults and recovery actions for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Every injected fault, in injection order.
    pub records: Vec<FaultRecord>,
    /// Which of `records` the per-result scans still have to read.
    open: OpenIndex,
    /// Evaluations re-sent after a timeout or detected death.
    pub reissues: u64,
    /// Result messages discarded by duplicate/stale suppression.
    pub duplicates_suppressed: u64,
    /// Worker-side evaluations whose results never advanced the run:
    /// dropped messages, suppressed duplicates, and work lost mid-crash.
    pub wasted_nfe: u64,
    /// Dead workers the master detected (ping failure or missed
    /// heartbeats).
    pub deaths_detected: u64,
}

impl FaultLog {
    /// Brings `open` up to date with `records` and lends both: a recovered
    /// record is also detected, so no scan needs to look outside `open`.
    fn open_records(&mut self) -> (&mut Vec<usize>, &mut [FaultRecord]) {
        let OpenIndex { indices, tracked } = &mut self.open;
        if *tracked > self.records.len() {
            // `records` is public; if it was cut short, start over.
            indices.clear();
            *tracked = 0;
        }
        indices.extend(*tracked..self.records.len());
        *tracked = self.records.len();
        (indices, &mut self.records)
    }

    /// Starts a new fault record; returns its index for later updates.
    pub fn inject(&mut self, kind: FaultKind, worker: usize, eval_id: u64, now: f64) -> usize {
        self.records.push(FaultRecord {
            kind,
            worker,
            eval_id,
            injected_at: now,
            detected_at: None,
            recovered_at: None,
        });
        self.records.len() - 1
    }

    /// Marks the first undetected record matching `eval_id` as detected.
    pub fn detect_eval(&mut self, eval_id: u64, now: f64) {
        let (open, records) = self.open_records();
        let undetected =
            |&&i: &&usize| records[i].eval_id == eval_id && records[i].detected_at.is_none();
        if let Some(&i) = open.iter().find(undetected) {
            records[i].detected_at = Some(now);
        }
    }

    /// Marks undetected crash/hang records for `worker` as detected.
    pub fn detect_worker_death(&mut self, worker: usize, now: f64) {
        let (open, records) = self.open_records();
        for &i in open.iter() {
            let r = &mut records[i];
            if r.worker == worker
                && matches!(r.kind, FaultKind::Crash | FaultKind::Hang)
                && r.detected_at.is_none()
            {
                r.detected_at = Some(now);
            }
        }
        self.deaths_detected += 1;
    }

    /// Marks every unrecovered record tied to `eval_id` as recovered
    /// (its result was finally consumed or definitively suppressed).
    pub fn recover_eval(&mut self, eval_id: u64, now: f64) {
        let (open, records) = self.open_records();
        open.retain(|&i| {
            let r = &mut records[i];
            if r.eval_id == eval_id && r.recovered_at.is_none() {
                r.detected_at.get_or_insert(now);
                r.recovered_at = Some(now);
            }
            r.recovered_at.is_none()
        });
    }

    /// Closes the ledger at run end: faults still pending when the
    /// evaluation budget completed are trivially resolved — the run no
    /// longer depends on them (documented in DESIGN.md §9).
    pub fn finalize(&mut self, end: f64) {
        for r in self.records.iter_mut() {
            if r.detected_at.is_none() {
                r.detected_at = Some(end);
            }
            if r.recovered_at.is_none() {
                r.recovered_at = Some(end);
            }
        }
        self.open.indices.clear();
        self.open.tracked = self.records.len();
    }

    /// Number of injected faults.
    pub fn injected(&self) -> usize {
        self.records.len()
    }

    /// Number of injected faults of `kind`.
    pub fn injected_of(&self, kind: FaultKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }

    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.detected_at.is_some())
            .count()
    }

    /// Number of recovered faults.
    pub fn recovered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.recovered_at.is_some())
            .count()
    }

    /// Whether every injected fault was detected and recovered.
    pub fn all_recovered(&self) -> bool {
        self.records
            .iter()
            .all(|r| r.detected_at.is_some() && r.recovered_at.is_some())
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} injected ({} crash, {} hang, {} drop, {} dup), \
             {} detected, {} recovered, {} reissues, {} dups suppressed, \
             {} wasted NFE",
            self.injected(),
            self.injected_of(FaultKind::Crash),
            self.injected_of(FaultKind::Hang),
            self.injected_of(FaultKind::MessageDrop),
            self.injected_of(FaultKind::MessageDuplicate),
            self.detected(),
            self.recovered(),
            self.reissues,
            self.duplicates_suppressed,
            self.wasted_nfe,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultConfig {
        FaultConfig {
            crash_rate: 0.4,
            drop_rate: 0.02,
            duplicate_rate: 0.02,
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::new(lossy(), 16, 10_000, 42);
        let b = FaultPlan::new(lossy(), 16, 10_000, 42);
        assert_eq!(a, b);
        for w in 0..16 {
            for d in 0..50 {
                assert_eq!(a.dispatch_fate(w, d), b.dispatch_fate(w, d));
            }
        }
        for id in 0..500 {
            assert_eq!(a.message_fate(id, 0), b.message_fate(id, 0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(lossy(), 64, 10_000, 1);
        let b = FaultPlan::new(lossy(), 64, 10_000, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::new(lossy(), 1000, 100_000, 7);
        let doomed = plan.doomed_workers();
        // crash 0.4 ⇒ about 400/1000 doomed.
        assert!((300..500).contains(&doomed), "doomed = {doomed}");
        let drops = (0..100_000u64)
            .filter(|&id| plan.message_fate(id, 0) == MessageFate::Drop)
            .count();
        assert!((1_500..2_500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn quiet_config_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::default(), 32, 10_000, 3);
        assert_eq!(plan.doomed_workers(), 0);
        for w in 0..32 {
            for d in 0..400 {
                assert_eq!(plan.dispatch_fate(w, d), DispatchFate::Normal);
            }
        }
        for id in 0..1_000 {
            assert_eq!(plan.message_fate(id, 0), MessageFate::Deliver);
        }
    }

    #[test]
    fn reissued_messages_reroll_their_fate() {
        let cfg = FaultConfig {
            drop_rate: 0.5,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg, 4, 1_000, 11);
        // With a 50% drop rate, some eval must have attempt 0 dropped but
        // attempt 1 delivered — the reissue path out of a black hole.
        let rerolled = (0..200u64).any(|id| {
            plan.message_fate(id, 0) == MessageFate::Drop
                && plan.message_fate(id, 1) == MessageFate::Deliver
        });
        assert!(rerolled);
    }

    #[test]
    fn fault_log_lifecycle() {
        let mut log = FaultLog::default();
        let _ = log.inject(FaultKind::MessageDrop, 3, 17, 1.0);
        log.inject(FaultKind::Crash, 1, 20, 2.0);
        assert_eq!(log.injected(), 2);
        assert_eq!(log.detected(), 0);
        log.detect_eval(17, 1.5);
        log.recover_eval(17, 1.8);
        assert_eq!(log.detected(), 1);
        assert_eq!(log.recovered(), 1);
        assert!(!log.all_recovered());
        log.detect_worker_death(1, 2.5);
        log.recover_eval(20, 3.0);
        assert!(log.all_recovered());
        let rec = &log.records[1];
        assert_eq!(rec.detected_at.map(|d| d - rec.injected_at), Some(0.5));
        assert!(log.summary().contains("2 injected"));
    }

    /// The scans read only the open records; what they find must be what
    /// a scan of every record finds, however long some stay open.
    #[test]
    fn scans_of_the_open_records_match_whole_ledger_scans() {
        /// The ledger as it was before it skipped anything.
        #[derive(Default)]
        struct WholeScan(Vec<FaultRecord>);
        impl WholeScan {
            fn detect_eval(&mut self, eval_id: u64, now: f64) {
                let undetected =
                    |r: &&mut FaultRecord| r.eval_id == eval_id && r.detected_at.is_none();
                if let Some(r) = self.0.iter_mut().find(undetected) {
                    r.detected_at = Some(now);
                }
            }
            fn detect_worker_death(&mut self, worker: usize, now: f64) {
                for r in self.0.iter_mut().filter(|r| {
                    r.worker == worker
                        && matches!(r.kind, FaultKind::Crash | FaultKind::Hang)
                        && r.detected_at.is_none()
                }) {
                    r.detected_at = Some(now);
                }
            }
            fn recover_eval(&mut self, eval_id: u64, now: f64) {
                let unrecovered =
                    |r: &&mut FaultRecord| r.eval_id == eval_id && r.recovered_at.is_none();
                for r in self.0.iter_mut().filter(unrecovered) {
                    r.detected_at.get_or_insert(now);
                    r.recovered_at = Some(now);
                }
            }
        }

        const KINDS: [FaultKind; 4] = [
            FaultKind::Crash,
            FaultKind::Hang,
            FaultKind::MessageDrop,
            FaultKind::MessageDuplicate,
        ];
        for seed in 0..64u64 {
            let (mut log, mut oracle) = (FaultLog::default(), WholeScan::default());
            let mut next_eval = 0u64;
            for step in 0..400u64 {
                let h = mix64(seed ^ (step << 16));
                let now = step as f64;
                // Ids near the newest: faults resolve roughly in order, with
                // the odd one left open for good (eval ids ≡ 0 mod 17).
                let near = next_eval.saturating_sub((h >> 8) % 6);
                match h % 8 {
                    0..=2 => {
                        let (kind, worker) =
                            (KINDS[(h >> 20) as usize % 4], (h >> 30) as usize % 5);
                        log.inject(kind, worker, next_eval, now);
                        oracle.0.push(log.records[log.records.len() - 1].clone());
                        next_eval += 1;
                    }
                    3 => {
                        log.detect_eval(near, now);
                        oracle.detect_eval(near, now);
                    }
                    4 => {
                        let worker = (h >> 30) as usize % 5;
                        log.detect_worker_death(worker, now);
                        oracle.detect_worker_death(worker, now);
                    }
                    _ if !near.is_multiple_of(17) => {
                        log.recover_eval(near, now);
                        oracle.recover_eval(near, now);
                    }
                    _ => {}
                }
                assert_eq!(log.records, oracle.0, "seed {seed} step {step}");
            }
            // After a scan, exactly the unrecovered records are open.
            log.recover_eval(u64::MAX, 400.0);
            let unrecovered = log.records.iter().filter(|r| r.recovered_at.is_none());
            assert_eq!(log.open.indices.len(), unrecovered.count(), "seed {seed}");
            assert!(log.open.indices.len() < log.records.len(), "seed {seed}");
            // A ledger that has not scanned yet is the same ledger.
            let unscanned = FaultLog {
                open: OpenIndex::default(),
                ..log.clone()
            };
            assert_eq!(log, unscanned);
        }
    }

    #[test]
    fn finalize_resolves_pending_records() {
        let mut log = FaultLog::default();
        log.inject(FaultKind::MessageDuplicate, 0, 5, 1.0);
        assert!(!log.all_recovered());
        log.finalize(9.0);
        assert!(log.all_recovered());
        assert_eq!(log.records[0].recovered_at, Some(9.0));
    }
}
