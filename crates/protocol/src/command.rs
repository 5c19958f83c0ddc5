//! The protocol's observable vocabulary: what the world tells the master
//! ([`Event`]) and what the master does about it ([`Command`]).

/// An observation delivered to the [`MasterEngine`]. Adapters translate
/// their native signals (DES events, channel messages, fault notes) into
/// these; `at` is always in the adapter's [`Clock`] seconds.
///
/// [`MasterEngine`]: crate::MasterEngine
/// [`Clock`]: crate::Clock
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A result message for `eval_id` reached the master from `worker`.
    ResultArrived {
        worker: usize,
        eval_id: u64,
        at: f64,
    },
    /// The deadline scheduled for `eval_id`'s current dispatch fired.
    /// `deadline_bits` fingerprints that deadline (`f64::to_bits`); a
    /// reissue moves the deadline, turning stale firings into no-ops.
    /// `worker` is the worker the dispatch was assigned to.
    DeadlineFired {
        eval_id: u64,
        worker: usize,
        deadline_bits: u64,
        at: f64,
    },
    /// The background liveness sweep ticked.
    HeartbeatTick { at: f64 },
    /// The transport learned that `worker` physically died, for good.
    /// `lost_eval` carries the evaluation the worker was holding *when the
    /// transport already knows it* (real executors' out-of-band death
    /// notes) — simulated adapters pass `None` and let the
    /// deadline/heartbeat machinery discover the loss, like a real master
    /// would.
    WorkerDied {
        worker: usize,
        at: f64,
        lost_eval: Option<u64>,
    },
}

/// A decision the [`MasterEngine`] made. Every [`Transport`] call the
/// engine performs is mirrored by exactly one command, reported as one
/// flight record, so the flight records are a complete, executor-independent
/// transcript of the protocol — the object the differential equivalence
/// tests compare.
///
/// [`MasterEngine`]: crate::MasterEngine
/// [`Transport`]: crate::Transport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Send `eval_id` to `worker` (`attempt` 0 = fresh work, else reissue).
    Dispatch {
        worker: usize,
        eval_id: u64,
        attempt: u32,
    },
    /// Process the result of `eval_id` returned by `worker`.
    Consume { worker: usize, eval_id: u64 },
    /// Absorb and discard a duplicate/superseded result message.
    SuppressDuplicate { worker: usize, eval_id: u64 },
    /// Ping a worker whose evaluation missed its deadline.
    Ping { worker: usize },
    /// Quarantine a worker believed dead.
    RetireWorker { worker: usize },
    /// Give up on `eval_id` (reissue budget exhausted).
    Abandon { eval_id: u64 },
    /// Re-arm the liveness sweep.
    RearmHeartbeat,
    /// The evaluation budget is complete.
    Finish,
}
