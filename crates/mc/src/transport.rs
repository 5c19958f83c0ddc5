//! The model-checker's [`Transport`]: logical time, explicit pending
//! events, and a deterministic fault overlay.
//!
//! Where the DES transports schedule continuations at sampled virtual
//! times, [`ModelTransport`] materialises every in-flight message and
//! timer as a [`Pending`] entry and lets the explorer choose the
//! delivery order. Time is purely logical — `now` is the number of
//! events delivered so far — so "later" means "after more deliveries",
//! which is exactly the granularity at which the engine's decisions can
//! depend on order.

use crate::overlay::Overlay;
use borg_desim::fault::{FaultKind, FaultLog};
use borg_protocol::{Clock, Transport};

/// An undelivered event the scheduler may hand to the engine next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Pending {
    /// A result message in flight from `worker` (one entry per copy; a
    /// duplicated message contributes two entries).
    Result {
        /// Delivering worker.
        worker: usize,
        /// Evaluation the message carries.
        eval_id: u64,
    },
    /// The deadline timer armed for one specific dispatch of `eval_id`.
    Deadline {
        /// Evaluation being watched.
        eval_id: u64,
        /// Worker the dispatch targeted.
        worker: usize,
        /// Bit pattern of the armed deadline (the engine's staleness
        /// token: a reissue re-arms with different bits).
        bits: u64,
    },
    /// The liveness sweep timer.
    Heartbeat,
    /// The out-of-band notification that `worker` died for good.
    Death {
        /// Dead worker.
        worker: usize,
        /// Shared-pool death notes name the evaluation that died with
        /// the worker; assigned pools let the deadline machinery find it.
        lost_eval: Option<u64>,
    },
}

/// A [`Pending`] event plus the logical time it entered the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingAt {
    /// The event itself.
    pub event: Pending,
    /// Logical time (delivered-event count) at which it was created —
    /// the bounded-delay scheduler limits how long an event may be
    /// overtaken by younger ones.
    pub birth: u64,
}

/// Mirror of the ground truth the engine cannot see, plus the
/// bookkeeping the invariants are checked against.
#[derive(Debug, Clone)]
pub(crate) struct ModelTransport {
    /// Logical clock: number of events delivered so far.
    pub now: f64,
    /// Undelivered events, in creation order.
    pub pending: Vec<PendingAt>,
    /// Ground-truth worker liveness (dies at the *dispatch* that strikes
    /// it, before the master hears about it).
    pub worker_alive: Vec<bool>,
    /// Per-eval consume count (invariant: never exceeds one).
    pub consumed: std::collections::BTreeMap<u64, u32>,
    /// Every eval id ever dispatched.
    pub dispatched: std::collections::BTreeSet<u64>,
    /// Eval ids the engine told us to abandon.
    pub abandoned: std::collections::BTreeSet<u64>,
    /// `absorb_duplicate` calls (must equal `log.duplicates_suppressed`).
    pub absorbed_duplicates: u64,
    /// Dispatch calls with `attempt > 0` (must equal `log.reissues`).
    pub reissue_dispatches: u64,
    /// Result messages the overlay dropped.
    pub drops_injected: u64,
    /// Result messages the overlay duplicated.
    pub dups_injected: u64,
    /// Scripted worker deaths that took an in-flight evaluation down.
    pub deaths_injected: u64,
    /// Eval ids the engine routed to `unknown_result`. Legitimate only
    /// for abandoned evaluations: the model transport never fabricates
    /// results, so an unknown arrival for a *consumed* id means the
    /// duplicate-suppression path lost a message instead of absorbing it.
    pub unknown_ids: std::collections::BTreeSet<u64>,
    /// Heartbeat re-arms honoured so far.
    pub rearms: u32,
    /// Re-arms refused past the cap (bounds the schedule space; a
    /// truncated scenario reports this so the bound is never silent).
    pub rearms_truncated: u64,
    /// Cap on honoured re-arms.
    pub rearm_cap: u32,
    /// Monotonic counter making every armed deadline's bit pattern
    /// unique (the engine's staleness check must distinguish dispatches).
    pub deadline_counter: u64,
    /// Whether armed deadlines are finite (mirrors the policy timeout).
    pub finite_deadlines: bool,
    /// The scenario's fault overlay.
    pub overlay: Overlay,
}

impl ModelTransport {
    /// A fresh transport for `workers` slots under `overlay`.
    pub(crate) fn new(
        workers: usize,
        finite_deadlines: bool,
        rearm_cap: u32,
        overlay: Overlay,
    ) -> Self {
        ModelTransport {
            now: 0.0,
            pending: Vec::new(),
            worker_alive: vec![true; workers],
            consumed: std::collections::BTreeMap::new(),
            dispatched: std::collections::BTreeSet::new(),
            abandoned: std::collections::BTreeSet::new(),
            absorbed_duplicates: 0,
            reissue_dispatches: 0,
            drops_injected: 0,
            dups_injected: 0,
            deaths_injected: 0,
            unknown_ids: std::collections::BTreeSet::new(),
            rearms: 0,
            rearms_truncated: 0,
            rearm_cap,
            deadline_counter: 0,
            finite_deadlines,
            overlay,
        }
    }

    /// Total consume calls (counting repeats of the same id).
    pub(crate) fn total_consumes(&self) -> u64 {
        self.consumed.values().map(|&c| u64::from(c)).sum()
    }

    /// Whether any eval id was consumed more than once.
    pub(crate) fn double_consumed(&self) -> Option<u64> {
        self.consumed
            .iter()
            .find(|(_, &c)| c > 1)
            .map(|(&id, _)| id)
    }

    fn push(&mut self, event: Pending) {
        self.pending.push(PendingAt {
            event,
            birth: self.now as u64,
        });
    }

    /// Deliver the pending event at `index`: advance logical time and
    /// return the [`borg_protocol::Event`] to feed the engine.
    pub(crate) fn deliver(&mut self, index: usize) -> borg_protocol::Event {
        let p = self.pending.swap_remove(index);
        self.now += 1.0;
        let at = self.now;
        match p.event {
            Pending::Result { worker, eval_id } => borg_protocol::Event::ResultArrived {
                worker,
                eval_id,
                at,
            },
            Pending::Deadline {
                eval_id,
                worker,
                bits,
            } => borg_protocol::Event::DeadlineFired {
                eval_id,
                worker,
                deadline_bits: bits,
                at,
            },
            Pending::Heartbeat => borg_protocol::Event::HeartbeatTick { at },
            Pending::Death { worker, lost_eval } => borg_protocol::Event::WorkerDied {
                worker,
                at,
                lost_eval,
            },
        }
    }

    /// Canonical 64-bit digest of the transport state (folded into the
    /// engine digest to key the explorer's visited-state memo). Pending
    /// events are hashed as a sorted multiset so creation order — which
    /// the scheduler erases anyway — does not split equivalent states.
    /// `include_births` must be true under a bounded-delay scheduler,
    /// where relative ages change which events are enabled.
    pub(crate) fn digest(&self, include_births: bool) -> u64 {
        let min_birth = self.pending.iter().map(|p| p.birth).min().unwrap_or(0);
        let mut encoded: Vec<(u64, u64, u64, u64)> = self
            .pending
            .iter()
            .map(|p| {
                let (tag, a, b) = match p.event {
                    Pending::Result { worker, eval_id } => (1u64, worker as u64, eval_id),
                    Pending::Deadline {
                        eval_id,
                        worker,
                        bits,
                    } => (2, worker as u64 ^ (eval_id << 8), bits),
                    Pending::Heartbeat => (3, 0, 0),
                    Pending::Death { worker, lost_eval } => {
                        (4, worker as u64, lost_eval.map_or(u64::MAX, |id| id))
                    }
                };
                let age = if include_births {
                    p.birth - min_birth
                } else {
                    0
                };
                (tag, a, b, age)
            })
            .collect();
        encoded.sort_unstable();
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for (tag, a, b, age) in encoded {
            h = mix(h ^ tag);
            h = mix(h ^ a);
            h = mix(h ^ b);
            h = mix(h ^ age);
        }
        h = mix(h ^ (self.now as u64));
        for &alive in &self.worker_alive {
            h = mix(h ^ u64::from(alive));
        }
        for (&id, &count) in &self.consumed {
            h = mix(h ^ id);
            h = mix(h ^ u64::from(count));
        }
        for &id in &self.abandoned {
            h = mix(h ^ id);
        }
        h = mix(h ^ self.absorbed_duplicates);
        h = mix(h ^ self.reissue_dispatches);
        h = mix(h ^ self.drops_injected);
        h = mix(h ^ self.dups_injected);
        h = mix(h ^ self.deaths_injected);
        h = mix(h ^ self.unknown_ids.len() as u64);
        for &id in &self.unknown_ids {
            h = mix(h ^ id);
        }
        h = mix(h ^ u64::from(self.rearms));
        h = mix(h ^ self.deadline_counter);
        h
    }
}

/// SplitMix64 finalizer (same construction as the fault plan's hashing).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Clock for ModelTransport {
    fn now(&self) -> f64 {
        self.now
    }
}

impl Transport for ModelTransport {
    fn dispatch(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        seq: u64,
        log: &mut FaultLog,
    ) -> f64 {
        self.dispatched.insert(eval_id);
        if attempt > 0 {
            self.reissue_dispatches += 1;
        }
        // Deadlines are armed regardless of the message's fate: the
        // engine watches the dispatch, not the network.
        let deadline = if self.finite_deadlines {
            self.deadline_counter += 1;
            // Far above any logical timestamp the run can reach, and
            // unique per dispatch so staleness checks discriminate.
            1.0e6 + self.deadline_counter as f64
        } else {
            f64::INFINITY
        };
        if deadline.is_finite() {
            self.push(Pending::Deadline {
                eval_id,
                worker,
                bits: deadline.to_bits(),
            });
        }
        // Scripted death: this dispatch strikes the worker down before
        // it can reply. The master only learns of it when the Death
        // event is eventually delivered.
        if self.overlay.death_for(worker, seq) {
            self.worker_alive[worker] = false;
            self.deaths_injected += 1;
            log.inject(FaultKind::Crash, worker, eval_id, self.now);
            let lost_eval = if self.overlay.shared_death_notes {
                Some(eval_id)
            } else {
                None
            };
            self.push(Pending::Death { worker, lost_eval });
            return deadline;
        }
        // A dead assigned worker silently swallows new work; the
        // deadline above is what rescues the evaluation.
        if !self.worker_alive[worker] && !self.overlay.shared_pickup {
            return deadline;
        }
        match self.overlay.message_fate(eval_id, attempt) {
            crate::overlay::Fate::Deliver => {
                self.push(Pending::Result { worker, eval_id });
            }
            crate::overlay::Fate::Drop => {
                self.drops_injected += 1;
                log.inject(FaultKind::MessageDrop, worker, eval_id, self.now);
                log.wasted_nfe += 1;
            }
            crate::overlay::Fate::Duplicate => {
                self.dups_injected += 1;
                log.inject(FaultKind::MessageDuplicate, worker, eval_id, self.now);
                self.push(Pending::Result { worker, eval_id });
                self.push(Pending::Result { worker, eval_id });
            }
        }
        deadline
    }

    fn consume(&mut self, _worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
        *self.consumed.entry(eval_id).or_insert(0) += 1;
        self.now
    }

    fn absorb_duplicate(&mut self, _worker: usize, _eval_id: u64, _ready_at: f64) -> f64 {
        self.absorbed_duplicates += 1;
        self.now
    }

    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        (self.now, self.now)
    }

    fn rearm_heartbeat(&mut self, _at: f64) {
        if self.rearms < self.rearm_cap {
            self.rearms += 1;
            self.push(Pending::Heartbeat);
        } else {
            self.rearms_truncated += 1;
        }
    }

    fn abandon(&mut self, eval_id: u64) {
        self.abandoned.insert(eval_id);
    }

    fn unknown_result(&mut self, _worker: usize, eval_id: u64) {
        self.unknown_ids.insert(eval_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::Overlay;

    #[test]
    fn dispatch_arms_unique_deadlines_and_results() {
        let mut t = ModelTransport::new(2, true, 0, Overlay::quiet());
        let mut log = FaultLog::default();
        let d0 = t.dispatch(0, 0, 0, 0, &mut log);
        let d1 = t.dispatch(1, 1, 0, 0, &mut log);
        assert!(d0.is_finite() && d1.is_finite() && d0 != d1);
        assert_eq!(t.pending.len(), 4); // 2 deadlines + 2 results
    }

    #[test]
    fn delivery_advances_logical_time() {
        let mut t = ModelTransport::new(1, false, 0, Overlay::quiet());
        let mut log = FaultLog::default();
        t.dispatch(0, 0, 0, 0, &mut log);
        assert_eq!(t.pending.len(), 1);
        let ev = t.deliver(0);
        assert!(matches!(
            ev,
            borg_protocol::Event::ResultArrived { eval_id: 0, .. }
        ));
        assert_eq!(t.now, 1.0);
        assert!(t.pending.is_empty());
    }

    #[test]
    fn digest_ignores_pending_creation_order() {
        let mk = |swap: bool| {
            let mut t = ModelTransport::new(2, false, 0, Overlay::quiet());
            let mut log = FaultLog::default();
            if swap {
                t.dispatch(1, 1, 0, 0, &mut log);
                t.dispatch(0, 0, 0, 0, &mut log);
            } else {
                t.dispatch(0, 0, 0, 0, &mut log);
                t.dispatch(1, 1, 0, 0, &mut log);
            }
            t.digest(false)
        };
        assert_eq!(mk(false), mk(true));
    }
}
