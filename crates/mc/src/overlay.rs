//! Deterministic fault overlay for the model transport.
//!
//! Mirrors `borg_desim::fault::FaultPlan`'s two idioms — explicit
//! scripted faults for targeted scenarios and stateless seeded hashing
//! for broad ones — but over logical dispatch identity (eval id,
//! attempt, per-worker sequence) instead of virtual time, so the same
//! overlay decision is reproduced on every explored schedule.

/// Fate of one result-message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Delivered exactly once.
    Deliver,
    /// Lost in transit.
    Drop,
    /// Delivered twice.
    Duplicate,
}

/// Seeded per-message fault rates, hashed statelessly per
/// `(eval_id, attempt)` like `FaultPlan::message_fate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeededFaults {
    /// Hash seed (domain-separated internally).
    pub seed: u64,
    /// Drop probability in thousandths.
    pub drop_per_mille: u64,
    /// Duplicate probability in thousandths.
    pub dup_per_mille: u64,
}

/// The full overlay: scripted faults take precedence, then the seeded
/// rates, else clean delivery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Overlay {
    /// Transmissions `(eval_id, attempt)` to drop.
    pub drop_on: Vec<(u64, u32)>,
    /// Transmissions `(eval_id, attempt)` to duplicate.
    pub duplicate_on: Vec<(u64, u32)>,
    /// Scripted deaths `(worker, dispatch_seq)`: the worker dies for good
    /// while running its `dispatch_seq`-th assignment.
    pub deaths: Vec<(usize, u64)>,
    /// Seeded background fault rates, if any.
    pub seeded: Option<SeededFaults>,
    /// Shared-pool semantics: death notes carry the lost eval id...
    pub shared_death_notes: bool,
    /// ...and queued work is picked up by live threads even when the
    /// notional assignee is dead.
    pub shared_pickup: bool,
}

impl Overlay {
    /// No faults at all.
    pub(crate) fn quiet() -> Self {
        Overlay {
            drop_on: Vec::new(),
            duplicate_on: Vec::new(),
            deaths: Vec::new(),
            seeded: None,
            shared_death_notes: false,
            shared_pickup: false,
        }
    }

    /// Duplicate the listed transmissions.
    pub(crate) fn duplicates(on: &[(u64, u32)]) -> Self {
        Overlay {
            duplicate_on: on.to_vec(),
            ..Overlay::quiet()
        }
    }

    /// Drop the listed transmissions.
    pub(crate) fn drops(on: &[(u64, u32)]) -> Self {
        Overlay {
            drop_on: on.to_vec(),
            ..Overlay::quiet()
        }
    }

    /// One scripted death.
    pub(crate) fn death(worker: usize, seq: u64) -> Self {
        Overlay {
            deaths: vec![(worker, seq)],
            ..Overlay::quiet()
        }
    }

    /// Seeded background drop/duplicate rates.
    pub(crate) fn seeded(seed: u64, drop_per_mille: u64, dup_per_mille: u64) -> Self {
        Overlay {
            seeded: Some(SeededFaults {
                seed,
                drop_per_mille,
                dup_per_mille,
            }),
            ..Overlay::quiet()
        }
    }

    /// Whether `worker`'s `seq`-th dispatch kills it.
    pub(crate) fn death_for(&self, worker: usize, seq: u64) -> bool {
        self.deaths.contains(&(worker, seq))
    }

    /// Fate of the result message for `eval_id`'s `attempt`-th send.
    pub(crate) fn message_fate(&self, eval_id: u64, attempt: u32) -> Fate {
        if self.drop_on.contains(&(eval_id, attempt)) {
            return Fate::Drop;
        }
        if self.duplicate_on.contains(&(eval_id, attempt)) {
            return Fate::Duplicate;
        }
        if let Some(s) = self.seeded {
            let h = mix(s.seed ^ (eval_id << 8) ^ u64::from(attempt)) % 1000;
            if h < s.drop_per_mille {
                return Fate::Drop;
            }
            if h < s.drop_per_mille + s.dup_per_mille {
                return Fate::Duplicate;
            }
        }
        Fate::Deliver
    }
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_fates_take_precedence() {
        let o = Overlay {
            drop_on: vec![(3, 0)],
            duplicate_on: vec![(4, 1)],
            ..Overlay::quiet()
        };
        assert_eq!(o.message_fate(3, 0), Fate::Drop);
        assert_eq!(o.message_fate(3, 1), Fate::Deliver);
        assert_eq!(o.message_fate(4, 1), Fate::Duplicate);
        assert_eq!(o.message_fate(5, 0), Fate::Deliver);
    }

    #[test]
    fn seeded_fates_are_stable_and_rate_bounded() {
        let o = Overlay::seeded(42, 200, 200);
        let first: Vec<Fate> = (0..200).map(|id| o.message_fate(id, 0)).collect();
        let second: Vec<Fate> = (0..200).map(|id| o.message_fate(id, 0)).collect();
        assert_eq!(first, second);
        assert!(first.contains(&Fate::Drop));
        assert!(first.contains(&Fate::Duplicate));
        // 40% total fault rate: the clear majority still delivers.
        assert!(first.iter().filter(|&&f| f == Fate::Deliver).count() > 100);
    }

    #[test]
    fn death_lookup_matches_worker_and_seq() {
        let o = Overlay::death(1, 2);
        assert!(o.death_for(1, 2));
        assert!(!o.death_for(1, 1));
        assert!(!o.death_for(0, 2));
    }
}
