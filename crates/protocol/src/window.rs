//! [`IdWindow`]: values keyed by consecutively issued evaluation ids.

use std::collections::VecDeque;

/// A map from evaluation id to `T` for ids that are issued consecutively
/// and resolved roughly in order — what every executor keeps per
/// evaluation in flight.
///
/// The value of `id` sits at slot `id − base`; a fresh id is a
/// `push_back`, a lookup is one index, and a removal empties its slot and
/// trims the emptied prefix, so every operation is O(1) amortised and
/// iteration runs in id order. Memory is O(newest − oldest held id): equal
/// to the number held whenever every id is eventually removed, and one
/// empty slot per id issued past one that never is.
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// The id slot 0 stands for. While ids are inserted consecutively,
    /// `base + span` is the next id to be issued.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> IdWindow<T> {
    /// An empty window starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lowest id that can still be held: every id below it was removed.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Slots in use, empty ones included: newest − oldest held id + 1, or 0.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Values held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The value of `id`.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.slot(id)?)?.as_ref()
    }

    /// The value of `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.slot(id)?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Stores `value` under `id`, returning what it replaces. The next id
    /// in sequence appends one slot; an id further out (or below `base`)
    /// also pays one empty slot per id skipped.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        while id < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let slot = (id - self.base) as usize;
        let old = match self.slots.get_mut(slot) {
            Some(held) => held.replace(value),
            None => {
                self.slots.resize_with(slot, || None);
                self.slots.push_back(Some(value));
                None
            }
        };
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes and returns the value of `id`, trimming the emptied prefix.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let slot = self.slot(id)?;
        let value = self.slots.get_mut(slot)?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// The held `(id, value)` pairs in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The window and the ordered map it stands in for, in lockstep.
    #[derive(Default)]
    struct Pair {
        window: IdWindow<u32>,
        model: BTreeMap<u64, u32>,
        /// The next id a fresh dispatch would be issued.
        next: u64,
    }

    impl Pair {
        /// The `pick`-th id held, if any.
        fn held(&self, pick: u64) -> Option<u64> {
            let n = self.model.len() as u64;
            (n > 0).then(|| {
                *self
                    .model
                    .keys()
                    .nth((pick % n) as usize)
                    .expect("pick < len")
            })
        }

        fn insert(&mut self, id: u64, value: u32) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.window.insert(id, value), self.model.insert(id, value));
            self.next = self.next.max(id + 1);
            Ok(())
        }

        fn apply(&mut self, kind: u8, pick: u64, value: u32) -> Result<(), TestCaseError> {
            match kind {
                // A fresh dispatch: the next id in sequence.
                0..=2 => self.insert(self.next, value)?,
                // A reissue: overwrites the entry of an id still out.
                3 => {
                    if let Some(id) = self.held(pick) {
                        self.insert(id, value)?;
                    }
                }
                // A result or an abandonment, in any order.
                4..=6 => {
                    if let Some(id) = self.held(pick) {
                        prop_assert_eq!(self.window.remove(id), self.model.remove(&id));
                    }
                }
                // Any id at all: consumed long ago (below `base`), held,
                // in a gap, or not issued yet.
                7 => {
                    let id = pick % (self.next + 3);
                    prop_assert_eq!(self.window.remove(id), self.model.remove(&id));
                }
                _ => self.insert(pick % (self.next + 3), value)?,
            }
            self.agree()
        }

        fn agree(&self) -> Result<(), TestCaseError> {
            let (window, model) = (&self.window, &self.model);
            prop_assert_eq!(window.len(), model.len());
            prop_assert_eq!(window.len() == 0, model.is_empty());
            prop_assert!(window
                .iter()
                .map(|(id, v)| (id, *v))
                .eq(model.iter().map(|(id, v)| (*id, *v))));
            for id in 0..self.next + 2 {
                prop_assert_eq!(window.get(id), model.get(&id), "get({})", id);
                prop_assert_eq!(window.get(id).is_some(), model.contains_key(&id));
            }
            // The emptied prefix is trimmed: the window starts at its oldest
            // entry and spans to its newest issued slot, or holds nothing.
            match (model.keys().next(), model.keys().next_back()) {
                (Some(&oldest), Some(&newest)) => {
                    prop_assert_eq!(window.base(), oldest);
                    prop_assert!(window.span() as u64 > newest - oldest);
                    prop_assert!(window.base() + window.span() as u64 <= self.next);
                }
                _ => prop_assert_eq!(window.span(), 0),
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn window_matches_an_ordered_map(
            ops in prop::collection::vec((0u8..9, 0u64..u64::MAX, 0u32..u32::MAX), 0..200),
        ) {
            let mut pair = Pair::default();
            for (kind, pick, value) in ops {
                pair.apply(kind, pick, value)?;
            }
        }
    }

    #[test]
    fn ids_below_the_base_are_gone_and_get_mut_reaches_what_is_held() {
        let mut w = IdWindow::new();
        for id in 0..4 {
            assert_eq!(w.insert(id, id * 10), None);
        }
        // Out of order: the prefix is trimmed only once it is all empty.
        assert_eq!(w.remove(1), Some(10));
        assert_eq!((w.base(), w.span(), w.len()), (0, 4, 3));
        assert_eq!(w.remove(0), Some(0));
        assert_eq!((w.base(), w.span(), w.len()), (2, 2, 2));
        assert_eq!(w.get(1), None);
        assert_eq!(w.remove(0), None);
        *w.get_mut(3).expect("3 is held") += 1;
        assert_eq!(w.iter().collect::<Vec<_>>(), [(2, &20), (3, &31)]);
        // Emptied, the window remembers where the ids had got to.
        assert_eq!((w.remove(3), w.remove(2)), (Some(31), Some(20)));
        assert_eq!((w.base(), w.span(), w.len()), (4, 0, 0));
    }
}
