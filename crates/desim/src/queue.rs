//! The deterministic event queue at the heart of every simulation here.
//!
//! Events are `(time, payload)` pairs; ties are broken by insertion order
//! (FIFO), which makes every simulation in this workspace bit-reproducible
//! regardless of floating-point time collisions.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in seconds.
pub type Time = f64;

struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap event queue with a simulation clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Time,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is NaN or lies in the past.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(at.is_finite(), "non-finite event time");
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.heap.push(Entry {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` after `delay` seconds.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Peeks at the next event time without advancing the clock.
    pub fn next_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert_eq!(q.pop().unwrap(), (1.0, "a"));
        assert_eq!(q.now(), 1.0);
        assert_eq!(q.pop().unwrap(), (2.0, "b"));
        assert_eq!(q.pop().unwrap(), (3.0, "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(2.0, "x");
        q.pop();
        q.schedule_in(3.0, "y");
        assert_eq!(q.next_time(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, ());
        q.pop();
        q.schedule_at(1.0, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(1.0, ());
        q.schedule_in(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
