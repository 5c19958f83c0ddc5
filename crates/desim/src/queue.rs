//! The deterministic event queue at the heart of every simulation here.
//!
//! Events are `(time, payload)` pairs; ties are broken by insertion order
//! (FIFO), which makes every simulation in this workspace bit-reproducible
//! regardless of floating-point time collisions.
//!
//! The queue is a binary min-heap ordered by two integers, `(key, seq)`:
//!
//! * `key` is the bit pattern of `at + 0.0`. [`EventQueue::schedule_at`]
//!   rejects NaN, infinities and times before `now`, so every accepted time
//!   is `≥ 0`, and the bits of a non-negative `f64` sort as its value does.
//!   Adding `+ 0.0` folds `-0.0` onto `+0.0`, so the two tie as they do
//!   under `partial_cmp`.
//! * `seq` is the insertion number, shifted left one bit; the freed low bit
//!   keeps the sign of the scheduled time, so a `-0.0` pops as `-0.0`.
//!   Insertion numbers are unique, so the low bit never decides an order.
//!
//! `(key, seq) < (key', seq')` is therefore exactly the (time, FIFO) order,
//! as two integer compares the CPU predicts instead of a float
//! `partial_cmp` and a tie-break at every level. Every key is unique, so
//! the pop sequence is fully determined by the order alone, not by the heap
//! layout. Payloads are `Copy`: a pop moves entries up the heap by plain
//! copies, with no hole to guard against a panic mid-sift.

/// Simulated time in seconds.
pub(crate) type Time = f64;

#[derive(Clone, Copy)]
struct Entry<E> {
    key: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Strictly earlier in (time, insertion) order.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        (self.key, self.seq) < (other.key, other.seq)
    }

    /// The time this entry was scheduled at, sign of zero included.
    fn time(&self) -> Time {
        Time::from_bits(self.key | (self.seq << 63))
    }
}

/// A min-heap event queue with a simulation clock.
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    now: Time,
    seq: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: Vec::new(),
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
        let entry = Entry {
            key: (at + 0.0).to_bits(),
            seq: self.seq << 1 | at.to_bits() >> 63,
            event,
        };
        self.seq += 1;
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Schedules `event` after `delay` seconds.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// Bottom-up: the root's hole walks to a leaf behind the smaller child
    /// at every level, then the old last entry sifts up from there. That is
    /// one compare per level on the way down (between siblings, picked
    /// without a branch) and, as the last entry is usually a late event,
    /// few on the way up.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first().copied() {
            None => last,
            Some(top) => {
                let n = self.heap.len();
                let (mut hole, mut child) = (0, 1);
                while child + 1 < n {
                    child += usize::from(self.heap[child + 1].before(&self.heap[child]));
                    self.heap[hole] = self.heap[child];
                    hole = child;
                    child = 2 * hole + 1;
                }
                if child < n {
                    self.heap[hole] = self.heap[child];
                    hole = child;
                }
                self.sift_up(hole, last);
                top
            }
        };
        let time = top.time();
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, top.event))
    }

    /// Moves `entry` from the hole at `hole` towards the root past every
    /// later parent, and stores it where it stops.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, entry: Entry<E>) {
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        assert_eq!(q.pop(), Some((5.0, "y")));
        assert_eq!(q.now(), 5.0);
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
