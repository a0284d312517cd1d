//! The event queue.
//!
//! One binary heap of `(time, seq)`-keyed entries: events come out in
//! nondecreasing timestamp order, and ties go to the event scheduled
//! first (FIFO), because `seq` counts schedules. The FIFO tie-break
//! matters for determinism: two processors scheduling events for the
//! same cycle must always be served in the same order across runs.
//! `tests/golden.rs` pins this bit-for-bit.
//!
//! The machine holds only a few pending events per processor (a resume,
//! plus a write-buffer kick or ack), so the heap stays shallow. A timing
//! wheel was tried here: no faster end to end, and more memory (DESIGN
//! §9).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// A pending event. Ordered so the `BinaryHeap` (a max-heap) pops the
/// *smallest* `(time, seq)` first.
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
        // Reversed: smallest (time, seq) is the "greatest" heap element.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic future-event list.
///
/// ```
/// use desim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// q.schedule(10, "c"); // same time as "b": FIFO order preserved
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Time,
    /// Events ever scheduled; also the next entry's `seq`.
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events before
    /// the heap reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            now: 0,
            scheduled_total: 0,
        }
    }

    /// Rewinds the clock and counters to a fresh queue, keeping the heap's
    /// allocation for the next run.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.now = 0;
        self.scheduled_total = 0;
    }

    /// The current simulation time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` lies in the past — delivering an
    /// event before `now` would silently corrupt causality.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        self.heap.push(Entry {
            time: at,
            seq: self.scheduled_total,
            event,
        });
        self.scheduled_total += 1;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now, "time went backwards");
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Number of events currently pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (a cheap progress metric).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A delay well past every latency class in the machine model. Some
    /// test names below (overflow, wheel, slot ring) come from the timing
    /// wheel of this span that this queue replaced; the tests pin that far
    /// and near events interleave by `(time, seq)` alone.
    const FAR: Time = 8192;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.schedule(9, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        q.schedule(q.now() + 1, ());
        q.pop();
        assert_eq!(q.now(), 6);
        q.pop();
        assert_eq!(q.now(), 9);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(3, ());
    }

    #[test]
    fn len_and_counts() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, 0);
        q.schedule(2, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn far_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        q.schedule(FAR * 3 + 17, 'z');
        q.schedule(4, 'a');
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((4, 'a')));
        assert_eq!(q.pop(), Some((FAR * 3 + 17, 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_wins_timestamp_ties_fifo() {
        // Events scheduled for one cycle while it was far ahead must still
        // come out before events scheduled for that cycle once it is near:
        // their seq numbers are smaller.
        let t = FAR + 100;
        let mut q = EventQueue::new();
        q.schedule(t, 0); // far ahead (t - 0 >= FAR)
        q.schedule(t, 1);
        q.schedule(200, 9);
        assert_eq!(q.pop(), Some((200, 9)));
        // t is now within FAR of now=200.
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_wraps_across_slot_ring() {
        // A long monotone run: 1000 events 97 cycles apart carry the clock
        // through ~12 multiples of FAR.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t: Time = 0;
        for i in 0..1000u64 {
            t += 97;
            q.schedule(t, i);
            expect.push((t, i));
        }
        for e in expect {
            assert_eq!(q.pop(), Some(e));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_reference_heap_order() {
        // Differential test: a deterministic pseudo-random interleaving of
        // schedules and pops must exactly match a (time, seq) sorted
        // reference, including same-cycle bursts and far-future entries.
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        let mut rng: u64 = 0x5EED_CAFE;
        let step = |r: &mut u64| {
            *r ^= *r << 13;
            *r ^= *r >> 7;
            *r ^= *r << 17;
            *r
        };
        for id in 0..5000u64 {
            let roll = step(&mut rng);
            let delay = match roll % 5 {
                0 => 0,                 // same-cycle burst
                1 => roll % 64,         // short latency
                2 => roll % 2048,       // medium
                3 => FAR + roll % 4096, // far future
                _ => roll % 16,
            };
            q.schedule(q.now() + delay, id);
            if roll % 3 == 0 {
                if let Some((t, got)) = q.pop() {
                    popped.push((t, got));
                }
            }
        }
        while let Some((t, got)) = q.pop() {
            popped.push((t, got));
        }
        // Ids increase in schedule (seq) order, so the (time, seq) FIFO
        // contract means: delivery times nondecreasing, every id delivered
        // exactly once, and within any single timestamp ids strictly
        // increasing.
        assert_eq!(popped.len(), 5000);
        let mut seen = vec![false; 5000];
        let mut last: Option<(Time, u64)> = None;
        for &(t, id) in &popped {
            if let Some((lt, lid)) = last {
                assert!(t >= lt, "time regressed");
                if t == lt {
                    assert!(id > lid, "FIFO violated at t={t}");
                }
            }
            last = Some((t, id));
            assert!(!seen[id as usize], "duplicate delivery");
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(i * 3, i);
        }
        q.schedule(FAR * 2, 999);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), 0);
        assert_eq!(q.scheduled_total(), 0);
        q.schedule(7, 1);
        q.schedule(7, 2);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), None);
    }
}
