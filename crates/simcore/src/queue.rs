//! The central event queue of the discrete-event simulation.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with FIFO tie-breaking for events scheduled at the same instant.
//! Determinism is a hard requirement for the whole simulator: two runs with
//! the same inputs must pop events in exactly the same order, which the
//! monotone sequence number guarantees.
//!
//! [`EventQueue::retain`] drops events the owner knows are dead (for
//! example, timers cancelled after they were scheduled). Survivors keep
//! their `(time, seq)` keys, so they pop in exactly the order they would
//! have popped had nothing been removed.
//!
//! # Examples
//!
//! ```
//! use siperf_simcore::queue::EventQueue;
//! use siperf_simcore::time::{SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_nanos(20), "late");
//! q.schedule(SimTime::from_nanos(10), "early");
//! q.schedule(SimTime::from_nanos(10), "early-second");
//!
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// Events with equal timestamps pop in the order they were scheduled.
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Time of the most recently popped event; used to reject scheduling in
    /// the past, which would violate causality.
    watermark: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past is always a simulator bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.watermark,
            "event scheduled in the past: {at:?} < {:?}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the causality
    /// watermark to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.watermark = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Keeps only the events for which `keep` returns true.
    ///
    /// Survivors keep their time and FIFO position, so the pop order of
    /// the remaining events is unchanged; the causality watermark does
    /// not move. Runs in time linear in the queue length.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        self.heap.retain(|entry| keep(&entry.event));
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("now", &self.watermark)
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.schedule(SimTime::from_nanos(20), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(10));
        // Scheduling at the watermark is allowed (same-instant causality).
        q.schedule(SimTime::from_nanos(10), ());
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(10));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_scheduling_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.schedule(SimTime::from_nanos(1), 100);
            q.schedule(SimTime::from_nanos(3), 300);
            while let Some((t, e)) = q.pop() {
                out.push(e);
                if e == 100 {
                    q.schedule(t, 101); // same instant, goes after pending equals
                    q.schedule(SimTime::from_nanos(2), 200);
                }
            }
            out
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![100, 101, 200, 300]);
    }

    #[test]
    fn retain_keeps_time_and_fifo_order_of_survivors() {
        let mut q = EventQueue::new();
        for i in 0..40 {
            // Four instants, ten events each, scheduled out of time order.
            q.schedule(SimTime::from_nanos(10 * (3 - i % 4)), i);
        }
        q.retain(|&e| e % 3 != 0);
        let mut expected: Vec<(u64, u64)> = (0..40)
            .filter(|e| e % 3 != 0)
            .map(|e| (10 * (3 - e % 4), e))
            .collect();
        expected.sort();
        assert_eq!(q.len(), expected.len());
        let popped: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn retain_leaves_the_watermark_alone() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        q.schedule(SimTime::from_nanos(30), 3);
        q.pop();
        q.retain(|&e| e == 3);
        assert_eq!(q.now(), SimTime::from_nanos(10));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(30)));
        q.retain(|_| false);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(10));
        // Scheduling before the watermark is still refused afterwards, and
        // at the watermark still allowed.
        q.schedule(SimTime::from_nanos(10), 4);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 4)));
    }

    #[test]
    fn retain_on_an_empty_queue_is_a_no_op() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.retain(|_| panic!("no event to ask about"));
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), None);
    }
}
