//! The central event queue of the discrete-event simulation.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with FIFO tie-breaking for events scheduled at the same instant.
//! Determinism is a hard requirement for the whole simulator: two runs with
//! the same inputs must pop events in exactly the same order, which the
//! monotone sequence number guarantees.
//!
//! Besides the heap, the queue has numbered *slots*, each holding at most
//! one event: an owner with many short-lived events of which only one per
//! resource is ever pending (the kernel's CPU bursts, one per core) keeps
//! them out of the heap. [`EventQueue::schedule_slot`] stamps the event
//! from the same sequence counter as [`EventQueue::schedule`], and every
//! reader ([`EventQueue::pop`], [`EventQueue::peek_time`],
//! [`EventQueue::len`], [`EventQueue::retain`]) merges the occupied slots
//! with the heap by the same `(time, seq)` key, so where an event is kept
//! never changes when it pops. [`EventQueue::clear_slot`] cancels a slot's
//! event outright. The queue remembers which slot holds the earliest
//! key and rescans the slots only when that one empties, a linear scan
//! that is cheap for the handful of slots a simulated host set has.
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
//!
//! // A slot event scheduled after a heap event at the same instant pops
//! // after it; a cleared slot never pops.
//! q.schedule(SimTime::from_nanos(30), "heap");
//! q.schedule_slot(0, SimTime::from_nanos(30), "slot 0");
//! q.schedule_slot(1, SimTime::from_nanos(25), "slot 1, cancelled");
//! q.clear_slot(1);
//! assert_eq!(q.len(), 2);
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "heap")));
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "slot 0")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Key of a free slot: later than any real key, since `seq` never reaches
/// `u64::MAX`.
const EMPTY: (SimTime, u64) = (SimTime::MAX, u64::MAX);

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
/// Events with equal timestamps pop in the order they were scheduled,
/// whether they wait in the heap or in a slot.
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// `(time, seq)` of each slot's event; `EMPTY` marks a free slot.
    /// Kept apart from the events so the scan for the earliest slot reads
    /// one short, dense array.
    slot_keys: Vec<(SimTime, u64)>,
    slot_events: Vec<Option<E>>,
    /// Number of occupied slots.
    slotted: usize,
    /// Index of a smallest key in `slot_keys`: the earliest slot event,
    /// if any slot is occupied.
    first_slot: usize,
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
            slot_keys: Vec::new(),
            slot_events: Vec::new(),
            slotted: 0,
            first_slot: 0,
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Checks causality and draws the next sequence number.
    fn stamp(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.watermark,
            "event scheduled in the past: {at:?} < {:?}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past is always a simulator bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.stamp(at);
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` to fire at instant `at` in slot `slot`, which
    /// must be free. The event takes the next sequence number exactly as
    /// [`EventQueue::schedule`] would, so it pops in the same position as
    /// if it had been scheduled there.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (as [`EventQueue::schedule`] does) or
    /// if the slot already holds an event.
    pub fn schedule_slot(&mut self, slot: usize, at: SimTime, event: E) {
        let seq = self.stamp(at);
        if slot >= self.slot_keys.len() {
            self.slot_keys.resize(slot + 1, EMPTY);
            self.slot_events.resize_with(slot + 1, || None);
        }
        assert!(
            self.slot_events[slot].is_none(),
            "slot {slot} already holds an event"
        );
        self.slot_keys[slot] = (at, seq);
        self.slot_events[slot] = Some(event);
        self.slotted += 1;
        if (at, seq) < self.slot_keys[self.first_slot] {
            self.first_slot = slot;
        }
    }

    /// Cancels the event in slot `slot`, returning it; `None` if the slot
    /// was free.
    pub fn clear_slot(&mut self, slot: usize) -> Option<E> {
        let event = self.slot_events.get_mut(slot)?.take()?;
        self.slot_keys[slot] = EMPTY;
        self.slotted -= 1;
        if slot == self.first_slot {
            self.first_slot = (0..self.slot_keys.len())
                .min_by_key(|&i| self.slot_keys[i])
                .expect("a slot exists");
        }
        Some(event)
    }

    /// The slot whose event pops next, or `None` if the heap's does (or
    /// the queue is empty).
    fn next_from_slot(&self) -> Option<usize> {
        if self.slotted == 0 {
            return None;
        }
        let slot = self.first_slot;
        match self.heap.peek() {
            Some(top) if (top.at, top.seq) < self.slot_keys[slot] => None,
            _ => Some(slot),
        }
    }

    /// Removes and returns the earliest event, advancing the causality
    /// watermark to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = match self.next_from_slot() {
            Some(slot) => {
                let (at, _) = self.slot_keys[slot];
                (at, self.clear_slot(slot).expect("occupied slot"))
            }
            None => {
                let entry = self.heap.pop()?;
                (entry.at, entry.event)
            }
        };
        self.watermark = at;
        Some((at, event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.next_from_slot() {
            Some(slot) => Some(self.slot_keys[slot].0),
            None => self.heap.peek().map(|e| e.at),
        }
    }

    /// Number of pending events, in the heap and in slots.
    pub fn len(&self) -> usize {
        self.heap.len() + self.slotted
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Keeps only the events, in the heap and in slots, for which `keep`
    /// returns true.
    ///
    /// Survivors keep their time and FIFO position, so the pop order of
    /// the remaining events is unchanged; the causality watermark does
    /// not move. Runs in time linear in the queue length.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        self.heap.retain(|entry| keep(&entry.event));
        for slot in 0..self.slot_events.len() {
            if self.slot_events[slot].as_ref().is_some_and(|e| !keep(e)) {
                self.clear_slot(slot);
            }
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
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
    fn slot_and_heap_events_at_one_instant_pop_in_scheduling_order() {
        let t = SimTime::from_nanos(10);
        let mut q = EventQueue::new();
        q.schedule(t, "heap first");
        q.schedule_slot(3, t, "slot second");
        q.schedule(t, "heap third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["heap first", "slot second", "heap third"]);

        q.schedule_slot(0, t, "slot first");
        q.schedule(t, "heap second");
        q.schedule_slot(1, t, "slot third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["slot first", "heap second", "slot third"]);
    }

    #[test]
    fn earlier_instants_win_across_heap_and_slots() {
        let mut q = EventQueue::new();
        q.schedule_slot(0, SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(20), 2);
        q.schedule_slot(1, SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(40), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        let order: Vec<(u64, i32)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        assert_eq!(order, [(10, 1), (20, 2), (30, 3), (40, 4)]);
        assert_eq!(q.now(), SimTime::from_nanos(40));
    }

    #[test]
    fn a_cleared_slot_never_pops_and_can_be_refilled() {
        let mut q = EventQueue::new();
        q.schedule_slot(2, SimTime::from_nanos(5), "cancelled");
        q.schedule(SimTime::from_nanos(9), "heap");
        assert_eq!(q.clear_slot(2), Some("cancelled"));
        assert_eq!(q.clear_slot(2), None, "already free");
        assert_eq!(q.clear_slot(7), None, "never used");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        q.schedule_slot(2, SimTime::from_nanos(9), "refilled");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), "heap")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), "refilled")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_counts_slots() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), ());
        q.schedule_slot(0, SimTime::from_nanos(1), ());
        q.schedule_slot(5, SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 3);
        q.clear_slot(0);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn retain_covers_slots() {
        let mut q = EventQueue::new();
        q.schedule_slot(0, SimTime::from_nanos(3), 10);
        q.schedule_slot(1, SimTime::from_nanos(1), 11);
        q.schedule(SimTime::from_nanos(2), 20);
        q.schedule(SimTime::from_nanos(1), 21);
        q.retain(|&e| e % 2 == 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 20)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 10)));
        assert_eq!(q.pop(), None);
        // The slot a retain emptied is free again.
        q.schedule_slot(1, SimTime::from_nanos(4), 12);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(4), 12)));
    }

    #[test]
    #[should_panic(expected = "already holds an event")]
    fn rejects_a_second_event_in_one_slot() {
        let mut q = EventQueue::new();
        q.schedule_slot(0, SimTime::from_nanos(1), ());
        q.schedule_slot(0, SimTime::from_nanos(2), ());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_slot_events_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule_slot(0, SimTime::from_nanos(5), ());
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
