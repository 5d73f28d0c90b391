//! Deterministic discrete-event kernel.
//!
//! Two priority queues live here:
//!
//! * [`EventQueue`] — the future-event list: a `BinaryHeap` of
//!   `(time, insertion sequence)` entries with a monotone clock. The
//!   cluster engine defines its own event enum as the payload.
//! * [`CompletionHeap`] — an indexed binary min-heap holding at most one
//!   keyed entry per dense slot, re-keyed and removed in place. This is
//!   the fabric's flow-completion calendar.
//!
//! Both pop in `(time, sequence)` order: equal-time entries fire in the
//! order they were scheduled (a strictly monotone sequence number breaks
//! ties), which is what makes whole-simulation runs reproducible
//! bit-for-bit.

use corral_model::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event in an [`EventQueue`].
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        // BinaryHeap is a max-heap; invert so the *earliest* event is popped
        // first, breaking ties by insertion sequence.
        other
            .time
            .total_cmp(self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list: a binary heap popping in
/// `(time, insertion order)` order, so equal-time events fire in the
/// order they were scheduled and `+inf` events pop last.
///
/// ```
/// use corral_simnet::EventQueue;
/// use corral_model::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::secs(2.0), "b");
/// q.schedule(SimTime::secs(1.0), "a");
/// q.schedule(SimTime::secs(2.0), "c"); // same time as "b": insertion order
/// assert_eq!(q.pop().unwrap(), (SimTime::secs(1.0), "a"));
/// assert_eq!(q.pop().unwrap(), (SimTime::secs(2.0), "b"));
/// assert_eq!(q.pop().unwrap(), (SimTime::secs(2.0), "c"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is NaN or earlier than the current time (scheduling
    /// into the past is always a simulator bug).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(!at.0.is_nan(), "scheduled event at NaN time");
        assert!(
            at.0 >= self.now.0,
            "scheduled event in the past: {} < {}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
    }

    /// Schedules `payload` `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time.0 >= self.now.0);
        self.now = e.time;
        Some((e.time, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Sentinel for "no entry" in [`CompletionHeap`]'s slot → position map.
const NO_POS: u32 = u32::MAX;

/// One keyed entry in a [`CompletionHeap`].
#[derive(Debug, Clone, Copy)]
struct HeapItem {
    time: f64,
    seq: u64,
    slot: u32,
}

impl HeapItem {
    /// Strict `(time, seq)` order, the pop order of both queues here.
    #[inline]
    fn before(&self, other: &HeapItem) -> bool {
        match self.time.total_cmp(&other.time) {
            Ordering::Less => true,
            Ordering::Equal => self.seq < other.seq,
            Ordering::Greater => false,
        }
    }
}

/// An indexed binary min-heap over dense `u32` slots: each slot holds at
/// most one entry, keyed by `(time, set sequence)`.
///
/// [`CompletionHeap::set`] stamps the entry with a fresh, strictly
/// increasing sequence number — whether it inserts the slot or re-keys it
/// in place — so live entries pop in exactly the `(time, insertion order)`
/// order a lazily-invalidated queue would give them if every `set` were a
/// push and every superseded entry were skipped. [`CompletionHeap::remove`]
/// drops a slot's entry in place, so the heap never holds more entries
/// than live slots and never has stale entries to skim.
///
/// The slot → position map grows with the highest slot ever set.
///
/// ```
/// use corral_simnet::CompletionHeap;
///
/// let mut h = CompletionHeap::new();
/// h.set(7, 2.0);
/// h.set(3, 1.0);
/// h.set(7, 1.0); // re-key: ties with slot 3, set later ⇒ pops after it
/// h.set(5, 0.5);
/// h.remove(5);
/// assert_eq!(h.pop(), Some((1.0, 3)));
/// assert_eq!(h.pop(), Some((1.0, 7)));
/// assert!(h.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct CompletionHeap {
    heap: Vec<HeapItem>,
    /// Heap index of each slot's entry (`NO_POS` when absent).
    pos: Vec<u32>,
    seq: u64,
}

impl CompletionHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (one per keyed slot).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no slot is keyed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Heap index of `slot`'s entry, if it has one.
    #[inline]
    fn index_of(&self, slot: u32) -> Option<usize> {
        match self.pos.get(slot as usize) {
            Some(&i) if i != NO_POS => Some(i as usize),
            _ => None,
        }
    }

    /// The time `slot` is keyed at, if it has an entry.
    pub fn get(&self, slot: u32) -> Option<f64> {
        self.index_of(slot).map(|i| self.heap[i].time)
    }

    /// Keys `slot` at `time` with a fresh sequence number, inserting its
    /// entry or moving the existing one in place.
    ///
    /// # Panics
    /// Panics if `time` is NaN.
    pub fn set(&mut self, slot: u32, time: f64) {
        assert!(!time.is_nan(), "completion keyed at NaN time");
        let item = HeapItem {
            time,
            seq: self.seq,
            slot,
        };
        self.seq += 1;
        match self.index_of(slot) {
            Some(i) => {
                let old = self.heap[i];
                self.heap[i] = item;
                if item.before(&old) {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
            None => {
                let s = slot as usize;
                if s >= self.pos.len() {
                    self.pos.resize(s + 1, NO_POS);
                }
                self.heap.push(item);
                self.sift_up(self.heap.len() - 1);
            }
        }
    }

    /// Drops `slot`'s entry, returning the time it was keyed at (`None`
    /// if it had none).
    pub fn remove(&mut self, slot: u32) -> Option<f64> {
        let i = self.index_of(slot)?;
        self.pos[slot as usize] = NO_POS;
        let old = self.heap.swap_remove(i);
        if i < self.heap.len() {
            let moved = self.heap[i];
            if moved.before(&old) {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        Some(old.time)
    }

    /// Time and slot of the earliest entry without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(f64, u32)> {
        self.heap.first().map(|it| (it.time, it.slot))
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        let (time, slot) = self.peek()?;
        self.remove(slot);
        Some((time, slot))
    }

    /// Every entry as `(time, slot)`, in heap (not pop) order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.heap.iter().map(|it| (it.time, it.slot))
    }

    /// Asserts the heap's structural invariants: every entry's slot maps
    /// back to that entry's position (so no slot has two entries), and no
    /// entry sorts before its parent. `O(len)`; a tripwire for tests and
    /// debug oracles.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn check(&self) {
        for (i, it) in self.heap.iter().enumerate() {
            assert_eq!(
                self.index_of(it.slot),
                Some(i),
                "completion heap: slot {} at index {i} is not indexed there",
                it.slot
            );
            if i > 0 {
                let parent = &self.heap[(i - 1) / 2];
                assert!(
                    !it.before(parent),
                    "completion heap: index {i} sorts before its parent"
                );
            }
        }
    }

    /// Moves the entry at `i` toward the root until its parent precedes it.
    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !item.before(&p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p.slot as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = item;
        self.pos[item.slot as usize] = i as u32;
    }

    /// Moves the entry at `i` toward the leaves until it precedes both
    /// children.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let item = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && self.heap[r].before(&self.heap[l]) {
                r
            } else {
                l
            };
            let child = self.heap[c];
            if !child.before(&item) {
                break;
            }
            self.heap[i] = child;
            self.pos[child.slot as usize] = i as u32;
            i = c;
        }
        self.heap[i] = item;
        self.pos[item.slot as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5.0), 5);
        q.schedule(SimTime(1.0), 1);
        q.schedule(SimTime(3.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(2.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(2.0));
        // schedule_after is relative to the advanced clock.
        q.schedule_after(SimTime(1.5), ());
        assert_eq!(q.peek_time(), Some(SimTime(3.5)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(2.0), ());
        q.pop();
        q.schedule(SimTime(1.0), ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime(f64::NAN), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(1.0), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn infinite_times_pop_last_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::INFINITY, "x");
        q.schedule(SimTime(1.0), "a");
        q.schedule(SimTime::INFINITY, "y");
        q.schedule(SimTime(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "x", "y"]);
    }

    #[test]
    fn completion_heap_rekeys_and_removes_in_place() {
        let mut h = CompletionHeap::new();
        for s in 0..20u32 {
            h.set(s, f64::from(20 - s));
        }
        h.check();
        // Re-key half the slots (some earlier, some later), drop a few.
        for s in (0..20u32).step_by(2) {
            h.set(s, f64::from(s) * 0.5);
        }
        for s in [3u32, 7, 11] {
            assert!(h.remove(s).is_some());
        }
        assert_eq!(h.remove(3), None);
        h.check();
        assert_eq!(h.len(), 17);
        assert_eq!(h.get(4), Some(2.0));
        assert_eq!(h.get(7), None);
        let mut last = (f64::NEG_INFINITY, 0u32);
        let mut popped = 0;
        while let Some((t, s)) = h.pop() {
            assert!(t >= last.0, "pop stream went backwards at slot {s}");
            last = (t, s);
            popped += 1;
        }
        assert_eq!(popped, 17);
    }

    #[test]
    fn completion_heap_ties_pop_in_set_order() {
        let mut h = CompletionHeap::new();
        h.set(4, 1.0);
        h.set(2, 1.0);
        h.set(9, 1.0);
        h.set(4, 1.0); // re-set: now the latest of the tie
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, vec![2, 9, 4]);
    }
}
