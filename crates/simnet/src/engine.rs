//! Deterministic discrete-event kernel.
//!
//! Three schedulers live here:
//!
//! * [`CalendarQueue`] — a bucketed (calendar-queue) future-event list.
//!   Events hash into day-wide buckets by timestamp, so a pop scans one
//!   short bucket instead of sifting an `O(log n)` heap; bucket count and
//!   width resize deterministically from the queue contents alone. This
//!   is the production scheduler behind [`EventQueue`].
//! * [`CompletionHeap`] — an indexed binary min-heap holding at most one
//!   keyed entry per dense slot, re-keyed and removed in place. This is
//!   the fabric's flow-completion calendar.
//! * [`HeapEventQueue`] — the original `BinaryHeap` implementation, kept
//!   verbatim as the ordering oracle for property tests.
//!
//! All three pop in `(time, insertion order)` order: equal-time events
//! fire in insertion order (a strictly monotone sequence number breaks
//! ties), which is what makes whole-simulation runs reproducible
//! bit-for-bit. The payload type is generic so higher layers (the cluster
//! engine) define their own event enums.

use corral_model::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// An entry in the heap-based event queue.
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

/// One scheduled item in a [`CalendarQueue`].
#[derive(Debug)]
struct CalItem<E> {
    time: f64,
    seq: u64,
    payload: E,
}

/// Minimum bucket count; the queue never shrinks below this.
const MIN_BUCKETS: usize = 16;
/// Floor on the bucket width so day indices stay well inside `u64`.
const MIN_WIDTH: f64 = 1e-6;

/// A bucketed (calendar-queue) priority queue over non-negative `f64`
/// timestamps, popping in exact `(time, insertion order)` order.
///
/// Items land in the bucket `floor(time / width) % nbuckets`; a pop scans
/// the current day's bucket for its minimum, advancing day by day through
/// empty buckets and falling back to a global scan after a full wrap (so
/// sparse far-future schedules stay `O(n)` worst case, not unbounded).
/// Bucket count doubles/halves and the width is re-derived from the live
/// contents when occupancy drifts — both decisions depend only on the
/// queued items, never on wall-clock, so runs stay deterministic.
///
/// Non-finite timestamps (`+inf`) are parked aside and surface, in
/// insertion order, only after every finite item has been popped — the
/// same order a comparison-based queue gives them.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<CalItem<E>>>,
    width: f64,
    /// Lower bound on `day_of(item.time)` over all finite items; advanced
    /// by pops, reset by rebuilds.
    day: u64,
    finite: usize,
    park: VecDeque<CalItem<E>>,
    seq: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            day: 0,
            finite: 0,
            park: VecDeque::new(),
            seq: 0,
        }
    }

    #[inline]
    fn day_of(&self, time: f64) -> u64 {
        // `as` saturates, so astronomically late times all share the last
        // day; the in-bucket min scan keeps ordering exact regardless.
        (time / self.width) as u64
    }

    /// Number of pending items (finite and parked).
    pub fn len(&self) -> usize {
        self.finite + self.park.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `payload` at `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "scheduled event at NaN time");
        assert!(time >= 0.0, "scheduled event at negative time {time}");
        let seq = self.seq;
        self.seq += 1;
        let item = CalItem { time, seq, payload };
        if !time.is_finite() {
            self.park.push_back(item);
            return;
        }
        let day = self.day_of(time);
        // A push may land before the lazily advanced day cursor would
        // ever look (the cursor only moves forward); pull it back so the
        // new item is found. Callers never push before the last popped
        // time, so this stays monotone per pop.
        if day < self.day {
            self.day = day;
        }
        let nb = self.buckets.len();
        self.buckets[(day % nb as u64) as usize].push(item);
        self.finite += 1;
        if self.finite > 2 * nb {
            self.rebuild(nb * 2);
        }
    }

    /// Locates the minimum `(time, seq)` finite item: `(bucket, index)`.
    fn locate_min(&self) -> Option<(usize, usize)> {
        if self.finite == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let mut day = self.day;
        for _ in 0..nb {
            let b = (day % nb) as usize;
            let mut best: Option<(usize, f64, u64)> = None;
            for (i, it) in self.buckets[b].iter().enumerate() {
                if self.day_of(it.time) != day {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, t, s)) => match it.time.total_cmp(&t) {
                        Ordering::Less => true,
                        Ordering::Equal => it.seq < s,
                        Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((i, it.time, it.seq));
                }
            }
            if let Some((i, _, _)) = best {
                return Some((b, i));
            }
            day = day.saturating_add(1);
        }
        // Full wrap without a hit: the next item is over a calendar year
        // away. Global scan.
        let mut best: Option<(usize, usize, f64, u64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, it) in bucket.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((_, _, t, s)) => match it.time.total_cmp(&t) {
                        Ordering::Less => true,
                        Ordering::Equal => it.seq < s,
                        Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((b, i, it.time, it.seq));
                }
            }
        }
        best.map(|(b, i, _, _)| (b, i))
    }

    /// Timestamp and payload of the next item without removing it.
    pub fn peek(&self) -> Option<(f64, &E)> {
        match self.locate_min() {
            Some((b, i)) => {
                let it = &self.buckets[b][i];
                Some((it.time, &it.payload))
            }
            None => self.park.front().map(|it| (it.time, &it.payload)),
        }
    }

    /// Removes and returns the next item.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        match self.locate_min() {
            Some((b, i)) => {
                let it = self.buckets[b].swap_remove(i);
                self.finite -= 1;
                self.day = self.day_of(it.time);
                let nb = self.buckets.len();
                if nb > MIN_BUCKETS && self.finite < nb / 4 {
                    self.rebuild(nb / 2);
                }
                Some((it.time, it.payload))
            }
            None => self.park.pop_front().map(|it| (it.time, it.payload)),
        }
    }

    /// Re-buckets every finite item into `nb` buckets, re-deriving the
    /// width from the live span so occupancy stays near one item per
    /// bucket-day. Purely content-driven ⇒ deterministic.
    fn rebuild(&mut self, nb: usize) {
        let mut items: Vec<CalItem<E>> = Vec::with_capacity(self.finite);
        for bucket in &mut self.buckets {
            items.append(bucket);
        }
        if self.buckets.len() != nb {
            self.buckets = (0..nb).map(|_| Vec::new()).collect();
        }
        if !items.is_empty() {
            let mut tmin = f64::INFINITY;
            let mut tmax = f64::NEG_INFINITY;
            for it in &items {
                tmin = tmin.min(it.time);
                tmax = tmax.max(it.time);
            }
            let span = tmax - tmin;
            if span > 0.0 {
                self.width = (span / items.len() as f64 * 4.0).max(MIN_WIDTH);
            }
            self.day = u64::MAX;
            for it in &items {
                self.day = self.day.min(self.day_of(it.time));
            }
        } else {
            self.day = 0;
        }
        self.finite = items.len();
        let nb64 = nb as u64;
        for it in items {
            let b = (self.day_of(it.time) % nb64) as usize;
            self.buckets[b].push(it);
        }
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
    /// Strict `(time, seq)` order, the pop order of every queue here.
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

/// A deterministic future-event list (calendar-queue backed).
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
    cal: CalendarQueue<E>,
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
            cal: CalendarQueue::new(),
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
        self.cal.push(at.0, payload);
    }

    /// Schedules `payload` `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cal.peek().map(|(t, _)| SimTime(t))
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, payload) = self.cal.pop()?;
        debug_assert!(t >= self.now.0);
        self.now = SimTime(t);
        Some((SimTime(t), payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.cal.is_empty()
    }
}

/// The original `BinaryHeap`-backed event queue, kept verbatim as the
/// ordering oracle: property tests drive [`EventQueue`] and this queue
/// with identical schedules and assert identical pop streams, and drive
/// [`CompletionHeap`] against a generation-stamped model built on it.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`; same panics as
    /// [`EventQueue::schedule`].
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

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the next event, advancing the clock.
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
    fn resize_preserves_order() {
        // Push enough to force several grows, interleave pops to force
        // shrinks, and check the stream stays sorted by (time, seq).
        let mut q = CalendarQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..500 {
            let t = (rng() % 10_000) as f64 * 0.125;
            q.push(t, i);
        }
        let mut last = -1.0;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "pop stream went backwards: {t} after {last}");
            last = t;
            popped += 1;
            if popped == 250 {
                for j in 0..100 {
                    q.push(t + j as f64, 1000 + j);
                }
            }
        }
        assert_eq!(popped, 600);
    }

    #[test]
    fn infinite_times_pop_last_in_insertion_order() {
        let mut q = CalendarQueue::new();
        q.push(f64::INFINITY, "x");
        q.push(1.0, "a");
        q.push(f64::INFINITY, "y");
        q.push(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "x", "y"]);
    }

    #[test]
    fn sparse_far_future_pops_via_global_scan() {
        let mut q = CalendarQueue::new();
        q.push(0.5, 1);
        q.push(1.0e9, 2); // over a full wrap away at width 1.0
        assert_eq!(q.pop(), Some((0.5, 1)));
        assert_eq!(q.peek().map(|(t, _)| t), Some(1.0e9));
        assert_eq!(q.pop(), Some((1.0e9, 2)));
        assert!(q.pop().is_none());
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
