//! The future-event list.
//!
//! A classic calendar for discrete-event simulation: events are
//! scheduled at absolute instants and popped in time order. Events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO), which keeps runs deterministic — a requirement for
//! the reproducibility guarantees this repository makes about every
//! experiment.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A packed 16-byte heap key: the firing time in the first word, then
/// `seq` (40 bits) over `slot` (24 bits) in the second. Tuple order is
/// `(time, seq, slot)`; `seq` values are unique, so the slot bits are
/// never reached by a comparison and simultaneous events preserve
/// scheduling order exactly as they did when the payload lived inside
/// the heap entry. The packing bounds are asserted at push: 2^40
/// events per run and 2^24 simultaneously pending events are both
/// orders of magnitude beyond what a simulation reaches.
type Key = (u64, u64);

const SLOT_BITS: u32 = 24;

#[inline]
fn pack(at: SimTime, seq: u64, slot: u32) -> Key {
    assert!(seq < 1 << (64 - SLOT_BITS), "calendar seq overflow");
    assert!(slot < 1 << SLOT_BITS, "calendar slot overflow");
    (at.0, (seq << SLOT_BITS) | slot as u64)
}

#[inline]
fn unpack(key: Key) -> (SimTime, u64, u32) {
    (
        SimTime(key.0),
        key.1 >> SLOT_BITS,
        (key.1 & ((1 << SLOT_BITS) - 1)) as u32,
    )
}

/// The event calendar: a min-heap of `(time, seq, slot)` keys plus a
/// slot arena holding the event payloads, plus the simulation clock.
///
/// The clock only advances when an event is popped; scheduling in the
/// past is a logic error and panics in debug builds.
///
/// # Current-instant fast path
///
/// Events scheduled for the *current* instant — the dominant case in
/// the engine, whose handlers chain zero-delay continuations — bypass
/// the heap entirely and go to `now_q`, a FIFO of `(seq, event)`. This
/// is order-exact, not an approximation: delivery order is `(time,
/// seq)`, the clock cannot advance while a current-instant event is
/// pending (the earliest pending key *is* at `now`), so every `now_q`
/// entry fires before the clock moves, and `next()` breaks the
/// remaining tie — a heap event also at `now` but scheduled earlier —
/// by comparing seqs. O(1) push/pop replaces two O(log n) sifts for
/// every same-instant event.
///
/// # Allocation audit
///
/// Heap entries are packed 16-byte `(time, seq, slot)` keys; the payloads sit
/// out-of-line in `events`, a slot arena recycled through a free list.
/// Sift-up/sift-down therefore moves small fixed-size keys instead of
/// full event enums (~80 bytes for the engine's event type), which is
/// what the `memmove` traffic in profiles was. The steady-state
/// schedule/pop cycle performs **no per-event heap allocation**: a push
/// only allocates when the heap buffer, slot arena, or now-queue grows,
/// and every high-water mark is bounded by the simulation's maximum
/// event population (a few hundred entries at paper-scale MPLs), after
/// which every push reuses freed capacity and every slot comes off the
/// free list. The event payloads themselves are plain enums — the only
/// boxed field in the engine's event type is the restart template
/// carried by a resubmission, which is allocated once per abort, not
/// per event. This is why the calendar is left as a binary heap rather
/// than a bucketed calendar queue: the heap is allocation-free in
/// steady state, and the calendar-queue literature's win (cheap
/// same-priority inserts) is already captured by `now_q`.
#[derive(Debug)]
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Slot arena for pending payloads; `None` marks a free slot.
    events: Vec<Option<E>>,
    /// Indices of free slots in `events`.
    free: Vec<u32>,
    /// FIFO of events scheduled at the current instant (see above).
    now_q: VecDeque<(u64, E)>,
    now: SimTime,
    seq: u64,
    dispatched: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar with the clock at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            now_q: VecDeque::new(),
            now: SimTime::ZERO,
            seq: 0,
            dispatched: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len() + self.now_q.len()
    }

    /// True when no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.now_q.is_empty()
    }

    /// Total events ever dispatched (diagnostics).
    #[inline]
    pub fn dispatched_count(&self) -> u64 {
        self.dispatched
    }

    /// Schedule `event` to fire at the absolute instant `at`.
    ///
    /// `at` must not precede the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        if at == self.now {
            self.now_q.push_back((seq, event));
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.events[s as usize].is_none());
                self.events[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.events.len()).expect("calendar slot overflow");
                self.events.push(Some(event));
                s
            }
        };
        self.heap.push(Reverse(pack(at, seq, slot)));
    }

    /// Schedule `event` to fire `delay` after the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` to fire at the current instant, after every
    /// event already scheduled for this instant.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pop the next event, advancing the clock to its firing time.
    ///
    /// Deliberately *not* an `Iterator`: handlers schedule further
    /// events between pops, so holding an iterator would borrow the
    /// calendar across exactly the calls that need `&mut` access.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        // A `now_q` event fires unless a heap event also due at `now`
        // was scheduled earlier (smaller seq).
        let take_heap = match (self.heap.peek(), self.now_q.front()) {
            (Some(&Reverse(k)), Some(&(fs, _))) => {
                let (t, s, _) = unpack(k);
                (t, s) < (self.now, fs)
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        self.dispatched += 1;
        if take_heap {
            let (time, _seq, slot) = unpack(self.heap.pop().expect("peeked above").0);
            debug_assert!(time >= self.now);
            self.now = time;
            let event = self.events[slot as usize]
                .take()
                .expect("heap key points at an empty slot");
            self.free.push(slot);
            Some((time, event))
        } else {
            let (_, event) = self.now_q.pop_front().expect("checked above");
            Some((self.now, event))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(30), "c");
        cal.schedule_at(SimTime(10), "a");
        cal.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| cal.next()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100u32 {
            cal.schedule_at(SimTime(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| cal.next()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(5), ());
        cal.schedule_at(SimTime(9), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.next();
        assert_eq!(cal.now(), SimTime(5));
        cal.next();
        assert_eq!(cal.now(), SimTime(9));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(100), 1);
        cal.next();
        cal.schedule_in(SimDuration(50), 2);
        let (t, e) = cal.next().unwrap();
        assert_eq!((t, e), (SimTime(150), 2));
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(7), "first");
        cal.schedule_at(SimTime(7), "second");
        let (_, e) = cal.next().unwrap();
        assert_eq!(e, "first");
        cal.schedule_now("third");
        let (_, e) = cal.next().unwrap();
        assert_eq!(e, "second");
        let (t, e) = cal.next().unwrap();
        assert_eq!((t, e), (SimTime(7), "third"));
    }

    #[test]
    fn counters_track_flow() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(1), ());
        cal.schedule_at(SimTime(2), ());
        assert_eq!(cal.pending(), 2);
        cal.next();
        assert_eq!(cal.dispatched_count(), 1);
        assert_eq!(cal.pending(), 1);
        assert!(!cal.is_empty());
        cal.next();
        assert!(cal.is_empty());
        assert!(cal.next().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)] // the guard is a debug_assert; release compiles it out
    fn scheduling_into_the_past_panics_in_debug() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(10), ());
        cal.next();
        cal.schedule_at(SimTime(5), ());
    }
}

// Seeded-loop generative tests (former proptest suite, rewritten as
// deterministic randomized loops over the same input space).
#[cfg(test)]
mod generative_tests {
    use super::*;
    use crate::rng::SimRng;

    fn random_times(r: &mut SimRng) -> Vec<u64> {
        let len = r.uniform_usize(1, 199);
        (0..len).map(|_| r.uniform_u64(0, 999)).collect()
    }

    /// Popping the calendar yields exactly the multiset of scheduled
    /// events, sorted by (time, insertion order) — i.e. a stable sort.
    #[test]
    fn calendar_is_a_stable_priority_queue() {
        let mut r = SimRng::new(0xCA1E_11DA);
        for _ in 0..100 {
            let times = random_times(&mut r);
            let mut cal = Calendar::new();
            for (i, &t) in times.iter().enumerate() {
                cal.schedule_at(SimTime(t), i);
            }
            let mut reference: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            reference.sort(); // (time, seq) — seq equals insertion index here
            let popped: Vec<(u64, usize)> = std::iter::from_fn(|| cal.next())
                .map(|(t, i)| (t.0, i))
                .collect();
            assert_eq!(popped, reference);
        }
    }

    /// The clock is monotone no matter the schedule.
    #[test]
    fn clock_is_monotone() {
        let mut r = SimRng::new(0xC10C_7151);
        for _ in 0..100 {
            let times = random_times(&mut r);
            let mut cal = Calendar::new();
            for &t in &times {
                cal.schedule_at(SimTime(t), ());
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = cal.next() {
                assert!(t >= last);
                last = t;
            }
        }
    }
}
