//! The future-event list.
//!
//! A classic calendar for discrete-event simulation: events are
//! scheduled at absolute instants and popped in time order. Events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO), which keeps runs deterministic — a requirement for
//! the reproducibility guarantees this repository makes about every
//! experiment.
//!
//! # A radix heap over the monotone clock
//!
//! The clock never moves backwards and nothing is scheduled before it,
//! so the calendar is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
//! "Faster algorithms for the shortest path problem", J. ACM 1990)
//! with 65 FIFO buckets:
//!
//! - bucket 0 holds the events due at `now`;
//! - bucket b ≥ 1 holds the events whose firing time first differs
//!   from `now` in bit b − 1, that is `64 − (now ^ at).leading_zeros()`.
//!
//! A time in bucket b ≥ 1 agrees with `now` above bit b − 1 and has
//! that bit set where `now` has it clear, so every time in bucket b is
//! below every time in a higher bucket. `next` pops the head of bucket
//! 0. When bucket 0 is empty, it takes the lowest non-empty bucket b
//! whole, moves the clock to that bucket's earliest time, and re-appends
//! the bucket's events, in list order, to their buckets relative to the
//! new clock. Each lands below b, and every other bucket keeps its
//! index, because the new clock agrees with the old one on every bit
//! from b − 1 up. An event therefore moves down at most 64 times before
//! it fires, and an event due at an instant the clock already shows is
//! one O(1) append and one O(1) pop. Each bucket's earliest time is
//! kept up to date as events are appended, so moving the clock walks
//! the bucket's list once, not twice (EXPERIMENTS.md, "Radix
//! calendar", measures what that saves).
//!
//! # Order
//!
//! Delivery is in (time, scheduling order) by construction:
//!
//! 1. An event's bucket is a function of its time and the clock, so
//!    events with equal times always share a bucket.
//! 2. Scheduling appends at the tail of that bucket, so within a
//!    bucket, events with equal times sit in scheduling order.
//! 3. Re-bucketing walks the emptied bucket in list order and appends
//!    to buckets below it, which are all empty at that point (it was
//!    the lowest non-empty one). Each target's list is then a
//!    subsequence of the source's, so equal times keep their order.
//! 4. Bucket 0 holds exactly the events at `now`, the earliest pending
//!    time, and pops from its head.
//!
//! Scheduling into the past would break fact 1 (a time below `now` has
//! no bucket), which is why it is a logic error that panics in debug
//! builds; [`SimTime`] sums saturate, so no delay wraps the clock.
//!
//! # The engine's schedule
//!
//! The paper's §4 model is a closed queueing network with constant
//! service times (`PageCPU` 5 ms, `PageDisk` 20 ms, `MsgCPU` 5 ms), so
//! completions pile onto a shared lattice of instants. Counted over
//! every run of perfbench's three workloads at seeds 42 and 43: the
//! share of events that fire at an instant the clock already shows,
//! the share of schedules made for the current instant, and the mean
//! number of pending events at a pop.
//!
//! | workload | fire at the clock's instant | scheduled for it | pending |
//! |---|---|---|---|
//! | `paper-fig1` (7 protocols × MPL 1..10, 8 sites) | 87% | 8% | 20 (25 in the busiest run) |
//! | `faults-observed` (2PC, Paxos Commit; faults) | 89% | 8% | 32–35 |
//! | `wan-zipf-64` (2PC, OPT; 64 sites, WAN) | 13% | 6% | 171 |
//!
//! So most ties were scheduled ahead, as completions of constant-length
//! services that meet at one instant. They reach bucket 0 together when
//! the clock moves to their instant, and then each pops in O(1).
//!
//! # Allocation audit
//!
//! Every pending event lives in a slot of one arena (`slots`), threaded
//! into its bucket's singly linked list by slot index; free slots form
//! an intrusive list through the same `next` field. The steady-state
//! schedule/pop cycle performs **no heap allocation**: the arena only
//! grows to the simulation's high-water event population (a few hundred
//! events at paper-scale MPLs), and every later schedule reuses a freed
//! slot. Buckets are lists in the arena rather than one `Vec` each,
//! which would keep up to 65 buffers at their own high-water marks.

use crate::time::{SimDuration, SimTime};

/// The event calendar: a radix heap of FIFO buckets threaded through a
/// slot arena, plus the simulation clock (see the module docs).
///
/// The clock only advances when an event is popped; scheduling in the
/// past is a logic error and panics in debug builds.
#[derive(Debug)]
pub struct Calendar<E> {
    /// Slot arena: pending events, and the free list.
    slots: Vec<Slot<E>>,
    /// First slot of each bucket's list; [`NIL`] when the bucket is empty.
    head: [u32; BUCKETS],
    /// Last slot of each non-empty bucket's list (stale when empty).
    tail: [u32; BUCKETS],
    /// Bit b − 1 is set when bucket b ≥ 1 is non-empty.
    occupied: u64,
    /// Earliest firing time in each non-empty bucket (stale when empty).
    earliest: [u64; BUCKETS],
    /// First free slot; [`NIL`] when the arena is full.
    free: u32,
    pending: usize,
    now: SimTime,
    dispatched: u64,
}

/// Bucket 0 (due now) plus one bucket per bit of the 64-bit clock.
const BUCKETS: usize = 65;

/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// One arena entry: a pending event, or a link in the free list.
#[derive(Debug)]
struct Slot<E> {
    at: u64,
    /// Next slot in this slot's bucket or in the free list.
    next: u32,
    event: Option<E>,
}

/// The bucket of an event firing at `at` when the clock shows `now`.
#[inline]
fn bucket(now: u64, at: u64) -> usize {
    (64 - (now ^ at).leading_zeros()) as usize
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
            slots: Vec::new(),
            head: [NIL; BUCKETS],
            tail: [NIL; BUCKETS],
            occupied: 0,
            earliest: [0; BUCKETS],
            free: NIL,
            pending: 0,
            now: SimTime::ZERO,
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
        self.pending
    }

    /// True when no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
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
        let slot = Slot {
            at: at.0,
            next: NIL,
            event: Some(event),
        };
        let s = if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "calendar slot overflow");
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            self.slots[s as usize] = slot;
            s
        };
        self.pending += 1;
        self.append(bucket(self.now.0, at.0), s, at.0);
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
        if self.head[0] == NIL {
            if self.occupied == 0 {
                return None;
            }
            self.advance();
        }
        let s = self.head[0];
        let slot = &mut self.slots[s as usize];
        self.head[0] = slot.next;
        slot.next = self.free;
        self.free = s;
        let event = slot.event.take().expect("bucket lists hold pending slots");
        self.pending -= 1;
        self.dispatched += 1;
        Some((self.now, event))
    }

    /// Append slot `s`, firing at `at` and with `next` [`NIL`], to
    /// bucket `b`.
    #[inline]
    fn append(&mut self, b: usize, s: u32, at: u64) {
        if self.head[b] == NIL {
            self.head[b] = s;
            self.earliest[b] = at;
            if b > 0 {
                self.occupied |= 1 << (b - 1);
            }
        } else {
            self.slots[self.tail[b] as usize].next = s;
            self.earliest[b] = self.earliest[b].min(at);
        }
        self.tail[b] = s;
    }

    /// Bucket 0 is empty and some other bucket is not: move the clock
    /// to the earliest pending time and re-bucket the lowest non-empty
    /// bucket's events against it, in list order.
    fn advance(&mut self) {
        let b = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= !(1 << (b - 1));
        let min = self.earliest[b];
        debug_assert!(min > self.now.0, "the clock only moves forward");
        self.now = SimTime(min);
        let mut s = std::mem::replace(&mut self.head[b], NIL);
        while s != NIL {
            let slot = &mut self.slots[s as usize];
            let (at, next) = (slot.at, slot.next);
            slot.next = NIL;
            self.append(bucket(min, at), s, at);
            s = next;
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

// Interleaved schedules and pops against a reference ordered map.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    /// Pending events keyed by `(time, insertion index)`: the order the
    /// calendar promises, spelled out with an ordered map.
    type Reference = BTreeMap<(u64, u64), u64>;

    /// A delay from `now`: zero, the distance to an already-pending
    /// instant, a small step, a step of at least 2^32, or anything up
    /// to the end of the clock.
    fn draw_delay(r: &mut SimRng, now: u64, reference: &Reference) -> u64 {
        let room = u64::MAX - now;
        match r.uniform_u64(0, 19) {
            0..=3 => 0,
            4..=7 if !reference.is_empty() => {
                let nth = r.uniform_usize(0, reference.len() - 1);
                let &(at, _) = reference.keys().nth(nth).expect("index in range");
                at - now
            }
            8..=13 => r.uniform_u64(1, 100).min(room),
            14..=16 if room >= 1 << 32 => {
                let top_bit = r.uniform_u64(32, 63) as u32;
                r.uniform_u64(1 << 32, room.min(u64::MAX >> (63 - top_bit)))
            }
            _ => r.uniform_u64(0, room),
        }
    }

    fn check_counters(cal: &Calendar<u64>, reference: &Reference, pops: u64) {
        assert_eq!(cal.pending(), reference.len());
        assert_eq!(cal.is_empty(), reference.is_empty());
        assert_eq!(cal.dispatched_count(), pops);
    }

    /// Schedules made after the clock has moved, at every distance from
    /// it, pop exactly as the reference does: same times, same
    /// payloads, same order among ties.
    #[test]
    fn interleaved_schedules_and_pops_match_a_reference() {
        let mut r = SimRng::new(0x0DE2_CA1E);
        for _ in 0..300 {
            let mut cal = Calendar::new();
            let mut reference = Reference::new();
            let (mut inserted, mut pops) = (0u64, 0u64);
            let schedule_share = r.uniform_u64(30, 70) as f64 / 100.0;
            for _ in 0..r.uniform_usize(1, 400) {
                let now = cal.now().0;
                if r.chance(schedule_share) {
                    let at = now + draw_delay(&mut r, now, &reference);
                    cal.schedule_at(SimTime(at), inserted);
                    reference.insert((at, inserted), inserted);
                    inserted += 1;
                } else {
                    let expected = reference.pop_first().map(|((at, _), e)| (SimTime(at), e));
                    pops += u64::from(expected.is_some());
                    assert_eq!(cal.next(), expected);
                }
                check_counters(&cal, &reference, pops);
            }
            while let Some(((at, _), e)) = reference.pop_first() {
                pops += 1;
                assert_eq!(cal.next(), Some((SimTime(at), e)));
                assert_eq!(cal.now(), SimTime(at));
                check_counters(&cal, &reference, pops);
            }
            assert_eq!(cal.next(), None);
        }
    }
}
