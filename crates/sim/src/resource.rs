//! Queueing stations for the physical-resource model.
//!
//! The paper's model (§4) has, per site, `NumCPUs` processors fed by a
//! **single common queue**, and per-disk queues for data and log disks.
//! All queues are FCFS *except* that message processing has higher
//! priority than data processing at the CPUs. The pure
//! data-contention experiments (§5.3) make every resource "infinite":
//! service times still elapse but there is never any queueing.
//!
//! [`Station`] models one such service centre. It is an *engine
//! passive*: it never schedules events itself. Instead,
//! [`Station::arrive`] and [`Station::complete`] return the job (if
//! any) whose service just started together with its completion time;
//! the caller schedules the completion event on its [`crate::Calendar`].

use crate::stats::OccupancyHistogram;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Service priority class. At the CPUs, message handling ([`JobClass::High`])
/// pre-empts queued data processing ([`JobClass::Low`]) in queue order
/// (service itself is non-preemptive, matching the paper's model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Served before any queued `Low` job (message processing).
    High,
    /// Normal FCFS work (data page processing, disk I/O).
    Low,
}

/// Whether the station queues work or admits every job immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StationKind {
    /// `units` servers, common FCFS-within-class queue.
    Finite,
    /// Infinite-server: every arrival starts service immediately.
    /// Used for the paper's pure data-contention (DC) experiments.
    Infinite,
}

/// A job whose service has just begun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started<J> {
    /// The caller-supplied job token.
    pub job: J,
    /// Absolute instant at which its service completes; the caller
    /// must schedule a completion event for this instant and then call
    /// [`Station::complete`].
    pub done_at: SimTime,
}

#[derive(Debug)]
struct Waiting<J> {
    job: J,
    service: SimDuration,
    arrived: SimTime,
}

/// A multi-server FCFS station with two priority classes.
#[derive(Debug)]
pub struct Station<J> {
    kind: StationKind,
    units: u32,
    busy: u32,
    high: VecDeque<Waiting<J>>,
    low: VecDeque<Waiting<J>>,
    // --- statistics ---
    last_change: SimTime,
    /// Start of the statistics window (reset at the end of warm-up).
    stats_origin: SimTime,
    busy_unit_time: u64,
    /// Time-integral of the queue length (job-µs), for mean queue depth.
    queue_unit_time: u64,
    /// Time-weighted queue-depth distribution over the same spans as
    /// `queue_unit_time`, for p50/p90/p99 occupancy.
    occupancy: OccupancyHistogram,
    /// Depth of the run of consecutive spans not yet folded into
    /// `occupancy`. Consecutive spans at the same depth coalesce here —
    /// `record_span` is additive in µs, so folding one summed span is
    /// exact — and the bucket math runs only when the depth changes.
    span_depth: u64,
    /// Accumulated µs of the open same-depth run.
    span_micros: u64,
    /// Largest queue length seen in the statistics window.
    max_queue: usize,
    served: u64,
    total_wait: u64,
    total_service: u64,
}

impl<J> Station<J> {
    /// A finite station with `units` identical servers.
    ///
    /// # Panics
    /// Panics if `units == 0`.
    pub fn finite(units: u32) -> Self {
        assert!(units > 0, "a finite station needs at least one server");
        Self::new(StationKind::Finite, units)
    }

    /// An infinite-server station (no queueing, service time still elapses).
    pub fn infinite() -> Self {
        Self::new(StationKind::Infinite, 0)
    }

    fn new(kind: StationKind, units: u32) -> Self {
        Station {
            kind,
            units,
            busy: 0,
            high: VecDeque::new(),
            low: VecDeque::new(),
            last_change: SimTime::ZERO,
            stats_origin: SimTime::ZERO,
            busy_unit_time: 0,
            queue_unit_time: 0,
            occupancy: OccupancyHistogram::new(),
            span_depth: 0,
            span_micros: 0,
            max_queue: 0,
            served: 0,
            total_wait: 0,
            total_service: 0,
        }
    }

    /// Jobs currently in service.
    #[cfg(test)]
    pub fn in_service(&self) -> u32 {
        self.busy
    }

    /// Jobs currently waiting (always 0 for infinite stations).
    pub fn queued(&self) -> usize {
        self.high.len() + self.low.len()
    }

    /// Jobs whose service has completed so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    fn accumulate(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_change);
        let dt = (now - self.last_change).as_micros();
        if dt == 0 {
            // Zero-width span: every integral below adds 0 and
            // `record_span` ignores it, so skip the bucket math.
            return;
        }
        let depth = (self.high.len() + self.low.len()) as u64;
        self.busy_unit_time += self.busy as u64 * dt;
        self.queue_unit_time += depth * dt;
        if depth == self.span_depth {
            self.span_micros += dt;
        } else {
            self.flush_span();
            self.span_depth = depth;
            self.span_micros = dt;
        }
        self.last_change = now;
    }

    /// Fold the open same-depth run into the occupancy histogram.
    fn flush_span(&mut self) {
        if self.span_micros != 0 {
            self.occupancy
                .record_span(self.span_depth, SimDuration(self.span_micros));
            self.span_micros = 0;
        }
    }

    fn start(&mut self, now: SimTime, w: Waiting<J>) -> Started<J> {
        self.busy += 1;
        self.served += 1;
        self.total_wait += (now - w.arrived).as_micros();
        self.total_service += w.service.as_micros();
        Started {
            job: w.job,
            done_at: now + w.service,
        }
    }

    /// A job arrives needing `service` time. If a server is free (or
    /// the station is infinite) service starts immediately and the
    /// started job is returned; otherwise the job queues within its
    /// class and `None` is returned.
    pub fn arrive(
        &mut self,
        now: SimTime,
        job: J,
        service: SimDuration,
        class: JobClass,
    ) -> Option<Started<J>> {
        self.accumulate(now);
        let w = Waiting {
            job,
            service,
            arrived: now,
        };
        let free = match self.kind {
            StationKind::Infinite => true,
            StationKind::Finite => self.busy < self.units,
        };
        if free {
            Some(self.start(now, w))
        } else {
            match class {
                JobClass::High => self.high.push_back(w),
                JobClass::Low => self.low.push_back(w),
            }
            self.max_queue = self.max_queue.max(self.queued());
            None
        }
    }

    /// A service completed at `now`. Frees the server and, if work is
    /// queued, starts the next job (high class first, FCFS within
    /// class) and returns it.
    ///
    /// # Panics
    /// Panics if no job was in service.
    pub fn complete(&mut self, now: SimTime) -> Option<Started<J>> {
        assert!(self.busy > 0, "complete() with no job in service");
        self.accumulate(now);
        self.busy -= 1;
        if self.kind == StationKind::Infinite {
            debug_assert!(self.high.is_empty() && self.low.is_empty());
            return None;
        }
        let next = self.high.pop_front().or_else(|| self.low.pop_front())?;
        Some(self.start(now, next))
    }

    /// Mean utilization per server over the statistics window — from
    /// the last [`Station::reset_stats`] (or construction) to `now` —
    /// for finite stations, or mean concurrency for infinite stations
    /// (where `units` is 0 and the raw busy-time integral is divided by
    /// elapsed time).
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        let elapsed = now.since(self.stats_origin).as_micros();
        if elapsed == 0 {
            return 0.0;
        }
        let denom = match self.kind {
            StationKind::Finite => elapsed as f64 * self.units as f64,
            StationKind::Infinite => elapsed as f64,
        };
        self.busy_unit_time as f64 / denom
    }

    /// Mean queueing delay (excluding service) over all served jobs.
    pub fn mean_wait(&self) -> SimDuration {
        SimDuration(self.total_wait.checked_div(self.served).unwrap_or(0))
    }

    /// Time-averaged queue length (jobs waiting, excluding those in
    /// service) over the statistics window ending at `now`.
    pub fn mean_queue_depth(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        let elapsed = now.since(self.stats_origin).as_micros();
        if elapsed == 0 {
            0.0
        } else {
            self.queue_unit_time as f64 / elapsed as f64
        }
    }

    /// Largest queue length observed in the statistics window.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue
    }

    /// Time-weighted queue-depth histogram over the statistics window,
    /// with the final open interval flushed up to `now`.
    pub fn occupancy(&mut self, now: SimTime) -> &OccupancyHistogram {
        self.accumulate(now);
        self.flush_span();
        &self.occupancy
    }

    /// Reset statistics (not state) — used at the end of warm-up.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.accumulate(now);
        self.busy_unit_time = 0;
        self.queue_unit_time = 0;
        self.occupancy = OccupancyHistogram::new();
        self.span_depth = self.queued() as u64;
        self.span_micros = 0;
        self.max_queue = self.queued();
        self.served = 0;
        self.total_wait = 0;
        self.total_service = 0;
        self.last_change = now;
        self.stats_origin = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn single_server_serves_immediately_when_idle() {
        let mut s: Station<u32> = Station::finite(1);
        let started = s.arrive(at(0), 7, ms(5), JobClass::Low).unwrap();
        assert_eq!(started.job, 7);
        assert_eq!(started.done_at, at(5));
        assert_eq!(s.in_service(), 1);
    }

    #[test]
    fn fcfs_within_class() {
        let mut s: Station<u32> = Station::finite(1);
        s.arrive(at(0), 1, ms(5), JobClass::Low).unwrap();
        assert!(s.arrive(at(1), 2, ms(5), JobClass::Low).is_none());
        assert!(s.arrive(at(2), 3, ms(5), JobClass::Low).is_none());
        let n = s.complete(at(5)).unwrap();
        assert_eq!(n.job, 2);
        assert_eq!(n.done_at, at(10));
        let n = s.complete(at(10)).unwrap();
        assert_eq!(n.job, 3);
    }

    #[test]
    fn high_class_jumps_queue_but_not_service() {
        let mut s: Station<u32> = Station::finite(1);
        s.arrive(at(0), 1, ms(10), JobClass::Low).unwrap();
        assert!(s.arrive(at(1), 2, ms(10), JobClass::Low).is_none());
        assert!(s.arrive(at(2), 3, ms(1), JobClass::High).is_none());
        // job 1 is not preempted; at completion the High job goes first.
        let n = s.complete(at(10)).unwrap();
        assert_eq!(n.job, 3);
        let n = s.complete(at(11)).unwrap();
        assert_eq!(n.job, 2);
    }

    #[test]
    fn multi_server_uses_all_units() {
        let mut s: Station<u32> = Station::finite(2);
        assert!(s.arrive(at(0), 1, ms(5), JobClass::Low).is_some());
        assert!(s.arrive(at(0), 2, ms(5), JobClass::Low).is_some());
        assert!(s.arrive(at(0), 3, ms(5), JobClass::Low).is_none());
        assert_eq!(s.in_service(), 2);
        assert_eq!(s.queued(), 1);
        let n = s.complete(at(5)).unwrap();
        assert_eq!(n.job, 3);
    }

    #[test]
    fn infinite_station_never_queues() {
        let mut s: Station<u32> = Station::infinite();
        for i in 0..100 {
            let started = s.arrive(at(0), i, ms(20), JobClass::Low).unwrap();
            assert_eq!(started.done_at, at(20));
        }
        assert_eq!(s.in_service(), 100);
        assert_eq!(s.queued(), 0);
        for _ in 0..100 {
            assert!(s.complete(at(20)).is_none());
        }
        assert_eq!(s.in_service(), 0);
    }

    #[test]
    fn utilization_integrates_busy_time() {
        let mut s: Station<u32> = Station::finite(1);
        s.arrive(at(0), 1, ms(5), JobClass::Low).unwrap();
        s.complete(at(5));
        // busy 5ms of 10ms elapsed => 0.5
        assert!((s.utilization(at(10)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_with_two_units() {
        let mut s: Station<u32> = Station::finite(2);
        s.arrive(at(0), 1, ms(10), JobClass::Low).unwrap();
        s.arrive(at(0), 2, ms(10), JobClass::Low).unwrap();
        s.complete(at(10));
        s.complete(at(10));
        // 2 units busy for 10ms of 20ms*2 unit-time => 0.5
        assert!((s.utilization(at(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mean_wait_counts_only_queueing() {
        let mut s: Station<u32> = Station::finite(1);
        s.arrive(at(0), 1, ms(10), JobClass::Low).unwrap();
        s.arrive(at(0), 2, ms(10), JobClass::Low);
        s.complete(at(10));
        // job 1 waited 0, job 2 waited 10ms => mean 5ms
        assert_eq!(s.mean_wait().as_micros(), 5 * MS);
    }

    #[test]
    fn queue_depth_integrates_waiting_jobs() {
        let mut s: Station<u32> = Station::finite(1);
        s.arrive(at(0), 1, ms(10), JobClass::Low).unwrap();
        s.arrive(at(0), 2, ms(10), JobClass::Low); // queued [0,10)
        s.arrive(at(5), 3, ms(10), JobClass::Low); // queued [5,20)
        s.complete(at(10)); // job 2 starts, job 3 still queued
        s.complete(at(20)); // job 3 starts
        s.complete(at(30));
        // queue length: 1 on [0,5), 2 on [5,10), 1 on [10,20), 0 after.
        // integral = 5 + 10 + 10 = 25 job-ms over 30ms elapsed.
        assert!((s.mean_queue_depth(at(30)) - 25.0 / 30.0).abs() < 1e-9);
        assert_eq!(s.max_queue_depth(), 2);
        s.reset_stats(at(30));
        assert_eq!(s.max_queue_depth(), 0);
        assert_eq!(s.mean_queue_depth(at(40)), 0.0);
    }

    #[test]
    fn occupancy_flushes_final_interval_and_resets() {
        let mut s: Station<u32> = Station::finite(1);
        s.arrive(at(0), 1, ms(10), JobClass::Low).unwrap();
        s.arrive(at(0), 2, ms(10), JobClass::Low); // queued [0,10)
        s.arrive(at(5), 3, ms(10), JobClass::Low); // queued [5,20)
        s.complete(at(10));
        s.complete(at(20));
        s.complete(at(30));
        // Queue depth: 1 on [0,5), 2 on [5,10), 1 on [10,20), 0 on [20,30).
        // Querying at 40 must flush the still-open zero-depth interval.
        let occ = s.occupancy(at(40));
        assert_eq!(occ.total_time(), SimDuration::from_millis(40));
        // Depth 0 holds for 20 of 40 ms, depth <= 1 for 35 of 40 ms.
        assert_eq!(occ.p50(), 0);
        assert_eq!(occ.quantile(0.875), 1);
        assert_eq!(occ.p90(), 2);
        assert_eq!(occ.quantile(1.0), 2);
        assert!((occ.mean() - 25.0 / 40.0).abs() < 1e-9);
        // Mean from the histogram agrees with the queue-length integral.
        assert!((occ.mean() - s.mean_queue_depth(at(40))).abs() < 1e-9);
        s.reset_stats(at(40));
        assert_eq!(s.occupancy(at(40)).total_time(), SimDuration::ZERO);
        // Post-reset the (empty) queue keeps integrating from the origin.
        assert_eq!(
            s.occupancy(at(50)).total_time(),
            SimDuration::from_millis(10)
        );
        assert_eq!(s.occupancy(at(50)).quantile(1.0), 0);
    }

    #[test]
    fn reset_stats_clears_counters_but_not_state() {
        let mut s: Station<u32> = Station::finite(1);
        s.arrive(at(0), 1, ms(10), JobClass::Low).unwrap();
        s.reset_stats(at(5));
        assert_eq!(s.served(), 0);
        assert_eq!(s.in_service(), 1); // job still running
        s.complete(at(10));
        // busy throughout the post-reset window [5,10] => utilization 1
        assert!((s.utilization(at(10)) - 1.0).abs() < 1e-9);
        // ...and half-busy by t=15
        assert!((s.utilization(at(15)) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "complete() with no job in service")]
    fn complete_on_idle_panics() {
        let mut s: Station<u32> = Station::finite(1);
        s.complete(at(0));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_unit_station_rejected() {
        let _: Station<u32> = Station::finite(0);
    }
}

// Seeded-loop generative test (former proptest suite, rewritten as a
// deterministic randomized loop over the same input space).
#[cfg(test)]
mod generative_tests {
    use super::*;
    use crate::rng::SimRng;

    // Drive a single-server station with an arbitrary arrival pattern and
    // check conservation: every arrival is eventually served exactly once.
    #[test]
    fn conservation_and_order() {
        let mut r = SimRng::new(0x57A7_1051);
        for _ in 0..150 {
            let n = r.uniform_usize(1, 59);
            let jobs: Vec<(u64, u64, bool)> = (0..n)
                .map(|_| (r.uniform_u64(0, 49), r.uniform_u64(1, 19), r.chance(0.5)))
                .collect();
            let mut s: Station<usize> = Station::finite(1);
            let mut t = 0u64;
            let mut in_service: Option<(usize, SimTime)> = None;
            let mut completions: Vec<usize> = Vec::new();

            for (i, &(gap, svc, high)) in jobs.iter().enumerate() {
                t += gap;
                let now = SimTime(t);
                // drain completions due before now
                while let Some((job, done)) = in_service {
                    if done <= now {
                        completions.push(job);
                        in_service = s.complete(done).map(|st| (st.job, st.done_at));
                    } else {
                        break;
                    }
                }
                let class = if high { JobClass::High } else { JobClass::Low };
                if let Some(st) = s.arrive(now, i, SimDuration(svc), class) {
                    assert!(in_service.is_none());
                    in_service = Some((st.job, st.done_at));
                }
            }
            // drain everything
            while let Some((job, done)) = in_service {
                completions.push(job);
                in_service = s.complete(done).map(|st| (st.job, st.done_at));
            }
            assert_eq!(completions.len(), jobs.len());
            assert_eq!(s.served(), jobs.len() as u64);
            // every job appears exactly once
            let mut seen = completions.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..jobs.len()).collect::<Vec<_>>());
        }
    }
}
