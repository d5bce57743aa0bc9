//! Group commit (§3.2): a log disk that serves queued forced writes in
//! batches — up to `max_batch` records per `PageDisk` service.
//!
//! Like [`simkernel::Station`], the batcher is an engine passive: the
//! caller schedules the completion event for the instant the batcher
//! reports and hands the finished batch back via
//! [`BatchedLog::complete`].

use super::types::LogWork;
use simkernel::stats::OccupancyHistogram;
use simkernel::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One log disk running group commit.
#[derive(Debug)]
pub(crate) struct BatchedLog {
    max_batch: usize,
    queue: VecDeque<LogWork>,
    in_flight: Vec<LogWork>,
    // --- statistics ---
    last_change: SimTime,
    stats_origin: SimTime,
    busy_time: u64,
    queue_unit_time: u64,
    occupancy: OccupancyHistogram,
    max_queue: usize,
    batches_served: u64,
    writes_served: u64,
}

impl BatchedLog {
    /// A batcher grouping up to `max_batch` forced writes per service.
    pub fn new(max_batch: u32) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        BatchedLog {
            max_batch: max_batch as usize,
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            last_change: SimTime::ZERO,
            stats_origin: SimTime::ZERO,
            busy_time: 0,
            queue_unit_time: 0,
            occupancy: OccupancyHistogram::new(),
            max_queue: 0,
            batches_served: 0,
            writes_served: 0,
        }
    }

    fn accumulate(&mut self, now: SimTime) {
        let dt = now.since(self.last_change);
        if !self.in_flight.is_empty() {
            self.busy_time += dt.as_micros();
        }
        self.queue_unit_time += self.queue.len() as u64 * dt.as_micros();
        self.occupancy.record_span(self.queue.len() as u64, dt);
        self.last_change = now;
    }

    /// A forced write arrives. If the disk is idle a batch starts
    /// immediately (containing just this write) and its completion time
    /// is returned; otherwise the write queues for the next batch.
    pub fn arrive(&mut self, now: SimTime, work: LogWork, service: SimDuration) -> Option<SimTime> {
        self.accumulate(now);
        if self.in_flight.is_empty() {
            self.in_flight.push(work);
            Some(now + service)
        } else {
            self.queue.push_back(work);
            self.max_queue = self.max_queue.max(self.queue.len());
            None
        }
    }

    /// The in-flight batch finished: return its records and, if writes
    /// are queued, start the next batch (up to `max_batch` records) and
    /// return its completion time.
    pub fn complete(
        &mut self,
        now: SimTime,
        service: SimDuration,
    ) -> (Vec<LogWork>, Option<SimTime>) {
        assert!(
            !self.in_flight.is_empty(),
            "complete() with no batch in flight"
        );
        self.accumulate(now);
        self.batches_served += 1;
        self.writes_served += self.in_flight.len() as u64;
        let done = std::mem::take(&mut self.in_flight);
        let next = if self.queue.is_empty() {
            None
        } else {
            let take = self.queue.len().min(self.max_batch);
            self.in_flight.extend(self.queue.drain(..take));
            Some(now + service)
        };
        (done, next)
    }

    /// Records waiting for a batch slot.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// True while a batch is being written.
    #[cfg(test)]
    pub fn busy(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Batches completed so far.
    pub fn batches_served(&self) -> u64 {
        self.batches_served
    }

    /// Individual records completed so far.
    pub fn writes_served(&self) -> u64 {
        self.writes_served
    }

    /// Fraction of the statistics window (last reset to `now`) spent
    /// writing.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        let elapsed = now.since(self.stats_origin).as_micros();
        if elapsed == 0 {
            0.0
        } else {
            self.busy_time as f64 / elapsed as f64
        }
    }

    /// Time-averaged number of records waiting for a batch slot over
    /// the statistics window ending at `now`.
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
        &self.occupancy
    }

    /// Reset statistics at the end of warm-up.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.accumulate(now);
        self.busy_time = 0;
        self.queue_unit_time = 0;
        self.occupancy = OccupancyHistogram::new();
        self.max_queue = self.queue.len();
        self.batches_served = 0;
        self.writes_served = 0;
        self.last_change = now;
        self.stats_origin = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(n: u32) -> LogWork {
        use simkernel::slab::Handle;
        use simkernel::SlabKey;
        LogWork::MasterDecision {
            txn: super::super::types::TxnH::from_handle(Handle::new(n, 0)),
            commit: true,
        }
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn idle_disk_starts_immediately() {
        let mut b = BatchedLog::new(4);
        let done = b.arrive(at(0), work(1), ms(20));
        assert_eq!(done, Some(at(20)));
        assert!(b.busy());
        assert_eq!(b.queued(), 0);
    }

    #[test]
    fn arrivals_batch_behind_the_in_flight_write() {
        let mut b = BatchedLog::new(4);
        b.arrive(at(0), work(1), ms(20));
        assert_eq!(b.arrive(at(5), work(2), ms(20)), None);
        assert_eq!(b.arrive(at(6), work(3), ms(20)), None);
        assert_eq!(b.queued(), 2);
        let (done, next) = b.complete(at(20), ms(20));
        assert_eq!(done.len(), 1);
        // Both queued writes go out together in one service.
        assert_eq!(next, Some(at(40)));
        assert_eq!(b.queued(), 0);
        let (done, next) = b.complete(at(40), ms(20));
        assert_eq!(done.len(), 2);
        assert_eq!(next, None);
        assert!(!b.busy());
        assert_eq!(b.writes_served(), 3);
        assert_eq!(b.batches_served(), 2);
    }

    #[test]
    fn batch_size_is_capped() {
        let mut b = BatchedLog::new(2);
        b.arrive(at(0), work(0), ms(10));
        for i in 1..=5 {
            b.arrive(at(1), work(i), ms(10));
        }
        let (_, next) = b.complete(at(10), ms(10));
        assert_eq!(next, Some(at(20)));
        assert_eq!(b.queued(), 3); // 2 taken, 3 remain
        let (done, _) = b.complete(at(20), ms(10));
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn utilization_counts_only_busy_time() {
        let mut b = BatchedLog::new(8);
        b.arrive(at(0), work(1), ms(10));
        b.complete(at(10), ms(10));
        assert!((b.utilization(at(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn queue_depth_integrates_waiting_records() {
        let mut b = BatchedLog::new(4);
        b.arrive(at(0), work(1), ms(10));
        b.arrive(at(0), work(2), ms(10)); // queued [0,10)
        b.arrive(at(5), work(3), ms(10)); // queued [5,10)
        b.complete(at(10), ms(10)); // both queued records start
        b.complete(at(20), ms(10));
        // queue length: 1 on [0,5), 2 on [5,10), 0 after.
        // integral = 5 + 10 = 15 record-ms over 20ms.
        assert!((b.mean_queue_depth(at(20)) - 15.0 / 20.0).abs() < 1e-9);
        assert_eq!(b.max_queue_depth(), 2);
        // The occupancy histogram sees the same spans: depth 0 on
        // [10,20) dominates, depth 2 only on [5,10).
        assert_eq!(b.occupancy(at(20)).p50(), 0);
        assert_eq!(b.occupancy(at(20)).quantile(1.0), 2);
        assert!((b.occupancy(at(20)).mean() - 15.0 / 20.0).abs() < 1e-9);
        b.reset_stats(at(20));
        assert_eq!(b.max_queue_depth(), 0);
        assert_eq!(b.occupancy(at(20)).total_time(), SimDuration::ZERO);
    }

    #[test]
    fn reset_stats_keeps_state() {
        let mut b = BatchedLog::new(8);
        b.arrive(at(0), work(1), ms(10));
        b.reset_stats(at(5));
        assert!(b.busy());
        assert_eq!(b.batches_served(), 0);
        let (done, _) = b.complete(at(10), ms(10));
        assert_eq!(done.len(), 1);
        // busy throughout the post-reset window [5,10] => 1.0
        assert!((b.utilization(at(10)) - 1.0).abs() < 1e-9);
        assert!((b.utilization(at(15)) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no batch in flight")]
    fn complete_when_idle_panics() {
        let mut b = BatchedLog::new(2);
        b.complete(at(0), ms(10));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        BatchedLog::new(0);
    }
}
