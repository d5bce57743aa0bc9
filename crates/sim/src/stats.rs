//! Output statistics.
//!
//! The paper reports mean throughputs whose 90% confidence intervals
//! have relative half-widths below 10%, computed over long runs. This
//! module provides the estimators the experiment harness uses:
//!
//! * [`Tally`] — streaming mean/variance (Welford) for observational
//!   data such as response times,
//! * [`TimeWeighted`] — time-averaged level, used for the paper's
//!   *block ratio* ("the average fraction of transactions that are in
//!   the blocked state") and resource population metrics,
//! * [`BatchMeans`] — the batch-means method for confidence intervals
//!   on steady-state means from a single run,
//! * [`Counter`] — a plain event counter with per-transaction ratios.

use crate::time::{SimDuration, SimTime};

/// Streaming mean and variance via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration observation in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another tally into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant level, e.g. the number
/// of blocked transactions. Call [`TimeWeighted::set`] whenever the
/// level changes; query [`TimeWeighted::time_average`] at the end.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    level: f64,
    last_change: SimTime,
    origin: SimTime,
    area: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new(SimTime::ZERO, 0.0)
    }
}

impl TimeWeighted {
    /// Start integrating at `start` from an initial `level`.
    pub fn new(start: SimTime, level: f64) -> Self {
        TimeWeighted {
            level,
            last_change: start,
            origin: start,
            area: 0.0,
        }
    }

    fn accumulate(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_change);
        self.area += self.level * now.since(self.last_change).as_micros() as f64;
        self.last_change = now;
    }

    /// The level changed to `level` at `now`.
    pub fn set(&mut self, now: SimTime, level: f64) {
        self.accumulate(now);
        self.level = level;
    }

    /// Adjust the level by `delta` at `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        self.accumulate(now);
        self.level += delta;
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Time-average of the level over `[origin, now]`.
    pub fn time_average(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        let elapsed = now.since(self.origin).as_micros();
        if elapsed == 0 {
            self.level
        } else {
            self.area / elapsed as f64
        }
    }

    /// Restart integration at `now`, keeping the current level — used at
    /// the end of warm-up.
    pub fn reset(&mut self, now: SimTime) {
        self.accumulate(now);
        self.origin = now;
        self.last_change = now;
        self.area = 0.0;
    }

    /// The raw level·time integral over `[origin, now]`, in
    /// level-seconds. Successive calls at window boundaries yield
    /// per-window areas by subtraction, and those deltas telescope
    /// exactly: their sum equals the final integral bit for bit, which
    /// is what lets windowed series cross-check against whole-run
    /// time averages.
    pub fn integral_seconds(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        self.area / 1e6
    }
}

/// Two-sided Student-t critical value for a 90% confidence interval
/// (i.e. the 0.95 quantile) with `df` degrees of freedom.
///
/// Exact table values for small `df`, the normal quantile beyond.
pub fn t_critical_90(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 1.684,
        41..=60 => 1.671,
        61..=120 => 1.658,
        _ => 1.645,
    }
}

/// A confidence interval on a steady-state mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (grand mean over batches).
    pub mean: f64,
    /// Half-width of the 90% interval.
    pub half_width: f64,
    /// Number of batches the estimate is based on.
    pub batches: u64,
}

impl ConfidenceInterval {
    /// Half-width relative to the mean (paper requires < 10%); 0 when
    /// the mean is 0.
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Batch-means estimator: observations are grouped into fixed-size
/// batches; the batch means are treated as (approximately) independent
/// samples of the steady-state mean.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current_sum: f64,
    current_n: u64,
    batch_means: Tally,
}

impl BatchMeans {
    /// Group observations into batches of `batch_size`.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`.
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_n: 0,
            batch_means: Tally::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.current_sum += x;
        self.current_n += 1;
        if self.current_n == self.batch_size {
            self.batch_means
                .record(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_n = 0;
        }
    }

    /// 90% confidence interval over completed batch means.
    pub fn confidence_interval(&self) -> ConfidenceInterval {
        let k = self.batch_means.count();
        let mean = self.batch_means.mean();
        if k < 2 {
            return ConfidenceInterval {
                mean,
                half_width: f64::INFINITY,
                batches: k,
            };
        }
        let se = (self.batch_means.variance() / k as f64).sqrt();
        ConfidenceInterval {
            mean,
            half_width: t_critical_90(k - 1) * se,
            batches: k,
        }
    }
}

/// Result of an MSER-style steady-state scan over a sequence of batch
/// means (see [`mser_truncation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Number of batch means examined.
    pub samples: usize,
    /// Best truncation point: samples `[truncated..]` are the
    /// steady-state portion. Meaningless when `converged` is false.
    pub truncated: usize,
    /// Whether the scan found a credible steady state: enough samples,
    /// and the optimal truncation in the first half of the run.
    pub converged: bool,
    /// Mean of the retained (post-truncation) samples.
    pub mean: f64,
}

/// Fewest batch means for which a steady-state verdict is attempted;
/// below this the run is reported as not converged. Eleven samples is
/// what the default run configuration produces (warmup + measured over
/// the measurement batch size), so defaults sit comfortably above it.
pub const MSER_MIN_SAMPLES: usize = 8;

/// MSER-style initial-transient detection over a series of batch means
/// (White's Marginal Standard Error Rule, the MSER-5 family with the
/// batching done by the caller).
///
/// For each candidate truncation `d` in the first half of the series,
/// compute the squared standard error of the mean of the retained tail,
/// `var(z[d..]) / (n - d)`, and pick the `d` that minimises it (first
/// minimum wins on ties, so the scan is deterministic). The run is
/// declared converged only when there are at least
/// [`MSER_MIN_SAMPLES`] samples and the optimum lies strictly inside
/// the first half — an optimum sitting on the half-way boundary means
/// the statistic was still improving as data was discarded, i.e. the
/// run never settled.
pub fn mser_truncation(samples: &[f64]) -> SteadyState {
    let n = samples.len();
    if n < MSER_MIN_SAMPLES {
        return SteadyState {
            samples: n,
            truncated: 0,
            converged: false,
            mean: mean_of(samples),
        };
    }
    let half = n / 2;
    let mut best_d = 0;
    let mut best_se2 = f64::INFINITY;
    for d in 0..=half {
        let tail = &samples[d..];
        let mut t = Tally::new();
        for &x in tail {
            t.record(x);
        }
        let se2 = t.variance() / tail.len() as f64;
        if se2 < best_se2 {
            best_se2 = se2;
            best_d = d;
        }
    }
    SteadyState {
        samples: n,
        truncated: best_d,
        converged: best_d < half,
        mean: mean_of(&samples[best_d..]),
    }
}

fn mean_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Number of major buckets in the shared log-linear geometry: up to
/// 2^32 (µs ≈ 71.6 minutes for durations, or a queue depth of ~4·10^9).
const LOG_LINEAR_MAJORS: usize = 33;

/// Shared HDR-style bucket index: power-of-two major buckets, each split
/// into 16 linear sub-buckets; the first major bucket is linear over
/// 0..16 so small values are exact. Relative error ≤ 6.25%.
fn log_linear_bucket(v: u64) -> (usize, usize) {
    if v < 16 {
        return (0, v as usize);
    }
    let major = 63 - v.leading_zeros() as usize; // floor(log2)
    let minor = ((v >> (major - 4)) & 0xF) as usize;
    (major.min(LOG_LINEAR_MAJORS - 1) - 3, minor)
}

/// Lower bound of a log-linear bucket (inverse of [`log_linear_bucket`]).
fn log_linear_bucket_value(major: usize, minor: usize) -> u64 {
    if major == 0 {
        return minor as u64;
    }
    let m = major + 3;
    (1u64 << m) + ((minor as u64) << (m - 4))
}

/// A log-linear duration histogram (HDR-style): power-of-two major
/// buckets, each split into 16 linear sub-buckets, covering 1 µs to
/// ~4 600 s with ≤ 6.25% relative error. Used for response-time
/// percentiles (p50/p95/p99), which a mean alone cannot convey for the
/// heavy-tailed response distributions thrashing systems produce.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    /// counts[major][minor]; major = floor(log2(µs)), minor = next 4 bits.
    counts: Vec<[u64; 16]>,
    total: u64,
    sum_micros: u128,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DurationHistogram {
            counts: vec![[0; 16]; LOG_LINEAR_MAJORS],
            total: 0,
            sum_micros: 0,
        }
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let (major, minor) = log_linear_bucket(d.as_micros());
        self.counts[major][minor] += 1;
        self.total += 1;
        self.sum_micros += d.as_micros() as u128;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded durations (exact, not bucketed).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration((self.sum_micros / self.total as u128) as u64)
        }
    }

    /// The q-quantile (0 ≤ q ≤ 1) as a bucket lower bound — within
    /// 6.25% of the true value. Returns zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (major, row) in self.counts.iter().enumerate() {
            for (minor, &c) in row.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return SimDuration(log_linear_bucket_value(major, minor));
                }
            }
        }
        unreachable!("total tracks bucket counts");
    }

    /// Shorthand: the median.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// Shorthand: the 90th percentile.
    pub fn p90(&self) -> SimDuration {
        self.quantile(0.90)
    }

    /// Shorthand: the 95th percentile.
    pub fn p95(&self) -> SimDuration {
        self.quantile(0.95)
    }

    /// Shorthand: the 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one; equivalent to having
    /// recorded both observation streams into a single histogram.
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                *m += t;
            }
        }
        self.total += other.total;
        self.sum_micros += other.sum_micros;
    }
}

/// A time-weighted occupancy histogram over the same log-linear bucket
/// geometry as [`DurationHistogram`], but with *time* as the weight:
/// each bucket accumulates the µs the tracked level (queue depth,
/// population) spent at that value. Quantiles are therefore
/// time-weighted — `p99()` is the depth the queue did not exceed for
/// 99% of the observed interval, which explains throughput cliffs a
/// mean depth cannot.
///
/// Feed it from the same piecewise-constant accumulation loop as a
/// [`TimeWeighted`]: on every level change, record the span just ended
/// with [`OccupancyHistogram::record_span`]. Zero-width spans are
/// ignored (they carry no time weight), and the caller is responsible
/// for flushing the final open interval before querying.
#[derive(Debug, Clone)]
pub struct OccupancyHistogram {
    /// weight\[major\]\[minor\] in µs of time spent at that level,
    /// grown only to the deepest major row recorded: queue depths
    /// rarely leave the first row, and an absent row weighs zero.
    weights: Vec<[u64; 16]>,
    total_micros: u64,
    /// Σ level·µs, for the exact time-weighted mean.
    weighted_sum: u128,
}

impl Default for OccupancyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl OccupancyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        OccupancyHistogram {
            weights: Vec::new(),
            total_micros: 0,
            weighted_sum: 0,
        }
    }

    /// The level held `depth` for `dt`. Zero-width spans are dropped.
    pub fn record_span(&mut self, depth: u64, dt: SimDuration) {
        let micros = dt.as_micros();
        if micros == 0 {
            return;
        }
        let (major, minor) = log_linear_bucket(depth);
        if major >= self.weights.len() {
            self.weights.resize(major + 1, [0; 16]);
        }
        self.weights[major][minor] += micros;
        self.total_micros += micros;
        self.weighted_sum += depth as u128 * micros as u128;
    }

    /// Total observed time.
    pub fn total_time(&self) -> SimDuration {
        SimDuration(self.total_micros)
    }

    /// Exact time-weighted mean level (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.total_micros == 0 {
            0.0
        } else {
            self.weighted_sum as f64 / self.total_micros as f64
        }
    }

    /// The level not exceeded for fraction `q` of the observed time, as
    /// a bucket lower bound (≤ 6.25% relative error; exact below 16).
    /// Returns zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total_micros == 0 {
            return 0;
        }
        let target = ((q * self.total_micros as f64).ceil() as u64).clamp(1, self.total_micros);
        let mut seen = 0;
        for (major, row) in self.weights.iter().enumerate() {
            for (minor, &w) in row.iter().enumerate() {
                seen += w;
                if seen >= target {
                    return log_linear_bucket_value(major, minor);
                }
            }
        }
        unreachable!("total_micros tracks bucket weights");
    }

    /// Shorthand: the time-weighted median level.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Shorthand: the level not exceeded 90% of the time.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Shorthand: the level not exceeded 99% of the time.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one; valid because the weights
    /// are plain time integrals, so merging equals having observed both
    /// intervals back to back.
    pub fn merge(&mut self, other: &OccupancyHistogram) {
        if other.weights.len() > self.weights.len() {
            self.weights.resize(other.weights.len(), [0; 16]);
        }
        for (mine, theirs) in self.weights.iter_mut().zip(other.weights.iter()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                *m += t;
            }
        }
        self.total_micros += other.total_micros;
        self.weighted_sum += other.weighted_sum;
    }
}

/// A plain monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// This count divided by `denom` (0 when `denom` is 0).
    pub fn per(&self, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.0 as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_and_variance_match_textbook() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // sample variance of this classic data set is 32/7
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
    }

    #[test]
    fn empty_tally_is_zeroes() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), 0.0);
        assert_eq!(t.max(), 0.0);
    }

    #[test]
    fn tally_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = Tally::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &x in &data[..33] {
            a.record(x);
        }
        for &x in &data[33..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_integral_deltas_telescope() {
        let mut tw = TimeWeighted::new(SimTime(0), 0.0);
        tw.set(SimTime(1_000_000), 3.0);
        let a = tw.integral_seconds(SimTime(2_000_000));
        tw.set(SimTime(2_500_000), 1.0);
        let b = tw.integral_seconds(SimTime(4_000_000));
        // [0,1s): 0, [1s,2s): 3 → a = 3; [2s,2.5s): 3, [2.5s,4s): 1 → b = 3 + 1.5 + 1.5 = 6
        assert!((a - 3.0).abs() < 1e-12);
        assert!((b - 6.0).abs() < 1e-12);
        // per-window deltas sum exactly to the final integral
        assert_eq!((a - 0.0) + (b - a), b);
    }

    #[test]
    fn mser_too_few_samples_is_not_converged() {
        let s = mser_truncation(&[1.0; 7]);
        assert_eq!(s.samples, 7);
        assert!(!s.converged);
    }

    #[test]
    fn mser_flat_series_converges_with_no_truncation() {
        // Constant data: every truncation ties at SE² = 0, and the
        // deterministic first-minimum rule keeps everything.
        let data = [5.0; 20];
        let s = mser_truncation(&data);
        assert!(s.converged);
        assert_eq!(s.truncated, 0);
        assert!((s.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mser_initial_transient_is_truncated() {
        // Ramp-up for 4 samples, then steady around 10.
        let mut data = vec![1.0, 3.0, 6.0, 8.5];
        data.extend((0..16).map(|i| 10.0 + 0.05 * ((i % 3) as f64)));
        let s = mser_truncation(&data);
        assert!(s.converged);
        assert!(s.truncated >= 3, "truncated only {}", s.truncated);
        assert!((s.mean - 10.0).abs() < 0.2);
    }

    #[test]
    fn mser_monotone_drift_never_converges() {
        // A series still climbing linearly at the end: the optimal
        // truncation keeps sliding to the half-way boundary.
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let s = mser_truncation(&data);
        assert!(!s.converged);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime(0), 0.0);
        tw.set(SimTime(10), 2.0); // level 0 on [0,10)
        tw.set(SimTime(30), 1.0); // level 2 on [10,30)
                                  // level 1 on [30,50)
        let avg = tw.time_average(SimTime(50));
        // (0*10 + 2*20 + 1*20) / 50 = 60/50
        assert!((avg - 1.2).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_and_reset() {
        let mut tw = TimeWeighted::new(SimTime(0), 1.0);
        tw.add(SimTime(10), 1.0); // 2 from t=10
        tw.reset(SimTime(10));
        let avg = tw.time_average(SimTime(20));
        assert!((avg - 2.0).abs() < 1e-12);
        assert_eq!(tw.level(), 2.0);
    }

    #[test]
    fn time_weighted_zero_elapsed_returns_level() {
        let mut tw = TimeWeighted::new(SimTime(5), 3.0);
        assert_eq!(tw.time_average(SimTime(5)), 3.0);
    }

    #[test]
    fn batch_means_on_constant_data_has_zero_width() {
        let mut bm = BatchMeans::new(10);
        for _ in 0..100 {
            bm.record(4.2);
        }
        let ci = bm.confidence_interval();
        assert_eq!(ci.batches, 10);
        assert!((ci.mean - 4.2).abs() < 1e-12);
        assert!(ci.half_width < 1e-12);
        assert_eq!(ci.relative_half_width(), 0.0);
    }

    #[test]
    fn batch_means_needs_two_batches() {
        let mut bm = BatchMeans::new(100);
        for i in 0..150 {
            bm.record(i as f64);
        }
        let ci = bm.confidence_interval();
        assert_eq!(ci.batches, 1);
        assert!(ci.half_width.is_infinite());
    }

    #[test]
    fn batch_means_interval_covers_true_mean_of_alternating_data() {
        let mut bm = BatchMeans::new(2);
        for i in 0..1000 {
            bm.record(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        let ci = bm.confidence_interval();
        assert!((ci.mean - 0.5).abs() < 1e-12);
        assert!(ci.half_width < 1e-9); // each batch mean is exactly 0.5
    }

    #[test]
    fn t_critical_values() {
        assert!((t_critical_90(1) - 6.314).abs() < 1e-9);
        assert!((t_critical_90(10) - 1.812).abs() < 1e-9);
        assert!((t_critical_90(30) - 1.697).abs() < 1e-9);
        assert!((t_critical_90(1000) - 1.645).abs() < 1e-9);
        assert!(t_critical_90(0).is_infinite());
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = DurationHistogram::new();
        for us in 0..32u64 {
            h.record(SimDuration(us));
        }
        assert_eq!(h.count(), 32);
        // 0..32 µs lie in exact buckets; the 16th smallest of 0..=31 is 15
        assert_eq!(h.quantile(0.5), SimDuration(15));
        assert_eq!(h.quantile(1.0), SimDuration(31));
        assert_eq!(h.quantile(1.0 / 32.0), SimDuration(0));
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let mut h = DurationHistogram::new();
        // 1..=10_000 ms, uniformly
        for ms in 1..=10_000u64 {
            h.record(SimDuration::from_millis(ms));
        }
        for (q, expect_ms) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).as_millis_f64();
            let rel = (got - expect_ms).abs() / expect_ms;
            assert!(
                rel < 0.07,
                "q={q}: got {got}, expected ~{expect_ms} (rel {rel:.3})"
            );
        }
        let mean = h.mean().as_millis_f64();
        assert!(
            (mean - 5_000.5).abs() < 1.0,
            "exact mean expected, got {mean}"
        );
    }

    #[test]
    fn histogram_empty_and_shorthands() {
        let h = DurationHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p50(), SimDuration::ZERO);
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_secs(2));
        assert_eq!(h.p50(), h.p99());
        assert!(h.p95().as_secs_f64() > 1.8 && h.p95().as_secs_f64() <= 2.0);
    }

    #[test]
    fn histogram_merge_equals_sequential() {
        let mut whole = DurationHistogram::new();
        let mut a = DurationHistogram::new();
        let mut b = DurationHistogram::new();
        for ms in 1..=1_000u64 {
            whole.record(SimDuration::from_millis(ms));
            if ms % 3 == 0 {
                a.record(SimDuration::from_millis(ms));
            } else {
                b.record(SimDuration::from_millis(ms));
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_p90_orders_between_p50_and_p95() {
        let mut h = DurationHistogram::new();
        for ms in 1..=10_000u64 {
            h.record(SimDuration::from_millis(ms));
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p95());
        let rel = (h.p90().as_millis_f64() - 9_000.0).abs() / 9_000.0;
        assert!(rel < 0.07, "p90 = {}", h.p90().as_millis_f64());
    }

    #[test]
    fn histogram_saturates_on_huge_values() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_secs(100_000)); // 10^11 µs > 2^32 µs
        assert!(h.quantile(1.0).as_micros() >= 1 << 32);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_rejects_bad_quantile() {
        DurationHistogram::new().quantile(1.5);
    }

    #[test]
    fn occupancy_zero_width_spans_are_ignored() {
        let mut h = OccupancyHistogram::new();
        h.record_span(7, SimDuration(0));
        assert_eq!(h.total_time(), SimDuration::ZERO);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
        // A zero-width span between real spans must not perturb them.
        h.record_span(2, SimDuration(10));
        h.record_span(9, SimDuration(0));
        h.record_span(2, SimDuration(10));
        assert_eq!(h.total_time(), SimDuration(20));
        assert_eq!(h.p50(), 2);
        assert_eq!(h.quantile(1.0), 2);
    }

    #[test]
    fn occupancy_quantiles_are_time_weighted() {
        let mut h = OccupancyHistogram::new();
        // Depth 0 for 90 µs, depth 5 for 9 µs, depth 12 for 1 µs.
        h.record_span(0, SimDuration(90));
        h.record_span(5, SimDuration(9));
        h.record_span(12, SimDuration(1));
        assert_eq!(h.total_time(), SimDuration(100));
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p90(), 0); // exactly 90% of time at depth 0
        assert_eq!(h.quantile(0.95), 5);
        assert_eq!(h.p99(), 5);
        assert_eq!(h.quantile(1.0), 12);
        // Mean is exact: (0*90 + 5*9 + 12*1) / 100
        assert!((h.mean() - 0.57).abs() < 1e-12);
    }

    #[test]
    fn occupancy_small_depths_are_exact() {
        let mut h = OccupancyHistogram::new();
        for depth in 0..16u64 {
            h.record_span(depth, SimDuration(1));
        }
        // Uniform time at depths 0..=15: the median µs falls at depth 7.
        assert_eq!(h.p50(), 7);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn occupancy_merge_equals_sequential() {
        let mut whole = OccupancyHistogram::new();
        let mut a = OccupancyHistogram::new();
        let mut b = OccupancyHistogram::new();
        for depth in 0..200u64 {
            let dt = SimDuration(depth % 17 + 1);
            whole.record_span(depth, dt);
            if depth % 2 == 0 {
                a.record_span(depth, dt);
            } else {
                b.record_span(depth, dt);
            }
        }
        a.merge(&b);
        assert_eq!(a.total_time(), whole.total_time());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn occupancy_rows_grow_only_to_the_deepest_level() {
        let mut shallow = OccupancyHistogram::new();
        assert!(shallow.weights.is_empty());
        shallow.record_span(3, SimDuration(10));
        shallow.record_span(15, SimDuration(5));
        assert_eq!(shallow.weights.len(), 1, "depths below 16 fill one row");
        let mut deep = OccupancyHistogram::new();
        deep.record_span(1000, SimDuration(7));
        deep.record_span(40, SimDuration(3));
        assert!(deep.weights.len() > 1);
        // Merging unequal lengths, either way round, equals merging the
        // same histograms padded to full width.
        let full = |h: &OccupancyHistogram| {
            let mut f = h.clone();
            f.weights.resize(LOG_LINEAR_MAJORS, [0; 16]);
            f
        };
        let mut padded = full(&shallow);
        padded.merge(&full(&deep));
        for (mut merged, other) in [(shallow.clone(), &deep), (deep.clone(), &shallow)] {
            merged.merge(other);
            assert_eq!(merged.weights.len(), deep.weights.len());
            assert_eq!(full(&merged).weights, padded.weights);
            assert_eq!(merged.total_time(), padded.total_time());
            assert_eq!(merged.mean(), padded.mean());
            for q in [0.0, 0.1, 0.5, 0.66, 0.9, 0.99, 1.0] {
                assert_eq!(merged.quantile(q), padded.quantile(q), "q={q}");
            }
        }
    }

    #[test]
    fn occupancy_large_depths_within_relative_error() {
        let mut h = OccupancyHistogram::new();
        h.record_span(1000, SimDuration(100));
        let p = h.p50();
        assert!(p <= 1000 && p as f64 >= 1000.0 * (1.0 - 0.0625), "p50={p}");
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn occupancy_rejects_bad_quantile() {
        OccupancyHistogram::new().quantile(-0.1);
    }

    #[test]
    fn counter_ratios() {
        let mut c = Counter::default();
        c.bump();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.per(4), 2.5);
        assert_eq!(c.per(0), 0.0);
    }
}

// Seeded-loop generative tests (former proptest suite, rewritten as
// deterministic randomized loops over the same input space).
#[cfg(test)]
mod generative_tests {
    use super::*;
    use crate::rng::SimRng;

    fn random_vec(r: &mut SimRng, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let len = r.uniform_usize(min_len, max_len);
        (0..len).map(|_| lo + r.f64() * (hi - lo)).collect()
    }

    /// Welford mean equals the naive mean.
    #[test]
    fn tally_matches_naive() {
        let mut r = SimRng::new(0x7A11_0001);
        for _ in 0..100 {
            let xs = random_vec(&mut r, 1, 299, -1e6, 1e6);
            let mut t = Tally::new();
            for &x in &xs {
                t.record(x);
            }
            let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
            assert!((t.mean() - naive_mean).abs() < 1e-6 * (1.0 + naive_mean.abs()));
            if xs.len() >= 2 {
                let naive_var = xs.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>()
                    / (xs.len() - 1) as f64;
                assert!((t.variance() - naive_var).abs() < 1e-4 * (1.0 + naive_var.abs()));
            }
        }
    }

    /// Merging arbitrary splits equals sequential recording.
    #[test]
    fn merge_is_split_invariant() {
        let mut r = SimRng::new(0x7A11_0002);
        for _ in 0..100 {
            let xs = random_vec(&mut r, 2, 199, -1e3, 1e3);
            let split = r.uniform_usize(0, xs.len() - 1);
            let mut whole = Tally::new();
            for &x in &xs {
                whole.record(x);
            }
            let mut a = Tally::new();
            let mut b = Tally::new();
            for &x in &xs[..split] {
                a.record(x);
            }
            for &x in &xs[split..] {
                b.record(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-6);
            assert!((a.variance() - whole.variance()).abs() < 1e-4);
        }
    }

    /// Time-weighted average always lies within [min level, max level].
    #[test]
    fn time_average_is_bounded() {
        let mut r = SimRng::new(0x7A11_0003);
        for _ in 0..100 {
            let n = r.uniform_usize(1, 99);
            let mut tw = TimeWeighted::new(SimTime(0), 5.0);
            let mut t = 0u64;
            let mut lo = 5.0f64;
            let mut hi = 5.0f64;
            for _ in 0..n {
                t += r.uniform_u64(1, 99);
                let level = r.f64() * 10.0;
                tw.set(SimTime(t), level);
                lo = lo.min(level);
                hi = hi.max(level);
            }
            let avg = tw.time_average(SimTime(t + 10));
            assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        }
    }

    /// Histogram quantiles are within the bucket resolution of the true
    /// order statistics, for arbitrary data.
    #[test]
    fn histogram_matches_sorted_reference() {
        let mut r = SimRng::new(0x7A11_0004);
        for _ in 0..100 {
            let len = r.uniform_usize(1, 299);
            let us: Vec<u64> = (0..len).map(|_| r.uniform_u64(0, 9_999_999)).collect();
            let q = r.f64();
            let mut h = DurationHistogram::new();
            for &v in &us {
                h.record(SimDuration(v));
            }
            let mut sorted = us.clone();
            sorted.sort_unstable();
            let idx = ((q * us.len() as f64).ceil() as usize).clamp(1, us.len()) - 1;
            let truth = sorted[idx] as f64;
            let got = h.quantile(q).as_micros() as f64;
            // bucket lower bound: within 6.25% below the true value
            assert!(got <= truth + 1.0, "got {got}, truth {truth}");
            assert!(
                got >= truth * (1.0 - 0.0625) - 1.0,
                "got {got}, truth {truth}"
            );
        }
    }

    /// BatchMeans grand mean equals the plain mean of all complete batches.
    #[test]
    fn batch_means_grand_mean() {
        let mut r = SimRng::new(0x7A11_0005);
        for _ in 0..100 {
            let xs = random_vec(&mut r, 10, 299, 0.0, 100.0);
            let batch = 5u64;
            let mut bm = BatchMeans::new(batch);
            for &x in &xs {
                bm.record(x);
            }
            let complete = (xs.len() as u64 / batch * batch) as usize;
            if complete > 0 {
                let expect = xs[..complete].iter().sum::<f64>() / complete as f64;
                let ci = bm.confidence_interval();
                assert!((ci.mean - expect).abs() < 1e-6);
            }
        }
    }
}
