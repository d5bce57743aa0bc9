//! Deterministic random-number facade.
//!
//! All stochastic choices in the model (page selection, remote-site
//! selection, cohort sizes, update draws, surprise-abort votes) go
//! through [`SimRng`], a self-contained xoshiro256++ generator seeded
//! via SplitMix64. Given the same seed, every run of every experiment
//! is bit-for-bit reproducible — and because the generator is
//! implemented here (no external crates), the stream can never shift
//! under a dependency upgrade.

/// SplitMix64 step — used for seeding and for one-shot seed mixing.
///
/// This is the finalizer used by `splitmix64`; it is a bijection on
/// `u64`, which [`mix_seed`] relies on for collision-freedom.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a base seed with up to three grid indices into a well-spread
/// 64-bit seed. Injective in `(base, a, b, c)` for `a < 2^32`,
/// `b < 2^16`, `c < 2^16`: the indices occupy disjoint bit ranges
/// before the (bijective) SplitMix64 finalizer, so distinct cells can
/// never collide for a fixed base.
#[inline]
pub fn mix_seed(base: u64, a: u64, b: u64, c: u64) -> u64 {
    debug_assert!(a < 1 << 32 && b < 1 << 16 && c < 1 << 16);
    let mut s = base ^ (a << 32) ^ (b << 16) ^ c;
    splitmix64(&mut s)
}

/// Seeded RNG with the sampling helpers the workload generator needs.
///
/// The core generator is xoshiro256++ (Blackman & Vigna): 256 bits of
/// state, period 2^256 − 1, and excellent statistical quality for
/// simulation workloads.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Construct from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // xoshiro state must not be all-zero; SplitMix64 outputs make
        // this astronomically unlikely, but guard regardless.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Unbiased uniform integer in `[0, n)` (Lemire's method).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform usize in `[lo, hi]` (inclusive).
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        self.uniform_u64(lo as u64, hi as u64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// The paper's cohort-size draw: uniform over
    /// `[0.5 * mean, 1.5 * mean]`, rounded to integers, never below 1.
    pub fn around_mean(&mut self, mean: u32) -> u32 {
        let lo = mean / 2;
        let hi = mean + mean / 2;
        self.uniform_u64(lo.max(1) as u64, hi.max(1) as u64) as u32
    }

    /// Sample `k` distinct values from `0..n` (uniform, without
    /// replacement). Order is random.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(Self::sample_distinct_len(n, k));
        self.sample_distinct_into(n, k, &mut out);
        out
    }

    /// [`Self::sample_distinct`] into `out`, replacing its contents:
    /// the same draws in the same order, and no allocation once `out`
    /// can hold [`Self::sample_distinct_len`]`(n, k)` values.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_distinct_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        out.clear();
        // Partial Fisher–Yates over an index vector for small n; for
        // large n with small k, rejection sampling is cheaper.
        if k * 4 >= n {
            out.extend(0..n);
            for i in 0..k {
                let j = self.uniform_usize(i, n - 1);
                out.swap(i, j);
            }
            out.truncate(k);
        } else {
            while out.len() < k {
                let v = self.uniform_usize(0, n - 1);
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
    }

    /// The most values [`Self::sample_distinct_into`] holds in its
    /// buffer for `k` of `n`: all `n` candidates when it shuffles, only
    /// the `k` picks when it rejects.
    pub fn sample_distinct_len(n: usize, k: usize) -> usize {
        if k * 4 >= n {
            n
        } else {
            k
        }
    }

    /// Pick one element of a slice uniformly.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.uniform_usize(0, items.len() - 1)]
    }

    /// Raw f64 in [0,1) with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..32).map(|_| a.uniform_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.uniform_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let v = r.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn uniform_full_range_does_not_panic() {
        let mut r = SimRng::new(31);
        for _ in 0..10 {
            let _ = r.uniform_u64(0, u64::MAX);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..=3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(15);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn around_mean_covers_paper_range() {
        let mut r = SimRng::new(13);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let v = r.around_mean(6);
            assert!((3..=9).contains(&v), "got {v}");
            seen.insert(v);
        }
        // all seven values of U[3,9] should occur
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn around_mean_never_below_one() {
        let mut r = SimRng::new(17);
        for _ in 0..100 {
            assert!(r.around_mean(1) >= 1);
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut r = SimRng::new(21);
        for &(n, k) in &[(10usize, 10usize), (100, 3), (8, 5), (1, 1), (1000, 2)] {
            let s = r.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "duplicates in sample");
            assert!(s.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn sample_distinct_into_makes_the_same_draws() {
        // Both branches (k·4 ≥ n shuffles, k·4 < n rejects) and both
        // ends (k = 0, k = n), each into a dirty buffer.
        let mut r = SimRng::new(27);
        let mut out = vec![usize::MAX; 50];
        for &(n, k) in &[
            (8usize, 2usize),
            (7, 2),
            (100, 3),
            (100, 25),
            (1000, 9),
            (5, 0),
            (0, 0),
            (1000, 0),
            (6, 6),
            (64, 64),
        ] {
            for _ in 0..20 {
                let mut twin = r.clone();
                let want = twin.sample_distinct(n, k);
                r.sample_distinct_into(n, k, &mut out);
                assert_eq!(out, want, "n={n} k={k}");
                assert_eq!(r.next_u64(), twin.next_u64(), "RNG state after n={n} k={k}");
                assert!(out.capacity() >= SimRng::sample_distinct_len(n, k));
            }
        }
    }

    #[test]
    fn sample_distinct_len_is_what_the_draw_fills() {
        assert_eq!(SimRng::sample_distinct_len(7, 2), 7);
        assert_eq!(SimRng::sample_distinct_len(1000, 9), 9);
        assert_eq!(SimRng::sample_distinct_len(0, 0), 0);
        // The one-shot draw reserves exactly that, and never grows.
        let mut r = SimRng::new(19);
        for &(n, k) in &[(7usize, 2usize), (1000, 9), (36, 9), (37, 9)] {
            let v = r.sample_distinct(n, k);
            assert_eq!(
                v.capacity(),
                SimRng::sample_distinct_len(n, k),
                "n={n} k={k}"
            );
        }
    }

    #[test]
    fn sample_distinct_zero() {
        let mut r = SimRng::new(23);
        assert!(r.sample_distinct(5, 0).is_empty());
        assert!(r.sample_distinct(0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_overdraw_panics() {
        let mut r = SimRng::new(25);
        r.sample_distinct(3, 4);
    }

    #[test]
    fn sample_distinct_is_roughly_uniform() {
        let mut r = SimRng::new(29);
        let mut counts = [0u32; 8];
        for _ in 0..8_000 {
            for v in r.sample_distinct(8, 2) {
                counts[v] += 1;
            }
        }
        // each slot expects 2000 hits
        for (i, &c) in counts.iter().enumerate() {
            assert!((1_700..=2_300).contains(&c), "slot {i} got {c}");
        }
    }

    #[test]
    fn pick_is_uniformish() {
        let items = [0usize, 1, 2, 3];
        let mut r = SimRng::new(33);
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            counts[*r.pick(&items)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1_700..=2_300).contains(&c), "slot {i} got {c}");
        }
    }

    #[test]
    #[should_panic(expected = "pick from empty slice")]
    fn pick_empty_panics() {
        let mut r = SimRng::new(35);
        let empty: [u8; 0] = [];
        r.pick(&empty);
    }

    #[test]
    fn mix_seed_is_collision_free_on_grids() {
        let mut seen = HashSet::new();
        for a in 0..16u64 {
            for b in 0..12u64 {
                for c in 0..8u64 {
                    assert!(
                        seen.insert(mix_seed(42, a, b, c)),
                        "collision at ({a},{b},{c})"
                    );
                }
            }
        }
    }

    // Deterministic replacements for the former proptest suite: a
    // seeded loop over randomized inputs exercises the same properties
    // without an external property-testing dependency.

    #[test]
    fn sample_distinct_always_valid_randomized() {
        let mut meta = SimRng::new(0xDECADE);
        for _ in 0..300 {
            let n = meta.uniform_usize(1, 199);
            let k = n * meta.uniform_usize(0, 100) / 100;
            let mut r = SimRng::new(meta.next_u64());
            let s = r.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: HashSet<_> = s.iter().copied().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn around_mean_in_range_randomized() {
        let mut meta = SimRng::new(0xFACADE);
        for _ in 0..500 {
            let mean = meta.uniform_u64(1, 99) as u32;
            let mut r = SimRng::new(meta.next_u64());
            let v = r.around_mean(mean);
            assert!(v >= (mean / 2).max(1));
            assert!(v <= mean + mean / 2);
        }
    }
}
