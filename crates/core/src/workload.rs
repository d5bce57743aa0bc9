//! Workload generation (§4 / §4.1 of the paper).
//!
//! The database is `DBSize` pages uniformly distributed across the
//! sites. Each transaction is a master plus `DistDegree` cohorts: one
//! at the originating site and the rest at distinct random remote
//! sites. Each cohort accesses `U[0.5, 1.5] × CohortSize` pages chosen
//! at random from the pages of its site, updating each with probability
//! `UpdateProb`. An aborted transaction re-executes the *same* access
//! lists, which is why the template is kept for the transaction's whole
//! lifetime.

use crate::config::{HotSpot, SystemConfig};
use commitproto::BaseProtocol;
use simkernel::SimRng;

/// A site index, `0 .. num_sites`.
pub type SiteId = usize;

/// One page access in a cohort's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Global page id (`site * pages_per_site + local index`).
    pub page: u64,
    /// Whether the page is updated (update lock) or only read.
    pub update: bool,
}

/// The immutable plan of one transaction: where its cohorts run and
/// what each accesses. Restarted incarnations reuse the template, and
/// the engine refills retired templates in place
/// ([`WorkloadGenerator::generate_into`]).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TxnTemplate {
    /// The originating site (master and first cohort live here).
    pub home: SiteId,
    /// One entry per cohort; `sites[0] == home`.
    pub sites: Vec<SiteId>,
    /// Access list per cohort, parallel to `sites`.
    pub accesses: Vec<Vec<Access>>,
}

impl Clone for TxnTemplate {
    fn clone(&self) -> Self {
        TxnTemplate {
            home: self.home,
            sites: self.sites.clone(),
            accesses: self.accesses.clone(),
        }
    }

    /// Copy `src` into `self`'s own buffers: no allocation when `self`
    /// already has room for every list of `src`.
    fn clone_from(&mut self, src: &Self) {
        self.home = src.home;
        self.sites.clone_from(&src.sites);
        self.accesses.clone_from(&src.accesses);
    }
}

impl TxnTemplate {
    /// Total pages accessed across all cohorts.
    #[cfg(test)]
    pub fn total_pages(&self) -> usize {
        self.accesses.iter().map(Vec::len).sum()
    }

    /// Total pages updated across all cohorts.
    #[cfg(test)]
    pub fn total_updates(&self) -> usize {
        self.accesses.iter().flatten().filter(|a| a.update).count()
    }
}

/// O(1) Zipf(θ) sampler over ranks `0..n` via Vose's alias method:
/// rank `k` is drawn with probability ∝ `1 / (k + 1)^theta`. Built
/// once per generator; each draw costs one table slot plus one
/// Bernoulli trial from the caller's [`SimRng`], so determinism and
/// `--jobs` byte-identity are exactly those of the stream it is fed.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Acceptance probability per slot (Vose's `prob` table).
    prob: Vec<f64>,
    /// Fallback rank per slot (Vose's `alias` table).
    alias: Vec<u32>,
}

impl ZipfSampler {
    /// Build the alias tables for `n` ranks at skew `theta`.
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds `u32::MAX` ranks.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(n <= u32::MAX as u64, "alias table is u32-indexed");
        let n = n as usize;
        // Weights scaled to mean 1 so they split into <1 / ≥1 classes.
        let mut w: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(theta)).collect();
        let total: f64 = w.iter().sum();
        let scale = n as f64 / total;
        for x in &mut w {
            *x *= scale;
        }
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &x) in w.iter().enumerate() {
            if x < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let Some(s) = small.pop() {
            let Some(&l) = large.last() else {
                // Numerical leftover: its weight is 1 up to rounding.
                prob[s as usize] = 1.0;
                continue;
            };
            prob[s as usize] = w[s as usize];
            alias[s as usize] = l;
            w[l as usize] += w[s as usize] - 1.0;
            if w[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        while let Some(l) = large.pop() {
            prob[l as usize] = 1.0;
        }
        ZipfSampler { prob, alias }
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let slot = rng.uniform_u64(0, self.prob.len() as u64 - 1) as usize;
        if rng.chance(self.prob[slot]) {
            slot as u64
        } else {
            self.alias[slot] as u64
        }
    }

    /// The analytic pmf the sampler realizes: `P(rank = k)` for `n`
    /// ranks at skew `theta`. Ground truth for goodness-of-fit tests.
    pub fn pmf(n: u64, theta: f64, k: u64) -> f64 {
        let h: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        1.0 / ((k + 1) as f64).powf(theta) / h
    }
}

/// Generates transaction templates for a fixed configuration.
#[derive(Debug)]
pub struct WorkloadGenerator {
    pages_per_site: u64,
    num_sites: usize,
    dist_degree: u32,
    cohort_size: u32,
    update_prob: f64,
    hot_spot: Option<HotSpot>,
    zipf: Option<ZipfSampler>,
    hot_site_prob: f64,
    centralized: bool,
    /// The most picks one template's distinct draws hold at once (see
    /// [`SimRng::sample_distinct_len`]): what [`Self::generate`]
    /// reserves for its scratch.
    max_picks: usize,
}

impl WorkloadGenerator {
    /// Build a generator for `cfg` running under `base`; the
    /// `centralized` column of the protocol's spec table folds the
    /// whole database into one site and one cohort (§5.1).
    pub fn new(cfg: &SystemConfig, base: BaseProtocol) -> Self {
        let centralized = base.table().centralized;
        let cohorts = cfg.dist_degree as usize;
        // The unforced remote-site draw is the longer of the two site
        // draws; only uniform access draws its pages through picks, at
        // most `around_mean`'s upper end of them per cohort.
        let site_picks = if centralized || cohorts < 2 {
            0
        } else {
            SimRng::sample_distinct_len(cfg.num_sites - 1, cohorts - 1)
        };
        let page_picks = if centralized || cfg.hot_spot.is_some() || cfg.zipf.is_some() {
            0
        } else {
            let most = (cfg.cohort_size + cfg.cohort_size / 2).max(1) as usize;
            SimRng::sample_distinct_len(cfg.pages_per_site() as usize, most)
        };
        WorkloadGenerator {
            pages_per_site: cfg.pages_per_site(),
            num_sites: cfg.num_sites,
            dist_degree: cfg.dist_degree,
            cohort_size: cfg.cohort_size,
            update_prob: cfg.update_prob,
            hot_spot: cfg.hot_spot,
            zipf: cfg
                .zipf
                .map(|z| ZipfSampler::new(cfg.pages_per_site(), z.theta)),
            hot_site_prob: cfg.topology.map_or(0.0, |t| t.hot_site_prob),
            centralized,
            max_picks: site_picks.max(page_picks),
        }
    }

    /// Draw a site-local page index, applying the configured skew rule
    /// (Zipf, hot-spot, or uniform).
    fn local_page(&self, rng: &mut SimRng) -> u64 {
        if let Some(z) = &self.zipf {
            return z.sample(rng);
        }
        match self.hot_spot {
            None => rng.uniform_u64(0, self.pages_per_site - 1),
            Some(h) => {
                let hot = ((self.pages_per_site as f64 * h.data_fraction) as u64)
                    .clamp(1, self.pages_per_site - 1);
                if rng.chance(h.access_fraction) {
                    rng.uniform_u64(0, hot - 1)
                } else {
                    rng.uniform_u64(hot, self.pages_per_site - 1)
                }
            }
        }
    }

    /// Number of sites the engine should instantiate (1 for CENT).
    pub fn effective_sites(&self) -> usize {
        if self.centralized {
            1
        } else {
            self.num_sites
        }
    }

    /// Generate a fresh template originating at `home`.
    ///
    /// For the CENT baseline `home` must be 0 and the transaction keeps
    /// its `DistDegree`-cohort structure — all cohorts local to the one
    /// merged site, with distinct pages drawn from the whole database.
    /// §5.1 defines CENT as "equivalent (in terms of database size and
    /// physical resources)": the workload is unchanged, only messages
    /// and distributed commit processing disappear.
    ///
    /// A wrapper over [`Self::generate_into`] that reserves every
    /// buffer at its exact final size, so nothing grows while it fills.
    pub fn generate(&self, home: SiteId, rng: &mut SimRng) -> TxnTemplate {
        let cohorts = self.dist_degree as usize;
        let mut t = TxnTemplate {
            home,
            sites: Vec::with_capacity(cohorts),
            accesses: Vec::with_capacity(cohorts),
        };
        let mut picks = Vec::with_capacity(self.max_picks);
        self.generate_into(home, rng, &mut t, &mut picks);
        t
    }

    /// Refill `t` in place with a fresh template originating at `home`:
    /// the same draws in the same order as [`Self::generate`], and the
    /// same template whatever `t` held before. `picks` is scratch for
    /// the distinct draws. A recycled template and scratch allocate
    /// nothing once they have held the workload's largest transaction.
    pub fn generate_into(
        &self,
        home: SiteId,
        rng: &mut SimRng,
        t: &mut TxnTemplate,
        picks: &mut Vec<usize>,
    ) {
        let cohorts = self.dist_degree as usize;
        t.home = home;
        t.sites.clear();
        t.accesses.truncate(cohorts);
        if self.centralized {
            assert_eq!(home, 0, "CENT has a single merged site");
            t.sites.resize(cohorts, 0);
            for c in 0..cohorts {
                let n = rng.around_mean(self.cohort_size) as usize;
                cohort_list(&mut t.accesses, c, n);
                let (drawn, rest) = t.accesses.split_at_mut(c);
                let cohort = &mut rest[0];
                for _ in 0..n {
                    // distinct pages across the whole transaction, so
                    // sibling cohorts never self-conflict; drawn as
                    // (uniform virtual site, hot-or-cold local page) so
                    // CENT sees the same access distribution as the
                    // distributed system
                    loop {
                        let site = rng.uniform_u64(0, self.num_sites as u64 - 1);
                        let p = site * self.pages_per_site + self.local_page(rng);
                        let taken = cohort
                            .iter()
                            .chain(drawn.iter().flatten())
                            .any(|a| a.page == p);
                        if !taken {
                            cohort.push(Access {
                                page: p,
                                update: rng.chance(self.update_prob),
                            });
                            break;
                        }
                    }
                }
            }
            return;
        }

        t.sites.push(home);
        if self.dist_degree > 1 {
            // Topology hot site: with probability `hot`, site 0 is
            // forced into the cohort set, concentrating traffic there.
            // The roll is skipped entirely when the feature is off, so
            // the RNG stream — and every existing report — is
            // unchanged without a hot site.
            let force_hot = self.hot_site_prob > 0.0 && home != 0 && rng.chance(self.hot_site_prob);
            if force_hot {
                t.sites.push(0);
            }
            let remaining = cohorts - t.sites.len();
            if remaining > 0 {
                if force_hot {
                    // map 0..num_sites-2 onto all sites except {0, home}
                    rng.sample_distinct_into(self.num_sites - 2, remaining, picks);
                    t.sites.extend(picks.iter().map(|&p| {
                        let mut site = p + 1;
                        if site >= home {
                            site += 1;
                        }
                        site
                    }));
                } else {
                    // Remote sites: distinct, uniform over the others;
                    // map 0..num_sites-1 onto all sites except `home`.
                    rng.sample_distinct_into(self.num_sites - 1, remaining, picks);
                    t.sites
                        .extend(picks.iter().map(|&p| if p < home { p } else { p + 1 }));
                }
            }
        }
        for (c, &site) in t.sites.iter().enumerate() {
            let n = rng.around_mean(self.cohort_size) as usize;
            let out = cohort_list(&mut t.accesses, c, n);
            self.cohort_accesses(site, n, rng, out, picks);
        }
    }

    /// Fill `out` (empty, with room for `n`) with one cohort's `n`
    /// distinct page accesses at `site`.
    fn cohort_accesses(
        &self,
        site: SiteId,
        n: usize,
        rng: &mut SimRng,
        out: &mut Vec<Access>,
        picks: &mut Vec<usize>,
    ) {
        let base = site as u64 * self.pages_per_site;
        if self.hot_spot.is_none() && self.zipf.is_none() {
            rng.sample_distinct_into(self.pages_per_site as usize, n, picks);
            out.extend(picks.iter().map(|&local| Access {
                page: base + local as u64,
                update: rng.chance(self.update_prob),
            }));
            return;
        }
        // Skewed draw with rejection for distinctness (the hot region
        // always holds at least one full cohort, see config validation).
        while out.len() < n {
            let page = base + self.local_page(rng);
            if !out.iter().any(|a| a.page == page) {
                out.push(Access {
                    page,
                    update: rng.chance(self.update_prob),
                });
            }
        }
    }

    /// The site a global page id lives on.
    #[cfg(test)]
    pub fn site_of_page(&self, page: u64) -> SiteId {
        if self.centralized {
            0
        } else {
            (page / self.pages_per_site) as usize
        }
    }
}

/// Cohort `c`'s access list in `accesses` (at most one past the end),
/// emptied and with room for `n` pages: a recycled list keeps its
/// buffer, a new one gets exactly `n`.
fn cohort_list(accesses: &mut Vec<Vec<Access>>, c: usize, n: usize) -> &mut Vec<Access> {
    if c == accesses.len() {
        accesses.push(Vec::with_capacity(n));
    }
    let list = &mut accesses[c];
    list.clear();
    list.reserve_exact(n);
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen(base: BaseProtocol) -> (WorkloadGenerator, SimRng) {
        let cfg = SystemConfig::paper_baseline();
        (WorkloadGenerator::new(&cfg, base), SimRng::new(7))
    }

    #[test]
    fn template_shape_matches_config() {
        let (g, mut rng) = gen(BaseProtocol::TwoPC);
        for home in 0..8 {
            let t = g.generate(home, &mut rng);
            assert_eq!(t.home, home);
            assert_eq!(t.sites.len(), 3);
            assert_eq!(t.sites[0], home);
            assert_eq!(t.accesses.len(), 3);
            // distinct sites
            let set: HashSet<_> = t.sites.iter().collect();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn cohort_sizes_in_paper_range() {
        let (g, mut rng) = gen(BaseProtocol::TwoPC);
        for _ in 0..200 {
            let t = g.generate(0, &mut rng);
            for acc in &t.accesses {
                assert!((3..=9).contains(&acc.len()), "cohort size {}", acc.len());
            }
        }
    }

    #[test]
    fn accesses_live_on_their_cohort_site() {
        let (g, mut rng) = gen(BaseProtocol::TwoPC);
        for _ in 0..50 {
            let t = g.generate(2, &mut rng);
            for (i, &site) in t.sites.iter().enumerate() {
                for a in &t.accesses[i] {
                    assert_eq!(g.site_of_page(a.page), site);
                }
            }
        }
    }

    #[test]
    fn pages_distinct_within_cohort() {
        let (g, mut rng) = gen(BaseProtocol::TwoPC);
        for _ in 0..50 {
            let t = g.generate(1, &mut rng);
            for acc in &t.accesses {
                let set: HashSet<_> = acc.iter().map(|a| a.page).collect();
                assert_eq!(set.len(), acc.len());
            }
        }
    }

    #[test]
    fn update_prob_one_updates_everything() {
        let (g, mut rng) = gen(BaseProtocol::TwoPC);
        let t = g.generate(0, &mut rng);
        assert_eq!(t.total_updates(), t.total_pages());
    }

    #[test]
    fn update_prob_zero_updates_nothing() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.update_prob = 0.0;
        let g = WorkloadGenerator::new(&cfg, BaseProtocol::TwoPC);
        let mut rng = SimRng::new(3);
        let t = g.generate(0, &mut rng);
        assert_eq!(t.total_updates(), 0);
    }

    #[test]
    fn remote_sites_cover_all_sites_eventually() {
        let (g, mut rng) = gen(BaseProtocol::TwoPC);
        let mut seen = HashSet::new();
        for _ in 0..500 {
            let t = g.generate(3, &mut rng);
            seen.extend(t.sites.iter().copied());
        }
        assert_eq!(seen.len(), 8, "all sites should appear as cohort sites");
    }

    #[test]
    fn centralized_folds_into_one_site() {
        let (g, mut rng) = gen(BaseProtocol::Centralized);
        assert_eq!(g.effective_sites(), 1);
        for _ in 0..100 {
            let t = g.generate(0, &mut rng);
            // The cohort structure survives (§5.1: only distribution
            // overheads disappear), all cohorts on the merged site.
            assert_eq!(t.sites, vec![0, 0, 0]);
            assert_eq!(t.accesses.len(), 3);
            assert!((9..=27).contains(&t.total_pages()), "{}", t.total_pages());
            // pages distinct across the *whole* transaction so sibling
            // cohorts never self-conflict
            let set: HashSet<_> = t.accesses.iter().flatten().map(|a| a.page).collect();
            assert_eq!(set.len(), t.total_pages());
            assert_eq!(g.site_of_page(t.accesses[0][0].page), 0);
        }
    }

    #[test]
    fn dpcc_keeps_distribution() {
        let (g, _) = gen(BaseProtocol::Dpcc);
        assert_eq!(g.effective_sites(), 8);
    }

    #[test]
    fn hot_spot_skews_accesses() {
        use crate::config::HotSpot;
        let mut cfg = SystemConfig::paper_baseline();
        cfg.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 0.8,
        });
        cfg.validate().unwrap();
        let g = WorkloadGenerator::new(&cfg, BaseProtocol::TwoPC);
        let mut rng = SimRng::new(31);
        let hot_bound = (cfg.pages_per_site() as f64 * 0.2) as u64;
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let t = g.generate(0, &mut rng);
            for (i, &site) in t.sites.iter().enumerate() {
                let base = site as u64 * cfg.pages_per_site();
                for a in &t.accesses[i] {
                    assert_eq!(g.site_of_page(a.page), site);
                    if a.page - base < hot_bound {
                        hot += 1;
                    }
                    total += 1;
                }
            }
        }
        let frac = hot as f64 / total as f64;
        assert!(
            (frac - 0.8).abs() < 0.05,
            "hot fraction {frac:.3}, expected ≈ 0.8"
        );
    }

    #[test]
    fn hot_spot_applies_to_cent_equivalently() {
        use crate::config::HotSpot;
        let mut cfg = SystemConfig::paper_baseline();
        cfg.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 0.8,
        });
        let g = WorkloadGenerator::new(&cfg, BaseProtocol::Centralized);
        let mut rng = SimRng::new(37);
        let pps = cfg.pages_per_site();
        let hot_bound = (pps as f64 * 0.2) as u64;
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let t = g.generate(0, &mut rng);
            for a in t.accesses.iter().flatten() {
                if a.page % pps < hot_bound {
                    hot += 1;
                }
                total += 1;
            }
        }
        let frac = hot as f64 / total as f64;
        assert!((frac - 0.8).abs() < 0.05, "CENT hot fraction {frac:.3}");
    }

    #[test]
    fn hot_spot_validation() {
        use crate::config::HotSpot;
        let mut cfg = SystemConfig::paper_baseline();
        cfg.hot_spot = Some(HotSpot {
            data_fraction: 0.0,
            access_fraction: 0.8,
        });
        assert!(cfg.validate().is_err());
        cfg.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 1.0,
        });
        assert!(cfg.validate().is_err());
        // hot region smaller than a max-size cohort
        cfg.hot_spot = Some(HotSpot {
            data_fraction: 0.005,
            access_fraction: 0.8,
        });
        assert!(cfg.validate().is_err());
        cfg.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 0.8,
        });
        cfg.validate().unwrap();
    }

    /// Every generator shape the engine uses: uniform, hot-spot, Zipf,
    /// topology hot site, and CENT (uniform and hot-spot).
    fn every_generator() -> Vec<(&'static str, WorkloadGenerator)> {
        let base = SystemConfig::paper_baseline();
        let mut hot_spot = base.clone();
        hot_spot.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 0.8,
        });
        let zipf = base.clone().with_zipf(0.9);
        let hot_site = base.clone().with_topology("hot=0.5".parse().unwrap());
        vec![
            (
                "uniform",
                WorkloadGenerator::new(&base, BaseProtocol::TwoPC),
            ),
            (
                "hot-spot",
                WorkloadGenerator::new(&hot_spot, BaseProtocol::TwoPC),
            ),
            ("zipf", WorkloadGenerator::new(&zipf, BaseProtocol::TwoPC)),
            (
                "hot-site",
                WorkloadGenerator::new(&hot_site, BaseProtocol::TwoPC),
            ),
            (
                "cent",
                WorkloadGenerator::new(&base, BaseProtocol::Centralized),
            ),
            (
                "cent-hot-spot",
                WorkloadGenerator::new(&hot_spot, BaseProtocol::Centralized),
            ),
        ]
    }

    #[test]
    fn generate_into_a_dirty_template_equals_generate() {
        // Dirty templates: last filled with more cohorts and longer
        // access lists, and by the other kind of generator (CENT versus
        // distributed), so every list is shrunk, regrown or re-sited.
        let mut big = SystemConfig::paper_baseline();
        big.dist_degree = 6;
        big.cohort_size = 12;
        let dirty_from = [
            WorkloadGenerator::new(&big, BaseProtocol::TwoPC),
            WorkloadGenerator::new(&big, BaseProtocol::Centralized),
        ];
        for (name, g) in every_generator() {
            let mut rng = SimRng::new(0x7e57 + seed_offset());
            let mut scratch = SimRng::new(5);
            let mut picks = vec![usize::MAX; 3];
            for i in 0..200 {
                let mut t = dirty_from[i % 2].generate(0, &mut scratch);
                let home = if g.centralized { 0 } else { i % 8 };
                let mut twin = rng.clone();
                let want = g.generate(home, &mut twin);
                g.generate_into(home, &mut rng, &mut t, &mut picks);
                assert_eq!(t, want, "{name}: template {i}");
                assert_eq!(rng.next_u64(), twin.next_u64(), "{name}: RNG after {i}");
            }
        }
    }

    #[test]
    fn generate_reserves_exact_capacities() {
        // The fresh path fills buffers reserved at their final size:
        // nothing grows past it (which would reallocate) and nothing is
        // over-reserved. Its pick scratch never outgrows `max_picks`.
        for (name, g) in every_generator() {
            let mut rng = SimRng::new(0xca9 + seed_offset());
            let mut picks = Vec::with_capacity(g.max_picks);
            let mut recycled = TxnTemplate::default();
            for i in 0..200 {
                let home = if g.centralized { 0 } else { i % 8 };
                let t = g.generate(home, &mut rng);
                assert_eq!(t.sites.capacity(), t.sites.len(), "{name}");
                assert_eq!(t.accesses.capacity(), t.accesses.len(), "{name}");
                for a in &t.accesses {
                    assert_eq!(a.capacity(), a.len(), "{name}");
                }
                g.generate_into(home, &mut rng, &mut recycled, &mut picks);
                assert_eq!(picks.capacity(), g.max_picks, "{name}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, mut r1) = gen(BaseProtocol::TwoPC);
        let mut r2 = SimRng::new(7);
        let a = g.generate(0, &mut r1);
        let b = g.generate(0, &mut r2);
        assert_eq!(a, b);
    }

    // ---- statistical test harness -------------------------------------
    //
    // Goodness-of-fit for the page samplers: a Pearson chi-square
    // statistic against the analytic pmf, with the critical value from
    // the Wilson–Hilferty approximation (no lookup tables). Seeds are
    // fixed (plus the CI's DISTCOMMIT_TEST_SEED_OFFSET), so each run
    // is a deterministic pass/fail, not a flaky hypothesis test.

    /// CI seed perturbation: the workflow re-runs the suite at offsets
    /// 0, 1000, 52000 (and the scale matrix at 0..2), so assertions
    /// must hold structurally, not for one lucky seed.
    fn seed_offset() -> u64 {
        std::env::var("DISTCOMMIT_TEST_SEED_OFFSET")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// Pearson chi-square statistic of per-bin counts against expected
    /// probabilities. Every expected count must clear the textbook
    /// floor of 5 — the caller sizes the sample, not the harness.
    fn chi_square(observed: &[u64], expected_p: &[f64]) -> f64 {
        assert_eq!(observed.len(), expected_p.len());
        let n: u64 = observed.iter().sum();
        let total_p: f64 = expected_p.iter().sum();
        assert!((total_p - 1.0).abs() < 1e-9, "pmf must sum to 1: {total_p}");
        observed
            .iter()
            .zip(expected_p)
            .map(|(&o, &p)| {
                let e = p * n as f64;
                assert!(e >= 5.0, "expected count {e:.2} below chi-square floor");
                (o as f64 - e).powi(2) / e
            })
            .sum()
    }

    /// Wilson–Hilferty chi-square critical value:
    /// `χ²(df) ≈ df · (1 − 2/(9·df) + z·√(2/(9·df)))³` at upper-tail
    /// z. `z = 3.0902` is the α = 0.001 quantile — strict enough to
    /// catch a wrong pmf, loose enough that fixed seeds pass stably.
    fn chi2_critical(df: usize, z: f64) -> f64 {
        let d = df as f64;
        let t = 1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt();
        d * t.powi(3)
    }

    const Z_ALPHA_001: f64 = 3.0902;

    #[test]
    fn zipf_sampler_matches_analytic_pmf() {
        let n = 64u64;
        let draws = 100_000u64;
        for (i, &theta) in [0.5, 0.9, 1.2].iter().enumerate() {
            let s = ZipfSampler::new(n, theta);
            let mut rng = SimRng::new(0x21f0 + 31 * i as u64 + seed_offset());
            let mut counts = vec![0u64; n as usize];
            for _ in 0..draws {
                counts[s.sample(&mut rng) as usize] += 1;
            }
            let pmf: Vec<f64> = (0..n).map(|k| ZipfSampler::pmf(n, theta, k)).collect();
            let stat = chi_square(&counts, &pmf);
            let crit = chi2_critical(n as usize - 1, Z_ALPHA_001);
            assert!(
                stat < crit,
                "theta={theta}: chi2 {stat:.1} >= critical {crit:.1}"
            );
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let n = 64u64;
        let s = ZipfSampler::new(n, 0.0);
        let mut rng = SimRng::new(0x21f1 + seed_offset());
        let mut counts = vec![0u64; n as usize];
        for _ in 0..100_000 {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        let pmf = vec![1.0 / n as f64; n as usize];
        let stat = chi_square(&counts, &pmf);
        let crit = chi2_critical(n as usize - 1, Z_ALPHA_001);
        assert!(stat < crit, "chi2 {stat:.1} >= critical {crit:.1}");
    }

    /// The same goodness-of-fit harness retrofitted over the classic
    /// b–c hot-spot sampler, whose pmf is piecewise uniform:
    /// `access_fraction / hot` inside the hot region and
    /// `(1 − access_fraction) / (pages − hot)` outside.
    #[test]
    fn hot_spot_sampler_matches_analytic_pmf() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 0.8,
        });
        cfg.validate().unwrap();
        let g = WorkloadGenerator::new(&cfg, BaseProtocol::TwoPC);
        let pages = cfg.pages_per_site();
        let hot = (pages as f64 * 0.2) as u64;
        let mut rng = SimRng::new(0xb0c0 + seed_offset());
        let mut counts = vec![0u64; pages as usize];
        for _ in 0..100_000 {
            counts[g.local_page(&mut rng) as usize] += 1;
        }
        let pmf: Vec<f64> = (0..pages)
            .map(|k| {
                if k < hot {
                    0.8 / hot as f64
                } else {
                    0.2 / (pages - hot) as f64
                }
            })
            .collect();
        let stat = chi_square(&counts, &pmf);
        let crit = chi2_critical(pages as usize - 1, Z_ALPHA_001);
        assert!(stat < crit, "chi2 {stat:.1} >= critical {crit:.1}");
    }

    #[test]
    fn zipf_sampler_is_deterministic() {
        let s = ZipfSampler::new(1_000, 0.9);
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        for _ in 0..1_000 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_decreases() {
        let n = 128;
        let pmf: Vec<f64> = (0..n).map(|k| ZipfSampler::pmf(n, 1.1, k)).collect();
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pmf.windows(2).all(|w| w[0] > w[1]), "pmf must decrease");
    }

    #[test]
    fn zipf_skews_generated_accesses() {
        let cfg = SystemConfig::paper_baseline().with_zipf(0.9);
        cfg.validate().unwrap();
        let g = WorkloadGenerator::new(&cfg, BaseProtocol::TwoPC);
        let mut rng = SimRng::new(0x21f2 + seed_offset());
        let pps = cfg.pages_per_site();
        let top = pps / 10;
        let (mut low, mut total) = (0usize, 0usize);
        for _ in 0..500 {
            let t = g.generate(0, &mut rng);
            for (i, &site) in t.sites.iter().enumerate() {
                let base = site as u64 * pps;
                for a in &t.accesses[i] {
                    assert_eq!(g.site_of_page(a.page), site);
                    if a.page - base < top {
                        low += 1;
                    }
                    total += 1;
                }
            }
        }
        let frac = low as f64 / total as f64;
        // Under uniform access the first decile draws 10% of accesses;
        // Zipf(0.9) over 1000 pages concentrates ≈ 55% there.
        assert!(frac > 0.3, "first decile drew only {frac:.3}");
    }

    #[test]
    fn hot_site_prob_one_forces_site_zero_into_every_cohort_set() {
        let cfg = SystemConfig::paper_baseline().with_topology("hot=1".parse().unwrap());
        cfg.validate().unwrap();
        let g = WorkloadGenerator::new(&cfg, BaseProtocol::TwoPC);
        let mut rng = SimRng::new(5);
        for home in 0..8 {
            for _ in 0..50 {
                let t = g.generate(home, &mut rng);
                assert!(t.sites.contains(&0), "home {home}: {:?}", t.sites);
                assert_eq!(t.sites[0], home);
                let set: HashSet<_> = t.sites.iter().collect();
                assert_eq!(set.len(), t.sites.len(), "distinct sites");
            }
        }
    }

    #[test]
    fn hot_site_prob_skews_site_membership() {
        let cfg = SystemConfig::paper_baseline().with_topology("hot=0.5".parse().unwrap());
        let g = WorkloadGenerator::new(&cfg, BaseProtocol::TwoPC);
        let mut rng = SimRng::new(0x5170 + seed_offset());
        let mut with_zero = 0usize;
        let rounds = 2_000;
        for _ in 0..rounds {
            let t = g.generate(3, &mut rng);
            if t.sites.contains(&0) {
                with_zero += 1;
            }
        }
        // P(site 0 in set) = hot + (1 − hot) · 2/7 ≈ 0.64 at hot = 0.5.
        let frac = with_zero as f64 / rounds as f64;
        assert!((frac - 0.643).abs() < 0.05, "site-0 fraction {frac:.3}");
    }

    #[test]
    fn zero_hot_site_prob_leaves_the_stream_untouched() {
        // A topology without a hot site must generate bit-identical
        // templates to no topology at all — the roll is skipped.
        let plain = SystemConfig::paper_baseline();
        let topo = SystemConfig::paper_baseline()
            .with_topology("regions=4,lan-ms=1,wan-ms=40".parse().unwrap());
        let ga = WorkloadGenerator::new(&plain, BaseProtocol::TwoPC);
        let gb = WorkloadGenerator::new(&topo, BaseProtocol::TwoPC);
        let mut ra = SimRng::new(9);
        let mut rb = SimRng::new(9);
        for home in 0..8 {
            assert_eq!(ga.generate(home, &mut ra), gb.generate(home, &mut rb));
        }
    }
}
