//! Per-layer probes: the public functions of the layers the engine
//! calls internally, each driven by an input stream shaped like one
//! workload's configuration.
//!
//! The engine itself is never instrumented. Instead each probe replays
//! the kind of work the engine hands a layer: a hold-model stream for
//! the calendar at the workload's pending-set size and delay mix, the
//! workload's own transaction templates through per-site lock tables
//! with immediate deadlock detection, and a job stream through a finite
//! and an infinite station. Probe inputs are seeded, so their counts
//! (requests, blocks, scans) repeat exactly for a given seed.

use distdb::config::SystemConfig;
use distdb::workload::{TxnTemplate, WorkloadGenerator};
use distlocks::deadlock::find_cycle;
use distlocks::{Grant, LockManager, LockMode, OwnerId, RequestOutcome};
use simkernel::{Calendar, JobClass, SimDuration, SimRng, SimTime, Station};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Calendar operations (one schedule or one pop) per probe.
const CALENDAR_OPS: u64 = 2_000_000;
/// Lock requests per probe.
const LOCK_REQUESTS: u64 = 300_000;
/// Templates generated (and timed as one batch) per probe.
const TEMPLATES: usize = 20_000;
/// Station jobs per probe (split between the finite and infinite one).
const STATION_JOBS: u64 = 400_000;

/// The mix of delays the engine schedules for a configuration: each
/// entry is `(weight, mean delay)`; a drawn delay is spread uniformly
/// over ±50% of its mean (±jitter for wire latencies), and a zero mean
/// is a same-instant continuation.
fn delay_mix(cfg: &SystemConfig) -> Vec<(f64, SimDuration)> {
    let mut mix = vec![
        // Zero-delay continuations dominate the engine's handlers.
        (0.5, SimDuration::ZERO),
        (0.2, cfg.page_cpu),
        (0.2, cfg.page_disk),
        (0.1, cfg.msg_cpu),
    ];
    if let Some(t) = cfg.topology {
        // A message to a uniformly chosen other site crosses regions
        // with probability (sites - sites/regions) / (sites - 1).
        let n = cfg.num_sites as f64;
        let cross = (n - n / t.regions as f64) / (n - 1.0);
        mix.push((0.25 * (1.0 - cross), t.lan_latency));
        mix.push((0.25 * cross, t.wan_latency));
    }
    if let Some(f) = cfg.failures {
        // Retransmission timers, armed on every loss-eligible message.
        mix.push((0.05, f.msg_timeout));
    }
    mix
}

fn draw(mix: &[(f64, SimDuration)], total: f64, rng: &mut SimRng) -> SimDuration {
    let mut x = rng.f64() * total;
    for &(w, d) in mix {
        if x < w {
            if d.is_zero() {
                return d;
            }
            return SimDuration((d.0 as f64 * (0.5 + rng.f64())) as u64);
        }
        x -= w;
    }
    SimDuration::ZERO
}

/// Events pending in the engine's calendar: about two per live
/// transaction (a service completion plus a message or timer).
fn pending_events(cfg: &SystemConfig) -> usize {
    2 * cfg.mpl as usize * cfg.num_sites
}

/// Hold-model replay of the calendar: keep `pending_events(cfg)`
/// events pending; each step pops the next and schedules one more at a
/// delay drawn from `delay_mix`. Returns ns per operation (a pop or a
/// schedule). The delays are drawn before timing starts.
pub fn calendar_ns_per_op(cfg: &SystemConfig, seed: u64) -> f64 {
    let mix = delay_mix(cfg);
    let total: f64 = mix.iter().map(|m| m.0).sum();
    let mut rng = SimRng::new(seed);
    let steps = CALENDAR_OPS / 2;
    let delays: Vec<SimDuration> = (0..steps).map(|_| draw(&mix, total, &mut rng)).collect();
    let mut cal: Calendar<u64> = Calendar::new();
    for i in 0..pending_events(cfg) {
        cal.schedule_in(draw(&mix, total, &mut rng), i as u64);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &d in &delays {
        let (_, e) = cal.next().expect("the hold model keeps events pending");
        acc = acc.wrapping_add(e);
        cal.schedule_in(d, e);
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64 / CALENDAR_OPS as f64
}

/// Results of the lock-table probe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LockProbe {
    /// ns per `WorkloadGenerator::generate` call.
    pub ns_per_txn: f64,
    /// ns per `LockManager::request`.
    pub ns_per_request: f64,
    /// ns per `LockManager::release_all`.
    pub ns_per_release: f64,
    /// Requests that blocked ÷ requests.
    pub blocked_frac: f64,
    /// ns per `find_cycle` scan (one per blocked request).
    pub ns_per_scan: f64,
    /// Requests made.
    pub requests: u64,
    /// Deadlocks found.
    pub deadlocks: u64,
}

/// One transaction of the lock probe.
struct Txn {
    tmpl: usize,
    /// One lock owner per cohort, at the cohort's site.
    owners: Vec<OwnerId>,
    cohort: usize,
    access: usize,
    waiting: bool,
    /// Birth order; the youngest in a cycle is the victim.
    birth: u64,
}

/// Timing accumulators of the lock probe.
#[derive(Default)]
struct Clocks {
    request_ns: u128,
    requests: u64,
    release_ns: u128,
    releases: u64,
    scan_ns: u128,
    scans: u64,
    blocked: u64,
    deadlocks: u64,
}

/// Lock-table driver: `MPL × sites` transactions, each working through
/// its template cohort by cohort, page by page, against per-site lock
/// tables. A blocked request triggers `find_cycle` over the live
/// wait-for edges; the youngest transaction in a cycle releases
/// everything and restarts its template; a finished transaction
/// releases everything and takes the next template.
struct LockDriver<'a> {
    templates: &'a [TxnTemplate],
    next_template: usize,
    tables: Vec<LockManager>,
    /// Per site: owner slot → transaction index.
    owner_txn: Vec<Vec<usize>>,
    txns: Vec<Txn>,
    next_birth: u64,
    clocks: Clocks,
}

impl<'a> LockDriver<'a> {
    fn new(cfg: &SystemConfig, templates: &'a [TxnTemplate]) -> Self {
        let pps = cfg.pages_per_site();
        let mut d = LockDriver {
            templates,
            next_template: 0,
            tables: (0..cfg.num_sites)
                .map(|_| LockManager::for_pages(false, pps))
                .collect(),
            owner_txn: vec![Vec::new(); cfg.num_sites],
            txns: Vec::new(),
            next_birth: 0,
            clocks: Clocks::default(),
        };
        for i in 0..cfg.mpl as usize * cfg.num_sites {
            let txn = d.fresh(i);
            d.txns.push(txn);
        }
        d
    }

    /// Register owners for the next template, on behalf of txn `slot`.
    fn fresh(&mut self, slot: usize) -> Txn {
        let tmpl = self.next_template;
        self.next_template = (self.next_template + 1) % self.templates.len();
        let t = &self.templates[tmpl];
        let birth = self.next_birth;
        self.next_birth += 1;
        let owners = t
            .sites
            .iter()
            .enumerate()
            .map(|(c, &site)| {
                let o = self.tables[site].register_owner(birth * 64 + c as u64);
                let map = &mut self.owner_txn[site];
                if map.len() <= o.index() {
                    map.resize(o.index() + 1, usize::MAX);
                }
                map[o.index()] = slot;
                o
            })
            .collect();
        Txn {
            tmpl,
            owners,
            cohort: 0,
            access: 0,
            waiting: false,
            birth,
        }
    }

    /// Move txn `slot` past its current access.
    fn advance(&mut self, slot: usize) {
        let t = &mut self.txns[slot];
        t.access += 1;
        if t.access == self.templates[t.tmpl].accesses[t.cohort].len() {
            t.access = 0;
            t.cohort += 1;
        }
    }

    fn grant_all(&mut self, site: usize, grants: Vec<Grant>) {
        for g in grants {
            let slot = self.owner_txn[site][g.owner.index()];
            self.txns[slot].waiting = false;
            self.advance(slot);
        }
    }

    /// Release every lock of txn `slot`; its owners stay registered.
    fn release(&mut self, slot: usize) {
        let templates = self.templates;
        let sites = &templates[self.txns[slot].tmpl].sites;
        for (c, &site) in sites.iter().enumerate() {
            let owner = self.txns[slot].owners[c];
            let t0 = Instant::now();
            let grants = self.tables[site].release_all(owner);
            self.clocks.release_ns += t0.elapsed().as_nanos();
            self.clocks.releases += 1;
            self.grant_all(site, grants);
        }
    }

    fn waits_for(&self, slot: usize) -> Vec<usize> {
        let t = &self.txns[slot];
        if !t.waiting {
            return Vec::new();
        }
        let site = self.templates[t.tmpl].sites[t.cohort];
        self.tables[site]
            .blockers_of(t.owners[t.cohort])
            .into_iter()
            .map(|o| self.owner_txn[site][o.index()])
            .collect()
    }

    fn step(&mut self, slot: usize) {
        let templates = self.templates;
        let t = &self.txns[slot];
        if t.waiting {
            return;
        }
        let tmpl = &templates[t.tmpl];
        if t.cohort == tmpl.sites.len() {
            // Commit: release, retire the owners, start the next txn.
            self.release(slot);
            for (&site, &o) in tmpl.sites.iter().zip(&self.txns[slot].owners) {
                self.tables[site].unregister(o);
            }
            self.txns[slot] = self.fresh(slot);
            return;
        }
        let site = tmpl.sites[t.cohort];
        let access = tmpl.accesses[t.cohort][t.access];
        let mode = if access.update {
            LockMode::Update
        } else {
            LockMode::Read
        };
        let owner = t.owners[t.cohort];
        let t0 = Instant::now();
        let outcome = self.tables[site].request(owner, access.page, mode);
        self.clocks.request_ns += t0.elapsed().as_nanos();
        self.clocks.requests += 1;
        if outcome != RequestOutcome::Blocked {
            self.advance(slot);
            return;
        }
        self.clocks.blocked += 1;
        self.txns[slot].waiting = true;
        // The new wait can close several cycles at once: break them one
        // victim at a time until none passes through `slot`.
        while self.txns[slot].waiting {
            let t0 = Instant::now();
            let cycle = find_cycle(slot, |s| self.waits_for(s));
            self.clocks.scan_ns += t0.elapsed().as_nanos();
            self.clocks.scans += 1;
            let Some(cycle) = cycle else { break };
            self.clocks.deadlocks += 1;
            let victim = *cycle
                .iter()
                .max_by_key(|&&s| self.txns[s].birth)
                .expect("a cycle is never empty");
            self.release(victim);
            let v = &mut self.txns[victim];
            v.waiting = false;
            v.cohort = 0;
            v.access = 0;
        }
    }
}

/// Drive the workload's own templates through per-site lock tables.
pub fn lock_probe(cfg: &SystemConfig, seed: u64) -> LockProbe {
    let wl = WorkloadGenerator::new(cfg, commitproto::BaseProtocol::TwoPC);
    let mut rng = SimRng::new(seed);
    let homes: Vec<usize> = (0..TEMPLATES)
        .map(|_| rng.uniform_usize(0, cfg.num_sites - 1))
        .collect();
    let t0 = Instant::now();
    let templates: Vec<TxnTemplate> = homes.iter().map(|&h| wl.generate(h, &mut rng)).collect();
    let gen_ns = t0.elapsed().as_nanos() as f64;
    let templates = black_box(templates);

    let mut d = LockDriver::new(cfg, &templates);
    let n = d.txns.len();
    while d.clocks.requests < LOCK_REQUESTS {
        let before = (d.clocks.requests, d.next_birth);
        for slot in 0..n {
            d.step(slot);
        }
        assert_ne!(
            before,
            (d.clocks.requests, d.next_birth),
            "lock probe stalled: {} of {n} transactions waiting",
            d.txns.iter().filter(|t| t.waiting).count()
        );
    }
    let c = &d.clocks;
    let per = |ns: u128, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    LockProbe {
        ns_per_txn: gen_ns / TEMPLATES as f64,
        ns_per_request: per(c.request_ns, c.requests),
        ns_per_release: per(c.release_ns, c.releases),
        blocked_frac: c.blocked as f64 / c.requests as f64,
        ns_per_scan: per(c.scan_ns, c.scans),
        requests: c.requests,
        deadlocks: c.deadlocks,
    }
}

/// Drive a finite station (the data disks) and an infinite one with a
/// seeded arrival stream at about 70% load, arriving and completing
/// every job. Returns ns per job (one `arrive` plus one `complete`).
pub fn station_ns_per_job(cfg: &SystemConfig, seed: u64) -> f64 {
    let units = cfg.num_data_disks.max(1);
    let service = cfg.page_disk;
    let mut rng = SimRng::new(seed);
    // Exponential gaps with mean service / (0.7 × units).
    let mean_gap = service.0 as f64 / (0.7 * units as f64);
    let gaps: Vec<u64> = (0..STATION_JOBS / 2)
        .map(|_| (-(1.0 - rng.f64()).ln() * mean_gap) as u64)
        .collect();
    let t0 = Instant::now();
    let served = drive_station(Station::finite(units), &gaps, service)
        + drive_station(Station::infinite(), &gaps, service);
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(served, STATION_JOBS, "every job completes");
    ns / STATION_JOBS as f64
}

/// Feed `gaps` as interarrival times; with a constant service time,
/// started jobs complete in start order, so a FIFO of completion
/// instants is an exact event list.
fn drive_station(mut st: Station<u32>, gaps: &[u64], service: SimDuration) -> u64 {
    let mut done: VecDeque<SimTime> = VecDeque::new();
    let mut now = SimTime::ZERO;
    for (i, &gap) in gaps.iter().enumerate() {
        let arrival = SimTime(now.0 + gap);
        while let Some(&t) = done.front().filter(|&&t| t <= arrival) {
            done.pop_front();
            if let Some(s) = st.complete(t) {
                done.push_back(s.done_at);
            }
        }
        now = arrival;
        let class = if i % 4 == 0 {
            JobClass::High
        } else {
            JobClass::Low
        };
        if let Some(s) = st.arrive(now, i as u32, service, class) {
            done.push_back(s.done_at);
        }
    }
    while let Some(t) = done.pop_front() {
        if let Some(s) = st.complete(t) {
            done.push_back(s.done_at);
        }
    }
    st.served()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_mix_adds_wire_delays_and_faulty_mix_adds_timers() {
        let base = SystemConfig::paper_baseline();
        assert_eq!(delay_mix(&base).len(), 4);
        let wan = crate::workloads::wan_config();
        let mix = delay_mix(&wan);
        assert_eq!(mix.len(), 6);
        // 48 of the 63 other sites sit in another of the 4 regions.
        assert!((mix[5].0 / 0.25 - 48.0 / 63.0).abs() < 1e-12);
        assert_eq!(delay_mix(&crate::workloads::faults_config(0)).len(), 5);
    }

    #[test]
    fn lock_probe_is_deterministic_and_blocks_under_zipf() {
        let cfg = crate::workloads::wan_config();
        let a = lock_probe(&cfg, 7);
        let b = lock_probe(&cfg, 7);
        assert_eq!((a.requests, a.deadlocks), (b.requests, b.deadlocks));
        assert!(a.blocked_frac > 0.0 && a.blocked_frac < 1.0);
        let flat = lock_probe(&SystemConfig::paper_baseline().with_mpl(5), 7);
        assert!(flat.blocked_frac < a.blocked_frac);
    }

    #[test]
    fn station_serves_every_job() {
        // The assertion inside checks the count.
        assert!(station_ns_per_job(&SystemConfig::paper_baseline(), 3) > 0.0);
    }
}
