//! System configuration — Table 1 of the paper, plus run control.

use commitproto::{ProtocolSpec, Routing};
use simkernel::SimDuration;
use std::fmt;

/// Whether cohorts of a transaction run one-after-another or all at
/// once (§4.1: "cohorts in a sequential transaction execute one after
/// another, whereas cohorts in a parallel transaction are started
/// together and execute independently until commit time").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransType {
    /// All cohorts started together (the paper's default in §5.2–5.7).
    Parallel,
    /// Cohorts execute one after another (§5.8).
    Sequential,
}

/// Physical-resource regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceMode {
    /// Normal queueing at CPUs and disks (RC + DC experiments).
    Finite,
    /// "Infinite" resources: service times elapse but nothing ever
    /// queues — isolates pure data contention (DC experiments, §5.3).
    Infinite,
}

/// Parse `val` as a duration in milliseconds, rounded to the nearest
/// microsecond. Every user-supplied millisecond input goes through
/// here: the CLI's `*-ms` flags and the `*-ms` keys of
/// [`Topology`]'s and [`FailureConfig`]'s `FromStr`. Negative, NaN,
/// infinite and out-of-range values are errors naming `key`.
///
/// ```
/// use distdb::config::parse_millis;
/// assert_eq!(parse_millis("wan-ms", "40").unwrap().as_micros(), 40_000);
/// assert!(parse_millis("wan-ms", "-5").unwrap_err().starts_with("wan-ms:"));
/// assert!(parse_millis("wan-ms", "nan").is_err());
/// assert!(parse_millis("wan-ms", "1e30").is_err());
/// ```
///
/// # Errors
/// A message naming `key` when `val` is not a number, or is a number
/// that [`SimDuration::try_from_millis_f64`] rejects.
pub fn parse_millis(key: &str, val: &str) -> Result<SimDuration, String> {
    SimDuration::try_from_millis_f64(num(key, val)?).ok_or_else(|| {
        format!(
            "{key}: {val:?} is not a finite, non-negative duration the microsecond clock can hold"
        )
    })
}

/// Parse `val` as a `T`, or say which `key` it could not be.
fn num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("{key}: cannot parse {val:?}"))
}

/// One key of a comma-separated `key=value` spec, the form that
/// [`FailureConfig`]'s and [`Topology`]'s `FromStr` parse: its name and
/// value shape, its help text and what it sets. Each key is named in
/// one row, which the parser, its unknown-key error and the CLI usage
/// text all read.
pub struct Key<T> {
    /// `name=SHAPE`, as the CLI usage lists it.
    pub key: &'static str,
    /// What the key sets; defaults in parentheses.
    pub help: &'static str,
    /// Set the field from `(target, name, value)`.
    set: fn(&mut T, &str, &str) -> Result<(), String>,
}

impl<T> Key<T> {
    /// The bare key name, before the `=`.
    pub fn name(&self) -> &'static str {
        self.key.split_once('=').map_or(self.key, |(name, _)| name)
    }
}

/// A [`Key`] row whose setter body is one assignment.
macro_rules! key {
    ($key:literal, $help:literal, |$t:ident, $k:ident, $v:ident| $set:expr) => {
        Key {
            key: $key,
            help: $help,
            set: |$t, $k, $v| {
                $set;
                Ok(())
            },
        }
    };
}

/// Parse a comma-separated `key=value` spec over `T::default()`;
/// unspecified keys keep their defaults.
fn parse_keys<T: Default>(s: &str, keys: &[Key<T>]) -> Result<T, String> {
    let mut t = T::default();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let Some((name, val)) = part.split_once('=') else {
            return Err(format!("expected key=value, got {part:?}"));
        };
        let Some(key) = keys.iter().find(|k| k.name() == name) else {
            let names: Vec<&str> = keys.iter().map(Key::name).collect();
            return Err(format!("unknown key {name:?} ({})", names.join(", ")));
        };
        (key.set)(&mut t, name, val)?;
    }
    Ok(t)
}

/// Fault injection (an extension beyond the paper's no-failure
/// experiments, quantifying §2.4's blocking argument).
///
/// Three fault classes, each driven by the run's deterministic
/// [`simkernel::SimRng`] so a fault schedule is replayable from the
/// seed:
///
/// **Master crashes.** With probability `master_crash_prob`, a master
/// process crashes at its commit point — after collecting votes (and,
/// for 3PC, the precommit round), before announcing the decision. This
/// is the classic blocking window:
///
/// * **blocking protocols** (2PC, PA, PC): the prepared cohorts hold
///   their update locks until the master recovers `recovery_time`
///   later — "cascading blocking" spreads from those locks;
/// * **3PC**: after `detection_timeout` the surviving cohorts elect the
///   lowest-site cohort as coordinator, exchange state, and terminate
///   the transaction themselves (all cohorts are precommitted at this
///   crash point, so the termination rule decides commit).
///
/// **Cohort crashes.** With probability `cohort_crash_prob`, a cohort
/// crashes right after forcing its prepare (or precommit) record,
/// before its vote (or precommit ack) reaches the master. The master
/// waits — it cannot unilaterally decide with a vote outstanding —
/// and `cohort_recovery_time` later the cohort restarts, replays its
/// last forced log record, and rejoins the protocol per the
/// protocol's recovery rule (see `BaseProtocol::recovery_action` in
/// `crates/protocols`): a prepared cohort re-sends its YES vote, a
/// precommitted 3PC cohort re-sends its precommit ack.
///
/// The same die is also rolled once per cohort in the *execution*
/// phase, as the cohort finishes its work but before its WORKDONE
/// leaves. Nothing is on stable storage at that point, so recovery
/// presumes abort and the whole transaction restarts (counted as
/// `aborted_crash` in the report). `exec_crash_prob` tunes this
/// window independently — `Some(0.0)` pins crashes to the replay
/// points only, `None` follows `cohort_crash_prob`.
///
/// **Message loss.** With probability `msg_loss_prob`, a remote
/// commit-choreography message is lost in transit — in *either*
/// direction: the master's requests (PREPARE, PRECOMMIT, the
/// decision) and the cohorts' replies (WORKDONE, votes, precommit
/// acks, ACKs) all roll the same loss die. Each request arms an
/// end-to-end timer on the requesting side (the cohort owns the
/// WORKDONE timer); it refires every `msg_timeout` until the awaited
/// reply is receipted, so a repeated request also re-elicits a reply
/// whose first copy was the lost leg. After `max_retransmits`
/// attempts the transfer escalates to a reliable out-of-band path
/// (modelling the cooperative termination protocol / operator
/// recovery) — the escalated attempt and its reply are loss-exempt —
/// so the run always terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureConfig {
    /// Probability that a committing master crashes at its decision
    /// point.
    pub master_crash_prob: f64,
    /// Time for the cohorts to detect the crash and start the 3PC
    /// termination protocol.
    pub detection_timeout: SimDuration,
    /// Time until a crashed master recovers and resumes the protocol
    /// (blocking protocols wait this long).
    pub recovery_time: SimDuration,
    /// Probability that a cohort crashes right after forcing its
    /// prepare (or, for 3PC, precommit) record, before answering the
    /// master.
    pub cohort_crash_prob: f64,
    /// Time until a crashed cohort restarts and replays its log.
    pub cohort_recovery_time: SimDuration,
    /// Probability of the execution-phase crash window (cohort dies
    /// before its WORKDONE; recovery presumes abort and the
    /// transaction restarts). `None` follows `cohort_crash_prob`.
    pub exec_crash_prob: Option<f64>,
    /// Probability that a remote commit-choreography message — a
    /// master request (PREPARE / PRECOMMIT / decision) or a cohort
    /// reply (WORKDONE / vote / precommit ack / ACK) — is lost in
    /// transit.
    pub msg_loss_prob: f64,
    /// Sender-side timeout before a loss-eligible message is
    /// retransmitted.
    pub msg_timeout: SimDuration,
    /// Retransmissions attempted before escalating to the reliable
    /// out-of-band path.
    pub max_retransmits: u32,
    /// Restrict *cohort* crashes to sites of one topology region —
    /// the correlated-failure model (a WAN region losing power takes
    /// down every cohort it hosts, while remote regions stay up).
    /// Requires a [`Topology`]; `None` lets every site roll the
    /// cohort-crash die.
    pub crash_region: Option<usize>,
}

impl FailureConfig {
    /// The `key=value` vocabulary of [`std::str::FromStr`] (the CLI's
    /// `--faults`). Defaults in parentheses are those of
    /// [`FailureConfig::default`].
    #[rustfmt::skip]
    pub const KEYS: [Key<Self>; 10] = [
        key!("mc=P", "master crash probability", |f, k, v| f.master_crash_prob = num(k, v)?),
        key!("cc=P", "cohort crash probability", |f, k, v| f.cohort_crash_prob = num(k, v)?),
        key!("exec-cc=P", "execution-phase cohort crash probability (follows cc)",
             |f, k, v| f.exec_crash_prob = Some(num(k, v)?)),
        key!("loss=P", "message loss probability", |f, k, v| f.msg_loss_prob = num(k, v)?),
        key!("detect-ms=MS", "3PC crash-detection timeout (300)",
             |f, k, v| f.detection_timeout = parse_millis(k, v)?),
        key!("recover-ms=MS", "master recovery time (5000)",
             |f, k, v| f.recovery_time = parse_millis(k, v)?),
        key!("cohort-recover-ms=MS", "cohort recovery time (1000)",
             |f, k, v| f.cohort_recovery_time = parse_millis(k, v)?),
        key!("retry-ms=MS", "retransmission timeout (100)",
             |f, k, v| f.msg_timeout = parse_millis(k, v)?),
        key!("retries=N", "max retransmissions (3)", |f, k, v| f.max_retransmits = num(k, v)?),
        key!("crash-region=R", "confine cohort crashes to topology region R",
             |f, k, v| f.crash_region = Some(num(k, v)?)),
    ];

    /// Master crashes only, matching the pre-existing single-fault
    /// model: crash probability `p`, 300 ms detection timeout, 5 s
    /// recovery. Cohort-crash and message-loss probabilities are zero.
    pub fn master_crashes(p: f64) -> Self {
        FailureConfig {
            master_crash_prob: p,
            ..Self::default()
        }
    }
}

impl std::str::FromStr for FailureConfig {
    type Err = String;

    /// Parse a comma-separated `key=value` failure specification over
    /// [`FailureConfig::default`] — the format the CLI's `--faults`
    /// flag takes. Keys are listed in [`FailureConfig::KEYS`];
    /// unspecified keys keep their defaults.
    ///
    /// ```
    /// use distdb::config::FailureConfig;
    /// let f: FailureConfig = "mc=0.01,loss=0.02,retries=2".parse().unwrap();
    /// assert_eq!(f.master_crash_prob, 0.01);
    /// assert_eq!(f.max_retransmits, 2);
    /// assert_eq!(f.cohort_crash_prob, 0.0); // default preserved
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_keys(s, &Self::KEYS)
    }
}

impl Default for FailureConfig {
    /// All fault probabilities zero, with the timing constants used
    /// throughout the failure test suite: 300 ms detection timeout,
    /// 5 s master recovery, 1 s cohort recovery, 100 ms message
    /// timeout, 3 retransmissions.
    fn default() -> Self {
        FailureConfig {
            master_crash_prob: 0.0,
            detection_timeout: SimDuration::from_millis(300),
            recovery_time: SimDuration::from_secs(5),
            cohort_crash_prob: 0.0,
            cohort_recovery_time: SimDuration::from_secs(1),
            exec_crash_prob: None,
            msg_loss_prob: 0.0,
            msg_timeout: SimDuration::from_millis(100),
            max_retransmits: 3,
            crash_region: None,
        }
    }
}

/// Skewed ("hot spot") page access, the classic b–c rule: a fraction
/// `access_fraction` of accesses target the first `data_fraction` of
/// each site's pages (e.g. 0.8/0.2 for an 80–20 workload). `None`
/// reproduces the paper's uniform accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSpot {
    /// Fraction of each site's pages forming the hot region (0, 1).
    pub data_fraction: f64,
    /// Fraction of accesses that hit the hot region (0, 1).
    pub access_fraction: f64,
}

/// Zipf-skewed page access: within a site, page rank `k` (0-based) is
/// drawn with probability ∝ `1 / (k + 1)^theta`. `theta = 0` is
/// uniform; production key distributions are typically quoted around
/// `theta ≈ 0.8–1.2`. Mutually exclusive with [`HotSpot`] — both
/// model skew, one rule at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    /// Skew exponent θ ≥ 0.
    pub theta: f64,
}

impl Zipf {
    /// Least access mass validation admits outside a cohort's most
    /// likely pages. A cohort draws distinct pages by rejection, so its
    /// last draw takes about `1 / mass` tries: the floor caps that near
    /// 10^5 (θ ≤ 5 at the baseline's 1000 pages/site and 9-page cohorts).
    const TAIL_FLOOR: f64 = 1e-5;

    /// An upper bound on the probability mass outside the `m` most
    /// likely of `n` ranks, in O(m). The head sum is exact; the tail
    /// `Σ_{k=m+1..n} k^-θ` is at most `∫_{m+1/2}^{n+1/2} x^-θ dx`,
    /// because `x^-θ` is convex and so each term is at most its
    /// unit-interval integral.
    fn tail_mass(&self, n: u64, m: u64) -> f64 {
        if m >= n {
            return 0.0;
        }
        let head: f64 = (1..=m).map(|k| (k as f64).powf(-self.theta)).sum();
        let (a, b) = (m as f64 + 0.5, n as f64 + 0.5);
        let s = 1.0 - self.theta;
        let log_ratio = (b / a).ln();
        let tail = if s == 0.0 {
            log_ratio
        } else {
            a.powf(s) * (s * log_ratio).exp_m1() / s
        };
        tail / (head + tail)
    }
}

/// Site-pair wire topology: sites are partitioned into contiguous
/// regions; messages inside a region travel at the LAN latency class,
/// messages between regions at the WAN class, each with a per-pair
/// deterministic jitter. The degenerate default (1 region, zero
/// latencies) reproduces the paper's instantaneous-switch network
/// exactly — same event sequence, byte-identical reports.
///
/// Wire latency is pure in-flight delay: it adds no messages and no
/// CPU cost, so the Tables 3–4 per-commit overhead counts are
/// unchanged under any topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of regions; sites are split into contiguous blocks
    /// (`region_of` is a pure function of the site index, independent
    /// of the seed).
    pub regions: usize,
    /// One-way wire latency between sites of the same region.
    pub lan_latency: SimDuration,
    /// One-way wire latency between sites of different regions.
    pub wan_latency: SimDuration,
    /// Per-pair latency jitter: each unordered site pair scales its
    /// class mean by a factor drawn uniformly from
    /// `[1 − jitter, 1 + jitter]`, fixed for the whole run.
    pub jitter: f64,
    /// Probability that a distributed transaction's remote cohort set
    /// is forced to include site 0 — the "hot site" that concentrates
    /// mastership traffic (0 disables).
    pub hot_site_prob: f64,
}

impl Default for Topology {
    /// Degenerate flat network: 1 region, zero latencies, no jitter,
    /// no hot site — byte-identical to no topology at all.
    fn default() -> Self {
        Topology {
            regions: 1,
            lan_latency: SimDuration::ZERO,
            wan_latency: SimDuration::ZERO,
            jitter: 0.0,
            hot_site_prob: 0.0,
        }
    }
}

impl Topology {
    /// The `key=value` vocabulary of [`std::str::FromStr`] (the CLI's
    /// `--topology`). Defaults in parentheses.
    #[rustfmt::skip]
    pub const KEYS: [Key<Self>; 5] = [
        key!("regions=N", "number of contiguous site regions (1)",
             |t, k, v| t.regions = num(k, v)?),
        key!("lan-ms=MS", "intra-region one-way wire latency (0)",
             |t, k, v| t.lan_latency = parse_millis(k, v)?),
        key!("wan-ms=MS", "inter-region one-way wire latency (0)",
             |t, k, v| t.wan_latency = parse_millis(k, v)?),
        key!("jitter=F", "per-pair latency jitter fraction in [0,1) (0)",
             |t, k, v| t.jitter = num(k, v)?),
        key!("hot=P", "probability a txn's cohort set includes site 0 (0)",
             |t, k, v| t.hot_site_prob = num(k, v)?),
    ];

    /// Region of `site` among `num_sites`: contiguous blocks, first
    /// regions padded when the division is uneven. Pure arithmetic —
    /// no seed involved — so region assignment can never drift between
    /// the workload generator, the engine, and the reports.
    pub fn region_of(&self, site: usize, num_sites: usize) -> usize {
        debug_assert!(site < num_sites);
        site * self.regions / num_sites
    }

    /// Build the symmetric `num_sites × num_sites` wire-latency matrix
    /// (row-major, diagonal zero). Jitter factors are drawn per
    /// unordered pair from a dedicated RNG stream derived from `seed`,
    /// independent of the engine's main stream — adding a topology
    /// never perturbs workload or fault draws.
    pub fn latency_matrix(&self, num_sites: usize, seed: u64) -> Vec<SimDuration> {
        // Stream tag "TOPO", disjoint from every cell_seed stream.
        let mut rng = simkernel::SimRng::new(simkernel::mix_seed(seed, 0x544f_504f, 0, 0));
        let mut m = vec![SimDuration::ZERO; num_sites * num_sites];
        for i in 0..num_sites {
            for j in (i + 1)..num_sites {
                let base = if self.region_of(i, num_sites) == self.region_of(j, num_sites) {
                    self.lan_latency
                } else {
                    self.wan_latency
                };
                let lat = if self.jitter > 0.0 {
                    let f = 1.0 - self.jitter + 2.0 * self.jitter * rng.f64();
                    SimDuration::from_micros((base.as_micros() as f64 * f).round() as u64)
                } else {
                    base
                };
                m[i * num_sites + j] = lat;
                m[j * num_sites + i] = lat;
            }
        }
        m
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    /// Parse a comma-separated `key=value` topology specification over
    /// [`Topology::default`] — the format the CLI's `--topology` flag
    /// takes. Keys are listed in [`Topology::KEYS`]; unspecified
    /// keys keep their defaults.
    ///
    /// ```
    /// use distdb::config::Topology;
    /// let t: Topology = "regions=4,wan-ms=40,jitter=0.1".parse().unwrap();
    /// assert_eq!(t.regions, 4);
    /// assert_eq!(t.wan_latency.as_micros(), 40_000);
    /// assert_eq!(t.hot_site_prob, 0.0); // default preserved
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_keys(s, &Self::KEYS)
    }
}

/// How long an aborted transaction waits before its restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// The paper's heuristic (§4): "the length of the delay is equal to
    /// the average transaction response time" — an adaptive backoff
    /// that throttles data contention as the system loads up.
    AdaptiveResponseTime,
    /// A fixed delay (for ablations of the heuristic).
    Fixed(SimDuration),
    /// Restart immediately (no backoff at all).
    Immediate,
}

/// Run-length control for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Transactions committed before statistics start (steady-state
    /// warm-up).
    pub warmup_transactions: u64,
    /// Transactions committed inside the measurement window. The paper
    /// runs "until at least 50 000 transactions were processed";
    /// `distcommit experiment` defaults much lower and offers `--full`.
    pub measured_transactions: u64,
    /// Batches for the batch-means throughput confidence interval.
    pub batches: u64,
    /// Hard safety cap on simulated time (a thrashing configuration
    /// might otherwise take unbounded wall-clock time to commit the
    /// requested count). `None` disables the cap. A run that hits it
    /// reports [`crate::metrics::SimReport::truncated`].
    pub max_sim_time: Option<simkernel::SimTime>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_transactions: 500,
            measured_transactions: 5_000,
            batches: 10,
            max_sim_time: Some(simkernel::SimTime::from_secs(40_000)),
        }
    }
}

/// The full parameter set of the simulation model (Table 1) plus the
/// experiment toggles introduced in §5.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// `NumSites` — number of sites in the database.
    pub num_sites: usize,
    /// `DBSize` — number of pages in the database (total, uniformly
    /// distributed across sites).
    pub db_size: u64,
    /// `MPL` — transaction multiprogramming level per site.
    pub mpl: u32,
    /// `TransType` — sequential or parallel cohort execution.
    pub trans_type: TransType,
    /// `DistDegree` — number of cohorts per transaction (master site
    /// included).
    pub dist_degree: u32,
    /// `CohortSize` — mean pages accessed per cohort; actual counts
    /// are uniform over `[0.5, 1.5] × CohortSize`.
    pub cohort_size: u32,
    /// `UpdateProb` — probability that an accessed page is updated.
    pub update_prob: f64,
    /// Optional access skew; `None` (the paper's setting) draws pages
    /// uniformly.
    pub hot_spot: Option<HotSpot>,
    /// Optional Zipf(θ) access skew; mutually exclusive with
    /// `hot_spot`. `None` (the paper's setting) draws pages uniformly.
    pub zipf: Option<Zipf>,
    /// Optional site-pair wire topology (LAN/WAN latency classes,
    /// regions, hot site). `None` reproduces the paper's
    /// instantaneous-switch network.
    pub topology: Option<Topology>,
    /// `NumCPUs` — processors per site (single shared queue).
    pub num_cpus: u32,
    /// `NumDataDisks` — data disks per site (one queue each).
    pub num_data_disks: u32,
    /// `NumLogDisks` — log disks per site (one queue each).
    pub num_log_disks: u32,
    /// `PageCPU` — CPU time to process one data page.
    pub page_cpu: SimDuration,
    /// `PageDisk` — disk time for one page access (also the cost of a
    /// forced log write, §4.3).
    pub page_disk: SimDuration,
    /// `MsgCPU` — CPU time to send *or* receive one message.
    pub msg_cpu: SimDuration,
    /// Finite (RC+DC) or infinite (pure DC) resources.
    pub resources: ResourceMode,
    /// Probability that a cohort votes NO on PREPARE ("surprise
    /// aborts", §5.7). 0 in the baseline experiments.
    pub cohort_abort_prob: f64,
    /// Master-failure injection; `None` reproduces the paper's
    /// no-failure experiments.
    pub failures: Option<FailureConfig>,
    /// Restart backoff for aborted transactions (the paper uses the
    /// adaptive mean-response-time heuristic; the alternatives exist
    /// for the ablation benchmarks).
    pub restart_policy: RestartPolicy,
    /// Group commit (§3.2): when `Some(k)`, each log disk serves up to
    /// `k` queued forced writes together in a single `PageDisk`
    /// service, "batched together to save on disk I/O". Individual
    /// writes may wait for the batch in front of them, so this trades
    /// latency for log throughput — and lengthens the prepared state,
    /// which is exactly where OPT lending helps (§3.2 notes OPT is
    /// "especially attractive" combined with group commit). Ignored
    /// under infinite resources (nothing ever queues there).
    pub group_commit_batch: Option<u32>,
    /// Enable the Read-Only commit optimization (§3.2): a cohort that
    /// updated nothing answers PREPARE with a READ vote, releases its
    /// locks, forces no records and drops out of phase two; a
    /// transaction whose cohorts are all read-only commits in one
    /// phase. Off in the paper's experiments (its workloads are fully
    /// update-oriented).
    pub read_only_optimization: bool,
    /// Charge the asynchronous post-commit writes of updated pages to
    /// the data disks (§4.1 says the writes happen asynchronously after
    /// commit; this flag controls whether their disk time is modeled).
    pub model_deferred_writes: bool,
    /// Replication degree F for the replicated commit family (Paxos
    /// Commit / replicated-coordinator 2PC): each transaction's
    /// decision is maintained by a group of 2F+1 replicas on
    /// consecutive sites starting at the master's, tolerating F
    /// simultaneous replica failures. 0 — the classic single-copy
    /// protocols — degenerates Paxos Commit to plain 2PC. Ignored by
    /// (and rejected for) non-replicated protocols when positive.
    pub replication: u32,
    /// Run-length control.
    pub run: RunConfig,
}

impl SystemConfig {
    /// The reconstructed Table 2 baseline (see DESIGN.md §2.1): 8
    /// sites, 1000 pages/site, parallel transactions over 3 sites with
    /// 6 pages per cohort, all updates, 1 CPU + 2 data disks + 1 log
    /// disk per site, `PageCPU` 5 ms, `PageDisk` 20 ms, `MsgCPU` 5 ms.
    ///
    /// `DBSize` is calibrated so that the data-contention knee falls at
    /// MPL ≈ 4–5 exactly as in the paper's figures, with the system
    /// I/O-bound but "not heavily" (§5.2) so message CPU costs matter.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            num_sites: 8,
            db_size: 8_000,
            mpl: 4,
            trans_type: TransType::Parallel,
            dist_degree: 3,
            cohort_size: 6,
            update_prob: 1.0,
            hot_spot: None,
            zipf: None,
            topology: None,
            num_cpus: 1,
            num_data_disks: 2,
            num_log_disks: 1,
            page_cpu: SimDuration::from_millis(5),
            page_disk: SimDuration::from_millis(20),
            msg_cpu: SimDuration::from_millis(5),
            resources: ResourceMode::Finite,
            cohort_abort_prob: 0.0,
            failures: None,
            restart_policy: RestartPolicy::AdaptiveResponseTime,
            group_commit_batch: None,
            read_only_optimization: false,
            model_deferred_writes: false,
            replication: 0,
            run: RunConfig::default(),
        }
    }

    /// The pure data-contention variant of the baseline (§5.3):
    /// identical except resources are infinite.
    pub fn pure_data_contention() -> Self {
        SystemConfig {
            resources: ResourceMode::Infinite,
            ..Self::paper_baseline()
        }
    }

    /// Experiment 4's higher degree of distribution (§5.5): 6 cohorts
    /// of 3 pages each, keeping the 18-page mean transaction length.
    pub fn higher_distribution(&self) -> Self {
        SystemConfig {
            dist_degree: 6,
            cohort_size: 3,
            ..self.clone()
        }
    }

    /// Experiment 3's fast network interface (§5.4): `MsgCPU` = 1 ms.
    pub fn fast_network(&self) -> Self {
        SystemConfig {
            msg_cpu: SimDuration::from_millis(1),
            ..self.clone()
        }
    }

    /// Set the multiprogramming level. Chainable builder form of the
    /// public `mpl` field, for config pipelines that start from a
    /// preset: `SystemConfig::paper_baseline().with_mpl(4)`.
    #[must_use]
    pub fn with_mpl(mut self, mpl: u32) -> Self {
        self.mpl = mpl;
        self
    }

    /// Set the run length: `warmup` transactions before statistics
    /// start, then `measured` transactions in the measurement window.
    #[must_use]
    pub fn with_run_length(mut self, warmup: u64, measured: u64) -> Self {
        self.run.warmup_transactions = warmup;
        self.run.measured_transactions = measured;
        self
    }

    /// Set the database size in pages (spread uniformly across sites).
    #[must_use]
    pub fn with_db_size(mut self, pages: u64) -> Self {
        self.db_size = pages;
        self
    }

    /// Enable the failure model with the given fault configuration.
    #[must_use]
    pub fn with_failures(mut self, failures: FailureConfig) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Set the cohort surprise NO-vote probability (§5.7).
    #[must_use]
    pub fn with_cohort_abort_prob(mut self, p: f64) -> Self {
        self.cohort_abort_prob = p;
        self
    }

    /// Set the number of data disks per site.
    #[must_use]
    pub fn with_data_disks(mut self, n: u32) -> Self {
        self.num_data_disks = n;
        self
    }

    /// Enable Zipf(θ) page-access skew.
    #[must_use]
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.zipf = Some(Zipf { theta });
        self
    }

    /// Install a site-pair wire topology.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Set the replication degree F (2F+1 decision replicas per
    /// transaction) for the replicated commit family.
    #[must_use]
    pub fn with_replication(mut self, f: u32) -> Self {
        self.replication = f;
        self
    }

    /// Pages per site (`DBSize / NumSites`; validation requires the
    /// division to be exact).
    pub fn pages_per_site(&self) -> u64 {
        self.db_size / self.num_sites as u64
    }

    /// Largest possible cohort access-list length, `1.5 * cohort_size`
    /// rounded down (in `u64`, so no `cohort_size` wraps it).
    pub fn max_cohort_pages(&self) -> u64 {
        (u64::from(self.cohort_size) * 3 / 2).max(1)
    }

    /// The most pages validation lets one cohort access, far above
    /// every preset's largest cohort of 9 pages. At 2^16 a cohort's
    /// access list stays within 1 MiB (16-byte entries), and the Zipf
    /// tail check, one `powf` per page of a cohort, within milliseconds.
    const MAX_COHORT_PAGES: u64 = 1 << 16;

    /// The most sites validation admits, 16 times the largest preset's
    /// 256. Every site carries its own stations, lock table and log,
    /// and a topology keeps an n² wire-latency matrix of 8-byte entries:
    /// 128 MiB at 2^12 sites.
    const MAX_SITES: usize = 1 << 12;

    /// The most pages validation admits across all sites, over 200
    /// times the 1.2 M of `measured_overheads` at d = 6, the largest
    /// built-in run. The lock tables' page index keeps 4 bytes per
    /// page slot: 1 GiB at 2^28 pages.
    const MAX_DB_SIZE: u64 = 1 << 28;

    /// The most pages per site Zipf skew admits, over 16 000 times the
    /// largest preset's 1 000. Its alias tables take about 39 bytes per
    /// page while they build: about 650 MB at 2^24 pages.
    const MAX_ZIPF_PAGES_PER_SITE: u64 = 1 << 24;

    /// The most page accesses validation lets the closed system hold in
    /// flight (`mpl * num_sites * dist_degree * max_cohort_pages`), 600
    /// times the largest preset's 27 648. Each is a 16-byte template
    /// entry, plus its share of the initial calendar and slabs: 256 MiB
    /// of entries at 2^24.
    const MAX_ACCESSES_IN_FLIGHT: u64 = 1 << 24;

    /// Check the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError::*;
        if self.num_sites == 0 {
            return Err(Invalid("num_sites must be positive"));
        }
        if self.mpl == 0 {
            return Err(Invalid("mpl must be positive"));
        }
        if self.dist_degree == 0 {
            return Err(Invalid("dist_degree must be positive"));
        }
        if self.dist_degree as usize > self.num_sites {
            return Err(Invalid("dist_degree cannot exceed num_sites"));
        }
        if self.cohort_size == 0 {
            return Err(Invalid("cohort_size must be positive"));
        }
        if !self.db_size.is_multiple_of(self.num_sites as u64) {
            return Err(Invalid("db_size must divide evenly across sites"));
        }
        if self.pages_per_site() < self.max_cohort_pages() {
            return Err(Invalid("a site must hold at least 1.5 * cohort_size pages"));
        }
        if self.max_cohort_pages() > Self::MAX_COHORT_PAGES {
            return Err(Invalid(
                "cohort_size too large: a cohort may access at most 65536 pages",
            ));
        }
        if self.num_sites > Self::MAX_SITES {
            return Err(Invalid("num_sites too large: at most 4096 sites"));
        }
        if self.db_size > Self::MAX_DB_SIZE {
            return Err(Invalid("db_size too large: at most 2^28 pages"));
        }
        if self.zipf.is_some() && self.pages_per_site() > Self::MAX_ZIPF_PAGES_PER_SITE {
            return Err(Invalid("zipf skew supports at most 2^24 pages per site"));
        }
        let in_flight = u64::from(self.mpl)
            .saturating_mul(self.num_sites as u64)
            .saturating_mul(u64::from(self.dist_degree))
            .saturating_mul(self.max_cohort_pages());
        if in_flight > Self::MAX_ACCESSES_IN_FLIGHT {
            return Err(Invalid(
                "too many accesses in flight: mpl * num_sites * dist_degree * \
                 1.5 * cohort_size may be at most 2^24",
            ));
        }
        if !(0.0..=1.0).contains(&self.update_prob) {
            return Err(Invalid("update_prob must be a probability"));
        }
        if !(0.0..=1.0).contains(&self.cohort_abort_prob) {
            return Err(Invalid("cohort_abort_prob must be a probability"));
        }
        if self.num_cpus == 0 || self.num_data_disks == 0 || self.num_log_disks == 0 {
            return Err(Invalid(
                "each site needs at least one CPU, data disk and log disk",
            ));
        }
        if self.group_commit_batch == Some(0) {
            return Err(Invalid("group commit batch size must be positive"));
        }
        if let Some(h) = &self.hot_spot {
            if !(h.data_fraction > 0.0 && h.data_fraction < 1.0) {
                return Err(Invalid("hot-spot data_fraction must be in (0, 1)"));
            }
            if !(h.access_fraction > 0.0 && h.access_fraction < 1.0) {
                return Err(Invalid("hot-spot access_fraction must be in (0, 1)"));
            }
            let hot_pages = (self.pages_per_site() as f64 * h.data_fraction) as u64;
            if hot_pages < self.max_cohort_pages() {
                return Err(Invalid(
                    "hot region too small to hold one cohort's accesses",
                ));
            }
        }
        if let Some(z) = &self.zipf {
            if self.hot_spot.is_some() {
                return Err(Invalid("zipf and hot-spot skew are mutually exclusive"));
            }
            if !z.theta.is_finite() || z.theta < 0.0 {
                return Err(Invalid("zipf theta must be finite and non-negative"));
            }
            // Counting `max_cohort_pages` ranks, not one fewer, also
            // covers CENT's transaction-wide distinct draw.
            if z.tail_mass(self.pages_per_site(), self.max_cohort_pages()) < Zipf::TAIL_FLOOR {
                return Err(Invalid(
                    "zipf theta too large: under 1e-5 of the accesses fall outside a \
                     cohort's most likely pages, so distinct-page draws would stall",
                ));
            }
        }
        if let Some(t) = &self.topology {
            if t.regions == 0 {
                return Err(Invalid("topology regions must be positive"));
            }
            if t.regions > self.num_sites {
                return Err(Invalid("topology regions cannot exceed num_sites"));
            }
            if !(0.0..1.0).contains(&t.jitter) {
                return Err(Invalid("topology jitter must be in [0, 1)"));
            }
            if !(0.0..=1.0).contains(&t.hot_site_prob) {
                return Err(Invalid(
                    "topology hot-site probability must be a probability",
                ));
            }
        }
        if let Some(f) = &self.failures {
            if !(0.0..=1.0).contains(&f.master_crash_prob) {
                return Err(Invalid("master_crash_prob must be a probability"));
            }
            if f.recovery_time.is_zero() {
                return Err(Invalid("recovery_time must be positive"));
            }
            if !(0.0..=1.0).contains(&f.cohort_crash_prob) {
                return Err(Invalid("cohort_crash_prob must be a probability"));
            }
            if f.exec_crash_prob.is_some_and(|p| !(0.0..=1.0).contains(&p)) {
                return Err(Invalid("exec_crash_prob must be a probability"));
            }
            if f.cohort_crash_prob > 0.0 && f.cohort_recovery_time.is_zero() {
                return Err(Invalid("cohort_recovery_time must be positive"));
            }
            if !(0.0..=1.0).contains(&f.msg_loss_prob) {
                return Err(Invalid("msg_loss_prob must be a probability"));
            }
            if f.msg_loss_prob > 0.0 && f.msg_timeout.is_zero() {
                return Err(Invalid("msg_timeout must be positive"));
            }
            if let Some(r) = f.crash_region {
                let Some(t) = &self.topology else {
                    return Err(Invalid("crash-region requires a topology"));
                };
                if r >= t.regions {
                    return Err(Invalid("crash-region must name an existing region"));
                }
            }
        }
        if self.run.measured_transactions == 0 {
            return Err(Invalid("measured_transactions must be positive"));
        }
        if self
            .run
            .warmup_transactions
            .checked_add(self.run.measured_transactions)
            .is_none()
        {
            return Err(Invalid(
                "warmup_transactions + measured_transactions overflows u64",
            ));
        }
        if self.run.batches < 2 {
            return Err(Invalid(
                "at least two batches are needed for a confidence interval",
            ));
        }
        Ok(())
    }

    /// [`validate`](Self::validate), plus the checks on running this
    /// configuration under `spec`. Every run calls it before doing any
    /// work, and so does the CLI at parse time.
    pub fn validate_for(&self, spec: ProtocolSpec) -> Result<(), ConfigError> {
        use ConfigError::*;
        self.validate()?;
        if !spec.is_valid() {
            return Err(Invalid("OPT cannot be combined with a baseline protocol"));
        }
        if matches!(spec.base.table().routing, Routing::Chain) {
            if self.read_only_optimization {
                return Err(Invalid(
                    "the read-only optimization would break the linear-2PC chain",
                ));
            }
            if self.failures.is_some() {
                return Err(Invalid(
                    "failure injection models the parallel decision point and does not \
                     support chained 2PC",
                ));
            }
        }
        if self.replication > 0 && !spec.is_replicated() {
            return Err(Invalid(
                "replication degree requires a replicated protocol (PAXOS or REP2PC)",
            ));
        }
        if spec.is_replicated() {
            if self.read_only_optimization {
                return Err(Invalid(
                    "the read-only optimization is not modeled for replicated protocols",
                ));
            }
            if 2 * self.replication as usize + 1 > self.num_sites {
                return Err(Invalid("2F+1 acceptors need at least 2F+1 sites"));
            }
        }
        Ok(())
    }
}

/// Configuration validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter (combination) is out of range; the message says which.
    Invalid(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Invalid(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "NumSites      {}", self.num_sites)?;
        writeln!(
            f,
            "DBSize        {} pages ({}/site)",
            self.db_size,
            self.pages_per_site()
        )?;
        writeln!(f, "MPL           {} / site", self.mpl)?;
        writeln!(f, "TransType     {:?}", self.trans_type)?;
        writeln!(f, "DistDegree    {}", self.dist_degree)?;
        writeln!(f, "CohortSize    {} pages", self.cohort_size)?;
        writeln!(f, "UpdateProb    {}", self.update_prob)?;
        writeln!(f, "NumCPUs       {} / site", self.num_cpus)?;
        writeln!(f, "NumDataDisks  {} / site", self.num_data_disks)?;
        writeln!(f, "NumLogDisks   {} / site", self.num_log_disks)?;
        writeln!(f, "PageCPU       {}", self.page_cpu)?;
        writeln!(f, "PageDisk      {}", self.page_disk)?;
        writeln!(f, "MsgCPU        {}", self.msg_cpu)?;
        writeln!(f, "Resources     {:?}", self.resources)?;
        if self.cohort_abort_prob > 0.0 {
            writeln!(f, "CohortAbortP  {}", self.cohort_abort_prob)?;
        }
        if self.replication > 0 {
            writeln!(
                f,
                "Replication   F={} ({} replicas)",
                self.replication,
                2 * self.replication + 1
            )?;
        }
        if let Some(z) = &self.zipf {
            writeln!(f, "Zipf          theta={}", z.theta)?;
        }
        if let Some(t) = &self.topology {
            writeln!(
                f,
                "Topology      {} regions, lan={}, wan={}, jitter={}, hot={}",
                t.regions, t.lan_latency, t.wan_latency, t.jitter, t.hot_site_prob
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        SystemConfig::paper_baseline().validate().unwrap();
        SystemConfig::pure_data_contention().validate().unwrap();
        SystemConfig::paper_baseline()
            .higher_distribution()
            .validate()
            .unwrap();
        SystemConfig::paper_baseline()
            .fast_network()
            .validate()
            .unwrap();
    }

    #[test]
    fn baseline_matches_paper_prose() {
        let c = SystemConfig::paper_baseline();
        // §5.2: three sites, six pages per cohort, 1 CPU, 2 data disks,
        // 1 log disk per site; §5.4: slow network is 5 ms.
        assert_eq!(c.dist_degree, 3);
        assert_eq!(c.cohort_size, 6);
        assert_eq!(c.num_cpus, 1);
        assert_eq!(c.num_data_disks, 2);
        assert_eq!(c.num_log_disks, 1);
        assert_eq!(c.msg_cpu, SimDuration::from_millis(5));
        assert_eq!(c.trans_type, TransType::Parallel);
        assert_eq!(c.update_prob, 1.0);
    }

    #[test]
    fn higher_distribution_keeps_transaction_length() {
        let base = SystemConfig::paper_baseline();
        let hd = base.higher_distribution();
        assert_eq!(
            base.dist_degree * base.cohort_size,
            hd.dist_degree * hd.cohort_size,
            "mean transaction length must stay 18 pages"
        );
    }

    #[test]
    fn fast_network_is_five_times_faster() {
        let base = SystemConfig::paper_baseline();
        let fast = base.fast_network();
        assert_eq!(base.msg_cpu.as_micros(), 5 * fast.msg_cpu.as_micros());
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = SystemConfig::paper_baseline();
        c.dist_degree = 9;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.db_size = 1_601; // not divisible by 8
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.update_prob = 1.5;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.mpl = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.db_size = 64; // 8 pages/site < 9 max cohort pages
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.run.batches = 1;
        assert!(c.validate().is_err());

        // The engine's commit target is warm-up + measured.
        let mut c = SystemConfig::paper_baseline().with_run_length(u64::MAX, 5);
        assert_eq!(
            c.validate(),
            Err(ConfigError::Invalid(
                "warmup_transactions + measured_transactions overflows u64"
            ))
        );
        c.run.warmup_transactions = u64::MAX - 5;
        c.validate().unwrap();

        // A cohort may access at most 2^16 pages, even where every
        // site could hold more.
        let mut c = SystemConfig::paper_baseline().with_db_size(8 * 100_000);
        c.cohort_size = 43_691; // 65 536 pages
        c.validate().unwrap();
        c.cohort_size = 43_692; // 65 538 pages
        assert_eq!(
            c.validate(),
            Err(ConfigError::Invalid(
                "cohort_size too large: a cohort may access at most 65536 pages"
            ))
        );

        // Past these sizes a run cannot allocate its state: each bound
        // admits its own value and rejects the next one.
        let mut c = SystemConfig::paper_baseline().with_db_size(4_096 * 9);
        c.num_sites = 4_096;
        c.validate().unwrap();
        c.num_sites = 4_097;
        c.db_size = 4_097 * 9;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Invalid(
                "num_sites too large: at most 4096 sites"
            ))
        );
        let mut c = SystemConfig::paper_baseline().with_db_size(1 << 28);
        c.validate().unwrap();
        c.db_size += 8;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Invalid(
                "db_size too large: at most 2^28 pages"
            ))
        );
        // 8 * 8 sites * dist_degree 4 * 65 536 pages = 2^24 accesses.
        let mut c = SystemConfig::paper_baseline().with_db_size(8 * 100_000);
        c.cohort_size = 43_691;
        c.dist_degree = 4;
        c.mpl = 8;
        c.validate().unwrap();
        c.mpl = 9;
        let in_flight = Err(ConfigError::Invalid(
            "too many accesses in flight: mpl * num_sites * dist_degree * \
             1.5 * cohort_size may be at most 2^24",
        ));
        assert_eq!(c.validate(), in_flight);
        // The product saturates instead of wrapping past u64.
        c.mpl = u32::MAX;
        c.num_sites = 4_096;
        c.dist_degree = 4_096;
        c.db_size = 4_096 * 65_536;
        assert_eq!(c.validate(), in_flight);

        // 1.5 * cohort_size does not fit in u32: the bound must not wrap.
        let mut c = SystemConfig::paper_baseline();
        c.cohort_size = u32::MAX;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Invalid(
                "a site must hold at least 1.5 * cohort_size pages"
            ))
        );

        // So skewed that a cohort's distinct-page draw would stall.
        let e = SystemConfig::paper_baseline().with_zipf(8.0).validate();
        assert!(format!("{}", e.unwrap_err()).contains("zipf theta too large"));
    }

    /// The (configuration, protocol) checks: each pairing the engine
    /// cannot run fails `validate_for` but passes `validate`.
    #[test]
    fn validate_for_rejects_unsupported_pairs() {
        let base = SystemConfig::paper_baseline();
        let ro = SystemConfig {
            read_only_optimization: true,
            ..base.clone()
        };
        let faults = base
            .clone()
            .with_failures(FailureConfig::master_crashes(0.01));
        let bad = [
            (
                base.clone(),
                ProtocolSpec {
                    opt: true,
                    ..ProtocolSpec::CENT
                },
            ),
            (ro.clone(), ProtocolSpec::LINEAR_2PC),
            (faults, ProtocolSpec::LINEAR_2PC),
            (base.clone().with_replication(1), ProtocolSpec::TWO_PC),
            (ro, ProtocolSpec::PAXOS),
            (base.clone().with_replication(4), ProtocolSpec::REP_2PC),
        ];
        for (cfg, spec) in bad {
            cfg.validate().unwrap();
            assert!(cfg.validate_for(spec).is_err(), "{}", spec.name());
        }
        base.with_replication(3)
            .validate_for(ProtocolSpec::PAXOS)
            .unwrap();
    }

    #[test]
    fn rejects_bad_failure_configs() {
        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            cohort_crash_prob: 1.5,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            cohort_crash_prob: 0.1,
            cohort_recovery_time: SimDuration::ZERO,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            msg_loss_prob: -0.1,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig {
            msg_loss_prob: 0.1,
            msg_timeout: SimDuration::ZERO,
            ..FailureConfig::default()
        });
        assert!(c.validate().is_err());

        // The execution-phase window is a probability too, NaN included.
        for p in [2.0, 1.000_000_1, -1.0, f64::NAN] {
            let c = SystemConfig::paper_baseline().with_failures(FailureConfig {
                exec_crash_prob: Some(p),
                ..FailureConfig::default()
            });
            assert_eq!(
                c.validate(),
                Err(ConfigError::Invalid(
                    "exec_crash_prob must be a probability"
                )),
                "{p}"
            );
        }

        // The all-defaults config (zero probabilities) is valid.
        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(FailureConfig::default());
        c.validate().unwrap();
    }

    #[test]
    fn master_crashes_constructor_sets_only_the_master_prob() {
        let f = FailureConfig::master_crashes(0.05);
        assert_eq!(f.master_crash_prob, 0.05);
        assert_eq!(f.cohort_crash_prob, 0.0);
        assert_eq!(f.msg_loss_prob, 0.0);
        assert_eq!(f.detection_timeout, SimDuration::from_millis(300));
        assert_eq!(f.recovery_time, SimDuration::from_secs(5));
    }

    #[test]
    fn failure_config_parses_every_key() {
        let f: FailureConfig = "mc=0.01,cc=0.005,loss=0.02,detect-ms=200,\
             recover-ms=4000,cohort-recover-ms=800,retry-ms=50,retries=2"
            .parse()
            .unwrap();
        assert_eq!(f.master_crash_prob, 0.01);
        assert_eq!(f.cohort_crash_prob, 0.005);
        assert_eq!(f.msg_loss_prob, 0.02);
        assert_eq!(f.detection_timeout, SimDuration::from_millis(200));
        assert_eq!(f.recovery_time, SimDuration::from_millis(4000));
        assert_eq!(f.cohort_recovery_time, SimDuration::from_millis(800));
        assert_eq!(f.msg_timeout, SimDuration::from_millis(50));
        assert_eq!(f.max_retransmits, 2);
    }

    #[test]
    fn failure_config_parse_keeps_defaults_for_unset_keys() {
        let f: FailureConfig = "mc=0.05".parse().unwrap();
        assert_eq!(f.master_crash_prob, 0.05);
        assert_eq!(f.cohort_crash_prob, 0.0);
        assert_eq!(f.max_retransmits, 3);
        // The empty spec is the default config verbatim.
        assert_eq!(
            "".parse::<FailureConfig>().unwrap(),
            FailureConfig::default()
        );
    }

    #[test]
    fn failure_config_parse_errors_name_the_problem() {
        let e = "bogus=1".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("unknown key \"bogus\""), "{e}");
        // The error lists the vocabulary, sourced from KEYS.
        for key in ["mc", "cc", "loss", "detect-ms", "retries"] {
            assert!(e.contains(key), "{e} missing {key}");
        }
        let e = "mc".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("expected key=value"), "{e}");
        let e = "mc=x".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("mc: cannot parse \"x\""), "{e}");
        let e = "retries=1.5".parse::<FailureConfig>().unwrap_err();
        assert!(e.contains("retries"), "{e}");
    }

    #[test]
    fn cli_keys_cover_every_failure_field() {
        // 10 struct fields, 10 documented keys: adding a field without
        // extending the key table fails here.
        assert_eq!(FailureConfig::KEYS.len(), 10);
        for k in FailureConfig::KEYS {
            assert!(k.key.contains('='), "{} lacks a value shape", k.key);
            assert!(!k.help.is_empty());
        }
    }

    #[test]
    fn crash_region_parses_and_validates() {
        let f: FailureConfig = "cc=0.01,crash-region=2".parse().unwrap();
        assert_eq!(f.crash_region, Some(2));
        assert_eq!(f.cohort_crash_prob, 0.01);

        // crash-region without a topology is rejected.
        let mut c = SystemConfig::paper_baseline();
        c.failures = Some(f);
        assert!(c.validate().is_err());

        // With a 4-region topology, region 2 exists...
        c.topology = Some("regions=4".parse().unwrap());
        c.validate().unwrap();
        // ...but region 4 does not.
        c.failures.as_mut().unwrap().crash_region = Some(4);
        assert!(c.validate().is_err());
    }

    #[test]
    fn zipf_validates() {
        let c = SystemConfig::paper_baseline().with_zipf(0.9);
        c.validate().unwrap();
        // The skews the sampler's chi-square tests use, and the most
        // skewed one the baseline shape admits.
        for theta in [0.0, 0.5, 1.0, 1.2, 5.0] {
            SystemConfig::paper_baseline()
                .with_zipf(theta)
                .validate()
                .unwrap();
        }
        assert!(SystemConfig::paper_baseline()
            .with_zipf(6.0)
            .validate()
            .is_err());

        // The alias tables take about 39 bytes per page of a site.
        let mut big = c.clone().with_db_size(8 << 24);
        big.validate().unwrap();
        big.db_size += 8;
        assert!(big.validate().unwrap_err().to_string().contains("2^24"));
        big.zipf = None;
        big.validate().unwrap();

        let mut bad = c.clone();
        bad.zipf = Some(Zipf { theta: -0.1 });
        assert!(bad.validate().is_err());
        let mut bad = c.clone();
        bad.zipf = Some(Zipf { theta: f64::NAN });
        assert!(bad.validate().is_err());
        // One skew rule at a time.
        let mut bad = c;
        bad.hot_spot = Some(HotSpot {
            data_fraction: 0.2,
            access_fraction: 0.8,
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn topology_parses_every_key() {
        let t: Topology = "regions=4,lan-ms=1,wan-ms=40,jitter=0.2,hot=0.3"
            .parse()
            .unwrap();
        assert_eq!(t.regions, 4);
        assert_eq!(t.lan_latency, SimDuration::from_millis(1));
        assert_eq!(t.wan_latency, SimDuration::from_millis(40));
        assert_eq!(t.jitter, 0.2);
        assert_eq!(t.hot_site_prob, 0.3);
        // The empty spec is the degenerate default verbatim.
        assert_eq!("".parse::<Topology>().unwrap(), Topology::default());
    }

    #[test]
    fn topology_parse_errors_name_the_problem() {
        let e = "bogus=1".parse::<Topology>().unwrap_err();
        assert!(e.contains("unknown key \"bogus\""), "{e}");
        for key in ["regions", "lan-ms", "wan-ms", "jitter", "hot"] {
            assert!(e.contains(key), "{e} missing {key}");
        }
        let e = "regions".parse::<Topology>().unwrap_err();
        assert!(e.contains("expected key=value"), "{e}");
        let e = "wan-ms=x".parse::<Topology>().unwrap_err();
        assert!(e.contains("wan-ms: cannot parse \"x\""), "{e}");
    }

    #[test]
    fn topology_validates() {
        let ok =
            SystemConfig::paper_baseline().with_topology("regions=4,wan-ms=40".parse().unwrap());
        ok.validate().unwrap();

        let mut bad = ok.clone();
        bad.topology.as_mut().unwrap().regions = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.topology.as_mut().unwrap().regions = 9; // > 8 sites
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.topology.as_mut().unwrap().jitter = 1.0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.topology.as_mut().unwrap().hot_site_prob = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn region_assignment_is_contiguous_and_seed_free() {
        let t: Topology = "regions=4".parse().unwrap();
        // Pure function of the site index: exhaustive, monotone,
        // covering every region, identical however often it is asked.
        let n = 256;
        let regions: Vec<usize> = (0..n).map(|s| t.region_of(s, n)).collect();
        assert_eq!(regions[0], 0);
        assert_eq!(regions[n - 1], t.regions - 1);
        assert!(regions.windows(2).all(|w| w[0] <= w[1]), "monotone blocks");
        for r in 0..t.regions {
            assert_eq!(
                regions.iter().filter(|&&x| x == r).count(),
                n / t.regions,
                "even split at an exact division"
            );
        }
    }

    #[test]
    fn latency_matrix_is_symmetric_positive_and_deterministic() {
        let t: Topology = "regions=4,lan-ms=1,wan-ms=40,jitter=0.2".parse().unwrap();
        let n = 64;
        let m = t.latency_matrix(n, 7);
        assert_eq!(m, t.latency_matrix(n, 7), "same seed, same matrix");
        assert_ne!(m, t.latency_matrix(n, 8), "jitter varies with the seed");
        for i in 0..n {
            assert!(m[i * n + i].is_zero(), "diagonal must be zero");
            for j in 0..n {
                assert_eq!(m[i * n + j], m[j * n + i], "symmetry at ({i},{j})");
                if i != j {
                    let lat = m[i * n + j];
                    assert!(!lat.is_zero(), "off-diagonal must be positive");
                    // Jitter keeps every entry within its class band.
                    let (lo, hi) = if t.region_of(i, n) == t.region_of(j, n) {
                        (800, 1_200)
                    } else {
                        (32_000, 48_000)
                    };
                    assert!(
                        (lo..=hi).contains(&lat.as_micros()),
                        "({i},{j}) = {lat} outside class band"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_topology_matrix_is_all_zero() {
        let m = Topology::default().latency_matrix(16, 99);
        assert!(m.iter().all(|d| d.is_zero()));
    }

    #[test]
    fn builders_compose_and_match_field_assignment() {
        let b = SystemConfig::paper_baseline()
            .with_mpl(6)
            .with_run_length(100, 1_000)
            .with_db_size(16_000)
            .with_failures(FailureConfig::master_crashes(0.01))
            .with_cohort_abort_prob(0.02)
            .with_data_disks(3);
        let mut m = SystemConfig::paper_baseline();
        m.mpl = 6;
        m.run.warmup_transactions = 100;
        m.run.measured_transactions = 1_000;
        m.db_size = 16_000;
        m.failures = Some(FailureConfig::master_crashes(0.01));
        m.cohort_abort_prob = 0.02;
        m.num_data_disks = 3;
        assert_eq!(b, m);
        b.validate().unwrap();
    }

    #[test]
    fn pages_per_site() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.pages_per_site(), 1_000);
        assert_eq!(c.max_cohort_pages(), 9);
    }

    #[test]
    fn display_includes_table_1_names() {
        let s = SystemConfig::paper_baseline().to_string();
        for key in [
            "NumSites",
            "DBSize",
            "MPL",
            "TransType",
            "DistDegree",
            "CohortSize",
            "UpdateProb",
            "NumCPUs",
            "NumDataDisks",
            "NumLogDisks",
            "PageCPU",
            "PageDisk",
            "MsgCPU",
        ] {
            assert!(s.contains(key), "missing {key} in\n{s}");
        }
    }
}
