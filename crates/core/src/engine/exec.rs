//! Execution-phase mechanics: transaction submission, cohort page
//! accesses, lock-grant processing, deadlock detection, and
//! execution-phase aborts (deadlock victims and OPT borrower
//! cascades).

use super::types::{Cohort, CohortH, CohortPhase, DiskJob, Event, MsgKind, Txn, TxnH, TxnPhase};
use super::Simulation;
use crate::config::TransType;
use crate::metrics::AbortReason;
use crate::workload::{SiteId, TxnTemplate};
use distlocks::deadlock::find_cycle;
use distlocks::{Grant, LockMode, RequestOutcome};
use simkernel::SimTime;

impl Simulation {
    // ------------------------------------------------------------------
    // Submission
    // ------------------------------------------------------------------

    /// Submit a transaction at `home`; restarts carry their original
    /// template and birth instant.
    pub(crate) fn submit_txn(
        &mut self,
        home: SiteId,
        template: Option<TxnTemplate>,
        original_birth: Option<SimTime>,
    ) {
        let now = self.cal.now();
        let template = template.unwrap_or_else(|| self.wl.generate(home, &mut self.rng));
        let txn_id = self.alloc_txn_id();
        let n = template.sites.len();

        let th = self.txns.insert(Txn {
            id: txn_id,
            home,
            template,
            birth: now,
            original_birth: original_birth.unwrap_or(now),
            cohorts: Vec::new(),
            phase: TxnPhase::Executing,
            pending_workdone: n,
            pending_votes: 0,
            pending_preacks: 0,
            pending_acks: 0,
            no_vote: false,
            blocked_cohorts: 0,
            next_seq_cohort: 1,
            open_cohorts: n,
            master_done: false,
            coordinator_site: None,
            pending_term_reps: 0,
            acc_pending: Vec::new(),
            accepts_outstanding: 0,
            pending_rep_acks: 0,
            commit_started: None,
            decided_at: None,
            msg_exec: 0,
            msg_commit: 0,
            forced: 0,
            crashed: false,
            crashed_at: None,
        });

        let mut cohort_hs = Vec::with_capacity(n);
        for i in 0..n {
            let (site, n_accesses) = {
                let t = &self.txns[th].template;
                (t.sites[i], t.accesses[i].len())
            };
            let cid = self.alloc_cohort_id();
            // The cohort id is the lock-table registration sequence:
            // globally unique and monotone, so every seq-sorted output
            // of the table reproduces the historical id order.
            let owner = self.sites[site].locks.register_owner(cid);
            let ch = self.cohorts.insert(Cohort {
                id: cid,
                txn: th,
                site,
                acc_index: i,
                n_accesses,
                next_access: 0,
                phase: CohortPhase::Starting,
                lock_owner: owner,
                waiting_lock: false,
                shelf_since: None,
                prepared_since: None,
                req_attempt: 0,
                down: false,
                wd_seen: false,
                vote_seen: false,
                preack_seen: false,
                parting_reply: None,
            });
            let mirror = &mut self.sites[site].owner_cohorts;
            if owner.index() == mirror.len() {
                mirror.push(ch);
            } else {
                mirror[owner.index()] = ch;
            }
            cohort_hs.push(ch);
        }
        self.txns[th].cohorts = cohort_hs.clone();
        self.metrics.live_txns.add(now, 1.0);

        match self.cfg.trans_type {
            TransType::Parallel => {
                // All cohorts started together (§4.1). The local cohort
                // starts directly; remote ones via an initiation message.
                for &ch in &cohort_hs {
                    self.start_cohort(ch, home);
                }
            }
            TransType::Sequential => {
                // Only the first (local) cohort starts; the rest chain
                // off WORKDONE arrivals.
                self.start_cohort(cohort_hs[0], home);
            }
        }
    }

    /// Activate a cohort: directly if it is local to the master,
    /// through an InitCohort message otherwise.
    pub(crate) fn start_cohort(&mut self, cohort: CohortH, master_site: SiteId) {
        let site = self.cohorts[cohort].site;
        if site == master_site {
            self.cohort_begin(cohort);
        } else {
            self.send(master_site, site, MsgKind::InitCohort { cohort });
        }
    }

    /// The cohort starts executing (local activation or InitCohort
    /// arrival).
    pub(crate) fn cohort_begin(&mut self, cohort: CohortH) {
        let Some(c) = self.cohorts.get_mut(cohort) else {
            return;
        };
        debug_assert_eq!(c.phase, CohortPhase::Starting);
        c.phase = CohortPhase::Executing;
        self.cohort_continue(cohort);
    }

    // ------------------------------------------------------------------
    // The access loop
    // ------------------------------------------------------------------

    /// Issue the cohort's next access, or finish its execution phase.
    pub(crate) fn cohort_continue(&mut self, cohort: CohortH) {
        let Some(c) = self.cohorts.get(cohort) else {
            return;
        };
        if c.work_complete() {
            self.cohort_work_finished(cohort);
            return;
        }
        let (site, th, owner, cid) = (c.site, c.txn, c.lock_owner, c.id);
        let access = self.txns[th].template.accesses[c.acc_index][c.next_access];
        let mode = if access.update {
            LockMode::Update
        } else {
            LockMode::Read
        };
        match self.sites[site].locks.request(owner, access.page, mode) {
            RequestOutcome::Granted { borrowed_from } => {
                if !borrowed_from.is_empty() {
                    self.metrics.borrowed_pages.bump();
                    let lenders = borrowed_from.len();
                    let txn = self.txns[th].id;
                    self.trace_event(txn, |at| super::trace::TraceEvent::Borrowed {
                        at,
                        txn,
                        cohort: cid,
                        lenders,
                    });
                }
                self.data_disk_arrive(site, access.page, DiskJob::Read { cohort });
            }
            RequestOutcome::AlreadyHeld => {
                self.data_disk_arrive(site, access.page, DiskJob::Read { cohort });
            }
            RequestOutcome::Blocked => {
                let c = self.cohorts.get_mut(cohort).expect("checked above");
                c.waiting_lock = true;
                self.txn_block(th);
                self.deadlock_check(th);
            }
        }
    }

    /// A page's `PageCPU` processing finished: advance the access cursor.
    pub(crate) fn cohort_page_processed(&mut self, cohort: CohortH) {
        let Some(c) = self.cohorts.get_mut(cohort) else {
            return;
        };
        debug_assert_eq!(c.phase, CohortPhase::Executing);
        c.next_access += 1;
        self.cohort_continue(cohort);
    }

    /// All accesses done: either go on the OPT shelf or report WORKDONE.
    fn cohort_work_finished(&mut self, cohort: CohortH) {
        let th = self.cohorts[cohort].txn;
        // Execution-phase crash window: the cohort finishes its work but
        // goes down before reporting it. Nothing is on stable storage
        // yet, so recovery presumes abort and the whole transaction
        // restarts (the master was still collecting WORKDONEs and could
        // not have moved on).
        if self.exec_crash_roll(cohort, th) {
            return;
        }
        let c = &self.cohorts[cohort];
        let (site, owner) = (c.site, c.lock_owner);
        if self.spec.opt && self.sites[site].locks.has_live_borrows(owner) {
            // §3: "the borrower is 'put on the shelf' ... not allowed to
            // send a WORKDONE message" until every lender commits.
            let now = self.cal.now();
            let c = self.cohorts.get_mut(cohort).expect("exists");
            c.phase = CohortPhase::OnShelf;
            c.shelf_since = Some(now);
            let (th, cid) = (c.txn, c.id);
            let txn = self.txns[th].id;
            self.trace_event(txn, |at| super::trace::TraceEvent::Shelved {
                at,
                txn,
                cohort: cid,
            });
            return;
        }
        self.cohort_send_workdone(cohort);
    }

    /// Send WORKDONE to the master (also the shelf-exit path).
    pub(crate) fn cohort_send_workdone(&mut self, cohort: CohortH) {
        let now = self.cal.now();
        let c = self.cohorts.get_mut(cohort).expect("live cohort");
        let unshelved = c.shelf_since.take();
        if let Some(since) = unshelved {
            self.metrics.shelf_time.record_duration(now.since(since));
        }
        c.phase = CohortPhase::WorkDone;
        let (site, th, cid) = (c.site, c.txn, c.id);
        if unshelved.is_some() {
            let txn = self.txns[th].id;
            self.trace_event(txn, |at| super::trace::TraceEvent::Unshelved {
                at,
                txn,
                cohort: cid,
            });
        }
        let home = self.txns[th].home;
        self.send(site, home, MsgKind::WorkDone { txn: th, cohort });
    }

    // ------------------------------------------------------------------
    // Lock grants
    // ------------------------------------------------------------------

    /// Apply grants returned by a state change of `site`'s lock table:
    /// unblock each waiter and resume its access (the read it was
    /// waiting to issue).
    pub(crate) fn process_grants(&mut self, site: SiteId, grants: Vec<Grant>) {
        for g in grants {
            let ch = self.sites[site].cohort_of(g.owner);
            let Some(c) = self.cohorts.get_mut(ch) else {
                // A grant to a cohort being torn down would be a lock
                // manager bug: release_all cancels waiting requests.
                unreachable!("grant to a dead cohort");
            };
            debug_assert_eq!(c.site, site);
            debug_assert!(c.waiting_lock, "grant to a non-waiting cohort");
            c.waiting_lock = false;
            let (th, cid) = (c.txn, c.id);
            self.txn_unblock(th);
            if !g.borrowed_from.is_empty() {
                self.metrics.borrowed_pages.bump();
                let lenders = g.borrowed_from.len();
                let txn = self.txns[th].id;
                self.trace_event(txn, |at| super::trace::TraceEvent::Borrowed {
                    at,
                    txn,
                    cohort: cid,
                    lenders,
                });
            }
            self.data_disk_arrive(site, g.page, DiskJob::Read { cohort: ch });
        }
    }

    fn txn_block(&mut self, th: TxnH) {
        let now = self.cal.now();
        let t = self.txns.get_mut(th).expect("live txn");
        t.blocked_cohorts += 1;
        if t.blocked_cohorts == 1 {
            self.metrics.blocked_txns.add(now, 1.0);
        }
    }

    fn txn_unblock(&mut self, th: TxnH) {
        let now = self.cal.now();
        let t = self.txns.get_mut(th).expect("live txn");
        debug_assert!(t.blocked_cohorts > 0);
        t.blocked_cohorts -= 1;
        if t.blocked_cohorts == 0 {
            self.metrics.blocked_txns.add(now, -1.0);
        }
    }

    // ------------------------------------------------------------------
    // Deadlock detection (§4.2: immediate, global, youngest victim)
    // ------------------------------------------------------------------

    /// Run cycle detection from `start` and abort youngest victims until
    /// no cycle through `start` remains.
    pub(crate) fn deadlock_check(&mut self, start: TxnH) {
        loop {
            if !self.txns.contains(start) {
                return; // start itself was the victim
            }
            // Allocation-free reachability pre-filter: almost every
            // block is cycle-free, and `find_cycle` (HashMap colouring,
            // per-node successor vectors) is only worth paying when a
            // cycle actually exists. Both compute the same boolean —
            // "is `start` reachable from its own successors" — so the
            // filter never changes which deadlocks are found.
            if !self.cycle_through(start) {
                return;
            }
            let Some(cycle) = find_cycle(start, |t| self.wait_for_successors(t)) else {
                return;
            };
            // Youngest victim: latest birth, ties broken by the external
            // id — every cycle member is live, and external ids are
            // unique, so the maximum is unambiguous.
            let victim = cycle
                .iter()
                .copied()
                .max_by_key(|&th| {
                    self.txns
                        .get(th)
                        .map(|x| (x.birth.as_micros(), x.id))
                        .unwrap_or((0, 0))
                })
                .expect("cycle is non-empty");
            self.abort_txn(victim, AbortReason::Deadlock);
        }
    }

    /// Can `start` reach itself through the wait-for graph? Stamped DFS
    /// over dense transaction slots: no hashing, no allocation after
    /// the scratch buffers reach their high-water marks. Edge set is
    /// identical to [`Self::wait_for_successors`] (self-edges between
    /// cohorts of one transaction excluded); order and duplicates are
    /// irrelevant to reachability.
    fn cycle_through(&mut self, start: TxnH) -> bool {
        let mut seen = std::mem::take(&mut self.dl_seen);
        let mut stack = std::mem::take(&mut self.dl_stack);
        self.dl_stamp = self.dl_stamp.wrapping_add(1);
        if self.dl_stamp == 0 {
            seen.fill(0);
            self.dl_stamp = 1;
        }
        let stamp = self.dl_stamp;
        let mark = |seen: &mut Vec<u32>, t: TxnH| {
            let slot = t.slot();
            if slot >= seen.len() {
                seen.resize(slot + 1, 0);
            }
            let fresh = seen[slot] != stamp;
            seen[slot] = stamp;
            fresh
        };
        stack.clear();
        mark(&mut seen, start);
        stack.push(start);
        let mut found = false;
        'dfs: while let Some(t) = stack.pop() {
            let Some(txn) = self.txns.get(t) else {
                continue;
            };
            for &ch in &txn.cohorts {
                let Some(c) = self.cohorts.get(ch) else {
                    continue;
                };
                if !c.waiting_lock {
                    continue;
                }
                let site = &self.sites[c.site];
                site.locks.for_each_blocker(c.lock_owner, |o| {
                    let bt = self.cohorts[site.cohort_of(o)].txn;
                    if bt == t {
                        return; // self-edge, excluded from the graph
                    }
                    if bt == start {
                        found = true;
                    } else if mark(&mut seen, bt) {
                        stack.push(bt);
                    }
                });
                if found {
                    break 'dfs;
                }
            }
        }
        self.dl_seen = seen;
        self.dl_stack = stack;
        found
    }

    /// Transactions `t` currently waits for, stitched together from the
    /// live per-site blocker sets of its waiting cohorts.
    fn wait_for_successors(&self, t: TxnH) -> Vec<TxnH> {
        let Some(txn) = self.txns.get(t) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &ch in &txn.cohorts {
            let Some(c) = self.cohorts.get(ch) else {
                continue;
            };
            if !c.waiting_lock {
                continue;
            }
            let site = &self.sites[c.site];
            for blocker in site.locks.blockers_of(c.lock_owner) {
                let bt = self.cohorts[site.cohort_of(blocker)].txn;
                if bt != t && !out.contains(&bt) {
                    out.push(bt);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Execution-phase aborts
    // ------------------------------------------------------------------

    /// Abort a transaction during its execution phase (deadlock victim
    /// or borrower cascade) and schedule its restart after the paper's
    /// adaptive delay. The restarted incarnation reuses the template.
    pub(crate) fn abort_txn(&mut self, th: TxnH, reason: AbortReason) {
        let now = self.cal.now();
        let Some(txn) = self.txns.get(th) else {
            return;
        };
        // Only executing transactions can be aborted this way: prepared
        // cohorts never wait for locks and borrowers never reach the
        // voting phase (§3.1).
        assert!(
            matches!(txn.phase, TxnPhase::Executing),
            "execution-phase abort of {} in {:?}",
            txn.id,
            txn.phase
        );
        if txn.blocked_cohorts > 0 {
            self.metrics.blocked_txns.add(now, -1.0);
        }
        let home = txn.home;
        let original_birth = txn.original_birth;
        let txn_ext = txn.id;
        let cohort_hs = txn.cohorts.clone();
        // Tear the cohorts down; collect cascade victims (borrowers of
        // this transaction's cohorts — impossible here since none is
        // prepared, asserted below).
        for ch in cohort_hs {
            let Some(c) = self.cohorts.remove(ch) else {
                continue;
            };
            let locks = &mut self.sites[c.site].locks;
            assert!(
                locks.borrowers_of(c.lock_owner).next().is_none(),
                "an executing cohort cannot have lent data"
            );
            locks.drop_borrower(c.lock_owner);
            let grants = locks.release_all(c.lock_owner);
            locks.unregister(c.lock_owner);
            self.process_grants(c.site, grants);
        }
        let txn = self.txns.remove(th).expect("checked above");
        self.metrics.live_txns.add(now, -1.0);
        self.metrics.record_abort(reason);
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::Aborted {
            at,
            txn: txn_ext,
        });
        let delay = self.restart_delay();
        self.cal.schedule_in(
            delay,
            Event::Submit {
                home,
                template: Some(Box::new(txn.template)),
                original_birth: Some(original_birth),
            },
        );
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    pub(crate) fn handle_message(&mut self, msg: super::types::Message) {
        let attempt = msg.attempt;
        match msg.kind {
            MsgKind::InitCohort { cohort } => self.cohort_begin(cohort),
            MsgKind::WorkDone { txn, cohort } => self.master_workdone(txn, cohort),
            MsgKind::Prepare { cohort } => self.cohort_prepare(cohort, attempt),
            MsgKind::Vote { txn, cohort, vote } => self.master_vote(txn, cohort, vote),
            MsgKind::PreCommit { cohort } => self.cohort_precommit(cohort, attempt),
            MsgKind::PreAck { txn, cohort } => self.master_preack(txn, cohort),
            MsgKind::Decision { cohort, commit } => self.cohort_decision(cohort, commit, attempt),
            MsgKind::Ack { txn, cohort } => self.master_ack(txn, cohort),
            MsgKind::TermStateReq { cohort } => self.cohort_term_state_req(cohort),
            MsgKind::TermStateRep { txn } => self.coordinator_term_state_rep(txn),
            MsgKind::ChainPrepare { cohort } => self.cohort_prepare(cohort, attempt),
            MsgKind::ChainDecision { cohort, commit } => {
                self.cohort_decision(cohort, commit, attempt)
            }
            MsgKind::ChainBack { txn, commit } => self.master_chain_back(txn, commit),
            MsgKind::PaxosVote { txn, acc, yes, .. } => self.acceptor_vote(txn, acc, yes),
            MsgKind::Accepted { txn, commit } => self.master_accepted(txn, commit),
            MsgKind::RepDecision { txn, rep } => self.replica_decision(txn, rep),
            MsgKind::RepAck { txn } => self.master_rep_ack(txn),
            MsgKind::AccStateReq { txn, acc } => self.acceptor_state_req(txn, acc),
            MsgKind::AccStateRep { txn } => self.leader_acc_state_rep(txn),
        }
    }

    /// Dispatch for completed forced log writes.
    pub(crate) fn handle_log_done(&mut self, work: super::types::LogWork) {
        use super::types::LogWork::*;
        match work {
            CohortPrepare { cohort } => self.cohort_prepared(cohort),
            CohortNoVoteAbort { cohort } => self.cohort_no_vote_finish(cohort),
            CohortPrecommit { cohort } => self.cohort_precommitted(cohort),
            CohortDecision { cohort, commit } => self.cohort_finish_decision(cohort, commit),
            MasterCollecting { txn } => self.master_collected(txn),
            MasterPrecommit { txn } => self.master_precommit_logged(txn),
            MasterDecision { txn, commit } => self.master_decision_logged(txn, commit),
            AcceptorBundle { txn, acc } => self.acceptor_bundle_logged(txn, acc),
            ReplicaDecision { txn, rep } => self.replica_decision_logged(txn, rep),
        }
    }

    /// Deferred write-back of a committed cohort's updates: the pages go
    /// to the data disks asynchronously; nothing waits on them (§4.1).
    pub(crate) fn enqueue_deferred_writes(&mut self, cohort_accesses: &[(SiteId, u64)]) {
        if !self.cfg.model_deferred_writes {
            return;
        }
        for &(site, page) in cohort_accesses {
            self.data_disk_arrive(site, page, DiskJob::AsyncWrite);
        }
    }
}
