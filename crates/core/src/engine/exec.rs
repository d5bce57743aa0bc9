//! Execution-phase mechanics: transaction submission, cohort page
//! accesses, lock-grant processing, deadlock detection, and
//! execution-phase aborts (deadlock victims and OPT borrower
//! cascades).

use super::types::{
    Cohort, CohortH, CohortPhase, DiskJob, Event, MsgKind, Restart, RestartH, Txn, TxnH, TxnPhase,
};
use super::Simulation;
use crate::config::TransType;
use crate::metrics::AbortReason;
use crate::workload::{SiteId, TxnTemplate};
#[cfg(debug_assertions)]
use distlocks::deadlock::find_cycle;
use distlocks::{Grant, LockManager, LockMode, OwnerId, RequestOutcome};
use simkernel::Slab;

impl Simulation<'_> {
    // ------------------------------------------------------------------
    // Submission
    // ------------------------------------------------------------------

    /// Submit a transaction at `home`: the parked `restart` with its
    /// original template and birth instant, or a fresh one generated
    /// into a spare template.
    pub(crate) fn submit_txn(&mut self, home: SiteId, restart: Option<RestartH>) {
        let now = self.cal.now();
        let (template, original_birth) = match restart {
            Some(r) => {
                let r = self
                    .restarts
                    .remove(r)
                    .expect("a restart is submitted once");
                (r.template, r.original_birth)
            }
            None => {
                let mut t = self.spares.templates.pop().unwrap_or_default();
                self.wl
                    .generate_into(home, &mut self.rng, &mut t, &mut self.spares.picks);
                (t, now)
            }
        };
        let txn_id = self.alloc_txn_id();
        let n = template.sites.len();
        let cohorts = self
            .spares
            .cohort_lists
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(n));
        let acc_pending = self.spares.acc_lists.pop().unwrap_or_default();

        let th = self.txns.insert(Txn {
            id: txn_id,
            home,
            template,
            birth: now,
            original_birth,
            cohorts,
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
            acc_pending,
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
            self.waits.reset(ch);
            let mirror = &mut self.sites[site].owner_cohorts;
            if owner.index() == mirror.len() {
                mirror.push(ch);
            } else {
                mirror[owner.index()] = ch;
            }
            self.txns[th].cohorts.push(ch);
        }
        self.metrics.live_txns.add(now, 1.0);

        // All cohorts start together (§4.1), or for sequential
        // transactions only the first (local) one, the rest chaining off
        // WORKDONE arrivals. The local cohort starts directly, remote
        // ones via an initiation message. A new transaction holds no
        // lock yet, so no deadlock started here can pick it as victim:
        // its cohort list outlives the loop.
        let starting = match self.cfg.trans_type {
            TransType::Parallel => n,
            TransType::Sequential => 1,
        };
        for i in 0..starting {
            let ch = self.txns[th].cohorts[i];
            self.start_cohort(ch, home);
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
            RequestOutcome::Granted { lenders } => {
                if lenders > 0 {
                    self.metrics.borrowed_pages.bump();
                    let txn = self.txns[th].id;
                    self.trace_event(txn, |at| super::trace::TraceEvent::Borrowed {
                        at,
                        txn,
                        cohort: cid,
                        lenders: lenders as usize,
                    });
                }
                self.data_disk_arrive(site, access.page, DiskJob::Read { cohort });
            }
            // A cohort draws distinct pages and locks each once, in its
            // final mode, so it never re-requests a page: no request is
            // already held and no upgrade ever queues, which the
            // wait-for index relies on (a queued upgrade would jump
            // ahead of waiters and grow their blocker sets).
            RequestOutcome::AlreadyHeld => unreachable!("a cohort re-requested a page"),
            RequestOutcome::Blocked => self.cohort_blocked(cohort, site, owner, th),
        }
    }

    /// `cohort`'s request (as lock owner `owner` of `site`, for
    /// transaction `th`) queued: record the wait, count the transaction
    /// blocked, and run deadlock detection from it.
    ///
    /// Kept out of line: it runs only when a request blocks. Inlined
    /// into [`Self::cohort_continue`] the deadlock check made that
    /// per-access function 4.7 times larger and the deadlock-light
    /// `faults-observed` benchmark about 6% slower (2-vCPU x86-64 VM).
    #[inline(never)]
    fn cohort_blocked(&mut self, cohort: CohortH, site: SiteId, owner: OwnerId, th: TxnH) {
        self.record_wait(cohort, site, owner);
        let c = self.cohorts.get_mut(cohort).expect("live cohort");
        c.waiting_lock = true;
        self.txn_block(th);
        self.deadlock_check(th);
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

    /// Make a state change of `site`'s lock table, which appends the
    /// grants it releases to the engine's grant buffer, then apply
    /// them: unblock each waiter, end its wait in the wait-for index
    /// and resume its access (the read it was waiting to issue). The
    /// buffer is out while the grants run and goes back emptied, so a
    /// change allocates nothing once the buffer has grown.
    pub(crate) fn change_locks(
        &mut self,
        site: SiteId,
        change: impl FnOnce(&mut LockManager, &mut Vec<Grant>),
    ) {
        let mut grants = std::mem::take(&mut self.grants);
        change(&mut self.sites[site].locks, &mut grants);
        for g in grants.drain(..) {
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
            self.waits.end_wait(ch, &self.cohorts);
            self.txn_unblock(th);
            if g.lenders > 0 {
                self.metrics.borrowed_pages.bump();
                let txn = self.txns[th].id;
                self.trace_event(txn, |at| super::trace::TraceEvent::Borrowed {
                    at,
                    txn,
                    cohort: cid,
                    lenders: g.lenders as usize,
                });
            }
            self.data_disk_arrive(site, g.page, DiskJob::Read { cohort: ch });
        }
        self.grants = grants;
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

    /// Record the wait of `cohort`, whose request just queued at `site`
    /// under lock owner `owner`: its blockers, once, as cohorts sorted
    /// by id (the order `blockers_of` lists them), and the cohort among
    /// each blocker's waiters. The lists are exact for as long as the
    /// searches read them; DESIGN.md ("Deadlock handling") gives the
    /// argument.
    fn record_wait(&mut self, cohort: CohortH, site: SiteId, owner: OwnerId) {
        let (site, cohorts, slots) = (&self.sites[site], &self.cohorts, &mut self.waits.slots);
        let mut blockers = std::mem::take(&mut slots[cohort.slot()].blockers);
        debug_assert!(blockers.is_empty(), "a cohort waits twice");
        site.locks
            .for_each_blocker(owner, |o| blockers.push(site.cohort_of(o)));
        blockers.sort_unstable_by_key(|&b| cohorts[b].id);
        blockers.dedup();
        for &b in &blockers {
            slots[b.slot()].waiters.push(cohort);
        }
        slots[cohort.slot()].blockers = blockers;
    }

    /// Run cycle detection from `start` and abort youngest victims until
    /// no cycle through `start` remains.
    ///
    /// Two searches over the wait-for index, neither of which allocates
    /// once the scratch buffers reach their high-water marks:
    /// [`Self::cycle_through`] decides whether a cycle exists, and only
    /// when one does [`Self::walk_cycle`] lists the cycle `find_cycle`
    /// would report, whose youngest member is the victim. Debug builds
    /// check both against `distlocks::deadlock::find_cycle` over
    /// [`Self::wait_for_successors`], which reads the lock tables.
    fn deadlock_check(&mut self, start: TxnH) {
        loop {
            if !self.txns.contains(start) {
                return; // start itself was the victim
            }
            let reachable = self.cycle_through(start);
            let found = reachable && self.walk_cycle(start);
            #[cfg(debug_assertions)]
            self.cross_check(start, reachable, found);
            if !found {
                return;
            }
            // Youngest victim: latest birth, ties broken by the external
            // id — every cycle member is live, and external ids are
            // unique, so the maximum is unambiguous.
            let victim = self
                .dl
                .path
                .iter()
                .map(|&(th, _)| th)
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

    /// Is `start` on a cycle of the wait-for graph? A bidirectional
    /// stamped search: one backward expansion (who waits on the
    /// transaction) alternates with one forward expansion (what it
    /// waits on), starting backward. A transaction discovered by one
    /// side that the other side has already reached closes a cycle
    /// through `start`; a side that runs dry proves there is none —
    /// after a single step when nobody waits on `start`, the common
    /// case. Only reachability matters, so visit order and repeated
    /// edges are irrelevant.
    fn cycle_through(&mut self, start: TxnH) -> bool {
        let g = WaitFor {
            txns: &self.txns,
            cohorts: &self.cohorts,
            waits: &self.waits,
        };
        let dl = &mut self.dl;
        let stamp = dl.next_stamp();
        mark(&mut dl.fwd, start, stamp);
        mark(&mut dl.bwd, start, stamp);
        dl.fstack.clear();
        dl.bstack.clear();
        dl.fstack.push(start);
        dl.bstack.push(start);
        loop {
            let Some(t) = dl.bstack.pop() else {
                return false;
            };
            let mut met = false;
            g.for_each_predecessor(t, |w| {
                if marked(&dl.fwd, w, stamp) {
                    met = true;
                } else if mark(&mut dl.bwd, w, stamp) {
                    dl.bstack.push(w);
                }
            });
            if met || dl.bstack.is_empty() {
                return met;
            }
            let Some(t) = dl.fstack.pop() else {
                return false;
            };
            g.for_each_successor(t, |b| {
                if marked(&dl.bwd, b, stamp) {
                    met = true;
                } else if mark(&mut dl.fwd, b, stamp) {
                    dl.fstack.push(b);
                }
            });
            if met || dl.fstack.is_empty() {
                return met;
            }
        }
    }

    /// The depth-first walk of `find_cycle(start, wait_for_successors)`,
    /// step for step, over the scratch buffers: successor lists live
    /// back to back in one flat buffer (the walk pops the last one from
    /// its end), and a visit stamp replaces the colour map. Leaves the
    /// cycle in `dl.path`, in wait order from `start`, and returns
    /// whether there is one.
    fn walk_cycle(&mut self, start: TxnH) -> bool {
        let g = WaitFor {
            txns: &self.txns,
            cohorts: &self.cohorts,
            waits: &self.waits,
        };
        let dl = &mut self.dl;
        let stamp = dl.next_stamp();
        mark(&mut dl.fwd, start, stamp);
        dl.succ.clear();
        dl.path.clear();
        dl.path.push((start, 0));
        g.push_successors(start, &mut dl.succ);
        while let Some(&(_, from)) = dl.path.last() {
            if dl.succ.len() == from {
                dl.path.pop(); // every successor explored
                continue;
            }
            let next = dl.succ.pop().expect("segment is non-empty");
            if next == start {
                return true;
            }
            if mark(&mut dl.fwd, next, stamp) {
                dl.path.push((next, dl.succ.len()));
                g.push_successors(next, &mut dl.succ);
            }
        }
        false
    }

    /// Debug builds: the pre-filter's verdict, and the walked cycle when
    /// there is one, are exactly the reference `find_cycle`'s.
    #[cfg(debug_assertions)]
    fn cross_check(&self, start: TxnH, reachable: bool, found: bool) {
        let reference = find_cycle(start, |t| self.wait_for_successors(t));
        assert_eq!(
            reachable,
            reference.is_some(),
            "deadlock pre-filter verdict differs from find_cycle"
        );
        let walked = found.then(|| self.dl.path.iter().map(|&(t, _)| t).collect::<Vec<_>>());
        assert_eq!(walked, reference, "walked cycle differs from find_cycle");
    }

    /// Transactions `t` currently waits for, stitched together from the
    /// live per-site blocker sets of its waiting cohorts: the reference
    /// successor list [`Self::walk_cycle`] reproduces.
    #[cfg(debug_assertions)]
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

    /// Check the wait-for index against the lock tables; returns a
    /// description of the first violation found, if any. Debug runs
    /// end with it.
    ///
    /// 1. A cohort that is not waiting has no recorded blockers, and a
    ///    waiters list names only waiting cohorts.
    /// 2. The waiters lists hold exactly the recorded edges whose
    ///    blocker is still live.
    /// 3. A waiting cohort's recorded blockers cover its live blocker
    ///    set (`for_each_blocker`).
    /// 4. A cohort of an executing transaction lists exactly the
    ///    waiting cohorts whose live blocker sets name it.
    pub(crate) fn audit_wait_index(&self) -> Result<(), String> {
        // Wait-for edges as (blocker id, waiter id): recorded by the
        // waiters, listed by the blockers (those of executing
        // transactions apart too), and live in the lock tables.
        let (mut recorded, mut listed, mut exact, mut live) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (ch, c) in self.cohorts.iter() {
            let lists = &self.waits.slots[ch.slot()];
            let executing = self.txns[c.txn].phase == TxnPhase::Executing;
            for &w in &lists.waiters {
                match self.cohorts.get(w) {
                    Some(wc) if wc.waiting_lock => {
                        listed.push((c.id, wc.id));
                        if executing {
                            exact.push((c.id, wc.id));
                        }
                    }
                    _ => return Err(format!("cohort {} lists a waiter that waits no more", c.id)),
                }
            }
            if !c.waiting_lock {
                if !lists.blockers.is_empty() {
                    return Err(format!(
                        "cohort {} keeps blockers but waits for nothing",
                        c.id
                    ));
                }
                continue;
            }
            for &b in &lists.blockers {
                if let Some(bc) = self.cohorts.get(b) {
                    recorded.push((bc.id, c.id));
                }
            }
            let site = &self.sites[c.site];
            site.locks.for_each_blocker(c.lock_owner, |o| {
                live.push((self.cohorts[site.cohort_of(o)].id, c.id));
            });
        }
        for edges in [&mut recorded, &mut listed, &mut live] {
            edges.sort_unstable();
        }
        live.dedup();
        if let Some(i) =
            (0..recorded.len().max(listed.len())).find(|&i| recorded.get(i) != listed.get(i))
        {
            return Err(format!(
                "recorded edge {:?} differs from listed edge {:?} (blocker, waiter)",
                recorded.get(i),
                listed.get(i)
            ));
        }
        if let Some((b, w)) = live.iter().find(|e| recorded.binary_search(e).is_err()) {
            return Err(format!("cohort {w} waits on {b} unrecorded"));
        }
        if let Some((b, w)) = exact.iter().find(|e| live.binary_search(e).is_err()) {
            return Err(format!(
                "executing cohort {b} lists {w}, which no longer waits on it"
            ));
        }
        Ok(())
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
        let txn_ext = txn.id;
        // Tear the cohorts down; collect cascade victims (borrowers of
        // this transaction's cohorts — impossible here since none is
        // prepared, asserted below). Releasing locks only grants other
        // transactions' cohorts, so this one's list stands meanwhile.
        for i in 0..txn.cohorts.len() {
            let ch = self.txns[th].cohorts[i];
            let Some(c) = self.cohorts.remove(ch) else {
                continue;
            };
            if c.waiting_lock {
                self.waits.end_wait(ch, &self.cohorts);
            }
            let owner = c.lock_owner;
            self.change_locks(c.site, |locks, grants| {
                assert!(
                    locks.borrowers_of(owner).next().is_none(),
                    "an executing cohort cannot have lent data"
                );
                locks.drop_borrower(owner);
                locks.release_all_into(owner, grants);
                locks.unregister(owner);
            });
        }
        let txn = self.txns.remove(th).expect("checked above");
        self.metrics.live_txns.add(now, -1.0);
        self.metrics.record_abort(reason);
        self.trace_event(txn_ext, |at| super::trace::TraceEvent::Aborted {
            at,
            txn: txn_ext,
        });
        let delay = self.restart_delay();
        let original_birth = txn.original_birth;
        let template = self.spares.retire(txn);
        let restart = self.restarts.insert(Restart {
            template,
            original_birth,
        });
        self.cal.schedule_in(
            delay,
            Event::Submit {
                home,
                restart: Some(restart),
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

    /// Deferred write-back of a committed cohort's updates (its access
    /// list `acc_index` of `txn`'s template, at `site`): the pages go
    /// to the data disks asynchronously; nothing waits on them (§4.1).
    pub(crate) fn enqueue_deferred_writes(&mut self, txn: TxnH, acc_index: usize, site: SiteId) {
        if !self.cfg.model_deferred_writes {
            return;
        }
        // Index walk: each write re-borrows the engine, and the
        // template is immutable while its transaction lives.
        for i in 0..self.txns[txn].template.accesses[acc_index].len() {
            let a = self.txns[txn].template.accesses[acc_index][i];
            if a.update {
                self.data_disk_arrive(site, a.page, DiskJob::AsyncWrite);
            }
        }
    }
}

/// Retired transactions' buffers, kept for the next submissions. The
/// closed MPL loop keeps a fixed population in flight, so once the pool
/// holds the most ever in use at once, submitting and retiring a
/// transaction allocates nothing. Cohort lists and acceptor tallies are
/// kept empty; templates are refilled whole before reuse
/// (`generate_into`, or `clone_from` for a restart's copy).
#[derive(Debug, Default)]
pub(crate) struct Spares {
    pub templates: Vec<TxnTemplate>,
    pub cohort_lists: Vec<Vec<CohortH>>,
    pub acc_lists: Vec<Vec<u32>>,
    /// Scratch for the workload's distinct draws.
    pub picks: Vec<usize>,
}

impl Spares {
    /// Keep a retired incarnation's lists, emptied, and hand back its
    /// template, which the caller parks for a restart or pools.
    pub fn retire(&mut self, t: Txn) -> TxnTemplate {
        let Txn {
            template,
            mut cohorts,
            mut acc_pending,
            ..
        } = t;
        cohorts.clear();
        acc_pending.clear();
        self.cohort_lists.push(cohorts);
        self.acc_lists.push(acc_pending);
        template
    }
}

/// Deadlock-detection scratch, kept on the simulation so a check
/// allocates nothing once the buffers reach their high-water marks.
#[derive(Debug, Default)]
pub(crate) struct DeadlockScratch {
    /// The current search's visit stamp.
    stamp: u32,
    /// Visit stamps by transaction slab slot: reached forward from
    /// `start` (also the walk's visited set), and reached backward.
    fwd: Vec<u32>,
    bwd: Vec<u32>,
    /// The pre-filter's forward and backward work stacks.
    fstack: Vec<TxnH>,
    bstack: Vec<TxnH>,
    /// The walk's successor lists, one segment per path level.
    succ: Vec<TxnH>,
    /// The walk's path: each transaction with the start of its segment
    /// in `succ`.
    path: Vec<(TxnH, usize)>,
}

impl DeadlockScratch {
    /// A fresh stamp for a new search; both stamp arrays are reset
    /// when the counter wraps.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.fwd.fill(0);
            self.bwd.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// Stamp `t` in `seen`; true if it was not stamped yet.
fn mark(seen: &mut Vec<u32>, t: TxnH, stamp: u32) -> bool {
    let slot = t.slot();
    if slot >= seen.len() {
        seen.resize(slot + 1, 0);
    }
    let fresh = seen[slot] != stamp;
    seen[slot] = stamp;
    fresh
}

/// Whether `t` carries `stamp` in `seen`.
fn marked(seen: &[u32], t: TxnH, stamp: u32) -> bool {
    seen.get(t.slot()) == Some(&stamp)
}

/// The wait-for graph between cohorts, recorded when a request blocks
/// and kept until the wait ends (a grant, or the waiter's transaction
/// aborting): the lists both deadlock searches read instead of the lock
/// tables. One entry per cohort slab slot; a new cohort in a slot
/// starts with the slot's lists emptied, buffers kept, so the closed
/// MPL loop allocates nothing here once every slot has held its
/// longest lists.
#[derive(Debug, Default)]
pub(crate) struct WaitIndex {
    slots: Vec<WaitLists>,
}

/// One cohort slot's wait lists.
#[derive(Debug, Default)]
struct WaitLists {
    /// While the cohort waits: what its request waited on when it
    /// blocked, ascending by cohort id. An entry that has since
    /// finished misses on slab lookup; one still live but past PREPARE
    /// no longer blocks, and its transaction waits on nothing.
    blockers: Vec<CohortH>,
    /// The waiting cohorts that recorded this cohort among their
    /// blockers, in no particular order.
    waiters: Vec<CohortH>,
}

impl WaitIndex {
    /// A new cohort took `ch`'s slot: it waits on nothing and nothing
    /// waits on it yet.
    fn reset(&mut self, ch: CohortH) {
        let slot = ch.slot();
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, WaitLists::default);
        }
        let lists = &mut self.slots[slot];
        lists.blockers.clear();
        lists.waiters.clear();
    }

    /// `cohort`'s wait ended: take it off the waiters lists of its
    /// recorded blockers. A blocker that has finished misses the
    /// generational lookup, and its slot's lists are emptied when the
    /// next cohort takes it.
    fn end_wait(&mut self, cohort: CohortH, cohorts: &Slab<CohortH, Cohort>) {
        let mut blockers = std::mem::take(&mut self.slots[cohort.slot()].blockers);
        for &b in &blockers {
            if cohorts.contains(b) {
                let waiters = &mut self.slots[b.slot()].waiters;
                let i = waiters
                    .iter()
                    .position(|&w| w == cohort)
                    .expect("a recorded blocker lists its waiter");
                waiters.swap_remove(i);
            }
        }
        blockers.clear();
        self.slots[cohort.slot()].blockers = blockers;
    }
}

/// The transaction-level wait-for graph, read from the wait-for index:
/// `t` waits for `u` when a waiting cohort of `t` recorded a cohort of
/// `u` among its blockers. Edges between cohorts of one transaction are
/// excluded.
#[derive(Clone, Copy)]
struct WaitFor<'a> {
    txns: &'a Slab<TxnH, Txn>,
    cohorts: &'a Slab<CohortH, Cohort>,
    waits: &'a WaitIndex,
}

impl<'a> WaitFor<'a> {
    /// `t`'s live cohorts and their handles, in the transaction's
    /// cohort order (none once `t` is gone).
    fn cohorts_of(self, t: TxnH) -> impl Iterator<Item = (CohortH, &'a Cohort)> {
        let cohorts = self.cohorts;
        self.txns
            .get(t)
            .into_iter()
            .flat_map(|txn| &txn.cohorts)
            .filter_map(move |&ch| cohorts.get(ch).map(|c| (ch, c)))
    }

    /// The transactions of the blockers `ch` recorded that are still
    /// live, in recorded order and possibly repeated.
    fn blocker_txns(self, ch: CohortH) -> impl Iterator<Item = TxnH> + 'a {
        let cohorts = self.cohorts;
        self.waits.slots[ch.slot()]
            .blockers
            .iter()
            .filter_map(move |&b| cohorts.get(b).map(|c| c.txn))
    }

    /// Visit every transaction `t` waits for, in no particular order
    /// and possibly more than once, together with the stale recorded
    /// blockers' transactions past PREPARE, which wait on nothing.
    fn for_each_successor(self, t: TxnH, mut f: impl FnMut(TxnH)) {
        for (ch, _) in self.cohorts_of(t).filter(|(_, c)| c.waiting_lock) {
            self.blocker_txns(ch).filter(|&bt| bt != t).for_each(&mut f);
        }
    }

    /// Visit every transaction that waits for `t`, in no particular
    /// order and possibly more than once: the converse of
    /// [`Self::for_each_successor`]. While `t` is executing, the only
    /// case the backward search expands, these are exactly the
    /// transactions whose live blocker sets name a cohort of `t`.
    fn for_each_predecessor(self, t: TxnH, mut f: impl FnMut(TxnH)) {
        for (ch, _) in self.cohorts_of(t) {
            for &w in &self.waits.slots[ch.slot()].waiters {
                let wt = self.cohorts[w].txn;
                if wt != t {
                    f(wt);
                }
            }
        }
    }

    /// Append `t`'s successors to `succ` in the order
    /// `Simulation::wait_for_successors` lists them: cohort by cohort,
    /// each cohort's blockers ascending by cohort id (sorted when
    /// recorded), every transaction at its first occurrence. The stale
    /// blockers it adds are dead ends, so the walk finds the same cycle.
    fn push_successors(self, t: TxnH, succ: &mut Vec<TxnH>) {
        let first = succ.len();
        for (ch, _) in self.cohorts_of(t).filter(|(_, c)| c.waiting_lock) {
            for bt in self.blocker_txns(ch) {
                if bt != t && !succ[first..].contains(&bt) {
                    succ.push(bt);
                }
            }
        }
    }
}
