//! The per-site lock table.
//!
//! Semantics implemented (paper §3, §4.2):
//!
//! * **Modes**: `Read` and `Update`; read–read is the only compatible
//!   pair. Transactions "set read locks on pages that they read and
//!   update locks on pages that need to be updated".
//! * **Strictness**: locks are released only by the explicit release
//!   calls driven by the commit protocol (read locks at PREPARE
//!   receipt, update locks when the global decision is implemented).
//! * **Fairness**: one FCFS queue per page; a new request never
//!   bypasses a non-empty queue, and on release the queue head is
//!   granted greedily (consecutive compatible requests are granted
//!   together so concurrent readers batch).
//! * **Upgrades**: a holder of a read lock may request an update lock;
//!   upgrades are checked against the *holders only* (they do not go to
//!   the back of the queue, the standard treatment that avoids trivial
//!   self-deadlock through one's own read lock).
//! * **Lending (OPT)**: when `opt_lending` is on, a conflicting holder
//!   that is in the *prepared* state does not block the requester; the
//!   grant is recorded as a borrow edge lender → borrower. Lending
//!   never bypasses the FCFS queue.
//!
//! # Storage layout
//!
//! The table is hot-path state touched on every page access of every
//! simulated transaction, so it is laid out densely:
//!
//! * Owners are *registered* up front ([`LockManager::register_owner`])
//!   and addressed by a dense slot index ([`OwnerId`]); slots are
//!   recycled through a free list when owners unregister. All per-owner
//!   state (held pages, waiting request, prepared flag, borrow edges)
//!   lives in one `OwnerState` record — no hashing anywhere on the
//!   request/release paths.
//! * Pages live in a flat `Vec` indexed by `page % page_modulus`.
//!   Callers must keep the page ids used against one table *injective*
//!   modulo the modulus (the engine passes its pages-per-site, and page
//!   ids within a site are distinct residues by construction);
//!   [`LockManager::new`] uses an identity mapping for callers with
//!   small page ids.
//! * Each owner's `held` list is kept **sorted by page** at all times,
//!   so every bulk release walks pages in ascending order without a
//!   per-call sort. Determinism (bit-for-bit reproducible runs) is by
//!   construction, not by re-sorting hash-map keys.
//! * All externally visible orderings (blocker sets, settled borrower
//!   lists) are sorted by the owner's registration sequence number
//!   `seq` — the engine passes its globally unique cohort id — which
//!   reproduces the historical sort-by-owner-id order exactly.
//!
//! The table never schedules events and never decides policy: all
//! outcomes (grants released by state changes, borrowers to abort) are
//! returned to the caller.

use std::collections::VecDeque;

/// A page (data item) identifier, unique within a site.
pub type PageId = u64;

/// A dense lock-owner handle issued by [`LockManager::register_owner`].
///
/// The handle is only meaningful against the table that issued it, and
/// only while the owner stays registered; the slot is recycled after
/// [`LockManager::unregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerId(u32);

impl OwnerId {
    /// The dense slot index backing this handle. Stable while the owner
    /// stays registered; suitable for indexing caller-side mirrors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lock mode under strict 2PL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared access.
    Read,
    /// Exclusive access (the paper's "update lock").
    Update,
}

impl LockMode {
    /// Read–read is the only compatible pair.
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Read && other == LockMode::Read
    }
}

/// Outcome of [`LockManager::request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Lock granted. `borrowed_from` lists the prepared lenders whose
    /// conflicting locks were borrowed through (empty for a plain
    /// grant).
    Granted { borrowed_from: Vec<OwnerId> },
    /// The owner already holds the page in this or a stronger mode.
    AlreadyHeld,
    /// The request queued. Query [`LockManager::blockers_of`] (or walk
    /// [`LockManager::for_each_blocker`]) for the owners the requester
    /// now waits on; the outcome itself carries no blocker list so the
    /// hot path never allocates one it may not need.
    Blocked,
}

/// A grant released by a state change (release, abort, prepare).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The owner whose waiting request was just granted.
    pub owner: OwnerId,
    /// The granted page.
    pub page: PageId,
    /// The granted mode.
    pub mode: LockMode,
    /// Prepared lenders borrowed through (empty for a plain grant).
    pub borrowed_from: Vec<OwnerId>,
}

#[derive(Debug, Clone, Copy)]
struct WaitReq {
    owner: u32,
    mode: LockMode,
    /// True when the owner already holds the page in `Read` mode and is
    /// waiting to upgrade.
    upgrade: bool,
}

#[derive(Debug, Default)]
struct PageLock {
    holders: Vec<(u32, LockMode)>,
    queue: VecDeque<WaitReq>,
}

/// All state of one registered owner, in one record.
#[derive(Debug)]
struct OwnerState {
    /// Caller-assigned sequence number (the engine's cohort id). Unique
    /// among live owners; the determinism key for every sorted output.
    seq: u64,
    /// `(page, strongest mode held)`, kept sorted by page ascending.
    held: Vec<(PageId, LockMode)>,
    /// The single outstanding waiting request, if any.
    waiting: Option<PageId>,
    prepared: bool,
    /// Borrowers with a live borrow edge from this owner (slots).
    lends: Vec<u32>,
    /// Lenders this owner has a live borrow edge to (slots).
    borrows: Vec<u32>,
}

/// One site's lock table (see module docs).
#[derive(Debug)]
pub struct LockManager {
    opt_lending: bool,
    /// Pages are stored at slot `page % page_modulus`.
    page_modulus: u64,
    pages: Vec<PageLock>,
    owners: Vec<Option<OwnerState>>,
    free_owners: Vec<u32>,
    /// Count of owners with `waiting.is_some()`.
    waiting_owners: usize,
    registered: usize,
    /// Total page-grants that involved borrowing (metric).
    borrow_grants: u64,
}

impl LockManager {
    /// A lock table with an identity page mapping. `opt_lending`
    /// enables the OPT borrowing rule. Suitable when page ids are
    /// small; the engine uses [`LockManager::for_pages`].
    pub fn new(opt_lending: bool) -> Self {
        Self::for_pages(opt_lending, u64::MAX)
    }

    /// A lock table whose page ids are folded into `page_modulus`
    /// dense slots. Page ids used against one table must be injective
    /// modulo `page_modulus`.
    pub fn for_pages(opt_lending: bool, page_modulus: u64) -> Self {
        assert!(page_modulus > 0, "page modulus must be positive");
        LockManager {
            opt_lending,
            page_modulus,
            pages: Vec::new(),
            owners: Vec::new(),
            free_owners: Vec::new(),
            waiting_owners: 0,
            registered: 0,
            borrow_grants: 0,
        }
    }

    // ------------------------------------------------------------------
    // Owner registration
    // ------------------------------------------------------------------

    /// Register a new owner with caller-assigned sequence number `seq`
    /// (must be unique among live owners — the engine passes the
    /// globally unique cohort id). Returns its dense handle.
    pub fn register_owner(&mut self, seq: u64) -> OwnerId {
        let st = OwnerState {
            seq,
            held: Vec::new(),
            waiting: None,
            prepared: false,
            lends: Vec::new(),
            borrows: Vec::new(),
        };
        self.registered += 1;
        match self.free_owners.pop() {
            Some(slot) => {
                debug_assert!(self.owners[slot as usize].is_none());
                self.owners[slot as usize] = Some(st);
                OwnerId(slot)
            }
            None => {
                self.owners.push(Some(st));
                OwnerId((self.owners.len() - 1) as u32)
            }
        }
    }

    /// Unregister `owner`, recycling its slot. Panics if the owner
    /// still holds locks, waits, lends, borrows, or is prepared — the
    /// caller must fully tear it down first.
    pub fn unregister(&mut self, owner: OwnerId) {
        let st = self.st(owner);
        assert!(
            st.held.is_empty()
                && st.waiting.is_none()
                && !st.prepared
                && st.lends.is_empty()
                && st.borrows.is_empty(),
            "owner seq {} unregistered with live lock state",
            st.seq
        );
        self.owners[owner.index()] = None;
        self.free_owners.push(owner.0);
        self.registered -= 1;
    }

    /// The sequence number `owner` was registered with, or `None` if
    /// the slot is currently vacant.
    pub fn owner_seq(&self, owner: OwnerId) -> Option<u64> {
        self.owners
            .get(owner.index())
            .and_then(|o| o.as_ref())
            .map(|s| s.seq)
    }

    /// Number of currently registered owners.
    pub fn registered_count(&self) -> usize {
        self.registered
    }

    #[inline]
    fn st(&self, owner: OwnerId) -> &OwnerState {
        self.owners[owner.index()]
            .as_ref()
            .expect("unregistered lock owner")
    }

    #[inline]
    fn st_mut(&mut self, owner: OwnerId) -> &mut OwnerState {
        self.owners[owner.index()]
            .as_mut()
            .expect("unregistered lock owner")
    }

    #[inline]
    fn seq_of(&self, slot: u32) -> u64 {
        self.owners[slot as usize]
            .as_ref()
            .expect("unregistered lock owner")
            .seq
    }

    #[inline]
    fn prepared_slot(&self, slot: u32) -> bool {
        self.owners[slot as usize]
            .as_ref()
            .is_some_and(|s| s.prepared)
    }

    #[inline]
    fn page_slot(&self, page: PageId) -> usize {
        (page % self.page_modulus) as usize
    }

    /// Slot for `page`, growing the table if needed.
    fn ensure_page(&mut self, page: PageId) -> usize {
        let pi = self.page_slot(page);
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, PageLock::default);
        }
        pi
    }

    fn page_ro(&self, page: PageId) -> Option<&PageLock> {
        self.pages.get(self.page_slot(page))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Whether the OPT lending rule is active.
    pub fn opt_lending(&self) -> bool {
        self.opt_lending
    }

    /// Total page-grants that went through at least one borrow edge.
    pub fn borrow_grants(&self) -> u64 {
        self.borrow_grants
    }

    /// Pages currently locked by `owner` (any mode).
    #[cfg(test)]
    pub fn pages_held(&self, owner: OwnerId) -> usize {
        self.st(owner).held.len()
    }

    /// Mode `owner` holds on `page`, if any.
    pub fn mode_held(&self, owner: OwnerId, page: PageId) -> Option<LockMode> {
        let held = &self.st(owner).held;
        held.binary_search_by_key(&page, |&(p, _)| p)
            .ok()
            .map(|i| held[i].1)
    }

    /// True if `owner` has a queued (waiting) request.
    #[cfg(test)]
    pub fn is_waiting(&self, owner: OwnerId) -> bool {
        self.st(owner).waiting.is_some()
    }

    /// True if `owner` has been marked prepared.
    #[cfg(test)]
    pub fn is_prepared(&self, owner: OwnerId) -> bool {
        self.st(owner).prepared
    }

    /// Current lenders of `owner` (owners whose data it borrowed and
    /// whose global decision is still pending).
    pub fn lenders_of(&self, owner: OwnerId) -> impl Iterator<Item = OwnerId> + '_ {
        self.st(owner).borrows.iter().map(|&s| OwnerId(s))
    }

    /// True if `owner` borrowed from at least one still-undecided lender.
    pub fn has_live_borrows(&self, owner: OwnerId) -> bool {
        !self.st(owner).borrows.is_empty()
    }

    /// Current borrowers of `owner`.
    pub fn borrowers_of(&self, owner: OwnerId) -> impl Iterator<Item = OwnerId> + '_ {
        self.st(owner).lends.iter().map(|&s| OwnerId(s))
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// `owner` requests `page` in `mode`.
    pub fn request(&mut self, owner: OwnerId, page: PageId, mode: LockMode) -> RequestOutcome {
        {
            let st = self.st(owner);
            assert!(
                st.waiting.is_none(),
                "owner seq {} already has a waiting request",
                st.seq
            );
        }
        match self.mode_held(owner, page) {
            Some(m) if m >= mode => RequestOutcome::AlreadyHeld,
            Some(_) => self.request_upgrade(owner, page),
            None => self.request_fresh(owner, page, mode),
        }
    }

    fn request_fresh(&mut self, owner: OwnerId, page: PageId, mode: LockMode) -> RequestOutcome {
        let pi = self.ensure_page(page);
        // Fairness: never bypass a non-empty queue.
        if self.pages[pi].queue.is_empty() {
            let mut lenders = Vec::new();
            let mut hard = false;
            for &(h, hmode) in &self.pages[pi].holders {
                debug_assert_ne!(h, owner.0);
                if hmode.compatible(mode) {
                    continue;
                }
                if self.opt_lending && self.prepared_slot(h) {
                    lenders.push(h);
                } else {
                    hard = true;
                    break;
                }
            }
            if !hard {
                self.pages[pi].holders.push((owner.0, mode));
                self.held_insert(owner, page, mode);
                self.note_borrows(owner.0, &lenders);
                return RequestOutcome::Granted {
                    borrowed_from: lenders.into_iter().map(OwnerId).collect(),
                };
            }
        }
        self.pages[pi].queue.push_back(WaitReq {
            owner: owner.0,
            mode,
            upgrade: false,
        });
        self.st_mut(owner).waiting = Some(page);
        self.waiting_owners += 1;
        RequestOutcome::Blocked
    }

    fn request_upgrade(&mut self, owner: OwnerId, page: PageId) -> RequestOutcome {
        let pi = self.page_slot(page);
        let mut lenders = Vec::new();
        let mut hard = false;
        for &(h, _) in &self.pages[pi].holders {
            if h == owner.0 {
                continue;
            }
            // Any other holder conflicts with an upgrade to Update.
            if self.opt_lending && self.prepared_slot(h) {
                lenders.push(h);
            } else {
                hard = true;
            }
        }
        if !hard {
            for h in self.pages[pi].holders.iter_mut() {
                if h.0 == owner.0 {
                    h.1 = LockMode::Update;
                }
            }
            self.held_insert(owner, page, LockMode::Update);
            self.note_borrows(owner.0, &lenders);
            return RequestOutcome::Granted {
                borrowed_from: lenders.into_iter().map(OwnerId).collect(),
            };
        }
        // Upgrades wait at the *front* of the queue (they hold a read
        // lock already; anything granted ahead of them could only
        // deadlock against that read lock).
        self.pages[pi].queue.push_front(WaitReq {
            owner: owner.0,
            mode: LockMode::Update,
            upgrade: true,
        });
        self.st_mut(owner).waiting = Some(page);
        self.waiting_owners += 1;
        RequestOutcome::Blocked
    }

    fn held_insert(&mut self, owner: OwnerId, page: PageId, mode: LockMode) {
        let held = &mut self.st_mut(owner).held;
        match held.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(i) => held[i].1 = mode,
            Err(i) => held.insert(i, (page, mode)),
        }
    }

    fn note_borrows(&mut self, borrower: u32, lenders: &[u32]) {
        if lenders.is_empty() {
            return;
        }
        self.borrow_grants += 1;
        for &l in lenders {
            debug_assert!(self.prepared_slot(l));
            let lends = &mut self.owners[l as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .lends;
            if !lends.contains(&borrower) {
                lends.push(borrower);
            }
            let borrows = &mut self.owners[borrower as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .borrows;
            if !borrows.contains(&l) {
                borrows.push(l);
            }
        }
    }

    /// Live blocker set for a waiting owner: conflicting (non-lendable)
    /// holders plus conflicting queued requests ahead of it, sorted by
    /// registration sequence. Used to build the global wait-for graph
    /// at deadlock-check time, so it is always computed from live state
    /// (no stale edges).
    pub fn compute_blockers(&self, owner: OwnerId, page: PageId) -> Vec<OwnerId> {
        let Some(entry) = self.page_ro(page) else {
            return Vec::new();
        };
        let Some(pos) = entry.queue.iter().position(|w| w.owner == owner.0) else {
            return Vec::new();
        };
        let mode = entry.queue[pos].mode;
        let mut blockers: Vec<u32> = Vec::new();
        for &(h, hmode) in &entry.holders {
            if h == owner.0 {
                continue; // own read lock during an upgrade wait
            }
            if hmode.compatible(mode) {
                continue;
            }
            if self.opt_lending && self.prepared_slot(h) {
                continue; // lendable: would not block once queue clears
            }
            blockers.push(h);
        }
        for w in entry.queue.iter().take(pos) {
            if !w.mode.compatible(mode) || !mode.compatible(w.mode) {
                blockers.push(w.owner);
            }
        }
        // Seqs are unique among live owners, so sorting by seq also
        // groups duplicate slots adjacently for dedup.
        blockers.sort_unstable_by_key(|&s| self.seq_of(s));
        blockers.dedup();
        blockers.into_iter().map(OwnerId).collect()
    }

    /// Blockers of `owner`'s outstanding request, if it has one.
    pub fn blockers_of(&self, owner: OwnerId) -> Vec<OwnerId> {
        match self.st(owner).waiting {
            Some(page) => self.compute_blockers(owner, page),
            None => Vec::new(),
        }
    }

    /// Visit every blocker of `owner`'s outstanding request without
    /// allocating. Unlike [`Self::blockers_of`] the visit order is
    /// unspecified and an owner may be visited twice — suitable only
    /// for order-independent uses such as reachability pre-filters.
    pub fn for_each_blocker(&self, owner: OwnerId, mut f: impl FnMut(OwnerId)) {
        let Some(page) = self.st(owner).waiting else {
            return;
        };
        let Some(entry) = self.page_ro(page) else {
            return;
        };
        let Some(pos) = entry.queue.iter().position(|w| w.owner == owner.0) else {
            return;
        };
        let mode = entry.queue[pos].mode;
        for &(h, hmode) in &entry.holders {
            if h == owner.0 || hmode.compatible(mode) {
                continue;
            }
            if self.opt_lending && self.prepared_slot(h) {
                continue;
            }
            f(OwnerId(h));
        }
        for w in entry.queue.iter().take(pos) {
            if !w.mode.compatible(mode) || !mode.compatible(w.mode) {
                f(OwnerId(w.owner));
            }
        }
    }

    /// Visit every owner whose outstanding request `owner` blocks: the
    /// exact converse of [`Self::for_each_blocker`], which visits
    /// `owner` from `w` exactly when this visits `w` from `owner`.
    /// Two kinds of waiter qualify:
    ///
    /// * requests queued on a page `owner` holds whose mode conflicts
    ///   with the held mode — `owner`'s own queued upgrade excepted, and
    ///   none at all while `owner` is a lendable prepared holder;
    /// * conflicting requests queued behind `owner`'s own waiting
    ///   request (how an upgrade at the front of a queue gains
    ///   in-edges).
    ///
    /// Allocation-free; as with `for_each_blocker` the visit order is
    /// unspecified and an owner may be visited twice.
    pub fn for_each_waiter(&self, owner: OwnerId, mut f: impl FnMut(OwnerId)) {
        let st = self.st(owner);
        if !(self.opt_lending && st.prepared) {
            for &(page, hmode) in &st.held {
                let Some(entry) = self.page_ro(page) else {
                    continue;
                };
                for w in &entry.queue {
                    if w.owner != owner.0 && !hmode.compatible(w.mode) {
                        f(OwnerId(w.owner));
                    }
                }
            }
        }
        let Some(page) = st.waiting else {
            return;
        };
        let Some(entry) = self.page_ro(page) else {
            return;
        };
        let Some(pos) = entry.queue.iter().position(|w| w.owner == owner.0) else {
            return;
        };
        let mode = entry.queue[pos].mode;
        for w in entry.queue.iter().skip(pos + 1) {
            if !w.mode.compatible(mode) || !mode.compatible(w.mode) {
                f(OwnerId(w.owner));
            }
        }
    }

    // ------------------------------------------------------------------
    // State changes
    // ------------------------------------------------------------------

    /// Mark `owner` prepared. With lending enabled this may unblock
    /// waiters on every page it holds; the resulting grants are
    /// returned, in ascending page order (`held` is kept sorted, so no
    /// sort happens here).
    pub fn mark_prepared(&mut self, owner: OwnerId) -> Vec<Grant> {
        {
            let st = self.st_mut(owner);
            debug_assert!(!st.prepared, "owner seq {} prepared twice", st.seq);
            st.prepared = true;
        }
        if !self.opt_lending {
            return Vec::new();
        }
        // Index walk, no page snapshot: draining a held page can only
        // re-grant *this* owner an upgrade it already queued there,
        // which rewrites the held entry's mode in place — the list's
        // length and order never change under the cursor.
        let mut grants = Vec::new();
        let mut i = 0;
        while let Some(&(p, _)) = self.st(owner).held.get(i) {
            self.drain_queue(p, &mut grants);
            i += 1;
        }
        grants
    }

    /// Release `owner`'s read locks (the paper: on PREPARE receipt "the
    /// cohort releases all its read locks but retains its update
    /// locks"). Returns grants unblocked by the release, in ascending
    /// page order.
    pub fn release_read_locks(&mut self, owner: OwnerId) -> Vec<Grant> {
        // Walk the held list by index instead of snapshotting the read
        // pages: this path runs once per cohort prepare. Releasing the
        // read lock under the owner's own queued upgrade re-grants it as
        // `Update` at the same (sorted) position, which the cursor then
        // skips — exactly the snapshot semantics, without the Vec.
        let mut grants = Vec::new();
        let mut i = 0;
        while let Some(&(p, m)) = self.st(owner).held.get(i) {
            if m != LockMode::Read {
                i += 1;
                continue;
            }
            self.st_mut(owner).held.remove(i);
            self.remove_holder_entry_only(owner, p);
            self.drain_queue(p, &mut grants);
        }
        grants
    }

    /// Release every lock `owner` holds and cancel its waiting request,
    /// if any. Clears prepared status. Returns grants unblocked by the
    /// release, held pages in ascending order.
    ///
    /// Borrow edges are *not* touched — call [`LockManager::settle_borrows`]
    /// (for a decided lender) and/or [`LockManager::drop_borrower`] (for
    /// an aborting borrower) first.
    pub fn release_all(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        if let Some(page) = self.st_mut(owner).waiting.take() {
            self.waiting_owners -= 1;
            let pi = self.page_slot(page);
            if let Some(entry) = self.pages.get_mut(pi) {
                entry.queue.retain(|w| w.owner != owner.0);
            }
            // Removing a queued conflicting request can unblock those behind it.
            self.drain_queue(page, &mut grants);
        }
        let held = std::mem::take(&mut self.st_mut(owner).held);
        for &(p, _) in &held {
            self.remove_holder_entry_only(owner, p);
            self.drain_queue(p, &mut grants);
        }
        self.st_mut(owner).prepared = false;
        grants
    }

    /// A lender's global decision arrived: dissolve its borrow edges and
    /// return its (former) borrowers, sorted by registration sequence.
    /// On commit the engine re-checks each borrower's shelf condition;
    /// on abort it aborts them all — the abort chain of OPT, bounded at
    /// length one.
    pub fn settle_borrows(&mut self, lender: OwnerId) -> Vec<OwnerId> {
        let mut borrowers: Vec<u32> = std::mem::take(&mut self.st_mut(lender).lends);
        borrowers.sort_unstable_by_key(|&b| self.seq_of(b)); // deterministic processing order
        for &b in &borrowers {
            self.owners[b as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .borrows
                .retain(|&l| l != lender.0);
        }
        borrowers.into_iter().map(OwnerId).collect()
    }

    /// A borrower is going away (abort or full release): drop its
    /// borrow edges from both directions.
    pub fn drop_borrower(&mut self, borrower: OwnerId) {
        let lenders = std::mem::take(&mut self.st_mut(borrower).borrows);
        for l in lenders {
            self.owners[l as usize]
                .as_mut()
                .expect("unregistered lock owner")
                .lends
                .retain(|&b| b != borrower.0);
        }
    }

    fn remove_holder_entry_only(&mut self, owner: OwnerId, page: PageId) {
        let pi = self.page_slot(page);
        if let Some(entry) = self.pages.get_mut(pi) {
            entry.holders.retain(|&(h, _)| h != owner.0);
        }
    }

    /// Greedily grant from the head of `page`'s queue.
    fn drain_queue(&mut self, page: PageId, grants: &mut Vec<Grant>) {
        let pi = self.page_slot(page);
        loop {
            let Some(entry) = self.pages.get(pi) else {
                return;
            };
            let Some(head) = entry.queue.front() else {
                return;
            };
            let owner = head.owner;
            let mode = head.mode;
            let upgrade = head.upgrade;
            let mut lenders: Vec<u32> = Vec::new();
            let mut grantable = true;
            for &(h, hmode) in &entry.holders {
                if h == owner {
                    debug_assert!(upgrade);
                    continue;
                }
                if hmode.compatible(mode) {
                    continue;
                }
                if self.opt_lending && self.prepared_slot(h) {
                    lenders.push(h);
                } else {
                    grantable = false;
                    break;
                }
            }
            if !grantable {
                return;
            }
            let entry = &mut self.pages[pi];
            entry.queue.pop_front();
            if upgrade {
                // Promote the read lock in place; if the owner released
                // its read locks while the upgrade was queued (legal for
                // a caller, even if the engine never does it), the
                // upgrade degenerates into a fresh grant.
                let mut promoted = false;
                for h in entry.holders.iter_mut() {
                    if h.0 == owner {
                        h.1 = LockMode::Update;
                        promoted = true;
                    }
                }
                if !promoted {
                    entry.holders.push((owner, mode));
                }
            } else {
                entry.holders.push((owner, mode));
            }
            let oid = OwnerId(owner);
            self.held_insert(oid, page, mode);
            {
                let st = self.st_mut(oid);
                debug_assert_eq!(st.waiting, Some(page));
                st.waiting = None;
            }
            self.waiting_owners -= 1;
            self.note_borrows(owner, &lenders);
            grants.push(Grant {
                owner: oid,
                page,
                mode,
                borrowed_from: lenders.into_iter().map(OwnerId).collect(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Auditing (used by the integration test-suite)
    // ------------------------------------------------------------------

    /// Check internal invariants; returns a description of the first
    /// violation found, if any.
    ///
    /// 1. No two holders of a page conflict unless one of them is
    ///    prepared and lending is enabled.
    /// 2. A non-empty queue's head must not be grantable (no missed
    ///    grants).
    /// 3. Waiting state matches the queues exactly, including the
    ///    waiting-owner counter.
    /// 4. Each owner's `held` list is sorted and matches the holder
    ///    entries exactly.
    /// 5. Borrow edges are symmetric and reference prepared lenders only.
    pub fn audit(&self) -> Result<(), String> {
        for (pi, entry) in self.pages.iter().enumerate() {
            for (i, &(a, am)) in entry.holders.iter().enumerate() {
                for &(b, bm) in entry.holders.iter().skip(i + 1) {
                    if a == b {
                        return Err(format!(
                            "page slot {pi}: duplicate holder seq {}",
                            self.seq_of(a)
                        ));
                    }
                    if !am.compatible(bm) || !bm.compatible(am) {
                        let lendable =
                            self.opt_lending && (self.prepared_slot(a) || self.prepared_slot(b));
                        if !lendable {
                            return Err(format!(
                                "page slot {pi}: conflicting holders seq {} and seq {} \
                                 with no prepared lender",
                                self.seq_of(a),
                                self.seq_of(b)
                            ));
                        }
                    }
                }
            }
            if let Some(head) = entry.queue.front() {
                let blocked = entry.holders.iter().any(|&(h, hm)| {
                    h != head.owner
                        && !hm.compatible(head.mode)
                        && !(self.opt_lending && self.prepared_slot(h))
                });
                if !blocked {
                    return Err(format!(
                        "page slot {pi}: queue head seq {} is grantable but still waiting",
                        self.seq_of(head.owner)
                    ));
                }
            }
            for w in &entry.queue {
                let ok = self
                    .owners
                    .get(w.owner as usize)
                    .and_then(|o| o.as_ref())
                    .is_some_and(|s| s.waiting.is_some_and(|p| self.page_slot(p) == pi));
                if !ok {
                    return Err(format!(
                        "page slot {pi}: queued owner slot {} not in waiting state",
                        w.owner
                    ));
                }
            }
        }
        let mut waiting_seen = 0usize;
        let mut registered_seen = 0usize;
        for (slot, st) in self.owners.iter().enumerate() {
            let Some(st) = st.as_ref() else { continue };
            registered_seen += 1;
            if !st.held.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!(
                    "owner seq {}: held list not sorted by page",
                    st.seq
                ));
            }
            for &(page, mode) in &st.held {
                let ok = self.page_ro(page).is_some_and(|e| {
                    e.holders
                        .iter()
                        .any(|&(h, m)| h as usize == slot && m == mode)
                });
                if !ok {
                    return Err(format!(
                        "held list has seq {}@{page}:{mode:?} but no holder entry",
                        st.seq
                    ));
                }
            }
            if let Some(page) = st.waiting {
                waiting_seen += 1;
                let ok = self
                    .page_ro(page)
                    .is_some_and(|e| e.queue.iter().any(|w| w.owner as usize == slot));
                if !ok {
                    return Err(format!(
                        "owner seq {} waiting on {page} but no queued request",
                        st.seq
                    ));
                }
            }
            if !st.lends.is_empty() && !st.prepared && !st.held.is_empty() {
                return Err(format!(
                    "lender seq {} has live borrows but is not prepared",
                    st.seq
                ));
            }
            for &b in &st.lends {
                let ok = self
                    .owners
                    .get(b as usize)
                    .and_then(|o| o.as_ref())
                    .is_some_and(|bs| bs.borrows.contains(&(slot as u32)));
                if !ok {
                    return Err(format!("asymmetric borrow edge seq {} -> slot {b}", st.seq));
                }
            }
            for &l in &st.borrows {
                let ok = self
                    .owners
                    .get(l as usize)
                    .and_then(|o| o.as_ref())
                    .is_some_and(|ls| ls.lends.contains(&(slot as u32)));
                if !ok {
                    return Err(format!(
                        "asymmetric borrow edge slot {l} -> seq {} (reverse missing)",
                        st.seq
                    ));
                }
            }
        }
        if waiting_seen != self.waiting_owners {
            return Err(format!(
                "waiting counter {} != actual {waiting_seen}",
                self.waiting_owners
            ));
        }
        if registered_seen != self.registered {
            return Err(format!(
                "registered counter {} != actual {registered_seen}",
                self.registered
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn granted(o: &RequestOutcome) -> bool {
        matches!(o, RequestOutcome::Granted { .. })
    }

    /// A table plus handles `o[0..=n]` registered with `seq == index`,
    /// mirroring the raw owner ids these tests historically used.
    fn setup(lending: bool, n: u64) -> (LockManager, Vec<OwnerId>) {
        let mut lm = LockManager::new(lending);
        let owners = (0..=n).map(|i| lm.register_owner(i)).collect();
        (lm, owners)
    }

    #[test]
    fn read_read_shares() {
        let (mut lm, o) = setup(false, 2);
        assert!(granted(&lm.request(o[1], 100, LockMode::Read)));
        assert!(granted(&lm.request(o[2], 100, LockMode::Read)));
        lm.audit().unwrap();
    }

    #[test]
    fn update_excludes() {
        let (mut lm, o) = setup(false, 3);
        assert!(granted(&lm.request(o[1], 100, LockMode::Update)));
        assert_eq!(
            lm.request(o[2], 100, LockMode::Read),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.blockers_of(o[2]), vec![o[1]]);
        assert_eq!(
            lm.request(o[3], 100, LockMode::Update),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.blockers_of(o[3]), vec![o[1], o[2]]);
        lm.audit().unwrap();
    }

    #[test]
    fn already_held_is_idempotent() {
        let (mut lm, o) = setup(false, 1);
        assert!(granted(&lm.request(o[1], 5, LockMode::Update)));
        assert_eq!(
            lm.request(o[1], 5, LockMode::Update),
            RequestOutcome::AlreadyHeld
        );
        assert_eq!(
            lm.request(o[1], 5, LockMode::Read),
            RequestOutcome::AlreadyHeld
        );
    }

    #[test]
    fn release_grants_fcfs() {
        let (mut lm, o) = setup(false, 4);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[3], 9, LockMode::Read);
        lm.request(o[4], 9, LockMode::Read);
        let grants = lm.release_all(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]);
        let grants = lm.release_all(o[2]);
        // both reads batch-grant together
        assert_eq!(
            grants.iter().map(|g| g.owner).collect::<Vec<_>>(),
            vec![o[3], o[4]]
        );
        lm.audit().unwrap();
    }

    #[test]
    fn new_reader_does_not_bypass_queued_writer() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Update); // queues
        let out = lm.request(o[3], 9, LockMode::Read); // must not bypass 2
        assert!(matches!(out, RequestOutcome::Blocked));
        assert!(lm.blockers_of(o[3]).contains(&o[2]));
        lm.audit().unwrap();
    }

    #[test]
    fn upgrade_succeeds_when_alone() {
        let (mut lm, o) = setup(false, 1);
        lm.request(o[1], 9, LockMode::Read);
        assert!(granted(&lm.request(o[1], 9, LockMode::Update)));
        assert_eq!(lm.mode_held(o[1], 9), Some(LockMode::Update));
    }

    #[test]
    fn upgrade_waits_for_other_reader_and_jumps_queue() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Read);
        lm.request(o[3], 9, LockMode::Update); // queues behind readers
        let out = lm.request(o[1], 9, LockMode::Update); // upgrade, ahead of 3
        assert!(matches!(out, RequestOutcome::Blocked));
        let grants = lm.release_all(o[2]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[1]);
        assert_eq!(lm.mode_held(o[1], 9), Some(LockMode::Update));
        lm.audit().unwrap();
    }

    #[test]
    fn queued_upgrade_survives_read_release() {
        // Regression (found by proptest): owner 5 queues an upgrade
        // behind reader 6, then releases its read locks; when 6 leaves,
        // the upgrade must grant as a fresh update lock with a
        // consistent holder entry.
        let (mut lm, o) = setup(false, 6);
        lm.request(o[6], 3, LockMode::Read);
        lm.request(o[5], 3, LockMode::Read);
        assert!(matches!(
            lm.request(o[5], 3, LockMode::Update),
            RequestOutcome::Blocked
        ));
        lm.release_read_locks(o[5]);
        lm.audit().unwrap();
        let grants = lm.release_read_locks(o[6]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[5]);
        assert_eq!(lm.mode_held(o[5], 3), Some(LockMode::Update));
        lm.audit().unwrap();
    }

    #[test]
    fn release_read_locks_keeps_updates() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 1, LockMode::Read);
        lm.request(o[1], 2, LockMode::Update);
        lm.request(o[2], 1, LockMode::Update); // waits on the read lock
        let grants = lm.release_read_locks(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]);
        assert_eq!(lm.mode_held(o[1], 1), None);
        assert_eq!(lm.mode_held(o[1], 2), Some(LockMode::Update));
        lm.audit().unwrap();
    }

    #[test]
    fn cancel_waiting_request_on_release_all() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[3], 9, LockMode::Read);
        assert!(lm.is_waiting(o[2]));
        // 2 aborts while waiting; 3 is still blocked by 1 (holder).
        let grants = lm.release_all(o[2]);
        assert!(grants.is_empty());
        assert!(!lm.is_waiting(o[2]));
        // now 1 releases: 3 gets the lock
        let grants = lm.release_all(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[3]);
        lm.audit().unwrap();
    }

    #[test]
    fn removing_queued_conflict_unblocks_followers() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Update); // queued
        lm.request(o[3], 9, LockMode::Read); // queued behind the update
        let grants = lm.release_all(o[2]); // cancel the update while 1 still holds
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[3]);
        assert_eq!(grants[0].mode, LockMode::Read);
        lm.audit().unwrap();
    }

    // ---------------- lending (OPT) ----------------

    #[test]
    fn prepared_update_lock_is_lendable() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.mark_prepared(o[1]);
        let out = lm.request(o[2], 9, LockMode::Read);
        assert_eq!(
            out,
            RequestOutcome::Granted {
                borrowed_from: vec![o[1]]
            }
        );
        assert!(lm.has_live_borrows(o[2]));
        assert_eq!(lm.borrowers_of(o[1]).collect::<Vec<_>>(), vec![o[2]]);
        assert_eq!(lm.borrow_grants(), 1);
        lm.audit().unwrap();
    }

    #[test]
    fn lending_disabled_without_opt() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.mark_prepared(o[1]);
        let out = lm.request(o[2], 9, LockMode::Read);
        assert!(matches!(out, RequestOutcome::Blocked));
    }

    #[test]
    fn mark_prepared_unblocks_existing_waiters() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        let out = lm.request(o[2], 9, LockMode::Update);
        assert!(matches!(out, RequestOutcome::Blocked));
        let grants = lm.mark_prepared(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]);
        assert_eq!(grants[0].borrowed_from, vec![o[1]]);
        lm.audit().unwrap();
    }

    #[test]
    fn lender_commit_dissolves_edges() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.mark_prepared(o[1]);
        lm.request(o[2], 9, LockMode::Update);
        let borrowers = lm.settle_borrows(o[1]);
        assert_eq!(borrowers, vec![o[2]]);
        assert!(!lm.has_live_borrows(o[2]));
        lm.release_all(o[1]);
        lm.audit().unwrap();
    }

    #[test]
    fn borrower_abort_drops_edges() {
        let (mut lm, o) = setup(true, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.mark_prepared(o[1]);
        lm.request(o[2], 9, LockMode::Read);
        lm.drop_borrower(o[2]);
        lm.release_all(o[2]);
        assert!(lm.borrowers_of(o[1]).next().is_none());
        lm.audit().unwrap();
    }

    #[test]
    fn multiple_borrowers_from_one_lender() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[1], 10, LockMode::Update);
        lm.mark_prepared(o[1]);
        assert!(granted(&lm.request(o[2], 9, LockMode::Update)));
        assert!(granted(&lm.request(o[3], 10, LockMode::Update)));
        // settle_borrows returns borrowers sorted by seq already
        assert_eq!(lm.settle_borrows(o[1]), vec![o[2], o[3]]);
        lm.audit().unwrap();
    }

    #[test]
    fn borrow_from_multiple_lenders() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 10, LockMode::Update);
        lm.mark_prepared(o[1]);
        lm.mark_prepared(o[2]);
        assert!(granted(&lm.request(o[3], 9, LockMode::Read)));
        assert!(granted(&lm.request(o[3], 10, LockMode::Read)));
        let mut lenders: Vec<_> = lm.lenders_of(o[3]).collect();
        lenders.sort_unstable_by_key(|&l| lm.owner_seq(l).unwrap());
        assert_eq!(lenders, vec![o[1], o[2]]);
        // first lender decides; the borrow from the second is still live
        lm.settle_borrows(o[1]);
        assert!(lm.has_live_borrows(o[3]));
        lm.settle_borrows(o[2]);
        assert!(!lm.has_live_borrows(o[3]));
    }

    #[test]
    fn lending_does_not_bypass_queue() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update); // queues (1 not prepared yet)
        lm.mark_prepared(o[1]); // grants 2 by borrowing
                                // 3 arrives now; queue is empty so it can also borrow? No: 2 now
                                // *holds* an update lock and is active, so 3 must wait.
        assert_eq!(
            lm.request(o[3], 9, LockMode::Update),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.blockers_of(o[3]), vec![o[2]]);
        lm.audit().unwrap();
    }

    #[test]
    fn blockers_exclude_lendable_holders() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update); // blocked by 1 (active)
        assert_eq!(lm.blockers_of(o[2]), vec![o[1]]);
        lm.request(o[3], 9, LockMode::Update); // blocked by 1 and queued 2
        assert_eq!(lm.blockers_of(o[3]), vec![o[1], o[2]]);
        let grants = lm.mark_prepared(o[1]);
        // 2 borrows; 3 blocked by 2 only (1 is lendable now)
        assert_eq!(grants.len(), 1);
        assert_eq!(lm.blockers_of(o[3]), vec![o[2]]);
    }

    fn waiters_of(lm: &LockManager, owner: OwnerId) -> Vec<OwnerId> {
        let mut out = Vec::new();
        lm.for_each_waiter(owner, |w| {
            if !out.contains(&w) {
                out.push(w);
            }
        });
        out.sort_unstable_by_key(|&w| lm.owner_seq(w));
        out
    }

    #[test]
    fn conflicting_waiter_on_a_held_page_is_a_waiter() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Read); // blocked by 1
        lm.request(o[3], 10, LockMode::Update); // unrelated page
        assert_eq!(waiters_of(&lm, o[1]), vec![o[2]]);
        assert!(waiters_of(&lm, o[3]).is_empty());
    }

    #[test]
    fn lendable_prepared_holder_has_no_waiters() {
        for lending in [true, false] {
            let (mut lm, o) = setup(lending, 3);
            lm.request(o[1], 9, LockMode::Update);
            lm.request(o[2], 9, LockMode::Update); // active, not lendable
            lm.request(o[3], 9, LockMode::Update); // queued behind 2
                                                   // 1 prepares: with lending 2 borrows through it and 3 waits
                                                   // on 2 alone; without lending both still wait on 1.
            lm.mark_prepared(o[1]);
            if lending {
                assert!(waiters_of(&lm, o[1]).is_empty());
                assert_eq!(waiters_of(&lm, o[2]), vec![o[3]]);
            } else {
                assert_eq!(waiters_of(&lm, o[1]), vec![o[2], o[3]]);
                assert_eq!(waiters_of(&lm, o[2]), vec![o[3]]);
            }
            lm.audit().unwrap();
        }
    }

    #[test]
    fn queued_upgrade_gains_in_edges_from_everything_behind_it() {
        let (mut lm, o) = setup(false, 4);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Read);
        lm.request(o[3], 9, LockMode::Update); // queues behind the readers
        lm.request(o[4], 9, LockMode::Read); // queues behind 3
                                             // Reader 4 conflicts with no holder, so before the upgrade only
                                             // 3 waits on 1.
        assert_eq!(waiters_of(&lm, o[1]), vec![o[3]]);
        // 1's upgrade waits on reader 2 at the front of the queue, and
        // everything conflicting behind it now waits on 1.
        assert!(matches!(
            lm.request(o[1], 9, LockMode::Update),
            RequestOutcome::Blocked
        ));
        assert_eq!(waiters_of(&lm, o[1]), vec![o[3], o[4]]);
        assert_eq!(lm.blockers_of(o[4]), vec![o[1], o[3]]);
        // The upgrade is not its own waiter; it does wait on reader 2.
        assert_eq!(waiters_of(&lm, o[2]), vec![o[1], o[3]]);
        lm.audit().unwrap();
    }

    #[test]
    fn read_waiter_behind_read_holder_is_not_a_waiter() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Update); // queued
        lm.request(o[3], 9, LockMode::Read); // queued behind the update
        assert_eq!(lm.blockers_of(o[3]), vec![o[2]]);
        assert_eq!(waiters_of(&lm, o[1]), vec![o[2]]);
        assert_eq!(waiters_of(&lm, o[2]), vec![o[3]]);
    }

    #[test]
    fn waiter_behind_borrower_unblocks_in_order() {
        // lender prepared; two waiters queue behind an active holder;
        // the queue drains in order once the active holder leaves.
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update); // will prepare (lender)
        lm.request(o[2], 9, LockMode::Update); // active waiter
        lm.request(o[3], 9, LockMode::Update); // behind 2
        let grants = lm.mark_prepared(o[1]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[2]); // borrows from 1
                                           // 3 still blocked by active borrower 2
        assert_eq!(lm.blockers_of(o[3]), vec![o[2]]);
        lm.drop_borrower(o[2]);
        lm.settle_borrows(o[2]);
        let grants = lm.release_all(o[2]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o[3]);
        assert_eq!(grants[0].borrowed_from, vec![o[1]]); // 1 still prepared
        lm.audit().unwrap();
    }

    #[test]
    fn read_borrowers_share_the_lent_page() {
        let (mut lm, o) = setup(true, 4);
        lm.request(o[1], 9, LockMode::Update);
        lm.mark_prepared(o[1]);
        // several concurrent read borrowers are mutually compatible
        assert!(granted(&lm.request(o[2], 9, LockMode::Read)));
        assert!(granted(&lm.request(o[3], 9, LockMode::Read)));
        assert!(granted(&lm.request(o[4], 9, LockMode::Read)));
        assert_eq!(lm.settle_borrows(o[1]), vec![o[2], o[3], o[4]]);
        lm.audit().unwrap();
    }

    #[test]
    fn update_borrower_blocks_later_readers() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.mark_prepared(o[1]);
        assert!(granted(&lm.request(o[2], 9, LockMode::Update))); // borrows
                                                                  // a later reader conflicts with the *active* borrower
        assert!(matches!(
            lm.request(o[3], 9, LockMode::Read),
            RequestOutcome::Blocked
        ));
        lm.audit().unwrap();
    }

    #[test]
    fn settle_is_idempotent_and_isolated() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 10, LockMode::Update);
        lm.mark_prepared(o[1]);
        lm.mark_prepared(o[2]);
        lm.request(o[3], 9, LockMode::Read); // borrows from 1
        lm.request(o[3], 10, LockMode::Read); // borrows from 2
        assert_eq!(lm.settle_borrows(o[1]), vec![o[3]]);
        assert!(lm.settle_borrows(o[1]).is_empty(), "second settle is empty");
        assert!(lm.has_live_borrows(o[3]), "edge to lender 2 must survive");
        assert_eq!(lm.settle_borrows(o[2]), vec![o[3]]);
        assert!(!lm.has_live_borrows(o[3]));
    }

    #[test]
    fn release_on_lockless_owner_is_a_noop() {
        let (mut lm, o) = setup(false, 1);
        assert!(lm.release_all(o[1]).is_empty());
        assert!(lm.release_read_locks(o[1]).is_empty());
        lm.drop_borrower(o[1]);
        assert!(lm.settle_borrows(o[1]).is_empty());
        lm.audit().unwrap();
    }

    /// The waiting-owner count follows the queue (`audit` recounts
    /// it from the page queues).
    #[test]
    fn waiting_count_tracks_queues() {
        let (mut lm, o) = setup(false, 3);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[3], 9, LockMode::Update);
        assert_eq!(lm.waiting_owners, 2);
        lm.audit().unwrap();
        lm.release_all(o[1]);
        assert_eq!(lm.waiting_owners, 1);
        lm.audit().unwrap();
        lm.release_all(o[2]);
        assert_eq!(lm.waiting_owners, 0);
        lm.audit().unwrap();
    }

    #[test]
    fn pages_held_and_mode_queries() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[1], 10, LockMode::Update);
        assert_eq!(lm.pages_held(o[1]), 2);
        assert_eq!(lm.mode_held(o[1], 9), Some(LockMode::Read));
        assert_eq!(lm.mode_held(o[1], 10), Some(LockMode::Update));
        assert_eq!(lm.mode_held(o[1], 11), None);
        assert_eq!(lm.pages_held(o[2]), 0);
        assert!(!lm.is_prepared(o[1]));
        lm.mark_prepared(o[1]);
        assert!(lm.is_prepared(o[1]));
    }

    #[test]
    fn borrow_grant_counter_counts_page_grants_not_edges() {
        let (mut lm, o) = setup(true, 4);
        lm.request(o[1], 9, LockMode::Read);
        lm.request(o[2], 9, LockMode::Read);
        lm.mark_prepared(o[1]);
        lm.mark_prepared(o[2]);
        // reads are compatible with the prepared read-holders: no borrow
        assert!(granted(&lm.request(o[3], 9, LockMode::Read)));
        assert_eq!(lm.borrow_grants(), 0);
        lm.release_all(o[3]);
        // an update through two prepared read-holders is one borrow
        // grant with two lenders
        assert!(granted(&lm.request(o[4], 9, LockMode::Update)));
        assert_eq!(lm.borrow_grants(), 1);
        let mut lenders: Vec<_> = lm.lenders_of(o[4]).collect();
        lenders.sort_unstable_by_key(|&l| lm.owner_seq(l).unwrap());
        assert_eq!(lenders, vec![o[1], o[2]]);
    }

    #[test]
    fn audit_detects_conflicting_holders() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Update);
        // Corrupt the table directly to prove audit sees it.
        let pi = lm.page_slot(9);
        lm.pages[pi].holders.push((o[2].0, LockMode::Update));
        assert!(lm.audit().is_err());
    }

    #[test]
    #[should_panic(expected = "already has a waiting request")]
    fn double_wait_panics() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[2], 9, LockMode::Update);
        lm.request(o[2], 10, LockMode::Update);
    }

    // ---------------- dense-storage specifics ----------------

    /// Grant order on bulk release depends only on page numbers, never
    /// on the order locks were acquired (the `held` list is maintained
    /// sorted, replacing the historical sort-before-drain workaround).
    #[test]
    fn grant_order_is_ascending_by_page_regardless_of_acquisition_order() {
        for acq in [[3u64, 9, 5], [9, 5, 3], [5, 3, 9]] {
            let (mut lm, o) = setup(false, 4);
            for &p in &acq {
                assert!(granted(&lm.request(o[1], p, LockMode::Update)));
            }
            // Waiters arrive in descending-page order, one per page.
            for (w, p) in [(2usize, 9u64), (3, 5), (4, 3)] {
                assert!(matches!(
                    lm.request(o[w], p, LockMode::Update),
                    RequestOutcome::Blocked
                ));
            }
            let grants = lm.release_all(o[1]);
            let pages: Vec<PageId> = grants.iter().map(|g| g.page).collect();
            assert_eq!(
                pages,
                vec![3, 5, 9],
                "acquisition order {acq:?} leaked into grant order"
            );
            lm.audit().unwrap();
        }
    }

    /// The same insertion-order independence holds for the lending path
    /// through `mark_prepared`.
    #[test]
    fn prepared_lending_grants_ascending_by_page() {
        for acq in [[3u64, 9, 5], [9, 5, 3]] {
            let (mut lm, o) = setup(true, 4);
            for &p in &acq {
                lm.request(o[1], p, LockMode::Update);
            }
            lm.request(o[2], 9, LockMode::Update);
            lm.request(o[3], 5, LockMode::Update);
            lm.request(o[4], 3, LockMode::Update);
            let grants = lm.mark_prepared(o[1]);
            assert_eq!(
                grants.iter().map(|g| g.page).collect::<Vec<_>>(),
                vec![3, 5, 9]
            );
            lm.audit().unwrap();
        }
    }

    #[test]
    fn owner_slots_are_reused_and_seqs_tracked() {
        let mut lm = LockManager::new(false);
        let a = lm.register_owner(10);
        let b = lm.register_owner(11);
        assert_eq!(lm.registered_count(), 2);
        assert_eq!(lm.owner_seq(a), Some(10));
        lm.unregister(a);
        assert_eq!(lm.registered_count(), 1);
        let c = lm.register_owner(12);
        assert_eq!(c.index(), a.index(), "freed slot is reused");
        assert_eq!(lm.owner_seq(c), Some(12));
        assert_eq!(lm.owner_seq(b), Some(11));
        lm.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "live lock state")]
    fn unregister_with_held_locks_panics() {
        let mut lm = LockManager::new(false);
        let a = lm.register_owner(1);
        lm.request(a, 9, LockMode::Update);
        lm.unregister(a);
    }

    /// With a page modulus, large page ids fold into a bounded table.
    #[test]
    fn page_modulus_bounds_the_table() {
        let mut lm = LockManager::for_pages(false, 8);
        let a = lm.register_owner(1);
        let b = lm.register_owner(2);
        assert!(granted(&lm.request(a, 1_000_003, LockMode::Update)));
        assert!(lm.pages.len() <= 8);
        assert_eq!(lm.mode_held(a, 1_000_003), Some(LockMode::Update));
        assert!(matches!(
            lm.request(b, 1_000_003, LockMode::Read),
            RequestOutcome::Blocked
        ));
        let grants = lm.release_all(a);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, b);
        lm.release_all(b);
        lm.audit().unwrap();
    }
}

// Seeded-loop generative tests (former proptest suite, rewritten as
// deterministic randomized loops over the same op space).
#[cfg(test)]
mod generative_tests {
    use super::*;
    use simkernel::SimRng;

    #[derive(Debug, Clone)]
    enum Op {
        Request { owner: u8, page: u8, update: bool },
        ReleaseAll { owner: u8 },
        ReleaseReads { owner: u8 },
        Prepare { owner: u8 },
        Settle { owner: u8 },
    }

    fn random_op(r: &mut SimRng) -> Op {
        let owner = r.uniform_u64(0, 7) as u8;
        match r.uniform_u64(0, 4) {
            0 => Op::Request {
                owner,
                page: r.uniform_u64(0, 5) as u8,
                update: r.chance(0.5),
            },
            1 => Op::ReleaseAll { owner },
            2 => Op::ReleaseReads { owner },
            3 => Op::Prepare { owner },
            _ => Op::Settle { owner },
        }
    }

    fn random_ops(r: &mut SimRng, max_len: usize) -> Vec<Op> {
        let len = r.uniform_usize(1, max_len);
        (0..len).map(|_| random_op(r)).collect()
    }

    /// Eight owners registered with `seq == index`, as the op space uses.
    fn table_with_owners(lending: bool) -> (LockManager, Vec<OwnerId>) {
        let mut lm = LockManager::new(lending);
        let owners = (0..8).map(|i| lm.register_owner(i)).collect();
        (lm, owners)
    }

    /// Random op sequences keep every audit invariant intact, with and
    /// without lending.
    #[test]
    fn random_ops_never_violate_invariants() {
        let mut r = SimRng::new(0x10CC_7AB1);
        for case in 0..300 {
            let lending = case % 2 == 0;
            let ops = random_ops(&mut r, 119);
            let (mut lm, o) = table_with_owners(lending);
            let mut prepared = std::collections::HashSet::new();
            for op in ops {
                match op {
                    Op::Request {
                        owner,
                        page,
                        update,
                    } => {
                        let owner = o[owner as usize];
                        if lm.is_waiting(owner) || prepared.contains(&owner) {
                            continue;
                        }
                        let mode = if update {
                            LockMode::Update
                        } else {
                            LockMode::Read
                        };
                        let _ = lm.request(owner, page as u64, mode);
                    }
                    Op::ReleaseAll { owner } => {
                        let owner = o[owner as usize];
                        lm.drop_borrower(owner);
                        lm.settle_borrows(owner);
                        lm.release_all(owner);
                        prepared.remove(&owner);
                    }
                    Op::ReleaseReads { owner } => {
                        lm.release_read_locks(o[owner as usize]);
                    }
                    Op::Prepare { owner } => {
                        let owner = o[owner as usize];
                        // only owners not waiting and not already prepared
                        if !lm.is_waiting(owner)
                            && !prepared.contains(&owner)
                            && lm.pages_held(owner) > 0
                            && !lm.has_live_borrows(owner)
                        {
                            lm.mark_prepared(owner);
                            prepared.insert(owner);
                        }
                    }
                    Op::Settle { owner } => {
                        let owner = o[owner as usize];
                        if prepared.contains(&owner) {
                            lm.settle_borrows(owner);
                            lm.release_all(owner);
                            prepared.remove(&owner);
                        }
                    }
                }
                if let Err(e) = lm.audit() {
                    panic!("audit failed (lending={lending}): {e}");
                }
                // `for_each_waiter` is the exact converse of
                // `for_each_blocker`.
                for &owner in &o {
                    for &w in &o {
                        let mut blocks = false;
                        lm.for_each_blocker(w, |b| blocks |= b == owner);
                        let mut waits = false;
                        lm.for_each_waiter(owner, |x| waits |= x == w);
                        assert_eq!(
                            waits, blocks,
                            "lending={lending}: seq {} waits on seq {}",
                            w.0, owner.0
                        );
                    }
                }
            }
        }
    }

    /// Without lending, conflicting pages serialize: at most one update
    /// holder, and never an update holder together with any other holder.
    #[test]
    fn no_lending_means_strict_exclusivity() {
        let mut r = SimRng::new(0x10CC_7AB2);
        for _ in 0..300 {
            let ops = random_ops(&mut r, 99);
            let (mut lm, o) = table_with_owners(false);
            for op in ops {
                match op {
                    Op::Request {
                        owner,
                        page,
                        update,
                    } => {
                        let owner = o[owner as usize];
                        if lm.is_waiting(owner) {
                            continue;
                        }
                        let mode = if update {
                            LockMode::Update
                        } else {
                            LockMode::Read
                        };
                        let _ = lm.request(owner, page as u64, mode);
                    }
                    Op::ReleaseAll { owner } => {
                        lm.release_all(o[owner as usize]);
                    }
                    _ => {}
                }
                assert!(lm.audit().is_ok());
            }
        }
    }
}
