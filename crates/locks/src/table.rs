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
//! * A vacated record stays in place, empty but with its lists'
//!   buffers, and the slot's next owner reuses them; `release_all_into`
//!   and `drop_borrower` hand their lists back cleared instead of
//!   dropping them; `settle_borrows_into` empties the lender's list in
//!   place. A caller that cycles a fixed population of owners (the
//!   engine's closed MPL loop) therefore allocates nothing for them
//!   once each slot has held its largest lists.
//!   [`LockManager::audit`] checks that every vacant record holds
//!   nothing and that the vacant records are exactly the free list.
//! * Only pages that are locked or waited for have a record (their
//!   holders and FCFS queue), so the records number the pages in use
//!   at once, not the pages ever touched. A page index with one `u32`
//!   per slot `page % page_modulus`, grown to the highest slot
//!   requested, names each page's record, or holds the sentinel
//!   `IDLE` while nothing holds or waits for the page. A page takes a
//!   record from a free list on its first request and hands it back,
//!   buffers kept, as soon as a release or a cancelled wait leaves it
//!   with no holder and no queued request. A caller that cycles owners
//!   over any number of pages therefore stops allocating records once
//!   the pool has grown to the most pages in use at once.
//!   [`LockManager::audit`] checks that indexed records are in use and
//!   indexed once, and that every other record is empty and free.
//! * Callers must keep the page ids used against one table *injective*
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
//! returned to the caller, appended to the caller's buffer by the
//! `_into` forms. A grant carries how many lenders it borrowed
//! through; [`LockManager::lenders_of`] names them.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Lock granted, borrowing through the conflicting locks of
    /// `lenders` prepared holders (0 for a plain grant).
    Granted { lenders: u32 },
    /// The owner already holds the page in this or a stronger mode.
    AlreadyHeld,
    /// The request queued. Query [`LockManager::blockers_of`] (or walk
    /// [`LockManager::for_each_blocker`]) for the owners the requester
    /// now waits on; the outcome itself carries no blocker list so the
    /// hot path never allocates one it may not need.
    Blocked,
}

/// A grant released by a state change (release, abort, prepare).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The owner whose waiting request was just granted.
    pub owner: OwnerId,
    /// The granted page.
    pub page: PageId,
    /// The granted mode.
    pub mode: LockMode,
    /// How many prepared lenders the grant borrowed through (0 for a
    /// plain grant).
    pub lenders: u32,
}

/// The page index's entry for a page that nothing holds or waits for.
const IDLE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct WaitReq {
    owner: u32,
    mode: LockMode,
    /// True when the owner already holds the page in `Read` mode and is
    /// waiting to upgrade.
    upgrade: bool,
}

/// The holders and FCFS queue of a page in use. A record in the free
/// pool holds nothing, but keeps its buffers for the next page.
#[derive(Debug, Default)]
struct PageLock {
    holders: Vec<(u32, LockMode)>,
    queue: VecDeque<WaitReq>,
}

impl PageLock {
    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }
}

/// All state of one owner slot, in one record. A vacant record (after
/// [`LockManager::unregister`]) holds nothing, but keeps its lists'
/// buffers for the next owner registered into the slot.
#[derive(Debug)]
struct OwnerState {
    /// A registered owner occupies the slot.
    live: bool,
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
    /// Pages are indexed at slot `page % page_modulus`.
    page_modulus: u64,
    /// Page slot → its page's record in `records`, or `IDLE`.
    index: Vec<u32>,
    /// Page records: the ones `index` names, and the free pool.
    records: Vec<PageLock>,
    /// Records no page uses, reused most recently freed first.
    free_records: Vec<u32>,
    owners: Vec<OwnerState>,
    /// Vacant slots, reused most recently vacated first.
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
            index: Vec::new(),
            records: Vec::new(),
            free_records: Vec::new(),
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
    /// globally unique cohort id). Returns its dense handle. A recycled
    /// slot's record is reused with its lists' buffers.
    pub fn register_owner(&mut self, seq: u64) -> OwnerId {
        self.registered += 1;
        match self.free_owners.pop() {
            Some(slot) => {
                let st = &mut self.owners[slot as usize];
                debug_assert!(!st.live, "free slot {slot} is occupied");
                st.live = true;
                st.seq = seq;
                OwnerId(slot)
            }
            None => {
                self.owners.push(OwnerState {
                    live: true,
                    seq,
                    held: Vec::new(),
                    waiting: None,
                    prepared: false,
                    lends: Vec::new(),
                    borrows: Vec::new(),
                });
                OwnerId((self.owners.len() - 1) as u32)
            }
        }
    }

    /// Unregister `owner`, recycling its slot. Panics if the owner
    /// still holds locks, waits, lends, borrows, or is prepared — the
    /// caller must fully tear it down first. The vacated record keeps
    /// its (empty) lists' buffers for the slot's next owner.
    pub fn unregister(&mut self, owner: OwnerId) {
        let st = self.st_mut(owner);
        assert!(
            st.held.is_empty()
                && st.waiting.is_none()
                && !st.prepared
                && st.lends.is_empty()
                && st.borrows.is_empty(),
            "owner seq {} unregistered with live lock state",
            st.seq
        );
        st.live = false;
        self.free_owners.push(owner.0);
        self.registered -= 1;
    }

    /// The sequence number `owner` was registered with, or `None` if
    /// the slot is currently vacant.
    pub fn owner_seq(&self, owner: OwnerId) -> Option<u64> {
        self.live_record(owner.0).map(|s| s.seq)
    }

    /// Number of currently registered owners.
    pub fn registered_count(&self) -> usize {
        self.registered
    }

    /// The record of the live owner in `slot`, if one occupies it.
    #[inline]
    fn live_record(&self, slot: u32) -> Option<&OwnerState> {
        self.owners.get(slot as usize).filter(|s| s.live)
    }

    #[inline]
    fn st(&self, owner: OwnerId) -> &OwnerState {
        self.slot_st(owner.0)
    }

    #[inline]
    fn st_mut(&mut self, owner: OwnerId) -> &mut OwnerState {
        self.slot_st_mut(owner.0)
    }

    #[inline]
    fn slot_st(&self, slot: u32) -> &OwnerState {
        let st = &self.owners[slot as usize];
        assert!(st.live, "unregistered lock owner");
        st
    }

    #[inline]
    fn slot_st_mut(&mut self, slot: u32) -> &mut OwnerState {
        let st = &mut self.owners[slot as usize];
        assert!(st.live, "unregistered lock owner");
        st
    }

    #[inline]
    fn seq_of(&self, slot: u32) -> u64 {
        self.slot_st(slot).seq
    }

    /// A vacant record is never prepared (`unregister` checks it).
    #[inline]
    fn prepared_slot(&self, slot: u32) -> bool {
        self.owners[slot as usize].prepared
    }

    #[inline]
    fn page_slot(&self, page: PageId) -> usize {
        (page % self.page_modulus) as usize
    }

    /// The record of `page`, taken from the free pool (or made) if the
    /// page is idle, growing the index if needed.
    fn take_record(&mut self, page: PageId) -> usize {
        let pi = self.page_slot(page);
        if pi >= self.index.len() {
            self.index.resize(pi + 1, IDLE);
        }
        if self.index[pi] == IDLE {
            self.index[pi] = match self.free_records.pop() {
                Some(r) => r,
                None => {
                    assert!(
                        self.records.len() < IDLE as usize,
                        "lock table out of page records"
                    );
                    self.records.push(PageLock::default());
                    (self.records.len() - 1) as u32
                }
            };
        }
        self.index[pi] as usize
    }

    /// The record of `page`, which something holds or waits for.
    #[inline]
    fn record_of(&self, page: PageId) -> usize {
        let r = self.index[self.page_slot(page)];
        debug_assert_ne!(r, IDLE, "page {page} is idle");
        r as usize
    }

    /// A holder or a queued request just left `page`, in slot `pi` with
    /// record `r`: grant what that unblocks, or hand the record back to
    /// the free pool, buffers kept, if nothing holds or waits for the
    /// page any more. A grant adds a holder, so a page with a queue
    /// never falls idle.
    fn drain_or_free(&mut self, pi: usize, r: usize, page: PageId, grants: &mut Vec<Grant>) {
        let rec = &self.records[r];
        if !rec.queue.is_empty() {
            self.drain_queue(r, page, grants);
        } else if rec.holders.is_empty() {
            self.index[pi] = IDLE;
            self.free_records.push(r as u32);
        }
    }

    fn page_ro(&self, page: PageId) -> Option<&PageLock> {
        match self.index.get(self.page_slot(page)) {
            Some(&r) if r != IDLE => Some(&self.records[r as usize]),
            _ => None,
        }
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
    /// whose global decision is still pending), in the order the
    /// borrow edges were made.
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
        let r = self.take_record(page);
        let rec = &self.records[r];
        debug_assert!(rec.holders.iter().all(|&(h, _)| h != owner.0));
        // Fairness: never bypass a non-empty queue.
        if rec.queue.is_empty() {
            if let Some(lenders) = self.lenders_for(rec, owner.0, mode) {
                self.records[r].holders.push((owner.0, mode));
                self.held_insert(owner, page, mode);
                self.note_borrows(r, owner.0, mode, lenders);
                return RequestOutcome::Granted { lenders };
            }
        }
        self.records[r].queue.push_back(WaitReq {
            owner: owner.0,
            mode,
            upgrade: false,
        });
        self.st_mut(owner).waiting = Some(page);
        self.waiting_owners += 1;
        RequestOutcome::Blocked
    }

    fn request_upgrade(&mut self, owner: OwnerId, page: PageId) -> RequestOutcome {
        let r = self.record_of(page);
        // Any other holder conflicts with an upgrade to Update.
        if let Some(lenders) = self.lenders_for(&self.records[r], owner.0, LockMode::Update) {
            for h in self.records[r].holders.iter_mut() {
                if h.0 == owner.0 {
                    h.1 = LockMode::Update;
                }
            }
            self.held_insert(owner, page, LockMode::Update);
            self.note_borrows(r, owner.0, LockMode::Update, lenders);
            return RequestOutcome::Granted { lenders };
        }
        // Upgrades wait at the *front* of the queue (they hold a read
        // lock already; anything granted ahead of them could only
        // deadlock against that read lock).
        self.records[r].queue.push_front(WaitReq {
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

    /// How many prepared lenders a grant of `mode` to `owner` on the
    /// page of `rec` would borrow through, or `None` while a
    /// conflicting holder cannot lend. The owner's own read lock, under
    /// an upgrade, is no conflict.
    #[inline]
    fn lenders_for(&self, rec: &PageLock, owner: u32, mode: LockMode) -> Option<u32> {
        let mut lenders = 0;
        for &(h, hmode) in &rec.holders {
            if h == owner || hmode.compatible(mode) {
                continue;
            }
            if self.opt_lending && self.prepared_slot(h) {
                lenders += 1;
            } else {
                return None;
            }
        }
        Some(lenders)
    }

    /// Record a borrow edge to `borrower`, just granted `mode` on the
    /// page of record `r`, from each of the `lenders` conflicting
    /// holders that [`Self::lenders_for`] counted there, in holder
    /// order.
    fn note_borrows(&mut self, r: usize, borrower: u32, mode: LockMode, lenders: u32) {
        if lenders == 0 {
            return;
        }
        self.borrow_grants += 1;
        let owners = &mut self.owners;
        for &(l, lmode) in &self.records[r].holders {
            if l == borrower || lmode.compatible(mode) {
                continue;
            }
            debug_assert!(owners[l as usize].prepared);
            let lends = &mut owners[l as usize].lends;
            if !lends.contains(&borrower) {
                lends.push(borrower);
            }
            let borrows = &mut owners[borrower as usize].borrows;
            if !borrows.contains(&l) {
                borrows.push(l);
            }
        }
    }

    /// Live blocker set of `owner`'s outstanding request, empty if it
    /// has none: conflicting (non-lendable) holders plus conflicting
    /// queued requests ahead of it, sorted by registration sequence.
    /// Used to build the global wait-for graph at deadlock-check time,
    /// so it is always computed from live state (no stale edges).
    pub fn blockers_of(&self, owner: OwnerId) -> Vec<OwnerId> {
        let mut blockers = Vec::new();
        self.for_each_blocker(owner, |b| blockers.push(b));
        // Seqs are unique among live owners, so sorting by seq also
        // groups duplicate slots adjacently for dedup.
        blockers.sort_unstable_by_key(|b| self.seq_of(b.0));
        blockers.dedup();
        blockers
    }

    /// Visit every blocker of `owner`'s outstanding request without
    /// allocating. Unlike [`Self::blockers_of`] the visit order is
    /// unspecified and an owner may be visited twice — suitable for
    /// callers that sort and dedup what they collect, as the engine's
    /// wait recording does.
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
            // Its own read lock during an upgrade wait does not block it.
            if h == owner.0 || hmode.compatible(mode) {
                continue;
            }
            if self.opt_lending && self.prepared_slot(h) {
                continue; // lendable: would not block once the queue clears
            }
            f(OwnerId(h));
        }
        for w in entry.queue.iter().take(pos) {
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
    /// appended to `grants`, in ascending page order (`held` is kept
    /// sorted, so no sort happens here).
    pub fn mark_prepared_into(&mut self, owner: OwnerId, grants: &mut Vec<Grant>) {
        {
            let st = self.st_mut(owner);
            debug_assert!(!st.prepared, "owner seq {} prepared twice", st.seq);
            st.prepared = true;
        }
        if !self.opt_lending {
            return;
        }
        // Index walk, no page snapshot: draining a held page can only
        // re-grant *this* owner an upgrade it already queued there,
        // which rewrites the held entry's mode in place — the list's
        // length and order never change under the cursor.
        let mut i = 0;
        while let Some(&(p, _)) = self.st(owner).held.get(i) {
            self.drain_queue(self.record_of(p), p, grants);
            i += 1;
        }
    }

    /// Release `owner`'s read locks (the paper: on PREPARE receipt "the
    /// cohort releases all its read locks but retains its update
    /// locks"). Appends the grants unblocked by the release to
    /// `grants`, in ascending page order.
    pub fn release_read_locks_into(&mut self, owner: OwnerId, grants: &mut Vec<Grant>) {
        // Walk the held list by index instead of snapshotting the read
        // pages: this path runs once per cohort prepare. Releasing the
        // read lock under the owner's own queued upgrade re-grants it as
        // `Update` at the same (sorted) position, which the cursor then
        // skips — exactly the snapshot semantics, without the Vec.
        let mut i = 0;
        while let Some(&(p, m)) = self.st(owner).held.get(i) {
            if m != LockMode::Read {
                i += 1;
                continue;
            }
            self.st_mut(owner).held.remove(i);
            self.release_page(owner.0, p, grants);
        }
    }

    /// Release every lock `owner` holds and cancel its waiting request,
    /// if any. Clears prepared status. Appends the grants unblocked by
    /// the release to `grants`, held pages in ascending order.
    ///
    /// Borrow edges are *not* touched — call
    /// [`LockManager::settle_borrows_into`] (for a decided lender)
    /// and/or [`LockManager::drop_borrower`] (for an aborting borrower)
    /// first.
    pub fn release_all_into(&mut self, owner: OwnerId, grants: &mut Vec<Grant>) {
        if let Some(page) = self.st_mut(owner).waiting.take() {
            self.waiting_owners -= 1;
            let pi = self.page_slot(page);
            let r = self.index[pi] as usize;
            self.records[r].queue.retain(|w| w.owner != owner.0);
            // Removing a queued conflicting request can unblock those behind it.
            self.drain_or_free(pi, r, page, grants);
        }
        // The waiting request is cancelled above, so draining cannot
        // grant `owner` anything while its list is out: the emptied
        // list goes back with its buffer.
        let mut held = std::mem::take(&mut self.st_mut(owner).held);
        for &(p, _) in &held {
            self.release_page(owner.0, p, grants);
        }
        held.clear();
        let st = self.st_mut(owner);
        st.held = held;
        st.prepared = false;
    }

    /// [`Self::release_all_into`] into a new `Vec`.
    pub fn release_all(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.release_all_into(owner, &mut grants);
        grants
    }

    /// `release_read_locks_into` into a new `Vec`.
    #[cfg(test)]
    pub fn release_read_locks(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.release_read_locks_into(owner, &mut grants);
        grants
    }

    /// `mark_prepared_into` into a new `Vec`.
    #[cfg(test)]
    pub fn mark_prepared(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.mark_prepared_into(owner, &mut grants);
        grants
    }

    /// `settle_borrows_into` into a new `Vec`.
    #[cfg(test)]
    pub fn settle_borrows(&mut self, lender: OwnerId) -> Vec<OwnerId> {
        let mut borrowers = Vec::new();
        self.settle_borrows_into(lender, &mut borrowers);
        borrowers
    }

    /// A lender's global decision arrived: dissolve its borrow edges and
    /// append its (former) borrowers to `out`, sorted by registration
    /// sequence. The lender keeps its emptied list's buffer. On commit
    /// the engine re-checks each borrower's shelf condition; on abort
    /// it aborts them all — the abort chain of OPT, bounded at length
    /// one.
    pub fn settle_borrows_into(&mut self, lender: OwnerId, out: &mut Vec<OwnerId>) {
        let start = out.len();
        out.extend(self.st_mut(lender).lends.drain(..).map(OwnerId));
        let settled = &mut out[start..];
        settled.sort_unstable_by_key(|&b| self.seq_of(b.0)); // deterministic processing order
        for &b in settled.iter() {
            self.slot_st_mut(b.0).borrows.retain(|&l| l != lender.0);
        }
    }

    /// A borrower is going away (abort or full release): drop its
    /// borrow edges from both directions.
    pub fn drop_borrower(&mut self, borrower: OwnerId) {
        let mut lenders = std::mem::take(&mut self.st_mut(borrower).borrows);
        for &l in &lenders {
            self.slot_st_mut(l).lends.retain(|&b| b != borrower.0);
        }
        lenders.clear();
        self.st_mut(borrower).borrows = lenders;
    }

    /// Drop `owner`'s hold on `page`.
    fn release_page(&mut self, owner: u32, page: PageId, grants: &mut Vec<Grant>) {
        let pi = self.page_slot(page);
        let r = self.index[pi] as usize;
        let holders = &mut self.records[r].holders;
        if let Some(i) = holders.iter().position(|&(h, _)| h == owner) {
            holders.remove(i);
        }
        self.drain_or_free(pi, r, page, grants);
    }

    /// Greedily grant from the head of the queue of `page`, whose record
    /// is `r`.
    fn drain_queue(&mut self, r: usize, page: PageId, grants: &mut Vec<Grant>) {
        while let Some(&head) = self.records[r].queue.front() {
            let Some(lenders) = self.lenders_for(&self.records[r], head.owner, head.mode) else {
                return;
            };
            let rec = &mut self.records[r];
            rec.queue.pop_front();
            // An upgrade promotes the read lock in place; if the owner
            // released its read locks while the upgrade was queued
            // (legal for a caller, even if the engine never does it),
            // the upgrade degenerates into a fresh grant.
            match rec.holders.iter().position(|&(h, _)| h == head.owner) {
                Some(i) => {
                    debug_assert!(head.upgrade, "a fresh request's owner already holds");
                    rec.holders[i].1 = LockMode::Update;
                }
                None => rec.holders.push((head.owner, head.mode)),
            }
            let oid = OwnerId(head.owner);
            self.held_insert(oid, page, head.mode);
            {
                let st = self.st_mut(oid);
                debug_assert_eq!(st.waiting, Some(page));
                st.waiting = None;
            }
            self.waiting_owners -= 1;
            self.note_borrows(r, head.owner, head.mode, lenders);
            grants.push(Grant {
                owner: oid,
                page,
                mode: head.mode,
                lenders,
            });
        }
    }

    // ------------------------------------------------------------------
    // Auditing (unit tests, and the end of every debug engine run)
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
    /// 6. Every vacant record holds, waits for, lends and borrows
    ///    nothing and is not prepared; holders, queued requests and
    ///    borrow edges name live owners only; and the vacant records
    ///    are exactly the free list.
    /// 7. Every page record the index names has a holder or a queued
    ///    request and is named by exactly one page slot; every free
    ///    record is empty and unnamed; and the named records plus the
    ///    free ones are all the records.
    pub fn audit(&self) -> Result<(), String> {
        // The page slot naming each record, if one does.
        let mut named_by: Vec<Option<usize>> = vec![None; self.records.len()];
        for (pi, &r) in self.index.iter().enumerate() {
            if r == IDLE {
                continue;
            }
            let Some(name) = named_by.get_mut(r as usize) else {
                return Err(format!(
                    "page slot {pi}: record {r} is past the {} records",
                    self.records.len()
                ));
            };
            if let Some(other) = name.replace(pi) {
                return Err(format!(
                    "record {r} is indexed by page slots {other} and {pi}"
                ));
            }
            let entry = &self.records[r as usize];
            if entry.is_idle() {
                return Err(format!(
                    "page slot {pi}: record {r} is indexed but nothing holds or waits for it"
                ));
            }
            if let Some(&(v, _)) = entry
                .holders
                .iter()
                .find(|&&(h, _)| !self.owners[h as usize].live)
            {
                return Err(format!("page slot {pi}: holder slot {v} is vacant"));
            }
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
                    .live_record(w.owner)
                    .is_some_and(|s| s.waiting.is_some_and(|p| self.page_slot(p) == pi));
                if !ok {
                    return Err(format!(
                        "page slot {pi}: queued owner slot {} not in waiting state",
                        w.owner
                    ));
                }
            }
        }
        let mut free = vec![false; self.records.len()];
        for &f in &self.free_records {
            let Some(seen) = free.get_mut(f as usize) else {
                return Err(format!("free record {f} does not exist"));
            };
            if std::mem::replace(seen, true) {
                return Err(format!("record {f} is on the free list twice"));
            }
            if let Some(pi) = named_by[f as usize] {
                return Err(format!("free record {f} is indexed by page slot {pi}"));
            }
            if !self.records[f as usize].is_idle() {
                return Err(format!("free record {f} holds or queues requests"));
            }
        }
        let named = named_by.iter().flatten().count();
        if named + self.free_records.len() != self.records.len() {
            return Err(format!(
                "{named} indexed and {} free page records, but {} records",
                self.free_records.len(),
                self.records.len()
            ));
        }
        let mut waiting_seen = 0usize;
        let mut registered_seen = 0usize;
        for (slot, st) in self.owners.iter().enumerate() {
            if !st.live {
                let clean = st.held.is_empty()
                    && st.waiting.is_none()
                    && !st.prepared
                    && st.lends.is_empty()
                    && st.borrows.is_empty();
                if !clean {
                    return Err(format!("vacant owner slot {slot} keeps lock state"));
                }
                continue;
            }
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
                    .live_record(b)
                    .is_some_and(|bs| bs.borrows.contains(&(slot as u32)));
                if !ok {
                    return Err(format!("asymmetric borrow edge seq {} -> slot {b}", st.seq));
                }
            }
            for &l in &st.borrows {
                let ok = self
                    .live_record(l)
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
        let vacant = self.owners.len() - registered_seen;
        if vacant != self.free_owners.len() {
            return Err(format!(
                "{vacant} vacant owner records but {} free slots",
                self.free_owners.len()
            ));
        }
        if let Some(&f) = self
            .free_owners
            .iter()
            .find(|&&f| self.owners[f as usize].live)
        {
            return Err(format!("free slot {f} is occupied"));
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
        assert_eq!(out, RequestOutcome::Granted { lenders: 1 });
        assert_eq!(lm.lenders_of(o[2]).collect::<Vec<_>>(), vec![o[1]]);
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
        assert_eq!(grants[0].lenders, 1);
        assert_eq!(lm.lenders_of(o[2]).collect::<Vec<_>>(), vec![o[1]]);
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

    /// The owners whose outstanding request `owner` blocks: the
    /// converse of `blockers_of`, ascending by registration sequence.
    fn waiters_of(lm: &LockManager, owner: OwnerId) -> Vec<OwnerId> {
        let mut out: Vec<OwnerId> = (0..lm.owners.len() as u32)
            .map(OwnerId)
            .filter(|&w| lm.owners[w.index()].live && lm.blockers_of(w).contains(&owner))
            .collect();
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
        assert_eq!(grants[0].lenders, 1); // 1 still prepared
        assert_eq!(lm.lenders_of(o[3]).collect::<Vec<_>>(), vec![o[1]]);
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
        let r = lm.record_of(9);
        lm.records[r].holders.push((o[2].0, LockMode::Update));
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
    fn recycled_owner_records_keep_their_buffers_and_audit_clean() {
        // Owners cycle through every state change and back into
        // recycled slots; the table audits clean after every step.
        let mut lm = LockManager::new(true);
        let step = |lm: &LockManager, what: &str| {
            lm.audit().unwrap_or_else(|e| panic!("after {what}: {e}"));
        };
        let (o1, o2) = (lm.register_owner(1), lm.register_owner(2));
        // o1's held list grows past its first capacity.
        for p in 0..9 {
            assert!(granted(&lm.request(o1, p, LockMode::Update)));
            step(&lm, "grant");
        }
        let held_cap = lm.owners[o1.index()].held.capacity();
        assert!(held_cap >= 9);
        assert!(granted(&lm.request(o2, 20, LockMode::Read)));
        assert!(granted(&lm.request(o2, 20, LockMode::Update)));
        step(&lm, "upgrade");
        assert_eq!(lm.request(o2, 0, LockMode::Update), RequestOutcome::Blocked);
        step(&lm, "block");
        // Preparing o1 lends page 0 to the waiting o2.
        let grants = lm.mark_prepared(o1);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].lenders, 1);
        assert_eq!(lm.lenders_of(o2).collect::<Vec<_>>(), vec![o1]);
        step(&lm, "prepare");
        let o3 = lm.register_owner(3);
        assert_eq!(
            lm.request(o3, 1, LockMode::Read),
            RequestOutcome::Granted { lenders: 1 }
        );
        assert_eq!(lm.lenders_of(o3).collect::<Vec<_>>(), vec![o1]);
        step(&lm, "borrow");
        // o1 commits: its borrowers are settled, its locks released and
        // its slot vacated, buffers kept.
        assert_eq!(lm.settle_borrows(o1), vec![o2, o3]);
        step(&lm, "settle");
        assert!(lm.release_all(o1).is_empty());
        step(&lm, "release");
        lm.unregister(o1);
        step(&lm, "unregister");
        assert_eq!(lm.owners[o1.index()].held.capacity(), held_cap);
        // A new owner moves into the recycled slot, buffers and all.
        let o4 = lm.register_owner(4);
        assert_eq!(o4.index(), o1.index());
        assert_eq!(lm.pages_held(o4), 0);
        assert!(!lm.is_prepared(o4) && !lm.has_live_borrows(o4));
        assert_eq!(lm.owners[o4.index()].held.capacity(), held_cap);
        step(&lm, "re-register");
        assert!(granted(&lm.request(o4, 30, LockMode::Update)));
        assert!(lm.mark_prepared(o4).is_empty());
        assert_eq!(
            lm.request(o2, 30, LockMode::Read),
            RequestOutcome::Granted { lenders: 1 }
        );
        assert_eq!(lm.lenders_of(o2).collect::<Vec<_>>(), vec![o4]);
        step(&lm, "borrow from the recycled slot");
        // The borrower aborts first, then everyone tears down.
        lm.drop_borrower(o2);
        assert!(lm.owners[o2.index()].borrows.capacity() >= 1);
        step(&lm, "drop borrower");
        for o in [o2, o3, o4] {
            assert!(lm.settle_borrows(o).is_empty());
            lm.drop_borrower(o);
            assert!(lm.release_all(o).is_empty());
            lm.unregister(o);
            step(&lm, "teardown");
        }
        assert_eq!(lm.registered_count(), 0);
        // Every slot is recycled, most recently vacated first.
        let again: Vec<OwnerId> = (5..8).map(|s| lm.register_owner(s)).collect();
        assert_eq!(again, vec![o4, o3, o2]);
        assert_eq!(lm.owners[o4.index()].held.capacity(), held_cap);
        step(&lm, "re-register all");
    }

    #[test]
    fn audit_detects_vacant_records_with_state() {
        let (mut lm, o) = setup(false, 1);
        lm.unregister(o[1]);
        lm.audit().unwrap();
        lm.owners[o[1].index()].held.push((3, LockMode::Read));
        assert!(lm.audit().unwrap_err().contains("vacant owner slot"));
        lm.owners[o[1].index()].held.clear();
        lm.free_owners.clear();
        assert!(lm.audit().unwrap_err().contains("free slots"));
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
        assert!(lm.index.len() <= 8);
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

    // ---------------- page index and record pool ----------------

    /// Owners sweep 64 000 pages, each locking four and waiting for a
    /// fifth that its predecessor holds, eight owners at a time. The
    /// record pool never outgrows the most pages locked or waited for
    /// at once, and the pages left behind are all idle.
    #[test]
    fn record_pool_never_exceeds_the_most_pages_in_use_at_once() {
        const PAGES: u64 = 64_000;
        let mut lm = LockManager::for_pages(false, PAGES);
        // Live owners, oldest first, with the pages each requested.
        let mut live: std::collections::VecDeque<(OwnerId, Vec<PageId>)> = Default::default();
        let mut most = 0;
        for (seq, first) in (0..PAGES).step_by(4).enumerate() {
            if live.len() == 8 {
                let (gone, _) = live.pop_front().expect("eight live owners");
                lm.release_all(gone);
                lm.unregister(gone);
            }
            let o = lm.register_owner(seq as u64);
            let mut pages: Vec<PageId> = (first..first + 4).collect();
            for &p in &pages {
                assert!(granted(&lm.request(o, p, LockMode::Update)));
            }
            if let Some((_, before)) = live.back() {
                assert_eq!(
                    lm.request(o, before[0], LockMode::Read),
                    RequestOutcome::Blocked
                );
                pages.push(before[0]);
            }
            live.push_back((o, pages));
            let in_use: std::collections::BTreeSet<PageId> =
                live.iter().flat_map(|(_, ps)| ps.iter().copied()).collect();
            most = most.max(in_use.len());
            assert!(
                lm.records.len() <= most,
                "{} page records, but at most {most} pages in use",
                lm.records.len()
            );
            if seq % 1000 == 0 {
                lm.audit().unwrap();
            }
        }
        // Four pages each, and the oldest owner also holds the page it
        // waited for, whose holder has left.
        assert_eq!(most, 8 * 4 + 1);
        assert_eq!(lm.index.len(), PAGES as usize);
        while let Some((gone, _)) = live.pop_front() {
            lm.release_all(gone);
            lm.unregister(gone);
        }
        assert!(lm.index.iter().all(|&r| r == IDLE));
        assert_eq!(lm.free_records.len(), lm.records.len());
        lm.audit().unwrap();
    }

    #[test]
    fn into_forms_append_and_settling_keeps_the_lends_buffer() {
        let (mut lm, o) = setup(true, 3);
        lm.request(o[1], 9, LockMode::Update);
        assert_eq!(lm.request(o[2], 9, LockMode::Read), RequestOutcome::Blocked);
        let earlier = Grant {
            owner: o[3],
            page: 1,
            mode: LockMode::Read,
            lenders: 0,
        };
        let mut grants = vec![earlier];
        lm.mark_prepared_into(o[1], &mut grants);
        let lent = Grant {
            owner: o[2],
            page: 9,
            mode: LockMode::Read,
            lenders: 1,
        };
        assert_eq!(grants, vec![earlier, lent]);
        let lends_cap = lm.owners[o[1].index()].lends.capacity();
        assert!(lends_cap >= 1);
        let mut borrowers = vec![o[3]];
        lm.settle_borrows_into(o[1], &mut borrowers);
        assert_eq!(borrowers, vec![o[3], o[2]]);
        assert!(lm.borrowers_of(o[1]).next().is_none());
        assert!(!lm.has_live_borrows(o[2]));
        assert_eq!(lm.owners[o[1].index()].lends.capacity(), lends_cap);
        lm.audit().unwrap();
    }

    #[test]
    fn audit_detects_an_idle_record_left_indexed() {
        let (mut lm, o) = setup(false, 1);
        lm.request(o[1], 9, LockMode::Update);
        lm.audit().unwrap();
        // Drop the lock behind the table's back: the page is idle, but
        // its record stays indexed instead of going back to the pool.
        let r = lm.record_of(9);
        lm.records[r].holders.clear();
        lm.owners[o[1].index()].held.clear();
        let err = lm.audit().unwrap_err();
        assert!(err.contains("indexed but nothing holds"), "{err}");
    }

    #[test]
    fn audit_detects_a_stale_index_entry() {
        let (mut lm, o) = setup(false, 2);
        lm.request(o[1], 9, LockMode::Update);
        lm.request(o[1], 10, LockMode::Update);
        lm.release_all(o[1]);
        // Page 11 takes the record page 10 gave back last.
        lm.request(o[2], 11, LockMode::Update);
        lm.audit().unwrap();
        let (slot9, r11) = (lm.page_slot(9), lm.record_of(11) as u32);
        let freed = lm.free_records[0];
        // Page 9's entry still names a record another page now uses ...
        lm.index[slot9] = r11;
        let err = lm.audit().unwrap_err();
        assert!(err.contains("indexed by page slots"), "{err}");
        // ... or the record it gave back.
        lm.index[slot9] = freed;
        let err = lm.audit().unwrap_err();
        assert!(err.contains("indexed but nothing holds"), "{err}");
        lm.index[slot9] = IDLE;
        lm.audit().unwrap();
        // A record in use must not also be free, nor a record be lost.
        lm.free_records.push(r11);
        let err = lm.audit().unwrap_err();
        assert!(err.contains("is indexed by page slot"), "{err}");
        lm.free_records.clear();
        let err = lm.audit().unwrap_err();
        assert!(err.contains("but 2 records"), "{err}");
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
