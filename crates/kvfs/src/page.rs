//! Pages and the three-tier page pool.
//!
//! A page holds up to `page_tokens` KV entries and is *resident* in exactly
//! one memory tier. A GPU-resident page that was swapped in from a lower
//! tier additionally keeps the slot it came from as a *backing copy* (a
//! host copy does not vanish when it is read): while the page's content is
//! unchanged, evicting it frees the GPU slot without moving a byte. Any
//! content mutation drops the backing copy, and a full lower tier reclaims
//! backing copies before it reports itself full. Pages are
//! reference-counted: [`crate::store::KvStore::fork`] shares pages between
//! files and copies only on divergence (copy-on-write of the mutable
//! tail). The pool enforces per-tier capacity; allocation failure is an
//! explicit error so callers can run eviction policies — the central
//! mechanism/policy split the paper argues for.
//!
//! A page keeps its tokens, not its entries. Every page's tokens live in
//! one arena the pool owns, as a paged KV cache's block table indexes one
//! pool of blocks: slot *i*'s row is the `page_tokens` tokens from
//! `i * page_tokens`, 4 bytes a token, and a page records only how much of
//! its row is in use. A token's position and fingerprint (the stand-in for
//! its K/V tensors) are one step of a chain, so a *regular* page keeps
//! only its first entry's position and fingerprint, the slot's head: entry
//! *i* sits at the head's position + *i*, and its fingerprint is the chain
//! continued through [`CtxFingerprint::then`]. A page whose entries stop
//! being one chain (a multi-range extract or a merge joins two, a `pred`
//! skips a position, a caller brings fingerprints of its own) keeps its
//! exact `(position, fingerprint)` pairs in a row of a side table, taken
//! from a free list when the page turns irregular and handed back when it
//! is emptied or freed. Readers derive entries ([`PagePool::entries`])
//! with at most one page of chain steps. The arenas grow with the slot
//! table and never shrink, so once they have grown, allocating, filling,
//! copying and freeing a page touch no heap.

use symphony_model::CtxFingerprint;
use symphony_tokenizer::TokenId;

use crate::error::KvError;

/// Default tokens per page, matching vLLM's common block size.
pub const PAGE_TOKENS_DEFAULT: usize = 16;

/// One cached token: the token, its absolute position, and the fingerprint
/// of the context *up to and including* this token (the surrogate for the
/// token's K/V tensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvEntry {
    /// Token ID.
    pub token: TokenId,
    /// Absolute position in the context (discontiguous layouts are legal).
    pub position: u32,
    /// Rolling context fingerprint after this token.
    pub fingerprint: CtxFingerprint,
}

impl KvEntry {
    /// Creates an entry.
    pub fn new(token: TokenId, position: u32, fingerprint: CtxFingerprint) -> Self {
        KvEntry {
            token,
            position,
            fingerprint,
        }
    }
}

/// An entry's place in its context: its position and the fingerprint
/// after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Anchor {
    pub(crate) position: u32,
    pub(crate) fingerprint: CtxFingerprint,
}

impl Anchor {
    pub(crate) const ZERO: Anchor = Anchor {
        position: 0,
        fingerprint: CtxFingerprint(0),
    };

    /// Where a chain from `fingerprint` starts: the anchor before
    /// position 0. Positions wrap, so it sits at `u32::MAX`.
    pub(crate) fn origin(fingerprint: CtxFingerprint) -> Self {
        Anchor {
            position: u32::MAX,
            fingerprint,
        }
    }

    pub(crate) fn of(e: &KvEntry) -> Self {
        Anchor {
            position: e.position,
            fingerprint: e.fingerprint,
        }
    }

    /// The anchor of `token` placed right after this one: the chain's next
    /// step.
    pub(crate) fn then(self, token: TokenId) -> Self {
        let position = self.position.wrapping_add(1);
        Anchor {
            position,
            fingerprint: self.fingerprint.then(token, position),
        }
    }

    /// The entry of `token` at this anchor.
    pub(crate) fn entry(self, token: TokenId) -> KvEntry {
        KvEntry::new(token, self.position, self.fingerprint)
    }
}

/// The `exact` row of a regular page: it has none.
const REGULAR: u32 = u32::MAX;

/// A slot's head: its first entry's position and fingerprint, and the
/// side-table row of an irregular page ([`REGULAR`] for a chain). Flat
/// rather than an [`Anchor`] and a row, so it packs into 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Head {
    fingerprint: CtxFingerprint,
    position: u32,
    exact: u32,
}

impl Head {
    fn chain(first: Anchor) -> Self {
        Head {
            fingerprint: first.fingerprint,
            position: first.position,
            exact: REGULAR,
        }
    }

    fn anchor(self) -> Anchor {
        Anchor {
            position: self.position,
            fingerprint: self.fingerprint,
        }
    }
}

/// A page's entries, derived as they are read ([`PagePool::entries`]).
#[derive(Debug, Clone)]
pub(crate) struct Entries<'a> {
    tokens: std::slice::Iter<'a, TokenId>,
    rows: Rows<'a>,
}

#[derive(Debug, Clone)]
enum Rows<'a> {
    /// A regular page: the head, then one chain step a token.
    Chain { head: Anchor, prev: Option<Anchor> },
    /// An irregular page's side-table row.
    Exact(std::slice::Iter<'a, Anchor>),
}

impl<'a> Entries<'a> {
    fn chain(tokens: &'a [TokenId], head: Anchor) -> Self {
        Entries {
            tokens: tokens.iter(),
            rows: Rows::Chain { head, prev: None },
        }
    }
}

impl Iterator for Entries<'_> {
    type Item = KvEntry;

    fn next(&mut self) -> Option<KvEntry> {
        let &token = self.tokens.next()?;
        let at = match &mut self.rows {
            Rows::Chain { head, prev } => {
                let at = prev.map_or(*head, |p| p.then(token));
                *prev = Some(at);
                at
            }
            Rows::Exact(rows) => *rows.next()?,
        };
        Some(at.entry(token))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tokens.size_hint()
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// Identifier of a page slot in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// The memory tier a page resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// GPU HBM — required for `pred`.
    Gpu,
    /// CPU DRAM — swap space for blocked or cold files.
    Cpu,
    /// NVMe disk — second-level spill and the persistence tier. Pages on
    /// disk survive a journal snapshot/restore cycle; swapping them back
    /// in is charged against the device's NVMe lane rather than PCIe.
    Disk,
}

/// A page slot. Its tokens are the first `len` of its arena row.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    pub len: u32,
    pub refcount: u32,
    pub tier: Tier,
    /// Lower tier still holding a byte-identical copy of this GPU-resident
    /// page (counted in that tier's `*_used`). `None` off the GPU.
    pub backing: Option<Tier>,
}

/// What [`PagePool::migrate`] did with a page's tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Migrated {
    /// The tokens crossed a lane into the destination tier.
    Copied(usize),
    /// The destination already held the page's backing copy: the GPU slot
    /// was freed and nothing moved.
    Dropped(usize),
}

/// The three-tier page pool.
#[derive(Debug)]
pub(crate) struct PagePool {
    slots: Vec<Option<Page>>,
    /// Every slot's row of `page_tokens` tokens, in slot order: always
    /// `slots.len() * page_tokens` long.
    tokens: Vec<TokenId>,
    /// Every slot's head, in slot order.
    heads: Vec<Head>,
    /// The side table: rows of `page_tokens` anchors, one for each
    /// irregular page and the rest on `exact_free`. It never shrinks, so
    /// its length is the most irregular pages the pool has held at once.
    exact: Vec<Anchor>,
    exact_free: Vec<u32>,
    free: Vec<u32>,
    page_tokens: usize,
    gpu_capacity: usize,
    cpu_capacity: usize,
    disk_capacity: usize,
    gpu_used: usize,
    cpu_used: usize,
    disk_used: usize,
    /// GPU-resident pages with a backing copy in DRAM / on disk.
    backed_cpu: usize,
    backed_disk: usize,
    /// Slot where the next backing-copy reclaim scan resumes, so a tier
    /// under sustained pressure sweeps the pool once, not once per page.
    reclaim_from: usize,
    /// Pages whose content or tier changed since the last
    /// [`PagePool::take_dirty`] drain: one bit per slot, 64 slots a word,
    /// grown with the slot table, so marking a page never allocates.
    /// `None` (the default) disables tracking entirely so the hot paths
    /// pay only an `Option` check; the store enables it when a delta
    /// journal is opened.
    dirty: Option<Vec<u64>>,
}

impl PagePool {
    pub(crate) fn new(
        page_tokens: usize,
        gpu_capacity: usize,
        cpu_capacity: usize,
        disk_capacity: usize,
    ) -> Self {
        assert!(page_tokens > 0, "page size must be positive");
        PagePool {
            slots: Vec::new(),
            tokens: Vec::new(),
            heads: Vec::new(),
            exact: Vec::new(),
            exact_free: Vec::new(),
            free: Vec::new(),
            page_tokens,
            gpu_capacity,
            cpu_capacity,
            disk_capacity,
            gpu_used: 0,
            cpu_used: 0,
            disk_used: 0,
            backed_cpu: 0,
            backed_disk: 0,
            reclaim_from: 0,
            dirty: None,
        }
    }

    /// Starts tracking content/tier changes for delta journalling.
    pub(crate) fn enable_dirty_tracking(&mut self) {
        self.dirty = Some(vec![0; self.slots.len().div_ceil(64)]);
    }

    /// Drains the dirty set, returning the still-live page ids in
    /// ascending order. Empty when tracking is disabled.
    pub(crate) fn take_dirty(&mut self) -> Vec<u32> {
        let mut drained = Vec::new();
        for (w, word) in self.dirty.iter_mut().flatten().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.slots[i].is_some() {
                    drained.push(i as u32);
                }
            }
        }
        drained
    }

    /// Marks a page dirty for the next delta drain (no-op while disabled).
    /// Content mutations go through [`PagePool::append_row`],
    /// [`PagePool::truncate_row`] and [`PagePool::copy_entries_into`],
    /// which call this.
    fn mark_dirty(&mut self, id: PageId) {
        if let Some(d) = self.dirty.as_mut() {
            d[id.0 as usize / 64] |= 1 << (id.0 % 64);
        }
    }

    pub(crate) fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    pub(crate) fn gpu_used(&self) -> usize {
        self.gpu_used
    }

    pub(crate) fn cpu_used(&self) -> usize {
        self.cpu_used
    }

    pub(crate) fn disk_used(&self) -> usize {
        self.disk_used
    }

    pub(crate) fn gpu_capacity(&self) -> usize {
        self.gpu_capacity
    }

    /// Pages all three tiers can hold. `alloc` adds a slot only when every
    /// slot is live, and every live page counts against a tier, so no
    /// pool this size has more slots than this.
    pub(crate) fn capacity(&self) -> usize {
        self.gpu_capacity
            .saturating_add(self.cpu_capacity)
            .saturating_add(self.disk_capacity)
    }

    fn tier_full(&self, tier: Tier) -> Option<KvError> {
        match tier {
            Tier::Gpu if self.gpu_used >= self.gpu_capacity => Some(KvError::NoGpuMemory),
            Tier::Cpu if self.cpu_used >= self.cpu_capacity => Some(KvError::NoCpuMemory),
            Tier::Disk if self.disk_used >= self.disk_capacity => Some(KvError::NoDiskMemory),
            _ => None,
        }
    }

    fn add_used(&mut self, tier: Tier) {
        match tier {
            Tier::Gpu => self.gpu_used += 1,
            Tier::Cpu => self.cpu_used += 1,
            Tier::Disk => self.disk_used += 1,
        }
    }

    fn sub_used(&mut self, tier: Tier) {
        match tier {
            Tier::Gpu => self.gpu_used -= 1,
            Tier::Cpu => self.cpu_used -= 1,
            Tier::Disk => self.disk_used -= 1,
        }
    }

    fn backed(&mut self, tier: Tier) -> &mut usize {
        match tier {
            Tier::Cpu => &mut self.backed_cpu,
            // The GPU never holds a backing copy; the arm is never taken.
            Tier::Disk | Tier::Gpu => &mut self.backed_disk,
        }
    }

    /// GPU-resident pages that currently keep a lower-tier backing copy.
    pub(crate) fn backing_pages(&self) -> usize {
        self.backed_cpu + self.backed_disk
    }

    /// Ensures `tier` can take one more page. Backing copies are only a
    /// cache of pages that live on the GPU, so a full tier reclaims one
    /// (next in slot order from where the last reclaim stopped) before it
    /// reports itself full.
    fn make_room(&mut self, tier: Tier) -> Result<(), KvError> {
        let Some(err) = self.tier_full(tier) else {
            return Ok(());
        };
        if tier == Tier::Gpu || *self.backed(tier) == 0 {
            return Err(err);
        }
        let n = self.slots.len();
        for step in 0..n {
            let idx = (self.reclaim_from + step) % n;
            if self.slots[idx]
                .as_ref()
                .is_some_and(|p| p.backing == Some(tier))
            {
                self.reclaim_from = idx + 1;
                self.unback(PageId(idx as u32));
                return Ok(());
            }
        }
        Err(err)
    }

    /// Gives up a page's backing copy, if it has one.
    fn unback(&mut self, id: PageId) {
        if let Some(tier) = self.page_mut(id).backing.take() {
            *self.backed(tier) -= 1;
            self.sub_used(tier);
        }
    }

    /// Where a page's row starts in the token arena.
    fn row(&self, id: PageId) -> usize {
        id.0 as usize * self.page_tokens
    }

    /// Grows the slot table, and the token arena and heads with it, to
    /// `slots` slots. A new row is zeroed; a freed one keeps its last
    /// page's tokens, and only a page's `len` says what is live.
    fn grow_to(&mut self, slots: usize) {
        if slots > self.slots.len() {
            self.slots.resize_with(slots, || None);
            if let Some(d) = self.dirty.as_mut() {
                d.resize(slots.div_ceil(64), 0);
            }
            self.tokens.resize(slots * self.page_tokens, 0);
            self.heads.resize(slots, Head::chain(Anchor::ZERO));
        }
    }

    /// A page's entries, derived from its tokens and its head (or its
    /// side-table row) as they are read.
    pub(crate) fn entries(&self, id: PageId) -> Entries<'_> {
        let len = self.page(id).len as usize;
        let start = self.row(id);
        let tokens = &self.tokens[start..start + len];
        let head = self.heads[id.0 as usize];
        if head.exact == REGULAR {
            return Entries::chain(tokens, head.anchor());
        }
        Entries {
            tokens: tokens.iter(),
            rows: Rows::Exact(self.exact_row(head.exact)[..len].iter()),
        }
    }

    /// A page's last entry.
    pub(crate) fn last(&self, id: PageId) -> Option<KvEntry> {
        self.entries(id).last()
    }

    /// Side-table row `row`.
    fn exact_row(&self, row: u32) -> &[Anchor] {
        &self.exact[row as usize * self.page_tokens..][..self.page_tokens]
    }

    fn exact_row_mut(&mut self, row: u32) -> &mut [Anchor] {
        &mut self.exact[row as usize * self.page_tokens..][..self.page_tokens]
    }

    /// A side-table row for a page that turns irregular: a free one, or a
    /// new one at the end of the table.
    fn take_exact_row(&mut self) -> u32 {
        self.exact_free.pop().unwrap_or_else(|| {
            let row = self.exact.len() / self.page_tokens;
            self.exact
                .resize(self.exact.len() + self.page_tokens, Anchor::ZERO);
            row as u32
        })
    }

    /// Turns a regular page irregular: its first `len` entries' anchors,
    /// derived from its head, go into a side-table row of its own.
    fn make_exact(&mut self, id: PageId, len: usize) {
        let row = self.take_exact_row();
        let slot = id.0 as usize;
        let start = self.row(id);
        let derived = Entries::chain(&self.tokens[start..start + len], self.heads[slot].anchor());
        let at = row as usize * self.page_tokens;
        for (to, e) in self.exact[at..at + len].iter_mut().zip(derived) {
            *to = Anchor::of(&e);
        }
        self.heads[slot].exact = row;
    }

    /// Gives a slot's side-table row, if it holds one, back to the free
    /// list: the slot is empty, or about to be written whole.
    fn free_exact(&mut self, id: PageId) {
        let head = &mut self.heads[id.0 as usize];
        if head.exact != REGULAR {
            self.exact_free.push(head.exact);
            head.exact = REGULAR;
        }
    }

    /// Appends `new` to a page's entries; they must fit in its row. `tail`
    /// is the anchor of the page's last entry (unread while the page is
    /// empty), and the last new entry's anchor is returned, so a writer
    /// that keeps its file's tail never derives it. A page stays regular
    /// while each new entry is the chain's next step from the one before
    /// it, and turns irregular at the first that is not. The lower-tier
    /// copy no longer matches after the edit, so the backing copy is
    /// dropped and the page is marked for the next delta drain.
    pub(crate) fn append_row(
        &mut self,
        id: PageId,
        new: impl Iterator<Item = KvEntry>,
        mut tail: Anchor,
    ) -> Anchor {
        let slot = id.0 as usize;
        let len = self.page(id).len as usize;
        let at = self.row(id) + len;
        let mut n = 0;
        for e in new {
            let here = Anchor::of(&e);
            self.tokens[at + n] = e.token;
            // An empty page is regular (emptying one frees its row).
            if len + n == 0 {
                self.heads[slot] = Head::chain(here);
            } else if self.heads[slot].exact == REGULAR && tail.then(e.token) != here {
                self.make_exact(id, len + n);
            }
            let row = self.heads[slot].exact;
            if row != REGULAR {
                self.exact_row_mut(row)[len + n] = here;
            }
            tail = here;
            n += 1;
        }
        if n > 0 {
            self.unback(id);
            self.mark_dirty(id);
            self.page_mut(id).len = (len + n) as u32;
        }
        tail
    }

    /// Shortens a page to its first `len` entries, unbacking and marking
    /// it as [`PagePool::append_row`] does. An emptied page is regular
    /// again.
    pub(crate) fn truncate_row(&mut self, id: PageId, len: usize) {
        self.unback(id);
        self.mark_dirty(id);
        let page = self.page_mut(id);
        page.len = (page.len as usize).min(len) as u32;
        if page.len == 0 {
            self.free_exact(id);
        }
    }

    /// Allocates an empty page in `tier` with refcount 1.
    pub(crate) fn alloc(&mut self, tier: Tier) -> Result<PageId, KvError> {
        self.make_room(tier)?;
        self.add_used(tier);
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.grow_to(self.slots.len() + 1);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some(Page {
            len: 0,
            refcount: 1,
            tier,
            backing: None,
        });
        let id = PageId(idx as u32);
        self.mark_dirty(id);
        Ok(id)
    }

    /// Increments a page's refcount (a new file now references it).
    pub(crate) fn retain(&mut self, id: PageId) {
        self.page_mut(id).refcount += 1;
    }

    /// Decrements a page's refcount, freeing the slot at zero.
    pub(crate) fn release(&mut self, id: PageId) {
        let tier;
        {
            let page = self.page_mut(id);
            debug_assert!(page.refcount > 0, "release of dead page");
            page.refcount -= 1;
            if page.refcount > 0 {
                return;
            }
            tier = page.tier;
        }
        self.unback(id);
        self.free_exact(id);
        self.slots[id.0 as usize] = None;
        self.free.push(id.0);
        self.sub_used(tier);
        if let Some(d) = self.dirty.as_mut() {
            // A freed slot has no content to journal; if it is reallocated
            // later, `alloc` re-marks it.
            d[id.0 as usize / 64] &= !(1 << (id.0 % 64));
        }
    }

    /// Moves a page's residency to `to`. Swapping into the GPU keeps the
    /// lower-tier slot as a backing copy; leaving the GPU for the tier that
    /// holds the backing copy frees the GPU slot without moving anything.
    pub(crate) fn migrate(&mut self, id: PageId, to: Tier) -> Result<Migrated, KvError> {
        let (from, backing, tokens) = {
            let page = self.page(id);
            (page.tier, page.backing, page.len as usize)
        };
        if from == to {
            return Ok(Migrated::Copied(0));
        }
        if backing == Some(to) {
            *self.backed(to) -= 1;
            self.sub_used(from);
            let page = self.page_mut(id);
            page.backing = None;
            page.tier = to;
            self.mark_dirty(id);
            return Ok(Migrated::Dropped(tokens));
        }
        self.make_room(to)?;
        self.add_used(to);
        if to == Tier::Gpu {
            self.page_mut(id).backing = Some(from);
            *self.backed(from) += 1;
        } else {
            // A copy in some third tier is not worth tracking.
            self.unback(id);
            self.sub_used(from);
        }
        self.page_mut(id).tier = to;
        self.mark_dirty(id);
        Ok(Migrated::Copied(tokens))
    }

    /// Installs a page with a known id, content and refcount — journal
    /// restore only. Grows the slot table as needed; fails with the
    /// tier's out-of-memory error when the configured capacity cannot
    /// hold another page, and refuses to overwrite a live slot, to take
    /// more entries than a row holds, or to take an id at or beyond the
    /// pool's total capacity.
    pub(crate) fn install(
        &mut self,
        id: PageId,
        tier: Tier,
        entries: &[KvEntry],
        refcount: u32,
    ) -> Result<(), KvError> {
        if let Some(err) = self.tier_full(tier) {
            return Err(err);
        }
        // No pool of this capacity wrote a larger id (see `capacity`):
        // refuse it before it sizes anything.
        let idx = id.0 as usize;
        if idx >= self.capacity() || entries.len() > self.page_tokens {
            return Err(KvError::JournalTorn);
        }
        self.grow_to(idx + 1);
        if self.slots[idx].is_some() {
            return Err(KvError::JournalTorn);
        }
        self.slots[idx] = Some(Page {
            len: 0,
            refcount,
            tier,
            backing: None,
        });
        self.append_row(id, entries.iter().copied(), Anchor::ZERO);
        self.add_used(tier);
        Ok(())
    }

    /// Finishes a journal restore: fixes the slot-table length (the
    /// caller keeps it within [`PagePool::capacity`]) and the free-slot
    /// order. With `free: Some(_)` the recorded snapshot order is adopted
    /// verbatim (byte-identical allocation behaviour); with `None` a
    /// canonical order is rebuilt — every empty slot, highest index
    /// pushed last, so `alloc` reuses the lowest index first.
    pub(crate) fn finish_restore(&mut self, slots_len: usize, free: Option<Vec<u32>>) {
        self.grow_to(slots_len);
        self.free = match free {
            Some(order) => order,
            None => {
                let mut rebuilt: Vec<u32> = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_none())
                    .map(|(i, _)| i as u32)
                    .collect();
                rebuilt.reverse();
                rebuilt
            }
        };
    }

    /// The free-slot stack in allocation-stack order (journal snapshot).
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Total slot-table length including empty slots (journal snapshot).
    pub(crate) fn slots_len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn page(&self, id: PageId) -> &Page {
        // Page ids are kernel-internal, never user-supplied; a dangling id
        // is a kvfs refcount bug that `Store::verify()` catches in tests,
        // and propagating an error here would poison every caller signature.
        self.slots[id.0 as usize]
            .as_ref()
            .expect("dangling page id") // lint:allow(k1): internal id, see above
    }

    pub(crate) fn page_mut(&mut self, id: PageId) -> &mut Page {
        // Same invariant as `page` above — ids come from `alloc` and are
        // released exactly once; `verify()` guards this in every test.
        self.slots[id.0 as usize]
            .as_mut()
            .expect("dangling page id") // lint:allow(k1): internal id, see above
    }

    /// Copies `src`'s entries over `dst`'s (copy-on-write divergence): one
    /// move within the token arena, the head, and an irregular page's
    /// side-table row into a row of `dst`'s own.
    pub(crate) fn copy_entries_into(&mut self, src: PageId, dst: PageId) {
        let len = self.page(src).len as usize;
        let (from, to) = (self.row(src), self.row(dst));
        self.tokens.copy_within(from..from + len, to);
        self.free_exact(dst);
        let head = self.heads[src.0 as usize];
        self.heads[dst.0 as usize] = Head::chain(head.anchor());
        if head.exact != REGULAR {
            let row = self.take_exact_row();
            let pt = self.page_tokens;
            let at = head.exact as usize * pt;
            self.exact.copy_within(at..at + len, row as usize * pt);
            self.heads[dst.0 as usize].exact = row;
        }
        self.page_mut(dst).len = len as u32;
        self.mark_dirty(dst);
    }

    /// The most pages that were irregular at once: the side table's rows.
    pub(crate) fn irregular_pages_peak(&self) -> usize {
        self.exact.len() / self.page_tokens
    }

    /// Number of live pages (for invariant checks).
    pub(crate) fn live_pages(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Checks the arenas' shape (one token row and one head per slot, no
    /// live page longer than its row), the side table's rows (each free or
    /// held by one live, non-empty page), and per-tier accounting:
    /// `used = resident + backing`, and only GPU pages are backed, by a
    /// lower tier.
    pub(crate) fn verify(&self) -> Result<(), String> {
        if self.tokens.len() != self.slots.len() * self.page_tokens
            || self.heads.len() != self.slots.len()
        {
            return Err(format!(
                "arena holds {} tokens and {} heads for {} slots of {}",
                self.tokens.len(),
                self.heads.len(),
                self.slots.len(),
                self.page_tokens
            ));
        }
        self.verify_exact()?;
        let mut used = [0usize; 3];
        let mut backed = [0usize; 3];
        let slot = |t: Tier| match t {
            Tier::Gpu => 0,
            Tier::Cpu => 1,
            Tier::Disk => 2,
        };
        for (pid, page) in self.iter() {
            if page.len as usize > self.page_tokens {
                return Err(format!(
                    "page {pid:?}: {} entries in a row of {}",
                    page.len, self.page_tokens
                ));
            }
            used[slot(page.tier)] += 1;
            if let Some(b) = page.backing {
                if page.tier != Tier::Gpu || b == Tier::Gpu {
                    return Err(format!(
                        "page {pid:?}: tier {:?} cannot be backed by {b:?}",
                        page.tier
                    ));
                }
                used[slot(b)] += 1;
                backed[slot(b)] += 1;
            }
        }
        if used != [self.gpu_used, self.cpu_used, self.disk_used] {
            return Err(format!(
                "tier accounting: resident+backing gpu/cpu/disk {used:?} but used {}/{}/{}",
                self.gpu_used, self.cpu_used, self.disk_used
            ));
        }
        if backed != [0, self.backed_cpu, self.backed_disk] {
            return Err(format!(
                "backing copies gpu/cpu/disk {backed:?} but counted {}/{}",
                self.backed_cpu, self.backed_disk
            ));
        }
        Ok(())
    }

    fn verify_exact(&self) -> Result<(), String> {
        if !self.exact.len().is_multiple_of(self.page_tokens) {
            return Err(format!("side table of {} anchors", self.exact.len()));
        }
        let mut held = vec![false; self.irregular_pages_peak()];
        let mut hold = |row: u32, by: &str| match held.get_mut(row as usize) {
            Some(h) if !*h => {
                *h = true;
                Ok(())
            }
            _ => Err(format!(
                "side-table row {row} ({by}) is out of range or held twice"
            )),
        };
        for &row in &self.exact_free {
            hold(row, "free")?;
        }
        for (i, head) in self.heads.iter().enumerate() {
            if head.exact == REGULAR {
                continue;
            }
            match &self.slots[i] {
                Some(page) if page.len > 0 => hold(head.exact, &format!("page {i}"))?,
                _ => return Err(format!("slot {i} holds a side-table row but no entries")),
            }
        }
        match held.iter().position(|h| !h) {
            Some(row) => Err(format!("side-table row {row} is neither free nor held")),
            None => Ok(()),
        }
    }

    /// Iterates over live pages.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageId, &Page)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (PageId(i as u32), p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u32) -> KvEntry {
        KvEntry::new(i, i, CtxFingerprint(i as u64))
    }

    /// `n` entries of a chain from `origin`, tokens from `first`.
    fn chain(origin: Anchor, first: u32, n: u32) -> impl Iterator<Item = KvEntry> {
        let mut at = origin;
        (first..first + n).map(move |t| {
            at = at.then(t);
            KvEntry::new(t, at.position, at.fingerprint)
        })
    }

    /// A page's entries, collected.
    fn read<C: FromIterator<KvEntry>>(pool: &PagePool, id: PageId) -> C {
        pool.entries(id).collect()
    }

    /// Appends `new` to a page, its tail derived.
    fn push(pool: &mut PagePool, id: PageId, new: &[KvEntry]) {
        let tail = pool.last(id).map_or(Anchor::ZERO, |e| Anchor::of(&e));
        pool.append_row(id, new.iter().copied(), tail);
    }

    #[test]
    fn a_chain_keeps_only_its_tokens_and_head() {
        let mut pool = PagePool::new(4, 4, 0, 0);
        let whole: Vec<_> = chain(Anchor::origin(CtxFingerprint(5)), 10, 4).collect();
        let p = pool.alloc(Tier::Gpu).unwrap();
        let first = pool.append_row(p, whole[..1].iter().copied(), Anchor::ZERO);
        assert_eq!(first, Anchor::of(&whole[0]));
        let last = pool.append_row(p, whole[1..].iter().copied(), first);
        assert_eq!(last, Anchor::of(&whole[3]));
        assert_eq!(read::<Vec<_>>(&pool, p), whole);
        assert_eq!(pool.irregular_pages_peak(), 0);
        pool.verify().unwrap();
    }

    #[test]
    fn a_broken_chain_keeps_exact_rows_until_emptied_or_freed() {
        let mut pool = PagePool::new(4, 4, 0, 0);
        let mut entries: Vec<_> = chain(Anchor::origin(CtxFingerprint(5)), 10, 4).collect();
        entries[2].position += 1; // a skipped position, mid-page
        let p = pool.alloc(Tier::Gpu).unwrap();
        push(&mut pool, p, &entries[..2]);
        push(&mut pool, p, &entries[2..]);
        assert_eq!(read::<Vec<_>>(&pool, p), entries);
        assert_eq!(pool.irregular_pages_peak(), 1);
        // A copy gets a row of its own; freeing the copy hands it back.
        let q = pool.alloc(Tier::Gpu).unwrap();
        pool.copy_entries_into(p, q);
        assert_eq!(read::<Vec<_>>(&pool, q), entries);
        assert_eq!(pool.irregular_pages_peak(), 2);
        pool.release(q);
        pool.verify().unwrap();
        // Emptied, the page is a chain again, and its row is free.
        pool.truncate_row(p, 0);
        push(&mut pool, p, &entries[..2]);
        assert_eq!(read::<Vec<_>>(&pool, p), entries[..2]);
        assert_eq!(pool.exact_free.len(), 2);
        pool.verify().unwrap();
        // A restored page is classified from its entries.
        pool.install(PageId(3), Tier::Gpu, &entries, 1).unwrap();
        assert_eq!(read::<Vec<_>>(&pool, PageId(3)), entries);
        assert_eq!(pool.exact_free.len(), 1);
        pool.verify().unwrap();
    }

    #[test]
    fn alloc_respects_capacity() {
        let mut pool = PagePool::new(4, 2, 1, 0);
        let a = pool.alloc(Tier::Gpu).unwrap();
        let _b = pool.alloc(Tier::Gpu).unwrap();
        assert_eq!(pool.alloc(Tier::Gpu), Err(KvError::NoGpuMemory));
        assert_eq!(pool.gpu_used(), 2);
        pool.release(a);
        assert_eq!(pool.gpu_used(), 1);
        pool.alloc(Tier::Gpu).unwrap();
        let _c = pool.alloc(Tier::Cpu).unwrap();
        assert_eq!(pool.alloc(Tier::Cpu), Err(KvError::NoCpuMemory));
    }

    #[test]
    fn refcounting_frees_at_zero() {
        let mut pool = PagePool::new(4, 8, 0, 0);
        let p = pool.alloc(Tier::Gpu).unwrap();
        pool.retain(p);
        pool.release(p);
        assert_eq!(pool.live_pages(), 1, "still one reference");
        pool.release(p);
        assert_eq!(pool.live_pages(), 0);
        assert_eq!(pool.gpu_used(), 0);
    }

    #[test]
    fn slot_reuse_after_free() {
        let mut pool = PagePool::new(4, 8, 0, 0);
        let a = pool.alloc(Tier::Gpu).unwrap();
        pool.release(a);
        let b = pool.alloc(Tier::Gpu).unwrap();
        assert_eq!(a, b, "freed slot should be reused");
    }

    #[test]
    fn migrate_moves_between_tiers() {
        let mut pool = PagePool::new(4, 2, 2, 0);
        let p = pool.alloc(Tier::Gpu).unwrap();
        push(&mut pool, p, &[entry(1), entry(2)]);
        let moved = pool.migrate(p, Tier::Cpu).unwrap();
        assert_eq!(moved, Migrated::Copied(2));
        assert_eq!(pool.gpu_used(), 0);
        assert_eq!(pool.cpu_used(), 1);
        assert_eq!(pool.page(p).tier, Tier::Cpu);
        // No-op migration.
        assert_eq!(pool.migrate(p, Tier::Cpu).unwrap(), Migrated::Copied(0));
    }

    #[test]
    fn migrate_respects_destination_capacity() {
        let mut pool = PagePool::new(4, 2, 1, 0);
        let a = pool.alloc(Tier::Gpu).unwrap();
        let b = pool.alloc(Tier::Gpu).unwrap();
        pool.migrate(a, Tier::Cpu).unwrap();
        assert_eq!(pool.migrate(b, Tier::Cpu), Err(KvError::NoCpuMemory));
    }

    #[test]
    fn disk_tier_allocates_and_migrates() {
        let mut pool = PagePool::new(4, 1, 1, 1);
        let p = pool.alloc(Tier::Gpu).unwrap();
        push(&mut pool, p, &[entry(7)]);
        assert_eq!(pool.migrate(p, Tier::Disk).unwrap(), Migrated::Copied(1));
        assert_eq!(pool.page(p).tier, Tier::Disk);
        assert_eq!(pool.disk_used(), 1);
        assert_eq!(pool.gpu_used(), 0);
        // Disk full: second page cannot spill.
        let q = pool.alloc(Tier::Gpu).unwrap();
        assert_eq!(pool.migrate(q, Tier::Disk), Err(KvError::NoDiskMemory));
        // Zero-capacity disk rejects allocation outright.
        let mut no_disk = PagePool::new(4, 1, 1, 0);
        assert_eq!(no_disk.alloc(Tier::Disk), Err(KvError::NoDiskMemory));
    }

    #[test]
    fn install_rebuilds_pool_state() {
        let mut pool = PagePool::new(4, 4, 0, 4);
        pool.install(PageId(2), Tier::Gpu, &[entry(1)], 2).unwrap();
        pool.install(PageId(0), Tier::Disk, &[entry(2)], 1).unwrap();
        assert_eq!(pool.gpu_used(), 1);
        assert_eq!(pool.disk_used(), 1);
        assert_eq!(pool.page(PageId(2)).refcount, 2);
        // Double-install of a live slot is a journal inconsistency.
        assert_eq!(
            pool.install(PageId(2), Tier::Gpu, &[], 1),
            Err(KvError::JournalTorn)
        );
        pool.finish_restore(3, None);
        // Slot 1 is the only hole; canonical order allocates it first.
        assert_eq!(pool.free_list(), &[1]);
        assert_eq!(pool.alloc(Tier::Gpu).unwrap(), PageId(1));
    }

    #[test]
    fn install_refuses_an_id_no_pool_this_size_allocates() {
        // 4 + 0 + 4 pages: ids 0..8 are the most this pool can have made.
        let mut pool = PagePool::new(4, 4, 0, 4);
        pool.install(PageId(7), Tier::Disk, &[entry(1)], 1).unwrap();
        for id in [8, u32::MAX - 1, u32::MAX] {
            assert_eq!(
                pool.install(PageId(id), Tier::Gpu, &[entry(2)], 1),
                Err(KvError::JournalTorn)
            );
        }
        assert_eq!(pool.slots_len(), 8, "nothing was sized by a refused id");
    }
}
