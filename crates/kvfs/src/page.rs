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
//! Every page's entries live in one arena the pool owns, as a paged KV
//! cache's block table indexes one pool of blocks: slot *i*'s row is the
//! `page_tokens` entries from `i * page_tokens`, and a page records only
//! how much of its row is in use. The arena grows with the slot table and
//! never shrinks, so once it has grown, allocating, filling, copying and
//! freeing a page touch no heap.

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

/// A page slot. Its entries are the first `len` of its arena row.
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
    /// Every slot's row of `page_tokens` entries, in slot order: always
    /// `slots.len() * page_tokens` long.
    arena: Vec<KvEntry>,
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
            arena: Vec::new(),
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

    /// Where a page's row starts in the arena.
    fn row(&self, id: PageId) -> usize {
        id.0 as usize * self.page_tokens
    }

    /// Grows the slot table, and the arena with it, to `slots` slots. A
    /// new row is zeroed; a freed one keeps its last page's entries, and
    /// only a page's `len` says what is live.
    fn grow_to(&mut self, slots: usize) {
        if slots > self.slots.len() {
            self.slots.resize_with(slots, || None);
            if let Some(d) = self.dirty.as_mut() {
                d.resize(slots.div_ceil(64), 0);
            }
            let zero = KvEntry::new(0, 0, CtxFingerprint(0));
            self.arena.resize(slots * self.page_tokens, zero);
        }
    }

    /// A page's entries.
    pub(crate) fn entries(&self, id: PageId) -> &[KvEntry] {
        let start = self.row(id);
        &self.arena[start..start + self.page(id).len as usize]
    }

    /// Appends `new` to a page's entries; they must fit in its row. The
    /// lower-tier copy no longer matches after the edit, so the backing
    /// copy is dropped and the page is marked for the next delta drain.
    pub(crate) fn append_row(&mut self, id: PageId, new: &[KvEntry]) {
        self.unback(id);
        self.mark_dirty(id);
        let start = self.row(id);
        let len = self.page(id).len as usize;
        self.arena[start..start + self.page_tokens][len..len + new.len()].copy_from_slice(new);
        self.page_mut(id).len = (len + new.len()) as u32;
    }

    /// Shortens a page to its first `len` entries, unbacking and marking
    /// it as [`PagePool::append_row`] does.
    pub(crate) fn truncate_row(&mut self, id: PageId, len: usize) {
        self.unback(id);
        self.mark_dirty(id);
        let page = self.page_mut(id);
        page.len = (page.len as usize).min(len) as u32;
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
        let start = self.row(id);
        self.arena[start..start + entries.len()].copy_from_slice(entries);
        self.slots[idx] = Some(Page {
            len: entries.len() as u32,
            refcount,
            tier,
            backing: None,
        });
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
    /// move within the arena.
    pub(crate) fn copy_entries_into(&mut self, src: PageId, dst: PageId) {
        let len = self.page(src).len;
        let (from, to) = (self.row(src), self.row(dst));
        self.arena.copy_within(from..from + len as usize, to);
        self.page_mut(dst).len = len;
        self.mark_dirty(dst);
    }

    /// Number of live pages (for invariant checks).
    pub(crate) fn live_pages(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Checks the arena's shape (one row per slot, no live page longer
    /// than its row) and per-tier accounting: `used = resident + backing`,
    /// and only GPU pages are backed, by a lower tier.
    pub(crate) fn verify(&self) -> Result<(), String> {
        if self.arena.len() != self.slots.len() * self.page_tokens {
            return Err(format!(
                "arena holds {} entries for {} slots of {}",
                self.arena.len(),
                self.slots.len(),
                self.page_tokens
            ));
        }
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
        pool.append_row(p, &[entry(1), entry(2)]);
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
        pool.append_row(p, &[entry(7)]);
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
