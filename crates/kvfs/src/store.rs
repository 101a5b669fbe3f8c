//! The KV file store: namespace, access control, quotas, and the
//! fork/extract/merge operations of §4.2.

use std::borrow::Cow;
use std::collections::BTreeMap;

use symphony_model::CtxFingerprint;
use symphony_telemetry::{Counter, MetricsRegistry};
use symphony_tokenizer::TokenId;

use crate::error::KvError;
use crate::journal::{self, Record, RestoreReport};
use crate::page::{Anchor, KvEntry, Migrated, PageId, PagePool, Tier, PAGE_TOKENS_DEFAULT};

/// A tenant identity (a Symphony process, a baseline engine, or "the admin").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

impl OwnerId {
    /// The administrative owner: passes every permission check.
    pub const ADMIN: OwnerId = OwnerId(0);
}

/// A KV file identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Non-owner permission bits ("system prompts might be readable by all LIPs
/// but writable only by the admin", §4.2). The owner always has full access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mode {
    /// Any owner may read.
    pub read_all: bool,
    /// Any owner may write (append/truncate/remove/swap/pin).
    pub write_all: bool,
}

impl Mode {
    /// Owner-private file.
    pub const PRIVATE: Mode = Mode {
        read_all: false,
        write_all: false,
    };

    /// World-readable, owner-writable — the shared-prefix publishing mode.
    pub const SHARED_READ: Mode = Mode {
        read_all: true,
        write_all: false,
    };
}

/// Where a file's pages currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// No pages (empty file).
    Empty,
    /// All pages in GPU HBM; `pred` may use the file.
    Gpu,
    /// No pages in GPU HBM, at least one in CPU DRAM (the rest may be on
    /// disk) — swap-in crosses PCIe, possibly plus the NVMe lane.
    Cpu,
    /// Every page spilled to the disk tier; swap-in crosses the NVMe lane.
    Disk,
    /// Pages split between GPU and lower tiers (mid-swap).
    Mixed,
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct KvStoreConfig {
    /// Tokens per page.
    pub page_tokens: usize,
    /// GPU-tier capacity in pages.
    pub gpu_pages: usize,
    /// CPU-tier capacity in pages.
    pub cpu_pages: usize,
    /// Disk-tier capacity in pages (0 disables the disk tier).
    pub disk_pages: usize,
    /// KV bytes per token (for byte-denominated statistics).
    pub bytes_per_token: u64,
}

impl KvStoreConfig {
    /// A small configuration for unit tests.
    pub fn for_tests() -> Self {
        KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 64,
            cpu_pages: 64,
            disk_pages: 64,
            bytes_per_token: 1024,
        }
    }

    /// Sizes the pools from byte budgets and a model's per-token KV size.
    ///
    /// Policy: a *nonzero* byte budget always yields at least one page —
    /// integer truncation used to turn a budget smaller than one page into
    /// a zero-page tier whose every allocation failed with a confusing
    /// out-of-memory error. A zero budget stays zero (tier disabled).
    pub fn from_bytes(
        gpu_kv_bytes: u64,
        cpu_kv_bytes: u64,
        disk_kv_bytes: u64,
        bytes_per_token: u64,
        page_tokens: usize,
    ) -> Self {
        assert!(bytes_per_token > 0 && page_tokens > 0);
        let page_bytes = bytes_per_token * page_tokens as u64;
        let pages = |budget_bytes: u64| {
            if budget_bytes == 0 {
                0
            } else {
                ((budget_bytes / page_bytes) as usize).max(1)
            }
        };
        KvStoreConfig {
            page_tokens,
            gpu_pages: pages(gpu_kv_bytes),
            cpu_pages: pages(cpu_kv_bytes),
            disk_pages: pages(disk_kv_bytes),
            bytes_per_token,
        }
    }
}

impl Default for KvStoreConfig {
    fn default() -> Self {
        KvStoreConfig {
            page_tokens: PAGE_TOKENS_DEFAULT,
            gpu_pages: 4096,
            cpu_pages: 16_384,
            disk_pages: 65_536,
            bytes_per_token: 819_200,
        }
    }
}

/// Public snapshot of one file's metadata.
#[derive(Debug, Clone)]
pub struct FileStat {
    /// File ID.
    pub id: FileId,
    /// Owning tenant.
    pub owner: OwnerId,
    /// Entry (token) count.
    pub len: usize,
    /// Page count.
    pub pages: usize,
    /// Whether the file is pinned against eviction/swap.
    pub pinned: bool,
    /// Holder of the exclusive write lock, if any.
    pub locked_by: Option<OwnerId>,
    /// Tier placement.
    pub residency: Residency,
    /// Logical last-access stamp (monotone counter, for LRU policies).
    pub last_access: u64,
    /// The access stamp before `last_access` (0 until the file's second
    /// access, and after a restore): what [`KvStore::evict_lru`] orders by
    /// first.
    pub prev_access: u64,
    /// Paths linked to this file.
    pub links: usize,
}

#[derive(Debug)]
struct FileMeta {
    pages: Vec<crate::page::PageId>,
    len: usize,
    /// The last entry's position and fingerprint ([`Anchor::ZERO`] while
    /// the file is empty), kept by every write so that reading the tail
    /// and appending to it derive nothing.
    tail: Anchor,
    owner: OwnerId,
    mode: Mode,
    pinned: bool,
    lock: Option<OwnerId>,
    last_access: u64,
    /// The access before `last_access`. Not logged: a restored file starts
    /// with 0, as if it had been touched once.
    prev_access: u64,
    links: usize,
}

impl FileMeta {
    /// Whether a delta batch describes the file: a restored store keeps
    /// the files the namespace names and the admin's. An unlinked file of
    /// any other owner belongs to a program that recovery runs again, or
    /// to one whose exit removed it.
    fn durable(&self) -> bool {
        self.links > 0 || self.owner == OwnerId::ADMIN
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Quota {
    used_pages: usize,
    limit_pages: Option<usize>,
}

/// Cumulative store statistics — a point-in-time snapshot of the store's
/// counters in the unified metrics registry (`kvfs.*`).
#[derive(Debug, Default, Clone, Copy)]
pub struct KvStats {
    /// Tokens moved out of GPU HBM (to DRAM or disk).
    pub swapped_out_tokens: u64,
    /// Tokens moved back into GPU HBM (from DRAM or disk).
    pub swapped_in_tokens: u64,
    /// Tokens that landed on the disk tier (CPU-pressure spill or demote).
    pub disk_spilled_tokens: u64,
    /// Tokens read back from the disk tier.
    pub disk_loaded_tokens: u64,
    /// Copy-on-write page copies performed.
    pub cow_copies: u64,
    /// Entries copied by `extract`/`merge`.
    pub copied_entries: u64,
    /// Tokens that left GPU HBM without crossing a lane: their pages'
    /// backing copies were still current.
    pub clean_dropped_tokens: u64,
}

/// Live counter handles into the metrics registry backing [`KvStats`].
#[derive(Debug, Clone)]
struct KvCounters {
    swapped_out_tokens: Counter,
    swapped_in_tokens: Counter,
    disk_spilled_tokens: Counter,
    disk_loaded_tokens: Counter,
    cow_copies: Counter,
    copied_entries: Counter,
    clean_dropped_tokens: Counter,
}

impl KvCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        KvCounters {
            swapped_out_tokens: registry.counter("kvfs.swapped_out_tokens"),
            swapped_in_tokens: registry.counter("kvfs.swapped_in_tokens"),
            disk_spilled_tokens: registry.counter("kvfs.disk_spilled_tokens"),
            disk_loaded_tokens: registry.counter("kvfs.disk_loaded_tokens"),
            cow_copies: registry.counter("kvfs.cow_copies"),
            copied_entries: registry.counter("kvfs.copied_entries"),
            clean_dropped_tokens: registry.counter("kvfs.clean_dropped_tokens"),
        }
    }
}

/// Token-move breakdown of one swap operation, split by the lane the bytes
/// crossed: `dram_tokens` moved over PCIe (GPU↔CPU), `disk_tokens` crossed
/// the NVMe lane (anything↔disk). Callers charge each lane's cost model.
/// `dropped_tokens` left the GPU for free because a lower tier still held
/// their backing copy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// Tokens moved between GPU HBM and CPU DRAM (PCIe traffic).
    pub dram_tokens: usize,
    /// Tokens moved to or from the disk tier (NVMe traffic).
    pub disk_tokens: usize,
    /// Tokens whose GPU slot was freed without a transfer (clean pages).
    pub dropped_tokens: usize,
}

impl SwapReport {
    /// Total tokens that crossed a lane (clean drops move nothing).
    pub fn total(&self) -> usize {
        self.dram_tokens + self.disk_tokens
    }

    /// Books one page migration whose lower-tier end is `lower`.
    fn add(&mut self, lower: Tier, moved: Migrated) {
        match (moved, lower) {
            (Migrated::Dropped(n), _) => self.dropped_tokens += n,
            (Migrated::Copied(n), Tier::Disk) => self.disk_tokens += n,
            (Migrated::Copied(n), Tier::Cpu | Tier::Gpu) => self.dram_tokens += n,
        }
    }
}

/// Change tracking for delta batches.
///
/// The dirty sets say *which* live entities changed since the last
/// [`KvStore::drain_changes`]; the shadow maps remember the namespace,
/// described-file set, and quota limits as the last batch described them,
/// so the drain can emit a structural diff (removes, unlinks, links, quota
/// changes) instead of logging every operation. Entities born and removed
/// between drains never touch the diff at all, and neither does a file
/// no batch describes ([`FileMeta::durable`]).
#[derive(Debug, Default)]
struct DeltaLog {
    /// Live file ids whose metadata changed since the last drain.
    dirty_files: std::collections::BTreeSet<u64>,
    /// A linked file or the namespace changed since the last drain
    /// ([`KvStore::has_published_changes`]).
    published: bool,
    /// The file ids the log describes as of the last drain.
    shadow_files: std::collections::BTreeSet<u64>,
    /// Namespace as of the last drain.
    shadow_namespace: BTreeMap<String, u64>,
    /// The owners with a quota limit, and the limit, as of the last drain.
    shadow_quotas: BTreeMap<u64, u64>,
}

impl DeltaLog {
    /// Notes that file `id` changed; a linked file's change is published.
    fn file_changed(&mut self, id: u64, linked: bool) {
        self.dirty_files.insert(id);
        self.published |= linked;
    }
}

/// Page tables of the files in `keep`, `id` itself left out.
fn kept_tables<'a>(
    files: &'a BTreeMap<u64, FileMeta>,
    id: FileId,
    keep: &[FileId],
) -> Vec<&'a FileMeta> {
    keep.iter()
        .filter(|&&x| x != id)
        .filter_map(|x| files.get(&x.0))
        .collect()
}

/// `true` when one of the `kept` tables also references page `p`, which
/// sits at index `k` of the table being swapped out. Shared pages always
/// sit at the same index in every page table that references them — `fork`
/// clones the table and `append`/`truncate` only touch its tail
/// ([`KvStore::verify`] checks this) — so one probe per table decides.
fn held(kept: &[&FileMeta], k: usize, p: PageId) -> bool {
    kept.iter().any(|m| m.pages.get(k) == Some(&p))
}

/// The KV file store.
#[derive(Debug)]
pub struct KvStore {
    pool: PagePool,
    files: BTreeMap<u64, FileMeta>,
    next_file: u64,
    namespace: BTreeMap<String, FileId>,
    quotas: BTreeMap<OwnerId, Quota>,
    access_clock: u64,
    bytes_per_token: u64,
    counters: KvCounters,
    /// `Some` while changes are tracked (see [`KvStore::track_changes`]);
    /// `None` keeps every mutation path at its original cost.
    delta: Option<DeltaLog>,
}

impl KvStore {
    /// Creates an empty store with a private metrics registry.
    pub fn new(config: KvStoreConfig) -> Self {
        KvStore::with_registry(config, &MetricsRegistry::new())
    }

    /// Creates an empty store whose counters live in `registry` under the
    /// `kvfs.*` names, so the embedding kernel can snapshot them alongside
    /// every other subsystem.
    pub fn with_registry(config: KvStoreConfig, registry: &MetricsRegistry) -> Self {
        KvStore {
            pool: PagePool::new(
                config.page_tokens,
                config.gpu_pages,
                config.cpu_pages,
                config.disk_pages,
            ),
            files: BTreeMap::new(),
            next_file: 1,
            namespace: BTreeMap::new(),
            quotas: BTreeMap::new(),
            access_clock: 0,
            bytes_per_token: config.bytes_per_token,
            counters: KvCounters::register(registry),
            delta: None,
        }
    }

    // ---- accounting ------------------------------------------------------

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.pool.page_tokens()
    }

    /// GPU pages in use.
    pub fn gpu_pages_used(&self) -> usize {
        self.pool.gpu_used()
    }

    /// GPU page capacity.
    pub fn gpu_pages_capacity(&self) -> usize {
        self.pool.gpu_capacity()
    }

    /// Free GPU pages.
    pub fn gpu_pages_free(&self) -> usize {
        self.pool.gpu_capacity() - self.pool.gpu_used()
    }

    /// CPU pages in use.
    // lint:allow(u1): the property tests' view of the host-memory tier's budget
    pub fn cpu_pages_used(&self) -> usize {
        self.pool.cpu_used()
    }

    /// Disk pages in use.
    pub fn disk_pages_used(&self) -> usize {
        self.pool.disk_used()
    }

    /// GPU-resident pages that keep a backing copy in a lower tier.
    pub fn backing_pages(&self) -> usize {
        self.pool.backing_pages()
    }

    /// Total live pages across all tiers.
    pub fn live_pages(&self) -> usize {
        self.pool.live_pages()
    }

    /// The most pages that were *irregular* at once: pages whose entries
    /// are not one fingerprint chain, so they keep each entry's position
    /// and fingerprint beside its token (docs/KVFS.md "Page storage").
    /// Zero for a store whose every file was written as a chain.
    pub fn irregular_pages_peak(&self) -> usize {
        self.pool.irregular_pages_peak()
    }

    /// KV bytes per token (byte-denominated statistics).
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Cumulative statistics (a snapshot of the `kvfs.*` counters).
    pub fn stats(&self) -> KvStats {
        KvStats {
            swapped_out_tokens: self.counters.swapped_out_tokens.get(),
            swapped_in_tokens: self.counters.swapped_in_tokens.get(),
            disk_spilled_tokens: self.counters.disk_spilled_tokens.get(),
            disk_loaded_tokens: self.counters.disk_loaded_tokens.get(),
            cow_copies: self.counters.cow_copies.get(),
            copied_entries: self.counters.copied_entries.get(),
            clean_dropped_tokens: self.counters.clean_dropped_tokens.get(),
        }
    }

    /// Sets an owner's page quota (`None` = unlimited).
    pub fn set_quota(&mut self, owner: OwnerId, limit_pages: Option<usize>) {
        self.quotas.entry(owner).or_default().limit_pages = limit_pages;
        self.forget_idle_quota(owner);
    }

    /// Drops `owner`'s entry once it says nothing — no pages charged, no
    /// limit set — so the map is bounded by the owners that hold something,
    /// not by every owner that ever allocated.
    fn forget_idle_quota(&mut self, owner: OwnerId) {
        let idle = |q: &Quota| q.used_pages == 0 && q.limit_pages.is_none();
        if self.quotas.get(&owner).is_some_and(idle) {
            self.quotas.remove(&owner);
        }
    }

    /// Pages currently charged to an owner.
    // lint:allow(u1): the property tests' check that quotas are charged and released
    pub fn quota_used(&self, owner: OwnerId) -> usize {
        self.quotas.get(&owner).map_or(0, |q| q.used_pages)
    }

    fn charge(&mut self, owner: OwnerId, pages: usize) -> Result<(), KvError> {
        let q = self.quotas.get(&owner).copied().unwrap_or_default();
        if q.limit_pages.is_some_and(|limit| q.used_pages + pages > limit) {
            return Err(KvError::QuotaExceeded);
        }
        // A zero charge leaves no entry behind.
        if pages > 0 {
            self.quotas.entry(owner).or_default().used_pages += pages;
        }
        Ok(())
    }

    fn credit(&mut self, owner: OwnerId, pages: usize) {
        let q = self.quotas.entry(owner).or_default();
        debug_assert!(q.used_pages >= pages, "quota underflow");
        q.used_pages = q.used_pages.saturating_sub(pages);
        self.forget_idle_quota(owner);
    }

    // ---- permission helpers ----------------------------------------------

    fn meta(&self, id: FileId) -> Result<&FileMeta, KvError> {
        self.files.get(&id.0).ok_or(KvError::NotFound)
    }

    fn meta_mut(&mut self, id: FileId) -> Result<&mut FileMeta, KvError> {
        self.meta_and_pool(id).map(|(m, _)| m)
    }

    /// [`KvStore::meta_mut`] with the page pool borrowed beside it, so a
    /// loop that gives a file pages looks the file up once.
    fn meta_and_pool(&mut self, id: FileId) -> Result<(&mut FileMeta, &mut PagePool), KvError> {
        // Every metadata mutation flows through here (or `touch`), which is
        // what makes the delta log's dirty-file set complete.
        let m = self.files.get_mut(&id.0).ok_or(KvError::NotFound)?;
        if let Some(d) = self.delta.as_mut() {
            d.file_changed(id.0, m.links > 0);
        }
        Ok((m, &mut self.pool))
    }

    fn check_read(&self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        let m = self.meta(id)?;
        if caller == OwnerId::ADMIN || caller == m.owner || m.mode.read_all {
            Ok(())
        } else {
            Err(KvError::PermissionDenied)
        }
    }

    fn check_write(&self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        let m = self.meta(id)?;
        if !(caller == OwnerId::ADMIN || caller == m.owner || m.mode.write_all) {
            return Err(KvError::PermissionDenied);
        }
        match m.lock {
            Some(holder) if holder != caller => Err(KvError::Locked),
            _ => Ok(()),
        }
    }

    fn touch(&mut self, id: FileId) {
        self.access_clock += 1;
        let clock = self.access_clock;
        if let Some(m) = self.files.get_mut(&id.0) {
            m.prev_access = m.last_access;
            m.last_access = clock;
            // `last_access` is logged state: reads dirty the file too,
            // but publish nothing.
            if let Some(d) = self.delta.as_mut() {
                d.file_changed(id.0, false);
            }
        }
    }

    // ---- lifecycle ---------------------------------------------------------

    /// Creates an empty file owned by `owner` with [`Mode::PRIVATE`].
    pub fn create(&mut self, owner: OwnerId) -> Result<FileId, KvError> {
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            id.0,
            FileMeta {
                pages: Vec::new(),
                len: 0,
                tail: Anchor::ZERO,
                owner,
                mode: Mode::PRIVATE,
                pinned: false,
                lock: None,
                last_access: 0,
                prev_access: 0,
                links: 0,
            },
        );
        self.touch(id);
        Ok(id)
    }

    /// Sets a file's permission mode (owner or admin only).
    pub fn chmod(&mut self, id: FileId, caller: OwnerId, mode: Mode) -> Result<(), KvError> {
        let m = self.meta(id)?;
        if caller != OwnerId::ADMIN && caller != m.owner {
            return Err(KvError::PermissionDenied);
        }
        self.meta_mut(id)?.mode = mode;
        Ok(())
    }

    /// Removes a file, releasing its pages and any namespace links.
    pub fn remove(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        let meta = self.files.remove(&id.0).ok_or(KvError::NotFound)?;
        for p in &meta.pages {
            self.pool.release(*p);
        }
        self.credit(meta.owner, meta.pages.len());
        self.namespace.retain(|_, v| *v != id);
        // The diff against the shadow says whether the file goes in the
        // next batch; its dirty mark would only outlive it.
        if let Some(d) = self.delta.as_mut() {
            d.dirty_files.remove(&id.0);
            d.published |= meta.links > 0;
        }
        Ok(())
    }

    // ---- namespace ---------------------------------------------------------

    /// Links a path to a file so other processes can [`KvStore::open`] it.
    pub fn link(&mut self, id: FileId, path: &str, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        if self.namespace.contains_key(path) {
            return Err(KvError::AlreadyExists);
        }
        self.namespace.insert(path.to_string(), id);
        self.meta_mut(id)?.links += 1;
        if let Some(d) = self.delta.as_mut() {
            d.published = true;
        }
        Ok(())
    }

    /// Removes a path (the file itself survives).
    pub fn unlink(&mut self, path: &str, caller: OwnerId) -> Result<(), KvError> {
        let id = *self.namespace.get(path).ok_or(KvError::NotFound)?;
        self.check_write(id, caller)?;
        self.namespace.remove(path);
        self.meta_mut(id)?.links -= 1;
        Ok(())
    }

    /// Resolves a path to a file ID, checking read permission.
    pub fn open(&mut self, path: &str, caller: OwnerId) -> Result<FileId, KvError> {
        let id = *self.namespace.get(path).ok_or(KvError::NotFound)?;
        self.check_read(id, caller)?;
        self.touch(id);
        Ok(id)
    }

    /// Resolves a path without permission checks or access stamping.
    pub fn lookup(&self, path: &str) -> Option<FileId> {
        self.namespace.get(path).copied()
    }

    // ---- locks -------------------------------------------------------------

    /// Takes the exclusive write lock (idempotent for the holder).
    pub fn lock(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_read(id, caller)?;
        let m = self.meta_mut(id)?;
        match m.lock {
            None => {
                m.lock = Some(caller);
                Ok(())
            }
            Some(holder) if holder == caller => Ok(()),
            Some(_) => Err(KvError::Locked),
        }
    }

    /// Releases the exclusive write lock.
    pub fn unlock(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        let m = self.meta_mut(id)?;
        match m.lock {
            Some(holder) if holder == caller => {
                m.lock = None;
                Ok(())
            }
            Some(_) => Err(KvError::NotLockHolder),
            None => Err(KvError::NotLockHolder),
        }
    }

    // ---- content -----------------------------------------------------------

    /// Entry count.
    pub fn len(&self, id: FileId) -> Result<usize, KvError> {
        Ok(self.meta(id)?.len)
    }

    /// Returns `true` if the file has no entries.
    pub fn is_empty(&self, id: FileId) -> Result<bool, KvError> {
        Ok(self.meta(id)?.len == 0)
    }

    /// Fingerprint of the last entry (the context `pred` continues from).
    pub fn tail_fingerprint(&self, id: FileId) -> Result<Option<CtxFingerprint>, KvError> {
        let m = self.meta(id)?;
        Ok((m.len > 0).then_some(m.tail.fingerprint))
    }

    /// Position following the last entry (0 for an empty file).
    /// [`KvError::BadRange`] when the last entry sits at `u32::MAX`: that
    /// position can be written, but nothing follows it.
    pub fn next_position(&self, id: FileId) -> Result<u32, KvError> {
        let m = self.meta(id)?;
        match m.len {
            0 => Ok(0),
            _ => m.tail.position.checked_add(1).ok_or(KvError::BadRange),
        }
    }

    /// Reads `count` entries starting at entry index `start`.
    pub fn read(
        &mut self,
        id: FileId,
        caller: OwnerId,
        start: usize,
        count: usize,
    ) -> Result<Vec<KvEntry>, KvError> {
        self.check_read(id, caller)?;
        let m = self.meta(id)?;
        if start.checked_add(count).is_none_or(|end| end > m.len) {
            return Err(KvError::BadRange);
        }
        let mut out = Vec::with_capacity(count);
        let pt = self.pool.page_tokens();
        let mut idx = start;
        while out.len() < count {
            let page = m.pages[idx / pt];
            let within = idx % pt;
            let take = (count - out.len()).min(self.pool.page(page).len as usize - within);
            out.extend(self.pool.entries(page).skip(within).take(take));
            idx += take;
        }
        self.touch(id);
        Ok(out)
    }

    /// Reads the whole file (no permission check; kernel/executor internal).
    pub fn read_all_unchecked(&self, id: FileId) -> Result<Vec<KvEntry>, KvError> {
        let m = self.meta(id)?;
        let mut out = Vec::with_capacity(m.len);
        for &p in &m.pages {
            out.extend(self.pool.entries(p));
        }
        Ok(out)
    }

    /// Returns `true` if appending `n` entries would fit in the GPU tier
    /// (capacity only; quota is still checked by [`KvStore::append`]).
    /// Executors use this to fail fast before computing model outputs.
    pub fn can_append(&self, id: FileId, n: usize) -> Result<bool, KvError> {
        let pt = self.pool.page_tokens();
        let m = self.meta(id)?;
        let (tail_free, tail_shared) = match m.pages.last() {
            Some(&p) => {
                let page = self.pool.page(p);
                (pt - page.len as usize, page.refcount > 1)
            }
            None => (0, false),
        };
        let cow = usize::from(n > 0 && tail_free > 0 && tail_shared);
        let new_pages = n.saturating_sub(tail_free).div_ceil(pt);
        Ok(self.pool.gpu_used() + new_pages + cow <= self.pool.gpu_capacity())
    }

    /// Appends entries, copy-on-writing a shared tail page if needed.
    ///
    /// Allocation needs are checked up front, so a failed append leaves the
    /// file unchanged. New pages are allocated in the GPU tier; the file's
    /// existing tail must be GPU-resident.
    pub fn append(
        &mut self,
        id: FileId,
        caller: OwnerId,
        entries: &[KvEntry],
    ) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        self.append_entries(id, entries.iter().copied())
    }

    /// Appends `tokens` as the chain's continuation: each at the position
    /// after the one before, with the fingerprint
    /// [`CtxFingerprint::then`] steps to from the file's tail fingerprint
    /// (from `origin` when the file is empty). That is what
    /// [`KvStore::append`] stores for the entries a
    /// `symphony_model::Fingerprinter` chain computes, derived as they are
    /// written rather than built by the caller. Fails like `append`, and
    /// with [`KvError::BadRange`] when a position would pass `u32::MAX`.
    pub fn append_chain(
        &mut self,
        id: FileId,
        caller: OwnerId,
        tokens: &[TokenId],
        origin: CtxFingerprint,
    ) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        let m = self.meta(id)?;
        let (mut at, first) = match m.len {
            0 => (Anchor::origin(origin), 0),
            _ => (m.tail, u64::from(m.tail.position) + 1),
        };
        if first + tokens.len() as u64 > u64::from(u32::MAX) + 1 {
            return Err(KvError::BadRange);
        }
        self.append_entries(
            id,
            tokens.iter().map(move |&t| {
                at = at.then(t);
                at.entry(t)
            }),
        )
    }

    /// The body of [`KvStore::append`] and [`KvStore::append_chain`]:
    /// checks capacity and quota, copy-on-writes a shared tail, and writes
    /// the entries into the tail and the pages it adds.
    fn append_entries(
        &mut self,
        id: FileId,
        mut entries: impl ExactSizeIterator<Item = KvEntry>,
    ) -> Result<(), KvError> {
        let n = entries.len();
        if n == 0 {
            return Ok(());
        }
        let pt = self.pool.page_tokens();
        let (tail_free, tail_shared, tail_tier) = {
            let m = self.meta(id)?;
            match m.pages.last() {
                Some(&p) => {
                    let page = self.pool.page(p);
                    (pt - page.len as usize, page.refcount > 1, Some(page.tier))
                }
                None => (0, false, None),
            }
        };
        if let Some(t) = tail_tier {
            if t != Tier::Gpu && tail_free > 0 {
                return Err(KvError::NotResident);
            }
        }
        let writes_into_tail = tail_free > 0;
        let cow_pages = usize::from(writes_into_tail && tail_shared);
        let overflow = n.saturating_sub(tail_free);
        let new_pages = overflow.div_ceil(pt);
        // Upfront capacity and quota checks (COW replaces a page in this
        // file, so quota only grows by `new_pages`).
        if self.pool.gpu_used() + new_pages + cow_pages > self.pool.gpu_capacity() {
            return Err(KvError::NoGpuMemory);
        }
        let owner = self.meta(id)?.owner;
        self.charge(owner, new_pages)?;

        // COW the tail if it is shared and we are about to write into it.
        // (`tail_free > 0` implies the file has a tail page, and the
        // capacity check above reserved the COW page — a `BadRange` or
        // `NoGpuMemory` here would mean the accounting itself is broken,
        // so it surfaces as a typed error, not a panic.)
        if cow_pages == 1 {
            let old = *self.meta(id)?.pages.last().ok_or(KvError::BadRange)?;
            let copy = self.pool.alloc(Tier::Gpu)?;
            self.pool.copy_entries_into(old, copy);
            self.pool.release(old);
            *self
                .meta_mut(id)?
                .pages
                .last_mut()
                .ok_or(KvError::BadRange)? = copy;
            self.counters.cow_copies.inc();
        }

        // One lookup (and one dirty mark) for the tail and all the pages
        // this call adds.
        let (m, pool) = self.meta_and_pool(id)?;
        let mut tail = m.tail;
        let mut left = n;
        if writes_into_tail {
            let take = n.min(tail_free);
            let page = *m.pages.last().ok_or(KvError::BadRange)?;
            tail = pool.append_row(page, entries.by_ref().take(take), tail);
            left -= take;
        }
        while left > 0 {
            let take = left.min(pt);
            let p = pool.alloc(Tier::Gpu)?;
            tail = pool.append_row(p, entries.by_ref().take(take), tail);
            m.pages.push(p);
            left -= take;
        }
        m.len += n;
        m.tail = tail;
        self.touch(id);
        Ok(())
    }

    /// Truncates the file to `new_len` entries, releasing now-empty pages.
    ///
    /// A shared boundary page is copy-on-written so the other references keep
    /// their full contents.
    pub fn truncate(&mut self, id: FileId, caller: OwnerId, new_len: usize) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        let m = self.meta(id)?;
        if new_len > m.len {
            return Err(KvError::BadRange);
        }
        if new_len == m.len {
            return Ok(());
        }
        let pt = self.pool.page_tokens();
        let keep_pages = new_len.div_ceil(pt);
        let owner = m.owner;
        let drop_pages: Vec<_> = self.meta(id)?.pages[keep_pages..].to_vec();
        let dropped = drop_pages.len();
        for p in drop_pages {
            self.pool.release(p);
        }
        self.meta_mut(id)?.pages.truncate(keep_pages);
        self.credit(owner, dropped);
        // Trim within the boundary page.
        let within = new_len % pt;
        if within != 0 || new_len == 0 {
            if let Some(&last) = self.meta(id)?.pages.last() {
                if self.pool.page(last).refcount > 1 {
                    let copy = self.pool.alloc(Tier::Gpu)?;
                    self.pool.copy_entries_into(last, copy);
                    self.pool.release(last);
                    *self.meta_mut(id)?.pages.last_mut().ok_or(KvError::BadRange)? = copy;
                    self.counters.cow_copies.inc();
                }
                let last = *self.meta(id)?.pages.last().ok_or(KvError::BadRange)?;
                self.pool.truncate_row(last, within);
            }
        }
        let tail = self.meta(id)?.pages.last().and_then(|&p| self.pool.last(p));
        let m = self.meta_mut(id)?;
        m.len = new_len;
        m.tail = tail.map_or(Anchor::ZERO, |e| Anchor::of(&e));
        self.touch(id);
        Ok(())
    }

    // ---- fork / extract / merge ---------------------------------------------

    /// Clones a file by sharing all of its pages (copy-on-write).
    ///
    /// The clone is owned by `caller` and starts private and unpinned. This
    /// is the `kv_fork` of the paper's Figure 2: parallel generation threads
    /// fork a shared prefix "without duplicating the actual tensors".
    pub fn fork(&mut self, id: FileId, caller: OwnerId) -> Result<FileId, KvError> {
        self.check_read(id, caller)?;
        let (pages, len, tail) = {
            let m = self.meta(id)?;
            (m.pages.clone(), m.len, m.tail)
        };
        self.charge(caller, pages.len())?;
        for &p in &pages {
            self.pool.retain(p);
        }
        let new = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            new.0,
            FileMeta {
                pages,
                len,
                tail,
                owner: caller,
                mode: Mode::PRIVATE,
                pinned: false,
                lock: None,
                last_access: 0,
                prev_access: 0,
                links: 0,
            },
        );
        self.touch(new);
        Ok(new)
    }

    /// Builds a new file from entry ranges of an existing file.
    ///
    /// Entries are copied (not shared): an extracted file models *pruned*
    /// context (§4.2's runtime context pruning), whose entries keep the
    /// fingerprints computed under the original context — the approximate-
    /// reuse semantics of techniques like attention sinks.
    pub fn extract(
        &mut self,
        id: FileId,
        caller: OwnerId,
        ranges: &[core::ops::Range<usize>],
    ) -> Result<FileId, KvError> {
        self.check_read(id, caller)?;
        let len = self.meta(id)?.len;
        let mut picked = Vec::new();
        for r in ranges {
            if r.start > r.end || r.end > len {
                return Err(KvError::BadRange);
            }
            let chunk = self.read(id, caller, r.start, r.end - r.start)?;
            picked.extend(chunk);
        }
        if picked.is_empty() {
            return Err(KvError::EmptyInput);
        }
        let new = self.create(caller)?;
        match self.append(new, caller, &picked) {
            Ok(()) => {
                self.counters.copied_entries.add(picked.len() as u64);
                Ok(new)
            }
            Err(e) => {
                let _ = self.remove(new, caller);
                Err(e)
            }
        }
    }

    /// Concatenates several files into a new one (entries copied).
    pub fn merge(&mut self, ids: &[FileId], caller: OwnerId) -> Result<FileId, KvError> {
        if ids.is_empty() {
            return Err(KvError::EmptyInput);
        }
        let mut all = Vec::new();
        for &id in ids {
            self.check_read(id, caller)?;
            all.extend(self.read_all_unchecked(id)?);
        }
        if all.is_empty() {
            return Err(KvError::EmptyInput);
        }
        let new = self.create(caller)?;
        match self.append(new, caller, &all) {
            Ok(()) => {
                self.counters.copied_entries.add(all.len() as u64);
                Ok(new)
            }
            Err(e) => {
                let _ = self.remove(new, caller);
                Err(e)
            }
        }
    }

    // ---- pinning and tiers ---------------------------------------------------

    /// Pins a file: it may not be swapped out or removed by non-owners.
    pub fn pin(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        self.meta_mut(id)?.pinned = true;
        Ok(())
    }

    /// Unpins a file.
    pub fn unpin(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        self.meta_mut(id)?.pinned = false;
        Ok(())
    }

    /// Where the file's pages live.
    pub fn residency(&self, id: FileId) -> Result<Residency, KvError> {
        let m = self.meta(id)?;
        if m.pages.is_empty() {
            return Ok(Residency::Empty);
        }
        let (mut gpu, mut disk) = (0usize, 0usize);
        for &p in &m.pages {
            match self.pool.page(p).tier {
                Tier::Gpu => gpu += 1,
                Tier::Cpu => {}
                Tier::Disk => disk += 1,
            }
        }
        Ok(if gpu == m.pages.len() {
            Residency::Gpu
        } else if gpu > 0 {
            Residency::Mixed
        } else if disk == m.pages.len() {
            Residency::Disk
        } else {
            // No GPU pages; at least one DRAM page (any disk remainder is
            // still off-GPU, so the file is equally non-resident).
            Residency::Cpu
        })
    }

    /// Pages of the file that a swap-in would have to bring onto the GPU.
    pub fn pages_off_gpu(&self, id: FileId) -> Result<usize, KvError> {
        let m = self.meta(id)?;
        Ok(m.pages
            .iter()
            .filter(|&&p| self.pool.page(p).tier != Tier::Gpu)
            .count())
    }

    /// Swaps all GPU pages out of HBM; returns the per-lane token counts
    /// (for PCIe/NVMe timing). Pages whose backing copy is still current
    /// free their GPU slot without moving (`dropped_tokens`). The rest go to
    /// CPU DRAM first; under CPU pressure — once other pages' backing
    /// copies are reclaimed — they spill one level further to the disk
    /// tier. Shared pages move too — swap is a whole-page property. Pages
    /// already off the GPU stay where they are.
    ///
    /// When the disk tier is disabled (zero capacity) a full DRAM surfaces
    /// as [`KvError::NoCpuMemory`], exactly as it did before the disk tier
    /// existed.
    pub fn swap_out(&mut self, id: FileId, caller: OwnerId) -> Result<SwapReport, KvError> {
        self.swap_out_except(id, caller, &[])
    }

    /// [`KvStore::swap_out`] that leaves on the GPU every page a file in
    /// `keep` also references: evicting an idle document (or preempting a
    /// sequence) must not yank shared pages from under a fork that is
    /// still executing. `id` itself may appear in `keep` and is ignored.
    pub fn swap_out_except(
        &mut self,
        id: FileId,
        caller: OwnerId,
        keep: &[FileId],
    ) -> Result<SwapReport, KvError> {
        self.check_write(id, caller)?;
        if self.meta(id)?.pinned {
            return Err(KvError::Pinned);
        }
        // Split borrow: the page tables are read-only while the pool
        // migrates, so no page list is cloned or collected.
        let (files, pool) = (&self.files, &mut self.pool);
        let m = files.get(&id.0).ok_or(KvError::NotFound)?;
        let kept = kept_tables(files, id, keep);
        let mut report = SwapReport::default();
        // Clean pages first, so the dirty ones below never reclaim a
        // backing copy this very call could have dropped to for free.
        for (k, &p) in m.pages.iter().enumerate() {
            let page = pool.page(p);
            if let (Tier::Gpu, Some(backing)) = (page.tier, page.backing) {
                if !held(&kept, k, p) {
                    report.add(backing, pool.migrate(p, backing)?);
                }
            }
        }
        for (k, &p) in m.pages.iter().enumerate() {
            if pool.page(p).tier != Tier::Gpu || held(&kept, k, p) {
                continue;
            }
            match pool.migrate(p, Tier::Cpu) {
                Ok(moved) => report.add(Tier::Cpu, moved),
                Err(KvError::NoCpuMemory) => match pool.migrate(p, Tier::Disk) {
                    Ok(moved) => report.add(Tier::Disk, moved),
                    Err(KvError::NoDiskMemory) => return Err(KvError::NoCpuMemory),
                    Err(e) => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
        self.count_swap_out(report.total(), &report);
        Ok(report)
    }

    /// How many GPU pages [`KvStore::swap_out_except`] would free.
    pub fn movable_gpu_pages(&self, id: FileId, keep: &[FileId]) -> usize {
        let Some(m) = self.files.get(&id.0) else {
            return 0;
        };
        let kept = kept_tables(&self.files, id, keep);
        m.pages
            .iter()
            .enumerate()
            .filter(|&(k, &p)| self.pool.page(p).tier == Tier::Gpu && !held(&kept, k, p))
            .count()
    }

    fn count_swap_out(&self, left_gpu: usize, report: &SwapReport) {
        self.counters.swapped_out_tokens.add(left_gpu as u64);
        self.counters
            .disk_spilled_tokens
            .add(report.disk_tokens as u64);
        self.counters
            .clean_dropped_tokens
            .add(report.dropped_tokens as u64);
    }

    /// Demotes every page of a file to the disk tier (cold persistence or
    /// DRAM reclaim). Unlike [`KvStore::swap_out`], pinned files are
    /// eligible: pinning protects a file from being *dropped* or chosen by
    /// eviction policies, not from an explicit demotion to durable storage
    /// — a demoted pinned file keeps all its pages and its pin.
    // lint:allow(u1): the property tests' way to put a file on the disk tier
    pub fn demote_to_disk(&mut self, id: FileId, caller: OwnerId) -> Result<SwapReport, KvError> {
        self.check_write(id, caller)?;
        let (files, pool) = (&self.files, &mut self.pool);
        let m = files.get(&id.0).ok_or(KvError::NotFound)?;
        let mut report = SwapReport::default();
        let mut left_gpu = 0usize;
        for &p in &m.pages {
            let from = pool.page(p).tier;
            let moved = pool.migrate(p, Tier::Disk)?;
            if let (Tier::Gpu, Migrated::Copied(n)) = (from, moved) {
                left_gpu += n;
            }
            report.add(Tier::Disk, moved);
        }
        self.count_swap_out(left_gpu, &report);
        Ok(report)
    }

    /// Swaps all pages back into the GPU tier; returns the per-lane token
    /// counts (disk pages cross the NVMe lane, DRAM pages cross PCIe). The
    /// lower-tier slots stay behind as backing copies.
    pub fn swap_in(&mut self, id: FileId, caller: OwnerId) -> Result<SwapReport, KvError> {
        self.check_write(id, caller)?;
        let (files, pool) = (&self.files, &mut self.pool);
        let m = files.get(&id.0).ok_or(KvError::NotFound)?;
        let mut report = SwapReport::default();
        for &p in &m.pages {
            let from = pool.page(p).tier;
            report.add(from, pool.migrate(p, Tier::Gpu)?);
        }
        self.counters.swapped_in_tokens.add(report.total() as u64);
        self.counters
            .disk_loaded_tokens
            .add(report.disk_tokens as u64);
        self.touch(id);
        Ok(report)
    }

    /// `true` when the two files reference a common GPU-resident page, so
    /// a transfer of one file's pages is a transfer of the other's too.
    pub fn shares_gpu_page(&self, a: FileId, b: FileId) -> bool {
        let (Some(ma), Some(mb)) = (self.files.get(&a.0), self.files.get(&b.0)) else {
            return false;
        };
        // Same-index probe: see `held`.
        ma.pages
            .iter()
            .zip(&mb.pages)
            .any(|(pa, pb)| pa == pb && self.pool.page(*pa).tier == Tier::Gpu)
    }

    /// Preemption eviction hook: frees GPU pages by swapping out the file
    /// whose second-to-last access is oldest (LRU-2) among those that have
    /// any to give, skipping pinned, locked and `exclude`d files (the
    /// scheduler excludes files of sequences executing or waiting).
    /// A file accessed once goes before one accessed twice, however
    /// recent its one access: a single read of a cold document does not
    /// push out one that is read often. Pages an excluded file also
    /// references stay put — an idle parent document must not be yanked
    /// from under its running fork — so a file made only of such pages is
    /// no candidate. Returns the victim and the per-lane token counts, or
    /// `None` when no file is evictable. Deterministic: candidates order
    /// by (`prev_access`, `last_access`, file id).
    pub fn evict_lru(&mut self, exclude: &[FileId]) -> Option<(FileId, SwapReport)> {
        // Scan the file table directly instead of materialising a full
        // `list_files()` stat vector: this runs on the preemption hot path.
        let pool = &self.pool;
        let mut candidates: Vec<(u64, u64, u64)> = self
            .files
            .iter()
            .filter(|&(id, m)| {
                !m.pinned
                    && m.lock.is_none()
                    && !exclude.contains(&FileId(*id))
                    && m.pages.iter().any(|&p| pool.page(p).tier == Tier::Gpu)
            })
            .map(|(&id, m)| (m.prev_access, m.last_access, id))
            .collect();
        candidates.sort_unstable();
        let victim = candidates
            .into_iter()
            .map(|(_, _, id)| FileId(id))
            .find(|&c| self.movable_gpu_pages(c, exclude) > 0)?;
        // The victim just passed the evictability filter, so the swap
        // should succeed; if it does not, report "nothing evictable"
        // rather than panicking mid-preemption (lint rule k1).
        let moved = self.swap_out_except(victim, OwnerId::ADMIN, exclude).ok()?;
        Some((victim, moved))
    }

    /// Releases every lock held by `owner` (kernel cleanup when a process
    /// exits or crashes). Returns the number of locks released.
    pub fn release_locks(&mut self, owner: OwnerId) -> usize {
        let mut released = 0;
        for (id, m) in self.files.iter_mut() {
            if m.lock == Some(owner) {
                m.lock = None;
                released += 1;
                if let Some(d) = self.delta.as_mut() {
                    d.file_changed(*id, m.links > 0);
                }
            }
        }
        released
    }

    // ---- persistence -----------------------------------------------------------

    /// Starts change tracking: from here on [`KvStore::drain_changes`]
    /// encodes what changed since the store looked as it does now. The
    /// kernel turns it on when it opens its log, right after writing the
    /// store's [`KvStore::snapshot`] there (or replaying the log's batches
    /// into it); calling it again restarts the tracking from the store as
    /// it is.
    pub fn track_changes(&mut self) {
        self.pool.enable_dirty_tracking();
        let mut delta = DeltaLog::default();
        self.reset_delta_shadow(&mut delta, |_| true);
        self.delta = Some(delta);
    }

    /// Whether something a restored store must show changed since the last
    /// batch: a linked file's contents or metadata, or the namespace.
    /// Changes to unlinked files alone say no (they belong to running
    /// processes, which recovery re-executes), and so does a read's access
    /// stamp; the next batch carries the stamp, and an unlinked file only
    /// if it is the admin's. `false` while nothing is tracked.
    pub fn has_published_changes(&self) -> bool {
        self.delta.as_ref().is_some_and(|d| d.published)
    }

    /// Appends to `out` the batch of records that takes a reader from the
    /// last batch to the store's durable files as they are
    /// ([`FileMeta::durable`]) — their dirty pages, every page of one the
    /// log does not describe yet, the metadata of those and of the dirty
    /// ones, the structural diff — closed by a [`Record::PoolState`] in
    /// which a page no durable file holds reads as free; and starts the
    /// next batch's tracking. Encoded in place: each page's entries are
    /// derived into one buffer the drain reuses and encoded from there to
    /// `out`. Returns `false`, appending nothing, when no record changed
    /// (files and pages born and gone since the last batch leave none, and
    /// so do files no batch describes) or nothing is tracked.
    pub fn drain_changes(&mut self, out: &mut Vec<u8>) -> bool {
        let Some(mut delta) = self.delta.take() else {
            return false;
        };
        let dirty = self.pool.take_dirty();
        let (mut kept, mut pages, mut files) = (Vec::new(), Vec::new(), Vec::new());
        for (&id, m) in self.files.iter().filter(|(_, m)| m.durable()) {
            let ids = m.pages.iter().map(|p| p.0);
            kept.extend(ids.clone());
            if !delta.shadow_files.contains(&id) {
                pages.extend(ids);
                files.push(id);
            } else if delta.dirty_files.contains(&id) {
                files.push(id);
            }
        }
        kept.sort_unstable();
        kept.dedup();
        pages.extend(dirty.into_iter().filter(|p| kept.binary_search(p).is_ok()));
        pages.sort_unstable();
        pages.dedup();
        let wrote = self.change_set(&delta, pages, files, FileMeta::durable, out);
        if wrote {
            let unkept = self.pool.iter().map(|(p, _)| p.0);
            self.append_pool_state(unkept.filter(|p| kept.binary_search(p).is_err()), out);
        }
        self.reset_delta_shadow(&mut delta, FileMeta::durable);
        self.delta = Some(delta);
        wrote
    }

    fn reset_delta_shadow(&self, d: &mut DeltaLog, described: impl Fn(&FileMeta) -> bool) {
        d.dirty_files.clear();
        d.published = false;
        d.shadow_files = self
            .files
            .iter()
            .filter(|(_, m)| described(m))
            .map(|(&id, _)| id)
            .collect();
        d.shadow_namespace = self
            .namespace
            .iter()
            .map(|(p, id)| (p.clone(), id.0))
            .collect();
        d.shadow_quotas = self
            .quotas
            .iter()
            .filter_map(|(o, q)| Some((o.0, q.limit_pages? as u64)))
            .collect();
    }

    /// Appends the records that take a reader from `since`'s shadow to the
    /// store's `described` files: the given pages, the metadata of those
    /// given files still live, then the structural diff against the shadow
    /// (a file it names that is gone or no longer described is removed).
    /// From [`DeltaLog::default`], an empty store, with every file
    /// described, that is the whole store: a snapshot. Pages and files
    /// come in ascending id order. Returns whether it appended anything.
    fn change_set(
        &self,
        since: &DeltaLog,
        pages: impl IntoIterator<Item = u32>,
        files: impl IntoIterator<Item = u64>,
        described: impl Fn(&FileMeta) -> bool,
        out: &mut Vec<u8>,
    ) -> bool {
        let start = out.len();
        // One buffer for every page's derived entries.
        let mut row = Vec::new();
        for p in pages {
            let id = PageId(p);
            row.clear();
            row.extend(self.pool.entries(id));
            journal::append_record(
                out,
                &Record::PageWrite {
                    page: p,
                    tier: self.pool.page(id).tier,
                    entries: Cow::Borrowed(&row),
                },
            );
        }
        for id in files {
            let Some(m) = self.files.get(&id) else {
                continue; // dirtied, then removed: the diff below covers it
            };
            journal::append_record(
                out,
                &Record::FileMeta {
                    id,
                    owner: m.owner.0,
                    len: m.len as u64,
                    read_all: m.mode.read_all,
                    write_all: m.mode.write_all,
                    pinned: m.pinned,
                    lock: m.lock.map(|o| o.0),
                    last_access: m.last_access,
                    pages: m.pages.iter().map(|p| p.0).collect(),
                },
            );
        }
        // Structural diff. Removes come first (replay drops a removed
        // file's namespace entries itself), then unlinks of surviving
        // stale paths, then links — so a re-pointed path never collides.
        let mut removed = std::collections::BTreeSet::new();
        for &id in &since.shadow_files {
            if !self.files.get(&id).is_some_and(&described) {
                journal::append_record(out, &Record::Remove { file: id });
                removed.insert(id);
            }
        }
        for (path, &old_id) in &since.shadow_namespace {
            let stale = self.namespace.get(path).is_none_or(|cur| cur.0 != old_id);
            if stale && !removed.contains(&old_id) {
                let path = Cow::Borrowed(path.as_str());
                journal::append_record(out, &Record::Unlink { path });
            }
        }
        for (path, id) in &self.namespace {
            if since.shadow_namespace.get(path) != Some(&id.0) {
                let path = Cow::Borrowed(path.as_str());
                journal::append_record(out, &Record::Link { path, id: id.0 });
            }
        }
        // Limits set or changed, then limits lifted (an unlimited owner
        // may have no entry left to find the change on).
        let limited = |q: &Quota| q.limit_pages.map(|l| l as u64);
        for (owner, q) in &self.quotas {
            let limit = limited(q);
            if limit.is_some() && since.shadow_quotas.get(&owner.0) != limit.as_ref() {
                let owner = owner.0;
                journal::append_record(out, &Record::Quota { owner, limit });
            }
        }
        for &owner in since.shadow_quotas.keys() {
            if self.quotas.get(&OwnerId(owner)).and_then(limited).is_none() {
                journal::append_record(out, &Record::Quota { owner, limit: None });
            }
        }
        out.len() > start
    }

    /// Appends the record that closes every batch: the geometry, the id
    /// and clock marks, and the pool's slot state, with the `unkept` pages
    /// (live, but in no file the batch describes) after its free slots.
    fn append_pool_state(&self, unkept: impl Iterator<Item = u32>, out: &mut Vec<u8>) {
        let mut free = Cow::Borrowed(self.pool.free_list());
        let mut unkept = unkept.peekable();
        if unkept.peek().is_some() {
            free.to_mut().extend(unkept);
        }
        let rec = Record::PoolState {
            page_tokens: self.pool.page_tokens() as u64,
            bytes_per_token: self.bytes_per_token,
            next_file: self.next_file,
            access_clock: self.access_clock,
            slots_len: self.pool.slots_len() as u32,
            free,
        };
        journal::append_record(out, &rec);
    }

    /// Appends the whole store to `out` as one batch: the change set
    /// (`change_set`) from an empty store, then the closing
    /// [`Record::PoolState`]. [`KvStore::restore`] of its records under
    /// the same config rebuilds a byte-identical store (whose own snapshot
    /// matches).
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        let pages = self.pool.iter().map(|(pid, _)| pid.0);
        let files = self.files.keys().copied();
        self.change_set(&DeltaLog::default(), pages, files, |_| true, out);
        self.append_pool_state(std::iter::empty(), out);
    }

    /// Replays a record sequence — complete batches, as a log reader keeps
    /// them ([`crate::journal`]) — into a fresh store. `torn` says the
    /// reader dropped a cut batch; it is reported as
    /// `RestoreReport::torn = Some(KvError::JournalTorn)`.
    ///
    /// A record that does not replay cleanly (a file naming an unwritten
    /// page, a link to a missing file, ...) ends the replay like a tear:
    /// what replayed before it is kept. Hard failures — a batch written
    /// under another geometry ([`KvError::JournalIncompatible`]), or a
    /// restoring config too small to hold the pages — fail the whole
    /// restore with a typed error. Cumulative `kvfs.*` counters are
    /// process-lifetime metrics and start at zero in the restored store.
    pub fn restore(
        config: KvStoreConfig,
        registry: &MetricsRegistry,
        records: Vec<Record<'static>>,
        torn: bool,
    ) -> Result<(KvStore, RestoreReport), KvError> {
        let pt = config.page_tokens;
        // Every batch names the geometry it was written under; a store of
        // another shape would misread the first page.
        let other_shape = |r: &Record<'_>| match r {
            Record::PoolState {
                page_tokens,
                bytes_per_token,
                ..
            } => *page_tokens != pt as u64 || *bytes_per_token != config.bytes_per_token,
            _ => false,
        };
        if records.iter().any(other_shape) {
            return Err(KvError::JournalIncompatible);
        }
        let mut staged_pages: BTreeMap<u32, (Tier, Vec<KvEntry>)> = BTreeMap::new();
        let mut staged_files: BTreeMap<u64, FileMeta> = BTreeMap::new();
        let mut namespace: BTreeMap<String, FileId> = BTreeMap::new();
        let mut limits: BTreeMap<OwnerId, Option<usize>> = BTreeMap::new();
        let mut pool_state: Option<(usize, Vec<u32>)> = None;
        let (mut next_file, mut access_clock) = (1, 0);
        let mut torn = torn;

        // An inconsistent record body (a file referencing unwritten pages,
        // a link to a missing file, ...) is treated exactly like a torn
        // frame: keep what replayed cleanly, stop there.
        'replay: for rec in records {
            // Any page/file mutation invalidates an earlier PoolState
            // snapshot record — its free list no longer matches.
            match &rec {
                Record::Link { .. }
                | Record::Unlink { .. }
                | Record::Quota { .. }
                | Record::PoolState { .. } => {}
                _ => pool_state = None,
            }
            match rec {
                Record::PageWrite {
                    page,
                    tier,
                    entries,
                } => {
                    if entries.len() > pt {
                        torn = true;
                        break 'replay;
                    }
                    staged_pages.insert(page, (tier, entries.into_owned()));
                }
                Record::FileMeta {
                    id,
                    owner,
                    len,
                    read_all,
                    write_all,
                    pinned,
                    lock,
                    last_access,
                    pages,
                } => {
                    let mut total = 0usize;
                    for p in &pages {
                        match staged_pages.get(p) {
                            Some((_, entries)) => total += entries.len(),
                            None => {
                                torn = true;
                                break 'replay;
                            }
                        }
                    }
                    if total != len as usize {
                        torn = true;
                        break 'replay;
                    }
                    staged_files.insert(
                        id,
                        FileMeta {
                            pages: pages.into_iter().map(PageId).collect(),
                            len: len as usize,
                            tail: Anchor::ZERO,
                            owner: OwnerId(owner),
                            mode: Mode {
                                read_all,
                                write_all,
                            },
                            pinned,
                            lock: lock.map(OwnerId),
                            last_access,
                            prev_access: 0,
                            links: 0,
                        },
                    );
                }
                Record::Link { path, id } => {
                    if !staged_files.contains_key(&id) || namespace.contains_key(path.as_ref()) {
                        torn = true;
                        break 'replay;
                    }
                    namespace.insert(path.into_owned(), FileId(id));
                }
                Record::Unlink { path } => {
                    if namespace.remove(path.as_ref()).is_none() {
                        torn = true;
                        break 'replay;
                    }
                }
                Record::Remove { file } => {
                    if staged_files.remove(&file).is_none() {
                        torn = true;
                        break 'replay;
                    }
                    namespace.retain(|_, v| v.0 != file);
                }
                Record::Quota { owner, limit } => {
                    limits.insert(OwnerId(owner), limit.map(|l| l as usize));
                }
                Record::PoolState {
                    next_file: next,
                    access_clock: clock,
                    slots_len,
                    free,
                    ..
                } => {
                    next_file = next;
                    access_clock = clock;
                    pool_state = Some((slots_len as usize, free.into_owned()));
                }
            }
        }

        // Reference counts and quota use from the final staged file set;
        // pages no file references any more (rewritten or removed tails)
        // are dropped.
        let mut refs: BTreeMap<u32, u32> = BTreeMap::new();
        let mut per_owner: BTreeMap<OwnerId, usize> = BTreeMap::new();
        for f in staged_files.values() {
            *per_owner.entry(f.owner).or_insert(0) += f.pages.len();
            for p in &f.pages {
                *refs.entry(p.0).or_insert(0) += 1;
            }
        }
        let mut store = KvStore::with_registry(config, registry);
        for (&pid, (tier, entries)) in &staged_pages {
            let Some(&rc) = refs.get(&pid) else { continue };
            store.pool.install(PageId(pid), *tier, entries, rc)?;
        }
        let pages_restored = refs.len();

        store.files = staged_files;
        for m in store.files.values_mut() {
            if let Some(e) = m.pages.last().and_then(|&p| store.pool.last(p)) {
                m.tail = Anchor::of(&e);
            }
        }
        for (path, id) in namespace {
            if let Some(m) = store.files.get_mut(&id.0) {
                m.links += 1;
            }
            store.namespace.insert(path, id);
        }
        for (owner, used) in per_owner {
            store.quotas.entry(owner).or_default().used_pages = used;
        }
        // A lifted limit (`None`) leaves no entry of its own.
        for (owner, limit) in limits.into_iter().filter(|(_, l)| l.is_some()) {
            store.quotas.entry(owner).or_default().limit_pages = limit;
        }
        let after_last = store.files.keys().last().map_or(1, |id| id + 1);
        store.next_file = next_file.max(after_last);
        // A replay cut short of its last `PoolState` may carry access
        // times newer than the clock that batch recorded; never let the
        // clock run behind a restored `last_access` or post-restore
        // touches would reuse timestamps and scramble LRU ordering.
        let max_access = store.files.values().map(|m| m.last_access).max().unwrap_or(0);
        store.access_clock = access_clock.max(max_access);

        // Adopt the recorded free-slot order only when it still exactly
        // describes the restored pool — every slot of a table no larger
        // than a pool this size makes is live or free, once — and rebuild
        // canonically otherwise. Pages a later batch freed were staged and
        // dropped; the free stack names their slots.
        let usable_state = pool_state.filter(|(slots_len, free)| {
            let distinct = free.iter().collect::<std::collections::BTreeSet<_>>().len();
            *slots_len >= store.pool.slots_len()
                && *slots_len <= store.pool.capacity()
                && free.len() == slots_len - pages_restored
                && distinct == free.len()
                && free
                    .iter()
                    .all(|&f| (f as usize) < *slots_len && !refs.contains_key(&f))
        });
        match usable_state {
            Some((slots_len, free)) => store.pool.finish_restore(slots_len, Some(free)),
            None => store.pool.finish_restore(0, None),
        }

        // Belt and braces: a restored store must satisfy every invariant
        // `verify` checks; a failure here is a codec-layer bug and the
        // store cannot be trusted.
        store.verify().map_err(|_| KvError::JournalTorn)?;

        let report = RestoreReport {
            torn: torn.then_some(KvError::JournalTorn),
            ..store.census()
        };
        Ok((store, report))
    }

    /// What the store holds, counted the way a restore reports it:
    /// files, live pages, the tokens on them, and links (`torn` is
    /// `None`).
    pub fn census(&self) -> RestoreReport {
        RestoreReport {
            files: self.files.len(),
            pages: self.pool.live_pages(),
            tokens: self.pool.iter().map(|(_, page)| page.len as usize).sum(),
            links: self.namespace.len(),
            torn: None,
        }
    }

    // ---- introspection ---------------------------------------------------------

    /// Snapshot of one file.
    pub fn stat(&self, id: FileId) -> Result<FileStat, KvError> {
        let m = self.meta(id)?;
        Ok(FileStat {
            id,
            owner: m.owner,
            len: m.len,
            pages: m.pages.len(),
            pinned: m.pinned,
            locked_by: m.lock,
            residency: self.residency(id)?,
            last_access: m.last_access,
            prev_access: m.prev_access,
            links: m.links,
        })
    }

    /// Snapshots of all files, in file-ID order (deterministic).
    pub fn list_files(&self) -> Vec<FileStat> {
        // Every key in `files` has metadata by construction; `filter_map`
        // instead of unwrapping keeps introspection total (lint rule k1).
        self.files
            .keys()
            .filter_map(|&k| self.stat(FileId(k)).ok())
            .collect()
    }

    /// The files `owner` created that no path names, in file-ID order: what
    /// its exit removes. Reads metadata only — [`KvStore::list_files`]
    /// stats every file, and a stat walks the file's whole page table for
    /// its residency.
    pub fn unlinked_files_of(&self, owner: OwnerId) -> Vec<FileId> {
        self.files
            .iter()
            .filter(|(_, m)| m.owner == owner && m.links == 0)
            .map(|(&id, _)| FileId(id))
            .collect()
    }

    /// Checks internal invariants; returns a description of the first
    /// violation. Tests call this after every mutation sequence.
    pub fn verify(&self) -> Result<(), String> {
        // Refcounts must equal the number of file references.
        // A shared page must sit at the same index in every page table.
        let mut refs: BTreeMap<crate::page::PageId, u32> = BTreeMap::new();
        let mut index: BTreeMap<crate::page::PageId, usize> = BTreeMap::new();
        for (idf, m) in &self.files {
            for (k, &p) in m.pages.iter().enumerate() {
                *refs.entry(p).or_insert(0) += 1;
                if *index.entry(p).or_insert(k) != k {
                    return Err(format!(
                        "file {idf}: shared page {p:?} at a different index {k}"
                    ));
                }
            }
        }
        let mut live = 0;
        for (pid, page) in self.pool.iter() {
            live += 1;
            let expected = refs.get(&pid).copied().unwrap_or(0);
            if page.refcount != expected {
                return Err(format!(
                    "page {pid:?}: refcount {} but {} file references",
                    page.refcount, expected
                ));
            }
            if page.refcount == 0 {
                return Err(format!("page {pid:?} is live with refcount 0"));
            }
        }
        if live != refs.len() {
            return Err(format!(
                "{live} live pages but {} referenced pages",
                refs.len()
            ));
        }
        self.pool.verify()?;
        // File lengths must match page contents.
        for (idf, m) in &self.files {
            let total: usize = m
                .pages
                .iter()
                .map(|&p| self.pool.page(p).len as usize)
                .sum();
            if total != m.len {
                return Err(format!(
                    "file {idf}: len {} but pages hold {total} entries",
                    m.len
                ));
            }
            let last = m.pages.last().and_then(|&p| self.pool.last(p));
            if m.tail != last.map_or(Anchor::ZERO, |e| Anchor::of(&e)) {
                return Err(format!(
                    "file {idf}: tail {:?} but last entry {last:?}",
                    m.tail
                ));
            }
            // Only the last page may be partially filled.
            for (i, &p) in m.pages.iter().enumerate() {
                let n = self.pool.page(p).len as usize;
                if i + 1 < m.pages.len() && n != self.pool.page_tokens() {
                    return Err(format!("file {idf}: interior page {i} not full ({n})"));
                }
            }
        }
        // Quota accounting must match file ownership.
        let mut per_owner: BTreeMap<OwnerId, usize> = BTreeMap::new();
        for m in self.files.values() {
            *per_owner.entry(m.owner).or_insert(0) += m.pages.len();
        }
        for (&owner, q) in &self.quotas {
            let expected = per_owner.get(&owner).copied().unwrap_or(0);
            if q.used_pages != expected {
                return Err(format!(
                    "owner {owner:?}: quota used {} but owns {expected} pages",
                    q.used_pages
                ));
            }
        }
        for (&owner, &used) in &per_owner {
            if used > 0 && !self.quotas.contains_key(&owner) {
                return Err(format!("owner {owner:?} owns pages but has no quota record"));
            }
        }
        // Namespace must point at live files.
        for (path, id) in &self.namespace {
            if !self.files.contains_key(&id.0) {
                return Err(format!("path {path:?} points at dead file {id:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(x: u64) -> CtxFingerprint {
        CtxFingerprint(x)
    }

    fn entries(range: core::ops::Range<u32>) -> Vec<KvEntry> {
        range.map(|i| KvEntry::new(i, i, fp(i as u64))).collect()
    }

    fn store() -> KvStore {
        KvStore::new(KvStoreConfig::for_tests())
    }

    /// The store as one batch's frames.
    fn snapshot_bytes(s: &KvStore) -> Vec<u8> {
        let mut out = Vec::new();
        s.snapshot(&mut out);
        out
    }

    /// The complete batches' records of a frame sequence, and whether it
    /// was torn: cut mid-frame, or inside a batch.
    fn read_batches(bytes: &[u8]) -> (Vec<Record<'static>>, bool) {
        let (mut records, _, cut) = symphony_sim::seglog::scan(bytes, journal::decode_record);
        let complete = records.iter().rposition(journal::closes_batch).map_or(0, |i| i + 1);
        let dropped = complete < records.len();
        records.truncate(complete);
        (records, cut || dropped)
    }

    /// Frames to records to a store, as a log reader restores one.
    fn restore_bytes(
        config: KvStoreConfig,
        bytes: &[u8],
    ) -> Result<(KvStore, RestoreReport), KvError> {
        let (records, torn) = read_batches(bytes);
        KvStore::restore(config, &MetricsRegistry::new(), records, torn)
    }

    fn encode(records: &[Record<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            journal::append_record(&mut out, r);
        }
        out
    }

    const U1: OwnerId = OwnerId(1);
    const U2: OwnerId = OwnerId(2);

    #[test]
    fn create_append_read() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        assert_eq!(s.len(f).unwrap(), 10);
        let got = s.read(f, U1, 3, 4).unwrap();
        assert_eq!(got, entries(3..7));
        assert_eq!(s.tail_fingerprint(f).unwrap(), Some(fp(9)));
        assert_eq!(s.next_position(f).unwrap(), 10);
        s.verify().unwrap();
    }

    #[test]
    fn unlinked_files_of_an_owner_are_what_the_stat_filter_finds() {
        let mut s = store();
        let shared = s.create(U1).unwrap();
        s.append(shared, U1, &entries(0..8)).unwrap();
        s.chmod(shared, U1, Mode::SHARED_READ).unwrap();
        s.link(shared, "shared.kv", U1).unwrap();
        let fork_of_mine = s.fork(shared, U1).unwrap();
        let fork_of_theirs = s.fork(shared, U2).unwrap();
        let scratch = s.create(U1).unwrap();
        s.append(scratch, U1, &entries(0..3)).unwrap();
        let swapped = s.create(U1).unwrap();
        s.append(swapped, U1, &entries(0..5)).unwrap();
        s.swap_out(swapped, U1).unwrap();
        let published = s.create(U1).unwrap();
        s.link(published, "mine.kv", U1).unwrap();
        let unpublished = s.create(U1).unwrap();
        s.link(unpublished, "gone.kv", U1).unwrap();
        s.unlink("gone.kv", U1).unwrap();
        let removed = s.create(U1).unwrap();
        s.remove(removed, U1).unwrap();
        let foreign = s.create(U2).unwrap();
        for owner in [U1, U2, OwnerId(3)] {
            let by_stat: Vec<FileId> = s
                .list_files()
                .into_iter()
                .filter(|f| f.owner == owner && f.links == 0)
                .map(|f| f.id)
                .collect();
            assert_eq!(s.unlinked_files_of(owner), by_stat, "owner {owner:?}");
        }
        assert_eq!(
            s.unlinked_files_of(U1),
            [fork_of_mine, scratch, swapped, unpublished]
        );
        assert_eq!(s.unlinked_files_of(U2), [fork_of_theirs, foreign]);
    }

    #[test]
    fn read_bad_range() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..5)).unwrap();
        assert_eq!(s.read(f, U1, 3, 4), Err(KvError::BadRange));
    }

    #[test]
    fn a_read_range_whose_end_overflows_is_a_bad_range() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..5)).unwrap();
        assert_eq!(s.read(f, U1, 1, usize::MAX), Err(KvError::BadRange));
        assert_eq!(s.read(f, U1, usize::MAX, 1), Err(KvError::BadRange));
        assert_eq!(s.read(f, U1, 1, 4).unwrap(), entries(1..5));
    }

    #[test]
    fn fork_shares_pages_cow_on_append() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap(); // exactly 2 pages of 4
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        let pages_before = s.gpu_pages_used();
        let g = s.fork(f, U2).unwrap();
        assert_eq!(s.gpu_pages_used(), pages_before, "fork allocates nothing");
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..8));
        // Append to the fork: tail page is full, so no COW, just a new page.
        s.append(g, U2, &entries(8..9)).unwrap();
        assert_eq!(s.gpu_pages_used(), pages_before + 1);
        // The original is untouched.
        assert_eq!(s.len(f).unwrap(), 8);
        assert_eq!(s.len(g).unwrap(), 9);
        s.verify().unwrap();
    }

    #[test]
    fn cow_on_shared_partial_tail() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..6)).unwrap(); // page0 full, page1 half
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        let g = s.fork(f, U2).unwrap();
        let before = s.gpu_pages_used();
        s.append(g, U2, &entries(6..7)).unwrap();
        // COW of the shared tail page: one extra page in the pool.
        assert_eq!(s.gpu_pages_used(), before + 1);
        assert_eq!(s.stats().cow_copies, 1);
        assert_eq!(s.read_all_unchecked(f).unwrap(), entries(0..6));
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..7));
        s.verify().unwrap();
    }

    #[test]
    fn remove_releases_shared_pages_correctly() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        let g = s.fork(f, U2).unwrap();
        s.remove(f, U1).unwrap();
        // Pages survive via g.
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..8));
        assert_eq!(s.gpu_pages_used(), 2);
        s.remove(g, U2).unwrap();
        assert_eq!(s.gpu_pages_used(), 0);
        s.verify().unwrap();
    }

    #[test]
    fn append_out_of_memory_is_atomic() {
        let mut s = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 2,
            cpu_pages: 0,
            disk_pages: 0,
            bytes_per_token: 1,
        });
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        assert_eq!(s.append(f, U1, &entries(4..12)), Err(KvError::NoGpuMemory));
        assert_eq!(s.len(f).unwrap(), 4, "failed append must not mutate");
        s.verify().unwrap();
    }

    #[test]
    fn quota_enforced_and_released() {
        let mut s = store();
        s.set_quota(U1, Some(2));
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap(); // 2 pages
        assert_eq!(s.append(f, U1, &entries(8..9)), Err(KvError::QuotaExceeded));
        assert_eq!(s.quota_used(U1), 2);
        s.remove(f, U1).unwrap();
        assert_eq!(s.quota_used(U1), 0);
        s.verify().unwrap();
    }

    #[test]
    fn an_owner_with_nothing_charged_and_no_limit_has_no_quota_entry() {
        let mut s = store();
        for owner in 10..1010 {
            let f = s.create(OwnerId(owner)).unwrap();
            let g = s.fork(f, OwnerId(owner)).unwrap(); // a zero-page charge
            s.append(f, OwnerId(owner), &entries(0..6)).unwrap();
            s.remove(f, OwnerId(owner)).unwrap();
            s.remove(g, OwnerId(owner)).unwrap();
        }
        assert!(s.quotas.is_empty(), "{} entries left", s.quotas.len());
        // A limit is state of its own: it stays, and is journalled.
        s.set_quota(U1, Some(4));
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..6)).unwrap();
        s.remove(f, U1).unwrap();
        assert_eq!(s.quotas.len(), 1);
        s.set_quota(U1, None);
        assert!(s.quotas.is_empty());
        s.verify().unwrap();
    }

    #[test]
    fn a_lifted_quota_limit_reaches_the_delta_journal() {
        let mut s = store();
        s.set_quota(U1, Some(4));
        let mut bytes = snapshot_bytes(&s);
        s.track_changes();
        s.set_quota(U1, None);
        assert!(!s.has_published_changes(), "a quota publishes no file");
        assert!(s.drain_changes(&mut bytes));
        let lifted = Record::Quota {
            owner: U1.0,
            limit: None,
        };
        let (records, torn) = read_batches(&bytes);
        assert!(!torn);
        assert!(records.contains(&lifted), "{records:?}");
        // Replayed over the base snapshot, the limit is gone again.
        let (r, _) = restore_bytes(KvStoreConfig::for_tests(), &bytes).unwrap();
        assert!(r.quotas.is_empty());
        assert_eq!(snapshot_bytes(&r), snapshot_bytes(&s));
    }

    #[test]
    fn fork_charges_the_forker() {
        let mut s = store();
        s.set_quota(U2, Some(1));
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        assert_eq!(s.fork(f, U2), Err(KvError::QuotaExceeded));
        s.set_quota(U2, Some(2));
        let g = s.fork(f, U2).unwrap();
        assert_eq!(s.quota_used(U2), 2);
        s.remove(g, U2).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn permissions() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        // Private by default.
        assert_eq!(s.read(f, U2, 0, 1), Err(KvError::PermissionDenied));
        assert_eq!(s.append(f, U2, &entries(4..5)), Err(KvError::PermissionDenied));
        // World-readable.
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        assert!(s.read(f, U2, 0, 1).is_ok());
        assert_eq!(s.append(f, U2, &entries(4..5)), Err(KvError::PermissionDenied));
        // Admin bypasses everything.
        assert!(s.read(f, OwnerId::ADMIN, 0, 1).is_ok());
        assert!(s.append(f, OwnerId::ADMIN, &entries(4..5)).is_ok());
        // Only owner/admin can chmod.
        assert_eq!(s.chmod(f, U2, Mode::PRIVATE), Err(KvError::PermissionDenied));
        s.verify().unwrap();
    }

    #[test]
    fn locks_exclude_other_writers() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.chmod(f, U1, Mode { read_all: true, write_all: true }).unwrap();
        s.lock(f, U2).unwrap();
        assert_eq!(s.append(f, U1, &entries(0..1)), Err(KvError::Locked));
        assert!(s.append(f, U2, &entries(0..1)).is_ok());
        assert_eq!(s.unlock(f, U1), Err(KvError::NotLockHolder));
        s.unlock(f, U2).unwrap();
        assert!(s.append(f, U1, &entries(1..2)).is_ok());
        assert_eq!(s.unlock(f, U1), Err(KvError::NotLockHolder));
        // Re-lock is idempotent for the holder.
        s.lock(f, U1).unwrap();
        s.lock(f, U1).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn namespace_link_open_unlink() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        s.link(f, "sys/prompt.kv", U1).unwrap();
        assert_eq!(s.link(f, "sys/prompt.kv", U1), Err(KvError::AlreadyExists));
        assert_eq!(s.open("sys/prompt.kv", U2).unwrap(), f);
        assert_eq!(s.open("missing", U2), Err(KvError::NotFound));
        // U2 cannot unlink a file it cannot write.
        assert_eq!(s.unlink("sys/prompt.kv", U2), Err(KvError::PermissionDenied));
        s.unlink("sys/prompt.kv", U1).unwrap();
        assert_eq!(s.lookup("sys/prompt.kv"), None);
        s.verify().unwrap();
    }

    #[test]
    fn remove_clears_namespace() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.link(f, "a", U1).unwrap();
        s.link(f, "b", U1).unwrap();
        s.remove(f, U1).unwrap();
        assert_eq!(s.lookup("a"), None);
        assert_eq!(s.lookup("b"), None);
        s.verify().unwrap();
    }

    #[test]
    fn extract_copies_ranges() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        let e = s.extract(f, U1, &[0..2, 6..9]).unwrap();
        let got = s.read_all_unchecked(e).unwrap();
        let mut want = entries(0..2);
        want.extend(entries(6..9));
        assert_eq!(got, want);
        // Positions are preserved (discontiguous layout).
        assert_eq!(got[2].position, 6);
        assert_eq!(
            s.extract(f, U1, std::slice::from_ref(&(4..20))),
            Err(KvError::BadRange)
        );
        assert_eq!(s.extract(f, U1, &[]), Err(KvError::EmptyInput));
        s.verify().unwrap();
    }

    #[test]
    fn merge_concatenates() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U1).unwrap();
        s.append(a, U1, &entries(0..3)).unwrap();
        s.append(b, U1, &entries(10..13)).unwrap();
        let m = s.merge(&[a, b], U1).unwrap();
        let got = s.read_all_unchecked(m).unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(got[3].token, 10);
        assert_eq!(s.merge(&[], U1), Err(KvError::EmptyInput));
        s.verify().unwrap();
    }

    #[test]
    fn truncate_releases_pages_and_cows_shared_boundary() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap(); // 3 pages (4+4+2)
        let g = s.fork(f, U1).unwrap();
        s.truncate(f, U1, 3).unwrap(); // boundary inside shared page 0
        assert_eq!(s.len(f).unwrap(), 3);
        assert_eq!(s.read_all_unchecked(f).unwrap(), entries(0..3));
        // g still intact.
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..10));
        s.truncate(f, U1, 0).unwrap();
        assert_eq!(s.len(f).unwrap(), 0);
        assert_eq!(s.truncate(g, U1, 11), Err(KvError::BadRange));
        s.verify().unwrap();
    }

    #[test]
    fn swap_out_and_in_move_tokens() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        let out = s.swap_out(f, U1).unwrap();
        assert_eq!(out.total(), 10);
        assert_eq!(out.disk_tokens, 0, "DRAM had room; nothing spills");
        assert_eq!(s.residency(f).unwrap(), Residency::Cpu);
        assert_eq!(s.gpu_pages_used(), 0);
        assert_eq!(s.cpu_pages_used(), 3);
        let back = s.swap_in(f, U1).unwrap();
        assert_eq!(back.total(), 10);
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        assert_eq!(s.stats().swapped_out_tokens, 10);
        assert_eq!(s.stats().swapped_in_tokens, 10);
        s.verify().unwrap();
    }

    #[test]
    fn pinned_files_refuse_swap_out() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        s.pin(f, U1).unwrap();
        assert_eq!(s.swap_out(f, U1), Err(KvError::Pinned));
        s.unpin(f, U1).unwrap();
        assert!(s.swap_out(f, U1).is_ok());
        s.verify().unwrap();
    }

    #[test]
    fn append_to_swapped_file_requires_residency() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..6)).unwrap(); // partial tail
        s.swap_out(f, U1).unwrap();
        assert_eq!(s.append(f, U1, &entries(6..7)), Err(KvError::NotResident));
        s.swap_in(f, U1).unwrap();
        assert!(s.append(f, U1, &entries(6..7)).is_ok());
        s.verify().unwrap();
    }

    #[test]
    fn stat_and_list_files() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..5)).unwrap();
        s.pin(f, U1).unwrap();
        s.link(f, "x", U1).unwrap();
        let st = s.stat(f).unwrap();
        assert_eq!(st.len, 5);
        assert_eq!(st.pages, 2);
        assert!(st.pinned);
        assert_eq!(st.links, 1);
        assert_eq!(st.owner, U1);
        let g = s.create(U2).unwrap();
        let list = s.list_files();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].id, f);
        assert_eq!(list[1].id, g);
    }

    #[test]
    fn last_access_ordering_supports_lru() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U1).unwrap();
        s.append(a, U1, &entries(0..1)).unwrap();
        s.append(b, U1, &entries(0..1)).unwrap();
        // Touch a after b.
        let _ = s.read(a, U1, 0, 1).unwrap();
        let sa = s.stat(a).unwrap().last_access;
        let sb = s.stat(b).unwrap().last_access;
        assert!(sa > sb, "a was accessed more recently");
    }

    #[test]
    fn evict_lru_picks_least_recent_and_respects_filters() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U1).unwrap();
        let c = s.create(U2).unwrap();
        s.append(a, U1, &entries(0..4)).unwrap();
        s.append(b, U1, &entries(0..4)).unwrap();
        s.append(c, U2, &entries(0..4)).unwrap();
        // Touch a so b becomes the LRU file.
        let _ = s.read(a, U1, 0, 1).unwrap();
        let (victim, moved) = s.evict_lru(&[]).unwrap();
        assert_eq!(victim, b);
        assert_eq!(moved.total(), 4);
        assert_eq!(s.residency(b).unwrap(), Residency::Cpu);
        // Already-swapped files are no longer candidates; with c excluded
        // and b on CPU, the only remaining candidate is a.
        let (victim, _) = s.evict_lru(&[c]).unwrap();
        assert_eq!(victim, a);
        s.verify().unwrap();
    }

    #[test]
    fn evict_lru_leaves_pages_a_running_fork_references() {
        let mut s = store();
        let doc = s.create(U1).unwrap();
        s.append(doc, U1, &entries(0..8)).unwrap(); // 2 full pages
        let other = s.create(U1).unwrap();
        s.append(other, U1, &entries(0..4)).unwrap();
        let fork = s.fork(doc, U1).unwrap();
        // The parent document is the LRU file, but every page it has is
        // also the (excluded) fork's: the next candidate is chosen.
        let (victim, _) = s.evict_lru(&[fork]).unwrap();
        assert_eq!(victim, other);
        assert_eq!(s.residency(fork).unwrap(), Residency::Gpu);
        assert!(s.evict_lru(&[fork]).is_none(), "only shared pages are left");
        // Once the fork has diverged, the parent's own tail can go — and
        // only that.
        s.append(fork, U1, &entries(8..10)).unwrap();
        s.append(doc, U1, &entries(8..12)).unwrap();
        let (victim, moved) = s.evict_lru(&[fork]).unwrap();
        assert_eq!(victim, doc);
        assert_eq!(moved.total(), 4);
        assert_eq!(s.residency(doc).unwrap(), Residency::Mixed);
        assert_eq!(s.residency(fork).unwrap(), Residency::Gpu);
        // With nobody running, the shared pages are fair game again and
        // move with whichever file goes first: the parent, whose access
        // before its last (its first append) predates the fork's (its
        // creation). Its two shared pages leave; the fork keeps its tail.
        let (victim, moved) = s.evict_lru(&[]).unwrap();
        assert_eq!((victim, moved.total()), (doc, 8));
        assert_eq!(s.residency(doc).unwrap(), Residency::Cpu);
        assert_eq!(s.residency(fork).unwrap(), Residency::Mixed);
        s.verify().unwrap();
    }

    #[test]
    fn evict_lru_keeps_a_file_opened_twice_over_one_opened_once_since() {
        let mut s = store();
        let twice = s.create(U1).unwrap();
        s.append(twice, U1, &entries(0..4)).unwrap();
        s.link(twice, "twice.kv", U1).unwrap();
        let once = s.create(U1).unwrap();
        s.append(once, U1, &entries(0..4)).unwrap();
        s.link(once, "once.kv", U1).unwrap();
        s.open("twice.kv", U1).unwrap();
        s.open("twice.kv", U1).unwrap();
        s.open("once.kv", U1).unwrap();
        // Plain LRU would take `twice`: `once` was opened last. But
        // `once`'s access before that was its append, older than
        // `twice`'s first open.
        let (st_once, st_twice) = (s.stat(once).unwrap(), s.stat(twice).unwrap());
        assert!(st_once.last_access > st_twice.last_access);
        assert!(st_once.prev_access < st_twice.prev_access);
        assert_eq!(s.evict_lru(&[]).unwrap().0, once);
        assert_eq!(s.evict_lru(&[]).unwrap().0, twice);
        s.swap_in(twice, U1).unwrap();
        // Forks are touched once, at creation: they tie on the access
        // before the last (0), which breaks by the last — the older fork
        // goes first, and the page it shares (clean, so dropped) with it.
        let a = s.fork(twice, U1).unwrap();
        let b = s.fork(twice, U1).unwrap();
        assert_eq!(s.stat(a).unwrap().prev_access, 0);
        assert_eq!(s.stat(b).unwrap().prev_access, 0);
        let (victim, moved) = s.evict_lru(&[]).unwrap();
        assert_eq!((victim, moved.dropped_tokens), (a, 4));
        assert_eq!(s.residency(b).unwrap(), Residency::Cpu);
        s.verify().unwrap();
    }

    #[test]
    fn evict_lru_skips_pinned_and_locked() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U2).unwrap();
        s.append(a, U1, &entries(0..2)).unwrap();
        s.append(b, U2, &entries(0..2)).unwrap();
        s.pin(a, U1).unwrap();
        s.lock(b, U2).unwrap();
        assert_eq!(s.evict_lru(&[]), None, "pinned and locked are immune");
        s.unlock(b, U2).unwrap();
        assert_eq!(s.evict_lru(&[]).unwrap().0, b);
        assert_eq!(s.evict_lru(&[]), None, "nothing left on the GPU");
        s.verify().unwrap();
    }

    #[test]
    fn evict_lru_on_empty_store_is_none() {
        let mut s = store();
        assert_eq!(s.evict_lru(&[]), None, "no files at all");
        let f = s.create(U1).unwrap();
        assert_eq!(s.evict_lru(&[]), None, "empty file is not GPU-resident");
        s.remove(f, U1).unwrap();
        assert_eq!(s.evict_lru(&[]), None);
    }

    #[test]
    fn list_files_total_after_removal() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U2).unwrap();
        s.remove(a, U1).unwrap();
        let listed: Vec<FileId> = s.list_files().iter().map(|st| st.id).collect();
        assert_eq!(listed, vec![b], "stat never panics on a stale id");
    }

    #[test]
    fn swap_out_spills_to_disk_under_cpu_pressure() {
        let mut s = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 4,
            cpu_pages: 1,
            disk_pages: 4,
            bytes_per_token: 1,
        });
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..12)).unwrap(); // 3 pages
        let out = s.swap_out(f, U1).unwrap();
        assert_eq!(out.dram_tokens, 4, "one page fits in DRAM");
        assert_eq!(out.disk_tokens, 8, "the rest spills to disk");
        assert_eq!(s.cpu_pages_used(), 1);
        assert_eq!(s.disk_pages_used(), 2);
        assert_eq!(s.residency(f).unwrap(), Residency::Cpu);
        assert_eq!(s.stats().disk_spilled_tokens, 8);
        // Swap back in: disk pages cross the NVMe lane.
        let back = s.swap_in(f, U1).unwrap();
        assert_eq!(back.dram_tokens, 4);
        assert_eq!(back.disk_tokens, 8);
        assert_eq!(s.stats().disk_loaded_tokens, 8);
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        s.verify().unwrap();
    }

    #[test]
    fn backing_copies_make_clean_evictions_free_until_the_page_changes() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap(); // 2 full pages + 2 tokens
        assert_eq!(s.swap_out(f, U1).unwrap().total(), 10);
        assert_eq!(s.swap_in(f, U1).unwrap().total(), 10);
        // Resident on the GPU, with the DRAM slots kept as backing copies.
        assert_eq!((s.gpu_pages_used(), s.cpu_pages_used()), (3, 3));
        assert_eq!(s.backing_pages(), 3);
        let out = s.swap_out(f, U1).unwrap();
        assert_eq!((out.total(), out.dropped_tokens), (0, 10));
        assert_eq!((s.gpu_pages_used(), s.cpu_pages_used()), (0, 3));
        assert_eq!(s.stats().clean_dropped_tokens, 10);
        assert_eq!(
            s.stats().swapped_out_tokens,
            10,
            "only the first eviction moved"
        );
        // Appending rewrites the tail page; truncating rewrites the new
        // boundary page. Each loses its backing copy, the rest stay clean.
        s.swap_in(f, U1).unwrap();
        s.append(f, U1, &entries(10..11)).unwrap();
        assert_eq!(s.backing_pages(), 2);
        let out = s.swap_out(f, U1).unwrap();
        assert_eq!((out.dram_tokens, out.dropped_tokens), (3, 8));
        s.swap_in(f, U1).unwrap();
        s.truncate(f, U1, 6).unwrap();
        assert_eq!(s.backing_pages(), 1);
        let out = s.swap_out(f, U1).unwrap();
        assert_eq!((out.dram_tokens, out.dropped_tokens), (2, 4));
        // Removing a backed file returns both of its slots per page.
        s.swap_in(f, U1).unwrap();
        s.remove(f, U1).unwrap();
        assert_eq!((s.gpu_pages_used(), s.cpu_pages_used()), (0, 0));
        s.verify().unwrap();
    }

    #[test]
    fn full_dram_reclaims_backing_copies_before_spilling_to_disk() {
        let mut s = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 8,
            cpu_pages: 2,
            disk_pages: 8,
            bytes_per_token: 1,
        });
        let a = s.create(U1).unwrap();
        let b = s.create(U1).unwrap();
        s.append(a, U1, &entries(0..8)).unwrap();
        s.append(b, U1, &entries(0..8)).unwrap();
        s.swap_out(a, U1).unwrap();
        s.swap_in(a, U1).unwrap();
        assert_eq!(s.cpu_pages_used(), 2, "DRAM is full of a's backing copies");
        // b still lands in DRAM, exactly where it would have without
        // backing copies: a's are reclaimed first and nothing spills.
        let out = s.swap_out(b, U1).unwrap();
        assert_eq!((out.dram_tokens, out.disk_tokens), (8, 0));
        assert_eq!(s.backing_pages(), 0);
        // a lost its backing copies, so its eviction moves again — to
        // disk, DRAM being full of resident pages now.
        let out = s.swap_out(a, U1).unwrap();
        assert_eq!(
            (out.dram_tokens, out.disk_tokens, out.dropped_tokens),
            (0, 8, 0)
        );
        s.verify().unwrap();
    }

    #[test]
    fn restored_store_treats_gpu_pages_as_unbacked() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap();
        s.swap_out(f, U1).unwrap();
        s.swap_in(f, U1).unwrap();
        assert_eq!(s.backing_pages(), 2);
        let (mut r, _) = restore_bytes(KvStoreConfig::for_tests(), &snapshot_bytes(&s)).unwrap();
        assert_eq!((r.gpu_pages_used(), r.cpu_pages_used()), (2, 0));
        assert_eq!(r.backing_pages(), 0);
        assert_eq!(
            r.swap_out(f, U1).unwrap().total(),
            8,
            "conservative: it moves"
        );
    }

    #[test]
    fn swap_out_without_disk_tier_matches_old_error() {
        let mut s = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 4,
            cpu_pages: 1,
            disk_pages: 0,
            bytes_per_token: 1,
        });
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..12)).unwrap();
        assert_eq!(s.swap_out(f, U1), Err(KvError::NoCpuMemory));
        s.verify().unwrap();
    }

    #[test]
    fn demote_to_disk_keeps_pinned_files_and_their_pin() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap();
        s.pin(f, U1).unwrap();
        // Pinned files refuse eviction-style swap-out but accept an
        // explicit demotion to durable storage.
        assert_eq!(s.swap_out(f, U1), Err(KvError::Pinned));
        let moved = s.demote_to_disk(f, U1).unwrap();
        assert_eq!(moved.disk_tokens, 8);
        assert_eq!(s.residency(f).unwrap(), Residency::Disk);
        assert!(s.stat(f).unwrap().pinned, "demotion never drops the pin");
        assert_eq!(s.len(f).unwrap(), 8, "demotion never drops pages");
        let back = s.swap_in(f, U1).unwrap();
        assert_eq!(back.disk_tokens, 8);
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        s.verify().unwrap();
    }

    #[test]
    fn disk_resident_files_are_not_evict_candidates() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        s.demote_to_disk(f, U1).unwrap();
        assert_eq!(s.evict_lru(&[]), None, "disk files free no GPU pages");
    }

    #[test]
    fn from_bytes_floors_nonzero_budgets_to_one_page() {
        // A budget smaller than one page (4 tokens × 2 bytes = 8 bytes per
        // page) used to truncate to a zero-page tier.
        let c = KvStoreConfig::from_bytes(7, 100, 3, 2, 4);
        assert_eq!(c.gpu_pages, 1, "nonzero budget floors to one page");
        assert_eq!(c.cpu_pages, 12);
        assert_eq!(c.disk_pages, 1);
        // Zero stays zero: the tier is disabled, not floored.
        let off = KvStoreConfig::from_bytes(64, 0, 0, 2, 4);
        assert_eq!(off.cpu_pages, 0);
        assert_eq!(off.disk_pages, 0);
    }

    #[test]
    fn journal_round_trip_restores_byte_identical_store() {
        let mut s = store();
        s.set_quota(U1, Some(32));
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        s.pin(f, U1).unwrap();
        s.link(f, "rag/doc.kv", U1).unwrap();
        let g = s.fork(f, U2).unwrap(); // CoW sharing survives the journal
        s.append(g, U2, &entries(10..13)).unwrap();
        let h = s.create(U2).unwrap();
        s.append(h, U2, &entries(0..5)).unwrap();
        s.demote_to_disk(h, U2).unwrap();
        s.lock(g, U2).unwrap();
        let bytes = snapshot_bytes(&s);
        let (r, report) = restore_bytes(KvStoreConfig::for_tests(), &bytes).unwrap();
        assert_eq!(report.files, 3);
        assert_eq!(report.links, 1);
        assert_eq!(report.torn, None);
        r.verify().unwrap();
        assert_eq!(snapshot_bytes(&r), bytes, "restore is byte-identical");
        assert_eq!(r.read_all_unchecked(f).unwrap(), entries(0..10));
        assert_eq!(r.lookup("rag/doc.kv"), Some(f));
        assert!(r.stat(f).unwrap().pinned);
        assert_eq!(r.stat(g).unwrap().locked_by, Some(U2));
        assert_eq!(r.residency(h).unwrap(), Residency::Disk);
        assert_eq!(
            r.gpu_pages_used(),
            s.gpu_pages_used(),
            "CoW sharing restored, not deep-copied"
        );
        // Fresh allocation continues where the snapshot left off.
        let mut r = r;
        let next = r.create(U1).unwrap();
        assert!(next.0 > h.0);
        r.verify().unwrap();
    }

    #[test]
    fn journal_replays_incremental_mutation_records() {
        // Snapshot a store, then append incremental records by hand and
        // check replay applies them with store semantics.
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        let g = s.fork(f, U1).unwrap();
        s.link(f, "a", U1).unwrap();
        let bytes = snapshot_bytes(&s);
        // Tack a batch onto the record stream: a remove (of a file sharing
        // pages) and an unlink, closed like every batch by the pool state
        // (which neither changes).
        let (mut records, torn) = read_batches(&bytes);
        assert!(!torn);
        let pool = records.last().cloned().unwrap();
        records.push(Record::Remove { file: g.0 });
        records.push(Record::Unlink { path: "a".into() });
        records.push(pool);
        let (r, report) = restore_bytes(KvStoreConfig::for_tests(), &encode(&records)).unwrap();
        assert_eq!(report.torn, None);
        r.verify().unwrap();
        assert_eq!(r.len(g), Err(KvError::NotFound));
        assert_eq!(
            r.read_all_unchecked(f).unwrap(),
            entries(0..10),
            "shared pages survive their other holder"
        );
        assert_eq!(r.lookup("a"), None);
        assert_eq!(r.stat(f).unwrap().links, 0);
    }

    #[test]
    fn torn_journal_restores_valid_prefix() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        s.link(f, "keep", U1).unwrap();
        let mut bytes = snapshot_bytes(&s);
        let whole = bytes.len();
        s.track_changes();
        s.append(f, U1, &entries(10..14)).unwrap();
        assert!(s.has_published_changes(), "a linked file grew");
        assert!(s.drain_changes(&mut bytes));
        // Tear the second batch mid-record: the first batch is restored,
        // the cut one is not, and the tear is typed.
        let (r, report) =
            restore_bytes(KvStoreConfig::for_tests(), &bytes[..bytes.len() - 7]).unwrap();
        assert_eq!(report.torn, Some(KvError::JournalTorn));
        r.verify().unwrap();
        assert_eq!(r.read_all_unchecked(f).unwrap(), entries(0..10));
        // Cut exactly between batches, nothing is torn.
        let (_, report) = restore_bytes(KvStoreConfig::for_tests(), &bytes[..whole]).unwrap();
        assert_eq!(report.torn, None);
        let (r, _) = restore_bytes(KvStoreConfig::for_tests(), &bytes).unwrap();
        assert_eq!(r.read_all_unchecked(f).unwrap(), entries(0..14));
    }

    #[test]
    fn a_journal_naming_a_page_beyond_the_pool_is_refused_not_an_abort() {
        // A CRC-valid journal whose one file's one page is numbered
        // `u32::MAX - 1`. Warm restart must boot either way, and a slot
        // vector sized by that id would take 137 GB: the restore has to
        // refuse the id, not try.
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..3)).unwrap();
        let (mut records, _) = read_batches(&snapshot_bytes(&s));
        let far = u32::MAX - 1;
        for r in &mut records {
            match r {
                Record::PageWrite { page, .. } => *page = far,
                Record::FileMeta { pages, .. } => *pages = vec![far],
                _ => {}
            }
        }
        let bytes = encode(&records);
        assert!(bytes.len() < 200, "a small journal: {} B", bytes.len());
        assert_eq!(
            restore_bytes(KvStoreConfig::for_tests(), &bytes).err(),
            Some(KvError::JournalTorn)
        );
    }

    #[test]
    fn a_journal_sizes_the_pool_no_further_than_a_pool_this_size_allocates() {
        // Every slot is an arena row, so a journal that sized the slot
        // table past the pool's capacity would allocate a row per slot.
        // The last slot a pool of this capacity can allocate restores; the
        // next is refused, and a recorded slot table that long is rebuilt.
        let config = KvStoreConfig::for_tests();
        let capacity = (config.gpu_pages + config.cpu_pages + config.disk_pages) as u32;
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..3)).unwrap();
        let (records, _) = read_batches(&snapshot_bytes(&s));
        // The journal with its one page at `id` in a slot table of `slots`.
        let journal = |id: u32, slots: u32| {
            let mut records = records.clone();
            for r in &mut records {
                match r {
                    Record::PageWrite { page, .. } => *page = id,
                    Record::FileMeta { pages, .. } => *pages = vec![id],
                    Record::PoolState {
                        slots_len, free, ..
                    } => {
                        *slots_len = slots;
                        *free = (0..slots).rev().filter(|&p| p != id).collect();
                    }
                    _ => {}
                }
            }
            encode(&records)
        };
        let restore = |bytes: Vec<u8>| restore_bytes(config, &bytes);

        let (last, report) = restore(journal(capacity - 1, capacity)).unwrap();
        assert_eq!(report.torn, None);
        assert_eq!(last.read_all_unchecked(f).unwrap(), entries(0..3));
        assert_eq!(last.pool.slots_len(), capacity as usize);
        assert_eq!(last.pool.free_list().len(), capacity as usize - 1, "adopted");

        assert_eq!(
            restore(journal(capacity, capacity + 1)).err(),
            Some(KvError::JournalTorn)
        );
        let (rebuilt, _) = restore(journal(0, capacity + 1)).unwrap();
        assert_eq!(rebuilt.pool.slots_len(), 1, "a slot table no pool this size has");
        assert_eq!(rebuilt.read_all_unchecked(f).unwrap(), entries(0..3));
    }

    #[test]
    fn journal_geometry_mismatch_is_incompatible() {
        let s = store();
        let bytes = snapshot_bytes(&s);
        let mut other = KvStoreConfig::for_tests();
        other.page_tokens = 8;
        assert_eq!(
            restore_bytes(other, &bytes).err(),
            Some(KvError::JournalIncompatible)
        );
        other = KvStoreConfig::for_tests();
        other.bytes_per_token = 1;
        assert_eq!(
            restore_bytes(other, &bytes).err(),
            Some(KvError::JournalIncompatible)
        );
    }

    #[test]
    fn a_file_ending_at_u32_max_has_no_next_position() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        let (below, last) = (u32::MAX - 1, u32::MAX);
        s.append(f, U1, &[KvEntry::new(7, below, fp(1))]).unwrap();
        assert_eq!(s.next_position(f), Ok(u32::MAX));
        s.append(f, U1, &[KvEntry::new(8, last, fp(2))]).unwrap();
        assert_eq!(s.next_position(f), Err(KvError::BadRange));
        s.verify().unwrap();
    }

    #[test]
    fn empty_file_edge_cases() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        assert!(s.is_empty(f).unwrap());
        assert_eq!(s.tail_fingerprint(f).unwrap(), None);
        assert_eq!(s.next_position(f).unwrap(), 0);
        assert_eq!(s.residency(f).unwrap(), Residency::Empty);
        assert_eq!(s.read(f, U1, 0, 0).unwrap(), vec![]);
        s.append(f, U1, &[]).unwrap();
        assert!(s.is_empty(f).unwrap());
        s.verify().unwrap();
    }
}
