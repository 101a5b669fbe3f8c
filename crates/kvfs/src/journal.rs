//! Append-only page journal: the KVFS persistence format.
//!
//! A journal is a fixed header followed by framed, typed, checksummed
//! records and a terminating [`Record::End`]. Every frame is
//! `[tag u8][len u32][payload][crc u32]` with the CRC (FNV-1a over tag and
//! payload) making torn tails detectable: replay keeps the longest valid
//! record prefix and reports the tear as [`KvError::JournalTorn`] detail
//! instead of failing the whole restore — the truncate-and-continue
//! recovery of append-only stores like diskomap.
//!
//! [`crate::store::KvStore::journal_bytes`] serialises a store as a
//! record sequence (pages, file metadata, links, quotas, pool state);
//! [`crate::store::KvStore::restore_from_journal`] replays any record
//! sequence — snapshot or incremental appends of page writes, file
//! metadata, links and removes — back into a byte-identical store.

use symphony_model::CtxFingerprint;

use crate::error::KvError;
use crate::page::{KvEntry, Tier};

/// Journal file magic: "SYMJ".
pub const JOURNAL_MAGIC: [u8; 4] = *b"SYMJ";

/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Fixed journal header: store geometry plus the id/clock high-water marks
/// needed to continue allocating after a restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Tokens per page at snapshot time (must match the restoring config).
    pub page_tokens: u64,
    /// KV bytes per token at snapshot time (must match the restoring config).
    pub bytes_per_token: u64,
    /// Next file id to allocate.
    pub next_file: u64,
    /// Logical access clock at snapshot time.
    pub access_clock: u64,
}

/// One typed journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A page's full contents and tier.
    PageWrite {
        /// Page slot id.
        page: u32,
        /// Tier the page resides in.
        tier: Tier,
        /// The page's entries.
        entries: Vec<KvEntry>,
    },
    /// A file's metadata and page list (pages must already be written).
    FileMeta {
        /// File id.
        id: u64,
        /// Owning tenant.
        owner: u64,
        /// Entry count.
        len: u64,
        /// `Mode::read_all`.
        read_all: bool,
        /// `Mode::write_all`.
        write_all: bool,
        /// Pinned against eviction/swap.
        pinned: bool,
        /// Exclusive lock holder, if any.
        lock: Option<u64>,
        /// Logical last-access stamp.
        last_access: u64,
        /// Page ids, in file order.
        pages: Vec<u32>,
    },
    /// A namespace path pointing at a file.
    Link {
        /// Namespace path.
        path: String,
        /// Target file id.
        id: u64,
    },
    /// Namespace path removal.
    Unlink {
        /// Namespace path.
        path: String,
    },
    /// File removal (pages released, links dropped).
    Remove {
        /// File id.
        file: u64,
    },
    /// An owner's page-quota limit (`None` = unlimited).
    Quota {
        /// Owner id.
        owner: u64,
        /// Page limit.
        limit: Option<u64>,
    },
    /// Page-pool slot geometry: total slot count and the free-slot stack in
    /// allocation order. Only valid as a snapshot's final state record; any
    /// later mutating record invalidates it.
    PoolState {
        /// Slot-vector length including holes.
        slots_len: u32,
        /// Free-slot stack, bottom first.
        free: Vec<u32>,
    },
    /// Terminator: everything before it is a complete journal.
    End,
}

const TAG_PAGE_WRITE: u8 = 1;
const TAG_FILE_META: u8 = 2;
const TAG_LINK: u8 = 3;
const TAG_UNLINK: u8 = 4;
const TAG_REMOVE: u8 = 5;
const TAG_QUOTA: u8 = 7;
const TAG_POOL_STATE: u8 = 8;
const TAG_END: u8 = 9;

const TIER_GPU: u8 = 0;
const TIER_CPU: u8 = 1;
const TIER_DISK: u8 = 2;

// The SYMJ frame layout — `[tag u8][len u32][payload][crc u32]`, FNV-1a
// over tag + payload — is the workspace-wide codec from
// `symphony_sim::frame`, re-exported here because the kernel WAL predates
// the shared module and imports the framing through this path.
pub use symphony_sim::frame::{append_frame, read_frames};

use symphony_sim::frame::{fnv1a, next_frame, push_u32, push_u64, Cursor};

fn encode_tier(tier: Tier) -> u8 {
    match tier {
        Tier::Gpu => TIER_GPU,
        Tier::Cpu => TIER_CPU,
        Tier::Disk => TIER_DISK,
    }
}

fn decode_tier(b: u8) -> Option<Tier> {
    match b {
        TIER_GPU => Some(Tier::Gpu),
        TIER_CPU => Some(Tier::Cpu),
        TIER_DISK => Some(Tier::Disk),
        _ => None,
    }
}

fn encode_payload(rec: &Record, out: &mut Vec<u8>) {
    match rec {
        Record::PageWrite {
            page,
            tier,
            entries,
        } => {
            push_u32(out, *page);
            out.push(encode_tier(*tier));
            push_u32(out, entries.len() as u32);
            for e in entries {
                push_u32(out, e.token);
                push_u32(out, e.position);
                push_u64(out, e.fingerprint.0);
            }
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
            push_u64(out, *id);
            push_u64(out, *owner);
            push_u64(out, *len);
            let mut bits = 0u8;
            bits |= u8::from(*read_all);
            bits |= u8::from(*write_all) << 1;
            bits |= u8::from(*pinned) << 2;
            bits |= u8::from(lock.is_some()) << 3;
            out.push(bits);
            push_u64(out, lock.unwrap_or(0));
            push_u64(out, *last_access);
            push_u32(out, pages.len() as u32);
            for p in pages {
                push_u32(out, *p);
            }
        }
        Record::Link { path, id } => {
            push_u64(out, *id);
            push_u32(out, path.len() as u32);
            out.extend_from_slice(path.as_bytes());
        }
        Record::Unlink { path } => {
            push_u32(out, path.len() as u32);
            out.extend_from_slice(path.as_bytes());
        }
        Record::Remove { file } => push_u64(out, *file),
        Record::Quota { owner, limit } => {
            push_u64(out, *owner);
            out.push(u8::from(limit.is_some()));
            push_u64(out, limit.unwrap_or(0));
        }
        Record::PoolState { slots_len, free } => {
            push_u32(out, *slots_len);
            push_u32(out, free.len() as u32);
            for f in free {
                push_u32(out, *f);
            }
        }
        Record::End => {}
    }
}

fn record_tag(rec: &Record) -> u8 {
    match rec {
        Record::PageWrite { .. } => TAG_PAGE_WRITE,
        Record::FileMeta { .. } => TAG_FILE_META,
        Record::Link { .. } => TAG_LINK,
        Record::Unlink { .. } => TAG_UNLINK,
        Record::Remove { .. } => TAG_REMOVE,
        Record::Quota { .. } => TAG_QUOTA,
        Record::PoolState { .. } => TAG_POOL_STATE,
        Record::End => TAG_END,
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Option<Record> {
    let mut c = Cursor::new(payload);
    let rec = match tag {
        TAG_PAGE_WRITE => {
            let page = c.u32()?;
            let tier = decode_tier(c.u8()?)?;
            let count = c.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(payload.len()));
            for _ in 0..count {
                let token = c.u32()?;
                let position = c.u32()?;
                let fingerprint = CtxFingerprint(c.u64()?);
                entries.push(KvEntry::new(token, position, fingerprint));
            }
            Record::PageWrite {
                page,
                tier,
                entries,
            }
        }
        TAG_FILE_META => {
            let id = c.u64()?;
            let owner = c.u64()?;
            let len = c.u64()?;
            let bits = c.u8()?;
            let lock_holder = c.u64()?;
            let last_access = c.u64()?;
            let count = c.u32()? as usize;
            let mut pages = Vec::with_capacity(count.min(payload.len()));
            for _ in 0..count {
                pages.push(c.u32()?);
            }
            Record::FileMeta {
                id,
                owner,
                len,
                read_all: bits & 1 != 0,
                write_all: bits & 2 != 0,
                pinned: bits & 4 != 0,
                lock: (bits & 8 != 0).then_some(lock_holder),
                last_access,
                pages,
            }
        }
        TAG_LINK => {
            let id = c.u64()?;
            let n = c.u32()? as usize;
            let path = String::from_utf8(c.take(n)?.to_vec()).ok()?;
            Record::Link { path, id }
        }
        TAG_UNLINK => {
            let n = c.u32()? as usize;
            let path = String::from_utf8(c.take(n)?.to_vec()).ok()?;
            Record::Unlink { path }
        }
        TAG_REMOVE => Record::Remove { file: c.u64()? },
        TAG_QUOTA => {
            let owner = c.u64()?;
            let has_limit = c.u8()? != 0;
            let limit = c.u64()?;
            Record::Quota {
                owner,
                limit: has_limit.then_some(limit),
            }
        }
        TAG_POOL_STATE => {
            let slots_len = c.u32()?;
            let count = c.u32()? as usize;
            let mut free = Vec::with_capacity(count.min(payload.len()));
            for _ in 0..count {
                free.push(c.u32()?);
            }
            Record::PoolState { slots_len, free }
        }
        TAG_END => Record::End,
        _ => return None,
    };
    // Trailing payload bytes mean the frame lied about its own shape.
    c.done().then_some(rec)
}

/// Builds a journal byte stream: header, then appended records, then
/// [`Record::End`] on [`JournalWriter::finish`].
#[derive(Debug)]
pub struct JournalWriter {
    buf: Vec<u8>,
}

impl JournalWriter {
    /// Starts a journal with the given header.
    pub fn new(header: &JournalHeader) -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&JOURNAL_MAGIC);
        push_u32(&mut buf, JOURNAL_VERSION);
        push_u64(&mut buf, header.page_tokens);
        push_u64(&mut buf, header.bytes_per_token);
        push_u64(&mut buf, header.next_file);
        push_u64(&mut buf, header.access_clock);
        let crc = fnv1a(&buf);
        push_u32(&mut buf, crc);
        JournalWriter { buf }
    }

    /// Appends one framed record.
    pub fn append(&mut self, rec: &Record) {
        let mut payload = Vec::new();
        encode_payload(rec, &mut payload);
        // CRC covers tag + payload (not the length, which the frame walk
        // re-derives; a bad length shows up as a bad CRC anyway).
        append_frame(&mut self.buf, record_tag(rec), &payload);
    }

    /// Terminates the journal and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.append(&Record::End);
        self.buf
    }
}

const HEADER_LEN: usize = 4 + 4 + 8 * 4 + 4;

/// Parses a journal: the header, the longest valid record prefix, and
/// whether the tail was torn (short frame, bad checksum, malformed payload
/// or missing [`Record::End`]).
///
/// Returns `Err(KvError::JournalTorn)` only when the header itself is
/// unusable — there is nothing to restore. A version or magic mismatch is
/// [`KvError::JournalIncompatible`].
pub fn read_journal(bytes: &[u8]) -> Result<(JournalHeader, Vec<Record>, bool), KvError> {
    if bytes.len() < HEADER_LEN {
        return Err(KvError::JournalTorn);
    }
    let mut c = Cursor::new(bytes);
    let magic = c.take(4).ok_or(KvError::JournalTorn)?;
    if magic != JOURNAL_MAGIC {
        return Err(KvError::JournalIncompatible);
    }
    let version = c.u32().ok_or(KvError::JournalTorn)?;
    if version != JOURNAL_VERSION {
        return Err(KvError::JournalIncompatible);
    }
    let header = JournalHeader {
        page_tokens: c.u64().ok_or(KvError::JournalTorn)?,
        bytes_per_token: c.u64().ok_or(KvError::JournalTorn)?,
        next_file: c.u64().ok_or(KvError::JournalTorn)?,
        access_clock: c.u64().ok_or(KvError::JournalTorn)?,
    };
    let stored_crc = c.u32().ok_or(KvError::JournalTorn)?;
    if stored_crc != fnv1a(&bytes[..HEADER_LEN - 4]) {
        return Err(KvError::JournalTorn);
    }

    let mut records = Vec::new();
    let mut complete = false;
    while let Some((tag, payload)) = next_frame(&mut c) {
        let Some(rec) = decode_payload(tag, payload) else {
            break;
        };
        if rec == Record::End {
            complete = true;
            break;
        }
        records.push(rec);
    }
    Ok((header, records, !complete))
}

/// Human-readable name for a record's frame type.
fn record_name(rec: &Record) -> &'static str {
    match rec {
        Record::PageWrite { .. } => "page_write",
        Record::FileMeta { .. } => "file_meta",
        Record::Link { .. } => "link",
        Record::Unlink { .. } => "unlink",
        Record::Remove { .. } => "remove",
        Record::Quota { .. } => "quota",
        Record::PoolState { .. } => "pool_state",
        Record::End => "end",
    }
}

/// Parses journal bytes and counts valid records per frame type — the
/// journal-growth observability hook `exp_persist` reports alongside the
/// `kvfs.journal_bytes` gauge. The `End` terminator is not counted; a
/// torn tail only shortens the counted prefix.
pub fn frame_counts(
    bytes: &[u8],
) -> Result<std::collections::BTreeMap<&'static str, u64>, KvError> {
    let (_header, records, _torn) = read_journal(bytes)?;
    let mut counts = std::collections::BTreeMap::new();
    for rec in &records {
        *counts.entry(record_name(rec)).or_insert(0u64) += 1;
    }
    Ok(counts)
}

/// Byte length of a framed [`Record::End`]: tag + length + CRC, no payload.
const END_FRAME_LEN: u64 = 9;

/// Tuning for an on-disk [`Journal`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Total journal size (disk + buffered) at which
    /// [`Journal::needs_compaction`] reports `true`.
    pub compact_threshold_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            compact_threshold_bytes: 256 * 1024,
        }
    }
}

/// An appendable on-disk journal: a base snapshot plus flushed delta
/// batches, bounded by threshold-triggered compaction.
///
/// Every flush *unseals* the file (strips the trailing [`Record::End`]
/// frame), appends the buffered frames, and reseals with a fresh `End` —
/// so every crash window leaves either the previous sealed journal or a
/// torn tail that [`read_journal`] truncates back to a valid record
/// prefix. [`Journal::compact`] rewrites the whole file as a
/// snapshot-equivalent stream via a sibling temp file and an atomic
/// rename: a crash before the rename leaves the old journal untouched.
#[derive(Debug)]
pub struct Journal {
    path: std::path::PathBuf,
    config: JournalConfig,
    /// Framed records not yet written to disk.
    pending: Vec<u8>,
    /// Sealed on-disk length, including the trailing `End` frame.
    disk_len: u64,
    compactions: u64,
}

impl Journal {
    /// Creates (or truncates) the journal at `path` with `snapshot` — a
    /// complete sealed stream from [`JournalWriter::finish`] or
    /// `KvStore::journal_bytes` — as its base.
    pub fn create(
        path: &std::path::Path,
        snapshot: &[u8],
        config: JournalConfig,
    ) -> std::io::Result<Journal> {
        std::fs::write(path, snapshot)?;
        Ok(Journal {
            path: path.to_path_buf(),
            config,
            pending: Vec::new(),
            disk_len: snapshot.len() as u64,
            compactions: 0,
        })
    }

    /// Buffers one framed record; [`Journal::flush`] at the end of the
    /// batch writes it.
    pub fn append(&mut self, rec: &Record) {
        let mut payload = Vec::new();
        encode_payload(rec, &mut payload);
        append_frame(&mut self.pending, record_tag(rec), &payload);
    }

    /// Writes buffered records to disk: unseal (drop the `End` frame),
    /// append, reseal. A no-op with an empty buffer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(self.disk_len - END_FRAME_LEN)?;
        f.seek(SeekFrom::End(0))?;
        f.write_all(&self.pending)?;
        let mut end = Vec::new();
        append_frame(&mut end, TAG_END, &[]);
        f.write_all(&end)?;
        self.disk_len += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Journal size: sealed bytes on disk plus the unflushed buffer.
    pub fn bytes(&self) -> u64 {
        self.disk_len + self.pending.len() as u64
    }

    /// `true` once [`Journal::bytes`] reaches the compaction threshold.
    pub fn needs_compaction(&self) -> bool {
        self.bytes() >= self.config.compact_threshold_bytes
    }

    /// Rewrites the journal as `snapshot` (which must describe the store
    /// state the journal's records replay to, so buffered records are
    /// subsumed and dropped). Crash-safe: the snapshot lands in a sibling
    /// temp file first and replaces the journal with one atomic rename.
    pub fn compact(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        let tmp = self.tmp_path();
        std::fs::write(&tmp, snapshot)?;
        std::fs::rename(&tmp, &self.path)?;
        self.disk_len = snapshot.len() as u64;
        self.pending.clear();
        self.compactions += 1;
        Ok(())
    }

    /// Fault-injection twin of [`Journal::compact`]: writes the temp file
    /// and "crashes" before the rename. The journal on disk is untouched
    /// and the handle's accounting is unchanged — chaos tests call this to
    /// prove a mid-compaction crash cannot lose the old journal.
    #[doc(hidden)]
    pub fn compact_crash_before_rename(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        std::fs::write(self.tmp_path(), snapshot)
    }

    fn tmp_path(&self) -> std::path::PathBuf {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".compact");
        self.path.with_file_name(name)
    }

    /// Compactions performed over this handle's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

/// What a journal restore recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Files restored.
    pub files: usize,
    /// Live pages restored.
    pub pages: usize,
    /// Total tokens restored across all pages.
    pub tokens: usize,
    /// Namespace links restored.
    pub links: usize,
    /// `Some(KvError::JournalTorn)` when the tail was torn and only the
    /// valid prefix was replayed; `None` for a complete journal.
    pub torn: Option<KvError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            page_tokens: 4,
            bytes_per_token: 1024,
            next_file: 7,
            access_clock: 42,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::PageWrite {
                page: 3,
                tier: Tier::Disk,
                entries: vec![KvEntry::new(1, 0, CtxFingerprint(9))],
            },
            Record::FileMeta {
                id: 1,
                owner: 2,
                len: 1,
                read_all: true,
                write_all: false,
                pinned: true,
                lock: Some(5),
                last_access: 11,
                pages: vec![3],
            },
            Record::Link {
                path: "rag/doc.kv".to_string(),
                id: 1,
            },
            Record::Unlink {
                path: "rag/doc.kv".to_string(),
            },
            Record::Remove { file: 1 },
            Record::Quota {
                owner: 2,
                limit: Some(16),
            },
            Record::PoolState {
                slots_len: 4,
                free: vec![2, 0],
            },
        ]
    }

    #[test]
    fn round_trips_every_record_type() {
        let mut w = JournalWriter::new(&header());
        for r in sample_records() {
            w.append(&r);
        }
        let bytes = w.finish();
        let (h, records, torn) = read_journal(&bytes).unwrap();
        assert_eq!(h, header());
        assert!(!torn);
        assert_eq!(records, sample_records());
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let mut w = JournalWriter::new(&header());
        for r in sample_records() {
            w.append(&r);
        }
        let bytes = w.finish();
        let full = sample_records();
        // Cut at every byte length: replay must never panic and must keep
        // a prefix of the full record sequence.
        let mut seen_lens = std::collections::BTreeSet::new();
        for cut in HEADER_LEN..bytes.len() {
            let (h, records, torn) = read_journal(&bytes[..cut]).unwrap();
            assert_eq!(h, header());
            assert!(torn, "cut at {cut} must read as torn");
            assert!(records.len() <= full.len());
            assert_eq!(records[..], full[..records.len()], "prefix at {cut}");
            seen_lens.insert(records.len());
        }
        assert!(seen_lens.contains(&0));
        assert!(seen_lens.contains(&(full.len() - 1)));
    }

    #[test]
    fn corrupt_byte_in_tail_is_torn() {
        let mut w = JournalWriter::new(&header());
        for r in sample_records() {
            w.append(&r);
        }
        let mut bytes = w.finish();
        let n = bytes.len();
        bytes[n - 20] ^= 0xff;
        let (_, records, torn) = read_journal(&bytes).unwrap();
        assert!(torn);
        assert!(records.len() < sample_records().len());
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(read_journal(b"shrt"), Err(KvError::JournalTorn));
        let bytes = JournalWriter::new(&header()).finish();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            read_journal(&wrong_magic),
            Err(KvError::JournalIncompatible)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            read_journal(&wrong_version),
            Err(KvError::JournalIncompatible)
        );
        let mut bad_header_crc = bytes;
        bad_header_crc[10] ^= 0xff;
        assert_eq!(read_journal(&bad_header_crc), Err(KvError::JournalTorn));
    }

    #[test]
    fn retired_truncate_tag_ends_the_valid_prefix_like_any_unknown_tag() {
        // Tag 6 was `Truncate`, a record no writer ever emitted.
        let records = sample_records();
        let mut payload = Vec::new();
        push_u64(&mut payload, 1);
        push_u64(&mut payload, 0);
        let mut w = JournalWriter::new(&header());
        w.append(&records[0]);
        append_frame(&mut w.buf, 6, &payload);
        w.append(&records[1]);
        let (_, read, torn) = read_journal(&w.finish()).unwrap();
        assert_eq!(read, records[..1]);
        assert!(torn);
    }

    #[test]
    fn empty_journal_is_complete() {
        let bytes = JournalWriter::new(&header()).finish();
        let (_, records, torn) = read_journal(&bytes).unwrap();
        assert!(records.is_empty());
        assert!(!torn);
    }

    #[test]
    fn raw_frames_round_trip_and_tear_at_every_cut() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 32, b"alpha");
        append_frame(&mut buf, 40, &[]);
        append_frame(&mut buf, 33, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let (frames, torn) = read_frames(&buf);
        assert!(!torn);
        assert_eq!(
            frames,
            vec![
                (32u8, b"alpha".to_vec()),
                (40u8, Vec::new()),
                (33u8, vec![1, 2, 3, 4, 5, 6, 7, 8]),
            ]
        );
        // Frame boundaries: a cut exactly between frames is a clean
        // (shorter) log, not a tear.
        let mut boundaries = vec![0usize];
        let mut off = 0usize;
        for (_, payload) in &frames {
            off += 9 + payload.len();
            boundaries.push(off);
        }
        for cut in 0..buf.len() {
            let (prefix, torn) = read_frames(&buf[..cut]);
            assert_eq!(torn, !boundaries.contains(&cut), "tear flag at cut {cut}");
            assert!(prefix.len() <= frames.len());
            assert_eq!(prefix[..], frames[..prefix.len()], "prefix at {cut}");
        }
    }

    #[test]
    fn journal_handle_appends_and_reseals() {
        let dir = std::env::temp_dir().join("symj_handle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("appends.journal");
        let base = JournalWriter::new(&header()).finish();
        let config = JournalConfig {
            compact_threshold_bytes: u64::MAX,
        };
        let mut j = Journal::create(&path, &base, config).unwrap();
        for r in sample_records() {
            j.append(&r);
            j.flush().unwrap();
            // Every post-flush state is a sealed, complete journal.
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len() as u64, j.bytes());
            let (_, _, torn) = read_journal(&bytes).unwrap();
            assert!(!torn);
        }
        let (h, records, torn) = read_journal(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(h, header());
        assert!(!torn);
        assert_eq!(records, sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_handle_buffers_until_flush() {
        let dir = std::env::temp_dir().join("symj_handle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buffers.journal");
        let base = JournalWriter::new(&header()).finish();
        let config = JournalConfig {
            compact_threshold_bytes: u64::MAX,
        };
        let mut j = Journal::create(&path, &base, config).unwrap();
        j.append(&Record::Quota {
            owner: 1,
            limit: Some(4),
        });
        // Unflushed: disk still holds only the sealed base snapshot.
        assert_eq!(std::fs::read(&path).unwrap(), base);
        assert!(j.bytes() > base.len() as u64);
        j.flush().unwrap();
        let (_, records, torn) = read_journal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_compaction_replaces_file_atomically() {
        let dir = std::env::temp_dir().join("symj_handle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compacts.journal");
        let base = JournalWriter::new(&header()).finish();
        let config = JournalConfig {
            compact_threshold_bytes: 128,
        };
        let mut j = Journal::create(&path, &base, config).unwrap();
        for r in sample_records() {
            j.append(&r);
        }
        j.flush().unwrap();
        assert!(j.needs_compaction());
        // "Snapshot" here is any complete sealed stream — smaller than the
        // threshold, so compaction actually clears the trigger.
        let mut w = JournalWriter::new(&header());
        w.append(&Record::Quota {
            owner: 9,
            limit: None,
        });
        let snap = w.finish();
        assert!((snap.len() as u64) < 128, "snapshot must fit under the threshold");

        // Crash before the rename: old journal bytes intact and valid.
        let before = std::fs::read(&path).unwrap();
        j.compact_crash_before_rename(&snap).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(j.compactions(), 0);

        // Real compaction: the file is exactly the snapshot.
        j.compact(&snap).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), snap);
        assert_eq!(j.bytes(), snap.len() as u64);
        assert_eq!(j.compactions(), 1);
        assert!(!j.needs_compaction());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_frame_crc_rejects_corruption() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 32, b"payload");
        append_frame(&mut buf, 33, b"second");
        buf[3] ^= 0xff;
        let (frames, torn) = read_frames(&buf);
        assert!(torn);
        assert!(frames.is_empty());
    }
}
