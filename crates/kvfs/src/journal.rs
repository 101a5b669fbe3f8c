//! Append-only page journal: the KVFS client of the segment log.
//!
//! The file is a `symphony_sim::seglog` log (header, frames, torn-tail
//! rule and replace-by-rename are described there and in
//! docs/RESILIENCE.md, "Log file format"). What is the journal's own:
//!
//! | tag | record | |
//! |---|---|---|
//! | 1 | [`Record::PageWrite`] | a page's entries and tier |
//! | 2 | [`Record::FileMeta`] | a file's metadata and page list |
//! | 3 | [`Record::Link`] | path → file |
//! | 4 | [`Record::Unlink`] | path removed |
//! | 5 | [`Record::Remove`] | file removed |
//! | 7 | [`Record::Quota`] | an owner's page limit |
//! | 8 | [`Record::PoolState`] | slot geometry, the last record of every batch |
//!
//! (6 and 9 are retired: a frame carrying either ends the valid prefix.)
//! The header carries `page_tokens`, `bytes_per_token`, `next_file` and
//! `access_clock`.
//!
//! **Durability.** Every batch — a snapshot, or the changes one persist
//! appends — ends in a [`Record::PoolState`]. A journal is *complete* when
//! the frame walk was not cut and its last record is a `PoolState` (a
//! header-only file is complete and empty), and *torn* otherwise: replay
//! keeps the longest valid record prefix and reports the tear as
//! [`KvError::JournalTorn`] detail instead of failing the restore.
//! [`crate::store::KvStore::journal_bytes`] serialises a store as one
//! batch; a [`Journal`] handle appends delta batches after it, and never
//! rewrites a byte it has written (the store drives it:
//! [`crate::store::KvStore::open_journal`] /
//! [`crate::store::KvStore::persist_journal`]), and
//! [`crate::store::KvStore::restore_from_journal`] replays either back into
//! a byte-identical store.

use symphony_model::CtxFingerprint;

use crate::error::KvError;
use crate::page::{KvEntry, Tier};

/// Journal file magic: "SYMJ".
pub const JOURNAL_MAGIC: [u8; 4] = *b"SYMJ";

/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 2;

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
    /// allocation order. It closes every batch, so a journal that ends in
    /// one is complete; any later mutating record invalidates it.
    PoolState {
        /// Slot-vector length including holes.
        slots_len: u32,
        /// Free-slot stack, bottom first.
        free: Vec<u32>,
    },
}

const TAG_PAGE_WRITE: u8 = 1;
const TAG_FILE_META: u8 = 2;
const TAG_LINK: u8 = 3;
const TAG_UNLINK: u8 = 4;
const TAG_REMOVE: u8 = 5;
const TAG_QUOTA: u8 = 7;
const TAG_POOL_STATE: u8 = 8;

const TIER_GPU: u8 = 0;
const TIER_CPU: u8 = 1;
const TIER_DISK: u8 = 2;

use symphony_sim::frame::{append_frame, push_u32, push_u64, Cursor};
use symphony_sim::seglog::{self, Head, HeadError, SegLog};

const HEAD: Head<4> = Head {
    magic: JOURNAL_MAGIC,
    version: JOURNAL_VERSION,
};

impl From<HeadError> for KvError {
    fn from(e: HeadError) -> Self {
        match e {
            HeadError::Torn => KvError::JournalTorn,
            HeadError::Incompatible => KvError::JournalIncompatible,
        }
    }
}

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
        _ => return None,
    };
    // Trailing payload bytes mean the frame lied about its own shape.
    c.done().then_some(rec)
}

/// Builds a journal byte stream: header, then appended records.
#[derive(Debug)]
pub struct JournalWriter {
    buf: Vec<u8>,
}

impl JournalWriter {
    /// Starts a journal with the given header.
    pub fn new(header: &JournalHeader) -> Self {
        let fields = [
            header.page_tokens,
            header.bytes_per_token,
            header.next_file,
            header.access_clock,
        ];
        JournalWriter {
            buf: seglog::encode_head(&HEAD, fields),
        }
    }

    /// Appends one framed record.
    pub fn append(&mut self, rec: &Record) {
        let mut payload = Vec::new();
        encode_payload(rec, &mut payload);
        // CRC covers tag + payload (not the length, which the frame walk
        // re-derives; a bad length shows up as a bad CRC anyway).
        append_frame(&mut self.buf, record_tag(rec), &payload);
    }

    /// Returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Parses a journal: the header, the longest valid record prefix, and
/// whether the tail was torn (the segment log's torn-tail rule, or a last
/// record that is not a [`Record::PoolState`]: a batch cut between frames).
///
/// Returns `Err(KvError::JournalTorn)` only when the header itself is
/// unusable — there is nothing to restore. A version or magic mismatch is
/// [`KvError::JournalIncompatible`].
pub fn read_journal(bytes: &[u8]) -> Result<(JournalHeader, Vec<Record>, bool), KvError> {
    let ([page_tokens, bytes_per_token, next_file, access_clock], body) =
        seglog::parse_head(&HEAD, bytes)?;
    let header = JournalHeader {
        page_tokens,
        bytes_per_token,
        next_file,
        access_clock,
    };
    let (records, _, cut) = seglog::scan(body, decode_payload);
    let closed = records
        .last()
        .is_none_or(|r| matches!(r, Record::PoolState { .. }));
    Ok((header, records, cut || !closed))
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
    }
}

/// Parses journal bytes and counts valid records per frame type — the
/// journal-growth observability hook `exp_persist` reports alongside the
/// `kvfs.journal_bytes` gauge. A torn tail only shortens the counted
/// prefix.
pub fn frame_counts(
    bytes: &[u8],
) -> Result<std::collections::BTreeMap<&'static str, u64>, KvError> {
    let name_of = |tag, payload: &[u8]| Some(record_name(&decode_payload(tag, payload)?));
    Ok(seglog::tag_counts(bytes, &HEAD, name_of)?)
}

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
/// The file is append-only between replacements: a flush writes the
/// buffered batch after what is on disk, so a crash at any point leaves
/// the previous complete journal, or it plus part of the batch — a tail
/// [`read_journal`] reports as torn, keeping its valid record prefix.
/// Creating and compacting replace the whole file atomically.
#[derive(Debug)]
pub struct Journal {
    log: SegLog,
    config: JournalConfig,
}

impl Journal {
    /// Creates the journal at `path` (atomically replacing any file
    /// there) with `snapshot` — a complete stream from
    /// [`JournalWriter::finish`] or `KvStore::journal_bytes` — as its base.
    pub fn create(
        path: &std::path::Path,
        snapshot: &[u8],
        config: JournalConfig,
    ) -> std::io::Result<Journal> {
        Ok(Journal {
            log: SegLog::create(path, snapshot)?,
            config,
        })
    }

    /// Buffers one framed record; [`Journal::flush`] at the end of the
    /// batch, which closes with a [`Record::PoolState`], writes it.
    pub fn append(&mut self, rec: &Record) {
        let mut payload = Vec::new();
        encode_payload(rec, &mut payload);
        self.log.push(record_tag(rec), &payload);
    }

    /// Appends the buffered records to the file. A no-op with an empty
    /// buffer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.log.flush()
    }

    /// Journal size: bytes on disk plus the unflushed buffer.
    pub fn bytes(&self) -> u64 {
        self.log.disk_len() + self.log.pending_len()
    }

    /// `true` once [`Journal::bytes`] reaches the compaction threshold.
    pub fn needs_compaction(&self) -> bool {
        self.bytes() >= self.config.compact_threshold_bytes
    }

    /// Rewrites the journal as `snapshot` (which must describe the store
    /// state the journal's records replay to, so buffered records are
    /// subsumed and dropped), atomically: a crash before the rename leaves
    /// the old journal untouched.
    pub fn compact(&mut self, snapshot: &[u8]) -> std::io::Result<()> {
        self.log.replace(snapshot)
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
        // a prefix of the full record sequence. Only the header-only cut is
        // complete (and empty): every other one ends inside a frame or on
        // a record before the closing `PoolState`.
        let mut seen_lens = std::collections::BTreeSet::new();
        for cut in Head::<4>::LEN..bytes.len() {
            let (h, records, torn) = read_journal(&bytes[..cut]).unwrap();
            assert_eq!(h, header());
            assert_eq!(torn, cut > Head::<4>::LEN, "cut at {cut}");
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
        // A version-1 journal (every batch sealed by `End`) is refused,
        // not misread.
        for version in [JOURNAL_VERSION - 1, 99] {
            wrong_version[4] = version as u8;
            assert_eq!(
                read_journal(&wrong_version),
                Err(KvError::JournalIncompatible)
            );
        }
        let mut bad_header_crc = bytes;
        bad_header_crc[10] ^= 0xff;
        assert_eq!(read_journal(&bad_header_crc), Err(KvError::JournalTorn));
    }

    #[test]
    fn retired_truncate_tag_ends_the_valid_prefix_like_any_unknown_tag() {
        // Tag 6 was `Truncate`, a record no writer ever emitted, and tag 9
        // the `End` seal up to version 1. Each follows a closed batch here,
        // so the tear is the frame's alone.
        let records = sample_records();
        let mut truncate = Vec::new();
        push_u64(&mut truncate, 1);
        push_u64(&mut truncate, 0);
        for (tag, payload) in [(6, truncate), (9, Vec::new())] {
            let mut w = JournalWriter::new(&header());
            w.append(&records[6]);
            append_frame(&mut w.buf, tag, &payload);
            w.append(&records[1]);
            let (_, read, torn) = read_journal(&w.finish()).unwrap();
            assert_eq!(read, records[6..7], "tag {tag}");
            assert!(torn, "tag {tag}");
        }
    }

    #[test]
    fn empty_journal_is_complete() {
        let bytes = JournalWriter::new(&header()).finish();
        let (_, records, torn) = read_journal(&bytes).unwrap();
        assert!(records.is_empty());
        assert!(!torn);
    }

    #[test]
    fn journal_handle_appends_batches_in_place() {
        let dir = std::env::temp_dir().join("symj_handle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("appends.journal");
        let base = JournalWriter::new(&header()).finish();
        let config = JournalConfig {
            compact_threshold_bytes: u64::MAX,
        };
        let mut j = Journal::create(&path, &base, config).unwrap();
        for r in sample_records() {
            let closes = matches!(r, Record::PoolState { .. });
            let before = std::fs::read(&path).unwrap();
            j.append(&r);
            j.flush().unwrap();
            // A flush appends: what was on disk stays, byte for byte. The
            // journal reads complete only once its last batch is closed.
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes[..before.len()], before[..]);
            assert_eq!(bytes.len() as u64, j.bytes());
            let (_, _, torn) = read_journal(&bytes).unwrap();
            assert_eq!(torn, !closes);
        }
        // Seven one-record batches leave what one writer pass leaves.
        let mut w = JournalWriter::new(&header());
        for r in sample_records() {
            w.append(&r);
        }
        assert_eq!(std::fs::read(&path).unwrap(), w.finish());
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
        j.append(&sample_records()[6]);
        // Unflushed: disk still holds only the base snapshot.
        assert_eq!(std::fs::read(&path).unwrap(), base);
        assert!(j.bytes() > base.len() as u64);
        j.flush().unwrap();
        let (_, records, torn) = read_journal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 2);
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
        // "Snapshot" here is any record stream — smaller than the
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
        SegLog::replace_crash_before_rename(&path, &snap).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // Real compaction: the file is exactly the snapshot.
        j.compact(&snap).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), snap);
        assert_eq!(j.bytes(), snap.len() as u64);
        assert!(!j.needs_compaction());
        std::fs::remove_file(&path).ok();
    }

    /// The format changes only on purpose: length and FNV-1a of this record
    /// list's encoding. Version 2 is 258 bytes against version 1's 267
    /// (FNV-1a `0x6d7c_6ee2`, first computed at commit 108e8f8, before the
    /// segment log existed): the 9-byte `End` frame (tag, length and CRC,
    /// no payload) is gone, and the header's version word reads 2.
    /// `journal_handle_appends_batches_in_place` holds the file handle to
    /// the same bytes.
    #[test]
    fn on_disk_format_is_pinned() {
        let mut w = JournalWriter::new(&header());
        for r in sample_records() {
            w.append(&r);
        }
        let bytes = w.finish();
        assert_eq!(
            (bytes.len(), symphony_sim::frame::fnv1a(&bytes)),
            (258, 0x5ff8_9503)
        );
    }
}
