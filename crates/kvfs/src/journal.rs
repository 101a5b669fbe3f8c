//! The KV store's record codec: the frames a store's changes travel in.
//!
//! The store holds no file. Its records are frames of the kernel
//! write-ahead log (`symphony::wal`, docs/RESILIENCE.md), and their tags
//! are the low end of that log's one tag space:
//!
//! | tag | record | |
//! |---|---|---|
//! | 1 | [`Record::PageWrite`] | a page's entries and tier |
//! | 2 | [`Record::FileMeta`] | a file's metadata and page list |
//! | 3 | [`Record::Link`] | path → file |
//! | 4 | [`Record::Unlink`] | path removed |
//! | 5 | [`Record::Remove`] | file removed |
//! | 7 | [`Record::Quota`] | an owner's page limit |
//! | 8 | [`Record::PoolState`] | geometry, allocator marks and slot state, the last record of every batch |
//!
//! (6 and 9 are retired: a frame carrying either ends the valid prefix.)
//!
//! **Batches.** What a store writes is a *batch*: the records that take
//! a reader from the previous batch to the store as it is, closed by one
//! [`Record::PoolState`]. A snapshot ([`crate::store::KvStore::snapshot`])
//! is the batch that starts from an empty store, and
//! [`crate::store::KvStore::restore`] rebuilds a byte-identical store from
//! it; a delta ([`crate::store::KvStore::drain_changes`]) starts from the
//! last batch and describes the store's linked files and the admin's
//! alone. A record sequence is *complete* when its last record is a
//! `PoolState`; a reader keeps the sequence up to the last one.

use std::borrow::Cow;

use symphony_model::CtxFingerprint;
use symphony_sim::frame::{append_frame_with, push_u32, push_u64, Cursor};

use crate::page::{KvEntry, Tier};

/// One typed record. Encoding borrows what it can (a page's entries,
/// derived into a buffer the drain reuses, the free-slot stack); decoding
/// owns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<'a> {
    /// A page's full contents and tier.
    PageWrite {
        /// Page slot id.
        page: u32,
        /// Tier the page resides in.
        tier: Tier,
        /// The page's entries.
        entries: Cow<'a, [KvEntry]>,
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
        path: Cow<'a, str>,
        /// Target file id.
        id: u64,
    },
    /// Namespace path removal.
    Unlink {
        /// Namespace path.
        path: Cow<'a, str>,
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
    /// Closes every batch: the store's geometry, which a restoring store
    /// must share, the id and clock high-water marks it continues from,
    /// and the pool's slot count and free-slot stack in allocation order.
    /// A sequence that ends in one is complete; any later mutating record
    /// invalidates its slot state.
    PoolState {
        /// Tokens per page.
        page_tokens: u64,
        /// KV bytes per token.
        bytes_per_token: u64,
        /// Next file id to allocate.
        next_file: u64,
        /// Logical access clock.
        access_clock: u64,
        /// Slot-vector length including holes.
        slots_len: u32,
        /// Free-slot stack, bottom first.
        free: Cow<'a, [u32]>,
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

fn push_path(out: &mut Vec<u8>, path: &str) {
    push_u32(out, path.len() as u32);
    out.extend_from_slice(path.as_bytes());
}

/// Appends `rec`'s frame payload to `out` (its tag is [`record_tag`]).
pub fn encode_payload(rec: &Record<'_>, out: &mut Vec<u8>) {
    match rec {
        Record::PageWrite {
            page,
            tier,
            entries,
        } => {
            push_u32(out, *page);
            out.push(encode_tier(*tier));
            push_u32(out, entries.len() as u32);
            for e in entries.iter() {
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
            push_path(out, path);
        }
        Record::Unlink { path } => push_path(out, path),
        Record::Remove { file } => push_u64(out, *file),
        Record::Quota { owner, limit } => {
            push_u64(out, *owner);
            out.push(u8::from(limit.is_some()));
            push_u64(out, limit.unwrap_or(0));
        }
        Record::PoolState {
            page_tokens,
            bytes_per_token,
            next_file,
            access_clock,
            slots_len,
            free,
        } => {
            push_u64(out, *page_tokens);
            push_u64(out, *bytes_per_token);
            push_u64(out, *next_file);
            push_u64(out, *access_clock);
            push_u32(out, *slots_len);
            push_u32(out, free.len() as u32);
            for f in free.iter() {
                push_u32(out, *f);
            }
        }
    }
}

/// The frame tag of `rec`.
pub fn record_tag(rec: &Record<'_>) -> u8 {
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

/// Appends `rec` to `out` as one frame, its payload encoded in place.
pub fn append_record(out: &mut Vec<u8>, rec: &Record<'_>) {
    append_frame_with(out, record_tag(rec), |out| encode_payload(rec, out));
}

fn decode_path(c: &mut Cursor<'_>) -> Option<Cow<'static, str>> {
    let n = c.u32()? as usize;
    String::from_utf8(c.take(n)?.to_vec()).ok().map(Cow::Owned)
}

/// Decodes one frame's payload. `None` for a tag this codec does not own
/// and for a payload of the wrong shape: either ends a log's valid prefix.
pub fn decode_record(tag: u8, payload: &[u8]) -> Option<Record<'static>> {
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
                entries: Cow::Owned(entries),
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
            Record::Link {
                path: decode_path(&mut c)?,
                id,
            }
        }
        TAG_UNLINK => Record::Unlink {
            path: decode_path(&mut c)?,
        },
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
            let page_tokens = c.u64()?;
            let bytes_per_token = c.u64()?;
            let next_file = c.u64()?;
            let access_clock = c.u64()?;
            let slots_len = c.u32()?;
            let count = c.u32()? as usize;
            let mut free = Vec::with_capacity(count.min(payload.len()));
            for _ in 0..count {
                free.push(c.u32()?);
            }
            Record::PoolState {
                page_tokens,
                bytes_per_token,
                next_file,
                access_clock,
                slots_len,
                free: Cow::Owned(free),
            }
        }
        _ => return None,
    };
    // Trailing payload bytes mean the frame lied about its own shape.
    c.done().then_some(rec)
}

/// `true` for the record that closes a batch.
pub fn closes_batch(rec: &Record<'_>) -> bool {
    matches!(rec, Record::PoolState { .. })
}

/// The name of a record tag this codec owns, for a log's per-tag frame
/// counts; `None` for any other tag.
pub fn tag_name(tag: u8) -> Option<&'static str> {
    Some(match tag {
        TAG_PAGE_WRITE => "page_write",
        TAG_FILE_META => "file_meta",
        TAG_LINK => "link",
        TAG_UNLINK => "unlink",
        TAG_REMOVE => "remove",
        TAG_QUOTA => "quota",
        TAG_POOL_STATE => "pool_state",
        _ => return None,
    })
}

/// The argument of the kernel's `open_kv_journal`, which exists for
/// callers written against the store's own journal file, now gone: the
/// store's batches ride in the kernel log. It carries nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalConfig;

/// What a restore recovered.
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
    /// `Some(KvError::JournalTorn)` when the log was cut inside a batch
    /// (or a record did not replay cleanly) and only the records before it
    /// were restored; `None` for a complete sequence.
    pub torn: Option<crate::KvError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_sim::frame::append_frame;
    use symphony_sim::seglog;

    fn sample_records() -> Vec<Record<'static>> {
        vec![
            Record::PageWrite {
                page: 3,
                tier: Tier::Disk,
                entries: Cow::Owned(vec![KvEntry::new(1, 0, CtxFingerprint(9))]),
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
                path: "rag/doc.kv".into(),
                id: 1,
            },
            Record::Unlink {
                path: "rag/doc.kv".into(),
            },
            Record::Remove { file: 1 },
            Record::Quota {
                owner: 2,
                limit: Some(16),
            },
            Record::PoolState {
                page_tokens: 4,
                bytes_per_token: 1024,
                next_file: 7,
                access_clock: 42,
                slots_len: 4,
                free: Cow::Owned(vec![2, 0]),
            },
        ]
    }

    fn encode(records: &[Record<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            append_record(&mut out, r);
        }
        out
    }

    /// The valid record prefix of `bytes` and whether it ends in a closed
    /// batch, the frame walk uncut.
    fn read(bytes: &[u8]) -> (Vec<Record<'static>>, bool) {
        let (records, _, cut) = seglog::scan(bytes, decode_record);
        let closed = records.last().is_none_or(closes_batch);
        (records, !cut && closed)
    }

    #[test]
    fn round_trips_every_record_type() {
        let (records, complete) = read(&encode(&sample_records()));
        assert!(complete);
        assert_eq!(records, sample_records());
        for r in &sample_records() {
            assert!(tag_name(record_tag(r)).is_some());
        }
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let bytes = encode(&sample_records());
        let full = sample_records();
        // Cut at every byte length: decoding must never panic and must
        // keep a prefix of the full record sequence. Only the empty cut is
        // complete: every other one ends inside a frame or on a record
        // before the closing `PoolState`.
        let mut seen_lens = std::collections::BTreeSet::new();
        for cut in 0..bytes.len() {
            let (records, complete) = read(&bytes[..cut]);
            assert_eq!(complete, cut == 0, "cut at {cut}");
            assert!(records.len() <= full.len());
            assert_eq!(records[..], full[..records.len()], "prefix at {cut}");
            seen_lens.insert(records.len());
        }
        assert!(seen_lens.contains(&0));
        assert!(seen_lens.contains(&(full.len() - 1)));
    }

    #[test]
    fn corrupt_byte_in_tail_is_torn() {
        let mut bytes = encode(&sample_records());
        let n = bytes.len();
        bytes[n - 20] ^= 0xff;
        let (records, complete) = read(&bytes);
        assert!(!complete);
        assert!(records.len() < sample_records().len());
    }

    #[test]
    fn retired_truncate_tag_ends_the_valid_prefix_like_any_unknown_tag() {
        // Tag 6 was `Truncate`, a record no writer ever emitted, and tag 9
        // the `End` seal of the store's own journal file. Each follows a
        // closed batch here, so the tear is the frame's alone.
        let records = sample_records();
        let mut truncate = Vec::new();
        push_u64(&mut truncate, 1);
        push_u64(&mut truncate, 0);
        for (tag, payload) in [(6, truncate), (9, Vec::new())] {
            let mut bytes = encode(&records[6..7]);
            append_frame(&mut bytes, tag, &payload);
            append_record(&mut bytes, &records[1]);
            let (read, complete) = read(&bytes);
            assert_eq!(read, records[6..7], "tag {tag}");
            assert!(!complete, "tag {tag}");
        }
    }

    #[test]
    fn empty_journal_is_complete() {
        let (records, complete) = read(&[]);
        assert!(records.is_empty());
        assert!(complete);
    }

    /// The format changes only on purpose: length and FNV-1a of this record
    /// list's encoding. The store's own journal file (version 2, 258 bytes,
    /// FNV-1a `0x5ff8_9503`) had a 44-byte `SYMJ` header carrying the
    /// geometry and the id and clock marks; the records now travel as
    /// frames of the kernel log, so the header is gone and those four
    /// fields close every batch in its `PoolState`, 32 bytes more: 246.
    /// Every other record keeps its bytes.
    #[test]
    fn on_disk_format_is_pinned() {
        let bytes = encode(&sample_records());
        assert_eq!(
            (bytes.len(), symphony_sim::frame::fnv1a(&bytes)),
            (246, 0x1a3e_c6e5)
        );
    }
}
