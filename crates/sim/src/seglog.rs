//! The segment log: the one on-disk shape of every durable file.
//!
//! A log file is a checksummed header followed by [`crate::frame`] frames.
//! The KVFS journal (`SYMJ`) and the kernel write-ahead log (`SYMW`) are
//! two *clients*: each brings a [`Head`], a tag space and a payload
//! decoder. Everything about the file itself is here and nowhere else: the
//! header ([`encode_head`], [`parse_head`]), the torn-tail rule ([`scan`]),
//! the pending buffer and the ways a file is cut back or replaced
//! ([`SegLog`]). docs/RESILIENCE.md, "Log file format", is the prose.
//!
//! Nothing here calls `fsync`: "durable" means handed to `write(2)`, which
//! survives a process crash, not a power cut. This is the place to change
//! that.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::frame::{append_frame, fnv1a, next_frame, push_u32, push_u64, Cursor};

/// A client's file header: what must match before a byte of the body is
/// trusted. `N` is the number of `u64` fields the client stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head<const N: usize> {
    /// File magic.
    pub magic: [u8; 4],
    /// Format version; a reader accepts exactly its own.
    pub version: u32,
}

impl<const N: usize> Head<N> {
    /// Encoded header length in bytes.
    pub const LEN: usize = 4 + 4 + 8 * N + 4;
}

/// Why a header was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadError {
    /// Too short, or its checksum does not match: nothing to read.
    Torn,
    /// Another magic or version: a different file, or another build's.
    Incompatible,
}

/// Encodes a header carrying `fields`:
/// `[magic 4][version u32][field u64]*N[crc u32]`, little-endian, the CRC
/// an FNV-1a over everything before it.
pub fn encode_head<const N: usize>(head: &Head<N>, fields: [u64; N]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(Head::<N>::LEN);
    buf.extend_from_slice(&head.magic);
    push_u32(&mut buf, head.version);
    for f in fields {
        push_u64(&mut buf, f);
    }
    let crc = fnv1a(&buf);
    push_u32(&mut buf, crc);
    buf
}

/// Checks a file's header against `head`; returns its fields and the body
/// (every byte after the header).
pub fn parse_head<'a, const N: usize>(
    head: &Head<N>,
    bytes: &'a [u8],
) -> Result<([u64; N], &'a [u8]), HeadError> {
    let (raw, body) = bytes
        .split_at_checked(Head::<N>::LEN)
        .ok_or(HeadError::Torn)?;
    let (covered, crc) = raw.split_at(Head::<N>::LEN - 4);
    if covered[..4] != head.magic || covered[4..8] != head.version.to_le_bytes() {
        return Err(HeadError::Incompatible);
    }
    if crc != fnv1a(covered).to_le_bytes() {
        return Err(HeadError::Torn);
    }
    // `covered[8..]` is exactly `N` fields long.
    let mut c = Cursor::new(&covered[8..]);
    Ok((std::array::from_fn(|_| c.u64().unwrap_or(0)), body))
}

/// Walks the frames of a log body, decoding each with the client's
/// `decode(tag, payload)`. **The torn-tail rule:** a short frame, a bad
/// CRC, or a payload the decoder rejects ends the valid prefix; the bytes
/// after it are dropped, never interpreted. Returns the prefix's records,
/// its length in bytes, and whether anything was dropped — a cut exactly
/// between frames drops nothing and is not torn.
pub fn scan<R>(
    body: &[u8],
    mut decode: impl FnMut(u8, &[u8]) -> Option<R>,
) -> (Vec<R>, usize, bool) {
    let mut c = Cursor::new(body);
    let mut records = Vec::new();
    let mut valid_len = 0;
    while let Some(rec) = next_frame(&mut c).and_then(|(tag, payload)| decode(tag, payload)) {
        records.push(rec);
        valid_len = c.pos();
    }
    (records, valid_len, valid_len != body.len())
}

/// Counts the valid frames of a whole log file per name. `name_of` is the
/// client's decoder reduced to a label; `None` ends the counted prefix
/// like any other tear.
pub fn tag_counts<const N: usize>(
    bytes: &[u8],
    head: &Head<N>,
    name_of: impl FnMut(u8, &[u8]) -> Option<&'static str>,
) -> Result<BTreeMap<&'static str, u64>, HeadError> {
    let (_, body) = parse_head(head, bytes)?;
    let mut counts = BTreeMap::new();
    for name in scan(body, name_of).0 {
        *counts.entry(name).or_insert(0) += 1;
    }
    Ok(counts)
}

/// An open log file: what is on disk, and frames pushed but not yet
/// written. The file is opened once and the write position stays at its
/// end.
#[derive(Debug)]
pub struct SegLog {
    path: PathBuf,
    file: File,
    /// Bytes handed to `write(2)`: the file's length.
    len: u64,
    /// Frames pushed and not yet flushed.
    pending: Vec<u8>,
    pending_frames: u64,
}

impl SegLog {
    /// Puts a log holding exactly `bytes` — a header, or a whole encoded
    /// log — at `path` and opens it. Any file already there is replaced
    /// atomically: `bytes` go to a sibling temp file that is then renamed
    /// over `path`, so a crash leaves the old file or the new one, never a
    /// mixture.
    pub fn create(path: &Path, bytes: &[u8]) -> io::Result<SegLog> {
        let file = write_sibling(path, bytes)?;
        std::fs::rename(sibling(path), path)?;
        Ok(SegLog::over(path, file, bytes.len() as u64))
    }

    /// Opens the existing log at `path` for appending. The caller decides
    /// how much of it is valid ([`scan`]) and cuts the rest off with
    /// [`SegLog::truncate_to`].
    pub fn open(path: &Path) -> io::Result<SegLog> {
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(SegLog::over(path, file, len))
    }

    fn over(path: &Path, file: File, len: u64) -> SegLog {
        SegLog {
            path: path.to_path_buf(),
            file,
            len,
            pending: Vec::new(),
            pending_frames: 0,
        }
    }

    /// Buffers one frame; nothing reaches the file before
    /// [`SegLog::flush`].
    pub fn push(&mut self, tag: u8, payload: &[u8]) {
        append_frame(&mut self.pending, tag, payload);
        self.pending_frames += 1;
    }

    /// Writes the buffered frames to the file, in push order.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.write_all(&self.pending)?;
        self.len += self.pending.len() as u64;
        self.drop_pending();
        Ok(())
    }

    /// Writes one frame to the file now, ahead of anything buffered: for a
    /// record that must be on disk before its effect is observable while
    /// cheaper ones wait for the next flush.
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        // The frame is staged past the buffered ones and taken off again.
        let buffered = self.pending.len();
        append_frame(&mut self.pending, tag, payload);
        let written = self.file.write_all(&self.pending[buffered..]);
        let frame_len = self.pending.len() - buffered;
        self.pending.truncate(buffered);
        written?;
        self.len += frame_len as u64;
        Ok(())
    }

    /// Forgets the buffered frames — what a crash does to them.
    pub fn drop_pending(&mut self) {
        self.pending.clear();
        self.pending_frames = 0;
    }

    /// Cuts the file back to its first `len` bytes; later writes land
    /// there. Buffered frames are untouched.
    pub fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.len = len;
        Ok(())
    }

    /// Rewrites the log as exactly `bytes`, atomically like
    /// [`SegLog::create`]. Buffered frames are dropped: `bytes` must
    /// already say what they said.
    pub fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        *self = SegLog::create(&self.path, bytes)?;
        Ok(())
    }

    /// Fault-injection twin of [`SegLog::create`] and [`SegLog::replace`]:
    /// writes the sibling temp file and "crashes" before the rename, so
    /// the log at `path` is untouched. Chaos tests use it to show that a
    /// crash mid-replace cannot lose the old file.
    #[doc(hidden)]
    pub fn replace_crash_before_rename(path: &Path, bytes: &[u8]) -> io::Result<()> {
        write_sibling(path, bytes).map(drop)
    }

    /// Bytes in the file.
    pub fn disk_len(&self) -> u64 {
        self.len
    }

    /// Bytes buffered and not yet written.
    pub fn pending_len(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Frames buffered and not yet written.
    pub fn pending_frames(&self) -> u64 {
        self.pending_frames
    }
}

/// The temp file a replacement is staged in: `<name>.tmp` beside `path`.
fn sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn write_sibling(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let mut file = File::create(sibling(path))?;
    file.write_all(bytes)?;
    Ok(file)
}
