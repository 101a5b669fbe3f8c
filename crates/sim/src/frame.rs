//! The shared frame codec: `[tag u8][len u32][payload][crc u32]`.
//!
//! One framing discipline runs through every byte stream in Symphony — the
//! KVFS journal (`SYMJ`), the kernel write-ahead log (`SYMW`) and the RPC
//! wire protocol (`SYMR`) all append and walk frames through this module,
//! so the checksum, the length prefix and the torn-tail rules can never
//! drift apart between them. Each consumer brings its own magic header and
//! tag space; the codec is agnostic to both.
//!
//! * the CRC is FNV-1a (32-bit) over tag + payload;
//! * all integers are little-endian;
//! * a *torn* tail is any trailing byte run that does not form a complete,
//!   checksummed frame — readers keep the longest valid prefix;
//! * a clean cut at a frame boundary is indistinguishable from a finished
//!   log, and is deliberately *not* reported as torn.

/// 32-bit FNV-1a over `bytes` (offset basis `0x811c9dc5`, prime
/// `0x01000193`). Not cryptographic: it detects torn and bit-flipped
/// frames, not an adversary.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_fold(0x811c_9dc5, bytes)
}

/// Continues an FNV-1a hash over `bytes` from the running value `hash`.
fn fnv1a_fold(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Per-frame overhead in bytes: tag (1) + length (4) + CRC (4).
pub const FRAME_OVERHEAD: usize = 9;

/// Appends one raw frame — `[tag u8][len u32][payload][crc u32]`, CRC over
/// tag + payload — to `out`.
pub fn append_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    push_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    push_u32(out, frame_crc(tag, payload));
}

/// The CRC a valid frame with this tag and payload must carry.
pub fn frame_crc(tag: u8, payload: &[u8]) -> u32 {
    fnv1a_fold(fnv1a(&[tag]), payload)
}

/// Walks raw frames from the start of `bytes`, returning the longest valid
/// `(tag, payload)` prefix and whether a torn tail followed it (leftover
/// bytes that do not form a complete, checksummed frame). There is no
/// header and no terminator at this layer: an append-only log that is
/// still being written is simply "torn" at its live tail.
pub fn read_frames(bytes: &[u8]) -> (Vec<(u8, Vec<u8>)>, bool) {
    let (frames, _, torn) =
        crate::seglog::scan(bytes, |tag, payload| Some((tag, payload.to_vec())));
    (frames, torn)
}

/// Reads one `[tag][len][payload][crc]` frame, verifying the checksum.
/// `None` on a short or corrupt frame (the cursor may be mid-frame).
pub fn next_frame<'a>(c: &mut Cursor<'a>) -> Option<(u8, &'a [u8])> {
    let tag = c.u8()?;
    let len = c.u32()?;
    let payload = c.take(len as usize)?;
    let stored = c.u32()?;
    (stored == frame_crc(tag, payload)).then_some((tag, payload))
}

/// Appends a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` byte length followed by the UTF-8 bytes.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a presence byte followed by the value (0 when absent).
pub fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(u8::from(v.is_some()));
    push_u64(out, v.unwrap_or(0));
}

/// Sequential byte reader returning `None` past the end (a torn frame).
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Current read offset from the start of the underlying slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap_or([0; 4])))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
    }

    /// Reads a length-prefixed UTF-8 string (see [`push_str`]).
    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Reads a presence-byte-prefixed `u64` (see [`push_opt_u64`]).
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        let has = self.u8()? != 0;
        let v = self.u64()?;
        Some(has.then_some(v))
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_frames() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 7, b"hello");
        append_frame(&mut buf, 9, b"");
        let (frames, torn) = read_frames(&buf);
        assert!(!torn);
        assert_eq!(frames, vec![(7, b"hello".to_vec()), (9, Vec::new())]);
    }

    #[test]
    fn truncation_at_every_byte_keeps_valid_prefix() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 1, b"abc");
        append_frame(&mut buf, 2, b"defg");
        let first_len = FRAME_OVERHEAD + 3;
        for cut in 0..=buf.len() {
            let (frames, torn) = read_frames(&buf[..cut]);
            if cut < first_len {
                assert!(frames.is_empty());
                assert_eq!(torn, cut != 0, "cut={cut}");
            } else if cut < buf.len() {
                assert_eq!(frames.len(), 1, "cut={cut}");
                assert_eq!(torn, cut != first_len, "cut={cut}");
            } else {
                assert_eq!(frames.len(), 2);
                assert!(!torn);
            }
        }
    }

    #[test]
    fn corrupt_crc_truncates_frame_stream() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 1, b"abc");
        append_frame(&mut buf, 2, b"def");
        let flip = FRAME_OVERHEAD + 3 + 2; // inside the second frame's header
        buf[flip] ^= 0xff;
        let (frames, torn) = read_frames(&buf);
        assert_eq!(frames.len(), 1);
        assert!(torn);
    }

    #[test]
    fn scalar_helpers_round_trip() {
        let mut buf = Vec::new();
        push_u32(&mut buf, 0xdead_beef);
        push_u64(&mut buf, u64::MAX - 1);
        push_str(&mut buf, "héllo");
        push_opt_u64(&mut buf, Some(42));
        push_opt_u64(&mut buf, None);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32(), Some(0xdead_beef));
        assert_eq!(c.u64(), Some(u64::MAX - 1));
        assert_eq!(c.str().as_deref(), Some("héllo"));
        assert_eq!(c.opt_u64(), Some(Some(42)));
        assert_eq!(c.opt_u64(), Some(None));
        assert!(c.done());
    }

    #[test]
    fn frame_crc_is_fnv1a_over_tag_then_payload() {
        // Pinned: every SYMJ/SYMW log on disk and every SYMR frame on the
        // wire carries these checksums.
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(frame_crc(7, b"hello"), 0xea7b_9d96);
        assert_eq!(frame_crc(39, b""), 0x220c_8ac6);
        assert_eq!(frame_crc(255, &ramp), 0xbfce_984e);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
    }
}
