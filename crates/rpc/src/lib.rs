//! SYMR — the Symphony wire protocol.
//!
//! The paper's thesis is "serve programs, not prompts": a client hands the
//! server an *LLM Inference Program* and the server streams its output
//! back. This crate is the wire format of that hand-off, shared by the
//! `symphony-serve` front door and the `symphony-client` load generator —
//! and small enough that a third party can implement a compatible client
//! from `docs/SERVING.md` alone (the document is normative; this crate is
//! the reference implementation).
//!
//! Framing reuses the workspace-wide `[tag u8][len u32][payload][crc u32]`
//! discipline from [`symphony_sim::frame`] — the same bytes-on-disk rules
//! as the kernel WAL (`SYMW`), which carries the KV store's batches too,
//! proven by its torn-tail chaos suites. On a stream transport there is
//! no "torn tail", only frames that have not finished arriving;
//! [`FrameReader`] separates that (wait for more bytes) from corruption
//! (typed [`WireError`], connection must die). It reads a frame where it
//! lies, in the transport's bytes: only a frame split across two reads is
//! ever copied, and a reader keeps nothing once it has drained.
//!
//! Inside a payload (version 2), every integer and every string's length
//! is an unsigned LEB128 varint, so a per-token STREAM frame is about 23
//! bytes rather than 42. HELLO and HELLO_OK keep their version-1 layout —
//! fixed-width little-endian — so that a peer of any version can still be
//! told which version the other speaks. Messages are written straight
//! into the caller's buffer ([`symphony_sim::frame::append_frame_with`]),
//! with no payload buffer of their own.
//!
//! Everything here is pure data-in/data-out: no sockets, no clocks, no
//! allocator tricks — which is what lets the protocol round-trip under
//! property tests and keeps the serving loop deterministic.

use std::ops::ControlFlow;

use symphony_sim::frame::{
    self, append_frame_with, push_str, push_u32, push_u64, push_varint, Cursor, FRAME_OVERHEAD,
};

/// Protocol magic, carried in the HELLO payload (not a stream preamble:
/// byte 0 of a connection is already a frame tag).
pub const WIRE_MAGIC: [u8; 4] = *b"SYMR";

/// Current protocol version. A server refuses other versions with
/// [`ErrCode::BadVersion`]; the rules for compatible evolution are in
/// docs/SERVING.md §Versioning.
pub const WIRE_VERSION: u32 = 2;

/// Default cap on a single frame's payload length. Submissions larger
/// than this are refused with [`ErrCode::FrameTooLarge`] before any
/// allocation of the payload happens.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Bytes a transport reads from its socket at a time (the TCP shell's
/// read buffer). A [`FrameReader`] reads the frames in such a read where
/// they lie: it copies only a frame split across two reads, and keeps no
/// buffer at all once it has drained.
pub const READ_SIZE: usize = 16 * 1024;

/// Session id `0` is reserved: in an [`ServerMsg::Error`] it marks a
/// connection-scope error. Clients allocate ids starting at 1.
pub const CONN_SCOPE: u64 = 0;

// ---- opcodes ---------------------------------------------------------------

/// Client→server opcodes (frame tags). Server→client tags have the high
/// bit set, so a direction mix-up is caught at decode time.
pub mod op {
    /// First frame on every connection: magic, version, tenant.
    pub const HELLO: u8 = 0x01;
    /// Submit a LipScript program under a client-chosen session id.
    pub const SUBMIT: u8 = 0x02;
    /// Cancel a running session.
    pub const CANCEL: u8 = 0x03;
    /// Liveness/RTT probe.
    pub const PING: u8 = 0x04;
    /// Clean shutdown: no more submissions follow.
    pub const BYE: u8 = 0x05;
    /// Hello accepted; server is ready for submissions.
    pub const HELLO_OK: u8 = 0x81;
    /// Submission accepted and spawned as a kernel process.
    pub const ACCEPTED: u8 = 0x82;
    /// One incremental chunk of a session's streamed output.
    pub const STREAM: u8 = 0x83;
    /// Session finished; final status and usage.
    pub const DONE: u8 = 0x84;
    /// Typed error, session- or connection-scoped.
    pub const ERROR: u8 = 0x85;
    /// Reply to PING, echoing its nonce.
    pub const PONG: u8 = 0x86;
    /// Reply to BYE; the server closes after sending it.
    pub const BYE_OK: u8 = 0x87;
}

// ---- typed errors ----------------------------------------------------------

/// Typed error codes carried by [`ServerMsg::Error`] frames. Codes are
/// stable wire values: new codes may be appended, existing ones never
/// renumbered (docs/SERVING.md §Error codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrCode {
    /// HELLO payload did not start with `SYMR`.
    BadMagic,
    /// HELLO carried an unsupported protocol version.
    BadVersion,
    /// A frame failed its checksum or its payload did not decode.
    BadFrame,
    /// Unknown opcode for this direction.
    UnknownOpcode,
    /// Frame length exceeded the server's cap.
    FrameTooLarge,
    /// The first frame on the connection was not HELLO.
    NotHello,
    /// SUBMIT reused a session id that is still live on this connection.
    DuplicateSession,
    /// CANCEL named a session this connection does not own.
    NoSuchSession,
    /// The tenant is at its concurrent-session quota; submission shed.
    QuotaExceeded,
    /// The server is at its global session cap; submission shed.
    ServerBusy,
    /// Program source exceeded the server's size limit.
    SourceTooLarge,
    /// The program was rejected before it ran (e.g. reserved session id).
    ProgramRejected,
    /// The session was cancelled (by request or connection teardown).
    Cancelled,
    /// The client did not drain its stream; the server shed the
    /// connection's sessions to bound its buffers.
    SlowClient,
    /// Server-side invariant failure.
    Internal,
    /// The program parsed but failed admission-time static verification;
    /// the detail string carries the first diagnostic as
    /// `name:line:col: message`.
    VerifyRejected,
}

impl ErrCode {
    /// Stable wire value.
    pub fn code(self) -> u16 {
        match self {
            ErrCode::BadMagic => 1,
            ErrCode::BadVersion => 2,
            ErrCode::BadFrame => 3,
            ErrCode::UnknownOpcode => 4,
            ErrCode::FrameTooLarge => 5,
            ErrCode::NotHello => 6,
            ErrCode::DuplicateSession => 7,
            ErrCode::NoSuchSession => 8,
            ErrCode::QuotaExceeded => 9,
            ErrCode::ServerBusy => 10,
            ErrCode::SourceTooLarge => 11,
            ErrCode::ProgramRejected => 12,
            ErrCode::Cancelled => 13,
            ErrCode::SlowClient => 14,
            ErrCode::Internal => 15,
            ErrCode::VerifyRejected => 16,
        }
    }

    /// Parses a wire value back to the code, `None` for unknown values
    /// (a newer peer; treat as fatal but unrenderable).
    pub fn from_code(v: u16) -> Option<ErrCode> {
        Some(match v {
            1 => ErrCode::BadMagic,
            2 => ErrCode::BadVersion,
            3 => ErrCode::BadFrame,
            4 => ErrCode::UnknownOpcode,
            5 => ErrCode::FrameTooLarge,
            6 => ErrCode::NotHello,
            7 => ErrCode::DuplicateSession,
            8 => ErrCode::NoSuchSession,
            9 => ErrCode::QuotaExceeded,
            10 => ErrCode::ServerBusy,
            11 => ErrCode::SourceTooLarge,
            12 => ErrCode::ProgramRejected,
            13 => ErrCode::Cancelled,
            14 => ErrCode::SlowClient,
            15 => ErrCode::Internal,
            16 => ErrCode::VerifyRejected,
            _ => return None,
        })
    }

    /// Whether this error tears down the whole connection (true) or only
    /// the named session (false).
    // lint:allow(u1): the wire contract for clients (the "fatal" column of docs/SERVING.md's error table)
    pub fn is_conn_fatal(self) -> bool {
        matches!(
            self,
            ErrCode::BadMagic
                | ErrCode::BadVersion
                | ErrCode::BadFrame
                | ErrCode::UnknownOpcode
                | ErrCode::FrameTooLarge
                | ErrCode::NotHello
                | ErrCode::SlowClient
        )
    }
}

impl core::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ErrCode::BadMagic => "bad magic",
            ErrCode::BadVersion => "unsupported protocol version",
            ErrCode::BadFrame => "malformed frame",
            ErrCode::UnknownOpcode => "unknown opcode",
            ErrCode::FrameTooLarge => "frame too large",
            ErrCode::NotHello => "first frame must be HELLO",
            ErrCode::DuplicateSession => "session id already live",
            ErrCode::NoSuchSession => "no such session",
            ErrCode::QuotaExceeded => "tenant quota exceeded",
            ErrCode::ServerBusy => "server at session capacity",
            ErrCode::SourceTooLarge => "program source too large",
            ErrCode::ProgramRejected => "program rejected",
            ErrCode::Cancelled => "session cancelled",
            ErrCode::SlowClient => "client not draining stream",
            ErrCode::Internal => "internal server error",
            ErrCode::VerifyRejected => "program failed verification",
        };
        f.write_str(s)
    }
}

/// How a session finished, as carried by [`ServerMsg::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Program returned cleanly.
    Ok,
    /// Program returned a typed error (detail string holds it).
    Error,
    /// Program crashed (panicked) inside the kernel sandbox.
    Crashed,
    /// Session was cancelled before the program finished.
    Cancelled,
}

impl SessionStatus {
    /// Stable wire value.
    pub fn code(self) -> u8 {
        match self {
            SessionStatus::Ok => 0,
            SessionStatus::Error => 1,
            SessionStatus::Crashed => 2,
            SessionStatus::Cancelled => 3,
        }
    }

    /// Parses a wire value.
    pub fn from_code(v: u8) -> Option<SessionStatus> {
        Some(match v {
            0 => SessionStatus::Ok,
            1 => SessionStatus::Error,
            2 => SessionStatus::Crashed,
            3 => SessionStatus::Cancelled,
            _ => return None,
        })
    }
}

// ---- messages --------------------------------------------------------------

/// Client→server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Connection opener: protocol magic + version + tenant identity.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
        /// Tenant id for admission/quota at the door.
        tenant: u64,
    },
    /// Submit a LipScript program as a new session.
    Submit {
        /// Client-chosen session id, unique among this connection's live
        /// sessions; must not be [`CONN_SCOPE`].
        session: u64,
        /// Virtual arrival time floor in nanoseconds: the server spawns
        /// the program no earlier than this instant on its virtual clock.
        /// `0` means "now". Lets a load generator replay traces with
        /// simulated client RTT deterministically.
        not_before_ns: u64,
        /// Interpreter fuel budget, `0` for the server default.
        fuel: u64,
        /// Program name (telemetry/track label).
        name: String,
        /// Argument string passed to the program (`args()` builtin).
        args: String,
        /// LipScript source text.
        source: String,
    },
    /// Cancel a live session.
    Cancel {
        /// Session to cancel.
        session: u64,
    },
    /// Liveness probe; server echoes the nonce in a PONG.
    Ping {
        /// Opaque echo value.
        nonce: u64,
    },
    /// Clean shutdown request.
    Bye,
}

/// Server→client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// HELLO accepted.
    HelloOk {
        /// Version the server speaks (today: always [`WIRE_VERSION`]).
        version: u32,
        /// Server identity string, for operators.
        server: String,
    },
    /// SUBMIT accepted; the program is spawned as kernel process `pid`.
    Accepted {
        /// Echoed session id.
        session: u64,
        /// Kernel pid executing the program.
        pid: u64,
    },
    /// One streamed output chunk from `emit`/`emit_tokens`.
    Stream {
        /// Owning session.
        session: u64,
        /// Virtual time of the emission on the server clock (ns).
        at_ns: u64,
        /// Token count of the chunk (0 for plain-text emits).
        tokens: u64,
        /// The chunk text.
        text: String,
    },
    /// Session finished.
    Done {
        /// Owning session.
        session: u64,
        /// Virtual completion time on the server clock (ns).
        at_ns: u64,
        /// Outcome class.
        status: SessionStatus,
        /// Human-readable detail (the typed `SysError` display for
        /// `Error`, empty otherwise).
        detail: String,
        /// Tokens the program emitted.
        emitted_tokens: u64,
        /// Tokens the program ran through `pred`.
        pred_tokens: u64,
    },
    /// Typed error. `session == CONN_SCOPE` marks a connection-scope
    /// error; [`ErrCode::is_conn_fatal`] says whether the connection dies.
    Error {
        /// Session scope, or [`CONN_SCOPE`].
        session: u64,
        /// Typed code.
        code: ErrCode,
        /// Human-readable detail.
        detail: String,
    },
    /// PING reply.
    Pong {
        /// Echoed nonce.
        nonce: u64,
    },
    /// BYE reply; the server closes the connection after sending it.
    ByeOk,
}

impl ClientMsg {
    /// Appends this message as one SYMR frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        append_frame_with(out, self.tag(), |p| match self {
            // HELLO keeps its version-1 layout, so that a server of any
            // version can read the version it has to refuse.
            ClientMsg::Hello { version, tenant } => {
                p.extend_from_slice(&WIRE_MAGIC);
                push_u32(p, *version);
                push_u64(p, *tenant);
            }
            ClientMsg::Submit {
                session,
                not_before_ns,
                fuel,
                name,
                args,
                source,
            } => {
                push_varint(p, *session);
                push_varint(p, *not_before_ns);
                push_varint(p, *fuel);
                push_text(p, name);
                push_text(p, args);
                push_text(p, source);
            }
            ClientMsg::Cancel { session } => push_varint(p, *session),
            ClientMsg::Ping { nonce } => push_varint(p, *nonce),
            ClientMsg::Bye => {}
        });
    }

    fn tag(&self) -> u8 {
        match self {
            ClientMsg::Hello { .. } => op::HELLO,
            ClientMsg::Submit { .. } => op::SUBMIT,
            ClientMsg::Cancel { .. } => op::CANCEL,
            ClientMsg::Ping { .. } => op::PING,
            ClientMsg::Bye => op::BYE,
        }
    }

    /// Decodes a client frame. [`ErrCode::UnknownOpcode`] for server-side
    /// tags, [`ErrCode::BadFrame`] for a payload that does not parse
    /// exactly (trailing bytes included).
    pub fn decode(tag: u8, payload: &[u8]) -> Result<ClientMsg, ErrCode> {
        let mut f = Fields(Cursor::new(payload));
        let msg = match tag {
            op::HELLO => {
                let magic = f.0.take(4).ok_or(ErrCode::BadFrame)?;
                if magic != WIRE_MAGIC {
                    return Err(ErrCode::BadMagic);
                }
                ClientMsg::Hello {
                    version: f.0.u32().ok_or(ErrCode::BadFrame)?,
                    tenant: f.0.u64().ok_or(ErrCode::BadFrame)?,
                }
            }
            op::SUBMIT => ClientMsg::Submit {
                session: f.uint()?,
                not_before_ns: f.uint()?,
                fuel: f.uint()?,
                name: f.text()?,
                args: f.text()?,
                source: f.text()?,
            },
            op::CANCEL => ClientMsg::Cancel { session: f.uint()? },
            op::PING => ClientMsg::Ping { nonce: f.uint()? },
            op::BYE => ClientMsg::Bye,
            _ => return Err(ErrCode::UnknownOpcode),
        };
        f.end(msg)
    }
}

impl ServerMsg {
    /// Appends this message as one SYMR frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        append_frame_with(out, self.tag(), |p| match self {
            // HELLO_OK keeps its version-1 layout, like HELLO.
            ServerMsg::HelloOk { version, server } => {
                push_u32(p, *version);
                push_str(p, server);
            }
            ServerMsg::Accepted { session, pid } => {
                push_varint(p, *session);
                push_varint(p, *pid);
            }
            ServerMsg::Stream {
                session,
                at_ns,
                tokens,
                text,
            } => {
                push_varint(p, *session);
                push_varint(p, *at_ns);
                push_varint(p, *tokens);
                push_text(p, text);
            }
            ServerMsg::Done {
                session,
                at_ns,
                status,
                detail,
                emitted_tokens,
                pred_tokens,
            } => {
                push_varint(p, *session);
                push_varint(p, *at_ns);
                push_varint(p, u64::from(status.code()));
                push_text(p, detail);
                push_varint(p, *emitted_tokens);
                push_varint(p, *pred_tokens);
            }
            ServerMsg::Error {
                session,
                code,
                detail,
            } => {
                push_varint(p, *session);
                push_varint(p, u64::from(code.code()));
                push_text(p, detail);
            }
            ServerMsg::Pong { nonce } => push_varint(p, *nonce),
            ServerMsg::ByeOk => {}
        });
    }

    fn tag(&self) -> u8 {
        match self {
            ServerMsg::HelloOk { .. } => op::HELLO_OK,
            ServerMsg::Accepted { .. } => op::ACCEPTED,
            ServerMsg::Stream { .. } => op::STREAM,
            ServerMsg::Done { .. } => op::DONE,
            ServerMsg::Error { .. } => op::ERROR,
            ServerMsg::Pong { .. } => op::PONG,
            ServerMsg::ByeOk => op::BYE_OK,
        }
    }

    /// Decodes a server frame (client side).
    pub fn decode(tag: u8, payload: &[u8]) -> Result<ServerMsg, ErrCode> {
        let mut f = Fields(Cursor::new(payload));
        let msg = match tag {
            op::HELLO_OK => ServerMsg::HelloOk {
                version: f.0.u32().ok_or(ErrCode::BadFrame)?,
                server: f.0.str().ok_or(ErrCode::BadFrame)?,
            },
            op::ACCEPTED => ServerMsg::Accepted {
                session: f.uint()?,
                pid: f.uint()?,
            },
            op::STREAM => ServerMsg::Stream {
                session: f.uint()?,
                at_ns: f.uint()?,
                tokens: f.uint()?,
                text: f.text()?,
            },
            op::DONE => ServerMsg::Done {
                session: f.uint()?,
                at_ns: f.uint()?,
                status: u8::try_from(f.uint()?)
                    .ok()
                    .and_then(SessionStatus::from_code)
                    .ok_or(ErrCode::BadFrame)?,
                detail: f.text()?,
                emitted_tokens: f.uint()?,
                pred_tokens: f.uint()?,
            },
            op::ERROR => ServerMsg::Error {
                session: f.uint()?,
                code: u16::try_from(f.uint()?)
                    .ok()
                    .and_then(ErrCode::from_code)
                    .ok_or(ErrCode::BadFrame)?,
                detail: f.text()?,
            },
            op::PONG => ServerMsg::Pong { nonce: f.uint()? },
            op::BYE_OK => ServerMsg::ByeOk,
            _ => return Err(ErrCode::UnknownOpcode),
        };
        f.end(msg)
    }
}

/// Appends a string as its varint byte length and its UTF-8 bytes.
fn push_text(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A payload being decoded, where every field that does not fit is
/// [`ErrCode::BadFrame`]. A string allocates only once its length is known
/// to fit in what is left of the payload.
struct Fields<'a>(Cursor<'a>);

impl Fields<'_> {
    /// A varint integer.
    fn uint(&mut self) -> Result<u64, ErrCode> {
        self.0.varint().ok_or(ErrCode::BadFrame)
    }

    /// A varint byte length and that many bytes of UTF-8.
    fn text(&mut self) -> Result<String, ErrCode> {
        let len = usize::try_from(self.uint()?).map_err(|_| ErrCode::BadFrame)?;
        let bytes = self.0.take(len).ok_or(ErrCode::BadFrame)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| ErrCode::BadFrame)
    }

    /// `msg`, if the payload held nothing after it.
    fn end<M>(&self, msg: M) -> Result<M, ErrCode> {
        if self.0.done() {
            Ok(msg)
        } else {
            Err(ErrCode::BadFrame)
        }
    }
}

// ---- incremental frame reader ----------------------------------------------

/// A fatal stream-decode failure. Unlike the on-disk journals, a live
/// stream never "truncates and continues": a failed checksum means the
/// two ends have lost framing and the connection must die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A frame announced a payload longer than the configured cap. Caught
    /// from the 5 header bytes, before buffering the payload.
    TooLarge {
        /// Announced payload length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
    /// A complete frame arrived with a bad checksum.
    Corrupt,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::TooLarge { len, max } => {
                write!(f, "frame payload {len} bytes exceeds cap {max}")
            }
            WireError::Corrupt => write!(f, "frame checksum mismatch"),
        }
    }
}

impl WireError {
    /// The typed error code a server reports for this failure.
    pub fn err_code(self) -> ErrCode {
        match self {
            WireError::TooLarge { .. } => ErrCode::FrameTooLarge,
            WireError::Corrupt => ErrCode::BadFrame,
        }
    }
}

/// Incremental frame decoder for a byte stream: a frame is read where it
/// lies. [`FrameReader::read`] takes whatever a transport read and hands
/// out every complete frame in it as a slice of those bytes. Only a frame
/// split across two reads is copied: once its header is in and under the
/// cap, the reader gathers the frame in a buffer that grows with the bytes
/// that arrive, at most one [`READ_SIZE`] ahead of them (a frame that
/// small is reserved whole), and frees that buffer as soon as the frame
/// is handed out. A peer that sends a header announcing a large frame and
/// stalls has the reader hold no more than a read's worth. So a
/// reader that has drained holds no buffer at all, however large the
/// frames it has read, and whole frames cost it no allocation.
///
/// Short input is "not yet", never an error; a completed frame with a bad
/// CRC (or an oversized length prefix, caught from the 5 header bytes) is
/// a [`WireError`] and the reader is poisoned.
///
/// [`FrameReader::feed`] and [`FrameReader::next_frame`] are a forward
/// for callers that pop one owned frame at a time; they read through the
/// same path and free what they were fed once they have handed it out.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The frame split across reads: what has arrived of it, header first.
    /// Empty, with no capacity, between frames.
    split: Vec<u8>,
    /// What [`FrameReader::feed`] was given that [`FrameReader::next_frame`]
    /// has not read yet, from `pos` on. Empty, with no capacity, once read.
    fed: Vec<u8>,
    pos: usize,
    max_frame: u32,
    poisoned: bool,
}

/// A frame's tag and length prefix.
const HEADER: usize = 5;

/// The whole size of the frame at the front of `avail`, once its header is
/// in; [`WireError::TooLarge`] if it announces more than `max` payload bytes.
fn frame_size(avail: &[u8], max: u32) -> Result<Option<usize>, WireError> {
    match frame::announced_len(avail) {
        Some(len) if len > max => Err(WireError::TooLarge { len, max }),
        Some(len) => Ok(Some(FRAME_OVERHEAD + len as usize)),
        None => Ok(None),
    }
}

/// The tag and payload of `whole`, one complete frame, if its checksum holds.
fn check(whole: &[u8]) -> Result<(u8, &[u8]), WireError> {
    frame::next_frame(&mut Cursor::new(whole)).ok_or(WireError::Corrupt)
}

impl FrameReader {
    /// A reader with the [`DEFAULT_MAX_FRAME`] payload cap.
    pub fn new() -> Self {
        Self::with_max_frame(DEFAULT_MAX_FRAME)
    }

    /// A reader with an explicit payload cap.
    pub fn with_max_frame(max_frame: u32) -> Self {
        FrameReader {
            max_frame,
            ..Default::default()
        }
    }

    /// Reads `bytes`, the next bytes of the stream, and calls `f` with the
    /// tag and payload of every frame they complete, in order: a frame
    /// split across reads from the reader's buffer, every other one as a
    /// slice of `bytes`. A trailing partial frame is kept for the next
    /// call. Returns how many of `bytes` it took: all of them, unless `f`
    /// broke, in which case the bytes after that frame are left to the
    /// caller. After an `Err` the reader is poisoned: it holds nothing and
    /// returns [`WireError::Corrupt`] forever.
    pub fn read(
        &mut self,
        bytes: &[u8],
        f: impl FnMut(u8, &[u8]) -> ControlFlow<()>,
    ) -> Result<usize, WireError> {
        if self.poisoned {
            return Err(WireError::Corrupt);
        }
        let read = self.read_frames(bytes, f);
        if read.is_err() {
            self.poisoned = true;
            self.split = Vec::new();
        }
        read
    }

    fn read_frames(
        &mut self,
        bytes: &[u8],
        mut f: impl FnMut(u8, &[u8]) -> ControlFlow<()>,
    ) -> Result<usize, WireError> {
        let mut rest = bytes;
        if !self.split.is_empty() {
            let Some(after) = self.fill_split(rest)? else {
                return Ok(bytes.len());
            };
            rest = after;
            let whole = std::mem::take(&mut self.split);
            let (tag, payload) = check(&whole)?;
            if f(tag, payload).is_break() {
                return Ok(bytes.len() - rest.len());
            }
        }
        loop {
            match frame_size(rest, self.max_frame)? {
                Some(size) if size <= rest.len() => {
                    let (tag, payload) = check(&rest[..size])?;
                    rest = &rest[size..];
                    if f(tag, payload).is_break() {
                        return Ok(bytes.len() - rest.len());
                    }
                }
                size => {
                    if !rest.is_empty() {
                        self.make_room(rest.len(), size);
                        self.split.extend_from_slice(rest);
                    }
                    return Ok(bytes.len());
                }
            }
        }
    }

    /// Moves the front of `bytes` into the split frame: the rest of its
    /// header, then the rest of the frame that header announces. Returns
    /// what is left of `bytes` once the frame is whole, `None` if `bytes`
    /// ran out first.
    fn fill_split<'a>(&mut self, mut bytes: &'a [u8]) -> Result<Option<&'a [u8]>, WireError> {
        loop {
            let size = frame_size(&self.split, self.max_frame)?;
            let want = size.unwrap_or(HEADER) - self.split.len();
            let take = want.min(bytes.len());
            self.make_room(take, size);
            self.split.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if take < want {
                return Ok(None);
            }
            if size.is_some() {
                return Ok(Some(bytes));
            }
        }
    }

    /// Makes room in the split frame for `more` bytes of a frame of `size`
    /// bytes (`None` until its header is in). The buffer grows to what will
    /// have arrived rounded up to a whole [`READ_SIZE`], never past the
    /// frame, so a header announcing a large frame reserves at most one
    /// read beyond the bytes the peer has sent; a frame of a read or less
    /// is reserved whole, once.
    fn make_room(&mut self, more: usize, size: Option<usize>) {
        let arrived = self.split.len() + more;
        if arrived > self.split.capacity() {
            let room = (arrived / READ_SIZE + 1) * READ_SIZE;
            let room = room.min(size.unwrap_or(HEADER));
            self.split.reserve_exact(room - self.split.len());
        }
    }

    /// Appends raw received bytes for [`FrameReader::next_frame`].
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        // Reclaim the consumed prefix before growing once it is the larger
        // part of the buffer, keeping the buffer bounded by what the
        // caller fed and has not popped.
        if self.pos > self.fed.len() - self.pos {
            self.fed.drain(..self.pos);
            self.pos = 0;
        }
        self.fed.extend_from_slice(bytes);
    }

    /// Bytes received but not yet handed out as frames.
    pub fn pending(&self) -> usize {
        self.fed.len() - self.pos + self.split.len()
    }

    /// Pops the next complete frame of what was fed, as
    /// [`FrameReader::read`] would hand it out, copied. `Ok(None)` means
    /// "need more bytes"; by then everything fed has been read, and the
    /// reader holds no more than a split frame's buffer. After an `Err` the
    /// reader stays poisoned and returns [`WireError::Corrupt`] from then on —
    /// the connection is unrecoverable.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        let fed = std::mem::take(&mut self.fed);
        let start = std::mem::take(&mut self.pos);
        let mut frame = None;
        let took = self.read(&fed[start..], |tag, payload| {
            frame = Some((tag, payload.to_vec()));
            ControlFlow::Break(())
        })?;
        if start + took < fed.len() {
            self.fed = fed;
            self.pos = start + took;
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<ClientMsg> {
        vec![
            ClientMsg::Hello {
                version: WIRE_VERSION,
                tenant: 3,
            },
            ClientMsg::Submit {
                session: 1,
                not_before_ns: 5_000,
                fuel: 0,
                name: "agent".into(),
                args: "q=42".into(),
                source: "emit(\"hi\")".into(),
            },
            ClientMsg::Cancel { session: 1 },
            ClientMsg::Ping { nonce: 99 },
            ClientMsg::Bye,
        ]
    }

    #[test]
    fn client_messages_round_trip() {
        for msg in sample_msgs() {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let mut r = FrameReader::new();
            r.feed(&buf);
            let (tag, payload) = r.next_frame().unwrap().unwrap();
            assert_eq!(ClientMsg::decode(tag, &payload).unwrap(), msg);
            assert_eq!(r.next_frame().unwrap(), None);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let msgs = vec![
            ServerMsg::HelloOk {
                version: WIRE_VERSION,
                server: "symphony-serve/0.1".into(),
            },
            ServerMsg::Accepted { session: 1, pid: 7 },
            ServerMsg::Stream {
                session: 1,
                at_ns: 123,
                tokens: 4,
                text: "four tokens!".into(),
            },
            ServerMsg::Done {
                session: 1,
                at_ns: 456,
                status: SessionStatus::Ok,
                detail: String::new(),
                emitted_tokens: 12,
                pred_tokens: 80,
            },
            ServerMsg::Error {
                session: CONN_SCOPE,
                code: ErrCode::QuotaExceeded,
                detail: "tenant 3 at 2 sessions".into(),
            },
            ServerMsg::Pong { nonce: 99 },
            ServerMsg::ByeOk,
        ];
        for msg in msgs {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let mut r = FrameReader::new();
            r.feed(&buf);
            let (tag, payload) = r.next_frame().unwrap().unwrap();
            assert_eq!(ServerMsg::decode(tag, &payload).unwrap(), msg);
        }
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles_frames() {
        let mut buf = Vec::new();
        for m in sample_msgs() {
            m.encode(&mut buf);
        }
        let mut r = FrameReader::new();
        let mut seen = Vec::new();
        for b in &buf {
            r.feed(std::slice::from_ref(b));
            while let Some((tag, payload)) = r.next_frame().unwrap() {
                seen.push(ClientMsg::decode(tag, &payload).unwrap());
            }
        }
        assert_eq!(seen, sample_msgs());
        assert_eq!(r.pending(), 0);
    }

    /// Every client message of [`sample_msgs`] read in two calls, cut at
    /// `cut`: the messages decoded and the reader's split buffer after each.
    fn read_in_two(wire: &[u8], cut: usize) -> (Vec<ClientMsg>, [usize; 2]) {
        let mut r = FrameReader::new();
        let mut seen = Vec::new();
        let mut held = [0; 2];
        for (i, piece) in [&wire[..cut], &wire[cut..]].into_iter().enumerate() {
            let took = r.read(piece, |tag, payload| {
                seen.push(ClientMsg::decode(tag, payload).unwrap());
                ControlFlow::Continue(())
            });
            assert_eq!(took, Ok(piece.len()));
            held[i] = r.split.capacity();
        }
        (seen, held)
    }

    #[test]
    fn read_copies_only_a_frame_split_across_reads() {
        let mut wire = Vec::new();
        for m in sample_msgs() {
            m.encode(&mut wire);
        }
        let hello = FRAME_OVERHEAD + 16;
        // Cut between frames: nothing is copied.
        assert_eq!(read_in_two(&wire, hello), (sample_msgs(), [0, 0]));
        // Cut inside the SUBMIT's payload: its whole size is reserved,
        // and freed once the second read completes it.
        let (seen, held) = read_in_two(&wire, hello + 8);
        let mut submit = Vec::new();
        sample_msgs()[1].encode(&mut submit);
        assert_eq!((seen, held), (sample_msgs(), [submit.len(), 0]));
        // Cut inside its header: the header first, then the frame.
        let (seen, held) = read_in_two(&wire, hello + 2);
        assert_eq!(seen, sample_msgs());
        assert_eq!(held, [HEADER, 0]);
    }

    #[test]
    fn a_stalled_large_frame_reserves_one_read_ahead_of_its_bytes() {
        let mut wire = Vec::new();
        ClientMsg::Submit {
            session: 1,
            not_before_ns: 0,
            fuel: 0,
            name: "big".into(),
            args: String::new(),
            source: "x".repeat(DEFAULT_MAX_FRAME as usize - 64),
        }
        .encode(&mut wire);
        let mut r = FrameReader::new();
        let mut frames = 0;
        let mut count = |_: u8, _: &[u8]| {
            frames += 1;
            ControlFlow::Continue(())
        };
        // The header alone, announcing about 1 MiB: one read's worth.
        assert_eq!(r.read(&wire[..HEADER], &mut count), Ok(HEADER));
        assert!(r.split.capacity() <= READ_SIZE, "{}", r.split.capacity());
        // Each read keeps the buffer within a read of what has arrived.
        let mut at = HEADER;
        while at < wire.len() {
            let end = (at + READ_SIZE).min(wire.len());
            assert_eq!(r.read(&wire[at..end], &mut count), Ok(end - at));
            at = end;
            if at < wire.len() {
                assert!(r.split.capacity() <= at + READ_SIZE, "at {at}");
            }
        }
        assert_eq!((frames, r.split.capacity()), (1, 0));
    }

    #[test]
    fn a_break_leaves_the_rest_to_the_caller() {
        let mut wire = Vec::new();
        for m in sample_msgs() {
            m.encode(&mut wire);
        }
        let mut r = FrameReader::new();
        let mut seen = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            at += r
                .read(&wire[at..], |tag, payload| {
                    seen.push(ClientMsg::decode(tag, payload).unwrap());
                    ControlFlow::Break(())
                })
                .unwrap();
        }
        assert_eq!(seen, sample_msgs());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn an_oversized_header_split_across_reads_is_rejected_unbuffered() {
        let mut r = FrameReader::with_max_frame(16);
        let nothing = |_: u8, _: &[u8]| ControlFlow::Continue(());
        assert_eq!(r.read(&[op::SUBMIT, 0, 0], nothing), Ok(3));
        assert_eq!(
            r.read(&[0, 0x40], nothing),
            Err(WireError::TooLarge {
                len: 0x4000_0000,
                max: 16
            })
        );
        assert_eq!(r.split.capacity(), 0);
        assert_eq!(r.read(&[], nothing), Err(WireError::Corrupt));
    }

    #[test]
    fn corrupt_frame_poisons_reader() {
        let mut buf = Vec::new();
        ClientMsg::Ping { nonce: 1 }.encode(&mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut r = FrameReader::new();
        r.feed(&buf);
        assert_eq!(r.next_frame(), Err(WireError::Corrupt));
        // Poisoned forever, even if valid bytes follow.
        let mut good = Vec::new();
        ClientMsg::Bye.encode(&mut good);
        r.feed(&good);
        assert_eq!(r.next_frame(), Err(WireError::Corrupt));
    }

    #[test]
    fn oversized_frame_is_rejected_from_header_alone() {
        let mut r = FrameReader::with_max_frame(16);
        // Header announcing a 1 GiB payload; only 5 bytes ever arrive.
        r.feed(&[op::SUBMIT, 0, 0, 0, 0x40]);
        assert_eq!(
            r.next_frame(),
            Err(WireError::TooLarge {
                len: 0x4000_0000,
                max: 16
            })
        );
    }

    #[test]
    fn wrong_direction_and_trailing_bytes_are_typed_errors() {
        let mut buf = Vec::new();
        ServerMsg::Pong { nonce: 3 }.encode(&mut buf);
        let mut r = FrameReader::new();
        r.feed(&buf);
        let (tag, payload) = r.next_frame().unwrap().unwrap();
        assert_eq!(
            ClientMsg::decode(tag, &payload),
            Err(ErrCode::UnknownOpcode)
        );

        let mut p = Vec::new();
        ClientMsg::Ping { nonce: 3 }.encode(&mut p);
        // Re-frame the ping payload with a trailing junk byte.
        let mut junk = p[5..p.len() - 4].to_vec();
        junk.push(0xee);
        assert_eq!(ClientMsg::decode(op::PING, &junk), Err(ErrCode::BadFrame));
    }

    #[test]
    fn err_codes_round_trip_and_classify() {
        for v in 1..=16u16 {
            let c = ErrCode::from_code(v).unwrap();
            assert_eq!(c.code(), v);
            assert!(!c.to_string().is_empty());
        }
        assert_eq!(ErrCode::from_code(0), None);
        assert_eq!(ErrCode::from_code(999), None);
        assert!(ErrCode::BadFrame.is_conn_fatal());
        assert!(!ErrCode::QuotaExceeded.is_conn_fatal());
    }
}
