//! Property tests for the SYMR wire protocol.
//!
//! Three families:
//!
//! 1. **Round trip** — any random message sequence (both directions,
//!    arbitrary strings including NUL/UTF-8 multibyte, extreme integer
//!    values) encodes to a byte stream that a [`FrameReader`] fed in
//!    arbitrary chunk sizes reassembles into exactly the original
//!    sequence.
//! 2. **Torn stream** — the stream cut at every possible byte length
//!    yields only complete prefix frames and then "need more bytes";
//!    never a panic, never a corrupt verdict (a short read is not an
//!    error on a live connection).
//! 3. **Corruption chaos** — flipping any single bit in the stream can
//!    only (a) surface as a typed [`WireError`]/decode error, or (b)
//!    produce frames; it must never panic and never silently alter a
//!    frame while leaving its checksum valid.
//!
//! Each family also reads its stream through [`FrameReader::read`] cut at
//! random points, which hands out frames where they lie and copies only
//! one split across two reads: it must yield the frames one whole `feed`
//! does, and the same first error after the same frames. Whole frames are
//! read without allocating at all.
//!
//! Beside them, the version-2 payload codec at its edges: every message
//! round-trips at boundary integers, every malformed varint or string
//! length is `BAD_FRAME` without allocating more than the payload holds,
//! and HELLO keeps its version-1 bytes so that a version-1 client is told
//! `BAD_VERSION`, not `BAD_FRAME`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::ops::ControlFlow;

use proptest::prelude::*;
use symphony_rpc::{
    op, ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, WireError, WIRE_VERSION,
};
use symphony_sim::frame::append_frame;

thread_local! {
    /// The largest single allocation this thread has asked for since
    /// [`largest_allocation`] last reset it. `const`-initialised and without
    /// a destructor, so the allocator can touch it at any time.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations (and reallocations) this thread has made, likewise.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every request is passed to `System` unchanged and its answer
// handed back unchanged; the counters beside it are thread-local integers.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Runs `f` and returns its result with the number of allocations it made
/// on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What a reader makes of a stream: every frame it hands out, in order,
/// and the error that stopped it, if one did.
type Outcome = (Vec<(u8, Vec<u8>)>, Option<WireError>);

/// `wire` read in one piece.
fn read_whole(wire: &[u8]) -> Outcome {
    read_in_pieces(wire, &[])
}

/// `wire` read in place, in pieces cut at `cuts` (each taken modulo the
/// stream's length plus one, so a cut may fall anywhere, twice, or at
/// either end).
fn read_in_pieces(wire: &[u8], cuts: &[usize]) -> Outcome {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(wire.len());
    let mut r = FrameReader::new();
    let mut frames = Vec::new();
    let mut at = 0;
    for end in cuts {
        let read = r.read(&wire[at..end], |tag, payload| {
            frames.push((tag, payload.to_vec()));
            ControlFlow::Continue(())
        });
        match read {
            Ok(took) => assert_eq!(took, end - at, "a read that never breaks takes all"),
            Err(e) => return (frames, Some(e)),
        }
        at = end;
    }
    (frames, None)
}

/// SUBMIT frames of programs of a few hundred bytes each, back to back.
fn submits(n: u64) -> Vec<u8> {
    let mut wire = Vec::new();
    for session in 1..=n {
        ClientMsg::Submit {
            session,
            not_before_ns: session * 1_000,
            fuel: 0,
            name: format!("agent-{session}"),
            args: format!("question {session}"),
            source: "emit(str(len(tokenize(args()))));\n".repeat(8),
        }
        .encode(&mut wire);
    }
    wire
}

#[test]
fn whole_frames_are_read_without_allocating() {
    let wire = submits(16);
    let mut r = FrameReader::new();
    let mut frames = 0;
    let (took, made) = allocations(|| {
        r.read(&wire, |tag, _| {
            assert_eq!(tag, op::SUBMIT);
            frames += 1;
            ControlFlow::Continue(())
        })
    });
    assert_eq!((took, frames, made), (Ok(wire.len()), 16, 0));
    assert_eq!(r.pending(), 0);
}

#[test]
fn a_frame_split_across_reads_is_copied_once_and_not_kept() {
    let wire = submits(2);
    let first = wire.len() / 2;
    for cut in [2, first - 7, first + 3, wire.len() - 1] {
        let mut r = FrameReader::new();
        let mut frames = 0;
        let mut count = |_: u8, _: &[u8]| {
            frames += 1;
            ControlFlow::Continue(())
        };
        let (_, made) = allocations(|| {
            r.read(&wire[..cut], &mut count).unwrap();
            r.read(&wire[cut..], &mut count).unwrap()
        });
        // The split frame's buffer, reserved whole once its header was in;
        // a cut inside the header reserves the header first.
        let expected = if cut % first < 5 { 2 } else { 1 };
        assert_eq!(made, expected, "cut at {cut}");
        assert_eq!((frames, r.pending()), (2, 0), "cut at {cut}");
    }
}

/// The frame `msg` encodes to, split into its tag and payload.
fn frame_of(encode: impl FnOnce(&mut Vec<u8>)) -> (u8, Vec<u8>) {
    let mut wire = Vec::new();
    encode(&mut wire);
    let mut r = FrameReader::new();
    r.feed(&wire);
    r.next_frame()
        .expect("clean frame")
        .expect("one whole frame")
}

/// One of each message, every integer field set to `v`.
fn messages_at(v: u64) -> (Vec<ClientMsg>, Vec<ServerMsg>) {
    let s = |t: &str| format!("{t}-{v}");
    let client = vec![
        ClientMsg::Hello {
            version: v as u32,
            tenant: v,
        },
        ClientMsg::Submit {
            session: v,
            not_before_ns: v,
            fuel: v,
            name: s("name"),
            args: s("args"),
            source: s("source"),
        },
        ClientMsg::Cancel { session: v },
        ClientMsg::Ping { nonce: v },
        ClientMsg::Bye,
    ];
    let server = vec![
        ServerMsg::HelloOk {
            version: v as u32,
            server: s("server"),
        },
        ServerMsg::Accepted { session: v, pid: v },
        ServerMsg::Stream {
            session: v,
            at_ns: v,
            tokens: v,
            text: s("text"),
        },
        ServerMsg::Done {
            session: v,
            at_ns: v,
            status: SessionStatus::Cancelled,
            detail: s("detail"),
            emitted_tokens: v,
            pred_tokens: v,
        },
        ServerMsg::Error {
            session: v,
            code: ErrCode::VerifyRejected,
            detail: s("detail"),
        },
        ServerMsg::Pong { nonce: v },
        ServerMsg::ByeOk,
    ];
    (client, server)
}

const BOUNDARIES: [u64; 5] = [0, 127, 128, 1 << 63, u64::MAX];

#[test]
fn every_message_round_trips_at_boundary_integers() {
    for v in BOUNDARIES {
        let (client, server) = messages_at(v);
        for msg in client {
            let (tag, payload) = frame_of(|w| msg.encode(w));
            assert_eq!(ClientMsg::decode(tag, &payload), Ok(msg));
        }
        for msg in server {
            let (tag, payload) = frame_of(|w| msg.encode(w));
            assert_eq!(ServerMsg::decode(tag, &payload), Ok(msg));
        }
    }
}

#[test]
fn a_per_token_stream_frame_is_pinned() {
    // Session 300, 12.345678901 virtual seconds, one token of five bytes:
    // a typical STREAM frame, 23 bytes where version 1 spent 42.
    let mut wire = Vec::new();
    ServerMsg::Stream {
        session: 300,
        at_ns: 12_345_678_901,
        tokens: 1,
        text: "hello".into(),
    }
    .encode(&mut wire);
    let payload = [
        0xac, 0x02, // session 300
        0xb5, 0xb8, 0xf0, 0xfe, 0x2d, // at_ns
        0x01, // tokens
        0x05, b'h', b'e', b'l', b'l', b'o', // text
    ];
    let mut expected = Vec::new();
    append_frame(&mut expected, op::STREAM, &payload);
    assert_eq!(wire, expected);
    assert_eq!(wire.len(), 23);
}

/// Payloads that break the varint or string rules, for every opcode whose
/// first field is a varint.
fn malformed_payloads() -> Vec<(&'static str, Vec<u8>)> {
    let mut eleven = vec![0x80; 10];
    eleven.push(0x00);
    let mut overflow = vec![0xff; 9];
    overflow.push(0x02);
    // A STREAM whose text claims more bytes than follow: 2^40, and one
    // past the three that do.
    let mut huge_text = vec![0x01, 0x01, 0x01];
    huge_text.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
    huge_text.extend_from_slice(b"abc");
    let short_text = vec![0x01, 0x01, 0x01, 0x04, b'a', b'b', b'c'];
    vec![
        ("truncated varint", vec![0x80]),
        ("truncated varint after a field", vec![0x01, 0xff, 0xff]),
        ("11-byte varint", eleven),
        ("overflowing varint", overflow),
        ("string length 2^40", huge_text),
        ("string length one past the end", short_text),
    ]
}

#[test]
fn malformed_varints_and_lengths_are_bad_frames_that_allocate_nothing_big() {
    let client_ops = [op::SUBMIT, op::CANCEL, op::PING];
    let server_ops = [op::ACCEPTED, op::STREAM, op::DONE, op::ERROR, op::PONG];
    for (what, payload) in malformed_payloads() {
        for tag in client_ops {
            let (got, largest) = largest_allocation(|| ClientMsg::decode(tag, &payload));
            assert_eq!(got, Err(ErrCode::BadFrame), "{what}, opcode {tag:#04x}");
            assert!(largest <= payload.len(), "{what}: allocated {largest} B");
        }
        for tag in server_ops {
            let (got, largest) = largest_allocation(|| ServerMsg::decode(tag, &payload));
            assert_eq!(got, Err(ErrCode::BadFrame), "{what}, opcode {tag:#04x}");
            assert!(largest <= payload.len(), "{what}: allocated {largest} B");
        }
    }
}

#[test]
fn hello_keeps_its_version_1_bytes() {
    // magic, version u32 LE, tenant u64 LE: what a version-1 client sends.
    let v1 = [b'S', b'Y', b'M', b'R', 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0];
    let hello = ClientMsg::Hello {
        version: 1,
        tenant: 7,
    };
    let (tag, payload) = frame_of(|w| hello.encode(w));
    assert_eq!((tag, payload.as_slice()), (op::HELLO, &v1[..]));
    // It decodes — so the server can refuse it as BAD_VERSION.
    assert_eq!(ClientMsg::decode(op::HELLO, &v1), Ok(hello));
    assert_ne!(WIRE_VERSION, 1);
    // HELLO_OK likewise: version u32 LE, then a u32-length string.
    let ok = ServerMsg::HelloOk {
        version: WIRE_VERSION,
        server: "s".into(),
    };
    let (_, payload) = frame_of(|w| ok.encode(w));
    assert_eq!(payload, [2, 0, 0, 0, 1, 0, 0, 0, b's']);
}

fn any_client_msg() -> impl Strategy<Value = ClientMsg> {
    prop_oneof![
        (any::<u32>(), any::<u64>())
            .prop_map(|(version, tenant)| ClientMsg::Hello { version, tenant }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (".{0,12}", ".{0,12}", ".{0,40}")
        )
            .prop_map(|((session, not_before_ns, fuel), (name, args, source))| {
                ClientMsg::Submit {
                    session,
                    not_before_ns,
                    fuel,
                    name,
                    args,
                    source,
                }
            }),
        any::<u64>().prop_map(|session| ClientMsg::Cancel { session }),
        any::<u64>().prop_map(|nonce| ClientMsg::Ping { nonce }),
        Just(ClientMsg::Bye),
    ]
}

fn any_server_msg() -> impl Strategy<Value = ServerMsg> {
    let status = prop_oneof![
        Just(SessionStatus::Ok),
        Just(SessionStatus::Error),
        Just(SessionStatus::Crashed),
        Just(SessionStatus::Cancelled),
    ];
    let code = (1u16..16).prop_map(|v| ErrCode::from_code(v).expect("codes 1..=15 are defined"));
    prop_oneof![
        (any::<u32>(), ".{0,12}")
            .prop_map(|(version, server)| ServerMsg::HelloOk { version, server }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, pid)| ServerMsg::Accepted { session, pid }),
        (any::<u64>(), any::<u64>(), any::<u64>(), ".{0,24}").prop_map(
            |(session, at_ns, tokens, text)| ServerMsg::Stream {
                session,
                at_ns,
                tokens,
                text,
            }
        ),
        (
            (any::<u64>(), any::<u64>(), status),
            (".{0,16}", any::<u64>(), any::<u64>())
        )
            .prop_map(
                |((session, at_ns, status), (detail, emitted_tokens, pred_tokens))| {
                    ServerMsg::Done {
                        session,
                        at_ns,
                        status,
                        detail,
                        emitted_tokens,
                        pred_tokens,
                    }
                }
            ),
        (any::<u64>(), code, ".{0,16}").prop_map(|(session, code, detail)| ServerMsg::Error {
            session,
            code,
            detail,
        }),
        any::<u64>().prop_map(|nonce| ServerMsg::Pong { nonce }),
        Just(ServerMsg::ByeOk),
    ]
}

/// Drains every complete frame currently buffered in `r` as client
/// messages, panicking on any wire/decode error.
fn drain_client(r: &mut FrameReader) -> Vec<ClientMsg> {
    let mut out = Vec::new();
    while let Some((tag, payload)) = r.next_frame().expect("stream must stay clean") {
        out.push(ClientMsg::decode(tag, &payload).expect("frame must decode"));
    }
    out
}

/// Random cut points for [`read_in_pieces`].
fn any_cuts() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<usize>(), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(48)
    ))]

    #[test]
    fn client_stream_round_trips_in_arbitrary_chunks(
        msgs in proptest::collection::vec(any_client_msg(), 1..8),
        chunk in 1usize..64,
        cuts in any_cuts(),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            m.encode(&mut wire);
        }
        let mut r = FrameReader::new();
        let mut seen = Vec::new();
        for piece in wire.chunks(chunk) {
            r.feed(piece);
            seen.extend(drain_client(&mut r));
        }
        prop_assert_eq!(seen, msgs);
        prop_assert_eq!(r.pending(), 0);
        let whole = read_whole(&wire);
        prop_assert_eq!(read_in_pieces(&wire, &cuts), whole);
    }

    #[test]
    fn server_stream_round_trips(
        msgs in proptest::collection::vec(any_server_msg(), 1..8),
        cuts in any_cuts(),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            m.encode(&mut wire);
        }
        let mut r = FrameReader::new();
        r.feed(&wire);
        let mut seen = Vec::new();
        while let Some((tag, payload)) = r.next_frame().expect("clean stream") {
            seen.push(ServerMsg::decode(tag, &payload).expect("decodes"));
        }
        prop_assert_eq!(seen, msgs);
        let whole = read_whole(&wire);
        prop_assert_eq!(read_in_pieces(&wire, &cuts), whole);
    }

    #[test]
    fn torn_stream_yields_exact_prefix_then_waits(
        msgs in proptest::collection::vec(any_client_msg(), 1..5),
        cuts in any_cuts(),
    ) {
        let mut wire = Vec::new();
        let mut boundaries = Vec::new();
        for m in &msgs {
            m.encode(&mut wire);
            boundaries.push(wire.len());
        }
        for cut in 0..=wire.len() {
            let mut r = FrameReader::new();
            r.feed(&wire[..cut]);
            let seen = drain_client(&mut r);
            // Exactly the messages whose frames end at or before the cut.
            let complete = boundaries.iter().filter(|&&b| b <= cut).count();
            prop_assert_eq!(&seen, &msgs[..complete]);
            // Whatever remains is "not yet", never an error.
            prop_assert_eq!(r.next_frame(), Ok(None));
            let whole = read_whole(&wire[..cut]);
            prop_assert_eq!(read_in_pieces(&wire[..cut], &cuts), whole);
        }
    }

    #[test]
    fn every_cut_short_payload_is_a_bad_frame_within_its_own_size(
        client in any_client_msg(),
        server in any_server_msg(),
    ) {
        let (ctag, cpayload) = frame_of(|w| client.encode(w));
        let (stag, spayload) = frame_of(|w| server.encode(w));
        for cut in 0..cpayload.len() {
            let short = &cpayload[..cut];
            let (got, largest) = largest_allocation(|| ClientMsg::decode(ctag, short));
            prop_assert_eq!(got, Err(ErrCode::BadFrame));
            prop_assert!(largest <= cut);
        }
        for cut in 0..spayload.len() {
            let short = &spayload[..cut];
            let (got, largest) = largest_allocation(|| ServerMsg::decode(stag, short));
            prop_assert_eq!(got, Err(ErrCode::BadFrame));
            prop_assert!(largest <= cut);
        }
    }

    #[test]
    fn single_bit_corruption_never_panics_or_slips_through(
        msg in any_client_msg(),
        bit in 0usize..64,
    ) {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        let pos = bit % (wire.len() * 8);
        wire[pos / 8] ^= 1 << (pos % 8);
        let mut r = FrameReader::new();
        r.feed(&wire);
        match r.next_frame() {
            // Flip landed in the length prefix and made it huge: typed cap error,
            // or the announced frame now extends past the buffer (need more bytes —
            // on a real connection the peer hangs and times out, it never decodes).
            Err(WireError::TooLarge { .. }) | Ok(None) => {}
            // CRC catches the flip.
            Err(WireError::Corrupt) => {}
            Ok(Some((tag, payload))) => {
                // The only same-length escape: the flip hit the tag or payload AND
                // forged a colliding CRC, or hit a don't-care bit. FNV-1a has no
                // single-bit collisions over these lengths, so the frame content
                // must be intact apart from the tag — and a changed tag decodes
                // to a different opcode or a typed error, never a panic.
                let _ = ClientMsg::decode(tag, &payload);
            }
        }
    }

    #[test]
    fn single_bit_corruption_reads_in_pieces_as_fed_whole(
        msgs in proptest::collection::vec(any_client_msg(), 1..5),
        bit in any::<usize>(),
        cuts in any_cuts(),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            m.encode(&mut wire);
        }
        let pos = bit % (wire.len() * 8);
        wire[pos / 8] ^= 1 << (pos % 8);
        // The same frames before the flip, then the same verdict on the
        // frame it hit, whether the stream came whole or in pieces.
        let whole = read_whole(&wire);
        prop_assert_eq!(read_in_pieces(&wire, &cuts), whole);
    }
}
