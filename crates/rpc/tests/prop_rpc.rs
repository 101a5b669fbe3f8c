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

use proptest::prelude::*;
use symphony_rpc::{ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, WireError};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn client_stream_round_trips_in_arbitrary_chunks(
        msgs in proptest::collection::vec(any_client_msg(), 1..8),
        chunk in 1usize..64,
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
    }

    #[test]
    fn server_stream_round_trips(msgs in proptest::collection::vec(any_server_msg(), 1..8)) {
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
    }

    #[test]
    fn torn_stream_yields_exact_prefix_then_waits(
        msgs in proptest::collection::vec(any_client_msg(), 1..5),
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
}
