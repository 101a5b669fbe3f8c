//! Property tests for the simulation substrate.

use proptest::prelude::*;
use symphony_sim::frame::{announced_len, append_frame, read_frames, FRAME_OVERHEAD};
use symphony_sim::seglog::{self, Head, HeadError, SegLog};
use symphony_sim::{EventQueue, Rng, Series, SimTime, Zipf};

// ---- the segment log, over a toy client -----------------------------------

/// A toy client of the segment log: two header fields, three tags.
const TOY: Head<2> = Head {
    magic: *b"TOYL",
    version: 7,
};

type ToyRecord = (u8, Vec<u8>);

/// Tag 1 carries anything, tag 2 exactly eight bytes, tag 3 nothing; every
/// other tag, and a payload of the wrong shape, is rejected.
fn toy_decode(tag: u8, payload: &[u8]) -> Option<ToyRecord> {
    let ok = match tag {
        1 => true,
        2 => payload.len() == 8,
        3 => payload.is_empty(),
        _ => false,
    };
    ok.then(|| (tag, payload.to_vec()))
}

fn toy_record() -> impl Strategy<Value = ToyRecord> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(|p| (1u8, p)),
        any::<u64>().prop_map(|v| (2u8, v.to_le_bytes().to_vec())),
        Just((3u8, Vec::new())),
    ]
}

/// A frame that checksums but that `toy_decode` refuses.
fn toy_reject() -> impl Strategy<Value = ToyRecord> {
    prop_oneof![
        (4u8..255, proptest::collection::vec(any::<u8>(), 0..8)),
        Just((2u8, vec![1, 2, 3])),
        Just((3u8, vec![0])),
    ]
}

fn toy_body(records: &[ToyRecord]) -> Vec<u8> {
    let mut body = Vec::new();
    for (tag, payload) in records {
        append_frame(&mut body, *tag, payload);
    }
    body
}

fn toy_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("symseg-{}-{name}.log", std::process::id()))
}

fn toy_read(path: &std::path::Path) -> ([u64; 2], Vec<ToyRecord>, bool) {
    let bytes = std::fs::read(path).unwrap();
    let (fields, body) = seglog::parse_head(&TOY, &bytes).unwrap();
    let (records, _, torn) = seglog::scan(body, toy_decode);
    (fields, records, torn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The torn-tail rule, once, for every client: whatever a crash or a
    /// newer writer left behind, `scan` returns a prefix of what was
    /// written, says how long it is, and says whether it dropped anything;
    /// cutting the file there and appending yields prefix + new records.
    #[test]
    fn segment_log_keeps_a_valid_prefix_and_appends_after_it(
        written in proptest::collection::vec(toy_record(), 0..12),
        reject in (any::<bool>(), toy_reject(), any::<usize>()),
        appended in proptest::collection::vec(toy_record(), 1..4),
        reopen_at in any::<usize>(),
        fields in (any::<u64>(), any::<u64>()),
    ) {
        let fields = [fields.0, fields.1];
        // What a reader may keep: everything before the rejected frame.
        let mut frames = written.clone();
        let mut keep = written.len();
        if let (true, bad, at) = reject {
            keep = at % (written.len() + 1);
            frames.insert(keep, bad);
        }
        let body = toy_body(&frames);
        let mut boundaries = vec![0];
        for (_, payload) in &frames[..keep] {
            boundaries.push(boundaries[boundaries.len() - 1] + FRAME_OVERHEAD + payload.len());
        }

        for cut in 0..=body.len() {
            let (records, valid_len, torn) = seglog::scan(&body[..cut], toy_decode);
            prop_assert!(records.len() <= keep);
            prop_assert_eq!(&records[..], &frames[..records.len()], "prefix at cut {}", cut);
            prop_assert_eq!(valid_len, boundaries[records.len()], "length at cut {}", cut);
            prop_assert!(valid_len <= cut);
            prop_assert_eq!(torn, valid_len != cut, "torn iff bytes were dropped, cut {}", cut);
            let longest = boundaries.iter().rposition(|&b| b <= cut).unwrap();
            prop_assert_eq!(records.len(), longest, "nothing valid is dropped, cut {}", cut);
        }

        // Reopen a file cut anywhere, cut it back to its valid prefix, go on.
        let path = toy_path("reopen");
        let head = seglog::encode_head(&TOY, fields);
        let cut = reopen_at % (body.len() + 1);
        drop(SegLog::create(&path, &[&head[..], &body[..cut]].concat()).unwrap());
        let (survivors, valid_len, _) = seglog::scan(&body[..cut], toy_decode);
        let mut log = SegLog::open(&path).unwrap();
        prop_assert_eq!(log.disk_len(), (head.len() + cut) as u64);
        log.truncate_to((head.len() + valid_len) as u64).unwrap();
        for (tag, payload) in &appended {
            append_frame(log.pending(), *tag, payload);
        }
        prop_assert_eq!(log.pending().len(), toy_body(&appended).len());
        log.flush().unwrap();
        prop_assert_eq!(log.pending().len(), 0);
        let (read_fields, records, torn) = toy_read(&path);
        prop_assert_eq!(read_fields, fields);
        prop_assert!(!torn);
        prop_assert_eq!(records, [survivors, appended].concat());
        prop_assert_eq!(log.disk_len(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    /// What is pushed is not on disk until flushed; an `append` goes to
    /// disk ahead of what is waiting.
    #[test]
    fn segment_log_buffer_reaches_disk_only_by_flush(
        base in proptest::collection::vec(toy_record(), 0..4),
        urgent in toy_record(),
        waiting in proptest::collection::vec(toy_record(), 1..4),
    ) {
        let path = toy_path("buffer");
        let head = seglog::encode_head(&TOY, [1, 2]);
        let before = [&head[..], &toy_body(&base)[..]].concat();
        let mut log = SegLog::create(&path, &before).unwrap();
        for (tag, payload) in &waiting {
            append_frame(log.pending(), *tag, payload);
        }
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &before);
        log.append(urgent.0, &urgent.1).unwrap();
        prop_assert_eq!(log.pending().len(), toy_body(&waiting).len());
        let (_, records, _) = toy_read(&path);
        prop_assert_eq!(&records, &[base.clone(), vec![urgent.clone()]].concat());
        log.flush().unwrap();
        let (_, records, torn) = toy_read(&path);
        prop_assert!(!torn);
        prop_assert_eq!(records, [base, vec![urgent], waiting].concat());
        std::fs::remove_file(&path).ok();
    }

    /// Creating a log over an old one replaces it all-or-nothing, and the
    /// handle writes to the new file.
    #[test]
    fn segment_log_replace_is_atomic(
        old in proptest::collection::vec(toy_record(), 0..6),
        new in proptest::collection::vec(toy_record(), 0..6),
        after in toy_record(),
    ) {
        use std::io::Read;
        let path = toy_path("replace");
        let head = seglog::encode_head(&TOY, [3, 4]);
        let old_bytes = [&head[..], &toy_body(&old)[..]].concat();
        let new_bytes = [&head[..], &toy_body(&new)[..]].concat();
        drop(SegLog::create(&path, &old_bytes).unwrap());
        let mut reader = std::fs::File::open(&path).unwrap();

        // Killed after staging the replacement, before the rename.
        SegLog::replace_crash_before_rename(&path, &new_bytes).unwrap();
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &old_bytes);

        let mut log = SegLog::create(&path, &new_bytes).unwrap();
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &new_bytes);
        prop_assert_eq!(log.disk_len(), new_bytes.len() as u64);
        append_frame(log.pending(), after.0, &after.1);
        log.flush().unwrap();
        let (_, records, torn) = toy_read(&path);
        prop_assert!(!torn);
        prop_assert_eq!(records, [new, vec![after]].concat());
        // Whoever had the old file open still reads all of it: it was
        // replaced, not rewritten in place.
        let mut seen = Vec::new();
        reader.read_to_end(&mut seen).unwrap();
        prop_assert_eq!(seen, old_bytes);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("log.tmp")).ok();
    }
}

/// A header is refused as a whole: short or damaged is `Torn`, someone
/// else's is `Incompatible`, and no byte of the body is looked at.
#[test]
fn segment_log_header_errors_are_typed() {
    let bytes = seglog::encode_head(&TOY, [5, 6]);
    assert_eq!(bytes.len(), Head::<2>::LEN);
    assert_eq!(seglog::parse_head(&TOY, &bytes), Ok(([5, 6], &[][..])));
    for cut in 0..bytes.len() {
        assert_eq!(
            seglog::parse_head(&TOY, &bytes[..cut]),
            Err(HeadError::Torn)
        );
    }
    for flip in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[flip] ^= 0x40;
        let want = if flip < 8 {
            HeadError::Incompatible
        } else {
            HeadError::Torn
        };
        assert_eq!(seglog::parse_head(&TOY, &damaged), Err(want), "byte {flip}");
    }
    let counted = seglog::tag_counts(&bytes[..3], &TOY, |_, _| Some("frame"));
    assert_eq!(counted, Err(HeadError::Torn));
}

#[test]
fn segment_log_tag_counts_stop_at_the_first_rejected_frame() {
    let mut bytes = seglog::encode_head(&TOY, [0, 0]);
    bytes.extend(toy_body(&[
        (1, vec![9]),
        (3, vec![]),
        (1, vec![]),
        (9, vec![]),
        (1, vec![]),
    ]));
    let name_of = |tag, payload: &[u8]| {
        toy_decode(tag, payload).map(|(tag, _)| if tag == 1 { "blob" } else { "mark" })
    };
    let counts = seglog::tag_counts(&bytes, &TOY, name_of).unwrap();
    assert_eq!(
        counts.into_iter().collect::<Vec<_>>(),
        [("blob", 2), ("mark", 1)]
    );
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
        off += FRAME_OVERHEAD + payload.len();
        boundaries.push(off);
    }
    for cut in 0..buf.len() {
        let (prefix, torn) = read_frames(&buf[..cut]);
        assert_eq!(torn, !boundaries.contains(&cut), "tear flag at cut {cut}");
        // Exactly the frames that end at or before the cut survive.
        let whole = boundaries[1..].iter().filter(|&&end| end <= cut).count();
        assert_eq!(prefix[..], frames[..whole], "prefix at {cut}");
        // The first header announces "alpha" once its five bytes are in.
        assert_eq!(
            announced_len(&buf[..cut]),
            (cut >= 5).then_some(5),
            "cut {cut}"
        );
    }
}

#[test]
fn raw_frame_crc_rejects_corruption() {
    let mut buf = Vec::new();
    append_frame(&mut buf, 32, b"payload");
    append_frame(&mut buf, 33, b"second");
    let first_len = FRAME_OVERHEAD + b"payload".len();
    // A flipped byte in the first frame loses both; one in the second
    // frame's header loses only the second.
    for (flip, survivors) in [(3, 0), (first_len + 2, 1)] {
        let mut bad = buf.clone();
        bad[flip] ^= 0xff;
        let (frames, torn) = read_frames(&bad);
        assert!(torn, "flip at {flip}");
        assert_eq!(
            frames,
            [(32u8, b"payload".to_vec())][..survivors],
            "flip at {flip}"
        );
    }
}

proptest! {
    /// Events pop in (time, insertion) order regardless of insert order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.as_nanos(), t);
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "stable order violated");
            }
            prop_assert!(q.now() == at);
            last = Some((t, i));
        }
        prop_assert_eq!(q.events_processed(), times.len() as u64);
    }

    /// A derived substream is a function of its seed and key path alone.
    #[test]
    fn rng_derive_is_a_function_of_seed_and_keys(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        let mut a = Rng::derive(seed, &keys);
        let mut b = Rng::derive(seed, &keys);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Key paths of one length that differ anywhere start differently:
    /// each fold step is a bijection of the state for a fixed key.
    #[test]
    fn rng_derive_distinct_keys_give_distinct_first_words(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 1..4),
        at in any::<usize>(),
        delta in 1u64..u64::MAX,
    ) {
        let mut other = keys.clone();
        let i = at % keys.len();
        other[i] = other[i].wrapping_add(delta);
        prop_assert_ne!(
            Rng::derive(seed, &keys).next_u64(),
            Rng::derive(seed, &other).next_u64()
        );
    }

    /// Draws from any other generator — the seed's own stream, another
    /// substream — do not move a derived one, before or while it is read.
    #[test]
    fn rng_derive_ignores_every_other_draw(
        seed in any::<u64>(),
        key in any::<u64>(),
        drains in 0usize..50,
    ) {
        let mut alone = Rng::derive(seed, &[key]);
        let expected: Vec<u64> = (0..16).map(|_| alone.next_u64()).collect();
        let mut parent = Rng::new(seed);
        let mut sibling = Rng::derive(seed, &[key.wrapping_add(1)]);
        for _ in 0..drains {
            parent.next_u64();
            sibling.next_u64();
        }
        let mut d = Rng::derive(seed, &[key]);
        for &want in &expected {
            parent.next_u64();
            prop_assert_eq!(d.next_u64(), want);
        }
    }

    /// gen_range stays in bounds for arbitrary non-empty ranges.
    #[test]
    fn gen_range_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut r = Rng::new(seed);
        for _ in 0..50 {
            let x = r.gen_range(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&x));
        }
    }

    /// Zipf masses, read as steps of `top_mass`, are a proper decreasing
    /// probability vector.
    #[test]
    fn zipf_mass_properties(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let mass = |i: usize| z.top_mass(i + 1) - z.top_mass(i);
        prop_assert!(z.top_mass(0) == 0.0);
        prop_assert!((z.top_mass(n) - 1.0).abs() < 1e-9);
        prop_assert!((z.top_mass(n + 5) - 1.0).abs() < 1e-9, "k is clamped");
        for i in 0..n {
            prop_assert!(mass(i) >= 0.0);
        }
        for i in 1..n {
            prop_assert!(mass(i) <= mass(i - 1) + 1e-12);
        }
    }

    /// Exact percentiles from `Series` bracket the sample extremes and are
    /// monotone in q.
    #[test]
    fn series_percentiles_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Series::new();
        for &x in &xs {
            s.add(x);
        }
        let p0 = s.percentile(0.0).unwrap();
        let p50 = s.percentile(0.5).unwrap();
        let p100 = s.percentile(1.0).unwrap();
        prop_assert!(p0 <= p50 && p50 <= p100);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(p0, min);
        prop_assert_eq!(p100, max);
    }
}
