//! The streaming-equivalence contract (DESIGN.md §10): profiling and
//! simulating through `TraceSource` streams must be *indistinguishable*
//! from the materialized pipeline — identical `ProfileData`, identical
//! miss counts — for every kind of source (in-memory, v1 file, v2 file,
//! lazy generator), plus property tests over the v2 chunked container
//! including truncated and corrupt frames in lossy mode.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code asserts by panicking

use proptest::prelude::*;
use tempo::prelude::*;
use tempo::trace::io::{write_binary, V1Source};
use tempo::trace::v2::{read_binary_v2_lossy, write_binary_v2, V2Source};
use tempo::workloads::suite;

/// Pins the tentpole guarantee end to end: one materialized reference
/// profile, then the same profile re-derived through every streaming
/// source, all byte-equal; then layout evaluation through streams, all
/// miss counts equal.
#[test]
fn streaming_matches_materialized_across_all_sources() {
    let model = suite::perl();
    let program = model.program();
    let cache = CacheConfig::direct_mapped_8k();
    let records = 30_000;
    let train = model.training_trace(records);
    let test = model.testing_trace(records);

    let reference = Session::new(program, cache).profile(&train);

    // Lazy generator source (never materializes the training trace).
    let (from_generator, warnings) = Session::new(program, cache)
        .profile_with(|| Ok(model.training_source(records)))
        .unwrap();
    assert!(warnings.is_clean(), "generator stream warned: {warnings}");
    assert!(
        reference.profile() == from_generator.profile(),
        "generator-streamed profile differs from the materialized one"
    );

    // In-memory source over the materialized records.
    let (from_memory, _) = Session::new(program, cache)
        .profile_with(|| Ok(MemorySource::new(&train)))
        .unwrap();
    assert!(
        reference.profile() == from_memory.profile(),
        "memory-streamed profile differs from the materialized one"
    );

    // v1 binary container, streamed from its serialized bytes.
    let mut v1 = Vec::new();
    write_binary(&mut v1, &train).unwrap();
    let (from_v1, _) = Session::new(program, cache)
        .profile_with(|| V1Source::new(v1.as_slice()))
        .unwrap();
    assert!(
        reference.profile() == from_v1.profile(),
        "v1-streamed profile differs from the materialized one"
    );

    // v2 chunked container, streamed from its serialized bytes.
    let mut v2 = Vec::new();
    write_binary_v2(&mut v2, &train).unwrap();
    let (from_v2, _) = Session::new(program, cache)
        .profile_with(|| V2Source::new(v2.as_slice()))
        .unwrap();
    assert!(
        reference.profile() == from_v2.profile(),
        "v2-streamed profile differs from the materialized one"
    );

    // Evaluation: per-layout streaming and the shared-stream sweep must
    // reproduce the materialized miss counts exactly.
    let layouts = vec![
        Layout::source_order(program),
        reference.place(&PettisHansen::new()),
        reference.place(&Gbsc::new()),
    ];
    let materialized: Vec<SimStats> = layouts
        .iter()
        .map(|l| reference.evaluate(l, &test))
        .collect();
    for (layout, expected) in layouts.iter().zip(&materialized) {
        let streamed = reference
            .evaluate_source(layout, model.testing_source(records))
            .unwrap();
        assert_eq!(streamed, *expected, "per-layout streaming drifted");
    }
    let swept = reference
        .evaluate_layouts_streamed(&layouts, model.testing_source(records))
        .unwrap();
    assert_eq!(swept, materialized, "shared-stream sweep drifted");
}

/// Pins TMP2 file ingestion on a Table-1 workload: profiling and the
/// shared-stream layout sweep, both read through `V2Source` from a file on
/// disk, must reproduce the materialized profile and miss counts exactly.
#[test]
fn v2_file_ingestion_matches_materialized_on_table1_workload() {
    let model = suite::m88ksim();
    let program = model.program();
    let cache = CacheConfig::direct_mapped_8k();
    let records = 30_000;

    let dir = std::env::temp_dir().join(format!("tempo_streaming_tests_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("table1.v2");
    let train = model.training_trace(records);
    tempo::trace::testkit::write_v2_file(&path, &mut MemorySource::new(&train)).unwrap();
    let open = || V2Source::new(std::io::BufReader::new(std::fs::File::open(&path)?));

    let reference = Session::new(program, cache).profile(&train);
    let (from_file, warnings) = Session::new(program, cache).profile_with(open).unwrap();
    assert!(warnings.is_clean());
    assert!(
        reference.profile() == from_file.profile(),
        "file-ingested profile differs from the materialized one"
    );

    let layouts = vec![
        Layout::source_order(program),
        reference.place(&PettisHansen::new()),
        reference.place(&Gbsc::new()),
    ];
    let materialized: Vec<SimStats> = layouts
        .iter()
        .map(|l| reference.evaluate(l, &train))
        .collect();
    let swept = reference
        .evaluate_layouts_streamed(&layouts, open().unwrap())
        .unwrap();
    assert_eq!(swept, materialized, "miss counts drifted on file ingestion");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fixed 9-procedure program for the v2 container properties.
fn test_program() -> Program {
    let mut b = Program::builder();
    for (i, size) in [700u32, 1200, 300, 5000, 64, 2048, 900, 1500, 400]
        .into_iter()
        .enumerate()
    {
        b.procedure(format!("p{i}"), size);
    }
    b.build().unwrap()
}

/// Arbitrary record sequences over `test_program`: (proc index, extent).
fn arb_refs() -> impl Strategy<Value = Vec<(usize, u32)>> {
    prop::collection::vec((0usize..9, 1u32..64), 1..400)
}

fn to_trace(program: &Program, refs: &[(usize, u32)]) -> Trace {
    let ids: Vec<ProcId> = program.ids().collect();
    let mut t = Trace::default();
    for &(i, extent) in refs {
        let extent = extent.min(program.size_of(ids[i]));
        t.push(TraceRecord::new(ids[i], extent));
    }
    t
}

/// Serializes `trace` into the v2 container with `frame_records` records
/// per frame.
fn v2_bytes(trace: &Trace, frame_records: usize) -> Vec<u8> {
    tempo::trace::testkit::v2_bytes(trace, frame_records).unwrap()
}

/// Offsets of each frame (start, payload_len) in a serialized v2 stream.
fn v2_frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut pos = 8;
    while pos + 12 <= bytes.len() {
        let payload_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        frames.push((pos, payload_len));
        pos += 12 + payload_len;
    }
    frames
}

proptest! {
    /// Round trip: any record sequence survives the v2 container exactly,
    /// at any frame size, with clean warnings.
    #[test]
    fn v2_roundtrips_any_record_sequence(
        refs in arb_refs(),
        frame_records in 1usize..50,
    ) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let bytes = v2_bytes(&trace, frame_records);

        let mut source = V2Source::new(bytes.as_slice()).unwrap();
        let mut back = Trace::default();
        pump(&mut source, &mut back).unwrap();
        prop_assert_eq!(back.records(), trace.records());
        prop_assert!(source.warnings().is_clean());
    }

    /// Streaming profile equals materialized profile on arbitrary traces.
    #[test]
    fn streaming_profile_equals_materialized(refs in arb_refs()) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let cache = CacheConfig::direct_mapped_8k();
        let reference = Session::new(&program, cache).profile(&trace);
        let (streamed, warnings) = Session::new(&program, cache)
            .profile_with(|| Ok(MemorySource::new(&trace)))
            .unwrap();
        prop_assert!(warnings.is_clean());
        prop_assert!(reference.profile() == streamed.profile());
    }

    /// Lossy mode on a truncated v2 stream recovers a prefix of the
    /// original records (whole frames before the cut), never panics, and
    /// never fabricates records.
    #[test]
    fn v2_lossy_truncation_recovers_a_prefix(
        refs in arb_refs(),
        frame_records in 1usize..50,
        cut_fraction in 0.0f64..1.0,
    ) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let mut bytes = v2_bytes(&trace, frame_records);
        let cut = 8 + ((bytes.len() - 8) as f64 * cut_fraction) as usize;
        bytes.truncate(cut);

        let (back, _warnings) =
            read_binary_v2_lossy(bytes.as_slice(), Some(&program)).unwrap();
        let n = back.records().len();
        prop_assert!(n <= trace.records().len());
        prop_assert_eq!(back.records(), &trace.records()[..n]);
        // Whole frames survive: the recovered count is a multiple of the
        // frame size (except when everything survived).
        if n < trace.records().len() {
            prop_assert_eq!(n % frame_records, 0);
        }
    }

    /// Corrupting one payload byte loses exactly that frame in lossy mode
    /// (and only that frame); strict mode reports a corrupt frame.
    #[test]
    fn v2_lossy_skips_exactly_the_corrupt_frame(
        refs in arb_refs(),
        frame_records in 1usize..50,
        frame_pick in 0usize..10_000,
        byte_pick in 0usize..1_000_000,
    ) {
        let program = test_program();
        let trace = to_trace(&program, &refs);
        let mut bytes = v2_bytes(&trace, frame_records);
        let frames = v2_frames(&bytes);
        prop_assume!(!frames.is_empty());
        let k = frame_pick % frames.len();
        let (start, payload_len) = frames[k];
        prop_assume!(payload_len > 0);
        bytes[start + 12 + byte_pick % payload_len] ^= 0xA5;

        let mut strict = V2Source::new(bytes.as_slice()).unwrap();
        let mut sink = Trace::default();
        let err = pump(&mut strict, &mut sink).unwrap_err();
        prop_assert!(
            matches!(err, tempo::trace::io::TraceIoError::CorruptFrame { frame } if frame == k as u64),
            "unexpected strict error: {err}"
        );

        let (back, warnings) =
            read_binary_v2_lossy(bytes.as_slice(), Some(&program)).unwrap();
        prop_assert_eq!(warnings.bad_frames, 1);
        let lo = k * frame_records;
        let hi = (lo + frame_records).min(trace.records().len());
        let mut expected = trace.records()[..lo].to_vec();
        expected.extend_from_slice(&trace.records()[hi..]);
        prop_assert_eq!(back.records(), expected.as_slice());
    }

    /// The lossy `V2Source` and the daemon's standalone `decode_frame`
    /// agree on every container, including ones with a corrupted or
    /// truncated frame: the reader yields exactly the concatenation of the
    /// frames `decode_frame` accepts, its `bad_frames` tally equals
    /// `decode_frame`'s rejections, and each accepted frame holds exactly
    /// the records the writer cut into it. Daemon ≡ offline engine rests
    /// on this agreement.
    #[test]
    fn lossy_reader_agrees_with_decode_frame_under_corruption(
        refs in arb_refs(),
        frame_records in 1usize..50,
        mangle in any::<bool>(),
        frame_pick in 0usize..10_000,
        byte_pick in 0usize..1_000_000,
        truncate_tail in any::<bool>(),
    ) {
        use tempo::trace::v2::decode_frame;

        let program = test_program();
        let trace = to_trace(&program, &refs);
        let mut bytes = v2_bytes(&trace, frame_records);
        // The writer's frame boundaries, taken before any damage.
        let frames = v2_frames(&bytes);
        prop_assert_eq!(frames.len(), trace.len().div_ceil(frame_records));
        if mangle {
            let (start, payload_len) = frames[frame_pick % frames.len()];
            if payload_len > 0 {
                bytes[start + 12 + byte_pick % payload_len] ^= 0xA5;
            }
        }
        if truncate_tail && bytes.len() > 9 {
            bytes.truncate(bytes.len() - 1);
        }

        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for (k, &(start, payload_len)) in frames.iter().enumerate() {
            let end = (start + 12 + payload_len).min(bytes.len());
            match decode_frame(&bytes[start..end]) {
                Ok(records) => {
                    let lo = k * frame_records;
                    let hi = (lo + frame_records).min(trace.len());
                    prop_assert_eq!(records.as_slice(), &trace.records()[lo..hi]);
                    accepted.extend(records);
                }
                Err(_) => rejected += 1,
            }
        }
        let (back, warnings) =
            read_binary_v2_lossy(bytes.as_slice(), Some(&program)).unwrap();
        prop_assert_eq!(back.records(), accepted.as_slice());
        prop_assert_eq!(warnings.bad_frames, rejected);
    }
}
