//! Integration tests for the incremental epoch engine: equivalence with
//! the one-shot pipeline, window algebra under chunking, and the drift
//! check's skip-without-divergence contract.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code asserts by panicking

use proptest::prelude::*;
use tempo::prelude::*;
use tempo::trg::io::write_profile;
use tempo::{EngineConfig, EpochFolder};

fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(16u32..5000, 2..12).prop_map(|sizes| {
        let mut b = Program::builder();
        for (i, s) in sizes.iter().enumerate() {
            b.procedure(format!("p{i}"), *s);
        }
        b.build().expect("sizes are positive")
    })
}

prop_compose! {
    fn program_and_trace()(program in arb_program())(
        refs in prop::collection::vec(0..program.len(), 1..300),
        program in Just(program),
    ) -> (Program, Trace) {
        let ids: Vec<ProcId> = program.ids().collect();
        let trace = Trace::from_full_records(&program, refs.into_iter().map(|i| ids[i]));
        (program, trace)
    }
}

fn profile_bytes(profile: &ProfileData) -> Vec<u8> {
    let mut buf = Vec::new();
    write_profile(&mut buf, profile).expect("profile serializes");
    buf
}

proptest! {
    /// decay = 1.0 + a single epoch covering the whole trace is the
    /// one-shot pipeline: the window serializes byte-identically to the
    /// sequential profile and the adopted layout is the same placement.
    #[test]
    fn single_epoch_window_is_one_shot_profile((program, trace) in program_and_trace()) {
        let cache = CacheConfig::direct_mapped_8k();
        let session = Session::new(&program, cache)
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let one_shot = session.place(&Gbsc::new());

        let mut config = EngineConfig::new(cache);
        config.selector = PopularitySelector::all();
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(&program, &algorithm, config);
        let report = engine.observe_epoch(&trace);

        prop_assert!(report.placed && report.replaced);
        prop_assert_eq!(
            profile_bytes(engine.window().unwrap()),
            profile_bytes(session.profile())
        );
        prop_assert_eq!(engine.layout().unwrap(), &one_shot);
    }

    /// The undecayed window is chunking-invariant: any epoch split of the
    /// same records merges to the same aggregate weight totals (Q-set
    /// state resets at epoch seams, so seam-adjacent pair weights may
    /// differ; the WCG loses exactly the seam transitions).
    #[test]
    fn window_weight_is_chunking_invariant(
        (program, trace) in program_and_trace(),
        split in 1usize..5,
    ) {
        let cache = CacheConfig::direct_mapped_8k();
        let algorithm = Gbsc::new();
        let per = trace.len().div_ceil(split).max(1);

        let mut config = EngineConfig::new(cache);
        config.selector = PopularitySelector::all();
        let mut engine = Engine::new(&program, &algorithm, config);
        for chunk in trace.records().chunks(per) {
            engine.observe_epoch(&Trace::from_records(chunk.to_vec()));
        }

        let whole = Session::new(&program, cache)
            .popularity(PopularitySelector::all())
            .profile(&trace);
        let window = engine.window().unwrap();
        // Each seam loses its boundary transition — but only when the
        // boundary records name distinct procedures (self-transitions
        // never enter the WCG).
        let recs = trace.records();
        let mut lost = 0.0f64;
        let mut idx = per;
        while idx < recs.len() {
            if recs[idx - 1].proc != recs[idx].proc {
                lost += 1.0;
            }
            idx += per;
        }
        prop_assert!(
            (window.wcg.total_weight() + lost - whole.profile().wcg.total_weight()).abs()
                < f64::EPSILON * 1e3,
            "window {} + {} seams != whole {}",
            window.wcg.total_weight(),
            lost,
            whole.profile().wcg.total_weight()
        );
    }
}

proptest! {
    /// `plan_epochs` is a partition of the trace: the plan sums to the
    /// trace's total record count (zero-record frames included) and every
    /// epoch but the tail meets the target.
    #[test]
    fn plan_epochs_partitions_the_trace(
        counts in prop::collection::vec(0u32..5_000, 0..64),
        target in 1u64..10_000,
    ) {
        let frames: Vec<tempo::trace::v2::FrameEntry> = counts
            .iter()
            .map(|&records| tempo::trace::v2::FrameEntry {
                offset: 0,
                payload_len: 0,
                records,
            })
            .collect();
        let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        let plan = tempo::plan_epochs(&frames, target);

        prop_assert_eq!(plan.iter().sum::<u64>(), total, "plan must cover the trace");
        if total == 0 {
            prop_assert!(plan.is_empty(), "an empty trace plans no epochs");
        }
        for (i, &len) in plan.iter().enumerate() {
            prop_assert!(len > 0, "epoch {i} is empty");
            if i + 1 < plan.len() {
                prop_assert!(
                    len >= target,
                    "non-tail epoch {i} has {len} records, target {target}"
                );
            }
        }
    }
}

/// Cuts `counts`-sized frames of distinct records with an [`EpochFolder`]
/// at `target` and `ceiling`; returns the input records and the epochs,
/// the tail (if any) last.
fn fold_frames(
    counts: &[u32],
    target: u64,
    ceiling: u64,
) -> (Vec<TraceRecord>, Vec<Vec<TraceRecord>>) {
    let mut config = EngineConfig::new(CacheConfig::direct_mapped_8k());
    config.epoch_records = target;
    config.max_epoch_records = ceiling;
    let mut folder = EpochFolder::new(&config);
    let mut input = Vec::new();
    let mut epochs = Vec::new();
    for &count in counts {
        let frame: Vec<TraceRecord> = (0..count)
            .map(|i| TraceRecord::new(ProcId::new(0), input.len() as u32 + i + 1))
            .collect();
        input.extend_from_slice(&frame);
        folder.push(frame.into_iter(), true, |epoch| {
            epochs.push(epoch.records().to_vec());
        });
    }
    epochs.extend(folder.finish().map(|tail| tail.records().to_vec()));
    (input, epochs)
}

proptest! {
    /// The one epoch-boundary rule: epochs partition the input, never
    /// exceed the ceiling, and each ends at the first frame boundary where
    /// it holds the target or mid-frame at exactly the ceiling, whichever
    /// comes first. `plan_epochs` replays the same rule on frame counts.
    #[test]
    fn epoch_folder_cuts_at_the_first_boundary_or_the_ceiling(
        counts in prop::collection::vec(0u32..300, 0..40),
        target in 1u64..1_000,
        ceiling in 1u64..1_000,
    ) {
        let (input, epochs) = fold_frames(&counts, target, ceiling);
        prop_assert_eq!(epochs.concat(), input.clone(), "epochs must concatenate to the input");

        let mut boundaries = vec![0u64];
        for &c in &counts {
            boundaries.push(boundaries.last().unwrap() + u64::from(c));
        }
        let mut start = 0u64;
        for (i, epoch) in epochs.iter().enumerate() {
            let len = epoch.len() as u64;
            let end = start + len;
            prop_assert!(len > 0 && len <= ceiling, "epoch {i} has {len} records, ceiling {ceiling}");
            for &b in boundaries.iter().filter(|&&b| b > start && b < end) {
                prop_assert!(
                    b - start < target,
                    "epoch {i} passed a frame boundary holding {} >= target {target}",
                    b - start
                );
            }
            if i + 1 < epochs.len() {
                prop_assert!(
                    len == ceiling || (boundaries.contains(&end) && len >= target),
                    "non-tail epoch {i} ({start}..{end}) ends neither at the ceiling nor at a \
                     frame boundary holding the target"
                );
            }
            start = end;
        }

        let frames: Vec<tempo::trace::v2::FrameEntry> = counts
            .iter()
            .map(|&records| tempo::trace::v2::FrameEntry {
                offset: 0,
                payload_len: 0,
                records,
            })
            .collect();
        let (_, default_epochs) = fold_frames(&counts, target, tempo::MAX_EPOCH_RECORDS);
        prop_assert_eq!(
            tempo::plan_epochs(&frames, target),
            default_epochs.iter().map(|e| e.len() as u64).collect::<Vec<_>>(),
            "plan_epochs must replay the folder's cuts"
        );
    }
}

/// The engine is deterministic: two engines fed the same epochs produce
/// identical reports and layouts (no ambient state, no RNG).
#[test]
fn engine_runs_are_reproducible() {
    let model = tempo::workloads::suite::m88ksim();
    let trace = model.trace(&model.testing_input(), 20_000);
    let epochs: Vec<Trace> = trace
        .records()
        .chunks(4_000)
        .map(|c| Trace::from_records(c.to_vec()))
        .collect();

    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut config = EngineConfig::new(CacheConfig::direct_mapped_8k());
        config.selector = PopularitySelector::all();
        config.decay = 0.5;
        config.evaluate = true;
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(model.program(), &algorithm, config);
        let reports: Vec<_> = epochs.iter().map(|e| engine.observe_epoch(e)).collect();
        runs.push((reports, engine.layout().unwrap().clone()));
    }
    assert_eq!(runs[0].0, runs[1].0);
    assert_eq!(runs[0].1, runs[1].1);
}
