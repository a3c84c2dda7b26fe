//! The two offline workloads: `offline_perl` (the paper's pipeline on one
//! Table-1 program, profiling-bound) and `eval_gcc` (the largest Table-1
//! program evaluated over a slate of layouts and cache geometries,
//! simulation-bound). Both run profile → place → bound → simulate through
//! the public API; they differ only in their [`Spec`].

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tempo::analyze::{miss_bounds, screen_layouts};
use tempo::cache::{simulate, simulate_layouts_streamed, CacheConfig, SimStats, BLOCK_RECORDS};
use tempo::obs::Snapshot;
use tempo::place::{CacheColoring, Gbsc, PettisHansen, PlacementAlgorithm, SourceOrder};
use tempo::program::io::{read_program, write_program};
use tempo::program::{Layout, Program};
use tempo::trace::io::TraceIoError;
use tempo::trace::testkit::write_v2_file;
use tempo::trace::v2::V2Source;
use tempo::trace::{MemorySource, RecordBlock, TraceSource};
use tempo::trg::ProfileData;
use tempo::workloads::{suite, BenchmarkModel};
use tempo::{ProfiledSession, Session};

use crate::out::{
    fnv64, histogram, layout_text, load_reference, profile_digest, required, save_reference, secs,
    Checker, Layers, Reference,
};
use crate::{seeded, Measurement};

/// One offline workload's shape.
pub struct Spec {
    model: fn() -> BenchmarkModel,
    train_records: usize,
    test_records: usize,
    /// Placement algorithms, by the names the CLI uses.
    algorithms: &'static [&'static str],
    /// `(name, size, associativity)`, 32-byte lines. Associativity above 1
    /// is an LRU set-associative cache.
    geometries: &'static [(&'static str, u32, u32)],
    /// Records the pass carries end to end (the numerator of
    /// `records_per_s`).
    carried: fn(&Spec) -> u64,
}

/// perl, sized so that per-record profiling cost dominates fixed set-up:
/// the training file is read twice (popularity pass, then Q pass).
pub const OFFLINE_PERL: Spec = Spec {
    model: suite::perl,
    train_records: 2_000_000,
    test_records: 1_000_000,
    algorithms: &["gbsc", "ph", "hkc"],
    geometries: &[("dm8k", 8 * 1024, 1)],
    carried: |s| (s.train_records + s.test_records) as u64,
};

/// gcc (2005 procedures): a short training file, a long testing file
/// simulated for the whole slate on direct-mapped and LRU caches.
pub const EVAL_GCC: Spec = Spec {
    model: suite::gcc,
    train_records: 200_000,
    test_records: 1_000_000,
    algorithms: &["default", "ph", "hkc", "gbsc"],
    geometries: &[
        ("dm8k", 8 * 1024, 1),
        ("dm32k", 32 * 1024, 1),
        ("lru2w8k", 8 * 1024, 2),
        ("lru4w32k", 32 * 1024, 4),
    ],
    carried: |s| (s.test_records * s.geometries.len()) as u64,
};

/// The cache every profile and placement targets: the paper's 8 KB
/// direct-mapped cache.
fn target_cache() -> CacheConfig {
    CacheConfig::direct_mapped_8k()
}

fn geometry(size: u32, assoc: u32) -> CacheConfig {
    CacheConfig::new(size, 32, assoc).expect("benchmark geometries are valid")
}

fn algorithm(name: &str) -> Box<dyn PlacementAlgorithm> {
    match name {
        "default" => Box::new(SourceOrder::new()),
        "ph" => Box::new(PettisHansen::new()),
        "hkc" => Box::new(CacheColoring::new()),
        "gbsc" => Box::new(Gbsc::new()),
        other => unreachable!("unknown algorithm {other}"),
    }
}

fn train_path(dir: &Path) -> PathBuf {
    dir.join("train.v2")
}

fn test_path(dir: &Path) -> PathBuf {
    dir.join("test.v2")
}

fn program_path(dir: &Path) -> PathBuf {
    dir.join("program.txt")
}

/// Builds the program model, writes the seeded training and testing
/// inputs as TMP2 files, and records reference outputs computed over the
/// generator's in-memory traces with the scalar simulator — a path that
/// shares no decoding and no batched kernel with the measured one.
pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    let model = (spec.model)();
    let program = model.program();
    let train = model.trace(&seeded(model.training_input(), seed), spec.train_records);
    let test = model.trace(&seeded(model.testing_input(), seed), spec.test_records);
    let mut text = Vec::new();
    write_program(&mut text, program).map_err(|e| format!("program serializes: {e}"))?;
    std::fs::write(program_path(dir), text).map_err(|e| format!("write program: {e}"))?;
    for (path, trace) in [(train_path(dir), &train), (test_path(dir), &test)] {
        write_v2_file(&path, &mut MemorySource::new(trace))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let session = Session::new(program, target_cache()).profile(&train);
    let mut reference = Reference::new();
    reference.insert("profile".into(), profile_digest(session.profile())?);
    for &name in spec.algorithms {
        let layout = session.place(&*algorithm(name));
        reference.insert(
            format!("layout.{name}"),
            fnv64(layout_text(&layout)?.as_bytes()),
        );
        reference.insert(
            format!("bounds.{name}"),
            bounds_text(program, &layout, session.profile()),
        );
        for &(geo, size, assoc) in spec.geometries {
            let stats = simulate(program, &layout, &test, geometry(size, assoc));
            reference.insert(format!("misses.{geo}.{name}"), stats_text(&stats));
        }
    }
    save_reference(dir, &reference)
}

fn bounds_text(program: &Program, layout: &Layout, profile: &ProfileData) -> String {
    let b = miss_bounds(
        program,
        layout,
        profile.cache,
        &profile.popular,
        Some(&profile.trg_select),
    );
    format!("{} {}", b.lo, b.hi)
}

fn stats_text(s: &SimStats) -> String {
    format!("{} {} {}", s.records, s.accesses, s.misses)
}

/// Everything one measure run needs, loaded before the timed window.
struct Inputs {
    program: Program,
    train: PathBuf,
    test: PathBuf,
    reference: Reference,
}

fn load(dir: &Path) -> Result<Inputs, String> {
    let file = File::open(program_path(dir)).map_err(|e| format!("open program: {e}"))?;
    let program = read_program(BufReader::new(file)).map_err(|e| format!("parse program: {e}"))?;
    Ok(Inputs {
        program,
        train: train_path(dir),
        test: test_path(dir),
        reference: load_reference(dir)?,
    })
}

/// Timed passes until `seconds` have elapsed, after one warm-up pass.
/// Traced and untraced passes make the same calls; the traced ones also
/// time each call into a layer and read the program's own metrics
/// around the profile.
pub fn measure(spec: &Spec, dir: &Path, seconds: f64, traced: bool) -> Result<Measurement, String> {
    let inputs = load(dir)?;
    let mut m = Measurement::new((spec.carried)(spec));
    let mut layers = Layers::default();
    // Warm-up: fills the page cache and the allocator; checked, not timed.
    let warm_up = pass(spec, &inputs, None)?;
    check(spec, &inputs, &warm_up, &mut m.checker)?;
    let start = Instant::now();
    while secs(start) < seconds || m.pass_s.len() < 3 {
        let t = Instant::now();
        let out = pass(
            spec,
            &inputs,
            traced.then_some((&mut layers, &mut m.checker)),
        )?;
        let wall = secs(t);
        m.pass_s.push(wall);
        check(spec, &inputs, &out, &mut m.checker)?;
        if traced {
            layers.ratio("trg.profile_share", 0.0, wall);
            layers.ratio("cache.sim_share", 0.0, wall);
            decode_drain(&inputs, &mut layers)?;
        }
    }
    if traced {
        screen(&inputs.program, &warm_up, &mut layers);
        m.layers = Some(layers);
    }
    Ok(m)
}

/// What one pass produced, checked after its timer stops.
struct Output<'p> {
    session: ProfiledSession<'p>,
    layouts: Vec<Layout>,
    /// `miss_bounds` of each layout, as `lo hi`.
    bounds: Vec<String>,
    /// Per geometry, the simulation of every layout.
    misses: Vec<Vec<SimStats>>,
}

/// One pass of the pipeline: `Session::profile_with` over the training
/// file → place every algorithm → bound each layout → one shared
/// streamed simulation of the testing file per geometry. With `traced`,
/// adds each call's time to the layers, and the profile's two passes and
/// work counts from the program's own metrics.
fn pass<'p>(
    spec: &Spec,
    inputs: &'p Inputs,
    mut traced: Option<(&mut Layers, &mut Checker)>,
) -> Result<Output<'p>, String> {
    let program = &inputs.program;
    let io = |e: TraceIoError| format!("trace read: {e}");

    let before = traced.is_some().then(tempo::obs::snapshot);
    let (session, _) = Session::new(program, target_cache())
        .profile_with(|| open_v2(&inputs.train))
        .map_err(io)?;
    if let (Some((layers, checker)), Some(before)) = (traced.as_mut(), before) {
        profile_layers(spec, &before, &tempo::obs::snapshot(), layers, checker);
    }

    let mut layouts = Vec::with_capacity(spec.algorithms.len());
    let mut bounds = Vec::with_capacity(spec.algorithms.len());
    for &name in spec.algorithms {
        let algo = algorithm(name);
        let t = Instant::now();
        let layout = session.place(&*algo);
        let placed = secs(t);
        let t = Instant::now();
        bounds.push(bounds_text(program, &layout, session.profile()));
        let bounded = secs(t);
        if let Some((layers, _)) = traced.as_mut() {
            layers.ms_per_call(&format!("place.{name}_ms"), placed, 1.0);
            layers.ms_per_call("analyze.bounds_ms", bounded, 1.0);
        }
        layouts.push(layout);
    }

    let mut misses = Vec::with_capacity(spec.geometries.len());
    for &(_, size, assoc) in spec.geometries {
        let t = Instant::now();
        let stats = simulate_layouts_streamed(
            program,
            &layouts,
            open_v2(&inputs.test).map_err(io)?,
            geometry(size, assoc),
        )
        .map_err(io)?;
        if let Some((layers, _)) = traced.as_mut() {
            let kind = if assoc == 1 { "dm" } else { "lru" };
            let s = secs(t);
            let record_layouts = (spec.test_records * layouts.len()) as f64;
            layers.ns_per_record(
                &format!("cache.{kind}_ns_per_record_layout"),
                s,
                record_layouts,
            );
            layers.ratio("cache.sim_share", s, 0.0);
        }
        misses.push(stats);
    }
    Ok(Output {
        session,
        layouts,
        bounds,
        misses,
    })
}

/// The profile's split and work counts, from the program's metrics
/// before and after one `profile_with` call: its `stage.profile.*` spans
/// (one sample each per call), the `trace.records_read` counter and the
/// `profile.*` counters. An absent metric is a failed operation.
fn profile_layers(
    spec: &Spec,
    before: &Snapshot,
    after: &Snapshot,
    layers: &mut Layers,
    checker: &mut Checker,
) {
    let records = spec.train_records as f64;
    let mut profile_s = 0.0;
    for (stage, metric) in [
        ("stage.profile.popularity", "trg.popularity"),
        ("stage.profile.qpass", "trg.qpass"),
    ] {
        let Some(now) = required(checker, stage, histogram(after, stage)) else {
            continue;
        };
        let was = histogram(before, stage).map_or((0, 0.0), |h| (h.count, h.sum));
        let (calls, s) = (now.count - was.0, (now.sum - was.1) / 1e3);
        checker.outcome(if calls == 1 {
            Ok(())
        } else {
            Err(format!("{stage}: {calls} samples for one profile"))
        });
        layers.ms_per_call(&format!("{metric}_ms"), s, 1.0);
        layers.ns_per_record(&format!("{metric}_ns_per_record"), s, records);
        profile_s += s;
    }
    layers.ratio("trg.profile_share", profile_s, 0.0);
    let delta = |name: &str| Some(after.counter(name)? - before.counter(name).unwrap_or(0));
    if let Some(reads) = required(checker, "trace.records_read", delta("trace.records_read")) {
        layers.ratio("trace.reads_per_record", reads as f64, records);
    }
    for (name, counter) in [
        ("trg.qset_proc_evictions", "profile.qset_proc_evictions"),
        ("trg.qset_chunk_evictions", "profile.qset_chunk_evictions"),
        ("trg.trg_place_edges", "profile.trg_place_edges"),
    ] {
        layers.count(checker, name, delta(counter));
    }
}

/// Checks every output of a pass against the reference: the profile
/// digest, each layout's digest and bounds, each miss count.
fn check(spec: &Spec, inputs: &Inputs, out: &Output, checker: &mut Checker) -> Result<(), String> {
    let reference = &inputs.reference;
    checker.check(
        reference,
        "profile",
        &profile_digest(out.session.profile())?,
    );
    for ((&name, layout), bounds) in spec.algorithms.iter().zip(&out.layouts).zip(&out.bounds) {
        let digest = fnv64(layout_text(layout)?.as_bytes());
        checker.check(reference, &format!("layout.{name}"), &digest);
        checker.check(reference, &format!("bounds.{name}"), bounds);
    }
    for (&(geo, ..), stats) in spec.geometries.iter().zip(&out.misses) {
        for (&name, s) in spec.algorithms.iter().zip(stats) {
            checker.check(reference, &format!("misses.{geo}.{name}"), &stats_text(s));
        }
    }
    Ok(())
}

/// Would a bound-based prefilter have spared the simulator any of the
/// slate? Measured once per run, outside the timed passes: the passes
/// simulate every layout, and on gcc the screen costs several passes'
/// worth of time.
fn screen(program: &Program, out: &Output, layers: &mut Layers) {
    let profile = out.session.profile();
    let refs: Vec<&Layout> = out.layouts.iter().collect();
    let report = screen_layouts(
        program,
        profile.cache,
        &profile.popular,
        Some(&profile.trg_select),
        Some(&profile.trg_place),
        &refs,
    );
    let provable = report
        .layouts
        .iter()
        .filter(|s| s.skip && s.provable)
        .count();
    layers.ratio(
        "analyze.screen_skip_ratio",
        provable as f64,
        refs.len() as f64,
    );
}

/// A strict streaming reader over a TMP2 file: the ingest path every
/// workload uses.
fn open_v2(path: &Path) -> Result<V2Source<'static, BufReader<File>>, TraceIoError> {
    V2Source::new(BufReader::new(File::open(path)?))
}

/// Drains both TMP2 files through `V2Source` block reads: the decode cost
/// alone, with no consumer behind it.
fn decode_drain(inputs: &Inputs, layers: &mut Layers) -> Result<(), String> {
    for path in [&inputs.train, &inputs.test] {
        let (records, s) = drain(path)?;
        layers.ns_per_record("trace.decode_ns_per_record", s, records as f64);
    }
    Ok(())
}

/// Reads a TMP2 file to its end; returns the records and seconds taken.
pub fn drain(path: &Path) -> Result<(u64, f64), String> {
    let t = Instant::now();
    let mut source = open_v2(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut block = RecordBlock::with_capacity(BLOCK_RECORDS);
    let mut records = 0u64;
    loop {
        let n = source
            .try_next_block(&mut block, BLOCK_RECORDS)
            .map_err(|e| format!("decode: {e}"))?;
        if n == 0 {
            break;
        }
        records += n as u64;
        std::hint::black_box(&block);
    }
    Ok((records, secs(t)))
}
