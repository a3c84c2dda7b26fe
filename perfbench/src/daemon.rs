//! `daemon_drift`: an in-process `tempod` on a unix socket fed by two
//! closed-loop clients, one per tenant. Each client sends about one epoch
//! of frames, waits for the `SYNC` reply, and repeats; at the end it
//! fetches its layout, which must be byte-identical to an offline
//! [`Engine`] run over the same frames with the same settings.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tempo::cache::CacheConfig;
use tempo::obs::Snapshot;
use tempo::place::Gbsc;
use tempo::program::io::write_program;
use tempo::trace::source::pump;
use tempo::trace::v2::{scan_frames, V2Writer};
use tempo::trace::{MemorySource, Trace};
use tempo::trg::PopularitySelector;
use tempo::workloads::{suite, BenchmarkModel};
use tempo::{plan_epochs, Engine, EngineConfig};
use tempo_daemon::{split_frames, Client, DaemonConfig, Server, Tally};

use crate::out::{
    fnv64, histogram, layout_text, load_reference, required, save_reference, secs, Checker, Layers,
    Reference,
};
use crate::{seeded, Measurement};

/// Records per TMP2 frame: ten frames make one epoch.
const FRAME_RECORDS: usize = 2_000;
/// Records per engine epoch.
const EPOCH_RECORDS: u64 = 20_000;
/// Window decay below 1, so every epoch runs the decay/merge algebra.
const DECAY: f64 = 0.85;

/// One tenant: its program model and the inputs it streams, in order.
struct TenantSpec {
    name: &'static str,
    model: fn() -> BenchmarkModel,
    /// `(use the testing input?, records)` segments, concatenated.
    segments: &'static [(bool, usize)],
}

/// `perl` streams one steady input: the drift check skips nearly every
/// epoch. `m88ksim` streams its training input, then its deliberately
/// divergent testing input, which forces placements and adoptions.
const TENANTS: [TenantSpec; 2] = [
    TenantSpec {
        name: "perl",
        model: suite::perl,
        segments: &[(false, 600_000)],
    },
    TenantSpec {
        name: "m88ksim",
        model: suite::m88ksim,
        segments: &[(false, 300_000), (true, 300_000)],
    },
];

fn daemon_config() -> DaemonConfig {
    let mut config = DaemonConfig::new(CacheConfig::direct_mapped_8k());
    config.epoch_records = EPOCH_RECORDS;
    config.decay = DECAY;
    config
}

/// The engine settings a tenant worker derives from [`daemon_config`]
/// (`DaemonConfig::engine_config` is private to the daemon crate).
fn engine_config(config: &DaemonConfig) -> EngineConfig {
    let mut ec = EngineConfig::new(config.cache);
    ec.selector = PopularitySelector::coverage(config.coverage).with_min_count(config.min_count);
    ec.epoch_records = config.epoch_records;
    ec.decay = config.decay;
    ec.replace_threshold = config.replace_threshold;
    ec
}

fn path(dir: &Path, tenant: &str, ext: &str) -> PathBuf {
    dir.join(format!("{tenant}.{ext}"))
}

/// Writes each tenant's program and TMP2 stream, and the offline
/// reference: the layout an [`Engine`] adopts when run over the
/// generator's in-memory records in the epochs `plan_epochs` derives from
/// the file's frames, plus the tally the daemon must report.
pub fn setup(seed: u64, dir: &Path) -> Result<(), String> {
    let config = daemon_config();
    let mut reference = Reference::new();
    for t in &TENANTS {
        let model = (t.model)();
        let program = model.program();
        let mut trace = Trace::new();
        for &(testing, records) in t.segments {
            let input = if testing {
                model.testing_input()
            } else {
                model.training_input()
            };
            for r in model.trace(&seeded(input, seed), records).iter() {
                trace.push(*r);
            }
        }
        let mut text = Vec::new();
        write_program(&mut text, program).map_err(|e| format!("program serializes: {e}"))?;
        std::fs::write(path(dir, t.name, "program"), text)
            .map_err(|e| format!("write program: {e}"))?;
        let mut bytes = Vec::new();
        let mut writer = V2Writer::with_frame_records(&mut bytes, FRAME_RECORDS)
            .map_err(|e| format!("v2 writer: {e}"))?;
        pump(&mut MemorySource::new(&trace), &mut writer).map_err(|e| format!("encode: {e}"))?;
        writer.finish().map_err(|e| format!("encode: {e}"))?;
        std::fs::write(path(dir, t.name, "v2"), &bytes).map_err(|e| format!("write v2: {e}"))?;

        let frames = scan_frames(bytes.as_slice()).map_err(|e| format!("scan: {e}"))?;
        let plan = plan_epochs(&frames, config.epoch_records);
        let algorithm = Gbsc::new();
        let mut engine = Engine::new(program, &algorithm, engine_config(&config));
        let reports = engine
            .run_planned(MemorySource::new(&trace), &plan)
            .map_err(|e| format!("offline engine: {e}"))?;
        let layout = layout_text(engine.layout().ok_or("offline engine saw no epoch")?)?;
        reference.insert(format!("layout.{}", t.name), fnv64(layout.as_bytes()));
        std::fs::write(path(dir, t.name, "layout"), &layout)
            .map_err(|e| format!("write layout: {e}"))?;
        let want = Tally {
            frames: frames.len() as u64,
            records: trace.len() as u64,
            bad_frames: 0,
            budget_rejected: 0,
            epochs: reports.len() as u64,
            replacements: reports.iter().filter(|r| r.replaced).count() as u64,
        };
        reference.insert(format!("tally.{}", t.name), want.to_json());
    }
    save_reference(dir, &reference)
}

/// One tenant's inputs, loaded before the timed window.
struct TenantInputs {
    name: &'static str,
    program_text: String,
    frames: Vec<u8>,
    layout: String,
    records: u64,
}

/// What one client saw during one iteration.
#[derive(Default)]
struct ClientRun {
    checker: Checker,
    start: Option<Instant>,
    end: Option<Instant>,
    sync_ms: Vec<f64>,
    send_s: f64,
    layout_s: f64,
    /// The tenant's own metrics (`Client::stats`), traced runs only.
    stats: Option<Snapshot>,
}

pub fn measure(dir: &Path, seconds: f64, traced: bool) -> Result<Measurement, String> {
    let reference = load_reference(dir)?;
    let mut tenants = Vec::new();
    for t in &TENANTS {
        let read = |ext: &str| {
            std::fs::read(path(dir, t.name, ext)).map_err(|e| format!("read {}.{ext}: {e}", t.name))
        };
        tenants.push(TenantInputs {
            name: t.name,
            program_text: String::from_utf8(read("program")?).map_err(|e| e.to_string())?,
            frames: read("v2")?,
            layout: String::from_utf8(read("layout")?).map_err(|e| e.to_string())?,
            records: t.segments.iter().map(|s| s.1 as u64).sum(),
        });
    }
    let records: u64 = tenants.iter().map(|t| t.records).sum();
    let mut m = Measurement::new(records);
    let mut layers = Layers::default();
    // The socket lives in the work directory; a relative name keeps the
    // path under the unix-socket length limit wherever the checkout is.
    std::env::set_current_dir(dir).map_err(|e| format!("enter work dir: {e}"))?;
    iteration(0, &tenants, &reference, &mut m, None)?;
    m.sync_ms.clear();
    m.daemon_start_s.clear();
    let start = Instant::now();
    let mut i = 1;
    while secs(start) < seconds || i <= 3 {
        let traced_layers = traced.then_some(&mut layers);
        if let Some(wall) = iteration(i, &tenants, &reference, &mut m, traced_layers)? {
            m.pass_s.push(wall);
        }
        i += 1;
        if traced {
            for t in &TENANTS {
                let (n, s) = crate::offline::drain(&path(dir, t.name, "v2"))?;
                layers.ns_per_record("trace.decode_ns_per_record", s, n as f64);
            }
        }
    }
    if traced {
        m.layers = Some(layers);
    }
    Ok(m)
}

/// One iteration: start a daemon, stream both tenants concurrently,
/// fetch and check both layouts, shut the daemon down. Returns the wall
/// time from the first frame sent to the last layout served, or `None`
/// when a client failed before its layout (counted as a failed
/// operation).
fn iteration(
    i: usize,
    tenants: &[TenantInputs],
    reference: &Reference,
    m: &mut Measurement,
    layers: Option<&mut Layers>,
) -> Result<Option<f64>, String> {
    let socket = PathBuf::from(format!("tempod-{i}.sock"));
    let t = Instant::now();
    let server = Server::bind_unix(&socket, daemon_config()).map_err(|e| format!("bind: {e}"))?;
    let (runs, served) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.run());
        m.daemon_start_s.push(secs(t));
        let traced = layers.is_some();
        let clients: Vec<_> = tenants
            .iter()
            .map(|tenant| {
                let socket = &socket;
                scope.spawn(move || client(socket, tenant, reference, traced))
            })
            .collect();
        let runs: Vec<ClientRun> = clients
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| panic_run()))
            .collect();
        let stop = Client::connect_unix(&socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let served = match (stop, handle.join()) {
            (Ok(()), Ok(Ok(()))) => Ok(()),
            (Err(e), _) => Err(format!("shutdown: {e}")),
            (_, Ok(Err(e))) => Err(format!("serve loop: {e}")),
            (_, Err(_)) => Err("server thread panicked".to_string()),
        };
        (runs, served)
    });
    let _ = std::fs::remove_file(&socket);
    m.checker.outcome(served);
    let spans: Option<Vec<(Instant, Instant)>> =
        runs.iter().map(|r| Some((r.start?, r.end?))).collect();
    let wall = spans.and_then(|spans| {
        let first = spans.iter().map(|s| s.0).min()?;
        let last = spans.iter().map(|s| s.1).max()?;
        Some(last.duration_since(first).as_secs_f64())
    });
    if let Some(layers) = layers {
        for run in &runs {
            if let (Some(s), Some(e)) = (run.start, run.end) {
                let client_s = e.duration_since(s).as_secs_f64();
                layers.ratio("daemon.send_blocked_share", run.send_s, client_s);
                layers.ms_per_call("daemon.layout_ms", run.layout_s, 1.0);
            }
        }
        // A client that failed before its stats has failed an operation
        // already; the iteration then adds no work counts.
        let stats: Option<Vec<&Snapshot>> = runs.iter().map(|r| r.stats.as_ref()).collect();
        if let Some(stats) = stats {
            tenant_layers(&stats, m.records_per_pass, layers, &mut m.checker);
        }
    }
    for run in runs {
        m.sync_ms.extend(&run.sync_ms);
        m.checker.absorb(run.checker);
    }
    Ok(wall)
}

/// The engine's and the profiler's work in one iteration, from both
/// tenants' own metrics. Both tenants start fresh every iteration, so
/// their summed work counts repeat exactly. A counter or histogram a
/// tenant does not report is a failed operation, except
/// `engine.drift_skips`, which the engine registers at its first skip:
/// the steady `perl` tenant skips nearly every epoch, so it must appear
/// in at least one tenant.
fn tenant_layers(stats: &[&Snapshot], records: u64, layers: &mut Layers, checker: &mut Checker) {
    let sum = |name: &str| stats.iter().map(|s| s.counter(name)).sum::<Option<u64>>();
    for (name, counter) in [
        ("core.engine.epochs", "engine.epochs"),
        ("core.engine.placements", "engine.placements"),
        ("trg.qset_proc_evictions", "profile.qset_proc_evictions"),
        ("trg.qset_chunk_evictions", "profile.qset_chunk_evictions"),
        ("trg.trg_place_edges", "profile.trg_place_edges"),
    ] {
        layers.count(checker, name, sum(counter));
    }
    if let Some(reads) = required(checker, "trace.records_read", sum("trace.records_read")) {
        layers.ratio("trace.reads_per_record", reads as f64, records as f64);
    }
    let skips = stats.iter().filter_map(|s| s.counter("engine.drift_skips"));
    if let (Some(skips), Some(epochs)) = (
        required(checker, "engine.drift_skips", skips.reduce(|a, b| a + b)),
        sum("engine.epochs"),
    ) {
        layers.ratio("core.engine.skip_ratio", skips as f64, epochs as f64);
    }
    for (name, hist) in [
        ("core.engine.epoch_mean_ms", "engine.epoch"),
        ("core.engine.place_mean_ms", "engine.place"),
    ] {
        let each: Option<Vec<_>> = stats.iter().map(|s| histogram(s, hist)).collect();
        if let Some(each) = required(checker, hist, each) {
            let (sum, count) = each
                .iter()
                .fold((0.0, 0), |(s, c), h| (s + h.sum, c + h.count));
            layers.ratio(name, sum, count as f64);
        }
    }
}

fn panic_run() -> ClientRun {
    let mut run = ClientRun::default();
    run.checker.fail("client thread panicked".to_string());
    run
}

/// A closed-loop client: batches of about one epoch, each followed by a
/// `SYNC` whose round trip is one latency sample.
fn client(socket: &Path, tenant: &TenantInputs, reference: &Reference, traced: bool) -> ClientRun {
    let mut run = ClientRun::default();
    if let Err(e) = stream(socket, tenant, reference, traced, &mut run) {
        run.checker.fail(format!("{}: {e}", tenant.name));
    }
    run
}

fn stream(
    socket: &Path,
    tenant: &TenantInputs,
    reference: &Reference,
    traced: bool,
    run: &mut ClientRun,
) -> Result<(), String> {
    let frames = split_frames(&tenant.frames).map_err(|e| format!("split frames: {e}"))?;
    let batch = (EPOCH_RECORDS as usize).div_ceil(FRAME_RECORDS);
    let mut c = Client::connect_unix(socket).map_err(|e| format!("connect: {e}"))?;
    c.open(tenant.name, Some(&tenant.program_text))
        .map_err(|e| format!("open: {e}"))?;
    run.start = Some(Instant::now());
    for chunk in frames.chunks(batch) {
        for frame in chunk {
            if traced {
                let t = Instant::now();
                c.send_frame(frame).map_err(|e| format!("send: {e}"))?;
                run.send_s += secs(t);
            } else {
                c.send_frame(frame).map_err(|e| format!("send: {e}"))?;
            }
        }
        let t = Instant::now();
        c.sync().map_err(|e| format!("sync: {e}"))?;
        run.sync_ms.push(secs(t) * 1e3);
        run.checker.attempted += 1;
    }
    let t = Instant::now();
    let layout = c.layout().map_err(|e| format!("layout: {e}"))?;
    run.end = Some(Instant::now());
    run.layout_s = secs(t);
    run.checker.outcome(if layout == tenant.layout {
        Ok(())
    } else {
        Err(format!(
            "{}: served layout differs from the offline engine",
            tenant.name
        ))
    });
    let tally = c.sync().map_err(|e| format!("final sync: {e}"))?;
    // Every frame is one operation; a defective or budget-rejected one
    // is a failed operation.
    run.checker.attempted += frames.len() as u64;
    let rejected = tally.bad_frames + tally.budget_rejected;
    if rejected > 0 {
        run.checker.failed += rejected;
        run.checker
            .failures
            .push(format!("{}: {rejected} frames rejected", tenant.name));
    }
    run.checker.check(
        reference,
        &format!("tally.{}", tenant.name),
        &tally.to_json(),
    );
    if traced {
        let stats = c.stats().map_err(|e| format!("stats: {e}"))?;
        run.stats = Some(Snapshot::parse_json(&stats).map_err(|e| format!("stats reply: {e}"))?);
    }
    Ok(())
}
