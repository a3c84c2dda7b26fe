//! Measurement half of tempo's benchmark. `perfbench/run.py` drives it:
//!
//! ```text
//! tempo-perfbench setup   --workload W --seed N --dir D
//! tempo-perfbench measure --workload W --dir D --seconds S --trace 0|1
//! ```
//!
//! `setup` writes the seeded inputs and their reference outputs into `D`
//! and prints its own wall time. `measure` runs the workload against the
//! public library API for `S` seconds, checks every output against the
//! reference, and prints one JSON object of raw samples (pass times,
//! `SYNC` latencies) and, traced, each per-layer metric under its final
//! name as `[numerator, base, scale]`. `run.py` turns those into metrics.

mod daemon;
mod offline;
mod out;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tempo::workloads::InputSpec;

use out::{secs, Checker, JsonObject, Layers};

/// The benchmark's workloads, by name.
const WORKLOADS: [&str; 3] = ["offline_perl", "eval_gcc", "daemon_drift"];

/// The model's input with its executor seed mixed with the benchmark
/// seed: the program stays the Table-1 program, the records change.
pub fn seeded(input: InputSpec, seed: u64) -> InputSpec {
    // splitmix64 finalizer, so neighbouring seeds give unrelated streams.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    InputSpec {
        seed: input.seed ^ z ^ (z >> 31),
        ..input
    }
}

/// Raw samples from one measure window.
pub struct Measurement {
    /// Input records one pass carries end to end.
    pub records_per_pass: u64,
    /// Wall seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// `SYNC` round trips, daemon workload only.
    pub sync_ms: Vec<f64>,
    /// Daemon start times (bind + accept thread), daemon workload only.
    pub daemon_start_s: Vec<f64>,
    pub checker: Checker,
    pub layers: Option<Layers>,
}

impl Measurement {
    pub fn new(records_per_pass: u64) -> Self {
        Measurement {
            records_per_pass,
            pass_s: Vec::new(),
            sync_ms: Vec::new(),
            daemon_start_s: Vec::new(),
            checker: Checker::default(),
            layers: None,
        }
    }

    fn to_json(&self) -> JsonObject {
        let mut obj = JsonObject::default();
        obj.int("records_per_pass", self.records_per_pass)
            .nums("pass_s", &self.pass_s)
            .nums("sync_ms", &self.sync_ms)
            .nums("daemon_start_s", &self.daemon_start_s)
            .int("attempted", self.checker.attempted)
            .int("failed", self.checker.failed)
            .strs("failures", &self.checker.failures);
        if let Some(layers) = &self.layers {
            obj.object("layers", &layers.to_json());
        }
        obj
    }
}

struct Args {
    command: String,
    workload: String,
    dir: PathBuf,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it
        .next()
        .ok_or("usage: tempo-perfbench setup|measure ...")?;
    let mut args = Args {
        command,
        workload: String::new(),
        dir: PathBuf::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--dir" => args.dir = PathBuf::from(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    args.dir = std::fs::canonicalize(&args.dir)
        .map_err(|e| format!("--dir {}: {e}", args.dir.display()))?;
    Ok(args)
}

fn setup(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    match workload {
        "offline_perl" => offline::setup(&offline::OFFLINE_PERL, seed, dir),
        "eval_gcc" => offline::setup(&offline::EVAL_GCC, seed, dir),
        _ => daemon::setup(seed, dir),
    }
}

fn measure(workload: &str, dir: &Path, seconds: f64, traced: bool) -> Result<Measurement, String> {
    match workload {
        "offline_perl" => offline::measure(&offline::OFFLINE_PERL, dir, seconds, traced),
        "eval_gcc" => offline::measure(&offline::EVAL_GCC, dir, seconds, traced),
        _ => daemon::measure(dir, seconds, traced),
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "setup" => {
            let t = Instant::now();
            setup(&args.workload, args.seed, &args.dir)?;
            let mut obj = JsonObject::default();
            obj.num("setup_s", secs(t));
            Ok(obj.render())
        }
        "measure" => {
            // With tracing, half the window is untraced (the baseline for
            // the tracing overhead) and half traced.
            let mut obj = JsonObject::default();
            if args.trace {
                let half = args.seconds / 2.0;
                let plain = measure(&args.workload, &args.dir, half, false)?;
                let traced = measure(&args.workload, &args.dir, half, true)?;
                obj.object("untraced", &plain.to_json())
                    .object("traced", &traced.to_json());
            } else {
                let plain = measure(&args.workload, &args.dir, args.seconds, false)?;
                obj.object("untraced", &plain.to_json());
            }
            Ok(obj.render())
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tempo-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
