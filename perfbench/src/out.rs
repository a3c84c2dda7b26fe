//! Shared plumbing: digests, the reference file, output checking, the
//! per-layer ledger and the JSON that `run.py` turns into metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use tempo::obs::{HistogramSummary, MetricValue, Snapshot};
use tempo::program::io::write_layout;
use tempo::program::Layout;
use tempo::trg::io::write_profile;
use tempo::trg::ProfileData;

/// FNV-1a, 64 bit: a stable digest for layouts and profiles.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A layout in `tempo-layout` text form, exactly as the CLI and the daemon
/// serve it.
pub fn layout_text(layout: &Layout) -> Result<String, String> {
    let mut buf = Vec::new();
    write_layout(&mut buf, layout).map_err(|e| format!("layout serializes: {e}"))?;
    String::from_utf8(buf).map_err(|e| format!("layout text is UTF-8: {e}"))
}

/// Digest of a profile's serialized form (all three graphs, the popular
/// set and the Q statistics).
pub fn profile_digest(profile: &ProfileData) -> Result<String, String> {
    let mut buf = Vec::new();
    write_profile(&mut buf, profile).map_err(|e| format!("profile serializes: {e}"))?;
    Ok(fnv64(&buf))
}

/// Reference values, one `key<TAB>value` line each, in key order.
pub type Reference = BTreeMap<String, String>;

pub const REFERENCE_FILE: &str = "reference.tsv";

pub fn save_reference(dir: &Path, reference: &Reference) -> Result<(), String> {
    let mut text = String::new();
    for (k, v) in reference {
        let _ = writeln!(text, "{k}\t{v}");
    }
    std::fs::write(dir.join(REFERENCE_FILE), text).map_err(|e| format!("write reference: {e}"))
}

pub fn load_reference(dir: &Path) -> Result<Reference, String> {
    let text = std::fs::read_to_string(dir.join(REFERENCE_FILE))
        .map_err(|e| format!("read reference (run setup first): {e}"))?;
    text.lines()
        .map(|line| {
            line.split_once('\t')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("malformed reference line: {line}"))
        })
        .collect()
}

/// Counts checked operations and the ones whose output differs from the
/// reference. A run with any failure reports `correct: false`.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checker {
    /// One operation whose output `got` must equal the reference at `key`.
    pub fn check(&mut self, reference: &Reference, key: &str, got: &str) {
        match reference.get(key) {
            Some(want) if want == got => self.attempted += 1,
            Some(want) => self.fail(format!("{key}: got {got}, want {want}")),
            None => self.fail(format!("{key}: no reference value")),
        }
    }

    /// One operation that either succeeded or failed with `message`.
    pub fn outcome(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.attempted += 1,
            Err(message) => self.fail(message),
        }
    }

    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        // Enough to diagnose; a systematic mismatch repeats every pass.
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A minimal JSON object writer (the benchmark has no serde).
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() {
            format!("{value:e}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), v));
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }

    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| json_string(v)).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }

    pub fn object(&mut self, key: &str, value: &JsonObject) -> &mut Self {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The per-layer metrics of one traced window, each under its final name
/// as a running `(numerator, base, scale)`: its value is
/// `numerator × scale ÷ base`. Every timed call or counter reading adds
/// to both sums, so a metric over many passes is the ratio of totals.
/// `run.py` only divides, validates the names against `BENCHMARK.json`
/// and renders.
#[derive(Default)]
pub struct Layers {
    ratios: BTreeMap<String, [f64; 3]>,
    /// First reading of each work count, which every later pass repeats.
    firsts: BTreeMap<String, u64>,
}

impl Layers {
    fn add(&mut self, name: &str, numerator: f64, base: f64, scale: f64) {
        let r = self
            .ratios
            .entry(name.to_string())
            .or_insert([0.0, 0.0, scale]);
        debug_assert_eq!(r[2], scale, "{name} changed its scale");
        r[0] += numerator;
        r[1] += base;
    }

    /// Milliseconds per call.
    pub fn ms_per_call(&mut self, name: &str, seconds: f64, calls: f64) {
        self.add(name, seconds, calls, 1e3);
    }

    /// Nanoseconds per record.
    pub fn ns_per_record(&mut self, name: &str, seconds: f64, records: f64) {
        self.add(name, seconds, records, 1e9);
    }

    /// A plain ratio: a share, a mean or a per-record count.
    pub fn ratio(&mut self, name: &str, numerator: f64, base: f64) {
        self.add(name, numerator, base, 1.0);
    }

    /// Adds one pass's work count (a per-pass mean over the window). The
    /// count must be present and must repeat exactly from pass to pass;
    /// an absent or differing count is a failed operation and adds
    /// nothing.
    pub fn count(&mut self, checker: &mut Checker, name: &str, value: Option<u64>) {
        let Some(value) = value else {
            return checker.fail(format!("{name}: the program reported no value"));
        };
        self.ratio(name, value as f64, 1.0);
        let first = *self.firsts.entry(name.to_string()).or_insert(value);
        checker.outcome(if first == value {
            Ok(())
        } else {
            Err(format!("{name}: {value} this pass, {first} on the first"))
        });
    }

    pub fn to_json(&self) -> JsonObject {
        let mut obj = JsonObject::default();
        for (name, r) in &self.ratios {
            obj.nums(name, r);
        }
        obj
    }
}

/// A value the program must report, as a checked operation: `None` (a
/// counter or histogram absent from its registry) is a failed one.
pub fn required<T>(checker: &mut Checker, what: &str, value: Option<T>) -> Option<T> {
    checker.outcome(match value {
        Some(_) => Ok(()),
        None => Err(format!("{what}: absent from the program's metrics")),
    });
    value
}

/// A histogram's summary from a snapshot, `None` when absent.
pub fn histogram(snapshot: &Snapshot, name: &str) -> Option<HistogramSummary> {
    match snapshot.get(name) {
        Some(MetricValue::Histogram(h)) => Some(*h),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        assert_eq!(fnv64(b""), "cbf29ce484222325");
        assert_eq!(fnv64(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn checker_counts_every_mismatch_as_a_failed_operation() {
        let mut reference = Reference::new();
        reference.insert("k".to_string(), "1".to_string());
        let mut c = Checker::default();
        c.check(&reference, "k", "1");
        c.check(&reference, "k", "2");
        c.check(&reference, "missing", "1");
        c.outcome(Err("connection reset".to_string()));
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn layers_keep_ratios_of_totals_under_their_final_names() {
        let mut l = Layers::default();
        l.ms_per_call("place.gbsc_ms", 0.002, 1.0);
        l.ms_per_call("place.gbsc_ms", 0.004, 1.0);
        l.ns_per_record("trace.decode_ns_per_record", 0.5, 1e6);
        assert_eq!(
            l.to_json().render(),
            r#"{"place.gbsc_ms":[6e-3,2e0,1e3],"trace.decode_ns_per_record":[5e-1,1e6,1e9]}"#
        );
    }

    #[test]
    fn an_absent_or_changed_work_count_is_a_failed_operation() {
        let mut l = Layers::default();
        let mut c = Checker::default();
        l.count(&mut c, "trg.trg_place_edges", Some(7));
        l.count(&mut c, "trg.trg_place_edges", Some(7));
        assert_eq!((c.attempted, c.failed), (2, 0));
        l.count(&mut c, "trg.trg_place_edges", Some(8));
        l.count(&mut c, "trg.trg_place_edges", None);
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(required(&mut c, "engine.epochs", None::<u64>), None);
        assert_eq!(required(&mut c, "engine.epochs", Some(3)), Some(3));
        assert_eq!((c.attempted, c.failed), (6, 3));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut o = JsonObject::default();
        o.strs("f", &["a\"b\\c\n".to_string()]);
        assert_eq!(o.render(), r#"{"f":["a\"b\\c\u000a"]}"#);
    }
}
