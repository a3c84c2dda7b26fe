//! Trace representation.

use std::collections::HashMap;
use std::fmt;

use tempo_program::{ProcId, Program};

/// One control-flow transition into a procedure.
///
/// A record says "execution entered `proc` (by call, return, or fall-through)
/// and ran `bytes` bytes of it before the next transition". For a call the
/// extent typically covers the code up to the call site; for a return it
/// covers the code after the call site. The paper's algorithms only consume
/// the *sequence of procedure identifiers*; the byte extents additionally let
/// the cache simulator touch the right lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// The procedure entered.
    pub proc: ProcId,
    /// Bytes of the procedure executed, starting from its entry point,
    /// before the next transition. Always `>= 1` and `<=` the procedure
    /// size for traces built through [`TraceBuilder`].
    pub bytes: u32,
}

impl TraceRecord {
    /// Creates a record.
    pub fn new(proc: ProcId, bytes: u32) -> Self {
        TraceRecord { proc, bytes }
    }

    /// Whether the record fits `program`: a known procedure, and an
    /// extent within `1..=` its size.
    pub fn fits(&self, program: &Program) -> bool {
        let known = self.proc.as_usize() < program.len();
        known && self.bytes >= 1 && self.bytes <= program.size_of(self.proc)
    }
}

/// An in-memory procedure-grain execution trace.
///
/// Build one with [`TraceBuilder`] (validating) or from raw records.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Wraps raw records without validation.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Trace { records }
    }

    /// Builds a trace where each referenced procedure executes its full
    /// size — convenient for tests and small examples.
    pub fn from_full_records<I>(program: &Program, procs: I) -> Self
    where
        I: IntoIterator<Item = ProcId>,
    {
        Trace {
            records: procs
                .into_iter()
                .map(|p| TraceRecord::new(p, program.size_of(p)))
                .collect(),
        }
    }

    /// The records, in execution order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records (control-flow transitions).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Per-procedure dynamic reference counts (number of records naming each
    /// procedure). This is the popularity signal of §4 of the paper.
    ///
    /// Records naming procedures outside the program are ignored, so this is
    /// safe to call on unvalidated traces.
    pub fn reference_counts(&self, program: &Program) -> Vec<u64> {
        let mut counts = vec![0u64; program.len()];
        for r in &self.records {
            if let Some(c) = counts.get_mut(r.proc.as_usize()) {
                *c += 1;
            }
        }
        counts
    }

    /// Summary statistics for reporting (Table 1 style).
    ///
    /// Purely trace-derived — no [`Program`] is needed. Use
    /// [`crate::source::StatsSink`] to compute the same statistics from a
    /// stream without materializing the trace.
    pub fn stats(&self) -> TraceStats {
        let mut counts: HashMap<ProcId, u64> = HashMap::new();
        let mut total_bytes = 0u64;
        for r in &self.records {
            *counts.entry(r.proc).or_insert(0) += 1;
            total_bytes += u64::from(r.bytes);
        }
        TraceStats {
            records: self.records.len() as u64,
            distinct_procs: counts.len() as u64,
            executed_bytes: total_bytes,
        }
    }

    /// Checks every record against the program: known procedure, extent
    /// within bounds, extent nonzero.
    ///
    /// Returns the index of the first invalid record, or `Ok(())`.
    ///
    /// # Errors
    ///
    /// The error value is the index of the offending record.
    pub fn validate(&self, program: &Program) -> Result<(), usize> {
        match self.records.iter().position(|r| !r.fits(program)) {
            Some(i) => Err(i),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trace({} records)", self.records.len())
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of records (control-flow transitions).
    pub records: u64,
    /// Number of distinct procedures referenced.
    pub distinct_procs: u64,
    /// Total bytes executed across all records.
    pub executed_bytes: u64,
}

/// Validating builder for traces: clamps extents to procedure bounds and
/// rejects unknown procedures at push time.
#[derive(Debug)]
pub struct TraceBuilder<'p> {
    program: &'p Program,
    records: Vec<TraceRecord>,
}

impl<'p> TraceBuilder<'p> {
    /// Creates a builder for traces over `program`.
    pub fn new(program: &'p Program) -> Self {
        TraceBuilder {
            program,
            records: Vec::new(),
        }
    }

    /// Creates a builder with capacity for `n` records.
    ///
    /// The requested capacity is a hint: it is clamped to the same
    /// preallocation ceiling the trace readers apply to untrusted header
    /// counts, so a caller-supplied length (a CLI flag, a workload spec)
    /// cannot turn into an allocation abort. The vector still grows
    /// normally past the ceiling.
    pub fn with_capacity(program: &'p Program, n: usize) -> Self {
        let ceiling = usize::try_from(crate::io::PREALLOC_CAP).unwrap_or(usize::MAX);
        TraceBuilder {
            program,
            records: Vec::with_capacity(n.min(ceiling)),
        }
    }

    /// Records a transition into `proc` executing `bytes` bytes. The extent
    /// is clamped into `1..=size_of(proc)`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` does not belong to the program.
    pub fn transition(&mut self, proc: ProcId, bytes: u32) -> &mut Self {
        let size = self.program.size_of(proc); // panics on bad id
        self.records
            .push(TraceRecord::new(proc, bytes.clamp(1, size)));
        self
    }

    /// Records a transition into `proc` executing its full size.
    pub fn full(&mut self, proc: ProcId) -> &mut Self {
        let size = self.program.size_of(proc);
        self.records.push(TraceRecord::new(proc, size));
        self
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no records have been added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finishes the trace.
    pub fn build(self) -> Trace {
        Trace {
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog() -> Program {
        Program::builder()
            .procedure("m", 100)
            .procedure("x", 50)
            .procedure("y", 60)
            .build()
            .unwrap()
    }

    #[test]
    fn from_full_records_uses_sizes() {
        let p = prog();
        let t = Trace::from_full_records(&p, [ProcId::new(0), ProcId::new(1)]);
        assert_eq!(t.records()[0].bytes, 100);
        assert_eq!(t.records()[1].bytes, 50);
        t.validate(&p).unwrap();
    }

    #[test]
    fn builder_clamps_extents() {
        let p = prog();
        let mut b = TraceBuilder::new(&p);
        b.transition(ProcId::new(0), 0);
        b.transition(ProcId::new(0), 10_000);
        b.full(ProcId::new(2));
        let t = b.build();
        assert_eq!(t.records()[0].bytes, 1);
        assert_eq!(t.records()[1].bytes, 100);
        assert_eq!(t.records()[2].bytes, 60);
        t.validate(&p).unwrap();
    }

    #[test]
    fn validate_flags_bad_records() {
        let p = prog();
        let t = Trace::from_records(vec![
            TraceRecord::new(ProcId::new(0), 10),
            TraceRecord::new(ProcId::new(9), 10),
        ]);
        assert_eq!(t.validate(&p), Err(1));
        let t = Trace::from_records(vec![TraceRecord::new(ProcId::new(0), 0)]);
        assert_eq!(t.validate(&p), Err(0));
        let t = Trace::from_records(vec![TraceRecord::new(ProcId::new(1), 51)]);
        assert_eq!(t.validate(&p), Err(0));
    }

    #[test]
    fn reference_counts_count_records() {
        let p = prog();
        let t = Trace::from_full_records(
            &p,
            [
                ProcId::new(0),
                ProcId::new(1),
                ProcId::new(0),
                ProcId::new(0),
            ],
        );
        assert_eq!(t.reference_counts(&p), vec![3, 1, 0]);
    }

    #[test]
    fn stats_summarize() {
        let p = prog();
        let t = Trace::from_full_records(&p, [ProcId::new(0), ProcId::new(1)]);
        let s = t.stats();
        assert_eq!(s.records, 2);
        assert_eq!(s.distinct_procs, 2);
        assert_eq!(s.executed_bytes, 150);
    }

    #[test]
    fn collect_and_extend() {
        let recs = [
            TraceRecord::new(ProcId::new(0), 5),
            TraceRecord::new(ProcId::new(1), 6),
        ];
        let mut t: Trace = recs.iter().copied().collect();
        assert_eq!(t.len(), 2);
        t.extend([TraceRecord::new(ProcId::new(2), 7)]);
        assert_eq!(t.len(), 3);
        let back: Vec<TraceRecord> = t.clone().into_iter().collect();
        assert_eq!(back.len(), 3);
        assert_eq!((&t).into_iter().count(), 3);
    }

    #[test]
    fn empty_trace_behaves() {
        let p = prog();
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        t.validate(&p).unwrap();
        let s = t.stats();
        assert_eq!(s.records, 0);
        assert_eq!(s.distinct_procs, 0);
    }
}
