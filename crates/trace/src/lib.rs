//! Procedure-grain execution traces for the **tempo** toolkit.
//!
//! The paper drives every placement algorithm from a program trace: an
//! ordered record of control-flow transitions between procedures (calls
//! *and* returns). This crate defines:
//!
//! * [`TraceRecord`] / [`Trace`] — the trace representation. Each record is
//!   one control-flow transition *into* a procedure together with the number
//!   of bytes executed before the next transition, which is what a
//!   line-accurate instruction-cache simulation needs.
//! * [`source`] — the streaming dataflow vocabulary: [`TraceSource`]
//!   producers, [`TraceSink`] consumers, the [`pump`] driver loop, and
//!   [`Tee`] fan-out, so pipelines process traces of any length in
//!   constant memory (DESIGN.md §10).
//! * [`io`] — the v1 binary container (fixed records, count up front) plus
//!   a human-readable text format; strict and lossy streaming readers.
//! * [`v2`] — the v2 chunked binary container: CRC-framed blocks of varint
//!   records, streamable and lossy-recoverable frame by frame.
//! * [`testkit`] — TMP2 fixture builders shared by integration tests and
//!   the bench harness (in-memory containers at a chosen frame
//!   granularity, constant-memory file fixtures from any source).
//! * [`stats`] — the small statistical samplers (normal, lognormal, Zipf)
//!   used by the workload substrate and the profile-perturbation machinery,
//!   implemented in-repo so the only randomness dependency is `rand`.
//! * [`analysis`] — reuse-distance and working-set analysis of traces,
//!   the quantities the paper's Q-set bound reasons about.
//!
//! # Example
//!
//! ```
//! use tempo_program::{Program, ProcId};
//! use tempo_trace::{Trace, TraceRecord};
//!
//! let program = Program::builder()
//!     .procedure("m", 128)
//!     .procedure("x", 64)
//!     .build()?;
//! let m = program.proc_id("m").unwrap();
//! let x = program.proc_id("x").unwrap();
//!
//! // m calls x, x returns to m: three transitions.
//! let trace = Trace::from_full_records(&program, [m, x, m]);
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.records()[1].proc, x);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// In the test build, `unwrap` IS the assertion.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::cast_possible_truncation))]

pub mod analysis;
pub mod io;
pub mod obs;
pub mod source;
pub mod stats;
pub mod testkit;
mod trace;
pub mod v2;

pub use source::{pump, MemorySource, PumpSummary, RecordBlock, Tee, TraceSink, TraceSource};
pub use trace::{Trace, TraceBuilder, TraceRecord, TraceStats};
