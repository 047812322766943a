//! Event model, traces, and the detector interface for the PACER suite.
//!
//! This crate defines the formal vocabulary of Appendix A of the paper:
//!
//! * [`Action`] — the nine dynamic actions (`rd`, `wr`, `acq`, `rel`,
//!   `fork`, `join`, `vol_rd`, `vol_wr`, plus the analysis-only
//!   `sbegin`/`send` sampling-period markers).
//! * [`Trace`] — a validated sequence of actions with a small hand-written
//!   text format for fixtures ([`Trace::parse`], [`Trace::to_text`]) and a
//!   compact checksummed binary format for captured workloads ([`binary`],
//!   spec in `TRACE_FORMAT.md`).
//! * [`Detector`] — the interface every race detector in the suite
//!   implements (GENERIC, FASTTRACK, PACER, LITERACE), producing
//!   [`RaceReport`]s.
//! * [`HbOracle`] — a ground-truth happens-before oracle that enumerates
//!   *all* races and *shortest* races of a trace (Definitions 4 and 5),
//!   used to verify precision, completeness, and PACER's sampled-race
//!   guarantee.
//! * [`gen`] — seeded random trace generators with lock-discipline and
//!   race-injection knobs for property testing.
//!
//! # Examples
//!
//! ```
//! use pacer_trace::{Action, Trace};
//! use pacer_clock::ThreadId;
//!
//! let text = "
//!     fork t0 t1
//!     wr t0 x0 s1
//!     rel t0 m0
//!     acq t1 m0
//!     rd t1 x0 s2
//!     join t0 t1
//! ";
//! let trace = Trace::parse(text)?;
//! assert_eq!(trace.len(), 6);
//! assert_eq!(trace.actions()[1].thread(), Some(ThreadId::new(0)));
//!
//! // The release/acquire on m0 orders the write before the read: race-free.
//! use pacer_trace::HbOracle;
//! assert!(HbOracle::analyze(&trace).is_race_free());
//! # Ok::<(), pacer_trace::ParseTraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod binary;
mod detector;
pub mod gen;
mod hb;
mod ids;
mod stats;
pub mod stream;
mod text;
mod trace;

pub use action::{AccessKind, Action};
pub use binary::{BinaryTraceError, StreamRecorder, TraceReader, TraceWriter};
pub use detector::{report_multiset, Access, Detector, RaceReport, RecordingDetector};
pub use hb::{HbOracle, RacePair};
pub use ids::{LockId, SiteId, VarId, VolatileId};
pub use stats::ActionStats;
pub use stream::{AnyTraceReader, TraceStreamError, ValidatedActions};
pub use text::ParseTraceError;
pub use trace::{Trace, TraceValidator, ValidateTraceError};
