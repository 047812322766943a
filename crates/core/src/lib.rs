//! PACER: proportional sampling data-race detection.
//!
//! This crate is the primary contribution of the reproduced paper (Bond,
//! Coons, McKinley, *PACER: Proportional Detection of Data Races*, PLDI
//! 2010). [`PacerDetector`] samples the FASTTRACK analysis over *global
//! sampling periods* and guarantees that any race whose **first** access
//! falls inside a sampling period is reported — so every dynamic race is
//! detected with probability equal to the sampling rate, and time/space
//! overheads scale with the sampling rate instead of with the program.
//!
//! The overhead reductions come from two mechanisms (§3):
//!
//! 1. **Metadata discard** (§3.3): during non-sampling periods PACER records
//!    no new accesses and *discards* read/write metadata as soon as it can
//!    no longer be the first access of a shortest race, so untracked
//!    variables cost a single null check.
//! 2. **Timeless periods** (§3.2): vector clocks stop incrementing outside
//!    sampling periods, so redundant synchronization produces *identical*
//!    clock values; [version epochs](pacer_clock::VersionEpoch) detect the
//!    redundancy and replace `O(n)` joins with `O(1)` checks, and
//!    copy-on-write sharing replaces `O(n)` copies with `O(1)` shallow
//!    copies.
//!
//! Sampling periods are delimited by [`Action::SampleBegin`] /
//! [`Action::SampleEnd`] markers in the event stream; the runtime crate
//! inserts them at simulated GC boundaries exactly as §4 describes, and
//! [`PeriodicSampler`] inserts them during plain trace replay.
//!
//! [`Action::SampleBegin`]: pacer_trace::Action::SampleBegin
//! [`Action::SampleEnd`]: pacer_trace::Action::SampleEnd
//!
//! # Examples
//!
//! ```
//! use pacer_core::PacerDetector;
//! use pacer_trace::{Detector, Trace};
//!
//! // The first write is sampled, so PACER must report the race with the
//! // later (unsampled) read — Figure 1's write–read race on y.
//! let trace = Trace::parse(
//!     "
//!     fork t0 t1
//!     sbegin
//!     wr t0 x0 s1
//!     send
//!     rd t1 x0 s2
//! ",
//! )?;
//! let mut pacer = PacerDetector::new();
//! pacer.run(&trace);
//! assert_eq!(pacer.races().len(), 1);
//! # Ok::<(), pacer_trace::ParseTraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod sampling;
mod state;

pub use detector::PacerDetector;
pub use sampling::{PeriodicSampler, RandomSampler, Sampled, SamplingPolicy};
// The operation counters moved to the observability crate (`pacer-obs`),
// which unifies them behind one `Metrics` snapshot; re-exported here so
// existing `pacer_core::PacerStats` call sites keep working.
pub use pacer_obs::{CopyCounts, JoinCounts, PacerStats, PathCounts};
