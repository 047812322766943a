//! Observability layer for the PACER suite: a unified metrics registry,
//! structured event tracing, and space-over-time accounting.
//!
//! PACER's evaluation (§5 of the paper) is an observability story: fast vs
//! slow joins, shallow vs deep copies, and metadata bytes retained over
//! time are what demonstrate that overhead scales with the sampling rate
//! `r`. This crate is the single substrate all of those measurements flow
//! through:
//!
//! * [`Registry`] — a zero-external-dependency, cheap-when-disabled sink
//!   for monotonic counters, log₂-bucket [`Histogram`]s, typed [`Event`]s,
//!   and [`SpaceRecord`]s. Every recording method starts with one branch on
//!   the enabled flag, so a disabled registry costs a predictable-taken
//!   branch and performs **no allocation** on the hot path.
//! * [`Metrics`] — one immutable snapshot type unifying the per-detector
//!   [`PacerStats`] counters (Tables 1 and 3), [`RuntimeCounters`] from the
//!   simulated runtime, histograms, and the space-over-time curve
//!   (Fig. 7). Snapshots merge deterministically and serialize to JSON
//!   with no wall-clock, pointer, or floating-point content, so output is
//!   byte-identical across `--jobs` levels.
//! * [`Event`] / [`EventRing`] — a bounded ring buffer of typed events
//!   (sampling-period boundaries, race reports, escape-analysis decisions,
//!   shallow→deep copy promotions, GC-boundary space samples) with a
//!   compact JSONL writer for offline inspection.
//! * [`Observed`] — a wrapper that lets any [`ObservableDetector`] report
//!   into a registry by diffing its state around each action, leaving the
//!   wrapped detector's hot path completely untouched.
//!
//! The counter types ([`PacerStats`], [`JoinCounts`], [`CopyCounts`],
//! [`PathCounts`]) live here and are re-exported by `pacer-core` for
//! backward compatibility.
//!
//! See `OBSERVABILITY.md` at the workspace root for the full metric and
//! event reference, including the paper table/figure each maps to.
//!
//! # Examples
//!
//! ```
//! use pacer_obs::{Observed, Registry, RegistryConfig};
//! use pacer_trace::{Detector, Trace};
//!
//! // Any detector implementing `ObservableDetector` can be observed; the
//! // trace crate's RecordingDetector is not one, so this example uses the
//! // registry directly.
//! let mut reg = Registry::enabled(RegistryConfig::default());
//! reg.record_hist(pacer_obs::HistKind::PeriodSyncOps, 17);
//! let metrics = reg.metrics();
//! assert_eq!(metrics.hist(pacer_obs::HistKind::PeriodSyncOps).count, 1);
//!
//! // A disabled registry records nothing and allocates nothing.
//! let mut off = Registry::disabled();
//! off.record_hist(pacer_obs::HistKind::PeriodSyncOps, 17);
//! assert_eq!(off.metrics().hist(pacer_obs::HistKind::PeriodSyncOps).count, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
mod metrics;
mod observe;
mod registry;
mod space;
mod stats;

pub use event::{Event, EventRing};
pub use hist::{HistKind, Histogram, HIST_BUCKETS, HIST_COUNT};
pub use metrics::{
    serve_metrics_json, FaultCounters, FuzzCounters, GovernorCounters, Metrics, MetricsParseError,
    RuntimeCounters, ServeCounters, SessionCounters, TransportCounters,
};
pub use observe::{ObservableDetector, Observed};
pub use registry::{Registry, RegistryConfig};
pub use space::{SpaceBreakdown, SpaceRecord};
pub use stats::{CopyCounts, JoinCounts, PacerStats, PathCounts};
