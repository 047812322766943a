//! Experiment harness: multi-trial runners, detection-rate computation,
//! overhead and space measurement, and table/figure rendering.
//!
//! This crate drives every experiment in the paper's evaluation (§5):
//!
//! * [`trials`] — compile-once workload running under any detector
//!   configuration, with the §5.1 trial-count formula
//!   `numTrials_r = min(max(⌈1000%/r⌉, 50), 500)`;
//! * [`detection`] — the §5.1/§5.2 methodology: a race *census* at a 100%
//!   sampling rate selects the *evaluation races* (those occurring in at
//!   least half the fully sampled trials), then sampled trials measure
//!   dynamic and distinct detection rates per race (Figures 3–6);
//! * [`overhead`] — wall-clock slowdown of each instrumentation
//!   configuration relative to the uninstrumented VM (Figures 7–9);
//! * [`space`] — live metadata + heap over normalized time via full-GC
//!   probes (Figure 10);
//! * [`census`] — thread/race counts (Table 2), effective sampling rates
//!   (Table 1), and operation counts (Table 3);
//! * [`fleet`] — the distributed-debugging deployment simulation from the
//!   paper's vision (§1): many instances, each sampling at a low rate;
//! * [`observed`] — the same trials wrapped in the observability layer
//!   ([`pacer_obs`]): each run also yields a unified metrics snapshot and
//!   a JSONL event trace, byte-identical at any job count;
//! * [`parallel`] — the deterministic trial engine: multi-trial loops fan
//!   out over a scoped worker pool ([`parallel::set_jobs`]) and merge in
//!   trial-index order, so results are bit-identical at any job count;
//! * [`resilient`] — the crash-resilient layer over [`parallel`]: every
//!   trial attempt runs under `catch_unwind` with deterministic capped
//!   retries, persistent failures are *quarantined* instead of aborting
//!   the campaign, and [`resilient::run_resilient_fleet`] checkpoints
//!   each completed trial to a journal it can later resume from
//!   byte-identically, and — when a [`pacer_governor`] budget is armed —
//!   merges per-trial degradation outcomes (rate steps, cooperative
//!   cancellations) into a [`resilient::GovernorReport`] next to the
//!   quarantine report (see `RESILIENCE.md`);
//! * [`journal`] — the append-only, checksummed checkpoint journal
//!   backing that resume path;
//! * [`shard`] — the shard unit both engines are built from: a worker
//!   thread owning detector state behind a bounded inbox, with balanced
//!   and checked feeds;
//! * [`service`] — the streaming detection service behind `pacer serve`:
//!   many concurrent `.ptrace` sessions, each run whole on the shard its
//!   name hashes to, with deterministic merged transcripts, journal
//!   checkpoint/resume, and governor-driven admission shedding (see
//!   `SERVICE.md`);
//! * [`render`] — plain-text tables and data series for every table and
//!   figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod detection;
pub mod fleet;
pub mod journal;
pub mod math;
pub mod observed;
pub mod overhead;
pub mod parallel;
pub mod render;
pub mod resilient;
pub mod service;
pub mod shard;
pub mod space;
pub mod trials;

pub use detection::{DetectionResult, RaceCensus};
pub use resilient::{
    artifact_io_backoff, retry_artifact_io, run_resilient_fleet, DegradedTrial, EngineError,
    FleetEngineConfig, GovernorReport, QuarantineReport, QuarantinedTrial, ResilientFleet,
    RetryPolicy,
};
pub use service::{
    run_service, serve_sessions, DurableFrameError, DurableOpen, FrameAck, ServeConfig,
    ServeDetectorKind, ServeError, ServeOutput, ServiceHandle, SessionOutcome, SessionReport,
};
pub use shard::{ShardDown, ShardLost, Supervisor};
pub use trials::{num_trials, record_trial_trace, DetectorKind, RaceKey, TrialResult};
