//! The unified [`Metrics`] snapshot type.

use std::fmt;
use std::ops::AddAssign;

use pacer_collections::JsonValue;

use crate::hist::{HistKind, Histogram, HIST_COUNT};
use crate::json;
use crate::space::SpaceRecord;
use crate::stats::PacerStats;

/// Counters the simulated runtime contributes to a snapshot.
///
/// `trials` makes merged snapshots interpretable: averaging any other
/// counter over `trials` recovers a per-run figure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Runs merged into this snapshot.
    pub trials: u64,
    /// VM instructions executed.
    pub steps: u64,
    /// Nursery collections.
    pub gcs: u64,
    /// Full-heap collections (one space sample each).
    pub full_gcs: u64,
    /// Field accesses elided by escape analysis (never instrumented).
    pub elided_accesses: u64,
    /// Bytes allocated (program + charged metadata).
    pub allocated_bytes: u64,
    /// Threads ever started (including main).
    pub threads_started: u64,
    /// Maximum simultaneously live threads, summed over trials (divide by
    /// `trials` for the mean).
    pub max_live_threads: u64,
}

impl AddAssign for RuntimeCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.trials += rhs.trials;
        self.steps += rhs.steps;
        self.gcs += rhs.gcs;
        self.full_gcs += rhs.full_gcs;
        self.elided_accesses += rhs.elided_accesses;
        self.allocated_bytes += rhs.allocated_bytes;
        self.threads_started += rhs.threads_started;
        self.max_live_threads += rhs.max_live_threads;
    }
}

impl RuntimeCounters {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "trials", self.trials);
        json::field_u64(out, &mut first, "steps", self.steps);
        json::field_u64(out, &mut first, "gcs", self.gcs);
        json::field_u64(out, &mut first, "full_gcs", self.full_gcs);
        json::field_u64(out, &mut first, "elided_accesses", self.elided_accesses);
        json::field_u64(out, &mut first, "allocated_bytes", self.allocated_bytes);
        json::field_u64(out, &mut first, "threads_started", self.threads_started);
        json::field_u64(out, &mut first, "max_live_threads", self.max_live_threads);
        out.push('}');
    }
}

/// Per-shard counters the streaming detection service (`pacer serve`)
/// reports — one instance per shard worker, summed for the fleet total.
///
/// Deterministic for every detector at a fixed shard count and session
/// set: each session runs whole on the shard its name hashes to, so
/// neither arrival order, interleaving nor handler scheduling changes
/// any count (see `SERVICE.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Sessions that materialized detector state in this shard.
    pub sessions: u64,
    /// Events this shard processed: the events of the sessions placed on
    /// it. Counted once per event — supervised replays never double-count.
    pub events: u64,
    /// Data-variable accesses among those events.
    pub accesses: u64,
    /// Dynamic races this shard's detectors reported.
    pub races: u64,
    /// Supervised restarts: panics caught in this shard's worker, each
    /// followed by a deterministic replay rebuild (RESILIENCE.md).
    pub shard_restarts: u64,
    /// Sessions this shard abandoned with a `ShardLost` note after a
    /// unit of work exhausted its restart budget.
    pub sessions_lost: u64,
}

impl AddAssign for ServeCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.sessions += rhs.sessions;
        self.events += rhs.events;
        self.accesses += rhs.accesses;
        self.races += rhs.races;
        self.shard_restarts += rhs.shard_restarts;
        self.sessions_lost += rhs.sessions_lost;
    }
}

impl ServeCounters {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "sessions", self.sessions);
        json::field_u64(out, &mut first, "events", self.events);
        json::field_u64(out, &mut first, "accesses", self.accesses);
        json::field_u64(out, &mut first, "races", self.races);
        json::field_u64(out, &mut first, "shard_restarts", self.shard_restarts);
        json::field_u64(out, &mut first, "sessions_lost", self.sessions_lost);
        out.push('}');
    }

    /// One counter object as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// True when this shard processed nothing.
    pub fn is_zero(&self) -> bool {
        *self == ServeCounters::default()
    }
}

/// Service-level session lifecycle accounting for `pacer serve` — one
/// instance per service run, alongside the per-shard [`ServeCounters`].
///
/// The outcome buckets are disjoint and exhaustive: every admitted
/// session lands in exactly one of `completed`, `shed`, `failed`, or
/// `reaped`, so `admitted == completed + shed + failed + reaped` holds
/// at the end of any run — including runs with supervised shard
/// restarts (`tests/serve_chaos.rs` enforces the conservation law).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Sessions admitted (including duplicates and journal restores).
    pub admitted: u64,
    /// Sessions that completed at full sampling rate (truncated partials
    /// included — truncation is a partial success).
    pub completed: u64,
    /// Sessions the governor admitted at a reduced sampling rate and
    /// that then completed.
    pub shed: u64,
    /// Sessions rejected: corrupt or invalid streams, duplicate names,
    /// deadline overruns, and `ShardLost` casualties.
    pub failed: u64,
    /// Socket sessions reaped by the idle timeout.
    pub reaped: u64,
    /// Of `admitted`, how many were restored verbatim from the resume
    /// journal (informational; restores also land in an outcome bucket).
    pub restored: u64,
}

impl AddAssign for SessionCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.admitted += rhs.admitted;
        self.completed += rhs.completed;
        self.shed += rhs.shed;
        self.failed += rhs.failed;
        self.reaped += rhs.reaped;
        self.restored += rhs.restored;
    }
}

impl SessionCounters {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "admitted", self.admitted);
        json::field_u64(out, &mut first, "completed", self.completed);
        json::field_u64(out, &mut first, "shed", self.shed);
        json::field_u64(out, &mut first, "failed", self.failed);
        json::field_u64(out, &mut first, "reaped", self.reaped);
        json::field_u64(out, &mut first, "restored", self.restored);
        out.push('}');
    }

    /// One counter object as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// The conservation law every run must satisfy (see type docs).
    pub fn conserved(&self) -> bool {
        self.admitted == self.completed + self.shed + self.failed + self.reaped
    }
}

/// Durable-transport counters for `pacer serve --tcp` — one instance per
/// service run, covering the accept loop, the per-frame ack channel, and
/// the per-session write-ahead segments (schema in OBSERVABILITY.md).
///
/// The exactly-once invariant is checkable from these: every frame a
/// client retransmits past the server's applied offset lands in
/// `frames_deduped` instead of being applied twice, so after any
/// disconnect/reconnect pattern `frames_deduped` equals the
/// retransmitted-frame overlap and the session report stays byte-identical
/// to an uninterrupted replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Connections the TCP accept loop handed to a session handler.
    pub connections: u64,
    /// `RESUME` handshakes honored: reattached to a live slot, rebuilt
    /// from a write-ahead segment, or re-served a completed report.
    pub session_resumes: u64,
    /// `RESUME` handshakes rejected (unknown session, unreadable
    /// segment).
    pub resumes_rejected: u64,
    /// `ACK` lines written back to clients (handshake and per-frame).
    pub acks_sent: u64,
    /// Frames appended durably to write-ahead segments.
    pub frames_journaled: u64,
    /// Frames skipped as duplicate or overlapping retransmits — each one
    /// an exactly-once dedup at the applied-offset watermark.
    pub frames_deduped: u64,
}

impl AddAssign for TransportCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.connections += rhs.connections;
        self.session_resumes += rhs.session_resumes;
        self.resumes_rejected += rhs.resumes_rejected;
        self.acks_sent += rhs.acks_sent;
        self.frames_journaled += rhs.frames_journaled;
        self.frames_deduped += rhs.frames_deduped;
    }
}

impl TransportCounters {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "connections", self.connections);
        json::field_u64(out, &mut first, "session_resumes", self.session_resumes);
        json::field_u64(out, &mut first, "resumes_rejected", self.resumes_rejected);
        json::field_u64(out, &mut first, "acks_sent", self.acks_sent);
        json::field_u64(out, &mut first, "frames_journaled", self.frames_journaled);
        json::field_u64(out, &mut first, "frames_deduped", self.frames_deduped);
        out.push('}');
    }

    /// One counter object as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// True when no durable transport activity happened (e.g. a unix or
    /// framed-stdin run).
    pub fn is_zero(&self) -> bool {
        *self == TransportCounters::default()
    }
}

/// The `pacer serve --metrics-out` snapshot: every shard's counters in
/// shard-index order, their sum, the service-level session lifecycle
/// buckets, and the durable-transport counters (schema in
/// OBSERVABILITY.md).
pub fn serve_metrics_json(
    shards: &[ServeCounters],
    sessions: &SessionCounters,
    transport: &TransportCounters,
) -> String {
    let mut total = ServeCounters::default();
    let mut out = String::from("{\n  \"serve\": {\n    \"shards\": [");
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        s.write_json(&mut out);
        total += *s;
    }
    out.push_str("],\n    \"total\": ");
    total.write_json(&mut out);
    out.push_str(",\n    \"sessions\": ");
    sessions.write_json(&mut out);
    out.push_str(",\n    \"transport\": ");
    transport.write_json(&mut out);
    out.push_str("\n  }\n}\n");
    out
}

/// Counters the differential fuzzer contributes to a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuzzCounters {
    /// Programs generated and oracle-checked.
    pub programs: u64,
    /// VM executions across all oracle runs.
    pub vm_runs: u64,
    /// Schedule seeds abandoned because the VM returned an error.
    pub vm_errors: u64,
    /// Ground-truth races summed over programs and schedule seeds.
    pub truth_races: u64,
    /// Oracle violations recorded.
    pub violations: u64,
    /// Shrink candidate programs tested against the failure predicate.
    pub shrink_attempts: u64,
    /// Shrink candidates accepted (each one a strictly smaller program).
    pub shrink_successes: u64,
}

impl AddAssign for FuzzCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.programs += rhs.programs;
        self.vm_runs += rhs.vm_runs;
        self.vm_errors += rhs.vm_errors;
        self.truth_races += rhs.truth_races;
        self.violations += rhs.violations;
        self.shrink_attempts += rhs.shrink_attempts;
        self.shrink_successes += rhs.shrink_successes;
    }
}

impl FuzzCounters {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "programs", self.programs);
        json::field_u64(out, &mut first, "vm_runs", self.vm_runs);
        json::field_u64(out, &mut first, "vm_errors", self.vm_errors);
        json::field_u64(out, &mut first, "truth_races", self.truth_races);
        json::field_u64(out, &mut first, "violations", self.violations);
        json::field_u64(out, &mut first, "shrink_attempts", self.shrink_attempts);
        json::field_u64(out, &mut first, "shrink_successes", self.shrink_successes);
        out.push('}');
    }
}

/// Counters a fault-injection campaign contributes to a snapshot.
///
/// Recorded by the harness's resilient trial engine, not the VM: the
/// engine sees every attempt's outcome and can classify injected
/// failures by their `injected:` message prefix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Injected failures that actually fired (across all attempts).
    pub injected: u64,
    /// Trials that experienced at least one injected failure.
    pub hit: u64,
    /// Retry attempts consumed recovering from failures.
    pub retried: u64,
    /// Trials that exhausted retries and were quarantined.
    pub quarantined: u64,
}

impl AddAssign for FaultCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.injected += rhs.injected;
        self.hit += rhs.hit;
        self.retried += rhs.retried;
        self.quarantined += rhs.quarantined;
    }
}

impl FaultCounters {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "injected", self.injected);
        json::field_u64(out, &mut first, "hit", self.hit);
        json::field_u64(out, &mut first, "retried", self.retried);
        json::field_u64(out, &mut first, "quarantined", self.quarantined);
        out.push('}');
    }

    fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }
}

/// Counters a resource-governed campaign contributes to a snapshot.
///
/// Filled at merge time by the harness's resilient engine from per-trial
/// governor summaries, mirroring how [`FaultCounters`] are gathered: the
/// engine sees every trial's outcome in index order, so the roll-up stays
/// byte-identical at any `--jobs N`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorCounters {
    /// Sampling-rate steps taken down the ladder (all trials).
    pub steps_down: u64,
    /// Sampling-rate steps taken back up after pressure cleared.
    pub steps_up: u64,
    /// Hard budget breaches observed (including cancelling ones).
    pub breaches: u64,
    /// Trials that finished at a rate below their configured start.
    pub degraded: u64,
    /// Trials cancelled cooperatively at the ladder floor.
    pub cancelled: u64,
}

impl AddAssign for GovernorCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.steps_down += rhs.steps_down;
        self.steps_up += rhs.steps_up;
        self.breaches += rhs.breaches;
        self.degraded += rhs.degraded;
        self.cancelled += rhs.cancelled;
    }
}

impl GovernorCounters {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "steps_down", self.steps_down);
        json::field_u64(out, &mut first, "steps_up", self.steps_up);
        json::field_u64(out, &mut first, "breaches", self.breaches);
        json::field_u64(out, &mut first, "degraded", self.degraded);
        json::field_u64(out, &mut first, "cancelled", self.cancelled);
        out.push('}');
    }

    /// True when no governor activity was recorded.
    pub fn is_zero(&self) -> bool {
        *self == GovernorCounters::default()
    }
}

/// One immutable snapshot of everything the observability layer gathered:
/// the detector's [`PacerStats`] (Tables 1 and 3), [`RuntimeCounters`],
/// histograms, the space-over-time curve (Fig. 7), and event-ring totals.
///
/// Snapshots [`merge`](Self::merge) associatively — the harness merges
/// per-instance snapshots in instance-index order, which together with the
/// integer-only JSON encoding makes output byte-identical at any `--jobs`
/// level.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// PACER's operation counters (zero for non-PACER detectors).
    pub detector: PacerStats,
    /// Dynamic race reports across all merged runs.
    pub races_reported: u64,
    /// Runtime counters.
    pub runtime: RuntimeCounters,
    /// Differential-fuzzer counters (zero outside `pacer fuzz`).
    pub fuzz: FuzzCounters,
    /// Fault-injection counters (zero unless a fault plan was armed).
    pub faults: FaultCounters,
    /// Resource-governor counters (zero unless a budget was armed).
    pub governor: GovernorCounters,
    /// Histograms, indexed by [`HistKind`].
    pub hists: [Histogram; HIST_COUNT],
    /// Space samples in run order (per run, in GC order; merged runs
    /// concatenate in merge order).
    pub space: Vec<SpaceRecord>,
    /// Events pushed into the ring (retained + dropped).
    pub events_recorded: u64,
    /// Events the ring evicted.
    pub events_dropped: u64,
}

impl Metrics {
    /// The histogram for `kind`.
    pub fn hist(&self, kind: HistKind) -> &Histogram {
        &self.hists[kind.index()]
    }

    /// Merges `other` into `self`. Order matters only for the
    /// concatenation order of [`space`](Self::space) samples, so callers
    /// that need determinism merge in a fixed (index) order.
    pub fn merge(&mut self, other: &Metrics) {
        self.detector += other.detector;
        self.races_reported += other.races_reported;
        self.runtime += other.runtime;
        self.fuzz += other.fuzz;
        self.faults += other.faults;
        self.governor += other.governor;
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
        self.space.extend_from_slice(&other.space);
        self.events_recorded += other.events_recorded;
        self.events_dropped += other.events_dropped;
    }

    /// Peak metadata footprint across all space samples, in words.
    pub fn peak_metadata_words(&self) -> u64 {
        self.space
            .iter()
            .map(|s| s.breakdown.total_words())
            .max()
            .unwrap_or(0)
    }

    /// Serializes the snapshot as deterministic JSON: integers only (no
    /// floats, no wall-clock times, no pointers), keys in a fixed order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"detector\": ");
        write_stats_json(&self.detector, &mut out);
        out.push_str(",\n  \"races_reported\": ");
        out.push_str(&self.races_reported.to_string());
        out.push_str(",\n  \"runtime\": ");
        self.runtime.write_json(&mut out);
        out.push_str(",\n  \"fuzz\": ");
        self.fuzz.write_json(&mut out);
        out.push_str(",\n  \"faults\": ");
        self.faults.write_json(&mut out);
        out.push_str(",\n  \"governor\": ");
        self.governor.write_json(&mut out);
        out.push_str(",\n  \"histograms\": {");
        for (i, kind) in HistKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::string(&mut out, kind.name());
            out.push_str(": ");
            self.hists[kind.index()].write_json(&mut out);
        }
        out.push_str("\n  },\n  \"space\": [");
        for (i, rec) in self.space.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            rec.write_json(&mut out);
        }
        if !self.space.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"events\": {\"recorded\": ");
        out.push_str(&self.events_recorded.to_string());
        out.push_str(", \"dropped\": ");
        out.push_str(&self.events_dropped.to_string());
        out.push_str("}\n}\n");
        out
    }

    /// Parses a snapshot previously serialized by [`to_json`](Self::to_json).
    ///
    /// The round-trip is exact — `Metrics::from_json(&m.to_json()) == m` —
    /// which is what lets a resumed fleet run re-merge checkpointed
    /// per-instance snapshots into artifacts byte-identical to an
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns a [`MetricsParseError`] (never panics) on truncated,
    /// garbage, or schema-mismatched input.
    pub fn from_json(text: &str) -> Result<Metrics, MetricsParseError> {
        let root = JsonValue::parse(text).map_err(|e| MetricsParseError {
            message: e.to_string(),
        })?;
        let schema = require_u64(&root, "schema")?;
        if schema != 1 {
            return Err(MetricsParseError {
                message: format!("unsupported metrics schema {schema}"),
            });
        }
        let mut m = Metrics {
            races_reported: require_u64(&root, "races_reported")?,
            events_recorded: 0,
            events_dropped: 0,
            ..Metrics::default()
        };

        let det = require(&root, "detector")?;
        m.detector = PacerStats {
            joins: crate::stats::JoinCounts {
                sampling_slow: require_u64(det, "joins_sampling_slow")?,
                sampling_fast: require_u64(det, "joins_sampling_fast")?,
                non_sampling_slow: require_u64(det, "joins_non_sampling_slow")?,
                non_sampling_fast: require_u64(det, "joins_non_sampling_fast")?,
            },
            copies: crate::stats::CopyCounts {
                sampling_deep: require_u64(det, "copies_sampling_deep")?,
                sampling_shallow: require_u64(det, "copies_sampling_shallow")?,
                non_sampling_deep: require_u64(det, "copies_non_sampling_deep")?,
                non_sampling_shallow: require_u64(det, "copies_non_sampling_shallow")?,
            },
            reads: crate::stats::PathCounts {
                sampling_slow: require_u64(det, "reads_sampling_slow")?,
                non_sampling_slow: require_u64(det, "reads_non_sampling_slow")?,
                non_sampling_fast: require_u64(det, "reads_non_sampling_fast")?,
            },
            writes: crate::stats::PathCounts {
                sampling_slow: require_u64(det, "writes_sampling_slow")?,
                non_sampling_slow: require_u64(det, "writes_non_sampling_slow")?,
                non_sampling_fast: require_u64(det, "writes_non_sampling_fast")?,
            },
            cow_clones: require_u64(det, "cow_clones")?,
            sample_periods: require_u64(det, "sample_periods")?,
            sampled_sync_ops: require_u64(det, "sampled_sync_ops")?,
            unsampled_sync_ops: require_u64(det, "unsampled_sync_ops")?,
        };

        let rt = require(&root, "runtime")?;
        m.runtime = RuntimeCounters {
            trials: require_u64(rt, "trials")?,
            steps: require_u64(rt, "steps")?,
            gcs: require_u64(rt, "gcs")?,
            full_gcs: require_u64(rt, "full_gcs")?,
            elided_accesses: require_u64(rt, "elided_accesses")?,
            allocated_bytes: require_u64(rt, "allocated_bytes")?,
            threads_started: require_u64(rt, "threads_started")?,
            max_live_threads: require_u64(rt, "max_live_threads")?,
        };

        let fz = require(&root, "fuzz")?;
        m.fuzz = FuzzCounters {
            programs: require_u64(fz, "programs")?,
            vm_runs: require_u64(fz, "vm_runs")?,
            vm_errors: require_u64(fz, "vm_errors")?,
            truth_races: require_u64(fz, "truth_races")?,
            violations: require_u64(fz, "violations")?,
            shrink_attempts: require_u64(fz, "shrink_attempts")?,
            shrink_successes: require_u64(fz, "shrink_successes")?,
        };

        // `faults` is absent from pre-resilience snapshots; default it.
        if let Some(ft) = root.get("faults") {
            m.faults = FaultCounters {
                injected: require_u64(ft, "injected")?,
                hit: require_u64(ft, "hit")?,
                retried: require_u64(ft, "retried")?,
                quarantined: require_u64(ft, "quarantined")?,
            };
        }

        // `governor` is absent from pre-governor snapshots; default it.
        if let Some(gv) = root.get("governor") {
            m.governor = GovernorCounters {
                steps_down: require_u64(gv, "steps_down")?,
                steps_up: require_u64(gv, "steps_up")?,
                breaches: require_u64(gv, "breaches")?,
                degraded: require_u64(gv, "degraded")?,
                cancelled: require_u64(gv, "cancelled")?,
            };
        }

        let hists = require(&root, "histograms")?;
        for kind in HistKind::ALL {
            let h = require(hists, kind.name())?;
            let mut pairs = Vec::new();
            for pair in require(h, "buckets")?
                .as_array()
                .ok_or_else(|| bad("buckets"))?
            {
                let pair = pair.as_array().ok_or_else(|| bad("bucket pair"))?;
                if pair.len() != 2 {
                    return Err(bad("bucket pair arity"));
                }
                let i = pair[0].as_u64().ok_or_else(|| bad("bucket index"))?;
                let c = pair[1].as_u64().ok_or_else(|| bad("bucket count"))?;
                pairs.push((i as usize, c));
            }
            m.hists[kind.index()] = Histogram::from_parts(
                require_u64(h, "count")?,
                require_u64(h, "sum")?,
                require_u64(h, "min")?,
                require_u64(h, "max")?,
                &pairs,
            )
            .ok_or_else(|| bad("bucket index out of range"))?;
        }

        for rec in require(&root, "space")?
            .as_array()
            .ok_or_else(|| bad("space"))?
        {
            m.space.push(SpaceRecord {
                steps: require_u64(rec, "steps")?,
                heap_bytes: require_u64(rec, "heap_bytes")?,
                breakdown: crate::space::SpaceBreakdown {
                    clock_words_shared: require_u64(rec, "clock_words_shared")?,
                    clock_words_owned: require_u64(rec, "clock_words_owned")?,
                    version_words: require_u64(rec, "version_words")?,
                    write_words: require_u64(rec, "write_words")?,
                    read_map_words: require_u64(rec, "read_map_words")?,
                    other_words: require_u64(rec, "other_words")?,
                    read_map_entries: require_u64(rec, "read_map_entries")?,
                    tracked_vars: require_u64(rec, "tracked_vars")?,
                },
            });
        }

        let ev = require(&root, "events")?;
        m.events_recorded = require_u64(ev, "recorded")?;
        m.events_dropped = require_u64(ev, "dropped")?;
        Ok(m)
    }
}

fn bad(what: &str) -> MetricsParseError {
    MetricsParseError {
        message: format!("malformed metrics field: {what}"),
    }
}

fn require<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, MetricsParseError> {
    obj.get(key).ok_or_else(|| MetricsParseError {
        message: format!("missing metrics key '{key}'"),
    })
}

fn require_u64(obj: &JsonValue, key: &str) -> Result<u64, MetricsParseError> {
    require(obj, key)?
        .as_u64()
        .ok_or_else(|| MetricsParseError {
            message: format!("metrics key '{key}' is not an unsigned integer"),
        })
}

/// A structured error from [`Metrics::from_json`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsParseError {
    /// What was missing or malformed.
    pub message: String,
}

impl fmt::Display for MetricsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics parse error: {}", self.message)
    }
}

impl std::error::Error for MetricsParseError {}

fn write_stats_json(s: &PacerStats, out: &mut String) {
    let pairs: [(&str, u64); 18] = [
        ("joins_sampling_slow", s.joins.sampling_slow),
        ("joins_sampling_fast", s.joins.sampling_fast),
        ("joins_non_sampling_slow", s.joins.non_sampling_slow),
        ("joins_non_sampling_fast", s.joins.non_sampling_fast),
        ("copies_sampling_deep", s.copies.sampling_deep),
        ("copies_sampling_shallow", s.copies.sampling_shallow),
        ("copies_non_sampling_deep", s.copies.non_sampling_deep),
        ("copies_non_sampling_shallow", s.copies.non_sampling_shallow),
        ("reads_sampling_slow", s.reads.sampling_slow),
        ("reads_non_sampling_slow", s.reads.non_sampling_slow),
        ("reads_non_sampling_fast", s.reads.non_sampling_fast),
        ("writes_sampling_slow", s.writes.sampling_slow),
        ("writes_non_sampling_slow", s.writes.non_sampling_slow),
        ("writes_non_sampling_fast", s.writes.non_sampling_fast),
        ("cow_clones", s.cow_clones),
        ("sample_periods", s.sample_periods),
        ("sampled_sync_ops", s.sampled_sync_ops),
        ("unsampled_sync_ops", s.unsampled_sync_ops),
    ];
    out.push('{');
    let mut first = true;
    for (k, v) in pairs {
        json::field_u64(out, &mut first, k, v);
    }
    out.push('}');
}

impl fmt::Display for Metrics {
    /// Renders the Table 3-style operation breakdown followed by runtime
    /// and space summaries — the output of `pacer stats`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &self.detector;
        writeln!(
            f,
            "operation breakdown (Table 3){}",
            if self.runtime.trials > 1 {
                format!(" — totals over {} trials", self.runtime.trials)
            } else {
                String::new()
            }
        )?;
        writeln!(f, "  {:<22} {:>14} {:>14}", "", "sampling", "non-sampling")?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "joins (fast)", d.joins.sampling_fast, d.joins.non_sampling_fast
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "joins (slow)", d.joins.sampling_slow, d.joins.non_sampling_slow
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "copies (shallow)", d.copies.sampling_shallow, d.copies.non_sampling_shallow
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "copies (deep)", d.copies.sampling_deep, d.copies.non_sampling_deep
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "reads (slow)", d.reads.sampling_slow, d.reads.non_sampling_slow
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "reads (fast)", "-", d.reads.non_sampling_fast
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "writes (slow)", d.writes.sampling_slow, d.writes.non_sampling_slow
        )?;
        writeln!(
            f,
            "  {:<22} {:>14} {:>14}",
            "writes (fast)", "-", d.writes.non_sampling_fast
        )?;
        writeln!(f, "  cow clone promotions: {}", d.cow_clones)?;
        writeln!(
            f,
            "  sampling periods: {}  sync ops: {} sampled / {} unsampled",
            d.sample_periods, d.sampled_sync_ops, d.unsampled_sync_ops
        )?;
        match d.effective_rate() {
            Some(r) => writeln!(f, "  effective sampling rate: {:.2}%", r * 100.0)?,
            None => writeln!(f, "  effective sampling rate: n/a (no accesses)")?,
        }
        writeln!(f, "  races reported: {}", self.races_reported)?;
        let rt = &self.runtime;
        writeln!(
            f,
            "runtime: trials={} steps={} gcs={} (full={}) elided={} \
             allocated={}B threads={} (max live {})",
            rt.trials,
            rt.steps,
            rt.gcs,
            rt.full_gcs,
            rt.elided_accesses,
            rt.allocated_bytes,
            rt.threads_started,
            rt.max_live_threads
        )?;
        if self.fuzz.programs > 0 {
            let fz = &self.fuzz;
            writeln!(
                f,
                "fuzz: programs={} vm_runs={} (errors={}) truth_races={} \
                 violations={} shrink={}/{} accepted",
                fz.programs,
                fz.vm_runs,
                fz.vm_errors,
                fz.truth_races,
                fz.violations,
                fz.shrink_successes,
                fz.shrink_attempts
            )?;
        }
        if !self.faults.is_zero() {
            let ft = &self.faults;
            writeln!(
                f,
                "faults: injected={} hit={} retried={} quarantined={}",
                ft.injected, ft.hit, ft.retried, ft.quarantined
            )?;
        }
        if !self.governor.is_zero() {
            let gv = &self.governor;
            writeln!(
                f,
                "governor: steps_down={} steps_up={} breaches={} degraded={} cancelled={}",
                gv.steps_down, gv.steps_up, gv.breaches, gv.degraded, gv.cancelled
            )?;
        }
        write!(
            f,
            "space: {} samples, peak metadata {} words",
            self.space.len(),
            self.peak_metadata_words()
        )?;
        if let Some(last) = self.space.last() {
            let b = last.breakdown;
            write!(
                f,
                " (final: {} shared / {} owned clock words, {} read-map entries, \
                 {} tracked vars)",
                b.clock_words_shared, b.clock_words_owned, b.read_map_entries, b.tracked_vars
            )?;
        }
        writeln!(f)?;
        write!(
            f,
            "events: {} recorded, {} dropped",
            self.events_recorded, self.events_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceBreakdown;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics {
            races_reported: 2,
            ..Metrics::default()
        };
        m.detector.joins.sampling_fast = 3;
        m.detector.reads.non_sampling_fast = 4;
        m.runtime.trials = 1;
        m.runtime.steps = 100;
        m.hists[HistKind::PeriodSyncOps.index()].record(8);
        m.space.push(SpaceRecord {
            steps: 50,
            heap_bytes: 96,
            breakdown: SpaceBreakdown {
                clock_words_owned: 6,
                ..SpaceBreakdown::default()
            },
        });
        m.events_recorded = 5;
        m.fuzz.programs = 2;
        m.fuzz.vm_runs = 9;
        m.fuzz.violations = 1;
        m
    }

    #[test]
    fn fuzz_counters_merge_and_serialize() {
        let mut a = sample_metrics();
        a.merge(&sample_metrics());
        assert_eq!(a.fuzz.programs, 4);
        assert_eq!(a.fuzz.vm_runs, 18);
        let j = a.to_json();
        assert!(j.contains("\"fuzz\": {\"programs\":4"), "{j}");
        assert!(a.to_string().contains("fuzz: programs=4"));
        assert!(
            !Metrics::default().to_string().contains("fuzz:"),
            "non-fuzz snapshots stay quiet"
        );
    }

    #[test]
    fn fault_counters_merge_serialize_and_gate_display() {
        let mut m = sample_metrics();
        m.faults = FaultCounters {
            injected: 4,
            hit: 3,
            retried: 2,
            quarantined: 1,
        };
        let mut merged = m.clone();
        merged.merge(&m);
        assert_eq!(merged.faults.injected, 8);
        assert_eq!(merged.faults.quarantined, 2);
        assert!(m
            .to_json()
            .contains("\"faults\": {\"injected\":4,\"hit\":3"));
        assert!(m
            .to_string()
            .contains("faults: injected=4 hit=3 retried=2 quarantined=1"));
        assert!(
            !Metrics::default().to_string().contains("faults:"),
            "fault-free snapshots stay quiet"
        );
    }

    #[test]
    fn governor_counters_merge_serialize_and_gate_display() {
        let mut m = sample_metrics();
        m.governor = GovernorCounters {
            steps_down: 5,
            steps_up: 1,
            breaches: 2,
            degraded: 3,
            cancelled: 1,
        };
        let mut merged = m.clone();
        merged.merge(&m);
        assert_eq!(merged.governor.steps_down, 10);
        assert_eq!(merged.governor.cancelled, 2);
        assert!(m
            .to_json()
            .contains("\"governor\": {\"steps_down\":5,\"steps_up\":1"));
        assert!(m
            .to_string()
            .contains("governor: steps_down=5 steps_up=1 breaches=2 degraded=3 cancelled=1"));
        assert!(
            !Metrics::default().to_string().contains("governor:"),
            "ungoverned snapshots stay quiet"
        );
        // Pre-governor snapshots (no `governor` key) still parse.
        let legacy = Metrics::default().to_json().replace(
            ",\n  \"governor\": {\"steps_down\":0,\"steps_up\":0,\"breaches\":0,\"degraded\":0,\"cancelled\":0}",
            "",
        );
        assert!(!legacy.contains("governor"));
        assert_eq!(Metrics::from_json(&legacy).unwrap(), Metrics::default());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut m = sample_metrics();
        m.faults.injected = 7;
        m.faults.quarantined = 2;
        m.governor.steps_down = 3;
        m.governor.degraded = 1;
        m.hists[HistKind::GcHeapBytes.index()].record(0);
        m.hists[HistKind::GcHeapBytes.index()].record(u64::MAX);
        let parsed = Metrics::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(
            parsed.to_json(),
            m.to_json(),
            "re-emission is byte-identical"
        );
        // Empty snapshots round-trip too (empty-histogram min sentinel).
        let empty = Metrics::default();
        assert_eq!(Metrics::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn from_json_rejects_corrupt_input_without_panicking() {
        let good = sample_metrics().to_json();
        // Truncations at every prefix length (the serialized form ends
        // "}\n", so every prefix short of the final "}" is incomplete).
        for cut in 0..good.len() - 1 {
            assert!(
                Metrics::from_json(&good[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
        // Bit flips anywhere must never panic (they may still parse when
        // the flip lands in a digit).
        for i in (0..good.len()).step_by(7) {
            let mut bytes = good.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = Metrics::from_json(text);
            }
        }
        // Structured failures carry messages.
        let err = Metrics::from_json("{\"schema\": 2}").unwrap_err();
        assert!(err.to_string().contains("unsupported metrics schema 2"));
        let err = Metrics::from_json("not json at all").unwrap_err();
        assert!(err.to_string().contains("json error"));
    }

    #[test]
    fn merge_sums_everything_and_concatenates_space() {
        let mut a = sample_metrics();
        let b = sample_metrics();
        a.merge(&b);
        assert_eq!(a.detector.joins.sampling_fast, 6);
        assert_eq!(a.races_reported, 4);
        assert_eq!(a.runtime.trials, 2);
        assert_eq!(a.hist(HistKind::PeriodSyncOps).count, 2);
        assert_eq!(a.space.len(), 2);
        assert_eq!(a.events_recorded, 10);
        assert_eq!(a.peak_metadata_words(), 6);
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let m = sample_metrics();
        let j1 = m.to_json();
        let j2 = m.clone().to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"schema\": 1"));
        assert!(j1.contains("\"joins_sampling_fast\":3"));
        assert!(j1.contains("\"period_sync_ops\""));
        assert!(j1.contains("\"total_words\":6"));
        assert!(!j1.contains('.'), "no floats in metrics JSON: {j1}");
    }

    #[test]
    fn empty_snapshot_serializes() {
        let j = Metrics::default().to_json();
        assert!(j.contains("\"space\": []"));
        assert!(j.contains("\"trials\":0"));
    }

    #[test]
    fn serve_snapshot_carries_transport_counters() {
        let shards = [
            ServeCounters {
                sessions: 1,
                events: 10,
                ..ServeCounters::default()
            },
            ServeCounters {
                sessions: 1,
                events: 5,
                ..ServeCounters::default()
            },
        ];
        let sessions = SessionCounters {
            admitted: 2,
            completed: 2,
            ..SessionCounters::default()
        };
        let mut transport = TransportCounters {
            connections: 3,
            session_resumes: 1,
            resumes_rejected: 0,
            acks_sent: 7,
            frames_journaled: 4,
            frames_deduped: 2,
        };
        let j = serve_metrics_json(&shards, &sessions, &transport);
        assert!(
            j.contains("\"total\": {\"sessions\":2,\"events\":15"),
            "{j}"
        );
        assert!(
            j.contains("\"transport\": {\"connections\":3,\"session_resumes\":1,\"resumes_rejected\":0,\"acks_sent\":7,\"frames_journaled\":4,\"frames_deduped\":2}"),
            "{j}"
        );
        assert!(!transport.is_zero());
        assert!(TransportCounters::default().is_zero());
        transport += TransportCounters {
            frames_deduped: 1,
            ..TransportCounters::default()
        };
        assert_eq!(transport.frames_deduped, 3);
        assert!(transport.to_json().contains("\"frames_deduped\":3"));
    }

    #[test]
    fn display_shows_table3_sections() {
        let text = sample_metrics().to_string();
        assert!(text.contains("Table 3"));
        assert!(text.contains("joins (fast)"));
        assert!(text.contains("copies (shallow)"));
        assert!(text.contains("effective sampling rate"));
        assert!(text.contains("races reported: 2"));
        assert!(text.contains("peak metadata 6 words"));
    }
}
