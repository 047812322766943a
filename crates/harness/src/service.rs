//! The streaming detection service engine behind `pacer serve`.
//!
//! Batch entry points replay one trace into one detector. The service
//! accepts many concurrent *sessions* — each an independent `.ptrace`
//! stream (TRACE_FORMAT.md) — and runs the detection itself on a pool of
//! [`shard`] workers, so ingest parallelism and detection
//! parallelism scale independently of the number of connections.
//!
//! # Sharding
//!
//! Every session runs whole on one shard, `fnv1a64(name) mod N`. One
//! detector sees the session's entire event stream, exactly as `pacer
//! replay` runs it, so each report is the replay report by construction
//! and nothing is merged across shards: `--shards` buys parallelism
//! across sessions, never within one. Hashing the name, rather than
//! numbering sessions in arrival order, makes the per-shard counter
//! split a function of the session names and `N` alone.
//!
//! # One ingest, two drivers
//!
//! Every admitted session gets one push-driven ingest: the deadline, the
//! shed overlay, the §A check, batching, the shard close barrier and the
//! report all live there. [`ServiceHandle::serve`] pushes what its
//! decoder yields from one whole session body (`--stdin` and
//! [`serve_sessions`]). A durable TCP session's slot owns
//! its ingest between connections, and [`ServiceHandle::durable_frame`]
//! pushes each frame after the WAL sync and before the ack, so a durable
//! session is analyzed as it arrives rather than at `END`.
//!
//! Events travel to the shard in batches, one inbox message each, sent
//! when full and at every frame end. A batch travels by value inside the
//! inbox's preallocated slots, and once the shard has applied it nothing
//! keeps it: a shard holds only detectors. A session waiting for its
//! client's next frame therefore has every decoded event in its shard's
//! detector, where the governor's footprint poll can see it.
//!
//! # Determinism
//!
//! Per-session reports depend only on the session's bytes and the
//! service configuration. The merged transcript orders sessions by name
//! and sums counts, so it is byte-identical regardless of shard count,
//! arrival interleaving, or handler scheduling (`tests/serve.rs` and the
//! ci.sh gate enforce this against `pacer replay`).
//!
//! # Recovery and backpressure
//!
//! Completed sessions checkpoint to the PR 4 checksummed journal and are
//! restored verbatim on `--resume` — a killed-and-resumed service emits
//! the same merged transcript as an uninterrupted one. Under memory
//! pressure (`--mem-budget`), the PR 5 governor steps the *admission
//! sampling rate* down a ladder: new sessions get a fresh sampling-period
//! overlay at the reduced rate (shedding detection work, never
//! connections). Each shard inbox holds at most one frame's worth of
//! in-flight events (4096, in 16 full batches); an ingest sending into a
//! full inbox blocks. Full protocol and lifecycle rules live in
//! `SERVICE.md`.
//!
//! # Supervision and lifecycle budgets
//!
//! Each shard worker applies a batch one event at a time. A panic in a
//! detector callback is caught and fails the *owning session*, and no
//! other, with a typed [`ShardLost`] note at once: detector state is a
//! pure function of the events, so a retry would replay into the same
//! panic, and nothing may run on a half-updated detector. The
//! `shard-panic` chaos drill fires before its event reaches the
//! detector, so a [`Supervisor`] retries it up to the per-event attempt
//! budget and the transcript stays byte-identical to an uncrashed run.
//! Sessions also carry lifecycle budgets: an event deadline
//! (`--session-deadline-events`), an idle lease that reaps a detached
//! durable session after `--idle-timeout` lease ticks
//! ([`ServiceHandle::durable_tick`]), and the `pacer-faults` serve sites
//! (`shard-panic`, `conn-drop`, `inbox-stall`) for chaos drills. Every
//! terminal outcome lands in exactly one
//! [`SessionOutcome`] bucket, giving the conservation law
//! `admitted == completed + shed + failed + reaped`
//! ([`SessionCounters::conserved`]).

use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;

use pacer_collections::{fnv1a64, JsonValue};
use pacer_core::PacerDetector;
use pacer_fasttrack::{FastTrackDetector, GenericDetector};
use pacer_faults::{FaultPlan, INJECTED_PREFIX};
use pacer_governor::{
    default_ladder, millionths_from_rate, rate_from_millionths, Governor, GovernorConfig,
    GovernorSummary, DEFAULT_COOLDOWN,
};
use pacer_literace::{LiteRaceConfig, LiteRaceDetector};
use pacer_obs::{ObservableDetector, ServeCounters, SessionCounters, TransportCounters};
use pacer_trace::binary;
use pacer_trace::gen::Resampler;
use pacer_trace::stream::{ActionCheck, AnyTraceReader};
use pacer_trace::{Action, SiteId};

use crate::journal::{self, JournalWriter};
use crate::render::{self, Resample};
use crate::resilient::panic_message;
use crate::shard::{self, Inboxes, ShardDown, ShardLost, Supervisor};

/// Bytes per metadata word, matching the space-accounting convention
/// used by the governor's memory budget everywhere else in the suite.
const WORD_BYTES: u64 = 8;

/// Detector families the service can run per shard. Mirrors the `pacer
/// replay` dispatch exactly so per-session reports stay byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeDetectorKind {
    /// PACER.
    Pacer,
    /// FASTTRACK, always-on precise detection.
    FastTrack,
    /// GENERIC O(n) vector-clock detection.
    Generic,
    /// LITERACE bursty sampling.
    LiteRace,
}

impl ServeDetectorKind {
    /// Parses the `--detector` names `pacer replay` accepts.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for unknown names.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "pacer" => Ok(ServeDetectorKind::Pacer),
            "fasttrack" => Ok(ServeDetectorKind::FastTrack),
            "generic" => Ok(ServeDetectorKind::Generic),
            "literace" => Ok(ServeDetectorKind::LiteRace),
            other => Err(format!("unknown detector `{other}`")),
        }
    }
}

/// One session's detector, built as `pacer replay` builds it.
fn build_detector(kind: ServeDetectorKind, seed: u64) -> Box<dyn ObservableDetector> {
    match kind {
        ServeDetectorKind::Pacer => Box::new(PacerDetector::new()),
        ServeDetectorKind::FastTrack => Box::new(FastTrackDetector::new()),
        ServeDetectorKind::Generic => Box::new(GenericDetector::new()),
        ServeDetectorKind::LiteRace => {
            Box::new(LiteRaceDetector::new(LiteRaceConfig::default(), seed))
        }
    }
}

/// Service configuration shared by the daemon, the client-driving CLI
/// mode, and the in-process test transport.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Detector worker count.
    pub shards: usize,
    /// Detector family each shard runs.
    pub detector: ServeDetectorKind,
    /// Seed for LITERACE sampling and shed-rate resampling overlays
    /// (same default as `pacer replay --seed`).
    pub seed: u64,
    /// Journal path for per-session checkpoints.
    pub checkpoint: Option<PathBuf>,
    /// Restore completed sessions from the checkpoint journal.
    pub resume: bool,
    /// Memory budget in bytes; arms the admission governor.
    pub mem_budget: Option<u64>,
    /// Mean sampling-period length for shed-rate overlays (same default
    /// as `pacer replay --resample-period`).
    pub resample_period: usize,
    /// Per-session event budget: a session decoding more events than
    /// this is rejected with a deadline error (`--session-deadline-events`).
    pub deadline_events: Option<u64>,
    /// Lease ticks a detached durable session may sit idle before
    /// [`ServiceHandle::durable_tick`] reaps it (`--idle-timeout`); the
    /// TCP daemon ticks once per second of wall time.
    pub idle_timeout_ticks: Option<u32>,
    /// Chaos fault plan; only the serve sites (`shard-panic`,
    /// `conn-drop`, `inbox-stall`) are consulted here.
    pub fault_plan: Option<FaultPlan>,
    /// Directory for durable sessions' per-session write-ahead segments
    /// (`--wal DIR`). Without it, durable sessions are resumable only
    /// within the process lifetime.
    pub wal: Option<PathBuf>,
}

impl ServeConfig {
    /// Defaults matching the CLI: 4 shards, seed 42, no checkpoint, no
    /// budget, resample period 50, no lifecycle budgets, no faults.
    pub fn new(detector: ServeDetectorKind) -> Self {
        ServeConfig {
            shards: 4,
            detector,
            seed: 42,
            checkpoint: None,
            resume: false,
            mem_budget: None,
            resample_period: 50,
            deadline_events: None,
            idle_timeout_ticks: None,
            fault_plan: None,
            wal: None,
        }
    }
}

/// A service-level failure (configuration, journal, or transport I/O).
/// Per-session decode/validation problems are *not* errors at this level:
/// they become error reports for that session alone.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration.
    Config(String),
    /// Checkpoint journal failure.
    Journal(String),
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "{m}"),
            ServeError::Journal(m) => write!(f, "journal: {m}"),
            ServeError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The terminal bucket a session lands in. Buckets are disjoint and
/// exhaustive, which is what makes [`SessionCounters`]'s conservation
/// law (`admitted == completed + shed + failed + reaped`) checkable:
/// every admitted session is filed exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Completed at full sampling rate (truncated partials included).
    Clean,
    /// Completed at a governor-reduced sampling rate.
    Shed,
    /// Rejected: corrupt frame, invalid trace, duplicate name, deadline
    /// overrun, or unreachable shard.
    Failed,
    /// A durable session reaped while detached, by its idle lease
    /// (`--idle-timeout`) or at shutdown, before its stream completed.
    Reaped,
    /// Abandoned by shard supervision after the per-event attempt
    /// budget was exhausted.
    ShardLost,
}

impl SessionOutcome {
    /// Stable name used in journal entries and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SessionOutcome::Clean => "clean",
            SessionOutcome::Shed => "shed",
            SessionOutcome::Failed => "failed",
            SessionOutcome::Reaped => "reaped",
            SessionOutcome::ShardLost => "shard_lost",
        }
    }

    fn from_name(name: &str) -> Result<SessionOutcome, String> {
        match name {
            "clean" => Ok(SessionOutcome::Clean),
            "shed" => Ok(SessionOutcome::Shed),
            "failed" => Ok(SessionOutcome::Failed),
            "reaped" => Ok(SessionOutcome::Reaped),
            "shard_lost" => Ok(SessionOutcome::ShardLost),
            other => Err(format!("unknown session outcome {other:?}")),
        }
    }
}

/// One completed session's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionReport {
    /// Client-supplied session name (unique per service run).
    pub name: String,
    /// The response body — byte-identical to `pacer replay` of the same
    /// bytes (plus the resample line when shed), or a single `error:`
    /// line for rejected sessions.
    pub body: String,
    /// Actions analyzed (post-overlay).
    pub events: u64,
    /// Dynamic race reports.
    pub dynamic_races: u64,
    /// Distinct racing site pairs.
    pub distinct_races: u64,
    /// Admission sampling rate in millionths when the governor shed this
    /// session below full rate.
    pub shed_millionths: Option<u32>,
    /// Whether the stream ended mid-frame (partial, per TRACE_FORMAT.md).
    pub truncated: bool,
    /// Whether the session was rejected (corrupt frame, invalid trace,
    /// duplicate name, deadline, reap, or shard loss).
    pub error: bool,
    /// The disjoint accounting bucket this session landed in.
    pub outcome: SessionOutcome,
}

/// Everything a finished service run produced.
#[derive(Clone, Debug)]
pub struct ServeOutput {
    /// Per-session reports, sorted by session name.
    pub reports: Vec<SessionReport>,
    /// Per-shard counters in shard-index order.
    pub shard_counters: Vec<ServeCounters>,
    /// Session lifecycle accounting (see
    /// [`SessionCounters::conserved`]).
    pub sessions: SessionCounters,
    /// Governor outcome when a budget was armed.
    pub governor: Option<GovernorSummary>,
    /// Durable-transport accounting (connections, resumes, acks, WAL
    /// appends, dedups); all-zero for `--stdin` and in-process runs.
    pub transport: TransportCounters,
    /// The deterministic merged transcript (see module docs).
    pub transcript: String,
}

impl ServeOutput {
    /// True when at least one session was rejected.
    pub fn any_errors(&self) -> bool {
        self.reports.iter().any(|r| r.error)
    }
}

/// Messages a session's ingest sends to its session's shard (and the
/// governor's poll, to every shard). Per-channel FIFO plus one ingest
/// per session gives the shard the session's events in stream order;
/// `Close` doubles as the flush barrier.
#[derive(Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "a batch travels by value in the inbox's preallocated slots, \
              so no batch is a heap buffer that another thread frees"
)]
enum ShardMsg {
    /// A batch of `session`'s events, in stream order, by value: the
    /// first `len` slots of `actions`; the rest hold `Action::SampleEnd`.
    Events {
        session: u32,
        len: usize,
        actions: [Action; BATCH_EVENTS],
    },
    /// Drop the session's state. With a `reply`, this is the flush
    /// barrier: count the session's races and reply with them, or with
    /// the note supervision abandoned it with. A session that failed
    /// closes without a reply, so its races are never counted.
    Close {
        session: u32,
        reply: Option<SyncSender<Result<SessionRaces, ShardLost>>>,
    },
    /// Reply with the shard's total live metadata footprint, in words.
    Poll { reply: SyncSender<u64> },
}

/// A closed session's dynamic race count and its distinct site pairs.
type SessionRaces = (u64, Vec<(SiteId, SiteId)>);

/// Retries granted to each event's `shard-panic` drill after its first
/// panicking attempt. Three total attempts sits comfortably above
/// `limit=1` chaos plans (which stop firing after attempt 0, so the
/// first retry succeeds), while a plan with a higher `limit` still
/// exercises the `ShardLost` path. Detector panics are never retried.
const SHARD_EVENT_RETRIES: u32 = 2;

/// Events per batch. A session's ingest fills one buffer and sends it as
/// a single inbox message once it holds this many events (or earlier, at
/// a frame boundary or the end of the stream).
const BATCH_EVENTS: usize = 256;

/// In-flight events a shard inbox holds before an ingest blocks: the
/// backpressure depth, one recorded frame's worth. A durable frame's
/// push before its ack then need not wait for the shard to apply it: the
/// shard applies one frame while the next one and its WAL sync are in
/// flight. The channel bound is this many events' worth of full batches.
const INBOX_EVENTS: usize = binary::FRAME_EVENT_TARGET;

/// One session's state on its shard: its live detector, or the note it
/// was abandoned with after a panic.
enum SessionSlot {
    Live(Box<dyn ObservableDetector>),
    Lost(ShardLost),
}

/// A shard's drain loop. `new_detector` builds each session's detector
/// when its first batch arrives.
fn shard_worker(
    new_detector: impl Fn() -> Box<dyn ObservableDetector>,
    plan: Option<&FaultPlan>,
    shard: usize,
    inbox: Receiver<ShardMsg>,
) -> ServeCounters {
    // The sessions open on this shard, by id: an entry goes at its
    // session's `Close`, so the table never outgrows the live sessions.
    let mut sessions: BTreeMap<u32, SessionSlot> = BTreeMap::new();
    let mut counters = ServeCounters::default();
    let mut supervisor = Supervisor::new(SHARD_EVENT_RETRIES);
    // The fault index: events *arrived* at this shard, counted once per
    // event regardless of how many drill attempts it takes (or whether
    // it is ultimately lost), so a `limit=1` plan stops firing on the
    // first retry and the detector absorbs the event exactly once.
    let mut arrivals: u64 = 0;
    for msg in inbox {
        match msg {
            ShardMsg::Events {
                session,
                len,
                actions,
            } => {
                let slot = sessions.entry(session).or_insert_with(|| {
                    counters.sessions += 1;
                    SessionSlot::Live(new_detector())
                });
                for action in &actions[..len] {
                    let arrival = arrivals;
                    arrivals += 1;
                    // Abandoned: drain the session's remaining events
                    // without applying or counting them.
                    let SessionSlot::Live(det) = slot else {
                        continue;
                    };
                    // The drill panics before the detector is touched, so
                    // its retry needs no rebuild.
                    let drilled = match plan {
                        Some(plan) => supervisor.supervise(|attempt| {
                            if plan.shard_panic_fires(arrival, attempt) {
                                panic!(
                                    "{INJECTED_PREFIX}shard panic (shard {shard}, event {arrival})"
                                );
                            }
                        }),
                        None => Ok(()),
                    };
                    // A detector panic is never retried: the detector may
                    // be half-updated, and a replay would panic again.
                    let applied = drilled.and_then(|()| {
                        catch_unwind(AssertUnwindSafe(|| det.on_action(action))).map_err(
                            |payload| ShardLost {
                                reason: panic_message(payload.as_ref()),
                                attempts: 1,
                            },
                        )
                    });
                    match applied {
                        Ok(()) => {
                            counters.events += 1;
                            if action.is_access() {
                                counters.accesses += 1;
                            }
                        }
                        Err(lost) => *slot = SessionSlot::Lost(lost),
                    }
                }
            }
            ShardMsg::Close { session, reply } => {
                let slot = sessions.remove(&session);
                if let Some(SessionSlot::Lost(_)) = &slot {
                    counters.sessions_lost += 1;
                }
                let Some(reply) = reply else {
                    continue;
                };
                let closed = match slot {
                    Some(SessionSlot::Live(det)) => {
                        let dynamic = det.races().len() as u64;
                        counters.races += dynamic;
                        Ok((dynamic, det.distinct_races()))
                    }
                    Some(SessionSlot::Lost(lost)) => Err(lost),
                    // The session routed no events.
                    None => Ok((0, Vec::new())),
                };
                // A send to a dropped reply channel must not take the
                // shard down.
                let _ = reply.send(closed);
            }
            ShardMsg::Poll { reply } => {
                let live = sessions
                    .values()
                    .map(|slot| match slot {
                        SessionSlot::Live(det) => det.space_breakdown().total_words(),
                        SessionSlot::Lost(_) => 0,
                    })
                    .sum();
                let _ = reply.send(live);
            }
        }
    }
    counters.shard_restarts = supervisor.restarts();
    counters
}

/// Why a session stopped early: the message for its `error:` line, and
/// the bucket it is filed in.
type Failure = (String, SessionOutcome);

/// One admitted session's ingest: the engine both drivers push into.
/// [`serve`](ServiceHandle::serve) pushes each run of events its
/// decoder hands out; a durable slot owns one between connections and
/// pushes each frame it accepts.
///
/// Every decoded event passes the deadline, the shed overlay and the §A
/// check, then joins the session's batch. A batch goes to the session's
/// shard when full and at every frame end, so a session waiting for its
/// next frame has every event in its shard, where the governor's
/// footprint poll sees it. [`finish`](Self::finish) is the close barrier
/// plus the report; [`fail`](Self::fail) drops the shard state
/// uncounted.
struct SessionIngest {
    name: String,
    session: u32,
    shard: usize,
    /// Governor shed rate fixed at admission.
    shed: Option<u32>,
    /// The resampling overlay of a shed session.
    overlay: Option<Resampler>,
    check: ActionCheck,
    /// The batch being filled: its first `batched` slots.
    batch: [Action; BATCH_EVENTS],
    batched: usize,
    /// Events decoded so far, before the overlay: the deadline's count.
    decoded: u64,
}

impl SessionIngest {
    fn new(cfg: &ServeConfig, name: &str, session: u32, shed: Option<u32>) -> Self {
        SessionIngest {
            name: name.to_string(),
            session,
            shard: (fnv1a64(name.as_bytes()) % cfg.shards as u64) as usize,
            shed,
            overlay: shed
                .map(|m| Resampler::new(rate_from_millionths(m), cfg.resample_period, cfg.seed)),
            check: ActionCheck::new(),
            batch: [Action::SampleEnd; BATCH_EVENTS],
            batched: 0,
            decoded: 0,
        }
    }

    /// Pushes one decoded event. The deadline check sits after the
    /// decode, so a session with exactly `deadline_events` events still
    /// passes.
    fn push(&mut self, svc: &ServiceHandle, action: Action) -> Result<(), Failure> {
        if let Some(max) = svc.cfg.deadline_events.filter(|&max| self.decoded >= max) {
            let message = format!("session deadline exceeded: more than {max} event(s)");
            return Err((message, SessionOutcome::Failed));
        }
        self.decoded += 1;
        match &mut self.overlay {
            None => self.route(svc, action),
            Some(overlay) => overlay
                .push(action)
                .into_iter()
                .flatten()
                .try_for_each(|action| self.route(svc, action)),
        }
    }

    /// Pushes one whole frame's events, or one run of them, then flushes
    /// at its end.
    fn push_frame(&mut self, svc: &ServiceHandle, actions: &[Action]) -> Result<(), Failure> {
        for &action in actions {
            self.push(svc, action)?;
        }
        self.flush(svc)
    }

    /// Checks one event as the detector will see it and adds it to the
    /// batch, sending the batch when full. The `inbox-stall` chaos site
    /// spins (a pure timing perturbation) before targeted events.
    fn route(&mut self, svc: &ServiceHandle, action: Action) -> Result<(), Failure> {
        let plan = svc.cfg.fault_plan.as_ref();
        if let Some(spins) = plan.and_then(|p| p.inbox_stall_spins(self.check.stats().total())) {
            for _ in 0..spins {
                std::thread::yield_now();
            }
        }
        if let Err(e) = self.check.check(&action) {
            return Err((format!("invalid trace: {e}"), SessionOutcome::Failed));
        }
        self.batch[self.batched] = action;
        self.batched += 1;
        if self.batched == BATCH_EVENTS {
            self.flush(svc)?;
        }
        Ok(())
    }

    /// Sends a copy of the batch to the session's shard. The send is
    /// checked: a shard that died anyway fails only its own sessions,
    /// never the driver.
    fn flush(&mut self, svc: &ServiceHandle) -> Result<(), Failure> {
        if self.batched == 0 {
            return Ok(());
        }
        let len = std::mem::take(&mut self.batched);
        self.batch[len..].fill(Action::SampleEnd);
        let msg = ShardMsg::Events {
            session: self.session,
            len,
            actions: self.batch,
        };
        svc.inboxes
            .checked_send(self.shard, msg)
            .map_err(|down| (down.to_string(), SessionOutcome::Failed))
    }

    /// Ends a complete stream: closes the overlay's open sampling period,
    /// flushes, and closes the session on its shard — the barrier that
    /// replies with its races — then renders the body `pacer replay`
    /// prints for the same bytes (`--resample` included, for shed
    /// sessions).
    fn finish(mut self, svc: &ServiceHandle, truncation_note: Option<String>) -> SessionReport {
        let closing = self.overlay.as_mut().and_then(Resampler::finish);
        let flushed = closing
            .map_or(Ok(()), |end| self.route(svc, end))
            .and_then(|()| self.flush(svc));
        if let Err((message, outcome)) = flushed {
            return self.fail(svc, message, outcome);
        }
        let (reply, closed) = sync_channel(1);
        let close = ShardMsg::Close {
            session: self.session,
            reply: Some(reply),
        };
        let shard = self.shard;
        let closed = svc
            .inboxes
            .checked_send(shard, close)
            .and_then(|()| closed.recv().map_err(|_| ShardDown { shard }));
        let (dynamic, distinct) = match closed {
            Ok(Ok(races)) => races,
            Ok(Err(lost)) => return self.fail(svc, lost.to_string(), SessionOutcome::ShardLost),
            Err(down) => return self.fail(svc, down.to_string(), SessionOutcome::Failed),
        };
        let stats = *self.check.stats();
        let resample = self.shed.map(|millionths| Resample {
            rate: rate_from_millionths(millionths),
            period: svc.cfg.resample_period,
            seed: svc.cfg.seed,
        });
        let body = render::replay_report(
            &stats,
            self.check.threads(),
            truncation_note.as_deref(),
            resample,
            dynamic,
            &distinct,
        );
        SessionReport {
            name: self.name,
            body,
            events: stats.total(),
            dynamic_races: dynamic,
            distinct_races: distinct.len() as u64,
            shed_millionths: self.shed,
            truncated: truncation_note.is_some(),
            error: false,
            outcome: if self.shed.is_some() {
                SessionOutcome::Shed
            } else {
                SessionOutcome::Clean
            },
        }
    }

    /// Ends a session that failed: its buffered events still reach the
    /// shard, so the per-shard `events` counters cover every event its
    /// report counts, then a reply-less `Close` drops its state without
    /// counting its races.
    fn fail(
        mut self,
        svc: &ServiceHandle,
        message: String,
        outcome: SessionOutcome,
    ) -> SessionReport {
        let _ = self.flush(svc);
        let close = ShardMsg::Close {
            session: self.session,
            reply: None,
        };
        let _ = svc.inboxes.checked_send(self.shard, close);
        let events = self.check.stats().total();
        error_report(&self.name, self.shed, events, &message, outcome)
    }
}

/// The one report a rejected session gets: a single `error:` line, the
/// events analyzed before the failure, and no races.
fn error_report(
    name: &str,
    shed: Option<u32>,
    events: u64,
    message: &str,
    outcome: SessionOutcome,
) -> SessionReport {
    SessionReport {
        name: name.to_string(),
        body: format!("error: {message}\n"),
        events,
        dynamic_races: 0,
        distinct_races: 0,
        shed_millionths: shed,
        truncated: false,
        error: true,
        outcome,
    }
}

/// The note a reaped session's report carries.
fn idle_note(ticks: u32) -> String {
    format!("idle timeout: reaped after {ticks} idle tick(s)")
}

/// Shared engine state behind the handle's mutex.
struct EngineState {
    /// Completed (or restored) reports, in completion order.
    completed: Vec<SessionReport>,
    /// Names seen so far, for duplicate rejection.
    names: HashSet<String>,
    /// Reports restored from the journal, served without re-ingest.
    restored: Vec<SessionReport>,
    /// Open checkpoint journal, if any.
    journal: Option<JournalWriter>,
    /// First journal-append failure, surfaced at the end of the run.
    journal_error: Option<String>,
    /// Admission governor, when a memory budget is armed.
    governor: Option<Governor>,
    /// Sessions admitted so far (the governor's boundary counter).
    admitted: u64,
    /// Lifecycle accounting; every terminal report is filed exactly once.
    sessions: SessionCounters,
}

/// Files the report the journal restored for `name`, if any, now that
/// its name has come back: admitted, restored and completed.
fn file_restored(state: &mut EngineState, name: &str) -> Option<SessionReport> {
    let idx = state.restored.iter().position(|r| r.name == name)?;
    let report = state.restored.swap_remove(idx);
    state.names.insert(report.name.clone());
    state.sessions.admitted += 1;
    state.sessions.restored += 1;
    bucket(&mut state.sessions, report.outcome);
    state.completed.push(report.clone());
    Some(report)
}

/// Files one terminal outcome into its conservation bucket.
fn bucket(sessions: &mut SessionCounters, outcome: SessionOutcome) {
    match outcome {
        SessionOutcome::Clean => sessions.completed += 1,
        SessionOutcome::Shed => sessions.shed += 1,
        SessionOutcome::Failed | SessionOutcome::ShardLost => sessions.failed += 1,
        SessionOutcome::Reaped => sessions.reaped += 1,
    }
}

/// Registry of durable (reconnectable) sessions between connections,
/// plus the transport counters the accept loop, handlers, and engine
/// contribute to. One mutex: attach/detach, frame appends, and closes
/// all serialize here, which is what makes the applied-offset watermark
/// race-free under connection takeover.
#[derive(Default)]
struct DurableState {
    slots: Vec<DurableSlot>,
    transport: TransportCounters,
}

/// One durable session between connections. The slot owns the session's
/// [`SessionIngest`]: each accepted frame is verified and decoded once,
/// deduped by offset, appended to the WAL segment (when armed), pushed
/// into the session's shard, and only then acked. By `END` every event
/// is in the shard, so closing is the flush barrier plus the report. No
/// frame bytes are kept: the WAL segment is the copy that survives a
/// restart.
struct DurableSlot {
    ingest: SessionIngest,
    /// Bumped on every attach; a connection holding a stale epoch lost
    /// the slot to a newer `RESUME` and must drop out silently.
    epoch: u64,
    /// Whether a connection currently owns the slot.
    attached: bool,
    /// Idle-lease ticks accumulated while detached.
    idle_ticks: u32,
    /// Frames durably applied: the ack watermark, and the next offset.
    applied: u64,
    /// Open write-ahead segment, when a WAL directory is armed.
    wal: Option<std::fs::File>,
}

impl DurableSlot {
    fn new(ingest: SessionIngest, wal: Option<std::fs::File>) -> Self {
        DurableSlot {
            ingest,
            epoch: 0,
            attached: true,
            idle_ticks: 0,
            applied: 0,
            wal,
        }
    }

    /// Whether the connection holding `epoch` owns this slot.
    fn owned_by(&self, name: &str, epoch: u64) -> bool {
        self.ingest.name == name && self.epoch == epoch && self.attached
    }
}

/// What a `SESSION`/`RESUME` handshake resolved to.
#[derive(Debug)]
pub enum DurableOpen {
    /// Fresh session admitted; the client streams from frame offset 0.
    Started {
        /// Ownership token for subsequent frame/close/detach calls.
        epoch: u64,
    },
    /// Attached to a live (or WAL-rebuilt) slot; the server has durably
    /// applied `applied` frames, so the client streams from that offset.
    Resumed {
        /// Ownership token for subsequent frame/close/detach calls.
        epoch: u64,
        /// Frames durably applied — the authoritative resume offset.
        applied: u64,
    },
    /// The session already completed; re-serve its stored report (covers
    /// a connection lost between `END` and the report delivery, and a
    /// report the checkpoint journal restored after a restart).
    Completed(SessionReport),
    /// Handshake rejected with a client-facing message.
    Rejected(String),
}

/// A durably-applied (or deduped) frame's acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameAck {
    /// Applied and journaled; `applied` frames are now durable.
    Applied {
        /// The new applied-offset watermark (also the next expected offset).
        applied: u64,
    },
    /// Duplicate or overlapping retransmit below the watermark — skipped,
    /// acked again. This is the exactly-once guarantee paying off.
    Duplicate {
        /// The unchanged applied-offset watermark.
        applied: u64,
    },
}

impl FrameAck {
    /// The applied-offset watermark to ack back to the client.
    pub fn applied(self) -> u64 {
        match self {
            FrameAck::Applied { applied } | FrameAck::Duplicate { applied } => applied,
        }
    }
}

/// Why a durable frame/close call did not produce an ack.
#[derive(Debug)]
pub enum DurableFrameError {
    /// The session terminally failed (gap, corrupt or invalid frame,
    /// deadline, dead shard, WAL error) and has been filed; send the
    /// report body, then close the connection.
    Failed(SessionReport),
    /// This connection no longer owns the slot — it was resumed by a
    /// newer connection or reaped. Close without filing anything.
    Detached,
}

/// The live service a transport drives: [`serve`](ServiceHandle::serve)
/// is safe to call from many threads at once (one call per session).
pub struct ServiceHandle<'cfg> {
    cfg: &'cfg ServeConfig,
    inboxes: Inboxes<ShardMsg>,
    next_session: AtomicU32,
    state: Mutex<EngineState>,
    /// Durable-session registry; lock order is `durable` before `state`.
    durable: Mutex<DurableState>,
}

/// The durable WAL segment path for a session name.
fn wal_path(dir: &std::path::Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

/// Session names double as WAL file stems, so durable names are
/// restricted to a filesystem-safe alphabet.
fn valid_durable_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Appends one frame to a WAL segment and makes it durable.
fn append_wal(wal: &mut std::fs::File, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    wal.write_all(bytes)?;
    wal.sync_data()
}

impl ServiceHandle<'_> {
    /// Serves one complete session body, blocking until its report is
    /// filed; the returned body is what the transport should send back
    /// to the client.
    pub fn serve(&self, name: &str, bytes: &[u8]) -> SessionReport {
        let report = match self.admit(name) {
            Admission::Restored(report) => return report,
            Admission::Duplicate => error_report(
                name,
                None,
                0,
                "duplicate session name",
                SessionOutcome::Failed,
            ),
            Admission::Admit(ingest) => self.stream(*ingest, bytes),
        };
        self.complete(report)
    }

    /// Admission decision for a named session: restored from the
    /// journal, rejected as a duplicate, or admitted at the governor's
    /// current rate.
    fn admit(&self, name: &str) -> Admission {
        let mut state = lock(&self.state);
        if let Some(report) = file_restored(&mut state, name) {
            return Admission::Restored(report);
        }
        if !state.names.insert(name.to_string()) {
            return Admission::Duplicate;
        }
        let shed = self.governor_rate(&mut state);
        drop(state);
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        Admission::Admit(Box::new(SessionIngest::new(self.cfg, name, session, shed)))
    }

    /// Polls the shards' live footprint and steps the governor at this
    /// admission boundary; returns the (sub-full) admission rate.
    fn governor_rate(&self, state: &mut EngineState) -> Option<u32> {
        state.admitted += 1;
        let boundary = state.admitted;
        let governor = state.governor.as_mut()?;
        let budget = governor.config().mem_budget_bytes?;
        let (tx, rx) = sync_channel(self.cfg.shards);
        let delivered = self.inboxes.broadcast_live(ShardMsg::Poll { reply: tx });
        let live_words: u64 = rx.iter().take(delivered).sum();
        let _ = governor.on_boundary(boundary, Some((live_words * WORD_BYTES, budget)), None);
        let rate = governor.rate_millionths();
        (rate < millionths_from_rate(1.0)).then_some(rate)
    }

    /// Ingests one whole body: decodes `bytes` and pushes each run of
    /// events into `ingest`, flushing at each run end. The first failure
    /// ends the stream and wins, the same precedence as `pacer replay`.
    /// The `conn-drop` chaos site cuts the body at its byte budget, as if
    /// the client vanished mid-stream.
    fn stream(&self, mut ingest: SessionIngest, bytes: &[u8]) -> SessionReport {
        let plan = self.cfg.fault_plan.as_ref();
        let bytes = match plan.and_then(|p| p.conn_drop_after(u64::from(ingest.session))) {
            Some(after) => &bytes[..bytes.len().min(after.try_into().unwrap_or(usize::MAX))],
            None => bytes,
        };
        let mut reader = match AnyTraceReader::new(bytes) {
            Ok(reader) => reader,
            Err(e) => return ingest.fail(self, e.to_string(), SessionOutcome::Failed),
        };
        loop {
            let pushed = match reader.next_batch() {
                Ok([]) => break,
                Ok(run) => ingest.push_frame(self, run),
                Err(e) => Err((e.to_string(), SessionOutcome::Failed)),
            };
            if let Err((message, outcome)) = pushed {
                return ingest.fail(self, message, outcome);
            }
        }
        ingest.finish(self, reader.truncation_note())
    }

    /// Records a finished session: checkpoint it, file its outcome
    /// bucket, then merge it.
    fn complete(&self, report: SessionReport) -> SessionReport {
        let mut state = lock(&self.state);
        if let Some(writer) = state.journal.as_mut() {
            if let Err(e) = writer.write_line(&encode_entry(&report)) {
                if state.journal_error.is_none() {
                    state.journal_error = Some(e.to_string());
                }
            }
        }
        state.sessions.admitted += 1;
        bucket(&mut state.sessions, report.outcome);
        state.completed.push(report.clone());
        report
    }

    /// Applies `update` to the transport counters (the accept loop and
    /// connection handlers contribute `connections`/`acks_sent` here;
    /// the engine bumps the resume/journal/dedup counters itself).
    pub fn note_transport(&self, update: impl FnOnce(&mut TransportCounters)) {
        update(&mut lock(&self.durable).transport);
    }

    /// Resolves a durable `SESSION` (`resume == false`) or `RESUME`
    /// (`resume == true`) handshake.
    ///
    /// Fresh sessions are admitted through the same governor/duplicate
    /// gate as every other transport and get a write-ahead segment when a
    /// WAL directory is armed. A `RESUME` reattaches to a live slot
    /// (taking it over from a dead connection — the epoch token fences
    /// the loser), re-serves the stored report of a completed session
    /// (one this run completed, or one the checkpoint journal restored
    /// after a restart), or rebuilds the slot from its WAL segment.
    pub fn durable_open(&self, name: &str, resume: bool) -> DurableOpen {
        if !valid_durable_name(name) {
            return DurableOpen::Rejected(
                "invalid session name (want [A-Za-z0-9._-]+)".to_string(),
            );
        }
        let mut durable = lock(&self.durable);
        if resume {
            if let Some(slot) = durable.slots.iter_mut().find(|s| s.ingest.name == name) {
                slot.epoch += 1;
                slot.attached = true;
                slot.idle_ticks = 0;
                let (epoch, applied) = (slot.epoch, slot.applied);
                durable.transport.session_resumes += 1;
                return DurableOpen::Resumed { epoch, applied };
            }
            let stored = {
                let mut state = lock(&self.state);
                match state.completed.iter().find(|r| r.name == name) {
                    Some(report) => Some(report.clone()),
                    // The journal's report makes any WAL segment a crash
                    // left behind obsolete.
                    None => file_restored(&mut state, name).inspect(|_| self.remove_wal(name)),
                }
            };
            if let Some(report) = stored {
                durable.transport.session_resumes += 1;
                return DurableOpen::Completed(report);
            }
            if let Some(dir) = self.cfg.wal.clone() {
                let path = wal_path(&dir, name);
                if path.exists() {
                    return match self.durable_open_from_wal(&mut durable, name, &path) {
                        Ok(open) => open,
                        Err(message) => {
                            durable.transport.resumes_rejected += 1;
                            DurableOpen::Rejected(message)
                        }
                    };
                }
            }
            durable.transport.resumes_rejected += 1;
            return DurableOpen::Rejected(format!("unknown session `{name}`"));
        }
        match self.admit(name) {
            Admission::Restored(report) => DurableOpen::Completed(report),
            Admission::Duplicate => {
                // Ledgered as a failed session, exactly like the
                // non-durable transports reject duplicates.
                let message = "duplicate session name";
                self.complete(error_report(name, None, 0, message, SessionOutcome::Failed));
                DurableOpen::Rejected(message.to_string())
            }
            Admission::Admit(ingest) => match self.create_wal(name) {
                Ok(wal) => {
                    durable.slots.push(DurableSlot::new(*ingest, wal));
                    DurableOpen::Started { epoch: 0 }
                }
                Err(message) => {
                    // The name is reserved; file the failure so the
                    // ledger stays complete.
                    self.complete(ingest.fail(self, message.clone(), SessionOutcome::Failed));
                    DurableOpen::Rejected(message)
                }
            },
        }
    }

    /// Cold resume: rebuilds a durable slot from its write-ahead segment
    /// (a fresh admission in this run — the previous run filed the slot
    /// as reaped at shutdown). A crash-torn tail is truncated at the
    /// last complete frame, exactly like every other journal here, and
    /// the segment's frames are pushed into the shard through the same
    /// path live frames take.
    fn durable_open_from_wal(
        &self,
        durable: &mut DurableState,
        name: &str,
        path: &std::path::Path,
    ) -> Result<DurableOpen, String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("wal segment for `{name}` is unreadable: {e}"))?;
        let split = binary::split_frames(&bytes)
            .map_err(|e| format!("wal segment for `{name}` is corrupt: {e}"))?;
        let ingest = match self.admit(name) {
            Admission::Admit(ingest) => *ingest,
            // `durable_open` filed any restored report under this name.
            Admission::Restored(_) | Admission::Duplicate => {
                return Err("duplicate session name".to_string())
            }
        };
        let mut slot = DurableSlot::new(ingest, None);
        if let Err(message) = self.rebuild_from_wal(&mut slot, path, &bytes, &split) {
            // Admitted, so the failure is filed like any other and the
            // segment retired.
            self.remove_wal(name);
            let report = slot
                .ingest
                .fail(self, message.clone(), SessionOutcome::Failed);
            self.complete(report);
            return Err(message);
        }
        let applied = slot.applied;
        durable.slots.push(slot);
        durable.transport.session_resumes += 1;
        Ok(DurableOpen::Resumed { epoch: 0, applied })
    }

    /// Reopens `slot`'s segment at `path` for appending, truncated to
    /// its last complete frame, and pushes those frames.
    fn rebuild_from_wal(
        &self,
        slot: &mut DurableSlot,
        path: &std::path::Path,
        bytes: &[u8],
        split: &binary::FrameSplit,
    ) -> Result<(), String> {
        let name = &slot.ingest.name;
        let io = |e: std::io::Error| format!("wal segment for `{name}`: {e}");
        let mut wal = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let clean_len = split.frames.last().map_or(binary::HEADER_LEN, |f| f.end);
        if bytes.len() < binary::HEADER_LEN {
            // Torn inside the header at creation: start over.
            wal.set_len(0)
                .and_then(|()| append_wal(&mut wal, &binary::HEADER))
                .map_err(io)?;
        } else if clean_len < bytes.len() {
            wal.set_len(clean_len as u64).map_err(io)?;
        }
        slot.wal = Some(wal);
        for frame in &split.frames {
            let actions =
                binary::decode_frame_payload(&bytes[frame.start..frame.end], frame.offset + 1)
                    .map_err(|e| e.to_string())?;
            slot.ingest
                .push_frame(self, &actions)
                .map_err(|(message, _)| message)?;
            slot.applied += 1;
        }
        Ok(())
    }

    /// Creates a fresh WAL segment (header written and synced), or
    /// `Ok(None)` when no WAL directory is armed.
    fn create_wal(&self, name: &str) -> Result<Option<std::fs::File>, String> {
        let Some(dir) = &self.cfg.wal else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("wal directory {}: {e}", dir.display()))?;
        let path = wal_path(dir, name);
        let mut wal = std::fs::File::create(&path)
            .map_err(|e| format!("wal segment {}: {e}", path.display()))?;
        // The wire carries frames only; the segment starts with the
        // constant file header.
        append_wal(&mut wal, &binary::HEADER)
            .map_err(|e| format!("wal segment {}: {e}", path.display()))?;
        Ok(Some(wal))
    }

    /// Removes a session's WAL segment (session finished or reaped).
    fn remove_wal(&self, name: &str) {
        if let Some(dir) = &self.cfg.wal {
            let _ = std::fs::remove_file(wal_path(dir, name));
        }
    }

    /// Accepts one wire frame for an attached durable session: verified
    /// and decoded, deduped by offset against the applied watermark,
    /// journaled, pushed into the session's shard, then acked. A frame
    /// below the watermark is a retransmit overlap — skipped and
    /// re-acked, never applied twice. A frame above it is a gap (lost
    /// frame the client failed to retransmit): the session fails hard
    /// rather than analyze a stream with a hole in it, as it does on a
    /// corrupt or invalid frame, a deadline overrun or a dead shard. A
    /// frame with a malformed event is not journaled, but the events
    /// before that event are pushed first, as [`serve`](Self::serve)
    /// pushes them before its error, so both entries count them alike.
    pub fn durable_frame(
        &self,
        name: &str,
        epoch: u64,
        offset: u64,
        bytes: &[u8],
    ) -> Result<FrameAck, DurableFrameError> {
        let mut durable = lock(&self.durable);
        let DurableState { slots, transport } = &mut *durable;
        let Some(idx) = slots.iter().position(|s| s.owned_by(name, epoch)) else {
            return Err(DurableFrameError::Detached);
        };
        let slot = &mut slots[idx];
        let applied = slot.applied;
        if offset < applied {
            transport.frames_deduped += 1;
            return Ok(FrameAck::Duplicate { applied });
        }
        let accepted = if offset > applied {
            let message = format!("frame gap: got offset {offset}, expected {applied}");
            Err((message, SessionOutcome::Failed))
        } else {
            let mut actions = Vec::new();
            let decoded = binary::decode_frame_into(bytes, offset + 1, &mut actions)
                .map_err(|e| (e.to_string(), SessionOutcome::Failed));
            let journaled = match (&decoded, &mut slot.wal) {
                (Ok(()), Some(wal)) => append_wal(wal, bytes)
                    .map(|()| transport.frames_journaled += 1)
                    .map_err(|e| (format!("wal append failed: {e}"), SessionOutcome::Failed)),
                _ => Ok(()),
            };
            journaled
                .and_then(|()| slot.ingest.push_frame(self, &actions))
                .and(decoded)
        };
        match accepted {
            Ok(()) => {
                slot.applied += 1;
                Ok(FrameAck::Applied {
                    applied: slot.applied,
                })
            }
            Err((message, outcome)) => Err(DurableFrameError::Failed(self.durable_fail(
                &mut durable,
                idx,
                message,
                outcome,
            ))),
        }
    }

    /// Ends an attached durable session: checks the client's frame total
    /// against the applied watermark, then closes the session on its
    /// shard — every event is already there — files the report, and
    /// retires the WAL segment. The report is byte-identical to an
    /// uninterrupted replay of the same bytes.
    ///
    /// Runs under the registry lock: a concurrent `RESUME` for this name
    /// blocks until the report is filed and then finds it completed.
    pub fn durable_close(
        &self,
        name: &str,
        epoch: u64,
        total: u64,
    ) -> Result<SessionReport, DurableFrameError> {
        let mut durable = lock(&self.durable);
        let Some(idx) = durable.slots.iter().position(|s| s.owned_by(name, epoch)) else {
            return Err(DurableFrameError::Detached);
        };
        let applied = durable.slots[idx].applied;
        if total != applied {
            let message = format!("client ended at {total} frame(s) but {applied} were applied");
            let report = self.durable_fail(&mut durable, idx, message, SessionOutcome::Failed);
            return Err(DurableFrameError::Failed(report));
        }
        let slot = durable.slots.swap_remove(idx);
        let report = self.complete(slot.ingest.finish(self, None));
        self.remove_wal(name);
        Ok(report)
    }

    /// Terminally ends the slot at `idx`: removes it, retires its WAL
    /// segment, closes its shard state, and files a report in `outcome`.
    fn durable_fail(
        &self,
        durable: &mut DurableState,
        idx: usize,
        message: String,
        outcome: SessionOutcome,
    ) -> SessionReport {
        let slot = durable.slots.swap_remove(idx);
        self.remove_wal(&slot.ingest.name);
        self.complete(slot.ingest.fail(self, message, outcome))
    }

    /// Releases an attached durable slot back to the idle lease — the
    /// connection died (or tore) before `END`; the session awaits a
    /// `RESUME`. A stale epoch is a no-op: a newer connection owns the
    /// slot.
    pub fn durable_detach(&self, name: &str, epoch: u64) {
        let mut durable = lock(&self.durable);
        if let Some(slot) = durable.slots.iter_mut().find(|s| s.owned_by(name, epoch)) {
            slot.attached = false;
            slot.idle_ticks = 0;
        }
    }

    /// Advances the idle lease on every detached durable slot by one
    /// tick; slots at the `--idle-timeout` limit are reaped — filed in
    /// the `reaped` ledger bucket, WAL segment retired. Returns the
    /// reaped reports. A no-op when no idle timeout is armed.
    pub fn durable_tick(&self) -> Vec<SessionReport> {
        let Some(limit) = self.cfg.idle_timeout_ticks else {
            return Vec::new();
        };
        let mut durable = lock(&self.durable);
        let mut reaped = Vec::new();
        let mut idx = 0;
        while idx < durable.slots.len() {
            let slot = &mut durable.slots[idx];
            if !slot.attached {
                slot.idle_ticks += 1;
                if slot.idle_ticks >= limit {
                    let note = idle_note(limit);
                    reaped.push(self.durable_fail(&mut durable, idx, note, SessionOutcome::Reaped));
                    continue;
                }
            }
            idx += 1;
        }
        reaped
    }

    /// Reaps every remaining durable slot at shutdown so the ledger is
    /// complete — but *preserves* their WAL segments: a restarted server
    /// pointed at the same `--wal` directory rebuilds them on `RESUME`.
    pub fn durable_reap_remaining(&self) -> Vec<SessionReport> {
        let slots = std::mem::take(&mut lock(&self.durable).slots);
        let note = "durable session never completed; reaped at shutdown (wal segment retained)";
        slots
            .into_iter()
            .map(|slot| {
                let report = slot
                    .ingest
                    .fail(self, note.to_string(), SessionOutcome::Reaped);
                self.complete(report)
            })
            .collect()
    }
}

enum Admission {
    Restored(SessionReport),
    Duplicate,
    Admit(Box<SessionIngest>),
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Handlers run under catch-free scoped threads; a poisoned lock only
    // means another handler panicked mid-merge, and the state it guards
    // (append-only vectors) is always structurally consistent.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the service: spawns the shard fleet, hands the transport a
/// [`ServiceHandle`], and merges everything when the transport returns.
///
/// `drive` is the transport loop — the TCP accept loop, the
/// framed-stdin reader, or an in-process test driver. It may serve
/// sessions from as many threads as it likes (e.g. via
/// `std::thread::scope`); every session must be complete before it
/// returns.
///
/// # Errors
///
/// Configuration and journal failures, or whatever `drive` returns.
pub fn run_service<T>(
    cfg: &ServeConfig,
    drive: impl FnOnce(&ServiceHandle<'_>) -> Result<T, ServeError>,
) -> Result<(ServeOutput, T), ServeError> {
    if cfg.shards == 0 {
        return Err(ServeError::Config("--shards must be at least 1".into()));
    }
    if cfg.resume && cfg.checkpoint.is_none() {
        return Err(ServeError::Config("--resume requires --checkpoint".into()));
    }
    // Shard panics — injected drills, retried under the supervisor, and
    // detector panics, which lose their session — are caught and recorded
    // in counters and `ShardLost` notes; keep them from spraying
    // backtraces on stderr for the run's lifetime (same policy as the
    // fleet's quarantine path).
    let _quiet = crate::resilient::SilencePanics::new();

    let mut restored = Vec::new();
    let mut journal = None;
    if let Some(path) = &cfg.checkpoint {
        if cfg.resume && path.exists() {
            // `recover_lines` truncates a crash-torn partial tail in the
            // same call, so the append below lands on a clean frame edge.
            let contents =
                journal::recover_lines(path).map_err(|e| ServeError::Journal(e.to_string()))?;
            for line in &contents.lines {
                restored.push(decode_entry(line).map_err(ServeError::Journal)?);
            }
            journal = Some(JournalWriter::append(path)?);
        } else {
            journal = Some(JournalWriter::create(path)?);
        }
    }

    let governor = cfg.mem_budget.map(|budget| {
        Governor::new(GovernorConfig {
            mem_budget_bytes: Some(budget),
            deadline_events: None,
            ladder: default_ladder(millionths_from_rate(1.0)),
            cooldown: DEFAULT_COOLDOWN,
        })
    });

    let (kind, seed) = (cfg.detector, cfg.seed);
    let plan = cfg.fault_plan.as_ref();
    let (shard_counters, (driven, state, transport)) = shard::run_sharded(
        cfg.shards,
        INBOX_EVENTS / BATCH_EVENTS,
        |shard, inbox| shard_worker(|| build_detector(kind, seed), plan, shard, inbox),
        |inboxes| {
            let handle = ServiceHandle {
                cfg,
                inboxes,
                next_session: AtomicU32::new(0),
                state: Mutex::new(EngineState {
                    completed: Vec::new(),
                    names: HashSet::new(),
                    restored,
                    journal,
                    journal_error: None,
                    governor,
                    admitted: 0,
                    sessions: SessionCounters::default(),
                }),
                durable: Mutex::new(DurableState::default()),
            };
            let driven = drive(&handle);
            let durable = handle
                .durable
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let state = handle
                .state
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            (driven, state, durable.transport)
        },
    );
    let driven = driven?;
    if let Some(message) = state.journal_error {
        return Err(ServeError::Journal(message));
    }

    let mut reports = state.completed;
    reports.sort_by(|a, b| a.name.cmp(&b.name));
    let transcript = render_transcript(&reports);
    let output = ServeOutput {
        reports,
        shard_counters,
        sessions: state.sessions,
        governor: state.governor.map(Governor::into_summary),
        transport,
        transcript,
    };
    Ok((output, driven))
}

/// In-process transport: serves `sessions` (name, bytes) with up to
/// `concurrency` parallel handlers pulling from a shared queue.
///
/// # Errors
///
/// As [`run_service`].
pub fn serve_sessions(
    cfg: &ServeConfig,
    sessions: Vec<(String, Vec<u8>)>,
    concurrency: usize,
) -> Result<ServeOutput, ServeError> {
    let (output, ()) = run_service(cfg, |handle| {
        if concurrency <= 1 {
            for (name, bytes) in &sessions {
                handle.serve(name, bytes);
            }
        } else {
            let queue = Mutex::new(sessions.iter());
            std::thread::scope(|scope| {
                for _ in 0..concurrency {
                    scope.spawn(|| loop {
                        let next = lock(&queue).next();
                        match next {
                            Some((name, bytes)) => {
                                handle.serve(name, bytes);
                            }
                            None => break,
                        }
                    });
                }
            });
        }
        Ok(())
    })?;
    Ok(output)
}

/// Renders the deterministic merged transcript: sessions by name, then
/// the fleet summary. Deliberately shard-blind — the transcript must be
/// byte-identical at any `--shards N` (shard-level detail goes to the
/// metrics snapshot instead).
fn render_transcript(reports: &[SessionReport]) -> String {
    let mut out = String::new();
    let (mut events, mut dynamic, mut distinct, mut errors, mut shed) = (0u64, 0u64, 0u64, 0, 0);
    for report in reports {
        out.push_str(&format!("=== session {} ===\n", report.name));
        out.push_str(&report.body);
        events += report.events;
        dynamic += report.dynamic_races;
        distinct += report.distinct_races;
        if report.error {
            errors += 1;
        }
        if report.shed_millionths.is_some() {
            shed += 1;
        }
    }
    out.push_str(&format!(
        "\nserved {} session(s) ({} events, {} dynamic races, {} distinct)\n",
        reports.len(),
        events,
        dynamic,
        distinct,
    ));
    if errors > 0 {
        out.push_str(&format!("{errors} session(s) rejected\n"));
    }
    if shed > 0 {
        out.push_str(&format!(
            "governor: {shed} session(s) admitted at reduced sampling rates\n"
        ));
    }
    out
}

/// Encodes one session checkpoint as single-line JSON for the journal.
fn encode_entry(report: &SessionReport) -> String {
    let mut out = String::from("{\"name\":");
    journal::escape_into(&mut out, &report.name);
    out.push_str(&format!(
        ",\"events\":{},\"dynamic\":{},\"distinct\":{}",
        report.events, report.dynamic_races, report.distinct_races
    ));
    match report.shed_millionths {
        Some(m) => out.push_str(&format!(",\"shed\":{m}")),
        None => out.push_str(",\"shed\":null"),
    }
    out.push_str(&format!(
        ",\"truncated\":{},\"error\":{},\"outcome\":\"{}\",\"body\":",
        report.truncated,
        report.error,
        report.outcome.name()
    ));
    journal::escape_into(&mut out, &report.body);
    out.push('}');
    out
}

/// Decodes one journaled session checkpoint.
fn decode_entry(json: &str) -> Result<SessionReport, String> {
    let value = JsonValue::parse(json).map_err(|e| e.to_string())?;
    let str_field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let u64_field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let bool_field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing boolean field `{key}`"))
    };
    let shed = match value.get("shed") {
        None => return Err("missing field `shed`".into()),
        Some(v) => v.as_u64().map(|m| m as u32),
    };
    let error = bool_field("error")?;
    let outcome = match value.get("outcome") {
        // Journals written before outcomes existed: derive the bucket
        // from the fields that determined it then.
        None => {
            if error {
                SessionOutcome::Failed
            } else if shed.is_some() {
                SessionOutcome::Shed
            } else {
                SessionOutcome::Clean
            }
        }
        Some(v) => SessionOutcome::from_name(
            v.as_str()
                .ok_or_else(|| "field `outcome` must be a string".to_string())?,
        )?,
    };
    Ok(SessionReport {
        name: str_field("name")?,
        body: str_field("body")?,
        events: u64_field("events")?,
        dynamic_races: u64_field("dynamic")?,
        distinct_races: u64_field("distinct")?,
        shed_millionths: shed,
        truncated: bool_field("truncated")?,
        error,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacer_trace::{Detector, Trace};

    fn racy_trace() -> Trace {
        Trace::parse(
            "
            fork t0 t1
            sbegin
            wr t0 x0 s0
            wr t1 x0 s1
            rd t0 x1 s2
            wr t1 x1 s3
            send
            join t0 t1
        ",
        )
        .unwrap()
    }

    fn cfg(kind: ServeDetectorKind, shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            ..ServeConfig::new(kind)
        }
    }

    #[test]
    fn report_is_shard_count_invariant() {
        let bytes = racy_trace().to_binary();
        let mut transcripts = Vec::new();
        for shards in [1, 2, 8] {
            let out = serve_sessions(
                &cfg(ServeDetectorKind::FastTrack, shards),
                vec![("a".into(), bytes.clone())],
                1,
            )
            .unwrap();
            assert_eq!(out.reports.len(), 1);
            assert!(!out.reports[0].error);
            transcripts.push(out.reports[0].body.clone());
        }
        assert_eq!(transcripts[0], transcripts[1]);
        assert_eq!(transcripts[1], transcripts[2]);
        assert!(transcripts[0].contains("dynamic race report(s)"));
    }

    #[test]
    fn journal_entry_round_trips() {
        let report = SessionReport {
            name: "s \"quoted\"".into(),
            body: "replaying 3 actions\n\n1 dynamic race report(s), 1 distinct:\n".into(),
            events: 3,
            dynamic_races: 1,
            distinct_races: 1,
            shed_millionths: Some(500_000),
            truncated: true,
            error: false,
            outcome: SessionOutcome::Shed,
        };
        assert_eq!(decode_entry(&encode_entry(&report)).unwrap(), report);

        let plain = SessionReport {
            shed_millionths: None,
            truncated: false,
            outcome: SessionOutcome::Clean,
            ..report.clone()
        };
        assert_eq!(decode_entry(&encode_entry(&plain)).unwrap(), plain);

        let lost = SessionReport {
            body: "error: shard lost after 3 attempt(s): boom\n".into(),
            error: true,
            outcome: SessionOutcome::ShardLost,
            ..plain.clone()
        };
        assert_eq!(decode_entry(&encode_entry(&lost)).unwrap(), lost);
    }

    #[test]
    fn legacy_entries_without_outcome_still_decode() {
        // A journal line written before outcomes existed derives its
        // bucket from `error`/`shed`.
        let legacy = "{\"name\":\"a\",\"events\":3,\"dynamic\":1,\"distinct\":1,\
                      \"shed\":null,\"truncated\":false,\"error\":false,\"body\":\"b\\n\"}";
        assert_eq!(decode_entry(legacy).unwrap().outcome, SessionOutcome::Clean);
        let legacy_shed = legacy.replace("\"shed\":null", "\"shed\":500000");
        assert_eq!(
            decode_entry(&legacy_shed).unwrap().outcome,
            SessionOutcome::Shed
        );
        let legacy_err = legacy.replace("\"error\":false", "\"error\":true");
        assert_eq!(
            decode_entry(&legacy_err).unwrap().outcome,
            SessionOutcome::Failed
        );
        let bad = legacy.replace(
            "\"error\":false",
            "\"error\":false,\"outcome\":\"sideways\"",
        );
        assert!(decode_entry(&bad).is_err());
    }

    #[test]
    fn admission_sheds_sampling_rate_under_memory_pressure() {
        let bytes = racy_trace().to_binary();
        let mut config = cfg(ServeDetectorKind::FastTrack, 2);
        config.mem_budget = Some(1);

        let (output, ()) = run_service(&config, |handle| {
            // `long` has its one frame acked and no `END`: every event
            // is in its shard's detector and the session stays live.
            let epoch = open_started(handle, "long");
            let frame = &bytes[binary::HEADER_LEN..];
            handle.durable_frame("long", epoch, 0, frame).unwrap();

            // `long` now holds live detector state, breaching the
            // 1-byte budget: this admission must shed one rung.
            let short = handle.serve("short", &bytes);
            assert_eq!(short.shed_millionths, Some(500_000));
            assert!(!short.error, "shed admission still analyzes: {short:?}");

            let long = handle.durable_close("long", epoch, 1).unwrap();
            assert!(!long.truncated && !long.error, "{long:?}");
            assert_eq!(long.shed_millionths, None, "first admission was clear");
            Ok(())
        })
        .unwrap();

        let governor = output.governor.expect("budget arms the governor");
        assert!(governor.breaches >= 1);
        let short = output.reports.iter().find(|r| r.name == "short").unwrap();
        assert!(
            short
                .body
                .contains("resampled sampling periods at r = 50.00%, mean period 50, seed 42"),
            "shed body carries the replay-identical resample line: {}",
            short.body
        );

        // The held-open scenario, over a sweep of budgets: whatever the
        // shard count, the poll sees the one detector of the held-open
        // session, so the second admission sheds alike at any `--shards`.
        let mut shed_at = Vec::new();
        for budget in (8..=23).map(|bits| 1u64 << bits) {
            let one = durable_held_open_admission(1, budget);
            for shards in [2, 4] {
                let short = durable_held_open_admission(shards, budget);
                let context = format!("budget {budget}: --shards {shards} vs 1");
                assert_eq!(short.shed_millionths, one.shed_millionths, "{context}");
                assert_eq!(short.body, one.body, "{context}");
            }
            shed_at.push((budget, one.shed_millionths));
        }
        // The first frame's detector state, in the shard in time only
        // thanks to the frame-boundary flush, breaches the smallest
        // budget and fits in the largest.
        assert_eq!(shed_at[0].1, Some(500_000), "{shed_at:?}");
        assert_eq!(shed_at[shed_at.len() - 1].1, None, "{shed_at:?}");
    }

    /// A racy generated trace of several thousand events.
    fn big_trace() -> Trace {
        let trace = pacer_trace::gen::GenConfig::small(7)
            .with_ops_per_thread(800)
            .generate();
        assert!(trace.len() > 4096, "{} events", trace.len());
        trace
    }

    /// `trace`'s frames (without the file header): `first` events in the
    /// first frame, then `rest` per frame.
    fn reframe(trace: &Trace, first: usize, rest: usize) -> Vec<Vec<u8>> {
        let (head, tail) = trace.actions().split_at(first);
        std::iter::once(head)
            .chain(tail.chunks(rest))
            .map(|chunk| {
                let bytes = binary::encode_trace(&Trace::from_actions(chunk.to_vec()));
                bytes[binary::HEADER_LEN..].to_vec()
            })
            .collect()
    }

    /// The batches a single session of `trace` framed every `frame`
    /// events travels in: each batch's size, and the shard arrival index
    /// that starts the batch after the first frame-boundary flush.
    /// Mirrors the route stage's three triggers.
    fn batches(trace: &Trace, frame: usize) -> (Vec<usize>, u64) {
        let mut sizes = Vec::new();
        let (mut buffered, mut after_frame) = (0, None);
        for i in 1..=trace.len() {
            buffered += 1;
            let frame_end = i % frame == 0 || i == trace.len();
            if buffered == BATCH_EVENTS || frame_end {
                sizes.push(buffered);
                buffered = 0;
            }
            if frame_end && after_frame.is_none() {
                after_frame = Some(i as u64);
            }
        }
        (sizes, after_frame.unwrap())
    }

    #[test]
    fn shard_panics_at_batch_edges_rebuild_without_changing_reports() {
        let trace = big_trace();
        let frame = 3000;
        let frames = reframe(&trace, frame, frame);
        assert!(frames.len() >= 2);
        let mut bytes = binary::HEADER.to_vec();
        frames.iter().for_each(|f| bytes.extend_from_slice(f));
        let sessions = vec![("a".to_string(), bytes)];
        let (sizes, after_frame) = batches(&trace, frame);
        assert!(sizes.len() >= 3, "{sizes:?}");
        assert_ne!(
            after_frame % BATCH_EVENTS as u64,
            0,
            "the frame flush must send a partial batch"
        );

        for shards in [1, 2, 4] {
            let clean = serve_sessions(
                &cfg(ServeDetectorKind::FastTrack, shards),
                sessions.clone(),
                1,
            )
            .unwrap();
            assert!(!clean.reports[0].error, "{}", clean.reports[0].body);
            let second = sizes[0] as u64;
            let targets = [
                ("first of a batch", second),
                ("middle of a batch", second + sizes[1] as u64 / 2),
                ("last of a batch", second + sizes[1] as u64 - 1),
                ("first after a frame flush", after_frame),
            ];
            for (edge, arrival) in targets {
                // Fires on shard arrival index `arrival` alone, once.
                let every = 1_000_000_000u64;
                let plan = format!("seed {}\nshard-panic every={every}\n", every - arrival);
                let mut chaos = cfg(ServeDetectorKind::FastTrack, shards);
                chaos.fault_plan = Some(pacer_faults::FaultPlan::parse(&plan).unwrap());
                let out = serve_sessions(&chaos, sessions.clone(), 1).unwrap();
                let context = format!("shards {shards}, {edge} (arrival {arrival})");
                assert_eq!(out.reports[0].body, clean.reports[0].body, "{context}");
                assert_eq!(out.transcript, clean.transcript, "{context}");
                let restarts: u64 = out.shard_counters.iter().map(|c| c.shard_restarts).sum();
                assert!(restarts > 0, "{context}");
                let lost: u64 = out.shard_counters.iter().map(|c| c.sessions_lost).sum();
                assert_eq!(lost, 0, "{context}");
            }
        }
    }

    /// `session`'s events as the by-value batches an ingest sends.
    fn batch_msgs(session: u32, events: &[Action]) -> impl Iterator<Item = ShardMsg> + '_ {
        events.chunks(BATCH_EVENTS).map(move |chunk| {
            let mut actions = [Action::SampleEnd; BATCH_EVENTS];
            actions[..chunk.len()].copy_from_slice(chunk);
            ShardMsg::Events {
                session,
                len: chunk.len(),
                actions,
            }
        })
    }

    #[test]
    fn shard_table_holds_only_open_sessions() {
        // Two session ids far apart: a table indexed by id would need a
        // slot for every id up to the larger one.
        let actions = racy_trace().actions().to_vec();
        let ids = [0, u32::MAX - 1];
        let (tx, inbox) = sync_channel(4);
        let worker = std::thread::spawn(move || {
            shard_worker(
                || build_detector(ServeDetectorKind::FastTrack, 42),
                None,
                0,
                inbox,
            )
        });
        let poll = || {
            let (reply, words) = sync_channel(1);
            tx.send(ShardMsg::Poll { reply }).unwrap();
            words.recv().unwrap()
        };
        for session in ids {
            batch_msgs(session, &actions).for_each(|msg| tx.send(msg).unwrap());
        }
        assert!(poll() > 0, "open sessions hold detector state");
        for session in ids {
            let (reply, closed) = sync_channel(1);
            let reply = Some(reply);
            tx.send(ShardMsg::Close { session, reply }).unwrap();
            let (dynamic, distinct) = closed.recv().unwrap().unwrap();
            assert!(dynamic > 0 && !distinct.is_empty(), "session {session}");
        }
        assert_eq!(poll(), 0, "closed sessions leave nothing behind");
        drop(tx);
        let counters = worker.join().unwrap();
        assert_eq!(counters.sessions, 2);
        assert_eq!(counters.events, 2 * actions.len() as u64);
    }

    /// FASTTRACK, except that it panics once, on its `nth` event, before
    /// touching its state: a fault that a retry would get past.
    struct PanicsOnce {
        inner: FastTrackDetector,
        countdown: Option<u64>,
    }

    impl Detector for PanicsOnce {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn on_action(&mut self, action: &Action) {
            match &mut self.countdown {
                Some(0) => {
                    self.countdown = None;
                    panic!("detector bug");
                }
                Some(n) => *n -= 1,
                None => {}
            }
            self.inner.on_action(action);
        }

        fn races(&self) -> &[pacer_trace::RaceReport] {
            self.inner.races()
        }
    }

    impl ObservableDetector for PanicsOnce {
        fn space_breakdown(&self) -> pacer_obs::SpaceBreakdown {
            self.inner.space_breakdown()
        }
    }

    #[test]
    fn detector_panics_lose_their_session_without_retry() {
        let actions = big_trace().actions().to_vec();
        let nth = BATCH_EVENTS as u64 + 44;
        let mut clean = FastTrackDetector::new();
        actions.iter().for_each(|action| clean.on_action(action));
        let clean = (clean.races().len() as u64, clean.distinct_races());
        assert!(clean.0 > 0, "the bystander must have races to compare");

        // The first detector the shard builds is the victim's.
        let built = AtomicU32::new(0);
        let new_detector = || -> Box<dyn ObservableDetector> {
            let victim = built.fetch_add(1, Ordering::Relaxed) == 0;
            Box::new(PanicsOnce {
                inner: FastTrackDetector::new(),
                countdown: victim.then_some(nth),
            })
        };
        let (victim, bystander) = (0, 1);
        let (tx, inbox) = sync_channel(4);
        let (counters, closed) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| shard_worker(new_detector, None, 0, inbox));
            // The two sessions' batches interleave on the one shard.
            batch_msgs(victim, &actions)
                .zip(batch_msgs(bystander, &actions))
                .for_each(|(v, b)| {
                    tx.send(v).unwrap();
                    tx.send(b).unwrap();
                });
            let closed: Vec<_> = [victim, bystander]
                .into_iter()
                .map(|session| {
                    let (reply, closed) = sync_channel(1);
                    let reply = Some(reply);
                    tx.send(ShardMsg::Close { session, reply }).unwrap();
                    closed.recv().unwrap()
                })
                .collect();
            drop(tx);
            (worker.join().unwrap(), closed)
        });

        let Err(lost) = &closed[0] else {
            panic!("the victim survived its detector panic");
        };
        assert_eq!(lost.attempts, 1, "a detector panic is never retried");
        assert!(lost.reason.contains("detector bug"), "{lost}");
        assert_eq!(closed[1], Ok(clean), "the bystander is untouched");
        assert_eq!(counters.sessions, 2);
        assert_eq!(counters.sessions_lost, 1);
        assert_eq!(counters.shard_restarts, 0, "no drill ran");
        assert_eq!(counters.events, nth + actions.len() as u64);
    }

    #[test]
    fn duplicate_names_are_rejected_without_contamination() {
        let bytes = racy_trace().to_binary();
        let out = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), bytes.clone()), ("a".into(), bytes)],
            1,
        )
        .unwrap();
        assert_eq!(out.reports.len(), 2);
        assert!(!out.reports[0].error);
        assert!(out.reports[1].error);
        assert!(out.reports[1].body.contains("duplicate session name"));
        assert!(out.any_errors());
    }

    #[test]
    fn corrupt_session_does_not_poison_others() {
        let good = racy_trace().to_binary();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let out = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("bad".into(), bad), ("good".into(), good.clone())],
            2,
        )
        .unwrap();
        let by_name = |n: &str| out.reports.iter().find(|r| r.name == n).unwrap();
        assert!(by_name("bad").error);
        assert!(by_name("bad").body.starts_with("error: "));
        let alone = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("good".into(), good)],
            1,
        )
        .unwrap();
        assert_eq!(by_name("good").body, alone.reports[0].body);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.admitted, 2);
        assert_eq!(out.sessions.completed, 1);
        assert_eq!(out.sessions.failed, 1);
    }

    #[test]
    fn deadline_rejects_only_over_budget_sessions() {
        let bytes = racy_trace().to_binary();
        let clean = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), bytes.clone())],
            1,
        )
        .unwrap();
        let events = clean.reports[0].events;
        assert!(events > 1);

        // Exactly at the budget: still clean (the check is one past).
        let mut at = cfg(ServeDetectorKind::FastTrack, 2);
        at.deadline_events = Some(events);
        let out = serve_sessions(&at, vec![("a".into(), bytes.clone())], 1).unwrap();
        assert_eq!(out.reports[0].body, clean.reports[0].body);
        assert_eq!(out.reports[0].outcome, SessionOutcome::Clean);

        // One under: rejected with a typed deadline error.
        let mut under = cfg(ServeDetectorKind::FastTrack, 2);
        under.deadline_events = Some(events - 1);
        let out = serve_sessions(&under, vec![("a".into(), bytes)], 1).unwrap();
        assert!(out.reports[0].error);
        assert_eq!(out.reports[0].outcome, SessionOutcome::Failed);
        assert!(
            out.reports[0].body.contains("session deadline exceeded"),
            "{}",
            out.reports[0].body
        );
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
    }

    #[test]
    fn injected_shard_panics_rebuild_without_changing_reports() {
        let bytes = racy_trace().to_binary();
        let sessions = vec![("a".into(), bytes.clone()), ("b".into(), bytes)];
        let clean =
            serve_sessions(&cfg(ServeDetectorKind::FastTrack, 2), sessions.clone(), 1).unwrap();

        // Panic on every event's first attempt; the default limit=1
        // stops it firing on the supervised retry.
        let mut chaos = cfg(ServeDetectorKind::FastTrack, 2);
        chaos.fault_plan = Some(pacer_faults::FaultPlan::parse("shard-panic every=1\n").unwrap());
        let out = serve_sessions(&chaos, sessions, 1).unwrap();

        assert_eq!(out.transcript, clean.transcript, "chaos must be invisible");
        let restarts: u64 = out.shard_counters.iter().map(|c| c.shard_restarts).sum();
        assert!(restarts > 0, "the plan must actually have fired");
        let lost: u64 = out.shard_counters.iter().map(|c| c.sessions_lost).sum();
        assert_eq!(lost, 0);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.completed, 2);
    }

    #[test]
    fn exhausted_retries_lose_only_the_owning_session() {
        let bytes = racy_trace().to_binary();
        // Fires on shard event index 0 alone (`every` far above the
        // event count), on every attempt: the first session's first
        // event exhausts the budget and is abandoned; the second
        // session's events arrive at later indices and never fire.
        let mut config = cfg(ServeDetectorKind::FastTrack, 1);
        config.fault_plan = Some(
            pacer_faults::FaultPlan::parse("shard-panic every=1000000000 limit=100\n").unwrap(),
        );
        let out = serve_sessions(
            &config,
            vec![
                ("victim".into(), bytes.clone()),
                ("bystander".into(), bytes.clone()),
            ],
            1,
        )
        .unwrap();
        let by_name = |n: &str| out.reports.iter().find(|r| r.name == n).unwrap();
        let victim = by_name("victim");
        assert!(victim.error);
        assert_eq!(victim.outcome, SessionOutcome::ShardLost);
        assert!(
            victim.body.contains("shard lost after 3 attempt(s)")
                && victim.body.contains("injected: shard panic"),
            "{}",
            victim.body
        );

        let clean = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 1),
            vec![("bystander".into(), bytes)],
            1,
        )
        .unwrap();
        assert_eq!(by_name("bystander").body, clean.reports[0].body);

        assert_eq!(out.shard_counters[0].sessions_lost, 1);
        assert_eq!(out.shard_counters[0].shard_restarts, 3);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
        assert_eq!(out.sessions.completed, 1);
    }

    // ------------------------------------------------------------------
    // Durable (reconnectable) session engine
    // ------------------------------------------------------------------

    /// One wire frame per action, so durable flows exercise multi-frame
    /// streams even for small traces.
    fn per_action_frames(trace: &Trace) -> Vec<Vec<u8>> {
        trace
            .actions()
            .iter()
            .map(|action| {
                let bytes = binary::encode_trace(&Trace::from_actions(vec![*action]));
                bytes[binary::HEADER_LEN..].to_vec()
            })
            .collect()
    }

    fn durable_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pacer-durable-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open_started(handle: &ServiceHandle, name: &str) -> u64 {
        match handle.durable_open(name, false) {
            DurableOpen::Started { epoch } => epoch,
            other => panic!("expected Started, got {other:?}"),
        }
    }

    /// Streams `trace` one action per frame through the durable API and
    /// returns its report, plus whether a frame (rather than `END`)
    /// ended the session.
    fn durable_report(handle: &ServiceHandle, name: &str, trace: &Trace) -> (SessionReport, bool) {
        let frames = per_action_frames(trace);
        let epoch = open_started(handle, name);
        for (offset, frame) in frames.iter().enumerate() {
            match handle.durable_frame(name, epoch, offset as u64, frame) {
                Ok(ack) => assert_eq!(ack.applied(), offset as u64 + 1),
                Err(DurableFrameError::Failed(report)) => return (report, true),
                Err(DurableFrameError::Detached) => panic!("{name}: detached at {offset}"),
            }
        }
        let report = handle.durable_close(name, epoch, frames.len() as u64);
        (report.unwrap(), false)
    }

    /// Runs `session` alongside a held-open durable session, which keeps
    /// detector state live at the admission, then ends the held one.
    /// With `durable`, `session` streams frame by frame; otherwise it is
    /// served as one whole body. Returns the output, the session's
    /// report, and whether a frame ended it.
    fn beside_held(
        config: &ServeConfig,
        session: &Trace,
        durable: bool,
    ) -> (ServeOutput, SessionReport, bool) {
        let hold = per_action_frames(&racy_trace());
        let (out, (report, at_frame)) = run_service(config, |handle| {
            let epoch = open_started(handle, "hold");
            for (offset, frame) in hold.iter().take(2).enumerate() {
                handle
                    .durable_frame("hold", epoch, offset as u64, frame)
                    .unwrap();
            }
            let ended = if durable {
                durable_report(handle, "a", session)
            } else {
                (handle.serve("a", &session.to_binary()[..]), false)
            };
            handle.durable_close("hold", epoch, 2).unwrap();
            Ok(ended)
        })
        .unwrap();
        (out, report, at_frame)
    }

    #[test]
    fn durable_session_report_matches_direct_serve() {
        let trace = racy_trace();
        // A `send` outside any sampling period, after the racy events.
        let mut invalid = trace.actions().to_vec();
        invalid.push(Action::SampleEnd);
        let invalid = Trace::from_actions(invalid);
        for shards in [1, 4] {
            let plain = cfg(ServeDetectorKind::FastTrack, shards);
            let deadline = ServeConfig {
                deadline_events: Some(trace.len() as u64 - 1),
                ..plain.clone()
            };
            let budget = ServeConfig {
                mem_budget: Some(1),
                ..plain.clone()
            };
            let cases = [
                ("clean", &plain, &trace, SessionOutcome::Clean),
                ("invalid", &plain, &invalid, SessionOutcome::Failed),
                ("deadline", &deadline, &trace, SessionOutcome::Failed),
                ("shed", &budget, &trace, SessionOutcome::Shed),
            ];
            for (case, config, input, outcome) in cases {
                let context = format!("{case} at --shards {shards}");
                let (out, report, at_frame) = beside_held(config, input, true);
                let (direct, served, _) = beside_held(config, input, false);
                assert_eq!(report.body, served.body, "{context}");
                assert_eq!(report.outcome, outcome, "{context}: {}", report.body);
                assert_eq!(served.outcome, outcome, "{context}");
                assert_eq!(report.events, served.events, "{context}");
                assert_eq!(report.shed_millionths, served.shed_millionths, "{context}");
                // A failure surfaces at the offending frame, not at `END`.
                assert_eq!(at_frame, outcome == SessionOutcome::Failed, "{context}");
                assert_eq!(out.transcript, direct.transcript, "{context}");
                assert_conserved(&out);
            }
        }
    }

    /// The ledger conserves, every event a report counts reached its
    /// shard, and only reports that count races added them to a shard.
    fn assert_conserved(out: &ServeOutput) {
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        let shard_events: u64 = out.shard_counters.iter().map(|c| c.events).sum();
        let shard_races: u64 = out.shard_counters.iter().map(|c| c.races).sum();
        let events: u64 = out.reports.iter().map(|r| r.events).sum();
        let races: u64 = out.reports.iter().map(|r| r.dynamic_races).sum();
        assert_eq!(
            (shard_events, shard_races),
            (events, races),
            "{:?}",
            out.reports
        );
    }

    /// Opens a durable `big_trace()` session and acks only its first,
    /// 100-event frame, admits `racy_trace()` meanwhile at `shards`
    /// shards under a `budget`-byte memory budget, and returns that
    /// second admission's report. The durable session must still finish
    /// byte-identical to a direct serve.
    fn durable_held_open_admission(shards: usize, budget: u64) -> SessionReport {
        let frames = reframe(&big_trace(), 100, 4096);
        let mut whole = binary::HEADER.to_vec();
        frames.iter().for_each(|f| whole.extend_from_slice(f));
        let config = ServeConfig {
            mem_budget: Some(budget),
            ..cfg(ServeDetectorKind::FastTrack, shards)
        };
        let (_, short) = run_service(&config, |handle| {
            let epoch = open_started(handle, "long");
            handle.durable_frame("long", epoch, 0, &frames[0]).unwrap();
            let short = handle.serve("short", &racy_trace().to_binary()[..]);
            assert!(!short.error, "{short:?}");
            for (offset, frame) in frames.iter().enumerate().skip(1) {
                handle
                    .durable_frame("long", epoch, offset as u64, frame)
                    .unwrap();
            }
            let long = handle
                .durable_close("long", epoch, frames.len() as u64)
                .unwrap();
            assert_eq!(long.shed_millionths, None);
            let direct = serve_sessions(
                &cfg(ServeDetectorKind::FastTrack, shards),
                vec![("long".into(), whole)],
                1,
            )
            .unwrap();
            assert_eq!(long.body, direct.reports[0].body);
            Ok(short)
        })
        .unwrap();
        short
    }

    #[test]
    fn acked_durable_frames_are_visible_to_admission() {
        // An acked frame's events are in the shard before `END`, so the
        // governor's poll counts them at any shard count.
        let mut shed_at = Vec::new();
        for budget in (8..=23).map(|bits| 1u64 << bits) {
            let one = durable_held_open_admission(1, budget);
            for shards in [2, 4] {
                let short = durable_held_open_admission(shards, budget);
                let context = format!("budget {budget}: --shards {shards} vs 1");
                assert_eq!(short.shed_millionths, one.shed_millionths, "{context}");
                assert_eq!(short.body, one.body, "{context}");
            }
            shed_at.push((budget, one.shed_millionths));
        }
        assert_eq!(shed_at[0].1, Some(500_000), "{shed_at:?}");
        assert_eq!(shed_at[shed_at.len() - 1].1, None, "{shed_at:?}");
    }

    #[test]
    fn durable_frames_dedup_by_offset() {
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        let config = cfg(ServeDetectorKind::FastTrack, 2);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            for (offset, frame) in frames.iter().enumerate() {
                handle
                    .durable_frame("a", epoch, offset as u64, frame)
                    .unwrap();
                // A retransmitted overlap of the same frame: skipped,
                // re-acked at the same watermark.
                match handle.durable_frame("a", epoch, offset as u64, frame) {
                    Ok(FrameAck::Duplicate { applied }) => {
                        assert_eq!(applied, offset as u64 + 1);
                    }
                    other => panic!("expected Duplicate, got {other:?}"),
                }
            }
            handle
                .durable_close("a", epoch, frames.len() as u64)
                .unwrap();
            Ok(())
        })
        .unwrap();
        assert_eq!(out.transport.frames_deduped, frames.len() as u64);
        let direct = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), trace.to_binary())],
            1,
        )
        .unwrap();
        assert_eq!(out.reports[0].body, direct.reports[0].body);
    }

    #[test]
    fn durable_frame_gap_fails_session() {
        let frames = per_action_frames(&racy_trace());
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            match handle.durable_frame("a", epoch, 3, &frames[3]) {
                Err(DurableFrameError::Failed(report)) => {
                    assert!(report.error);
                    assert!(report.body.contains("frame gap"), "{}", report.body);
                }
                other => panic!("expected Failed, got {other:?}"),
            }
            // The slot is gone: further frames from this connection are
            // fenced off.
            assert!(matches!(
                handle.durable_frame("a", epoch, 0, &frames[0]),
                Err(DurableFrameError::Detached)
            ));
            Ok(())
        })
        .unwrap();
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
        assert_eq!(out.reports[0].outcome, SessionOutcome::Failed);
    }

    #[test]
    fn durable_detach_resume_fences_stale_epoch() {
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        let config = cfg(ServeDetectorKind::FastTrack, 2);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            handle.durable_frame("a", epoch, 0, &frames[0]).unwrap();
            handle.durable_detach("a", epoch);

            let (epoch2, applied) = match handle.durable_open("a", true) {
                DurableOpen::Resumed { epoch, applied } => (epoch, applied),
                other => panic!("expected Resumed, got {other:?}"),
            };
            assert_eq!((epoch2, applied), (epoch + 1, 1));

            // The old connection wakes up and tries to keep writing: it
            // is fenced, and its writes change nothing.
            assert!(matches!(
                handle.durable_frame("a", epoch, 1, &frames[1]),
                Err(DurableFrameError::Detached)
            ));
            assert!(matches!(
                handle.durable_close("a", epoch, 1),
                Err(DurableFrameError::Detached)
            ));

            for (offset, frame) in frames.iter().enumerate().skip(applied as usize) {
                handle
                    .durable_frame("a", epoch2, offset as u64, frame)
                    .unwrap();
            }
            let report = handle
                .durable_close("a", epoch2, frames.len() as u64)
                .unwrap();
            assert!(!report.error, "{}", report.body);
            Ok(())
        })
        .unwrap();
        assert_eq!(out.transport.session_resumes, 1);
        let direct = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), trace.to_binary())],
            1,
        )
        .unwrap();
        assert_eq!(out.reports[0].body, direct.reports[0].body);
    }

    #[test]
    fn resume_of_completed_session_re_serves_report() {
        let frames = per_action_frames(&racy_trace());
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (_, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            for (offset, frame) in frames.iter().enumerate() {
                handle
                    .durable_frame("a", epoch, offset as u64, frame)
                    .unwrap();
            }
            let report = handle
                .durable_close("a", epoch, frames.len() as u64)
                .unwrap();
            match handle.durable_open("a", true) {
                DurableOpen::Completed(again) => assert_eq!(again, report),
                other => panic!("expected Completed, got {other:?}"),
            }
            // A fresh SESSION under the same name is still a duplicate.
            assert!(matches!(
                handle.durable_open("a", false),
                DurableOpen::Rejected(_)
            ));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn resume_after_restart_re_serves_the_journaled_report() {
        let dir = durable_dir("restart-resume");
        let frames = per_action_frames(&racy_trace());
        let mut config = ServeConfig {
            shards: 1,
            wal: Some(dir.join("wal")),
            checkpoint: Some(dir.join("journal")),
            ..ServeConfig::new(ServeDetectorKind::FastTrack)
        };
        let (_, report) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            for (offset, frame) in frames.iter().enumerate() {
                handle
                    .durable_frame("a", epoch, offset as u64, frame)
                    .unwrap();
            }
            Ok(handle.durable_close("a", epoch, frames.len() as u64))
        })
        .unwrap();
        let report = report.unwrap();

        // The restarted daemon holds `a` only as a journaled report, and
        // its WAL segment is gone.
        config.resume = true;
        let (out, again) =
            run_service(&config, |handle| Ok(handle.durable_open("a", true))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        match again {
            DurableOpen::Completed(again) => assert_eq!(again, report),
            other => panic!("expected Completed, got {other:?}"),
        }
        assert_eq!(out.reports, vec![report]);
        assert_eq!(out.transport.session_resumes, 1);
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.restored, 1);
    }

    #[test]
    fn resume_of_unknown_session_is_rejected() {
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (out, ()) = run_service(&config, |handle| {
            match handle.durable_open("ghost", true) {
                DurableOpen::Rejected(msg) => assert!(msg.contains("unknown session"), "{msg}"),
                other => panic!("expected Rejected, got {other:?}"),
            }
            assert!(matches!(
                handle.durable_open("bad name!", false),
                DurableOpen::Rejected(_)
            ));
            Ok(())
        })
        .unwrap();
        assert_eq!(out.transport.resumes_rejected, 1);
    }

    #[test]
    fn durable_tick_reaps_idle_detached_sessions() {
        let dir = durable_dir("tick-reap");
        let config = ServeConfig {
            shards: 1,
            idle_timeout_ticks: Some(2),
            wal: Some(dir.clone()),
            ..ServeConfig::new(ServeDetectorKind::FastTrack)
        };
        let frames = per_action_frames(&racy_trace());
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            handle.durable_frame("a", epoch, 0, &frames[0]).unwrap();
            // Attached slots never age.
            assert!(handle.durable_tick().is_empty());
            handle.durable_detach("a", epoch);
            assert!(handle.durable_tick().is_empty());
            let reaped = handle.durable_tick();
            assert_eq!(reaped.len(), 1);
            assert_eq!(reaped[0].outcome, SessionOutcome::Reaped);
            assert!(
                reaped[0].body.contains("idle timeout"),
                "{}",
                reaped[0].body
            );
            // Tick-reap retires the WAL segment: the lease expired for
            // good, there is nothing to come back to.
            assert!(!wal_path(&dir, "a").exists());
            Ok(())
        })
        .unwrap();
        assert_conserved(&out);
        assert_eq!(out.sessions.reaped, 1);
        // The reaped frame reached the shard before the lease expired.
        assert_eq!(out.reports[0].events, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_reap_preserves_wal_and_cold_resume_completes() {
        let dir = durable_dir("cold-resume");
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        let config = ServeConfig {
            shards: 2,
            wal: Some(dir.clone()),
            ..ServeConfig::new(ServeDetectorKind::FastTrack)
        };

        // Run 1: two frames land, then the server shuts down.
        let (out1, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            handle.durable_frame("a", epoch, 0, &frames[0]).unwrap();
            handle.durable_frame("a", epoch, 1, &frames[1]).unwrap();
            let reaped = handle.durable_reap_remaining();
            assert_eq!(reaped.len(), 1);
            assert_eq!(reaped[0].outcome, SessionOutcome::Reaped);
            Ok(())
        })
        .unwrap();
        assert_conserved(&out1);
        assert_eq!(out1.reports[0].events, 2, "acked frames reach the shard");
        assert_eq!(out1.transport.frames_journaled, 2);
        let wal = wal_path(&dir, "a");
        assert!(wal.exists(), "shutdown reap must retain the wal segment");

        // A crash can tear the tail of the segment mid-append; the
        // rebuild truncates back to the last complete frame.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
            f.write_all(&[0x07, 0x00, 0x00]).unwrap();
        }

        // Run 2: cold resume from the segment alone.
        let (out2, ()) = run_service(&config, |handle| {
            let (epoch, applied) = match handle.durable_open("a", true) {
                DurableOpen::Resumed { epoch, applied } => (epoch, applied),
                other => panic!("expected Resumed, got {other:?}"),
            };
            assert_eq!(applied, 2, "torn tail must not cost complete frames");
            for (offset, frame) in frames.iter().enumerate().skip(applied as usize) {
                handle
                    .durable_frame("a", epoch, offset as u64, frame)
                    .unwrap();
            }
            let report = handle
                .durable_close("a", epoch, frames.len() as u64)
                .unwrap();
            assert!(!report.error, "{}", report.body);
            Ok(())
        })
        .unwrap();
        assert_eq!(out2.transport.session_resumes, 1);
        assert!(!wal.exists(), "completion must retire the wal segment");

        let direct = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, 2),
            vec![("a".into(), trace.to_binary())],
            1,
        )
        .unwrap();
        assert_eq!(out2.reports[0].body, direct.reports[0].body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_counts_alike_on_every_transport() {
        let trace = big_trace();
        let mut frames = reframe(&trace, 4096, 4096);
        // Frame 2's last event turns malformed under a checksum that
        // still holds, so only the event decode can reject it.
        let frame = &mut frames[1];
        *frame.last_mut().unwrap() = 0xff;
        let checksum = fnv1a64(&frame[binary::FRAME_OVERHEAD..]);
        frame[4..binary::FRAME_OVERHEAD].copy_from_slice(&checksum.to_le_bytes());
        let mut whole = binary::HEADER.to_vec();
        frames.iter().for_each(|f| whole.extend_from_slice(f));

        let config = cfg(ServeDetectorKind::FastTrack, 2);
        let streamed = serve_sessions(&config, vec![("a".into(), whole)], 1).unwrap();
        let (durable, acked) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            let acked = frames
                .iter()
                .enumerate()
                .take_while(|&(offset, frame)| {
                    handle
                        .durable_frame("a", epoch, offset as u64, frame)
                        .is_ok()
                })
                .count();
            Ok(acked)
        })
        .unwrap();

        assert_eq!(acked, 1, "frame 2 fails the session");
        let (bytes, frames) = (&streamed.reports[0], &durable.reports[0]);
        assert!(
            bytes.body.starts_with("error: frame 2 corrupt"),
            "{}",
            bytes.body
        );
        assert_eq!(frames.body, bytes.body);
        let before_malformed = trace.len().min(2 * 4096) as u64 - 1;
        assert_eq!(
            (frames.events, bytes.events),
            (before_malformed, before_malformed)
        );
        assert_eq!(durable.transcript, streamed.transcript);
        assert_conserved(&streamed);
        assert_conserved(&durable);
    }

    #[test]
    fn durable_frame_rejects_corrupt_payload() {
        let frames = per_action_frames(&racy_trace());
        let config = cfg(ServeDetectorKind::FastTrack, 1);
        let (out, ()) = run_service(&config, |handle| {
            let epoch = open_started(handle, "a");
            let mut bad = frames[0].clone();
            *bad.last_mut().unwrap() ^= 0xff;
            match handle.durable_frame("a", epoch, 0, &bad) {
                Err(DurableFrameError::Failed(report)) => {
                    assert!(report.error, "{}", report.body);
                }
                other => panic!("expected Failed, got {other:?}"),
            }
            Ok(())
        })
        .unwrap();
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.failed, 1);
    }
}
