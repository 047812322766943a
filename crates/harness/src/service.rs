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
//! A session's events travel to its shard in batches, one inbox message
//! each. A batch is sent when full, when the decoder finishes a `.ptrace`
//! frame, and at the end of the stream. The frame flush means a session
//! blocked on its client's next frame has every decoded event in its
//! shard, where the governor's footprint poll can see it.
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
//! connections). Each shard inbox holds at most 1024 in-flight events (4
//! full batches); a handler routing into a full inbox blocks. Full
//! protocol and lifecycle rules live in `SERVICE.md`.
//!
//! # Supervision and lifecycle budgets
//!
//! Each shard worker applies events under a [`Supervisor`], one event at
//! a time even within a batch: a panic in a detector callback is caught,
//! the shard's sessions are rebuilt deterministically by replaying their
//! retained batches through fresh detectors, and the event is retried —
//! so the transcript stays byte-identical to an uncrashed run. Only when
//! the per-event attempt budget is exhausted does the *owning session*
//! (and no other) fail with a typed [`ShardLost`] note. Sessions also
//! carry lifecycle budgets: an event deadline
//! (`--session-deadline-events`), an idle-timeout reaper driven by
//! deterministic poll ticks (`--idle-timeout`), and the `pacer-faults`
//! serve sites (`shard-panic`, `conn-drop`, `inbox-stall`) for chaos
//! drills. Every terminal outcome lands in exactly one
//! [`SessionOutcome`] bucket, giving the conservation law
//! `admitted == completed + shed + failed + reaped`
//! ([`SessionCounters::conserved`]).

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
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
use pacer_trace::gen::ResampleSampling;
use pacer_trace::stream::{AnyTraceReader, TraceStreamError, ValidatedActions};
use pacer_trace::{Action, Detector, SiteId};

use crate::journal::{self, JournalWriter};
use crate::resilient::panic_message;
use crate::shard::{self, Inboxes, ShardDown, ShardLost, Supervisor};

/// Bytes per metadata word, matching the space-accounting convention
/// used by the governor's memory budget everywhere else in the suite.
const WORD_BYTES: u64 = 8;

/// Detector families the service can run per shard. Mirrors the `pacer
/// replay` dispatch exactly (including `pacer-accordion` mapping to the
/// plain PACER engine) so per-session reports stay byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeDetectorKind {
    /// PACER (also selected by the name `pacer-accordion`).
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
            "pacer" | "pacer-accordion" => Ok(ServeDetectorKind::Pacer),
            "fasttrack" => Ok(ServeDetectorKind::FastTrack),
            "generic" => Ok(ServeDetectorKind::Generic),
            "literace" => Ok(ServeDetectorKind::LiteRace),
            other => Err(format!("unknown detector `{other}`")),
        }
    }
}

/// One session's detector instance.
enum ServeDetector {
    Pacer(PacerDetector),
    FastTrack(FastTrackDetector),
    Generic(GenericDetector),
    LiteRace(LiteRaceDetector),
}

impl ServeDetector {
    fn build(kind: ServeDetectorKind, seed: u64) -> ServeDetector {
        match kind {
            ServeDetectorKind::Pacer => ServeDetector::Pacer(PacerDetector::new()),
            ServeDetectorKind::FastTrack => ServeDetector::FastTrack(FastTrackDetector::new()),
            ServeDetectorKind::Generic => ServeDetector::Generic(GenericDetector::new()),
            ServeDetectorKind::LiteRace => {
                ServeDetector::LiteRace(LiteRaceDetector::new(LiteRaceConfig::default(), seed))
            }
        }
    }

    fn on_action(&mut self, action: &Action) {
        match self {
            ServeDetector::Pacer(d) => d.on_action(action),
            ServeDetector::FastTrack(d) => d.on_action(action),
            ServeDetector::Generic(d) => d.on_action(action),
            ServeDetector::LiteRace(d) => d.on_action(action),
        }
    }

    fn dynamic_races(&self) -> u64 {
        let races = match self {
            ServeDetector::Pacer(d) => d.races(),
            ServeDetector::FastTrack(d) => d.races(),
            ServeDetector::Generic(d) => d.races(),
            ServeDetector::LiteRace(d) => d.races(),
        };
        races.len() as u64
    }

    fn distinct_races(&self) -> Vec<(SiteId, SiteId)> {
        match self {
            ServeDetector::Pacer(d) => d.distinct_races(),
            ServeDetector::FastTrack(d) => d.distinct_races(),
            ServeDetector::Generic(d) => d.distinct_races(),
            ServeDetector::LiteRace(d) => d.distinct_races(),
        }
    }

    fn footprint_words(&self) -> u64 {
        match self {
            ServeDetector::Pacer(d) => d.space_breakdown().total_words(),
            ServeDetector::FastTrack(d) => d.space_breakdown().total_words(),
            ServeDetector::Generic(d) => d.space_breakdown().total_words(),
            ServeDetector::LiteRace(d) => d.space_breakdown().total_words(),
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
    /// Idle poll ticks before a stalled session is reaped
    /// (`--idle-timeout`). A tick is one timeout-ish read
    /// (`WouldBlock`/`TimedOut`); any delivered byte resets the count.
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
    /// Reaped by the idle timeout before its stream completed.
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
    /// appends, dedups); all-zero for unix-socket and stdin runs.
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

/// Messages a session handler sends to its session's shard (and the
/// governor's poll, to every shard). Per-channel FIFO plus one handler
/// per session gives the shard the session's events in stream order;
/// `Close` doubles as the flush barrier.
#[derive(Clone)]
enum ShardMsg {
    /// A batch of `session`'s events, in stream order.
    Events { session: u32, actions: Vec<Action> },
    /// Flush barrier: reply with the session's races, or the note
    /// supervision abandoned it with, and drop its state.
    Close {
        session: u32,
        reply: SyncSender<Result<SessionRaces, ShardLost>>,
    },
    /// Reply with the shard's total live metadata footprint, in words.
    Poll { reply: SyncSender<u64> },
}

/// A closed session's dynamic race count and its distinct site pairs.
type SessionRaces = (u64, Vec<(SiteId, SiteId)>);

/// Replays granted to each event application after its first panicking
/// attempt. Three total attempts sits comfortably above `limit=1` chaos
/// plans (which stop firing after attempt 0, so the first replay
/// succeeds) while bounding the work a deterministically-panicking
/// organic bug can consume before its session is abandoned.
const SHARD_EVENT_RETRIES: u32 = 2;

/// Events per batch. The route stage fills one buffer per session and
/// sends it as a single inbox message once it holds this many events (or
/// earlier, at a frame boundary or the end of the stream).
const BATCH_EVENTS: usize = 256;

/// In-flight events a shard inbox holds before routing blocks: the
/// backpressure depth. The channel bound is this many events' worth of
/// full batches.
const INBOX_EVENTS: usize = 1024;

/// One session's state on its shard: live (a detector plus the retained
/// log that makes rebuild-by-replay possible: the session's applied
/// batches, kept as sent), or abandoned after supervision exhausted the
/// per-event attempt budget.
enum SessionSlot {
    Live {
        det: ServeDetector,
        log: Vec<Vec<Action>>,
    },
    Lost(ShardLost),
}

/// Rebuilds every live slot deterministically by replaying its retained
/// batches through a fresh detector — shard state is a pure function of
/// the event stream, so this restores exactly the pre-panic state. The
/// session mid-batch (`current`) also replays `applied`, the prefix of
/// its in-flight batch already absorbed. A slot whose *replay* panics is
/// unrecoverable (the poison is in its own history) and becomes
/// [`SessionSlot::Lost`]; every other session is unaffected.
fn rebuild_sessions(
    kind: ServeDetectorKind,
    seed: u64,
    sessions: &mut BTreeMap<u32, SessionSlot>,
    current: u32,
    applied: &[Action],
) {
    for (&session, slot) in sessions.iter_mut() {
        let SessionSlot::Live { det, log } = slot else {
            continue;
        };
        let prefix = if session == current { applied } else { &[] };
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            let mut fresh = ServeDetector::build(kind, seed);
            for action in log.iter().flatten().chain(prefix) {
                fresh.on_action(action);
            }
            fresh
        }));
        match replayed {
            Ok(fresh) => *det = fresh,
            Err(payload) => {
                *slot = SessionSlot::Lost(ShardLost {
                    reason: panic_message(payload.as_ref()),
                    attempts: 1,
                });
            }
        }
    }
}

fn shard_worker(
    kind: ServeDetectorKind,
    seed: u64,
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
    // event regardless of how many supervised attempts it takes (or
    // whether it is ultimately lost) — so a `limit=1` plan stops firing
    // on the first retry and the rebuilt state absorbs the event
    // exactly once.
    let mut arrivals: u64 = 0;
    for msg in inbox {
        match msg {
            ShardMsg::Events { session, actions } => {
                sessions.entry(session).or_insert_with(|| {
                    counters.sessions += 1;
                    SessionSlot::Live {
                        det: ServeDetector::build(kind, seed),
                        log: Vec::new(),
                    }
                });
                for (i, action) in actions.iter().enumerate() {
                    let arrival = arrivals;
                    arrivals += 1;
                    let applied = supervisor.supervise(
                        &mut sessions,
                        |sessions, attempt| {
                            let Some(SessionSlot::Live { det, .. }) = sessions.get_mut(&session)
                            else {
                                // Abandoned: drain the session's remaining
                                // events without applying or counting them.
                                return false;
                            };
                            if plan.is_some_and(|p| p.shard_panic_fires(arrival, attempt)) {
                                panic!(
                                    "{INJECTED_PREFIX}shard panic (shard {shard}, event {arrival})"
                                );
                            }
                            det.on_action(action);
                            true
                        },
                        |sessions| rebuild_sessions(kind, seed, sessions, session, &actions[..i]),
                    );
                    counters.shard_restarts = supervisor.restarts();
                    match applied {
                        Ok(true) => {
                            counters.events += 1;
                            if action.is_access() {
                                counters.accesses += 1;
                            }
                        }
                        Ok(false) => {}
                        Err(lost) => {
                            sessions.insert(session, SessionSlot::Lost(lost));
                        }
                    }
                }
                if let Some(SessionSlot::Live { log, .. }) = sessions.get_mut(&session) {
                    log.push(actions);
                }
            }
            ShardMsg::Close { session, reply } => {
                let closed = match sessions.remove(&session) {
                    Some(SessionSlot::Live { det, .. }) => {
                        let dynamic = det.dynamic_races();
                        counters.races += dynamic;
                        Ok((dynamic, det.distinct_races()))
                    }
                    Some(SessionSlot::Lost(lost)) => {
                        counters.sessions_lost += 1;
                        Err(lost)
                    }
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
                        SessionSlot::Live { det, .. } => det.footprint_words(),
                        SessionSlot::Lost(_) => 0,
                    })
                    .sum();
                let _ = reply.send(live);
            }
        }
    }
    counters
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

/// One durable session accumulating verified frames until `END`.
///
/// Durable sessions do not stream into shards as frames arrive: each
/// accepted frame is checksum-verified, deduped by offset, appended to
/// memory (and the WAL segment, when armed), and acked. At `END` the
/// whole byte stream — `.ptrace` header plus frames — runs through the
/// same ingest path as every other transport, so the report is
/// byte-identical to an uninterrupted `pacer replay` by construction.
struct DurableSlot {
    name: String,
    /// Shard-routing session id, assigned at admission.
    session: u32,
    /// Governor shed rate fixed at admission (like any other session).
    shed: Option<u32>,
    /// Bumped on every attach; a connection holding a stale epoch lost
    /// the slot to a newer `RESUME` and must drop out silently.
    epoch: u64,
    /// Whether a connection currently owns the slot.
    attached: bool,
    /// Idle-lease ticks accumulated while detached.
    idle_ticks: u32,
    /// Accepted frame bytes in offset order (header + payload verbatim).
    frames: Vec<Vec<u8>>,
    /// Open write-ahead segment, when a WAL directory is armed.
    wal: Option<std::fs::File>,
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
    /// a connection lost between `END` and the report delivery).
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
    /// The session terminally failed (gap, corrupt frame, WAL error) and
    /// has been filed; send the report body, then close the connection.
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

/// The 8-byte `.ptrace` header durable slots prepend at assembly (the
/// wire carries frames only — the header is a constant).
fn ptrace_header() -> [u8; binary::HEADER_LEN] {
    let mut header = [0u8; binary::HEADER_LEN];
    header[..4].copy_from_slice(&binary::MAGIC);
    header[4] = binary::FORMAT_VERSION;
    header
}

/// Appends one frame to a WAL segment and makes it durable.
fn append_wal(wal: &mut std::fs::File, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    wal.write_all(bytes)?;
    wal.sync_data()
}

impl ServiceHandle<'_> {
    /// Serves one complete session from `source`, blocking until its
    /// report is merged; the returned body is what the transport should
    /// send back to the client.
    pub fn serve(&self, name: &str, source: impl Read) -> SessionReport {
        let admission = self.admit(name);
        let report = match admission {
            Admission::Restored(report) => return report,
            Admission::Duplicate => SessionReport {
                name: name.to_string(),
                body: "error: duplicate session name\n".to_string(),
                events: 0,
                dynamic_races: 0,
                distinct_races: 0,
                shed_millionths: None,
                truncated: false,
                error: true,
                outcome: SessionOutcome::Failed,
            },
            Admission::Admit { session, shed } => self.ingest(name, session, shed, source),
        };
        self.complete(report)
    }

    /// Admission decision for a named session: restored from the
    /// journal, rejected as a duplicate, or admitted at the governor's
    /// current rate.
    fn admit(&self, name: &str) -> Admission {
        let mut state = lock(&self.state);
        if let Some(r) = state.restored.iter().position(|r| r.name == name) {
            let report = state.restored.swap_remove(r);
            state.names.insert(report.name.clone());
            state.sessions.admitted += 1;
            state.sessions.restored += 1;
            bucket(&mut state.sessions, report.outcome);
            state.completed.push(report.clone());
            return Admission::Restored(report);
        }
        if !state.names.insert(name.to_string()) {
            return Admission::Duplicate;
        }
        let shed = self.governor_rate(&mut state);
        drop(state);
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        Admission::Admit { session, shed }
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

    /// Decodes, validates, routes, and flushes one admitted session,
    /// enforcing the lifecycle budgets (deadline, idle reaper,
    /// `conn-drop`) along the way.
    fn ingest(
        &self,
        name: &str,
        session: u32,
        shed: Option<u32>,
        source: impl Read,
    ) -> SessionReport {
        let error_report = |message: String, events: u64, outcome: SessionOutcome| SessionReport {
            name: name.to_string(),
            body: format!("error: {message}\n"),
            events,
            dynamic_races: 0,
            distinct_races: 0,
            shed_millionths: shed,
            truncated: false,
            error: true,
            outcome,
        };
        let idle_note = |ticks: u32| format!("idle timeout: reaped after {ticks} idle tick(s)");

        // Lifecycle wrapper: the `conn-drop` chaos site caps the bytes
        // delivered (simulating a client vanishing mid-stream) and the
        // idle reaper counts timeout-ish reads as poll ticks.
        let drop_after = self
            .cfg
            .fault_plan
            .as_ref()
            .and_then(|p| p.conn_drop_after(u64::from(session)));
        let reaped = Rc::new(Cell::new(false));
        let source = LifecycleGuard {
            inner: source,
            remaining: drop_after,
            idle_limit: self.cfg.idle_timeout_ticks,
            idle_ticks: 0,
            reaped: Rc::clone(&reaped),
        };
        let idle_limit = self.cfg.idle_timeout_ticks.unwrap_or(0);
        let shard = (fnv1a64(name.as_bytes()) % self.cfg.shards as u64) as usize;

        let mut reader = match AnyTraceReader::new(source) {
            Ok(reader) => reader,
            Err(e) => {
                // Nothing was routed yet, so there is no state to flush.
                if reaped.get() {
                    return error_report(idle_note(idle_limit), 0, SessionOutcome::Reaped);
                }
                return error_report(e.to_string(), 0, SessionOutcome::Failed);
            }
        };

        // Decode errors end the event stream; the captured error wins
        // over whatever partial analysis preceded it (same precedence as
        // `pacer replay`). The deadline check sits *after* the pull, so
        // a session with exactly `deadline_events` events still passes.
        let deadline = self.cfg.deadline_events;
        let mut stream_err: Option<TraceStreamError> = None;
        let mut deadline_hit = false;
        let mut decoded: u64 = 0;
        // Whether the decoder's last pull finished a frame: the route
        // stage then sends its partial batch before pulling again.
        let frame_end = Cell::new(false);
        let (routed, stats, threads, validation_err) = {
            let events = std::iter::from_fn(|| match reader.next() {
                Some(Ok(action)) => {
                    if deadline.is_some_and(|max| decoded >= max) {
                        deadline_hit = true;
                        return None;
                    }
                    decoded += 1;
                    frame_end.set(reader.frame_exhausted());
                    Some(action)
                }
                Some(Err(e)) => {
                    stream_err = Some(e);
                    None
                }
                None => None,
            });
            if let Some(millionths) = shed {
                let overlay = ResampleSampling::new(
                    events,
                    rate_from_millionths(millionths),
                    self.cfg.resample_period,
                    self.cfg.seed,
                );
                let mut validated = ValidatedActions::new(overlay);
                let routed = self.route(shard, session, &mut validated, &frame_end);
                let err = validated.error().map(ToString::to_string);
                (routed, *validated.stats(), validated.threads(), err)
            } else {
                let mut validated = ValidatedActions::new(events);
                let routed = self.route(shard, session, &mut validated, &frame_end);
                let err = validated.error().map(ToString::to_string);
                (routed, *validated.stats(), validated.threads(), err)
            }
        };
        let truncation_note = reader.truncation_note();
        let truncated = reader.truncated();

        // Always close: events routed before a failure must be freed.
        let closed = self.close(shard, session);

        if reaped.get() {
            return error_report(idle_note(idle_limit), stats.total(), SessionOutcome::Reaped);
        }
        if let Some(e) = validation_err {
            return error_report(
                format!("invalid trace: {e}"),
                stats.total(),
                SessionOutcome::Failed,
            );
        }
        if let Some(e) = stream_err {
            return error_report(e.to_string(), stats.total(), SessionOutcome::Failed);
        }
        if deadline_hit {
            return error_report(
                format!(
                    "session deadline exceeded: more than {} event(s)",
                    deadline.unwrap_or(0)
                ),
                stats.total(),
                SessionOutcome::Failed,
            );
        }
        let (dynamic, distinct) = match routed.and(closed) {
            Err(down) => {
                return error_report(down.to_string(), stats.total(), SessionOutcome::Failed)
            }
            Ok(Err(lost)) => {
                return error_report(lost.to_string(), stats.total(), SessionOutcome::ShardLost)
            }
            Ok(Ok(races)) => races,
        };

        // The body reproduces `pacer replay` byte for byte (`--resample`
        // included, for shed sessions).
        let mut body = String::new();
        body.push_str(&format!(
            "replaying {} actions ({} accesses, {} sync ops, {} threads)\n",
            stats.total(),
            stats.accesses(),
            stats.sync_ops(),
            threads
        ));
        if let Some(note) = truncation_note {
            body.push_str(&note);
            body.push('\n');
        }
        if let Some(millionths) = shed {
            body.push_str(&format!(
                "resampled sampling periods at r = {:.2}%, mean period {}, seed {}\n",
                rate_from_millionths(millionths) * 100.0,
                self.cfg.resample_period,
                self.cfg.seed
            ));
        }
        body.push_str(&format!(
            "\n{} dynamic race report(s), {} distinct:\n",
            dynamic,
            distinct.len()
        ));
        for (a, b) in &distinct {
            body.push_str(&format!("  {a}  <->  {b}\n"));
        }

        SessionReport {
            name: name.to_string(),
            body,
            events: stats.total(),
            dynamic_races: dynamic,
            distinct_races: distinct.len() as u64,
            shed_millionths: shed,
            truncated,
            error: false,
            outcome: if shed.is_some() {
                SessionOutcome::Shed
            } else {
                SessionOutcome::Clean
            },
        }
    }

    /// Routes one session's events to its shard in batches, sent when
    /// full, when the decoder has just finished a frame (`frame_end`, so a
    /// session blocked on its next frame has every decoded event in
    /// flight), and at the end of the stream. Sends are checked — a shard
    /// that died anyway fails only its own sessions, never the handler or
    /// the accept loop. The `inbox-stall` chaos site spins (a pure timing
    /// perturbation) before targeted events.
    fn route(
        &self,
        shard: usize,
        session: u32,
        events: &mut impl Iterator<Item = Action>,
        frame_end: &Cell<bool>,
    ) -> Result<(), ShardDown> {
        let plan = self.cfg.fault_plan.as_ref();
        // A partial batch is shrunk before it is sent: the shard retains
        // batches as sent.
        let send = |mut actions: Vec<Action>| {
            if actions.is_empty() {
                return Ok(());
            }
            actions.shrink_to_fit();
            self.inboxes
                .checked_send(shard, ShardMsg::Events { session, actions })
        };
        let mut batch = Vec::with_capacity(BATCH_EVENTS);
        for (index, action) in (0u64..).zip(events) {
            if let Some(spins) = plan.and_then(|p| p.inbox_stall_spins(index)) {
                for _ in 0..spins {
                    std::thread::yield_now();
                }
            }
            batch.push(action);
            if batch.len() == BATCH_EVENTS || frame_end.get() {
                let ready = std::mem::replace(&mut batch, Vec::with_capacity(BATCH_EVENTS));
                send(ready)?;
            }
        }
        send(batch)
    }

    /// Flush barrier: closes the session on its shard, which replies with
    /// the session's races — or the [`ShardLost`] note supervision
    /// abandoned it with — and drops its state.
    fn close(
        &self,
        shard: usize,
        session: u32,
    ) -> Result<Result<SessionRaces, ShardLost>, ShardDown> {
        let (reply, closed) = sync_channel(1);
        self.inboxes
            .checked_send(shard, ShardMsg::Close { session, reply })?;
        closed.recv().map_err(|_| ShardDown { shard })
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
    /// the loser), rebuilds the slot from its WAL segment after a server
    /// restart, or re-serves the stored report of a completed session.
    pub fn durable_open(&self, name: &str, resume: bool) -> DurableOpen {
        if !valid_durable_name(name) {
            return DurableOpen::Rejected(
                "invalid session name (want [A-Za-z0-9._-]+)".to_string(),
            );
        }
        let mut durable = lock(&self.durable);
        if resume {
            if let Some(slot) = durable.slots.iter_mut().find(|s| s.name == name) {
                slot.epoch += 1;
                slot.attached = true;
                slot.idle_ticks = 0;
                let (epoch, applied) = (slot.epoch, slot.frames.len() as u64);
                durable.transport.session_resumes += 1;
                return DurableOpen::Resumed { epoch, applied };
            }
            if let Some(report) = {
                let state = lock(&self.state);
                state.completed.iter().find(|r| r.name == name).cloned()
            } {
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
                let report =
                    durable_error_report(name, "duplicate session name", SessionOutcome::Failed);
                self.complete(report);
                DurableOpen::Rejected("duplicate session name".to_string())
            }
            Admission::Admit { session, shed } => {
                let wal = match self.create_wal(name) {
                    Ok(wal) => wal,
                    Err(message) => {
                        // The name is reserved; file the failure so the
                        // ledger stays complete.
                        let report = durable_error_report(name, &message, SessionOutcome::Failed);
                        self.complete(report);
                        return DurableOpen::Rejected(message);
                    }
                };
                durable.slots.push(DurableSlot {
                    name: name.to_string(),
                    session,
                    shed,
                    epoch: 0,
                    attached: true,
                    idle_ticks: 0,
                    frames: Vec::new(),
                    wal,
                });
                DurableOpen::Started { epoch: 0 }
            }
        }
    }

    /// Cold resume: rebuilds a durable slot from its write-ahead segment
    /// (a fresh admission in this run — the previous run filed the slot
    /// as reaped at shutdown). A crash-torn tail is truncated at the
    /// last complete frame, exactly like every other journal here.
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
        match self.admit(name) {
            Admission::Restored(report) => {
                // The checkpoint journal already has the finished report;
                // the WAL segment is obsolete.
                let _ = std::fs::remove_file(path);
                durable.transport.session_resumes += 1;
                Ok(DurableOpen::Completed(report))
            }
            Admission::Duplicate => Err("duplicate session name".to_string()),
            Admission::Admit { session, shed } => {
                let clean_len = split.frames.last().map_or(binary::HEADER_LEN, |f| f.end);
                let mut wal = std::fs::OpenOptions::new()
                    .read(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("wal segment for `{name}` is unreadable: {e}"))?;
                if bytes.len() < binary::HEADER_LEN {
                    // Torn inside the header at creation: start over.
                    wal.set_len(0)
                        .and_then(|()| append_wal(&mut wal, &ptrace_header()))
                        .map_err(|e| format!("wal segment for `{name}`: {e}"))?;
                } else if clean_len < bytes.len() {
                    wal.set_len(clean_len as u64)
                        .map_err(|e| format!("wal segment for `{name}`: {e}"))?;
                }
                let frames: Vec<Vec<u8>> = split
                    .frames
                    .iter()
                    .map(|f| bytes[f.start..f.end].to_vec())
                    .collect();
                let applied = frames.len() as u64;
                durable.slots.push(DurableSlot {
                    name: name.to_string(),
                    session,
                    shed,
                    epoch: 0,
                    attached: true,
                    idle_ticks: 0,
                    frames,
                    wal: Some(wal),
                });
                durable.transport.session_resumes += 1;
                Ok(DurableOpen::Resumed { epoch: 0, applied })
            }
        }
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
        append_wal(&mut wal, &ptrace_header())
            .map_err(|e| format!("wal segment {}: {e}", path.display()))?;
        Ok(Some(wal))
    }

    /// Removes a session's WAL segment (session finished or reaped).
    fn remove_wal(&self, name: &str) {
        if let Some(dir) = &self.cfg.wal {
            let _ = std::fs::remove_file(wal_path(dir, name));
        }
    }

    /// Accepts one wire frame for an attached durable session: verified,
    /// deduped by offset against the applied watermark, journaled, then
    /// acked. A frame below the watermark is a retransmit overlap —
    /// skipped and re-acked, never applied twice. A frame above it is a
    /// gap (lost frame the client failed to retransmit): the session
    /// fails hard rather than analyze a stream with a hole in it.
    pub fn durable_frame(
        &self,
        name: &str,
        epoch: u64,
        offset: u64,
        bytes: &[u8],
    ) -> Result<FrameAck, DurableFrameError> {
        let mut durable = lock(&self.durable);
        let DurableState { slots, transport } = &mut *durable;
        let Some(idx) = slots
            .iter()
            .position(|s| s.name == name && s.epoch == epoch && s.attached)
        else {
            return Err(DurableFrameError::Detached);
        };
        let applied = slots[idx].frames.len() as u64;
        if offset < applied {
            transport.frames_deduped += 1;
            return Ok(FrameAck::Duplicate { applied });
        }
        if offset > applied {
            let report = self.durable_fail(
                &mut durable,
                idx,
                format!("frame gap: got offset {offset}, expected {applied}"),
            );
            return Err(DurableFrameError::Failed(report));
        }
        if let Err(e) = binary::decode_frame_payload(bytes, offset + 1) {
            let report = self.durable_fail(&mut durable, idx, e.to_string());
            return Err(DurableFrameError::Failed(report));
        }
        let slot = &mut slots[idx];
        if let Some(wal) = &mut slot.wal {
            if let Err(e) = append_wal(wal, bytes) {
                let report =
                    self.durable_fail(&mut durable, idx, format!("wal append failed: {e}"));
                return Err(DurableFrameError::Failed(report));
            }
            transport.frames_journaled += 1;
        }
        slot.frames.push(bytes.to_vec());
        Ok(FrameAck::Applied {
            applied: applied + 1,
        })
    }

    /// Ends an attached durable session: checks the client's frame total
    /// against the applied watermark, assembles `header + frames`, and
    /// runs the whole stream through the standard ingest/complete path —
    /// so the report is byte-identical to an uninterrupted replay of the
    /// same bytes, and the WAL segment is retired.
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
        let Some(idx) = durable
            .slots
            .iter()
            .position(|s| s.name == name && s.epoch == epoch && s.attached)
        else {
            return Err(DurableFrameError::Detached);
        };
        let applied = durable.slots[idx].frames.len() as u64;
        if total != applied {
            let report = self.durable_fail(
                &mut durable,
                idx,
                format!("client ended at {total} frame(s) but {applied} were applied"),
            );
            return Err(DurableFrameError::Failed(report));
        }
        let slot = durable.slots.swap_remove(idx);
        let mut bytes = ptrace_header().to_vec();
        for frame in &slot.frames {
            bytes.extend_from_slice(frame);
        }
        let report = self.ingest(&slot.name, slot.session, slot.shed, &bytes[..]);
        let report = self.complete(report);
        self.remove_wal(&slot.name);
        Ok(report)
    }

    /// Terminally fails the slot at `idx`: removes it, retires its WAL
    /// segment, and files a `Failed` report.
    fn durable_fail(
        &self,
        durable: &mut DurableState,
        idx: usize,
        message: String,
    ) -> SessionReport {
        let slot = durable.slots.swap_remove(idx);
        self.remove_wal(&slot.name);
        let report = durable_error_report(&slot.name, &message, SessionOutcome::Failed);
        self.complete(report)
    }

    /// Releases an attached durable slot back to the idle lease — the
    /// connection died (or tore) before `END`; the session awaits a
    /// `RESUME`. A stale epoch is a no-op: a newer connection owns the
    /// slot.
    pub fn durable_detach(&self, name: &str, epoch: u64) {
        let mut durable = lock(&self.durable);
        if let Some(slot) = durable
            .slots
            .iter_mut()
            .find(|s| s.name == name && s.epoch == epoch && s.attached)
        {
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
            if slot.attached {
                idx += 1;
                continue;
            }
            slot.idle_ticks += 1;
            if slot.idle_ticks < limit {
                idx += 1;
                continue;
            }
            let slot = durable.slots.swap_remove(idx);
            self.remove_wal(&slot.name);
            let report = durable_error_report(
                &slot.name,
                &format!("idle timeout: reaped after {limit} idle tick(s)"),
                SessionOutcome::Reaped,
            );
            reaped.push(self.complete(report));
        }
        reaped
    }

    /// Reaps every remaining durable slot at shutdown so the ledger is
    /// complete — but *preserves* their WAL segments: a restarted server
    /// pointed at the same `--wal` directory rebuilds them on `RESUME`.
    pub fn durable_reap_remaining(&self) -> Vec<SessionReport> {
        let slots = std::mem::take(&mut lock(&self.durable).slots);
        slots
            .into_iter()
            .map(|slot| {
                let report = durable_error_report(
                    &slot.name,
                    "durable session never completed; reaped at shutdown (wal segment retained)",
                    SessionOutcome::Reaped,
                );
                self.complete(report)
            })
            .collect()
    }
}

/// A zero-event error report for durable-session failures that happen
/// before (or instead of) ingest.
fn durable_error_report(name: &str, message: &str, outcome: SessionOutcome) -> SessionReport {
    SessionReport {
        name: name.to_string(),
        body: format!("error: {message}\n"),
        events: 0,
        dynamic_races: 0,
        distinct_races: 0,
        shed_millionths: None,
        truncated: false,
        error: true,
        outcome,
    }
}

/// `Read` adapter enforcing per-session lifecycle budgets: an optional
/// byte cap (the `conn-drop` chaos site — the stream just ends, exactly
/// like a vanished client) and the idle-timeout reaper. Timeout-ish
/// errors (`WouldBlock`/`TimedOut`, i.e. one poll tick of a socket with
/// a read timeout armed) are counted, not propagated; any delivered
/// byte resets the count, and at the limit the stream ends with the
/// `reaped` flag raised so ingest files the session as
/// [`SessionOutcome::Reaped`].
struct LifecycleGuard<R> {
    inner: R,
    /// Bytes still allowed through (`conn-drop`); `None` = unlimited.
    remaining: Option<u64>,
    idle_limit: Option<u32>,
    idle_ticks: u32,
    reaped: Rc<Cell<bool>>,
}

impl<R: Read> Read for LifecycleGuard<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.reaped.get() || self.remaining == Some(0) {
            return Ok(0);
        }
        let cap = match self.remaining {
            Some(n) => usize::try_from(n.min(buf.len() as u64)).unwrap_or(buf.len()),
            None => buf.len(),
        };
        loop {
            match self.inner.read(&mut buf[..cap]) {
                Ok(n) => {
                    if let Some(remaining) = &mut self.remaining {
                        *remaining -= n as u64;
                    }
                    self.idle_ticks = 0;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    self.idle_ticks += 1;
                    match self.idle_limit {
                        Some(limit) if self.idle_ticks >= limit => {
                            self.reaped.set(true);
                            return Ok(0);
                        }
                        // No limit armed: a timeout-ish error is
                        // spurious (read timeouts are only set when the
                        // reaper is on) — retry.
                        _ => continue,
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

enum Admission {
    Restored(SessionReport),
    Duplicate,
    Admit { session: u32, shed: Option<u32> },
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
/// `drive` is the transport loop — the unix-socket accept loop, the
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
    // Supervised shard panics — injected or organic — are caught,
    // recorded in counters, and replay-rebuilt; keep them from spraying
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

    let kind = cfg.detector;
    let seed = cfg.seed;
    let plan = cfg.fault_plan.as_ref();
    let (shard_counters, (driven, state, transport)) = shard::run_sharded(
        cfg.shards,
        INBOX_EVENTS / BATCH_EVENTS,
        |shard, inbox| shard_worker(kind, seed, plan, shard, inbox),
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
                handle.serve(name, &bytes[..]);
            }
        } else {
            let queue = Mutex::new(sessions.iter());
            std::thread::scope(|scope| {
                for _ in 0..concurrency {
                    scope.spawn(|| loop {
                        let next = lock(&queue).next();
                        match next {
                            Some((name, bytes)) => {
                                handle.serve(name, &bytes[..]);
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
    use pacer_trace::Trace;

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

    /// A `Read` fed chunk by chunk over a rendezvous channel, so a test
    /// can hold a session open at a known decode position.
    struct ChanReader {
        rx: std::sync::mpsc::Receiver<Vec<u8>>,
        cur: Vec<u8>,
        pos: usize,
    }

    impl Read for ChanReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.pos >= self.cur.len() {
                match self.rx.recv() {
                    Ok(chunk) => {
                        self.cur = chunk;
                        self.pos = 0;
                    }
                    Err(_) => return Ok(0),
                }
            }
            let n = (self.cur.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn admission_sheds_sampling_rate_under_memory_pressure() {
        let bytes = racy_trace().to_binary();
        let mut config = cfg(ServeDetectorKind::FastTrack, 2);
        config.mem_budget = Some(1);

        let (output, ()) = run_service(&config, |handle| {
            std::thread::scope(|scope| {
                // Rendezvous channel: each send returns only once the
                // session thread has consumed the previous chunk, so the
                // decode position is deterministic at every step.
                let (tx, rx) = sync_channel::<Vec<u8>>(0);
                let long = scope.spawn(move || {
                    handle.serve(
                        "long",
                        ChanReader {
                            rx,
                            cur: Vec::new(),
                            pos: 0,
                        },
                    )
                });
                // The whole trace with the channel still open: every
                // event is routed, then the decoder blocks waiting for
                // the next frame header — the session stays live. The
                // empty rendezvous chunk returns only once the decoder
                // is past the real bytes.
                tx.send(bytes.clone()).unwrap();
                tx.send(Vec::new()).unwrap();

                // `long` now holds live detector state, breaching the
                // 1-byte budget: this admission must shed one rung.
                let short = handle.serve("short", &bytes[..]);
                assert_eq!(short.shed_millionths, Some(500_000));
                assert!(!short.error, "shed admission still analyzes: {short:?}");

                drop(tx);
                let long = long.join().unwrap();
                assert!(!long.truncated && !long.error, "{long:?}");
                assert_eq!(long.shed_millionths, None, "first admission was clear");
                Ok(())
            })
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
            let one = held_open_admission(1, budget);
            for shards in [2, 4] {
                let short = held_open_admission(shards, budget);
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

    /// Holds a multi-frame `big_trace()` session open after a first frame
    /// too small to fill a batch, admits `racy_trace()` meanwhile at
    /// `shards` shards under a `budget`-byte memory budget, and returns
    /// that second admission's report. The held-open session must still
    /// finish byte-identical to a direct serve.
    fn held_open_admission(shards: usize, budget: u64) -> SessionReport {
        let frames = reframe(&big_trace(), 100, 4096);
        assert!(frames.len() >= 3);
        let mut whole = ptrace_header().to_vec();
        frames.iter().for_each(|f| whole.extend_from_slice(f));
        let mut config = cfg(ServeDetectorKind::FastTrack, shards);
        config.mem_budget = Some(budget);
        let (_, short) = run_service(&config, |handle| {
            std::thread::scope(|scope| {
                let (tx, rx) = sync_channel::<Vec<u8>>(0);
                let long = scope.spawn(move || {
                    handle.serve(
                        "long",
                        ChanReader {
                            rx,
                            cur: Vec::new(),
                            pos: 0,
                        },
                    )
                });
                let mut first = ptrace_header().to_vec();
                first.extend_from_slice(&frames[0]);
                tx.send(first).unwrap();
                tx.send(Vec::new()).unwrap();

                let short = handle.serve("short", &racy_trace().to_binary()[..]);
                assert!(!short.error, "{short:?}");

                tx.send(frames[1..].concat()).unwrap();
                drop(tx);
                let long = long.join().unwrap();
                assert!(!long.truncated && !long.error, "{long:?}");
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
        })
        .unwrap();
        short
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
        let mut bytes = ptrace_header().to_vec();
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

    #[test]
    fn shard_table_holds_only_open_sessions() {
        // Two session ids far apart: a table indexed by id would need a
        // slot for every id up to the larger one.
        let actions = racy_trace().actions().to_vec();
        let ids = [0, u32::MAX - 1];
        let (tx, inbox) = sync_channel(4);
        let worker = std::thread::spawn(move || {
            shard_worker(ServeDetectorKind::FastTrack, 42, None, 0, inbox)
        });
        let poll = || {
            let (reply, words) = sync_channel(1);
            tx.send(ShardMsg::Poll { reply }).unwrap();
            words.recv().unwrap()
        };
        for session in ids {
            let actions = actions.clone();
            tx.send(ShardMsg::Events { session, actions }).unwrap();
        }
        assert!(poll() > 0, "open sessions hold detector state");
        for session in ids {
            let (reply, closed) = sync_channel(1);
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

    /// A `Read` that delivers its bytes, then reports `WouldBlock`
    /// forever — a client that sent a prefix and went silent.
    struct SilentAfter {
        bytes: Vec<u8>,
        pos: usize,
    }

    impl Read for SilentAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "poll tick",
                ));
            }
            let n = (self.bytes.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn idle_sessions_are_reaped_after_the_tick_budget() {
        let bytes = racy_trace().to_binary();
        let mut config = cfg(ServeDetectorKind::FastTrack, 2);
        config.idle_timeout_ticks = Some(3);
        let (output, ()) = run_service(&config, |handle| {
            // Without the reaper this session would spin forever on the
            // silent tail; three ticks end it deterministically.
            let report = handle.serve("idle", SilentAfter { bytes, pos: 0 });
            assert!(report.error);
            assert_eq!(report.outcome, SessionOutcome::Reaped);
            assert!(
                report.body.contains("reaped after 3 idle tick(s)"),
                "{}",
                report.body
            );
            Ok(())
        })
        .unwrap();
        assert!(output.sessions.conserved(), "{:?}", output.sessions);
        assert_eq!(output.sessions.reaped, 1);
        assert_eq!(output.sessions.admitted, 1);
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
                let bytes = binary::encode_trace(&Trace::from_actions(vec![action.clone()]));
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

    #[test]
    fn durable_session_report_matches_direct_serve() {
        let trace = racy_trace();
        let frames = per_action_frames(&trace);
        for shards in [1, 4] {
            let config = cfg(ServeDetectorKind::FastTrack, shards);
            let (out, ()) = run_service(&config, |handle| {
                let epoch = open_started(handle, "a");
                for (offset, frame) in frames.iter().enumerate() {
                    let ack = handle
                        .durable_frame("a", epoch, offset as u64, frame)
                        .unwrap();
                    assert_eq!(ack.applied(), offset as u64 + 1);
                }
                let report = handle
                    .durable_close("a", epoch, frames.len() as u64)
                    .unwrap();
                assert!(!report.error, "{}", report.body);
                Ok(())
            })
            .unwrap();
            let direct = serve_sessions(
                &cfg(ServeDetectorKind::FastTrack, shards),
                vec![("a".into(), trace.to_binary())],
                1,
            )
            .unwrap();
            assert_eq!(out.reports[0].body, direct.reports[0].body);
            assert_eq!(out.transcript, direct.transcript);
            assert!(out.sessions.conserved(), "{:?}", out.sessions);
        }
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
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
        assert_eq!(out.sessions.reaped, 1);
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
        assert!(out1.sessions.conserved(), "{:?}", out1.sessions);
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
