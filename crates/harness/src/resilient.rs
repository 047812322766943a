//! Crash-resilient trial execution: retries, quarantine, and the
//! checkpoint/resume fleet engine.
//!
//! The deterministic engine in [`parallel`](crate::parallel) assumes
//! every trial closure returns; a panicking detector or an injected
//! allocator failure would otherwise take the whole campaign down and
//! lose every completed trial. This module wraps each trial attempt in
//! `catch_unwind`, retries failures a bounded, deterministic number of
//! times, and **quarantines** (rather than aborts on) trials that
//! exhaust their budget. Quarantine decisions depend only on
//! `(trial_index, attempt)` — never on worker identity or timing — so a
//! fault campaign's output is byte-identical at any `--jobs N`.
//!
//! [`run_resilient_fleet`] layers checkpointing on top: each completed
//! trial is appended to a [`journal`](crate::journal) as it finishes,
//! and a later run with the same configuration resumes from that
//! journal, re-running only the missing indices. Because per-trial
//! metrics round-trip through JSON exactly and merging happens in index
//! order, an interrupted-then-resumed run produces byte-identical
//! artifacts to an uninterrupted one.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, Once};

use pacer_faults::{FaultPlan, FaultSite};
use pacer_governor::{BudgetKind, GovernorConfig, GovernorSummary};
use pacer_lang::ir::CompiledProgram;
use pacer_obs::{Event, EventRing, FaultCounters, GovernorCounters, Metrics};
use pacer_trace::SiteId;

use crate::fleet::{fleet_trial_seed, FleetReport};
use crate::journal::{
    read_journal, rewrite_valid_prefix, EntryFailure, JournalEntry, JournalError, JournalWriter,
};
use crate::observed::run_observed_trial_governed;
use crate::parallel::run_indexed;
use crate::trials::{run_trial_governed, DetectorKind, RaceKey};

/// How many times a failed trial is re-attempted before quarantine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt; a trial gets `max_retries + 1`
    /// attempts total.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    /// One retry: enough to get past single-shot injected faults while
    /// quarantining anything persistent quickly.
    fn default() -> Self {
        RetryPolicy { max_retries: 1 }
    }
}

/// The outcome of running one trial under a [`RetryPolicy`].
#[derive(Clone, Debug)]
pub struct Attempted<T> {
    /// The successful attempt's result; `None` when quarantined.
    pub result: Option<T>,
    /// Total attempts made (1 = clean first try).
    pub attempts: u32,
    /// Every failed attempt, in attempt order.
    pub failures: Vec<EntryFailure>,
}

impl<T> Attempted<T> {
    /// Whether the trial exhausted its budget.
    pub fn quarantined(&self) -> bool {
        self.result.is_none()
    }

    /// Failed attempts that carried the injected-fault marker.
    pub fn injected(&self) -> u64 {
        self.failures.iter().filter(|f| f.site.is_some()).count() as u64
    }
}

/// Runs `f` up to `policy.max_retries + 1` times, catching panics (and
/// keeping them off stderr), until it succeeds. Both `Err` returns and
/// panics count as failed attempts; each failure is classified by
/// [`FaultSite::classify`] so injected faults are distinguishable from
/// organic bugs.
pub fn attempt_one<T>(
    policy: RetryPolicy,
    mut f: impl FnMut(u32) -> Result<T, String>,
) -> Attempted<T> {
    let mut failures = Vec::new();
    for attempt in 0..=policy.max_retries {
        let outcome = {
            let _quiet = SilencePanics::new();
            catch_unwind(AssertUnwindSafe(|| f(attempt)))
        };
        let reason = match outcome {
            Ok(Ok(value)) => {
                return Attempted {
                    result: Some(value),
                    attempts: attempt + 1,
                    failures,
                }
            }
            Ok(Err(message)) => message,
            Err(payload) => panic_message(payload.as_ref()),
        };
        let site = FaultSite::classify(&reason).map(|s| s.name().to_string());
        failures.push(EntryFailure {
            attempt,
            reason,
            site,
        });
    }
    Attempted {
        result: None,
        attempts: policy.max_retries + 1,
        failures,
    }
}

thread_local! {
    /// Set while this thread runs work whose panics the engine catches.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Keeps the panics raised on this thread off stderr while the guard
/// lives. Guard only work whose panics the engine catches and records —
/// fleet trial attempts (in the quarantine report) and a shard's drills
/// and detector calls (in `ShardLost` notes) — so they do not spray
/// backtraces mid-campaign. The first guard wraps the panic hook installed
/// at that moment: panics on unguarded threads, or on this one once the
/// guard drops, reach it unchanged. Guards nest and take no lock.
pub(crate) struct SilencePanics {
    was_quiet: bool,
}

impl SilencePanics {
    pub(crate) fn new() -> Self {
        static WRAP_HOOK: Once = Once::new();
        WRAP_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !QUIET.try_with(Cell::get).unwrap_or(false) {
                    prev(info);
                }
            }));
        });
        SilencePanics {
            was_quiet: QUIET.replace(true),
        }
    }
}

impl Drop for SilencePanics {
    fn drop(&mut self) {
        QUIET.set(self.was_quiet);
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One quarantined trial, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedTrial {
    /// The trial's instance index.
    pub index: u64,
    /// The scheduler seed it ran with (for reproduction).
    pub seed: u64,
    /// Attempts consumed (1 + retries).
    pub attempts: u32,
    /// The final failure message.
    pub reason: String,
    /// Classified fault site, when the failure was injected.
    pub site: Option<String>,
}

/// Every quarantined trial plus the campaign's fault counters, merged in
/// trial-index order.
#[derive(Clone, Debug, Default)]
pub struct QuarantineReport {
    /// Quarantined trials, ascending by index.
    pub trials: Vec<QuarantinedTrial>,
    /// Aggregate fault accounting for the whole campaign.
    pub counters: FaultCounters,
}

impl QuarantineReport {
    /// Whether the campaign completed without quarantining anything.
    pub fn is_clean(&self) -> bool {
        self.trials.is_empty()
    }
}

impl fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        writeln!(
            f,
            "faults: injected={} hit={} retried={} quarantined={}",
            c.injected, c.hit, c.retried, c.quarantined
        )?;
        for t in &self.trials {
            writeln!(
                f,
                "quarantined trial {} (seed {}, {} attempts, site {}): {}",
                t.index,
                t.seed,
                t.attempts,
                t.site.as_deref().unwrap_or("none"),
                t.reason
            )?;
        }
        Ok(())
    }
}

/// One trial the resource governor degraded, for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradedTrial {
    /// The trial's instance index.
    pub index: u64,
    /// The scheduler seed it ran with (for reproduction).
    pub seed: u64,
    /// Sampling rate in effect when the trial ended, in millionths.
    pub final_rate_millionths: u32,
    /// Set when the trial was cancelled cooperatively at the ladder
    /// floor (by which budget); `None` means it finished at a reduced
    /// rate.
    pub cancelled: Option<BudgetKind>,
}

/// Every degraded trial plus the campaign's governor counters, merged in
/// trial-index order — the governed counterpart of [`QuarantineReport`].
#[derive(Clone, Debug, Default)]
pub struct GovernorReport {
    /// Degraded trials, ascending by index.
    pub trials: Vec<DegradedTrial>,
    /// Aggregate governor accounting for the whole campaign.
    pub counters: GovernorCounters,
}

impl GovernorReport {
    /// Whether the governor never had to degrade anything.
    pub fn is_clean(&self) -> bool {
        self.trials.is_empty()
    }

    /// Whether any trial was cancelled at the ladder floor (as opposed
    /// to merely finishing at a reduced rate).
    pub fn any_cancelled(&self) -> bool {
        self.counters.cancelled > 0
    }
}

impl fmt::Display for GovernorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        writeln!(
            f,
            "governor: steps_down={} steps_up={} breaches={} degraded={} cancelled={}",
            c.steps_down, c.steps_up, c.breaches, c.degraded, c.cancelled
        )?;
        for t in &self.trials {
            match t.cancelled {
                Some(kind) => writeln!(
                    f,
                    "degraded trial {} (seed {}): cancelled at floor rate {} by {} budget",
                    t.index,
                    t.seed,
                    t.final_rate_millionths,
                    kind.name()
                )?,
                None => writeln!(
                    f,
                    "degraded trial {} (seed {}): finished at reduced rate {} millionths",
                    t.index, t.seed, t.final_rate_millionths
                )?,
            }
        }
        Ok(())
    }
}

/// Deterministic backoff schedule for artifact-IO retries: how many
/// cooperative yields to spin before attempt `attempt` of trial
/// `trial_index`'s artifact write. The schedule depends only on
/// `(trial_index, attempt)` — never on wall-clock or worker identity —
/// so retried campaigns stay byte-identical at any `--jobs N`. The base
/// delay doubles per attempt; the trial index staggers neighbours so
/// simultaneous retries don't re-collide on a shared sink.
pub fn artifact_io_backoff(trial_index: u64, attempt: u32) -> u32 {
    if attempt == 0 {
        return 0;
    }
    let base = 1u32 << attempt.min(10);
    base + (trial_index % 7) as u32
}

/// Runs `write` (an artifact-IO action for trial `trial_index`) up to
/// `policy.max_retries + 1` times under the deterministic
/// [`artifact_io_backoff`] schedule, yielding the scheduled number of
/// times before each retry. Returns the first success, or every
/// failure's description — the caller quarantines the artifact exactly
/// like a trial that exhausted its budget.
///
/// # Errors
///
/// The failure reason of every attempt, in attempt order, when all
/// attempts fail.
pub fn retry_artifact_io<T>(
    policy: RetryPolicy,
    trial_index: u64,
    mut write: impl FnMut(u32) -> io::Result<T>,
) -> Result<(T, u32), Vec<String>> {
    let mut reasons = Vec::new();
    for attempt in 0..=policy.max_retries {
        for _ in 0..artifact_io_backoff(trial_index, attempt) {
            std::thread::yield_now();
        }
        match write(attempt) {
            Ok(value) => return Ok((value, attempt + 1)),
            Err(e) => reasons.push(e.to_string()),
        }
    }
    Err(reasons)
}

/// A hard engine failure (journal IO/corruption, configuration
/// mismatch) — distinct from quarantines, which are recoverable.
#[derive(Debug)]
pub struct EngineError {
    /// What failed.
    pub message: String,
}

impl EngineError {
    fn new(message: impl Into<String>) -> Self {
        EngineError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for EngineError {}

impl From<JournalError> for EngineError {
    fn from(e: JournalError) -> Self {
        EngineError::new(e.to_string())
    }
}

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        EngineError::new(format!("journal I/O error: {e}"))
    }
}

/// Configuration for [`run_resilient_fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetEngineConfig<'a> {
    /// The workload.
    pub program: &'a CompiledProgram,
    /// Fleet size.
    pub instances: u32,
    /// PACER sampling rate per instance.
    pub rate: f64,
    /// Base scheduler seed; instance `i` runs with
    /// [`fleet_trial_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Retry budget per trial.
    pub policy: RetryPolicy,
    /// The armed fault plan, if any.
    pub plan: Option<&'a FaultPlan>,
    /// `Some(ring_capacity)` runs observed trials (metrics + event
    /// trace); `None` runs plain trials.
    pub ring_capacity: Option<usize>,
    /// Journal to append completed trials to.
    pub checkpoint: Option<&'a Path>,
    /// Journal to resume completed trials from. A missing file is a
    /// fresh start, not an error.
    pub resume: Option<&'a Path>,
    /// The armed resource governor, if any: budgets checked at GC
    /// boundaries, sampling rate stepped down a ladder under pressure.
    pub governor: Option<&'a GovernorConfig>,
}

/// What a resilient fleet run produced.
#[derive(Clone, Debug)]
pub struct ResilientFleet {
    /// The fleet report over the non-quarantined instances.
    pub report: FleetReport,
    /// Merged metrics snapshot (observed runs only).
    pub metrics: Option<Metrics>,
    /// Concatenated event traces in instance order, with fault events
    /// interleaved after each trial's own events (observed runs only).
    pub events_jsonl: Option<String>,
    /// Quarantines and fault accounting.
    pub quarantine: QuarantineReport,
    /// Degraded trials and governor accounting.
    pub governor: GovernorReport,
    /// How many instances were restored from the resume journal.
    pub resumed: u32,
}

/// What one completed trial contributes to the merge, whether it came
/// from a fresh run or the resume journal.
struct CompletedTrial {
    races: Vec<RaceKey>,
    metrics: Option<Metrics>,
    events_jsonl: Option<String>,
    attempts: u32,
    failures: Vec<EntryFailure>,
    quarantined: bool,
    governor: Option<GovernorSummary>,
}

/// The crash-resilient, checkpointing fleet engine: [`simulate_fleet`]
/// (or its observed variant) with retries, quarantine, fault injection,
/// and resume. With no plan, no quarantines, and no journal, the report
/// is identical to the plain engines'.
///
/// [`simulate_fleet`]: crate::fleet::simulate_fleet
///
/// # Errors
///
/// Hard failures only: journal IO errors, mid-file journal corruption,
/// or a journal that does not match this run's configuration. Trial
/// failures never surface here — they are quarantined.
pub fn run_resilient_fleet(cfg: &FleetEngineConfig<'_>) -> Result<ResilientFleet, EngineError> {
    let total = cfg.instances as u64;

    // 1. Load completed trials from the resume journal.
    let mut resumed: BTreeMap<u64, JournalEntry> = BTreeMap::new();
    if let Some(path) = cfg.resume {
        if path.exists() {
            let contents = read_journal(path)?;
            for (i, line) in contents.lines.iter().enumerate() {
                let entry = JournalEntry::decode(line)
                    .map_err(|e| EngineError::new(format!("journal entry {}: {e}", i + 1)))?;
                if entry.index >= total {
                    return Err(EngineError::new(format!(
                        "journal entry {} has index {} but the fleet has {} instance(s); \
                         wrong journal for this configuration",
                        i + 1,
                        entry.index,
                        total
                    )));
                }
                if entry.seed != fleet_trial_seed(cfg.base_seed, entry.index) {
                    return Err(EngineError::new(format!(
                        "journal entry for trial {} was recorded with seed {}, but this run \
                         would use seed {}; wrong journal for this configuration",
                        entry.index,
                        entry.seed,
                        fleet_trial_seed(cfg.base_seed, entry.index)
                    )));
                }
                if cfg.ring_capacity.is_some() && !entry.quarantined && entry.metrics_json.is_none()
                {
                    return Err(EngineError::new(format!(
                        "journal entry for trial {} has no metrics snapshot; it was recorded \
                         without observability and cannot resume an observed run",
                        entry.index
                    )));
                }
                resumed.insert(entry.index, entry);
            }
        }
    }
    let resumed_count = resumed.len() as u32;

    // 2. Open the checkpoint journal. When resuming (or recovering from
    // a partial tail) the file is first rewritten to exactly the valid
    // entries — appending after leftover partial bytes would corrupt the
    // next line.
    let writer: Option<Mutex<JournalWriter>> = match cfg.checkpoint {
        None => None,
        Some(path) => {
            let w = if resumed.is_empty() {
                JournalWriter::create(path)?
            } else {
                let lines: Vec<String> = resumed.values().map(JournalEntry::encode).collect();
                rewrite_valid_prefix(path, &lines)?;
                JournalWriter::append(path)?
            };
            Some(Mutex::new(w))
        }
    };

    // 3. Run the missing indices on the deterministic parallel engine,
    // checkpointing each trial as it completes. Journal append order is
    // scheduling-dependent, but entries carry their index, so the resume
    // and merge paths are order-independent.
    let pending: Vec<u64> = (0..total).filter(|i| !resumed.contains_key(i)).collect();
    let journal_failure: Mutex<Option<io::Error>> = Mutex::new(None);
    let fresh = run_indexed(pending.len(), |slot| {
        let index = pending[slot];
        let seed = fleet_trial_seed(cfg.base_seed, index);
        let attempted = attempt_one(cfg.policy, |attempt| {
            let faults = cfg
                .plan
                .map(|p| p.for_trial(index, attempt))
                .unwrap_or_default();
            let kind = DetectorKind::Pacer { rate: cfg.rate };
            match cfg.ring_capacity {
                Some(ring) => {
                    run_observed_trial_governed(cfg.program, kind, seed, ring, faults, cfg.governor)
                        .map(|t| CompletedTrial {
                            races: t.distinct_races.iter().copied().collect(),
                            metrics: Some(t.metrics),
                            events_jsonl: Some(t.events_jsonl),
                            attempts: 0,
                            failures: Vec::new(),
                            quarantined: false,
                            governor: t.governor,
                        })
                        .map_err(|e| e.to_string())
                }
                None => run_trial_governed(cfg.program, kind, seed, faults, cfg.governor)
                    .map(|t| CompletedTrial {
                        races: t.distinct_races.iter().copied().collect(),
                        metrics: None,
                        events_jsonl: None,
                        attempts: 0,
                        failures: Vec::new(),
                        quarantined: false,
                        governor: t.outcome.governor,
                    })
                    .map_err(|e| e.to_string()),
            }
        });
        if let Some(writer) = &writer {
            let entry = entry_for(&attempted, index, seed);
            let result = writer
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .write_line(&entry.encode());
            if let Err(e) = result {
                let mut slot = journal_failure
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        }
        attempted
    });
    if let Some(e) = journal_failure
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
    {
        return Err(e.into());
    }

    // 4. Merge resumed + fresh trials in index order.
    let mut fresh_by_index: BTreeMap<u64, Attempted<CompletedTrial>> =
        pending.into_iter().zip(fresh).collect();
    let mut reporters: BTreeMap<RaceKey, u32> = BTreeMap::new();
    let mut cumulative = Vec::with_capacity(cfg.instances as usize);
    let mut metrics = cfg.ring_capacity.map(|_| Metrics::default());
    let mut events_jsonl = cfg.ring_capacity.map(|_| String::new());
    let mut quarantine = QuarantineReport::default();
    let mut governor = GovernorReport::default();

    for index in 0..total {
        let seed = fleet_trial_seed(cfg.base_seed, index);
        let trial = if let Some(entry) = resumed.remove(&index) {
            completed_from_entry(entry)?
        } else {
            let attempted = fresh_by_index
                .remove(&index)
                .ok_or_else(|| EngineError::new("internal: missing trial result"))?;
            completed_from_attempted(attempted)
        };

        let injected = trial.failures.iter().filter(|f| f.site.is_some()).count() as u64;
        quarantine.counters.injected += injected;
        if injected > 0 {
            quarantine.counters.hit += 1;
        }
        quarantine.counters.retried += u64::from(trial.attempts.saturating_sub(1));
        if trial.quarantined {
            quarantine.counters.quarantined += 1;
            let last = trial.failures.last();
            quarantine.trials.push(QuarantinedTrial {
                index,
                seed,
                attempts: trial.attempts,
                reason: last
                    .map(|f| f.reason.clone())
                    .unwrap_or_else(|| "unknown failure".to_string()),
                site: last.and_then(|f| f.site.clone()),
            });
        }

        let degraded = trial.governor.as_ref().filter(|g| g.degraded());
        if let Some(g) = trial.governor.as_ref() {
            governor.counters.steps_down += g.steps_down;
            governor.counters.steps_up += g.steps_up;
            governor.counters.breaches += g.breaches;
        }
        if let Some(g) = degraded {
            governor.counters.degraded += 1;
            if g.cancelled.is_some() {
                governor.counters.cancelled += 1;
            }
            governor.trials.push(DegradedTrial {
                index,
                seed,
                final_rate_millionths: g.final_rate_millionths,
                cancelled: g.cancelled,
            });
        }

        for key in &trial.races {
            *reporters.entry(*key).or_default() += 1;
        }
        cumulative.push(reporters.len());

        if let (Some(merged), Some(m)) = (metrics.as_mut(), trial.metrics.as_ref()) {
            merged.merge(m);
        }
        if let Some(out) = events_jsonl.as_mut() {
            if let Some(ev) = trial.events_jsonl.as_ref() {
                out.push_str(ev);
            }
            if !trial.failures.is_empty() || degraded.is_some() {
                let mut ring = EventRing::new(trial.failures.len() + 2);
                for f in &trial.failures {
                    if let Some(site) = &f.site {
                        ring.push(Event::FaultInjected {
                            site: site.clone(),
                            trial: index,
                            attempt: u64::from(f.attempt),
                        });
                    }
                }
                if trial.quarantined {
                    ring.push(Event::TrialQuarantined {
                        trial: index,
                        attempts: u64::from(trial.attempts),
                        site: trial.failures.last().and_then(|f| f.site.clone()),
                    });
                }
                if let Some(g) = degraded {
                    ring.push(Event::TrialDegraded {
                        trial: index,
                        final_rate_millionths: u64::from(g.final_rate_millionths),
                        cancelled: g.cancelled.map(|k| k.name().to_string()),
                    });
                }
                out.push_str(&ring.to_jsonl());
            }
        }
    }

    // Per-trial snapshots never carry fault or governor counters (both
    // are campaign-level concepts), so the merged snapshot takes the
    // deterministic campaign totals.
    if let Some(m) = metrics.as_mut() {
        m.faults = quarantine.counters;
        m.governor = governor.counters;
    }

    Ok(ResilientFleet {
        report: FleetReport {
            instances: cfg.instances,
            rate: cfg.rate,
            reporters,
            cumulative,
        },
        metrics,
        events_jsonl,
        quarantine,
        governor,
        resumed: resumed_count,
    })
}

fn entry_for(attempted: &Attempted<CompletedTrial>, index: u64, seed: u64) -> JournalEntry {
    let mut races: Vec<(u32, u32)> = Vec::new();
    let mut metrics_json = None;
    let mut events_jsonl = None;
    let mut governor = None;
    if let Some(trial) = &attempted.result {
        let keys: BTreeSet<RaceKey> = trial.races.iter().copied().collect();
        races = keys.iter().map(|(a, b)| (a.raw(), b.raw())).collect();
        metrics_json = trial.metrics.as_ref().map(Metrics::to_json);
        events_jsonl = trial.events_jsonl.clone();
        // Notes stay out of the journal: the trial's event trace above
        // already carries them as replayed rate_stepped/budget_breach
        // lines.
        governor = trial.governor.as_ref().map(|g| GovernorSummary {
            notes: Vec::new(),
            ..g.clone()
        });
    }
    JournalEntry {
        index,
        seed,
        races,
        attempts: attempted.attempts,
        failures: attempted.failures.clone(),
        quarantined: attempted.quarantined(),
        metrics_json,
        events_jsonl,
        governor,
    }
}

fn completed_from_attempted(attempted: Attempted<CompletedTrial>) -> CompletedTrial {
    let quarantined = attempted.quarantined();
    let mut trial = attempted.result.unwrap_or(CompletedTrial {
        races: Vec::new(),
        metrics: None,
        events_jsonl: None,
        attempts: 0,
        failures: Vec::new(),
        quarantined: true,
        governor: None,
    });
    trial.attempts = attempted.attempts;
    trial.failures = attempted.failures;
    trial.quarantined = quarantined;
    trial
}

fn completed_from_entry(entry: JournalEntry) -> Result<CompletedTrial, EngineError> {
    let metrics = match &entry.metrics_json {
        None => None,
        Some(json) => Some(Metrics::from_json(json).map_err(|e| {
            EngineError::new(format!(
                "journal entry for trial {}: checkpointed metrics unreadable: {e}",
                entry.index
            ))
        })?),
    };
    Ok(CompletedTrial {
        races: entry
            .races
            .iter()
            .map(|&(a, b)| (SiteId::new(a), SiteId::new(b)))
            .collect(),
        metrics,
        events_jsonl: entry.events_jsonl,
        attempts: entry.attempts,
        failures: entry.failures,
        quarantined: entry.quarantined,
        governor: entry.governor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::simulate_fleet;
    use crate::observed::simulate_fleet_observed;
    use pacer_workloads::{hsqldb, Scale};

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pacer-resilient-test-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("fleet.journal")
    }

    #[test]
    fn attempt_one_retries_then_succeeds() {
        let a = attempt_one(RetryPolicy { max_retries: 2 }, |attempt| {
            if attempt < 2 {
                Err(format!("injected: detector panic (attempt {attempt})"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(a.result, Some(2));
        assert_eq!(a.attempts, 3);
        assert_eq!(a.failures.len(), 2);
        assert_eq!(a.injected(), 2);
        assert_eq!(a.failures[0].site.as_deref(), Some("detector_panic"));
    }

    #[test]
    fn attempt_one_catches_panics_and_quarantines() {
        let a: Attempted<()> = attempt_one(RetryPolicy { max_retries: 1 }, |_| {
            panic!("organic bug: index out of bounds")
        });
        assert!(a.quarantined());
        assert_eq!(a.attempts, 2);
        assert_eq!(a.injected(), 0, "organic failures are not injected");
        assert!(a.failures[0].reason.contains("index out of bounds"));
        assert_eq!(a.failures[0].site, None);
    }

    #[test]
    fn attempted_trials_are_in_index_order() {
        let run = || {
            run_indexed(12, |index| {
                attempt_one(RetryPolicy { max_retries: 1 }, |attempt| {
                    if index % 3 == 0 && attempt == 0 {
                        Err("injected: heap OOM budget of 1 bytes exceeded".to_string())
                    } else if index % 5 == 0 && index > 0 {
                        Err("persistent failure".to_string())
                    } else {
                        Ok(index * 10)
                    }
                })
            })
        };
        let seq = run();
        let results: Vec<(Option<usize>, u32)> =
            seq.iter().map(|a| (a.result, a.attempts)).collect();
        assert_eq!(results[0], (Some(0), 2), "index 0 retried once");
        assert_eq!(results[1], (Some(10), 1));
        assert_eq!(results[5], (None, 2), "index 5 quarantined");
        assert_eq!(results[10], (None, 2), "index 10 quarantined");
        assert_eq!(seq.iter().map(Attempted::injected).sum::<u64>(), 4);
    }

    #[test]
    fn clean_resilient_fleet_matches_plain_engines() {
        let program = hsqldb(Scale::Test).compiled();
        let plain = simulate_fleet(&program, 6, 0.25, 3).unwrap();
        let (obs_report, obs_metrics, obs_events) =
            simulate_fleet_observed(&program, 6, 0.25, 3, 1024).unwrap();

        let cfg = FleetEngineConfig {
            program: &program,
            instances: 6,
            rate: 0.25,
            base_seed: 3,
            policy: RetryPolicy::default(),
            plan: None,
            ring_capacity: None,
            checkpoint: None,
            resume: None,
            governor: None,
        };
        let plain_res = run_resilient_fleet(&cfg).unwrap();
        assert_eq!(plain_res.report.reporters, plain.reporters);
        assert_eq!(plain_res.report.cumulative, plain.cumulative);
        assert!(plain_res.quarantine.is_clean());

        let obs_cfg = FleetEngineConfig {
            ring_capacity: Some(1024),
            ..cfg
        };
        let obs_res = run_resilient_fleet(&obs_cfg).unwrap();
        assert_eq!(obs_res.report.reporters, obs_report.reporters);
        assert_eq!(
            obs_res.metrics.as_ref().unwrap().to_json(),
            obs_metrics.to_json(),
            "clean resilient run's metrics are byte-identical to the plain engine's"
        );
        assert_eq!(obs_res.events_jsonl.as_deref(), Some(obs_events.as_str()));
    }

    #[test]
    fn fault_campaign_quarantines_deterministically() {
        let program = hsqldb(Scale::Test).compiled();
        // Panic every 3rd trial's detector on every attempt: those trials
        // exhaust retries and quarantine; the rest are untouched.
        let plan = FaultPlan::parse("detector-panic every=3\n").unwrap();
        let cfg = FleetEngineConfig {
            program: &program,
            instances: 9,
            rate: 0.25,
            base_seed: 3,
            policy: RetryPolicy { max_retries: 1 },
            plan: Some(&plan),
            ring_capacity: Some(1024),
            checkpoint: None,
            resume: None,
            governor: None,
        };
        let r = run_resilient_fleet(&cfg).unwrap();
        assert_eq!(r.quarantine.counters.quarantined, 3, "trials 0, 3, 6");
        assert_eq!(r.quarantine.counters.retried, 3, "one retry each");
        assert_eq!(
            r.quarantine.counters.injected, 6,
            "two failed attempts each"
        );
        assert_eq!(r.quarantine.counters.hit, 3);
        let indices: Vec<u64> = r.quarantine.trials.iter().map(|t| t.index).collect();
        assert_eq!(indices, vec![0, 3, 6]);
        for t in &r.quarantine.trials {
            assert_eq!(t.site.as_deref(), Some("detector_panic"));
        }
        let m = r.metrics.as_ref().unwrap();
        assert_eq!(m.faults, r.quarantine.counters);
        assert_eq!(
            m.runtime.trials, 6,
            "quarantined trials contribute no metrics"
        );
        let events = r.events_jsonl.as_deref().unwrap();
        assert_eq!(events.matches("\"ev\":\"fault_injected\"").count(), 6);
        assert_eq!(events.matches("\"ev\":\"trial_quarantined\"").count(), 3);
    }

    #[test]
    fn checkpoint_and_resume_are_byte_identical() {
        let program = hsqldb(Scale::Test).compiled();
        let plan = FaultPlan::parse("detector-panic every=4 limit=1\n").unwrap();
        let base = FleetEngineConfig {
            program: &program,
            instances: 8,
            rate: 0.25,
            base_seed: 3,
            policy: RetryPolicy { max_retries: 2 },
            plan: Some(&plan),
            ring_capacity: Some(1024),
            checkpoint: None,
            resume: None,
            governor: None,
        };

        // Uninterrupted run: the reference output.
        let full = run_resilient_fleet(&base).unwrap();

        // Interrupted run: checkpoint, truncate the journal mid-file
        // (simulating a crash), then resume.
        let path = temp_journal("resume");
        let _ = std::fs::remove_file(&path);
        let interrupted = FleetEngineConfig {
            checkpoint: Some(&path),
            ..base
        };
        run_resilient_fleet(&interrupted).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let resumed_cfg = FleetEngineConfig {
            checkpoint: Some(&path),
            resume: Some(&path),
            ..base
        };
        let resumed = run_resilient_fleet(&resumed_cfg).unwrap();
        assert!(resumed.resumed > 0, "some trials came from the journal");
        assert!(
            (resumed.resumed as u32) < 8,
            "truncation lost some trials, which were re-run"
        );

        assert_eq!(resumed.report.reporters, full.report.reporters);
        assert_eq!(resumed.report.cumulative, full.report.cumulative);
        assert_eq!(
            resumed.metrics.as_ref().unwrap().to_json(),
            full.metrics.as_ref().unwrap().to_json(),
            "resumed metrics snapshot is byte-identical"
        );
        assert_eq!(resumed.events_jsonl, full.events_jsonl);
        assert_eq!(resumed.quarantine.trials, full.quarantine.trials);

        // The journal is now complete; resuming again runs nothing new
        // and still reproduces the same artifacts.
        let replay = run_resilient_fleet(&resumed_cfg).unwrap();
        assert_eq!(replay.resumed, 8);
        assert_eq!(
            replay.metrics.as_ref().unwrap().to_json(),
            full.metrics.as_ref().unwrap().to_json()
        );
        assert_eq!(replay.events_jsonl, full.events_jsonl);
    }

    #[test]
    fn artifact_io_backoff_depends_only_on_inputs() {
        // First attempt never waits; retries double and stagger by trial.
        assert_eq!(artifact_io_backoff(0, 0), 0);
        assert_eq!(artifact_io_backoff(5, 0), 0);
        assert_eq!(artifact_io_backoff(0, 1), 2);
        assert_eq!(artifact_io_backoff(0, 2), 4);
        assert_eq!(artifact_io_backoff(3, 1), 2 + 3);
        assert_eq!(artifact_io_backoff(7, 1), 2, "stagger wraps mod 7");
        // The exponential base caps at 2^10 for absurd attempt counts.
        assert_eq!(artifact_io_backoff(0, 30), 1 << 10);
        // Pure function of (trial, attempt): repeat calls agree.
        assert_eq!(artifact_io_backoff(11, 4), artifact_io_backoff(11, 4));
    }

    #[test]
    fn retry_artifact_io_returns_first_success_or_all_reasons() {
        let policy = RetryPolicy { max_retries: 2 };
        let ok = retry_artifact_io(policy, 4, |attempt| {
            if attempt < 2 {
                Err(io::Error::other(format!("transient (attempt {attempt})")))
            } else {
                Ok(attempt * 10)
            }
        });
        assert_eq!(ok.unwrap(), (20, 3), "succeeded on the third attempt");

        let err: Result<((), u32), _> = retry_artifact_io(policy, 4, |attempt| {
            Err(io::Error::other(format!("disk full (attempt {attempt})")))
        });
        let reasons = err.unwrap_err();
        assert_eq!(reasons.len(), 3, "every attempt's reason is kept");
        assert!(reasons[2].contains("attempt 2"));
    }

    #[test]
    fn governed_checkpoint_resume_is_byte_identical() {
        // Heavy enough to cross several full-GC boundaries (one per
        // ~16 KiB allocated), so a tight metadata budget actually walks
        // the rate ladder and the journaled trials carry governor
        // summaries and replayed rate_stepped events.
        let src = "
            shared x;
            fn w() {
                let i = 0;
                while (i < 800) {
                    let o = new obj;
                    o.f = i;
                    x = x + 1;
                    i = i + 1;
                }
            }
            fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
        ";
        let program = pacer_lang::compile(&pacer_lang::parse(src).unwrap()).unwrap();
        let mut governor = GovernorConfig::for_rate(0.25);
        governor.mem_budget_bytes = Some(128);
        let base = FleetEngineConfig {
            program: &program,
            instances: 6,
            rate: 0.25,
            base_seed: 5,
            policy: RetryPolicy::default(),
            plan: None,
            ring_capacity: Some(1024),
            checkpoint: None,
            resume: None,
            governor: Some(&governor),
        };

        let full = run_resilient_fleet(&base).unwrap();
        assert!(full.quarantine.is_clean());
        assert!(
            full.governor.counters.steps_down > 0,
            "metadata pressure stepped the rate: {:?}",
            full.governor.counters
        );
        assert!(!full.governor.trials.is_empty());

        let path = temp_journal("governed-resume");
        let _ = std::fs::remove_file(&path);
        let interrupted = FleetEngineConfig {
            checkpoint: Some(&path),
            ..base
        };
        run_resilient_fleet(&interrupted).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let resumed_cfg = FleetEngineConfig {
            checkpoint: Some(&path),
            resume: Some(&path),
            ..base
        };
        let resumed = run_resilient_fleet(&resumed_cfg).unwrap();
        assert!(resumed.resumed > 0);
        assert_eq!(
            resumed.governor.trials, full.governor.trials,
            "degraded-trial report survives resume"
        );
        assert_eq!(resumed.governor.counters, full.governor.counters);
        assert_eq!(
            resumed.metrics.as_ref().unwrap().to_json(),
            full.metrics.as_ref().unwrap().to_json(),
            "governed metrics snapshot is byte-identical after resume"
        );
        assert_eq!(
            resumed.events_jsonl, full.events_jsonl,
            "replayed governor events are byte-identical after resume"
        );
    }

    #[test]
    fn mismatched_journal_is_a_hard_error() {
        let program = hsqldb(Scale::Test).compiled();
        let path = temp_journal("mismatch");
        let _ = std::fs::remove_file(&path);
        let cfg = FleetEngineConfig {
            program: &program,
            instances: 4,
            rate: 0.25,
            base_seed: 3,
            policy: RetryPolicy::default(),
            plan: None,
            ring_capacity: None,
            checkpoint: Some(&path),
            resume: None,
            governor: None,
        };
        run_resilient_fleet(&cfg).unwrap();

        // Wrong base seed → seed mismatch.
        let wrong_seed = FleetEngineConfig {
            base_seed: 4,
            resume: Some(&path),
            ..cfg
        };
        let err = run_resilient_fleet(&wrong_seed).unwrap_err();
        assert!(err.message.contains("seed"), "{err}");

        // Smaller fleet → index out of range.
        let wrong_size = FleetEngineConfig {
            instances: 2,
            resume: Some(&path),
            ..cfg
        };
        let err = run_resilient_fleet(&wrong_size).unwrap_err();
        assert!(err.message.contains("instance"), "{err}");

        // Observed resume from a plain journal → missing metrics.
        let wants_metrics = FleetEngineConfig {
            ring_capacity: Some(1024),
            resume: Some(&path),
            ..cfg
        };
        let err = run_resilient_fleet(&wants_metrics).unwrap_err();
        assert!(err.message.contains("metrics"), "{err}");
    }
}
