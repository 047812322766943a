//! Single-trial execution under any detector configuration.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use pacer_core::{PacerDetector, PacerStats};
use pacer_fasttrack::{FastTrackDetector, GenericDetector};
use pacer_faults::TrialFaults;
use pacer_governor::GovernorConfig;
use pacer_lang::ir::CompiledProgram;
use pacer_literace::{LiteRaceConfig, LiteRaceDetector};
use pacer_obs::ObservableDetector;
use pacer_runtime::{
    GovernorSignal, InstrumentMode, NullDetector, RunOutcome, Vm, VmConfig, VmError,
};
use pacer_trace::{Detector, RaceReport, SiteId};

/// The normalized site pair identifying a *distinct* (static) race.
pub type RaceKey = (SiteId, SiteId);

/// Which detector (and configuration) a trial runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DetectorKind {
    /// No detector at all (the unmodified-VM baseline).
    Uninstrumented,
    /// Object metadata + synchronization ops only ("OM + sync ops").
    SyncOnly,
    /// PACER at the given target sampling rate (0.0–1.0).
    Pacer {
        /// Target sampling rate `r`.
        rate: f64,
    },
    /// FASTTRACK (always-on precise detection).
    FastTrack,
    /// GENERIC `O(n)` vector-clock detection.
    Generic,
    /// Online LITERACE with the given burst length.
    LiteRace {
        /// Accesses per sampling burst (§5.3 uses 10 and 1,000).
        burst: u64,
    },
}

impl DetectorKind {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            DetectorKind::Uninstrumented => "base".into(),
            DetectorKind::SyncOnly => "om+sync".into(),
            DetectorKind::Pacer { rate } => format!("pacer@{}%", rate * 100.0),
            DetectorKind::FastTrack => "fasttrack".into(),
            DetectorKind::Generic => "generic".into(),
            DetectorKind::LiteRace { burst } => format!("literace(b={burst})"),
        }
    }

    /// The VM configuration a trial of this kind runs under. Plain and
    /// observed trials both take theirs from here, so they run the same
    /// schedule and sampling periods and reach the same verdicts.
    pub(crate) fn vm_config(
        self,
        seed: u64,
        faults: TrialFaults,
        governor: Option<&GovernorConfig>,
    ) -> VmConfig {
        let cfg = VmConfig::new(seed).with_faults(faults);
        let cfg = match self {
            DetectorKind::Uninstrumented => cfg.with_instrument(InstrumentMode::Off),
            DetectorKind::SyncOnly => cfg.with_instrument(InstrumentMode::SyncOnly),
            DetectorKind::Pacer { rate } => cfg.with_sampling_rate(rate),
            DetectorKind::FastTrack | DetectorKind::Generic | DetectorKind::LiteRace { .. } => cfg,
        };
        match governor {
            Some(g) => cfg.with_governor(g.clone()),
            None => cfg,
        }
    }
}

/// The LITERACE detector a trial with scheduler seed `seed` runs: bursts
/// of `burst` accesses, its sampler seeded apart from the scheduler.
pub(crate) fn literace(burst: u64, seed: u64) -> LiteRaceDetector {
    let cfg = LiteRaceConfig {
        burst_length: burst,
        ..LiteRaceConfig::default()
    };
    LiteRaceDetector::new(cfg, seed ^ 0x117e)
}

/// Everything one trial produced.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Every dynamic race report's distinct key, in detection order.
    pub dynamic_races: Vec<RaceKey>,
    /// Deduplicated distinct races.
    pub distinct_races: BTreeSet<RaceKey>,
    /// Effective sampling rate (PACER: fraction of accesses analyzed;
    /// LITERACE: same; others: `None`).
    pub effective_rate: Option<f64>,
    /// PACER's operation statistics, when the detector was PACER.
    pub pacer_stats: Option<PacerStats>,
    /// PACER's live metadata at end of run, in machine words.
    pub final_metadata_words: Option<usize>,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// VM-level outcome (steps, GCs, action counts, space samples, …).
    pub outcome: RunOutcome,
}

impl TrialResult {
    fn from_reports(
        reports: &[RaceReport],
        effective_rate: Option<f64>,
        pacer_stats: Option<PacerStats>,
        final_metadata_words: Option<usize>,
        wall: Duration,
        outcome: RunOutcome,
    ) -> Self {
        let dynamic_races: Vec<RaceKey> = reports.iter().map(RaceReport::distinct_key).collect();
        let distinct_races = dynamic_races.iter().copied().collect();
        TrialResult {
            dynamic_races,
            distinct_races,
            effective_rate,
            pacer_stats,
            final_metadata_words,
            wall,
            outcome,
        }
    }
}

/// The paper's trial-count formula (§5.1):
/// `numTrials_r = min(max(⌈1000%/r⌉, 50), 500)` — e.g. 500 trials at 1%,
/// 334 at 3%, 50 at 100%.
///
/// # Panics
///
/// Panics if `rate <= 0`.
pub fn num_trials(rate: f64) -> u32 {
    assert!(rate > 0.0, "rate must be positive");
    ((10.0 / rate).ceil() as u32).clamp(50, 500)
}

/// Runs one trial of `program` under `kind` with scheduler seed `seed`.
///
/// # Errors
///
/// Propagates [`VmError`]s (step limit, deadlock, …) from the run.
pub fn run_trial(
    program: &CompiledProgram,
    kind: DetectorKind,
    seed: u64,
) -> Result<TrialResult, VmError> {
    run_trial_governed(program, kind, seed, TrialFaults::default(), None)
}

/// Runs `program` once at sampling rate `rate` and returns the action trace
/// the VM emitted (including its `sbegin`/`send` markers), with no race
/// detector attached.
///
/// This is the capture half of the record/replay split: the trace can be
/// encoded with [`Trace::to_binary`](pacer_trace::Trace::to_binary) (or saved
/// as text) and re-analysed offline by any detector, which must produce the
/// same report as an online run with the same seed and rate.
///
/// # Errors
///
/// Propagates [`VmError`]s from the execution.
pub fn record_trial_trace(
    program: &CompiledProgram,
    rate: f64,
    seed: u64,
) -> Result<pacer_trace::Trace, VmError> {
    let cfg = VmConfig::new(seed).with_sampling_rate(rate);
    let mut rec = pacer_trace::RecordingDetector::new();
    Vm::run(program, &mut rec, &cfg)?;
    Ok(rec.into_trace())
}

/// Runs the VM with the standard detector-side governor hook (metadata
/// polling + rate-change delivery), then converts a sticky vector-clock
/// overflow into the typed [`VmError::ClockOverflow`] — an *organic*
/// (non-injected) trial error the resilient engine can quarantine.
pub(crate) fn run_vm<D: ObservableDetector>(
    program: &CompiledProgram,
    cfg: &VmConfig,
    det: &mut D,
) -> Result<RunOutcome, VmError> {
    let outcome = Vm::run_governed(
        program,
        det,
        cfg,
        |_, _| {},
        |d, sig| match sig {
            GovernorSignal::PollMemBytes => d.space_breakdown().total_words() * 8,
            GovernorSignal::RateChanged(r) => {
                d.on_rate_change(r);
                0
            }
        },
    )?;
    match det.clock_overflow() {
        Some(t) => Err(VmError::ClockOverflow(t)),
        None => Ok(outcome),
    }
}

/// [`run_trial`] with fault injections armed for this attempt (the
/// resilient engine's entry point) and an optional resource governor:
/// budgets are enforced at GC boundaries and the trial's
/// [`RunOutcome::governor`] carries the decision summary.
/// `TrialFaults::default()` and `None` are exactly `run_trial`.
///
/// # Errors
///
/// Propagates [`VmError`]s, including injected ones.
pub fn run_trial_governed(
    program: &CompiledProgram,
    kind: DetectorKind,
    seed: u64,
    faults: TrialFaults,
    governor: Option<&GovernorConfig>,
) -> Result<TrialResult, VmError> {
    let start = Instant::now();
    let cfg = kind.vm_config(seed, faults, governor);
    match kind {
        DetectorKind::Uninstrumented => {
            let outcome = Vm::run(program, &mut NullDetector, &cfg)?;
            Ok(TrialResult::from_reports(
                &[],
                None,
                None,
                None,
                start.elapsed(),
                outcome,
            ))
        }
        DetectorKind::SyncOnly => {
            let outcome = run_vm(program, &cfg, &mut FastTrackDetector::new())?;
            Ok(TrialResult::from_reports(
                &[],
                None,
                None,
                None,
                start.elapsed(),
                outcome,
            ))
        }
        DetectorKind::Pacer { .. } => {
            let mut det = PacerDetector::new();
            let outcome = run_vm(program, &cfg, &mut det)?;
            Ok(TrialResult::from_reports(
                det.races(),
                det.stats().effective_rate(),
                Some(*det.stats()),
                Some(det.footprint_words()),
                start.elapsed(),
                outcome,
            ))
        }
        DetectorKind::FastTrack => {
            let mut det = FastTrackDetector::new();
            let outcome = run_vm(program, &cfg, &mut det)?;
            Ok(TrialResult::from_reports(
                det.races(),
                Some(1.0),
                None,
                Some(det.footprint_words()),
                start.elapsed(),
                outcome,
            ))
        }
        DetectorKind::Generic => {
            let mut det = GenericDetector::new();
            let outcome = run_vm(program, &cfg, &mut det)?;
            Ok(TrialResult::from_reports(
                det.races(),
                Some(1.0),
                None,
                Some(det.footprint_words()),
                start.elapsed(),
                outcome,
            ))
        }
        DetectorKind::LiteRace { burst } => {
            let mut det = literace(burst, seed);
            let outcome = run_vm(program, &cfg, &mut det)?;
            Ok(TrialResult::from_reports(
                det.races(),
                det.effective_rate(),
                None,
                Some(det.footprint_words()),
                start.elapsed(),
                outcome,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacer_workloads::{eclipse, Scale};

    #[test]
    fn num_trials_matches_paper_examples() {
        assert_eq!(num_trials(0.01), 500);
        assert_eq!(num_trials(0.03), 334);
        assert_eq!(num_trials(0.05), 200);
        assert_eq!(num_trials(0.10), 100);
        assert_eq!(num_trials(0.25), 50);
        assert_eq!(num_trials(1.0), 50);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_trials_panics() {
        num_trials(0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            DetectorKind::Uninstrumented,
            DetectorKind::SyncOnly,
            DetectorKind::Pacer { rate: 0.03 },
            DetectorKind::FastTrack,
            DetectorKind::Generic,
            DetectorKind::LiteRace { burst: 10 },
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(DetectorKind::label).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn pacer_at_full_rate_finds_fasttrack_races() {
        let program = eclipse(Scale::Test).compiled();
        let ft = run_trial(&program, DetectorKind::FastTrack, 5).unwrap();
        let pacer = run_trial(&program, DetectorKind::Pacer { rate: 1.0 }, 5).unwrap();
        assert_eq!(
            pacer.distinct_races, ft.distinct_races,
            "same seed, full sampling: identical verdicts"
        );
        assert!(pacer.pacer_stats.is_some());
        assert!(ft.effective_rate == Some(1.0));
    }

    #[test]
    fn pacer_at_zero_rate_finds_nothing() {
        let program = eclipse(Scale::Test).compiled();
        let r = run_trial(&program, DetectorKind::Pacer { rate: 0.0 }, 5).unwrap();
        assert!(r.dynamic_races.is_empty());
        let stats = r.pacer_stats.unwrap();
        assert_eq!(stats.sample_periods, 0);
        assert_eq!(stats.reads.sampling_slow + stats.writes.sampling_slow, 0);
    }

    #[test]
    fn uninstrumented_trial_reports_outcome_only() {
        let program = eclipse(Scale::Test).compiled();
        let r = run_trial(&program, DetectorKind::Uninstrumented, 0).unwrap();
        assert!(r.dynamic_races.is_empty());
        assert!(r.outcome.steps > 0);
        assert!(r.effective_rate.is_none());
    }
}
