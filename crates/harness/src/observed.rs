//! Observed trial execution: the same trials as [`trials`](crate::trials),
//! but run under an [`Observed`] wrapper with an enabled [`Registry`], so
//! each run yields a [`Metrics`] snapshot and a JSONL event trace alongside
//! its race reports.
//!
//! Determinism: metrics contain only counters derived from the simulated
//! execution (no wall-clock, no addresses), and multi-instance runs merge
//! snapshots in instance-index order — so output is byte-identical at any
//! [`parallel::set_jobs`](crate::parallel::set_jobs) level.

use std::collections::BTreeSet;

use pacer_core::PacerDetector;
use pacer_fasttrack::{FastTrackDetector, GenericDetector};
use pacer_faults::TrialFaults;
use pacer_governor::{GovernorConfig, GovernorNote, GovernorSummary};
use pacer_lang::ir::CompiledProgram;
use pacer_obs::{Event, Metrics, ObservableDetector, Observed, Registry, RegistryConfig};
use pacer_runtime::{GovernorSignal, NullDetector, Vm, VmConfig, VmError};
use pacer_trace::RaceReport;

use crate::fleet::FleetReport;
use crate::parallel::try_run_indexed;
use crate::trials::{literace, DetectorKind, RaceKey};

/// One observed trial: race keys plus the observability artifacts.
#[derive(Clone, Debug)]
pub struct ObservedTrial {
    /// Every dynamic race report's distinct key, in detection order.
    pub dynamic_races: Vec<RaceKey>,
    /// Deduplicated distinct races.
    pub distinct_races: BTreeSet<RaceKey>,
    /// The unified metrics snapshot for this trial.
    pub metrics: Metrics,
    /// The structured event trace, one JSON object per line.
    pub events_jsonl: String,
    /// Governor decisions for this trial; `None` when no budget was armed
    /// or the governor never acted.
    pub governor: Option<GovernorSummary>,
}

/// Replays a trial's governor decision log into the registry as trace
/// events, in boundary order. Cancellation is deliberately *not* emitted
/// here: the campaign-level [`Event::TrialDegraded`] carries it, with the
/// trial index only the merge loop knows.
pub(crate) fn replay_governor(registry: &mut Registry, summary: &GovernorSummary) {
    for note in &summary.notes {
        match *note {
            GovernorNote::RateStepped {
                steps,
                from,
                to,
                up,
            } => registry.event(|| Event::RateStepped {
                steps,
                from_millionths: u64::from(from),
                to_millionths: u64::from(to),
                up,
            }),
            GovernorNote::BudgetBreach {
                steps,
                kind,
                usage,
                limit,
            } => registry.event(|| Event::BudgetBreach {
                steps,
                budget: kind.name().to_string(),
                usage,
                limit,
            }),
            GovernorNote::Cancelled { .. } => {}
        }
    }
}

fn observe<D: ObservableDetector>(
    program: &CompiledProgram,
    cfg: &VmConfig,
    detector: D,
    ring_capacity: usize,
) -> Result<ObservedTrial, VmError> {
    let registry = Registry::enabled(RegistryConfig { ring_capacity });
    let mut obs = Observed::new(detector, registry);
    let outcome = Vm::run_governed(
        program,
        &mut obs,
        cfg,
        |d, s| {
            d.record_space(s.steps, s.heap_bytes);
        },
        |d, sig| match sig {
            GovernorSignal::PollMemBytes => d.space_breakdown().total_words() * 8,
            GovernorSignal::RateChanged(r) => {
                d.on_rate_change(r);
                0
            }
        },
    )?;
    obs.registry_mut().add_runtime(outcome.runtime_counters());
    if let Some(summary) = &outcome.governor {
        replay_governor(obs.registry_mut(), summary);
    }
    let (detector, registry) = obs.finish();
    if let Some(t) = detector.clock_overflow() {
        return Err(VmError::ClockOverflow(t));
    }
    let dynamic_races: Vec<RaceKey> = detector
        .races()
        .iter()
        .map(RaceReport::distinct_key)
        .collect();
    Ok(ObservedTrial {
        distinct_races: dynamic_races.iter().copied().collect(),
        dynamic_races,
        events_jsonl: registry.events_jsonl(),
        metrics: registry.metrics(),
        governor: outcome.governor,
    })
}

/// Runs one observed trial of `program` under `kind` with scheduler seed
/// `seed`, using the same seeds and configurations as
/// [`run_trial`](crate::trials::run_trial) — race verdicts are identical.
///
/// `ring_capacity` bounds the event trace (oldest events are dropped; the
/// drop count is in the metrics snapshot).
///
/// # Errors
///
/// Propagates [`VmError`]s (step limit, deadlock, …) from the run.
pub fn run_observed_trial(
    program: &CompiledProgram,
    kind: DetectorKind,
    seed: u64,
    ring_capacity: usize,
) -> Result<ObservedTrial, VmError> {
    run_observed_trial_governed(
        program,
        kind,
        seed,
        ring_capacity,
        TrialFaults::default(),
        None,
    )
}

/// [`run_observed_trial`] with fault injections armed for this attempt
/// (the resilient engine's entry point) and an optional resource governor.
/// `TrialFaults::default()` and `None` are exactly `run_observed_trial`;
/// with a governor config, budget checks run at GC boundaries, rate steps
/// reach the detector, and the trial's [`GovernorSummary`] (plus
/// `rate_stepped` / `budget_breach` trace events) lands in the result.
///
/// # Errors
///
/// Propagates [`VmError`]s, including injected ones. Cooperative
/// cancellation at the ladder floor is *not* an error: the run returns
/// `Ok` with `governor.cancelled` set.
pub fn run_observed_trial_governed(
    program: &CompiledProgram,
    kind: DetectorKind,
    seed: u64,
    ring_capacity: usize,
    faults: TrialFaults,
    governor: Option<&GovernorConfig>,
) -> Result<ObservedTrial, VmError> {
    let cfg = kind.vm_config(seed, faults, governor);
    match kind {
        DetectorKind::Uninstrumented => {
            // No observable detector: record run-level counters only. The
            // governor still sees step deadlines (memory polls report 0).
            let outcome = Vm::run(program, &mut NullDetector, &cfg)?;
            let mut registry = Registry::enabled(RegistryConfig { ring_capacity });
            registry.add_runtime(outcome.runtime_counters());
            if let Some(summary) = &outcome.governor {
                replay_governor(&mut registry, summary);
            }
            Ok(ObservedTrial {
                dynamic_races: Vec::new(),
                distinct_races: BTreeSet::new(),
                events_jsonl: registry.events_jsonl(),
                metrics: registry.metrics(),
                governor: outcome.governor,
            })
        }
        DetectorKind::SyncOnly | DetectorKind::FastTrack => {
            observe(program, &cfg, FastTrackDetector::new(), ring_capacity)
        }
        DetectorKind::Pacer { .. } => observe(program, &cfg, PacerDetector::new(), ring_capacity),
        DetectorKind::Generic => observe(program, &cfg, GenericDetector::new(), ring_capacity),
        DetectorKind::LiteRace { burst } => {
            observe(program, &cfg, literace(burst, seed), ring_capacity)
        }
    }
}

/// [`simulate_fleet`](crate::fleet::simulate_fleet) with observability: the
/// same instances and seeds, plus one merged [`Metrics`] snapshot and the
/// concatenated event traces of all instances (in instance order).
///
/// # Errors
///
/// Propagates the first VM error.
pub fn simulate_fleet_observed(
    program: &CompiledProgram,
    instances: u32,
    rate: f64,
    base_seed: u64,
    ring_capacity: usize,
) -> Result<(FleetReport, Metrics, String), VmError> {
    let results = try_run_indexed(instances as usize, |i| {
        run_observed_trial(
            program,
            DetectorKind::Pacer { rate },
            crate::fleet::fleet_trial_seed(base_seed, i as u64),
            ring_capacity,
        )
    })?;
    let mut reporters = std::collections::BTreeMap::new();
    let mut cumulative = Vec::with_capacity(instances as usize);
    let mut metrics = Metrics::default();
    let mut events_jsonl = String::new();
    for r in &results {
        for key in &r.distinct_races {
            *reporters.entry(*key).or_default() += 1;
        }
        cumulative.push(reporters.len());
        metrics.merge(&r.metrics);
        events_jsonl.push_str(&r.events_jsonl);
    }
    Ok((
        FleetReport {
            instances,
            rate,
            reporters,
            cumulative,
        },
        metrics,
        events_jsonl,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::simulate_fleet;
    use crate::trials::run_trial;
    use pacer_workloads::{eclipse, hsqldb, Scale};

    #[test]
    fn observed_trial_matches_plain_trial_verdicts() {
        let program = eclipse(Scale::Test).compiled();
        for kind in [
            DetectorKind::Pacer { rate: 1.0 },
            DetectorKind::Pacer { rate: 0.25 },
            DetectorKind::FastTrack,
            DetectorKind::Generic,
            DetectorKind::LiteRace { burst: 10 },
        ] {
            let plain = run_trial(&program, kind, 7).unwrap();
            let observed = run_observed_trial(&program, kind, 7, 4096).unwrap();
            assert_eq!(
                plain.distinct_races,
                observed.distinct_races,
                "{}: observation must not change detection",
                kind.label()
            );
        }
    }

    #[test]
    fn observed_pacer_trial_collects_everything() {
        let program = eclipse(Scale::Test).compiled();
        let t = run_observed_trial(&program, DetectorKind::Pacer { rate: 1.0 }, 7, 4096).unwrap();
        let m = &t.metrics;
        assert_eq!(m.runtime.trials, 1);
        assert!(m.runtime.steps > 0);
        assert!(m.detector.sample_periods > 0, "r=100% always samples");
        assert!(!m.space.is_empty(), "full GCs produced space samples");
        assert!(m.space[0].breakdown.total_words() > 0);
        assert!(t.events_jsonl.contains("\"ev\":\"period_begin\""));
        assert!(t.events_jsonl.contains("\"ev\":\"gc\""));
        // The snapshot round-trips to JSON without panicking.
        assert!(m.to_json().starts_with('{'));
    }

    #[test]
    fn fleet_observed_matches_plain_fleet() {
        let program = hsqldb(Scale::Test).compiled();
        let plain = simulate_fleet(&program, 6, 0.25, 3).unwrap();
        let (report, metrics, jsonl) = simulate_fleet_observed(&program, 6, 0.25, 3, 1024).unwrap();
        assert_eq!(plain.reporters, report.reporters);
        assert_eq!(plain.cumulative, report.cumulative);
        assert_eq!(metrics.runtime.trials, 6);
        assert!(metrics.events_recorded > 0);
        // Every race event in the concatenated trace is one of the reports
        // counted in the merged snapshot (events may be ring-dropped, so ≤).
        let race_events = jsonl
            .lines()
            .filter(|l| l.contains("\"ev\":\"race\""))
            .count() as u64;
        assert!(race_events <= metrics.races_reported);
    }
}
