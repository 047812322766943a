//! The differential oracle: one program, every detector, cross-checked.
//!
//! For each schedule seed the oracle executes the program once at rate 1.0
//! with a *tee* detector fanning the action stream out to every analysis at
//! once (one VM run instead of six), then once per sub-1.0 rung of the rate
//! ladder. The recorded trace's [`HbOracle`] analysis is ground truth.
//!
//! Checks, in the order they run:
//!
//! * **Full-rate equivalence.** PACER at r = 1.0 reports exactly
//!   FASTTRACK's distinct race set (the paper's accuracy claim).
//! * **Slot reuse.** At every rate, PACER's race reports, thread ids
//!   included, are the same multiset with clock-slot reuse as without it.
//! * **Soundness.** Every detector's distinct races are a subset of the
//!   HB oracle's, at every rate; GENERIC's racy-variable set equals the
//!   oracle's exactly.
//! * **Schedule stability.** Runs at different rates under one seed retire
//!   the same instruction count and start the same threads — sampling must
//!   never perturb the interleaving.
//! * **State invariants.** Each detector's `assert_invariants` passes
//!   after the run (caught via `catch_unwind`, reported as a violation).
//! * **Space accounting.** `footprint_words()` agrees with
//!   `space_breakdown().total_words()` and `tracked_vars` agrees with the
//!   breakdown, for the detectors that compute the two independently.
//! * **Proportionality.** Detections per rung are tallied against truth
//!   opportunities so the caller can check the binomial detection-rate
//!   bound across many programs.
//!
//! All violation strings are deterministic functions of (program, seed,
//! rate), so fuzzing output is byte-identical across runs and job counts.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pacer_core::PacerDetector;
use pacer_fasttrack::{FastTrackDetector, GenericDetector};
use pacer_lang::ast::Program;
use pacer_lang::ir::CompiledProgram;
use pacer_literace::{LiteRaceConfig, LiteRaceDetector};
use pacer_obs::{ObservableDetector, SpaceBreakdown};
use pacer_prng::derive_seed;
use pacer_runtime::{RunOutcome, Vm, VmConfig};
use pacer_trace::{
    report_multiset, Action, Detector, HbOracle, RaceReport, RecordingDetector, SiteId, VarId,
};

/// A deliberately injected detector defect, for testing that the oracle
/// (and the shrinker behind it) actually catches violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Adds a fabricated race pair to PACER's sub-1.0 race sets whenever
    /// the ground truth is non-empty — a subset violation on every racy
    /// program, which the shrinker should minimize to the smallest program
    /// that still races.
    PhantomRace,
}

/// The race-pair key `PhantomRace` fabricates (no real site uses it).
pub const PHANTOM_KEY: (SiteId, SiteId) = (SiteId::new(0xFFFF), SiteId::new(0xFFFF));

/// Oracle configuration: which rates and how many schedules to check.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Sampling rates to exercise. Entries below 1.0 each get their own VM
    /// run; the truth run at 1.0 always happens regardless.
    pub rate_ladder: Vec<f64>,
    /// Scheduler seeds per program (derived from the program's base seed).
    pub schedule_seeds: u32,
    /// Per-run instruction budget (generated programs terminate far below
    /// this; the limit guards oracle runs on hand-written inputs).
    pub max_steps: u64,
    /// Optional injected defect, for self-tests.
    pub fault: Option<Fault>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            rate_ladder: vec![1.0, 0.5, 0.1, 0.01],
            schedule_seeds: 3,
            max_steps: 2_000_000,
            fault: None,
        }
    }
}

/// Detections versus opportunities at one sampling rate, aggregated over
/// seeds (and, by [`CheckReport::merge`], over programs).
///
/// An *opportunity* is a race the full-rate detector reports for that
/// (program, seed) — not an HB-oracle race: FASTTRACK intentionally
/// reports at most one race per variable, and PACER's proportionality
/// claim is relative to what full-rate detection finds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RateTally {
    /// The sampling rate this row describes.
    pub rate: f64,
    /// Detectable races PACER reported at this rate.
    pub detected: u64,
    /// Detectable races that existed (per seed × per race).
    pub opportunities: u64,
    /// Runs contributing at least one opportunity. Short programs often
    /// fit in a single sampling window, making detection all-or-nothing
    /// per run — so this, not `opportunities`, is the independent-trial
    /// count for any statistical bound.
    pub racy_runs: u64,
}

/// Everything the oracle learned about one program.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Human-readable, deterministic descriptions of every failed check.
    pub violations: Vec<String>,
    /// Per-rate detection tallies, aligned with the config's rate ladder.
    pub tallies: Vec<RateTally>,
    /// VM executions performed.
    pub vm_runs: u64,
    /// Seeds abandoned because the VM returned an error.
    pub vm_errors: u64,
    /// Total ground-truth races across seeds (seeds × distinct pairs).
    pub truth_races: u64,
}

impl CheckReport {
    /// Folds another report (same rate ladder) into this one.
    pub fn merge(&mut self, other: &CheckReport) {
        self.violations.extend_from_slice(&other.violations);
        self.vm_runs += other.vm_runs;
        self.vm_errors += other.vm_errors;
        self.truth_races += other.truth_races;
        if self.tallies.is_empty() {
            self.tallies = other.tallies.clone();
        } else {
            for (mine, theirs) in self.tallies.iter_mut().zip(&other.tallies) {
                debug_assert_eq!(mine.rate, theirs.rate, "reports use one ladder");
                mine.detected += theirs.detected;
                mine.opportunities += theirs.opportunities;
                mine.racy_runs += theirs.racy_runs;
            }
        }
    }
}

/// Fans one action stream out to several detectors so a single VM run
/// drives every analysis under the exact same schedule.
struct Tee<'a> {
    parts: Vec<&'a mut dyn Detector>,
}

impl Detector for Tee<'_> {
    fn name(&self) -> String {
        "tee".to_string()
    }

    fn on_action(&mut self, action: &Action) {
        for part in &mut self.parts {
            part.on_action(action);
        }
    }

    fn races(&self) -> &[RaceReport] {
        &[]
    }
}

/// Runs the full differential check on one program.
///
/// `base_seed` parameterizes the schedule seeds (`derive_seed(base_seed,
/// k)` for each of `cfg.schedule_seeds`); reusing the program's generation
/// seed keeps one number sufficient to reproduce a failure.
pub fn check_program(program: &Program, base_seed: u64, cfg: &OracleConfig) -> CheckReport {
    let mut report = CheckReport {
        tallies: cfg
            .rate_ladder
            .iter()
            .map(|&rate| RateTally {
                rate,
                ..RateTally::default()
            })
            .collect(),
        ..CheckReport::default()
    };
    let compiled = match pacer_lang::compile(program) {
        Ok(c) => c,
        Err(e) => {
            report
                .violations
                .push(format!("program does not compile: {e:?}"));
            return report;
        }
    };
    for k in 0..cfg.schedule_seeds {
        let seed = derive_seed(base_seed, k as u64);
        check_seed(&compiled, seed, cfg, &mut report);
    }
    report
}

/// One schedule seed: truth run plus one run per sub-1.0 rung.
fn check_seed(compiled: &CompiledProgram, seed: u64, cfg: &OracleConfig, report: &mut CheckReport) {
    let mk = |rate: f64| {
        VmConfig::new(seed)
            .with_sampling_rate(rate)
            .with_max_steps(cfg.max_steps)
    };

    // Truth run at rate 1.0: record the trace and drive every detector.
    let mut rec = RecordingDetector::new();
    let mut ft = FastTrackDetector::new();
    let mut generic = GenericDetector::new();
    let mut pacer = PacerDetector::new();
    let mut no_reuse = PacerDetector::new().with_thread_reuse(false);
    let mut literace = LiteRaceDetector::new(LiteRaceConfig::default(), derive_seed(seed, 0x117e));
    let truth_outcome = {
        let mut tee = Tee {
            parts: vec![
                &mut rec,
                &mut ft,
                &mut generic,
                &mut pacer,
                &mut no_reuse,
                &mut literace,
            ],
        };
        match Vm::run(compiled, &mut tee, &mk(1.0)) {
            Ok(outcome) => outcome,
            Err(_) => {
                report.vm_errors += 1;
                return;
            }
        }
    };
    report.vm_runs += 1;

    let trace = rec.into_trace();
    let oracle = HbOracle::analyze(&trace);
    let truth: BTreeSet<(SiteId, SiteId)> = oracle.distinct_races().into_iter().collect();
    report.truth_races += truth.len() as u64;

    let v = &mut report.violations;
    let ft_set = race_set(&ft);
    let pacer_set = race_set(&pacer);
    if pacer_set != ft_set {
        v.push(format!(
            "seed {seed}: pacer@1.0 races {pacer_set:?} != fasttrack races {ft_set:?}"
        ));
    }
    check_subset(v, seed, 1.0, "fasttrack", &ft_set, &truth);
    check_subset(v, seed, 1.0, "generic", &race_set(&generic), &truth);
    check_subset(v, seed, 1.0, "literace", &race_set(&literace), &truth);

    // GENERIC is the textbook precise detector: its racy-variable set must
    // equal the oracle's exactly (site pairs can differ because GENERIC
    // overwrites per-thread access history in place).
    let mut generic_vars: Vec<VarId> = generic.races().iter().map(|r| r.x).collect();
    generic_vars.sort();
    generic_vars.dedup();
    if generic_vars != oracle.racy_vars() {
        v.push(format!(
            "seed {seed}: generic racy vars {generic_vars:?} != oracle racy vars {:?}",
            oracle.racy_vars()
        ));
    }

    check_invariants(v, seed, 1.0, "fasttrack", || ft.assert_invariants());
    check_invariants(v, seed, 1.0, "generic", || generic.assert_invariants());
    check_reuse(v, seed, 1.0, &pacer, &no_reuse);

    // The proportionality baseline: what full-rate PACER detects under
    // this schedule. (Equal to `pacer_set` whenever soundness holds; the
    // intersection only matters if a subset check above already failed.)
    let detectable: BTreeSet<(SiteId, SiteId)> = pacer_set.intersection(&truth).copied().collect();
    if let Some(tally) = report.tallies.iter_mut().find(|t| t.rate == 1.0) {
        tally.detected += detectable.len() as u64;
        tally.opportunities += detectable.len() as u64;
        tally.racy_runs += u64::from(!detectable.is_empty());
    }

    // Sub-1.0 rungs: PACER with and without slot reuse under the same
    // schedule.
    for (rung, &rate) in cfg.rate_ladder.iter().enumerate() {
        if rate >= 1.0 {
            continue;
        }
        let mut p = PacerDetector::new();
        let mut no_reuse = PacerDetector::new().with_thread_reuse(false);
        let outcome = {
            let mut tee = Tee {
                parts: vec![&mut p, &mut no_reuse],
            };
            Vm::run(compiled, &mut tee, &mk(rate))
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(_) => {
                report.vm_errors += 1;
                continue;
            }
        };
        report.vm_runs += 1;
        check_schedule_stability(&mut report.violations, seed, rate, &truth_outcome, &outcome);

        let v = &mut report.violations;
        let mut p_set = race_set(&p);
        if cfg.fault == Some(Fault::PhantomRace) && !truth.is_empty() {
            p_set.insert(PHANTOM_KEY);
        }
        check_subset(v, seed, rate, "pacer", &p_set, &truth);
        check_reuse(v, seed, rate, &p, &no_reuse);

        let tally = &mut report.tallies[rung];
        tally.detected += p_set.intersection(&detectable).count() as u64;
        tally.opportunities += detectable.len() as u64;
        tally.racy_runs += u64::from(!detectable.is_empty());
    }
}

/// A detector's distinct race set as an ordered set (deterministic Debug).
fn race_set(d: &dyn Detector) -> BTreeSet<(SiteId, SiteId)> {
    d.distinct_races().into_iter().collect()
}

fn check_subset(
    violations: &mut Vec<String>,
    seed: u64,
    rate: f64,
    what: &str,
    observed: &BTreeSet<(SiteId, SiteId)>,
    truth: &BTreeSet<(SiteId, SiteId)>,
) {
    let extra: Vec<_> = observed.difference(truth).collect();
    if !extra.is_empty() {
        violations.push(format!(
            "seed {seed} rate {rate}: {what} reported races outside ground truth: {extra:?}"
        ));
    }
}

/// Sampling must not perturb the schedule: equal seeds retire equal step
/// counts and thread counts at every rate.
fn check_schedule_stability(
    violations: &mut Vec<String>,
    seed: u64,
    rate: f64,
    truth: &RunOutcome,
    rung: &RunOutcome,
) {
    if rung.steps != truth.steps {
        violations.push(format!(
            "seed {seed} rate {rate}: schedule instability: {} steps vs {} at rate 1.0",
            rung.steps, truth.steps
        ));
    }
    if rung.threads_started != truth.threads_started {
        violations.push(format!(
            "seed {seed} rate {rate}: schedule instability: {} threads vs {} at rate 1.0",
            rung.threads_started, truth.threads_started
        ));
    }
}

fn check_invariants(
    violations: &mut Vec<String>,
    seed: u64,
    rate: f64,
    what: &str,
    f: impl FnOnce(),
) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "non-string panic".to_string());
        violations.push(format!(
            "seed {seed} rate {rate}: {what} invariants violated: {msg}"
        ));
    }
}

/// PACER with clock-slot reuse against the same run without it: equal
/// race-report multisets, thread ids included, and for both, the state
/// invariants and the space cross-check.
fn check_reuse(
    violations: &mut Vec<String>,
    seed: u64,
    rate: f64,
    reuse: &PacerDetector,
    no_reuse: &PacerDetector,
) {
    let with = report_multiset(reuse.races());
    let without = report_multiset(no_reuse.races());
    if with != without {
        let only: Vec<_> = with.iter().filter(|r| !without.contains(r)).collect();
        violations.push(format!(
            "seed {seed} rate {rate}: pacer with slot reuse reports {} races, without {}; \
             only with reuse: {only:?}",
            with.len(),
            without.len()
        ));
    }
    check_invariants(violations, seed, rate, "pacer", || {
        reuse.assert_invariants()
    });
    check_invariants(violations, seed, rate, "pacer-no-reuse", || {
        no_reuse.assert_invariants()
    });
    check_space(violations, seed, rate, "pacer", reuse);
    check_space(violations, seed, rate, "pacer-no-reuse", no_reuse);
}

/// Cross-checks the two independently computed space measures.
fn check_space(violations: &mut Vec<String>, seed: u64, rate: f64, what: &str, d: &PacerDetector) {
    let breakdown: SpaceBreakdown = d.space_breakdown();
    if d.footprint_words() as u64 != breakdown.total_words() {
        violations.push(format!(
            "seed {seed} rate {rate}: {what} footprint_words {} != space_breakdown total {}",
            d.footprint_words(),
            breakdown.total_words()
        ));
    }
    if d.tracked_vars() as u64 != breakdown.tracked_vars {
        violations.push(format!(
            "seed {seed} rate {rate}: {what} tracked_vars {} != space_breakdown tracked_vars {}",
            d.tracked_vars(),
            breakdown.tracked_vars
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn generated_programs_pass_the_oracle() {
        let cfg = OracleConfig {
            schedule_seeds: 2,
            ..OracleConfig::default()
        };
        for seed in 0..40 {
            let program = generate(seed, &GenConfig::default());
            let report = check_program(&program, seed, &cfg);
            assert_eq!(
                report.violations,
                Vec::<String>::new(),
                "seed {seed} produced oracle violations"
            );
            assert!(report.vm_runs > 0, "seed {seed} never ran");
        }
    }

    #[test]
    fn phantom_fault_is_caught_on_racy_programs() {
        let cfg = OracleConfig {
            schedule_seeds: 2,
            fault: Some(Fault::PhantomRace),
            ..OracleConfig::default()
        };
        let mut caught = 0;
        for seed in 0..20 {
            let program = generate(seed, &GenConfig::default());
            let report = check_program(&program, seed, &cfg);
            if report.truth_races > 0 {
                assert!(
                    report
                        .violations
                        .iter()
                        .any(|v| v.contains("outside ground truth")),
                    "seed {seed}: fault not caught despite {} truth races",
                    report.truth_races
                );
                caught += 1;
            }
        }
        assert!(caught > 0, "no generated program raced in 20 seeds");
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = OracleConfig::default();
        let program = generate(7, &GenConfig::default());
        let a = check_program(&program, 7, &cfg);
        let b = check_program(&program, 7, &cfg);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.tallies, b.tallies);
        assert_eq!(a.vm_runs, b.vm_runs);
    }

    #[test]
    fn merge_accumulates_tallies() {
        let cfg = OracleConfig {
            schedule_seeds: 1,
            ..OracleConfig::default()
        };
        let program = generate(3, &GenConfig::default());
        let one = check_program(&program, 3, &cfg);
        let mut two = CheckReport::default();
        two.merge(&one);
        two.merge(&one);
        assert_eq!(two.vm_runs, 2 * one.vm_runs);
        for (t2, t1) in two.tallies.iter().zip(&one.tallies) {
            assert_eq!(t2.detected, 2 * t1.detected);
            assert_eq!(t2.opportunities, 2 * t1.opportunities);
        }
    }
}
