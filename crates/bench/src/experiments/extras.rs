//! Extension experiments: fleet deployment and design-choice ablations.

use std::fmt::Write as _;

use pacer_core::PacerDetector;
use pacer_harness::detection::RaceCensus;
use pacer_harness::fleet::simulate_fleet;
use pacer_harness::render;
use pacer_runtime::{Vm, VmConfig, VmError};
use pacer_trace::Detector;
use pacer_workloads::{adversarial, eclipse, hsqldb, xalan};

use super::ExpConfig;

/// Fleet simulation: many deployed instances, each sampling at a low rate,
/// with reports aggregated centrally (§1's distributed-debugging vision).
///
/// # Errors
///
/// Propagates the first VM error.
pub fn fleet(cfg: &ExpConfig) -> Result<String, VmError> {
    let mut out = String::from(
        "Fleet simulation: distinct evaluation races found by N deployed instances\n\
         (claim: with enough instances the odds of finding every race become high)\n\n",
    );
    let sizes = [5u32, 20, 80];
    for w in [eclipse(cfg.scale), hsqldb(cfg.scale)] {
        let program = w.compiled();
        let census = RaceCensus::collect(&program, cfg.full_rate_trials(), cfg.base_seed)?;
        let eval = census.evaluation_races();
        for rate in [0.01, 0.03] {
            let mut row_pts = Vec::new();
            for &n in &sizes {
                let report = simulate_fleet(&program, n, rate, cfg.base_seed)?;
                row_pts.push((n as f64, report.coverage(&eval)));
            }
            out.push_str(&render::series(
                &format!("fleet {} r={}% coverage", w.name, rate * 100.0),
                &row_pts,
            ));
        }
    }
    Ok(out)
}

/// Ablations of PACER's design choices:
///
/// 1. **Version fast path off** — every join pays `O(n)`; detection is
///    unchanged but slow-join counts explode (§3.2's key optimization).
/// 2. **Accordion clocks** — thread-slot reuse shrinks clock width on the
///    thread-churning hsqldb workload (§5.1's suggested production fix).
/// 3. **Adversarial churn** — the workload §3.2 worries about: constant
///    thread creation defeats version caching even with it enabled.
///
/// # Errors
///
/// Propagates the first VM error.
pub fn ablation(cfg: &ExpConfig) -> Result<String, VmError> {
    let mut out = String::from("Ablations\n\n");

    // 1. Version fast path.
    let program = xalan(cfg.scale).compiled();
    let mut with = PacerDetector::new();
    let mut without = PacerDetector::new().with_version_fast_path(false);
    let vm_cfg = VmConfig::new(cfg.base_seed).with_sampling_rate(0.03);
    Vm::run(&program, &mut with, &vm_cfg)?;
    Vm::run(&program, &mut without, &vm_cfg)?;
    let _ = writeln!(
        out,
        "1. version fast path (xalan, r=3%):\n\
         \x20  with:    non-sampling joins slow={} fast={}  races={}\n\
         \x20  without: non-sampling joins slow={} fast={}  races={}\n\
         \x20  (detection identical; without versions every join is O(n))\n",
        with.stats().joins.non_sampling_slow,
        with.stats().joins.non_sampling_fast,
        with.races().len(),
        without.stats().joins.non_sampling_slow,
        without.stats().joins.non_sampling_fast,
        without.races().len(),
    );

    // 2. Accordion clocks on the thread-churning workload: PACER's clock
    // slot reuse against the prototype's one slot per thread.
    let program = hsqldb(cfg.scale).compiled();
    let vm_cfg = VmConfig::new(cfg.base_seed).with_sampling_rate(0.03);
    let mut plain = PacerDetector::new().with_thread_reuse(false);
    let outcome = Vm::run(&program, &mut plain, &vm_cfg)?;
    let mut accordion = PacerDetector::new();
    Vm::run(&program, &mut accordion, &vm_cfg)?;
    let _ = writeln!(
        out,
        "2. accordion clocks (hsqldb, r=3%):\n\
         \x20  threads started:      {}\n\
         \x20  accordion slots used: {}\n\
         \x20  races: plain={} accordion={}\n",
        outcome.threads_started,
        accordion.clock_slots(),
        plain.races().len(),
        accordion.races().len(),
    );

    // 3. Adversarial churn.
    let program = adversarial(cfg.scale).compiled();
    let mut det = PacerDetector::new();
    Vm::run(
        &program,
        &mut det,
        &VmConfig::new(cfg.base_seed).with_sampling_rate(0.03),
    )?;
    let frac = det.stats().non_sampling_fast_join_fraction().unwrap_or(0.0);
    let _ = writeln!(
        out,
        "3. adversarial thread churn (r=3%):\n\
         \x20  non-sampling fast-join fraction: {}\n\
         \x20  (steady workloads sit near 100%; churn keeps delivering new versions)",
        render::pct(frac),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_reports_all_three_sections() {
        let out = ablation(&ExpConfig::quick()).unwrap();
        assert!(out.contains("version fast path"));
        assert!(out.contains("accordion clocks"));
        assert!(out.contains("adversarial"));
    }

    #[test]
    fn fleet_coverage_series_render() {
        let out = fleet(&ExpConfig::quick()).unwrap();
        assert!(out.contains("fleet eclipse"));
        assert!(out.contains("fleet hsqldb"));
    }
}
