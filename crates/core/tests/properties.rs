//! Property tests for PACER: precision, completeness, the FASTTRACK
//! equivalence at full sampling, the proportionality guarantee, and the
//! Lemma 7 / Definition 1 invariants — all over randomly generated,
//! randomly sampled traces.

// Compiled only with the non-default `proptest` feature (restore the
// `proptest` dev-dependency first; the workspace is offline by default).
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use pacer_core::PacerDetector;
use pacer_fasttrack::FastTrackDetector;
use pacer_trace::gen::{insert_sampling_periods, GenConfig};
use pacer_trace::{Action, Detector, HbOracle, RaceReport, Trace};

fn racy_trace(seed: u64, discipline: f64, rate: f64) -> Trace {
    let base = GenConfig::small(seed)
        .with_lock_discipline(discipline)
        .generate();
    insert_sampling_periods(&base, rate, 15, seed.wrapping_mul(31).wrapping_add(1))
}

fn race_keys(
    races: &[RaceReport],
) -> Vec<(pacer_trace::VarId, pacer_trace::SiteId, pacer_trace::SiteId)> {
    let mut v: Vec<_> = races
        .iter()
        .map(|r| (r.x, r.first.site, r.second.site))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every race PACER reports is a true race of the trace (precision /
    /// "no false positives", §2.4's first requirement).
    #[test]
    fn precision_at_any_rate(
        seed in 0u64..10_000,
        discipline in 0.0f64..=1.0,
        rate in 0.0f64..=1.0,
    ) {
        let trace = racy_trace(seed, discipline, rate);
        let oracle = HbOracle::analyze(&trace);
        let truth: std::collections::HashSet<_> =
            oracle.distinct_races().into_iter().collect();
        let mut pacer = PacerDetector::new();
        pacer.run(&trace);
        for race in pacer.races() {
            prop_assert!(
                truth.contains(&race.distinct_key()),
                "false positive: {race}"
            );
        }
    }

    /// On race-free traces PACER reports nothing, at any sampling rate
    /// (completeness, Theorem 3's direction).
    #[test]
    fn silence_on_race_free_traces(seed in 0u64..10_000, rate in 0.0f64..=1.0) {
        let base = GenConfig::small(seed).race_free().generate();
        let trace = insert_sampling_periods(&base, rate, 15, seed);
        let mut pacer = PacerDetector::new();
        pacer.run(&trace);
        prop_assert!(pacer.races().is_empty());
    }

    /// With a sampling period covering the whole trace, PACER's reports are
    /// exactly FASTTRACK's ("In sampling periods, PACER simply performs the
    /// FASTTRACK algorithm", §3.3).
    #[test]
    fn full_sampling_equals_fasttrack(seed in 0u64..10_000, discipline in 0.0f64..=1.0) {
        let base = GenConfig::small(seed)
            .with_lock_discipline(discipline)
            .generate();
        let mut sampled = Trace::new();
        sampled.push(Action::SampleBegin);
        sampled.extend(base.iter().copied());

        let mut pacer = PacerDetector::new();
        pacer.run(&sampled);
        let mut ft = FastTrackDetector::new();
        ft.run(&base);
        prop_assert_eq!(race_keys(pacer.races()), race_keys(ft.races()));
    }

    /// The proportionality guarantee, deterministically: every *sampled
    /// guaranteed* race (first access in a sampling period, no intervening
    /// racy access, no earlier same-epoch sibling of the second access) is
    /// reported. Races are compared at *epoch-group* granularity — accesses
    /// by one thread at one PACER clock component are indistinguishable to
    /// the analysis, which reports one representative pair per group pair
    /// (Theorem 2's "Same epoch" cases).
    #[test]
    fn sampled_guaranteed_races_are_reported(
        seed in 0u64..10_000,
        discipline in 0.2f64..=0.8,
        rate in 0.1f64..=0.9,
    ) {
        let trace = racy_trace(seed, discipline, rate);
        let oracle = HbOracle::analyze(&trace);
        let mut pacer = PacerDetector::new();
        pacer.run(&trace);
        let norm = |g1, g2| if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let reported: std::collections::HashSet<_> = pacer
            .races()
            .iter()
            .filter_map(|r| {
                let g1 = oracle.epoch_group_of_site(r.first.site)?;
                let g2 = oracle.epoch_group_of_site(r.second.site)?;
                Some(norm(g1, g2))
            })
            .collect();
        for race in oracle.sampled_guaranteed_races(&trace) {
            let key = norm(
                oracle.epoch_group(race.first),
                oracle.epoch_group(race.second),
            );
            prop_assert!(
                reported.contains(&key),
                "unreported guaranteed race {race:?} (groups {key:?})"
            );
        }
    }

    /// Definition 1 well-formedness and the Lemma 7 version invariant hold
    /// after every transition.
    #[test]
    fn invariants_hold_after_every_action(
        seed in 0u64..2_000,
        rate in 0.0f64..=1.0,
    ) {
        let trace = racy_trace(seed, 0.5, rate);
        let mut pacer = PacerDetector::new();
        for action in &trace {
            pacer.on_action(action);
            pacer.assert_invariants();
        }
    }

    /// Clock-slot reuse changes neither detection nor precision, while
    /// using no more clock slots than threads.
    #[test]
    fn reuse_is_equivalent_and_compact(
        seed in 0u64..5_000,
        rate in 0.1f64..=1.0,
    ) {
        let trace = racy_trace(seed, 0.5, rate);
        let mut plain = PacerDetector::new().with_thread_reuse(false);
        plain.run(&trace);
        let mut reuse = PacerDetector::new();
        reuse.run(&trace);
        prop_assert_eq!(race_keys(plain.races()), race_keys(reuse.races()));
        prop_assert!(reuse.clock_slots() <= trace.thread_count());
    }

    /// Disabling the version fast path is a pure performance ablation:
    /// identical reports.
    #[test]
    fn version_fast_path_does_not_affect_detection(
        seed in 0u64..5_000,
        rate in 0.0f64..=1.0,
    ) {
        let trace = racy_trace(seed, 0.5, rate);
        let mut with = PacerDetector::new();
        with.run(&trace);
        let mut without = PacerDetector::new().with_version_fast_path(false);
        without.run(&trace);
        prop_assert_eq!(race_keys(with.races()), race_keys(without.races()));
        prop_assert!(
            without.stats().joins.non_sampling_fast
                <= with.stats().joins.non_sampling_fast
        );
    }

    /// PACER's reports are a subset of FASTTRACK's on the marker-stripped
    /// trace, by racy variable: sampling can only miss races, never invent
    /// them on new variables.
    #[test]
    fn pacer_racy_vars_subset_of_fasttrack(
        seed in 0u64..5_000,
        rate in 0.0f64..=1.0,
    ) {
        let trace = racy_trace(seed, 0.4, rate);
        let mut pacer = PacerDetector::new();
        pacer.run(&trace);
        let mut ft = FastTrackDetector::new();
        ft.run(&trace); // FASTTRACK ignores the markers
        let ft_vars: std::collections::HashSet<_> =
            ft.races().iter().map(|r| r.x).collect();
        for r in pacer.races() {
            prop_assert!(ft_vars.contains(&r.x));
        }
    }
}
