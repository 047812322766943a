//! Cross-detector agreement on live workload executions.

use pacer_core::PacerDetector;
use pacer_fasttrack::{FastTrackDetector, GenericDetector};
use pacer_literace::{LiteRaceConfig, LiteRaceDetector};
use pacer_runtime::{Vm, VmConfig};
use pacer_trace::{report_multiset, Detector, HbOracle, RaceReport, RecordingDetector};
use pacer_workloads::{all, Scale};

fn sorted_keys(races: &[RaceReport]) -> Vec<(pacer_trace::SiteId, pacer_trace::SiteId)> {
    let mut v: Vec<_> = races.iter().map(RaceReport::distinct_key).collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn every_detector_is_precise_on_every_workload() {
    for w in all(Scale::Test) {
        let program = w.compiled();
        let cfg = VmConfig::new(77).with_sampling_rate(0.5);
        let mut rec = RecordingDetector::new();
        Vm::run(&program, &mut rec, &cfg).unwrap();
        let trace = rec.into_trace();
        let oracle = HbOracle::analyze(&trace);
        let truth: std::collections::HashSet<_> = oracle.distinct_races().into_iter().collect();

        let check = |name: &str, races: &[RaceReport]| {
            for r in races {
                assert!(
                    truth.contains(&r.distinct_key()),
                    "{}: {name} reported a false race {r}",
                    w.name
                );
            }
        };

        let mut ft = FastTrackDetector::new();
        ft.run(&trace);
        check("fasttrack", ft.races());

        let mut generic = GenericDetector::new();
        generic.run(&trace);
        check("generic", generic.races());

        let mut pacer = PacerDetector::new();
        pacer.run(&trace);
        check("pacer", pacer.races());

        let mut no_reuse = PacerDetector::new().with_thread_reuse(false);
        no_reuse.run(&trace);
        check("pacer-no-reuse", no_reuse.races());
        assert_eq!(
            report_multiset(no_reuse.races()),
            report_multiset(pacer.races()),
            "{}: clock-slot reuse changed PACER's reports",
            w.name
        );
        assert!(pacer.clock_slots() <= no_reuse.clock_slots());

        let mut literace = LiteRaceDetector::new(LiteRaceConfig::default(), 1);
        literace.run(&trace);
        check("literace", literace.races());
    }
}

#[test]
fn pacer_full_rate_equals_fasttrack_on_live_runs() {
    for w in all(Scale::Test) {
        let program = w.compiled();
        let cfg = VmConfig::new(123).with_sampling_rate(1.0);
        let mut pacer = PacerDetector::new();
        Vm::run(&program, &mut pacer, &cfg).unwrap();

        let mut ft = FastTrackDetector::new();
        Vm::run(&program, &mut ft, &cfg).unwrap();

        assert_eq!(
            sorted_keys(pacer.races()),
            sorted_keys(ft.races()),
            "{}: full-rate PACER must equal FASTTRACK",
            w.name
        );
    }
}

#[test]
fn literace_with_full_burst_equals_fasttrack() {
    // With an effectively infinite burst, LITERACE analyzes everything.
    let w = pacer_workloads::xalan(Scale::Test);
    let program = w.compiled();
    let cfg = VmConfig::new(9);
    let mut rec = RecordingDetector::new();
    Vm::run(&program, &mut rec, &cfg).unwrap();
    let trace = rec.into_trace();

    let mut lr = LiteRaceDetector::new(
        LiteRaceConfig {
            burst_length: u64::MAX / 2,
            ..LiteRaceConfig::default()
        },
        0,
    );
    lr.run(&trace);
    let mut ft = FastTrackDetector::new();
    ft.run(&trace);
    assert_eq!(sorted_keys(lr.races()), sorted_keys(ft.races()));
    assert_eq!(lr.effective_rate(), Some(1.0));
}

#[test]
fn sampled_detectors_find_subsets_of_full_detection() {
    for w in all(Scale::Test) {
        let program = w.compiled();
        let cfg_full = VmConfig::new(55).with_sampling_rate(1.0);
        let cfg_low = VmConfig::new(55).with_sampling_rate(0.2);

        let mut full = PacerDetector::new();
        Vm::run(&program, &mut full, &cfg_full).unwrap();
        let mut low = PacerDetector::new();
        Vm::run(&program, &mut low, &cfg_low).unwrap();

        // Same seed ⇒ same schedule ⇒ low-rate findings ⊆ full findings.
        let full_set: std::collections::HashSet<_> =
            sorted_keys(full.races()).into_iter().collect();
        for key in sorted_keys(low.races()) {
            assert!(
                full_set.contains(&key),
                "{}: low-rate race {key:?} missing at full rate",
                w.name
            );
        }
    }
}
