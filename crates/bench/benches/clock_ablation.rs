//! Ablation: the clock-representation layers, toggled one at a time.
//!
//! The storage overhaul has two layers. Packed epochs are a type-level
//! change (an `Epoch` *is* one `u64`) and cannot be toggled at runtime —
//! `clock_ops` measures those primitives directly. The other is
//! runtime-switchable plumbing, which this bench stacks up on PACER's
//! full-rate replay, where clock traffic dominates:
//!
//! - `baseline` — no arena: every deep copy and clone-on-write hits the
//!   global allocator.
//! - `+arena`   — deep copies and clone-on-writes draw recycled storage
//!   from the trial's [`pacer_clock::ClockArena`].
//!
//! Redundant joins are skipped by the paper's own version fast path
//! (rule 4) in both rows; `version_ablation` measures that. A new clock
//! layer joins this stack as a further row and must beat `+arena`.
//!
//! Emits `BENCH_clock_ablation.json`. `ci.sh` replays this bench in
//! `--quick` mode and fails if `+arena` falls more than 10% behind the
//! in-run baseline — the layer must pay for itself.

use std::hint::black_box;

use pacer_bench::Bench;
use pacer_core::PacerDetector;
use pacer_trace::gen::{insert_sampling_periods, GenConfig};
use pacer_trace::{Detector, Trace};

fn replay_trace() -> Trace {
    GenConfig::small(7)
        .with_threads(12)
        .with_ops_per_thread(2_000)
        .with_lock_discipline(0.85)
        .generate()
}

fn main() {
    let mut bench = Bench::from_args("clock_ablation", std::env::args().skip(1));

    // Committed pre-overhaul full-rate cost, for the speedup record
    // (BENCH_detector_throughput.json at the previous change).
    bench.context_json(
        "pre_overhaul_pacer_full_rate_ns_per_event",
        "56.0".to_string(),
    );

    let base = replay_trace();
    let sampled_100 = insert_sampling_periods(&base, 1.0, 200, 1);
    let events = base.len() as u64;

    const LAYERS: &[(&str, bool)] = &[("baseline", false), ("+arena", true)];

    for &(label, arena) in LAYERS {
        bench.measure(&format!("pacer@100%/{label}"), Some(events), || {
            let mut d = PacerDetector::new().with_clock_arena(arena);
            d.run(black_box(&sampled_100));
            black_box(d.races().len());
        });
    }

    // Untimed identity check doubling as the metrics snapshot: the layers
    // are plumbing, so every stack must report the same analysis.
    let mut reference: Option<(usize, String)> = None;
    for &(label, arena) in LAYERS {
        let mut obs = pacer_obs::Observed::new(
            PacerDetector::new().with_clock_arena(arena),
            pacer_obs::Registry::enabled(pacer_obs::RegistryConfig::default()),
        );
        obs.run(&sampled_100);
        let (det, registry) = obs.finish();
        let fingerprint = (det.races().len(), format!("{:?}", det.stats()));
        match &reference {
            None => {
                reference = Some(fingerprint);
                bench.write_metrics_snapshot(&registry.metrics().to_json());
            }
            Some(expected) => assert_eq!(
                *expected, fingerprint,
                "clock layer `{label}` changed analysis results"
            ),
        }
    }

    bench.finish();
}
