//! Ablation: the clock-representation layers, toggled one at a time.
//!
//! The storage overhaul has two layers. Packed epochs are a type-level
//! change (an `Epoch` *is* one `u64`) and cannot be toggled at runtime —
//! `clock_ops` measures those primitives directly. The others are
//! runtime-switchable, and this bench stacks them up on PACER's replay:
//!
//! - `baseline` — no arena: every deep copy and clone-on-write hits the
//!   global allocator.
//! - `+arena`   — deep copies and clone-on-writes draw recycled storage
//!   from the trial's [`pacer_clock::ClockArena`]. Each thread keeps its
//!   own clock slot, so this is also the `no-reuse` row.
//! - `+reuse`   — a joined thread's clock slot passes to a later fork, so
//!   clocks are as wide as the threads alive at once (PACER's default).
//!
//! Two inputs. The synthetic full-rate trace forks every thread up front
//! and joins none until the end, so reuse has nothing to do there and
//! must cost nothing. hsqldb at `Scale::Small`, recorded in process at
//! r = 3% and r = 100%, starts 103 threads in waves, which fit in 18
//! slots: its `no-reuse` and `+reuse` rows show what reuse buys.
//!
//! Redundant joins are skipped by the paper's own version fast path
//! (rule 4) in every row; `version_ablation` measures that. A new clock
//! layer joins this stack as a further row and must beat the one below.
//!
//! An input's rows are timed round-robin ([`Bench::measure_rows`]), so
//! host noise lands on every row alike. Emits
//! `BENCH_clock_ablation.json`. `ci.sh` replays this bench in `--quick`
//! mode with 11 samples and fails if `+arena`'s median falls more than
//! 10% behind the in-run baseline's, if `+reuse` falls more than 10%
//! behind `+arena` on the synthetic trace, or if `+reuse` is not faster
//! than `no-reuse` on hsqldb — each layer must pay for itself.

use std::hint::black_box;

use pacer_bench::Bench;
use pacer_core::PacerDetector;
use pacer_runtime::{Vm, VmConfig};
use pacer_trace::gen::{insert_sampling_periods, GenConfig};
use pacer_trace::{report_multiset, Detector, RecordingDetector, Trace};
use pacer_workloads::{hsqldb, Scale};

fn replay_trace() -> Trace {
    GenConfig::small(7)
        .with_threads(12)
        .with_ops_per_thread(2_000)
        .with_lock_discipline(0.85)
        .generate()
}

/// hsqldb at `Scale::Small`, recorded in process at sampling rate `rate`.
fn hsqldb_trace(rate: f64) -> Trace {
    let mut rec = RecordingDetector::new();
    let cfg = VmConfig::new(1).with_sampling_rate(rate);
    Vm::run(&hsqldb(Scale::Small).compiled(), &mut rec, &cfg).expect("hsqldb runs");
    rec.into_trace()
}

/// One row: its label, then whether it uses the arena and slot reuse.
type Layer = (&'static str, bool, bool);

fn detector((_, arena, reuse): Layer) -> PacerDetector {
    PacerDetector::new()
        .with_clock_arena(arena)
        .with_thread_reuse(reuse)
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
    let full = insert_sampling_periods(&base, 1.0, 200, 1);
    let (churn_3, churn_100) = (hsqldb_trace(0.03), hsqldb_trace(1.0));
    let synthetic: &[Layer] = &[
        ("baseline", false, false),
        ("+arena", true, false),
        ("+reuse", true, true),
    ];
    let churn: &[Layer] = &[("no-reuse", true, false), ("+reuse", true, true)];
    // The synthetic trace counts its events without the markers; a
    // recorded trace counts every action.
    let inputs = [
        ("pacer@100%", &full, base.len(), synthetic),
        ("hsqldb@3%", &churn_3, churn_3.len(), churn),
        ("hsqldb@100%", &churn_100, churn_100.len(), churn),
    ];

    for &(input, trace, events, layers) in &inputs {
        bench.measure_rows(layers.iter().map(|&layer| {
            let run = move || {
                let mut d = detector(layer);
                d.run(black_box(trace));
                black_box(d.races().len());
            };
            (format!("{input}/{}", layer.0), Some(events as u64), run)
        }));
    }

    // Untimed identity check: every layer of an input reports the same
    // race multiset. Stats may differ, since reuse narrows the clocks.
    // The synthetic baseline's metrics are the committed snapshot.
    for (i, &(input, trace, _, layers)) in inputs.iter().enumerate() {
        let mut reference = None;
        for &layer in layers {
            let mut obs = pacer_obs::Observed::new(
                detector(layer),
                pacer_obs::Registry::enabled(pacer_obs::RegistryConfig::default()),
            );
            obs.run(trace);
            let (det, registry) = obs.finish();
            let races = report_multiset(det.races());
            match &reference {
                None => {
                    if i == 0 {
                        bench.write_metrics_snapshot(&registry.metrics().to_json());
                    }
                    reference = Some(races);
                }
                Some(expected) => assert!(
                    *expected == races,
                    "clock layer `{}` changed the races reported on {input}",
                    layer.0
                ),
            }
        }
    }

    bench.finish();
}
