//! Micro-benchmarks of the clock primitives: the `O(1)` vs `O(n)`
//! distinction everything else rests on. Emits `BENCH_clock_ops.json`.

use std::hint::black_box;

use pacer_bench::Bench;
use pacer_clock::{CowClock, Epoch, ThreadId, VectorClock, VersionEpoch, VersionVector};

fn clock_of_width(n: u32) -> VectorClock {
    let mut c = VectorClock::new();
    for i in 0..n {
        c.set(ThreadId::new(i), u64::from(i) + 1);
    }
    c
}

fn main() {
    let mut bench = Bench::from_args("clock_ops", std::env::args().skip(1));

    for &n in &[8u32, 64, 512] {
        let clock = clock_of_width(n);
        let other = clock_of_width(n);
        let epoch = Epoch::new(3, ThreadId::new(n / 2));
        bench.measure(&format!("compare/epoch_leq_clock/{n}"), None, || {
            black_box(black_box(epoch).leq_clock(black_box(&clock)));
        });
        bench.measure(&format!("compare/vector_leq_vector/{n}"), None, || {
            black_box(black_box(&other).leq(black_box(&clock)));
        });
    }

    for &n in &[8u32, 64, 512] {
        let src = clock_of_width(n);
        let mut dst = clock_of_width(n);
        bench.measure(&format!("join_copy/join/{n}"), None, || {
            dst.join(black_box(&src));
        });
        let cow = CowClock::new(clock_of_width(n));
        bench.measure(&format!("join_copy/shallow_copy/{n}"), None, || {
            black_box(cow.shallow_copy());
        });
        bench.measure(&format!("join_copy/deep_copy/{n}"), None, || {
            black_box(cow.deep_copy());
        });

        // Clone-on-write then join: the rule-6 slow path on a shared clock
        // (a lock acquire joining into a thread clock some sync object
        // still snapshots). Dominated by the clone; the snapshot handle is
        // rebuilt each iteration so every make_mut pays it.
        let src = clock_of_width(n);
        let mut shared = CowClock::new(clock_of_width(n));
        bench.measure(&format!("join_copy/make_mut_join_shared/{n}"), None, || {
            let snapshot = shared.shallow_copy();
            shared.make_mut().join(black_box(&src));
            black_box(snapshot);
        });

        // Re-joining a clock that is already subsumed: the redundant-join
        // cost PACER's version fast path (rule 4) avoids. An O(n) scan
        // that discovers there is nothing to do.
        let unchanged = clock_of_width(n);
        let mut dst = clock_of_width(n);
        dst.join(&unchanged);
        bench.measure(&format!("join_copy/rejoin_unchanged/{n}"), None, || {
            dst.join(black_box(&unchanged));
        });
    }

    // The fast path PACER buys with versions: a single slot compare,
    // independent of thread count.
    let mut vv = VersionVector::new();
    vv.set(ThreadId::new(400), 9);
    let ve = VersionEpoch::at(5, ThreadId::new(400));
    bench.measure("version_epoch_leq", None, || {
        black_box(black_box(ve).leq(black_box(&vv)));
    });

    // Companion snapshot: the operation mix a detector actually drives
    // these primitives with, from an untimed observed replay.
    let trace = pacer_trace::gen::insert_sampling_periods(
        &pacer_trace::gen::GenConfig::small(7).generate(),
        0.03,
        200,
        1,
    );
    let mut obs = pacer_obs::Observed::new(
        pacer_core::PacerDetector::new(),
        pacer_obs::Registry::enabled(pacer_obs::RegistryConfig::default()),
    );
    pacer_trace::Detector::run(&mut obs, &trace);
    let (_, registry) = obs.finish();
    bench.write_metrics_snapshot(&registry.metrics().to_json());

    bench.finish();
}
