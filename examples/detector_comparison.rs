//! Side-by-side comparison of every detector in the suite on one workload:
//! races found, wall time, effective rate, and metadata footprint.
//!
//! Run with: `cargo run --release --example detector_comparison`

use pacer_harness::render;
use pacer_harness::trials::{run_trial, DetectorKind};
use pacer_workloads::{xalan, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = xalan(Scale::Small);
    let program = workload.compiled();
    let kinds = [
        DetectorKind::Uninstrumented,
        DetectorKind::SyncOnly,
        DetectorKind::Pacer { rate: 0.0 },
        DetectorKind::Pacer { rate: 0.01 },
        DetectorKind::Pacer { rate: 0.03 },
        DetectorKind::Pacer { rate: 1.0 },
        DetectorKind::FastTrack,
        DetectorKind::Generic,
        DetectorKind::LiteRace { burst: 1000 },
    ];

    let mut rows = Vec::new();
    for kind in kinds {
        let r = run_trial(&program, kind, 1234)?;
        rows.push(vec![
            kind.label(),
            r.dynamic_races.len().to_string(),
            r.distinct_races.len().to_string(),
            r.effective_rate.map_or_else(|| "-".into(), render::pct),
            r.final_metadata_words
                .map_or_else(|| "-".into(), |w| format!("{w}")),
            format!("{:.1}ms", r.wall.as_secs_f64() * 1000.0),
        ]);
    }

    println!(
        "workload: {} ({} threads, same schedule seed for every detector)\n",
        workload.name, workload.threads_total
    );
    println!(
        "{}",
        render::table(
            &[
                "detector",
                "dyn races",
                "distinct",
                "eff rate",
                "meta words",
                "wall"
            ],
            &rows
        )
    );
    println!(
        "Note: PACER at 100% matches FASTTRACK exactly; at low rates it finds\n\
         a proportional share with near-baseline cost; LITERACE's metadata does\n\
         not shrink with its sampling."
    );
    Ok(())
}
