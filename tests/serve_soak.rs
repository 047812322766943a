//! Deterministic soak test for the streaming detection service: ~50
//! concurrent sessions of seeded generated traces, with mid-stream
//! disconnects (truncated tails) and corrupt frames mixed in. Truncated
//! sessions are reported as partial and corrupt ones rejected — per the
//! TRACE_FORMAT.md truncation-vs-corruption rules — without poisoning
//! any other session, and the merged transcript is byte-identical at
//! any shard count and handler concurrency.

use pacer_cli::run;
use pacer_harness::{serve_sessions, ServeConfig, ServeDetectorKind};
use pacer_trace::gen::GenConfig;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pacer-soak-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

enum Fate {
    Clean,
    /// Disconnect mid-stream: the tail of the byte stream is cut off.
    Truncated,
    /// A complete frame whose checksum no longer matches.
    Corrupt,
}

/// 50 seeded sessions: every 5th disconnects mid-stream, every 7th
/// (that isn't already truncated) is corrupted, the rest are clean.
fn soak_sessions() -> Vec<(String, Vec<u8>, Fate)> {
    (0..50)
        .map(|i| {
            let seed = 7000 + i as u64;
            let discipline = if i % 3 == 0 { 0.0 } else { 0.7 };
            let mut config = GenConfig::small(seed).with_lock_discipline(discipline);
            if i == 5 || i == 21 {
                // Two multi-frame sessions (> 4096 events): a truncated
                // tail that still has complete frames to analyze rather
                // than cutting inside the first frame, and a racy corrupt
                // one whose first frame's races reach its shard before
                // its last frame fails.
                config = config.with_ops_per_thread(2000);
            }
            let mut bytes = config.generate().to_binary();
            let fate = if i % 5 == 0 {
                bytes.truncate(bytes.len() - bytes.len() / 3 - 1);
                Fate::Truncated
            } else if i % 7 == 0 {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x40;
                Fate::Corrupt
            } else {
                Fate::Clean
            };
            (format!("soak{i:02}"), bytes, fate)
        })
        .collect()
}

fn cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::new(ServeDetectorKind::FastTrack)
    }
}

#[test]
fn soak_sessions_fail_independently_and_merge_deterministically() {
    let dir = temp_dir("fleet");
    let sessions = soak_sessions();
    let feed: Vec<(String, Vec<u8>)> = sessions
        .iter()
        .map(|(n, b, _)| (n.clone(), b.clone()))
        .collect();

    let baseline = serve_sessions(&cfg(4), feed.clone(), 8).unwrap();
    assert_eq!(baseline.reports.len(), 50);

    // Per-fate semantics: truncation is a partial *success*, corruption
    // a rejection — and `pacer replay` of the same bytes agrees byte
    // for byte on every session, so no session contaminated another.
    for (name, bytes, fate) in &sessions {
        let report = baseline.reports.iter().find(|r| &r.name == name).unwrap();
        let path = dir.join(format!("{name}.ptrace"));
        std::fs::write(&path, bytes).unwrap();
        let path = path.to_string_lossy().into_owned();
        let replayed = run(&args(&["replay", &path, "--detector", "fasttrack"]));
        match fate {
            Fate::Truncated => {
                assert!(report.truncated && !report.error, "{name}: {report:?}");
                assert!(
                    report.body.contains("note: trace ends mid-frame"),
                    "{name} lacks the truncation note: {}",
                    report.body
                );
                assert_eq!(report.body, replayed.unwrap().text, "{name} != replay");
            }
            Fate::Corrupt => {
                assert!(report.error && !report.truncated, "{name}: {report:?}");
                let expected = replayed.unwrap_err().message;
                let expected = expected
                    .strip_prefix(&format!("{path}: "))
                    .expect("replay prefixes stream errors with the file name");
                assert_eq!(
                    report.body,
                    format!("error: {expected}\n"),
                    "{name} != replay's rejection"
                );
            }
            Fate::Clean => {
                assert!(!report.error && !report.truncated, "{name}: {report:?}");
                assert_eq!(report.body, replayed.unwrap().text, "{name} != replay");
            }
        }
    }

    // The multi-frame truncated session analyzed a nonempty prefix.
    let multi = baseline
        .reports
        .iter()
        .find(|r| r.name == "soak05")
        .unwrap();
    assert!(
        multi.truncated
            && multi.events > 0
            && !multi.body.contains("analyzed the 0 complete frame(s)"),
        "multi-frame truncation keeps the complete prefix: {}",
        multi.body
    );

    // Shard-count and concurrency invariance over the full soak mix.
    for (shards, concurrency) in [(1, 1), (4, 1), (8, 8), (3, 16)] {
        let out = serve_sessions(&cfg(shards), feed.clone(), concurrency).unwrap();
        assert_eq!(
            baseline.transcript, out.transcript,
            "transcript differs at shards={shards} concurrency={concurrency}"
        );
        assert!(out.any_errors(), "corrupt sessions surface in every run");
    }

    // The corrupt multi-frame session failed after analyzing its first
    // frame.
    let partial = baseline
        .reports
        .iter()
        .find(|r| r.name == "soak21")
        .unwrap();
    assert!(partial.error && partial.events > 0, "{partial:?}");

    // Shard counters conserve the merged totals: every session runs on
    // one shard, so every event and race lands in exactly one shard, and
    // a rejected session's races are never counted.
    let events: u64 = baseline.shard_counters.iter().map(|c| c.events).sum();
    let races: u64 = baseline.shard_counters.iter().map(|c| c.races).sum();
    let report_events: u64 = baseline.reports.iter().map(|r| r.events).sum();
    let report_races: u64 = baseline.reports.iter().map(|r| r.dynamic_races).sum();
    assert_eq!(races, report_races, "per-shard race counters conserve");
    assert_eq!(events, report_events, "per-shard event counters conserve");

    // Placement depends on the session names alone, not on the order
    // sessions arrive in: the reversed mix splits across shards exactly
    // as the forward one.
    let reversed: Vec<_> = feed.iter().rev().cloned().collect();
    let out = serve_sessions(&cfg(4), reversed, 8).unwrap();
    assert_eq!(baseline.transcript, out.transcript);
    assert_eq!(
        baseline.shard_counters, out.shard_counters,
        "per-shard counters depend on arrival order"
    );

    std::fs::remove_dir_all(&dir).ok();
}
