//! Chaos soak for the streaming service (`pacer serve` + RESILIENCE.md,
//! "Service supervision"): injected shard panics, connection drops, and
//! inbox stalls must never change what the service *reports* — only how
//! hard it had to work. The headline invariant is byte-identity: a run
//! under a `shard-panic` fault plan produces the same merged transcript
//! and per-session reports as the fault-free run, at `--shards 1` and
//! `--shards 4`, while `shard_restarts` proves the panics really fired.

use pacer_cli::run;
use pacer_faults::FaultPlan;
use pacer_harness::{
    run_service, serve_sessions, DurableOpen, ServeConfig, ServeDetectorKind, SessionOutcome,
};
use pacer_trace::gen::GenConfig;

/// Seeded session mix: racy and mostly-disciplined traces, plus one
/// larger multi-frame session so faults land mid-stream, not only on
/// session boundaries.
fn chaos_sessions() -> Vec<(String, Vec<u8>)> {
    (0..12)
        .map(|i| {
            let seed = 9100 + i as u64;
            let discipline = if i % 2 == 0 { 0.0 } else { 0.75 };
            let mut cfg = GenConfig::small(seed).with_lock_discipline(discipline);
            if i == 4 {
                cfg = cfg.with_ops_per_thread(1500);
            }
            (format!("c{i:02}"), cfg.generate().to_binary())
        })
        .collect()
}

fn cfg(shards: usize, plan: Option<&str>) -> ServeConfig {
    ServeConfig {
        shards,
        fault_plan: plan.map(|spec| FaultPlan::parse(spec).unwrap()),
        ..ServeConfig::new(ServeDetectorKind::FastTrack)
    }
}

/// The acceptance invariant from RESILIENCE.md: injected shard panics
/// fire before their event reaches the detector and are absorbed by the
/// supervised retry — transcripts and reports are byte-identical to the
/// clean run, no session is lost, and the restart counters are nonzero
/// (the faults demonstrably fired).
#[test]
fn shard_panics_leave_transcripts_byte_identical() {
    let sessions = chaos_sessions();
    for shards in [1, 4] {
        let clean = serve_sessions(&cfg(shards, None), sessions.clone(), 1).unwrap();
        let chaos = serve_sessions(
            &cfg(shards, Some("seed 3\nshard-panic every=7\n")),
            sessions.clone(),
            1,
        )
        .unwrap();

        assert_eq!(
            clean.transcript, chaos.transcript,
            "chaos transcript diverged at shards={shards}"
        );
        for (c, f) in clean.reports.iter().zip(&chaos.reports) {
            assert_eq!(c.name, f.name);
            assert_eq!(c.body, f.body, "report body diverged for {}", c.name);
            assert_eq!(c.outcome, f.outcome, "outcome diverged for {}", c.name);
        }

        let restarts: u64 = chaos.shard_counters.iter().map(|c| c.shard_restarts).sum();
        let lost: u64 = chaos.shard_counters.iter().map(|c| c.sessions_lost).sum();
        assert!(restarts > 0, "no injected panic fired at shards={shards}");
        assert_eq!(lost, 0, "a single-shot panic must never lose a session");
        assert!(chaos.sessions.conserved(), "{:?}", chaos.sessions);
        assert_eq!(chaos.sessions.failed, clean.sessions.failed);
    }
}

/// Same invariant under concurrent admission: worker interleaving plus
/// injected panics still cannot perturb the merged transcript.
#[test]
fn shard_panics_are_invisible_under_concurrent_admission() {
    let sessions = chaos_sessions();
    let baseline = serve_sessions(&cfg(4, None), sessions.clone(), 1)
        .unwrap()
        .transcript;
    for concurrency in [4, 8] {
        let chaos = serve_sessions(
            &cfg(4, Some("shard-panic every=5\n")),
            sessions.clone(),
            concurrency,
        )
        .unwrap();
        assert_eq!(
            baseline, chaos.transcript,
            "transcript diverged at concurrency={concurrency}"
        );
        let restarts: u64 = chaos.shard_counters.iter().map(|c| c.shard_restarts).sum();
        assert!(restarts > 0);
        assert!(chaos.sessions.conserved());
    }
}

/// `conn-drop` truncates targeted session streams after a byte budget.
/// The damage must be deterministic: the same sessions fail the same
/// way at every shard count, and untargeted sessions are untouched.
#[test]
fn conn_drops_fail_the_same_sessions_at_every_shard_count() {
    let sessions = chaos_sessions();
    let clean = serve_sessions(&cfg(1, None), sessions.clone(), 1).unwrap();
    let plan = "conn-drop every=4 after=64\n";
    let baseline = serve_sessions(&cfg(1, Some(plan)), sessions.clone(), 1).unwrap();

    let dropped: Vec<&str> = baseline
        .reports
        .iter()
        .zip(&clean.reports)
        .filter(|(d, c)| d.body != c.body || d.outcome != c.outcome)
        .map(|(d, _)| d.name.as_str())
        .collect();
    assert!(
        !dropped.is_empty(),
        "the drop plan must actually damage some sessions"
    );
    assert!(
        dropped.len() < sessions.len(),
        "the drop plan must spare some sessions"
    );

    for shards in [2, 4] {
        let out = serve_sessions(&cfg(shards, Some(plan)), sessions.clone(), 1).unwrap();
        assert_eq!(
            baseline.transcript, out.transcript,
            "conn-drop damage diverged at shards={shards}"
        );
        assert!(out.sessions.conserved());
    }
}

/// `conn-drop` is a whole-body site: it cuts what a `--stdin` or
/// in-process session delivers. A durable session's frames are checked and applied
/// as they are acked, so under the same plan every acked frame of a
/// multi-frame recording is analyzed and the report is exactly what
/// `pacer replay` prints.
#[test]
fn conn_drops_leave_durable_sessions_whole() {
    let dir = std::env::temp_dir().join(format!("pacer-chaos-{}-durable", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bank.ptrace").to_string_lossy().into_owned();
    let record = [
        "record",
        "programs/bank.pl",
        "--rate",
        "1.0",
        "--out",
        &path,
    ];
    run(&record.map(String::from)).unwrap();
    let replay = ["replay", &path, "--detector", "fasttrack"];
    let replay = run(&replay.map(String::from)).unwrap().text;
    let bytes = std::fs::read(&path).unwrap();
    let split = pacer_trace::binary::split_frames(&bytes).unwrap();
    assert_eq!(split.frames.len(), 2, "a multi-frame recording");

    for shards in [1, 4] {
        let config = cfg(shards, Some("conn-drop every=1 after=64\n"));
        let (out, report) = run_service(&config, |handle| {
            let DurableOpen::Started { epoch } = handle.durable_open("bank", false) else {
                panic!("fresh durable session");
            };
            for frame in &split.frames {
                let ack = handle.durable_frame(
                    "bank",
                    epoch,
                    frame.offset,
                    &bytes[frame.start..frame.end],
                );
                assert_eq!(ack.unwrap().applied(), frame.offset + 1);
            }
            Ok(handle.durable_close("bank", epoch, 2).unwrap())
        })
        .unwrap();
        assert_eq!(report.body, replay, "--shards {shards}");
        assert!(out.sessions.conserved(), "{:?}", out.sessions);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `inbox-stall` only burns scheduler yields inside the router; it must
/// be completely invisible in every output byte and every counter that
/// is not about timing.
#[test]
fn inbox_stalls_are_output_invisible() {
    let sessions = chaos_sessions();
    for shards in [1, 4] {
        let clean = serve_sessions(&cfg(shards, None), sessions.clone(), 1).unwrap();
        let stalled = serve_sessions(
            &cfg(shards, Some("inbox-stall every=3 len=40\n")),
            sessions.clone(),
            1,
        )
        .unwrap();
        assert_eq!(clean.transcript, stalled.transcript);
        assert_eq!(clean.shard_counters, stalled.shard_counters);
        assert_eq!(clean.sessions, stalled.sessions);
    }
}

/// A combined campaign — panics, drops, and stalls in one plan — still
/// conserves the session ledger and keeps every surviving report equal
/// to its clean twin.
#[test]
fn combined_campaign_conserves_the_session_ledger() {
    let sessions = chaos_sessions();
    let plan = "shard-panic every=9\nconn-drop every=5 after=96\ninbox-stall every=11 len=16\n";
    let clean = serve_sessions(&cfg(4, None), sessions.clone(), 1).unwrap();
    let chaos = serve_sessions(&cfg(4, Some(plan)), sessions.clone(), 1).unwrap();

    assert!(chaos.sessions.conserved(), "{:?}", chaos.sessions);
    assert_eq!(chaos.sessions.admitted, sessions.len() as u64);
    assert_eq!(chaos.reports.len(), sessions.len());

    let mut untouched = 0;
    for (c, f) in clean.reports.iter().zip(&chaos.reports) {
        assert_eq!(c.name, f.name);
        if c.body == f.body {
            assert_eq!(c.outcome, f.outcome);
            untouched += 1;
        } else {
            // Only the connection-drop site rewrites a body: either the
            // truncated prefix still analyzes (a mid-frame partial,
            // outcome Clean) or the stream dies early enough to reject.
            assert!(
                f.body.contains("mid-frame") || f.outcome != SessionOutcome::Clean,
                "unexplained divergence for {}: {}",
                c.name,
                f.body
            );
        }
    }
    assert!(untouched > 0, "some sessions must survive the campaign");
    let restarts: u64 = chaos.shard_counters.iter().map(|c| c.shard_restarts).sum();
    assert!(restarts > 0, "the panic site never fired");
}
