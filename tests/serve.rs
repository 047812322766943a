//! Golden-transcript protocol tests for the streaming detection service
//! (`pacer serve`, SERVICE.md): scripted multi-session ingest over the
//! in-process transport and the framed-input CLI mode, checked byte for
//! byte against `pacer replay` of the same traces — at `--shards 1/2/8`
//! and under adversarial interleavings. The TCP daemon has its own
//! suite, `tests/serve_tcp.rs`.

use pacer_cli::run;
use pacer_harness::{serve_sessions, ServeConfig, ServeDetectorKind};
use pacer_trace::gen::GenConfig;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pacer-serve-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Seeded generated workloads: a mix of racy (no lock discipline) and
/// mostly-disciplined traces, in the binary stream encoding.
fn session_traces(count: usize) -> Vec<(String, Vec<u8>)> {
    (0..count)
        .map(|i| {
            let seed = 1000 + i as u64;
            let discipline = if i % 2 == 0 { 0.0 } else { 0.8 };
            let trace = GenConfig::small(seed)
                .with_lock_discipline(discipline)
                .generate();
            (format!("s{i:02}"), trace.to_binary())
        })
        .collect()
}

/// What `pacer replay --detector <d>` prints for these bytes.
fn replay_body(dir: &std::path::Path, name: &str, bytes: &[u8], detector: &str) -> String {
    let path = dir.join(format!("{name}.ptrace"));
    std::fs::write(&path, bytes).unwrap();
    let path = path.to_string_lossy().into_owned();
    run(&args(&["replay", &path, "--detector", detector]))
        .unwrap()
        .text
}

fn cfg(detector: ServeDetectorKind, shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::new(detector)
    }
}

#[test]
fn session_bodies_match_replay_for_every_detector() {
    let dir = temp_dir("bodies");
    let sessions = session_traces(4);
    for (detector, kind) in [
        ("pacer", ServeDetectorKind::Pacer),
        ("fasttrack", ServeDetectorKind::FastTrack),
        ("generic", ServeDetectorKind::Generic),
        ("literace", ServeDetectorKind::LiteRace),
    ] {
        let out = serve_sessions(&cfg(kind, 4), sessions.clone(), 1).unwrap();
        for report in &out.reports {
            let (name, bytes) = sessions.iter().find(|(n, _)| n == &report.name).unwrap();
            let expected = replay_body(&dir, name, bytes, detector);
            assert_eq!(
                report.body, expected,
                "serve != replay for {detector} session {name}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transcript_is_identical_at_any_shard_count() {
    let sessions = session_traces(6);
    let baseline = serve_sessions(&cfg(ServeDetectorKind::FastTrack, 1), sessions.clone(), 1)
        .unwrap()
        .transcript;
    assert!(
        !baseline.contains(", 0 dynamic races,"),
        "undisciplined sessions must produce races for the merge to be exercised: {baseline}"
    );
    for shards in [2, 3, 8] {
        let out = serve_sessions(
            &cfg(ServeDetectorKind::FastTrack, shards),
            sessions.clone(),
            1,
        )
        .unwrap()
        .transcript;
        assert_eq!(baseline, out, "transcript differs at --shards {shards}");
    }
}

#[test]
fn transcript_is_identical_under_adversarial_interleavings() {
    let sessions = session_traces(8);
    let baseline = serve_sessions(&cfg(ServeDetectorKind::FastTrack, 4), sessions.clone(), 1)
        .unwrap()
        .transcript;

    // Reversed and odd-even shuffled arrival orders, sequential.
    let mut reversed = sessions.clone();
    reversed.reverse();
    let mut shuffled: Vec<_> = sessions.iter().skip(1).step_by(2).cloned().collect();
    shuffled.extend(sessions.iter().step_by(2).cloned());
    for order in [reversed, shuffled] {
        let out = serve_sessions(&cfg(ServeDetectorKind::FastTrack, 4), order, 1)
            .unwrap()
            .transcript;
        assert_eq!(baseline, out, "transcript depends on arrival order");
    }

    // Concurrent handlers racing each other on the same shard fleet.
    for _ in 0..3 {
        let out = serve_sessions(&cfg(ServeDetectorKind::FastTrack, 4), sessions.clone(), 8)
            .unwrap()
            .transcript;
        assert_eq!(baseline, out, "transcript depends on handler scheduling");
    }
}

#[test]
fn framed_stdin_mode_matches_replay_and_is_shard_invariant() {
    let dir = temp_dir("frames");
    let sessions = session_traces(3);

    let mut frames = Vec::new();
    for (name, bytes) in &sessions {
        frames.extend_from_slice(format!("SESSION {name} {}\n", bytes.len()).as_bytes());
        frames.extend_from_slice(bytes);
    }
    let frames_path = dir.join("sessions.frames");
    std::fs::write(&frames_path, &frames).unwrap();
    let frames_path = frames_path.to_string_lossy().into_owned();

    let one = run(&args(&["serve", "--stdin", &frames_path, "--shards", "1"])).unwrap();
    let four = run(&args(&["serve", "--stdin", &frames_path, "--shards", "4"])).unwrap();
    assert_eq!(one.text, four.text, "--shards 1 vs 4 transcripts differ");
    assert_eq!(one.code, 0, "clean sessions exit 0: {one}");

    for (name, bytes) in &sessions {
        let expected = replay_body(&dir, name, bytes, "pacer");
        assert!(
            one.text
                .contains(&format!("=== session {name} ===\n{expected}")),
            "transcript lacks replay-identical body for {name}: {one}"
        );
    }
    assert!(
        one.text.contains("served 3 session(s)"),
        "missing summary: {one}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_transports_and_flags() {
    let missing = run(&args(&["serve"])).unwrap_err();
    assert!(missing.message.contains("needs a transport"), "{missing}");

    let both = run(&args(&["serve", "--tcp", "127.0.0.1:0", "--stdin", "-"])).unwrap_err();
    assert!(both.message.contains("mutually exclusive"), "{both}");

    let socket = run(&args(&["serve", "--socket", "/tmp/x"])).unwrap_err();
    assert!(
        socket.message.contains("unknown flag `--socket`"),
        "{socket}"
    );
    let send = run(&args(&["serve", "--send", "t.ptrace"])).unwrap_err();
    assert!(
        send.message.contains("--send requires --tcp HOST:PORT"),
        "{send}"
    );

    // Daemon-only flags are rejected, by name, everywhere but the TCP
    // daemon instead of being silently ignored.
    for (flag, value) in [
        ("--wal", "w"),
        ("--addr-file", "a"),
        ("--max-sessions", "1"),
        ("--idle-timeout", "1"),
    ] {
        let modes: [&[&str]; 3] = [
            &["--stdin", "-"],
            &["--send", "t.ptrace", "--tcp", "127.0.0.1:1"],
            &[],
        ];
        for mode in modes {
            let mut list = vec!["serve", flag, value];
            list.extend_from_slice(mode);
            let rejected = run(&args(&list)).unwrap_err();
            assert!(
                rejected.message.contains(flag) && rejected.message.contains("--tcp"),
                "{list:?}: {rejected}"
            );
        }
    }

    let positional = run(&args(&["serve", "trace.ptrace"])).unwrap_err();
    assert!(
        positional.message.contains("no positional argument"),
        "{positional}"
    );

    let shards = run(&args(&["serve", "--stdin", "-", "--shards", "0"])).unwrap_err();
    assert!(shards.message.contains("--shards"), "{shards}");
}

#[test]
fn framed_stdin_bounds_memory_by_the_bytes_delivered() {
    // A header declaring ~100 TB ahead of a 3-byte body is a short read,
    // not an allocation of the declared length.
    let dir = temp_dir("huge");
    let path = dir.join("huge.frames");
    std::fs::write(&path, b"SESSION huge 99999999999999\nabc").unwrap();
    let path = path.to_string_lossy().into_owned();
    let short = run(&args(&["serve", "--stdin", &path])).unwrap_err();
    assert!(
        short
            .message
            .contains("session `huge` body: short read: 3 of 99999999999999 byte(s)"),
        "{short}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn framed_stdin_caps_the_session_header_line() {
    // A header that never ends is an error naming the 4096-byte line
    // cap, not a line read (and echoed back) whole.
    let dir = temp_dir("endless");
    let path = dir.join("endless.frames");
    std::fs::write(&path, vec![b'S'; 1 << 20]).unwrap();
    let path = path.to_string_lossy().into_owned();
    let endless = run(&args(&["serve", "--stdin", &path, "--shards", "1"])).unwrap_err();
    assert!(endless.message.contains("4096"), "{endless}");
    assert!(
        endless.message.len() < 8 << 10,
        "error is {} bytes",
        endless.message.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
