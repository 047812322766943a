//! The `pacer serve` daemon as a process: it keeps serving through
//! failed accepts, here a descriptor table run dry by silent clients, and
//! through a session whose ids would size a detector table past memory.

use std::process::{Command, Stdio};
use std::time::Duration;

use pacer_trace::gen::GenConfig;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pacer-daemon-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pacer(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pacer"))
        .args(args)
        .output()
        .expect("spawn pacer")
}

#[test]
fn daemon_survives_running_out_of_descriptors() {
    let dir = temp_dir("emfile");
    let addr_file = dir.join("addr");
    let wal = dir.join("wal");
    let trace = dir.join("s.ptrace");
    std::fs::write(&trace, GenConfig::small(7).generate().to_binary()).unwrap();
    let trace = trace.to_str().unwrap();

    // 20 silent clients and the real one: the daemon stops after 21
    // connections.
    let mut daemon = Command::new("sh")
        .args(["-c", r#"ulimit -n 24 && exec "$0" "$@""#])
        .arg(env!("CARGO_BIN_EXE_pacer"))
        .args(["serve", "--tcp", "127.0.0.1:0", "--max-sessions", "21"])
        .arg("--addr-file")
        .arg(&addr_file)
        .arg("--wal")
        .arg(&wal)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut addr = String::new();
    for _ in 0..500 {
        addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
        if addr.ends_with('\n') {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let addr = addr.trim().to_string();
    if addr.is_empty() {
        let _ = daemon.kill();
        panic!("daemon never wrote its address");
    }

    // Each held connection costs the daemon two descriptors, so the
    // table runs dry long before the twentieth is accepted.
    let silent: Vec<_> = (0..20)
        .map(|_| std::net::TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    drop(silent);

    let reply = pacer(&["serve", "--send", trace, "--tcp", &addr]);
    let expected = pacer(&["replay", trace]);
    // A daemon that stopped accepting never reaches its 21st
    // connection: after 10 s it is killed, failing the exit check.
    for _ in 0..1000 {
        if daemon.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = daemon.kill();
    let daemon = daemon.wait_with_output().unwrap();
    let transcript = String::from_utf8_lossy(&daemon.stdout);
    let stderr = String::from_utf8_lossy(&daemon.stderr);
    assert_eq!(daemon.status.code(), Some(0), "{transcript}{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&reply.stdout),
        String::from_utf8_lossy(&expected.stdout),
        "reply after the descriptor drought != replay"
    );
    assert!(
        transcript.contains("served 1 session(s)"),
        "daemon prints the merged transcript: {transcript}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_id_fails_only_its_session() {
    let dir = temp_dir("huge-id");
    // One volatile id of 4e9: a detector sizing its table by it would ask
    // for about 96 GB and abort the process.
    let huge = b"vwr t0 v4000000000\n";
    let one = GenConfig::small(7).generate().to_binary();
    let trace = dir.join("one.ptrace");
    std::fs::write(&trace, &one).unwrap();
    let mut frames = format!("SESSION huge {}\n", huge.len()).into_bytes();
    frames.extend_from_slice(huge);
    frames.extend_from_slice(format!("SESSION one {}\n", one.len()).as_bytes());
    frames.extend_from_slice(&one);
    let frames_path = dir.join("sessions.frames");
    std::fs::write(&frames_path, &frames).unwrap();

    let served = pacer(&["serve", "--stdin", frames_path.to_str().unwrap()]);
    let transcript = String::from_utf8_lossy(&served.stdout);
    let stderr = String::from_utf8_lossy(&served.stderr);
    assert_eq!(served.status.code(), Some(2), "{transcript}{stderr}");
    assert!(
        transcript.contains(
            "=== session huge ===\nerror: invalid trace: action 0: v4000000000 is out of \
             range (ids must be below 1048576)\n"
        ),
        "{transcript}"
    );
    let expected = pacer(&["replay", trace.to_str().unwrap()]);
    let body = String::from_utf8_lossy(&expected.stdout);
    assert!(
        transcript.contains(&format!("=== session one ===\n{body}")),
        "the session after the hostile one must still match replay: {transcript}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_id_past_the_epoch_bound_fails_in_every_detector() {
    let dir = temp_dir("huge-thread");
    // t70000 is below the 2^20 id bound but past the 2^16 threads a packed
    // epoch can name: unchecked, it panics PACER, FASTTRACK and LITERACE.
    let repro = b"fork t0 t70000\nsbegin\nwr t70000 x1 s0\nsend\n";
    let path = dir.join("repro.trace");
    std::fs::write(&path, repro).unwrap();
    let error = "invalid trace: action 0: t70000 is out of range (thread ids must be below 65536)";
    for detector in ["pacer", "fasttrack", "generic", "literace"] {
        let out = pacer(&["replay", path.to_str().unwrap(), "--detector", detector]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{detector}: {stderr}");
        assert!(stderr.contains(error), "{detector}: {stderr}");
    }

    let one = GenConfig::small(7).generate().to_binary();
    let trace = dir.join("one.ptrace");
    std::fs::write(&trace, &one).unwrap();
    let mut frames = format!("SESSION repro {}\n", repro.len()).into_bytes();
    frames.extend_from_slice(repro);
    frames.extend_from_slice(format!("SESSION one {}\n", one.len()).as_bytes());
    frames.extend_from_slice(&one);
    let frames_path = dir.join("sessions.frames");
    std::fs::write(&frames_path, &frames).unwrap();
    let served = pacer(&["serve", "--stdin", frames_path.to_str().unwrap()]);
    let transcript = String::from_utf8_lossy(&served.stdout);
    assert_eq!(served.status.code(), Some(2), "{transcript}");
    assert!(
        transcript.contains(&format!("=== session repro ===\nerror: {error}\n")),
        "{transcript}"
    );
    let expected = pacer(&["replay", trace.to_str().unwrap()]);
    let body = String::from_utf8_lossy(&expected.stdout);
    assert!(
        transcript.contains(&format!("=== session one ===\n{body}")),
        "the session after the failed one must still match replay: {transcript}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
