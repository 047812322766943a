//! Guards for everything a run leaves on the machine: the scratch
//! directory (inputs, WAL segments, daemon output) and the `pacer serve`
//! daemon. Both clean up in `Drop`, so every exit path — an error, a
//! failed check, a panic unwinding through the workload — kills the
//! daemon and removes the directory. Declare the [`Scratch`] before the
//! [`Daemon`] that writes into it: locals drop in reverse order, so the
//! daemon is gone before its WAL directory is removed.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use pacer_collections::JsonValue;

/// A scratch directory under the working directory, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `root/name`, replacing whatever a killed run left there.
    pub fn create(root: &Path, name: &str) -> Result<Scratch, String> {
        let path = root.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)
                .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// How long a daemon may take to bind, and to drain after SIGTERM.
const DAEMON_DEADLINE: Duration = Duration::from_secs(30);

/// A running `pacer serve --tcp` daemon, killed on drop unless stopped.
pub struct Daemon {
    child: Option<Child>,
    /// The bound `HOST:PORT`.
    pub addr: String,
    metrics: PathBuf,
}

/// What a stopped daemon left behind.
pub struct Stopped {
    pub status: ExitStatus,
    /// The `--metrics-out` snapshot it wrote while draining.
    pub metrics: JsonValue,
}

impl Daemon {
    /// Starts `pacer serve --tcp 127.0.0.1:0 --shards 2 --detector pacer`
    /// with its WAL, address file, metrics and output under `dir`, and
    /// waits until it has bound its port.
    pub fn start(pacer: &Path, dir: &Path) -> Result<Daemon, String> {
        let addr_file = dir.join("daemon.addr");
        let metrics = dir.join("daemon.metrics.json");
        let log = |name: &str| {
            std::fs::File::create(dir.join(name))
                .map(Stdio::from)
                .map_err(|e| format!("cannot create daemon log {name}: {e}"))
        };
        let child = Command::new(pacer)
            .args(["serve", "--tcp", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .arg("--wal")
            .arg(dir.join("wal"))
            .arg("--metrics-out")
            .arg(&metrics)
            .args(["--shards", "2", "--detector", "pacer"])
            .stdin(Stdio::null())
            .stdout(log("daemon.out")?)
            .stderr(log("daemon.err")?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pacer.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            metrics,
        };
        let deadline = Instant::now() + DAEMON_DEADLINE;
        loop {
            // The daemon writes the file in one call; a line without its
            // newline is still being written.
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    daemon.addr = addr.to_string();
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child_mut().try_wait().ok().flatten() {
                return Err(format!("daemon exited before binding: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not bind within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon already stopped").id()
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("daemon already stopped")
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }

    /// The daemon's CPU time so far (user plus system, all threads) in
    /// seconds, from `/proc/<pid>/stat`.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let line =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        stat_cpu_s(&line).ok_or_else(|| format!("cannot parse {path}"))
    }

    /// Sends SIGTERM, waits for the graceful drain, and reads the
    /// metrics snapshot the daemon wrote on its way out.
    pub fn stop(mut self) -> Result<Stopped, String> {
        let pid = self.child_mut().id().to_string();
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("cannot run kill: {e}"))?;
        if !sent.success() {
            return Err(format!("kill -TERM {pid} failed: {sent}"));
        }
        let deadline = Instant::now() + DAEMON_DEADLINE;
        let status = loop {
            if let Some(status) = self
                .child_mut()
                .try_wait()
                .map_err(|e| format!("cannot wait for the daemon: {e}"))?
            {
                break status;
            }
            if Instant::now() > deadline {
                return Err("daemon did not drain within 30 s of SIGTERM".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        self.child = None;
        let text = std::fs::read_to_string(&self.metrics)
            .map_err(|e| format!("daemon wrote no metrics: {e}"))?;
        let metrics =
            JsonValue::parse(&text).map_err(|e| format!("daemon metrics are not JSON: {e}"))?;
        Ok(Stopped { status, metrics })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `/proc` reports times in USER_HZ ticks, which Linux fixes at 100 per
/// second.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in seconds from one `/proc/<pid>/stat` line.
fn stat_cpu_s(line: &str) -> Option<f64> {
    // `comm` is parenthesised and may hold spaces or parentheses; the
    // fields after the last `)` start at field 3, so utime and stime
    // (fields 14 and 15) are the 12th and 13th.
    let (_, rest) = line.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || fields.next()?.parse::<u64>().ok();
    Some((ticks()? + ticks()?) as f64 / TICKS_PER_S)
}

/// A counter from the daemon's `serve` metrics, e.g. `("sessions",
/// "admitted")` or `("transport", "acks_sent")`.
pub fn counter(metrics: &JsonValue, section: &str, key: &str) -> u64 {
    metrics
        .get("serve")
        .and_then(|s| s.get(section))
        .and_then(|s| s.get(key))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// Checks a drained daemon: exit 0, a conserved session ledger with
/// every sent session completed, and no restarts, resumes or dedups
/// (the benchmark injects no faults and never reconnects).
pub fn check_drained(stopped: &Stopped, sessions_sent: u64) -> Vec<String> {
    let m = &stopped.metrics;
    let c = |key| counter(m, "sessions", key);
    let mut problems = Vec::new();
    if !stopped.status.success() {
        problems.push(format!("daemon exited with {}", stopped.status));
    }
    let (admitted, completed) = (c("admitted"), c("completed"));
    let filed = completed + c("shed") + c("failed") + c("reaped");
    if admitted != filed {
        problems.push(format!(
            "ledger not conserved: admitted {admitted} != completed + shed + failed + reaped {filed}"
        ));
    }
    if completed != sessions_sent {
        problems.push(format!(
            "daemon completed {completed} session(s) but {sessions_sent} were sent"
        ));
    }
    for (section, key) in [
        ("total", "shard_restarts"),
        ("total", "sessions_lost"),
        ("transport", "session_resumes"),
        ("transport", "frames_deduped"),
    ] {
        let n = counter(m, section, key);
        if n != 0 {
            problems.push(format!("daemon counted {n} {key}"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn guards_clean_up_when_a_run_panics() {
        let root = std::env::temp_dir().join(format!("pacerbench-guard-{}", std::process::id()));
        let child = Command::new("sleep").arg("30").spawn().expect("sleep runs");
        let pid = child.id();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let scratch = Scratch::create(&root, "run").expect("scratch dir");
            std::fs::create_dir(scratch.path().join("wal")).expect("wal dir");
            let _daemon = Daemon {
                child: Some(child),
                addr: String::new(),
                metrics: PathBuf::new(),
            };
            panic!("a workload failed mid-run");
        }));
        assert!(unwound.is_err());
        assert!(!root.join("run").exists(), "scratch dir left behind");
        // Killed and reaped: the pid no longer exists.
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "daemon left running"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stat_lines_give_user_plus_system_time() {
        // A real line's first 17 fields, with a `comm` that holds ") (".
        let line = "4242 (pacer ) (x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 31 1200 74 20 0 3 0 8812 0 0";
        assert_eq!(stat_cpu_s(line), Some(2.81));
        assert_eq!(stat_cpu_s("4242 (pacer) S 1 2"), None);
        assert_eq!(stat_cpu_s("no parenthesis"), None);
        let own = format!("/proc/{}/stat", std::process::id());
        let line = std::fs::read_to_string(own).expect("own stat");
        assert!(stat_cpu_s(&line).is_some(), "{line}");
    }

    fn stopped(code: i32, sessions: &str, transport: &str) -> Stopped {
        let json = format!(
            "{{\"serve\": {{\"total\": {{\"shard_restarts\": 0}}, \
             \"sessions\": {sessions}, \"transport\": {transport}}}}}"
        );
        Stopped {
            status: ExitStatus::from_raw(code << 8),
            metrics: JsonValue::parse(&json).expect("valid JSON"),
        }
    }

    #[test]
    fn drained_daemons_must_conserve_their_ledger() {
        let clean = r#"{"admitted": 3, "completed": 3, "shed": 0, "failed": 0, "reaped": 0}"#;
        let quiet = r#"{"session_resumes": 0, "frames_deduped": 0}"#;
        assert!(check_drained(&stopped(0, clean, quiet), 3).is_empty());
        assert_eq!(check_drained(&stopped(0, clean, quiet), 4).len(), 1);
        assert_eq!(check_drained(&stopped(2, clean, quiet), 3).len(), 1);
        let leaky = r#"{"admitted": 4, "completed": 3, "shed": 0, "failed": 0, "reaped": 0}"#;
        assert!(check_drained(&stopped(0, leaky, quiet), 3)[0].contains("not conserved"));
        let resumed = r#"{"session_resumes": 1, "frames_deduped": 2}"#;
        assert_eq!(check_drained(&stopped(0, clean, resumed), 3).len(), 2);
    }
}
