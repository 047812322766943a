//! Deterministic fault-injection plans for resilience testing.
//!
//! PACER's statistical claim only holds if every scheduled trial is
//! counted, so the harness must survive the failures a real detection
//! service sees: allocator exhaustion, scheduler preemption storms,
//! detector bugs that panic mid-callback, and IO errors while artifacts
//! are being written. This crate defines the *plan* for injecting those
//! failures on purpose — deterministically, so a fault campaign produces
//! byte-identical reports at any `--jobs N` and any retry schedule.
//!
//! A [`FaultPlan`] is parsed from a small line-oriented text spec
//! ([`FaultPlan::parse`]) and names which [`FaultSite`]s are armed. The
//! plan is *pure data*: consumers ask [`FaultPlan::for_trial`] which
//! faults apply to a given `(trial_index, attempt)` pair and wire the
//! answer into their own code. Nothing here keeps clocks or global
//! state, and every decision is a function of the plan text plus the
//! trial coordinates — no wall-clock, no process entropy.
//!
//! Injected failures identify themselves with the [`INJECTED_PREFIX`]
//! (`"injected: "`) in their message so the harness can classify a
//! quarantined trial's fault site from its panic payload alone.
//!
//! # Spec format
//!
//! One directive per line; `#` starts a comment; blank lines ignored.
//!
//! ```text
//! # fail the 0th, 3rd, 6th… trial's detector on its 100th action,
//! # twice, then let the retry succeed
//! seed 0
//! detector-panic every=3 limit=2 after=100
//! heap-oom budget=4096 every=1
//! sched-storm every=5 len=16
//! artifact-io every=2 limit=1
//! # serve-layer chaos sites (SERVICE.md): indices are per-shard event
//! # counts, session admission indices, and shard event counts
//! shard-panic every=64
//! conn-drop every=3 after=128
//! inbox-stall every=32 len=50
//! # network chaos sites for the durable TCP transport (SERVICE.md):
//! # indices are accepted-connection, client-frame, and server-ack counts
//! conn-reset every=2 after=3
//! sock-stall every=3 len=200
//! dup-frame every=4
//! torn-ack every=5
//! ```
//!
//! The serve-layer sites reuse the exact `(index + seed) % every` and
//! `attempt < limit` arithmetic. `shard-panic` fires before its event
//! reaches the detector and defaults to `limit=1` (fire once per
//! targeted index), so the supervised retry in `pacer serve` applies the
//! event once and the merged transcript stays byte-identical to the
//! clean run; raise `limit` above the service's retry bound to exercise
//! the `ShardLost` path instead.
//!
//! # Examples
//!
//! ```
//! use pacer_faults::FaultPlan;
//!
//! let plan = FaultPlan::parse("detector-panic every=2 limit=1\n").unwrap();
//! // Trial 0 is targeted and fails on its first attempt…
//! assert!(plan.for_trial(0, 0).detector_panic_after.is_some());
//! // …but its retry (attempt 1) is past the limit and succeeds.
//! assert!(plan.for_trial(0, 1).detector_panic_after.is_none());
//! // Trial 1 is never targeted.
//! assert!(plan.for_trial(1, 0).is_clear());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

/// Prefix carried by every injected failure message; the harness uses it
/// to tell injected faults from organic bugs when classifying quarantines.
pub const INJECTED_PREFIX: &str = "injected: ";

/// A named place in the stack where the plan can inject a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Simulated allocator exhaustion once the VM heap's cumulative
    /// allocation exceeds a byte budget.
    HeapOom,
    /// Scheduler preemption storm: windows of forced quantum-1
    /// scheduling in the VM.
    SchedStorm,
    /// Forced panic inside a detector callback.
    DetectorPanic,
    /// IO error injected on an artifact write.
    ArtifactIo,
    /// Forced panic inside a `pacer serve` shard worker, caught and
    /// recovered by the shard supervisor.
    ShardPanic,
    /// Simulated client disconnect: a serve session's byte stream is cut
    /// off after a fixed prefix (reported as a truncated tail).
    ConnDrop,
    /// Cooperative stall inside a shard's inbox drain — a timing-only
    /// perturbation that must not change any output.
    InboxStall,
    /// Server-side hard close of a TCP connection after a fixed number
    /// of accepted frames — the client must reconnect and `RESUME`.
    ConnReset,
    /// Cooperative stall before a TCP connection is served — a
    /// timing-only perturbation that must not change any output.
    SockStall,
    /// Client-side duplicated retransmit: the previous frame is sent
    /// again, and the server must dedup it by offset.
    DupFrame,
    /// Server-side torn ack: a partial `ACK` line is written and the
    /// connection dropped, forcing a resume with retransmit overlap.
    TornAck,
}

impl FaultSite {
    /// The site's stable spec/report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::HeapOom => "heap_oom",
            FaultSite::SchedStorm => "sched_storm",
            FaultSite::DetectorPanic => "detector_panic",
            FaultSite::ArtifactIo => "artifact_io",
            FaultSite::ShardPanic => "shard_panic",
            FaultSite::ConnDrop => "conn_drop",
            FaultSite::InboxStall => "inbox_stall",
            FaultSite::ConnReset => "conn_reset",
            FaultSite::SockStall => "sock_stall",
            FaultSite::DupFrame => "dup_frame",
            FaultSite::TornAck => "torn_ack",
        }
    }

    /// Classifies a failure message produced by an injected fault, by
    /// its [`INJECTED_PREFIX`] marker; `None` for organic failures.
    pub fn classify(message: &str) -> Option<FaultSite> {
        let rest = message.strip_prefix(INJECTED_PREFIX)?;
        if rest.starts_with("heap OOM") {
            Some(FaultSite::HeapOom)
        } else if rest.starts_with("detector panic") {
            Some(FaultSite::DetectorPanic)
        } else if rest.starts_with("artifact IO") {
            Some(FaultSite::ArtifactIo)
        } else if rest.starts_with("sched storm") {
            Some(FaultSite::SchedStorm)
        } else if rest.starts_with("shard panic") {
            Some(FaultSite::ShardPanic)
        } else if rest.starts_with("conn drop") {
            Some(FaultSite::ConnDrop)
        } else if rest.starts_with("inbox stall") {
            Some(FaultSite::InboxStall)
        } else if rest.starts_with("conn reset") {
            Some(FaultSite::ConnReset)
        } else if rest.starts_with("sock stall") {
            Some(FaultSite::SockStall)
        } else if rest.starts_with("dup frame") {
            Some(FaultSite::DupFrame)
        } else if rest.starts_with("torn ack") {
            Some(FaultSite::TornAck)
        } else {
            None
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which trials a site rule targets and for how many attempts it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Targeting {
    /// Target every `every`-th trial (phase-shifted by the plan seed).
    every: u64,
    /// Fire on attempts `< limit`; `u32::MAX` means every attempt, which
    /// exhausts retries and quarantines the trial.
    limit: u32,
}

impl Targeting {
    fn applies(&self, seed: u64, trial_index: u64, attempt: u32) -> bool {
        trial_index.wrapping_add(seed).is_multiple_of(self.every) && attempt < self.limit
    }
}

/// A parsed, armed fault plan. See the [crate docs](crate) for the spec
/// format and determinism contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Phase shift applied to every `every=` rule: trial `i` is targeted
    /// when `(i + seed) % every == 0`. Changing the seed moves which
    /// trials fault without changing how many.
    seed: u64,
    heap_oom: Option<(Targeting, u64)>,
    sched_storm: Option<(Targeting, u64, u64)>,
    detector_panic: Option<(Targeting, u64)>,
    artifact_io: Option<Targeting>,
    shard_panic: Option<Targeting>,
    conn_drop: Option<(Targeting, u64)>,
    inbox_stall: Option<(Targeting, u64)>,
    conn_reset: Option<(Targeting, u64)>,
    sock_stall: Option<(Targeting, u64)>,
    dup_frame: Option<Targeting>,
    torn_ack: Option<Targeting>,
}

impl FaultPlan {
    /// Parses a plan from its text spec.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] naming the offending line for any
    /// unknown directive, unknown or duplicate parameter, malformed
    /// number, or zero `every=`/`len=`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan {
            seed: 0,
            heap_oom: None,
            sched_storm: None,
            detector_panic: None,
            artifact_io: None,
            shard_panic: None,
            conn_drop: None,
            inbox_stall: None,
            conn_reset: None,
            sock_stall: None,
            dup_frame: None,
            torn_ack: None,
        };
        for (i, raw_line) in spec.lines().enumerate() {
            let line_no = i + 1;
            let line = match raw_line.find('#') {
                Some(hash) => &raw_line[..hash],
                None => raw_line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line has a first word");
            let err = |message: String| FaultPlanError {
                line: line_no,
                message,
            };
            match directive {
                "seed" => {
                    let value = words
                        .next()
                        .ok_or_else(|| err("seed needs a value".into()))?;
                    plan.seed = value
                        .parse()
                        .map_err(|_| err(format!("bad seed value '{value}'")))?;
                    if let Some(extra) = words.next() {
                        return Err(err(format!("unexpected trailing '{extra}'")));
                    }
                }
                "heap-oom" => {
                    let params = Params::parse(line_no, words, &["budget", "every", "limit"])?;
                    let budget = params.require("budget")?;
                    plan.heap_oom = Some((params.targeting()?, budget));
                }
                "sched-storm" => {
                    let params =
                        Params::parse(line_no, words, &["every", "len", "period", "limit"])?;
                    let len = params.get("len")?.unwrap_or(8).max(1);
                    let period = params.get("period")?.unwrap_or(64).max(1);
                    plan.sched_storm = Some((params.targeting()?, period, len));
                }
                "detector-panic" => {
                    let params = Params::parse(line_no, words, &["every", "limit", "after"])?;
                    let after = params.get("after")?.unwrap_or(0);
                    plan.detector_panic = Some((params.targeting()?, after));
                }
                "artifact-io" => {
                    let params = Params::parse(line_no, words, &["every", "limit"])?;
                    plan.artifact_io = Some(params.targeting()?);
                }
                "shard-panic" => {
                    let params = Params::parse(line_no, words, &["every", "limit"])?;
                    // Default limit=1: fire once per targeted event index
                    // so the supervised retry succeeds (see crate docs).
                    let mut t = params.targeting()?;
                    if params.get("limit")?.is_none() {
                        t.limit = 1;
                    }
                    plan.shard_panic = Some(t);
                }
                "conn-drop" => {
                    let params = Params::parse(line_no, words, &["every", "after"])?;
                    let after = params.get("after")?.unwrap_or(64);
                    plan.conn_drop = Some((params.targeting()?, after));
                }
                "inbox-stall" => {
                    let params = Params::parse(line_no, words, &["every", "len"])?;
                    let len = params.get("len")?.unwrap_or(64).max(1);
                    plan.inbox_stall = Some((params.targeting()?, len));
                }
                "conn-reset" => {
                    let params = Params::parse(line_no, words, &["every", "after"])?;
                    let after = params.get("after")?.unwrap_or(1);
                    plan.conn_reset = Some((params.targeting()?, after));
                }
                "sock-stall" => {
                    let params = Params::parse(line_no, words, &["every", "len"])?;
                    let len = params.get("len")?.unwrap_or(64).max(1);
                    plan.sock_stall = Some((params.targeting()?, len));
                }
                "dup-frame" => {
                    let params = Params::parse(line_no, words, &["every"])?;
                    plan.dup_frame = Some(params.targeting()?);
                }
                "torn-ack" => {
                    let params = Params::parse(line_no, words, &["every"])?;
                    plan.torn_ack = Some(params.targeting()?);
                }
                other => {
                    return Err(err(format!("unknown directive '{other}'")));
                }
            }
        }
        Ok(plan)
    }

    /// `true` when no site is armed; consumers can skip all checks.
    pub fn is_empty(&self) -> bool {
        self.heap_oom.is_none()
            && self.sched_storm.is_none()
            && self.detector_panic.is_none()
            && self.artifact_io.is_none()
            && self.shard_panic.is_none()
            && self.conn_drop.is_none()
            && self.inbox_stall.is_none()
            && self.conn_reset.is_none()
            && self.sock_stall.is_none()
            && self.dup_frame.is_none()
            && self.torn_ack.is_none()
    }

    /// `true` when any serve-layer chaos site is armed (`shard-panic`,
    /// `conn-drop`, `inbox-stall`, or the network sites `conn-reset`,
    /// `sock-stall`, `dup-frame`, `torn-ack`).
    pub fn has_serve_sites(&self) -> bool {
        self.shard_panic.is_some()
            || self.conn_drop.is_some()
            || self.inbox_stall.is_some()
            || self.has_network_sites()
    }

    /// `true` when any durable-TCP network chaos site is armed
    /// (`conn-reset`, `sock-stall`, `dup-frame`, `torn-ack`).
    pub fn has_network_sites(&self) -> bool {
        self.conn_reset.is_some()
            || self.sock_stall.is_some()
            || self.dup_frame.is_some()
            || self.torn_ack.is_some()
    }

    /// The plan's phase-shift seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolves which in-VM faults apply to attempt `attempt` of trial
    /// `trial_index`. Purely a function of its arguments and the plan.
    pub fn for_trial(&self, trial_index: u64, attempt: u32) -> TrialFaults {
        let mut faults = TrialFaults::default();
        if let Some((t, budget)) = self.heap_oom {
            if t.applies(self.seed, trial_index, attempt) {
                faults.heap_oom_budget = Some(budget);
            }
        }
        if let Some((t, period, len)) = self.sched_storm {
            if t.applies(self.seed, trial_index, attempt) {
                faults.sched_storm = Some(StormShape { period, len });
            }
        }
        if let Some((t, after)) = self.detector_panic {
            if t.applies(self.seed, trial_index, attempt) {
                faults.detector_panic_after = Some(after);
            }
        }
        faults
    }

    /// Whether attempt `attempt` of the `write_index`-th artifact write
    /// should fail with an injected IO error.
    pub fn artifact_io_fails(&self, write_index: u64, attempt: u32) -> bool {
        self.artifact_io
            .is_some_and(|t| t.applies(self.seed, write_index, attempt))
    }

    /// Whether attempt `attempt` at a shard's `event_index`-th arrived
    /// event should panic the shard worker. The index is per shard — the
    /// count of events delivered to that shard, counted once per event
    /// no matter how many supervised attempts it takes — so the site
    /// fires under any `--shards N` without coordinating shards.
    pub fn shard_panic_fires(&self, event_index: u64, attempt: u32) -> bool {
        self.shard_panic
            .is_some_and(|t| t.applies(self.seed, event_index, attempt))
    }

    /// Byte prefix to keep of the `session_index`-th admitted session's
    /// stream when `conn-drop` targets it — simulating the client
    /// disconnecting mid-stream; `None` when the session is untargeted.
    pub fn conn_drop_after(&self, session_index: u64) -> Option<u64> {
        let (t, after) = self.conn_drop?;
        t.applies(self.seed, session_index, 0).then_some(after)
    }

    /// Cooperative yields to spin before a shard processes its
    /// `event_index`-th event when `inbox-stall` targets it — a pure
    /// timing perturbation; `None` when untargeted.
    pub fn inbox_stall_spins(&self, event_index: u64) -> Option<u64> {
        let (t, len) = self.inbox_stall?;
        t.applies(self.seed, event_index, 0).then_some(len)
    }

    /// Frames to accept on the `conn_index`-th TCP connection before the
    /// server hard-closes it mid-session (`conn-reset` — the client must
    /// reconnect and `RESUME`); `None` when the connection is untargeted.
    pub fn conn_reset_after_frames(&self, conn_index: u64) -> Option<u64> {
        let (t, after) = self.conn_reset?;
        t.applies(self.seed, conn_index, 0).then_some(after)
    }

    /// Cooperative yields to spin before the server reads from the
    /// `conn_index`-th TCP connection when `sock-stall` targets it — a
    /// pure timing perturbation; `None` when untargeted.
    pub fn sock_stall_spins(&self, conn_index: u64) -> Option<u64> {
        let (t, len) = self.sock_stall?;
        t.applies(self.seed, conn_index, 0).then_some(len)
    }

    /// Whether the client should send a duplicated retransmit of its
    /// previous frame before its `frame_index`-th frame (`dup-frame`);
    /// the server must dedup the duplicate by offset.
    pub fn dup_frame_fires(&self, frame_index: u64) -> bool {
        self.dup_frame
            .is_some_and(|t| t.applies(self.seed, frame_index, 0))
    }

    /// Whether the server should tear its `ack_index`-th `ACK` — write a
    /// partial line and drop the connection (`torn-ack`), forcing the
    /// client to resume with a retransmit overlap.
    pub fn torn_ack_fires(&self, ack_index: u64) -> bool {
        self.torn_ack
            .is_some_and(|t| t.applies(self.seed, ack_index, 0))
    }
}

/// Key=value parameter bag for one spec directive.
struct Params {
    line: usize,
    pairs: Vec<(String, u64)>,
}

impl Params {
    fn parse<'a>(
        line: usize,
        words: impl Iterator<Item = &'a str>,
        allowed: &[&str],
    ) -> Result<Params, FaultPlanError> {
        let err = |message: String| FaultPlanError { line, message };
        let mut pairs: Vec<(String, u64)> = Vec::new();
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| err(format!("expected key=value, got '{word}'")))?;
            if !allowed.contains(&key) {
                return Err(err(format!("unknown parameter '{key}'")));
            }
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(err(format!("duplicate parameter '{key}'")));
            }
            let value: u64 = value
                .parse()
                .map_err(|_| err(format!("bad value for '{key}': '{value}'")))?;
            pairs.push((key.to_string(), value));
        }
        Ok(Params { line, pairs })
    }

    fn get(&self, key: &str) -> Result<Option<u64>, FaultPlanError> {
        Ok(self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| *v))
    }

    fn require(&self, key: &str) -> Result<u64, FaultPlanError> {
        self.get(key)?.ok_or_else(|| FaultPlanError {
            line: self.line,
            message: format!("missing required parameter '{key}'"),
        })
    }

    /// The directive's `every=`/`limit=` pair, defaulting to "every
    /// trial, every attempt" (i.e. targeted trials always quarantine).
    fn targeting(&self) -> Result<Targeting, FaultPlanError> {
        let every = self.get("every")?.unwrap_or(1);
        if every == 0 {
            return Err(FaultPlanError {
                line: self.line,
                message: "every=0 would target no trial; use every=1 for all".into(),
            });
        }
        let limit = match self.get("limit")? {
            Some(v) => u32::try_from(v).unwrap_or(u32::MAX),
            None => u32::MAX,
        };
        Ok(Targeting { every, limit })
    }
}

/// The shape of a scheduler preemption storm: within every `period`
/// scheduling turns, the first `len` run with a forced quantum of 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StormShape {
    /// Scheduling turns between storm onsets.
    pub period: u64,
    /// Storm length in scheduling turns.
    pub len: u64,
}

impl StormShape {
    /// Whether scheduling turn `turn` falls inside a storm window.
    pub fn in_storm(&self, turn: u64) -> bool {
        turn % self.period < self.len
    }
}

/// The in-VM faults resolved for one `(trial, attempt)` pair — what the
/// runtime actually checks. `Default` is "nothing armed", which every
/// injection site guards with a single `Option` branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrialFaults {
    /// Fail with an injected OOM once cumulative allocation exceeds
    /// this many bytes.
    pub heap_oom_budget: Option<u64>,
    /// Panic in the detector callback after this many forwarded actions.
    pub detector_panic_after: Option<u64>,
    /// Force preemption storms of this shape.
    pub sched_storm: Option<StormShape>,
}

impl TrialFaults {
    /// `true` when no fault is armed for this trial attempt.
    pub fn is_clear(&self) -> bool {
        *self == TrialFaults::default()
    }
}

/// A structured plan-spec parse error: the offending line and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanError {
    /// 1-based spec line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_comment_only_specs_are_clear() {
        for spec in ["", "\n\n", "# all quiet\n  # indented comment\n"] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(plan.is_empty());
            assert!(plan.for_trial(0, 0).is_clear());
            assert!(!plan.artifact_io_fails(0, 0));
        }
    }

    #[test]
    fn full_spec_round_trip() {
        let plan = FaultPlan::parse(
            "# campaign\nseed 7\nheap-oom budget=4096 every=2\n\
             sched-storm every=3 len=16 period=32\n\
             detector-panic every=1 limit=2 after=100\nartifact-io every=4 limit=1\n",
        )
        .unwrap();
        assert_eq!(plan.seed(), 7);
        assert!(!plan.is_empty());
        // seed 7, every=2: trials with (i + 7) % 2 == 0 → odd i.
        assert_eq!(plan.for_trial(1, 0).heap_oom_budget, Some(4096));
        assert_eq!(plan.for_trial(2, 0).heap_oom_budget, None);
        // detector-panic every=1 hits all trials, attempts 0 and 1 only.
        assert_eq!(plan.for_trial(2, 1).detector_panic_after, Some(100));
        assert_eq!(plan.for_trial(2, 2).detector_panic_after, None);
        // storm: (i + 7) % 3 == 0 → i = 2, 5, 8…
        let storm = plan.for_trial(2, 0).sched_storm.unwrap();
        assert_eq!(
            storm,
            StormShape {
                period: 32,
                len: 16
            }
        );
        assert!(storm.in_storm(0) && storm.in_storm(15));
        assert!(!storm.in_storm(16) && storm.in_storm(32));
        // artifact-io: (k + 7) % 4 == 0 → k = 1, 5, …; attempt 0 only.
        assert!(plan.artifact_io_fails(1, 0));
        assert!(!plan.artifact_io_fails(1, 1));
        assert!(!plan.artifact_io_fails(2, 0));
    }

    #[test]
    fn for_trial_is_deterministic() {
        let spec = "detector-panic every=3 limit=1\nheap-oom budget=100\n";
        let a = FaultPlan::parse(spec).unwrap();
        let b = FaultPlan::parse(spec).unwrap();
        for trial in 0..50 {
            for attempt in 0..3 {
                assert_eq!(a.for_trial(trial, attempt), b.for_trial(trial, attempt));
            }
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("frobnicate\n", 1, "unknown directive"),
            ("seed\n", 1, "seed needs a value"),
            ("seed banana\n", 1, "bad seed value"),
            ("seed 1 2\n", 1, "unexpected trailing"),
            ("# ok\nheap-oom\n", 2, "missing required parameter 'budget'"),
            ("heap-oom budget=x\n", 1, "bad value"),
            ("heap-oom budget=1 budget=2\n", 1, "duplicate parameter"),
            ("detector-panic nonsense\n", 1, "expected key=value"),
            ("detector-panic color=red\n", 1, "unknown parameter"),
            ("\ndetector-panic every=0\n", 2, "every=0"),
        ];
        for (spec, line, needle) in cases {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert_eq!(err.line, *line, "{spec:?}");
            assert!(err.message.contains(needle), "{spec:?}: {}", err.message);
        }
    }

    #[test]
    fn classify_recognizes_injected_messages_only() {
        assert_eq!(
            FaultSite::classify("injected: heap OOM budget of 64 bytes exceeded"),
            Some(FaultSite::HeapOom)
        );
        assert_eq!(
            FaultSite::classify("injected: detector panic (trial-armed, action 3)"),
            Some(FaultSite::DetectorPanic)
        );
        assert_eq!(
            FaultSite::classify("injected: artifact IO error (write 0, attempt 0)"),
            Some(FaultSite::ArtifactIo)
        );
        assert_eq!(FaultSite::classify("index out of bounds"), None);
        assert_eq!(FaultSite::classify("injected: something else"), None);
    }

    #[test]
    fn site_names_are_stable() {
        assert_eq!(FaultSite::HeapOom.name(), "heap_oom");
        assert_eq!(FaultSite::SchedStorm.name(), "sched_storm");
        assert_eq!(FaultSite::DetectorPanic.name(), "detector_panic");
        assert_eq!(FaultSite::ArtifactIo.name(), "artifact_io");
        assert_eq!(FaultSite::ShardPanic.name(), "shard_panic");
        assert_eq!(FaultSite::ConnDrop.name(), "conn_drop");
        assert_eq!(FaultSite::InboxStall.name(), "inbox_stall");
        assert_eq!(FaultSite::ConnReset.name(), "conn_reset");
        assert_eq!(FaultSite::SockStall.name(), "sock_stall");
        assert_eq!(FaultSite::DupFrame.name(), "dup_frame");
        assert_eq!(FaultSite::TornAck.name(), "torn_ack");
    }

    #[test]
    fn serve_sites_parse_and_target_deterministically() {
        let plan = FaultPlan::parse(
            "seed 1\nshard-panic every=4\nconn-drop every=3 after=40\ninbox-stall every=2 len=9\n",
        )
        .unwrap();
        assert!(!plan.is_empty());
        assert!(plan.has_serve_sites());

        // shard-panic: (i + 1) % 4 == 0 → i = 3, 7, …; default limit=1
        // fires on attempt 0 only, so the supervised retry succeeds.
        assert!(plan.shard_panic_fires(3, 0));
        assert!(!plan.shard_panic_fires(3, 1), "default limit is 1");
        assert!(!plan.shard_panic_fires(4, 0));

        // conn-drop: (i + 1) % 3 == 0 → sessions 2, 5, …
        assert_eq!(plan.conn_drop_after(2), Some(40));
        assert_eq!(plan.conn_drop_after(3), None);

        // inbox-stall: (i + 1) % 2 == 0 → odd event indices.
        assert_eq!(plan.inbox_stall_spins(1), Some(9));
        assert_eq!(plan.inbox_stall_spins(2), None);

        // An explicit limit overrides the shard-panic fire-once default
        // (the ShardLost path needs panics on every retry).
        let hostile = FaultPlan::parse("shard-panic every=1 limit=100\n").unwrap();
        assert!(hostile.shard_panic_fires(0, 5));

        // Classification of the injected messages.
        assert_eq!(
            FaultSite::classify("injected: shard panic (shard 2, event 64)"),
            Some(FaultSite::ShardPanic)
        );
        assert_eq!(
            FaultSite::classify("injected: conn drop (session 3)"),
            Some(FaultSite::ConnDrop)
        );
        assert_eq!(
            FaultSite::classify("injected: inbox stall (event 32)"),
            Some(FaultSite::InboxStall)
        );

        // Plans without serve sites report none armed.
        let fleet_only = FaultPlan::parse("detector-panic every=2\n").unwrap();
        assert!(!fleet_only.has_serve_sites());
        assert!(!fleet_only.shard_panic_fires(0, 0));
        assert_eq!(fleet_only.conn_drop_after(0), None);
        assert_eq!(fleet_only.inbox_stall_spins(0), None);
    }

    #[test]
    fn network_sites_parse_and_target_deterministically() {
        let plan = FaultPlan::parse(
            "seed 1\nconn-reset every=2 after=3\nsock-stall every=3 len=200\n\
             dup-frame every=4\ntorn-ack every=5\n",
        )
        .unwrap();
        assert!(!plan.is_empty());
        assert!(plan.has_serve_sites());
        assert!(plan.has_network_sites());

        // conn-reset: (c + 1) % 2 == 0 → odd connection indices.
        assert_eq!(plan.conn_reset_after_frames(1), Some(3));
        assert_eq!(plan.conn_reset_after_frames(2), None);

        // sock-stall: (c + 1) % 3 == 0 → connections 2, 5, ….
        assert_eq!(plan.sock_stall_spins(2), Some(200));
        assert_eq!(plan.sock_stall_spins(3), None);

        // dup-frame: (f + 1) % 4 == 0 → frames 3, 7, ….
        assert!(plan.dup_frame_fires(3));
        assert!(!plan.dup_frame_fires(4));

        // torn-ack: (a + 1) % 5 == 0 → acks 4, 9, ….
        assert!(plan.torn_ack_fires(4));
        assert!(!plan.torn_ack_fires(5));

        // Defaults: conn-reset after=1, sock-stall len=64.
        let defaults = FaultPlan::parse("conn-reset\nsock-stall\n").unwrap();
        assert_eq!(defaults.conn_reset_after_frames(0), Some(1));
        assert_eq!(defaults.sock_stall_spins(0), Some(64));

        // Classification of the injected messages.
        assert_eq!(
            FaultSite::classify("injected: conn reset (connection 1, after 3 frame(s))"),
            Some(FaultSite::ConnReset)
        );
        assert_eq!(
            FaultSite::classify("injected: sock stall (connection 2)"),
            Some(FaultSite::SockStall)
        );
        assert_eq!(
            FaultSite::classify("injected: dup frame (frame 3)"),
            Some(FaultSite::DupFrame)
        );
        assert_eq!(
            FaultSite::classify("injected: torn ack (ack 4)"),
            Some(FaultSite::TornAck)
        );

        // The legacy serve sites alone arm no network site.
        let legacy = FaultPlan::parse("conn-drop every=1 after=8\n").unwrap();
        assert!(legacy.has_serve_sites() && !legacy.has_network_sites());
        assert_eq!(legacy.conn_reset_after_frames(0), None);
        assert!(!legacy.dup_frame_fires(0));
        assert!(!legacy.torn_ack_fires(0));
    }
}
