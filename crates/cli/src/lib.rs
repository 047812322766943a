//! Implementation of the `pacer` command-line tool.
//!
//! Subcommands (see [`run`] for dispatch):
//!
//! ```text
//! pacer run <file> [--rate R] [--seed N] [--detector D] [--trace OUT]
//!     Compile and execute a mini-language program under a race detector.
//!     D ∈ {pacer, fasttrack, generic, literace, none}.
//! pacer record <file> [--rate R] [--seed N] [--out PATH] [--format F]
//!     Execute once and capture the event stream to a trace file —
//!     binary `.ptrace` by default (spec in TRACE_FORMAT.md), text with
//!     --format text — without running any detector. The capture half
//!     of the record/replay split.
//! pacer replay <file> [--detector D] [--metrics-out PATH] [--resample R]
//!     Re-analyze a recorded trace offline. Binary and text inputs are
//!     auto-detected by content; binary traces stream through the
//!     detector frame by frame (bounded memory), a truncated binary
//!     tail is reported and the complete prefix analyzed, and any
//!     corrupt frame is a hard error. --resample R overlays fresh
//!     sampling periods (mean length --resample-period, seeded by
//!     --seed) before detection, so one recorded workload can be
//!     replayed at many rates.
//! pacer check <file>
//!     Parse, analyze, and compile only; print instrumentation summary.
//! pacer fmt <file>
//!     Pretty-print the program in canonical form.
//! pacer fold <file>
//!     Constant-fold, then pretty-print.
//! pacer lint <file>
//!     Static lockset discipline check (imprecise by design: §6.2).
//! pacer fleet <file> [--instances N] [--rate R] [--seed N] [--jobs N]
//!     Simulate a deployed fleet: N instances each run the program once
//!     under PACER at rate R, race reports aggregated centrally (§1).
//!     --jobs parallelizes the instances; output is identical at any
//!     job count. With --metrics-out / --trace-out the instances run
//!     under the observability layer and the merged artifacts are
//!     written out (still byte-identical at any job count).
//!     The fleet runs on the crash-resilient engine (RESILIENCE.md):
//!     --max-retries N bounds per-trial retries, --fault-plan FILE arms
//!     a deterministic fault-injection campaign, --checkpoint JOURNAL
//!     appends each completed trial to a journal, and --resume JOURNAL
//!     restores completed trials from one (an interrupted-then-resumed
//!     run is byte-identical to an uninterrupted one). --mem-budget /
//!     --deadline-events arm the resource governor: hard budgets on
//!     detector metadata bytes and executed steps, enforced at GC
//!     boundaries by stepping the sampling rate down a ladder
//!     (--rate-ladder-governor overrides the default halving ladder),
//!     with cooperative cancellation only at the floor. Exit code 0 is
//!     a clean campaign (including rate-degraded trials), 2 is
//!     completed-with-quarantines-or-cancellations, 1 a hard error.
//! pacer serve [--tcp HOST:PORT | --stdin FILE|-] [--shards N] ...
//!     Long-running streaming detection service: many concurrent trace
//!     sessions (durable TCP connections or length-framed input), each
//!     speaking the `.ptrace` stream format and each run whole on one of
//!     --shards worker threads, picked by a hash of the session name.
//!     Each session's reply is byte-identical to `pacer replay` of the
//!     same bytes; the merged transcript is byte-identical at any
//!     --shards count or arrival interleaving. --checkpoint/--resume
//!     journal completed sessions (a killed-and-resumed service
//!     reproduces the uninterrupted transcript); --mem-budget arms
//!     governor-driven admission shedding (new sessions sample at
//!     reduced rates under pressure — work is shed, never connections).
//!     `--send TRACE --tcp HOST:PORT` is the client: it prints the
//!     daemon's reply verbatim. Protocol and routing rules in
//!     SERVICE.md. Exit 2 if any session was rejected.
//! pacer stats <file> [--rate R] [--seed N] [--detector D]
//!     Run once under the observability layer and print the Table 3-style
//!     operation breakdown, space accounting, and escape-analysis
//!     decisions; --metrics-out / --trace-out write the JSON snapshot
//!     and JSONL event trace (schemas in OBSERVABILITY.md).
//! pacer fuzz [--seed N] [--iters N] [--jobs N] [--rate-ladder R,R,..]
//!     Differential race-oracle fuzzing campaign: generate seeded
//!     programs, cross-check every detector against the HB oracle, and
//!     shrink any failure to a minimal reproducer (see FUZZING.md).
//!     Output is byte-identical at any --jobs count; a campaign with
//!     violations exits nonzero with the full report on stderr.
//! ```
//!
//! The library form exists so the behavior is unit-testable; `main.rs` is a
//! thin wrapper.

// `deny` rather than `forbid`: the signal module carries the suite's
// only `unsafe` (raw `signal(2)`/`_exit(2)` bindings for graceful
// drain) behind an explicit module-level allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod signal;

use std::fmt::Write as _;
use std::path::Path;

use pacer_core::PacerDetector;
use pacer_fasttrack::{FastTrackDetector, GenericDetector};
use pacer_faults::{FaultPlan, INJECTED_PREFIX};
use pacer_lang::ir::CompiledProgram;
use pacer_literace::{LiteRaceConfig, LiteRaceDetector};
use pacer_runtime::{InstrumentMode, NullDetector, RunOutcome, Vm, VmConfig};
use pacer_trace::{Detector, RaceReport, RecordingDetector};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

/// A command's successful output: the text to print plus the process
/// exit code the wrapper should use.
///
/// Exit codes: `0` is a clean run; `2` means the command completed but
/// quarantined trials along the way (`pacer fleet` under faults); hard
/// failures surface as [`CliError`] and exit `1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmdOutput {
    /// The text to print to stdout.
    pub text: String,
    /// Suggested process exit code.
    pub code: u8,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        CmdOutput { text, code: 0 }
    }
}

impl std::ops::Deref for CmdOutput {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl std::fmt::Display for CmdOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Parsed command-line options.
#[derive(Clone, Debug)]
struct Options {
    rate: f64,
    seed: u64,
    detector: String,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    events_out: Option<String>,
    instances: u32,
    jobs: usize,
    iters: u64,
    schedule_seeds: u32,
    rate_ladder: Option<Vec<f64>>,
    fault_plan: Option<String>,
    max_retries: u32,
    checkpoint: Option<String>,
    resume: Option<String>,
    mem_budget: Option<u64>,
    deadline_events: Option<u64>,
    governor_ladder: Option<String>,
    out: Option<String>,
    format: Option<String>,
    record_traces: Option<String>,
    trace_dir: Option<String>,
    resample: Option<f64>,
    resample_period: usize,
    send: Option<String>,
    session: Option<String>,
    stdin_frames: Option<String>,
    shards: usize,
    max_sessions: Option<u64>,
    session_deadline_events: Option<u64>,
    idle_timeout: Option<u32>,
    tcp: Option<String>,
    wal: Option<String>,
    addr_file: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            rate: 0.03,
            seed: 42,
            detector: "pacer".into(),
            trace_out: None,
            metrics_out: None,
            events_out: None,
            instances: 20,
            jobs: 1,
            iters: 100,
            schedule_seeds: 3,
            rate_ladder: None,
            fault_plan: None,
            max_retries: 1,
            checkpoint: None,
            resume: None,
            mem_budget: None,
            deadline_events: None,
            governor_ladder: None,
            out: None,
            format: None,
            record_traces: None,
            trace_dir: None,
            resample: None,
            resample_period: 50,
            send: None,
            session: None,
            stdin_frames: None,
            shards: 4,
            max_sessions: None,
            session_deadline_events: None,
            idle_timeout: None,
            tcp: None,
            wal: None,
            addr_file: None,
        }
    }
}

const USAGE: &str = "\
usage: pacer <command> [args]

commands:
  run <file>     compile + execute under a detector
                 [--rate R] [--seed N] [--detector D] [--trace OUT]
  record <file>  execute once, capturing the event stream to a trace
                 file instead of running a detector (TRACE_FORMAT.md)
                 [--rate R] [--seed N] [--out PATH]
                 [--format binary|text]   (default: binary, .ptrace)
  replay <file>  re-analyze a recorded trace offline; binary (.ptrace)
                 and text traces are auto-detected by content
                 [--detector D] [--metrics-out PATH]
                 [--resample R [--resample-period N] [--seed N]]
  check <file>   compile only; print the instrumentation summary
  fmt <file>     pretty-print canonical source
  fold <file>    constant-fold, then pretty-print
  lint <file>    static lockset check (may report false positives)
  fleet <file>   simulate a deployed fleet of sampling instances
                 [--instances N] [--rate R] [--seed N] [--jobs N]
                 [--metrics-out PATH] [--trace-out PATH]
                 [--fault-plan FILE] [--max-retries N]
                 [--checkpoint JOURNAL] [--resume JOURNAL]
                 [--mem-budget BYTES] [--deadline-events N]
                 [--rate-ladder-governor R,R,...]
                 [--record-traces DIR [--format binary|text]]
  serve          long-running detection service over the .ptrace stream
                 format (protocol in SERVICE.md); sessions demultiplex
                 onto shard workers and the merged transcript is
                 byte-identical at any shard count or interleaving
                 [--tcp HOST:PORT [--wal DIR] [--addr-file PATH]
                  [--max-sessions N] [--idle-timeout TICKS]]
                     (TCP daemon with durable, reconnectable sessions:
                      acked-offset resume via `RESUME <name> <offset>`,
                      per-session write-ahead segments under --wal)
                 [--stdin FILE|-]                    (length-framed input)
                 [--send TRACE --tcp HOST:PORT [--session NAME]]
                     (reconnecting client: resumes from the last acked
                      frame offset after a connection drop)
                 [--shards N] [--detector D] [--seed N]
                 [--checkpoint JOURNAL] [--resume JOURNAL]
                 [--mem-budget BYTES] [--metrics-out PATH]
                 [--session-deadline-events N]
                 [--fault-plan FILE]   (chaos drills, RESILIENCE.md)
                 SIGINT/SIGTERM drain gracefully: admission stops,
                 in-flight sessions finish and checkpoint, exit 0; a
                 second signal hard-stops with exit 2 (SERVICE.md)
  stats <file>   run once under the observability layer; print the
                 Table 3-style operation breakdown and space accounting
                 [--rate R] [--seed N] [--detector D]
                 [--metrics-out PATH] [--trace-out PATH]
  fuzz           differential race-oracle fuzzing campaign (FUZZING.md)
                 [--seed N] [--iters N] [--jobs N]
                 [--rate-ladder R,R,...] [--schedule-seeds N]
                 [--metrics-out PATH] [--trace-dir DIR]

detectors: pacer (default), fasttrack, generic, literace, none

record/replay splits capture from detection: `record` writes the
length-prefixed, checksummed binary trace format (spec in
TRACE_FORMAT.md; ~3-4 bytes/event vs ~11 for text), `replay`
streams it back through any detector without materializing the
trace, `--resample R` overlays fresh sampling periods on the fly,
and `fleet --record-traces` / `fuzz --trace-dir` capture
per-instance and per-program truth traces (deterministic at any
--jobs count).

--metrics-out writes the unified metrics snapshot as JSON;
--trace-out writes the structured event trace as JSONL (see
OBSERVABILITY.md for both schemas).

fleet runs on the crash-resilient engine (RESILIENCE.md):
--fault-plan arms a deterministic fault-injection campaign,
--max-retries bounds per-trial retries (default 1),
--checkpoint journals each completed trial, --resume restores
completed trials from a journal (and keeps checkpointing to it
unless --checkpoint names another path).

--mem-budget / --deadline-events arm the resource governor
(RESILIENCE.md, 'Graceful degradation'): when detector metadata
bytes or executed steps breach a budget at a GC boundary, the
sampling rate steps down a ladder (default: the starting rate
halved per rung; override with --rate-ladder-governor), steps
back up once pressure clears, and cancels the trial cleanly only
when the floor rate still breaches. Exit codes: 0 clean (rate-
degraded trials included), 2 completed with quarantined or
cancelled trials, 1 hard failure.
";

/// Entry point: dispatches on `args` (without the program name), returning
/// the text to print plus the exit code to use.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any failure.
pub fn run(args: &[String]) -> Result<CmdOutput, CliError> {
    let Some(command) = args.first() else {
        return Err(err(USAGE));
    };
    match command.as_str() {
        "run" => cmd_run(&args[1..]).map(CmdOutput::from),
        "record" => cmd_record(&args[1..]).map(CmdOutput::from),
        "replay" => cmd_replay(&args[1..]).map(CmdOutput::from),
        "check" => cmd_check(&args[1..]).map(CmdOutput::from),
        "fmt" => cmd_fmt(&args[1..], false).map(CmdOutput::from),
        "fold" => cmd_fmt(&args[1..], true).map(CmdOutput::from),
        "lint" => cmd_lint(&args[1..]).map(CmdOutput::from),
        "fleet" => cmd_fleet(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "stats" => cmd_stats(&args[1..]).map(CmdOutput::from),
        "fuzz" => cmd_fuzz(&args[1..]).map(CmdOutput::from),
        "--help" | "-h" | "help" => Ok(CmdOutput::from(USAGE.to_string())),
        other => Err(err(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn parse_options(args: &[String]) -> Result<(String, Options), CliError> {
    let (file, opts) = parse_flags(args)?;
    let file = file.ok_or_else(|| err("missing input file"))?;
    Ok((file, opts))
}

fn parse_flags(args: &[String]) -> Result<(Option<String>, Options), CliError> {
    let mut file = None;
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rate" => {
                i += 1;
                let v: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--rate requires a number in [0, 1]"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(err("--rate must be in [0, 1]"));
                }
                opts.rate = v;
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--seed requires an integer"))?;
            }
            "--detector" => {
                i += 1;
                opts.detector = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| err("--detector requires a name"))?;
            }
            "--trace" => {
                i += 1;
                opts.trace_out = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--trace requires a path"))?,
                );
            }
            "--metrics-out" => {
                i += 1;
                opts.metrics_out = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--metrics-out requires a path"))?,
                );
            }
            "--trace-out" => {
                i += 1;
                opts.events_out = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--trace-out requires a path"))?,
                );
            }
            "--instances" => {
                i += 1;
                opts.instances = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err("--instances requires a positive integer"))?;
            }
            "--jobs" => {
                i += 1;
                opts.jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err("--jobs requires a positive integer"))?;
            }
            "--iters" => {
                i += 1;
                opts.iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err("--iters requires a positive integer"))?;
            }
            "--schedule-seeds" => {
                i += 1;
                opts.schedule_seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err("--schedule-seeds requires a positive integer"))?;
            }
            "--rate-ladder" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| err("--rate-ladder requires a comma-separated list"))?;
                let ladder: Vec<f64> = spec
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|r| (0.0..=1.0).contains(r))
                            .ok_or_else(|| {
                                err(format!("--rate-ladder entry `{part}` is not in [0, 1]"))
                            })
                    })
                    .collect::<Result<_, _>>()?;
                if ladder.is_empty() {
                    return Err(err("--rate-ladder requires at least one rate"));
                }
                opts.rate_ladder = Some(ladder);
            }
            "--fault-plan" => {
                i += 1;
                opts.fault_plan = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--fault-plan requires a path"))?,
                );
            }
            "--max-retries" => {
                i += 1;
                opts.max_retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--max-retries requires a non-negative integer"))?;
            }
            "--mem-budget" => {
                i += 1;
                opts.mem_budget = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| err("--mem-budget requires a positive byte count"))?,
                );
            }
            "--deadline-events" => {
                i += 1;
                opts.deadline_events = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| err("--deadline-events requires a positive step count"))?,
                );
            }
            "--rate-ladder-governor" => {
                i += 1;
                opts.governor_ladder = Some(args.get(i).cloned().ok_or_else(|| {
                    err("--rate-ladder-governor requires a comma-separated list")
                })?);
            }
            "--out" => {
                i += 1;
                opts.out = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--out requires a path"))?,
                );
            }
            "--format" => {
                i += 1;
                opts.format = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--format requires `binary` or `text`"))?,
                );
            }
            "--record-traces" => {
                i += 1;
                opts.record_traces = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--record-traces requires a directory"))?,
                );
            }
            "--trace-dir" => {
                i += 1;
                opts.trace_dir = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--trace-dir requires a directory"))?,
                );
            }
            "--resample" => {
                i += 1;
                let v: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--resample requires a rate in [0, 1]"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(err("--resample must be in [0, 1]"));
                }
                opts.resample = Some(v);
            }
            "--resample-period" => {
                i += 1;
                opts.resample_period = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err("--resample-period requires a positive integer"))?;
            }
            "--checkpoint" => {
                i += 1;
                opts.checkpoint = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--checkpoint requires a path"))?,
                );
            }
            "--resume" => {
                i += 1;
                opts.resume = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--resume requires a path"))?,
                );
            }
            "--send" => {
                i += 1;
                opts.send = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--send requires a trace path"))?,
                );
            }
            "--session" => {
                i += 1;
                opts.session = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--session requires a name"))?,
                );
            }
            "--stdin" => {
                i += 1;
                opts.stdin_frames = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--stdin requires a file (or `-`)"))?,
                );
            }
            "--shards" => {
                i += 1;
                opts.shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err("--shards requires a positive integer"))?;
            }
            "--max-sessions" => {
                i += 1;
                opts.max_sessions = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| err("--max-sessions requires a positive integer"))?,
                );
            }
            "--session-deadline-events" => {
                i += 1;
                opts.session_deadline_events = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| {
                            err("--session-deadline-events requires a positive integer")
                        })?,
                );
            }
            "--idle-timeout" => {
                i += 1;
                opts.idle_timeout = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u32| n > 0)
                        .ok_or_else(|| err("--idle-timeout requires a positive tick count"))?,
                );
            }
            "--tcp" => {
                i += 1;
                opts.tcp = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--tcp requires HOST:PORT"))?,
                );
            }
            "--wal" => {
                i += 1;
                opts.wal = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--wal requires a directory"))?,
                );
            }
            "--addr-file" => {
                i += 1;
                opts.addr_file = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| err("--addr-file requires a path"))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(err(format!("unknown flag `{flag}`")));
            }
            path => {
                if file.replace(path.to_string()).is_some() {
                    return Err(err("multiple input files given"));
                }
            }
        }
        i += 1;
    }
    Ok((file, opts))
}

fn load_program(path: &str) -> Result<(pacer_lang::ast::Program, CompiledProgram), CliError> {
    let source =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let ast = pacer_lang::parse(&source).map_err(|e| err(format!("{path}: {e}")))?;
    let compiled = pacer_lang::compile(&ast).map_err(|e| err(format!("{path}: {e}")))?;
    Ok((ast, compiled))
}

fn report_races(out: &mut String, program: &CompiledProgram, races: &[RaceReport]) {
    let mut distinct: Vec<_> = races.iter().map(RaceReport::distinct_key).collect();
    distinct.sort();
    distinct.dedup();
    let _ = writeln!(
        out,
        "\n{} dynamic race report(s), {} distinct:",
        races.len(),
        distinct.len()
    );
    for (a, b) in distinct {
        let (a, b) = (program.describe_site(a), program.describe_site(b));
        let _ = writeln!(out, "  {a}  <->  {b}");
    }
}

fn summarize_run(out: &mut String, outcome: &RunOutcome) {
    let _ = writeln!(
        out,
        "executed {} steps, {} threads ({} max live), {} GCs, result {:?}",
        outcome.steps,
        outcome.threads_started,
        outcome.max_live_threads,
        outcome.gc_count,
        outcome.main_result
    );
    if outcome.elided_accesses > 0 {
        let _ = writeln!(
            out,
            "escape analysis elided {} thread-local accesses",
            outcome.elided_accesses
        );
    }
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    let (file, opts) = parse_options(args)?;
    let (_, compiled) = load_program(&file)?;
    let cfg = VmConfig::new(opts.seed).with_sampling_rate(opts.rate);
    let mut out = String::new();

    // Optionally record the event stream alongside the analysis by
    // re-running with the same seed (identical schedule).
    let vm_err = |e: pacer_runtime::VmError| err(format!("runtime error: {e}"));
    match opts.detector.as_str() {
        "pacer" => {
            let mut d = PacerDetector::new();
            let outcome = Vm::run(&compiled, &mut d, &cfg).map_err(vm_err)?;
            summarize_run(&mut out, &outcome);
            let _ = writeln!(
                out,
                "effective sampling rate: {:.2}%",
                d.stats().effective_rate().unwrap_or(0.0) * 100.0
            );
            report_races(&mut out, &compiled, d.races());
        }
        "fasttrack" => {
            let mut d = FastTrackDetector::new();
            let outcome = Vm::run(&compiled, &mut d, &cfg).map_err(vm_err)?;
            summarize_run(&mut out, &outcome);
            report_races(&mut out, &compiled, d.races());
        }
        "generic" => {
            let mut d = GenericDetector::new();
            let outcome = Vm::run(&compiled, &mut d, &cfg).map_err(vm_err)?;
            summarize_run(&mut out, &outcome);
            report_races(&mut out, &compiled, d.races());
        }
        "literace" => {
            let mut d = LiteRaceDetector::new(LiteRaceConfig::default(), opts.seed);
            let outcome = Vm::run(&compiled, &mut d, &cfg).map_err(vm_err)?;
            summarize_run(&mut out, &outcome);
            let _ = writeln!(
                out,
                "effective sampling rate: {:.2}%",
                d.effective_rate().unwrap_or(0.0) * 100.0
            );
            report_races(&mut out, &compiled, d.races());
        }
        "none" => {
            let mut d = NullDetector;
            let cfg = cfg.clone().with_instrument(InstrumentMode::Off);
            let outcome = Vm::run(&compiled, &mut d, &cfg).map_err(vm_err)?;
            summarize_run(&mut out, &outcome);
        }
        other => return Err(err(format!("unknown detector `{other}`"))),
    }

    if let Some(path) = opts.trace_out {
        let mut rec = RecordingDetector::new();
        Vm::run(&compiled, &mut rec, &cfg).map_err(vm_err)?;
        rec.trace()
            .save(&path)
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "\nevent trace written to {path}");
    }
    Ok(out)
}

/// Trace output encoding for `record` and `fleet --record-traces`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceFormat {
    Binary,
    Text,
}

impl TraceFormat {
    fn extension(self) -> &'static str {
        match self {
            TraceFormat::Binary => "ptrace",
            TraceFormat::Text => "trace",
        }
    }
}

fn trace_format(opts: &Options) -> Result<TraceFormat, CliError> {
    match opts.format.as_deref() {
        None | Some("binary") => Ok(TraceFormat::Binary),
        Some("text") => Ok(TraceFormat::Text),
        Some(other) => Err(err(format!(
            "unknown trace format `{other}` (expected `binary` or `text`)"
        ))),
    }
}

fn cmd_record(args: &[String]) -> Result<String, CliError> {
    let (file, opts) = parse_options(args)?;
    let (_, compiled) = load_program(&file)?;
    let format = trace_format(&opts)?;
    let out_path = opts.out.clone().unwrap_or_else(|| {
        Path::new(&file)
            .with_extension(format.extension())
            .to_string_lossy()
            .into_owned()
    });
    let cfg = VmConfig::new(opts.seed).with_sampling_rate(opts.rate);
    let vm_err = |e: pacer_runtime::VmError| err(format!("runtime error: {e}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} recorded at r = {:.2}%, seed {}",
        file,
        opts.rate * 100.0,
        opts.seed
    );
    match format {
        TraceFormat::Binary => {
            // The recorder encodes frames as the VM runs; the action vector
            // is never materialized.
            let mut rec = pacer_trace::StreamRecorder::new(Vec::new())
                .map_err(|e| err(format!("encoding error: {e}")))?;
            let outcome = Vm::run(&compiled, &mut rec, &cfg).map_err(vm_err)?;
            let (bytes, summary) = rec
                .finish()
                .map_err(|e| err(format!("encoding error: {e}")))?;
            summarize_run(&mut out, &outcome);
            let _ = writeln!(
                out,
                "captured {} events ({} accesses, {} sync ops, {} threads)",
                summary.encode.events,
                summary.stats.accesses(),
                summary.stats.sync_ops(),
                summary.thread_count
            );
            let _ = writeln!(
                out,
                "{} frame(s), {} bytes ({:.2} bytes/event)",
                summary.encode.frames,
                summary.encode.bytes,
                summary.encode.bytes_per_event()
            );
            pacer_collections::atomic_write(&out_path, &bytes)
                .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
            let _ = writeln!(out, "binary trace written to {out_path}");
        }
        TraceFormat::Text => {
            let mut rec = RecordingDetector::new();
            let outcome = Vm::run(&compiled, &mut rec, &cfg).map_err(vm_err)?;
            summarize_run(&mut out, &outcome);
            let stats = rec.trace().stats();
            let _ = writeln!(
                out,
                "captured {} events ({} accesses, {} sync ops, {} threads)",
                rec.trace().len(),
                stats.accesses(),
                stats.sync_ops(),
                rec.trace().thread_count()
            );
            rec.trace()
                .save(&out_path)
                .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
            let _ = writeln!(out, "text trace written to {out_path}");
        }
    }
    Ok(out)
}

/// Everything one replay pass produces, independent of input encoding.
struct ReplayOutcome {
    stats: pacer_trace::ActionStats,
    threads: usize,
    dynamic_races: u64,
    distinct_races: Vec<(pacer_trace::SiteId, pacer_trace::SiteId)>,
    metrics_json: Option<String>,
}

/// Replays `reader`'s trace through `det` a run of events at a time,
/// never materializing it: each event of a run goes through the
/// `--resample` overlay when one is set, then the §A check with its
/// counters, then the detector (observed when `--metrics-out` is set).
/// These are the push-mode cores the `pacer serve` ingest uses.
///
/// An invalid event ends the replay at once, so it wins over any later
/// stream error. A hard stream error ends the runs, and is reported once
/// the overlay has closed its open period; a trace cut mid-frame is the
/// documented clean partial stop (TRACE_FORMAT.md).
fn drive_replay<D, R>(
    det: D,
    reader: &mut pacer_trace::AnyTraceReader<R>,
    opts: &Options,
    file: &str,
) -> Result<ReplayOutcome, CliError>
where
    D: pacer_obs::ObservableDetector,
    R: std::io::Read,
{
    let want_metrics = opts.metrics_out.is_some();
    let registry = if want_metrics {
        pacer_obs::Registry::enabled(pacer_obs::RegistryConfig::default())
    } else {
        pacer_obs::Registry::disabled()
    };
    let mut obs = pacer_obs::Observed::new(det, registry);
    let mut check = pacer_trace::stream::ActionCheck::new();
    let mut overlay = opts
        .resample
        .map(|rate| pacer_trace::gen::Resampler::new(rate, opts.resample_period, opts.seed));
    let mut apply = |action: pacer_trace::Action| match check.check(&action) {
        Ok(()) => {
            obs.on_action(&action);
            Ok(())
        }
        Err(e) => Err(err(format!("{file}: invalid trace: {e}"))),
    };
    let ended = loop {
        let run = match reader.next_batch() {
            Ok([]) => break Ok(()),
            Ok(run) => run,
            Err(e) => break Err(e),
        };
        match &mut overlay {
            None => run.iter().try_for_each(|&action| apply(action))?,
            Some(overlay) => run
                .iter()
                .flat_map(|&action| overlay.push(action).into_iter().flatten())
                .try_for_each(&mut apply)?,
        }
    };
    if let Some(end) = overlay
        .as_mut()
        .and_then(pacer_trace::gen::Resampler::finish)
    {
        apply(end)?;
    }
    ended.map_err(|e| err(format!("{file}: {e}")))?;
    let (det, registry) = obs.finish();
    Ok(ReplayOutcome {
        stats: *check.stats(),
        threads: check.threads(),
        dynamic_races: det.races().len() as u64,
        distinct_races: det.distinct_races(),
        metrics_json: want_metrics.then(|| registry.metrics().to_json()),
    })
}

fn cmd_replay(args: &[String]) -> Result<String, CliError> {
    let (file, opts) = parse_options(args)?;

    // The shared sniff-and-decode entry point (`pacer serve` ingests
    // through the same one): binary traces stream frame by frame, text
    // traces parse in memory.
    let f = std::fs::File::open(&file).map_err(|e| err(format!("cannot load {file}: {e}")))?;
    let mut reader = pacer_trace::AnyTraceReader::new(std::io::BufReader::new(f)).map_err(|e| {
        if e.is_binary() {
            err(format!("{file}: {e}"))
        } else {
            err(format!("cannot load {file}: {e}"))
        }
    })?;
    let outcome = match opts.detector.as_str() {
        "pacer" => drive_replay(PacerDetector::new(), &mut reader, &opts, &file),
        "fasttrack" => drive_replay(FastTrackDetector::new(), &mut reader, &opts, &file),
        "generic" => drive_replay(GenericDetector::new(), &mut reader, &opts, &file),
        "literace" => drive_replay(
            LiteRaceDetector::new(LiteRaceConfig::default(), opts.seed),
            &mut reader,
            &opts,
            &file,
        ),
        other => Err(err(format!("unknown detector `{other}`"))),
    }?;
    let resample = opts.resample.map(|rate| pacer_harness::render::Resample {
        rate,
        period: opts.resample_period,
        seed: opts.seed,
    });
    let mut out = pacer_harness::render::replay_report(
        &outcome.stats,
        outcome.threads,
        reader.truncation_note().as_deref(),
        resample,
        outcome.dynamic_races,
        &outcome.distinct_races,
    );
    if let Some(path) = &opts.metrics_out {
        let json = outcome.metrics_json.unwrap_or_default();
        write_artifact(&mut out, path, &json, "metrics")?;
    }
    Ok(out)
}

/// Builds the service configuration shared by every `serve` mode.
///
/// `--resume JOURNAL` restores completed sessions from the journal and
/// keeps checkpointing to it (same contract as `fleet`); `--checkpoint`
/// alone starts a fresh journal.
fn serve_config(opts: &Options) -> Result<pacer_harness::ServeConfig, CliError> {
    let detector = pacer_harness::ServeDetectorKind::parse(&opts.detector).map_err(err)?;
    let mut cfg = pacer_harness::ServeConfig::new(detector);
    cfg.shards = opts.shards;
    cfg.seed = opts.seed;
    cfg.resample_period = opts.resample_period;
    cfg.mem_budget = opts.mem_budget;
    cfg.resume = opts.resume.is_some();
    cfg.checkpoint = opts
        .resume
        .as_ref()
        .or(opts.checkpoint.as_ref())
        .map(std::path::PathBuf::from);
    cfg.deadline_events = opts.session_deadline_events;
    cfg.idle_timeout_ticks = opts.idle_timeout;
    cfg.wal = opts.wal.as_ref().map(std::path::PathBuf::from);
    cfg.fault_plan = load_fault_plan(opts)?;
    Ok(cfg)
}

/// Reads and parses the `--fault-plan FILE`, if one was given.
fn load_fault_plan(opts: &Options) -> Result<Option<FaultPlan>, CliError> {
    let Some(path) = &opts.fault_plan else {
        return Ok(None);
    };
    let spec = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read fault plan {path}: {e}")))?;
    FaultPlan::parse(&spec)
        .map(Some)
        .map_err(|e| err(format!("{path}: {e}")))
}

/// The framed-input session header (SERVICE.md): `SESSION <name> <len>`,
/// followed by exactly `len` body bytes.
fn parse_session_header(line: &str) -> Option<(String, u64)> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("SESSION") {
        return None;
    }
    let name = parts.next()?.to_string();
    let len = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some((name, len))
}

/// The durable-session handshakes the TCP transport speaks (SERVICE.md):
/// `SESSION <name>` starts a fresh durable session; `RESUME <name>
/// <offset>` reattaches after a disconnect, where `offset` is the
/// client's last acked frame offset (advisory — the server's `ACK`
/// reply is authoritative).
enum DurableHeader {
    Session(String),
    Resume(String, u64),
}

fn parse_durable_header(line: &str) -> Option<DurableHeader> {
    let mut parts = line.split_whitespace();
    match parts.next()? {
        "SESSION" => {
            let name = parts.next()?.to_string();
            parts
                .next()
                .is_none()
                .then_some(DurableHeader::Session(name))
        }
        "RESUME" => {
            let name = parts.next()?.to_string();
            let offset = parts.next()?.parse().ok()?;
            parts
                .next()
                .is_none()
                .then_some(DurableHeader::Resume(name, offset))
        }
        _ => None,
    }
}

/// The longest protocol line either side reads, newline included: every
/// line of the SERVICE.md grammar fits with room to spare, and a peer
/// that never sends a newline cannot grow the reader's heap past it.
const MAX_LINE_BYTES: usize = 4096;

/// Reads one `\n`-terminated protocol line of at most [`MAX_LINE_BYTES`],
/// tolerating `Interrupted` and short reads (partial lines accumulate
/// across calls). Each read timeout (`WouldBlock`/`TimedOut`) consumes
/// one tick from `budget`; running out surfaces a typed `TimedOut` note.
/// A clean EOF before any byte returns `Ok(0)`; EOF mid-line is an
/// `UnexpectedEof` with the byte count, not a generic IO error; a line
/// past the cap is `InvalidData` naming the cap.
fn read_protocol_line(
    reader: &mut impl std::io::BufRead,
    line: &mut String,
    budget: u32,
) -> std::io::Result<usize> {
    use std::io::{BufRead as _, Read as _};
    let mut ticks = 0u32;
    loop {
        let room = MAX_LINE_BYTES.saturating_sub(line.len()) as u64;
        match reader.by_ref().take(room).read_line(line) {
            Ok(_) if line.ends_with('\n') => return Ok(line.len()),
            Ok(_) if line.len() >= MAX_LINE_BYTES => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("protocol line exceeds {MAX_LINE_BYTES} bytes"),
                ));
            }
            Ok(0) if line.is_empty() => return Ok(0),
            Ok(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("connection closed mid-line after {} byte(s)", line.len()),
                ));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                ticks += 1;
                if ticks >= budget {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("no complete line within {budget} idle tick(s)"),
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// How far a declared body's buffer may run ahead of the bytes delivered.
const BODY_READ_STEP: usize = 64 << 10;

/// Reads the `len`-byte body a header declared, tolerating `Interrupted`
/// and short reads. The buffer grows with the bytes delivered, at most
/// [`BODY_READ_STEP`] ahead, never with the declared length. Each read
/// timeout (`WouldBlock`/`TimedOut`) ticks against `budget` (`u32::MAX`
/// where none applies); any delivered byte resets the count. Failures
/// name `what` and the byte position.
fn read_declared_body(
    reader: &mut impl std::io::Read,
    len: u64,
    budget: u32,
    what: &str,
) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    let mut filled = 0usize;
    let mut ticks = 0u32;
    while (filled as u64) < len {
        if filled == body.len() {
            let step = (len - filled as u64).min(BODY_READ_STEP as u64) as usize;
            body.resize(filled + step, 0);
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("{what}: short read: {filled} of {len} byte(s), then EOF"),
                ));
            }
            Ok(n) => {
                filled += n;
                ticks = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                ticks += 1;
                if ticks >= budget {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!(
                            "{what}: stalled at {filled} of {len} byte(s) for {budget} idle tick(s)"
                        ),
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(body)
}

/// Serves length-framed sessions from one sequential byte stream.
fn serve_frames(
    handle: &pacer_harness::ServiceHandle<'_>,
    mut input: impl std::io::BufRead,
) -> Result<(), pacer_harness::ServeError> {
    loop {
        // Graceful drain: stop admitting between frames; the frame in
        // flight (below) always completes and checkpoints first.
        if signal::drain_requested() {
            return Ok(());
        }
        let mut header = String::new();
        if read_protocol_line(&mut input, &mut header, u32::MAX)? == 0 {
            return Ok(());
        }
        if header.trim().is_empty() {
            continue;
        }
        let Some((name, len)) = parse_session_header(&header) else {
            // Without a byte count there is no way to find the next
            // frame, so framed input cannot resync past a bad header.
            return Err(pacer_harness::ServeError::Config(format!(
                "malformed session frame (expected `SESSION <name> <len>`): {}",
                header.trim_end()
            )));
        };
        let what = format!("session `{name}` body");
        let body = read_declared_body(&mut input, len, u32::MAX, &what)?;
        handle.serve(&name, &body[..]);
    }
}

/// Handshake ticks a TCP connection may idle before the header when no
/// `--idle-timeout` is armed (reads tick every second, so ~30 s). A
/// connected-but-silent client is dropped here instead of pinning a
/// handler slot forever.
const TCP_HANDSHAKE_TICKS: u32 = 30;

/// Serves one accepted TCP connection speaking the durable-session
/// grammar (SERVICE.md): `SESSION`/`RESUME` handshake, lock-step
/// `FRAME <offset> <len>` + `ACK <applied>` exchanges, `END <total>`,
/// then `REPORT <len>` + body. Every early exit leases the slot back to
/// the engine (`durable_detach`) so a reconnecting client can `RESUME`.
///
/// Three chaos sites live here: `conn-reset` (hang up after N accepted
/// frames on a targeted connection), `sock-stall` (timing-only spins
/// before the handshake), and `torn-ack` (write a partial ack, then
/// hang up — the client holds a stale offset and must re-sync).
fn serve_tcp_connection(
    handle: &pacer_harness::ServiceHandle<'_>,
    conn: std::net::TcpStream,
    idle_timeout: Option<u32>,
    plan: Option<&FaultPlan>,
    conn_index: u64,
    ack_index: &std::sync::atomic::AtomicU64,
) {
    use pacer_harness::{DurableFrameError, DurableOpen, FrameAck};
    use std::io::Write as _;
    use std::sync::atomic::Ordering;

    handle.note_transport(|t| t.connections += 1);
    let _ = conn.set_nodelay(true);
    // Reads always tick so both the handshake budget and mid-frame
    // stall detection work without a watchdog thread. This also replaces
    // the accept wait the socket inherits from its listener.
    let _ = conn.set_read_timeout(Some(std::time::Duration::from_secs(1)));
    let budget = idle_timeout.unwrap_or(TCP_HANDSHAKE_TICKS);

    if let Some(spins) = plan.and_then(|p| p.sock_stall_spins(conn_index)) {
        // Timing-only perturbation: a slow peer must never change
        // results, only latency.
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }

    let Ok(mut writer) = conn.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(conn);

    let send_ack = |writer: &mut std::net::TcpStream, applied: u64| -> std::io::Result<()> {
        let line = format!("ACK {applied}\n");
        if plan.is_some_and(|p| p.torn_ack_fires(ack_index.fetch_add(1, Ordering::Relaxed))) {
            let _ = writer.write_all(&line.as_bytes()[..2]);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected: torn ack",
            ));
        }
        writer.write_all(line.as_bytes())?;
        handle.note_transport(|t| t.acks_sent += 1);
        Ok(())
    };
    let send_report = |writer: &mut std::net::TcpStream, body: &str| {
        let _ = writer
            .write_all(format!("REPORT {}\n", body.len()).as_bytes())
            .and_then(|()| writer.write_all(body.as_bytes()));
    };

    let mut header = String::new();
    match read_protocol_line(&mut reader, &mut header, budget) {
        Ok(0) => return, // clean probe disconnect, nothing to report
        Ok(_) => {}
        Err(e) => {
            let _ = writer.write_all(format!("error: session header: {e}\n").as_bytes());
            return;
        }
    }
    let Some(parsed) = parse_durable_header(&header) else {
        let _ = writer.write_all(
            b"error: malformed handshake (expected `SESSION <name>` or `RESUME <name> <offset>`)\n",
        );
        return;
    };
    // The RESUME offset is advisory; the `ACK` reply carries the
    // server's durably-applied watermark, which is authoritative.
    let (name, resume_offset) = match parsed {
        DurableHeader::Session(name) => (name, None),
        DurableHeader::Resume(name, offset) => (name, Some(offset)),
    };
    let (epoch, applied) = match handle.durable_open(&name, resume_offset.is_some()) {
        DurableOpen::Started { epoch } => (epoch, 0),
        DurableOpen::Resumed { epoch, applied } => {
            if let Some(claimed) = resume_offset.filter(|&o| o > applied) {
                // The client claims acks that were never durable: a
                // protocol corruption no retransmit can repair.
                let _ = writer.write_all(
                    format!(
                        "error: resume offset {claimed} is ahead of the durable watermark {applied}\n"
                    )
                    .as_bytes(),
                );
                handle.durable_detach(&name, epoch);
                return;
            }
            (epoch, applied)
        }
        DurableOpen::Completed(report) => {
            // Reconnect after END landed but the report reply was lost:
            // re-serve the stored report.
            send_report(&mut writer, &report.body);
            return;
        }
        DurableOpen::Rejected(message) => {
            let _ = writer.write_all(format!("error: {message}\n").as_bytes());
            return;
        }
    };
    if send_ack(&mut writer, applied).is_err() {
        handle.durable_detach(&name, epoch);
        return;
    }

    let reset_after = plan.and_then(|p| p.conn_reset_after_frames(conn_index));
    let mut accepted_frames = 0u64;
    loop {
        let mut line = String::new();
        match read_protocol_line(&mut reader, &mut line, budget) {
            Ok(0) => break, // client went away; lease the slot for a RESUME
            Ok(_) => {}
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    let _ = writer.write_all(format!("error: {e}\n").as_bytes());
                }
                break;
            }
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("FRAME") => {
                let offset: Option<u64> = parts.next().and_then(|s| s.parse().ok());
                let len: Option<usize> = parts.next().and_then(|s| s.parse().ok());
                let (Some(offset), Some(len), None) = (offset, len, parts.next()) else {
                    let _ = writer.write_all(
                        b"error: malformed frame header (expected `FRAME <offset> <len>`)\n",
                    );
                    break;
                };
                if len
                    > pacer_trace::binary::MAX_FRAME_BYTES as usize
                        + pacer_trace::binary::FRAME_OVERHEAD
                {
                    let _ = writer.write_all(
                        format!("error: frame of {len} byte(s) exceeds the frame size cap\n")
                            .as_bytes(),
                    );
                    break;
                }
                let Ok(frame) = read_declared_body(&mut reader, len as u64, budget, "frame body")
                else {
                    break;
                };
                match handle.durable_frame(&name, epoch, offset, &frame) {
                    Ok(ack) => {
                        if matches!(ack, FrameAck::Applied { .. }) {
                            accepted_frames += 1;
                        }
                        if send_ack(&mut writer, ack.applied()).is_err() {
                            break;
                        }
                        if reset_after.is_some_and(|n| accepted_frames >= n) {
                            // Injected conn-reset: hang up mid-session;
                            // the session survives on its lease.
                            break;
                        }
                    }
                    Err(DurableFrameError::Failed(report)) => {
                        // Slot already retired; the body is the error.
                        let _ = writer.write_all(report.body.as_bytes());
                        return;
                    }
                    Err(DurableFrameError::Detached) => return,
                }
            }
            Some("END") => {
                let total: Option<u64> = parts.next().and_then(|s| s.parse().ok());
                let (Some(total), None) = (total, parts.next()) else {
                    let _ = writer.write_all(b"error: malformed end (expected `END <total>`)\n");
                    break;
                };
                match handle.durable_close(&name, epoch, total) {
                    Ok(report) => {
                        send_report(&mut writer, &report.body);
                        return;
                    }
                    Err(DurableFrameError::Failed(report)) => {
                        let _ = writer.write_all(report.body.as_bytes());
                        return;
                    }
                    Err(DurableFrameError::Detached) => return,
                }
            }
            _ => {
                let _ = writer.write_all(
                    format!("error: unexpected command: {}\n", line.trim_end()).as_bytes(),
                );
                break;
            }
        }
    }
    handle.durable_detach(&name, epoch);
}

/// Consecutive reconnects without ack progress that `--send` makes
/// before giving up. With the shared `artifact_io_backoff` schedule (in
/// 10 ms units) the worst case waits roughly 1.3 s — enough for a daemon
/// started a moment earlier to bind, without masking a genuinely absent
/// service.
const SEND_CONNECT_RETRIES: u32 = 6;

/// How one TCP send attempt ended short of a final reply.
enum SendFailure {
    /// Protocol violation — retrying cannot help.
    Fatal(String),
    /// The connection died (or was never made); reconnect and `RESUME`.
    Io(std::io::Error),
}

/// One server reply on the durable-session wire.
enum Reply {
    /// `ACK <applied>` — the server's durably-applied watermark.
    Ack(u64),
    /// A final response: a `REPORT` body or a single `error:` line.
    Final(String),
}

fn read_reply(reader: &mut impl std::io::BufRead) -> Result<Reply, SendFailure> {
    let mut line = String::new();
    match read_protocol_line(reader, &mut line, u32::MAX) {
        Ok(0) => Err(SendFailure::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ))),
        Err(e) => Err(SendFailure::Io(e)),
        Ok(_) => {
            if let Some(rest) = line.strip_prefix("ACK ") {
                rest.trim()
                    .parse()
                    .map(Reply::Ack)
                    .map_err(|_| SendFailure::Fatal(format!("malformed ack: {}", line.trim_end())))
            } else if let Some(rest) = line.strip_prefix("REPORT ") {
                let len: u64 = rest.trim().parse().map_err(|_| {
                    SendFailure::Fatal(format!("malformed report header: {}", line.trim_end()))
                })?;
                let body = read_declared_body(reader, len, u32::MAX, "report body")
                    .map_err(SendFailure::Io)?;
                String::from_utf8(body)
                    .map(Reply::Final)
                    .map_err(|_| SendFailure::Fatal("report body is not UTF-8".into()))
            } else if line.starts_with("error:") {
                Ok(Reply::Final(line))
            } else {
                Err(SendFailure::Fatal(format!(
                    "unexpected reply: {}",
                    line.trim_end()
                )))
            }
        }
    }
}

/// The handshake a `--send` client opens its next connection with.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Handshake {
    /// `SESSION <name>`: the daemon has not seen the name from us.
    Fresh,
    /// `RESUME <name> 0` after a `SESSION` whose `ACK` never arrived: the
    /// daemon may hold the session, and if it does not, its `unknown
    /// session` reply sends the client back to `Fresh`.
    Probe,
    /// `RESUME <name> <next>`: the daemon acked the session.
    Resume,
}

/// One connection's worth of the durable-session client: handshake,
/// lock-step frame/ack exchange from the server's watermark, `END`,
/// final report. Updates `next` with every ack so a reconnect resumes
/// exactly where durability left off. Returns the final reply text.
#[allow(clippy::too_many_arguments)]
fn tcp_send_attempt(
    addr: &str,
    name: &str,
    handshake: &mut Handshake,
    next: &mut u64,
    frames: &[&[u8]],
    plan: Option<&FaultPlan>,
    sends: &mut u64,
) -> Result<String, SendFailure> {
    use std::io::Write as _;

    let conn = std::net::TcpStream::connect(addr).map_err(SendFailure::Io)?;
    let _ = conn.set_nodelay(true);
    let mut writer = conn.try_clone().map_err(SendFailure::Io)?;
    let mut reader = std::io::BufReader::new(conn);

    let line = match *handshake {
        Handshake::Fresh => {
            // From here on the daemon may admit the session, so a lost
            // `ACK` must not be answered with a second `SESSION`.
            *handshake = Handshake::Probe;
            format!("SESSION {name}\n")
        }
        Handshake::Probe | Handshake::Resume => format!("RESUME {name} {next}\n"),
    };
    writer.write_all(line.as_bytes()).map_err(SendFailure::Io)?;
    match read_reply(&mut reader)? {
        Reply::Ack(applied) => {
            *handshake = Handshake::Resume;
            *next = applied;
        }
        Reply::Final(text) => return Ok(text),
    }

    fn send_frame(
        writer: &mut std::net::TcpStream,
        sends: &mut u64,
        offset: u64,
        frame: &[u8],
    ) -> Result<(), SendFailure> {
        use std::io::Write as _;
        *sends += 1;
        writer
            .write_all(format!("FRAME {offset} {}\n", frame.len()).as_bytes())
            .and_then(|()| writer.write_all(frame))
            .map_err(SendFailure::Io)
    }

    while (*next as usize) < frames.len() {
        let offset = *next;
        if offset > 0 && plan.is_some_and(|p| p.dup_frame_fires(*sends)) {
            // Injected duplicated retransmit: re-send the previous
            // frame; the server dedups it by offset and re-acks.
            send_frame(
                &mut writer,
                sends,
                offset - 1,
                frames[(offset - 1) as usize],
            )?;
            match read_reply(&mut reader)? {
                Reply::Ack(applied) => *next = applied,
                Reply::Final(text) => return Ok(text),
            }
        }
        send_frame(&mut writer, sends, offset, frames[offset as usize])?;
        match read_reply(&mut reader)? {
            Reply::Ack(applied) => *next = applied,
            Reply::Final(text) => return Ok(text),
        }
    }

    writer
        .write_all(format!("END {}\n", frames.len()).as_bytes())
        .map_err(SendFailure::Io)?;
    match read_reply(&mut reader)? {
        Reply::Final(text) => Ok(text),
        Reply::Ack(applied) => Err(SendFailure::Fatal(format!(
            "expected the final report, got `ACK {applied}`"
        ))),
    }
}

/// `pacer serve --send --tcp`: stream one recorded binary trace to a
/// durable TCP daemon, frame by frame in lock-step with its acks, and
/// print the final report verbatim (so it diffs cleanly against `pacer
/// replay`). A refused or dropped connection triggers deterministic
/// backoff-and-`RESUME` from the last acked offset; the attempt is
/// abandoned only after `SEND_CONNECT_RETRIES` consecutive reconnects
/// with no ack progress.
fn serve_send(opts: &Options) -> Result<CmdOutput, CliError> {
    let trace = opts.send.as_deref().expect("checked by caller");
    let addr = opts
        .tcp
        .as_deref()
        .ok_or_else(|| err("--send requires --tcp HOST:PORT"))?;
    let name = opts.session.clone().unwrap_or_else(|| {
        Path::new(trace)
            .file_stem()
            .map_or_else(|| trace.to_string(), |s| s.to_string_lossy().into_owned())
    });
    let bytes = std::fs::read(trace).map_err(|e| err(format!("cannot load {trace}: {e}")))?;
    let split = pacer_trace::binary::split_frames(&bytes)
        .map_err(|e| err(format!("{trace}: not a streamable binary trace: {e}")))?;
    if split.truncated {
        return Err(err(format!(
            "{trace}: trace is truncated mid-frame; re-record it before streaming"
        )));
    }
    let frames: Vec<&[u8]> = split
        .frames
        .iter()
        .map(|f| &bytes[f.start..f.end])
        .collect();
    let plan = load_fault_plan(opts)?;

    let mut handshake = Handshake::Fresh;
    let mut next = 0u64;
    let mut sends = 0u64;
    let mut stalls = 0u32;
    loop {
        let acked_at_start = next;
        let sent = handshake;
        match tcp_send_attempt(
            addr,
            &name,
            &mut handshake,
            &mut next,
            &frames,
            plan.as_ref(),
            &mut sends,
        ) {
            Ok(reply) => {
                if sent == Handshake::Probe && reply.starts_with("error: unknown session") {
                    // The `SESSION` whose ack was lost never reached the
                    // daemon: start afresh.
                    handshake = Handshake::Fresh;
                    continue;
                }
                let code = if reply.starts_with("error: ") { 2 } else { 0 };
                return Ok(CmdOutput { text: reply, code });
            }
            Err(SendFailure::Fatal(message)) => {
                return Err(err(format!("{addr}: {message}")));
            }
            Err(SendFailure::Io(e)) => {
                if next > acked_at_start {
                    stalls = 0;
                } else {
                    stalls += 1;
                    if stalls > SEND_CONNECT_RETRIES {
                        return Err(err(format!(
                            "session `{name}`: no ack progress after {SEND_CONNECT_RETRIES} reconnect attempt(s): {e}"
                        )));
                    }
                }
                let ticks = pacer_harness::artifact_io_backoff(0, stalls.max(1));
                std::thread::sleep(std::time::Duration::from_millis(u64::from(ticks) * 10));
            }
        }
    }
}

/// The longest one `accept` blocks before the daemon loop rechecks the
/// drain flag and the lease clock.
const ACCEPT_WAIT: std::time::Duration = std::time::Duration::from_millis(20);

/// Wall time per durable lease tick: `--idle-timeout N` reaps a
/// detached durable session after N of them.
const LEASE_TICK: std::time::Duration = std::time::Duration::from_secs(1);

/// Caps each blocking `accept` on `listener` at [`ACCEPT_WAIT`]. Linux's
/// `accept(2)` honours the listener's `SO_RCVTIMEO` (socket(7)) and fails
/// with `WouldBlock` when it expires. std sets that socket-level option
/// only through a stream handle, so the descriptor passes through one
/// and back.
fn bound_accept(listener: std::net::TcpListener) -> std::io::Result<std::net::TcpListener> {
    let carrier = std::net::TcpStream::from(std::os::fd::OwnedFd::from(listener));
    carrier.set_read_timeout(Some(ACCEPT_WAIT))?;
    Ok(std::os::fd::OwnedFd::from(carrier).into())
}

/// The daemon's accept loop, generic over the connection type so a test
/// can drive it with a scripted `accept`. `accept` blocks until a
/// connection arrives or [`ACCEPT_WAIT`] passes (see [`bound_accept`]),
/// so the loop wakes on each connection and rechecks the drain flag at
/// least that often; a failed accept (out of descriptors, say) waits the
/// same time and is retried. Each accepted connection runs
/// `serve(handle, conn, accept_index)` on its own scoped thread.
/// `--max-sessions` bounds the loop so scripted runs (CI) terminate and
/// print the merged transcript; on the first SIGINT/SIGTERM (`cmd_serve`
/// arms the handler) admission stops and in-flight handlers finish
/// inside the scope. The loop also runs the durable lease clock, one
/// `durable_tick` per [`LEASE_TICK`] of wall time whether or not
/// connections arrive; on exit every leftover durable slot is reaped
/// with its WAL segment retained, so a restarted daemon pointed at the
/// same `--wal` directory can still honor a `RESUME`. Both are no-ops
/// without durable slots.
fn serve_daemon<C: Send>(
    cfg: &pacer_harness::ServeConfig,
    max_sessions: Option<u64>,
    accept: impl Fn() -> std::io::Result<C>,
    serve: impl Fn(&pacer_harness::ServiceHandle<'_>, C, u64) + Sync,
) -> Result<pacer_harness::ServeOutput, CliError> {
    let result = pacer_harness::run_service(cfg, |handle| {
        let serve = &serve;
        std::thread::scope(|scope| {
            let mut accepted = 0u64;
            let mut last_tick = std::time::Instant::now();
            while max_sessions.is_none_or(|max| accepted < max) {
                if signal::drain_requested() {
                    break;
                }
                if last_tick.elapsed() >= LEASE_TICK {
                    last_tick = std::time::Instant::now();
                    handle.durable_tick();
                }
                match accept() {
                    Ok(conn) => {
                        let index = accepted;
                        accepted += 1;
                        // A panicking handler loses only its own
                        // connection; the accept loop and every other
                        // session carry on.
                        scope.spawn(move || {
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                serve(handle, conn, index);
                            }));
                        });
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                        ) => {}
                    // An erroring accept returns at once: wait instead of
                    // spinning, so in-flight handlers can finish and free
                    // their descriptors.
                    Err(_) => std::thread::sleep(ACCEPT_WAIT),
                }
            }
        });
        // Every handler has exited: reap leftover durable slots into
        // the ledger, retaining their WAL segments for a restart.
        handle.durable_reap_remaining();
        Ok(())
    });
    let (output, ()) = result.map_err(|e| err(format!("serve: {e}")))?;
    Ok(output)
}

/// The TCP daemon: durable-session handlers behind the shared accept
/// loop; `conn-reset` targets connections by their accept index.
fn serve_tcp_daemon(
    cfg: &pacer_harness::ServeConfig,
    opts: &Options,
    addr: &str,
) -> Result<pacer_harness::ServeOutput, CliError> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| err(format!("cannot bind {addr}: {e}")))?;
    let listener =
        bound_accept(listener).map_err(|e| err(format!("cannot bound accepts on {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| err(format!("cannot resolve {addr}: {e}")))?;
    if let Some(path) = &opts.addr_file {
        // `--tcp 127.0.0.1:0` binds an ephemeral port; scripts read the
        // actual address from here.
        std::fs::write(path, format!("{local}\n"))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    let ack_index = std::sync::atomic::AtomicU64::new(0);
    serve_daemon(
        cfg,
        opts.max_sessions,
        || listener.accept().map(|(conn, _)| conn),
        |handle, conn, index| {
            let plan = cfg.fault_plan.as_ref();
            serve_tcp_connection(handle, conn, opts.idle_timeout, plan, index, &ack_index);
        },
    )
}

fn cmd_serve(args: &[String]) -> Result<CmdOutput, CliError> {
    let (file, opts) = parse_flags(args)?;
    if let Some(extra) = file {
        return Err(err(format!(
            "serve takes no positional argument (got `{extra}`); traces arrive over --tcp or --stdin"
        )));
    }
    if opts.tcp.is_none() || opts.send.is_some() {
        let daemon_only = [
            ("--wal", opts.wal.is_some()),
            ("--addr-file", opts.addr_file.is_some()),
            ("--max-sessions", opts.max_sessions.is_some()),
            ("--idle-timeout", opts.idle_timeout.is_some()),
        ];
        if let Some((flag, _)) = daemon_only.into_iter().find(|&(_, set)| set) {
            return Err(err(format!(
                "{flag} applies only to the TCP daemon (--tcp HOST:PORT without --send)"
            )));
        }
    }
    if opts.send.is_some() {
        return serve_send(&opts);
    }
    let cfg = serve_config(&opts)?;
    // Armed before any transport binds, so a SIGTERM sent as soon as the
    // daemon is reachable drains it rather than killing it.
    signal::arm_drain();
    let output = match (&opts.tcp, &opts.stdin_frames) {
        (Some(addr), None) => serve_tcp_daemon(&cfg, &opts, addr)?,
        (None, Some(frames)) => {
            let result = pacer_harness::run_service(&cfg, |handle| {
                if frames == "-" {
                    serve_frames(handle, std::io::stdin().lock())
                } else {
                    let f = std::fs::File::open(frames).map_err(|e| {
                        pacer_harness::ServeError::Config(format!("cannot open {frames}: {e}"))
                    })?;
                    serve_frames(handle, std::io::BufReader::new(f))
                }
            });
            result.map_err(|e| err(format!("serve: {e}")))?.0
        }
        (None, None) => {
            return Err(err(
                "serve needs a transport: --tcp HOST:PORT (daemon) or --stdin FILE|- (framed)",
            ));
        }
        (Some(_), Some(_)) => return Err(err("--tcp and --stdin are mutually exclusive")),
    };
    finish_serve(&opts, &output)
}

/// Shared serve epilogue: merged transcript, optional metrics artifact,
/// exit code 2 when any session errored.
fn finish_serve(
    opts: &Options,
    output: &pacer_harness::ServeOutput,
) -> Result<CmdOutput, CliError> {
    let mut out = output.transcript.clone();
    if let Some(path) = &opts.metrics_out {
        let json = pacer_obs::serve_metrics_json(
            &output.shard_counters,
            &output.sessions,
            &output.transport,
        );
        write_artifact(&mut out, path, &json, "serve metrics")?;
    }
    let code = if output.any_errors() { 2 } else { 0 };
    Ok(CmdOutput { text: out, code })
}

fn cmd_check(args: &[String]) -> Result<String, CliError> {
    let (file, _) = parse_options(args)?;
    let (ast, compiled) = load_program(&file)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{file}: {} function(s), {} shared slot(s), {} lock(s), {} volatile(s)",
        compiled.functions.len(),
        compiled.globals,
        compiled.locks,
        compiled.volatiles
    );
    let _ = writeln!(
        out,
        "{} instrumented site(s)",
        compiled.instrumented_sites()
    );
    for f in &ast.functions {
        let info = pacer_lang::escape::analyze(f);
        let locals = info.provably_local_locals();
        if !locals.is_empty() {
            let _ = writeln!(
                out,
                "  fn {}: thread-local (uninstrumented): {}",
                f.name,
                locals.join(", ")
            );
        }
    }
    Ok(out)
}

fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    let (file, _) = parse_options(args)?;
    let source =
        std::fs::read_to_string(&file).map_err(|e| err(format!("cannot read {file}: {e}")))?;
    let ast = pacer_lang::parse(&source).map_err(|e| err(format!("{file}: {e}")))?;
    let report = pacer_lang::lockset::lockset_lint(&ast);
    let mut out = String::new();
    for w in &report.warnings {
        out.push_str(&w.render());
    }
    let _ = writeln!(
        out,
        "{}: {} shared variable(s) checked, {} warning(s)",
        file,
        report.checked_vars,
        report.warnings.len()
    );
    if !report.warnings.is_empty() {
        let _ = writeln!(
            out,
            "note: lockset is a heuristic — volatile/fork-join protocols are
             safe but still flagged; confirm with `pacer run --detector fasttrack`"
        );
    }
    Ok(out)
}

/// Default event-ring capacity for observed CLI runs.
const RING_CAPACITY: usize = 65_536;

fn detector_kind(name: &str, rate: f64) -> Result<pacer_harness::DetectorKind, CliError> {
    use pacer_harness::DetectorKind as K;
    Ok(match name {
        "pacer" => K::Pacer { rate },
        "fasttrack" => K::FastTrack,
        "generic" => K::Generic,
        "literace" => K::LiteRace { burst: 1000 },
        "none" => K::Uninstrumented,
        other => return Err(err(format!("unknown detector `{other}`"))),
    })
}

fn write_artifact(out: &mut String, path: &str, content: &str, what: &str) -> Result<(), CliError> {
    // Atomic replace: readers never see a half-written artifact, and a
    // crash mid-write leaves any previous version intact.
    pacer_collections::atomic_write(path, content)
        .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(out, "{what} written to {path}");
    Ok(())
}

/// Artifact writer for the fleet path: atomic like [`write_artifact`],
/// plus deterministic `artifact-io` fault injection with bounded retries
/// when a [`FaultPlan`] arms that site.
struct ArtifactSink<'a> {
    plan: Option<&'a FaultPlan>,
    max_retries: u32,
    writes: u64,
    injected: u64,
    retried: u64,
}

impl<'a> ArtifactSink<'a> {
    fn new(plan: Option<&'a FaultPlan>, max_retries: u32) -> Self {
        ArtifactSink {
            plan,
            max_retries,
            writes: 0,
            injected: 0,
            retried: 0,
        }
    }

    fn write(
        &mut self,
        out: &mut String,
        path: &str,
        content: &str,
        what: &str,
    ) -> Result<(), CliError> {
        let index = self.writes;
        self.writes += 1;
        let plan = self.plan;
        let mut injected = 0u64;
        // Retries run on the engine's deterministic backoff schedule —
        // derived from (write index, attempt), never wall-clock — so a
        // faulted campaign's output stays byte-identical at any --jobs N.
        let result = pacer_harness::retry_artifact_io(
            pacer_harness::RetryPolicy {
                max_retries: self.max_retries,
            },
            index,
            |attempt| {
                if plan.is_some_and(|p| p.artifact_io_fails(index, attempt)) {
                    injected += 1;
                    return Err(std::io::Error::other(format!(
                        "{INJECTED_PREFIX}artifact IO error (write {index}, attempt {attempt})"
                    )));
                }
                pacer_collections::atomic_write(path, content)
            },
        );
        self.injected += injected;
        match result {
            Ok(((), attempts)) => {
                self.retried += u64::from(attempts - 1);
                let _ = writeln!(out, "{what} written to {path}");
                Ok(())
            }
            Err(reasons) => {
                self.retried += u64::from(self.max_retries);
                let last = reasons.last().cloned().unwrap_or_default();
                Err(err(format!("cannot write {path}: {last}")))
            }
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    let (file, opts) = parse_options(args)?;
    let (ast, compiled) = load_program(&file)?;
    let kind = detector_kind(&opts.detector, opts.rate)?;
    let trial =
        pacer_harness::observed::run_observed_trial(&compiled, kind, opts.seed, RING_CAPACITY)
            .map_err(|e| err(format!("runtime error: {e}")))?;

    // Escape-analysis decisions, as structured events ahead of the
    // execution's trace (they are compile-time facts, not run events).
    let mut escape_events = String::new();
    let mut elisions = 0usize;
    for f in &ast.functions {
        let info = pacer_lang::escape::analyze(f);
        for var in info.provably_local_locals() {
            elisions += 1;
            pacer_obs::Event::EscapeElision {
                func: f.name.clone(),
                var: var.to_string(),
            }
            .write_jsonl(&mut escape_events);
        }
    }
    let events_jsonl = escape_events + &trial.events_jsonl;

    let mut out = String::new();
    let _ = writeln!(out, "{} under {}, seed {}", file, kind.label(), opts.seed);
    if elisions > 0 {
        let _ = writeln!(
            out,
            "escape analysis: {elisions} provably-local variable(s) uninstrumented"
        );
    }
    let _ = writeln!(out, "{}", trial.metrics);
    let _ = writeln!(out, "distinct races: {}", trial.distinct_races.len());
    if let Some(path) = &opts.metrics_out {
        write_artifact(&mut out, path, &trial.metrics.to_json(), "metrics")?;
    }
    if let Some(path) = &opts.events_out {
        write_artifact(&mut out, path, &events_jsonl, "event trace")?;
    }
    Ok(out)
}

/// Builds the resource-governor configuration from the budget flags, or
/// `None` when no budget is armed. The ladder defaults to the starting
/// rate halved per rung ([`pacer_governor::GovernorConfig::for_rate`]);
/// `--rate-ladder-governor` overrides it.
fn build_governor(opts: &Options) -> Result<Option<pacer_governor::GovernorConfig>, CliError> {
    if opts.mem_budget.is_none() && opts.deadline_events.is_none() {
        if opts.governor_ladder.is_some() {
            return Err(err(
                "--rate-ladder-governor requires --mem-budget or --deadline-events",
            ));
        }
        return Ok(None);
    }
    let mut g = pacer_governor::GovernorConfig::for_rate(opts.rate);
    g.mem_budget_bytes = opts.mem_budget;
    g.deadline_events = opts.deadline_events;
    if let Some(spec) = &opts.governor_ladder {
        g.ladder = pacer_governor::parse_ladder(spec)
            .map_err(|e| err(format!("--rate-ladder-governor: {e}")))?;
    }
    g.validate().map_err(err)?;
    Ok(Some(g))
}

fn cmd_fleet(args: &[String]) -> Result<CmdOutput, CliError> {
    let (file, opts) = parse_options(args)?;
    let (_, compiled) = load_program(&file)?;
    pacer_harness::parallel::set_jobs(opts.jobs);
    let governor = build_governor(&opts)?;

    let plan = load_fault_plan(&opts)?;
    let observe = opts.metrics_out.is_some() || opts.events_out.is_some();
    // --resume keeps checkpointing to the same journal unless --checkpoint
    // names another path, so an interrupted resume can itself be resumed.
    let checkpoint = opts.checkpoint.as_deref().or(opts.resume.as_deref());

    let fleet = pacer_harness::run_resilient_fleet(&pacer_harness::FleetEngineConfig {
        program: &compiled,
        instances: opts.instances,
        rate: opts.rate,
        base_seed: opts.seed,
        policy: pacer_harness::RetryPolicy {
            max_retries: opts.max_retries,
        },
        plan: plan.as_ref(),
        ring_capacity: observe.then_some(RING_CAPACITY),
        checkpoint: checkpoint.map(Path::new),
        resume: opts.resume.as_deref().map(Path::new),
        governor: governor.as_ref(),
    })
    .map_err(|e| err(e.to_string()))?;

    let report = &fleet.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} instance(s) at r = {:.2}%, seed {}",
        report.instances,
        report.rate * 100.0,
        opts.seed
    );
    if fleet.resumed > 0 {
        let _ = writeln!(
            out,
            "resumed {} completed trial(s) from the journal",
            fleet.resumed
        );
    }
    let found = report.found();
    let _ = writeln!(out, "distinct races found by the fleet: {}", found.len());
    if let Some(mean) = report.mean_reporters() {
        let _ = writeln!(out, "mean reporting instances per race: {mean:.2}");
    }
    for (a, b) in &found {
        let _ = writeln!(
            out,
            "  {}  <->  {}",
            compiled.describe_site(*a),
            compiled.describe_site(*b)
        );
    }
    let _ = writeln!(out, "cumulative distinct races: {:?}", report.cumulative);
    if plan.is_some() || !fleet.quarantine.is_clean() {
        let _ = write!(out, "{}", fleet.quarantine);
    }
    if governor.is_some() || !fleet.governor.is_clean() {
        let _ = write!(out, "{}", fleet.governor);
    }

    let mut sink = ArtifactSink::new(plan.as_ref(), opts.max_retries);
    if let Some(path) = &opts.metrics_out {
        let json = fleet
            .metrics
            .as_ref()
            .map(pacer_obs::Metrics::to_json)
            .unwrap_or_default();
        sink.write(&mut out, path, &json, "metrics")?;
    }
    if let Some(path) = &opts.events_out {
        let jsonl = fleet.events_jsonl.as_deref().unwrap_or_default();
        sink.write(&mut out, path, jsonl, "event trace")?;
    }
    if sink.injected > 0 {
        let _ = writeln!(
            out,
            "artifact IO: {} injected failure(s), {} retried",
            sink.injected, sink.retried
        );
    }

    if let Some(dir) = &opts.record_traces {
        let format = trace_format(&opts)?;
        std::fs::create_dir_all(dir).map_err(|e| err(format!("cannot create {dir}: {e}")))?;
        // Capture each instance's execution (same seed, therefore the same
        // schedule as its fleet trial) in parallel; encoding happens in the
        // workers but files are written sequentially in index order, so the
        // directory contents are byte-identical at any --jobs count.
        let encoded: Vec<Result<Vec<u8>, String>> =
            pacer_harness::parallel::run_indexed(opts.instances as usize, |i| {
                let seed = pacer_harness::fleet::fleet_trial_seed(opts.seed, i as u64);
                pacer_harness::record_trial_trace(&compiled, opts.rate, seed)
                    .map(|trace| match format {
                        TraceFormat::Binary => pacer_trace::binary::encode_trace(&trace),
                        TraceFormat::Text => trace.to_text().into_bytes(),
                    })
                    .map_err(|e| e.to_string())
            });
        for (i, result) in encoded.iter().enumerate() {
            let bytes = result
                .as_ref()
                .map_err(|e| err(format!("instance {i}: {e}")))?;
            let path = format!("{dir}/instance-{i:04}.{}", format.extension());
            pacer_collections::atomic_write(&path, bytes)
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        }
        let _ = writeln!(out, "recorded {} instance trace(s) to {dir}", encoded.len());
    }

    // Trials that merely finished at a reduced rate are a *successful*
    // degradation (exit 0); cancellation at the ladder floor means the
    // campaign lost coverage, reported like quarantines (exit 2).
    let code = if fleet.quarantine.is_clean() && !fleet.governor.any_cancelled() {
        0
    } else {
        2
    };
    Ok(CmdOutput { text: out, code })
}

fn cmd_fuzz(args: &[String]) -> Result<String, CliError> {
    let (file, opts) = parse_flags(args)?;
    if let Some(file) = file {
        return Err(err(format!(
            "fuzz generates its own programs; unexpected argument `{file}`"
        )));
    }
    pacer_harness::parallel::set_jobs(opts.jobs);
    let mut cfg = pacer_fuzz::FuzzConfig::new(opts.seed, opts.iters);
    cfg.oracle.schedule_seeds = opts.schedule_seeds;
    if let Some(ladder) = &opts.rate_ladder {
        cfg.oracle.rate_ladder = ladder.clone();
    }
    let report = pacer_fuzz::run_fuzz(&cfg);
    let mut out = report.summary();
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| err(format!("cannot create {dir}: {e}")))?;
        let traces = pacer_fuzz::record_truth_traces(&cfg);
        for t in &traces {
            let path = format!("{}/program-{:04}.ptrace", dir, t.index);
            pacer_collections::atomic_write(&path, &t.bytes)
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        }
        let _ = writeln!(out, "recorded {} truth trace(s) to {dir}", traces.len());
    }
    if let Some(path) = &opts.metrics_out {
        let mut reg = pacer_obs::Registry::enabled(pacer_obs::RegistryConfig::default());
        reg.add_fuzz(report.fuzz_counters());
        write_artifact(&mut out, path, &reg.metrics().to_json(), "metrics")?;
    }
    if report.violation_count() > 0 {
        // Violations are a failing exit, with the full report as message.
        return Err(err(out));
    }
    Ok(out)
}

fn cmd_fmt(args: &[String], fold: bool) -> Result<String, CliError> {
    let (file, _) = parse_options(args)?;
    let source =
        std::fs::read_to_string(&file).map_err(|e| err(format!("cannot read {file}: {e}")))?;
    let mut ast = pacer_lang::parse(&source).map_err(|e| err(format!("{file}: {e}")))?;
    if fold {
        ast = pacer_lang::fold_program(&ast);
    }
    Ok(pacer_lang::print(&ast))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const RACY: &str = "
        shared x;
        fn w() { let i = 0; while (i < 50) { x = x + 1; i = i + 1; } }
        fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
    ";

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["--help"])).unwrap();
        assert!(out.contains("usage: pacer"));
        assert!(run(&[]).is_err());
        assert!(run(&args(&["bogus"])).is_err());
    }

    #[test]
    fn accordion_name_is_an_unknown_detector() {
        // Slot reuse is PACER's own thread layout, so no command that takes
        // `--detector` knows a separate `pacer-accordion`.
        let program = write_temp("pacer_cli_accordion.pl", RACY);
        let trace = write_temp("pacer_cli_accordion.trace", "fork t0 t1\n");
        for cmd in [
            &["run", &program][..],
            &["stats", &program],
            &["replay", &trace],
            &["serve", "--stdin", &trace],
        ] {
            let mut argv = args(cmd);
            argv.extend(args(&["--detector", "pacer-accordion"]));
            let e = run(&argv).unwrap_err();
            assert!(
                e.message.contains("unknown detector `pacer-accordion`"),
                "{cmd:?}: {e}"
            );
        }
        std::fs::remove_file(&program).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn run_with_fasttrack_reports_races() {
        let path = write_temp("pacer_cli_racy.pl", RACY);
        let out = run(&args(&[
            "run",
            &path,
            "--detector",
            "fasttrack",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("distinct:"), "{out}");
        assert!(out.contains("w: x"), "site descriptions shown: {out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_records_and_replay_reanalyzes() {
        let src = write_temp("pacer_cli_rec.pl", RACY);
        let trace_path = std::env::temp_dir().join("pacer_cli_rec.trace");
        let trace_str = trace_path.to_string_lossy().into_owned();
        let out = run(&args(&[
            "run",
            &src,
            "--detector",
            "fasttrack",
            "--seed",
            "5",
            "--trace",
            &trace_str,
        ]))
        .unwrap();
        assert!(out.contains("event trace written"));
        let replayed = run(&args(&["replay", &trace_str, "--detector", "generic"])).unwrap();
        assert!(replayed.contains("replaying"), "{replayed}");
        assert!(replayed.contains("distinct:"), "{replayed}");
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn record_then_binary_replay_matches_text_replay() {
        let src = write_temp("pacer_cli_record.pl", RACY);
        let bin = std::env::temp_dir().join("pacer_cli_record.ptrace");
        let txt = std::env::temp_dir().join("pacer_cli_record.trace");
        let bin_str = bin.to_string_lossy().into_owned();
        let txt_str = txt.to_string_lossy().into_owned();
        let base = ["record", &src, "--rate", "1.0", "--seed", "5"];
        let rec_bin = run(&args(&[&base[..], &["--out", &bin_str]].concat())).unwrap();
        assert!(rec_bin.contains("binary trace written"), "{rec_bin}");
        assert!(rec_bin.contains("bytes/event"), "{rec_bin}");
        let rec_txt = run(&args(
            &[&base[..], &["--out", &txt_str, "--format", "text"]].concat(),
        ))
        .unwrap();
        assert!(rec_txt.contains("text trace written"), "{rec_txt}");

        // The two encodings carry the same events, so offline analysis is
        // byte-identical: same summary line, same race report.
        for detector in ["fasttrack", "pacer", "generic"] {
            let from_bin = run(&args(&["replay", &bin_str, "--detector", detector])).unwrap();
            let from_txt = run(&args(&["replay", &txt_str, "--detector", detector])).unwrap();
            assert_eq!(from_bin.text, from_txt.text, "detector {detector}");
            assert!(from_bin.contains("replaying"), "{from_bin}");
        }
        // FASTTRACK at rate 1.0 must see the race.
        let report = run(&args(&["replay", &bin_str, "--detector", "fasttrack"])).unwrap();
        assert!(report.contains("distinct:"), "{report}");
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&bin).ok();
        std::fs::remove_file(&txt).ok();
    }

    #[test]
    fn replay_metrics_agree_across_encodings() {
        let src = write_temp("pacer_cli_rmetrics.pl", RACY);
        let bin = std::env::temp_dir().join("pacer_cli_rmetrics.ptrace");
        let txt = std::env::temp_dir().join("pacer_cli_rmetrics.trace");
        let m_bin = std::env::temp_dir().join("pacer_cli_rmetrics_bin.json");
        let m_txt = std::env::temp_dir().join("pacer_cli_rmetrics_txt.json");
        let bin_str = bin.to_string_lossy().into_owned();
        let txt_str = txt.to_string_lossy().into_owned();
        let base = ["record", &src, "--rate", "1.0", "--seed", "9"];
        run(&args(&[&base[..], &["--out", &bin_str]].concat())).unwrap();
        run(&args(
            &[&base[..], &["--out", &txt_str, "--format", "text"]].concat(),
        ))
        .unwrap();
        run(&args(&[
            "replay",
            &bin_str,
            "--metrics-out",
            &m_bin.to_string_lossy(),
        ]))
        .unwrap();
        run(&args(&[
            "replay",
            &txt_str,
            "--metrics-out",
            &m_txt.to_string_lossy(),
        ]))
        .unwrap();
        let a = std::fs::read_to_string(&m_bin).unwrap();
        let b = std::fs::read_to_string(&m_txt).unwrap();
        assert_eq!(a, b);
        assert!(a.contains('{'), "metrics JSON written: {a}");
        for p in [&bin, &txt, &m_bin, &m_txt] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn replay_resample_overlays_fresh_periods_deterministically() {
        let src = write_temp("pacer_cli_resample.pl", RACY);
        let bin = std::env::temp_dir().join("pacer_cli_resample.ptrace");
        let bin_str = bin.to_string_lossy().into_owned();
        run(&args(&[
            "record", &src, "--rate", "1.0", "--seed", "5", "--out", &bin_str,
        ]))
        .unwrap();
        let resample = |seed: &str| {
            run(&args(&[
                "replay",
                &bin_str,
                "--resample",
                "0.5",
                "--seed",
                seed,
            ]))
            .unwrap()
        };
        let once = resample("7");
        let again = resample("7");
        assert_eq!(once.text, again.text, "resampling is seeded");
        assert!(once.contains("resampled sampling periods"), "{once}");
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn replay_rejects_corrupt_binary_but_tolerates_truncation() {
        let src = write_temp("pacer_cli_corrupt.pl", RACY);
        let bin = std::env::temp_dir().join("pacer_cli_corrupt.ptrace");
        let bin_str = bin.to_string_lossy().into_owned();
        run(&args(&[
            "record", &src, "--rate", "1.0", "--seed", "5", "--out", &bin_str,
        ]))
        .unwrap();
        let pristine = std::fs::read(&bin).unwrap();

        // A bit flip inside a frame payload is a hard checksum error.
        let mut flipped = pristine.clone();
        let mid = pristine.len() / 2;
        flipped[mid] ^= 0x10;
        let bad = std::env::temp_dir().join("pacer_cli_corrupt_flip.ptrace");
        std::fs::write(&bad, &flipped).unwrap();
        let e = run(&args(&["replay", &bad.to_string_lossy()])).unwrap_err();
        assert!(
            e.message.contains("checksum") || e.message.contains("frame"),
            "{}",
            e.message
        );

        // A truncated tail is a clean partial stop: the complete prefix is
        // still analyzed, with a note.
        let cut = std::env::temp_dir().join("pacer_cli_corrupt_cut.ptrace");
        std::fs::write(&cut, &pristine[..pristine.len() - 5]).unwrap();
        let out = run(&args(&["replay", &cut.to_string_lossy()])).unwrap();
        assert!(out.contains("ends mid-frame"), "{out}");

        // A wrong magic falls through to the text parser and fails there.
        let mut wrong = pristine;
        wrong[0] ^= 0xff;
        let nomagic = std::env::temp_dir().join("pacer_cli_corrupt_magic.ptrace");
        std::fs::write(&nomagic, &wrong).unwrap();
        assert!(run(&args(&["replay", &nomagic.to_string_lossy()])).is_err());

        for p in [&bin, &bad, &cut, &nomagic] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn fleet_recorded_traces_are_identical_across_job_counts() {
        let src = write_temp("pacer_cli_fleettr.pl", RACY);
        let dir1 = std::env::temp_dir().join("pacer_cli_fleettr_j1");
        let dir4 = std::env::temp_dir().join("pacer_cli_fleettr_j4");
        let fleet = |jobs: &str, dir: &std::path::Path| {
            run(&args(&[
                "fleet",
                &src,
                "--instances",
                "6",
                "--rate",
                "0.5",
                "--seed",
                "3",
                "--jobs",
                jobs,
                "--record-traces",
                &dir.to_string_lossy(),
            ]))
            .unwrap()
        };
        let o1 = fleet("1", &dir1);
        let o4 = fleet("4", &dir4);
        assert_eq!(o1.text.replace("_j1", "_jN"), o4.text.replace("_j4", "_jN"));
        assert!(o1.contains("recorded 6 instance trace(s)"), "{o1}");
        for i in 0..6 {
            let name = format!("instance-{i:04}.ptrace");
            let a = std::fs::read(dir1.join(&name)).unwrap();
            let b = std::fs::read(dir4.join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs between job counts");
        }
        // The captured traces replay cleanly.
        let first = dir1.join("instance-0000.ptrace");
        let replayed = run(&args(&["replay", &first.to_string_lossy()])).unwrap();
        assert!(replayed.contains("replaying"), "{replayed}");
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir4).ok();
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn fuzz_trace_dir_writes_replayable_truth_traces() {
        let dir = std::env::temp_dir().join("pacer_cli_fuzztr");
        let out = run(&args(&[
            "fuzz",
            "--seed",
            "11",
            "--iters",
            "3",
            "--trace-dir",
            &dir.to_string_lossy(),
        ]))
        .unwrap();
        assert!(out.contains("truth trace(s)"), "{out}");
        let first = dir.join("program-0000.ptrace");
        let replayed = run(&args(&[
            "replay",
            &first.to_string_lossy(),
            "--detector",
            "generic",
        ]))
        .unwrap();
        assert!(replayed.contains("replaying"), "{replayed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_reports_escape_results() {
        let src = write_temp(
            "pacer_cli_check.pl",
            "shared g; fn main() { let o = new obj; o.f = 1; let p = new obj; g = p; }",
        );
        let out = run(&args(&["check", &src])).unwrap();
        assert!(out.contains("instrumented site(s)"));
        assert!(out.contains("thread-local (uninstrumented): o"), "{out}");
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn fmt_and_fold_pretty_print() {
        let src = write_temp("pacer_cli_fmt.pl", "shared x;fn main(){x=1+2;}");
        let fmt = run(&args(&["fmt", &src])).unwrap();
        assert!(fmt.contains("x = (1 + 2);"), "{fmt}");
        let folded = run(&args(&["fold", &src])).unwrap();
        assert!(folded.contains("x = 3;"), "{folded}");
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn pacer_run_prints_effective_rate() {
        let path = write_temp("pacer_cli_pacer.pl", RACY);
        let out = run(&args(&["run", &path, "--rate", "1.0", "--seed", "1"])).unwrap();
        assert!(out.contains("effective sampling rate"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flag_errors_are_reported() {
        assert!(run(&args(&["run"])).is_err(), "missing file");
        assert!(run(&args(&["run", "f", "--rate", "2"])).is_err());
        assert!(run(&args(&["run", "f", "--bogus"])).is_err());
        assert!(run(&args(&["run", "/nonexistent.pl"])).is_err());
        assert!(run(&args(&["replay", "/nonexistent.trace"])).is_err());
    }

    #[test]
    fn fleet_output_is_identical_across_job_counts() {
        let path = write_temp("pacer_cli_fleet.pl", RACY);
        let base = &[
            "fleet",
            &path,
            "--instances",
            "8",
            "--rate",
            "0.25",
            "--seed",
            "3",
        ];
        let seq = run(&args(&[base, &["--jobs", "1"][..]].concat())).unwrap();
        let par = run(&args(&[base, &["--jobs", "4"][..]].concat())).unwrap();
        assert!(seq.contains("fleet: 8 instance(s)"), "{seq}");
        assert_eq!(seq, par, "--jobs must not change fleet output");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_prints_breakdown_and_writes_artifacts() {
        // Like RACY, plus a provably-local object so escape analysis has
        // something to elide.
        let path = write_temp(
            "pacer_cli_stats.pl",
            "
            shared x;
            fn w() {
                let o = new obj;
                o.f = 0;
                let i = 0;
                while (i < 50) { x = x + 1; i = i + 1; }
            }
            fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
        ",
        );
        let mpath = std::env::temp_dir().join("pacer_cli_stats.metrics.json");
        let tpath = std::env::temp_dir().join("pacer_cli_stats.trace.jsonl");
        let m = mpath.to_string_lossy().into_owned();
        let t = tpath.to_string_lossy().into_owned();
        let out = run(&args(&[
            "stats",
            &path,
            "--rate",
            "1.0",
            "--seed",
            "2",
            "--metrics-out",
            &m,
            "--trace-out",
            &t,
        ]))
        .unwrap();
        assert!(out.contains("operation breakdown (Table 3)"), "{out}");
        assert!(out.contains("escape analysis:"), "{out}");
        assert!(out.contains("distinct races:"), "{out}");
        let json = std::fs::read_to_string(&mpath).unwrap();
        assert!(json.starts_with('{'), "{json}");
        assert!(json.contains("\"schema\": 1"), "{json}");
        assert!(json.contains("\"races_reported\""), "{json}");
        let trace = std::fs::read_to_string(&tpath).unwrap();
        assert!(trace.contains("\"ev\":\"escape_elision\""), "{trace}");
        assert!(trace.contains("\"ev\":\"period_begin\""), "{trace}");
        assert!(
            trace.lines().all(|l| l.starts_with("{\"ev\":\"")),
            "every line is an event object"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&mpath).ok();
        std::fs::remove_file(&tpath).ok();
    }

    #[test]
    fn fleet_artifacts_are_identical_across_job_counts() {
        let path = write_temp("pacer_cli_fleet_obs.pl", RACY);
        let run_at = |jobs: &str, tag: &str| {
            let m = std::env::temp_dir().join(format!("pacer_cli_fleet_{tag}.json"));
            let t = std::env::temp_dir().join(format!("pacer_cli_fleet_{tag}.jsonl"));
            run(&args(&[
                "fleet",
                &path,
                "--instances",
                "6",
                "--rate",
                "0.25",
                "--seed",
                "3",
                "--jobs",
                jobs,
                "--metrics-out",
                &m.to_string_lossy(),
                "--trace-out",
                &t.to_string_lossy(),
            ]))
            .unwrap();
            let metrics = std::fs::read_to_string(&m).unwrap();
            let trace = std::fs::read_to_string(&t).unwrap();
            std::fs::remove_file(&m).ok();
            std::fs::remove_file(&t).ok();
            (metrics, trace)
        };
        let (m1, t1) = run_at("1", "j1");
        let (m4, t4) = run_at("4", "j4");
        assert_eq!(m1, m4, "metrics must be byte-identical across job counts");
        assert_eq!(t1, t4, "traces must be byte-identical across job counts");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fuzz_output_is_identical_across_job_counts() {
        let base = &[
            "fuzz",
            "--iters",
            "8",
            "--seed",
            "42",
            "--schedule-seeds",
            "1",
        ];
        let seq = run(&args(&[base, &["--jobs", "1"][..]].concat())).unwrap();
        let par = run(&args(&[base, &["--jobs", "4"][..]].concat())).unwrap();
        assert!(seq.contains("pacer-fuzz: 8 programs"), "{seq}");
        assert!(seq.contains("violations: 0"), "{seq}");
        assert_eq!(seq, par, "--jobs must not change fuzz output");
    }

    #[test]
    fn fuzz_writes_metrics_and_honors_the_rate_ladder() {
        let mpath = std::env::temp_dir().join("pacer_cli_fuzz.metrics.json");
        let m = mpath.to_string_lossy().into_owned();
        let out = run(&args(&[
            "fuzz",
            "--iters",
            "4",
            "--seed",
            "7",
            "--schedule-seeds",
            "1",
            "--rate-ladder",
            "1.0,0.25",
            "--metrics-out",
            &m,
        ]))
        .unwrap();
        assert!(out.contains("rate 0.2500:"), "{out}");
        assert!(!out.contains("rate 0.5000:"), "{out}");
        let json = std::fs::read_to_string(&mpath).unwrap();
        assert!(json.contains("\"fuzz\""), "{json}");
        assert!(json.contains("\"programs\":4"), "{json}");
        std::fs::remove_file(&mpath).ok();
    }

    #[test]
    fn fuzz_flag_errors_are_reported() {
        assert!(run(&args(&["fuzz", "stray.pl"])).is_err(), "no file arg");
        assert!(run(&args(&["fuzz", "--iters", "0"])).is_err());
        assert!(run(&args(&["fuzz", "--rate-ladder", "1.5"])).is_err());
        assert!(run(&args(&["fuzz", "--rate-ladder", "nope"])).is_err());
        assert!(run(&args(&["fuzz", "--schedule-seeds", "0"])).is_err());
    }

    #[test]
    fn fleet_fault_campaign_quarantines_and_exits_2() {
        let path = write_temp("pacer_cli_faults.pl", RACY);
        let plan = write_temp("pacer_cli_faults.plan", "detector-panic every=3\n");
        let base = &[
            "fleet",
            &path,
            "--instances",
            "6",
            "--rate",
            "0.25",
            "--seed",
            "3",
            "--fault-plan",
            &plan,
            "--max-retries",
            "1",
        ];
        let seq = run(&args(&[base, &["--jobs", "1"][..]].concat())).unwrap();
        let par = run(&args(&[base, &["--jobs", "4"][..]].concat())).unwrap();
        assert_eq!(seq.code, 2, "quarantines exit 2: {seq}");
        assert!(seq.contains("faults: injected="), "{seq}");
        assert!(seq.contains("quarantined trial"), "{seq}");
        assert_eq!(seq, par, "fault campaigns are deterministic across --jobs");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&plan).ok();
    }

    #[test]
    fn fleet_clean_run_exits_0_and_matches_pre_resilience_output() {
        let path = write_temp("pacer_cli_clean.pl", RACY);
        let out = run(&args(&[
            "fleet",
            &path,
            "--instances",
            "4",
            "--rate",
            "0.25",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert_eq!(out.code, 0);
        assert!(!out.contains("faults:"), "clean runs stay quiet: {out}");
        assert!(!out.contains("resumed"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_resume_after_truncation_reproduces_artifacts() {
        let path = write_temp("pacer_cli_resume.pl", RACY);
        let dir = std::env::temp_dir().join(format!("pacer-cli-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("fleet.journal").to_string_lossy().into_owned();
        let m_full = dir.join("full.json").to_string_lossy().into_owned();
        let t_full = dir.join("full.jsonl").to_string_lossy().into_owned();
        let m_res = dir.join("res.json").to_string_lossy().into_owned();
        let t_res = dir.join("res.jsonl").to_string_lossy().into_owned();
        let base = |extra: &[&str]| {
            let head = [
                "fleet",
                &path,
                "--instances",
                "6",
                "--rate",
                "0.25",
                "--seed",
                "3",
            ];
            args(&[&head[..], extra].concat())
        };

        // Reference: uninterrupted run.
        run(&base(&["--metrics-out", &m_full, "--trace-out", &t_full])).unwrap();

        // Interrupted run: checkpoint (observed, so the journal carries
        // metrics), then truncate the journal to simulate a crash
        // mid-campaign. Its own artifacts are throwaways.
        let m_tmp = dir.join("tmp.json").to_string_lossy().into_owned();
        let t_tmp = dir.join("tmp.jsonl").to_string_lossy().into_owned();
        run(&base(&[
            "--checkpoint",
            &journal,
            "--metrics-out",
            &m_tmp,
            "--trace-out",
            &t_tmp,
        ]))
        .unwrap();
        // Cut into the final entry (entries vary a lot in size, so a
        // midpoint cut could land inside the first, huge line and leave
        // nothing resumable).
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - 200]).unwrap();

        let resumed = run(&base(&[
            "--resume",
            &journal,
            "--metrics-out",
            &m_res,
            "--trace-out",
            &t_res,
        ]))
        .unwrap();
        assert_eq!(resumed.code, 0);
        assert!(resumed.contains("resumed"), "{resumed}");
        assert_eq!(
            std::fs::read_to_string(&m_full).unwrap(),
            std::fs::read_to_string(&m_res).unwrap(),
            "resumed metrics artifact is byte-identical"
        );
        assert_eq!(
            std::fs::read_to_string(&t_full).unwrap(),
            std::fs::read_to_string(&t_res).unwrap(),
            "resumed event-trace artifact is byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_artifact_io_faults_are_retried() {
        let path = write_temp("pacer_cli_artio.pl", RACY);
        // Every artifact write fails once; one retry makes each succeed.
        let plan = write_temp("pacer_cli_artio.plan", "artifact-io every=1 limit=1\n");
        let m = std::env::temp_dir().join("pacer_cli_artio.json");
        let out = run(&args(&[
            "fleet",
            &path,
            "--instances",
            "2",
            "--rate",
            "0.25",
            "--seed",
            "3",
            "--fault-plan",
            &plan,
            "--metrics-out",
            &m.to_string_lossy(),
        ]))
        .unwrap();
        assert_eq!(out.code, 0, "retries absorb the injected IO faults: {out}");
        assert!(
            out.contains("artifact IO: 1 injected failure(s), 1 retried"),
            "{out}"
        );
        assert!(std::fs::read_to_string(&m).unwrap().starts_with('{'));
        std::fs::remove_file(&m).ok();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&plan).ok();

        // With no retry budget the injected IO error is a hard failure.
        let path2 = write_temp("pacer_cli_artio2.pl", RACY);
        let plan2 = write_temp("pacer_cli_artio2.plan", "artifact-io every=1\n");
        let e = run(&args(&[
            "fleet",
            &path2,
            "--instances",
            "2",
            "--seed",
            "3",
            "--fault-plan",
            &plan2,
            "--max-retries",
            "0",
            "--metrics-out",
            &m.to_string_lossy(),
        ]))
        .unwrap_err();
        assert!(e.message.contains("injected: artifact IO error"), "{e}");
        std::fs::remove_file(&path2).ok();
        std::fs::remove_file(&plan2).ok();
    }

    #[test]
    fn fleet_rejects_bad_fault_plans_and_flags() {
        let path = write_temp("pacer_cli_badplan.pl", RACY);
        let plan = write_temp("pacer_cli_badplan.plan", "frobnicate\n");
        let e = run(&args(&["fleet", &path, "--fault-plan", &plan])).unwrap_err();
        assert!(e.message.contains("unknown directive"), "{e}");
        assert!(run(&args(&["fleet", &path, "--fault-plan"])).is_err());
        assert!(run(&args(&["fleet", &path, "--max-retries", "x"])).is_err());
        assert!(run(&args(&[
            "fleet",
            &path,
            "--fault-plan",
            "/nonexistent.plan"
        ]))
        .is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&plan).ok();
    }

    #[test]
    fn lease_clock_ticks_while_connections_keep_arriving() {
        // A connection every 5 ms, never an idle accept: the lease clock
        // must still tick by wall time and reap the detached session.
        let cfg = pacer_harness::ServeConfig {
            idle_timeout_ticks: Some(1),
            ..pacer_harness::ServeConfig::new(pacer_harness::ServeDetectorKind::FastTrack)
        };
        let accept = || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(())
        };
        let serve = |handle: &pacer_harness::ServiceHandle<'_>, (), index| {
            if index == 0 {
                match handle.durable_open("a", false) {
                    pacer_harness::DurableOpen::Started { epoch } => {
                        handle.durable_detach("a", epoch)
                    }
                    _ => panic!("session `a` was not started"),
                }
            }
        };
        let out = serve_daemon(&cfg, Some(300), accept, serve).unwrap();
        let report = out.reports.iter().find(|r| r.name == "a").unwrap();
        assert!(
            report
                .body
                .contains("idle timeout: reaped after 1 idle tick(s)"),
            "{}",
            report.body
        );
    }

    #[test]
    fn detector_none_runs_uninstrumented() {
        let path = write_temp("pacer_cli_none.pl", RACY);
        let out = run(&args(&["run", &path, "--detector", "none"])).unwrap();
        assert!(out.contains("executed"));
        assert!(!out.contains("distinct"));
        std::fs::remove_file(&path).ok();
    }
}
