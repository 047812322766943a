//! `serve-short` and `serve-long`: sessions against a `pacer serve
//! --tcp` daemon, driven by a load generator in this process with at
//! most [`CLIENTS`] threads, one connection each.
//!
//! `serve-short` is an open loop: sessions are due on a seeded Poisson
//! schedule and each is timed from its due time, so a stall shows in the
//! sessions queued behind it. `serve-long` is a closed loop: each client
//! starts its next session when the previous one's report arrives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::daemon::{check_drained, counter, Daemon};
use crate::inputs::{check_identity, Input, InputSet, PAPER_R3, TEST_R3};
use crate::replay::{min_ops, min_traced_ops, ms, Env, MAX_OVERRUN};
use crate::spans::Tracer;
use crate::stats::{poisson_schedule, Sample};
use crate::wire::{run_session, SessionTimes};
use crate::{layers, repeated_setup, setup_metric, Ctx, Metric, Report};

/// Client threads, hence connections in flight.
const CLIENTS: usize = 2;

/// `serve-short`'s mean arrival rate, sessions per second.
const SHORT_RATE: f64 = 50.0;

/// Sessions per client in the probe a traced replay run makes.
const PROBE_SESSIONS: usize = 10;

/// The input `serve-long` and the probe stream: the largest program.
const LONG_PROGRAM: &str = "hsqldb";

/// A daemon with the inputs it is fed. Fields drop in order: the daemon
/// dies before the scratch directory holding its WAL is removed.
struct ServeEnv {
    daemon: Daemon,
    env: Env,
}

fn start(ctx: &Ctx, set: InputSet, name: &str) -> Result<ServeEnv, String> {
    let env = Env::prepare(ctx, set, name)?;
    let daemon = Daemon::start(&ctx.pacer, env.scratch.path())?;
    Ok(ServeEnv { daemon, env })
}

/// One session as the client saw it.
struct Record {
    /// When it was due: its schedule slot (open loop), or when its
    /// client became free (closed loop).
    due: Instant,
    /// Wire timestamps; `None` when the session failed.
    times: Option<SessionTimes>,
    /// Whether the session recorded spans.
    traced: bool,
}

/// The sessions of one phase.
struct Sessions {
    records: Vec<Record>,
    /// The schedule's own rate (open loop) or the achieved one.
    offered_per_s: f64,
    problems: Vec<String>,
}

impl Sessions {
    fn ok(&self) -> impl Iterator<Item = (&Record, &SessionTimes)> {
        self.records
            .iter()
            .filter_map(|r| r.times.as_ref().map(|t| (r, t)))
    }

    /// Due time to last report byte, per completed session passing
    /// `keep`, in ms.
    fn latency_ms(&self, keep: impl Fn(&Record) -> bool) -> Sample {
        Sample::new(
            self.ok()
                .filter(|(r, _)| keep(r))
                .map(|(r, t)| ms(t.report.duration_since(r.due).as_secs_f64()))
                .collect(),
        )
    }
}

/// Runs one session and checks its report against the input's replay
/// reference; with a tracer, records the session and its wire steps as
/// spans. The loops trace every other session, so the rest are the
/// untraced baseline for `tracing.overhead_pct`.
fn session(
    addr: &str,
    name: &str,
    input: &Input,
    due: Instant,
    tracer: Option<&Tracer>,
    req: u64,
) -> (Record, Option<String>) {
    let frames = input.frame_slices();
    let (times, problem) = match run_session(addr, name, &frames) {
        Ok((body, times)) if body.as_bytes() == input.reference => (Some(times), None),
        Ok(_) => (
            None,
            Some(format!(
                "{name}: REPORT differs from `pacer replay` of {}",
                input.program
            )),
        ),
        Err(e) => (None, Some(format!("{name}: {e}"))),
    };
    if let (Some(tracer), Some(t)) = (tracer, &times) {
        let id = tracer.id();
        tracer.record(id, req, "loadgen.late", due, t.connect);
        tracer.record(id, req, "cli.handshake", t.connect, t.handshake);
        for &(sent, acked) in &t.frames {
            tracer.record(id, req, "cli.frame", sent, acked);
        }
        tracer.record(id, req, "cli.report", t.end_sent, t.report);
        tracer.record_as(
            id,
            0,
            req,
            format!("serve.session.{}", input.program),
            due,
            t.report,
        );
    }
    let record = Record {
        due,
        times,
        traced: tracer.is_some(),
    };
    (record, problem)
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Collects records from the client threads.
struct Collector {
    records: Mutex<(Vec<Record>, Vec<String>)>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            records: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    fn push(&self, (record, problem): (Record, Option<String>)) {
        let mut guard = self
            .records
            .lock()
            .expect("collector poisoned by a panicking client thread");
        guard.0.push(record);
        guard.1.extend(problem);
    }

    fn finish(self, start: Instant, offered_per_s: Option<f64>) -> Sessions {
        let (records, problems) = self
            .records
            .into_inner()
            .expect("collector poisoned by a panicking client thread");
        let last = records
            .iter()
            .filter_map(|r| r.times.as_ref().map(|t| t.report))
            .max()
            .unwrap_or(start);
        let wall_s = last.duration_since(start).as_secs_f64();
        Sessions {
            offered_per_s: offered_per_s.unwrap_or(records.len() as f64 / wall_s),
            records,
            problems,
        }
    }
}

/// The open loop: sessions rotate over `inputs` and fall due on a
/// seeded Poisson schedule; free clients take them in order.
fn open_loop(
    addr: &str,
    inputs: &[Input],
    schedule: &[f64],
    prefix: &str,
    tracer: Option<&Tracer>,
) -> Sessions {
    let collector = Collector::new();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&at) = schedule.get(i) else { break };
                let due = start + Duration::from_secs_f64(at);
                sleep_until(due);
                let input = &inputs[i % inputs.len()];
                let name = format!("{prefix}{i}");
                let tracer = tracer.filter(|_| i.is_multiple_of(2));
                collector.push(session(addr, &name, input, due, tracer, i as u64));
            });
        }
    });
    let span = schedule.last().copied().unwrap_or(0.0);
    collector.finish(start, Some(schedule.len() as f64 / span))
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After `seconds` and at least `min` sessions (or the overrun cap).
    Time { seconds: f64, min: usize },
    /// After this many sessions per client.
    PerClient(usize),
}

/// The closed loop: every client streams `input` back to back.
fn closed_loop(
    addr: &str,
    input: &Input,
    stop: Stop,
    prefix: &str,
    tracer: Option<&Tracer>,
) -> Sessions {
    let collector = Collector::new();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (collector, done) = (&collector, &done);
            scope.spawn(move || {
                let mut due = start;
                for k in 0.. {
                    let elapsed = start.elapsed().as_secs_f64();
                    let finished = match stop {
                        Stop::Time { seconds, min } => {
                            (elapsed >= seconds && done.load(Ordering::Relaxed) >= min)
                                || elapsed >= seconds * MAX_OVERRUN
                        }
                        Stop::PerClient(n) => k >= n,
                    };
                    if finished {
                        break;
                    }
                    let name = format!("{prefix}{client}-{k}");
                    let req = (k * CLIENTS + client) as u64;
                    // One client traced at a time, each every other session.
                    let tracer = tracer.filter(|_| (k + client).is_multiple_of(2));
                    collector.push(session(addr, &name, input, due, tracer, req));
                    done.fetch_add(1, Ordering::Relaxed);
                    due = Instant::now();
                }
            });
        }
    });
    collector.finish(start, None)
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(setup: &Sample, sessions: &Sessions) -> Result<Vec<Metric>, String> {
    Ok(vec![
        setup_metric(setup),
        Metric::percentile("op_ms_p50", "ms", &sessions.latency_ms(|_| true), 50.0)?,
    ])
}

/// Client-side layer metrics from traced sessions plus the drained
/// daemon's counters.
fn client_metrics(
    sessions: &Sessions,
    metrics: &pacer_collections::JsonValue,
    peak_rss_mb: f64,
    cpu_ms_per_session: f64,
    durable_frame_us: f64,
) -> Result<Vec<Metric>, String> {
    let handshake = Sample::new(
        sessions
            .ok()
            .map(|(_, t)| ms(t.handshake.duration_since(t.connect).as_secs_f64()))
            .collect(),
    );
    let acks = Sample::new(
        sessions
            .ok()
            .flat_map(|(_, t)| t.frames.iter())
            .map(|&(sent, acked)| ms(acked.duration_since(sent).as_secs_f64()))
            .collect(),
    );
    let reports = Sample::new(
        sessions
            .ok()
            .map(|(_, t)| ms(t.report.duration_since(t.end_sent).as_secs_f64()))
            .collect(),
    );
    let ack_p50 = acks.median()?;
    let stalls = acks
        .values()
        .iter()
        .filter(|&&a| a > 10.0 * ack_p50)
        .count();
    let count = |section, key| counter(metrics, section, key) as f64;
    Ok(vec![
        Metric::percentile("cli.handshake_ms_p50", "ms", &handshake, 50.0)?,
        Metric::percentile("cli.ack_ms_p50", "ms", &acks, 50.0)?,
        Metric::percentile("cli.ack_ms_p99", "ms", &acks, 99.0)?,
        Metric::value(
            "cli.ack_overhead_us_p50",
            "us",
            ack_p50 * 1e3 - durable_frame_us,
        ),
        Metric::value(
            "cli.ack_stall_permille",
            "1/1000",
            stalls as f64 * 1e3 / acks.len() as f64,
        ),
        Metric::percentile("cli.report_ms_p50", "ms", &reports, 50.0)?,
        Metric::value(
            "cli.connections",
            "count",
            count("transport", "connections"),
        ),
        Metric::value("cli.acks_sent", "count", count("transport", "acks_sent")),
        Metric::value("service.peak_rss_mb", "MB", peak_rss_mb),
        Metric::value("service.cpu_ms_per_session", "ms", cpu_ms_per_session),
        Metric::value(
            "service.sessions_admitted",
            "count",
            count("sessions", "admitted"),
        ),
        Metric::value(
            "service.sessions_completed",
            "count",
            count("sessions", "completed"),
        ),
        Metric::value(
            "service.frames_journaled",
            "count",
            count("transport", "frames_journaled"),
        ),
    ])
}

/// How late the generator started sessions, and the rate it offered.
fn loadgen_metrics(sessions: &Sessions) -> Result<Vec<Metric>, String> {
    let late = Sample::new(
        sessions
            .ok()
            .map(|(r, t)| ms(t.connect.duration_since(r.due).as_secs_f64()))
            .collect(),
    );
    Ok(vec![
        Metric::percentile("loadgen.late_ms_p75", "ms", &late, 75.0)?,
        Metric::value("loadgen.offered_ops_per_s", "1/s", sessions.offered_per_s),
    ])
}

/// Stops the daemon after its last report: reads its peak RSS, drains
/// it with SIGTERM, and checks its exit code and ledger.
/// The daemon's CPU time per session since it read `start_cpu`, in ms.
fn cpu_ms_per_session(daemon: &Daemon, start_cpu: f64, sessions: usize) -> Result<f64, String> {
    Ok((daemon.cpu_s()? - start_cpu) * 1e3 / sessions as f64)
}

fn drain(
    mut daemon: Daemon,
    sent: usize,
    report: &mut Report,
) -> Result<(pacer_collections::JsonValue, f64), String> {
    let rss = daemon.peak_rss_mb()?;
    let stopped = daemon.stop()?;
    report.fail(check_drained(&stopped, sent as u64));
    Ok((stopped.metrics, rss))
}

/// Runs `phase` untraced for the end-to-end metrics, or traced — every
/// other session recording spans — followed by the drained daemon's
/// counters and the layer pass.
fn workload(
    ctx: &Ctx,
    set: InputSet,
    name: &str,
    tracer: &Tracer,
    phase: impl Fn(&ServeEnv, f64, &str, Option<&Tracer>) -> Sessions,
) -> Result<Report, String> {
    let mut report = Report::default();
    if !ctx.traced {
        let (serve, setup) = repeated_setup(|i| start(ctx, set, &format!("{name}-{i}")))?;
        check_identity(set, &serve.env.inputs, ctx.seed)?;
        report.fail(serve.env.problems.iter().cloned());
        let sessions = phase(&serve, ctx.seconds, "m", None);
        report.attempted = sessions.records.len() as u64;
        report.fail(sessions.problems.iter().cloned());
        report.metrics = end_to_end(&setup, &sessions)?;
        let sent = sessions.records.len();
        drain(serve.daemon, sent, &mut report)?;
        return Ok(report);
    }
    let serve = start(ctx, set, name)?;
    check_identity(set, &serve.env.inputs, ctx.seed)?;
    report.fail(serve.env.problems.iter().cloned());
    let start_cpu = serve.daemon.cpu_s()?;
    let traced = phase(&serve, ctx.seconds, "t", Some(tracer));
    let sent = traced.records.len();
    report.attempted = sent as u64;
    report.fail(traced.problems.iter().cloned());
    let cpu_ms = cpu_ms_per_session(&serve.daemon, start_cpu, sent)?;
    let ServeEnv { daemon, env } = serve;
    let (daemon_metrics, rss) = drain(daemon, sent, &mut report)?;

    let layer = layers::measure(ctx, env.scratch.path(), &env.inputs, true, tracer)?;
    report.fail(layer.problems);
    let mut metrics = layer.metrics;
    metrics.extend(client_metrics(
        &traced,
        &daemon_metrics,
        rss,
        cpu_ms,
        layer.model.durable_frame_us,
    )?);
    metrics.extend(loadgen_metrics(&traced)?);
    metrics.push(Metric::value(
        "tracing.overhead_pct",
        "%",
        (traced.latency_ms(|r| r.traced).median()? / traced.latency_ms(|r| !r.traced).median()?
            - 1.0)
            * 100.0,
    ));
    metrics.push(layers::coverage(
        &tracer.spans(),
        "serve.session.",
        &layer.model,
        &env.inputs,
    ));
    report.metrics = metrics;
    Ok(report)
}

/// `serve-short`: Test-scale sessions at r = 3% on a Poisson schedule.
pub fn short(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    workload(
        ctx,
        TEST_R3,
        "serve-short",
        tracer,
        |serve, seconds, prefix, tracer| {
            let count = (SHORT_RATE * seconds).round() as usize;
            let seed = pacer_prng::derive_seed(ctx.seed, prefix.as_bytes()[0].into());
            let schedule = poisson_schedule(seed, SHORT_RATE, count);
            open_loop(
                &serve.daemon.addr,
                &serve.env.inputs,
                &schedule,
                prefix,
                tracer,
            )
        },
    )
}

fn long_input(env: &Env) -> &Input {
    env.inputs
        .iter()
        .find(|i| i.program == LONG_PROGRAM)
        .expect("every input set records hsqldb")
}

/// `serve-long`: back-to-back hsqldb r = 3% sessions on every client.
pub fn long(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    workload(
        ctx,
        PAPER_R3,
        "serve-long",
        tracer,
        |serve, seconds, prefix, tracer| {
            let min = if tracer.is_some() {
                min_traced_ops()
            } else {
                min_ops()
            };
            let stop = Stop::Time { seconds, min };
            closed_loop(
                &serve.daemon.addr,
                long_input(&serve.env),
                stop,
                prefix,
                tracer,
            )
        },
    )
}

/// The serve probe of a traced replay run: a daemon fed [`PROBE_SESSIONS`]
/// hsqldb sessions per client from the replay workload's own inputs, so
/// every traced run reports the service-side layers.
pub fn probe(
    ctx: &Ctx,
    env: &Env,
    durable_frame_us: f64,
    tracer: &Tracer,
) -> Result<Report, String> {
    let dir = env.scratch.path().join("probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let daemon = Daemon::start(&ctx.pacer, &dir)?;
    let start_cpu = daemon.cpu_s()?;
    let sessions = closed_loop(
        &daemon.addr,
        long_input(env),
        Stop::PerClient(PROBE_SESSIONS),
        "p",
        Some(tracer),
    );
    let mut report = Report {
        attempted: sessions.records.len() as u64,
        ..Report::default()
    };
    report.fail(sessions.problems.iter().cloned());
    let sent = sessions.records.len();
    let cpu_ms = cpu_ms_per_session(&daemon, start_cpu, sent)?;
    let (metrics, rss) = drain(daemon, sent, &mut report)?;
    report.metrics = client_metrics(&sessions, &metrics, rss, cpu_ms, durable_frame_us)?;
    Ok(report)
}
