//! The traced run's in-process layer pass: the public library calls
//! each layer of `pacer replay` and `pacer serve` makes, timed one at a
//! time on the workload's own inputs, plus the `cli` start-up cost.
//!
//! | layer          | call timed                                        |
//! |----------------|---------------------------------------------------|
//! | `trace.binary` | `split_frames`, `decode_frame_payload`, `AnyTraceReader` |
//! | `trace.stream` | `ValidatedActions` over decoded actions           |
//! | `core`         | `PacerDetector::on_action`                        |
//! | `fasttrack`    | `FastTrackDetector::on_action`                    |
//! | `service`      | `serve_sessions`, `ServiceHandle::durable_frame`, `durable_close` |
//! | `cli`          | `pacer replay` of a header-only trace; the streamed decode → validate → PACER pipeline |

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use pacer_core::PacerDetector;
use pacer_fasttrack::FastTrackDetector;
use pacer_harness::{DurableOpen, FrameAck, ServeConfig, ServeDetectorKind};
use pacer_obs::{Observed, Registry};
use pacer_trace::{Action, AnyTraceReader, Detector, ValidatedActions};

use crate::inputs::{self, Input};
use crate::replay::ms;
use crate::spans::{self_times, Span, Tracer};
use crate::stats::{min_samples, Sample};
use crate::Metric;

/// Each timed call runs at least this many times, and for at least
/// [`MIN_TIME_S`] in total; per-event costs are medians over the calls.
const MIN_REPS: usize = 5;
const MIN_TIME_S: f64 = 1.0;

/// `pacer replay` spawns per start-up or per-input process sample.
const CLI_SPAWNS: usize = 20;

/// Durable sessions `service.durable_close_ms_p50` is taken over.
const DURABLE_SESSIONS: usize = 20;

/// `write_all` + `sync_data` calls behind the WAL floor.
const WAL_SYNCS: usize = 200;

/// Bytes per WAL-floor write: about half a frame.
const WAL_WRITE_BYTES: usize = 16 << 10;

/// Per-unit costs the coverage model attributes to spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Model {
    pub startup_ms: f64,
    pub durable_frame_us: f64,
    pub wal_floor_us: f64,
    pub ingest2_ns: f64,
}

/// What the layer pass produced.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub model: Model,
    pub problems: Vec<String>,
}

/// Calls `f` at least [`MIN_REPS`] times and for at least
/// [`MIN_TIME_S`], one span per call under `parent`; returns the
/// seconds each call took.
fn time_reps<T>(tracer: &Tracer, parent: u64, name: &str, mut f: impl FnMut() -> T) -> Sample {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < MIN_TIME_S {
        let t0 = Instant::now();
        black_box(f());
        let t1 = Instant::now();
        tracer.record(parent, times.len() as u64, name, t0, t1);
        times.push(t1.duration_since(t0).as_secs_f64());
    }
    Sample::new(times)
}

/// A per-unit cost: the median call time divided by `units`, scaled.
fn per_unit(name: &str, unit: &'static str, calls: &Sample, units: f64, scale: f64) -> Metric {
    let per = |s: f64| s * scale / units;
    let q = |p| crate::stats::nearest_rank(calls.values(), p).unwrap_or(0.0);
    Metric {
        name: name.into(),
        value: per(q(50.0)),
        unit,
        n: calls.len(),
        iqr: per(q(75.0)) - per(q(25.0)),
    }
}

/// Spawns `pacer replay PATH` [`CLI_SPAWNS`] times; ms per process.
fn replay_spawns(pacer: &Path, path: &Path, expect: Option<&[u8]>) -> Result<Sample, String> {
    let mut times = Vec::new();
    for _ in 0..CLI_SPAWNS {
        let t0 = Instant::now();
        let out = inputs::pacer_output(
            pacer,
            &[
                "replay".as_ref(),
                path.as_os_str(),
                "--detector".as_ref(),
                "pacer".as_ref(),
            ],
        )?;
        times.push(ms(t0.elapsed().as_secs_f64()));
        if expect.is_some_and(|e| e != out.as_slice()) {
            return Err(format!(
                "replay of {} differs from its reference",
                path.display()
            ));
        }
    }
    Ok(Sample::new(times))
}

/// Runs the layer pass over `inputs`. With `replay_cli`, also times
/// each input's `pacer replay` process (a replay workload takes those
/// from its own traced passes instead).
pub fn measure(
    ctx: &crate::Ctx,
    dir: &Path,
    inputs: &[Input],
    replay_cli: bool,
    tracer: &Tracer,
) -> Result<Layers, String> {
    let root = tracer.id();
    let root_start = Instant::now();
    let mut metrics = Vec::new();
    let mut problems = Vec::new();
    let events: u64 = inputs.iter().map(|i| i.events).sum();
    let bytes: usize = inputs.iter().map(|i| i.bytes.len()).sum();
    let decoded: Vec<Vec<Action>> = inputs
        .iter()
        .map(|i| inputs::decode(&i.bytes))
        .collect::<Result<_, _>>()?;
    let e = events as f64;

    // cli: process start-up, measured on a trace that is only a header.
    let empty = dir.join("header-only.ptrace");
    std::fs::write(&empty, &inputs[0].bytes[..8])
        .map_err(|err| format!("cannot write {}: {err}", empty.display()))?;
    let startup = replay_spawns(&ctx.pacer, &empty, None)?;
    metrics.push(Metric::percentile(
        "cli.startup_ms_p50",
        "ms",
        &startup,
        50.0,
    )?);
    if replay_cli {
        for input in inputs {
            let sample = replay_spawns(&ctx.pacer, &input.path, Some(&input.reference))?;
            metrics.push(Metric::percentile(
                format!("cli.replay_ms_p50.{}", input.program),
                "ms",
                &sample,
                50.0,
            )?);
        }
    }

    // trace.binary: frame checksums, per-frame verify, whole decode.
    let checksum = time_reps(tracer, root, "trace.binary.split_frames", || {
        inputs
            .iter()
            .map(|i| pacer_trace::binary::split_frames(&i.bytes).map(|s| s.frames.len()))
            .collect::<Vec<_>>()
    });
    metrics.push(per_unit(
        "trace.binary.checksum_ns_per_byte",
        "ns/byte",
        &checksum,
        bytes as f64,
        1e9,
    ));
    let mut verify_us = Vec::new();
    while verify_us.len() < 10 * min_samples(50.0) {
        for input in inputs {
            for (offset, frame) in input.frame_slices().into_iter().enumerate() {
                let t0 = Instant::now();
                let decoded = pacer_trace::binary::decode_frame_payload(frame, offset as u64 + 1);
                verify_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if let Err(err) = black_box(decoded) {
                    return Err(format!("{}: frame {offset}: {err}", input.program));
                }
            }
        }
    }
    metrics.push(Metric::percentile(
        "trace.binary.frame_verify_us_p50",
        "us",
        &Sample::new(verify_us),
        50.0,
    )?);
    let decode = time_reps(tracer, root, "trace.binary.decode", || {
        let mut n = 0u64;
        for input in inputs {
            let reader = AnyTraceReader::new(&input.bytes[..]).expect("decoded at set-up");
            for action in reader {
                black_box(action.expect("decoded at set-up"));
                n += 1;
            }
        }
        n
    });
    let decode = per_unit(
        "trace.binary.decode_ns_per_event",
        "ns/event",
        &decode,
        e,
        1e9,
    );
    let decode_ns = decode.value;
    metrics.push(decode);
    metrics.push(Metric::value(
        "trace.binary.bytes_per_event",
        "bytes/event",
        bytes as f64 / e,
    ));
    let frames: usize = inputs.iter().map(|i| i.frames.len()).sum();
    metrics.push(Metric::value("trace.binary.frames", "count", frames as f64));

    // trace.stream: validation over already-decoded actions.
    let validate = time_reps(tracer, root, "trace.stream.validate", || {
        for actions in &decoded {
            let mut v = ValidatedActions::new(actions.iter().copied());
            for action in v.by_ref() {
                black_box(action);
            }
            assert!(v.error().is_none(), "validated at set-up");
        }
    });
    let validate = per_unit(
        "trace.stream.validate_ns_per_event",
        "ns/event",
        &validate,
        e,
        1e9,
    );
    let validate_ns = validate.value;
    metrics.push(validate);

    // core and fasttrack: the detectors over already-decoded actions.
    let mut pacer_stats = Vec::new();
    let pacer = time_reps(tracer, root, "core.pacer", || {
        pacer_stats.clear();
        for actions in &decoded {
            let mut d = PacerDetector::new();
            for action in actions {
                d.on_action(action);
            }
            pacer_stats.push((*d.stats(), d.races().len()));
        }
    });
    let fasttrack = time_reps(tracer, root, "fasttrack", || {
        for actions in &decoded {
            let mut d = FastTrackDetector::new();
            for action in actions {
                d.on_action(action);
            }
            black_box(d.races().len());
        }
    });
    let pacer_ns = per_unit("core.pacer_ns_per_event", "ns/event", &pacer, e, 1e9);
    let fasttrack_ns = per_unit("fasttrack.ns_per_event", "ns/event", &fasttrack, e, 1e9);
    let gap = pacer_ns.value / fasttrack_ns.value;
    let sum = |f: &dyn Fn(&pacer_core::PacerStats) -> u64| {
        pacer_stats.iter().map(|(s, _)| f(s)).sum::<u64>() as f64
    };
    let counts: [(&str, f64); 9] = [
        (
            "core.joins_slow",
            sum(&|s| s.joins.sampling_slow + s.joins.non_sampling_slow),
        ),
        (
            "core.joins_fast",
            sum(&|s| s.joins.sampling_fast + s.joins.non_sampling_fast),
        ),
        (
            "core.copies_deep",
            sum(&|s| s.copies.sampling_deep + s.copies.non_sampling_deep),
        ),
        (
            "core.copies_shallow",
            sum(&|s| s.copies.sampling_shallow + s.copies.non_sampling_shallow),
        ),
        (
            "core.reads_slow",
            sum(&|s| s.reads.sampling_slow + s.reads.non_sampling_slow),
        ),
        (
            "core.writes_slow",
            sum(&|s| s.writes.sampling_slow + s.writes.non_sampling_slow),
        ),
        ("core.cow_clones", sum(&|s| s.cow_clones)),
        ("core.sample_periods", sum(&|s| s.sample_periods)),
        (
            "core.dynamic_races",
            pacer_stats.iter().map(|(_, r)| *r as f64).sum(),
        ),
    ];
    for (name, value) in counts {
        metrics.push(Metric::value(name, "count", value));
    }
    metrics.push(Metric::value("core.full_rate_gap", "ratio", gap));

    // cli: the same layers composed the way `pacer replay` drives them.
    let pipelined = time_reps(tracer, root, "cli.replay_pipeline", || {
        inputs.iter().for_each(pipeline);
    });
    metrics.push(per_unit(
        "cli.replay_pipeline_ns_per_event",
        "ns/event",
        &pipelined,
        e,
        1e9,
    ));

    // service: whole-session ingest at one and two shards.
    let sessions: Vec<(String, Vec<u8>)> = inputs
        .iter()
        .map(|i| (i.program.to_string(), i.bytes.clone()))
        .collect();
    let mut ingest_ns = [0.0; 2];
    for (slot, shards) in [(0, 1), (1, 2)] {
        let mut cfg = ServeConfig::new(ServeDetectorKind::Pacer);
        cfg.shards = shards;
        let name = format!("service.ingest.shards{shards}");
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < MIN_TIME_S {
            let batch = sessions.clone();
            let t0 = Instant::now();
            let out = pacer_harness::serve_sessions(&cfg, batch, 1)
                .map_err(|err| format!("{name}: {err}"))?;
            let t1 = Instant::now();
            tracer.record(root, times.len() as u64, name.as_str(), t0, t1);
            times.push(t1.duration_since(t0).as_secs_f64());
            for report in &out.reports {
                let input = inputs.iter().find(|i| i.program == report.name);
                if input.map(|i| i.reference.as_slice()) != Some(report.body.as_bytes()) {
                    problems.push(format!(
                        "{name}: session {} differs from `pacer replay`",
                        report.name
                    ));
                }
            }
            if shards == 2 && times.len() == 1 {
                let shard_events: u64 = out.shard_counters.iter().map(|c| c.events).sum();
                let session_events: u64 = out.reports.iter().map(|r| r.events).sum();
                metrics.push(Metric::value(
                    "service.broadcast_amplification",
                    "ratio",
                    shard_events as f64 / session_events as f64,
                ));
            }
        }
        let metric = per_unit(
            &format!("service.ingest_ns_per_event.shards{shards}"),
            "ns/event",
            &Sample::new(times),
            e,
            1e9,
        );
        ingest_ns[slot] = metric.value;
        metrics.push(metric);
    }
    let model = Model {
        startup_ms: startup.median()?,
        ingest2_ns: ingest_ns[1],
        ..Model::default()
    };
    metrics.push(Metric::value(
        "service.route_ns_per_event",
        "ns/event",
        ingest_ns[1] - (decode_ns + validate_ns + pacer_ns.value),
    ));
    metrics.push(pacer_ns);
    metrics.push(fasttrack_ns);

    // service: the durable path the TCP transport drives, with a WAL.
    let wal = dir.join("layers-wal");
    let durable = durable_pass(&wal, inputs)?;
    problems.extend(durable.problems);
    let frame_us = Sample::new(durable.frame_us);
    metrics.push(Metric::percentile(
        "service.durable_frame_us_p50",
        "us",
        &frame_us,
        50.0,
    )?);
    metrics.push(Metric::percentile(
        "service.durable_frame_us_p99",
        "us",
        &frame_us,
        99.0,
    )?);
    metrics.push(Metric::percentile(
        "service.durable_close_ms_p50",
        "ms",
        &Sample::new(durable.close_ms),
        50.0,
    )?);
    let floor = wal_floor(&wal)?;
    metrics.push(Metric::percentile(
        "service.wal_sync_floor_us_p50",
        "us",
        &floor,
        50.0,
    )?);
    let model = Model {
        durable_frame_us: frame_us.median()?,
        wal_floor_us: floor.median()?,
        ..model
    };
    tracer.record_as(root, 0, 0, "layers", root_start, Instant::now());
    Ok(Layers {
        metrics,
        model,
        problems,
    })
}

/// `pacer replay`'s layers composed as it drives them, in process: one
/// streaming pass over `input`'s bytes, each event decoded, validated
/// and detected (through the disabled observability wrapper) before the
/// next is read. Composed, the layers usually cost more than apart:
/// interleaved per event, they compete for caches and branch predictors
/// that each has to itself in its own loop.
pub fn pipeline(input: &Input) {
    let reader = AnyTraceReader::new(&input.bytes[..]).expect("decoded at set-up");
    let actions = reader.map(|a| a.expect("decoded at set-up"));
    let mut validated = ValidatedActions::new(actions);
    let mut detector = Observed::new(PacerDetector::new(), Registry::disabled());
    for action in validated.by_ref() {
        detector.on_action(&action);
    }
    assert!(validated.error().is_none(), "validated at set-up");
    black_box(detector.races().len());
}

struct Durable {
    frame_us: Vec<f64>,
    close_ms: Vec<f64>,
    problems: Vec<String>,
}

/// Streams the largest input through `durable_open`/`durable_frame`/
/// `durable_close` until there are [`DURABLE_SESSIONS`] closes and
/// enough frames for a p99.
fn durable_pass(wal: &Path, inputs: &[Input]) -> Result<Durable, String> {
    let input = inputs
        .iter()
        .max_by_key(|i| i.bytes.len())
        .ok_or("no inputs")?;
    let frames = input.frame_slices();
    let mut cfg = ServeConfig::new(ServeDetectorKind::Pacer);
    cfg.shards = 2;
    cfg.wal = Some(wal.to_path_buf());
    let run = pacer_harness::run_service(&cfg, |handle| {
        let mut out = Durable {
            frame_us: Vec::new(),
            close_ms: Vec::new(),
            problems: Vec::new(),
        };
        let mut k = 0;
        while out.close_ms.len() < DURABLE_SESSIONS || out.frame_us.len() < min_samples(99.0) {
            let name = format!("layers-{k}");
            k += 1;
            let DurableOpen::Started { epoch } = handle.durable_open(&name, false) else {
                out.problems
                    .push(format!("durable_open({name}) did not start a session"));
                break;
            };
            for (offset, frame) in frames.iter().enumerate() {
                let t0 = Instant::now();
                let ack = handle.durable_frame(&name, epoch, offset as u64, frame);
                out.frame_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if !matches!(ack, Ok(FrameAck::Applied { applied }) if applied == offset as u64 + 1)
                {
                    out.problems
                        .push(format!("durable_frame({name}, {offset}) was not applied"));
                }
            }
            let t0 = Instant::now();
            let closed = handle.durable_close(&name, epoch, frames.len() as u64);
            out.close_ms.push(ms(t0.elapsed().as_secs_f64()));
            match closed {
                Ok(report) if report.body.as_bytes() == input.reference => {}
                _ => out.problems.push(format!(
                    "durable_close({name}) did not report `pacer replay`'s output"
                )),
            }
        }
        Ok(out)
    });
    let (output, durable) = run.map_err(|e| format!("durable pass: {e}"))?;
    let _ = std::fs::remove_dir_all(wal);
    if !output.sessions.conserved() {
        return Err("durable pass: session ledger not conserved".into());
    }
    Ok(durable)
}

/// The environment's floor under a WAL append: this process's own
/// 16 KiB `write_all` + `sync_data` in the WAL's directory, in µs.
fn wal_floor(wal: &Path) -> Result<Sample, String> {
    std::fs::create_dir_all(wal).map_err(|e| format!("cannot create {}: {e}", wal.display()))?;
    let path = wal.join("floor");
    let mut file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let block = vec![0xa5u8; WAL_WRITE_BYTES];
    let mut times = Vec::new();
    for _ in 0..WAL_SYNCS {
        let t0 = Instant::now();
        file.write_all(&block)
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot sync {}: {e}", path.display()))?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = std::fs::remove_dir_all(wal);
    Ok(Sample::new(times))
}

/// `tracing.coverage_pct`: the share of the traced operations' wall time
/// (root spans named `root_prefix…`) that the layer pass's per-unit
/// costs explain, child span by child span:
///
/// * a `pacer replay` process: start-up plus the [`pipeline`] run on
///   the same input right after its pass (span
///   `cli.replay_pipeline.<program>` with the pass's `req`);
/// * a handshake: one WAL-floor sync (the segment header);
/// * a frame round trip: one `durable_frame`;
/// * `END` → `REPORT`: the session's events times two-shard ingest.
///
/// Waiting — the accept poll, lateness, the network — is what it leaves
/// unexplained.
pub fn coverage(spans: &[Span], root_prefix: &str, model: &Model, inputs: &[Input]) -> Metric {
    let events: BTreeMap<&str, f64> = inputs
        .iter()
        .map(|i| (i.program, i.events as f64))
        .collect();
    let pipelines: BTreeMap<(u64, &str), f64> = spans
        .iter()
        .filter_map(|s| {
            let program = s.name.strip_prefix("cli.replay_pipeline.")?;
            Some(((s.req, program), (s.end_ns - s.start_ns) as f64))
        })
        .collect();
    let roots: BTreeMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.starts_with(root_prefix))
        .map(|s| (s.id, s))
        .collect();
    let (mut total, mut explained) = (0.0, 0.0);
    for root in roots.values() {
        total += (root.end_ns - root.start_ns) as f64;
    }
    for child in spans.iter().filter(|s| roots.contains_key(&s.parent)) {
        let program = roots[&child.parent].name.rsplit('.').next().unwrap_or("");
        let model_ns = match child.name.as_str() {
            "cli.handshake" => model.wal_floor_us * 1e3,
            "cli.frame" => model.durable_frame_us * 1e3,
            "cli.report" => events.get(program).copied().unwrap_or(0.0) * model.ingest2_ns,
            name => match name.strip_prefix("cli.replay.") {
                Some(p) => {
                    model.startup_ms * 1e6 + pipelines.get(&(child.req, p)).copied().unwrap_or(0.0)
                }
                None => 0.0,
            },
        };
        explained += model_ns.min((child.end_ns - child.start_ns) as f64);
    }
    Metric {
        name: "tracing.coverage_pct".into(),
        value: if total > 0.0 {
            explained / total * 100.0
        } else {
            0.0
        },
        unit: "%",
        n: roots.len(),
        iqr: 0.0,
    }
}

/// Self time by span name, for the log.
pub fn render_self_times(spans: &[Span]) -> String {
    let mut out = String::from("  span self times (ms):\n");
    let _ = writeln!(
        out,
        "    {:<32} {:>8} {:>12} {:>12}",
        "name", "count", "total", "self"
    );
    for (name, t) in self_times(spans) {
        let _ = writeln!(
            out,
            "    {:<32} {:>8} {:>12.2} {:>12.2}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    out
}
