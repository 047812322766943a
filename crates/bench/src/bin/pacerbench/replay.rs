//! `replay-r3` and `replay-r100`: passes of `pacer replay --detector
//! pacer` over the four recorded programs, one process per input, one
//! pass after another on a single thread (a closed loop).

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::daemon::Scratch;
use crate::inputs::{self, Input, InputSet};
use crate::spans::Tracer;
use crate::stats::{min_samples, Sample};
use crate::{layers, repeated_setup, serve, setup_metric, Ctx, Metric, Report};

/// A phase runs past `--seconds` until its percentiles have ten samples
/// beyond them, up to [`MAX_OVERRUN`] times `--seconds`.
pub const MAX_OVERRUN: f64 = 3.0;

/// Operations an untraced phase needs: enough for `op_ms_p50`.
pub fn min_ops() -> usize {
    min_samples(50.0)
}

/// Operations a traced phase needs: enough for the median of each half
/// (traced and untraced) and for `loadgen.late_ms_p75` over both.
pub fn min_traced_ops() -> usize {
    (2 * min_samples(50.0)).max(min_samples(75.0))
}

/// Recorded inputs with their scratch directory.
pub struct Env {
    pub inputs: Vec<Input>,
    /// Oracle failures found while preparing the references.
    pub problems: Vec<String>,
    pub scratch: Scratch,
}

impl Env {
    /// Records `set` and prepares the references.
    pub fn prepare(ctx: &Ctx, set: InputSet, name: &str) -> Result<Env, String> {
        let scratch = Scratch::create(&ctx.work, name)?;
        let (inputs, problems) = inputs::prepare(&ctx.pacer, scratch.path(), set, ctx.seed)?;
        Ok(Env {
            inputs,
            problems,
            scratch,
        })
    }
}

/// The measured passes of one phase.
#[derive(Default)]
pub struct Passes {
    /// Wall time of each pass, in ms.
    pub pass_ms: Vec<f64>,
    /// Whether each pass recorded spans.
    pub traced: Vec<bool>,
    /// Per input (in [`inputs::PROGRAMS`] order), each process's ms.
    pub process_ms: Vec<Vec<f64>>,
    /// Gap between one pass ending and the next starting, in ms.
    pub late_ms: Vec<f64>,
    pub wall_s: f64,
    pub attempted: u64,
    pub problems: Vec<String>,
}

/// Replays every input once per pass until `seconds` have passed and at
/// least `min_passes` passes ran. With a tracer, every other pass is a
/// span whose children are its processes, spawn to exit; the passes in
/// between are the untraced baseline for `tracing.overhead_pct`. Each
/// traced pass is followed, outside its span, by one run of the
/// in-process pipeline per input (a `cli.replay_pipeline.<program>`
/// root span), so `tracing.coverage_pct` compares every process with
/// work done moments later, and drift of the host's speed cancels.
pub fn passes(
    ctx: &Ctx,
    inputs: &[Input],
    seconds: f64,
    min_passes: usize,
    tracer: Option<&Tracer>,
) -> Passes {
    let mut out = Passes {
        process_ms: vec![Vec::new(); inputs.len()],
        ..Passes::default()
    };
    let start = Instant::now();
    let mut previous_end = start;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && out.pass_ms.len() >= min_passes;
        if enough || elapsed >= seconds * MAX_OVERRUN {
            break;
        }
        let pass_start = Instant::now();
        out.late_ms
            .push(ms(pass_start.duration_since(previous_end).as_secs_f64()));
        let req = out.pass_ms.len() as u64;
        let tracer = tracer.filter(|_| req.is_multiple_of(2));
        let pass_id = tracer.map_or(0, Tracer::id);
        for (i, input) in inputs.iter().enumerate() {
            let t0 = Instant::now();
            let result = Command::new(&ctx.pacer)
                .arg("replay")
                .arg(&input.path)
                .args(["--detector", "pacer"])
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output();
            let t1 = Instant::now();
            out.attempted += 1;
            out.process_ms[i].push(ms(t1.duration_since(t0).as_secs_f64()));
            if let Some(tracer) = tracer {
                tracer.record(
                    pass_id,
                    req,
                    format!("cli.replay.{}", input.program),
                    t0,
                    t1,
                );
            }
            match result {
                Ok(o) if o.status.success() && o.stdout == input.reference => {}
                Ok(o) if !o.status.success() => out
                    .problems
                    .push(format!("replay of {} exited {}", input.program, o.status)),
                Ok(_) => out.problems.push(format!(
                    "replay of {} differs from its reference",
                    input.program
                )),
                Err(e) => out
                    .problems
                    .push(format!("cannot spawn replay of {}: {e}", input.program)),
            }
        }
        let pass_end = Instant::now();
        out.pass_ms
            .push(ms(pass_end.duration_since(pass_start).as_secs_f64()));
        out.traced.push(tracer.is_some());
        if let Some(tracer) = tracer {
            tracer.record_as(pass_id, 0, req, "replay.pass", pass_start, pass_end);
            for input in inputs {
                let t0 = Instant::now();
                layers::pipeline(input);
                let name = format!("cli.replay_pipeline.{}", input.program);
                tracer.record(0, req, name, t0, Instant::now());
            }
        }
        previous_end = Instant::now();
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Seconds to milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// A replay workload over input set `set`.
pub fn run(ctx: &Ctx, set: InputSet, tracer: &Tracer) -> Result<Report, String> {
    let name = format!("replay-{}", set.key);
    if ctx.traced {
        let env = Env::prepare(ctx, set, &name)?;
        inputs::check_identity(set, &env.inputs, ctx.seed)?;
        return traced(ctx, &env, tracer);
    }
    let (env, setup) = repeated_setup(|i| Env::prepare(ctx, set, &format!("{name}-{i}")))?;
    inputs::check_identity(set, &env.inputs, ctx.seed)?;
    let run = passes(ctx, &env.inputs, ctx.seconds, min_ops(), None);
    let mut report = Report {
        attempted: run.attempted,
        ..Report::default()
    };
    report.fail(env.problems.iter().cloned());
    report.fail(run.problems);
    report.metrics = vec![
        setup_metric(&setup),
        Metric::percentile("op_ms_p50", "ms", &Sample::new(run.pass_ms), 50.0)?,
    ];
    Ok(report)
}

/// The traced run: passes with every other one traced, the in-process
/// layer pass, and a short serve probe on the same inputs for the
/// service-side layers.
fn traced(ctx: &Ctx, env: &Env, tracer: &Tracer) -> Result<Report, String> {
    let run = passes(
        ctx,
        &env.inputs,
        ctx.seconds,
        min_traced_ops(),
        Some(tracer),
    );
    let mut report = Report {
        attempted: run.attempted,
        ..Report::default()
    };
    report.fail(env.problems.iter().cloned());
    report.fail(run.problems);

    let layer = layers::measure(ctx, env.scratch.path(), &env.inputs, false, tracer)?;
    report.fail(layer.problems);
    let probe = serve::probe(ctx, env, layer.model.durable_frame_us, tracer)?;
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.problems.extend(probe.problems);

    let mut metrics = layer.metrics;
    for (input, samples) in env.inputs.iter().zip(&run.process_ms) {
        metrics.push(Metric::percentile(
            format!("cli.replay_ms_p50.{}", input.program),
            "ms",
            &Sample::new(samples.clone()),
            50.0,
        )?);
    }
    metrics.extend(probe.metrics);
    metrics.push(Metric::percentile(
        "loadgen.late_ms_p75",
        "ms",
        &Sample::new(run.late_ms),
        75.0,
    )?);
    metrics.push(Metric::value(
        "loadgen.offered_ops_per_s",
        "1/s",
        run.pass_ms.len() as f64 / run.wall_s,
    ));
    let half = |traced: bool| {
        let ms = run.pass_ms.iter().zip(&run.traced);
        Sample::new(ms.filter(|(_, &t)| t == traced).map(|(&p, _)| p).collect()).median()
    };
    metrics.push(Metric::value(
        "tracing.overhead_pct",
        "%",
        (half(true)? / half(false)? - 1.0) * 100.0,
    ));
    metrics.push(layers::coverage(
        &tracer.spans(),
        "replay.pass",
        &layer.model,
        &env.inputs,
    ));
    report.metrics = metrics;
    Ok(report)
}
