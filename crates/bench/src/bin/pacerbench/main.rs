//! `pacerbench`: the end-to-end benchmark of the paths users run —
//! `pacer replay FILE.ptrace` and `pacer serve --tcp` sessions — with a
//! traced run that splits them into layers. It drives the real `pacer`
//! binary, found next to its own executable, from outside. README.md in
//! this directory has the workloads, the metrics and how to compare
//! two commits.
//!
//! ```text
//! pacerbench [--workload NAME] [--seed N] [--seconds S]
//!            [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics of the run — the end-to-end ones, or with `--trace 1` the
//! per-layer ones.

mod daemon;
mod inputs;
mod layers;
mod replay;
mod serve;
mod spans;
mod stats;
mod wire;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::Sample;

/// The workloads, in the order a full run takes them.
const WORKLOADS: [&str; 4] = ["replay-r3", "replay-r100", "serve-short", "serve-long"];

/// Default measuring time per workload, in seconds.
const DEFAULT_SECONDS: f64 = 20.0;

/// An untraced run sets up at least [`SETUP_MIN_REPEATS`] times and for
/// at least [`SETUP_MIN_SECONDS`] (at most [`SETUP_MAX_REPEATS`] times);
/// `setup_s` is the median, so a set-up of a few milliseconds is as
/// steady as one of a second.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 50;

/// Scratch directories and span files live here, under the directory
/// the benchmark runs from.
const WORK_DIR: &str = ".pacerbench";

/// What every workload needs to know about the run.
pub struct Ctx {
    /// The `pacer` binary under test.
    pub pacer: PathBuf,
    /// Root for scratch directories.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count).
    pub n: usize,
    /// Quartile distance of those samples, in the metric's unit.
    pub iqr: f64,
}

impl Metric {
    /// A percentile of `sample`, refused when the tail is too thin.
    pub fn percentile(
        name: impl Into<String>,
        unit: &'static str,
        sample: &Sample,
        p: f64,
    ) -> Result<Metric, String> {
        let name = name.into();
        let value = sample.percentile(p).map_err(|e| format!("{name}: {e}"))?;
        Ok(Metric {
            name,
            value,
            unit,
            n: sample.len(),
            iqr: sample.iqr(),
        })
    }

    /// A single value: a count, a ratio, or a rate over the whole run.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n: 1,
            iqr: 0.0,
        }
    }
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the log (counted in `failed`).
    pub problems: Vec<String>,
}

impl Report {
    /// Records `problems` as failed operations.
    pub fn fail(&mut self, problems: impl IntoIterator<Item = String>) {
        for p in problems {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

/// Runs `setup` repeatedly, dropping each result before the next set-up
/// starts, and returns the last result with the set-up times.
pub fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Sample), String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPEATS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(times.len())?);
        times.push(t.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, Sample::new(times)))
}

/// The `setup_s` metric: the median of the set-up times.
pub fn setup_metric(times: &Sample) -> Metric {
    Metric {
        name: "setup_s".into(),
        value: times.middle().unwrap_or(0.0),
        unit: "s",
        n: times.len(),
        iqr: times.iqr(),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: pacerbench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out PATH]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload; traced runs return their spans too.
fn run_workload(ctx: &Ctx, name: &str) -> Result<(Report, Vec<spans::Span>), String> {
    let tracer = spans::Tracer::new();
    let mut report = match name {
        "replay-r3" => replay::run(ctx, inputs::PAPER_R3, &tracer),
        "replay-r100" => replay::run(ctx, inputs::PAPER_R100, &tracer),
        "serve-short" => serve::short(ctx, &tracer),
        "serve-long" => serve::long(ctx, &tracer),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if ctx.traced {
        // Group the per-layer metrics by layer.
        report.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    }
    Ok((report, tracer.spans()))
}

/// The human-readable table: every metric with its unit, sample count
/// and quartile distance.
fn render(workload: &str, report: &Report) -> String {
    let mut out = format!("== {workload}\n");
    for m in &report.metrics {
        let _ = writeln!(
            out,
            "  {:<36} {:>14.4} {:<10} n={:<6} iqr={:.4}",
            m.name, m.value, m.unit, m.n, m.iqr
        );
    }
    let _ = writeln!(
        out,
        "  attempted {} failed {}",
        report.attempted, report.failed
    );
    for p in report.problems.iter().take(10) {
        let _ = writeln!(out, "  FAILED: {p}");
    }
    out
}

/// The closing JSON line. Metric names are qualified with their
/// workload when one invocation ran several.
fn result_json(runs: &[(String, Report)]) -> Result<String, String> {
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (workload, report) in runs {
        attempted += report.attempted;
        failed += report.failed;
        for m in &report.metrics {
            if !m.value.is_finite() {
                return Err(format!("{workload}: {} is not finite", m.name));
            }
            let name = if runs.len() == 1 {
                m.name.clone()
            } else {
                format!("{workload}/{}", m.name)
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let pacer = exe.with_file_name("pacer");
    if !pacer.is_file() {
        return Err(format!(
            "{} not found: build it next to pacerbench (`cargo build --release -p pacer-cli`)",
            pacer.display()
        ));
    }
    let work = std::env::current_dir()
        .map_err(|e| format!("cannot read the working directory: {e}"))?
        .join(WORK_DIR);
    let ctx = Ctx {
        pacer,
        work,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut runs = Vec::new();
    let mut all_spans = Vec::new();
    for name in names {
        let (report, spans) = run_workload(&ctx, name)?;
        print!("{}", render(name, &report));
        if ctx.traced {
            print!("{}", layers::render_self_times(&spans));
        }
        all_spans.extend(spans);
        runs.push((name.to_string(), report));
    }
    if ctx.traced {
        let path = args.trace_out.unwrap_or_else(|| {
            let stem = args.workload.as_deref().unwrap_or("all");
            ctx.work
                .join(format!("spans-{stem}-seed{}.jsonl", ctx.seed))
        });
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, spans::to_jsonl(&all_spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let json = result_json(&runs)?;
    println!("{json}");
    Ok(runs.iter().all(|(_, r)| r.failed == 0))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pacerbench: {e}");
            ExitCode::from(2)
        }
    }
}
