//! A dependency-free benchmark harness: warmup, batch calibration,
//! median-of-N sampling, and machine-readable `BENCH_*.json` output.
//!
//! Replaces the external criterion dependency so the perf trajectory can
//! be measured fully offline. Each bench target builds a [`Bench`], calls
//! [`Bench::measure`] per case, prints the human-readable table, and
//! writes `BENCH_<name>.json` at the workspace root:
//!
//! ```json
//! {
//!   "bench": "detector_throughput",
//!   "schema": 1,
//!   "results": [
//!     { "id": "replay/fasttrack", "batch": 1, "samples": 11,
//!       "median_ns": 1.2e7, "q1_ns": 1.15e7, "q3_ns": 1.3e7,
//!       "min_ns": 1.1e7, "mean_ns": 1.25e7,
//!       "events": 24000, "ns_per_event": 500.0,
//!       "events_per_sec": 2.0e6 }
//!   ],
//!   "context": { "baseline_events_per_sec": { "replay/fasttrack": 1.4e6 } }
//! }
//! ```
//!
//! Timing methodology: a case is first run repeatedly to calibrate a batch
//! size whose wall time exceeds a floor (amortizing timer resolution and
//! warming caches/branch predictors), then `samples` batches are timed and
//! the per-iteration **median** is reported — robust to scheduler noise in
//! a way a mean is not. The quartiles `q1_ns` and `q3_ns` give the
//! spread: a difference between two medians smaller than `q3_ns − q1_ns`
//! is noise. `min_ns` and `mean_ns` are recorded too.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One measured case.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Case identifier, e.g. `"replay/fasttrack"`.
    pub id: String,
    /// Iterations per timed batch (calibrated).
    pub batch: u64,
    /// Timed batches.
    pub samples: usize,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// First quartile of the per-iteration times.
    pub q1_ns: f64,
    /// Third quartile of the per-iteration times.
    pub q3_ns: f64,
    /// Fastest per-iteration time observed.
    pub min_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Work items (events) processed per iteration, when meaningful.
    pub events: Option<u64>,
    /// `median_ns / events`.
    pub ns_per_event: Option<f64>,
    /// `events / median_seconds`.
    pub events_per_sec: Option<f64>,
}

/// A benchmark run: a named collection of measurements plus free-form
/// context entries, serializable to `BENCH_<name>.json`.
#[derive(Debug)]
pub struct Bench {
    name: String,
    samples: usize,
    min_batch_time: Duration,
    results: Vec<Measurement>,
    context: Vec<(String, String)>,
}

impl Bench {
    /// Creates a harness for bench target `name`, honoring `--quick` and
    /// `--samples N` from `args` (pass `std::env::args().skip(1)`).
    pub fn from_args(name: &str, args: impl Iterator<Item = String>) -> Self {
        let mut bench = Bench::new(name);
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    bench.samples = 5;
                    bench.min_batch_time = Duration::from_millis(1);
                }
                "--samples" => {
                    i += 1;
                    if let Some(n) = args.get(i).and_then(|s| s.parse().ok()) {
                        bench.samples = n;
                    }
                }
                // `cargo bench` forwards its own flags (e.g. --bench); ignore.
                _ => {}
            }
            i += 1;
        }
        bench
    }

    /// Creates a harness with default sampling (11 samples, ≥ 5 ms
    /// batches).
    #[must_use]
    pub fn new(name: &str) -> Self {
        Bench {
            name: name.to_string(),
            samples: 11,
            min_batch_time: Duration::from_millis(5),
            results: Vec::new(),
            context: Vec::new(),
        }
    }

    /// Overrides the number of timed batches.
    #[must_use]
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Records a free-form context entry emitted under `"context"` in the
    /// JSON. `value` must already be valid JSON (a number, string, or
    /// object).
    pub fn context_json(&mut self, key: &str, value: String) {
        self.context.push((key.to_string(), value));
    }

    /// Times `f`, reporting per-iteration statistics; `events` is the
    /// number of work items one `f()` call processes (enables ns/event
    /// and events/sec).
    pub fn measure(&mut self, id: &str, events: Option<u64>, mut f: impl FnMut()) {
        let batch = self.calibrate(&mut f);
        let per_iter = (0..self.samples)
            .map(|_| time_batch(batch, &mut f))
            .collect();
        self.record(id, events, batch, per_iter);
    }

    /// Times rows that are compared with each other, as [`measure`]
    /// times one: each row is calibrated alone, then every sample times
    /// one batch of each row in turn, so a burst of host noise lands on
    /// every row alike instead of on whichever row ran during it. Each
    /// round starts one row later than the last, so whatever a row
    /// leaves behind (a freed heap, a cold cache) falls on every row
    /// alike too. Each row is `(id, events, f)`.
    ///
    /// [`measure`]: Self::measure
    pub fn measure_rows<F: FnMut()>(
        &mut self,
        rows: impl IntoIterator<Item = (String, Option<u64>, F)>,
    ) {
        let mut rows: Vec<_> = rows.into_iter().collect();
        let batches: Vec<u64> = rows.iter_mut().map(|(_, _, f)| self.calibrate(f)).collect();
        let mut per_iter = vec![Vec::with_capacity(self.samples); rows.len()];
        for round in 0..self.samples {
            for turn in 0..rows.len() {
                let row = (round + turn) % rows.len();
                per_iter[row].push(time_batch(batches[row], &mut rows[row].2));
            }
        }
        for (((id, events, _), batch), times) in rows.into_iter().zip(batches).zip(per_iter) {
            self.record(&id, events, batch, times);
        }
    }

    /// Grows the batch until one batch of `f` exceeds the time floor.
    /// This doubles as warmup.
    fn calibrate(&self, f: &mut impl FnMut()) -> u64 {
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            let last = t.elapsed();
            if last >= self.min_batch_time || batch >= 1 << 28 {
                return batch;
            }
            // Aim ~2× past the floor to converge in few rounds.
            let scale = (2.0 * self.min_batch_time.as_secs_f64() / last.as_secs_f64().max(1e-9))
                .ceil() as u64;
            batch = batch.saturating_mul(scale.clamp(2, 64));
        }
    }

    /// Files one row's statistics from its per-iteration sample times.
    fn record(&mut self, id: &str, events: Option<u64>, batch: u64, mut per_iter: Vec<f64>) {
        per_iter.sort_by(|a, b| a.total_cmp(b));
        // Nearest-rank quantiles of the sorted samples.
        let quantile = |k: usize| per_iter[per_iter.len() * k / 4];
        let median = quantile(2);
        let min = per_iter[0];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;

        let m = Measurement {
            id: id.to_string(),
            batch,
            samples: self.samples,
            median_ns: median,
            q1_ns: quantile(1),
            q3_ns: quantile(3),
            min_ns: min,
            mean_ns: mean,
            events,
            ns_per_event: events.map(|e| median / e as f64),
            events_per_sec: events.map(|e| e as f64 / (median * 1e-9)),
        };
        eprintln!("{}", render_row(&m));
        self.results.push(m);
    }

    /// Measurements recorded so far.
    #[must_use]
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Renders the human-readable result table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        for m in &self.results {
            let _ = writeln!(out, "{}", render_row(m));
        }
        out
    }

    /// Serializes the run to JSON (schema above).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": {},", json_string(&self.name));
        out.push_str("  \"schema\": 1,\n");
        out.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"id\": {}, \"batch\": {}, \"samples\": {}, \
                 \"median_ns\": {}, \"q1_ns\": {}, \"q3_ns\": {}, \
                 \"min_ns\": {}, \"mean_ns\": {}",
                json_string(&m.id),
                m.batch,
                m.samples,
                json_f64(m.median_ns),
                json_f64(m.q1_ns),
                json_f64(m.q3_ns),
                json_f64(m.min_ns),
                json_f64(m.mean_ns),
            );
            if let Some(e) = m.events {
                let _ = write!(
                    out,
                    ", \"events\": {}, \"ns_per_event\": {}, \"events_per_sec\": {}",
                    e,
                    json_f64(m.ns_per_event.unwrap_or(0.0)),
                    json_f64(m.events_per_sec.unwrap_or(0.0)),
                );
            }
            out.push_str(" }");
            if i + 1 < self.results.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, " {}: {}", json_string(k), v);
        }
        out.push_str(" }\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        pacer_collections::atomic_write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes a companion observability snapshot,
    /// `BENCH_<name>.metrics.json`, next to the `BENCH_<name>.json` this
    /// bench produces, and prints where.
    ///
    /// `metrics_json` is the serialized `pacer_obs::Metrics::to_json()`
    /// output of an **untimed** observed pass over the bench workload —
    /// timed loops stay on bare detectors, so observability costs the
    /// measured path nothing.
    ///
    /// # Panics
    ///
    /// Panics on filesystem errors (bench targets have no caller to
    /// propagate to).
    pub fn write_metrics_snapshot(&self, metrics_json: &str) {
        let path = workspace_root().join(format!("BENCH_{}.metrics.json", self.name));
        pacer_collections::atomic_write(&path, metrics_json).expect("write BENCH metrics json");
        println!("wrote {}", path.display());
    }

    /// Writes `BENCH_<name>.json` at the workspace root and prints where.
    ///
    /// # Panics
    ///
    /// Panics on filesystem errors (bench targets have no caller to
    /// propagate to).
    pub fn finish(&self) {
        let path = self
            .write_json(&workspace_root())
            .expect("write BENCH json");
        println!("{}", self.render_text());
        println!("wrote {}", path.display());
    }
}

/// Per-iteration time of one timed batch of `f`, in nanoseconds.
fn time_batch(batch: u64, f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        f();
    }
    t.elapsed().as_nanos() as f64 / batch as f64
}

/// The workspace root (two levels above this crate's manifest).
#[must_use]
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn render_row(m: &Measurement) -> String {
    let mut row = format!(
        "{:<40} median {:>12} (q1 {:>12}, q3 {:>12}, min {:>12})",
        m.id,
        fmt_ns(m.median_ns),
        fmt_ns(m.q1_ns),
        fmt_ns(m.q3_ns),
        fmt_ns(m.min_ns)
    );
    if let (Some(npe), Some(eps)) = (m.ns_per_event, m.events_per_sec) {
        let _ = write!(row, "  {npe:>8.1} ns/event  {:>10.0} events/s", eps);
    }
    row
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_sane_statistics() {
        let mut b = Bench::new("selftest").with_samples(3);
        b.min_batch_time = Duration::from_micros(200);
        let mut acc = 0u64;
        b.measure("spin", Some(100), || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
        });
        let m = &b.results()[0];
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.min_ns <= m.q1_ns && m.q1_ns <= m.median_ns && m.median_ns <= m.q3_ns);
        assert_eq!(m.events, Some(100));
        assert!(m.events_per_sec.unwrap() > 0.0);
        assert!(m.batch >= 1);
    }

    #[test]
    fn measure_rows_times_every_row() {
        let mut b = Bench::new("rowtest").with_samples(3);
        b.min_batch_time = Duration::from_micros(200);
        let mut acc = 0u64;
        b.measure_rows([10u64, 100].map(|n| {
            let spin = move || {
                for i in 0..n {
                    acc = acc.wrapping_add(i * i);
                }
                std::hint::black_box(acc);
            };
            (format!("spin{n}"), Some(n), spin)
        }));
        let ids: Vec<&str> = b.results().iter().map(|m| m.id.as_str()).collect();
        assert_eq!(ids, ["spin10", "spin100"]);
        for m in b.results() {
            assert_eq!(m.samples, 3);
            assert!(m.min_ns <= m.q1_ns && m.q1_ns <= m.median_ns && m.median_ns <= m.q3_ns);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut b = Bench::new("jsontest").with_samples(1);
        b.min_batch_time = Duration::from_micros(10);
        b.measure("noop\"quoted\"", None, || {
            std::hint::black_box(1 + 1);
        });
        b.context_json("note", "\"hello\"".to_string());
        let json = b.to_json();
        assert!(json.contains("\"bench\": \"jsontest\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"note\": \"hello\""));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        // Balanced braces/brackets (no nested strings with braces here).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn quick_flag_reduces_samples() {
        let b = Bench::from_args("argtest", ["--quick".to_string()].into_iter());
        assert_eq!(b.samples, 5);
        let b = Bench::from_args(
            "argtest",
            ["--samples".to_string(), "7".to_string()].into_iter(),
        );
        assert_eq!(b.samples, 7);
    }
}
