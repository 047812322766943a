//! Encode/decode throughput and size of the binary trace codec vs the
//! text format (`TRACE_FORMAT.md`), the §A check that follows every
//! decode in `pacer replay` and `pacer serve`, and the frame-by-frame
//! path `pacer replay` runs: decode, check, detect.
//!
//! Emits `BENCH_trace_codec.json`. The context section records bytes/event
//! for both encodings and the compression ratio — the format spec promises
//! binary at least 3x smaller than text on realistic traces.

use std::hint::black_box;

use pacer_bench::Bench;
use pacer_core::PacerDetector;
use pacer_trace::binary::{decode_trace, encode_trace};
use pacer_trace::gen::{insert_sampling_periods, GenConfig};
use pacer_trace::stream::ActionCheck;
use pacer_trace::{Detector, Trace, TraceReader, ValidatedActions};

fn main() {
    let mut bench = Bench::from_args("trace_codec", std::env::args().skip(1));

    let base = GenConfig::small(7)
        .with_threads(12)
        .with_ops_per_thread(2_000)
        .with_lock_discipline(0.85)
        .generate();
    let trace = insert_sampling_periods(&base, 0.03, 200, 1);
    let events = trace.len() as u64;
    let binary = encode_trace(&trace);
    let text = trace.to_text();

    bench.measure("encode/binary", Some(events), || {
        black_box(encode_trace(black_box(&trace)).len());
    });
    bench.measure("encode/text", Some(events), || {
        black_box(trace.to_text().len());
    });
    bench.measure("decode/binary", Some(events), || {
        black_box(decode_trace(black_box(&binary)).unwrap().len());
    });
    bench.measure("decode/binary-streaming", Some(events), || {
        // The bounded-memory reader pulled one event at a time, as its
        // `Iterator` impl yields them: no trace vector.
        let reader = TraceReader::new(std::io::Cursor::new(black_box(&binary[..]))).unwrap();
        let mut n = 0u64;
        for item in reader {
            item.unwrap();
            n += 1;
        }
        black_box(n);
    });
    bench.measure("decode/binary-frames", Some(events), || {
        // The same reader taken a run (a frame's events) at a time, as
        // `pacer replay` and `pacer serve --stdin` take it.
        let mut reader = TraceReader::new(std::io::Cursor::new(black_box(&binary[..]))).unwrap();
        let mut n = 0u64;
        loop {
            let run = reader.next_batch().unwrap();
            if run.is_empty() {
                break;
            }
            n += black_box(run).len() as u64;
        }
        black_box(n);
    });
    bench.measure("replay/frames", Some(events), || {
        // `pacer replay --detector pacer` in process: each run decoded,
        // each event checked, then detected.
        let mut reader = TraceReader::new(std::io::Cursor::new(black_box(&binary[..]))).unwrap();
        let mut check = ActionCheck::new();
        let mut detector = PacerDetector::new();
        loop {
            let run = reader.next_batch().unwrap();
            if run.is_empty() {
                break;
            }
            for action in run {
                check.check(action).unwrap();
                detector.on_action(action);
            }
        }
        black_box(detector.races().len());
    });
    bench.measure("decode/text", Some(events), || {
        black_box(Trace::parse(black_box(&text)).unwrap().len());
    });
    bench.measure("validate/streaming", Some(events), || {
        // The check alone, over actions already decoded.
        let mut validated = ValidatedActions::new(black_box(trace.actions()).iter().copied());
        black_box(validated.by_ref().count());
        assert!(validated.error().is_none());
    });

    let bin_bpe = binary.len() as f64 / events as f64;
    let text_bpe = text.len() as f64 / events as f64;
    bench.context_json(
        "bytes_per_event",
        format!("{{ \"binary\": {bin_bpe:.4}, \"text\": {text_bpe:.4} }}"),
    );
    bench.context_json(
        "compression_ratio_text_over_binary",
        format!("{:.4}", text_bpe / bin_bpe),
    );
    bench.context_json("events", format!("{events}"));
    eprintln!(
        "binary {bin_bpe:.2} B/event vs text {text_bpe:.2} B/event ({:.2}x smaller)",
        text_bpe / bin_bpe
    );
    bench.finish();
}
