//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has an `id`, the `parent` span that caused it (0 for a root),
//! the request id `req` it belongs to, a `name`, and `start_ns`/`end_ns`
//! offsets from the tracer's epoch. Spans stay in memory and are written
//! as JSONL when the run ends. A span's *self time* is its duration
//! minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id before the span's children are recorded.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        parent: u64,
        req: u64,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name: name.into(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking client thread")
            .push(span);
    }

    /// Records a span with a fresh id and returns the id.
    pub fn record(
        &self,
        parent: u64,
        req: u64,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, parent, req, name, start, end);
        id
    }

    /// All spans recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking client thread")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// The spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span, summed by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: BTreeMap<String, SelfTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
        let entry = by_name.entry(s.name.clone()).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - kids.min(total);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "pass", 0, 100),
            span(2, 1, "proc", 10, 40),
            span(3, 1, "proc", 30, 60),  // overlaps the first child
            span(4, 1, "proc", 90, 120), // runs past the parent
            span(5, 2, "inner", 15, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["pass"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 50 - 10
            }
        );
        assert_eq!(t["proc"].count, 3);
        assert_eq!(t["proc"].self_ns, (30 - 5) + 30 + 30);
        assert_eq!(t["inner"].self_ns, 5);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let root = tracer.record(0, 7, "replay.pass", t0, t0);
        tracer.record(root, 7, "cli.replay.hsqldb", t0, t0);
        let text = to_jsonl(&tracer.spans());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = pacer_collections::JsonValue::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").and_then(|v| v.as_u64()), Some(root));
        assert_eq!(child.get("req").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(
            child.get("name").and_then(|v| v.as_str()),
            Some("cli.replay.hsqldb")
        );
    }
}
