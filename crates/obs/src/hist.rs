//! Fixed-bucket log₂ histograms.

use std::fmt;

use pacer_collections::json;

/// Number of buckets in every [`Histogram`]: bucket 0 holds the value 0,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the last bucket
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 64;

/// The histograms the suite records, indexed into [`Registry`] by this
/// enum so recording is an array index, never a map lookup or allocation.
///
/// [`Registry`]: crate::Registry
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistKind {
    /// Synchronization operations per completed sampling period — the
    /// paper's measure of sampled *work* per period (§4's bias-corrected
    /// sampler divides by exactly this quantity).
    PeriodSyncOps,
    /// Live detector metadata (machine words) at each full-heap GC — the
    /// distribution behind the Fig. 7 space-over-time curves.
    GcMetadataWords,
    /// Live program heap bytes at each full-heap GC.
    GcHeapBytes,
}

/// Number of [`HistKind`] variants (the registry's histogram array size).
pub const HIST_COUNT: usize = 3;

impl HistKind {
    /// All kinds, in serialization order.
    pub const ALL: [HistKind; HIST_COUNT] = [
        HistKind::PeriodSyncOps,
        HistKind::GcMetadataWords,
        HistKind::GcHeapBytes,
    ];

    /// The stable snake_case name used in JSON output and OBSERVABILITY.md.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::PeriodSyncOps => "period_sync_ops",
            HistKind::GcMetadataWords => "gc_metadata_words",
            HistKind::GcHeapBytes => "gc_heap_bytes",
        }
    }

    /// The registry's array index for this kind.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A histogram with [`HIST_BUCKETS`] fixed log₂ buckets plus exact count,
/// sum, min, and max.
///
/// The bucket layout never changes, so merging two histograms is
/// element-wise addition and serialized output is deterministic.
///
/// # Examples
///
/// ```
/// use pacer_obs::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(5);
/// h.record(5);
/// assert_eq!(h.count, 3);
/// assert_eq!(h.sum, 10);
/// assert_eq!((h.min(), h.max), (Some(0), 5));
/// assert_eq!(h.bucket_counts()[0], 1, "value 0 lands in bucket 0");
/// assert_eq!(h.bucket_counts()[3], 2, "5 ∈ [4, 8) lands in bucket 3");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    min: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram. Storage is inline — construction allocates
    /// nothing.
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Index of the bucket holding `value`: 0 for 0, else
    /// `1 + ⌊log₂ value⌋`, capped at the last bucket.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Whether no values have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw per-bucket counts.
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Rebuilds a histogram from its serialized parts (the inverse of
    /// [`write_json`](Self::write_json), used by `Metrics::from_json`).
    /// `min` is the serialized value, which is 0 for an empty histogram;
    /// the internal empty sentinel is restored from `count == 0`.
    pub(crate) fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        bucket_pairs: &[(usize, u64)],
    ) -> Option<Histogram> {
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        h.max = max;
        h.min = if count == 0 { u64::MAX } else { min };
        for &(i, c) in bucket_pairs {
            if i >= HIST_BUCKETS {
                return None;
            }
            h.buckets[i] = c;
        }
        Some(h)
    }

    /// Serializes as a JSON object; only non-empty buckets are listed, as
    /// `[index, count]` pairs in index order.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "count", self.count);
        json::field_u64(out, &mut first, "sum", self.sum);
        json::field_u64(out, &mut first, "min", self.min().unwrap_or(0));
        json::field_u64(out, &mut first, "max", self.max);
        json::key(out, &mut first, "buckets");
        out.push('[');
        let mut first_bucket = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first_bucket {
                out.push(',');
            }
            first_bucket = false;
            out.push_str(&format!("[{i},{c}]"));
        }
        out.push_str("]}");
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(empty)");
        }
        write!(
            f,
            "n={} sum={} min={} max={} mean={}",
            self.count,
            self.sum,
            self.min,
            self.max,
            self.sum / self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn record_tracks_extremes_and_sum() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        h.record(10);
        h.record(2);
        h.record(40);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 52);
        assert_eq!(h.min(), Some(2));
        assert_eq!(h.max, 40);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Histogram::new();
        b.record(3);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 104);
        assert_eq!(m.min(), Some(1));
        assert_eq!(m.max, 100);
        assert_eq!(m.bucket_counts()[2], 1, "3 came from b");
    }

    #[test]
    fn merge_with_empty_keeps_min() {
        let mut a = Histogram::new();
        a.record(7);
        a.merge(&Histogram::new());
        assert_eq!(a.min(), Some(7));
        assert_eq!(a.count, 1);
    }

    #[test]
    fn json_lists_only_nonempty_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        let mut out = String::new();
        h.write_json(&mut out);
        assert_eq!(
            out,
            "{\"count\":2,\"sum\":5,\"min\":0,\"max\":5,\"buckets\":[[0,1],[3,1]]}"
        );
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> = HistKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), HIST_COUNT);
        for (i, k) in HistKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
