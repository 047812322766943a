//! Space-over-time accounting: what the detector's metadata is made of.

use std::ops::AddAssign;

use pacer_collections::json;

/// A breakdown of live detector metadata into its constituent parts, in
/// machine words.
///
/// The split mirrors the savings PACER's mechanisms buy (Fig. 7, §5.4):
/// shallow copies show up as `clock_words_shared` (storage referenced by
/// more than one owner is charged once, here), metadata discard shows up as
/// `tracked_vars` shrinking between sampling periods, and version epochs
/// show up as `version_words` — the price paid for `O(1)` joins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceBreakdown {
    /// Words in vector-clock buffers referenced by more than one owner
    /// (thread, lock, or volatile) — storage shallow copies share.
    pub clock_words_shared: u64,
    /// Words in vector-clock buffers with a single owner.
    pub clock_words_owned: u64,
    /// Words in version vectors and version epochs (§A.3).
    pub version_words: u64,
    /// Words in per-variable write metadata (write epoch + site).
    pub write_words: u64,
    /// Words in per-variable read maps (epoch or inflated map).
    pub read_map_words: u64,
    /// Detector-specific extra state (e.g. LITERACE's per-region sampler
    /// counters), in words.
    pub other_words: u64,
    /// Number of read-map entries across all variables (a count, not
    /// charged to [`total_words`](Self::total_words)).
    pub read_map_entries: u64,
    /// Number of variables currently carrying metadata (a count, not
    /// charged to [`total_words`](Self::total_words)).
    pub tracked_vars: u64,
}

impl SpaceBreakdown {
    /// Total live metadata in machine words — the quantity the harness's
    /// space experiments (Fig. 10) plot.
    pub fn total_words(&self) -> u64 {
        self.clock_words_shared
            + self.clock_words_owned
            + self.version_words
            + self.write_words
            + self.read_map_words
            + self.other_words
    }

    pub(crate) fn write_json_fields(&self, out: &mut String, first: &mut bool) {
        json::field_u64(out, first, "clock_words_shared", self.clock_words_shared);
        json::field_u64(out, first, "clock_words_owned", self.clock_words_owned);
        json::field_u64(out, first, "version_words", self.version_words);
        json::field_u64(out, first, "write_words", self.write_words);
        json::field_u64(out, first, "read_map_words", self.read_map_words);
        json::field_u64(out, first, "other_words", self.other_words);
        json::field_u64(out, first, "read_map_entries", self.read_map_entries);
        json::field_u64(out, first, "tracked_vars", self.tracked_vars);
        json::field_u64(out, first, "total_words", self.total_words());
    }
}

impl AddAssign for SpaceBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.clock_words_shared += rhs.clock_words_shared;
        self.clock_words_owned += rhs.clock_words_owned;
        self.version_words += rhs.version_words;
        self.write_words += rhs.write_words;
        self.read_map_words += rhs.read_map_words;
        self.other_words += rhs.other_words;
        self.read_map_entries += rhs.read_map_entries;
        self.tracked_vars += rhs.tracked_vars;
    }
}

/// One point on the space-over-time curve: a [`SpaceBreakdown`] taken at a
/// full-heap GC boundary, tagged with the VM step count and live program
/// heap (Fig. 7's axes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceRecord {
    /// VM steps executed when the sample was taken.
    pub steps: u64,
    /// Live program heap bytes after the collection.
    pub heap_bytes: u64,
    /// The metadata breakdown at that moment.
    pub breakdown: SpaceBreakdown,
}

impl SpaceRecord {
    /// Serializes as one JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_u64(out, &mut first, "steps", self.steps);
        json::field_u64(out, &mut first, "heap_bytes", self.heap_bytes);
        self.breakdown.write_json_fields(out, &mut first);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_excludes_counts() {
        let b = SpaceBreakdown {
            clock_words_shared: 10,
            clock_words_owned: 20,
            version_words: 5,
            write_words: 4,
            read_map_words: 3,
            other_words: 2,
            read_map_entries: 100,
            tracked_vars: 50,
        };
        assert_eq!(b.total_words(), 44);
    }

    #[test]
    fn add_assign_is_fieldwise() {
        let mut a = SpaceBreakdown {
            clock_words_owned: 1,
            tracked_vars: 2,
            ..SpaceBreakdown::default()
        };
        a += a;
        assert_eq!(a.clock_words_owned, 2);
        assert_eq!(a.tracked_vars, 4);
    }

    #[test]
    fn record_json_includes_total() {
        let rec = SpaceRecord {
            steps: 7,
            heap_bytes: 96,
            breakdown: SpaceBreakdown {
                clock_words_owned: 3,
                ..SpaceBreakdown::default()
            },
        };
        let mut out = String::new();
        rec.write_json(&mut out);
        assert!(out.starts_with("{\"steps\":7,\"heap_bytes\":96,"));
        assert!(out.contains("\"total_words\":3"));
    }
}
