//! Typed trace events and the bounded ring buffer that stores them.

use crate::space::SpaceRecord;
use pacer_collections::json;

/// One structured trace event.
///
/// Events carry raw integer identifiers (thread, variable, and site ids)
/// rather than typed wrappers so the JSONL output is self-describing and
/// compact. The serialized schema, with one worked example per variant, is
/// documented in `OBSERVABILITY.md`.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A sampling period opened (`sbegin`, Table 5 rule 1). `index` counts
    /// periods from 0 within one run.
    PeriodBegin {
        /// Zero-based period number within the run.
        index: u64,
    },
    /// A sampling period closed (`send`, Table 5 rule 2).
    PeriodEnd {
        /// Zero-based period number within the run.
        index: u64,
        /// Synchronization operations analyzed inside the period.
        sync_ops: u64,
    },
    /// The detector reported a race (the paper's §4 "Reporting Races").
    Race {
        /// Racing variable id.
        var: u32,
        /// Thread of the earlier access (recorded in metadata).
        first_tid: u32,
        /// Site of the earlier access.
        first_site: u32,
        /// Whether the earlier access was a write.
        first_write: bool,
        /// Thread of the later access.
        second_tid: u32,
        /// Site of the later access.
        second_site: u32,
        /// Whether the later access was a write.
        second_write: bool,
    },
    /// A shared (shallow-copied) vector clock was deep-copied before a
    /// mutation — a clone-on-write promotion (Algorithms 10/11).
    CopyPromotion {
        /// The acting thread, when the triggering action has one.
        tid: Option<u32>,
    },
    /// The compiler's escape analysis proved a local non-escaping and
    /// elided instrumentation on its field accesses (§4).
    EscapeElision {
        /// Enclosing function name.
        func: String,
        /// The provably thread-local variable.
        var: String,
    },
    /// A full-heap GC boundary with its space sample (Fig. 7's x-axis).
    Gc {
        /// VM steps executed when the collection ran.
        steps: u64,
        /// Live program heap bytes after collection.
        heap_bytes: u64,
        /// Live detector metadata in machine words.
        metadata_words: u64,
    },
    /// An armed fault plan injected a failure into a trial attempt.
    FaultInjected {
        /// Fault site name (`pacer_faults::FaultSite::name`).
        site: String,
        /// Trial index the fault targeted.
        trial: u64,
        /// Zero-based attempt the fault fired on.
        attempt: u64,
    },
    /// A trial exhausted its retry budget and was quarantined.
    TrialQuarantined {
        /// Quarantined trial index.
        trial: u64,
        /// Attempts consumed (1 + retries).
        attempts: u64,
        /// Classified fault site, when the failure was injected.
        site: Option<String>,
    },
    /// The resource governor moved the sampling rate one ladder rung at a
    /// GC boundary.
    RateStepped {
        /// VM steps executed when the rate changed.
        steps: u64,
        /// Rate before the step, in millionths.
        from_millionths: u64,
        /// Rate after the step, in millionths.
        to_millionths: u64,
        /// True when stepping back up after pressure cleared.
        up: bool,
    },
    /// Usage exceeded a hard governor budget at a GC boundary.
    BudgetBreach {
        /// VM steps executed at the breaching boundary.
        steps: u64,
        /// Budget kind name (`"mem"` or `"deadline"`).
        budget: String,
        /// Observed usage at the boundary.
        usage: u64,
        /// The hard limit that was exceeded.
        limit: u64,
    },
    /// A governed trial ran degraded: its rate was stepped down, and it
    /// either finished at a reduced rate or was cancelled at the floor.
    TrialDegraded {
        /// Degraded trial index.
        trial: u64,
        /// Rate in effect when the trial ended, in millionths.
        final_rate_millionths: u64,
        /// Budget kind name when the trial was cancelled at the floor.
        cancelled: Option<String>,
    },
}

impl Event {
    /// The stable `"ev"` discriminator used in JSONL output.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::PeriodBegin { .. } => "period_begin",
            Event::PeriodEnd { .. } => "period_end",
            Event::Race { .. } => "race",
            Event::CopyPromotion { .. } => "copy_promotion",
            Event::EscapeElision { .. } => "escape_elision",
            Event::Gc { .. } => "gc",
            Event::FaultInjected { .. } => "fault_injected",
            Event::TrialQuarantined { .. } => "trial_quarantined",
            Event::RateStepped { .. } => "rate_stepped",
            Event::BudgetBreach { .. } => "budget_breach",
            Event::TrialDegraded { .. } => "trial_degraded",
        }
    }

    /// Appends this event as one JSONL line (including the trailing
    /// newline) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        json::field_str(out, &mut first, "ev", self.kind_name());
        match self {
            Event::PeriodBegin { index } => {
                json::field_u64(out, &mut first, "index", *index);
            }
            Event::PeriodEnd { index, sync_ops } => {
                json::field_u64(out, &mut first, "index", *index);
                json::field_u64(out, &mut first, "sync_ops", *sync_ops);
            }
            Event::Race {
                var,
                first_tid,
                first_site,
                first_write,
                second_tid,
                second_site,
                second_write,
            } => {
                json::field_u64(out, &mut first, "var", u64::from(*var));
                json::field_u64(out, &mut first, "first_tid", u64::from(*first_tid));
                json::field_u64(out, &mut first, "first_site", u64::from(*first_site));
                json::field_str(out, &mut first, "first_kind", kind_str(*first_write));
                json::field_u64(out, &mut first, "second_tid", u64::from(*second_tid));
                json::field_u64(out, &mut first, "second_site", u64::from(*second_site));
                json::field_str(out, &mut first, "second_kind", kind_str(*second_write));
            }
            Event::CopyPromotion { tid } => match tid {
                Some(t) => json::field_u64(out, &mut first, "tid", u64::from(*t)),
                None => {
                    json::key(out, &mut first, "tid");
                    out.push_str("null");
                }
            },
            Event::EscapeElision { func, var } => {
                json::field_str(out, &mut first, "func", func);
                json::field_str(out, &mut first, "var", var);
            }
            Event::Gc {
                steps,
                heap_bytes,
                metadata_words,
            } => {
                json::field_u64(out, &mut first, "steps", *steps);
                json::field_u64(out, &mut first, "heap_bytes", *heap_bytes);
                json::field_u64(out, &mut first, "metadata_words", *metadata_words);
            }
            Event::FaultInjected {
                site,
                trial,
                attempt,
            } => {
                json::field_str(out, &mut first, "site", site);
                json::field_u64(out, &mut first, "trial", *trial);
                json::field_u64(out, &mut first, "attempt", *attempt);
            }
            Event::TrialQuarantined {
                trial,
                attempts,
                site,
            } => {
                json::field_u64(out, &mut first, "trial", *trial);
                json::field_u64(out, &mut first, "attempts", *attempts);
                match site {
                    Some(s) => json::field_str(out, &mut first, "site", s),
                    None => {
                        json::key(out, &mut first, "site");
                        out.push_str("null");
                    }
                }
            }
            Event::RateStepped {
                steps,
                from_millionths,
                to_millionths,
                up,
            } => {
                json::field_u64(out, &mut first, "steps", *steps);
                json::field_u64(out, &mut first, "from_millionths", *from_millionths);
                json::field_u64(out, &mut first, "to_millionths", *to_millionths);
                json::field_str(out, &mut first, "dir", if *up { "up" } else { "down" });
            }
            Event::BudgetBreach {
                steps,
                budget,
                usage,
                limit,
            } => {
                json::field_u64(out, &mut first, "steps", *steps);
                json::field_str(out, &mut first, "budget", budget);
                json::field_u64(out, &mut first, "usage", *usage);
                json::field_u64(out, &mut first, "limit", *limit);
            }
            Event::TrialDegraded {
                trial,
                final_rate_millionths,
                cancelled,
            } => {
                json::field_u64(out, &mut first, "trial", *trial);
                json::field_u64(
                    out,
                    &mut first,
                    "final_rate_millionths",
                    *final_rate_millionths,
                );
                match cancelled {
                    Some(b) => json::field_str(out, &mut first, "cancelled", b),
                    None => {
                        json::key(out, &mut first, "cancelled");
                        out.push_str("null");
                    }
                }
            }
        }
        out.push_str("}\n");
    }

    /// Builds the GC event for a space record.
    pub(crate) fn from_space(rec: &SpaceRecord) -> Event {
        Event::Gc {
            steps: rec.steps,
            heap_bytes: rec.heap_bytes,
            metadata_words: rec.breakdown.total_words(),
        }
    }
}

fn kind_str(write: bool) -> &'static str {
    if write {
        "wr"
    } else {
        "rd"
    }
}

/// A bounded FIFO of [`Event`]s that drops the **oldest** events once full,
/// counting what it dropped — a run can never use unbounded memory for its
/// trace, and the tail (usually the interesting part) survives.
#[derive(Clone, Debug, Default)]
pub struct EventRing {
    buf: std::collections::VecDeque<Event>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl EventRing {
    /// A ring that keeps at most `capacity` events. Nothing is allocated
    /// until the first push.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: std::collections::VecDeque::new(),
            capacity,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full (or
    /// dropping the new event outright when capacity is zero).
    pub fn push(&mut self, event: Event) {
        self.recorded += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Total events ever pushed (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted or rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Serializes the retained events as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.iter() {
            e.write_jsonl(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trip_shapes() {
        let mut out = String::new();
        Event::PeriodBegin { index: 2 }.write_jsonl(&mut out);
        assert_eq!(out, "{\"ev\":\"period_begin\",\"index\":2}\n");

        out.clear();
        Event::Race {
            var: 3,
            first_tid: 0,
            first_site: 11,
            first_write: true,
            second_tid: 1,
            second_site: 12,
            second_write: false,
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"race\",\"var\":3,\"first_tid\":0,\"first_site\":11,\
             \"first_kind\":\"wr\",\"second_tid\":1,\"second_site\":12,\
             \"second_kind\":\"rd\"}\n"
        );

        out.clear();
        Event::CopyPromotion { tid: None }.write_jsonl(&mut out);
        assert_eq!(out, "{\"ev\":\"copy_promotion\",\"tid\":null}\n");

        out.clear();
        Event::EscapeElision {
            func: "work\"er".into(),
            var: "o".into(),
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"escape_elision\",\"func\":\"work\\\"er\",\"var\":\"o\"}\n"
        );

        out.clear();
        Event::RateStepped {
            steps: 500,
            from_millionths: 30_000,
            to_millionths: 15_000,
            up: false,
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"rate_stepped\",\"steps\":500,\"from_millionths\":30000,\
             \"to_millionths\":15000,\"dir\":\"down\"}\n"
        );

        out.clear();
        Event::BudgetBreach {
            steps: 900,
            budget: "mem".into(),
            usage: 2048,
            limit: 1024,
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"budget_breach\",\"steps\":900,\"budget\":\"mem\",\
             \"usage\":2048,\"limit\":1024}\n"
        );

        out.clear();
        Event::TrialDegraded {
            trial: 3,
            final_rate_millionths: 3_750,
            cancelled: Some("mem".into()),
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"trial_degraded\",\"trial\":3,\
             \"final_rate_millionths\":3750,\"cancelled\":\"mem\"}\n"
        );

        out.clear();
        Event::TrialDegraded {
            trial: 4,
            final_rate_millionths: 7_500,
            cancelled: None,
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"trial_degraded\",\"trial\":4,\
             \"final_rate_millionths\":7500,\"cancelled\":null}\n"
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = EventRing::new(2);
        for i in 0..5 {
            ring.push(Event::PeriodBegin { index: i });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<_> = ring.iter().cloned().collect();
        assert_eq!(
            kept,
            vec![
                Event::PeriodBegin { index: 3 },
                Event::PeriodBegin { index: 4 }
            ]
        );
    }

    #[test]
    fn zero_capacity_ring_rejects_everything() {
        let mut ring = EventRing::new(0);
        ring.push(Event::PeriodBegin { index: 0 });
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 1);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.to_jsonl(), "");
    }
}
