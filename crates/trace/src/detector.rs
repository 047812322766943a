//! The detector interface and race reports.

use std::fmt;

use pacer_clock::ThreadId;

use crate::{AccessKind, Action, SiteId, Trace, VarId};

/// One side of a reported race: who accessed what, where.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Access {
    /// The accessing thread.
    pub tid: ThreadId,
    /// Read or write.
    pub kind: AccessKind,
    /// Static program location. For the *first* access this comes from the
    /// metadata PACER records with each write epoch and read-map entry
    /// (§4 "Reporting Races"); for the *second* it is the current location.
    pub site: SiteId,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {} at {}", self.kind, self.tid, self.site)
    }
}

/// A reported data race on variable `x` between two concurrent conflicting
/// accesses.
///
/// Two dynamic reports with the same (unordered) pair of sites are the same
/// *distinct* (static) race; §5.1 "reports each pair of program references
/// once even if the race occurs multiple times".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaceReport {
    /// The racing variable.
    pub x: VarId,
    /// The earlier access (recorded in metadata).
    pub first: Access,
    /// The later access (the one whose race check failed).
    pub second: Access,
}

impl RaceReport {
    /// The normalized site pair identifying the *distinct* race.
    pub fn distinct_key(&self) -> (SiteId, SiteId) {
        let (a, b) = (self.first.site, self.second.site);
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// A run's race reports as a sorted multiset, thread ids included: equal
/// for two runs that report the same races in any order.
pub fn report_multiset(races: &[RaceReport]) -> Vec<RaceReport> {
    let mut reports = races.to_vec();
    reports.sort();
    reports
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "race on {}: {} vs {}", self.x, self.first, self.second)
    }
}

/// A dynamic race detector: GENERIC, FASTTRACK, PACER, or LITERACE.
///
/// Detectors consume [`Action`]s one at a time and accumulate
/// [`RaceReport`]s. Unlike the formal semantics — which becomes *stuck* at
/// the first race — implementations report the race and continue, updating
/// metadata as if the check had passed, so one run can observe many races
/// (mirroring the real FASTTRACK/PACER implementations).
///
/// # Examples
///
/// ```no_run
/// use pacer_trace::{Detector, Trace};
///
/// fn count_races<D: Detector>(mut d: D, trace: &Trace) -> usize {
///     d.run(trace);
///     d.races().len()
/// }
/// ```
pub trait Detector {
    /// A short human-readable name ("fasttrack", "pacer@3%", …).
    fn name(&self) -> String;

    /// Processes one dynamic action.
    fn on_action(&mut self, action: &Action);

    /// The races reported so far, in detection order.
    fn races(&self) -> &[RaceReport];

    /// Convenience: processes every action of `trace` in order.
    fn run(&mut self, trace: &Trace) {
        for action in trace {
            self.on_action(action);
        }
    }

    /// The distinct (static) races among [`races`](Self::races), as
    /// normalized site pairs, deduplicated and sorted.
    fn distinct_races(&self) -> Vec<(SiteId, SiteId)> {
        let mut keys: Vec<_> = self.races().iter().map(RaceReport::distinct_key).collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// A detector that records every action into a [`Trace`] and reports no
/// races.
///
/// Useful for capturing the event stream of a live run (e.g. from the
/// simulated runtime) for offline analysis, oracle comparison, or fixture
/// generation.
///
/// # Examples
///
/// ```
/// use pacer_trace::{Action, Detector, RecordingDetector};
/// use pacer_clock::ThreadId;
///
/// let mut rec = RecordingDetector::new();
/// rec.on_action(&Action::Fork {
///     t: ThreadId::new(0),
///     u: ThreadId::new(1),
/// });
/// assert_eq!(rec.trace().len(), 1);
/// let trace = rec.into_trace();
/// assert!(trace.validate().is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct RecordingDetector {
    trace: Trace,
}

impl RecordingDetector {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        RecordingDetector::default()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the recorder, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Detector for RecordingDetector {
    fn name(&self) -> String {
        "recorder".to_string()
    }

    fn on_action(&mut self, action: &Action) {
        self.trace.push(*action);
    }

    fn races(&self) -> &[RaceReport] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial detector that flags every write to the same variable by a
    /// different thread than the previous writer — only to exercise the
    /// trait's provided methods.
    struct LastWriter {
        last: Option<(VarId, ThreadId, SiteId)>,
        races: Vec<RaceReport>,
    }

    impl Detector for LastWriter {
        fn name(&self) -> String {
            "last-writer".to_string()
        }

        fn on_action(&mut self, action: &Action) {
            if let Action::Write { t, x, site } = *action {
                if let Some((px, pt, ps)) = self.last {
                    if px == x && pt != t {
                        self.races.push(RaceReport {
                            x,
                            first: Access {
                                tid: pt,
                                kind: AccessKind::Write,
                                site: ps,
                            },
                            second: Access {
                                tid: t,
                                kind: AccessKind::Write,
                                site,
                            },
                        });
                    }
                }
                self.last = Some((x, t, site));
            }
        }

        fn races(&self) -> &[RaceReport] {
            &self.races
        }
    }

    fn wr(t: u32, x: u32, s: u32) -> Action {
        Action::Write {
            t: ThreadId::new(t),
            x: VarId::new(x),
            site: SiteId::new(s),
        }
    }

    #[test]
    fn run_feeds_every_action() {
        let trace = Trace::from_actions(vec![
            Action::Fork {
                t: ThreadId::new(0),
                u: ThreadId::new(1),
            },
            wr(0, 0, 1),
            wr(1, 0, 2),
            wr(0, 0, 1),
            wr(1, 0, 2),
        ]);
        let mut d = LastWriter {
            last: None,
            races: Vec::new(),
        };
        d.run(&trace);
        assert_eq!(d.races().len(), 3);
        assert_eq!(
            d.distinct_races(),
            vec![(SiteId::new(1), SiteId::new(2))],
            "all three dynamic races share one distinct site pair"
        );
    }

    #[test]
    fn distinct_key_is_order_insensitive() {
        let a = Access {
            tid: ThreadId::new(0),
            kind: AccessKind::Write,
            site: SiteId::new(5),
        };
        let b = Access {
            tid: ThreadId::new(1),
            kind: AccessKind::Read,
            site: SiteId::new(2),
        };
        let r1 = RaceReport {
            x: VarId::new(0),
            first: a,
            second: b,
        };
        let r2 = RaceReport {
            x: VarId::new(0),
            first: b,
            second: a,
        };
        assert_eq!(r1.distinct_key(), r2.distinct_key());
    }

    #[test]
    fn reports_display() {
        let r = RaceReport {
            x: VarId::new(3),
            first: Access {
                tid: ThreadId::new(0),
                kind: AccessKind::Write,
                site: SiteId::new(5),
            },
            second: Access {
                tid: ThreadId::new(1),
                kind: AccessKind::Read,
                site: SiteId::new(2),
            },
        };
        assert_eq!(
            r.to_string(),
            "race on x3: write by t0 at s5 vs read by t1 at s2"
        );
    }
}
