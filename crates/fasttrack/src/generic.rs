//! The GENERIC `O(n)` vector-clock race detector (Algorithms 1–6).

use pacer_clock::{ClockValue, ThreadId, VectorClock};
use pacer_collections::IdMap;
use pacer_obs::{ObservableDetector, SpaceBreakdown};
use pacer_trace::{Access, AccessKind, Action, Detector, RaceReport, SiteId, VarId};

use crate::SyncClocks;

/// Per-variable state: full read and write vectors, with the site of each
/// thread's last access (for race reporting).
#[derive(Clone, Debug, Default)]
struct VarState {
    reads: VectorClock,
    read_sites: IdMap<ThreadId, SiteId>,
    writes: VectorClock,
    write_sites: IdMap<ThreadId, SiteId>,
}

/// The simplest sound and precise vector-clock detector (§2.1).
///
/// Stores a read vector `R[1..n]` and write vector `W[1..n]` per variable;
/// every read and write performs `O(n)` checks (Algorithms 5 and 6). This is
/// the baseline FASTTRACK improves on by an order of magnitude.
/// Synchronization goes through [`SyncClocks`], shared with FASTTRACK:
/// Algorithms 1–4 and 14–15 as printed, an `O(n)` join per acquire.
///
/// # Examples
///
/// ```
/// use pacer_fasttrack::GenericDetector;
/// use pacer_trace::{Detector, Trace};
///
/// let trace = Trace::parse("fork t0 t1\nwr t0 x0 s1\nwr t1 x0 s2")?;
/// let mut d = GenericDetector::new();
/// d.run(&trace);
/// assert_eq!(d.races().len(), 1);
/// # Ok::<(), pacer_trace::ParseTraceError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct GenericDetector {
    sync: SyncClocks,
    vars: IdMap<VarId, VarState>,
    races: Vec<RaceReport>,
}

impl GenericDetector {
    /// Creates a detector with empty analysis state.
    pub fn new() -> Self {
        GenericDetector::default()
    }

    /// Approximate live metadata footprint in machine words.
    pub fn footprint_words(&self) -> usize {
        self.space_breakdown().total_words() as usize
    }

    fn report_racing_writes(
        races: &mut Vec<RaceReport>,
        state: &VarState,
        x: VarId,
        ct: &VectorClock,
        second: Access,
    ) {
        for (tid, value) in state.writes.iter() {
            if value > ct.get(tid) {
                races.push(RaceReport {
                    x,
                    first: Access {
                        tid,
                        kind: AccessKind::Write,
                        site: state.write_sites.get(tid).copied().unwrap_or_default(),
                    },
                    second,
                });
            }
        }
    }

    /// Checks the analysis-state invariants: every component of every
    /// read/write vector is bounded by the owning thread's current clock.
    /// Intended for tests and differential-oracle runs; `O(vars × threads)`.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) {
        for (x, state) in self.vars.iter() {
            for (vec, what) in [(&state.reads, "read"), (&state.writes, "write")] {
                for (tid, value) in vec.iter() {
                    let ct = self.sync.thread_clock(tid).unwrap_or_else(|| {
                        panic!("{x:?}: {what} vector entry for unseen thread {tid:?}")
                    });
                    assert!(
                        value <= ct.get(tid),
                        "{x:?}: {what} vector entry {value}@{tid:?} above its thread's clock"
                    );
                }
            }
        }
    }

    fn report_racing_reads(
        races: &mut Vec<RaceReport>,
        state: &VarState,
        x: VarId,
        ct: &VectorClock,
        second: Access,
    ) {
        for (tid, value) in state.reads.iter() {
            if value > ct.get(tid) {
                races.push(RaceReport {
                    x,
                    first: Access {
                        tid,
                        kind: AccessKind::Read,
                        site: state.read_sites.get(tid).copied().unwrap_or_default(),
                    },
                    second,
                });
            }
        }
    }
}

impl Detector for GenericDetector {
    fn name(&self) -> String {
        "generic".to_string()
    }

    fn on_action(&mut self, action: &Action) {
        if self.sync.apply(action) {
            return;
        }
        match *action {
            // Algorithm 5: check W_f ⊑ C_t ; R_f[t] ← C_t[t]
            Action::Read { t, x, site } => {
                let ct = self.sync.clock(t);
                let state = self.vars.get_or_insert_with(x, Default::default);
                let second = Access {
                    tid: t,
                    kind: AccessKind::Read,
                    site,
                };
                if !state.writes.leq(ct) {
                    Self::report_racing_writes(&mut self.races, state, x, ct, second);
                }
                let c: ClockValue = ct.get(t);
                state.reads.set(t, c);
                state.read_sites.insert(t, site);
            }
            // Algorithm 6: check W_f ⊑ C_t ; check R_f ⊑ C_t ; W_f[t] ← C_t[t]
            Action::Write { t, x, site } => {
                let ct = self.sync.clock(t);
                let state = self.vars.get_or_insert_with(x, Default::default);
                let second = Access {
                    tid: t,
                    kind: AccessKind::Write,
                    site,
                };
                if !state.writes.leq(ct) {
                    Self::report_racing_writes(&mut self.races, state, x, ct, second);
                }
                if !state.reads.leq(ct) {
                    Self::report_racing_reads(&mut self.races, state, x, ct, second);
                }
                let c: ClockValue = ct.get(t);
                state.writes.set(t, c);
                state.write_sites.insert(t, site);
            }
            // GENERIC ignores sampling markers: it always analyzes fully.
            _ => {}
        }
    }

    fn races(&self) -> &[RaceReport] {
        &self.races
    }
}

impl ObservableDetector for GenericDetector {
    fn space_breakdown(&self) -> SpaceBreakdown {
        let mut b = SpaceBreakdown {
            clock_words_owned: self.sync.footprint_words() as u64,
            ..SpaceBreakdown::default()
        };
        for v in self.vars.values() {
            b.tracked_vars += 1;
            b.write_words += v.writes.width() as u64;
            b.read_map_words += v.reads.width() as u64;
            b.read_map_entries += v.reads.width() as u64;
        }
        b
    }

    fn clock_overflow(&self) -> Option<pacer_clock::ThreadId> {
        self.sync.clock_overflow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacer_trace::Trace;

    fn run(text: &str) -> GenericDetector {
        let trace = Trace::parse(text).unwrap();
        trace.validate().unwrap();
        let mut d = GenericDetector::new();
        d.run(&trace);
        d
    }

    #[test]
    fn write_write_race() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nwr t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        let r = d.races()[0];
        assert_eq!(r.first.kind, AccessKind::Write);
        assert_eq!(r.second.kind, AccessKind::Write);
        assert_eq!(r.first.site, SiteId::new(1));
        assert_eq!(r.second.site, SiteId::new(2));
    }

    #[test]
    fn write_read_race() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nrd t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].second.kind, AccessKind::Read);
    }

    #[test]
    fn read_write_race() {
        let d = run("fork t0 t1\nrd t0 x0 s1\nwr t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].first.kind, AccessKind::Read);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let d = run("fork t0 t1\nrd t0 x0 s1\nrd t1 x0 s2");
        assert!(d.races().is_empty());
    }

    #[test]
    fn lock_discipline_prevents_race() {
        let d =
            run("fork t0 t1\nacq t0 m0\nwr t0 x0 s1\nrel t0 m0\nacq t1 m0\nwr t1 x0 s2\nrel t1 m0");
        assert!(d.races().is_empty());
    }

    #[test]
    fn same_thread_never_races() {
        let d = run("wr t0 x0 s1\nrd t0 x0 s2\nwr t0 x0 s3");
        assert!(d.races().is_empty());
    }

    #[test]
    fn multiple_concurrent_reads_race_with_write() {
        let d = run("fork t0 t1\nfork t0 t2\nrd t1 x0 s1\nrd t2 x0 s2\nwr t0 x0 s3");
        assert_eq!(d.races().len(), 2, "the write races with both reads");
    }

    #[test]
    fn volatile_synchronizes() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nvwr t0 v0\nvrd t1 v0\nrd t1 x0 s2");
        assert!(d.races().is_empty());
    }

    #[test]
    fn footprint_grows_with_vars() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nwr t0 x1 s2");
        assert!(d.footprint_words() > 0);
    }

    #[test]
    fn generic_matches_oracle_on_random_traces() {
        use pacer_trace::gen::GenConfig;
        use pacer_trace::HbOracle;
        for seed in 0..15 {
            let trace = GenConfig::small(seed).with_lock_discipline(0.6).generate();
            let oracle = HbOracle::analyze(&trace);
            let mut d = GenericDetector::new();
            d.run(&trace);
            let mut detected: Vec<VarId> = d.races().iter().map(|r| r.x).collect();
            detected.sort();
            detected.dedup();
            assert_eq!(
                detected,
                oracle.racy_vars(),
                "seed {seed}: racy-variable sets must agree"
            );
        }
    }
}
