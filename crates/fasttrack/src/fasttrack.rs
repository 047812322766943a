//! The FASTTRACK detector (Algorithms 7–8).

use pacer_clock::{Epoch, ReadMap};
use pacer_collections::IdMap;
use pacer_obs::{ObservableDetector, SpaceBreakdown};
use pacer_trace::{Access, AccessKind, Action, Detector, RaceReport, SiteId, VarId};

use crate::SyncClocks;

/// Per-variable state: a write *epoch* plus an adaptive read map (§2.2).
#[derive(Clone, Debug)]
struct VarState {
    write: Epoch,
    write_site: SiteId,
    reads: ReadMap,
}

impl Default for VarState {
    fn default() -> Self {
        VarState {
            write: Epoch::MIN,
            write_site: SiteId::default(),
            reads: ReadMap::empty(),
        }
    }
}

/// Flanagan & Freund's FASTTRACK: sound, precise, and `O(1)` for almost all
/// reads and writes (§2.2).
///
/// Exploits three observations: writes to a variable are totally ordered in
/// race-free executions; at a write, all prior reads must happen before it;
/// and only concurrent reads need to be remembered individually. The write
/// vector clock is therefore a single [`Epoch`], and the read metadata a
/// [`ReadMap`] that stays an epoch while reads are totally ordered.
///
/// This implementation includes the paper's modification: the read map is
/// cleared at every write ("Clearing `R_f` is sound since the current write
/// will race with any future access that would have also raced with the
/// discarded read", §2.2), matching what PACER does.
///
/// Synchronization goes through [`SyncClocks`], which runs Algorithms 1–4
/// and 14–15 as printed: every acquire and volatile read is an `O(n)` join.
///
/// # Examples
///
/// ```
/// use pacer_fasttrack::FastTrackDetector;
/// use pacer_trace::{Detector, Trace};
///
/// let trace = Trace::parse("fork t0 t1\nrd t0 x0 s1\nwr t1 x0 s2")?;
/// let mut ft = FastTrackDetector::new();
/// ft.run(&trace);
/// assert_eq!(ft.races().len(), 1, "read–write race");
/// # Ok::<(), pacer_trace::ParseTraceError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct FastTrackDetector {
    sync: SyncClocks,
    vars: IdMap<VarId, VarState>,
    races: Vec<RaceReport>,
    /// Original-paper behavior: keep a single-entry read map across writes
    /// instead of clearing it (§2.2 "the *original* FASTTRACK algorithm
    /// does *not* clear R_f" when it is an epoch).
    keep_read_epoch_at_writes: bool,
}

impl FastTrackDetector {
    /// Creates a detector with empty analysis state, using the PACER
    /// paper's modification (read maps cleared at writes).
    pub fn new() -> Self {
        FastTrackDetector::default()
    }

    /// Creates a detector with Flanagan & Freund's *original* write rule:
    /// a read map that is an epoch survives a write. Detection verdicts
    /// are identical (any access racing with the kept read also races with
    /// the intervening write); only which representative gets reported can
    /// differ. Exists to measure the modification the PACER paper makes
    /// for metadata-discard symmetry (§2.2).
    pub fn original() -> Self {
        FastTrackDetector {
            keep_read_epoch_at_writes: true,
            ..FastTrackDetector::default()
        }
    }

    /// Approximate live metadata footprint in machine words: three words
    /// per tracked variable (write epoch, site, read-map slot — the
    /// per-field hash-table entry of §4), plus inflated read maps and
    /// synchronization clocks.
    pub fn footprint_words(&self) -> usize {
        self.space_breakdown().total_words() as usize
    }

    /// Number of variables currently carrying metadata (never shrinks:
    /// FASTTRACK has no discard).
    pub fn tracked_vars(&self) -> usize {
        self.vars.len()
    }

    /// Checks the analysis-state invariants the algorithms maintain: every
    /// recorded access epoch is bounded by its thread's current clock
    /// (clocks only grow, and an access records the clock it ran at).
    /// Intended for tests and differential-oracle runs; `O(vars × threads)`.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) {
        for (x, state) in self.vars.iter() {
            if !state.write.is_min() {
                let t = state.write.tid();
                let ct = self
                    .sync
                    .thread_clock(t)
                    .unwrap_or_else(|| panic!("{x:?}: write epoch from unseen thread {t:?}"));
                assert!(
                    state.write.leq_clock(ct),
                    "{x:?}: write epoch {:?} above thread {t:?}'s clock",
                    state.write
                );
            }
            for entry in state.reads.iter() {
                let ct = self.sync.thread_clock(entry.tid).unwrap_or_else(|| {
                    panic!("{x:?}: read entry from unseen thread {:?}", entry.tid)
                });
                assert!(
                    entry.clock <= ct.get(entry.tid),
                    "{x:?}: read entry {entry:?} above its thread's clock"
                );
            }
        }
    }
}

impl Detector for FastTrackDetector {
    fn name(&self) -> String {
        "fasttrack".to_string()
    }

    fn on_action(&mut self, action: &Action) {
        if self.sync.apply(action) {
            return;
        }
        match *action {
            // Algorithm 7.
            Action::Read { t, x, site } => {
                let ct = self.sync.clock(t);
                let state = self.vars.get_or_insert_with(x, Default::default);
                let epoch_t = Epoch::of_thread(t, ct);
                // {If same epoch, no action}
                if state.reads.as_epoch() == Some(epoch_t) && !epoch_t.is_min() {
                    return;
                }
                // check W_f ⊑ C_t {race with prior write?}
                if !state.write.leq_clock(ct) {
                    self.races.push(RaceReport {
                        x,
                        first: Access {
                            tid: state.write.tid(),
                            kind: AccessKind::Write,
                            site: state.write_site,
                        },
                        second: Access {
                            tid: t,
                            kind: AccessKind::Read,
                            site,
                        },
                    });
                }
                // Update the read map.
                match state.reads.as_epoch() {
                    Some(prev) if prev.leq_clock(ct) => {
                        // {Overwrite read map}: |R_f| ≤ 1 and ordered.
                        state.reads.set_epoch(epoch_t, site.raw());
                    }
                    _ => {
                        // {Update read map}: concurrent reader.
                        state.reads.insert(t, ct.get(t), site.raw());
                    }
                }
            }
            // Algorithm 8.
            Action::Write { t, x, site } => {
                let ct = self.sync.clock(t);
                let state = self.vars.get_or_insert_with(x, Default::default);
                let epoch_t = Epoch::of_thread(t, ct);
                // {If same epoch, no action}
                if state.write == epoch_t {
                    return;
                }
                // check W_f ⊑ C_t
                if !state.write.leq_clock(ct) {
                    self.races.push(RaceReport {
                        x,
                        first: Access {
                            tid: state.write.tid(),
                            kind: AccessKind::Write,
                            site: state.write_site,
                        },
                        second: Access {
                            tid: t,
                            kind: AccessKind::Write,
                            site,
                        },
                    });
                }
                // check R_f ⊑ C_t — O(1) when the map is an epoch,
                // O(|R_f|) when inflated.
                for entry in state.reads.entries_racing_with(ct) {
                    self.races.push(RaceReport {
                        x,
                        first: Access {
                            tid: entry.tid,
                            kind: AccessKind::Read,
                            site: SiteId::new(entry.site),
                        },
                        second: Access {
                            tid: t,
                            kind: AccessKind::Write,
                            site,
                        },
                    });
                }
                // {New: clear read map} — the paper's modification. The
                // original algorithm keeps a totally ordered (epoch) read
                // map across writes.
                if !(self.keep_read_epoch_at_writes && state.reads.as_epoch().is_some()) {
                    state.reads = ReadMap::empty();
                }
                // {Update write epoch}
                state.write = epoch_t;
                state.write_site = site;
            }
            // FASTTRACK ignores sampling markers: it always analyzes fully.
            _ => {}
        }
    }

    fn races(&self) -> &[RaceReport] {
        &self.races
    }
}

impl ObservableDetector for FastTrackDetector {
    fn space_breakdown(&self) -> SpaceBreakdown {
        let mut b = SpaceBreakdown {
            // FASTTRACK never shares clock storage; everything is owned.
            clock_words_owned: self.sync.footprint_words() as u64,
            ..SpaceBreakdown::default()
        };
        for v in self.vars.values() {
            b.tracked_vars += 1;
            b.write_words += 2; // write epoch + site
            b.read_map_words += v.reads.footprint_words() as u64 + 1;
            b.read_map_entries += v.reads.len() as u64;
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
    use pacer_clock::ThreadId;
    use pacer_trace::Trace;

    fn run(text: &str) -> FastTrackDetector {
        let trace = Trace::parse(text).unwrap();
        trace.validate().unwrap();
        let mut d = FastTrackDetector::new();
        d.run(&trace);
        d
    }

    #[test]
    fn write_write_race() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nwr t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].first.tid, ThreadId::new(0));
    }

    #[test]
    fn write_read_race() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nrd t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].second.kind, AccessKind::Read);
    }

    #[test]
    fn read_write_race_reports_the_read_site() {
        let d = run("fork t0 t1\nrd t0 x0 s7\nwr t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].first.site, SiteId::new(7));
        assert_eq!(d.races()[0].first.kind, AccessKind::Read);
    }

    #[test]
    fn write_races_with_every_concurrent_read() {
        let d = run("fork t0 t1\nfork t0 t2\nrd t1 x0 s1\nrd t2 x0 s2\nwr t0 x0 s3");
        assert_eq!(d.races().len(), 2);
    }

    #[test]
    fn same_epoch_reads_are_free_and_silent() {
        let d = run("wr t0 x0 s1\nrd t0 x0 s2\nrd t0 x0 s2\nrd t0 x0 s2");
        assert!(d.races().is_empty());
    }

    #[test]
    fn read_map_collapses_after_ordered_reads() {
        // t1's read happens after t0's read (via lock): the map stays an
        // epoch, so footprint stays zero.
        let d =
            run("fork t0 t1\nacq t0 m0\nrd t0 x0 s1\nrel t0 m0\nacq t1 m0\nrd t1 x0 s2\nrel t1 m0");
        assert!(d.races().is_empty());
        let state = d.vars.get(VarId::new(0)).unwrap();
        assert!(state.reads.as_epoch().is_some(), "still an epoch");
    }

    #[test]
    fn concurrent_reads_inflate_the_map() {
        let d = run("fork t0 t1\nrd t0 x0 s1\nrd t1 x0 s2");
        let state = d.vars.get(VarId::new(0)).unwrap();
        assert_eq!(state.reads.len(), 2);
        assert!(d.races().is_empty(), "read–read is not a race");
    }

    #[test]
    fn write_clears_read_map() {
        let d = run("fork t0 t1\nrd t0 x0 s1\nrd t1 x0 s2\njoin t0 t1\nwr t0 x0 s3");
        let state = d.vars.get(VarId::new(0)).unwrap();
        assert!(state.reads.is_empty(), "modified FASTTRACK clears R_f");
        assert!(d.races().is_empty());
    }

    #[test]
    fn lock_discipline_prevents_race() {
        let d =
            run("fork t0 t1\nacq t0 m0\nwr t0 x0 s1\nrel t0 m0\nacq t1 m0\nwr t1 x0 s2\nrel t1 m0");
        assert!(d.races().is_empty());
    }

    #[test]
    fn fork_join_orders_accesses() {
        let d = run("wr t0 x0 s1\nfork t0 t1\nwr t1 x0 s2\njoin t0 t1\nwr t0 x0 s3");
        assert!(d.races().is_empty());
    }

    #[test]
    fn original_variant_keeps_epoch_read_maps_across_writes() {
        let trace = Trace::parse("fork t0 t1\nrd t0 x0 s1\njoin t0 t1\nwr t0 x0 s2").unwrap();
        let mut modified = FastTrackDetector::new();
        modified.run(&trace);
        assert!(
            modified.vars[&VarId::new(0)].reads.is_empty(),
            "modified clears"
        );
        let mut original = FastTrackDetector::original();
        original.run(&trace);
        assert_eq!(
            original.vars[&VarId::new(0)].reads.len(),
            1,
            "original keeps the read epoch"
        );
    }

    #[test]
    fn original_and_modified_agree_on_racy_vars() {
        use pacer_trace::gen::GenConfig;
        for seed in 0..10 {
            let trace = GenConfig::small(seed).with_lock_discipline(0.5).generate();
            let mut modified = FastTrackDetector::new();
            modified.run(&trace);
            let mut original = FastTrackDetector::original();
            original.run(&trace);
            let key = |races: &[RaceReport]| {
                let mut v: Vec<VarId> = races.iter().map(|r| r.x).collect();
                v.sort();
                v.dedup();
                v
            };
            assert_eq!(
                key(modified.races()),
                key(original.races()),
                "seed {seed}: the modification must not change verdicts"
            );
        }
    }

    #[test]
    fn matches_generic_racy_vars_on_random_traces() {
        use crate::GenericDetector;
        use pacer_trace::gen::GenConfig;
        use pacer_trace::Detector;

        for seed in 0..15 {
            let trace = GenConfig::small(seed).with_lock_discipline(0.6).generate();
            let mut ft = FastTrackDetector::new();
            let mut gen = GenericDetector::new();
            ft.run(&trace);
            gen.run(&trace);
            let key = |races: &[RaceReport]| {
                let mut v: Vec<VarId> = races.iter().map(|r| r.x).collect();
                v.sort();
                v.dedup();
                v
            };
            assert_eq!(
                key(ft.races()),
                key(gen.races()),
                "seed {seed}: FASTTRACK and GENERIC must agree on racy vars"
            );
        }
    }

    #[test]
    fn precise_against_oracle_on_random_traces() {
        use pacer_trace::gen::GenConfig;
        use pacer_trace::HbOracle;

        for seed in 0..15 {
            let trace = GenConfig::small(seed).with_lock_discipline(0.5).generate();
            let oracle = HbOracle::analyze(&trace);
            let truth: std::collections::HashSet<_> = oracle.distinct_races().into_iter().collect();
            let mut ft = FastTrackDetector::new();
            ft.run(&trace);
            for race in ft.races() {
                assert!(
                    truth.contains(&race.distinct_key()),
                    "seed {seed}: reported race {race} is not a true race"
                );
            }
        }
    }
}
