//! The PACER detector: sampling race detection with a proportionality
//! guarantee.

use pacer_clock::{Epoch, ReadMap, ThreadId};
use pacer_obs::{ObservableDetector, SpaceBreakdown};
use pacer_trace::{Access, AccessKind, Action, Detector, RaceReport, SiteId, VarId};

use crate::state::{PacerState, SyncRef, WriteInfo};
use crate::PacerStats;

/// The PACER sampling race detector (§3).
///
/// Inside sampling periods PACER *is* FASTTRACK. Outside, it:
///
/// * performs the same race **checks** against surviving sampled metadata —
///   that is how a sampled first access is paired with a later unsampled
///   second access;
/// * records **no** new accesses and *discards* metadata FASTTRACK would
///   have overwritten or discarded (Algorithms 12–13), so space shrinks
///   back between samples;
/// * never increments vector clocks, and resolves redundant synchronization
///   with `O(1)` version checks and shallow copies (Algorithms 9–11).
///
/// Sampling is controlled by `SampleBegin`/`SampleEnd` actions in the event
/// stream (use [`Sampled`](crate::sampling::Sampled) or the runtime crate's
/// GC-driven controller to produce them).
///
/// Guarantee (Theorem 2): for conflicting accesses `A` then `B` where `A`
/// executes in a sampling period and is the last access to race with `B`,
/// PACER reports the race — whether or not `B` is sampled.
///
/// # Examples
///
/// ```
/// use pacer_core::PacerDetector;
/// use pacer_trace::{Detector, Trace};
///
/// let trace = Trace::parse(
///     "
///     fork t0 t1
///     sbegin
///     rd t0 x0 s1
///     send
///     wr t1 x0 s2
/// ",
/// )?;
/// let mut pacer = PacerDetector::new();
/// pacer.run(&trace);
/// assert_eq!(pacer.races().len(), 1, "sampled read races with later write");
/// assert!(pacer.stats().reads.sampling_slow >= 1);
/// # Ok::<(), pacer_trace::ParseTraceError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct PacerDetector {
    pub(crate) state: PacerState,
    pub(crate) stats: PacerStats,
    pub(crate) races: Vec<RaceReport>,
}

impl PacerDetector {
    /// Creates a detector in the initial (non-sampling) state `σ₀`.
    pub fn new() -> Self {
        PacerDetector::default()
    }

    /// Enables or disables the version-epoch fast path (Algorithm 11's
    /// `O(1)` redundancy check). Disabling it is the ablation of §3.2's
    /// design choice: detection is unchanged, but every join pays `O(n)`.
    pub fn with_version_fast_path(mut self, enabled: bool) -> Self {
        self.state.use_versions = enabled;
        self
    }

    /// Enables or disables clock-slot reuse. With reuse on (the default), a
    /// joined thread's slot passes to a later fork whose clock covers the
    /// thread's final clock, so clocks are as wide as the threads alive at
    /// once; the slot's earlier occupants keep their read-map entries, and
    /// a later join of one of them joins its saved final clock. With it
    /// off, every thread keeps its own slot, as in the paper's prototype
    /// (§5.1). Detection is unchanged either way; the switch is the
    /// ablation baseline.
    pub fn with_thread_reuse(mut self, enabled: bool) -> Self {
        self.state.reuse = enabled;
        self
    }

    /// Enables or disables arena-recycled clock storage. With the arena
    /// off, every deep copy and clone-on-write goes through the global
    /// allocator. Detection is unchanged either way; the flag exists for
    /// the `clock_ablation` benchmark.
    pub fn with_clock_arena(mut self, enabled: bool) -> Self {
        self.state.arena = enabled.then(pacer_clock::ClockArena::new);
        self
    }

    /// The operation statistics gathered so far (Tables 1 and 3).
    pub fn stats(&self) -> &PacerStats {
        &self.stats
    }

    /// Whether the analysis is currently inside a sampling period.
    pub fn is_sampling(&self) -> bool {
        self.state.sampling
    }

    /// Live analysis metadata in machine words; shared clock storage is
    /// charged once (Figure 10's space measurement).
    pub fn footprint_words(&self) -> usize {
        self.state.footprint_words()
    }

    /// Number of clock slots allocated so far: at most the number of
    /// threads started, and that number with reuse off.
    pub fn clock_slots(&self) -> usize {
        self.state.occupants.slots()
    }

    /// Number of variables currently carrying metadata.
    pub fn tracked_vars(&self) -> usize {
        self.state.vars.len()
    }

    /// Checks Definition 1 well-formedness and the Lemma 7 version
    /// invariant. Intended for tests; `O(n²)`.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self) {
        self.state.assert_invariants();
    }

    /// Algorithm 12: analysis at a read.
    fn on_read(&mut self, t: ThreadId, x: VarId, site: SiteId) {
        let sampling = self.state.sampling;
        let s = self.state.slot(t); // materializes C_t
        if !sampling && !self.state.vars.contains_key(&x) {
            // Fast path: `!(sampling || o.metadata != null)` (§4).
            self.stats.reads.non_sampling_fast += 1;
            return;
        }
        if sampling {
            self.stats.reads.sampling_slow += 1;
        } else {
            self.stats.reads.non_sampling_slow += 1;
        }

        let ct = self.state.threads[s.index()]
            .as_ref()
            .expect("materialized with its slot")
            .clock
            .clock();
        let meta = self.state.vars.get_or_insert_with(x, Default::default);
        let epoch_t = Epoch::of_thread(s, ct);

        // {If same epoch, no action}: this thread already read f at this
        // very epoch (FASTTRACK's Algorithm 7 gate).
        if !epoch_t.is_min() && meta.read.as_ref().and_then(ReadMap::as_epoch) == Some(epoch_t) {
            return;
        }

        // check W_f ⊑ clock_t — a sampled write racing with this read?
        if let Some(w) = meta.write {
            if !w.epoch.leq_clock(ct) {
                self.races.push(RaceReport {
                    x,
                    first: Access {
                        tid: self.state.occupants.at(w.epoch.tid(), w.epoch.clock()),
                        kind: AccessKind::Write,
                        site: w.site,
                    },
                    second: Access {
                        tid: t,
                        kind: AccessKind::Read,
                        site,
                    },
                });
            }
        }

        // A read-map entry of slot `s` below this occupant's first own time
        // is an earlier occupant's: only the entry from `since` on is ours.
        let occupants = &self.state.occupants;
        let since = || occupants.current(s).0;
        if sampling {
            // FASTTRACK's read-map update, exactly as in Algorithm 7: the
            // map collapses to an epoch only while it has at most one,
            // ordered, entry.
            let rm = meta.read.get_or_insert_with(ReadMap::empty);
            match rm.as_epoch() {
                Some(prev) if prev.leq_clock(ct) => {
                    rm.set_epoch(epoch_t, site.raw()); // {Overwrite read map}
                }
                _ => {
                    rm.insert_since(s, since(), ct.get(s), site.raw()); // {Update read map}
                }
            }
        } else {
            // Algorithm 12's gate: after the thread's own same-epoch
            // sampled *write*, the metadata must survive untouched.
            if meta.write.is_some_and(|w| w.epoch == epoch_t) {
                return;
            }
            // Discard whatever FASTTRACK would have replaced (Table 4,
            // rules 2–4, non-sampling column).
            if let Some(rm) = &mut meta.read {
                match rm.as_epoch() {
                    Some(e) if e.is_min() => meta.read = None,
                    Some(e) => {
                        if e.leq_clock(ct) {
                            // Rule 2 {Exclusive}: the stored read happens
                            // before this one; it can no longer be the last
                            // access to race with anything after us.
                            meta.read = None;
                        }
                        // Rule 4 {Share}: concurrent sampled read — keep it.
                    }
                    None => {
                        // Rule 3 {Shared}: discard only our own entry.
                        rm.remove_since(s, since());
                        if rm.is_empty() {
                            meta.read = None;
                        }
                    }
                }
            }
            if meta.is_empty() {
                self.state.vars.remove(&x);
            }
        }
    }

    /// Algorithm 13: analysis at a write.
    fn on_write(&mut self, t: ThreadId, x: VarId, site: SiteId) {
        let sampling = self.state.sampling;
        let s = self.state.slot(t);
        if !sampling && !self.state.vars.contains_key(&x) {
            self.stats.writes.non_sampling_fast += 1;
            return;
        }
        if sampling {
            self.stats.writes.sampling_slow += 1;
        } else {
            self.stats.writes.non_sampling_slow += 1;
        }

        let ct = self.state.threads[s.index()]
            .as_ref()
            .expect("materialized with its slot")
            .clock
            .clock();
        let meta = self.state.vars.get_or_insert_with(x, Default::default);
        let epoch_t = Epoch::of_thread(s, ct);
        // {If same epoch, no action} — FASTTRACK's Algorithm 8 gate, before
        // any check: a repeated write at the same epoch changes nothing.
        if meta.write.is_some_and(|w| w.epoch == epoch_t) {
            return;
        }
        let second = Access {
            tid: t,
            kind: AccessKind::Write,
            site,
        };

        // check R_f ⊑ clock_t — sampled reads racing with this write?
        if let Some(rm) = &meta.read {
            for entry in rm.entries_racing_with(ct) {
                self.races.push(RaceReport {
                    x,
                    first: Access {
                        tid: self.state.occupants.at(entry.tid, entry.clock),
                        kind: AccessKind::Read,
                        site: SiteId::new(entry.site),
                    },
                    second,
                });
            }
        }
        // check W_f ⊑ clock_t.
        if let Some(w) = meta.write {
            if !w.epoch.leq_clock(ct) {
                self.races.push(RaceReport {
                    x,
                    first: Access {
                        tid: self.state.occupants.at(w.epoch.tid(), w.epoch.clock()),
                        kind: AccessKind::Write,
                        site: w.site,
                    },
                    second,
                });
            }
        }

        if sampling {
            meta.write = Some(WriteInfo {
                epoch: epoch_t,
                site,
            }); // {Update write epoch}
            meta.read = None; // {Discard read map}
        } else {
            // {Discard write epoch and read map}: this unsampled write
            // supersedes them as "last access" for every future race.
            meta.write = None;
            meta.read = None;
        }
        if meta.is_empty() {
            self.state.vars.remove(&x);
        }
    }

    fn count_sync(&mut self) {
        if self.state.sampling {
            self.stats.sampled_sync_ops += 1;
        } else {
            self.stats.unsampled_sync_ops += 1;
        }
    }
}

impl Detector for PacerDetector {
    fn name(&self) -> String {
        "pacer".to_string()
    }

    fn on_action(&mut self, action: &Action) {
        match *action {
            Action::Read { t, x, site } => self.on_read(t, x, site),
            Action::Write { t, x, site } => self.on_write(t, x, site),
            // Table 6 — synchronization actions, with the redefined
            // copy/increment/join of Table 7.
            Action::Acquire { t, m } => {
                self.count_sync();
                let t = self.state.slot(t);
                self.state
                    .join_into_thread(t, SyncRef::Lock(m), &mut self.stats);
            }
            Action::Release { t, m } => {
                self.count_sync();
                let t = self.state.slot(t);
                self.state.copy_to_lock(m, t, &mut self.stats);
                self.state.increment(t, &mut self.stats);
            }
            Action::Fork { t, u } => {
                self.count_sync();
                self.state.fork(t, u, &mut self.stats);
            }
            Action::Join { t, u } => {
                self.count_sync();
                self.state.join(t, u, &mut self.stats);
            }
            Action::VolRead { t, v } => {
                self.count_sync();
                let t = self.state.slot(t);
                self.state
                    .join_into_thread(t, SyncRef::Volatile(v), &mut self.stats);
            }
            Action::VolWrite { t, v } => {
                self.count_sync();
                let t = self.state.slot(t);
                self.state.join_into_volatile(v, t, &mut self.stats);
                self.state.increment(t, &mut self.stats);
            }
            Action::SampleBegin => self.state.sample_begin(&mut self.stats),
            Action::SampleEnd => self.state.sample_end(),
        }
    }

    fn races(&self) -> &[RaceReport] {
        &self.races
    }
}

impl ObservableDetector for PacerDetector {
    fn space_breakdown(&self) -> SpaceBreakdown {
        self.state.space_breakdown()
    }

    fn pacer_stats(&self) -> Option<PacerStats> {
        Some(self.stats)
    }

    fn clock_overflow(&self) -> Option<pacer_clock::ThreadId> {
        let s = self.state.overflow?;
        Some(self.state.occupants.at(s, pacer_clock::MAX_CLOCK))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacer_trace::{report_multiset, Trace};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    fn run(text: &str) -> PacerDetector {
        let trace = Trace::parse(text).unwrap();
        trace.validate().unwrap();
        let mut d = PacerDetector::new();
        for a in &trace {
            d.on_action(a);
            d.assert_invariants();
        }
        d
    }

    #[test]
    fn never_sampling_reports_nothing_and_tracks_nothing() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nwr t1 x0 s2\nrd t1 x1 s3");
        assert!(d.races().is_empty());
        assert_eq!(d.tracked_vars(), 0);
        assert_eq!(d.stats().reads.non_sampling_fast, 1);
        assert_eq!(d.stats().writes.non_sampling_fast, 2);
    }

    #[test]
    fn figure_1_write_read_race_across_period_boundary() {
        let d = run("fork t0 t1\nsbegin\nwr t0 x0 s1\nsend\nrd t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        let r = d.races()[0];
        assert_eq!(r.first.site, SiteId::new(1));
        assert_eq!(r.second.site, SiteId::new(2));
        assert_eq!(r.second.kind, AccessKind::Read);
    }

    #[test]
    fn sampled_read_races_with_unsampled_write() {
        let d = run("fork t0 t1\nsbegin\nrd t0 x0 s1\nsend\nwr t1 x0 s2");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].first.kind, AccessKind::Read);
    }

    #[test]
    fn unsampled_first_access_is_missed_by_design() {
        let d = run("fork t0 t1\nwr t0 x0 s1\nsbegin\nwr t1 x0 s2\nsend");
        assert!(
            d.races().is_empty(),
            "first access was not sampled: no metadata, no report"
        );
    }

    #[test]
    fn fully_sampled_races_are_reported() {
        let d = run("fork t0 t1\nsbegin\nwr t0 x0 s1\nwr t1 x0 s2\nsend");
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn hb_ordered_sampled_metadata_is_discarded() {
        // Figure 1's x: sampled read on t2 is ordered (via m0) before t1's
        // unsampled write; the write discards the read/write metadata, so a
        // later racing write is *not* reported against the sampled read.
        let d = run("
            fork t0 t1
            fork t0 t2
            sbegin
            acq t2 m0
            rd t2 x0 s1
            rel t2 m0
            send
            acq t1 m0
            wr t1 x0 s2
            rel t1 m0
            wr t2 x0 s3
        ");
        assert!(
            d.races().is_empty(),
            "the HB-ordered write became the last racer; metadata was discarded"
        );
        assert_eq!(d.tracked_vars(), 0, "metadata discarded after the write");
    }

    #[test]
    fn non_sampling_ordered_read_discards_epoch() {
        // Sampled read on t0, then an HB-ordered unsampled read on t1
        // discards it (Table 4 rule 2): a later racing write reports
        // nothing.
        let d = run("
            fork t0 t1
            fork t0 t2
            sbegin
            acq t0 m0
            rd t0 x0 s1
            rel t0 m0
            send
            acq t1 m0
            rd t1 x0 s2
            rel t1 m0
            wr t2 x0 s3
        ");
        assert!(d.races().is_empty());
        assert_eq!(d.tracked_vars(), 0);
    }

    #[test]
    fn non_sampling_concurrent_read_keeps_epoch() {
        // Sampled read on t0; a *concurrent* unsampled read on t1 must keep
        // the sampled epoch (Table 4 rule 4), so the later write still
        // races with it.
        let d = run("
            fork t0 t1
            fork t0 t2
            sbegin
            rd t0 x0 s1
            send
            rd t1 x0 s2
            wr t2 x0 s3
        ");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].first.site, SiteId::new(1));
    }

    #[test]
    fn shared_read_map_discards_own_entry_only() {
        // Two sampled concurrent reads (t0, t1); t1 re-reads outside the
        // period: only t1's entry is discarded (Table 4 rule 3), so the
        // racing write still pairs with t0's read.
        let d = run("
            fork t0 t1
            fork t0 t2
            sbegin
            rd t0 x0 s1
            rd t1 x0 s2
            send
            rd t1 x0 s4
            wr t2 x0 s3
        ");
        let firsts: Vec<SiteId> = d.races().iter().map(|r| r.first.site).collect();
        assert!(firsts.contains(&SiteId::new(1)), "t0's read survived");
        assert!(
            !firsts.contains(&SiteId::new(2)),
            "t1's entry was discarded"
        );
    }

    #[test]
    fn unsampled_write_discards_everything() {
        let d = run("
            fork t0 t1
            sbegin
            wr t0 x0 s1
            send
            wr t1 x0 s2
            wr t0 x0 s3
        ");
        // wr s2 races with sampled wr s1 and discards metadata; wr s3 then
        // takes the fast path.
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.tracked_vars(), 0);
        assert_eq!(d.stats().writes.non_sampling_fast, 1);
    }

    #[test]
    fn lock_discipline_is_respected_across_periods() {
        let d = run("
            fork t0 t1
            sbegin
            acq t0 m0
            wr t0 x0 s1
            rel t0 m0
            send
            acq t1 m0
            wr t1 x0 s2
            rel t1 m0
        ");
        assert!(d.races().is_empty());
    }

    #[test]
    fn timeless_periods_use_fast_joins() {
        // Repeated lock traffic outside sampling: after the first transfer,
        // every acquire is resolved by version epochs in O(1).
        let mut text = String::from("fork t0 t1\n");
        for _ in 0..50 {
            text.push_str("acq t0 m0\nrel t0 m0\nacq t1 m0\nrel t1 m0\n");
        }
        let d = run(&text);
        let stats = d.stats();
        // Slow joins: the fork, plus one per direction while the threads
        // first learn each other's versions; everything after is fast.
        assert!(
            stats.joins.non_sampling_slow <= 3,
            "steady state must be all-fast, got {} slow joins",
            stats.joins.non_sampling_slow
        );
        assert!(stats.joins.non_sampling_fast >= 97);
        assert_eq!(
            stats.copies.non_sampling_deep, 0,
            "all non-sampling copies are shallow"
        );
    }

    #[test]
    fn effective_rate_tracks_marker_placement() {
        let d = run("
            fork t0 t1
            sbegin
            wr t1 x0 s1
            send
            wr t1 x1 s2
            wr t1 x2 s3
            wr t1 x3 s4
        ");
        assert_eq!(d.stats().effective_rate(), Some(0.25));
    }

    #[test]
    fn volatiles_synchronize_across_periods() {
        let d = run("
            fork t0 t1
            sbegin
            wr t0 x0 s1
            vwr t0 v0
            send
            vrd t1 v0
            rd t1 x0 s2
        ");
        assert!(d.races().is_empty(), "volatile edge orders the accesses");
    }

    #[test]
    fn same_epoch_write_outside_sampling_keeps_metadata() {
        // t0 writes x during sampling; the period ends with no intervening
        // increment, so a second write by t0 sees the same epoch and must
        // not discard (Table 4 rule 5) — the race with t1 is still caught.
        let d = run("
            fork t0 t1
            sbegin
            wr t0 x0 s1
            send
            wr t0 x0 s1
            wr t1 x0 s2
        ");
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn second_sampling_period_distinguishes_epochs() {
        // Two sampling periods: sbegin's global increment ensures the
        // second period's accesses get fresh epochs.
        let d = run("
            fork t0 t1
            sbegin
            wr t0 x0 s1
            send
            sbegin
            wr t1 x0 s2
            send
        ");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.stats().sample_periods, 2);
    }

    /// The race reports with and without slot reuse, as sorted multisets.
    fn reuse_and_plain_reports(text: &str) -> (Vec<RaceReport>, Vec<RaceReport>) {
        let trace = Trace::parse(text).unwrap();
        let mut plain = PacerDetector::new().with_thread_reuse(false);
        plain.run(&trace);
        assert_eq!(plain.clock_slots(), trace.thread_count());
        (
            report_multiset(run(text).races()),
            report_multiset(plain.races()),
        )
    }

    /// FASTTRACK's race reports on `text` without its sampling markers.
    fn fasttrack_reports(text: &str) -> Vec<RaceReport> {
        let trace = Trace::parse(text).unwrap();
        let mut ft = pacer_fasttrack::FastTrackDetector::new();
        for a in &trace {
            if !matches!(a, Action::SampleBegin | Action::SampleEnd) {
                ft.on_action(a);
            }
        }
        report_multiset(ft.races())
    }

    /// Reports as (first thread, first site, second thread, second site).
    fn pairs(d: &PacerDetector) -> Vec<(u32, u32, u32, u32)> {
        let mut v: Vec<_> = d
            .races()
            .iter()
            .map(|r| {
                let (f, s) = (r.first, r.second);
                (f.tid.raw(), f.site.raw(), s.tid.raw(), s.site.raw())
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn reused_slot_keeps_an_earlier_occupants_read() {
        // t1 and t2 read x concurrently under a sample; t3 takes t1's slot
        // and reads x unsampled. Its discard of its own read-map entry must
        // leave t1's, which still races with t2's write.
        let text = "
            fork t0 t2
            fork t0 t1
            sbegin
            rd t1 x0 s1
            rd t2 x0 s2
            send
            join t0 t1
            fork t0 t3
            rd t3 x0 s3
            wr t2 x0 s4
        ";
        let d = run(text);
        assert_eq!(d.clock_slots(), 3, "t3 takes t1's slot");
        assert_eq!(pairs(&d), [(1, 1, 2, 4)]);
        let (reuse, plain) = reuse_and_plain_reports(text);
        assert_eq!(reuse, plain);
        assert!(fasttrack_reports(text).contains(&d.races()[0]));
    }

    #[test]
    fn reused_slot_reads_match_fasttrack_when_sampled() {
        // The same trace sampled throughout: t3's read goes beside t1's
        // entry rather than over it, so t2's write races with both.
        let text = "
            fork t0 t2
            fork t0 t1
            sbegin
            rd t1 x0 s1
            rd t2 x0 s2
            join t0 t1
            fork t0 t3
            rd t3 x0 s3
            wr t2 x0 s4
            send
        ";
        let d = run(text);
        assert_eq!(d.clock_slots(), 3, "t3 takes t1's slot");
        assert_eq!(pairs(&d), [(1, 1, 2, 4), (3, 3, 2, 4)]);
        let (reuse, plain) = reuse_and_plain_reports(text);
        assert_eq!(reuse, plain);
        assert_eq!(reuse, fasttrack_reports(text));
    }

    #[test]
    fn second_join_learns_the_joined_threads_clock() {
        // t2 joins t1 after t0 did, while t1's slot is still retired: t2
        // learns t1's clock, so its write is ordered after t1's.
        let text = "
            fork t0 t1
            fork t0 t2
            sbegin
            wr t1 x0 s1
            send
            join t0 t1
            join t2 t1
            wr t2 x0 s2
        ";
        let d = run(text);
        assert_eq!(d.clock_slots(), 3);
        assert!(d.races().is_empty(), "{:?}", d.races());
        let (reuse, plain) = reuse_and_plain_reports(text);
        assert_eq!(reuse, plain);
    }

    #[test]
    fn second_join_after_reuse_learns_only_the_final_clock() {
        // t3 takes t1's slot and writes x; then t2 joins t1. t2 learns
        // t1's final clock, not its slot's current one: t1's write is
        // ordered before t2's, t3's is not.
        let text = "
            fork t0 t1
            fork t0 t2
            sbegin
            wr t1 x0 s1
            send
            join t0 t1
            fork t0 t3
            sbegin
            wr t3 x0 s3
            send
            join t2 t1
            wr t2 x0 s2
            join t0 t1
        ";
        let d = run(text);
        assert_eq!(d.clock_slots(), 3, "t3 takes t1's slot");
        assert_eq!(pairs(&d), [(3, 3, 2, 2)]);
        let (reuse, plain) = reuse_and_plain_reports(text);
        assert_eq!(reuse, plain);
    }

    #[test]
    fn sequential_threads_share_one_slot() {
        let d = run("
            fork t0 t1
            join t0 t1
            fork t0 t2
            join t0 t2
            fork t0 t3
            join t0 t3
        ");
        assert_eq!(d.clock_slots(), 2);
    }

    #[test]
    fn concurrent_threads_need_distinct_slots() {
        let d = run("
            fork t0 t1
            fork t0 t2
            join t0 t1
            join t0 t2
        ");
        assert_eq!(d.clock_slots(), 3, "t1 and t2 overlap");
    }

    #[test]
    fn unjoined_forker_cannot_reuse() {
        // t1 forks t2 and joins it, but t0 (who never saw the join) forks
        // t3: t3 must not reuse t2's slot.
        let d = run("
            fork t0 t1
            fork t1 t2
            join t1 t2
            fork t0 t3
            join t0 t1
            join t0 t3
        ");
        assert_eq!(d.clock_slots(), 4);
    }

    #[test]
    fn forker_covering_only_the_final_time_cannot_reuse() {
        // t1 publishes its final own time through m0 before it learns t2's
        // sampled write through m1; t4 joins it. Outside sampling, t1's own
        // time never moves, so t0's acquire of m0 covers it without t2's
        // write. Had t3 taken t1's slot with t1's clock, t3's write would
        // order after t2's and the race would be lost.
        let text = "
            fork t0 t1
            fork t0 t2
            fork t0 t4
            sbegin
            acq t2 m1
            wr t2 x0 s1
            rel t2 m1
            send
            acq t1 m0
            rel t1 m0
            acq t1 m1
            rel t1 m1
            join t4 t1
            acq t0 m0
            rel t0 m0
            fork t0 t3
            wr t3 x0 s2
        ";
        let d = run(text);
        assert_eq!(d.clock_slots(), 5, "t3 takes a fresh slot");
        assert_eq!(d.races().len(), 1);
        assert_eq!(
            (d.races()[0].first.tid, d.races()[0].second.tid),
            (t(2), t(3))
        );
        let (reuse, plain) = reuse_and_plain_reports(text);
        assert_eq!(reuse, plain);
    }

    #[test]
    fn detects_races_like_plain_pacer() {
        let d = run("
            fork t0 t1
            sbegin
            wr t0 x0 s1
            send
            wr t1 x0 s2
        ");
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn reuse_does_not_create_false_positives() {
        // Worker t1 writes x under a sample, is joined; its slot is reused
        // by t2. t2's read of x is ordered after the write via the join +
        // fork chain: no race.
        let d = run("
            fork t0 t1
            sbegin
            wr t1 x0 s1
            send
            join t0 t1
            fork t0 t2
            rd t2 x0 s2
            join t0 t2
        ");
        assert_eq!(d.clock_slots(), 2, "t2 reused t1's slot");
        assert!(d.races().is_empty(), "join/fork chain orders the accesses");
    }

    #[test]
    fn reuse_preserves_real_races() {
        // t1's sampled write races with t3, which overlaps it. Meanwhile t2
        // is joined and its slot reused — the unrelated race must survive.
        let d = run("
            fork t0 t2
            join t0 t2
            fork t0 t1
            fork t0 t3
            sbegin
            wr t1 x0 s1
            send
            wr t3 x0 s2
            join t0 t1
            join t0 t3
        ");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.clock_slots(), 3, "t1 reused t2's slot");
    }

    #[test]
    fn race_with_dead_threads_metadata_survives_reuse() {
        // t1's sampled write is still in metadata when t1 dies and its slot
        // is reused by t3 (forked by t0 after the join). The concurrent t2
        // then writes x: the race against the *old* occupant's epoch must
        // still be reported, naming t1 rather than its slot's new occupant.
        let d = run("
            fork t0 t2
            fork t0 t1
            sbegin
            wr t1 x0 s1
            send
            join t0 t1
            fork t0 t3
            rd t3 x1 s9
            wr t2 x0 s2
            join t0 t2
            join t0 t3
        ");
        assert_eq!(d.clock_slots(), 3);
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].first.site, SiteId::new(1));
        assert_eq!(d.races()[0].first.tid, t(1));
    }

    #[test]
    fn reuse_matches_no_reuse_on_random_traces() {
        use pacer_trace::gen::{insert_sampling_periods, GenConfig};

        for seed in 0..8 {
            let base = GenConfig::small(seed).with_lock_discipline(0.4).generate();
            let text = insert_sampling_periods(&base, 0.5, 20, seed).to_text();
            let (reuse, plain) = reuse_and_plain_reports(&text);
            assert_eq!(reuse, plain, "seed {seed}: reuse must not change detection");
        }
    }

    #[test]
    fn matches_fasttrack_when_always_sampling() {
        use pacer_fasttrack::FastTrackDetector;
        use pacer_trace::gen::GenConfig;

        for seed in 0..10 {
            let base = GenConfig::small(seed).with_lock_discipline(0.5).generate();
            let mut sampled = Trace::new();
            sampled.push(Action::SampleBegin);
            sampled.extend(base.iter().copied());

            let mut pacer = PacerDetector::new();
            pacer.run(&sampled);
            let mut ft = FastTrackDetector::new();
            ft.run(&base);

            let key = |races: &[RaceReport]| {
                let mut v: Vec<_> = races
                    .iter()
                    .map(|r| (r.x, r.first.site, r.second.site))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(
                key(pacer.races()),
                key(ft.races()),
                "seed {seed}: PACER at 100% sampling must equal FASTTRACK"
            );
        }
    }

    #[test]
    fn precise_on_random_sampled_traces() {
        use pacer_trace::gen::{insert_sampling_periods, GenConfig};
        use pacer_trace::HbOracle;

        for seed in 0..10 {
            let base = GenConfig::small(seed).with_lock_discipline(0.4).generate();
            let trace = insert_sampling_periods(&base, 0.3, 20, seed);
            let oracle = HbOracle::analyze(&trace);
            let truth: std::collections::HashSet<_> = oracle.distinct_races().into_iter().collect();
            let mut pacer = PacerDetector::new();
            pacer.run(&trace);
            for race in pacer.races() {
                assert!(
                    truth.contains(&race.distinct_key()),
                    "seed {seed}: PACER reported a false race {race}"
                );
            }
        }
    }

    #[test]
    fn guarantee_sampled_shortest_races_are_reported() {
        use pacer_trace::gen::{insert_sampling_periods, GenConfig};
        use pacer_trace::HbOracle;

        for seed in 0..10 {
            let base = GenConfig::small(seed).with_lock_discipline(0.4).generate();
            let trace = insert_sampling_periods(&base, 0.4, 15, seed * 31 + 1);
            let oracle = HbOracle::analyze(&trace);
            let mut pacer = PacerDetector::new();
            pacer.run(&trace);
            // Compare at epoch-group granularity: accesses by one thread
            // at one PACER clock component are indistinguishable to the
            // analysis, which reports one representative pair per group
            // pair (the "Same epoch" cases of the Theorem 2 proof).
            let norm = |g1, g2| if g1 <= g2 { (g1, g2) } else { (g2, g1) };
            let reported: std::collections::HashSet<_> = pacer
                .races()
                .iter()
                .filter_map(|r| {
                    let g1 = oracle.epoch_group_of_site(r.first.site)?;
                    let g2 = oracle.epoch_group_of_site(r.second.site)?;
                    Some(norm(g1, g2))
                })
                .collect();
            for race in oracle.sampled_guaranteed_races(&trace) {
                let key = norm(
                    oracle.epoch_group(race.first),
                    oracle.epoch_group(race.second),
                );
                assert!(
                    reported.contains(&key),
                    "seed {seed}: sampled guaranteed race {race:?} ({key:?}) unreported"
                );
            }
        }
    }
}
