//! PACER's analysis state and its redefined vector-clock operations.
//!
//! The state `σ = (C, L, V, R, W, s)` of §A.4, together with the copy,
//! increment, and join operations of Algorithms 9–11 and 16 / Table 7.
//! Copy-on-write sharing uses [`CowClock`]; redundancy detection uses
//! [`VersionVector`]s (threads) and [`VersionEpoch`]s (locks and
//! volatiles).
//!
//! Clocks, version vectors, epochs and read-map entries index a thread's
//! clock *slot*, not its program id. A joined thread's slot passes to a
//! later fork, so clocks are as wide as the threads alive at once rather
//! than every thread ever started: the accordion clocks that §5.1 (its
//! ref [9]) names as the production fix for its prototype.

use pacer_clock::{
    ClockArena, ClockValue, CowClock, Epoch, ReadMap, ThreadId, VersionEpoch, VersionVector,
};
use pacer_collections::IdMap;
use pacer_obs::SpaceBreakdown;
use pacer_trace::{LockId, SiteId, VarId, VolatileId};

use crate::PacerStats;

/// Thread metadata: a versioned vector clock plus a version vector (§A.3).
#[derive(Clone, Debug)]
pub(crate) struct ThreadMeta {
    pub clock: CowClock,
    pub ver: VersionVector,
}

impl ThreadMeta {
    /// Initial state: `(inc_t(⊥_c), inc_t(⊥_v))` (§A.4, eq. 7).
    fn initial(t: ThreadId) -> Self {
        let mut clock = pacer_clock::VectorClock::new();
        clock.increment(t);
        let mut ver = VersionVector::new();
        ver.increment(t);
        ThreadMeta {
            clock: CowClock::new(clock),
            ver,
        }
    }

    /// `vepoch(t) ≡ ver_t[t]@t` — the thread's current version epoch.
    pub fn vepoch(&self, t: ThreadId) -> VersionEpoch {
        VersionEpoch::at(self.ver.get(t), t)
    }
}

/// Lock/volatile metadata: a (possibly shared) vector clock plus a version
/// epoch (§A.3).
#[derive(Clone, Debug)]
pub(crate) struct SyncObjMeta {
    pub clock: CowClock,
    pub vepoch: VersionEpoch,
}

/// The sampled last write: epoch plus reporting site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WriteInfo {
    pub epoch: Epoch,
    pub site: SiteId,
}

/// Per-variable metadata. Either side may be absent (`null` in Algorithms
/// 12–13); a variable with neither is removed from the map entirely, which
/// is what makes untracked accesses take the fast path.
#[derive(Clone, Debug, Default)]
pub(crate) struct VarMeta {
    pub write: Option<WriteInfo>,
    pub read: Option<ReadMap>,
}

impl VarMeta {
    pub fn is_empty(&self) -> bool {
        self.write.is_none() && self.read.is_none()
    }
}

/// Each clock slot's occupants in order: (first own time, program thread).
#[derive(Clone, Debug, Default)]
pub(crate) struct Occupants(Vec<Vec<(ClockValue, ThreadId)>>);

impl Occupants {
    /// Number of slots allocated.
    pub fn slots(&self) -> usize {
        self.0.len()
    }

    /// Slot `s`'s current occupant: (first own time, program thread).
    pub fn current(&self, s: ThreadId) -> (ClockValue, ThreadId) {
        self.0[s.index()].last().copied().unwrap_or((0, s))
    }

    /// The program thread that held slot `s` at its own time `c`: the
    /// latest occupant whose first own time is at most `c`.
    pub fn at(&self, s: ThreadId, c: ClockValue) -> ThreadId {
        let held = self
            .0
            .get(s.index())
            .and_then(|o| o.iter().rev().find(|o| o.0 <= c));
        held.map_or(s, |&(_, t)| t)
    }
}

/// Marks an unmapped program thread in [`PacerState`]'s slot table.
const NO_SLOT: u32 = u32::MAX;

/// Where a joined thread's final clock is, for later joins of the thread.
#[derive(Clone, Debug)]
pub(crate) enum Final {
    /// Still in the thread's retired slot.
    Slot(ThreadId),
    /// Saved when a fork took the slot.
    Saved(SyncObjMeta),
}

/// Identifies the source operand of a thread-target join.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SyncRef {
    Thread(ThreadId),
    Lock(LockId),
    Volatile(VolatileId),
    /// A joined thread's saved final clock.
    Final(ThreadId),
}

/// The full PACER analysis state `σ`.
///
/// A join into a thread has one path: the version fast path (rule 4), then
/// the `O(n)` comparison of rules 5–6. Clock storage is copy-on-write, and
/// deep copies and clone-on-writes draw recycled buffers from the trial's
/// [`ClockArena`]. Thread metadata is indexed by clock slot; a dense
/// program-thread table resolves each action's slot with one load.
#[derive(Clone, Debug)]
pub(crate) struct PacerState {
    pub threads: Vec<Option<ThreadMeta>>,
    /// Program thread → clock slot, indexed by `ThreadId::index()`, or
    /// [`NO_SLOT`]. The trace check bounds thread ids below 2^16, so the
    /// table holds at most 65,536 entries.
    slot_of: Vec<u32>,
    pub occupants: Occupants,
    /// Retired slots, each with the final own time its joiner received.
    retired: Vec<(ThreadId, ClockValue)>,
    /// Joined program threads, for a later join of the same thread.
    finals: IdMap<ThreadId, Final>,
    /// Ablation switch: when false, no slot is ever retired, so clocks are
    /// as wide as the threads ever started, as in the paper's prototype.
    pub reuse: bool,
    pub locks: IdMap<LockId, SyncObjMeta>,
    pub volatiles: IdMap<VolatileId, SyncObjMeta>,
    pub vars: IdMap<VarId, VarMeta>,
    pub sampling: bool,
    /// Ablation switch: when false, the version-epoch fast path is skipped
    /// and every join pays the `O(n)` comparison (benchmarked by the
    /// `version_ablation` bench).
    pub use_versions: bool,
    /// The trial's clock arena — recycled storage for every deep copy and
    /// clone-on-write this state performs. `None` only for the
    /// `clock_ablation` baseline, where copies hit the global allocator.
    pub arena: Option<ClockArena>,
    /// First thread whose vector-clock component overflowed, if any.
    /// Clocks saturate instead of panicking (conservative: time stops
    /// advancing, races may be missed but history is never reordered);
    /// the harness converts a post-run `Some` into a quarantinable trial
    /// error.
    pub overflow: Option<ThreadId>,
}

impl Default for PacerState {
    fn default() -> Self {
        PacerState {
            threads: Vec::new(),
            slot_of: Vec::new(),
            occupants: Occupants::default(),
            retired: Vec::new(),
            finals: IdMap::new(),
            reuse: true,
            locks: IdMap::new(),
            volatiles: IdMap::new(),
            vars: IdMap::new(),
            sampling: false,
            use_versions: true,
            arena: Some(ClockArena::new()),
            overflow: None,
        }
    }
}

impl PacerState {
    /// Thread metadata, created at its initial value on first use.
    pub fn thread(&mut self, t: ThreadId) -> &mut ThreadMeta {
        Self::thread_slot(&mut self.threads, t)
    }

    /// Free-standing slot materialization so callers can borrow a thread's
    /// metadata and the arena (disjoint fields) simultaneously.
    fn thread_slot(threads: &mut Vec<Option<ThreadMeta>>, t: ThreadId) -> &mut ThreadMeta {
        let i = t.index();
        if i >= threads.len() {
            threads.resize_with(i + 1, || None);
        }
        threads[i].get_or_insert_with(|| ThreadMeta::initial(t))
    }

    /// The clock slot of program thread `t`, whose metadata exists once
    /// this returns. A thread first seen outside a fork (the main thread)
    /// takes a fresh slot.
    #[inline]
    pub fn slot(&mut self, t: ThreadId) -> ThreadId {
        match self.slot_of.get(t.index()) {
            Some(&s) if s != NO_SLOT => ThreadId::new(s),
            _ => {
                let s = self.fresh_slot();
                self.occupy(s, 0, t);
                self.thread(s);
                s
            }
        }
    }

    fn fresh_slot(&mut self) -> ThreadId {
        self.occupants.0.push(Vec::new());
        ThreadId::new(self.occupants.0.len() as u32 - 1)
    }

    /// Maps program thread `t` to slot `s`, from `s`'s own time `first` on.
    fn occupy(&mut self, s: ThreadId, first: ClockValue, t: ThreadId) {
        if t.index() >= self.slot_of.len() {
            self.slot_of.resize(t.index() + 1, NO_SLOT);
        }
        self.slot_of[t.index()] = s.raw();
        self.occupants.0[s.index()].push((first, t));
    }

    /// `fork t u` (Table 6): `u` joins `C_t`, then `t` ticks.
    ///
    /// `u` takes a retired slot whose last occupant's final clock `C_t`
    /// covers whole (its own component at the final time), or else a fresh
    /// slot. Every epoch the old occupant left then orders before `u` just
    /// as it orders before `t`, and the slot's clock and versions add
    /// nothing `C_t` lacks. The reused slot ticks once, so `u`'s epochs sit
    /// above every epoch the old occupant left.
    pub fn fork(&mut self, t: ThreadId, u: ThreadId, stats: &mut PacerStats) {
        let t = self.slot(t);
        let reused = self.take_retired(t);
        let s = reused.unwrap_or_else(|| self.fresh_slot());
        self.join_into_thread(s, SyncRef::Thread(t), stats);
        self.increment(t, stats);
        let first = if reused.is_some() {
            self.tick(s, stats)
        } else {
            0
        };
        self.occupy(s, first, u);
    }

    /// Removes and returns a retired slot whose last occupant's final
    /// clock `C_t` covers, and saves that clock for later joins of the
    /// occupant.
    fn take_retired(&mut self, t: ThreadId) -> Option<ThreadId> {
        let ct = self.threads[t.index()].as_ref()?.clock.clock();
        let threads = &self.threads;
        let pos = self.retired.iter().position(|&(s, fin)| {
            let old = threads[s.index()].as_ref().map(|m| m.clock.clock());
            ct.get(s) >= fin
                && old.is_some_and(|old| old.iter().all(|(x, c)| x == s || c <= ct.get(x)))
        })?;
        let s = self.retired.swap_remove(pos).0;
        let meta = self.threads[s.index()].as_ref().expect("checked above");
        let saved = SyncObjMeta {
            clock: meta.clock.shallow_copy(),
            vepoch: meta.vepoch(s),
        };
        self.finals
            .insert(self.occupants.current(s).1, Final::Saved(saved));
        Some(s)
    }

    /// `join t u` (Table 6): `t` joins `C_u`, then `u` ticks. With reuse
    /// on, `u`'s first join retires its slot with the own time `C_t` now
    /// holds for it (no later value ever escapes `u`) and unmaps `u`. A
    /// later join of `u` joins its retired slot, or its saved final clock
    /// once a fork has taken the slot.
    pub fn join(&mut self, t: ThreadId, u: ThreadId, stats: &mut PacerStats) {
        let ts = self.slot(t);
        let us = match self.finals.get(u) {
            Some(&Final::Slot(s)) => s,
            Some(Final::Saved(_)) => return self.join_into_thread(ts, SyncRef::Final(u), stats),
            None => self.slot(u),
        };
        self.join_into_thread(ts, SyncRef::Thread(us), stats);
        self.increment(us, stats);
        if self.reuse && self.slot_of[u.index()] != NO_SLOT {
            let fin = self.thread(ts).clock.clock().get(us);
            self.retired.push((us, fin));
            self.slot_of[u.index()] = NO_SLOT;
            self.finals.insert(u, Final::Slot(us));
        }
    }

    /// A joined thread's final clock, once saved.
    fn saved(&self, u: ThreadId) -> Option<&SyncObjMeta> {
        match self.finals.get(u) {
            Some(Final::Saved(meta)) => Some(meta),
            _ => None,
        }
    }

    /// Reads the version epoch of a join source without touching its clock
    /// — the version fast path (rule 4) needs nothing else, so the common
    /// case never pays refcount traffic on the clock handle. Absent objects
    /// (never-released locks, never-written volatiles) read as `⊥_ve`, for
    /// which every join is a fast no-op.
    fn source_vepoch(&mut self, source: SyncRef) -> VersionEpoch {
        let meta = match source {
            SyncRef::Thread(u) => return self.thread(u).vepoch(u),
            SyncRef::Lock(m) => self.locks.get(m),
            SyncRef::Volatile(v) => self.volatiles.get(v),
            SyncRef::Final(u) => self.saved(u),
        };
        meta.map_or(VersionEpoch::BOTTOM, |meta| meta.vepoch)
    }

    /// An `O(1)` handle on the source clock of a join (slow path only).
    fn source_clock(&mut self, source: SyncRef) -> CowClock {
        let meta = match source {
            SyncRef::Thread(u) => return self.thread(u).clock.shallow_copy(),
            SyncRef::Lock(m) => self.locks.get(m),
            SyncRef::Volatile(v) => self.volatiles.get(v),
            SyncRef::Final(u) => self.saved(u),
        };
        meta.map_or_else(CowClock::bottom, |meta| meta.clock.shallow_copy())
    }

    /// Vector-clock increment (Algorithm 10): `C_t ← inc_t(C_t, s)`.
    ///
    /// No-op outside sampling periods — this is what makes them *timeless*.
    pub fn increment(&mut self, t: ThreadId, stats: &mut PacerStats) {
        if self.sampling {
            self.tick(t, stats);
        }
    }

    /// Increments slot `t`'s own clock component and version
    /// unconditionally, returning the new own time.
    fn tick(&mut self, t: ThreadId, stats: &mut PacerStats) -> ClockValue {
        let meta = Self::thread_slot(&mut self.threads, t);
        if meta.clock.is_shared() {
            stats.cow_clones += 1;
        }
        let clock = meta.clock.make_mut_in(self.arena.as_ref());
        if clock.try_increment(t).is_err() {
            self.overflow.get_or_insert(t);
        }
        meta.ver.increment(t);
        clock.get(t)
    }

    /// Vector-clock join with a thread target (Algorithm 11 / Table 7,
    /// rules 4–6): `C_t ← C_t ⊔ S_o`.
    ///
    /// The paper's version fast path (rule 4) is the one `O(1)` exit;
    /// every other join pays the `O(n)` comparison of rules 5–6.
    pub fn join_into_thread(&mut self, t: ThreadId, source: SyncRef, stats: &mut PacerStats) {
        let src_vepoch = self.source_vepoch(source);
        let sampling = self.sampling;
        // Rule 4 {Same version epoch}: the source's snapshot is already
        // subsumed — O(1), no clock work at all.
        if self.use_versions && src_vepoch.leq(&self.thread(t).ver) {
            if sampling {
                stats.joins.sampling_fast += 1;
            } else {
                stats.joins.non_sampling_fast += 1;
            }
            return;
        }
        if sampling {
            stats.joins.sampling_slow += 1;
        } else {
            stats.joins.non_sampling_slow += 1;
        }

        let src_clock = self.source_clock(source);
        let meta = Self::thread_slot(&mut self.threads, t);

        // Rules 5–6: O(n) comparison decides whether the join changes C_t.
        // Shared storage is a free O(1) answer: identical content.
        let subsumed =
            CowClock::ptr_eq(&src_clock, &meta.clock) || src_clock.clock().leq(meta.clock.clock());
        if !subsumed {
            // Rule 6 {Concurrent}: perform the join.
            if meta.clock.is_shared() {
                stats.cow_clones += 1;
            }
            meta.clock
                .make_mut_in(self.arena.as_ref())
                .join(src_clock.clock());
            meta.ver.increment(t);
        }
        // Rules 5 and 6 both record the received version (skipped for ⊤_ve).
        if let VersionEpoch::At { v, t: u } = src_vepoch {
            meta.ver.set(u, v);
        }
    }

    /// Vector-clock copy into a lock (Algorithm 9): `C_m ← C_t`, at a lock
    /// release. Shallow outside sampling periods, deep inside.
    pub fn copy_to_lock(&mut self, m: LockId, t: ThreadId, stats: &mut PacerStats) {
        let sampling = self.sampling;
        let meta = Self::thread_slot(&mut self.threads, t);
        let (clock, vepoch) = if sampling {
            stats.copies.sampling_deep += 1;
            (meta.clock.deep_copy_in(self.arena.as_ref()), meta.vepoch(t))
        } else {
            stats.copies.non_sampling_shallow += 1;
            (meta.clock.shallow_copy(), meta.vepoch(t))
        };
        let displaced = self.locks.insert(m, SyncObjMeta { clock, vepoch });
        // The overwritten lock clock is dead; park sole-owner storage
        // (shared storage stays with its other owners — skip the pool).
        if let Some(old) = displaced {
            if !old.clock.is_shared() {
                if let Some(arena) = &self.arena {
                    arena.reclaim(old.clock);
                }
            }
        }
    }

    /// Vector-clock join with a volatile target (Algorithm 16 / Table 7,
    /// rules 7–9): `C_vx ← C_vx ⊔ C_t`, at a volatile write.
    ///
    /// When the thread's clock subsumes the volatile's (detected by version
    /// epoch or by an `O(n)` comparison) the join degenerates to a copy —
    /// shallow outside sampling periods — and the volatile keeps a version
    /// epoch. Otherwise the volatile's clock becomes a true join of several
    /// threads' clocks and its version epoch becomes `⊤_ve`.
    ///
    /// Deviation note: Algorithm 16 as printed only takes the subsumption
    /// fast path while sampling; we follow the Table 7 semantics (and the
    /// surrounding prose), which applies it in both periods. See DESIGN.md.
    pub fn join_into_volatile(&mut self, vx: VolatileId, t: ThreadId, stats: &mut PacerStats) {
        let sampling = self.sampling;
        let (t_vepoch, t_clock) = {
            let meta = self.thread(t);
            (meta.vepoch(t), meta.clock.shallow_copy())
        };
        let existing = self.volatiles.get(vx);

        // Does C_t subsume C_vx?
        let (subsumes, fast) = match existing {
            None => (true, true),
            Some(meta) => {
                let ver_hit = self.use_versions && {
                    // Check the volatile's version epoch against the
                    // thread's version vector.
                    let thread_ver = &self.threads[t.index()].as_ref().expect("thread exists").ver;
                    meta.vepoch.leq(thread_ver)
                };
                if ver_hit {
                    (true, true)
                } else {
                    (meta.clock.clock().leq(t_clock.clock()), false)
                }
            }
        };
        if fast {
            if sampling {
                stats.joins.sampling_fast += 1;
            } else {
                stats.joins.non_sampling_fast += 1;
            }
        } else if sampling {
            stats.joins.sampling_slow += 1;
        } else {
            stats.joins.non_sampling_slow += 1;
        }

        if subsumes {
            // Rules 7–8: the join is a copy of C_t.
            let clock = if sampling {
                stats.copies.sampling_deep += 1;
                t_clock.deep_copy_in(self.arena.as_ref())
            } else {
                stats.copies.non_sampling_shallow += 1;
                t_clock.shallow_copy()
            };
            let displaced = self.volatiles.insert(
                vx,
                SyncObjMeta {
                    clock,
                    vepoch: t_vepoch,
                },
            );
            // The overwritten volatile clock is dead; park sole-owner
            // storage (shared storage stays with its other owners).
            if let Some(old) = displaced {
                if !old.clock.is_shared() {
                    if let Some(arena) = &self.arena {
                        arena.reclaim(old.clock);
                    }
                }
            }
        } else {
            // Rule 9 {Concurrent}: real join; version epoch becomes ⊤_ve.
            let meta = self
                .volatiles
                .get_mut(vx)
                .expect("subsumes=false implies entry");
            if meta.clock.is_shared() {
                stats.cow_clones += 1;
            }
            meta.clock
                .make_mut_in(self.arena.as_ref())
                .join(t_clock.clock());
            meta.vepoch = VersionEpoch::Top;
        }
    }

    /// `sbegin()` (Table 5, rule 1): increments every live thread's clock
    /// and version, then enables sampling. The increments add no
    /// happens-before edges; they only re-establish *strict*
    /// well-formedness (Lemma 5) so epochs recorded in this period are
    /// distinguishable.
    pub fn sample_begin(&mut self, stats: &mut PacerStats) {
        stats.sample_periods += 1;
        for i in 0..self.threads.len() {
            if self.threads[i].is_some() {
                self.tick(ThreadId::new(i as u32), stats);
            }
        }
        self.sampling = true;
    }

    /// `send()` (Table 5, rule 2): disables sampling.
    pub fn sample_end(&mut self) {
        self.sampling = false;
    }

    /// Live metadata footprint in machine words. Shared clock buffers are
    /// charged once — that is precisely the saving shallow copies buy.
    pub fn footprint_words(&self) -> usize {
        self.space_breakdown().total_words() as usize
    }

    /// Splits the live metadata footprint by category (Fig. 7's space
    /// accounting). The sum of the word fields equals
    /// [`footprint_words`](Self::footprint_words); clock storage reached by
    /// more than one owner is charged once, under `clock_words_shared`.
    pub fn space_breakdown(&self) -> SpaceBreakdown {
        let mut seen = std::collections::HashSet::new();
        let mut b = SpaceBreakdown::default();
        let mut charge = |b: &mut SpaceBreakdown, c: &CowClock| {
            if seen.insert(c.storage_id()) {
                let words = c.clock().width() as u64;
                if c.is_shared() {
                    b.clock_words_shared += words;
                } else {
                    b.clock_words_owned += words;
                }
            }
        };
        for meta in self.threads.iter().flatten() {
            charge(&mut b, &meta.clock);
            b.version_words += meta.ver.width() as u64;
        }
        for meta in self.locks.values() {
            charge(&mut b, &meta.clock);
            b.version_words += 2; // version epoch
        }
        for meta in self.volatiles.values() {
            charge(&mut b, &meta.clock);
            b.version_words += 2;
        }
        for u in self.finals.keys() {
            if let Some(meta) = self.saved(u) {
                charge(&mut b, &meta.clock);
                b.version_words += 2;
            }
        }
        for meta in self.vars.values() {
            b.tracked_vars += 1;
            b.write_words += 2; // write epoch + site (inline but charged per entry)
            if let Some(r) = &meta.read {
                b.read_map_words += r.footprint_words() as u64 + 1;
                b.read_map_entries += r.len() as u64;
            }
        }
        b
    }

    /// Checks the well-formedness invariants of Definition 1 plus Lemma 7
    /// (versions imply vector-clock ordering). Used by property tests after
    /// every transition; `O(n²)` and debug-only by design.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        // The slot table: every mapped or retired slot was allocated, a
        // retired slot is neither retired twice nor mapped, and a joined
        // thread's final clock not yet saved is in its retired slot.
        let slots = self.occupants.slots();
        let mapped = || self.slot_of.iter().filter(|&&s| s != NO_SLOT);
        assert!(
            mapped().all(|&s| (s as usize) < slots),
            "unallocated slot mapped"
        );
        for (i, &(s, _)) in self.retired.iter().enumerate() {
            assert!(s.index() < slots, "retired slot {s} was never allocated");
            assert!(
                self.retired[i + 1..].iter().all(|o| o.0 != s),
                "{s} retired twice"
            );
            assert!(
                mapped().all(|&m| m != s.raw()),
                "{s} both retired and mapped"
            );
        }
        for (u, f) in self.finals.iter() {
            if let Final::Slot(s) = *f {
                assert!(
                    self.retired.iter().any(|r| r.0 == s),
                    "{u}'s slot {s} taken without saving its final clock"
                );
            }
        }
        let live: Vec<(ThreadId, &ThreadMeta)> = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (ThreadId::new(i as u32), m)))
            .collect();
        for &(t, tm) in &live {
            let own = tm.clock.clock().get(t);
            let own_ver = tm.ver.get(t);
            for &(u, um) in &live {
                if u == t {
                    continue;
                }
                // Definition 1.1: C_u.vc(t) ≤ C_t.vc(t).
                assert!(
                    um.clock.clock().get(t) <= own,
                    "invariant 1 violated: C_{u}({t}) > C_{t}({t})"
                );
                // Definition 1.6: C_u.ver(t) ≤ C_t.ver(t).
                assert!(
                    um.ver.get(t) <= own_ver,
                    "invariant 6 violated: ver_{u}({t}) > ver_{t}({t})"
                );
            }
            for (m, lm) in self.locks.iter() {
                // Definition 1.2 / 1.7.
                assert!(
                    lm.clock.clock().get(t) <= own,
                    "invariant 2 violated: C_{m}({t}) > C_{t}({t})"
                );
                if let VersionEpoch::At { v, t: vt } = lm.vepoch {
                    if vt == t {
                        assert!(v <= own_ver, "invariant 7 violated at lock {m}");
                    }
                }
            }
            for (u, fm) in self.finals.keys().filter_map(|u| Some((u, self.saved(u)?))) {
                // A saved final clock is bounded like a lock's.
                assert!(
                    fm.clock.clock().get(t) <= own,
                    "{u}'s final clock ahead of C_{t}({t})"
                );
                if fm.vepoch.leq(&tm.ver) {
                    assert!(
                        fm.clock.clock().leq(tm.clock.clock()),
                        "lemma 7 violated: {u}'s final clock subsumed by version but not by clock of {t}"
                    );
                }
            }
            for (vx, vm) in self.volatiles.iter() {
                // Definition 1.5 / 1.8.
                assert!(
                    vm.clock.clock().get(t) <= own,
                    "invariant 5 violated: C_{vx}({t}) > C_{t}({t})"
                );
                if let VersionEpoch::At { v, t: vt } = vm.vepoch {
                    if vt == t {
                        assert!(v <= own_ver, "invariant 8 violated at volatile {vx}");
                    }
                }
            }
            // Definition 1.3 / 1.4: variable metadata is bounded by thread
            // clocks.
            for (x, xm) in self.vars.iter() {
                if let Some(w) = &xm.write {
                    if w.epoch.tid() == t {
                        assert!(
                            w.epoch.clock() <= own,
                            "invariant 4 violated: W_{x} ahead of C_{t}({t})"
                        );
                    }
                }
                if let Some(r) = &xm.read {
                    for entry in r.iter() {
                        if entry.tid == t {
                            assert!(
                                entry.clock <= own,
                                "invariant 3 violated: R_{x}({t}) ahead of C_{t}({t})"
                            );
                        }
                    }
                }
            }
            // Lemma 7: Ver(o) ≼ C_t.ver ⇒ S_o.vc ⊑ C_t.vc.
            for (m, lm) in self.locks.iter() {
                if lm.vepoch.leq(&tm.ver) {
                    assert!(
                        lm.clock.clock().leq(tm.clock.clock()),
                        "lemma 7 violated: lock {m} subsumed by version but not by clock of {t}"
                    );
                }
            }
            for (vx, vm) in self.volatiles.iter() {
                if vm.vepoch.leq(&tm.ver) {
                    assert!(
                        vm.clock.clock().leq(tm.clock.clock()),
                        "lemma 7 violated: volatile {vx} subsumed by version but not by clock of {t}"
                    );
                }
            }
            for &(u, um) in &live {
                if um.vepoch(u).leq(&tm.ver) {
                    assert!(
                        um.clock.clock().leq(tm.clock.clock()),
                        "lemma 7 violated: thread {u} subsumed by version but not by clock of {t}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn initial_thread_state_matches_equation_7() {
        let mut st = PacerState::default();
        let meta = st.thread(t(2));
        assert_eq!(meta.clock.clock().get(t(2)), 1);
        assert_eq!(meta.ver.get(t(2)), 1);
        assert_eq!(meta.vepoch(t(2)), VersionEpoch::at(1, t(2)));
    }

    #[test]
    fn increment_is_noop_outside_sampling() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.thread(t(0));
        st.increment(t(0), &mut stats);
        assert_eq!(st.thread(t(0)).clock.clock().get(t(0)), 1, "timeless");
        st.sampling = true;
        st.increment(t(0), &mut stats);
        assert_eq!(st.thread(t(0)).clock.clock().get(t(0)), 2);
        assert_eq!(st.thread(t(0)).ver.get(t(0)), 2, "version tracks clock");
    }

    #[test]
    fn copy_to_lock_is_shallow_outside_sampling() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.thread(t(0));
        st.copy_to_lock(LockId::new(0), t(0), &mut stats);
        assert_eq!(stats.copies.non_sampling_shallow, 1);
        assert_eq!(stats.copies.sampling_deep, 0);
        let lock = &st.locks[&LockId::new(0)];
        assert!(CowClock::ptr_eq(
            &lock.clock,
            &st.threads[0].as_ref().unwrap().clock
        ));
        assert_eq!(lock.vepoch, VersionEpoch::at(1, t(0)));
    }

    #[test]
    fn copy_to_lock_is_deep_inside_sampling() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.thread(t(0));
        st.sampling = true;
        st.copy_to_lock(LockId::new(0), t(0), &mut stats);
        assert_eq!(stats.copies.sampling_deep, 1);
        let lock = &st.locks[&LockId::new(0)];
        assert!(!CowClock::ptr_eq(
            &lock.clock,
            &st.threads[0].as_ref().unwrap().clock
        ));
    }

    #[test]
    fn redundant_join_takes_fast_path() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.thread(t(0));
        st.thread(t(1));
        st.copy_to_lock(LockId::new(0), t(0), &mut stats);
        // First acquire by t1: slow (never received t0's version).
        st.join_into_thread(t(1), SyncRef::Lock(LockId::new(0)), &mut stats);
        assert_eq!(stats.joins.non_sampling_slow, 1);
        // Redundant re-acquire: fast.
        st.join_into_thread(t(1), SyncRef::Lock(LockId::new(0)), &mut stats);
        assert_eq!(stats.joins.non_sampling_fast, 1);
        st.assert_invariants();
    }

    #[test]
    fn join_of_missing_lock_is_fast_noop() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.join_into_thread(t(0), SyncRef::Lock(LockId::new(9)), &mut stats);
        assert_eq!(stats.joins.non_sampling_fast, 1);
        assert_eq!(st.thread(t(0)).clock.clock().get(t(0)), 1);
    }

    #[test]
    fn join_updates_clock_and_version_when_concurrent() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.sampling = true;
        st.thread(t(0));
        st.thread(t(1));
        st.increment(t(0), &mut stats); // make t0's clock nontrivial
        st.copy_to_lock(LockId::new(0), t(0), &mut stats);
        st.join_into_thread(t(1), SyncRef::Lock(LockId::new(0)), &mut stats);
        let m1 = st.threads[1].as_ref().unwrap();
        assert_eq!(m1.clock.clock().get(t(0)), 2, "received t0's time");
        assert_eq!(m1.ver.get(t(1)), 2, "own version bumped by the join");
        assert_eq!(m1.ver.get(t(0)), 2, "recorded t0's version");
        st.assert_invariants();
    }

    #[test]
    fn shared_clock_is_cloned_before_join_mutation() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.thread(t(0));
        st.thread(t(1));
        // Outside sampling: t1 releases a lock, sharing its clock.
        st.copy_to_lock(LockId::new(1), t(1), &mut stats);
        // t0 publishes a nontrivial clock via lock 0.
        st.sampling = true;
        st.increment(t(0), &mut stats);
        st.copy_to_lock(LockId::new(0), t(0), &mut stats);
        st.sampling = false;
        // t1 joins lock 0: its (shared) clock must be cloned first.
        let before = stats.cow_clones;
        st.join_into_thread(t(1), SyncRef::Lock(LockId::new(0)), &mut stats);
        assert_eq!(stats.cow_clones, before + 1);
        // Lock 1 still holds the old snapshot.
        assert_eq!(st.locks[&LockId::new(1)].clock.clock().get(t(0)), 0);
        assert_eq!(st.threads[1].as_ref().unwrap().clock.clock().get(t(0)), 2);
        st.assert_invariants();
    }

    #[test]
    fn volatile_join_subsumed_becomes_copy() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.thread(t(0));
        // First write: volatile absent → fast, copy.
        st.join_into_volatile(VolatileId::new(0), t(0), &mut stats);
        assert_eq!(stats.joins.non_sampling_fast, 1);
        assert_eq!(stats.copies.non_sampling_shallow, 1);
        let meta = &st.volatiles[&VolatileId::new(0)];
        assert_eq!(meta.vepoch, VersionEpoch::at(1, t(0)));
        // Redundant re-write: version fast path.
        st.join_into_volatile(VolatileId::new(0), t(0), &mut stats);
        assert_eq!(stats.joins.non_sampling_fast, 2);
        st.assert_invariants();
    }

    #[test]
    fn concurrent_volatile_writers_reach_top() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.sampling = true;
        st.thread(t(0));
        st.thread(t(1));
        let vx = VolatileId::new(0);
        st.join_into_volatile(vx, t(0), &mut stats);
        st.increment(t(0), &mut stats);
        // t1 has not seen t0: its write cannot subsume the volatile.
        st.join_into_volatile(vx, t(1), &mut stats);
        assert_eq!(st.volatiles[&vx].vepoch, VersionEpoch::Top);
        let c = st.volatiles[&vx].clock.clock();
        assert_eq!(c.get(t(0)), 1);
        assert_eq!(c.get(t(1)), 1);
        st.assert_invariants();
    }

    #[test]
    fn sample_begin_increments_every_live_thread() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.thread(t(0));
        st.thread(t(2));
        st.sample_begin(&mut stats);
        assert!(st.sampling);
        assert_eq!(stats.sample_periods, 1);
        assert_eq!(st.threads[0].as_ref().unwrap().clock.clock().get(t(0)), 2);
        assert!(st.threads[1].is_none(), "unseen threads untouched");
        assert_eq!(st.threads[2].as_ref().unwrap().clock.clock().get(t(2)), 2);
        st.sample_end();
        assert!(!st.sampling);
        st.assert_invariants();
    }

    #[test]
    fn footprint_charges_shared_storage_once() {
        let mut st = PacerState::default();
        let mut stats = PacerStats::default();
        st.sampling = true;
        st.thread(t(0));
        st.increment(t(0), &mut stats);
        st.sampling = false;
        let solo = st.footprint_words();
        // Shallow-copy the thread clock into three locks: footprint should
        // grow only by the per-lock version epochs, not by clock storage.
        for m in 0..3 {
            st.copy_to_lock(LockId::new(m), t(0), &mut stats);
        }
        assert_eq!(st.footprint_words(), solo + 3 * 2);
    }

    #[test]
    fn var_meta_emptiness() {
        let mut vm = VarMeta::default();
        assert!(vm.is_empty());
        vm.write = Some(WriteInfo {
            epoch: Epoch::new(1, t(0)),
            site: SiteId::new(0),
        });
        assert!(!vm.is_empty());
    }
}
