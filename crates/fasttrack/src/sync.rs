//! Shared synchronization-clock state for the unsampled detectors: one
//! plain [`VectorClock`] per thread, lock and volatile, updated by the
//! paper's Algorithms 1–4 and 14–15 exactly as printed.

use pacer_clock::{ThreadId, VectorClock};
use pacer_collections::IdMap;
use pacer_trace::{Action, LockId, VolatileId};

/// Vector clocks for every synchronization object: threads, locks, and
/// volatile variables (§2.1).
///
/// Both [`GenericDetector`](crate::GenericDetector) and
/// [`FastTrackDetector`](crate::FastTrackDetector) perform identical
/// analysis at synchronization operations (Algorithms 1–4 for locks and
/// threads, 14–15 for volatiles); this type implements it once. Every
/// acquire and volatile read is an `O(n)` join: unlike PACER, these
/// detectors have no version epochs to skip a redundant one. Each object
/// owns its clock outright — no two objects ever share one — so there is
/// no copy-on-write storage and nothing to recycle.
///
/// Thread clocks are created lazily, initialized to `inc_t(⊥_c)` as in the
/// initial analysis state (§A.4, eq. 7).
///
/// # Examples
///
/// ```
/// use pacer_clock::ThreadId;
/// use pacer_fasttrack::SyncClocks;
/// use pacer_trace::{Action, LockId};
///
/// let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
/// let m = LockId::new(0);
/// let mut sync = SyncClocks::new();
/// sync.apply(&Action::Release { t: t0, m });
/// sync.apply(&Action::Acquire { t: t1, m });
/// // t1 now knows t0's time at the release.
/// assert_eq!(sync.clock(t1).get(t0), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SyncClocks {
    threads: Vec<Option<VectorClock>>,
    locks: IdMap<LockId, VectorClock>,
    volatiles: IdMap<VolatileId, VectorClock>,
    /// First thread whose clock component overflowed, if any. Clocks
    /// saturate rather than panic; the harness turns a post-run `Some`
    /// into a quarantinable trial error.
    overflow: Option<ThreadId>,
}

impl SyncClocks {
    /// Creates empty synchronization state.
    pub fn new() -> Self {
        SyncClocks::default()
    }

    /// The current vector clock of thread `t`, creating it at its initial
    /// value `inc_t(⊥_c)` if `t` has not been seen yet.
    pub fn clock(&mut self, t: ThreadId) -> &VectorClock {
        Self::ensure_slot(&mut self.threads, t)
    }

    /// Read-only view of thread `t`'s clock, or `None` if `t` has not
    /// been materialized yet. Unlike [`clock`](Self::clock) this never
    /// mutates, so invariant checks can walk the state as-is.
    pub fn thread_clock(&self, t: ThreadId) -> Option<&VectorClock> {
        self.threads.get(t.index()).and_then(Option::as_ref)
    }

    /// Increments `clock[t]`, recording the first overflow stickily. The
    /// clock itself saturates (see [`VectorClock::try_increment`]), so the
    /// analysis stays sound — it just stops advancing `t`'s time.
    fn bump(overflow: &mut Option<ThreadId>, clock: &mut VectorClock, t: ThreadId) {
        if let Err(e) = clock.try_increment(t) {
            overflow.get_or_insert(e.thread);
        }
    }

    /// The thread whose clock first overflowed during this run, if any.
    pub fn clock_overflow(&self) -> Option<ThreadId> {
        self.overflow
    }

    /// Free-standing slot materialization so `apply` can borrow a thread
    /// clock and a lock/volatile clock simultaneously (disjoint fields)
    /// instead of cloning one side per synchronization operation.
    fn ensure_slot(threads: &mut Vec<Option<VectorClock>>, t: ThreadId) -> &mut VectorClock {
        let i = t.index();
        if i >= threads.len() {
            threads.resize(i + 1, None);
        }
        threads[i].get_or_insert_with(|| {
            let mut clock = VectorClock::new();
            clock.increment(t);
            clock
        })
    }

    /// Applies a synchronization action (Algorithms 1–4, 14–15). Returns
    /// `true` if the action was a synchronization action; data accesses and
    /// sampling markers return `false` untouched.
    pub fn apply(&mut self, action: &Action) -> bool {
        match *action {
            Action::Acquire { t, m } => {
                // C_t ← C_t ⊔ C_m
                let ct = Self::ensure_slot(&mut self.threads, t);
                if let Some(cm) = self.locks.get(m) {
                    ct.join(cm);
                }
            }
            Action::Release { t, m } => {
                // C_m ← C_t ; C_t[t]++
                let ct = Self::ensure_slot(&mut self.threads, t);
                match self.locks.get_mut(m) {
                    Some(cm) => cm.clone_from(ct),
                    None => {
                        self.locks.insert(m, ct.clone());
                    }
                }
                Self::bump(&mut self.overflow, ct, t);
            }
            Action::Fork { t, u } => {
                // C_u ← C_t ; C_u[u]++ ; C_t[t]++
                let ct = Self::ensure_slot(&mut self.threads, t).clone();
                let cu = Self::ensure_slot(&mut self.threads, u);
                *cu = ct;
                Self::bump(&mut self.overflow, cu, u);
                let ct = Self::ensure_slot(&mut self.threads, t);
                Self::bump(&mut self.overflow, ct, t);
            }
            Action::Join { t, u } => {
                // C_t ← C_u ⊔ C_t ; C_u[u]++
                let cu = Self::ensure_slot(&mut self.threads, u).clone();
                Self::ensure_slot(&mut self.threads, t).join(&cu);
                let cu = Self::ensure_slot(&mut self.threads, u);
                Self::bump(&mut self.overflow, cu, u);
            }
            Action::VolRead { t, v } => {
                // C_t ← C_t ⊔ C_v
                let ct = Self::ensure_slot(&mut self.threads, t);
                if let Some(cv) = self.volatiles.get(v) {
                    ct.join(cv);
                }
            }
            Action::VolWrite { t, v } => {
                // C_v ← C_v ⊔ C_t ; C_t[t]++
                let ct = Self::ensure_slot(&mut self.threads, t);
                self.volatiles
                    .get_or_insert_with(v, VectorClock::new)
                    .join(ct);
                Self::bump(&mut self.overflow, ct, t);
            }
            _ => return false,
        }
        true
    }

    /// Live metadata footprint in machine words (for space accounting):
    /// one word per materialized clock slot, which is everything this type
    /// holds.
    pub fn footprint_words(&self) -> usize {
        let threads = self.threads.iter().flatten();
        threads
            .chain(self.locks.values())
            .chain(self.volatiles.values())
            .map(VectorClock::width)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    /// Installs `c` as thread `i`'s clock, as if replayed to that state.
    fn install(s: &mut SyncClocks, i: u32, c: VectorClock) {
        *SyncClocks::ensure_slot(&mut s.threads, t(i)) = c;
    }

    #[test]
    fn fresh_thread_starts_at_one() {
        let mut s = SyncClocks::new();
        assert_eq!(s.clock(t(3)).get(t(3)), 1);
        assert_eq!(s.clock(t(3)).get(t(0)), 0);
    }

    #[test]
    fn release_acquire_transfers_time() {
        let mut s = SyncClocks::new();
        let m = LockId::new(0);
        s.apply(&Action::Release { t: t(0), m });
        // The release incremented t0 past the published time.
        assert_eq!(s.clock(t(0)).get(t(0)), 2);
        s.apply(&Action::Acquire { t: t(1), m });
        assert_eq!(s.clock(t(1)).get(t(0)), 1);
        assert_eq!(s.clock(t(1)).get(t(1)), 1);
    }

    #[test]
    fn acquire_of_unreleased_lock_is_noop() {
        let mut s = SyncClocks::new();
        s.apply(&Action::Acquire {
            t: t(0),
            m: LockId::new(9),
        });
        assert_eq!(s.clock(t(0)).get(t(0)), 1);
    }

    #[test]
    fn fork_publishes_parent_time_to_child() {
        let mut s = SyncClocks::new();
        s.apply(&Action::Fork { t: t(0), u: t(1) });
        assert_eq!(s.clock(t(1)).get(t(0)), 1, "child sees parent");
        assert_eq!(s.clock(t(1)).get(t(1)), 1, "child incremented own slot");
        assert_eq!(s.clock(t(0)).get(t(0)), 2, "parent advanced past fork");
    }

    #[test]
    fn join_publishes_child_time_to_parent() {
        let mut s = SyncClocks::new();
        s.apply(&Action::Fork { t: t(0), u: t(1) });
        s.apply(&Action::Release {
            t: t(1),
            m: LockId::new(0),
        });
        s.apply(&Action::Join { t: t(0), u: t(1) });
        assert_eq!(s.clock(t(0)).get(t(1)), 2, "parent sees child's time");
    }

    #[test]
    fn volatile_write_then_read_creates_edge() {
        let mut s = SyncClocks::new();
        let v = VolatileId::new(0);
        s.apply(&Action::VolWrite { t: t(0), v });
        s.apply(&Action::VolRead { t: t(1), v });
        assert_eq!(s.clock(t(1)).get(t(0)), 1);
    }

    #[test]
    fn volatile_write_joins_rather_than_copies() {
        // Two concurrent volatile writers: the volatile's clock accumulates
        // both (Algorithm 15 joins).
        let mut s = SyncClocks::new();
        let v = VolatileId::new(0);
        s.apply(&Action::VolWrite { t: t(0), v });
        s.apply(&Action::VolWrite { t: t(1), v });
        s.apply(&Action::VolRead { t: t(2), v });
        assert_eq!(s.clock(t(2)).get(t(0)), 1);
        assert_eq!(s.clock(t(2)).get(t(1)), 1);
    }

    #[test]
    fn non_sync_actions_are_ignored() {
        let mut s = SyncClocks::new();
        assert!(!s.apply(&Action::SampleBegin));
        assert!(!s.apply(&Action::Read {
            t: t(0),
            x: pacer_trace::VarId::new(0),
            site: pacer_trace::SiteId::new(0),
        }));
    }

    #[test]
    fn overflow_is_recorded_stickily_and_clock_saturates() {
        let mut s = SyncClocks::new();
        let mut c = VectorClock::new();
        c.set(t(0), pacer_clock::MAX_CLOCK);
        install(&mut s, 0, c);
        assert_eq!(s.clock_overflow(), None);
        let m = LockId::new(0);
        s.apply(&Action::Release { t: t(0), m });
        assert_eq!(s.clock_overflow(), Some(t(0)));
        assert_eq!(s.clock(t(0)).get(t(0)), pacer_clock::MAX_CLOCK);
        // A later overflow on another thread does not displace the first.
        let mut c1 = VectorClock::new();
        c1.set(t(1), pacer_clock::MAX_CLOCK);
        install(&mut s, 1, c1);
        s.apply(&Action::Release { t: t(1), m });
        assert_eq!(s.clock_overflow(), Some(t(0)));
    }

    #[test]
    fn footprint_counts_materialized_slots() {
        let mut s = SyncClocks::new();
        assert_eq!(s.footprint_words(), 0);
        s.apply(&Action::Fork { t: t(0), u: t(1) });
        assert!(s.footprint_words() >= 3, "t0 (1 slot) + t1 (2 slots)");
    }

    #[test]
    fn reacquire_after_re_release_sees_the_new_time() {
        let mut s = SyncClocks::new();
        let m = LockId::new(0);
        s.apply(&Action::Release { t: t(0), m });
        s.apply(&Action::Acquire { t: t(1), m });
        s.apply(&Action::Release { t: t(0), m });
        s.apply(&Action::Acquire { t: t(1), m });
        assert_eq!(s.clock(t(1)).get(t(0)), 2, "saw the second release");
    }

    #[test]
    fn volatile_reread_sees_a_later_writer() {
        let mut s = SyncClocks::new();
        let v = VolatileId::new(0);
        s.apply(&Action::VolWrite { t: t(0), v });
        s.apply(&Action::VolRead { t: t(1), v });
        s.apply(&Action::VolRead { t: t(1), v });
        s.apply(&Action::VolWrite { t: t(2), v });
        s.apply(&Action::VolRead { t: t(1), v });
        assert_eq!(s.clock(t(1)).get(t(2)), 1);
    }

    #[test]
    fn reacquire_after_fork_overwrite_rejoins_the_lock() {
        // t1 joins m's clock, then is re-forked (slot overwrite): its next
        // acquire of m must join C_m again.
        let mut s = SyncClocks::new();
        let m = LockId::new(0);
        s.apply(&Action::Release { t: t(2), m });
        s.apply(&Action::Acquire { t: t(1), m });
        assert_eq!(s.clock(t(1)).get(t(2)), 1);
        // Overwrite t1's clock wholesale via a fork from a fresh parent.
        s.apply(&Action::Fork { t: t(0), u: t(1) });
        assert_eq!(s.clock(t(1)).get(t(2)), 0, "fork reset t1's view");
        s.apply(&Action::Acquire { t: t(1), m });
        assert_eq!(
            s.clock(t(1)).get(t(2)),
            1,
            "the acquire after the overwrite rejoined C_m"
        );
    }
}
