//! Read maps: FASTTRACK's adaptive last-reader metadata.

use std::fmt;

use crate::{ClockValue, Epoch, ThreadId, VectorClock};

/// One entry of a [`ReadMap`]: thread `tid` last read the variable at clock
/// value `clock`, at program location `site`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadEntry {
    /// Reading thread.
    pub tid: ThreadId,
    /// The reader's clock component at the time of the read.
    pub clock: ClockValue,
    /// Opaque program-location payload (a site identifier in the detectors),
    /// carried so race reports can name the *first* access (§4 "Reporting
    /// Races").
    pub site: u32,
}

/// A read map `R : t → c` (§2.2).
///
/// While reads of a variable are totally ordered, the map holds a single
/// [`Epoch`] and all operations are `O(1)`. When concurrent reads occur it
/// inflates to a sparse per-thread map. A map with zero entries is
/// equivalent to the initial-state epoch `0@0`.
///
/// Representation invariant: the `Map` variant always holds at least two
/// entries sorted by thread id, then clock, with nonzero clocks; zero- and
/// one-entry maps use the `Epoch` variant ("a read map with one entry is an
/// epoch, and we use them interchangeably"). A thread id that names several
/// threads in turn (a reused clock slot) may hold one entry per thread,
/// told apart by clock: see [`insert_since`](Self::insert_since).
///
/// # Examples
///
/// ```
/// use pacer_clock::{ReadMap, ThreadId, VectorClock};
///
/// let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
/// let mut r = ReadMap::empty();
/// assert_eq!(r.len(), 0);
/// r.insert(t0, 3, 101);
/// assert_eq!(r.len(), 1);
/// r.insert(t1, 2, 102); // concurrent second reader: inflates
/// assert_eq!(r.len(), 2);
///
/// let c = VectorClock::from_slice(&[3, 2]);
/// assert!(r.leq_clock(&c), "both reads happen before c");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub enum ReadMap {
    /// Zero or one totally ordered readers (`0@0` when minimal).
    Epoch {
        /// Last-read epoch; minimal epoch means "no reads recorded".
        epoch: Epoch,
        /// Site payload for the last read (meaningless when minimal).
        site: u32,
    },
    /// Two or more concurrent readers, sorted by thread id.
    Map(Vec<ReadEntry>),
}

impl ReadMap {
    /// Creates the empty read map (equivalent to epoch `0@0`).
    pub const fn empty() -> Self {
        ReadMap::Epoch {
            epoch: Epoch::MIN,
            site: 0,
        }
    }

    /// Creates a single-entry read map.
    pub const fn epoch(epoch: Epoch, site: u32) -> Self {
        ReadMap::Epoch { epoch, site }
    }

    /// Number of entries `|R|`.
    pub fn len(&self) -> usize {
        match self {
            ReadMap::Epoch { epoch, .. } => usize::from(!epoch.is_min()),
            ReadMap::Map(entries) => entries.len(),
        }
    }

    /// Returns `true` if the map records no reads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the single epoch if `|R| ≤ 1`.
    pub fn as_epoch(&self) -> Option<Epoch> {
        match self {
            ReadMap::Epoch { epoch, .. } => Some(*epoch),
            ReadMap::Map(_) => None,
        }
    }

    /// Looks up thread `t`'s latest entry.
    pub fn get(&self, t: ThreadId) -> Option<ReadEntry> {
        match self {
            ReadMap::Epoch { epoch, site } => {
                (!epoch.is_min() && epoch.tid() == t).then(|| ReadEntry {
                    tid: t,
                    clock: epoch.clock(),
                    site: *site,
                })
            }
            ReadMap::Map(entries) => match latest(entries, t, 0) {
                (end, true) => Some(entries[end - 1]),
                _ => None,
            },
        }
    }

    /// Tests `R ⊑ C`: every recorded read happens before `C`.
    ///
    /// Takes `O(|R|)` time — constant while the map is an epoch.
    pub fn leq_clock(&self, c: &VectorClock) -> bool {
        match self {
            ReadMap::Epoch { epoch, .. } => epoch.leq_clock(c),
            ReadMap::Map(entries) => entries.iter().all(|e| e.clock <= c.get(e.tid)),
        }
    }

    /// Returns the entries that do **not** happen before `C` — the reads
    /// that race with a write at clock `C`.
    pub fn entries_racing_with(&self, c: &VectorClock) -> Vec<ReadEntry> {
        match self {
            ReadMap::Epoch { epoch, site } => {
                if !epoch.is_min() && !epoch.leq_clock(c) {
                    vec![ReadEntry {
                        tid: epoch.tid(),
                        clock: epoch.clock(),
                        site: *site,
                    }]
                } else {
                    Vec::new()
                }
            }
            ReadMap::Map(entries) => entries
                .iter()
                .copied()
                .filter(|e| e.clock > c.get(e.tid))
                .collect(),
        }
    }

    /// Replaces the whole map with a single epoch (`R ← epoch(t)`).
    pub fn set_epoch(&mut self, epoch: Epoch, site: u32) {
        *self = ReadMap::Epoch { epoch, site };
    }

    /// Updates thread `t`'s entry (`R[t] ← c`), inflating the representation
    /// if a second concurrent reader appears.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is zero: zero entries are represented by absence.
    pub fn insert(&mut self, t: ThreadId, clock: ClockValue, site: u32) {
        self.insert_since(t, 0, clock, site);
    }

    /// Updates the entry of the thread that id `t` names from clock value
    /// `since` on: replaces `t`'s entry at or above `since`, or else adds
    /// one beside the entries an earlier thread under the same id left
    /// below it. `clock` must be at least `since`.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is zero: zero entries are represented by absence.
    pub fn insert_since(&mut self, t: ThreadId, since: ClockValue, clock: ClockValue, site: u32) {
        assert!(clock > 0, "read-map entries must have nonzero clocks");
        let entry = ReadEntry {
            tid: t,
            clock,
            site,
        };
        match self {
            ReadMap::Epoch { epoch, site: s } => {
                if epoch.is_min() || (epoch.tid() == t && epoch.clock() >= since) {
                    *epoch = Epoch::new(clock, t);
                    *s = site;
                } else {
                    let old = ReadEntry {
                        tid: epoch.tid(),
                        clock: epoch.clock(),
                        site: *s,
                    };
                    let mut entries = vec![old, entry];
                    entries.sort_by_key(|e| (e.tid, e.clock));
                    *self = ReadMap::Map(entries);
                }
            }
            ReadMap::Map(entries) => match latest(entries, t, since) {
                (end, true) => entries[end - 1] = entry,
                (end, false) => entries.insert(end, entry),
            },
        }
    }

    /// Removes thread `t`'s entry (`R[t] ← null`, PACER's non-sampling read
    /// discard, Algorithm 12). Collapses back to an epoch when one entry
    /// remains. Returns `true` if an entry was removed.
    pub fn remove(&mut self, t: ThreadId) -> bool {
        self.remove_since(t, 0)
    }

    /// Removes the entry of the thread that id `t` names from clock value
    /// `since` on, keeping the entries an earlier thread under the same id
    /// left below it. Returns `true` if an entry was removed.
    pub fn remove_since(&mut self, t: ThreadId, since: ClockValue) -> bool {
        match self {
            ReadMap::Epoch { epoch, .. } => {
                let hit = !epoch.is_min() && epoch.tid() == t && epoch.clock() >= since;
                if hit {
                    *self = ReadMap::empty();
                }
                hit
            }
            ReadMap::Map(entries) => {
                let (end, true) = latest(entries, t, since) else {
                    return false;
                };
                entries.remove(end - 1);
                if entries.len() == 1 {
                    let e = entries[0];
                    *self = ReadMap::Epoch {
                        epoch: Epoch::new(e.clock, e.tid),
                        site: e.site,
                    };
                }
                true
            }
        }
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> Box<dyn Iterator<Item = ReadEntry> + '_> {
        match self {
            ReadMap::Epoch { epoch, site } => {
                if epoch.is_min() {
                    Box::new(std::iter::empty())
                } else {
                    Box::new(std::iter::once(ReadEntry {
                        tid: epoch.tid(),
                        clock: epoch.clock(),
                        site: *site,
                    }))
                }
            }
            ReadMap::Map(entries) => Box::new(entries.iter().copied()),
        }
    }

    /// Approximate heap footprint in machine words, for space accounting:
    /// epochs are inline (zero words); maps cost two words per entry.
    pub fn footprint_words(&self) -> usize {
        match self {
            ReadMap::Epoch { .. } => 0,
            ReadMap::Map(entries) => 2 * entries.len(),
        }
    }
}

/// The position just past `t`'s entries in a sorted map, and whether the
/// last of them has a clock of at least `since`.
fn latest(entries: &[ReadEntry], t: ThreadId, since: ClockValue) -> (usize, bool) {
    let end = entries.partition_point(|e| e.tid <= t);
    let hit = end > 0 && entries[end - 1].tid == t && entries[end - 1].clock >= since;
    (end, hit)
}

impl Default for ReadMap {
    fn default() -> Self {
        ReadMap::empty()
    }
}

impl fmt::Debug for ReadMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadMap::Epoch { epoch, .. } => write!(f, "R[{epoch:?}]"),
            ReadMap::Map(entries) => {
                write!(f, "R[")?;
                for (i, e) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}@{}", e.clock, e.tid)?;
                }
                write!(f, "]")
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
    fn empty_map_is_minimal_epoch() {
        let r = ReadMap::empty();
        assert!(r.is_empty());
        assert_eq!(r.as_epoch(), Some(Epoch::MIN));
        assert!(r.leq_clock(&VectorClock::new()));
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn single_insert_stays_epoch() {
        let mut r = ReadMap::empty();
        r.insert(t(1), 4, 9);
        assert_eq!(r.len(), 1);
        assert_eq!(r.as_epoch(), Some(Epoch::new(4, t(1))));
        assert_eq!(r.get(t(1)).unwrap().site, 9);
        assert!(r.get(t(0)).is_none());
    }

    #[test]
    fn same_thread_update_stays_epoch() {
        let mut r = ReadMap::empty();
        r.insert(t(1), 4, 9);
        r.insert(t(1), 6, 10);
        assert_eq!(r.len(), 1);
        assert_eq!(r.as_epoch(), Some(Epoch::new(6, t(1))));
    }

    #[test]
    fn second_thread_inflates() {
        let mut r = ReadMap::empty();
        r.insert(t(2), 4, 9);
        r.insert(t(0), 1, 3);
        assert_eq!(r.len(), 2);
        assert!(r.as_epoch().is_none());
        // Sorted by tid.
        let entries: Vec<_> = r.iter().map(|e| e.tid).collect();
        assert_eq!(entries, vec![t(0), t(2)]);
    }

    #[test]
    fn leq_clock_checks_all_entries() {
        let mut r = ReadMap::empty();
        r.insert(t(0), 2, 0);
        r.insert(t(1), 3, 0);
        assert!(r.leq_clock(&VectorClock::from_slice(&[2, 3])));
        assert!(!r.leq_clock(&VectorClock::from_slice(&[2, 2])));
    }

    #[test]
    fn racing_entries_are_reported() {
        let mut r = ReadMap::empty();
        r.insert(t(0), 2, 100);
        r.insert(t(1), 3, 200);
        let racy = r.entries_racing_with(&VectorClock::from_slice(&[5, 1]));
        assert_eq!(racy.len(), 1);
        assert_eq!(racy[0].tid, t(1));
        assert_eq!(racy[0].site, 200);
    }

    #[test]
    fn racing_entries_epoch_case() {
        let r = ReadMap::epoch(Epoch::new(5, t(1)), 77);
        assert_eq!(
            r.entries_racing_with(&VectorClock::from_slice(&[9, 4]))
                .len(),
            1
        );
        assert!(r
            .entries_racing_with(&VectorClock::from_slice(&[0, 5]))
            .is_empty());
        assert!(ReadMap::empty()
            .entries_racing_with(&VectorClock::new())
            .is_empty());
    }

    #[test]
    fn remove_collapses_back_to_epoch() {
        let mut r = ReadMap::empty();
        r.insert(t(0), 2, 10);
        r.insert(t(1), 3, 20);
        r.insert(t(2), 4, 30);
        assert!(r.remove(t(1)));
        assert_eq!(r.len(), 2);
        assert!(r.remove(t(0)));
        assert_eq!(r.as_epoch(), Some(Epoch::new(4, t(2))));
        assert_eq!(r.get(t(2)).unwrap().site, 30);
        assert!(r.remove(t(2)));
        assert!(r.is_empty());
        assert!(!r.remove(t(2)), "second removal is a no-op");
    }

    #[test]
    fn remove_missing_from_map_is_noop() {
        let mut r = ReadMap::empty();
        r.insert(t(0), 2, 10);
        r.insert(t(1), 3, 20);
        assert!(!r.remove(t(9)));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn a_later_thread_under_the_same_id_keeps_the_earlier_entry() {
        // t1 read at 3 and t0 at 2; from clock 5 on, id 1 names a new
        // thread, whose read must not replace or remove t1's entry.
        let mut r = ReadMap::empty();
        r.insert(t(1), 3, 10);
        r.insert(t(0), 2, 20);
        r.insert_since(t(1), 5, 6, 30);
        assert_eq!(r.len(), 3);
        let entries: Vec<_> = r.iter().map(|e| (e.tid, e.clock)).collect();
        assert_eq!(entries, vec![(t(0), 2), (t(1), 3), (t(1), 6)]);
        assert_eq!(r.get(t(1)).unwrap().site, 30, "the latest entry");
        r.insert_since(t(1), 5, 7, 40);
        assert_eq!(r.len(), 3, "the new thread's own entry is replaced");
        let racing = r.entries_racing_with(&VectorClock::from_slice(&[2, 4]));
        assert_eq!(racing.iter().map(|e| e.site).collect::<Vec<_>>(), [40]);
        assert!(r.remove_since(t(1), 5));
        assert!(!r.remove_since(t(1), 5), "t1's entry is below 5");
        assert_eq!(r.get(t(1)).unwrap().clock, 3);
        // In epoch form, too, an entry below `since` stays.
        let mut e = ReadMap::epoch(Epoch::new(3, t(1)), 10);
        assert!(!e.remove_since(t(1), 5));
        e.insert_since(t(1), 5, 6, 30);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn set_epoch_replaces_everything() {
        let mut r = ReadMap::empty();
        r.insert(t(0), 2, 10);
        r.insert(t(1), 3, 20);
        r.set_epoch(Epoch::new(7, t(5)), 42);
        assert_eq!(r.len(), 1);
        assert_eq!(r.as_epoch(), Some(Epoch::new(7, t(5))));
    }

    #[test]
    fn footprint_is_zero_for_epochs() {
        let mut r = ReadMap::empty();
        assert_eq!(r.footprint_words(), 0);
        r.insert(t(0), 1, 0);
        assert_eq!(r.footprint_words(), 0);
        r.insert(t(1), 1, 0);
        assert_eq!(r.footprint_words(), 4);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_clock_insert_panics() {
        ReadMap::empty().insert(t(0), 0, 0);
    }

    #[test]
    fn debug_formats() {
        let mut r = ReadMap::empty();
        r.insert(t(0), 1, 0);
        assert_eq!(format!("{r:?}"), "R[1@t0]");
        r.insert(t(1), 2, 0);
        assert_eq!(format!("{r:?}"), "R[1@t0, 2@t1]");
    }
}
