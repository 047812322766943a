//! Dynamic program actions (Appendix A).

use std::fmt;

use pacer_clock::ThreadId;

use crate::{LockId, SiteId, VarId, VolatileId};

/// Whether an access reads or writes its variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// `rd(t, x)`.
    Read,
    /// `wr(t, x)`.
    Write,
}

impl AccessKind {
    /// Two accesses *conflict* when they touch the same variable and at
    /// least one writes (§A): this tests the kind half of that condition.
    pub fn conflicts_with(self, other: AccessKind) -> bool {
        matches!(self, AccessKind::Write) || matches!(other, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// One dynamic action of a multithreaded execution (§A).
///
/// `SampleBegin`/`SampleEnd` are the paper's `sbegin()`/`send()`: they are
/// not performed by any thread and do not affect happens-before; they only
/// switch the analysis between sampling and non-sampling periods.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// `rd(t, x)` at program location `site`: thread `t` reads data
    /// variable `x`.
    Read {
        /// Reading thread.
        t: ThreadId,
        /// Variable read.
        x: VarId,
        /// Static program location of the read.
        site: SiteId,
    },
    /// `wr(t, x)` at program location `site`.
    Write {
        /// Writing thread.
        t: ThreadId,
        /// Variable written.
        x: VarId,
        /// Static program location of the write.
        site: SiteId,
    },
    /// `acq(t, m)`: thread `t` acquires lock `m`.
    Acquire {
        /// Acquiring thread.
        t: ThreadId,
        /// The lock.
        m: LockId,
    },
    /// `rel(t, m)`: thread `t` releases lock `m`.
    Release {
        /// Releasing thread.
        t: ThreadId,
        /// The lock.
        m: LockId,
    },
    /// `fork(t, u)`: thread `t` forks new thread `u`.
    Fork {
        /// Forking thread.
        t: ThreadId,
        /// The new thread.
        u: ThreadId,
    },
    /// `join(t, u)`: thread `t` blocks until thread `u` terminates.
    Join {
        /// Joining thread.
        t: ThreadId,
        /// The terminated thread.
        u: ThreadId,
    },
    /// `vol_rd(t, v)`: thread `t` reads volatile variable `v`.
    VolRead {
        /// Reading thread.
        t: ThreadId,
        /// The volatile.
        v: VolatileId,
    },
    /// `vol_wr(t, v)`: thread `t` writes volatile variable `v`.
    VolWrite {
        /// Writing thread.
        t: ThreadId,
        /// The volatile.
        v: VolatileId,
    },
    /// `sbegin()`: the analysis enters a sampling period.
    SampleBegin,
    /// `send()`: the analysis leaves a sampling period.
    SampleEnd,
}

impl Action {
    /// The thread that performs the action, if any (`sbegin`/`send` are not
    /// initiated by any thread).
    pub fn thread(&self) -> Option<ThreadId> {
        match *self {
            Action::Read { t, .. }
            | Action::Write { t, .. }
            | Action::Acquire { t, .. }
            | Action::Release { t, .. }
            | Action::Fork { t, .. }
            | Action::Join { t, .. }
            | Action::VolRead { t, .. }
            | Action::VolWrite { t, .. } => Some(t),
            Action::SampleBegin | Action::SampleEnd => None,
        }
    }

    /// Returns the accessed data variable and access kind, for `rd`/`wr`
    /// actions.
    pub fn access(&self) -> Option<(VarId, AccessKind, SiteId)> {
        match *self {
            Action::Read { x, site, .. } => Some((x, AccessKind::Read, site)),
            Action::Write { x, site, .. } => Some((x, AccessKind::Write, site)),
            _ => None,
        }
    }

    /// Is this a synchronization action (`acq`, `rel`, `fork`, `join`,
    /// `vol_rd`, `vol_wr`)?
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Action::Acquire { .. }
                | Action::Release { .. }
                | Action::Fork { .. }
                | Action::Join { .. }
                | Action::VolRead { .. }
                | Action::VolWrite { .. }
        )
    }

    /// Is this a data-variable access (`rd`/`wr`)?
    pub fn is_access(&self) -> bool {
        matches!(self, Action::Read { .. } | Action::Write { .. })
    }

    /// Is this a sampling-period marker (`sbegin`/`send`)?
    pub fn is_sampling_marker(&self) -> bool {
        matches!(self, Action::SampleBegin | Action::SampleEnd)
    }

    /// Do two actions *conflict*: same data variable, at least one write?
    pub fn conflicts_with(&self, other: &Action) -> bool {
        match (self.access(), other.access()) {
            (Some((x1, k1, _)), Some((x2, k2, _))) => x1 == x2 && k1.conflicts_with(k2),
            _ => false,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Read { t, x, site } => write!(f, "rd {t} {x} {site}"),
            Action::Write { t, x, site } => write!(f, "wr {t} {x} {site}"),
            Action::Acquire { t, m } => write!(f, "acq {t} {m}"),
            Action::Release { t, m } => write!(f, "rel {t} {m}"),
            Action::Fork { t, u } => write!(f, "fork {t} {u}"),
            Action::Join { t, u } => write!(f, "join {t} {u}"),
            Action::VolRead { t, v } => write!(f, "vrd {t} {v}"),
            Action::VolWrite { t, v } => write!(f, "vwr {t} {v}"),
            Action::SampleBegin => write!(f, "sbegin"),
            Action::SampleEnd => write!(f, "send"),
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
    fn kind_conflicts() {
        assert!(AccessKind::Write.conflicts_with(AccessKind::Write));
        assert!(AccessKind::Write.conflicts_with(AccessKind::Read));
        assert!(AccessKind::Read.conflicts_with(AccessKind::Write));
        assert!(!AccessKind::Read.conflicts_with(AccessKind::Read));
    }

    #[test]
    fn thread_of_markers_is_none() {
        assert_eq!(Action::SampleBegin.thread(), None);
        assert_eq!(Action::SampleEnd.thread(), None);
        assert_eq!(
            Action::Fork { t: t(0), u: t(1) }.thread(),
            Some(t(0)),
            "fork is performed by the forking thread"
        );
    }

    #[test]
    fn classification() {
        let rd = Action::Read {
            t: t(0),
            x: VarId::new(1),
            site: SiteId::new(2),
        };
        let acq = Action::Acquire {
            t: t(0),
            m: LockId::new(0),
        };
        assert!(rd.is_access() && !rd.is_sync() && !rd.is_sampling_marker());
        assert!(acq.is_sync() && !acq.is_access());
        assert!(Action::SampleBegin.is_sampling_marker());
        assert_eq!(
            rd.access(),
            Some((VarId::new(1), AccessKind::Read, SiteId::new(2)))
        );
        assert_eq!(acq.access(), None);
    }

    #[test]
    fn conflicts_require_same_variable_and_a_write() {
        let r0 = Action::Read {
            t: t(0),
            x: VarId::new(0),
            site: SiteId::new(0),
        };
        let w0 = Action::Write {
            t: t(1),
            x: VarId::new(0),
            site: SiteId::new(1),
        };
        let w1 = Action::Write {
            t: t(1),
            x: VarId::new(1),
            site: SiteId::new(1),
        };
        assert!(r0.conflicts_with(&w0));
        assert!(w0.conflicts_with(&w0));
        assert!(!r0.conflicts_with(&r0));
        assert!(!w0.conflicts_with(&w1), "different variables");
        assert!(!w0.conflicts_with(&Action::SampleBegin));
    }

    #[test]
    fn display_matches_text_format() {
        assert_eq!(
            Action::Read {
                t: t(0),
                x: VarId::new(3),
                site: SiteId::new(5)
            }
            .to_string(),
            "rd t0 x3 s5"
        );
        assert_eq!(Action::SampleBegin.to_string(), "sbegin");
        assert_eq!(
            Action::VolWrite {
                t: t(2),
                v: VolatileId::new(1)
            }
            .to_string(),
            "vwr t2 v1"
        );
    }
}
