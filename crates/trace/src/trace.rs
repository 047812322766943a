//! Trace containers and well-formedness validation.

use std::error::Error;
use std::fmt;

use pacer_clock::ThreadId;

use crate::{Action, ActionStats, ParseTraceError};

/// A sequence of [`Action`]s: the trace `α` of Appendix A.
///
/// Traces can be recorded by the simulated runtime, generated randomly, or
/// parsed from the text fixture format (see [`Trace::parse`]). The
/// well-formedness conditions of §A (lock ownership, fork-before-first-use,
/// no-action-after-join, …) are checked by [`Trace::validate`].
///
/// # Examples
///
/// ```
/// use pacer_trace::{Action, Trace, VarId, SiteId};
/// use pacer_clock::ThreadId;
///
/// let mut trace = Trace::new();
/// trace.push(Action::Write {
///     t: ThreadId::new(0),
///     x: VarId::new(0),
///     site: SiteId::new(1),
/// });
/// assert_eq!(trace.len(), 1);
/// assert!(trace.validate().is_ok());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    actions: Vec<Action>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            actions: Vec::new(),
        }
    }

    /// Creates a trace from a vector of actions.
    pub fn from_actions(actions: Vec<Action>) -> Self {
        Trace { actions }
    }

    /// Appends one action: `α.b`.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// The actions, in program order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if the trace has no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Iterates over the actions.
    pub fn iter(&self) -> std::slice::Iter<'_, Action> {
        self.actions.iter()
    }

    /// The number of distinct threads that appear (including fork targets).
    pub fn thread_count(&self) -> usize {
        let mut max = 0usize;
        let mut any = false;
        for a in &self.actions {
            let mut see = |t: ThreadId| {
                any = true;
                max = max.max(t.index());
            };
            if let Some(t) = a.thread() {
                see(t);
            }
            match *a {
                Action::Fork { u, .. } | Action::Join { u, .. } => see(u),
                _ => {}
            }
        }
        if any {
            max + 1
        } else {
            0
        }
    }

    /// Per-action-kind counts.
    pub fn stats(&self) -> ActionStats {
        ActionStats::of(&self.actions)
    }

    /// Parses a trace from the text fixture format; see the
    /// [crate docs](crate) for an example.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] with the offending line number on
    /// malformed input.
    pub fn parse(text: &str) -> Result<Trace, ParseTraceError> {
        crate::text::parse(text)
    }

    /// Renders the trace in the text fixture format, one action per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for a in &self.actions {
            out.push_str(&a.to_string());
            out.push('\n');
        }
        out
    }

    /// Writes the trace to a file in the text fixture format. The write
    /// is atomic (write-temp-then-rename): a crash mid-save never leaves
    /// a truncated trace behind.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        pacer_collections::atomic_write(path, self.to_text())
    }

    /// Reads a trace from a file in the text fixture format.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidData` error wrapping the [`ParseTraceError`] on
    /// malformed content, or the underlying I/O error.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
        let text = std::fs::read_to_string(path)?;
        Trace::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Encodes the trace in the binary `.ptrace` format (TRACE_FORMAT.md).
    pub fn to_binary(&self) -> Vec<u8> {
        crate::binary::encode_trace(self)
    }

    /// Checks the §A well-formedness conditions:
    ///
    /// * a lock is never acquired while another thread holds it, and never
    ///   released by a non-holder;
    /// * a thread is forked at most once and never performs actions before
    ///   its fork or after being joined;
    /// * sampling markers are properly alternating (`sbegin` only outside a
    ///   sampling period, `send` only inside);
    /// * every thread id is below [`TraceValidator::THREAD_LIMIT`], and
    ///   every other id below [`TraceValidator::ID_LIMIT`].
    ///
    /// Thread 0 is the implicit main thread and needs no fork.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition with its action index.
    pub fn validate(&self) -> Result<(), ValidateTraceError> {
        let mut validator = TraceValidator::new();
        for a in &self.actions {
            validator.check(a)?;
        }
        Ok(())
    }

    /// Returns, for each action index, whether the analysis is inside a
    /// sampling period at that action (markers themselves are attributed to
    /// the period they open/close: `sbegin` counts as sampling, `send` as
    /// not).
    pub fn sampling_mask(&self) -> Vec<bool> {
        let mut mask = Vec::with_capacity(self.actions.len());
        let mut sampling = false;
        for a in &self.actions {
            match a {
                Action::SampleBegin => {
                    sampling = true;
                    mask.push(true);
                }
                Action::SampleEnd => {
                    sampling = false;
                    mask.push(false);
                }
                _ => mask.push(sampling),
            }
        }
        mask
    }
}

impl FromIterator<Action> for Trace {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        Trace {
            actions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Action> for Trace {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        self.actions.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter()
    }
}

/// Incremental checker for the §A well-formedness conditions.
///
/// [`Trace::validate`] is this validator run over a materialized trace;
/// streaming consumers (the binary replay path, most importantly) feed it
/// one action at a time instead, so arbitrarily large `.ptrace` files can
/// be validated in bounded memory while the detector runs: one byte of
/// lifecycle state per thread, at most 64 KiB below
/// [`THREAD_LIMIT`](Self::THREAD_LIMIT), and four bytes of holder state
/// per lock, at most 4 MiB at lock id 2^20 − 1.
///
/// Every thread id must be below [`THREAD_LIMIT`](Self::THREAD_LIMIT),
/// the 2^16 threads a packed epoch can name, and every variable, lock,
/// volatile and site id below [`ID_LIMIT`](Self::ID_LIMIT). The thread
/// bound is checked before every other rule. The detectors size their
/// per-id tables by the largest id they see, so one event with a huge id
/// would otherwise ask for an allocation that aborts the process.
///
/// After the first error the validator is poisoned: state updates from the
/// offending action were not applied, so further `check` calls have
/// unspecified (but panic-free) results. Stop at the first `Err`, as
/// [`Trace::validate`] does.
///
/// # Examples
///
/// ```
/// use pacer_trace::{Action, TraceValidator};
///
/// let mut v = TraceValidator::new();
/// assert!(v.check(&Action::SampleBegin).is_ok());
/// assert!(v.check(&Action::SampleBegin).is_err()); // already sampling
/// ```
#[derive(Clone, Debug)]
pub struct TraceValidator {
    /// Each lock's holder + 1, or 0 while it is free, indexed by
    /// `LockId::index()`. Only an acquire grows the table, up to its lock.
    lock_holder: Vec<u32>,
    /// Each thread's lifecycle state, indexed by `ThreadId::index()`:
    /// thread 0 (the implicit main thread) starts `STARTED`, and only a
    /// fork grows the table, up to its target. Ids past the end are
    /// `UNSTARTED`.
    threads: Vec<u8>,
    sampling: bool,
    index: usize,
}

// Where a thread is in its fork → act → join lifecycle. A thread is
// started once forked (thread 0 from the outset), so "already forked, or
// thread 0" and "already started" are one test.
const UNSTARTED: u8 = 0;
const STARTED: u8 = 1;
const JOINED: u8 = 2;

impl Default for TraceValidator {
    fn default() -> Self {
        TraceValidator::new()
    }
}

impl TraceValidator {
    /// Every id of a valid trace is below this bound, 2^20.
    pub const ID_LIMIT: u32 = 1 << 20;

    /// Every thread id of a valid trace is below this bound, 2^16: the
    /// threads a packed epoch can name (`pacer_clock::TID_BITS`).
    pub const THREAD_LIMIT: u32 = 1 << pacer_clock::TID_BITS;

    /// Creates a validator in the initial state: no locks held, only
    /// thread 0 started, not sampling.
    pub fn new() -> Self {
        TraceValidator {
            lock_holder: Vec::new(),
            threads: vec![STARTED],
            sampling: false,
            index: 0,
        }
    }

    /// Number of actions checked so far (the index reported in errors).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Length of the thread table: one past the largest thread id any
    /// passed action mentioned, and at least 1 (thread 0).
    pub(crate) fn thread_slots(&self) -> usize {
        self.threads.len()
    }

    fn life(&self, t: ThreadId) -> u8 {
        *self.threads.get(t.index()).unwrap_or(&UNSTARTED)
    }

    /// Checks the rules every thread action shares, in order: the thread
    /// operands (`t`, and `u`, a fork or join target, else `t` again) are
    /// below the thread bound, the other operand ids (`others`, their
    /// bitwise OR) below the id bound, and `t` has started and not been
    /// joined.
    #[inline]
    fn acts(
        &self,
        a: &Action,
        t: ThreadId,
        u: ThreadId,
        others: u32,
    ) -> Result<(), ValidateTraceError> {
        use ValidateTraceError as E;
        let index = self.index;
        // The bounds are powers of two: an OR reaches one iff an id does.
        if (t.raw() | u.raw()) >= Self::THREAD_LIMIT {
            let t = if t.raw() >= Self::THREAD_LIMIT { t } else { u };
            return Err(E::ThreadOutOfRange { index, t });
        }
        if others >= Self::ID_LIMIT {
            return Err(Self::out_of_range(index, a));
        }
        match self.life(t) {
            JOINED => Err(E::ActionAfterJoin { index, t }),
            UNSTARTED => Err(E::ActionBeforeFork { index, t }),
            _ => Ok(()),
        }
    }

    /// The error for `a`'s first operand, in text order, at or above the
    /// bound. The text form lists the operands in order, each a one-letter
    /// prefix and its id.
    #[cold]
    fn out_of_range(index: usize, a: &Action) -> ValidateTraceError {
        let text = a.to_string();
        let mut ops = text.split(' ').skip(1);
        let big = |op: &&str| op[1..].parse().is_ok_and(|id: u32| id >= Self::ID_LIMIT);
        let id = ops.find(big).unwrap_or_default().into();
        ValidateTraceError::IdOutOfRange { index, id }
    }

    /// Checks the next action of the trace.
    ///
    /// # Errors
    ///
    /// The violated condition, carrying the action's index.
    #[inline]
    pub fn check(&mut self, a: &Action) -> Result<(), ValidateTraceError> {
        use ValidateTraceError as E;
        let i = self.index;
        match *a {
            Action::Read { t, x, site } => self.acts(a, t, t, x.raw() | site.raw())?,
            Action::Write { t, x, site } => self.acts(a, t, t, x.raw() | site.raw())?,
            Action::VolRead { t, v } | Action::VolWrite { t, v } => self.acts(a, t, t, v.raw())?,
            Action::Acquire { t, m } => {
                self.acts(a, t, t, m.raw())?;
                if m.index() >= self.lock_holder.len() {
                    self.lock_holder.resize(m.index() + 1, 0);
                }
                let holder = &mut self.lock_holder[m.index()];
                if *holder != 0 {
                    let holder = ThreadId::new(*holder - 1);
                    return Err(E::AcquireHeldLock {
                        index: i,
                        t,
                        m,
                        holder,
                    });
                }
                *holder = t.raw() + 1;
            }
            Action::Release { t, m } => {
                self.acts(a, t, t, m.raw())?;
                match self.lock_holder.get_mut(m.index()) {
                    Some(holder) if *holder == t.raw() + 1 => *holder = 0,
                    _ => return Err(E::ReleaseUnheldLock { index: i, t, m }),
                }
            }
            Action::Fork { t, u } => {
                self.acts(a, t, u, 0)?;
                if t == u {
                    return Err(E::SelfFork { index: i, t });
                }
                if self.life(u) != UNSTARTED {
                    return Err(E::DoubleFork { index: i, u });
                }
                let len = self.threads.len().max(u.index() + 1);
                self.threads.resize(len, UNSTARTED);
                self.threads[u.index()] = STARTED;
            }
            Action::Join { t, u } => {
                self.acts(a, t, u, 0)?;
                if t == u {
                    return Err(E::SelfJoin { index: i, t });
                }
                if self.life(u) == UNSTARTED {
                    return Err(E::JoinUnstarted { index: i, u });
                }
                self.threads[u.index()] = JOINED;
            }
            Action::SampleBegin => {
                if self.sampling {
                    return Err(E::UnbalancedSampling { index: i });
                }
                self.sampling = true;
            }
            Action::SampleEnd => {
                if !self.sampling {
                    return Err(E::UnbalancedSampling { index: i });
                }
                self.sampling = false;
            }
        }
        self.index += 1;
        Ok(())
    }
}

/// A violation of the §A trace well-formedness conditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateTraceError {
    /// A thread acquired a lock already held by another thread.
    AcquireHeldLock {
        /// Action index.
        index: usize,
        /// Acquiring thread.
        t: ThreadId,
        /// The lock.
        m: crate::LockId,
        /// Current holder.
        holder: ThreadId,
    },
    /// A thread released a lock it does not hold.
    ReleaseUnheldLock {
        /// Action index.
        index: usize,
        /// Releasing thread.
        t: ThreadId,
        /// The lock.
        m: crate::LockId,
    },
    /// A thread acted before being forked.
    ActionBeforeFork {
        /// Action index.
        index: usize,
        /// The offending thread.
        t: ThreadId,
    },
    /// A thread acted after being joined.
    ActionAfterJoin {
        /// Action index.
        index: usize,
        /// The offending thread.
        t: ThreadId,
    },
    /// A thread was forked twice (or thread 0 was forked).
    DoubleFork {
        /// Action index.
        index: usize,
        /// The forked thread.
        u: ThreadId,
    },
    /// A join of a thread that never started.
    JoinUnstarted {
        /// Action index.
        index: usize,
        /// The joined thread.
        u: ThreadId,
    },
    /// A thread forked itself.
    SelfFork {
        /// Action index.
        index: usize,
        /// The thread.
        t: ThreadId,
    },
    /// A thread joined itself.
    SelfJoin {
        /// Action index.
        index: usize,
        /// The thread.
        t: ThreadId,
    },
    /// `sbegin` inside a sampling period or `send` outside one.
    UnbalancedSampling {
        /// Action index.
        index: usize,
    },
    /// A thread id at or above [`TraceValidator::THREAD_LIMIT`].
    ThreadOutOfRange {
        /// Action index.
        index: usize,
        /// The first such thread operand.
        t: ThreadId,
    },
    /// A variable, lock, volatile or site id at or above
    /// [`TraceValidator::ID_LIMIT`].
    IdOutOfRange {
        /// Action index.
        index: usize,
        /// The first such operand, as in the text format (`v4000000000`).
        id: String,
    },
}

impl fmt::Display for ValidateTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidateTraceError as E;
        match self {
            E::AcquireHeldLock {
                index,
                t,
                m,
                holder,
            } => write!(f, "action {index}: {t} acquires {m} held by {holder}"),
            E::ReleaseUnheldLock { index, t, m } => {
                write!(f, "action {index}: {t} releases {m} it does not hold")
            }
            E::ActionBeforeFork { index, t } => {
                write!(f, "action {index}: {t} acts before being forked")
            }
            E::ActionAfterJoin { index, t } => {
                write!(f, "action {index}: {t} acts after being joined")
            }
            E::DoubleFork { index, u } => write!(f, "action {index}: {u} forked twice"),
            E::JoinUnstarted { index, u } => {
                write!(f, "action {index}: join of unstarted thread {u}")
            }
            E::SelfFork { index, t } => write!(f, "action {index}: {t} forks itself"),
            E::SelfJoin { index, t } => write!(f, "action {index}: {t} joins itself"),
            E::UnbalancedSampling { index } => {
                write!(f, "action {index}: unbalanced sampling marker")
            }
            E::ThreadOutOfRange { index, t } => write!(
                f,
                "action {index}: {t} is out of range (thread ids must be below {})",
                TraceValidator::THREAD_LIMIT
            ),
            E::IdOutOfRange { index, id } => write!(
                f,
                "action {index}: {id} is out of range (ids must be below {})",
                TraceValidator::ID_LIMIT
            ),
        }
    }
}

impl Error for ValidateTraceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockId, SiteId, VarId, VolatileId};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    fn rd(ti: u32, x: u32) -> Action {
        Action::Read {
            t: t(ti),
            x: VarId::new(x),
            site: SiteId::new(0),
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = Trace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.thread_count(), 0);
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn thread_count_includes_fork_targets() {
        let trace = Trace::from_actions(vec![Action::Fork { t: t(0), u: t(3) }]);
        assert_eq!(trace.thread_count(), 4);
    }

    #[test]
    fn double_acquire_is_rejected() {
        let trace = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::Acquire {
                t: t(0),
                m: LockId::new(0),
            },
            Action::Acquire {
                t: t(1),
                m: LockId::new(0),
            },
        ]);
        assert!(matches!(
            trace.validate(),
            Err(ValidateTraceError::AcquireHeldLock { index: 2, .. })
        ));
    }

    #[test]
    fn release_by_nonholder_is_rejected() {
        let trace = Trace::from_actions(vec![Action::Release {
            t: t(0),
            m: LockId::new(0),
        }]);
        assert!(matches!(
            trace.validate(),
            Err(ValidateTraceError::ReleaseUnheldLock { .. })
        ));
    }

    #[test]
    fn act_before_fork_is_rejected() {
        let trace = Trace::from_actions(vec![rd(1, 0)]);
        assert!(matches!(
            trace.validate(),
            Err(ValidateTraceError::ActionBeforeFork { t, .. }) if t == ThreadId::new(1)
        ));
    }

    #[test]
    fn act_after_join_is_rejected() {
        let trace = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::Join { t: t(0), u: t(1) },
            rd(1, 0),
        ]);
        assert!(matches!(
            trace.validate(),
            Err(ValidateTraceError::ActionAfterJoin { index: 2, .. })
        ));
    }

    #[test]
    fn self_fork_and_join_rejected() {
        assert!(matches!(
            Trace::from_actions(vec![Action::Fork { t: t(0), u: t(0) }]).validate(),
            Err(ValidateTraceError::SelfFork { .. })
        ));
        assert!(matches!(
            Trace::from_actions(vec![Action::Join { t: t(0), u: t(0) }]).validate(),
            Err(ValidateTraceError::SelfJoin { .. })
        ));
    }

    #[test]
    fn unbalanced_sampling_markers_rejected() {
        assert!(matches!(
            Trace::from_actions(vec![Action::SampleEnd]).validate(),
            Err(ValidateTraceError::UnbalancedSampling { index: 0 })
        ));
        assert!(matches!(
            Trace::from_actions(vec![Action::SampleBegin, Action::SampleBegin]).validate(),
            Err(ValidateTraceError::UnbalancedSampling { index: 1 })
        ));
    }

    #[test]
    fn valid_locked_program() {
        let m = LockId::new(0);
        let trace = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::Acquire { t: t(0), m },
            rd(0, 0),
            Action::Release { t: t(0), m },
            Action::Acquire { t: t(1), m },
            rd(1, 0),
            Action::Release { t: t(1), m },
            Action::Join { t: t(0), u: t(1) },
        ]);
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn sampling_mask_attributes_markers() {
        let trace = Trace::from_actions(vec![
            rd(0, 0),
            Action::SampleBegin,
            rd(0, 0),
            Action::SampleEnd,
            rd(0, 0),
        ]);
        assert_eq!(trace.sampling_mask(), vec![false, true, true, false, false]);
    }

    #[test]
    fn text_round_trip() {
        let trace = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::SampleBegin,
            rd(1, 2),
            Action::SampleEnd,
        ]);
        let parsed = Trace::parse(&trace.to_text()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn collect_and_extend() {
        let mut trace: Trace = vec![rd(0, 0)].into_iter().collect();
        trace.extend(vec![rd(0, 1)]);
        assert_eq!(trace.len(), 2);
        assert_eq!((&trace).into_iter().count(), 2);
    }

    #[test]
    fn error_messages_render() {
        let err = Trace::from_actions(vec![Action::SampleEnd])
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("unbalanced"));
    }

    #[test]
    fn save_and_load_round_trip() {
        let trace = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::SampleBegin,
            rd(1, 2),
            Action::SampleEnd,
        ]);
        let path = std::env::temp_dir().join("pacer_trace_io_test.trace");
        trace.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(loaded, trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_malformed_content() {
        let path = std::env::temp_dir().join("pacer_trace_io_bad.trace");
        std::fs::write(&path, "bogus t0").unwrap();
        let err = Trace::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bogus"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_not_found() {
        let err = Trace::load("/nonexistent/pacer.trace").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn refork_and_fork_of_thread_zero_are_double_forks() {
        let refork = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::Fork { t: t(0), u: t(1) },
        ]);
        assert_eq!(
            refork.validate(),
            Err(ValidateTraceError::DoubleFork { index: 1, u: t(1) })
        );
        let fork_main = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::Fork { t: t(1), u: t(0) },
        ]);
        assert_eq!(
            fork_main.validate(),
            Err(ValidateTraceError::DoubleFork { index: 1, u: t(0) })
        );
    }

    #[test]
    fn join_of_unforked_thread_is_rejected() {
        let trace = Trace::from_actions(vec![rd(0, 0), Action::Join { t: t(0), u: t(2) }]);
        assert_eq!(
            trace.validate(),
            Err(ValidateTraceError::JoinUnstarted { index: 1, u: t(2) })
        );
    }

    #[test]
    fn ids_must_be_below_the_limit() {
        assert_eq!(TraceValidator::ID_LIMIT, 1 << 20);
        // Every non-thread id kind at 2^20 - 1 passes, with the acting
        // thread and fork target at the thread bound's 2^16 - 1.
        let top = "fork t0 t65535\n\
                   rd t65535 x1048575 s1048575\nwr t65535 x1048575 s1048575\n\
                   acq t65535 m1048575\nrel t65535 m1048575\n\
                   vrd t65535 v1048575\nvwr t65535 v1048575\njoin t0 t65535\n";
        assert_eq!(Trace::parse(top).unwrap().validate(), Ok(()));
        // At 2^20 each fails at its own index, before any other rule (t7
        // was never forked), naming its first operand that is too large.
        let cases = [
            ("rd t0 x1048576 s0", "x1048576"),
            ("wr t0 x0 s1048576", "s1048576"),
            ("acq t0 m1048576", "m1048576"),
            ("rel t7 m1048576", "m1048576"),
            ("vrd t0 v1048576", "v1048576"),
            ("vwr t7 v4000000000", "v4000000000"),
            ("wr t7 x4294967295 s1048576", "x4294967295"),
        ];
        for (bad, id) in cases {
            let trace = Trace::parse(&format!("wr t0 x0 s0\nsbegin\n{bad}\n")).unwrap();
            let expected = ValidateTraceError::IdOutOfRange {
                index: 2,
                id: id.to_string(),
            };
            assert_eq!(trace.validate(), Err(expected), "{bad}");
        }
        let err = Trace::parse("vwr t0 v4000000000").unwrap().validate();
        assert_eq!(
            err.unwrap_err().to_string(),
            "action 0: v4000000000 is out of range (ids must be below 1048576)"
        );
    }

    #[test]
    fn thread_ids_must_be_below_the_thread_limit() {
        assert_eq!(TraceValidator::THREAD_LIMIT, 1 << 16);
        // 2^16 - 1 passes as a fork target and as the acting thread.
        let top = "fork t0 t65535\nrd t65535 x0 s0\nwr t65535 x0 s0\njoin t0 t65535\n";
        assert_eq!(Trace::parse(top).unwrap().validate(), Ok(()));
        // At 2^16 each fails at its own index, before any other rule: t7
        // was never forked, x1048576 and m1048576 are past the id bound,
        // and t70000 never started. The first thread operand is named.
        let cases = [
            ("fork t0 t65536", 65536),
            ("fork t7 t70000", 70000),
            ("rd t65536 x0 s0", 65536),
            ("wr t70000 x1048576 s0", 70000),
            ("acq t65536 m1048576", 65536),
            ("join t0 t70000", 70000),
            ("join t65536 t70000", 65536),
            ("vrd t1048576 v0", 1048576),
        ];
        for (bad, id) in cases {
            let trace = Trace::parse(&format!("wr t0 x0 s0\nsbegin\n{bad}\n")).unwrap();
            let expected = ValidateTraceError::ThreadOutOfRange { index: 2, t: t(id) };
            assert_eq!(trace.validate(), Err(expected), "{bad}");
        }
        let err = Trace::parse("fork t0 t70000").unwrap().validate();
        assert_eq!(
            err.unwrap_err().to_string(),
            "action 0: t70000 is out of range (thread ids must be below 65536)"
        );
    }

    /// The §A rules as they stood with hashed thread sets: the reference
    /// the dense thread table must match verdict for verdict.
    #[derive(Clone)]
    struct SetModel {
        lock_holder: std::collections::HashMap<LockId, ThreadId>,
        forked: std::collections::HashSet<ThreadId>,
        started: std::collections::HashSet<ThreadId>,
        joined: std::collections::HashSet<ThreadId>,
        sampling: bool,
        index: usize,
    }

    impl SetModel {
        fn new() -> Self {
            SetModel {
                lock_holder: Default::default(),
                forked: Default::default(),
                started: [t(0)].into(),
                joined: Default::default(),
                sampling: false,
                index: 0,
            }
        }

        fn check(&mut self, a: &Action) -> Result<(), ValidateTraceError> {
            use ValidateTraceError as E;
            let i = self.index;
            if let Some(t) = a.thread() {
                if self.joined.contains(&t) {
                    return Err(E::ActionAfterJoin { index: i, t });
                }
                if !self.started.contains(&t) {
                    return Err(E::ActionBeforeFork { index: i, t });
                }
            }
            match *a {
                Action::Acquire { t, m } => {
                    if let Some(&holder) = self.lock_holder.get(&m) {
                        return Err(E::AcquireHeldLock {
                            index: i,
                            t,
                            m,
                            holder,
                        });
                    }
                    self.lock_holder.insert(m, t);
                }
                Action::Release { t, m } => {
                    if self.lock_holder.get(&m) != Some(&t) {
                        return Err(E::ReleaseUnheldLock { index: i, t, m });
                    }
                    self.lock_holder.remove(&m);
                }
                Action::Fork { t, u } => {
                    if t == u {
                        return Err(E::SelfFork { index: i, t });
                    }
                    if !self.forked.insert(u) || u == ThreadId::new(0) {
                        return Err(E::DoubleFork { index: i, u });
                    }
                    self.started.insert(u);
                }
                Action::Join { t, u } => {
                    if t == u {
                        return Err(E::SelfJoin { index: i, t });
                    }
                    if !self.started.contains(&u) {
                        return Err(E::JoinUnstarted { index: i, u });
                    }
                    self.joined.insert(u);
                }
                Action::SampleBegin => {
                    if self.sampling {
                        return Err(E::UnbalancedSampling { index: i });
                    }
                    self.sampling = true;
                }
                Action::SampleEnd => {
                    if !self.sampling {
                        return Err(E::UnbalancedSampling { index: i });
                    }
                    self.sampling = false;
                }
                _ => {}
            }
            self.index += 1;
            Ok(())
        }
    }

    fn draw(rng: &mut pacer_prng::Rng) -> Action {
        let mut pick = |n: u64| rng.bounded_u64(n) as u32;
        let (ti, ui) = (t(pick(6)), t(pick(6)));
        let (x, site) = (VarId::new(pick(5)), SiteId::new(pick(3)));
        let (m, v) = (LockId::new(pick(4)), VolatileId::new(pick(3)));
        // Lock actions are drawn twice as often: a held lock is what an
        // acquire needs to fail.
        match pick(12) {
            0 => Action::Read { t: ti, x, site },
            1 => Action::Write { t: ti, x, site },
            2 | 3 => Action::Acquire { t: ti, m },
            4 | 5 => Action::Release { t: ti, m },
            6 => Action::Fork { t: ti, u: ui },
            7 => Action::Join { t: ti, u: ui },
            8 => Action::VolRead { t: ti, v },
            9 => Action::VolWrite { t: ti, v },
            10 => Action::SampleBegin,
            _ => Action::SampleEnd,
        }
    }

    #[test]
    fn dense_thread_table_matches_the_set_rules() {
        use crate::stream::ActionCheck;
        let mut rng = pacer_prng::Rng::seed_from_u64(20);
        let (mut kinds, mut longest) = (std::collections::HashSet::new(), 0);
        for _ in 0..2_000 {
            let mut model = SetModel::new();
            let mut validator = TraceValidator::new();
            let mut check = ActionCheck::new();
            let mut passed = Trace::new();
            let len = 1 + rng.bounded_u64(64);
            for _ in 0..len {
                // A draw the model rejects is kept one time in ten, so
                // sequences reach deep states before they break a rule.
                let (action, verdict) = loop {
                    let action = draw(&mut rng);
                    let mut trial = model.clone();
                    let verdict = trial.check(&action);
                    if verdict.is_ok() || rng.gen_bool(0.1) {
                        model = trial;
                        break (action, verdict);
                    }
                };
                assert_eq!(
                    validator.check(&action),
                    verdict,
                    "{action} after {passed:?}"
                );
                assert_eq!(check.check(&action), verdict);
                if let Err(e) = verdict {
                    kinds.insert(std::mem::discriminant(&e));
                    break;
                }
                passed.push(action);
                assert_eq!(check.threads(), passed.thread_count(), "{passed:?}");
            }
            longest = longest.max(passed.len());
        }
        // Every rule but the id bound fired, and some sequences ran long.
        assert_eq!(kinds.len(), 9, "{kinds:?}");
        assert!(longest >= 16, "longest accepted prefix {longest}");
    }

    #[test]
    fn parse_survives_truncated_and_bit_flipped_traces() {
        // A trace file that arrives damaged must produce a structured
        // parse error, never a panic.
        let trace = Trace::from_actions(vec![
            Action::Fork { t: t(0), u: t(1) },
            Action::SampleBegin,
            rd(1, 2),
            Action::Write {
                t: t(1),
                x: VarId::new(2),
                site: SiteId::new(1),
            },
            Action::SampleEnd,
            Action::Join { t: t(0), u: t(1) },
        ]);
        let good = trace.to_text();
        for cut in 0..good.len() {
            let _ = Trace::parse(&good[..cut]); // Ok or Err, never a panic
        }
        let bytes = good.as_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x04;
            if let Ok(text) = String::from_utf8(flipped) {
                let _ = Trace::parse(&text);
            }
        }
    }
}
