//! Trace containers and well-formedness validation.

use std::collections::HashSet;
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
    ///   sampling period, `send` only inside).
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
/// be validated in bounded memory while the detector runs.
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
    lock_holder: std::collections::HashMap<crate::LockId, ThreadId>,
    forked: HashSet<ThreadId>,
    /// Threads allowed to act: thread 0 (the implicit main thread, seeded
    /// at construction) plus every fork target seen so far.
    started: HashSet<ThreadId>,
    joined: HashSet<ThreadId>,
    sampling: bool,
    index: usize,
}

impl Default for TraceValidator {
    fn default() -> Self {
        TraceValidator::new()
    }
}

impl TraceValidator {
    /// Creates a validator in the initial state: no locks held, only
    /// thread 0 started, not sampling.
    pub fn new() -> Self {
        TraceValidator {
            lock_holder: std::collections::HashMap::new(),
            forked: HashSet::new(),
            started: HashSet::from([ThreadId::new(0)]),
            joined: HashSet::new(),
            sampling: false,
            index: 0,
        }
    }

    /// Number of actions checked so far (the index reported in errors).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Checks the next action of the trace.
    ///
    /// # Errors
    ///
    /// The violated condition, carrying the action's index.
    pub fn check(&mut self, a: &Action) -> Result<(), ValidateTraceError> {
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
        }
    }
}

impl Error for ValidateTraceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockId, SiteId, VarId};

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
