//! One shared decode entry point for trace streams.
//!
//! `pacer replay` and the `pacer serve` ingest path both accept "a trace,
//! by content": binary `.ptrace` streams (TRACE_FORMAT.md) are checked
//! and decoded frame by frame with bounded memory, anything else is
//! parsed as the text fixture format. [`AnyTraceReader`] owns that
//! sniff-and-dispatch step and hands the events out a run at a time
//! ([`AnyTraceReader::next_batch`]); [`ActionCheck`] is the §A
//! well-formedness check ([`TraceValidator`]) plus the action/thread
//! accounting every consumer reports. Both consumers push each run's
//! events through it one at a time, so the CLI and the service cannot
//! drift apart on either. [`ValidatedActions`] wraps the same check
//! around an action iterator.
//!
//! The split between the two types is deliberate: the resampling overlay
//! ([`Resampler`](crate::gen::Resampler)) rewrites sampling markers
//! *between* decoding and validation, so decode and validate must be
//! separately stackable.

use std::io::{self, Read};

use crate::binary::{is_binary_trace, BinaryTraceError};
use crate::{
    Action, ActionStats, ParseTraceError, Trace, TraceReader, TraceValidator, ValidateTraceError,
};

/// How many leading bytes the encoding sniff examines (the `PTRC` magic).
const SNIFF_LEN: usize = 4;

/// A failure while decoding a trace stream, from either encoding.
#[derive(Debug)]
pub enum TraceStreamError {
    /// Frame-level failure in a binary stream (bad magic, checksum
    /// mismatch, corrupt payload, …).
    Binary(BinaryTraceError),
    /// Malformed text trace.
    Parse(ParseTraceError),
    /// A text-sniffed stream that is not valid UTF-8.
    NotUtf8(std::string::FromUtf8Error),
    /// I/O failure reading the stream.
    Io(io::Error),
}

impl std::fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStreamError::Binary(e) => write!(f, "{e}"),
            TraceStreamError::Parse(e) => write!(f, "{e}"),
            TraceStreamError::NotUtf8(e) => write!(f, "not UTF-8: {e}"),
            TraceStreamError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceStreamError {}

impl From<BinaryTraceError> for TraceStreamError {
    fn from(e: BinaryTraceError) -> Self {
        TraceStreamError::Binary(e)
    }
}

impl From<io::Error> for TraceStreamError {
    fn from(e: io::Error) -> Self {
        TraceStreamError::Io(e)
    }
}

impl TraceStreamError {
    /// True for binary frame-level failures — the "corrupt complete
    /// frame is a hard error" half of the TRACE_FORMAT.md contract (a
    /// truncated tail never surfaces here; it ends the stream cleanly
    /// and sets [`AnyTraceReader::truncated`]).
    pub fn is_binary(&self) -> bool {
        matches!(self, TraceStreamError::Binary(_))
    }
}

enum Inner<R: Read> {
    Binary(TraceReader<io::Chain<io::Cursor<Vec<u8>>, R>>),
    /// The parsed trace and how many of its actions were handed out.
    Text(Trace, usize),
}

/// A streaming action reader over either trace encoding, auto-detected
/// by content.
///
/// Binary streams never materialize: frames decode one at a time, a
/// mid-frame cut is a clean partial stop ([`truncated`]), and a corrupt
/// complete frame is a hard error. Text streams are read to the end and
/// parsed once (the fixture format has no framing to stream over); the
/// parsed trace is their one run. [`next_batch`] hands out runs; the
/// `Iterator` impl yields the same events one by one.
///
/// [`truncated`]: AnyTraceReader::truncated
/// [`next_batch`]: AnyTraceReader::next_batch
///
/// # Examples
///
/// ```
/// use pacer_trace::{stream::AnyTraceReader, Trace};
///
/// let trace = Trace::parse("fork t0 t1\nwr t0 x0 s1\njoin t0 t1\n").unwrap();
/// let bytes = trace.to_binary();
/// let mut reader = AnyTraceReader::new(&bytes[..]).unwrap();
/// let decoded: Result<Vec<_>, _> = reader.by_ref().collect();
/// assert_eq!(decoded.unwrap(), trace.actions());
/// assert!(reader.is_binary() && !reader.truncated());
/// ```
pub struct AnyTraceReader<R: Read> {
    inner: Inner<R>,
}

impl<R: Read> AnyTraceReader<R> {
    /// Sniffs the first bytes of `src` and opens the matching decoder.
    ///
    /// # Errors
    ///
    /// Binary header errors, text parse/UTF-8 errors, or I/O.
    pub fn new(mut src: R) -> Result<Self, TraceStreamError> {
        let mut head = [0u8; SNIFF_LEN];
        let mut got = 0;
        while got < head.len() {
            match src.read(&mut head[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceStreamError::Io(e)),
            }
        }
        let inner = if is_binary_trace(&head[..got]) {
            // Re-chain the sniffed bytes in front so TraceReader sees the
            // full header; sources need not be seekable (sockets aren't).
            let chained = io::Cursor::new(head[..got].to_vec()).chain(src);
            Inner::Binary(TraceReader::new(chained)?)
        } else {
            let mut bytes = head[..got].to_vec();
            src.read_to_end(&mut bytes)?;
            let text = String::from_utf8(bytes).map_err(TraceStreamError::NotUtf8)?;
            Inner::Text(Trace::parse(&text).map_err(TraceStreamError::Parse)?, 0)
        };
        Ok(AnyTraceReader { inner })
    }

    /// Whether the sniff chose the binary decoder.
    pub fn is_binary(&self) -> bool {
        matches!(self.inner, Inner::Binary(_))
    }

    /// Whether a binary stream ended mid-header or mid-frame (a crash or
    /// disconnect artifact). Meaningful once the stream has ended;
    /// always `false` for text streams.
    pub fn truncated(&self) -> bool {
        match &self.inner {
            Inner::Binary(r) => r.truncated(),
            Inner::Text(..) => false,
        }
    }

    /// Complete binary frames consumed so far (0 for text).
    pub fn frames(&self) -> u64 {
        match &self.inner {
            Inner::Binary(r) => r.frames(),
            Inner::Text(..) => 0,
        }
    }

    /// Events handed out from complete binary frames so far (0 for
    /// text).
    pub fn events(&self) -> u64 {
        match &self.inner {
            Inner::Binary(r) => r.events(),
            Inner::Text(..) => 0,
        }
    }

    /// The next run of events: for a binary stream the rest of the
    /// current frame, at most
    /// [`FRAME_EVENT_TARGET`](crate::binary::FRAME_EVENT_TARGET) of them
    /// (see [`TraceReader::next_batch`]); for text, every action not yet
    /// handed out. An empty slice is the end of the stream.
    ///
    /// # Errors
    ///
    /// A binary stream's first hard error, which ends it.
    pub fn next_batch(&mut self) -> Result<&[Action], TraceStreamError> {
        match &mut self.inner {
            Inner::Binary(r) => r.next_batch().map_err(TraceStreamError::from),
            Inner::Text(trace, cursor) => {
                let start = std::mem::replace(cursor, trace.len());
                Ok(&trace.actions()[start..])
            }
        }
    }

    /// The user-facing truncation note both `pacer replay` and `pacer
    /// serve` print for a mid-frame cut, or `None` for an intact stream.
    pub fn truncation_note(&self) -> Option<String> {
        if !self.truncated() {
            return None;
        }
        Some(format!(
            "note: trace ends mid-frame; analyzed the {} complete frame(s) ({} events)",
            self.frames(),
            self.events()
        ))
    }
}

impl<R: Read> Iterator for AnyTraceReader<R> {
    type Item = Result<Action, TraceStreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            Inner::Binary(r) => r.next().map(|res| res.map_err(TraceStreamError::from)),
            Inner::Text(trace, cursor) => {
                let action = *trace.actions().get(*cursor)?;
                *cursor += 1;
                Some(Ok(action))
            }
        }
    }
}

/// The §A well-formedness check ([`TraceValidator`]) plus the stream
/// accounting every report line needs — [`ActionStats`] per action kind
/// and the number of threads mentioned — fed one action at a time.
///
/// This is the push-mode core of [`ValidatedActions`]: `pacer replay` and
/// the `pacer serve` ingest check each event of a run here, while a
/// consumer that pulls from an iterator wraps it in [`ValidatedActions`].
/// Both count and stop exactly alike. Its memory is
/// bounded by the validator's: at most 64 KiB of thread lifecycle state
/// and 4 MiB of lock holders, since every thread id must be below
/// [`TraceValidator::THREAD_LIMIT`] and every lock id below
/// [`TraceValidator::ID_LIMIT`].
#[derive(Clone, Debug, Default)]
pub struct ActionCheck {
    validator: TraceValidator,
    stats: ActionStats,
}

impl ActionCheck {
    /// A fresh check with zeroed counters.
    pub fn new() -> Self {
        ActionCheck::default()
    }

    /// Checks `action` against the §A rules and counts it if it passes.
    ///
    /// # Errors
    ///
    /// The violation; the action is not counted.
    #[inline]
    pub fn check(&mut self, action: &Action) -> Result<(), ValidateTraceError> {
        self.validator.check(action)?;
        self.stats.count(action);
        Ok(())
    }

    /// Counts of the actions that passed so far.
    pub fn stats(&self) -> &ActionStats {
        &self.stats
    }

    /// Number of threads mentioned so far (max dense index + 1, counting
    /// fork/join targets that never act themselves), or 0 before any
    /// thread has acted. Every thread a passed action mentions was forked
    /// or is thread 0, so this is the validator's thread table length.
    pub fn threads(&self) -> usize {
        if self.stats.accesses() + self.stats.sync_ops() == 0 {
            return 0;
        }
        self.validator.thread_slots()
    }
}

/// Wraps an action iterator with an [`ActionCheck`].
///
/// Iteration stops at the first invalid action; the violation is held in
/// [`error`](ValidatedActions::error) so the consumer can surface it
/// after draining (matching how a sequential check-then-apply loop would
/// have stopped). Memory stays bounded whatever the stream's length: at
/// most 64 KiB of thread lifecycle state and 4 MiB of lock holders, and
/// no thread id that reaches the consumer is at or above
/// [`TraceValidator::THREAD_LIMIT`], nor any other id at or above
/// [`TraceValidator::ID_LIMIT`].
pub struct ValidatedActions<I> {
    inner: I,
    check: ActionCheck,
    error: Option<ValidateTraceError>,
}

impl<I: Iterator<Item = Action>> ValidatedActions<I> {
    /// Wraps `inner` with a fresh validator and zeroed counters.
    pub fn new(inner: I) -> Self {
        ValidatedActions {
            inner,
            check: ActionCheck::new(),
            error: None,
        }
    }

    /// Counts of the actions yielded so far.
    pub fn stats(&self) -> &ActionStats {
        self.check.stats()
    }

    /// Number of threads mentioned so far (see [`ActionCheck::threads`]).
    pub fn threads(&self) -> usize {
        self.check.threads()
    }

    /// The validation failure that stopped iteration, if any.
    pub fn error(&self) -> Option<&ValidateTraceError> {
        self.error.as_ref()
    }
}

impl<I: Iterator<Item = Action>> Iterator for ValidatedActions<I> {
    type Item = Action;

    fn next(&mut self) -> Option<Action> {
        if self.error.is_some() {
            return None;
        }
        let action = self.inner.next()?;
        match self.check.check(&action) {
            Ok(()) => Some(action),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{encode_trace, FRAME_EVENT_TARGET};

    fn sample() -> Trace {
        Trace::parse(
            "
            fork t0 t1
            sbegin
            wr t0 x0 s0
            rd t1 x0 s1
            send
            join t0 t1
        ",
        )
        .unwrap()
    }

    #[test]
    fn binary_and_text_decode_identically() {
        let trace = sample();
        let binary = encode_trace(&trace);
        let text = trace.to_text();

        let from_bin: Vec<_> = AnyTraceReader::new(&binary[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let from_text: Vec<_> = AnyTraceReader::new(text.as_bytes())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(from_bin, trace.actions());
        assert_eq!(from_text, trace.actions());
    }

    #[test]
    fn sniff_picks_encoding() {
        let trace = sample();
        assert!(AnyTraceReader::new(&trace.to_binary()[..])
            .unwrap()
            .is_binary());
        assert!(!AnyTraceReader::new(trace.to_text().as_bytes())
            .unwrap()
            .is_binary());
    }

    #[test]
    fn truncated_binary_is_a_clean_partial_stop() {
        let trace = sample();
        let bytes = trace.to_binary();
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = AnyTraceReader::new(cut).unwrap();
        let decoded: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
        assert!(decoded.len() < trace.len());
        assert!(reader.truncated());
        let note = reader.truncation_note().unwrap();
        assert!(note.starts_with("note: trace ends mid-frame"), "{note}");
    }

    #[test]
    fn corrupt_complete_frame_is_a_hard_error() {
        let trace = sample();
        let mut bytes = trace.to_binary();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit, length intact
        let reader = AnyTraceReader::new(&bytes[..]).unwrap();
        let result: Result<Vec<_>, _> = reader.collect();
        assert!(
            matches!(result, Err(e) if e.is_binary()),
            "checksum must fail hard"
        );
    }

    /// A reader's whole output, read by runs or by events: every event,
    /// then how the stream ended — the error text, or whether it was torn.
    fn drain(bytes: &[u8], by_runs: bool) -> (Vec<Action>, Result<bool, String>) {
        let mut reader = AnyTraceReader::new(bytes).unwrap();
        let mut events = Vec::new();
        let end = loop {
            let next = if by_runs {
                reader.next_batch().map(<[Action]>::to_vec)
            } else {
                reader.next().transpose().map(|a| a.into_iter().collect())
            };
            match next {
                Ok(run) if run.is_empty() => break Ok(reader.truncated()),
                Ok(run) => events.extend(run),
                Err(e) => break Err(e.to_string()),
            }
        };
        (events, end)
    }

    #[test]
    fn runs_concatenate_to_the_event_stream() {
        let trace = crate::gen::GenConfig::small(4)
            .with_ops_per_thread(3_000)
            .generate();
        let multi = trace.to_binary();
        let frames = crate::binary::split_frames(&multi).unwrap().frames;
        assert!(frames.len() > 2, "the input spans frames");
        let torn = multi[..frames[1].end + 9].to_vec();
        let mut corrupt = multi.clone();
        corrupt[frames[1].end - 1] ^= 0x40; // frame 2's checksum fails
        let text = trace.to_text().into_bytes();
        for (name, bytes) in [
            ("multi-frame", &multi),
            ("torn", &torn),
            ("corrupt", &corrupt),
            ("text", &text),
        ] {
            let by_runs = drain(bytes, true);
            assert_eq!(by_runs, drain(bytes, false), "{name}");
            let whole = if name == "text" {
                Trace::parse(&trace.to_text()).map_err(|e| e.to_string())
            } else {
                crate::binary::decode_trace(bytes).map_err(|e| e.to_string())
            };
            match (name, whole) {
                ("torn", Err(e)) => {
                    assert!(e.contains("truncated"), "{e}");
                    assert_eq!(by_runs.1, Ok(true));
                    assert_eq!(by_runs.0, trace.actions()[..2 * FRAME_EVENT_TARGET]);
                }
                (_, Ok(whole)) => assert_eq!(by_runs, (whole.actions().to_vec(), Ok(false))),
                (_, Err(e)) => {
                    assert_eq!(by_runs.1, Err(e), "{name}");
                    assert_eq!(by_runs.0, trace.actions()[..FRAME_EVENT_TARGET]);
                }
            }
        }
    }

    #[test]
    fn garbage_falls_back_to_text_and_fails_to_parse() {
        let result = AnyTraceReader::new(&b"not a trace\n"[..]);
        assert!(matches!(result, Err(TraceStreamError::Parse(_))));
    }

    #[test]
    fn validated_actions_count_and_stop_on_violation() {
        let trace = sample();
        let mut v = ValidatedActions::new(trace.iter().copied());
        let n = v.by_ref().count();
        assert_eq!(n, trace.len());
        assert!(v.error().is_none());
        assert_eq!(v.stats().total(), trace.len() as u64);
        assert_eq!(v.threads(), 2);

        // `send` without `sbegin` violates marker alternation.
        let bad = [Action::SampleEnd];
        let mut v = ValidatedActions::new(bad.iter().copied());
        assert_eq!(v.by_ref().count(), 0);
        assert!(v.error().is_some());
    }
}
