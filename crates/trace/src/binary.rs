//! The compact binary trace encoding (`.ptrace`).
//!
//! The normative wire-format specification lives in `TRACE_FORMAT.md` at
//! the workspace root; this module is its reference implementation. In
//! brief, a binary trace is
//!
//! ```text
//! header  := "PTRC" version=0x01 reserved=[0x00; 3]          (8 bytes)
//! frame   := payload_len:u32le  checksum:u64le  payload      (repeated)
//! payload := event+            (frames end on event boundaries)
//! event   := opcode:u8  operand:varint*
//! ```
//!
//! The checksum is FNV-1a-64 of the payload bytes — the same digest, from
//! the same shared implementation ([`pacer_collections::fnv1a64`]), as the
//! checkpoint journal's line framing — and operands are canonical-minimal
//! LEB128 varints, so a given [`Trace`] has exactly one encoding and
//! decode∘encode is byte-identity.
//!
//! Damage semantics mirror the journal's: a stream that *ends* mid-frame
//! is a crash artifact — [`TraceReader`] stops cleanly after the last
//! complete frame and sets [`TraceReader::truncated`] — while a *complete*
//! frame that fails its checksum or contains a malformed event is
//! corruption and yields a hard [`BinaryTraceError`]. The strict
//! whole-trace decoder, [`decode_trace`], treats truncation as an error
//! too.
//!
//! Every reader checks a frame's length and checksum in one place,
//! whether it streams events ([`TraceReader`]), addresses whole frames
//! ([`split_frames`]) or decodes one addressed frame
//! ([`decode_frame_into`], which keeps the events before a malformed
//! one, as the streaming reader yields them).
//!
//! Reading is streaming and bounded: [`TraceReader`] holds at most one
//! frame (≤ [`MAX_FRAME_BYTES`]) in memory and yields events as an
//! iterator; [`TraceWriter`] buffers at most one frame before flushing.
//! [`StreamRecorder`] adapts a writer to the [`Detector`] interface so a
//! live run can be captured without materializing the trace.
//!
//! # Examples
//!
//! ```
//! use pacer_trace::{binary, Trace};
//!
//! let trace = Trace::parse("fork t0 t1\nwr t1 x0 s3\njoin t0 t1\n").unwrap();
//! let bytes = binary::encode_trace(&trace);
//! assert_eq!(binary::decode_trace(&bytes).unwrap(), trace);
//! // One encoding per trace: re-encoding the decoded trace is byte-identity.
//! assert_eq!(binary::encode_trace(&binary::decode_trace(&bytes).unwrap()), bytes);
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use pacer_clock::ThreadId;
use pacer_collections::fnv1a64;

use crate::{Action, ActionStats, Detector, LockId, RaceReport, SiteId, Trace, VarId, VolatileId};

/// The 4-byte file magic: `b"PTRC"`.
pub const MAGIC: [u8; 4] = *b"PTRC";

/// The current (and only) format version.
pub const FORMAT_VERSION: u8 = 1;

/// Total header length in bytes: magic, version, three reserved zeros.
pub const HEADER_LEN: usize = 8;

/// The 8-byte file header every `.ptrace` stream starts with.
pub const HEADER: [u8; HEADER_LEN] = {
    let [p, t, r, c] = MAGIC;
    [p, t, r, c, FORMAT_VERSION, 0, 0, 0]
};

/// Hard upper bound on a frame's declared payload length. A frame header
/// declaring more is rejected before any allocation, bounding reader
/// memory even on hostile input.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Writers close a frame once its payload reaches this many bytes…
pub const FRAME_BYTE_TARGET: usize = 32 * 1024;

/// …or this many events, whichever comes first. Both bounds are part of
/// the canonical encoding: they make framing deterministic, so equal
/// traces encode to equal bytes.
pub const FRAME_EVENT_TARGET: usize = 4096;

/// Per-frame overhead: 4-byte length + 8-byte checksum.
const FRAME_HEADER_LEN: usize = 12;

/// The frame header length made public for transports that address
/// whole frames (header + payload) as opaque byte ranges.
pub const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN;

// Event opcodes (TRACE_FORMAT.md §4).
const OP_READ: u8 = 0x00;
const OP_WRITE: u8 = 0x01;
const OP_ACQUIRE: u8 = 0x02;
const OP_RELEASE: u8 = 0x03;
const OP_FORK: u8 = 0x04;
const OP_JOIN: u8 = 0x05;
const OP_VOL_READ: u8 = 0x06;
const OP_VOL_WRITE: u8 = 0x07;
const OP_SAMPLE_BEGIN: u8 = 0x08;
const OP_SAMPLE_END: u8 = 0x09;

/// What went wrong reading a binary trace.
///
/// Every variant except [`Io`](Self::Io) and [`Truncated`](Self::Truncated)
/// is *corruption*: the input is complete enough to be checked and the
/// check failed. `Truncated` is produced only by the strict whole-trace
/// decoders; the streaming [`TraceReader`] instead reports truncation as a
/// clean stop via [`TraceReader::truncated`].
#[derive(Debug)]
pub enum BinaryTraceError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The first four bytes are not `b"PTRC"`.
    BadMagic {
        /// The bytes found (zero-padded if fewer than four were present).
        found: [u8; 4],
    },
    /// The version byte is not a version this reader supports.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The three reserved header bytes are not all zero.
    ReservedNonZero {
        /// The bytes found.
        found: [u8; 3],
    },
    /// A frame declared a payload longer than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// 1-based index of the offending frame.
        frame: u64,
        /// The declared payload length.
        declared: u32,
    },
    /// A complete frame's payload does not match its checksum.
    ChecksumMismatch {
        /// 1-based index of the offending frame.
        frame: u64,
        /// The checksum the frame header declared.
        expected: u64,
        /// FNV-1a-64 of the payload actually present.
        actual: u64,
    },
    /// A checksummed frame contains a malformed event stream (unknown
    /// opcode, non-minimal varint, or an event cut off by the frame end).
    Corrupt {
        /// 1-based index of the offending frame.
        frame: u64,
        /// Byte offset of the bad event within the frame payload.
        offset: usize,
        /// What failed there.
        message: String,
    },
    /// The stream ended in the middle of a header or frame (strict
    /// decoders only).
    Truncated {
        /// 1-based index of the incomplete frame; 0 means the 8-byte file
        /// header itself was incomplete.
        frame: u64,
    },
}

impl fmt::Display for BinaryTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use BinaryTraceError as E;
        match self {
            E::Io(e) => write!(f, "binary trace I/O error: {e}"),
            E::BadMagic { found } => {
                write!(
                    f,
                    "not a binary trace: magic bytes {found:02x?} != \"PTRC\""
                )
            }
            E::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported binary trace version {found} (reader supports {FORMAT_VERSION})"
                )
            }
            E::ReservedNonZero { found } => {
                write!(f, "nonzero reserved header bytes {found:02x?}")
            }
            E::FrameTooLarge { frame, declared } => {
                write!(
                    f,
                    "frame {frame} declares {declared} payload bytes (limit {MAX_FRAME_BYTES})"
                )
            }
            E::ChecksumMismatch {
                frame,
                expected,
                actual,
            } => write!(
                f,
                "frame {frame} checksum mismatch: header {expected:016x}, payload {actual:016x}"
            ),
            E::Corrupt {
                frame,
                offset,
                message,
            } => write!(
                f,
                "frame {frame} corrupt at payload offset {offset}: {message}"
            ),
            E::Truncated { frame } => {
                if *frame == 0 {
                    write!(f, "binary trace truncated inside the file header")
                } else {
                    write!(f, "binary trace truncated inside frame {frame}")
                }
            }
        }
    }
}

impl Error for BinaryTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BinaryTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BinaryTraceError {
    fn from(e: io::Error) -> Self {
        BinaryTraceError::Io(e)
    }
}

/// Returns `true` if `bytes` begin with the binary trace magic.
///
/// This is the auto-detection rule: content, not file extension, decides
/// how a trace file is parsed ([`AnyTraceReader`](crate::AnyTraceReader)).
pub fn is_binary_trace(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Appends `v` to `buf` as a canonical-minimal LEB128 varint.
fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Decodes one canonical-minimal LEB128 varint from `payload` at `*pos`,
/// advancing the cursor. Errors carry the offset of the varint's first
/// byte and a message.
fn read_varint(payload: &[u8], pos: &mut usize) -> Result<u32, (usize, String)> {
    let start = *pos;
    let mut shift = 0u32;
    let mut value = 0u32;
    loop {
        let Some(&b) = payload.get(*pos) else {
            return Err((start, "varint cut off by frame end".to_string()));
        };
        *pos += 1;
        if shift == 28 && b > 0x0f {
            return Err((start, "varint overflows u32".to_string()));
        }
        value |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            if b == 0 && *pos - start > 1 {
                return Err((start, "non-minimal varint encoding".to_string()));
            }
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends the canonical encoding of one event to `buf`.
fn push_action(buf: &mut Vec<u8>, a: &Action) {
    match *a {
        Action::Read { t, x, site } => {
            buf.push(OP_READ);
            push_varint(buf, t.raw());
            push_varint(buf, x.raw());
            push_varint(buf, site.raw());
        }
        Action::Write { t, x, site } => {
            buf.push(OP_WRITE);
            push_varint(buf, t.raw());
            push_varint(buf, x.raw());
            push_varint(buf, site.raw());
        }
        Action::Acquire { t, m } => {
            buf.push(OP_ACQUIRE);
            push_varint(buf, t.raw());
            push_varint(buf, m.raw());
        }
        Action::Release { t, m } => {
            buf.push(OP_RELEASE);
            push_varint(buf, t.raw());
            push_varint(buf, m.raw());
        }
        Action::Fork { t, u } => {
            buf.push(OP_FORK);
            push_varint(buf, t.raw());
            push_varint(buf, u.raw());
        }
        Action::Join { t, u } => {
            buf.push(OP_JOIN);
            push_varint(buf, t.raw());
            push_varint(buf, u.raw());
        }
        Action::VolRead { t, v } => {
            buf.push(OP_VOL_READ);
            push_varint(buf, t.raw());
            push_varint(buf, v.raw());
        }
        Action::VolWrite { t, v } => {
            buf.push(OP_VOL_WRITE);
            push_varint(buf, t.raw());
            push_varint(buf, v.raw());
        }
        Action::SampleBegin => buf.push(OP_SAMPLE_BEGIN),
        Action::SampleEnd => buf.push(OP_SAMPLE_END),
    }
}

/// Decodes one event from `payload` at `*pos`, advancing the cursor.
fn read_action(payload: &[u8], pos: &mut usize) -> Result<Action, (usize, String)> {
    let at = *pos;
    let op = payload[at];
    *pos += 1;
    let next = |pos: &mut usize| read_varint(payload, pos);
    let action = match op {
        OP_READ => Action::Read {
            t: ThreadId::new(next(pos)?),
            x: VarId::new(next(pos)?),
            site: SiteId::new(next(pos)?),
        },
        OP_WRITE => Action::Write {
            t: ThreadId::new(next(pos)?),
            x: VarId::new(next(pos)?),
            site: SiteId::new(next(pos)?),
        },
        OP_ACQUIRE => Action::Acquire {
            t: ThreadId::new(next(pos)?),
            m: LockId::new(next(pos)?),
        },
        OP_RELEASE => Action::Release {
            t: ThreadId::new(next(pos)?),
            m: LockId::new(next(pos)?),
        },
        OP_FORK => Action::Fork {
            t: ThreadId::new(next(pos)?),
            u: ThreadId::new(next(pos)?),
        },
        OP_JOIN => Action::Join {
            t: ThreadId::new(next(pos)?),
            u: ThreadId::new(next(pos)?),
        },
        OP_VOL_READ => Action::VolRead {
            t: ThreadId::new(next(pos)?),
            v: VolatileId::new(next(pos)?),
        },
        OP_VOL_WRITE => Action::VolWrite {
            t: ThreadId::new(next(pos)?),
            v: VolatileId::new(next(pos)?),
        },
        OP_SAMPLE_BEGIN => Action::SampleBegin,
        OP_SAMPLE_END => Action::SampleEnd,
        other => return Err((at, format!("unknown opcode 0x{other:02x}"))),
    };
    Ok(action)
}

/// Counters describing what a [`TraceWriter`] emitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeSummary {
    /// Events encoded.
    pub events: u64,
    /// Total bytes written, header and frame overhead included.
    pub bytes: u64,
    /// Complete frames emitted.
    pub frames: u64,
}

impl EncodeSummary {
    /// Mean encoded size per event (frame and file overhead amortized in),
    /// or 0.0 for an empty trace.
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.bytes as f64 / self.events as f64
        }
    }
}

/// Streaming binary trace encoder with bounded memory.
///
/// Writes the file header on construction, buffers events into at most one
/// frame ([`FRAME_BYTE_TARGET`] bytes / [`FRAME_EVENT_TARGET`] events),
/// and flushes each completed frame to the sink. Dropping the writer
/// without calling [`finish`](Self::finish) loses any buffered partial
/// frame — exactly the crash artifact the format's truncation semantics
/// are designed around.
///
/// # Examples
///
/// ```
/// use pacer_trace::binary::TraceWriter;
/// use pacer_trace::Action;
///
/// let mut w = TraceWriter::new(Vec::new()).unwrap();
/// w.write_action(&Action::SampleBegin).unwrap();
/// w.write_action(&Action::SampleEnd).unwrap();
/// let (bytes, summary) = w.finish().unwrap();
/// assert_eq!(summary.events, 2);
/// assert_eq!(summary.bytes as usize, bytes.len());
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    /// Payload of the frame under construction.
    buf: Vec<u8>,
    events_in_frame: usize,
    summary: EncodeSummary,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the 8-byte file header.
    ///
    /// # Errors
    ///
    /// Propagates the header write.
    pub fn new(mut sink: W) -> io::Result<Self> {
        sink.write_all(&HEADER)?;
        Ok(TraceWriter {
            sink,
            buf: Vec::new(),
            events_in_frame: 0,
            summary: EncodeSummary {
                events: 0,
                bytes: HEADER_LEN as u64,
                frames: 0,
            },
        })
    }

    /// Encodes one event into the current frame, flushing the frame first
    /// if it has reached either canonical bound.
    ///
    /// # Errors
    ///
    /// Propagates sink write failures.
    pub fn write_action(&mut self, action: &Action) -> io::Result<()> {
        push_action(&mut self.buf, action);
        self.events_in_frame += 1;
        self.summary.events += 1;
        if self.buf.len() >= FRAME_BYTE_TARGET || self.events_in_frame >= FRAME_EVENT_TARGET {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Counters so far; `bytes` includes only *flushed* frames until
    /// [`finish`](Self::finish).
    pub fn summary(&self) -> EncodeSummary {
        self.summary
    }

    /// Flushes the final partial frame and returns the sink with final
    /// counters.
    ///
    /// # Errors
    ///
    /// Propagates sink write/flush failures.
    pub fn finish(mut self) -> io::Result<(W, EncodeSummary)> {
        self.flush_frame()?;
        self.sink.flush()?;
        Ok((self.sink, self.summary))
    }

    fn flush_frame(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        debug_assert!(self.buf.len() <= MAX_FRAME_BYTES as usize);
        let len = self.buf.len() as u32;
        self.sink.write_all(&len.to_le_bytes())?;
        self.sink.write_all(&fnv1a64(&self.buf).to_le_bytes())?;
        self.sink.write_all(&self.buf)?;
        self.summary.bytes += (FRAME_HEADER_LEN + self.buf.len()) as u64;
        self.summary.frames += 1;
        self.buf.clear();
        self.events_in_frame = 0;
        Ok(())
    }
}

/// Encodes a whole trace to bytes (the canonical encoding).
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new()).expect("writing the header to a Vec cannot fail");
    for action in trace {
        writer
            .write_action(action)
            .expect("writing a frame to a Vec cannot fail");
    }
    let (bytes, _) = writer.finish().expect("flushing to a Vec cannot fail");
    bytes
}

/// Strictly decodes a whole binary trace from bytes.
///
/// # Errors
///
/// Any [`BinaryTraceError`], including [`Truncated`]
/// (unlike the streaming [`TraceReader`], a cut-off tail is an error
/// here).
///
/// [`Truncated`]: BinaryTraceError::Truncated
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, BinaryTraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let mut trace = Trace::new();
    for action in reader.by_ref() {
        trace.push(action?);
    }
    if reader.truncated() {
        let frame = if reader.header_complete {
            reader.frames() + 1
        } else {
            0
        };
        return Err(BinaryTraceError::Truncated { frame });
    }
    Ok(trace)
}

/// One checksum-verified frame located inside a complete `.ptrace` byte
/// buffer (see [`split_frames`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRange {
    /// 0-based frame offset within the trace — the dedup/ack key durable
    /// transports exchange.
    pub offset: u64,
    /// Byte index where the frame's 12-byte header starts.
    pub start: usize,
    /// Byte index one past the frame's payload, so `&bytes[start..end]`
    /// is the whole frame, retransmittable or journalable verbatim.
    pub end: usize,
}

/// The result of [`split_frames`]: every complete, checksum-verified
/// frame in offset order, plus whether the buffer ended mid-frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameSplit {
    /// Byte ranges of the complete frames, indexed by frame offset.
    pub frames: Vec<FrameRange>,
    /// True when the buffer ended inside the file header or a frame (a
    /// torn tail — the same clean-stop semantics as [`TraceReader`]).
    pub truncated: bool,
}

/// Splits a complete `.ptrace` byte buffer into offset-addressed,
/// checksum-verified frame byte ranges.
///
/// This is the sender side of the durable-session wire protocol: a client
/// splits its trace once, then transmits `&bytes[f.start..f.end]` per
/// frame and can retransmit any suffix after a reconnect without
/// re-encoding. A torn tail sets [`FrameSplit::truncated`] and the frames
/// before the cut stand, mirroring [`TraceReader`] semantics.
///
/// # Errors
///
/// Header errors ([`BadMagic`], [`UnsupportedVersion`],
/// [`ReservedNonZero`]) and per-frame corruption ([`FrameTooLarge`],
/// empty-frame [`Corrupt`], [`ChecksumMismatch`]) are hard errors, exactly
/// as in streaming decode.
///
/// [`BadMagic`]: BinaryTraceError::BadMagic
/// [`UnsupportedVersion`]: BinaryTraceError::UnsupportedVersion
/// [`ReservedNonZero`]: BinaryTraceError::ReservedNonZero
/// [`FrameTooLarge`]: BinaryTraceError::FrameTooLarge
/// [`Corrupt`]: BinaryTraceError::Corrupt
/// [`ChecksumMismatch`]: BinaryTraceError::ChecksumMismatch
pub fn split_frames(bytes: &[u8]) -> Result<FrameSplit, BinaryTraceError> {
    // Reuse the reader's header validation (including its partial-valid-
    // header truncation semantics) on a throwaway slice reader.
    let probe = TraceReader::new(bytes)?;
    if !probe.header_complete {
        return Ok(FrameSplit {
            frames: Vec::new(),
            truncated: true,
        });
    }
    let mut split = FrameSplit::default();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let offset = split.frames.len() as u64;
        let Some(head) = bytes.get(at..at + FRAME_HEADER_LEN) else {
            split.truncated = true;
            break;
        };
        let (declared, expected) = frame_header(head, offset + 1)?;
        let end = at + FRAME_HEADER_LEN + declared;
        let Some(payload) = bytes.get(at + FRAME_HEADER_LEN..end) else {
            split.truncated = true;
            break;
        };
        verify_payload(payload, expected, offset + 1)?;
        split.frames.push(FrameRange {
            offset,
            start: at,
            end,
        });
        at = end;
    }
    Ok(split)
}

/// Validates one complete frame — 12-byte header plus payload, exactly
/// the bytes a [`FrameRange`] addresses or a durable transport carries —
/// and decodes its events into a fresh vector (see [`decode_frame_into`]).
///
/// # Errors
///
/// As [`decode_frame_into`]; the events before a malformed one are
/// dropped with the vector.
pub fn decode_frame_payload(
    frame: &[u8],
    frame_index: u64,
) -> Result<Vec<Action>, BinaryTraceError> {
    let mut actions = Vec::new();
    decode_frame_into(frame, frame_index, &mut actions)?;
    Ok(actions)
}

/// Validates one complete frame — 12-byte header plus payload — and
/// appends its events to `out`.
///
/// `frame_index` is the 1-based frame number used in error reports (pass
/// `offset + 1` for a [`FrameRange`]). A malformed event ends the decode
/// with the events before it already in `out`, exactly as a
/// [`TraceReader`] yields them before its error.
///
/// # Errors
///
/// [`Truncated`] when the bytes are shorter than the declared payload (or
/// shorter than a frame header), [`FrameTooLarge`] / empty-frame
/// [`Corrupt`] / [`ChecksumMismatch`] as in streaming decode, [`Corrupt`]
/// when trailing bytes follow the declared payload or the payload is not
/// a well-formed event stream.
///
/// [`Truncated`]: BinaryTraceError::Truncated
/// [`FrameTooLarge`]: BinaryTraceError::FrameTooLarge
/// [`Corrupt`]: BinaryTraceError::Corrupt
/// [`ChecksumMismatch`]: BinaryTraceError::ChecksumMismatch
pub fn decode_frame_into(
    frame: &[u8],
    frame_index: u64,
    out: &mut Vec<Action>,
) -> Result<(), BinaryTraceError> {
    let Some(head) = frame.get(..FRAME_HEADER_LEN) else {
        return Err(BinaryTraceError::Truncated { frame: frame_index });
    };
    let (declared, expected) = frame_header(head, frame_index)?;
    let payload = &frame[FRAME_HEADER_LEN..];
    if payload.len() < declared {
        return Err(BinaryTraceError::Truncated { frame: frame_index });
    }
    if payload.len() > declared {
        return Err(BinaryTraceError::Corrupt {
            frame: frame_index,
            offset: declared,
            message: format!(
                "{} byte(s) past the declared payload",
                payload.len() - declared
            ),
        });
    }
    verify_payload(payload, expected, frame_index)?;
    let mut pos = 0;
    while pos < payload.len() {
        match read_action(payload, &mut pos) {
            Ok(action) => out.push(action),
            Err((offset, message)) => {
                return Err(BinaryTraceError::Corrupt {
                    frame: frame_index,
                    offset,
                    message,
                })
            }
        }
    }
    Ok(())
}

/// Reads a frame's 12-byte header — declared payload length, then
/// checksum — and checks the length: at most [`MAX_FRAME_BYTES`], so no
/// reader allocates past the cap, and never zero. `frame` is the 1-based
/// index errors carry.
#[inline]
fn frame_header(head: &[u8], frame: u64) -> Result<(usize, u64), BinaryTraceError> {
    let declared = u32::from_le_bytes(head[..4].try_into().expect("4-byte slice"));
    let checksum = u64::from_le_bytes(head[4..FRAME_HEADER_LEN].try_into().expect("8-byte slice"));
    if declared > MAX_FRAME_BYTES {
        return Err(BinaryTraceError::FrameTooLarge { frame, declared });
    }
    if declared == 0 {
        return Err(BinaryTraceError::Corrupt {
            frame,
            offset: 0,
            message: "empty frame".to_string(),
        });
    }
    Ok((declared as usize, checksum))
}

/// Checks a complete frame's payload against the checksum its header
/// declared.
#[inline]
fn verify_payload(payload: &[u8], expected: u64, frame: u64) -> Result<(), BinaryTraceError> {
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(BinaryTraceError::ChecksumMismatch {
            frame,
            expected,
            actual,
        });
    }
    Ok(())
}

/// Streaming binary trace decoder with bounded memory.
///
/// Yields events one at a time as an `Iterator`, holding at most one
/// frame's payload (≤ [`MAX_FRAME_BYTES`]) in memory, so detectors can
/// consume arbitrarily large traces without a whole-trace `Vec`.
///
/// A stream that ends mid-header or mid-frame is treated as a crash
/// artifact: iteration stops cleanly after the last complete frame and
/// [`truncated`](Self::truncated) reports `true`. A *complete* frame that
/// fails validation yields a hard error and ends iteration.
///
/// # Examples
///
/// ```
/// use pacer_trace::binary::{encode_trace, TraceReader};
/// use pacer_trace::Trace;
///
/// let trace = Trace::parse("fork t0 t1\nwr t1 x0 s3\n").unwrap();
/// let bytes = encode_trace(&trace);
/// let mut reader = TraceReader::new(&bytes[..]).unwrap();
/// let decoded: Result<Vec<_>, _> = reader.by_ref().collect();
/// assert_eq!(decoded.unwrap(), trace.actions());
/// assert!(!reader.truncated());
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    payload: Vec<u8>,
    pos: usize,
    frames: u64,
    events: u64,
    truncated: bool,
    /// False when the 8-byte file header itself was cut off (so strict
    /// decoders can report `Truncated { frame: 0 }`).
    header_complete: bool,
    done: bool,
}

/// Reads until `buf` is full or EOF; returns the number of bytes read.
fn read_full_or_eof<R: Read>(src: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader and validates the 8-byte file header.
    ///
    /// A stream that ends partway through a byte-for-byte valid header is
    /// truncation: the reader opens, yields no events, and reports
    /// [`truncated`](Self::truncated). Wrong bytes anywhere in the header
    /// are hard errors.
    ///
    /// # Errors
    ///
    /// [`BadMagic`], [`UnsupportedVersion`], [`ReservedNonZero`], or I/O.
    ///
    /// [`BadMagic`]: BinaryTraceError::BadMagic
    /// [`UnsupportedVersion`]: BinaryTraceError::UnsupportedVersion
    /// [`ReservedNonZero`]: BinaryTraceError::ReservedNonZero
    pub fn new(mut src: R) -> Result<Self, BinaryTraceError> {
        let mut header = [0u8; HEADER_LEN];
        let n = read_full_or_eof(&mut src, &mut header)?;
        // Field checks, most significant first, over the bytes present.
        if header[..n.min(4)] != HEADER[..n.min(4)] {
            let mut found = [0u8; 4];
            found[..n.min(4)].copy_from_slice(&header[..n.min(4)]);
            return Err(BinaryTraceError::BadMagic { found });
        }
        if n > 4 && header[4] != FORMAT_VERSION {
            return Err(BinaryTraceError::UnsupportedVersion { found: header[4] });
        }
        if n > 5 && header[5..n].iter().any(|&b| b != 0) {
            let mut found = [0u8; 3];
            found[..n - 5].copy_from_slice(&header[5..n]);
            return Err(BinaryTraceError::ReservedNonZero { found });
        }
        let truncated = n < HEADER_LEN;
        Ok(TraceReader {
            src,
            payload: Vec::new(),
            pos: 0,
            frames: 0,
            events: 0,
            truncated,
            header_complete: !truncated,
            done: truncated,
        })
    }

    /// Whether the stream ended mid-header or mid-frame (a crash
    /// artifact). Meaningful once iteration has returned `None`. Events
    /// from frames before the cut were all yielded and stand.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Complete frames consumed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Events yielded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether every event of the current frame has been yielded, so the
    /// next pull reads (and may block on) the next frame header. True
    /// before the first frame too.
    pub fn frame_exhausted(&self) -> bool {
        self.pos >= self.payload.len()
    }

    /// Loads the next frame into `self.payload`. Returns `false` on clean
    /// EOF or truncation (sets flags), `true` when a frame is ready.
    fn load_frame(&mut self) -> Result<bool, BinaryTraceError> {
        let mut head = [0u8; FRAME_HEADER_LEN];
        let n = read_full_or_eof(&mut self.src, &mut head)?;
        if n == 0 {
            return Ok(false); // clean end of stream
        }
        if n < FRAME_HEADER_LEN {
            self.truncated = true;
            return Ok(false);
        }
        // Bounded memory beats tail tolerance: an oversized length is
        // rejected even if the stream also happens to be short.
        let (declared, expected) = frame_header(&head, self.frames + 1)?;
        self.payload.resize(declared, 0);
        let got = read_full_or_eof(&mut self.src, &mut self.payload)?;
        if got < declared {
            self.truncated = true;
            return Ok(false);
        }
        verify_payload(&self.payload, expected, self.frames + 1)?;
        self.frames += 1;
        self.pos = 0;
        Ok(true)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Action, BinaryTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.pos >= self.payload.len() {
            match self.load_frame() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        match read_action(&self.payload, &mut self.pos) {
            Ok(action) => {
                self.events += 1;
                Some(Ok(action))
            }
            Err((offset, message)) => {
                self.done = true;
                Some(Err(BinaryTraceError::Corrupt {
                    frame: self.frames,
                    offset,
                    message,
                }))
            }
        }
    }
}

/// Summary of a completed [`StreamRecorder`] capture.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordSummary {
    /// Encoder counters (events, bytes, frames).
    pub encode: EncodeSummary,
    /// Per-action-kind counts of the captured stream.
    pub stats: ActionStats,
    /// Distinct threads observed (including fork targets).
    pub thread_count: usize,
}

/// A [`Detector`] that streams every action into a binary [`TraceWriter`]
/// and reports no races.
///
/// The streaming counterpart of [`RecordingDetector`](crate::RecordingDetector):
/// it captures a live run directly to a sink in bounded memory, tracking
/// [`ActionStats`] and the thread count as it goes. The `Detector`
/// interface cannot surface I/O errors per action, so the first write
/// failure is stashed, subsequent actions are dropped, and the error is
/// returned by [`finish`](Self::finish).
#[derive(Debug)]
pub struct StreamRecorder<W: Write> {
    writer: TraceWriter<W>,
    stats: ActionStats,
    max_thread: Option<u32>,
    error: Option<io::Error>,
}

impl<W: Write> StreamRecorder<W> {
    /// Creates a recorder writing the binary header to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the header write.
    pub fn new(sink: W) -> io::Result<Self> {
        Ok(StreamRecorder {
            writer: TraceWriter::new(sink)?,
            stats: ActionStats::default(),
            max_thread: None,
            error: None,
        })
    }

    /// Per-action-kind counts of the stream so far.
    pub fn stats(&self) -> &ActionStats {
        &self.stats
    }

    /// Distinct threads observed so far (including fork targets).
    pub fn thread_count(&self) -> usize {
        self.max_thread.map_or(0, |max| max as usize + 1)
    }

    /// Flushes the final frame and returns the sink plus capture summary.
    ///
    /// # Errors
    ///
    /// A write error stashed during capture, or the final flush failing.
    pub fn finish(self) -> io::Result<(W, RecordSummary)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let thread_count = self.thread_count();
        let (sink, encode) = self.writer.finish()?;
        Ok((
            sink,
            RecordSummary {
                encode,
                stats: self.stats,
                thread_count,
            },
        ))
    }
}

impl<W: Write> Detector for StreamRecorder<W> {
    fn name(&self) -> String {
        "stream-recorder".to_string()
    }

    fn on_action(&mut self, action: &Action) {
        if self.error.is_some() {
            return;
        }
        self.stats.count(action);
        let mut see = |t: ThreadId| {
            self.max_thread = Some(self.max_thread.map_or(t.raw(), |m| m.max(t.raw())));
        };
        if let Some(t) = action.thread() {
            see(t);
        }
        if let Action::Fork { u, .. } | Action::Join { u, .. } = *action {
            see(u);
        }
        if let Err(e) = self.writer.write_action(action) {
            self.error = Some(e);
        }
    }

    fn races(&self) -> &[RaceReport] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    fn sample_trace() -> Trace {
        Trace::parse(
            "fork t0 t1\nsbegin\nwr t0 x3 s5\nacq t1 m0\nvrd t1 v2\nvwr t0 v2\nrd t1 x3 s6\nrel t1 m0\nsend\njoin t0 t1\n",
        )
        .unwrap()
    }

    #[test]
    fn header_layout() {
        let bytes = encode_trace(&Trace::new());
        assert_eq!(bytes.len(), HEADER_LEN, "empty trace is just the header");
        assert_eq!(&bytes[..4], b"PTRC");
        assert_eq!(bytes[4], FORMAT_VERSION);
        assert_eq!(&bytes[5..8], &[0, 0, 0]);
        assert!(is_binary_trace(&bytes));
        assert!(!is_binary_trace(b"fork t0 t1\n"));
    }

    #[test]
    fn varint_canonical_vectors() {
        // (value, canonical encoding) pairs from TRACE_FORMAT.md §3.
        let vectors: &[(u32, &[u8])] = &[
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (16_384, &[0x80, 0x80, 0x01]),
            (u32::MAX, &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        ];
        for &(value, encoding) in vectors {
            let mut buf = Vec::new();
            push_varint(&mut buf, value);
            assert_eq!(buf, encoding, "encode {value}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(value));
            assert_eq!(pos, encoding.len());
        }
    }

    #[test]
    fn varint_rejects_non_minimal_and_overflow() {
        // 0x80 0x00 is a two-byte zero: non-minimal.
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x00], &mut pos).is_err());
        // Five bytes with a final byte above 0x0f overflows u32.
        let mut pos = 0;
        assert!(read_varint(&[0xff, 0xff, 0xff, 0xff, 0x10], &mut pos).is_err());
        // Truncated mid-varint.
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err());
    }

    #[test]
    fn round_trips_and_is_canonical() {
        for trace in [
            Trace::new(),
            sample_trace(),
            GenConfig::small(11).generate(),
        ] {
            let bytes = encode_trace(&trace);
            let decoded = decode_trace(&bytes).unwrap();
            assert_eq!(decoded, trace);
            assert_eq!(encode_trace(&decoded), bytes, "byte-identity re-encode");
        }
    }

    #[test]
    fn frames_split_on_event_target() {
        // 10_000 identical events must span ⌈10_000/4096⌉ = 3 frames.
        let trace = Trace::from_actions(vec![Action::SampleBegin; 10_000]);
        let bytes = encode_trace(&trace);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        assert!(reader.frame_exhausted(), "no frame loaded yet");
        // The frame is exhausted exactly after its last event.
        let mut boundaries = Vec::new();
        while let Some(item) = reader.next() {
            item.unwrap();
            if reader.frame_exhausted() {
                boundaries.push(reader.events());
            }
        }
        assert_eq!(boundaries, vec![4096, 8192, 10_000]);
        assert_eq!(reader.frames(), 3);
        assert!(!reader.truncated());
    }

    #[test]
    fn reader_is_bounded_by_frames() {
        // The reader's buffer never exceeds one frame even for large
        // traces: indirectly checked by frames() > 1 above; here check the
        // payload capacity invariant directly.
        let trace = GenConfig::small(3).generate();
        let bytes = encode_trace(&trace);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        while let Some(item) = reader.next() {
            item.unwrap();
            assert!(reader.payload.len() <= MAX_FRAME_BYTES as usize);
        }
    }

    #[test]
    fn truncated_tail_is_clean_partial_stop() {
        let trace = sample_trace();
        let bytes = encode_trace(&trace);
        // A cut exactly at the header boundary is a complete (empty)
        // stream, not truncation.
        let reader = TraceReader::new(&bytes[..HEADER_LEN]).unwrap();
        assert!(!reader.truncated());
        assert_eq!(decode_trace(&bytes[..HEADER_LEN]).unwrap(), Trace::new());
        // Cut anywhere strictly inside the single frame: all-or-nothing at
        // frame granularity, so a mid-frame cut yields zero events here.
        for cut in HEADER_LEN + 1..bytes.len() - 1 {
            let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
            let events: Result<Vec<_>, _> = reader.by_ref().collect();
            let events = events.unwrap_or_else(|e| panic!("cut {cut}: hard error {e}"));
            assert!(events.is_empty(), "cut {cut} inside the only frame");
            assert!(reader.truncated(), "cut {cut} must report truncation");
            // The strict decoder refuses the same input.
            assert!(matches!(
                decode_trace(&bytes[..cut]),
                Err(BinaryTraceError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn truncated_header_is_clean_partial_stop() {
        let bytes = encode_trace(&sample_trace());
        for cut in 0..HEADER_LEN {
            let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
            assert!(reader.next().is_none());
            assert!(reader.truncated(), "cut {cut}");
            assert!(matches!(
                decode_trace(&bytes[..cut]),
                Err(BinaryTraceError::Truncated { frame: 0 })
            ));
        }
    }

    #[test]
    fn earlier_frames_survive_a_truncated_tail() {
        // Two frames (4096-event target); cut inside the second.
        let trace = Trace::from_actions(vec![Action::SampleBegin; FRAME_EVENT_TARGET + 100]);
        let bytes = encode_trace(&trace);
        let cut = bytes.len() - 7;
        let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
        let events: Result<Vec<_>, _> = reader.by_ref().collect();
        assert_eq!(
            events.unwrap().len(),
            FRAME_EVENT_TARGET,
            "the complete first frame's events stand"
        );
        assert!(reader.truncated());
    }

    #[test]
    fn bit_flips_are_hard_errors() {
        let bytes = encode_trace(&sample_trace());
        // Flip one bit in every byte position: every flip must surface as
        // a structured hard error (never a silent wrong decode — the
        // checksum covers the payload, the header checks cover the rest).
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x10;
            let outcome = decode_trace(&damaged);
            assert!(outcome.is_err(), "flip at byte {i} went undetected");
            match TraceReader::new(&damaged[..]) {
                Err(_) => {} // header flip
                Ok(reader) => {
                    // A length-field flip can make the frame read past EOF
                    // (truncation) or oversized; anything else must be a
                    // checksum mismatch, not a quietly different trace.
                    let hard = reader.filter_map(Result::err).next();
                    if hard.is_none() {
                        let mut r = TraceReader::new(&damaged[..]).unwrap();
                        r.by_ref().for_each(drop);
                        assert!(r.truncated(), "flip at byte {i} decoded cleanly");
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_reported_with_frame_index() {
        let bytes = encode_trace(&sample_trace());
        let mut damaged = bytes.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01; // payload byte of frame 1
        match decode_trace(&damaged) {
            Err(BinaryTraceError::ChecksumMismatch { frame: 1, .. }) => {}
            other => panic!("expected checksum mismatch on frame 1, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_version_reserved_are_hard_errors() {
        let good = encode_trace(&sample_trace());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'Q';
        assert!(matches!(
            decode_trace(&bad_magic),
            Err(BinaryTraceError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 2;
        assert!(matches!(
            decode_trace(&bad_version),
            Err(BinaryTraceError::UnsupportedVersion { found: 2 })
        ));

        let mut bad_reserved = good.clone();
        bad_reserved[6] = 0xff;
        assert!(matches!(
            decode_trace(&bad_reserved),
            Err(BinaryTraceError::ReservedNonZero { .. })
        ));

        // A text trace fails magic detection, not some deeper parse.
        assert!(matches!(
            decode_trace(b"fork t0 t1\n"),
            Err(BinaryTraceError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(FORMAT_VERSION);
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes),
            Err(BinaryTraceError::FrameTooLarge {
                frame: 1,
                declared
            }) if declared == MAX_FRAME_BYTES + 1
        ));
    }

    #[test]
    fn empty_frame_is_corrupt() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(FORMAT_VERSION);
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(b"").to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes),
            Err(BinaryTraceError::Corrupt { frame: 1, .. })
        ));
    }

    #[test]
    fn checksummed_garbage_payload_is_corrupt_not_mismatch() {
        // A frame whose checksum is *valid* but whose payload is not a
        // well-formed event stream: unknown opcode.
        let payload = [0xee_u8];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(FORMAT_VERSION);
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match decode_trace(&bytes) {
            Err(BinaryTraceError::Corrupt {
                frame: 1,
                offset: 0,
                message,
            }) => {
                assert!(message.contains("opcode"), "{message}");
            }
            other => panic!("expected corrupt frame, got {other:?}"),
        }
    }

    #[test]
    fn event_cut_by_frame_boundary_is_corrupt() {
        // A checksummed frame that ends mid-event (opcode with a missing
        // operand) is corruption, not truncation: the frame is complete.
        let payload = [OP_FORK, 0x00]; // fork t0 <missing u>
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(FORMAT_VERSION);
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_trace(&bytes),
            Err(BinaryTraceError::Corrupt { frame: 1, .. })
        ));
    }

    #[test]
    fn stream_recorder_matches_encode_trace() {
        let trace = GenConfig::small(5).generate();
        let mut rec = StreamRecorder::new(Vec::new()).unwrap();
        for action in &trace {
            rec.on_action(action);
        }
        assert_eq!(rec.thread_count(), trace.thread_count());
        let (bytes, summary) = rec.finish().unwrap();
        assert_eq!(bytes, encode_trace(&trace));
        assert_eq!(summary.encode.events as usize, trace.len());
        assert_eq!(summary.encode.bytes as usize, bytes.len());
        assert_eq!(summary.stats, trace.stats());
        assert_eq!(summary.thread_count, trace.thread_count());
    }

    #[test]
    fn stream_recorder_surfaces_write_errors_at_finish() {
        /// A sink that accepts the header then fails every write.
        #[derive(Debug)]
        struct FailAfterHeader {
            written: usize,
        }
        impl Write for FailAfterHeader {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.written >= HEADER_LEN {
                    return Err(io::Error::other("disk full"));
                }
                self.written += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut rec = StreamRecorder::new(FailAfterHeader { written: 0 }).unwrap();
        // Enough events to force a frame flush, which fails.
        for _ in 0..FRAME_EVENT_TARGET + 1 {
            rec.on_action(&Action::SampleBegin);
        }
        let err = rec.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn compression_beats_text_substantially() {
        // The acceptance bar for the whole PR: binary ≥ 3× smaller
        // bytes/event than text, here on a representative generated trace.
        let trace = GenConfig::small(42).generate();
        let text_bytes = trace.to_text().len();
        let binary_bytes = encode_trace(&trace).len();
        assert!(
            (binary_bytes as f64) * 3.0 <= text_bytes as f64,
            "binary {binary_bytes}B vs text {text_bytes}B on {} events",
            trace.len()
        );
    }

    #[test]
    fn split_frames_addresses_every_frame_verbatim() {
        let trace = Trace::from_actions(vec![Action::SampleBegin; 2 * FRAME_EVENT_TARGET + 100]);
        let bytes = encode_trace(&trace);
        let split = split_frames(&bytes).unwrap();
        assert_eq!(split.frames.len(), 3);
        assert!(!split.truncated);
        // Ranges tile the buffer exactly: header, then frames end-to-end.
        assert_eq!(split.frames[0].start, HEADER_LEN);
        for (i, f) in split.frames.iter().enumerate() {
            assert_eq!(f.offset, i as u64);
            if i > 0 {
                assert_eq!(f.start, split.frames[i - 1].end);
            }
        }
        assert_eq!(split.frames.last().unwrap().end, bytes.len());
        // Reassembling header + frames is byte-identity, and each frame
        // decodes standalone; concatenated they are the whole trace.
        let mut rebuilt = bytes[..HEADER_LEN].to_vec();
        let mut events = Vec::new();
        for f in &split.frames {
            rebuilt.extend_from_slice(&bytes[f.start..f.end]);
            events.extend(decode_frame_payload(&bytes[f.start..f.end], f.offset + 1).unwrap());
        }
        assert_eq!(rebuilt, bytes);
        assert_eq!(events, trace.actions());
    }

    #[test]
    fn split_frames_mirrors_reader_damage_semantics() {
        let bytes = encode_trace(&sample_trace());
        // Torn tail: every strict-interior cut is clean truncation — except
        // a cut exactly at the header boundary, a complete empty stream.
        for cut in 0..bytes.len() - 1 {
            let split = split_frames(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut {cut}: torn tail must not be a hard error: {e}"));
            assert_eq!(split.truncated, cut != HEADER_LEN, "cut {cut}");
            assert!(split.frames.is_empty(), "single-frame trace, cut {cut}");
        }
        // Payload damage is a hard checksum error.
        let mut damaged = bytes.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        assert!(matches!(
            split_frames(&damaged),
            Err(BinaryTraceError::ChecksumMismatch { frame: 1, .. })
        ));
        // Header damage is a hard header error.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Q';
        assert!(matches!(
            split_frames(&bad_magic),
            Err(BinaryTraceError::BadMagic { .. })
        ));
    }

    /// What a decoder made of a buffer: its events and whether the tail
    /// was torn, or its first error's text.
    type Decoded = Result<(Vec<Action>, bool), String>;

    fn via_reader(bytes: &[u8]) -> Decoded {
        let mut reader = TraceReader::new(bytes).map_err(|e| e.to_string())?;
        let events: Result<Vec<_>, _> = reader.by_ref().collect();
        Ok((events.map_err(|e| e.to_string())?, reader.truncated()))
    }

    fn via_frames(bytes: &[u8]) -> Decoded {
        let split = split_frames(bytes).map_err(|e| e.to_string())?;
        let mut events = Vec::new();
        for f in &split.frames {
            let frame = decode_frame_payload(&bytes[f.start..f.end], f.offset + 1);
            events.extend(frame.map_err(|e| e.to_string())?);
        }
        Ok((events, split.truncated))
    }

    #[test]
    fn every_flip_fails_alike_in_every_decoder() {
        // Three short frames, so every header and payload byte is flipped
        // in a few milliseconds.
        let trace = GenConfig::small(9).generate();
        let mut bytes = HEADER.to_vec();
        for chunk in trace.actions()[..120].chunks(40) {
            let frame = encode_trace(&Trace::from_actions(chunk.to_vec()));
            bytes.extend_from_slice(&frame[HEADER_LEN..]);
        }
        assert_eq!(split_frames(&bytes).unwrap().frames.len(), 3);
        assert_eq!(
            via_reader(&bytes),
            Ok((trace.actions()[..120].to_vec(), false))
        );
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x01;
            let streamed = via_reader(&damaged);
            assert!(
                streamed != via_reader(&bytes),
                "flip at byte {i} went undetected"
            );
            assert_eq!(streamed, via_frames(&damaged), "flip at byte {i}");
        }
    }

    #[test]
    fn decode_frame_payload_rejects_damage() {
        let bytes = encode_trace(&sample_trace());
        let split = split_frames(&bytes).unwrap();
        let frame = &bytes[split.frames[0].start..split.frames[0].end];

        // Short of the declared payload → truncated, with the caller's index.
        assert!(matches!(
            decode_frame_payload(&frame[..frame.len() - 1], 7),
            Err(BinaryTraceError::Truncated { frame: 7 })
        ));
        // Trailing garbage past the declared payload → corrupt.
        let mut long = frame.to_vec();
        long.push(0xaa);
        assert!(matches!(
            decode_frame_payload(&long, 1),
            Err(BinaryTraceError::Corrupt { frame: 1, .. })
        ));
        // Flipped payload byte → checksum mismatch.
        let mut flipped = frame.to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            decode_frame_payload(&flipped, 1),
            Err(BinaryTraceError::ChecksumMismatch { frame: 1, .. })
        ));
        // A zero-length frame is never valid payload bytes.
        assert!(matches!(
            decode_frame_payload(&[0u8; FRAME_OVERHEAD], 1),
            Err(BinaryTraceError::Corrupt { frame: 1, .. })
        ));
    }

    #[test]
    fn errors_render() {
        let e = BinaryTraceError::ChecksumMismatch {
            frame: 3,
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("frame 3"));
        let e = BinaryTraceError::Truncated { frame: 0 };
        assert!(e.to_string().contains("header"));
        let e = BinaryTraceError::BadMagic { found: *b"meow" };
        assert!(e.to_string().contains("PTRC"));
    }
}
