//! Append-only, checksummed checkpoint journal.
//!
//! A resilient fleet run records one journal line per *completed* trial
//! (successful or quarantined). Each line is framed as
//!
//! ```text
//! P1 <len> <fnv1a64-hex> <json>\n
//! ```
//!
//! where `len` is the byte length of the JSON payload and the checksum is
//! FNV-1a-64 of the payload, printed as 16 lowercase hex digits. Lines are
//! written with a single `write_all` followed by `sync_data`, so a crash
//! can only ever leave a *partial final line* — which the reader detects
//! (length or checksum mismatch on the last unterminated line) and drops.
//! Corruption anywhere **before** the final line is a structured
//! [`JournalError`], never a silent skip: a mid-file bad frame means the
//! file was damaged after the fact, and resuming from it would silently
//! drop work.
//!
//! The fleet engine's entry payload is [`JournalEntry`]; the framing layer
//! below it ([`JournalWriter`] / [`read_journal`]) is payload-agnostic and
//! reused by the `pacer serve` session journal and `reproduce --resume`.

use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use pacer_collections::{json, JsonValue};
use pacer_governor::{BudgetKind, GovernorSummary};

/// FNV-1a 64-bit hash of `bytes` — the journal's line checksum.
///
/// Re-exported from `pacer-collections`, where it is shared with the
/// binary trace format (TRACE_FORMAT.md) so both framed formats agree on
/// the checksum definition.
pub use pacer_collections::fnv1a64;

/// Frames one JSON payload as a journal line (including the newline).
///
/// # Panics
///
/// Debug-asserts that the payload itself contains no newline; embedded
/// newlines must be JSON-escaped by the caller.
pub fn frame(json: &str) -> String {
    debug_assert!(
        !json.contains('\n'),
        "journal payloads must be single-line JSON"
    );
    format!(
        "P1 {} {:016x} {json}\n",
        json.len(),
        fnv1a64(json.as_bytes())
    )
}

fn parse_frame(line: &str) -> Result<&str, String> {
    let rest = line
        .strip_prefix("P1 ")
        .ok_or_else(|| "missing 'P1' magic".to_string())?;
    let (len_text, rest) = rest
        .split_once(' ')
        .ok_or_else(|| "missing length field".to_string())?;
    let (sum_text, json) = rest
        .split_once(' ')
        .ok_or_else(|| "missing checksum field".to_string())?;
    let len: usize = len_text
        .parse()
        .map_err(|_| format!("bad length field {len_text:?}"))?;
    if json.len() != len {
        return Err(format!(
            "length mismatch: header says {len} bytes, payload has {}",
            json.len()
        ));
    }
    if sum_text.len() != 16 {
        return Err(format!("bad checksum field {sum_text:?}"));
    }
    let sum = u64::from_str_radix(sum_text, 16)
        .map_err(|_| format!("bad checksum field {sum_text:?}"))?;
    let actual = fnv1a64(json.as_bytes());
    if sum != actual {
        return Err(format!(
            "checksum mismatch: header {sum:016x}, payload {actual:016x}"
        ));
    }
    Ok(json)
}

/// What went wrong reading a journal.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(io::Error),
    /// A line before the final one failed framing, checksum, or JSON
    /// decoding. `line` is 1-based.
    Corrupt {
        /// 1-based line number of the bad frame.
        line: usize,
        /// What failed on that line.
        message: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
        }
    }
}

impl Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// An open journal being appended to.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: File::create(path)?,
        })
    }

    /// Opens `path` for appending, creating it if missing. The caller is
    /// responsible for having validated (and, if needed, truncated away)
    /// any partial final line first — [`read_journal`] +
    /// [`rewrite_valid_prefix`] do both.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn append(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: OpenOptions::new().create(true).append(true).open(path)?,
        })
    }

    /// Appends one framed payload line and syncs it to disk, so a later
    /// crash cannot lose it.
    ///
    /// # Errors
    ///
    /// Propagates write/sync errors.
    pub fn write_line(&mut self, json: &str) -> io::Result<()> {
        self.file.write_all(frame(json).as_bytes())?;
        self.file.sync_data()
    }
}

/// A successfully read journal: the decoded JSON payloads in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalContents {
    /// One JSON payload per valid line, oldest first.
    pub lines: Vec<String>,
    /// Whether a partial (crash-truncated) final line was dropped.
    pub dropped_partial_tail: bool,
}

/// Reads and validates the journal at `path`.
///
/// A malformed **final** line with no terminating newline is tolerated as
/// a crash artifact and dropped ([`JournalContents::dropped_partial_tail`]).
/// A malformed line anywhere else is a [`JournalError::Corrupt`].
///
/// # Errors
///
/// I/O failures and mid-file corruption.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let bytes = std::fs::read(path)?;
    let mut contents = JournalContents::default();
    let chunks: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let count = chunks.len();
    for (i, chunk) in chunks.iter().enumerate() {
        // `split` yields one final empty chunk when the file ends with a
        // newline; a non-empty final chunk is an unterminated line.
        let unterminated_tail = i == count - 1;
        if chunk.is_empty() && unterminated_tail {
            break;
        }
        let parsed = std::str::from_utf8(chunk)
            .map_err(|_| "line is not valid UTF-8".to_string())
            .and_then(|line| parse_frame(line).map(str::to_string));
        match parsed {
            Ok(json) => contents.lines.push(json),
            Err(_) if unterminated_tail => {
                contents.dropped_partial_tail = true;
                break;
            }
            Err(message) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(contents)
}

/// Atomically rewrites `path` to contain exactly `lines` (re-framed), via
/// the workspace's temp-file-and-rename helper. Used before resuming a
/// journal whose partial tail was dropped: appending after leftover
/// partial bytes would corrupt the next line.
///
/// # Errors
///
/// Propagates write errors.
pub fn rewrite_valid_prefix(path: &Path, lines: &[String]) -> io::Result<()> {
    let mut out = String::new();
    for line in lines {
        out.push_str(&frame(line));
    }
    pacer_collections::atomic_write(path, out)
}

/// Appends `,"key":"value"` (or `,"key":null`) with JSON string escaping.
fn field_opt_str(out: &mut String, key: &str, value: Option<&str>) {
    json::key(out, &mut false, key);
    match value {
        None => out.push_str("null"),
        Some(s) => json::string(out, s),
    }
}

/// One failed attempt recorded in a [`JournalEntry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryFailure {
    /// 0-based attempt number that failed.
    pub attempt: u32,
    /// The failure message (panic payload or VM error).
    pub reason: String,
    /// The injected-fault site name, when the failure was injected.
    pub site: Option<String>,
}

/// One completed fleet trial, as checkpointed in the journal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalEntry {
    /// The trial's instance index.
    pub index: u64,
    /// The scheduler seed the trial ran with (integrity check on resume).
    pub seed: u64,
    /// Distinct race keys as raw site-id pairs, sorted.
    pub races: Vec<(u32, u32)>,
    /// Total attempts made (1 = clean first try).
    pub attempts: u32,
    /// Every failed attempt, in attempt order.
    pub failures: Vec<EntryFailure>,
    /// Whether the trial exhausted its retries and was quarantined.
    pub quarantined: bool,
    /// The trial's metrics snapshot JSON (observed runs only).
    pub metrics_json: Option<String>,
    /// The trial's event trace JSONL (observed runs only).
    pub events_jsonl: Option<String>,
    /// End-of-run governor summary (governed runs only). The decision
    /// `notes` are *not* journaled — the trial's event trace already
    /// carries them as `rate_stepped`/`budget_breach` lines — so a decoded
    /// summary always has empty `notes`. Absent in journals written before
    /// governing existed, which decode as `None`.
    pub governor: Option<GovernorSummary>,
}

impl JournalEntry {
    /// Encodes this entry as single-line JSON, ready for
    /// [`JournalWriter::write_line`].
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"index\":{},\"seed\":{},\"races\":[",
            self.index, self.seed
        ));
        for (i, (a, b)) in self.races.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{a},{b}]"));
        }
        out.push_str(&format!("],\"attempts\":{},\"failures\":[", self.attempts));
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"attempt\":{},\"reason\":", f.attempt));
            json::string(&mut out, &f.reason);
            out.push_str(",\"site\":");
            match &f.site {
                None => out.push_str("null"),
                Some(s) => json::string(&mut out, s),
            }
            out.push('}');
        }
        out.push_str(&format!("],\"quarantined\":{}", self.quarantined));
        field_opt_str(&mut out, "metrics", self.metrics_json.as_deref());
        field_opt_str(&mut out, "events", self.events_jsonl.as_deref());
        match &self.governor {
            None => out.push_str(",\"governor\":null"),
            Some(g) => {
                out.push_str(&format!(
                    ",\"governor\":{{\"steps_down\":{},\"steps_up\":{},\"breaches\":{},\"cancelled\":",
                    g.steps_down, g.steps_up, g.breaches
                ));
                match g.cancelled {
                    None => out.push_str("null"),
                    Some(kind) => {
                        out.push('"');
                        out.push_str(kind.name());
                        out.push('"');
                    }
                }
                out.push_str(&format!(
                    ",\"final_rate_millionths\":{}}}",
                    g.final_rate_millionths
                ));
            }
        }
        out.push('}');
        out
    }

    /// Decodes an entry from one journal payload line.
    ///
    /// # Errors
    ///
    /// A descriptive message for malformed JSON or missing/mistyped
    /// fields.
    pub fn decode(json: &str) -> Result<JournalEntry, String> {
        let v = JsonValue::parse(json).map_err(|e| e.to_string())?;
        let index = req_u64(&v, "index")?;
        let seed = req_u64(&v, "seed")?;
        let mut races = Vec::new();
        for pair in req_array(&v, "races")? {
            let items = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("race keys must be [a,b] pairs")?;
            let a = items[0].as_u64().ok_or("race site must be an integer")?;
            let b = items[1].as_u64().ok_or("race site must be an integer")?;
            let a = u32::try_from(a).map_err(|_| "race site out of range")?;
            let b = u32::try_from(b).map_err(|_| "race site out of range")?;
            races.push((a, b));
        }
        let attempts = u32::try_from(req_u64(&v, "attempts")?)
            .map_err(|_| "attempts out of range".to_string())?;
        let mut failures = Vec::new();
        for f in req_array(&v, "failures")? {
            let attempt = u32::try_from(
                f.get("attempt")
                    .and_then(JsonValue::as_u64)
                    .ok_or("failure missing 'attempt'")?,
            )
            .map_err(|_| "failure attempt out of range")?;
            let reason = f
                .get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("failure missing 'reason'")?
                .to_string();
            let site = match f.get("site") {
                None | Some(JsonValue::Null) => None,
                Some(s) => Some(
                    s.as_str()
                        .ok_or("failure 'site' must be a string or null")?
                        .to_string(),
                ),
            };
            failures.push(EntryFailure {
                attempt,
                reason,
                site,
            });
        }
        let quarantined = v
            .get("quarantined")
            .and_then(JsonValue::as_bool)
            .ok_or("missing 'quarantined'")?;
        let governor = match v.get("governor") {
            None | Some(JsonValue::Null) => None,
            Some(g) => {
                let cancelled = match g.get("cancelled") {
                    None | Some(JsonValue::Null) => None,
                    Some(s) => Some(budget_kind_from_name(
                        s.as_str()
                            .ok_or("governor 'cancelled' must be a string or null")?,
                    )?),
                };
                let final_rate = u32::try_from(req_u64(g, "final_rate_millionths")?)
                    .map_err(|_| "governor rate out of range".to_string())?;
                Some(GovernorSummary {
                    steps_down: req_u64(g, "steps_down")?,
                    steps_up: req_u64(g, "steps_up")?,
                    breaches: req_u64(g, "breaches")?,
                    cancelled,
                    final_rate_millionths: final_rate,
                    notes: Vec::new(),
                })
            }
        };
        Ok(JournalEntry {
            index,
            seed,
            races,
            attempts,
            failures,
            quarantined,
            metrics_json: opt_str(&v, "metrics")?,
            events_jsonl: opt_str(&v, "events")?,
            governor,
        })
    }
}

fn budget_kind_from_name(name: &str) -> Result<BudgetKind, String> {
    match name {
        "mem" => Ok(BudgetKind::Mem),
        "deadline" => Ok(BudgetKind::Deadline),
        other => Err(format!("unknown budget kind {other:?}")),
    }
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or mistyped '{key}'"))
}

fn req_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a Vec<JsonValue>, String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or mistyped '{key}'"))
}

fn opt_str(v: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("'{key}' must be a string or null")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pacer-journal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    #[test]
    fn frames_round_trip() {
        let json = "{\"index\":3}";
        let framed = frame(json);
        assert!(framed.starts_with("P1 11 "));
        assert!(framed.ends_with("{\"index\":3}\n"));
        assert_eq!(parse_frame(framed.trim_end()).unwrap(), json);
    }

    #[test]
    fn write_then_read_preserves_lines() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write_line("{\"a\":1}").unwrap();
        w.write_line("{\"b\":2}").unwrap();
        drop(w);
        let mut w = JournalWriter::append(&path).unwrap();
        w.write_line("{\"c\":3}").unwrap();
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.lines, vec!["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
        assert!(!contents.dropped_partial_tail);
    }

    #[test]
    fn partial_final_line_is_dropped_not_fatal() {
        let path = temp_path("partial");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write_line("{\"a\":1}").unwrap();
        drop(w);
        // Simulate a crash mid-append: a fragment with no newline.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"P1 9 0000");
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.lines, vec!["{\"a\":1}"]);
        assert!(contents.dropped_partial_tail);
        // Rewriting the valid prefix makes it appendable again.
        rewrite_valid_prefix(&path, &contents.lines).unwrap();
        let mut w = JournalWriter::append(&path).unwrap();
        w.write_line("{\"b\":2}").unwrap();
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.lines, vec!["{\"a\":1}", "{\"b\":2}"]);
        assert!(!contents.dropped_partial_tail);
    }

    #[test]
    fn mid_file_corruption_is_a_structured_error() {
        let path = temp_path("midfile");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write_line("{\"a\":1}").unwrap();
        w.write_line("{\"b\":2}").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit inside the FIRST line.
        bytes[25] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match read_journal(&path) {
            Err(JournalError::Corrupt { line: 1, message }) => {
                assert!(message.contains("mismatch"), "{message}");
            }
            other => panic!("expected line-1 corruption, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_point_reads_or_fails_cleanly() {
        let path = temp_path("truncate");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write_line("{\"a\":1}").unwrap();
        w.write_line("{\"b\":2}").unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            // Truncation only ever produces a shorter valid prefix plus a
            // dropped tail — never a hard error.
            let contents = read_journal(&path).unwrap();
            assert!(contents.lines.len() <= 2);
        }
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_journal(&path).unwrap().lines.len(), 2);
    }

    #[test]
    fn entry_encode_decode_round_trips() {
        let entry = JournalEntry {
            index: 7,
            seed: 104_736,
            races: vec![(1, 9), (2, 4)],
            attempts: 3,
            failures: vec![
                EntryFailure {
                    attempt: 0,
                    reason: "injected: detector panic (trial-armed, action 0)".into(),
                    site: Some("detector_panic".into()),
                },
                EntryFailure {
                    attempt: 1,
                    reason: "weird \"quoted\"\nreason".into(),
                    site: None,
                },
            ],
            quarantined: false,
            metrics_json: Some("{\n  \"schema\": 1\n}\n".into()),
            events_jsonl: Some("{\"ev\":\"race\"}\n".into()),
            governor: Some(GovernorSummary {
                steps_down: 2,
                steps_up: 1,
                breaches: 1,
                cancelled: Some(BudgetKind::Mem),
                final_rate_millionths: 62_500,
                notes: Vec::new(),
            }),
        };
        let line = entry.encode();
        assert!(!line.contains('\n'), "entries must be single-line");
        assert_eq!(JournalEntry::decode(&line).unwrap(), entry);

        let minimal = JournalEntry {
            index: 0,
            seed: 1,
            ..JournalEntry::default()
        };
        assert_eq!(JournalEntry::decode(&minimal.encode()).unwrap(), minimal);
    }

    #[test]
    fn decode_rejects_malformed_entries() {
        for bad in [
            "",
            "{}",
            "{\"index\":0}",
            "{\"index\":0,\"seed\":1,\"races\":[[1]],\"attempts\":1,\"failures\":[],\"quarantined\":false}",
            "{\"index\":0,\"seed\":1,\"races\":[],\"attempts\":1,\"failures\":[{}],\"quarantined\":false}",
            "{\"index\":0,\"seed\":1,\"races\":[],\"attempts\":1,\"failures\":[],\"quarantined\":\"yes\"}",
            "{\"index\":0,\"seed\":1,\"races\":[],\"attempts\":1,\"failures\":[],\"quarantined\":false,\"governor\":{\"steps_down\":1}}",
            "{\"index\":0,\"seed\":1,\"races\":[],\"attempts\":1,\"failures\":[],\"quarantined\":false,\"governor\":{\"steps_down\":1,\"steps_up\":0,\"breaches\":0,\"cancelled\":\"disk\",\"final_rate_millionths\":1}}",
        ] {
            assert!(JournalEntry::decode(bad).is_err(), "{bad:?} must fail");
        }
    }
}
