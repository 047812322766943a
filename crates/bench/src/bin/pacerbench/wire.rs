//! Client side of the durable TCP session grammar (SERVICE.md, "Wire
//! grammar"): `SESSION <name>` → `ACK 0`, then lock-step
//! `FRAME <offset> <len>` + bytes → `ACK <applied>`, `END <total>` →
//! `REPORT <len>` + body. Any `error:` line ends the session.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One server reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ACK <applied>`: frames durably applied so far.
    Ack(u64),
    /// `REPORT <len>` and its body.
    Report(String),
    /// An `error: …` line (without the newline).
    Error(String),
}

/// Report bodies above this are a protocol fault, not a report.
const MAX_REPORT_BYTES: usize = 64 << 20;

/// A reply slower than this fails the session instead of hanging the
/// benchmark on a wedged daemon.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads one reply.
///
/// # Errors
///
/// `UnexpectedEof` when the server closed the connection, `InvalidData`
/// for a reply outside the grammar, or the I/O error itself.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    let Some(text) = line.strip_suffix('\n') else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("reply cut off: {line:?}"),
        ));
    };
    if let Some(n) = text.strip_prefix("ACK ") {
        return n
            .parse()
            .map(Reply::Ack)
            .map_err(|_| invalid(format!("malformed ack: {text:?}")));
    }
    if let Some(n) = text.strip_prefix("REPORT ") {
        let len: usize = n
            .parse()
            .map_err(|_| invalid(format!("malformed report header: {text:?}")))?;
        if len > MAX_REPORT_BYTES {
            return Err(invalid(format!("report of {len} bytes exceeds the cap")));
        }
        let mut body = vec![0; len];
        reader.read_exact(&mut body)?;
        return String::from_utf8(body)
            .map(Reply::Report)
            .map_err(|_| invalid("report body is not UTF-8".into()));
    }
    if text.starts_with("error:") {
        return Ok(Reply::Error(text.to_string()));
    }
    Err(invalid(format!("unexpected reply: {text:?}")))
}

/// Client-side timestamps of one session, taken at the wire boundary.
#[derive(Clone, Debug)]
pub struct SessionTimes {
    /// Before `connect`.
    pub connect: Instant,
    /// After the handshake `ACK` arrived.
    pub handshake: Instant,
    /// `(FRAME written, ACK read)` per frame.
    pub frames: Vec<(Instant, Instant)>,
    /// After `END` was written.
    pub end_sent: Instant,
    /// After the last `REPORT` byte arrived.
    pub report: Instant,
}

/// How a session failed.
#[derive(Debug)]
pub enum SessionError {
    /// The server answered with an `error:` line.
    Rejected(String),
    /// The connection failed or the server broke the grammar.
    Io(io::Error),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Rejected(line) => f.write_str(line),
            SessionError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> Self {
        SessionError::Io(e)
    }
}

fn expect_ack(reader: &mut impl BufRead, want: u64) -> Result<(), SessionError> {
    match read_reply(reader)? {
        Reply::Ack(got) if got == want => Ok(()),
        Reply::Ack(got) => Err(SessionError::Io(invalid(format!(
            "expected ACK {want}, got ACK {got}"
        )))),
        Reply::Error(line) => Err(SessionError::Rejected(line)),
        Reply::Report(_) => Err(SessionError::Io(invalid(format!(
            "expected ACK {want}, got a report"
        )))),
    }
}

/// Streams `frames` (each a whole `.ptrace` frame, header included) as a
/// fresh session `name` and returns the report body with the timestamps.
///
/// # Errors
///
/// Any `error:` reply, I/O failure, or reply outside the grammar. The
/// benchmark never reconnects: a dropped connection is a failed session.
pub fn run_session(
    addr: &str,
    name: &str,
    frames: &[&[u8]],
) -> Result<(String, SessionTimes), SessionError> {
    let connect = Instant::now();
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    writer.write_all(format!("SESSION {name}\n").as_bytes())?;
    expect_ack(&mut reader, 0)?;
    let handshake = Instant::now();
    let mut stamps = Vec::with_capacity(frames.len());
    for (offset, frame) in frames.iter().enumerate() {
        let sent = Instant::now();
        let mut message = format!("FRAME {offset} {}\n", frame.len()).into_bytes();
        message.extend_from_slice(frame);
        writer.write_all(&message)?;
        expect_ack(&mut reader, offset as u64 + 1)?;
        stamps.push((sent, Instant::now()));
    }
    writer.write_all(format!("END {}\n", frames.len()).as_bytes())?;
    let end_sent = Instant::now();
    let body = match read_reply(&mut reader)? {
        Reply::Report(body) => body,
        Reply::Error(line) => return Err(SessionError::Rejected(line)),
        Reply::Ack(n) => {
            return Err(SessionError::Io(invalid(format!(
                "expected REPORT, got ACK {n}"
            ))))
        }
    };
    let times = SessionTimes {
        connect,
        handshake,
        frames: stamps,
        end_sent,
        report: Instant::now(),
    };
    Ok((body, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> io::Result<Reply> {
        read_reply(&mut &bytes[..])
    }

    #[test]
    fn acks_parse() {
        assert_eq!(parse(b"ACK 0\n").unwrap(), Reply::Ack(0));
        assert_eq!(parse(b"ACK 249\nACK 250\n").unwrap(), Reply::Ack(249));
        for bad in [&b"ACK\n"[..], b"ACK x\n", b"ACK -1\n", b"ACK 1 2\n"] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }

    #[test]
    fn reports_keep_their_body_verbatim() {
        let body = "replaying 3 actions\n\n0 dynamic race report(s), 0 distinct:\n";
        let wire = format!("REPORT {}\n{body}ACK 9\n", body.len());
        let mut reader = wire.as_bytes();
        assert_eq!(
            read_reply(&mut reader).unwrap(),
            Reply::Report(body.to_string())
        );
        assert_eq!(read_reply(&mut reader).unwrap(), Reply::Ack(9));
        assert_eq!(parse(b"REPORT 0\n").unwrap(), Reply::Report(String::new()));
    }

    #[test]
    fn short_or_oversized_reports_fail() {
        assert_eq!(
            parse(b"REPORT 10\nabc").unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            parse(b"REPORT 99999999999\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            parse(b"REPORT \xff\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn error_lines_end_the_session() {
        assert_eq!(
            parse(b"error: duplicate session name\n").unwrap(),
            Reply::Error("error: duplicate session name".into())
        );
    }

    #[test]
    fn closed_or_cut_connections_are_eof() {
        assert_eq!(parse(b"").unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(
            parse(b"AC").unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            parse(b"HELLO\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
