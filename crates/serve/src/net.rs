//! Line-oriented socket plumbing shared by the server, the router, the
//! client binary and the tests.
//!
//! The framing core is [`LineBuffer`]: a socket-free incremental line
//! assembler that bytes are pushed into as they arrive and complete
//! lines are popped out of. The poll loop feeds it from readiness
//! events, for client and upstream sockets alike; the blocking
//! [`LineReader`] wraps it with a read loop for clients and the tests.
//!
//! [`LineReader`] reuses [`LineBuffer`] instead of `BufReader::
//! read_line` so both ends of a connection enforce the same framing:
//! the [`MAX_LINE_BYTES`] cap and the UTF-8 check.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on one request/response line; longer input is an error.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Framing failure while assembling a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// More than [`MAX_LINE_BYTES`] arrived without a newline.
    TooLong,
    /// A completed line was not valid UTF-8.
    NotUtf8,
}

impl LineError {
    /// The human-readable detail used in error responses and
    /// [`io::Error`] conversions.
    pub fn message(self) -> &'static str {
        match self {
            LineError::TooLong => "line exceeds MAX_LINE_BYTES",
            LineError::NotUtf8 => "line is not valid UTF-8",
        }
    }
}

impl From<LineError> for io::Error {
    fn from(e: LineError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.message())
    }
}

/// An incremental line assembler: push raw bytes in as they arrive,
/// pop `\n`-terminated lines out (terminator stripped, along with an
/// optional `\r`). The scan cursor is remembered across calls so a
/// large line fragmented over many reads is scanned once, not
/// re-scanned per chunk.
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
    scanned: usize,
}

impl LineBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Buffered bytes not yet popped as lines.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pops the next complete line, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`LineError::TooLong`] once the unterminated tail exceeds
    /// [`MAX_LINE_BYTES`]; [`LineError::NotUtf8`] when a completed line
    /// is not UTF-8.
    pub fn next_line(&mut self) -> Result<Option<String>, LineError> {
        if let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + nl;
            let mut line: Vec<u8> = self.buf.drain(..=end).collect();
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            self.scanned = 0;
            let text = String::from_utf8(line).map_err(|_| LineError::NotUtf8)?;
            return Ok(Some(text));
        }
        self.scanned = self.buf.len();
        if self.buf.len() > MAX_LINE_BYTES {
            return Err(LineError::TooLong);
        }
        Ok(None)
    }
}

/// An incremental, blocking line reader over a [`TcpStream`].
#[derive(Debug)]
pub struct LineReader {
    stream: TcpStream,
    lines: LineBuffer,
}

impl LineReader {
    /// Wraps a stream.
    pub fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            lines: LineBuffer::new(),
        }
    }

    /// Reads the next `\n`-terminated line (terminator stripped, along
    /// with an optional `\r`). Returns `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including a read timeout set on the
    /// stream; bytes already received stay buffered), non-UTF-8 lines,
    /// and lines longer than [`MAX_LINE_BYTES`].
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(line) = self.lines.next_line()? {
                return Ok(Some(line));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.lines.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Writes `line` plus a newline in one `write_all`. Two writes would
/// let Nagle's algorithm hold the newline on a socket without
/// `TCP_NODELAY` until the peer's delayed ACK, ~40 ms per round trip.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    stream.write_all(&framed)
}

/// The value at quantile `p` (0..=1) of an ascending-sorted sample set,
/// by nearest-rank. Returns 0 for an empty set.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn reads_lines_across_fragmented_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // One line split across writes, then two lines in one write.
            s.write_all(b"hel").unwrap();
            s.flush().unwrap();
            s.write_all(b"lo\r\nsecond\nthird\n").unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut reader = LineReader::new(conn);
        assert_eq!(reader.read_line().unwrap().as_deref(), Some("hello"));
        assert_eq!(reader.read_line().unwrap().as_deref(), Some("second"));
        assert_eq!(reader.read_line().unwrap().as_deref(), Some("third"));
        assert_eq!(reader.read_line().unwrap(), None, "EOF");
        writer.join().unwrap();
    }

    #[test]
    fn write_line_round_trips_promptly_without_nodelay() {
        // Neither socket sets TCP_NODELAY, as in the crate-doc example.
        // A line sent as two writes would park its newline behind the
        // peer's delayed ACK on every round trip after the first.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut writer = conn.try_clone().unwrap();
            let mut reader = LineReader::new(conn);
            while let Some(line) = reader.read_line().unwrap() {
                write_line(&mut writer, &line).unwrap();
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = LineReader::new(stream.try_clone().unwrap());
        let mut rtts: Vec<std::time::Duration> = (0..7)
            .map(|_| {
                let started = std::time::Instant::now();
                write_line(&mut stream, "{\"method\":\"server.ping\"}").unwrap();
                assert!(reader.read_line().unwrap().is_some());
                started.elapsed()
            })
            .collect();
        rtts.sort();
        assert!(
            rtts[3] < std::time::Duration::from_millis(10),
            "median round trip {:?} ({rtts:?})",
            rtts[3]
        );
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn line_buffer_assembles_fragments_and_flags_errors() {
        let mut lb = LineBuffer::new();
        lb.push(b"ab");
        assert_eq!(lb.next_line().unwrap(), None);
        lb.push(b"c\nxy");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("abc"));
        assert_eq!(lb.next_line().unwrap(), None);
        assert_eq!(lb.len(), 2);
        // Invalid UTF-8 surfaces once the line completes.
        lb.push(&[0xff, 0xfe, b'\n']);
        assert_eq!(lb.next_line().unwrap_err(), LineError::NotUtf8);
    }

    #[test]
    fn line_buffer_rejects_oversized_lines() {
        let mut lb = LineBuffer::new();
        // Grow past the cap without ever sending a newline.
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..16 {
            lb.push(&chunk);
            assert_eq!(lb.next_line().unwrap(), None);
        }
        lb.push(b"xx");
        assert_eq!(lb.next_line().unwrap_err(), LineError::TooLong);
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.0), 1);
        assert_eq!(percentile(&xs, 0.5), 51);
        assert_eq!(percentile(&xs, 0.99), 99);
        assert_eq!(percentile(&xs, 1.0), 100);
    }
}
