//! The `csst-serve` session protocol: length-prefixed frames over a
//! byte stream (TCP or Unix socket).
//!
//! Every frame is `[len: u32 LE][tag: u8][payload]` where `len` counts
//! the tag byte plus the payload. Client-to-server tags:
//!
//! | tag | meaning |
//! |---|---|
//! | [`T_HELLO`] | open a session; payload = UTF-8 `key=value` pairs |
//! | [`T_EVENTS`] | a chunk of trace events in the session's format |
//! | [`T_QUERY`] | an online query against the merged prefix |
//! | [`T_FINISH`] | end of stream: run/emit the final report |
//! | [`T_SHUTDOWN`] | stop the whole server after this session |
//!
//! Server-to-client: [`T_OK`], [`T_REPORT`], [`T_ANSWER`] and
//! [`T_ERROR`]. [`T_EVENTS`] payloads carry whole events only — binary
//! records ([`csst_trace::binary`]) or complete text/rapid lines — so a
//! frame boundary is always an event boundary.
//!
//! An ERROR payload is UTF-8 `<code>: <message>`, where `<code>` is the
//! machine-readable failure class from
//! [`ServeError::code`](crate::ServeError::code) (`io`, `protocol`,
//! `decode`, `query`, `panic`, `backpressure`, `deadline`,
//! `unavailable`). Every code except `query` is session-fatal: the
//! server closes the session right after the frame (with a lingering
//! drain so the frame actually arrives).
//!
//! Reading is strict: a stream ending mid-frame, a zero-length frame
//! or a frame above [`MAX_FRAME`] is an error, never a panic; a clean
//! EOF *between* frames reads as `None`.
//!
//! # Transport contract
//!
//! [`write_frame`] hands the whole frame `[len][tag][payload]` to the
//! stream in one `write_all` call, and every TCP stream runs with
//! `TCP_NODELAY` on both ends: [`connect`](crate::server::connect) sets
//! it on the client side, and the server sets it on each accepted
//! socket as part of the stream configuration (a socket that refuses it
//! is refused like one that refuses its timeouts). Both halves matter.
//! With the header and the payload in separate writes, Nagle's
//! algorithm holds the payload until the peer ACKs the header, and the
//! peer, blocked reading the rest of the frame, delays that ACK by
//! about 40 ms. A QUERY paid that twice (request and ANSWER), about
//! 88 ms per round trip on loopback, and a FINISH once. Unix sockets
//! have no Nagle algorithm; there the single write just saves two
//! syscalls per frame.

use std::io::{self, Read, Write};

/// Client→server: open a session.
pub const T_HELLO: u8 = 0x01;
/// Client→server: a chunk of trace events.
pub const T_EVENTS: u8 = 0x02;
/// Client→server: an online query against the merged prefix.
pub const T_QUERY: u8 = 0x03;
/// Client→server: end of stream, produce the report.
pub const T_FINISH: u8 = 0x04;
/// Client→server: stop the server once this connection closes.
pub const T_SHUTDOWN: u8 = 0x05;
/// Server→client: acknowledgement without data.
pub const T_OK: u8 = 0x81;
/// Server→client: the final report.
pub const T_REPORT: u8 = 0x82;
/// Server→client: an online query answer.
pub const T_ANSWER: u8 = 0x83;
/// Server→client: a session error (payload = message).
pub const T_ERROR: u8 = 0x8F;

/// Largest accepted frame (tag + payload), 16 MiB: large enough for
/// any realistic event chunk, small enough to reject corrupt length
/// fields before allocating.
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one frame in a single `write_all` call (see the
/// [transport contract](self#transport-contract)).
///
/// # Errors
///
/// Propagates transport errors; refuses payloads above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = 1 + payload.len();
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    // One write for the whole frame; split writes stall on Nagle plus
    // delayed ACKs (see the transport contract above).
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame: `Ok(None)` on clean EOF at a frame boundary,
/// `Ok(Some((tag, payload)))` otherwise.
///
/// # Errors
///
/// `UnexpectedEof` when the stream ends mid-frame; `InvalidData` for
/// zero-length or oversized frames; otherwise the transport error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "closed between frames" (fine) from "closed inside
    // the length prefix" (truncation).
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length frame (a frame always carries a tag)",
        ));
    }
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let body_eof = |e: io::Error| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame body",
            )
        } else {
            e
        }
    };
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(body_eof)?;
    let mut payload = vec![0u8; len - 1];
    r.read_exact(&mut payload).map_err(body_eof)?;
    Ok(Some((tag[0], payload)))
}

/// Trace encoding of a session's [`T_EVENTS`] payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Length-prefixed binary records ([`csst_trace::binary`]).
    #[default]
    Binary,
    /// The line-based [`csst_trace::text`] format.
    Text,
    /// The RAPID/STD compatibility format ([`csst_trace::rapid`]).
    Rapid,
}

impl WireFormat {
    /// Parses a `format=` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "binary" => Some(WireFormat::Binary),
            "text" => Some(WireFormat::Text),
            "rapid" => Some(WireFormat::Rapid),
            _ => None,
        }
    }

    /// The `format=` name.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Binary => "binary",
            WireFormat::Text => "text",
            WireFormat::Rapid => "rapid",
        }
    }
}

/// A parsed HELLO payload: the session configuration.
#[derive(Debug, Clone)]
pub struct Hello {
    /// Analysis name (registry name: `hb`, `race`, …).
    pub analysis: String,
    /// Index representation name (`csst`, `st`, `vc`, `graph`).
    pub index: String,
    /// Event encoding of the session's EVENTS frames.
    pub format: WireFormat,
    /// Shard workers for the sharded engines.
    pub shards: usize,
    /// Tumbling-window size, if windowed.
    pub window: Option<usize>,
}

impl Default for Hello {
    fn default() -> Self {
        Hello {
            analysis: "hb".into(),
            index: "csst".into(),
            format: WireFormat::Binary,
            shards: 1,
            window: None,
        }
    }
}

impl Hello {
    /// Serializes as the `key=value` HELLO payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut s = format!(
            "analysis={} index={} format={} shards={}",
            self.analysis,
            self.index,
            self.format.name(),
            self.shards
        );
        if let Some(w) = self.window {
            s.push_str(&format!(" window={w}"));
        }
        s.into_bytes()
    }

    /// Parses a HELLO payload; unknown keys are rejected so client and
    /// server cannot silently disagree about a session option.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending pair.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "HELLO is not UTF-8".to_string())?;
        let mut hello = Hello::default();
        for pair in text.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed HELLO pair `{pair}`"))?;
            match key {
                "analysis" => hello.analysis = value.to_string(),
                "index" => hello.index = value.to_string(),
                "format" => {
                    hello.format = WireFormat::parse(value)
                        .ok_or_else(|| format!("unknown format `{value}`"))?;
                }
                "shards" => {
                    hello.shards = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&s| (1..=64).contains(&s))
                        .ok_or_else(|| format!("bad shards value `{value}` (want 1..=64)"))?;
                }
                "window" => {
                    hello.window = Some(
                        value
                            .parse::<usize>()
                            .ok()
                            .filter(|&w| w > 0)
                            .ok_or_else(|| format!("bad window value `{value}`"))?,
                    );
                }
                _ => return Err(format!("unknown HELLO key `{key}`")),
            }
        }
        Ok(hello)
    }
}

/// A final session report, as carried by a [`T_REPORT`] frame:
/// `exit_code\nsummary\nline…` (one detail line per row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Process exit code the batch CLI would have reported.
    pub exit_code: u8,
    /// One-line summary.
    pub summary: String,
    /// Per-finding detail lines.
    pub lines: Vec<String>,
}

impl Report {
    /// Serializes as a REPORT payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut s = format!("{}\n{}", self.exit_code, self.summary);
        for line in &self.lines {
            s.push('\n');
            s.push_str(line);
        }
        s.into_bytes()
    }

    /// Parses a REPORT payload.
    ///
    /// # Errors
    ///
    /// A message when the payload is not UTF-8 or lacks the exit-code
    /// header.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "REPORT is not UTF-8".to_string())?;
        let mut lines = text.lines();
        let exit_code = lines
            .next()
            .and_then(|l| l.parse::<u8>().ok())
            .ok_or_else(|| "REPORT lacks an exit-code header".to_string())?;
        let summary = lines
            .next()
            .ok_or_else(|| "REPORT lacks a summary line".to_string())?
            .to_string();
        Ok(Report {
            exit_code,
            summary,
            lines: lines.map(str::to_string).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, T_HELLO, b"analysis=hb").unwrap();
        write_frame(&mut buf, T_FINISH, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((T_HELLO, b"analysis=hb".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((T_FINISH, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn malformed_frames_are_errors() {
        // Truncated length prefix.
        let mut r: &[u8] = &[1, 0];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Truncated body.
        let mut buf = Vec::new();
        write_frame(&mut buf, T_EVENTS, b"abcdef").unwrap();
        let mut r = &buf[..buf.len() - 2];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Zero-length frame.
        let mut r: &[u8] = &[0, 0, 0, 0];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Oversized frame.
        let mut r: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A `Vec` sink that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        for payload in [Vec::new(), b"races".to_vec(), vec![0xA5; 16 << 10]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, T_EVENTS, &payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            let mut r = &w.bytes[..];
            assert_eq!(read_frame(&mut r).unwrap(), Some((T_EVENTS, payload)));
        }
        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, T_EVENTS, &vec![0; MAX_FRAME]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.writes, 0, "an oversized frame writes nothing");
    }

    #[test]
    fn hello_roundtrip_and_validation() {
        let hello = Hello {
            analysis: "race".into(),
            index: "graph".into(),
            format: WireFormat::Text,
            shards: 4,
            window: Some(256),
        };
        let back = Hello::decode(&hello.encode()).unwrap();
        assert_eq!(back.analysis, "race");
        assert_eq!(back.index, "graph");
        assert_eq!(back.format, WireFormat::Text);
        assert_eq!(back.shards, 4);
        assert_eq!(back.window, Some(256));
        assert!(Hello::decode(b"bogus").is_err());
        assert!(Hello::decode(b"frobnicate=1").is_err());
        assert!(Hello::decode(b"shards=0").is_err());
        assert!(Hello::decode(b"format=yaml").is_err());
        assert!(Hello::decode(b"").is_ok(), "all-defaults HELLO");
    }

    #[test]
    fn report_roundtrip() {
        let report = Report {
            exit_code: 1,
            summary: "2 hb-race(s); 5 synchronization edge(s)".into(),
            lines: vec![
                "hb-race between a and b".into(),
                "hb-race between c and d".into(),
            ],
        };
        assert_eq!(Report::decode(&report.encode()).unwrap(), report);
        assert!(Report::decode(b"").is_err());
        assert!(Report::decode(b"nope").is_err());
    }
}
