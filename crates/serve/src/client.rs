//! Client side of the `csst-serve` protocol: one [`Client`] per
//! session.

use crate::proto::{
    read_frame, write_frame, Hello, Report, WireFormat, T_ANSWER, T_ERROR, T_EVENTS, T_FINISH,
    T_HELLO, T_OK, T_QUERY, T_REPORT, T_SHUTDOWN,
};
use crate::server::{connect, ReadWrite};
use csst_trace::{binary, rapid, text, Trace};
use std::io;
use std::time::Duration;

/// Events per EVENTS frame when streaming a recorded trace.
const EVENTS_PER_FRAME: usize = 512;

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Failures worth a reconnect attempt: the server may simply not be up
/// (yet), or the connection died mid-handshake.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotFound
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// A connected session.
pub struct Client {
    stream: Box<dyn ReadWrite>,
    format: WireFormat,
}

impl Client {
    /// Connects to `addr` (`tcp:HOST:PORT` or `unix:/path`) and opens
    /// a session with `hello`.
    ///
    /// # Errors
    ///
    /// Connection errors, or the server's ERROR reply (e.g. an unknown
    /// analysis) surfaced as `InvalidData`.
    pub fn open(addr: &str, hello: &Hello) -> io::Result<Client> {
        let mut stream = connect(addr)?;
        write_frame(&mut stream, T_HELLO, &hello.encode())?;
        match read_frame(&mut stream)? {
            Some((T_OK, _)) => Ok(Client {
                stream,
                format: hello.format,
            }),
            Some((T_ERROR, msg)) => Err(proto_err(String::from_utf8_lossy(&msg).into_owned())),
            Some((tag, _)) => Err(proto_err(format!("unexpected HELLO reply tag {tag:#04x}"))),
            None => Err(proto_err("server closed during handshake")),
        }
    }

    /// [`open`](Self::open) with reconnect: up to `attempts` tries,
    /// sleeping with exponential backoff plus deterministic jitter
    /// (50ms base, doubling, capped at ~2s) between them. Only
    /// transient failures are retried — connection refused/reset/
    /// aborted, a missing Unix socket, timeouts; a server that answers
    /// with an ERROR (e.g. an unknown analysis) fails immediately.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is exhausted, or the
    /// first non-retryable error.
    pub fn open_with_retry(addr: &str, hello: &Hello, attempts: u32) -> io::Result<Client> {
        let mut backoff = Duration::from_millis(50);
        // Deterministic jitter (seeded by the address) keeps retries
        // reproducible while still de-synchronizing client herds.
        let mut jitter: u64 = addr.bytes().fold(0x9E37_79B9_97F4_A7C5, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
        });
        let mut attempt = 0;
        loop {
            attempt += 1;
            match Client::open(addr, hello) {
                Ok(client) => return Ok(client),
                Err(e) if attempt < attempts && is_retryable(&e) => {
                    jitter ^= jitter << 13;
                    jitter ^= jitter >> 7;
                    jitter ^= jitter << 17;
                    let jitter_ms = jitter % (1 + backoff.as_millis() as u64 / 2);
                    std::thread::sleep(backoff + Duration::from_millis(jitter_ms));
                    backoff = (backoff * 2).min(Duration::from_secs(2));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Connects only to ask the server to shut down.
    ///
    /// # Errors
    ///
    /// Connection errors or a non-OK reply.
    pub fn shutdown_server(addr: &str) -> io::Result<()> {
        let mut stream = connect(addr)?;
        write_frame(&mut stream, T_SHUTDOWN, b"")?;
        match read_frame(&mut stream)? {
            Some((T_OK, _)) => Ok(()),
            other => Err(proto_err(format!("unexpected SHUTDOWN reply: {other:?}"))),
        }
    }

    /// A failed mid-stream write usually means the server already sent
    /// a structured ERROR and closed its end; when such a frame is
    /// still waiting in the socket buffer, report *it* instead of the
    /// bare `broken pipe`/`connection reset` the write produced.
    fn surface_server_error(&mut self, e: io::Error) -> io::Error {
        if let Ok(Some((T_ERROR, msg))) = read_frame(&mut self.stream) {
            return proto_err(String::from_utf8_lossy(&msg).into_owned());
        }
        e
    }

    /// Streams a recorded trace as chunked EVENTS frames in the
    /// session's wire format.
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's pending ERROR reply when the
    /// session was already rejected mid-stream.
    pub fn send_trace(&mut self, trace: &Trace) -> io::Result<()> {
        match self.format {
            WireFormat::Binary => {
                let mut buf = Vec::new();
                let mut n = 0;
                for (id, ev) in trace.iter_order() {
                    binary::encode_event(id.thread, &ev.kind, &mut buf);
                    n += 1;
                    if n == EVENTS_PER_FRAME {
                        if let Err(e) = write_frame(&mut self.stream, T_EVENTS, &buf) {
                            return Err(self.surface_server_error(e));
                        }
                        buf.clear();
                        n = 0;
                    }
                }
                if !buf.is_empty() {
                    if let Err(e) = write_frame(&mut self.stream, T_EVENTS, &buf) {
                        return Err(self.surface_server_error(e));
                    }
                }
            }
            WireFormat::Text | WireFormat::Rapid => {
                // Line formats are cheap to emit whole; one frame.
                let payload = match self.format {
                    WireFormat::Text => text::write(trace),
                    _ => rapid::write(trace),
                };
                if let Err(e) = write_frame(&mut self.stream, T_EVENTS, payload.as_bytes()) {
                    return Err(self.surface_server_error(e));
                }
            }
        }
        Ok(())
    }

    /// Sends one raw EVENTS payload (already in the wire format).
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's pending ERROR reply when the
    /// session was already rejected mid-stream.
    pub fn send_events_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        if let Err(e) = write_frame(&mut self.stream, T_EVENTS, payload) {
            return Err(self.surface_server_error(e));
        }
        Ok(())
    }

    /// Runs an online query; the server's ERROR reply becomes `Err`.
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's ERROR message as
    /// `InvalidData`: the query's own error, or the session-fatal one
    /// the server sent before closing the session.
    pub fn query(&mut self, q: &str) -> io::Result<String> {
        if let Err(e) = write_frame(&mut self.stream, T_QUERY, q.as_bytes()) {
            return Err(self.surface_server_error(e));
        }
        match read_frame(&mut self.stream)? {
            Some((T_ANSWER, payload)) => Ok(String::from_utf8_lossy(&payload).into_owned()),
            Some((T_ERROR, msg)) => Err(proto_err(String::from_utf8_lossy(&msg).into_owned())),
            Some((tag, _)) => Err(proto_err(format!("unexpected QUERY reply tag {tag:#04x}"))),
            None => Err(proto_err("server closed mid-session")),
        }
    }

    /// Ends the stream and fetches the final report.
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's ERROR reply, including one
    /// the server sent before it closed the session.
    pub fn finish(mut self) -> io::Result<Report> {
        if let Err(e) = write_frame(&mut self.stream, T_FINISH, b"") {
            return Err(self.surface_server_error(e));
        }
        match read_frame(&mut self.stream)? {
            Some((T_REPORT, payload)) => Report::decode(&payload).map_err(proto_err),
            Some((T_ERROR, msg)) => Err(proto_err(String::from_utf8_lossy(&msg).into_owned())),
            Some((tag, _)) => Err(proto_err(format!("unexpected FINISH reply tag {tag:#04x}"))),
            None => Err(proto_err("server closed before the report")),
        }
    }
}
