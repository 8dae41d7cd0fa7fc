//! The long-running `csst-serve` analysis service.
//!
//! [`Server`] listens on a TCP or Unix socket, accepts any number of
//! concurrent trace sessions (one thread per connection) and speaks
//! the [`proto`](crate::proto) framing. Each session configures its
//! analysis, index and window in the HELLO frame and runs the
//! [`registry::Session`] that [`registry::AnalysisEntry::open`] returns
//! for them: events are fed as their frames arrive, QUERY frames are
//! answered from the session, and FINISH returns its report. The batch
//! CLI runs the same session over a recorded trace, so a service
//! report is byte-identical to `csst_analyze` over the same events by
//! construction. This module names no analysis and no index type; an
//! index or window the analysis cannot take is refused at HELLO with
//! the registry's message.
//!
//! ## Fault containment
//!
//! A session is the failure domain. Every session thread runs under
//! `catch_unwind`, malformed input of any kind (bad frames, oversized
//! frames, undecodable events, unknown queries) is answered with a
//! structured ERROR frame (`<code>: <message>`, see
//! [`ServeError::code`]) and at worst ends *that* session, and socket
//! reads/writes carry timeouts so a stalled peer cannot pin a thread
//! forever. A panic inside an analysis ends its session with a
//! `panic:` ERROR; other sessions keep running.
//!
//! Shutdown is cooperative: a SHUTDOWN frame flips the server's stop
//! flag; the accept loop (polling, non-blocking) notices, stops
//! accepting, joins every session thread and removes its Unix socket
//! file. Exit is clean — no thread is left behind, which the service
//! smoke test checks by asserting on the process exit code.

use crate::error::{panic_message, ServeError};
use crate::fault::FaultPlan;
use crate::proto::{
    read_frame, write_frame, Hello, Report, WireFormat, MAX_FRAME, T_ANSWER, T_ERROR, T_EVENTS,
    T_FINISH, T_HELLO, T_OK, T_QUERY, T_REPORT, T_SHUTDOWN,
};
use csst_analyses::registry::{self, IndexKind, Session};
use csst_trace::{binary, rapid, text};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server-wide robustness configuration: deadlines, session limits and
/// the fault-injection plan.
#[derive(Debug, Clone)]
pub struct ServerCfg {
    /// Socket read timeout: how long a session may sit idle (no frame
    /// from the peer) before it is closed with a `deadline` ERROR.
    /// Zero disables the timeout.
    pub idle_timeout: Duration,
    /// Socket write timeout: how long a send may block on a slow peer
    /// before the session fails with an `io` error.
    pub send_timeout: Duration,
    /// Concurrent session cap; further connections are refused with an
    /// `unavailable` ERROR.
    pub max_sessions: usize,
    /// Deterministic fault-injection plan (empty in production); see
    /// [`FaultPlan`].
    pub faults: FaultPlan,
}

impl Default for ServerCfg {
    fn default() -> Self {
        ServerCfg {
            idle_timeout: Duration::from_secs(120),
            send_timeout: Duration::from_secs(10),
            max_sessions: 64,
            faults: FaultPlan::none(),
        }
    }
}

fn feed_events(
    session: &mut dyn Session,
    format: WireFormat,
    payload: &[u8],
) -> Result<(), ServeError> {
    match format {
        WireFormat::Binary => {
            for (thread, kind) in
                binary::decode_events(payload).map_err(|e| ServeError::Decode(e.to_string()))?
            {
                session.feed(thread, kind);
            }
        }
        WireFormat::Text | WireFormat::Rapid => {
            let input = std::str::from_utf8(payload)
                .map_err(|_| ServeError::Decode("text frame is not UTF-8".to_string()))?;
            let trace = match format {
                WireFormat::Text => text::parse(input),
                _ => rapid::parse(input),
            }
            .map_err(|e| ServeError::Decode(e.to_string()))?;
            for (id, ev) in trace.iter_order() {
                session.feed(id.thread, ev.kind);
            }
        }
    }
    Ok(())
}

/// Opens the registry session a HELLO asks for.
fn open_session(hello: &Hello) -> Result<Box<dyn Session>, String> {
    let index = IndexKind::parse(&hello.index)
        .ok_or_else(|| format!("unknown index `{}` (csst|st|vc|graph)", hello.index))?;
    registry::resolve(&hello.analysis)?.open(index, hello.window)
}

/// Classifies a frame-read failure: `Some(err)` is answered with a
/// structured ERROR frame before closing, `None` closes silently (the
/// peer is gone; nobody is listening for a reply).
fn classify_read_error(e: io::Error, idle_timeout: Duration) -> Option<ServeError> {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Some(ServeError::Deadline {
            what: "idle session",
            after: idle_timeout,
        }),
        io::ErrorKind::InvalidData => Some(ServeError::Protocol(e.to_string())),
        io::ErrorKind::UnexpectedEof => Some(ServeError::Protocol(e.to_string())),
        _ => None,
    }
}

/// How long a fatally-closed session keeps reading (and discarding)
/// the peer's in-flight data before dropping the socket. Closing a TCP
/// socket with unread data resets the connection, which would destroy
/// the structured ERROR frame still sitting in the peer's receive
/// buffer — this lingering window lets it arrive.
const LINGER_TIMEOUT: Duration = Duration::from_millis(250);

/// An accepted session transport: framed I/O plus the linger hook a
/// fatal close needs (a no-op for non-socket streams).
trait SessionStream: Read + Write {
    /// Switches the transport to the short [`LINGER_TIMEOUT`] read
    /// deadline for the pre-close drain.
    fn begin_linger(&mut self) {}
}

impl SessionStream for TcpStream {
    fn begin_linger(&mut self) {
        let _ = self.set_read_timeout(Some(LINGER_TIMEOUT));
    }
}

impl SessionStream for UnixStream {
    fn begin_linger(&mut self) {
        let _ = self.set_read_timeout(Some(LINGER_TIMEOUT));
    }
}

/// Lingering close: after a fatal ERROR reply, discard the peer's
/// already-sent data — bounded in bytes and, via
/// [`SessionStream::begin_linger`], in time — so the kernel delivers
/// the ERROR instead of resetting the connection.
fn drain_before_close<S: SessionStream>(stream: &mut S) {
    stream.begin_linger();
    let mut scratch = [0u8; 8192];
    let mut budget = MAX_FRAME;
    while budget > 0 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Runs one session over an accepted connection. Returns `true` if the
/// peer asked the whole server to shut down. All failures are contained
/// here: the only way out is a clean return.
fn handle_session<S: SessionStream>(stream: &mut S, cfg: &ServerCfg) -> bool {
    /// Writes a structured ERROR frame, best-effort (the peer may
    /// already be gone).
    fn send_error<S: Read + Write>(stream: &mut S, e: &ServeError) {
        let _ = write_frame(stream, T_ERROR, &e.to_frame());
    }
    /// [`send_error`] for a session-fatal failure: the ERROR frame
    /// followed by the lingering drain, so it survives the close.
    fn send_fatal<S: SessionStream>(stream: &mut S, e: &ServeError) {
        send_error(stream, e);
        drain_before_close(stream);
    }
    /// Reads the next frame, containing every failure mode.
    fn next_frame<S: SessionStream>(
        stream: &mut S,
        cfg: &ServerCfg,
    ) -> Result<Option<(u8, Vec<u8>)>, ()> {
        if cfg.faults.on_frame_read() {
            return Err(()); // injected connection reset: vanish
        }
        match read_frame(stream) {
            Ok(frame) => Ok(frame),
            Err(e) => {
                if let Some(serr) = classify_read_error(e, cfg.idle_timeout) {
                    send_fatal(stream, &serr);
                }
                Err(())
            }
        }
    }

    // First frame must be the HELLO.
    let hello = match next_frame(stream, cfg) {
        Ok(Some((T_HELLO, payload))) => match Hello::decode(&payload) {
            Ok(hello) => hello,
            Err(e) => {
                send_fatal(stream, &ServeError::Protocol(e));
                return false;
            }
        },
        Ok(Some((T_SHUTDOWN, _))) => {
            let _ = write_frame(stream, T_OK, b"");
            return true;
        }
        Ok(Some((tag, _))) => {
            send_fatal(
                stream,
                &ServeError::Protocol(format!(
                    "expected HELLO as the first frame, got tag {tag:#04x}"
                )),
            );
            return false;
        }
        Ok(None) | Err(()) => return false,
    };
    let mut session = match open_session(&hello) {
        Ok(session) => session,
        Err(e) => {
            send_fatal(stream, &ServeError::Protocol(e));
            return false;
        }
    };
    if write_frame(stream, T_OK, b"").is_err() {
        return false;
    }
    loop {
        match next_frame(stream, cfg) {
            Ok(Some((T_EVENTS, mut payload))) => {
                // Injected corruption flips a payload byte here; the
                // decoder must turn it into a structured error, never
                // a panic (the CSTB proptests pin totality).
                let _ = cfg.faults.on_events_frame(&mut payload);
                if let Err(e) = feed_events(session.as_mut(), hello.format, &payload) {
                    // Malformed events poison the session (the stream
                    // position is unknowable); report and stop.
                    send_fatal(stream, &e);
                    return false;
                }
            }
            Ok(Some((T_QUERY, payload))) => {
                let q = String::from_utf8_lossy(&payload);
                match session.query(&q) {
                    Ok(answer) => {
                        if write_frame(stream, T_ANSWER, answer.as_bytes()).is_err() {
                            return false;
                        }
                    }
                    Err(e) => send_error(stream, &ServeError::Query(e)),
                }
            }
            Ok(Some((T_FINISH, _))) => {
                let report = Report::from(session.finish());
                let _ = write_frame(stream, T_REPORT, &report.encode());
                return false;
            }
            Ok(Some((T_SHUTDOWN, _))) => {
                let _ = write_frame(stream, T_OK, b"");
                return true;
            }
            Ok(Some((tag, _))) => {
                send_fatal(
                    stream,
                    &ServeError::Protocol(format!("unexpected frame tag {tag:#04x}")),
                );
                return false;
            }
            Ok(None) | Err(()) => return false, // peer hung up without FINISH
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, std::path::PathBuf),
}

/// A ready-to-run session body, produced by the accept loop and moved
/// onto its own thread (it owns the accepted stream).
type SessionFn = Box<dyn FnOnce(&ServerCfg) -> bool + Send>;

/// The `csst-serve` service: a polling accept loop over a TCP or Unix
/// listener, one session thread per connection.
pub struct Server {
    listener: Listener,
    stop: Arc<AtomicBool>,
    cfg: ServerCfg,
}

/// Applies the configured socket timeouts to an accepted stream.
/// Accepted sockets may inherit the listener's non-blocking flag, so it
/// is cleared explicitly first.
macro_rules! configure_stream {
    ($s:expr, $cfg:expr) => {{
        let ok = $s.set_nonblocking(false).is_ok()
            && $s.set_read_timeout(non_zero(&$cfg.idle_timeout)).is_ok()
            && $s.set_write_timeout(non_zero(&$cfg.send_timeout)).is_ok();
        ok
    }};
}

fn non_zero(d: &Duration) -> Option<Duration> {
    (!d.is_zero()).then_some(*d)
}

impl Server {
    /// Binds with the default robustness configuration; see
    /// [`bind_with`](Self::bind_with).
    ///
    /// # Errors
    ///
    /// Address syntax and bind errors.
    pub fn bind(addr: &str) -> io::Result<Server> {
        Server::bind_with(addr, ServerCfg::default())
    }

    /// Binds to `tcp:HOST:PORT` (port 0 picks a free port) or
    /// `unix:/path` (an existing socket file is replaced), with
    /// explicit deadlines, session limits and fault plan.
    ///
    /// # Errors
    ///
    /// Address syntax and bind errors.
    pub fn bind_with(addr: &str, cfg: ServerCfg) -> io::Result<Server> {
        let listener = if let Some(tcp) = addr.strip_prefix("tcp:") {
            Listener::Tcp(TcpListener::bind(tcp)?)
        } else if let Some(path) = addr.strip_prefix("unix:") {
            let path = std::path::PathBuf::from(path);
            let _ = std::fs::remove_file(&path);
            Listener::Unix(UnixListener::bind(&path)?, path)
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address `{addr}` must start with tcp: or unix:"),
            ));
        };
        Ok(Server {
            listener,
            stop: Arc::new(AtomicBool::new(false)),
            cfg,
        })
    }

    /// The bound address in connectable `tcp:`/`unix:` form (useful
    /// with `tcp:…:0`, where the OS picked the port).
    pub fn local_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(addr) => format!("tcp:{addr}"),
                Err(_) => "tcp:<unknown>".to_string(),
            },
            Listener::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }

    /// A handle that flips the server's stop flag (same effect as a
    /// SHUTDOWN frame), for embedding the server in tests.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves until a SHUTDOWN frame (or the stop handle) stops the
    /// loop, then joins every session thread and cleans up.
    ///
    /// # Errors
    ///
    /// Listener configuration errors; everything that happens inside a
    /// session — I/O failures, protocol violations, analysis panics —
    /// only ends that session.
    pub fn run(self) -> io::Result<()> {
        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let cfg = Arc::new(self.cfg);
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            sessions.retain(|h| !h.is_finished());
            let at_capacity = sessions.len() >= cfg.max_sessions;
            let accepted: Option<SessionFn> = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((mut s, _)) => {
                        // TCP_NODELAY: see the proto transport contract.
                        if at_capacity
                            || !(configure_stream!(s, cfg) && s.set_nodelay(true).is_ok())
                        {
                            refuse(&mut s, at_capacity);
                            None
                        } else {
                            Some(Box::new(move |cfg| session_thread(&mut s, cfg)))
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                Listener::Unix(l, _) => match l.accept() {
                    Ok((mut s, _)) => {
                        if at_capacity || !configure_stream!(s, cfg) {
                            refuse(&mut s, at_capacity);
                            None
                        } else {
                            Some(Box::new(move |cfg| session_thread(&mut s, cfg)))
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match accepted {
                Some(session) => {
                    let stop = Arc::clone(&self.stop);
                    let cfg = Arc::clone(&cfg);
                    sessions.push(std::thread::spawn(move || {
                        if session(&cfg) {
                            stop.store(true, Ordering::Release);
                        }
                    }));
                }
                // A polling accept on purpose: a blocking one woken by a
                // self-connect starts sessions sooner but lets a session's
                // teardown overlap the next one, raising peak RSS.
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        for h in sessions {
            let _ = h.join();
        }
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Refuses a connection that cannot be served (session cap reached or
/// the socket could not be configured), best-effort. The lingering
/// drain eats the peer's pending HELLO so the refusal is delivered
/// instead of a connection reset.
fn refuse(stream: &mut impl SessionStream, at_capacity: bool) {
    let e = if at_capacity {
        ServeError::Unavailable("session limit reached; retry later".into())
    } else {
        ServeError::Unavailable("failed to configure the session socket".into())
    };
    let _ = write_frame(stream, T_ERROR, &e.to_frame());
    drain_before_close(stream);
}

/// The per-connection thread body: [`handle_session`] under a
/// `catch_unwind` boundary, so a panic inside the analysis (or any
/// other bug) ends one session with a best-effort `panic:` ERROR
/// frame, not the server.
fn session_thread<S: SessionStream>(stream: &mut S, cfg: &ServerCfg) -> bool {
    match catch_unwind(AssertUnwindSafe(|| handle_session(stream, cfg))) {
        Ok(shutdown) => shutdown,
        Err(payload) => {
            let e = ServeError::Panic(panic_message(payload.as_ref()));
            let _ = write_frame(stream, T_ERROR, &e.to_frame());
            drain_before_close(stream);
            false
        }
    }
}

/// Connects to a `tcp:`/`unix:` address (the client side of
/// [`Server::bind`] syntax). TCP streams get `TCP_NODELAY`, per the
/// [transport contract](crate::proto#transport-contract).
///
/// # Errors
///
/// Address syntax and connection errors, including a failure to set
/// `TCP_NODELAY`.
pub fn connect(addr: &str) -> io::Result<Box<dyn ReadWrite>> {
    if let Some(tcp) = addr.strip_prefix("tcp:") {
        let stream = TcpStream::connect(tcp)?;
        stream.set_nodelay(true)?;
        Ok(Box::new(stream))
    } else if let Some(path) = addr.strip_prefix("unix:") {
        Ok(Box::new(UnixStream::connect(path)?))
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("address `{addr}` must start with tcp: or unix:"),
        ))
    }
}

/// A bidirectional byte stream (object-safe `Read + Write`).
pub trait ReadWrite: Read + Write + Send {}
impl<T: Read + Write + Send> ReadWrite for T {}
