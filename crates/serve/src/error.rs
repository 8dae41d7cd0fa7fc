//! The `csst-serve` error taxonomy.
//!
//! Every failure the service can contain is a [`ServeError`] variant,
//! replacing the panics and `unwrap`s of the happy-path implementation.
//! The taxonomy draws the containment boundaries explicitly:
//!
//! * **session-fatal** errors ([`Protocol`](ServeError::Protocol),
//!   [`Decode`](ServeError::Decode), [`Deadline`](ServeError::Deadline),
//!   [`Io`](ServeError::Io)) end one session with a structured ERROR
//!   frame; every other session and the server itself keep running;
//! * **component-fatal** errors ([`Panic`](ServeError::Panic)) report a
//!   panic caught at the session boundary; a panic inside a session's
//!   analysis ends that session with a `panic:` ERROR;
//! * **recoverable** errors ([`Query`](ServeError::Query)) answer one
//!   frame with an ERROR reply and leave the session open.
//!
//! On the wire, an ERROR frame payload is `<code>: <message>` where
//! `<code>` is the stable machine-readable [`ServeError::code`] — the
//! fault-injection smoke suite greps for the codes, so they are part of
//! the protocol surface.

use std::fmt;
use std::io;
use std::time::Duration;

/// A contained `csst-serve` failure (see the [module docs](self) for
/// the containment boundaries).
#[derive(Debug)]
pub enum ServeError {
    /// A transport error on the session's socket.
    Io(io::Error),
    /// The peer violated the framing or session protocol (bad HELLO,
    /// unexpected tag, oversized/zero-length frame).
    Protocol(String),
    /// An EVENTS payload failed to decode (the stream position is
    /// unknowable afterwards, so the session ends).
    Decode(String),
    /// An online query was malformed or unsupported; the session
    /// stays open.
    Query(String),
    /// A session thread panicked; the message carries the captured
    /// panic payload.
    Panic(String),
    /// An operation missed its deadline (an idle session).
    Deadline {
        /// What timed out (`"idle session"`).
        what: &'static str,
        /// The deadline that was exceeded.
        after: Duration,
    },
    /// The server is shutting down or refusing new work.
    Unavailable(String),
}

impl ServeError {
    /// The stable machine-readable error code carried on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Io(_) => "io",
            ServeError::Protocol(_) => "protocol",
            ServeError::Decode(_) => "decode",
            ServeError::Query(_) => "query",
            ServeError::Panic(_) => "panic",
            ServeError::Deadline { .. } => "deadline",
            ServeError::Unavailable(_) => "unavailable",
        }
    }

    /// Serializes as an ERROR frame payload: `<code>: <message>`.
    pub fn to_frame(&self) -> Vec<u8> {
        format!("{}: {}", self.code(), self).into_bytes()
    }

    /// True when the error ends the whole session (as opposed to a
    /// query-level error answered in place).
    pub fn is_session_fatal(&self) -> bool {
        !matches!(self, ServeError::Query(_))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::Protocol(m)
            | ServeError::Decode(m)
            | ServeError::Query(m)
            | ServeError::Unavailable(m) => f.write_str(m),
            ServeError::Panic(m) => write!(f, "session panicked: {m}"),
            ServeError::Deadline { what, after } => {
                write!(f, "{what} missed its {}ms deadline", after.as_millis())
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Extracts a human-readable message from a caught panic payload
/// (`&str` and `String` payloads verbatim, anything else a
/// placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_frames_carry_them() {
        let e = ServeError::Panic("boom".into());
        assert_eq!(e.code(), "panic");
        assert_eq!(e.to_frame(), b"panic: session panicked: boom".to_vec());
        let e = ServeError::Deadline {
            what: "idle session",
            after: Duration::from_millis(10),
        };
        assert_eq!(
            e.to_frame(),
            b"deadline: idle session missed its 10ms deadline".to_vec()
        );
    }

    #[test]
    fn only_query_errors_keep_the_session_open() {
        assert!(!ServeError::Query("bad".into()).is_session_fatal());
        assert!(ServeError::Decode("bad".into()).is_session_fatal());
        assert!(ServeError::Protocol("bad".into()).is_session_fatal());
    }

    #[test]
    fn panic_messages_are_extracted() {
        let b: Box<dyn std::any::Any + Send> = Box::new("dry");
        assert_eq!(panic_message(b.as_ref()), "dry");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("wet"));
        assert_eq!(panic_message(b.as_ref()), "wet");
        let b: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(b.as_ref()), "opaque panic payload");
    }
}
