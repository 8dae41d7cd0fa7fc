//! Length-prefixed binary trace format.
//!
//! The third interchange format next to [`text`](crate::text) and
//! [`rapid`](crate::rapid), designed for the `csst-serve` wire
//! protocol: every event is one self-delimiting *record*
//!
//! ```text
//! [body_len: u16 LE] [kind: u8] [thread: u32 LE] [fields…]
//! ```
//!
//! with fixed-width little-endian fields per [`EventKind`] variant, so
//! a receiver can split a byte stream into events without interpreting
//! the payload first. A whole-trace *file* form adds a header:
//!
//! ```text
//! [b"CSTB"] [version: u8 = 1] [num_threads: u32 LE] [records…]
//! ```
//!
//! Decoding is total: malformed input — truncated records, unknown
//! kind/order/method tags, length fields that disagree with the kind —
//! answers a [`BinError`] naming the byte offset, never a panic. The
//! round-trip property (`parse(write(t)) == t` over every generator
//! family) and the malformed-input behavior are pinned by the tests
//! below.

use crate::event::{EventKind, MemOrder, Method};
use crate::trace::Trace;
use csst_core::ThreadId;
use std::fmt;

/// Magic bytes of the whole-trace file form.
pub const MAGIC: [u8; 4] = *b"CSTB";
/// Current format version.
pub const VERSION: u8 = 1;
/// Largest legal record body (the `AtomicRmw` record: kind + thread +
/// var + order + two u64 values). Anything larger is corrupt.
pub const MAX_RECORD: usize = 1 + 4 + 4 + 1 + 8 + 8;
/// Largest plausible header thread count and exclusive bound on
/// record thread ids. The header field is a pre-sizing hint (records
/// carry their own thread ids and the trace grows on demand), so a
/// corrupt count must be rejected *before* it turns into a
/// multi-gigabyte allocation — found by the corruption property tests.
pub use crate::trace::MAX_THREADS;

/// A malformed-input diagnosis; `offset` is the byte position of the
/// record (or field) that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The input ends inside a header or record.
    Truncated {
        /// Byte offset where more input was required.
        offset: usize,
    },
    /// The file form does not start with [`MAGIC`].
    BadMagic,
    /// The file form carries an unsupported version.
    BadVersion(u8),
    /// Unknown [`EventKind`] tag.
    BadKind {
        /// Byte offset of the record.
        offset: usize,
        /// The offending tag byte.
        tag: u8,
    },
    /// A record's length field disagrees with what its kind needs.
    BadLength {
        /// Byte offset of the record.
        offset: usize,
        /// The length field's value.
        len: usize,
    },
    /// Unknown [`MemOrder`] byte.
    BadOrder {
        /// Byte offset of the record.
        offset: usize,
        /// The offending order byte.
        value: u8,
    },
    /// Unknown [`Method`] byte.
    BadMethod {
        /// Byte offset of the record.
        offset: usize,
        /// The offending method byte.
        value: u8,
    },
    /// A thread count or thread id exceeds [`MAX_THREADS`] (corrupt,
    /// and honoring it would allocate unboundedly).
    BadThreadCount {
        /// Byte offset of the header field or record.
        offset: usize,
        /// The implausible count or id.
        value: usize,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BinError::Truncated { offset } => {
                write!(f, "truncated input: record at byte {offset} is incomplete")
            }
            BinError::BadMagic => write!(f, "not a binary trace (bad magic)"),
            BinError::BadVersion(v) => write!(f, "unsupported binary trace version {v}"),
            BinError::BadKind { offset, tag } => {
                write!(f, "unknown event kind tag {tag:#04x} at byte {offset}")
            }
            BinError::BadLength { offset, len } => {
                write!(f, "record at byte {offset} has implausible length {len}")
            }
            BinError::BadOrder { offset, value } => {
                write!(
                    f,
                    "unknown memory-order byte {value} in record at byte {offset}"
                )
            }
            BinError::BadMethod { offset, value } => {
                write!(f, "unknown method byte {value} in record at byte {offset}")
            }
            BinError::BadThreadCount { offset, value } => {
                write!(
                    f,
                    "implausible thread count {value} at byte {offset} (max {MAX_THREADS})"
                )
            }
        }
    }
}

impl std::error::Error for BinError {}

const K_READ: u8 = 0;
const K_WRITE: u8 = 1;
const K_ACQUIRE: u8 = 2;
const K_RELEASE: u8 = 3;
const K_FORK: u8 = 4;
const K_JOIN: u8 = 5;
const K_ALLOC: u8 = 6;
const K_FREE: u8 = 7;
const K_DEREF: u8 = 8;
const K_ATOMIC_LOAD: u8 = 9;
const K_ATOMIC_STORE: u8 = 10;
const K_ATOMIC_RMW: u8 = 11;
const K_FENCE: u8 = 12;
const K_INVOKE: u8 = 13;
const K_RESPONSE: u8 = 14;

fn order_byte(o: MemOrder) -> u8 {
    match o {
        MemOrder::Relaxed => 0,
        MemOrder::Acquire => 1,
        MemOrder::Release => 2,
        MemOrder::AcqRel => 3,
        MemOrder::SeqCst => 4,
    }
}

fn order_from(b: u8, offset: usize) -> Result<MemOrder, BinError> {
    Ok(match b {
        0 => MemOrder::Relaxed,
        1 => MemOrder::Acquire,
        2 => MemOrder::Release,
        3 => MemOrder::AcqRel,
        4 => MemOrder::SeqCst,
        _ => return Err(BinError::BadOrder { offset, value: b }),
    })
}

fn method_byte(m: Method) -> u8 {
    match m {
        Method::Add => 0,
        Method::Remove => 1,
        Method::Contains => 2,
    }
}

fn method_from(b: u8, offset: usize) -> Result<Method, BinError> {
    Ok(match b {
        0 => Method::Add,
        1 => Method::Remove,
        2 => Method::Contains,
        _ => return Err(BinError::BadMethod { offset, value: b }),
    })
}

/// Appends one length-prefixed record for `(thread, kind)` to `out`.
pub fn encode_event(thread: ThreadId, kind: &EventKind, out: &mut Vec<u8>) {
    let len_at = out.len();
    out.extend_from_slice(&[0, 0]); // length back-patched below
    let body_at = out.len();
    let push_u32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let tag = match *kind {
        EventKind::Read { .. } => K_READ,
        EventKind::Write { .. } => K_WRITE,
        EventKind::Acquire { .. } => K_ACQUIRE,
        EventKind::Release { .. } => K_RELEASE,
        EventKind::Fork { .. } => K_FORK,
        EventKind::Join { .. } => K_JOIN,
        EventKind::Alloc { .. } => K_ALLOC,
        EventKind::Free { .. } => K_FREE,
        EventKind::Deref { .. } => K_DEREF,
        EventKind::AtomicLoad { .. } => K_ATOMIC_LOAD,
        EventKind::AtomicStore { .. } => K_ATOMIC_STORE,
        EventKind::AtomicRmw { .. } => K_ATOMIC_RMW,
        EventKind::Fence { .. } => K_FENCE,
        EventKind::Invoke { .. } => K_INVOKE,
        EventKind::Response { .. } => K_RESPONSE,
    };
    out.push(tag);
    push_u32(out, thread.0);
    match *kind {
        EventKind::Read { var, value } | EventKind::Write { var, value } => {
            push_u32(out, var.0);
            push_u64(out, value);
        }
        EventKind::Acquire { lock } | EventKind::Release { lock } => push_u32(out, lock.0),
        EventKind::Fork { child } | EventKind::Join { child } => push_u32(out, child.0),
        EventKind::Alloc { obj } | EventKind::Free { obj } => push_u32(out, obj.0),
        EventKind::Deref { obj, write } => {
            push_u32(out, obj.0);
            out.push(write as u8);
        }
        EventKind::AtomicLoad { var, order, value }
        | EventKind::AtomicStore { var, order, value } => {
            push_u32(out, var.0);
            out.push(order_byte(order));
            push_u64(out, value);
        }
        EventKind::AtomicRmw {
            var,
            order,
            read,
            write,
        } => {
            push_u32(out, var.0);
            out.push(order_byte(order));
            push_u64(out, read);
            push_u64(out, write);
        }
        EventKind::Fence { order } => out.push(order_byte(order)),
        EventKind::Invoke { op, method, arg } => {
            push_u32(out, op.0);
            out.push(method_byte(method));
            push_u64(out, arg);
        }
        EventKind::Response { op, result } => {
            push_u32(out, op.0);
            push_u64(out, result);
        }
    }
    let body_len = (out.len() - body_at) as u16;
    out[len_at..len_at + 2].copy_from_slice(&body_len.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    record_at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.at + n > self.buf.len() {
            return Err(BinError::Truncated {
                offset: self.record_at,
            });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// A decoded record plus the offset of the record after it.
pub type Decoded = ((ThreadId, EventKind), usize);

/// Decodes the record starting at `offset`. Returns `Ok(None)` when
/// `offset` is exactly the end of the buffer (a clean stream boundary),
/// otherwise the decoded event and the offset of the next record.
///
/// # Errors
///
/// Any malformation — the buffer ending inside the record, an unknown
/// kind/order/method tag, or a length field that disagrees with the
/// kind's field layout — is reported as a [`BinError`].
pub fn decode_event(buf: &[u8], offset: usize) -> Result<Option<Decoded>, BinError> {
    if offset == buf.len() {
        return Ok(None);
    }
    let mut c = Cursor {
        buf,
        at: offset,
        record_at: offset,
    };
    let body_len = u16::from_le_bytes(c.take(2)?.try_into().unwrap()) as usize;
    if !(5..=MAX_RECORD).contains(&body_len) {
        return Err(BinError::BadLength {
            offset,
            len: body_len,
        });
    }
    if c.at + body_len > buf.len() {
        return Err(BinError::Truncated { offset });
    }
    let body_end = c.at + body_len;
    let tag = c.u8()?;
    let thread = ThreadId(c.u32()?);
    if thread.index() >= MAX_THREADS {
        return Err(BinError::BadThreadCount {
            offset,
            value: thread.index(),
        });
    }
    let kind = match tag {
        K_READ | K_WRITE => {
            let var = c.u32()?.into();
            let value = c.u64()?;
            if tag == K_READ {
                EventKind::Read { var, value }
            } else {
                EventKind::Write { var, value }
            }
        }
        K_ACQUIRE => EventKind::Acquire {
            lock: c.u32()?.into(),
        },
        K_RELEASE => EventKind::Release {
            lock: c.u32()?.into(),
        },
        K_FORK => EventKind::Fork {
            child: ThreadId(c.u32()?),
        },
        K_JOIN => EventKind::Join {
            child: ThreadId(c.u32()?),
        },
        K_ALLOC => EventKind::Alloc {
            obj: c.u32()?.into(),
        },
        K_FREE => EventKind::Free {
            obj: c.u32()?.into(),
        },
        K_DEREF => EventKind::Deref {
            obj: c.u32()?.into(),
            write: c.u8()? != 0,
        },
        K_ATOMIC_LOAD | K_ATOMIC_STORE => {
            let var = c.u32()?.into();
            let order = order_from(c.u8()?, offset)?;
            let value = c.u64()?;
            if tag == K_ATOMIC_LOAD {
                EventKind::AtomicLoad { var, order, value }
            } else {
                EventKind::AtomicStore { var, order, value }
            }
        }
        K_ATOMIC_RMW => EventKind::AtomicRmw {
            var: c.u32()?.into(),
            order: order_from(c.u8()?, offset)?,
            read: c.u64()?,
            write: c.u64()?,
        },
        K_FENCE => EventKind::Fence {
            order: order_from(c.u8()?, offset)?,
        },
        K_INVOKE => EventKind::Invoke {
            op: c.u32()?.into(),
            method: method_from(c.u8()?, offset)?,
            arg: c.u64()?,
        },
        K_RESPONSE => EventKind::Response {
            op: c.u32()?.into(),
            result: c.u64()?,
        },
        _ => return Err(BinError::BadKind { offset, tag }),
    };
    if c.at != body_end {
        // The length field promised more (or fewer) bytes than the
        // kind's layout consumed: the record is internally
        // inconsistent, not merely short.
        return Err(BinError::BadLength {
            offset,
            len: body_len,
        });
    }
    Ok(Some(((thread, kind), c.at)))
}

/// Decodes a headerless record stream (the `csst-serve` wire framing:
/// each frame payload is a whole number of records).
///
/// # Errors
///
/// Propagates the first [`BinError`] of the stream; a buffer ending
/// mid-record is [`BinError::Truncated`].
pub fn decode_events(buf: &[u8]) -> Result<Vec<(ThreadId, EventKind)>, BinError> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((ev, next)) = decode_event(buf, at)? {
        out.push(ev);
        at = next;
    }
    Ok(out)
}

/// Encodes `trace` in the whole-trace file form (header + records in
/// observed total order).
pub fn write(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(11 + trace.total_events() * 16);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(trace.num_threads() as u32).to_le_bytes());
    for (id, ev) in trace.iter_order() {
        encode_event(id.thread, &ev.kind, &mut out);
    }
    out
}

/// Parses the whole-trace file form produced by [`write()`].
///
/// # Errors
///
/// [`BinError::BadMagic`]/[`BinError::BadVersion`] for foreign input,
/// otherwise the first record-level malformation.
pub fn parse(bytes: &[u8]) -> Result<Trace, BinError> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        return Err(BinError::BadMagic);
    }
    if bytes.len() < 9 {
        return Err(BinError::Truncated { offset: 4 });
    }
    if bytes[4] != VERSION {
        return Err(BinError::BadVersion(bytes[4]));
    }
    let threads = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    if threads > MAX_THREADS {
        return Err(BinError::BadThreadCount {
            offset: 5,
            value: threads,
        });
    }
    let mut trace = Trace::new(threads);
    let mut at = 9;
    while let Some(((thread, kind), next)) = decode_event(bytes, at)? {
        trace.push(thread, kind);
        at = next;
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn families() -> Vec<(&'static str, Trace)> {
        vec![
            (
                "racy",
                gen::racy_program(&gen::RacyProgramCfg {
                    threads: 4,
                    events_per_thread: 60,
                    ..Default::default()
                }),
            ),
            (
                "locks",
                gen::lock_program(&gen::LockProgramCfg {
                    threads: 3,
                    blocks_per_thread: 20,
                    ..Default::default()
                }),
            ),
            (
                "alloc",
                gen::alloc_program(&gen::AllocProgramCfg {
                    threads: 3,
                    objects: 30,
                    ..Default::default()
                }),
            ),
            (
                "tso",
                gen::tso_history(&gen::TsoCfg {
                    threads: 3,
                    events_per_thread: 40,
                    ..Default::default()
                }),
            ),
            (
                "c11",
                gen::c11_program(&gen::C11Cfg {
                    threads: 3,
                    events_per_thread: 40,
                    ..Default::default()
                }),
            ),
            (
                "objects",
                gen::object_history(&gen::ObjectHistoryCfg {
                    threads: 3,
                    ops_per_thread: 20,
                    ..Default::default()
                }),
            ),
        ]
    }

    #[test]
    fn roundtrip_every_generator_family() {
        for (name, trace) in families() {
            let bytes = write(&trace);
            let back = parse(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back.num_threads(), trace.num_threads(), "{name}");
            assert_eq!(back.total_events(), trace.total_events(), "{name}");
            for ((a_id, a), (b_id, b)) in trace.iter_order().zip(back.iter_order()) {
                assert_eq!(a_id, b_id, "{name}");
                assert_eq!(a.kind, b.kind, "{name}");
            }
        }
    }

    #[test]
    fn headerless_stream_roundtrip() {
        let trace = gen::racy_program(&gen::RacyProgramCfg {
            threads: 3,
            events_per_thread: 30,
            ..Default::default()
        });
        let mut buf = Vec::new();
        for (id, ev) in trace.iter_order() {
            encode_event(id.thread, &ev.kind, &mut buf);
        }
        let events = decode_events(&buf).unwrap();
        assert_eq!(events.len(), trace.total_events());
        for ((t, k), (id, ev)) in events.iter().zip(trace.iter_order()) {
            assert_eq!(*t, id.thread);
            assert_eq!(*k, ev.kind);
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let (_, trace) = families().swap_remove(0);
        let bytes = write(&trace);
        // Record boundaries: cutting exactly there yields a valid,
        // shorter trace (records are self-delimiting); cutting anywhere
        // else must produce an error, never a panic.
        let mut boundaries = vec![9];
        let mut at = 9;
        while at < bytes.len() {
            at += 2 + u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap()) as usize;
            boundaries.push(at);
        }
        for cut in 0..bytes.len() {
            let r = parse(&bytes[..cut]);
            if boundaries.contains(&cut) {
                let short = r.unwrap_or_else(|e| panic!("boundary cut {cut}: {e}"));
                assert!(short.total_events() < trace.total_events());
            } else {
                assert!(r.is_err(), "prefix of {cut} bytes must not parse");
            }
        }
        assert!(parse(&bytes).is_ok());
    }

    #[test]
    fn malformed_frames_are_errors() {
        assert!(matches!(parse(b""), Err(BinError::BadMagic)));
        assert!(matches!(parse(b"NOPE....."), Err(BinError::BadMagic)));
        assert!(matches!(
            parse(b"CSTB"),
            Err(BinError::Truncated { offset: 4 })
        ));
        assert!(matches!(
            parse(b"CSTB\x09\0\0\0\0"),
            Err(BinError::BadVersion(9))
        ));

        // A record with an unknown kind tag.
        let mut buf = Vec::new();
        encode_event(
            ThreadId(0),
            &EventKind::Fence {
                order: MemOrder::SeqCst,
            },
            &mut buf,
        );
        buf[2] = 0x7F; // kind byte of the first record
        assert!(matches!(
            decode_events(&buf),
            Err(BinError::BadKind {
                offset: 0,
                tag: 0x7F
            })
        ));

        // A corrupt memory-order byte.
        let mut buf = Vec::new();
        encode_event(
            ThreadId(0),
            &EventKind::Fence {
                order: MemOrder::SeqCst,
            },
            &mut buf,
        );
        *buf.last_mut().unwrap() = 99;
        assert!(matches!(
            decode_events(&buf),
            Err(BinError::BadOrder { value: 99, .. })
        ));

        // A corrupt method byte.
        let mut buf = Vec::new();
        encode_event(
            ThreadId(0),
            &EventKind::Invoke {
                op: 3.into(),
                method: Method::Add,
                arg: 7,
            },
            &mut buf,
        );
        buf[2 + 1 + 4 + 4] = 42; // method byte: after len, kind, thread, op
        assert!(matches!(
            decode_events(&buf),
            Err(BinError::BadMethod { value: 42, .. })
        ));

        // Length fields that disagree with the kind's layout.
        let mut buf = Vec::new();
        encode_event(
            ThreadId(0),
            &EventKind::Acquire { lock: 1.into() },
            &mut buf,
        );
        buf[0] = 26; // claims the max body on a 9-byte record
        assert!(matches!(
            decode_events(&buf),
            Err(BinError::Truncated { .. })
        ));
        let mut buf = Vec::new();
        encode_event(
            ThreadId(0),
            &EventKind::Write {
                var: 1.into(),
                value: 2,
            },
            &mut buf,
        );
        buf[0] = 9; // shorter than the Write layout consumes
        assert!(matches!(
            decode_events(&buf),
            Err(BinError::BadLength { len: 9, .. })
        ));
        // Implausible lengths (too small / too large) are rejected
        // before any field decoding.
        assert!(matches!(
            decode_event(&[0, 0, 0], 0),
            Err(BinError::BadLength { len: 0, .. })
        ));
        assert!(matches!(
            decode_event(&[0xFF, 0xFF, 0], 0),
            Err(BinError::BadLength { .. })
        ));
    }

    #[test]
    fn every_event_kind_roundtrips() {
        use EventKind as K;
        let kinds = [
            K::Read {
                var: 1.into(),
                value: 2,
            },
            K::Write {
                var: 3.into(),
                value: u64::MAX,
            },
            K::Acquire { lock: 4.into() },
            K::Release { lock: 5.into() },
            K::Fork { child: ThreadId(6) },
            K::Join { child: ThreadId(7) },
            K::Alloc { obj: 8.into() },
            K::Free { obj: 9.into() },
            K::Deref {
                obj: 10.into(),
                write: true,
            },
            K::Deref {
                obj: 11.into(),
                write: false,
            },
            K::AtomicLoad {
                var: 12.into(),
                order: MemOrder::Acquire,
                value: 1,
            },
            K::AtomicStore {
                var: 13.into(),
                order: MemOrder::Release,
                value: 2,
            },
            K::AtomicRmw {
                var: 14.into(),
                order: MemOrder::AcqRel,
                read: 3,
                write: 4,
            },
            K::Fence {
                order: MemOrder::SeqCst,
            },
            K::Invoke {
                op: 15.into(),
                method: Method::Contains,
                arg: 5,
            },
            K::Response {
                op: 16.into(),
                result: 1,
            },
        ];
        let mut buf = Vec::new();
        for (i, k) in kinds.iter().enumerate() {
            encode_event(ThreadId(i as u32), k, &mut buf);
        }
        let back = decode_events(&buf).unwrap();
        assert_eq!(back.len(), kinds.len());
        for (i, (t, k)) in back.iter().enumerate() {
            assert_eq!(t.0, i as u32);
            assert_eq!(k, &kinds[i]);
        }
    }
}
