//! A line-based trace interchange format.
//!
//! One event per line, in observed trace order:
//!
//! ```text
//! # comments and blank lines are skipped
//! t0 w x0 1
//! t1 r x0 1
//! t0 acq l0
//! t0 rel l0
//! t0 fork t1
//! t1 join t0
//! t0 alloc o0
//! t0 free o0
//! t1 deref o0 w
//! t0 aload x1 acq 7
//! t0 astore x1 rel 8
//! t0 armw x1 acqrel 7 8
//! t0 fence sc
//! t0 inv op0 add 5
//! t0 res op0 1
//! ```
//!
//! The identifiers reuse the `Display` forms of the id types (`t`, `x`,
//! `l`, `o`, `op` prefixes). This mirrors the STD/RAPID-style formats
//! consumed by the tools the paper evaluates.

use crate::event::{EventKind, LockId, MemOrder, Method, ObjId, OpId, VarId};
use crate::trace::{Trace, MAX_THREADS};
use csst_core::ThreadId;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_id(tok: &str, prefix: &str, line: usize) -> Result<u32, ParseError> {
    tok.strip_prefix(prefix)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(line, format!("expected {prefix}<n>, got `{tok}`")))
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, ParseError> {
    tok.parse()
        .map_err(|_| err(line, format!("expected integer, got `{tok}`")))
}

/// Parses a trace from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed line.
pub fn parse(input: &str) -> Result<Trace, ParseError> {
    let mut trace = Trace::new(0);
    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() < 2 {
            return Err(err(lineno, "expected `<thread> <op> [args...]`"));
        }
        let t = parse_id(toks[0], "t", lineno)?;
        if t as usize >= MAX_THREADS {
            return Err(err(
                lineno,
                format!("thread id t{t} out of range (max t{})", MAX_THREADS - 1),
            ));
        }
        let t = ThreadId(t);
        let need = |n: usize| -> Result<(), ParseError> {
            if toks.len() != n {
                Err(err(
                    lineno,
                    format!("op `{}` takes {} argument(s)", toks[1], n - 2),
                ))
            } else {
                Ok(())
            }
        };
        let kind = match toks[1] {
            "r" => {
                need(4)?;
                EventKind::Read {
                    var: VarId(parse_id(toks[2], "x", lineno)?),
                    value: parse_u64(toks[3], lineno)?,
                }
            }
            "w" => {
                need(4)?;
                EventKind::Write {
                    var: VarId(parse_id(toks[2], "x", lineno)?),
                    value: parse_u64(toks[3], lineno)?,
                }
            }
            "acq" => {
                need(3)?;
                EventKind::Acquire {
                    lock: LockId(parse_id(toks[2], "l", lineno)?),
                }
            }
            "rel" => {
                need(3)?;
                EventKind::Release {
                    lock: LockId(parse_id(toks[2], "l", lineno)?),
                }
            }
            "fork" => {
                need(3)?;
                EventKind::Fork {
                    child: ThreadId(parse_id(toks[2], "t", lineno)?),
                }
            }
            "join" => {
                need(3)?;
                EventKind::Join {
                    child: ThreadId(parse_id(toks[2], "t", lineno)?),
                }
            }
            "alloc" => {
                need(3)?;
                EventKind::Alloc {
                    obj: ObjId(parse_id(toks[2], "o", lineno)?),
                }
            }
            "free" => {
                need(3)?;
                EventKind::Free {
                    obj: ObjId(parse_id(toks[2], "o", lineno)?),
                }
            }
            "deref" => {
                need(4)?;
                EventKind::Deref {
                    obj: ObjId(parse_id(toks[2], "o", lineno)?),
                    write: match toks[3] {
                        "w" => true,
                        "r" => false,
                        other => return Err(err(lineno, format!("expected r|w, got `{other}`"))),
                    },
                }
            }
            "aload" => {
                need(5)?;
                EventKind::AtomicLoad {
                    var: VarId(parse_id(toks[2], "x", lineno)?),
                    order: MemOrder::parse(toks[3])
                        .ok_or_else(|| err(lineno, format!("bad memory order `{}`", toks[3])))?,
                    value: parse_u64(toks[4], lineno)?,
                }
            }
            "astore" => {
                need(5)?;
                EventKind::AtomicStore {
                    var: VarId(parse_id(toks[2], "x", lineno)?),
                    order: MemOrder::parse(toks[3])
                        .ok_or_else(|| err(lineno, format!("bad memory order `{}`", toks[3])))?,
                    value: parse_u64(toks[4], lineno)?,
                }
            }
            "armw" => {
                need(6)?;
                EventKind::AtomicRmw {
                    var: VarId(parse_id(toks[2], "x", lineno)?),
                    order: MemOrder::parse(toks[3])
                        .ok_or_else(|| err(lineno, format!("bad memory order `{}`", toks[3])))?,
                    read: parse_u64(toks[4], lineno)?,
                    write: parse_u64(toks[5], lineno)?,
                }
            }
            "fence" => {
                need(3)?;
                EventKind::Fence {
                    order: MemOrder::parse(toks[2])
                        .ok_or_else(|| err(lineno, format!("bad memory order `{}`", toks[2])))?,
                }
            }
            "inv" => {
                need(5)?;
                EventKind::Invoke {
                    op: OpId(parse_id(toks[2], "op", lineno)?),
                    method: Method::parse(toks[3])
                        .ok_or_else(|| err(lineno, format!("bad method `{}`", toks[3])))?,
                    arg: parse_u64(toks[4], lineno)?,
                }
            }
            "res" => {
                need(4)?;
                EventKind::Response {
                    op: OpId(parse_id(toks[2], "op", lineno)?),
                    result: parse_u64(toks[3], lineno)?,
                }
            }
            other => return Err(err(lineno, format!("unknown op `{other}`"))),
        };
        trace.push(t, kind);
    }
    Ok(trace)
}

/// Serializes a trace into the textual form accepted by [`parse`].
pub fn write(trace: &Trace) -> String {
    let mut out = String::new();
    for (id, ev) in trace.iter_order() {
        let t = id.thread;
        match ev.kind {
            EventKind::Read { var, value } => writeln!(out, "t{} r {var} {value}", t.0),
            EventKind::Write { var, value } => writeln!(out, "t{} w {var} {value}", t.0),
            EventKind::Acquire { lock } => writeln!(out, "t{} acq {lock}", t.0),
            EventKind::Release { lock } => writeln!(out, "t{} rel {lock}", t.0),
            EventKind::Fork { child } => writeln!(out, "t{} fork t{}", t.0, child.0),
            EventKind::Join { child } => writeln!(out, "t{} join t{}", t.0, child.0),
            EventKind::Alloc { obj } => writeln!(out, "t{} alloc {obj}", t.0),
            EventKind::Free { obj } => writeln!(out, "t{} free {obj}", t.0),
            EventKind::Deref { obj, write } => {
                writeln!(
                    out,
                    "t{} deref {obj} {}",
                    t.0,
                    if write { "w" } else { "r" }
                )
            }
            EventKind::AtomicLoad { var, order, value } => {
                writeln!(out, "t{} aload {var} {order} {value}", t.0)
            }
            EventKind::AtomicStore { var, order, value } => {
                writeln!(out, "t{} astore {var} {order} {value}", t.0)
            }
            EventKind::AtomicRmw {
                var,
                order,
                read,
                write,
            } => writeln!(out, "t{} armw {var} {order} {read} {write}", t.0),
            EventKind::Fence { order } => writeln!(out, "t{} fence {order}", t.0),
            EventKind::Invoke { op, method, arg } => {
                writeln!(out, "t{} inv {op} {method} {arg}", t.0)
            }
            EventKind::Response { op, result } => writeln!(out, "t{} res {op} {result}", t.0),
        }
        .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    const SAMPLE: &str = "\
# a sample trace
t0 w x0 1
t1 r x0 1

t0 acq l0
t0 rel l0
t0 fork t1
t1 join t0
t0 alloc o0
t0 free o0
t1 deref o0 w
t0 aload x1 acq 7
t0 astore x1 rel 8
t0 armw x1 acqrel 7 8
t0 fence sc
t0 inv op0 add 5
t0 res op0 1
";

    #[test]
    fn rejects_thread_ids_beyond_max_threads() {
        // Honoring the id would size the thread table to 4·10⁹ chains.
        let e = parse("t4000000000 w x0 1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("out of range"), "{e}");
        let last = format!("t{} w x0 1", MAX_THREADS - 1);
        assert!(parse(&format!("t0 w x0 1\n{last}")).is_ok());
        let first_bad = format!("t0 w x0 1\nt{} w x0 1", MAX_THREADS);
        assert_eq!(parse(&first_bad).unwrap_err().line, 2);
    }

    #[test]
    fn parse_all_event_kinds() {
        let t = parse(SAMPLE).unwrap();
        assert_eq!(t.total_events(), 15);
        assert_eq!(t.num_threads(), 2);
    }

    #[test]
    fn roundtrip() {
        let t = parse(SAMPLE).unwrap();
        let text = write(&t);
        let t2 = parse(&text).unwrap();
        assert_eq!(t.order(), t2.order());
        for (id, ev) in t.iter_order() {
            assert_eq!(ev.kind, t2.kind(id).clone());
        }
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("m");
        b.on(0).acquire(l);
        b.on(0).write(x, 3);
        b.on(0).release(l);
        b.on(1).read(x, 3);
        let t = b.build();
        let t2 = parse(&write(&t)).unwrap();
        assert_eq!(t.total_events(), t2.total_events());
    }

    #[test]
    fn error_reporting() {
        let e = parse("t0 w x0").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("argument"));
        let e = parse("\n\nt0 zap x0 1").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown op"));
        let e = parse("q0 w x0 1").unwrap_err();
        assert!(e.message.contains("expected t<n>"));
        let e = parse("t0 aload x0 weird 1").unwrap_err();
        assert!(e.message.contains("memory order"));
        let e = parse("t0 deref o0 q").unwrap_err();
        assert!(e.message.contains("r|w"));
        let e = parse("t0").unwrap_err();
        assert!(e.message.contains("expected"));
        let e = parse("t0 w x0 abc").unwrap_err();
        assert!(e.message.contains("integer"));
        let e = parse("t0 inv op0 push 1").unwrap_err();
        assert!(e.message.contains("method"));
    }
}
