//! `csst-analyze` — run any registered analysis on a trace file.
//!
//! ```text
//! csst-analyze <analysis> <trace-file> [--index csst|st|vc|graph]
//!              [--format text|rapid] [--window N]
//! csst-analyze --list
//! ```
//!
//! Analyses are resolved through
//! [`csst_analyses::registry`] — `--list` prints every registered
//! name — so adding an analysis to the registry makes it available
//! here with no CLI changes. Trace formats: the native format of
//! `csst_trace::text` (default) or the RAPID/STD format of
//! `csst_trace::rapid`.
//!
//! `--window N` bounds the predictive analyses' memory: the trace is
//! analyzed as consecutive `N`-event windows, each window is retired by
//! resetting its base order to a fresh index, and neither the buffered
//! events nor any chain of the index outgrow `N`, on every index.
//! Windowing is *sound per window* — every report is witnessed within
//! its own window — but reports spanning window boundaries are missed.
//!
//! `--index csst` puts each index on the CSST variant its traffic
//! favours, windowed or not (see [`IndexKind::Csst`]): hb, c11 and
//! linearizability run on the fully dynamic `Csst`; every other base
//! order and every per-candidate witness closure on `IncrementalCsst`.
//!
//! The analysis session is opened before the trace is read: an unknown
//! format, or an index or window the analysis cannot take (`hb
//! --window`, `linearizability` on an insert-only index), exits 2
//! without opening the file. On success the
//! whole file is decoded, the first line on stderr is `parsed N events
//! across M threads`, and the events are then fed to the session — the
//! same [`Session`](csst_analyses::registry::Session) a `csst-serve`
//! session runs.
//!
//! Example:
//!
//! ```text
//! $ cat trace.txt
//! t0 w x0 1
//! t1 w x0 2
//! $ csst-analyze race trace.txt
//! race between ⟨0, 0⟩ and ⟨1, 0⟩
//! 1 race(s) predicted from 1 candidate(s)
//! ```

use csst_analyses::registry::{self, IndexKind};
use csst_trace::{rapid, text, Trace};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = registry::entries().iter().map(|e| e.name).collect();
    eprintln!(
        "usage: csst-analyze <analysis> <trace-file> [--index csst|st|vc|graph] [--format text|rapid] [--window N]\n\
         \x20      csst-analyze --list\n\
         analyses: {}\n\
         --window N: bounded-memory mode — the trace is analyzed as consecutive\n\
         \x20   N-event windows (sound per window: reports never span a window\n\
         \x20   boundary and each is witnessed within its own window; reports\n\
         \x20   beyond the window are missed).\n\
         --index csst: hb, c11 and linearizability run the fully dynamic\n\
         \x20   CSST; other base orders and all witness closures run the\n\
         \x20   incremental CSST.",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn list() -> ExitCode {
    for entry in registry::entries() {
        println!("{:<16} {}", entry.name, entry.description);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--list") {
        return list();
    }
    if args.len() < 2 {
        return usage();
    }
    let analysis = args[0].as_str();
    let path = args[1].as_str();
    let mut index = IndexKind::Csst;
    let mut format = "text";
    let mut window: Option<usize> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--index" if i + 1 < args.len() => {
                let Some(kind) = IndexKind::parse(&args[i + 1]) else {
                    eprintln!("unknown index `{}`", args[i + 1]);
                    return ExitCode::from(2);
                };
                index = kind;
                i += 2;
            }
            "--format" if i + 1 < args.len() => {
                format = args[i + 1].as_str();
                i += 2;
            }
            "--window" if i + 1 < args.len() => {
                match args[i + 1].parse::<usize>() {
                    Ok(n) if n > 0 => window = Some(n),
                    _ => {
                        eprintln!(
                            "--window needs a positive event count, got `{}`",
                            args[i + 1]
                        );
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            _ => return usage(),
        }
    }
    let entry = match registry::resolve(analysis) {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let parse: fn(&str) -> Result<Trace, text::ParseError> = match format {
        "text" => text::parse,
        "rapid" => rapid::parse,
        other => {
            eprintln!("unknown format `{other}` (text|rapid)");
            return ExitCode::from(2);
        }
    };
    // Open the session before reading anything, so an index or window
    // the analysis cannot take is rejected without touching the file.
    let mut session = match entry.open(index, window) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match parse(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parse error in {path}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "parsed {} events across {} threads",
        trace.total_events(),
        trace.num_threads()
    );
    for (id, ev) in trace.iter_order() {
        session.feed(id.thread, ev.kind);
    }
    let out = session.finish();
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.summary);
    ExitCode::from(out.exit_code)
}
