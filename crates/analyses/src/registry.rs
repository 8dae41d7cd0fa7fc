//! Name-based analysis registry.
//!
//! One table maps analysis names (`race`, `hb`, `deadlock`, …) to
//! entries, so front ends — the `csst-analyze` CLI, the `csst-serve`
//! sessions, the bench harness — select analyses and index
//! representations by string instead of hard-coding one match arm per
//! analysis. Adding an analysis means adding one [`AnalysisEntry`]
//! here.
//!
//! Every front end runs an analysis the same way: [`AnalysisEntry::open`]
//! picks the index types and returns a [`Session`], which is fed the
//! stream event by event, answers online queries and formats the
//! report at [`Session::finish`]. A batch run ([`AnalysisEntry::run`])
//! is a session fed a recorded trace, so a service report equals the
//! CLI's because both are the same code.
//!
//! Sessions take an optional **window** (the `--window N` of the CLI):
//! predictive analyses then bound their event buffer to `N`-event
//! tumbling windows, retiring each window's base-order edges through
//! `delete_edge` — which is why windowed runs are restricted to the
//! fully dynamic representations (`csst`, `graph`). See the
//! [`crate::Analysis`] soundness contract.

use crate::{c11, deadlock, hb, linearizability, membug, race, tso, uaf, Analysis};
use csst_core::{
    Csst, GraphIndex, IncrementalCsst, NodeId, PartialOrderIndex, SegTreeIndex, ThreadId,
    VectorClockIndex,
};
use csst_trace::{gen, EventKind, Trace};

/// Index representation selected by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// CSSTs (`csst`), each index on the variant its traffic favours.
    /// The fully dynamic [`Csst`] (cheap inserts, a fixpoint per
    /// query) holds hb's append-heavy order and every base order that
    /// deletes: windowed runs and linearizability. The
    /// [`IncrementalCsst`] (stored closure, one suffix minimum per
    /// query) holds the other unwindowed base orders and every
    /// per-candidate witness closure, which is insert-only.
    Csst,
    /// Dense segment trees (`st`).
    SegTree,
    /// Vector clocks (`vc`).
    VectorClock,
    /// Plain graphs (`graph`).
    Graph,
}

impl IndexKind {
    /// Every selectable representation.
    pub const ALL: [IndexKind; 4] = [
        IndexKind::Csst,
        IndexKind::SegTree,
        IndexKind::VectorClock,
        IndexKind::Graph,
    ];

    /// Parses a CLI name (`csst`, `st`, `vc`, `graph`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "csst" => Some(IndexKind::Csst),
            "st" => Some(IndexKind::SegTree),
            "vc" => Some(IndexKind::VectorClock),
            "graph" => Some(IndexKind::Graph),
            _ => None,
        }
    }

    /// The CLI name of the representation.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Csst => "csst",
            IndexKind::SegTree => "st",
            IndexKind::VectorClock => "vc",
            IndexKind::Graph => "graph",
        }
    }
}

/// Console-ready result of a registry run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Per-finding detail lines (already capped where the analysis
    /// caps its own output).
    pub lines: Vec<String>,
    /// One-line summary.
    pub summary: String,
    /// Process exit code the CLI should report (0 = nothing found).
    pub exit_code: u8,
}

/// One open analysis run: events in, online queries and the formatted
/// report out. Every analysis answers the `events` query (events fed
/// so far); `hb` also answers `races` and `ordered t1 p1 t2 p2`, and
/// `race` answers `races` (races of completed windows).
pub trait Session: Send {
    /// Appends one event to `thread`'s chain.
    fn feed(&mut self, thread: ThreadId, kind: EventKind);

    /// Answers an online query over the events fed so far.
    ///
    /// # Errors
    ///
    /// A message naming the supported queries when `q` is not one.
    fn query(&mut self, q: &str) -> Result<String, String>;

    /// Ends the stream and formats the report.
    fn finish(self: Box<Self>) -> RunOutput;
}

/// How an entry opens its sessions: index and window in, a session or
/// the reason the analysis cannot take them out.
type Opener = fn(IndexKind, Option<usize>) -> Result<Box<dyn Session>, String>;

/// A runnable analysis, selectable by name.
pub struct AnalysisEntry {
    /// CLI name of the analysis.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    open: Opener,
    demo: fn() -> Trace,
}

impl AnalysisEntry {
    /// Opens a session of the analysis with the given representation
    /// and optional window size.
    ///
    /// # Errors
    ///
    /// A human-readable message when the representation does not fit
    /// the analysis (e.g. linearizability and windowed runs need edge
    /// deletion) or when the analysis does not support windowing.
    pub fn open(
        &self,
        index: IndexKind,
        window: Option<usize>,
    ) -> Result<Box<dyn Session>, String> {
        (self.open)(index, window)
    }

    /// Runs the analysis on a recorded trace: a session fed `trace` in
    /// its observed order.
    ///
    /// # Errors
    ///
    /// The [`open`](Self::open) error.
    pub fn run(
        &self,
        trace: &Trace,
        index: IndexKind,
        window: Option<usize>,
    ) -> Result<RunOutput, String> {
        let mut session = self.open(index, window)?;
        for (id, ev) in trace.iter_order() {
            session.feed(id.thread, ev.kind);
        }
        Ok(session.finish())
    }

    /// A small deterministic workload of this analysis's family, for
    /// smoke tests and benchmarks.
    pub fn demo_trace(&self) -> Trace {
        (self.demo)()
    }
}

/// All registered analyses.
pub fn entries() -> &'static [AnalysisEntry] {
    &ENTRIES
}

/// Looks up an analysis by CLI name.
pub fn find(name: &str) -> Option<&'static AnalysisEntry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// Looks up an analysis by CLI name, producing an actionable error —
/// listing every valid name — when the registry does not know it.
///
/// # Errors
///
/// A message of the form ``unknown analysis `foo`; valid analyses:
/// race, hb, …`` for unknown names.
pub fn resolve(name: &str) -> Result<&'static AnalysisEntry, String> {
    find(name).ok_or_else(|| {
        let names: Vec<&str> = entries().iter().map(|e| e.name).collect();
        format!(
            "unknown analysis `{name}`; valid analyses: {}",
            names.join(", ")
        )
    })
}

/// What the registry adds to an [`Analysis`] to serve it as a
/// [`Session`]: its report format and its own online queries.
trait Served: Analysis + Send {
    /// The queries [`answer`](Self::answer) takes, for the
    /// unknown-query message.
    const QUERIES: &'static str = "";

    /// Answers an analysis-specific query, `None` when unsupported.
    fn answer(&self, _q: &str) -> Option<String> {
        None
    }

    /// Formats the report.
    fn output(report: Self::Report) -> RunOutput;
}

/// The one [`Session`] implementation: an analysis plus an event count.
struct Streamed<A> {
    analysis: A,
    events: u64,
}

impl<A: Served> Session for Streamed<A> {
    fn feed(&mut self, thread: ThreadId, kind: EventKind) {
        self.events += 1;
        self.analysis.feed(thread, kind);
    }

    fn query(&mut self, q: &str) -> Result<String, String> {
        let q = q.trim();
        if q == "events" {
            return Ok(self.events.to_string());
        }
        self.analysis.answer(q).ok_or_else(|| {
            format!(
                "unknown query `{q}`; this session answers `events`{}",
                A::QUERIES
            )
        })
    }

    fn finish(self: Box<Self>) -> RunOutput {
        A::output(self.analysis.finish())
    }
}

fn open<A: Served + 'static>(cfg: A::Cfg) -> Box<dyn Session> {
    Box::new(Streamed {
        analysis: A::new(cfg),
        events: 0,
    })
}

/// Opens a session of analysis `A<…>` with configuration `Cfg { window,
/// ..Default::default() }` (or an explicit `cfg: expr`), choosing the
/// index types from `index` and `window`: the one place that maps a
/// representation name to types. Windowed runs take only the fully
/// dynamic representations (`csst` → [`Csst`], `graph`), because
/// retirement deletes edges. Unwindowed `csst` is [`IncrementalCsst`]
/// for `A<P>` and `A<P, W>`, and [`Csst`] for `A<Csst>` (hb's
/// append-heavy order, linearizability's deletes). In `A<P, W>` the
/// insert-only witness closures `W` equal the base order `P` except on
/// windowed `csst`, where they run on [`IncrementalCsst`].
macro_rules! streaming_dispatch {
    ($index:expr, $window:expr, $($a:ident)::+<$($p:ident),+>, $($cfg:ident)::+) => {
        streaming_dispatch!($index, $window, $($a)::+<$($p),+>,
            cfg: $($cfg)::+ { window: $window, ..Default::default() })
    };
    ($index:expr, $window:expr, $($a:ident)::+<P, W>, cfg: $cfg:expr) => {
        streaming_dispatch!(@open $index, $window, $cfg,
            $($a)::+<IncrementalCsst, IncrementalCsst>, $($a)::+<Csst, IncrementalCsst>,
            $($a)::+<SegTreeIndex, SegTreeIndex>, $($a)::+<VectorClockIndex, VectorClockIndex>,
            $($a)::+<GraphIndex, GraphIndex>)
    };
    ($index:expr, $window:expr, $($a:ident)::+<P>, cfg: $cfg:expr) => {
        streaming_dispatch!(@open $index, $window, $cfg,
            $($a)::+<IncrementalCsst>, $($a)::+<Csst>, $($a)::+<SegTreeIndex>,
            $($a)::+<VectorClockIndex>, $($a)::+<GraphIndex>)
    };
    ($index:expr, $window:expr, $($a:ident)::+<Csst>, cfg: $cfg:expr) => {
        streaming_dispatch!(@open $index, $window, $cfg,
            $($a)::+<Csst>, $($a)::+<Csst>, $($a)::+<SegTreeIndex>,
            $($a)::+<VectorClockIndex>, $($a)::+<GraphIndex>)
    };
    (@open $index:expr, $window:expr, $cfg:expr,
        $csst:ty, $windowed_csst:ty, $st:ty, $vc:ty, $graph:ty) => {
        match ($window, $index) {
            (None, IndexKind::Csst) => Ok(open::<$csst>($cfg)),
            (None, IndexKind::SegTree) => Ok(open::<$st>($cfg)),
            (None, IndexKind::VectorClock) => Ok(open::<$vc>($cfg)),
            (_, IndexKind::Graph) => Ok(open::<$graph>($cfg)),
            (Some(_), IndexKind::Csst) => Ok(open::<$windowed_csst>($cfg)),
            (Some(_), other) => Err(format!(
                "--window retires edges and needs a fully dynamic index (csst|graph), got `{}`",
                other.name()
            )),
        }
    };
}

static ENTRIES: [AnalysisEntry; 8] = [
    AnalysisEntry {
        name: "race",
        description: "M2-style data race prediction (Table 1)",
        open: |index, window| {
            streaming_dispatch!(
                index, window, race::RacePredictor<P, W>, race::RaceCfg
            )
        },
        demo: || {
            gen::racy_program(&gen::RacyProgramCfg {
                threads: 4,
                events_per_thread: 120,
                shared_frac: 0.15,
                ..Default::default()
            })
        },
    },
    AnalysisEntry {
        name: "hb",
        description: "streaming FastTrack-style happens-before detection",
        open: |index, window| {
            if window.is_some() {
                return Err(
                    "hb is genuinely online and buffers nothing; --window does not apply".into(),
                );
            }
            streaming_dispatch!(index, window, hb::HbDetector<Csst>, cfg: ())
        },
        demo: || {
            gen::racy_program(&gen::RacyProgramCfg {
                threads: 6,
                events_per_thread: 600,
                lock_frac: 0.6,
                shared_frac: 0.3,
                ..Default::default()
            })
        },
    },
    AnalysisEntry {
        name: "deadlock",
        description: "SeqCheck-style deadlock prediction (Table 2)",
        open: |index, window| {
            streaming_dispatch!(
                index, window, deadlock::DeadlockPredictor<P, W>, deadlock::DeadlockCfg
            )
        },
        demo: || {
            gen::lock_program(&gen::LockProgramCfg {
                threads: 4,
                blocks_per_thread: 60,
                inversion_frac: 0.1,
                ..Default::default()
            })
        },
    },
    AnalysisEntry {
        name: "membug",
        description: "ConVulPOE-style memory-bug prediction (Table 3)",
        open: |index, window| {
            streaming_dispatch!(
                index, window, membug::MemBugPredictor<P, W>, membug::MemBugCfg
            )
        },
        demo: || {
            gen::alloc_program(&gen::AllocProgramCfg {
                threads: 5,
                objects: 150,
                ..Default::default()
            })
        },
    },
    AnalysisEntry {
        name: "tso",
        description: "x86-TSO consistency checking (Table 4)",
        open: |index, window| {
            streaming_dispatch!(index, window, tso::TsoChecker<P>, tso::TsoCheckCfg)
        },
        demo: || {
            gen::tso_history(&gen::TsoCfg {
                threads: 5,
                events_per_thread: 500,
                ..Default::default()
            })
        },
    },
    AnalysisEntry {
        name: "uaf",
        description: "UFO-style use-after-free query generation (Table 5)",
        open: |index, window| streaming_dispatch!(index, window, uaf::UafGenerator<P>, uaf::UafCfg),
        demo: || {
            gen::alloc_program(&gen::AllocProgramCfg {
                threads: 5,
                objects: 150,
                remote_free_frac: 0.6,
                ..Default::default()
            })
        },
    },
    AnalysisEntry {
        name: "c11",
        description: "C11Tester-style race detection (Table 6)",
        open: |index, window| streaming_dispatch!(index, window, c11::C11Detector<P>, c11::C11Cfg),
        demo: || {
            gen::c11_program(&gen::C11Cfg {
                threads: 6,
                events_per_thread: 800,
                middle_sync_frac: 0.1,
                ..Default::default()
            })
        },
    },
    AnalysisEntry {
        name: "linearizability",
        description: "root-causing linearizability violations (Table 7, fully dynamic)",
        open: |index, window| {
            if matches!(index, IndexKind::SegTree | IndexKind::VectorClock) {
                return Err(format!(
                    "linearizability needs a fully dynamic index (csst|graph), got `{}`",
                    index.name()
                ));
            }
            streaming_dispatch!(
                index,
                window,
                linearizability::LinAnalyzer<Csst>,
                linearizability::LinCfg
            )
        },
        demo: || {
            gen::object_history(&gen::ObjectHistoryCfg {
                threads: 3,
                ops_per_thread: 120,
                violation: true,
                ..Default::default()
            })
        },
    },
];

/// `ordered <t1> <p1> <t2> <p2>` → two node ids.
fn parse_ordered_query(q: &str) -> Option<(NodeId, NodeId)> {
    let mut it = q.split_whitespace();
    if it.next()? != "ordered" {
        return None;
    }
    let mut num = || it.next()?.parse::<u32>().ok();
    let (t1, p1, t2, p2) = (num()?, num()?, num()?, num()?);
    Some((NodeId::new(t1, p1), NodeId::new(t2, p2)))
}

/// One line per race, `{prefix}race between a and b`, the first `cap`
/// of them.
fn race_lines(races: &[(NodeId, NodeId)], prefix: &str, cap: usize) -> Vec<String> {
    races
        .iter()
        .take(cap)
        .map(|(a, b)| format!("{prefix}race between {a} and {b}"))
        .collect()
}

impl<P: PartialOrderIndex, W: PartialOrderIndex> Served for race::RacePredictor<P, W> {
    const QUERIES: &'static str = ", `races` (completed windows only)";

    fn answer(&self, q: &str) -> Option<String> {
        (q == "races").then(|| self.races_so_far().len().to_string())
    }

    fn output(r: race::RaceReport<P>) -> RunOutput {
        RunOutput {
            lines: race_lines(&r.races, "", usize::MAX),
            summary: format!(
                "{} race(s) predicted from {} candidate(s)",
                r.races.len(),
                r.candidates
            ),
            exit_code: (!r.races.is_empty()) as u8,
        }
    }
}

impl<P: PartialOrderIndex> Served for hb::HbDetector<P> {
    const QUERIES: &'static str = ", `races`, `ordered t1 p1 t2 p2`";

    fn answer(&self, q: &str) -> Option<String> {
        if q == "races" {
            return Some(self.races().len().to_string());
        }
        let (a, b) = parse_ordered_query(q)?;
        Some(self.index().reachable(a, b).to_string())
    }

    fn output(r: hb::HbReport<P>) -> RunOutput {
        RunOutput {
            lines: race_lines(&r.races, "hb-", 20),
            summary: format!(
                "{} hb-race(s); {} synchronization edge(s)",
                r.races.len(),
                r.sync_edges
            ),
            exit_code: (!r.races.is_empty()) as u8,
        }
    }
}

impl<P: PartialOrderIndex, W: PartialOrderIndex> Served for deadlock::DeadlockPredictor<P, W> {
    fn output(r: deadlock::DeadlockReport<P>) -> RunOutput {
        RunOutput {
            lines: r
                .deadlocks
                .iter()
                .map(|d| {
                    format!(
                        "deadlock: {} acquires {} holding {}, {} acquires {} holding {}",
                        d.first.inner_acq,
                        d.first.inner,
                        d.first.outer,
                        d.second.inner_acq,
                        d.second.inner,
                        d.second.outer
                    )
                })
                .collect(),
            summary: format!(
                "{} deadlock(s) predicted from {} pattern(s)",
                r.deadlocks.len(),
                r.patterns
            ),
            exit_code: (!r.deadlocks.is_empty()) as u8,
        }
    }
}

impl<P: PartialOrderIndex, W: PartialOrderIndex> Served for membug::MemBugPredictor<P, W> {
    fn output(r: membug::MemBugReport<P>) -> RunOutput {
        RunOutput {
            lines: r
                .bugs
                .iter()
                .map(|bug| match bug {
                    membug::MemBug::UseAfterFree {
                        obj,
                        use_event,
                        free_event,
                    } => format!("use-after-free of {obj}: use {use_event} vs free {free_event}"),
                    membug::MemBug::DoubleFree { obj, first, second } => {
                        format!("double free of {obj}: {first} and {second}")
                    }
                })
                .collect(),
            summary: format!("{} bug(s) predicted", r.bugs.len()),
            exit_code: (!r.bugs.is_empty()) as u8,
        }
    }
}

impl<P: PartialOrderIndex> Served for tso::TsoChecker<P> {
    fn output(r: tso::TsoReport<P>) -> RunOutput {
        RunOutput {
            lines: Vec::new(),
            summary: format!(
                "history is {} under x86-TSO ({} ordering(s) inferred, {} round(s))",
                if r.consistent {
                    "CONSISTENT"
                } else {
                    "INCONSISTENT"
                },
                r.inserted,
                r.rounds
            ),
            exit_code: (!r.consistent) as u8,
        }
    }
}

impl<P: PartialOrderIndex> Served for uaf::UafGenerator<P> {
    fn output(r: uaf::UafReport<P>) -> RunOutput {
        RunOutput {
            lines: r
                .candidates
                .iter()
                .take(20)
                .map(|c| {
                    format!(
                        "candidate: {} use {} vs free {} ({} constraints)",
                        c.obj, c.use_event, c.free_event, c.constraints
                    )
                })
                .collect(),
            summary: format!(
                "{} candidate(s) ({} pruned), {} total constraints for the solver",
                r.candidates.len(),
                r.pruned,
                r.total_constraints
            ),
            exit_code: 0,
        }
    }
}

impl<P: PartialOrderIndex> Served for c11::C11Detector<P> {
    fn output(r: c11::C11Report<P>) -> RunOutput {
        RunOutput {
            lines: race_lines(&r.races, "", 20),
            summary: format!(
                "{} race(s); {} synchronizes-with edge(s), {} from-read edge(s)",
                r.races.len(),
                r.sw_edges,
                r.fr_edges
            ),
            exit_code: (!r.races.is_empty()) as u8,
        }
    }
}

impl<P: PartialOrderIndex> Served for linearizability::LinAnalyzer<P> {
    fn output(r: linearizability::LinReport<P>) -> RunOutput {
        let (summary, exit_code) = match r.verdict {
            linearizability::LinVerdict::Linearizable(order) => (
                format!(
                    "linearizable; one witness order of {} ops found",
                    order.len()
                ),
                0,
            ),
            linearizability::LinVerdict::Violation(rc) => (
                format!(
                    "NOT linearizable; longest legal prefix has {} ops; blocked frontier: {:?}",
                    rc.executed, rc.blocked
                ),
                1,
            ),
            linearizability::LinVerdict::Unknown => ("search budget exhausted".into(), 3),
        };
        RunOutput {
            lines: Vec::new(),
            summary,
            exit_code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_entries_run_on_their_demo_traces() {
        for entry in entries() {
            let trace = entry.demo_trace();
            assert!(trace.total_events() > 0, "{}: empty demo", entry.name);
            let out = entry
                .run(&trace, IndexKind::Csst, None)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(!out.summary.is_empty(), "{}: empty summary", entry.name);
        }
    }

    #[test]
    fn all_predictive_entries_run_windowed_on_csst() {
        for entry in entries() {
            if entry.name == "hb" {
                continue; // genuinely online: windowing does not apply
            }
            let trace = entry.demo_trace();
            let out = entry
                .run(&trace, IndexKind::Csst, Some(64))
                .unwrap_or_else(|e| panic!("{} windowed: {e}", entry.name));
            assert!(!out.summary.is_empty(), "{}: empty summary", entry.name);
        }
    }

    #[test]
    fn lookup_and_index_parsing() {
        assert!(find("race").is_some());
        assert!(find("nonsense").is_none());
        assert_eq!(entries().len(), 8);
        for kind in IndexKind::ALL {
            assert_eq!(IndexKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(IndexKind::parse("bogus"), None);
    }

    #[test]
    fn resolve_error_lists_every_valid_name() {
        assert!(resolve("race").is_ok());
        let err = resolve("rcae").err().expect("unknown name must error");
        assert!(err.contains("unknown analysis `rcae`"), "{err}");
        for entry in entries() {
            assert!(
                err.contains(entry.name),
                "error must list `{}`: {err}",
                entry.name
            );
        }
    }

    #[test]
    fn linearizability_rejects_insert_only_indexes() {
        let entry = find("linearizability").unwrap();
        let trace = entry.demo_trace();
        assert!(entry.run(&trace, IndexKind::VectorClock, None).is_err());
        assert!(entry.run(&trace, IndexKind::Graph, None).is_ok());
    }

    #[test]
    fn windowed_runs_reject_insert_only_indexes() {
        let entry = find("race").unwrap();
        let trace = entry.demo_trace();
        for kind in [IndexKind::SegTree, IndexKind::VectorClock] {
            let err = entry.run(&trace, kind, Some(50)).unwrap_err();
            assert!(err.contains("fully dynamic"), "{err}");
        }
        assert!(entry.run(&trace, IndexKind::Graph, Some(50)).is_ok());
    }

    #[test]
    fn tso_summary_ignores_how_sparse_thread_ids_are() {
        let entry = find("tso").unwrap();
        let sparse = csst_trace::text::parse("t40000 w x0 1\nt0 r x0 1\n").unwrap();
        let dense = csst_trace::text::parse("t1 w x0 1\nt0 r x0 1\n").unwrap();
        for kind in [IndexKind::VectorClock, IndexKind::Csst] {
            let got = entry.run(&sparse, kind, None).unwrap();
            let want = entry.run(&dense, kind, None).unwrap();
            assert_eq!(got.summary, want.summary, "{}", kind.name());
            assert_eq!(got.exit_code, 0, "{}: {}", kind.name(), got.summary);
        }
    }

    #[test]
    fn hb_rejects_windowing() {
        let entry = find("hb").unwrap();
        let trace = entry.demo_trace();
        let err = entry.run(&trace, IndexKind::Csst, Some(10)).unwrap_err();
        assert!(err.contains("does not apply"), "{err}");
    }
}
