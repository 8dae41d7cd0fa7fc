//! Name-based analysis registry.
//!
//! One table maps analysis names (`race`, `hb`, `deadlock`, …) to
//! runnable entries, so front ends — the `csst-analyze` CLI, the bench
//! harness — select analyses and index representations by string
//! instead of hard-coding one match arm per analysis. Adding an
//! analysis means adding one [`AnalysisEntry`] here.
//!
//! Runs take an optional **window** (the `--window N` of the CLI):
//! predictive analyses then bound their event buffer to `N`-event
//! tumbling windows, retiring each window's base-order edges through
//! `delete_edge` — which is why windowed runs are restricted to the
//! fully dynamic representations (`csst`, `graph`). See the
//! [`crate::Analysis`] soundness contract.

use crate::{c11, deadlock, hb, linearizability, membug, race, tso, uaf};
use csst_core::{Csst, GraphIndex, IncrementalCsst, NodeId, SegTreeIndex, VectorClockIndex};
use csst_trace::gen;
use csst_trace::Trace;

/// Index representation selected by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Incremental CSSTs (`csst`) — or the fully dynamic [`Csst`] for
    /// analyses that delete edges.
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

/// A runnable analysis, selectable by name.
pub struct AnalysisEntry {
    /// CLI name of the analysis.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    run: fn(&Trace, IndexKind, Option<usize>) -> Result<RunOutput, String>,
    demo: fn() -> Trace,
}

impl AnalysisEntry {
    /// Runs the analysis on `trace` with the given representation and
    /// optional window size.
    ///
    /// # Errors
    ///
    /// A human-readable message when the representation does not fit
    /// the analysis (e.g. linearizability and windowed runs need edge
    /// deletion) or when the analysis does not support windowing.
    pub fn run(
        &self,
        trace: &Trace,
        index: IndexKind,
        window: Option<usize>,
    ) -> Result<RunOutput, String> {
        (self.run)(trace, index, window)
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

/// Dispatches a generic runner: over every representation when
/// unwindowed, over the fully dynamic ones (`csst` → [`Csst`],
/// `graph`) when a window is set — retirement deletes edges.
macro_rules! streaming_dispatch {
    ($index:expr, $window:expr, $run:ident, $trace:expr) => {
        match ($window, $index) {
            (None, IndexKind::Csst) => Ok($run::<IncrementalCsst>($trace, None)),
            (None, IndexKind::SegTree) => Ok($run::<SegTreeIndex>($trace, None)),
            (None, IndexKind::VectorClock) => Ok($run::<VectorClockIndex>($trace, None)),
            (None, IndexKind::Graph) => Ok($run::<GraphIndex>($trace, None)),
            (Some(w), IndexKind::Csst) => Ok($run::<Csst>($trace, Some(w))),
            (Some(w), IndexKind::Graph) => Ok($run::<GraphIndex>($trace, Some(w))),
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
        run: |trace, index, window| streaming_dispatch!(index, window, run_race, trace),
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
        run: run_hb_entry,
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
        run: |trace, index, window| streaming_dispatch!(index, window, run_deadlock, trace),
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
        run: |trace, index, window| streaming_dispatch!(index, window, run_membug, trace),
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
        run: |trace, index, window| streaming_dispatch!(index, window, run_tso, trace),
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
        run: |trace, index, window| streaming_dispatch!(index, window, run_uaf, trace),
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
        run: |trace, index, window| streaming_dispatch!(index, window, run_c11, trace),
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
        run: run_linearizability,
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

/// Formats a `race` result: one line per predicted race. Every front
/// end that reports `race` (the batch run, `csst-serve` sessions)
/// formats through this function.
pub fn race_report(races: &[(NodeId, NodeId)], candidates: usize) -> RunOutput {
    RunOutput {
        lines: races
            .iter()
            .map(|(a, b)| format!("race between {a} and {b}"))
            .collect(),
        summary: format!(
            "{} race(s) predicted from {candidates} candidate(s)",
            races.len()
        ),
        exit_code: (!races.is_empty()) as u8,
    }
}

/// Formats an `hb` result: the first 20 races as lines. Every front
/// end that reports `hb` formats through this function.
pub fn hb_report(races: &[(NodeId, NodeId)], sync_edges: usize) -> RunOutput {
    RunOutput {
        lines: races
            .iter()
            .take(20)
            .map(|(a, b)| format!("hb-race between {a} and {b}"))
            .collect(),
        summary: format!(
            "{} hb-race(s); {sync_edges} synchronization edge(s)",
            races.len()
        ),
        exit_code: (!races.is_empty()) as u8,
    }
}

fn run_race<P: csst_core::PartialOrderIndex>(trace: &Trace, window: Option<usize>) -> RunOutput {
    let cfg = race::RaceCfg {
        window,
        ..Default::default()
    };
    let r = race::predict::<P>(trace, &cfg);
    race_report(&r.races, r.candidates)
}

fn run_hb_entry(
    trace: &Trace,
    index: IndexKind,
    window: Option<usize>,
) -> Result<RunOutput, String> {
    if window.is_some() {
        return Err(
            "hb is genuinely online and buffers nothing; --window does not apply".to_string(),
        );
    }
    match index {
        IndexKind::Csst => Ok(run_hb::<IncrementalCsst>(trace)),
        IndexKind::SegTree => Ok(run_hb::<SegTreeIndex>(trace)),
        IndexKind::VectorClock => Ok(run_hb::<VectorClockIndex>(trace)),
        IndexKind::Graph => Ok(run_hb::<GraphIndex>(trace)),
    }
}

fn run_hb<P: csst_core::PartialOrderIndex>(trace: &Trace) -> RunOutput {
    let r = hb::detect::<P>(trace);
    hb_report(&r.races, r.sync_edges)
}

fn run_deadlock<P: csst_core::PartialOrderIndex>(
    trace: &Trace,
    window: Option<usize>,
) -> RunOutput {
    let cfg = deadlock::DeadlockCfg {
        window,
        ..Default::default()
    };
    let r = deadlock::predict::<P>(trace, &cfg);
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

fn run_membug<P: csst_core::PartialOrderIndex>(trace: &Trace, window: Option<usize>) -> RunOutput {
    let cfg = membug::MemBugCfg {
        window,
        ..Default::default()
    };
    let r = membug::predict::<P>(trace, &cfg);
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

fn run_tso<P: csst_core::PartialOrderIndex>(trace: &Trace, window: Option<usize>) -> RunOutput {
    let cfg = tso::TsoCheckCfg {
        window,
        ..Default::default()
    };
    let r = tso::check::<P>(trace, &cfg);
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

fn run_uaf<P: csst_core::PartialOrderIndex>(trace: &Trace, window: Option<usize>) -> RunOutput {
    let cfg = uaf::UafCfg {
        window,
        ..Default::default()
    };
    let r = uaf::generate::<P>(trace, &cfg);
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

fn run_c11<P: csst_core::PartialOrderIndex>(trace: &Trace, window: Option<usize>) -> RunOutput {
    let cfg = c11::C11Cfg {
        window,
        ..Default::default()
    };
    let r = c11::detect::<P>(trace, &cfg);
    RunOutput {
        lines: r
            .races
            .iter()
            .take(20)
            .map(|(a, b)| format!("race between {a} and {b}"))
            .collect(),
        summary: format!(
            "{} race(s); {} synchronizes-with edge(s), {} from-read edge(s)",
            r.races.len(),
            r.sw_edges,
            r.fr_edges
        ),
        exit_code: (!r.races.is_empty()) as u8,
    }
}

fn run_linearizability(
    trace: &Trace,
    index: IndexKind,
    window: Option<usize>,
) -> Result<RunOutput, String> {
    let cfg = linearizability::LinCfg {
        window,
        ..Default::default()
    };
    let verdict = match index {
        IndexKind::Csst => linearizability::analyze::<Csst>(trace, &cfg).verdict,
        IndexKind::Graph => linearizability::analyze::<GraphIndex>(trace, &cfg).verdict,
        other => {
            return Err(format!(
                "linearizability needs a fully dynamic index (csst|graph), got `{}`",
                other.name()
            ))
        }
    };
    Ok(match verdict {
        linearizability::LinVerdict::Linearizable(order) => RunOutput {
            lines: Vec::new(),
            summary: format!(
                "linearizable; one witness order of {} ops found",
                order.len()
            ),
            exit_code: 0,
        },
        linearizability::LinVerdict::Violation(rc) => RunOutput {
            lines: Vec::new(),
            summary: format!(
                "NOT linearizable; longest legal prefix has {} ops; blocked frontier: {:?}",
                rc.executed, rc.blocked
            ),
            exit_code: 1,
        },
        linearizability::LinVerdict::Unknown => RunOutput {
            lines: Vec::new(),
            summary: "search budget exhausted".into(),
            exit_code: 3,
        },
    })
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
    fn hb_rejects_windowing() {
        let entry = find("hb").unwrap();
        let trace = entry.demo_trace();
        let err = entry.run(&trace, IndexKind::Csst, Some(10)).unwrap_err();
        assert!(err.contains("does not apply"), "{err}");
    }
}
