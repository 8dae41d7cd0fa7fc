//! # csst-analyses — dynamic concurrency analyses over pluggable
//! partial-order indexes
//!
//! The CSSTs paper (§5) evaluates its data structure inside seven
//! published dynamic analyses. This crate reimplements the
//! *partial-order cores* of those analyses — the exact mix of
//! `insertEdge` / `deleteEdge` / `reachable` / `successor` /
//! `predecessor` operations each analysis issues — generically over
//! [`csst_core::PartialOrderIndex`], so that every analysis can run on
//! CSSTs, segment trees, vector clocks, or plain graphs, exactly like
//! the paper's Tables 1–7:
//!
//! | module | analysis | paper table | streaming form |
//! |---|---|---|---|
//! | [`race`] | M2-style data race prediction | Table 1 | online base, windowable |
//! | [`deadlock`] | SeqCheck-style deadlock prediction | Table 2 | online base, windowable |
//! | [`membug`] | ConVulPOE-style memory-bug prediction | Table 3 | online base, windowable |
//! | [`tso`] | x86-TSO consistency checking (Roy et al.) | Table 4 | online base, windowable |
//! | [`uaf`] | UFO-style use-after-free query generation | Table 5 | online base, windowable |
//! | [`c11`] | C11Tester-style race detection | Table 6 | genuinely online |
//! | [`linearizability`] | root-causing linearizability violations | Table 7 | online base, windowable |
//!
//! [`hb`] adds the paper's streaming *counterpoint* (FastTrack-style
//! happens-before detection), where vector clocks are the right tool.
//!
//! Every analysis implements the unified streaming [`Analysis`] trait
//! (`feed` one event at a time, `finish` for the report); the batch
//! entry points are thin wrappers over it. The predictive analyses
//! build their **base order** incrementally inside `feed` through the
//! shared [`BaseOrderBuilder`], and accept a `window` in their
//! configuration that bounds buffered events to tumbling windows whose
//! retirement resets the base order to a fresh index — see the
//! [`Analysis`] docs for the windowing soundness contract. The
//! [`registry`] maps analysis names to runnable entries so front ends
//! select analyses (and windows) by string instead of hard-coded match
//! arms.
//!
//! The shared [`saturation`] engine implements the ordering-inference
//! rules (reads-from maximality and lock mutual exclusion) used by the
//! predictive analyses — the "saturation" process of the paper's §1.1
//! motivating example.
//!
//! ## Example
//!
//! ```
//! use csst_analyses::race::{self, RaceCfg};
//! use csst_core::IncrementalCsst;
//! use csst_trace::gen::{racy_program, RacyProgramCfg};
//!
//! let trace = racy_program(&RacyProgramCfg::default());
//! let report = race::predict::<IncrementalCsst>(&trace, &RaceCfg::default());
//! println!("{} candidate pairs, {} races", report.candidates, report.races.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod c11;
pub mod common;
pub mod deadlock;
pub mod hb;
pub mod linearizability;
pub mod membug;
pub mod race;
pub mod registry;
pub mod saturation;
pub mod tso;
pub mod uaf;

pub use analysis::Analysis;
pub use common::{BaseOrderBuilder, OrderOutcome, WindowStats};
