//! # csst-bench — the reproduction harness for every table and figure
//! of the CSSTs paper
//!
//! The `repro` binary regenerates:
//!
//! * **Tables 1–7** — each of the seven analyses run over
//!   profile-matched synthetic workloads with every applicable
//!   partial-order representation, reporting wall time, memory
//!   estimate, and array density `q` ([`tables`]);
//! * **Figure 10** — geometric-mean time/memory ratios per analysis
//!   ([`figure10`]);
//! * **Figure 11** — controlled scalability of insertions and queries
//!   vs events per chain, for `k ∈ {10, 20}` ([`scalability`]);
//! * **the §5.1 block-size stress test** selecting `b = 32`
//!   ([`blocksize`]);
//! * **the hot-path perf harness** behind `repro -- bench`, emitting
//!   the machine-readable `BENCH_*.json` trajectory ([`perf`]).
//!
//! Absolute numbers will differ from the paper (different machine,
//! synthetic traces, scaled sizes); the *shape* — which structure wins,
//! by roughly what factor, and where the crossovers fall — is the
//! reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocksize;
pub mod figure10;
pub mod perf;
pub mod report;
pub mod scalability;
pub mod tables;

pub use report::{Cell, Row, Table};
