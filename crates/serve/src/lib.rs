//! # csst-serve — the streaming analysis service and its engines
//!
//! The paper frames CSSTs as the data structure for *online* analyses
//! over unbounded event streams. This crate supplies the systems layer
//! that claim implies:
//!
//! * **`csst-serve`** ([`server`], [`proto`]) — a long-running service
//!   accepting concurrent trace sessions over TCP or Unix sockets with
//!   length-prefixed framing; each session picks its analysis, index
//!   representation, wire format ([`csst_trace::binary`], text or
//!   rapid), shard count and window in the HELLO frame, streams
//!   events, and can interleave online race/ordering queries before
//!   collecting a final report formatted exactly like the batch CLI's.
//!   `hb` sessions run the sequential
//!   [`HbDetector`](csst_analyses::hb::HbDetector), which keeps the
//!   index and the access frontier but never the stream; `race`
//!   sessions run [`ShardedRace`]; the other analyses buffer the
//!   stream and run in batch at FINISH.
//! * **Sharded engines** ([`shard`], [`hb`], [`race`]) — router/worker
//!   forms of streaming analyses whose reports are *bit-identical* to
//!   their sequential counterparts, pinned by unit tests here and
//!   property tests in the workspace `tests/`. [`ShardedRace`] fans
//!   its independent witness checks out over the session's shard
//!   count. [`ShardedHb`] partitions hb's access probes across N
//!   workers that each repeat every sync-edge insert; it never beat
//!   the sequential detector on the hosts measured so far, so no
//!   session runs it, and it stays as a library type for the
//!   benchmarks.
//! * **`csst-client`** ([`client`]) — the driver: stream a trace file
//!   or a registry demo workload into a server, query it, fetch the
//!   report, optionally cross-check against a local batch run.
//! * **Fault containment** ([`error`], [`fault`]) — a [`ServeError`]
//!   taxonomy replaces panics and unwraps throughout the subsystem;
//!   `catch_unwind` boundaries at session threads, shard workers and
//!   witness workers keep any single-component failure contained to
//!   one session (a panicked witness chunk is re-checked sequentially;
//!   anything else gets a structured ERROR frame) while the server
//!   and every other session keep running. A deterministic, seeded
//!   [`FaultPlan`] injection layer (env/flag-driven) exercises those
//!   boundaries in `scripts/fault_smoke.sh` and the `faults`
//!   integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod fault;
pub mod hb;
pub mod proto;
pub mod race;
pub mod server;
pub mod shard;

pub use client::Client;
pub use error::ServeError;
pub use fault::FaultPlan;
pub use hb::{ShardedHb, ShardedHbReport};
pub use proto::{Hello, Report, WireFormat};
pub use race::{ShardedRace, ShardedRaceReport};
pub use server::{Server, ServerCfg};
pub use shard::ShardCfg;
