//! # csst-serve — the streaming analysis service
//!
//! The paper frames CSSTs as the data structure for *online* analyses
//! over unbounded event streams. This crate supplies the systems layer
//! that claim implies:
//!
//! * **`csst-serve`** ([`server`], [`proto`]) — a long-running service
//!   accepting concurrent trace sessions over TCP or Unix sockets with
//!   length-prefixed framing; each session picks its analysis, index
//!   representation, wire format ([`csst_trace::binary`], text or
//!   rapid) and window in the HELLO frame, streams events, and can
//!   interleave online queries before collecting a final report. A
//!   session is the analysis's
//!   [`registry::Session`](csst_analyses::registry::Session), the same
//!   one the batch CLI feeds a recorded trace, so the report equals
//!   `csst_analyze`'s by construction. No session buffers the stream
//!   itself: what an analysis keeps is its own (hb keeps the index and
//!   the access frontier; a windowed predictive analysis keeps at most
//!   one window).
//! * **`csst-client`** ([`client`]) — the driver: stream a trace file
//!   or a registry demo workload into a server, query it, fetch the
//!   report, optionally cross-check against a local batch run.
//! * **Fault containment** ([`error`], [`fault`]) — a [`ServeError`]
//!   taxonomy replaces panics and unwraps throughout the subsystem;
//!   a `catch_unwind` boundary at every session thread keeps a failure
//!   contained to its session (a structured ERROR frame) while the
//!   server and every other session keep running. A deterministic,
//!   seeded [`FaultPlan`] injection layer (env/flag-driven) exercises
//!   those boundaries in `scripts/fault_smoke.sh` and the `faults`
//!   integration tests.
//! * **The hb forwarder** ([`hb`]) — a forwarder to the sequential
//!   [`HbDetector`](csst_analyses::hb::HbDetector), kept only because
//!   the end-to-end benchmark's traced hb pass calls it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod fault;
pub mod hb;
pub mod proto;
pub mod server;

pub use client::Client;
pub use error::ServeError;
pub use fault::FaultPlan;
pub use hb::{ShardCfg, ShardedHb};
pub use proto::{Hello, Report, WireFormat};
pub use server::{Server, ServerCfg};
