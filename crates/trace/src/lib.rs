//! # ftr-trace — message-journey tracing and stall/deadlock diagnosis
//!
//! The diagnosis layer over `ftr-obs` trace streams, in two halves:
//!
//! - **Offline** ([`journey`], [`report`]): [`JourneyBook`] folds a
//!   cycle-ordered event stream into per-message [`Journey`]s — every
//!   attempt, hop, stall and channel hold — with *exact* latency
//!   attribution: source queueing, blocked cycles, retry backoff and
//!   transit partition each delivered message's latency with no
//!   remainder. Aggregates (latency/hops/steps tallies, per-channel
//!   utilization and stall heatmaps) land in a [`TraceReport`] rendered
//!   as validated JSON plus a human summary. The reconstruction mirrors
//!   the engine's accounting rules exactly; on a deterministic run the
//!   report's counts and latency tally equal `SimStats` field for field
//!   (asserted in `tests/exactness.rs`).
//! - **Online** ([`diagnose`]): [`DiagnoserSink`] implements
//!   `ftr_obs::TraceSink`, so it attaches to a live network (compose
//!   with `TeeSink` to also keep an FTB capture) and incrementally
//!   maintains the VC wait-for graph from `VcAcquire`/`VcStall`/
//!   `RouteWait` events. It reports suspected deadlock as a cycle
//!   witness naming the ring of messages and channels, and flags
//!   starved messages — all without touching engine internals.
//!
//! The `ftr-trace` binary reads an FTB capture as written by
//! `ftr_obs::BinSink` (every bench run leaves one per simulation when
//! `FTR_TRACE_DIR` is set) through [`EventReader`], replays it through
//! both halves, prints the human summary and optionally writes the JSON
//! report — for a crash-cut capture too, over the events before the cut.
//! `--to-jsonl` instead streams the decoded events as JSON lines, the
//! `grep`/`jq` view of a capture.

pub mod diagnose;
pub mod input;
pub mod journey;
pub mod report;

pub use diagnose::{DeadlockWitness, DiagnoserConfig, DiagnoserSink, Starvation, WaitEdge};
pub use input::{replay, EventReader, ReadError};
pub use journey::{
    Attempt, Attribution, BookSummary, ChannelKey, ChannelStats, ChannelUse, Hop, Journey,
    JourneyBook, Outcome,
};
pub use report::TraceReport;
