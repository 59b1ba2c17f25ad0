//! # ftr-obs — observability layer
//!
//! Structured instrumentation for the fault-tolerant router stack: the
//! paper's central claims are *per-decision* numbers (interpretation
//! steps per routed message, decision-latency overhead, settling waves),
//! and this crate is where they become observable without hand-rolled
//! counters in every binary.
//!
//! Three pieces:
//!
//! - **Event tracing** ([`event`], [`sink`], [`ftb`]): typed,
//!   cycle-stamped [`TraceEvent`]s (injection, per-hop routing decisions
//!   with step counts, VC-allocation stalls, kills, fault injection,
//!   control-plane settling) flow into a [`TraceSink`] — a bounded
//!   [`RingSink`] for analysis in-process, a [`BinSink`] streaming the
//!   one on-disk format, FTB (varint + cycle-delta encoded, ~8 bytes an
//!   event, read back by the streaming [`FtbReader`]), or a [`TeeSink`]
//!   over several. The simulator emits through closures, so with no
//!   sink attached no event is ever constructed.
//! - **Metrics** ([`metrics`]): a [`MetricsRegistry`] of named counters
//!   and log₂-bucketed histograms with a JSON exporter; the bench
//!   binaries publish their results through it into `results/*.json`.
//! - **Interpreter profiling** ([`profile`]): [`InterpProfiler`]
//!   implements `ftr_rules::InterpProbe` and attributes wall-clock time to
//!   the three hardware stages (premise / kernel / conclusion) per rule
//!   base.
//!
//! JSON is emitted by the in-tree writer in [`json`] (the hermetic build
//! has no serializer crate); [`json::validate`] backs the CI smoke check
//! that exported results parse, and [`json::parse`] reads exported
//! results and fleet journal lines back into [`json::Value`]s.
//! [`TraceEvent::to_json`] is the human rendering of an event, a view
//! `ftr-trace --to-jsonl` streams over a decoded capture — traces are
//! never stored or read back as JSON.

pub mod event;
pub mod ftb;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use event::{EventKind, RouteOutcome, TraceEvent};
pub use ftb::{BinSink, FtbHeader, FtbReader, ReadError};
pub use json::Value;
pub use metrics::{Counter, HistSnapshot, Histogram, MetricsRegistry};
pub use profile::{InterpProfiler, StageCost};
pub use sink::{RingSink, TeeSink, TraceSink};
