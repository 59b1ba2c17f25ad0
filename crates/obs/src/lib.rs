//! # ftr-obs — observability layer
//!
//! Structured instrumentation for the fault-tolerant router stack. A
//! run's totals live in `ftr_sim::SimStats`; this crate makes the
//! *per-decision* story behind them observable (interpretation steps per
//! routed message, decision-latency overhead, settling waves).
//!
//! Two pieces:
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

pub mod accum;
pub mod event;
pub mod ftb;
pub mod hash;
pub mod json;
pub mod profile;
pub mod sink;

pub use accum::Accum;
pub use event::{EventKind, RouteOutcome, TraceEvent};
pub use ftb::{BinSink, FtbHeader, FtbReader, ReadError};
pub use hash::{IdHasher, IdMap};
pub use json::Value;
pub use profile::{InterpProfiler, StageCost};
pub use sink::{RingSink, TeeSink, TraceSink};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking the guard back from a poisoned lock: sinks and
/// profilers are shared across sweep workers, and a job that panicked
/// holding one must not take every other job's instruments down with it.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
