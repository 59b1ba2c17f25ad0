//! Trace sinks: where events go.
//!
//! Three of them: the in-memory [`RingSink`] and the fan-out
//! [`TeeSink`] here, and [`crate::BinSink`] (in [`crate::ftb`]), the one
//! sink that writes a trace to disk.
//!
//! The simulator holds an `Option<Arc<dyn TraceSink>>`; with no sink
//! attached it never constructs an event (zero-cost-when-disabled is a
//! contract of the emitting side, enforced by closure-based emit hooks).
//! Sinks must be internally synchronised — parallel sweeps share one sink
//! across worker threads.

use crate::event::TraceEvent;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Consumer of trace events.
pub trait TraceSink: Send + Sync {
    /// Records one event. Called on the simulation hot path — implementors
    /// should be cheap and must not block on external systems.
    fn record(&self, ev: &TraceEvent);

    /// Flushes buffered events to their backing store (no-op by default).
    fn flush(&self) {}
}

/// Bounded in-memory ring of the most recent events.
///
/// The default sink for tests and interactive analysis: keeps the last
/// `capacity` events, dropping the oldest on overflow (and counting the
/// drops, so truncation is never silent).
pub struct RingSink {
    buf: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    dropped: Mutex<u64>,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: capacity.max(1),
            dropped: Mutex::new(0),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock()
    }

    /// Drains and returns all retained events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.buf.lock().drain(..).collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: &TraceEvent) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            *self.dropped.lock() += 1;
        }
        buf.push_back(ev.clone());
    }
}

/// Fans one event stream out to several sinks.
pub struct TeeSink {
    sinks: Vec<std::sync::Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Builds a tee over `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, ev: &TraceEvent) {
        for s in &self.sinks {
            s.record(ev);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    fn ev(cycle: u64, msg: u64) -> TraceEvent {
        TraceEvent { cycle, kind: EventKind::Kill { msg } }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let r = RingSink::new(3);
        for i in 0..5 {
            r.record(&ev(i, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn tee_duplicates() {
        let a = Arc::new(RingSink::new(10));
        let b = Arc::new(RingSink::new(10));
        let tee = TeeSink::new(vec![a.clone(), b.clone()]);
        tee.record(&ev(1, 1));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
