//! Span recorder for the traced pass.
//!
//! Coarse boundaries (set-up stages, the offered loop, drain, replay, each
//! toolchain stage) are individual [`Span`]s kept in memory; hot boundaries
//! (send, step, route, control hooks, sink record) are [`Hot`] aggregates
//! fed by the shims. Both are written to `ledger_trace.json` when the
//! process ends. With tracing off, `enter`/`exit` do nothing, so the same
//! driver code runs in both passes.

use crate::stats::Hot;
use ftr_obs::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One coarse interval. `parent` indexes [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct Span {
    /// `<crate>.<stage>` name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition the span belongs to: spans of one repetition share it.
    pub rep: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span and aggregate store of one benchmark process.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    stack: Vec<usize>,
    /// Every span recorded so far, in start order.
    spans: Vec<Span>,
    /// The current repetition's hot-boundary aggregates by name.
    hot: BTreeMap<&'static str, Hot>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            hot: BTreeMap::new(),
        }
    }

    /// Whether this is the traced pass.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new repetition: drops the previous repetition's spans'
    /// claim on names (lookups below see only the current one).
    pub fn next_rep(&mut self) {
        self.rep += 1;
        self.hot.clear();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close in reverse opening order.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Merges a hot aggregate into the current repetition's store.
    pub fn add_hot(&mut self, name: &'static str, h: &Hot) {
        if !self.enabled {
            return;
        }
        let e = self.hot.entry(name).or_default();
        e.calls += h.calls;
        e.ns += h.ns;
        for (a, b) in e.hist.iter_mut().zip(h.hist.iter()) {
            *a += b;
        }
    }

    /// Total seconds of the current repetition's spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        let named = self.spans.iter().filter(|s| s.rep == self.rep && s.name == name);
        named.map(Span::secs).fold(0.0, |a, b| a + b)
    }

    /// The current repetition's aggregate for `name` (empty if never fed).
    pub fn hot(&self, name: &str) -> Hot {
        self.hot.get(name).cloned().unwrap_or_default()
    }

    /// Renders every span (with self time) and the last repetition's hot
    /// aggregates as one JSON document.
    pub fn to_json(&self, workload: &str, clock_ns: f64) -> String {
        // self time: a span's duration minus its direct children's
        let mut self_s: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_s[p] -= s.secs();
            }
        }
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            let mut o = json::Obj::new();
            o.num("id", id as u64)
                .str("name", s.name)
                .str("workload", workload)
                .num("rep", s.rep)
                .num("start_ns", s.start_ns)
                .num("end_ns", s.end_ns)
                .float("self_s", self_s[id]);
            match s.parent {
                Some(p) => o.num("parent", p as u64),
                None => o.field("parent", "null"),
            };
            o.finish()
        });
        let hot = self.hot.iter().map(|(name, h)| {
            let mut o = json::Obj::new();
            o.str("name", name)
                .str("workload", workload)
                .num("calls", h.calls)
                .num("total_ns", h.ns)
                .float("clock_ns_per_call", clock_ns)
                .field("log2_hist", json::array(h.hist.iter().map(u64::to_string)));
            o.finish()
        });
        let mut root = json::Obj::new();
        root.str("workload", workload)
            .field("spans", json::array(spans))
            .field("hot", json::array(hot));
        root.finish()
    }
}

/// Cost of one `Instant::now()` call in nanoseconds: the median over
/// batches of back-to-back reads. Every hot aggregate holds one such cost
/// per call inside its measured interval and pushes one more onto its
/// parent.
pub fn calibrate_clock_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut per_call = Vec::with_capacity(25);
    for _ in 0..25 {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(Instant::now());
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    crate::stats::median(&per_call)
}
