//! Timing shims over the public traits: the only instrumentation the
//! ledger has. Each wraps an implementation, times every call with
//! `Instant`, and forwards arguments and results untouched, so a shimmed
//! run produces the same `SimStats` as a bare one (checked every traced
//! repetition).

use crate::stats::Hot;
use ftr_obs::{EventKind, TraceEvent, TraceSink};
use ftr_rules::{InterpProbe, Stage};
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_topo::{NodeId, PortId, Topology, VcId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the controllers of one network spent, summed when they drop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtlTotals {
    /// `route` calls.
    pub route_calls: u64,
    /// Nanoseconds inside `route`, clock cost included.
    pub route_ns: u64,
    /// `route` calls that answered `Verdict::Wait` (asked again later).
    pub route_waits: u64,
    /// `on_tick` + `on_control` + `on_fault` + `on_repair` calls.
    pub ctl_calls: u64,
    /// Nanoseconds inside those hooks, clock cost included.
    pub ctl_ns: u64,
    /// Control messages the hooks returned.
    pub ctl_msgs: u64,
}

impl CtlTotals {
    /// Adds `o` field by field.
    pub fn merge(&mut self, o: &CtlTotals) {
        self.route_calls += o.route_calls;
        self.route_ns += o.route_ns;
        self.route_waits += o.route_waits;
        self.ctl_calls += o.ctl_calls;
        self.ctl_ns += o.ctl_ns;
        self.ctl_msgs += o.ctl_msgs;
    }
}

/// A [`RoutingAlgorithm`] whose controllers time themselves.
///
/// Counters live in each controller as plain integers (65 536 controllers
/// on the large mesh make shared atomics a cost of their own) and are
/// merged into [`TimedAlgo::totals`] when the network drops them.
pub struct TimedAlgo<'a> {
    inner: &'a dyn RoutingAlgorithm,
    sum: Arc<Mutex<CtlTotals>>,
}

impl<'a> TimedAlgo<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn RoutingAlgorithm) -> Self {
        TimedAlgo { inner, sum: Arc::default() }
    }

    /// Totals of every controller dropped so far; read it after the
    /// network is gone.
    pub fn totals(&self) -> CtlTotals {
        *self.sum.lock().expect("no controller panicked while merging")
    }
}

impl RoutingAlgorithm for TimedAlgo<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn num_vcs(&self) -> usize {
        self.inner.num_vcs()
    }

    fn controller(&self, topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        Box::new(TimedController {
            inner: self.inner.controller(topo, node),
            t: CtlTotals::default(),
            sum: Arc::clone(&self.sum),
        })
    }
}

struct TimedController {
    inner: Box<dyn NodeController>,
    t: CtlTotals,
    sum: Arc<Mutex<CtlTotals>>,
}

impl TimedController {
    fn hook(&mut self, t0: Instant, out: Vec<ControlMsg>) -> Vec<ControlMsg> {
        self.t.ctl_ns += t0.elapsed().as_nanos() as u64;
        self.t.ctl_calls += 1;
        self.t.ctl_msgs += out.len() as u64;
        out
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        // a poisoned lock means another controller panicked mid-merge;
        // the run is already failing, so the totals do not matter
        if let Ok(mut s) = self.sum.lock() {
            s.merge(&self.t);
        }
    }
}

impl NodeController for TimedController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        header: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.route(view, header, in_port, in_vc);
        self.t.route_ns += t0.elapsed().as_nanos() as u64;
        self.t.route_calls += 1;
        self.t.route_waits += (d.verdict == Verdict::Wait) as u64;
        d
    }

    fn on_tick(&mut self, view: &RouterView<'_>, cycle: u64) -> Vec<ControlMsg> {
        let t0 = Instant::now();
        let out = self.inner.on_tick(view, cycle);
        self.hook(t0, out)
    }

    fn drain_events(&mut self) -> Vec<EventKind> {
        self.inner.drain_events()
    }

    fn on_control(
        &mut self,
        view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        let t0 = Instant::now();
        let out = self.inner.on_control(view, from, payload);
        self.hook(t0, out)
    }

    fn on_fault(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        let t0 = Instant::now();
        let out = self.inner.on_fault(view, port);
        self.hook(t0, out)
    }

    fn on_repair(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        let t0 = Instant::now();
        let out = self.inner.on_repair(view, port);
        self.hook(t0, out)
    }

    fn state_word(&self) -> i64 {
        self.inner.state_word()
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        self.inner.relation(view, header, in_port, in_vc)
    }
}

/// A [`TraceSink`] that times `record` on the sink it wraps. Sinks are
/// shared (`&self`), so the counters are relaxed atomics: they publish
/// nothing but themselves.
pub struct TimedSink {
    inner: Arc<dyn TraceSink>,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl TimedSink {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn TraceSink>) -> Self {
        TimedSink { inner, calls: AtomicU64::new(0), ns: AtomicU64::new(0) }
    }

    /// Calls and nanoseconds (clock cost included) so far.
    pub fn totals(&self) -> Hot {
        Hot {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
            ..Hot::default()
        }
    }
}

impl TraceSink for TimedSink {
    fn record(&self, ev: &TraceEvent) {
        let t0 = Instant::now();
        self.inner.record(ev);
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// The ledger's own [`InterpProbe`]: nanoseconds per interpretation stage
/// (premise, kernel, conclusion), summed over every rule base.
#[derive(Default)]
pub struct StageProbe {
    ns: [AtomicU64; 3],
}

impl StageProbe {
    /// Share of the probed time spent in each stage, in [`Stage::ALL`]
    /// order (zeros before the first fire).
    pub fn shares(&self) -> [f64; 3] {
        let ns: Vec<f64> = self.ns.iter().map(|a| a.load(Ordering::Relaxed) as f64).collect();
        let total: f64 = ns.iter().sum();
        if total == 0.0 {
            return [0.0; 3];
        }
        [ns[0] / total, ns[1] / total, ns[2] / total]
    }
}

impl InterpProbe for StageProbe {
    fn record_stage(&self, _base: usize, stage: Stage, nanos: u64) {
        let i = Stage::ALL.iter().position(|&s| s == stage).expect("stage is one of ALL");
        self.ns[i].fetch_add(nanos, Ordering::Relaxed);
    }
}
