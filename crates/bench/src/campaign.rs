//! The dynamic-fault run, written once.
//!
//! The paper's faults "occur at any time" (§2); every experiment that
//! exercises that regime runs the same thing: a routing algorithm on a
//! 6x6 mesh under uniform traffic, scripted link faults that strike in a
//! window (and heal after a delay), source retransmission, the online
//! deadlock diagnoser riding the event stream, and (with `FTR_TRACE_DIR`
//! set) an FTB capture per run. [`run`] builds, drives and drains it;
//! [`Run::check`] is the one liveness check. What differs between
//! experiments is a [`Shape`] — [`E15`], [`E16`], [`E21`], [`E22`] and
//! [`DIFFERENTIAL`] — and a [`Spec`] per run.
//!
//! E21's fleet job ([`Fleet`]) keys, runs and journals one [`E21`] run
//! through [`ftr_sim::fleet`], so a panic in [`Run::check`] is attributed
//! to the run's key (its seed, fault count and load).

use crate::{harness, results};
use ftr_algos::Nafta;
use ftr_obs::{json, FtbHeader, TraceSink};
use ftr_sim::{
    FaultPlan, FleetJob, Network, Pattern, RetryPolicy, RoutingAlgorithm, SimStats, TrafficSource,
};
use ftr_topo::Mesh2D;
use ftr_trace::DiagnoserSink;
use std::ops::Range;
use std::sync::Arc;

/// Mesh side of the campaign fabric.
pub const SIDE: u32 = 6;

/// The campaign fabric.
pub fn mesh() -> Mesh2D {
    Mesh2D::new(SIDE, SIDE)
}

/// What one experiment's runs have in common.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Cycle window the scripted link faults strike in.
    pub fault_window: Range<u64>,
    /// Cycles until a scripted link fault repairs.
    pub repair_after: u64,
    /// Source retransmission, if any.
    pub retry: Option<RetryPolicy>,
    /// Cycles of offered load.
    pub warm_cycles: u64,
    /// Drain budget after the load stops.
    pub drain_budget: u64,
    /// Message length (flits).
    pub msg_len: u32,
    /// XORed into the run's seed to seed the traffic.
    pub salt: u64,
    /// Faults strike without telling any controller (E22's no-oracle arms).
    pub silent: bool,
    /// Control-plane tick period; 0 leaves the tick off.
    pub tick_period: u64,
}

const RETRY: Option<RetryPolicy> = Some(RetryPolicy { max_attempts: 8, backoff_cycles: 64 });

/// E15 (`campaign`), retry arm: 200-cycle transient faults under long load.
pub const E15: Shape = Shape {
    fault_window: 200..1_400,
    repair_after: 200,
    retry: RETRY,
    warm_cycles: 1_800,
    drain_budget: 60_000,
    msg_len: 16,
    salt: 0x5ca1e,
    silent: false,
    tick_period: 0,
};

/// E15's no-retry baseline arm.
pub const E15_BASE: Shape = Shape { retry: None, ..E15 };

/// E16 (`attribution`): two attempts, so some messages are abandoned.
pub const E16: Shape = Shape {
    fault_window: 200..900,
    repair_after: 150,
    retry: Some(RetryPolicy { max_attempts: 2, backoff_cycles: 64 }),
    salt: 0xabcd,
    ..E15
};

/// E21 (`fleet`): short runs, so a fleet reaches 10⁴ of them.
pub const E21: Shape = Shape {
    fault_window: 100..700,
    repair_after: 150,
    warm_cycles: 900,
    drain_budget: 30_000,
    msg_len: 12,
    ..E15
};

/// E22 (`detect`), oracle arm. Repairs fall far beyond the run: a silent
/// fault that healed by itself would mask what detection contributes.
pub const E22: Shape = Shape {
    fault_window: 100..400,
    repair_after: 10_000_000,
    warm_cycles: 900,
    drain_budget: 30_000,
    msg_len: 8,
    ..E15
};

/// The optimizer differential (`tests/opt_sim.rs`).
pub const DIFFERENTIAL: Shape =
    Shape { fault_window: 100..450, repair_after: 120, warm_cycles: 600, ..E15 };

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Fault-plan and traffic seed.
    pub seed: u64,
    /// Link faults scripted into the run.
    pub faults: usize,
    /// Offered load (flits/node/cycle).
    pub load: f64,
}

/// A finished run.
pub struct Run {
    /// The capture label the run was given.
    pub label: String,
    /// The engine's record of the run.
    pub stats: SimStats,
    /// Whether the drain emptied the network within the budget.
    pub drained: bool,
    /// The online diagnoser that watched the run.
    pub diag: Arc<DiagnoserSink>,
    /// Events written to the run's `.ftb` capture (0 without
    /// `FTR_TRACE_DIR`).
    pub trace_events: u64,
}

impl Run {
    /// The liveness check: accounting balanced, the network drained, and
    /// neither the watchdog nor the online diagnoser saw a deadlock.
    pub fn check(&self) {
        let s = &self.stats;
        let verdict = self.diag.deadlock();
        assert!(
            s.accounting_balanced() && self.drained && !s.deadlock && verdict.is_none(),
            "{}: balanced={} drained={} watchdog deadlock={} diagnoser verdict {verdict:?}",
            self.label,
            s.accounting_balanced(),
            self.drained,
            s.deadlock,
        );
    }
}

/// Runs `algo` on the campaign fabric: scripts `spec.faults` link faults
/// into `shape`'s window, offers uniform load for `shape.warm_cycles`,
/// drains, and scans once more for a deadlock. `sinks` see the event
/// stream next to the diagnoser and, with `FTR_TRACE_DIR` set, the
/// capture `<label>.ftb`.
pub fn run(
    shape: &Shape,
    spec: &Spec,
    label: &str,
    algo: &dyn RoutingAlgorithm,
    sinks: Vec<Arc<dyn TraceSink>>,
) -> Run {
    let mesh = mesh();
    let mut plan = FaultPlan::random_transient_links(
        &mesh,
        spec.faults,
        shape.fault_window.clone(),
        shape.repair_after,
        spec.seed,
    );
    if shape.silent {
        plan = plan.silenced();
    }
    let mut b = Network::builder(Arc::new(mesh)).fault_plan(plan).tick_period(shape.tick_period);
    if let Some(policy) = shape.retry {
        b = b.retry(policy);
    }
    let diag = Arc::new(DiagnoserSink::default());
    let header = FtbHeader::new()
        .with("geometry", format!("mesh{SIDE}x{SIDE}"))
        .with("seed", spec.seed)
        .with("faults", spec.faults)
        .with("load", spec.load);
    let mut all: Vec<Arc<dyn TraceSink>> = vec![diag.clone()];
    all.extend(sinks);
    let capture = results::Capture::open(label, header, all);
    let mut net = capture.attach(b).build(algo).expect("valid config");
    net.set_measuring(true);

    let mut tf =
        TrafficSource::new(Pattern::Uniform, spec.load, shape.msg_len, spec.seed ^ shape.salt);
    harness::drive(&mut net, &mut tf, shape.warm_cycles);
    let drained = net.drain(shape.drain_budget);
    diag.scan_now();
    let trace_events = capture.finish();
    Run { label: label.to_string(), stats: net.stats, drained, diag, trace_events }
}

/// Fault counts cycled across a fleet.
pub const FAULT_COUNTS: [usize; 5] = [0, 4, 8, 12, 16];

/// Builds the standard fleet: `runs` specs cycling the fault counts,
/// seeds spread with a prime stride.
pub fn specs(runs: usize, load: f64) -> Vec<Spec> {
    (0..runs)
        .map(|i| Spec {
            seed: 1 + i as u64 * 7919,
            faults: FAULT_COUNTS[i % FAULT_COUNTS.len()],
            load,
        })
        .collect()
}

/// One fleet run's result, journaled as one line of single-object JSON.
pub struct Out {
    /// Messages injected.
    pub injected: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Worms killed by faults.
    pub killed: u64,
    /// Messages abandoned as unroutable.
    pub unroutable: u64,
    /// Source retransmissions.
    pub retried: u64,
    /// Messages abandoned after exhausting retries.
    pub abandoned: u64,
    /// Sends the network refused.
    pub rejected: u64,
    /// Sum of delivered-message latencies (cycles).
    pub latency_sum: u64,
    /// Delivered messages with measured latency.
    pub latency_count: u64,
    /// Events streamed to this run's `.ftb` capture (0 without
    /// `FTR_TRACE_DIR`).
    pub trace_events: u64,
}

impl Out {
    /// Delivered / terminated ratio for this run.
    pub fn delivery_ratio(&self) -> f64 {
        let done = self.delivered + self.killed + self.unroutable;
        if done == 0 {
            1.0
        } else {
            self.delivered as f64 / done as f64
        }
    }
}

/// The E21 fleet job (see module docs).
pub struct Fleet;

impl FleetJob for Fleet {
    type Input = Spec;
    type Output = Out;

    fn key(&self, s: &Spec) -> String {
        // load is part of the key: a manifest from a different load must
        // not satisfy this fleet's runs
        format!("s{}f{}l{}", s.seed, s.faults, s.load)
    }

    fn run(&self, spec: &Spec) -> Out {
        let label = format!("fleet_s{}_f{}", spec.seed, spec.faults);
        let run = run(&E21, spec, &label, &Nafta::new(mesh()), Vec::new());
        run.check();
        let s = &run.stats;
        Out {
            injected: s.injected_msgs,
            delivered: s.delivered_msgs,
            killed: s.killed_msgs,
            unroutable: s.unroutable_msgs,
            retried: s.retried_msgs,
            abandoned: s.abandoned_msgs,
            rejected: s.rejected_sends,
            latency_sum: s.latency.sum,
            latency_count: s.latency.count,
            trace_events: run.trace_events,
        }
    }

    fn encode(&self, o: &Out) -> String {
        let mut j = json::Obj::new();
        j.num("injected", o.injected)
            .num("delivered", o.delivered)
            .num("killed", o.killed)
            .num("unroutable", o.unroutable)
            .num("retried", o.retried)
            .num("abandoned", o.abandoned)
            .num("rejected", o.rejected)
            .num("latency_sum", o.latency_sum)
            .num("latency_count", o.latency_count)
            .num("trace_events", o.trace_events);
        j.finish()
    }

    fn decode(&self, payload: &str) -> Result<Out, String> {
        let v = json::parse(payload)?;
        let f = |k: &str| v.get(k).and_then(|x| x.as_u64()).ok_or_else(|| format!("missing {k}"));
        Ok(Out {
            injected: f("injected")?,
            delivered: f("delivered")?,
            killed: f("killed")?,
            unroutable: f("unroutable")?,
            retried: f("retried")?,
            abandoned: f("abandoned")?,
            rejected: f("rejected")?,
            latency_sum: f("latency_sum")?,
            latency_count: f("latency_count")?,
            trace_events: f("trace_events")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_codec_round_trips() {
        let out = Out {
            injected: 300,
            delivered: 299,
            killed: 1,
            unroutable: 0,
            retried: 4,
            abandoned: 0,
            rejected: 2,
            latency_sum: 4800,
            latency_count: 299,
            trace_events: 4668,
        };
        let line = Fleet.encode(&out);
        assert!(!line.contains('\n'));
        let back = Fleet.decode(&line).unwrap();
        assert_eq!(back.delivered, 299);
        assert_eq!(back.latency_sum, 4800);
        assert!((back.delivery_ratio() - 299.0 / 300.0).abs() < 1e-12);
        assert!(Fleet.decode("{\"injected\":1}").is_err(), "missing fields are torn lines");
        assert!(Fleet.decode("{\"injected\":1").is_err(), "truncated JSON is a torn line");
    }

    #[test]
    fn keys_are_whitespace_free_and_distinct() {
        let specs = specs(10, 0.12);
        let keys: std::collections::HashSet<String> = specs.iter().map(|s| Fleet.key(s)).collect();
        assert_eq!(keys.len(), 10);
        assert!(keys.iter().all(|k| !k.contains(char::is_whitespace)));
    }

    #[test]
    fn one_run_executes_with_invariants() {
        let out = Fleet.run(&Spec { seed: 1, faults: 4, load: 0.1 });
        assert!(out.injected > 0);
        assert!(out.delivery_ratio() >= 0.99);
    }
}
