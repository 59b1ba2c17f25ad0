//! The E21 fleet campaign job: one dynamic-fault run, keyed, executed
//! and journaled through [`ftr_sim::fleet`].
//!
//! The `fleet` driver scales it to 10⁴ runs: a 6x6 NAFTA mesh under
//! uniform traffic with scripted transient link faults, source
//! retransmission on, the online deadlock diagnoser attached, and (with
//! `FTR_TRACE_DIR` set) a compact binary `.ftb` capture per run.
//!
//! Every run asserts its own invariants — accounting balanced, network
//! drained, no watchdog or diagnoser deadlock verdict, no trace events
//! lost — so a violation panics inside the run and the fleet attributes
//! it to this run's key (its seed, fault count and load).

use crate::results;
use ftr_algos::Nafta;
use ftr_obs::{json, FtbHeader};
use ftr_sim::{FaultPlan, FleetJob, Network, Pattern, RetryPolicy, TrafficSource};
use ftr_topo::Mesh2D;
use ftr_trace::DiagnoserSink;
use std::sync::Arc;

/// Mesh side of the campaign fabric.
pub const SIDE: u32 = 6;
/// Cycles until a transient link fault repairs.
const REPAIR_AFTER: u64 = 150;
/// Cycle window the scripted faults strike in.
const FAULT_WINDOW: std::ops::Range<u64> = 100..700;
/// Cycles of offered load per run.
const WARM_CYCLES: u64 = 900;
/// Drain budget per run.
const DRAIN_BUDGET: u64 = 30_000;
/// Message length (flits).
const MSG_LEN: u32 = 12;
/// Fault counts cycled across a fleet.
pub const FAULT_COUNTS: [usize; 5] = [0, 4, 8, 12, 16];

/// Per-run parameters.
#[derive(Clone, Copy)]
pub struct Spec {
    /// Fault-plan and traffic seed.
    pub seed: u64,
    /// Transient link faults scripted into the run.
    pub faults: usize,
    /// Offered load (flits/node/cycle).
    pub load: f64,
}

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

/// Per-run result, journaled as one line of single-object JSON.
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

/// The campaign job (see module docs).
pub struct Campaign;

impl FleetJob for Campaign {
    type Input = Spec;
    type Output = Out;

    fn key(&self, s: &Spec) -> String {
        // load is part of the key: a manifest from a different load must
        // not satisfy this fleet's runs
        format!("s{}f{}l{}", s.seed, s.faults, s.load)
    }

    fn run(&self, spec: &Spec) -> Out {
        let mesh = Mesh2D::new(SIDE, SIDE);
        let plan = FaultPlan::random_transient_links(
            &mesh,
            spec.faults,
            FAULT_WINDOW,
            REPAIR_AFTER,
            spec.seed,
        );
        let b = Network::builder(Arc::new(mesh.clone()))
            .fault_plan(plan)
            .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 });
        let diag = Arc::new(DiagnoserSink::default());
        let capture = results::Capture::open(
            &format!("fleet_s{}_f{}", spec.seed, spec.faults),
            FtbHeader::new()
                .with("geometry", format!("mesh{SIDE}x{SIDE}"))
                .with("seed", spec.seed)
                .with("faults", spec.faults)
                .with("load", spec.load),
            vec![diag.clone()],
        );
        let mut net = capture.attach(b).build(&Nafta::new(mesh.clone())).expect("valid config");
        net.set_measuring(true);

        let mut tf = TrafficSource::new(Pattern::Uniform, spec.load, MSG_LEN, spec.seed ^ 0x5ca1e);
        crate::harness::drive(&mut net, &mut tf, WARM_CYCLES);
        let drained = net.drain(DRAIN_BUDGET);
        diag.scan_now();

        // hard invariants — a panic here is attributed to this run's key
        let s = &net.stats;
        assert!(s.accounting_balanced(), "message accounting out of balance");
        assert!(drained, "network failed to drain within {DRAIN_BUDGET} cycles");
        assert!(!s.deadlock, "watchdog reported deadlock");
        assert!(diag.deadlock().is_none(), "online diagnoser reported deadlock");
        let trace_events = capture.finish();

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
            trace_events,
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
        let line = Campaign.encode(&out);
        assert!(!line.contains('\n'));
        let back = Campaign.decode(&line).unwrap();
        assert_eq!(back.delivered, 299);
        assert_eq!(back.latency_sum, 4800);
        assert!((back.delivery_ratio() - 299.0 / 300.0).abs() < 1e-12);
        assert!(Campaign.decode("{\"injected\":1}").is_err(), "missing fields are torn lines");
        assert!(Campaign.decode("{\"injected\":1").is_err(), "truncated JSON is a torn line");
    }

    #[test]
    fn keys_are_whitespace_free_and_distinct() {
        let specs = specs(10, 0.12);
        let keys: std::collections::HashSet<String> =
            specs.iter().map(|s| Campaign.key(s)).collect();
        assert_eq!(keys.len(), 10);
        assert!(keys.iter().all(|k| !k.contains(char::is_whitespace)));
    }

    #[test]
    fn one_run_executes_with_invariants() {
        let out = Campaign.run(&Spec { seed: 1, faults: 4, load: 0.1 });
        assert!(out.injected > 0);
        assert!(out.delivery_ratio() >= 0.99);
    }
}
