//! Sim-level acceptance of the certified optimizer: on the E15 campaign
//! configuration (6x6 NAFTA mesh, transient link faults with repair,
//! source retransmission, live uniform traffic) the optimized program
//! must leave `SimStats` bit-identical to the program compiled straight
//! from source — same deliveries, kills, retries, latencies, and (via
//! the installed `StepWeights`) the same modeled `decision_steps` — and
//! the trace stream bit-identical too.

use ftr_analyze::{opt, TopoFacts};
use ftr_core::{configure, RouterConfiguration, RuleRouter};
use ftr_obs::{TraceEvent, TraceSink};
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, SimStats, TrafficSource};
use ftr_topo::Mesh2D;
use std::sync::{Arc, Mutex};

const SIDE: u32 = 6;
const WARM_CYCLES: u64 = 600;
const MSG_LEN: u32 = 16;
const LOAD: f64 = 0.15;

/// Order-sensitive digest of the trace stream: every event folds its
/// debug rendering into an FNV-1a accumulator, so two runs compare whole
/// streams without buffering them (a campaign run emits far too many
/// events to retain).
struct DigestSink(Mutex<(u64, u64)>); // (fnv-1a hash, event count)

impl TraceSink for DigestSink {
    fn record(&self, ev: &TraceEvent) {
        let line = format!("{ev:?}");
        let mut g = self.0.lock().unwrap();
        for b in line.as_bytes() {
            g.0 = (g.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        g.1 += 1;
    }
}

/// One E15 campaign cell, traced: the final stats and the trace digest.
fn campaign_run(
    mesh: &Mesh2D,
    algo: &RuleRouter,
    faults: usize,
    seed: u64,
) -> (SimStats, (u64, u64)) {
    let sink = Arc::new(DigestSink(Mutex::new((0xcbf2_9ce4_8422_2325, 0))));
    let plan = FaultPlan::random_transient_links(mesh, faults, 100..450, 120, seed);
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .fault_plan(plan)
        .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
        .trace(sink.clone())
        .build(algo)
        .expect("valid config");
    net.set_measuring(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, LOAD, MSG_LEN, seed ^ 0x5ca1e);
    for _ in 0..WARM_CYCLES {
        for (s, d, l) in tf.tick(mesh, net.faults()) {
            let _ = net.send(s, d, l);
        }
        net.step();
    }
    net.drain(60_000);
    let digest = *sink.0.lock().unwrap();
    (net.stats, digest)
}

#[test]
fn optimized_nafta_is_bit_identical_on_the_campaign_config() {
    let mesh = Mesh2D::new(SIDE, SIDE);
    let baseline = configure("nafta", ftr_algos::rules_src::NAFTA).unwrap();
    let oopts = opt::OptOptions { topo: TopoFacts::mesh(SIDE, SIDE), ..opt::OptOptions::default() };
    let optimized = opt::optimize_rulebase("nafta", &baseline.compiled.prog, &oopts).unwrap();
    assert!(!optimized.cert.rewrites.is_empty(), "NAFTA must actually get rewritten");
    let opt_cfg = RouterConfiguration::from_compiled("nafta", optimized.compiled.clone())
        .unwrap()
        .with_step_weights(optimized.step_weights.clone());
    assert!(opt_cfg.optimized);

    for (faults, seed) in [(0usize, 1u64), (6, 7919), (10, 15838)] {
        let base_algo = RuleRouter::for_mesh(baseline.clone(), mesh.clone());
        let opt_algo = RuleRouter::for_mesh(opt_cfg.clone(), mesh.clone());
        let (a, ta) = campaign_run(&mesh, &base_algo, faults, seed);
        let (b, tb) = campaign_run(&mesh, &opt_algo, faults, seed);
        assert!(a.injected_msgs > 0, "campaign must inject traffic");
        assert_eq!(a, b, "faults={faults} seed={seed}: optimized campaign stats diverged");
        assert!(ta.1 > 0, "campaign must emit trace events");
        assert_eq!(ta, tb, "faults={faults} seed={seed}: optimized trace stream diverged");
    }
}
