//! Sim-level acceptance of the certified optimizer: on the E15 campaign
//! configuration (6x6 NAFTA mesh, transient link faults with repair,
//! source retransmission, live uniform traffic) the optimized program
//! must leave `SimStats` bit-identical to the program compiled straight
//! from source — same deliveries, kills, retries, latencies, and (via
//! the installed `StepWeights`) the same modeled `decision_steps`.

use ftr_analyze::{opt, TopoFacts};
use ftr_core::{configure, RouterConfiguration, RuleRouter};
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, SimStats, TrafficSource};
use ftr_topo::Mesh2D;
use std::sync::Arc;

const SIDE: u32 = 6;
const WARM_CYCLES: u64 = 600;
const MSG_LEN: u32 = 16;
const LOAD: f64 = 0.15;

fn campaign_run(mesh: &Mesh2D, algo: &RuleRouter, faults: usize, seed: u64) -> SimStats {
    let plan = FaultPlan::random_transient_links(mesh, faults, 100..450, 120, seed);
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .fault_plan(plan)
        .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
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
    net.stats
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
        let base_algo = RuleRouter::new(baseline.clone(), mesh.clone(), 2);
        let opt_algo = RuleRouter::new(opt_cfg.clone(), mesh.clone(), 2);
        let a = campaign_run(&mesh, &base_algo, faults, seed);
        let b = campaign_run(&mesh, &opt_algo, faults, seed);
        assert!(a.injected_msgs > 0, "campaign must inject traffic");
        assert_eq!(a, b, "faults={faults} seed={seed}: optimized campaign stats diverged");
    }
}
