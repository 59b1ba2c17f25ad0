//! Sim-level acceptance of the certified optimizer: on a campaign cell
//! (`common::campaign_run`: 6x6 NAFTA mesh, transient link faults with
//! repair, source retransmission, live uniform traffic) the optimized
//! program must leave `SimStats` bit-identical to the program compiled
//! straight from source — same deliveries, kills, retries, latencies,
//! and (via the installed `StepWeights`) the same modeled
//! `decision_steps` — and the trace stream bit-identical too.

mod common;

use common::campaign_run;
use ftr_analyze::{opt, TopoFacts};
use ftr_bench::campaign::{self, SIDE};
use ftr_core::{configure, RouterConfiguration, RuleRouter};

#[test]
fn optimized_nafta_is_bit_identical_on_the_campaign_config() {
    let mesh = campaign::mesh();
    let baseline = configure("nafta", ftr_algos::rules_src::NAFTA).unwrap();
    let oopts = opt::OptOptions { topo: TopoFacts::mesh(SIDE, SIDE) };
    let optimized = opt::optimize_rulebase("nafta", &baseline.compiled.prog, &oopts).unwrap();
    assert!(!optimized.cert.rewrites.is_empty(), "NAFTA must actually get rewritten");
    let opt_cfg = RouterConfiguration::from_compiled("nafta", optimized.compiled.clone())
        .unwrap()
        .with_step_weights(optimized.step_weights.clone());
    assert!(opt_cfg.optimized());

    for (faults, seed) in [(0usize, 1u64), (6, 7919), (10, 15838)] {
        let base_algo = RuleRouter::for_mesh(baseline.clone(), mesh.clone());
        let opt_algo = RuleRouter::for_mesh(opt_cfg.clone(), mesh.clone());
        let (a, ta) = campaign_run(&base_algo, faults, seed);
        let (b, tb) = campaign_run(&opt_algo, faults, seed);
        assert!(a.injected_msgs > 0, "campaign must inject traffic");
        assert_eq!(a, b, "faults={faults} seed={seed}: optimized campaign stats diverged");
        assert!(ta.1 > 0, "campaign must emit trace events");
        assert_eq!(ta, tb, "faults={faults} seed={seed}: optimized trace stream diverged");
    }
}
