//! Sim-level acceptance of the bytecode VM backend: on live traffic the
//! bytecode arm must be observationally indistinguishable from the table
//! interpreter — bit-identical `SimStats` (deliveries, kills, retries,
//! latencies, and the modeled `decision_steps`) *and* bit-identical trace
//! streams — across the rule-program algo suite:
//!
//! * NAFTA on the full E15 campaign matrix (6x6 mesh, transient link
//!   faults with repair, source retransmission), traced;
//! * NAFTA through the E18 optimizer with its `StepWeights` installed,
//!   so weight scaling composes with the bytecode backend;
//! * the mesh suite (xy, west_first, nafta, naive_adaptive) on a replayed
//!   injection schedule;
//! * rule-driven ROUTE_C on a hypercube with a node fault.
//!
//! Plus the `FTR_BACKEND` selector: the env var picks the backend at
//! configuration time (serialized through the workspace env lock).

use ftr_analyze::{opt, TopoFacts};
use ftr_core::{configure, CubeRuleRouter, RouterConfiguration, RuleRouter};
use ftr_obs::{TraceEvent, TraceSink};
use ftr_rules::Backend;
use ftr_sim::{
    FaultPlan, Network, Pattern, RetryPolicy, RoutingAlgorithm, SimStats, TrafficSource,
};
use ftr_topo::{Hypercube, Mesh2D, NodeId};
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

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink(Mutex::new((0xcbf2_9ce4_8422_2325, 0)))
    }
}

impl DigestSink {
    fn digest(&self) -> (u64, u64) {
        *self.0.lock().unwrap()
    }
}

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

fn table_and_bytecode(name: &str, src: &str) -> (RouterConfiguration, RouterConfiguration) {
    // pin both backends explicitly so an ambient FTR_BACKEND cannot skew
    // the comparison
    let table = configure(name, src).unwrap().with_backend(Backend::Table).unwrap();
    let bytecode = configure(name, src).unwrap().with_backend(Backend::Bytecode).unwrap();
    assert!(bytecode.bytecode.is_some(), "{name}: bytecode must be lowered once per config");
    (table, bytecode)
}

/// One E15 campaign cell, traced; returns the final stats and the trace
/// digest.
fn campaign_run(
    mesh: &Mesh2D,
    algo: &dyn RoutingAlgorithm,
    faults: usize,
    seed: u64,
) -> (SimStats, (u64, u64)) {
    let sink = Arc::new(DigestSink::default());
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
    (net.stats, sink.digest())
}

#[test]
fn bytecode_nafta_is_bit_identical_on_the_campaign_matrix() {
    let mesh = Mesh2D::new(SIDE, SIDE);
    let (table_cfg, byte_cfg) = table_and_bytecode("nafta", ftr_algos::rules_src::NAFTA);
    for (faults, seed) in [(0usize, 1u64), (6, 7919), (10, 15838)] {
        let t_algo = RuleRouter::new(table_cfg.clone(), mesh.clone(), 2);
        let b_algo = RuleRouter::new(byte_cfg.clone(), mesh.clone(), 2);
        let (t_stats, t_trace) = campaign_run(&mesh, &t_algo, faults, seed);
        let (b_stats, b_trace) = campaign_run(&mesh, &b_algo, faults, seed);
        assert!(t_stats.injected_msgs > 0, "campaign must inject traffic");
        assert_eq!(
            t_stats, b_stats,
            "faults={faults} seed={seed}: bytecode campaign stats diverged"
        );
        assert!(t_trace.1 > 0, "campaign must emit trace events");
        assert_eq!(t_trace, b_trace, "faults={faults} seed={seed}: bytecode trace stream diverged");
    }
}

#[test]
fn bytecode_composes_with_the_optimizer_and_step_weights() {
    // three arms on one campaign cell: plain table, optimized table with
    // StepWeights, optimized *bytecode* with the same StepWeights — the
    // modeled decision_steps must survive both rewritings at once
    let mesh = Mesh2D::new(SIDE, SIDE);
    let baseline = configure("nafta", ftr_algos::rules_src::NAFTA)
        .unwrap()
        .with_backend(Backend::Table)
        .unwrap();
    let oopts = opt::OptOptions { topo: TopoFacts::mesh(SIDE, SIDE), ..opt::OptOptions::default() };
    let optimized = opt::optimize_rulebase("nafta", &baseline.compiled.prog, &oopts).unwrap();
    let opt_table = RouterConfiguration::from_compiled("nafta", optimized.compiled.clone())
        .unwrap()
        .with_step_weights(optimized.step_weights.clone())
        .with_backend(Backend::Table)
        .unwrap();
    let opt_byte = RouterConfiguration::from_compiled("nafta", optimized.compiled)
        .unwrap()
        .with_step_weights(optimized.step_weights)
        .with_backend(Backend::Bytecode)
        .unwrap();

    let (faults, seed) = (6usize, 7919u64);
    let (a, ta) = campaign_run(&mesh, &RuleRouter::new(baseline, mesh.clone(), 2), faults, seed);
    let (b, tb) = campaign_run(&mesh, &RuleRouter::new(opt_table, mesh.clone(), 2), faults, seed);
    let (c, tc) = campaign_run(&mesh, &RuleRouter::new(opt_byte, mesh.clone(), 2), faults, seed);
    assert_eq!(a, b, "optimized table diverged from baseline");
    assert_eq!(a, c, "optimized bytecode diverged from baseline");
    assert_eq!(ta, tb, "optimized table trace diverged");
    assert_eq!(ta, tc, "optimized bytecode trace diverged");
}

#[test]
fn bytecode_matches_table_across_the_mesh_algo_suite() {
    // pre-drawn injection schedule replayed against both backends; the
    // suite includes the naive-adaptive negative exemplar, whose
    // (deterministic) pathologies must also reproduce bit-identically
    const CYCLES: u64 = 300;
    let mesh = Mesh2D::new(4, 4);
    let faults = ftr_topo::FaultSet::new();
    for (name, src, vcs) in [
        ("xy", ftr_algos::rules_src::XY, 1),
        ("west_first", ftr_algos::rules_src::WEST_FIRST, 1),
        ("nafta", ftr_algos::rules_src::NAFTA, 2),
        ("naive_adaptive", ftr_algos::rules_src::NAIVE_ADAPTIVE, 1),
    ] {
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 8, 0xa160 ^ name.len() as u64);
        let sched: Vec<Vec<_>> = (0..CYCLES).map(|_| tf.tick(&mesh, &faults)).collect();
        let (table_cfg, byte_cfg) = table_and_bytecode(name, src);
        let run = |cfg: RouterConfiguration| {
            let algo = RuleRouter::new(cfg, mesh.clone(), vcs);
            let sink = Arc::new(DigestSink::default());
            let mut net = Network::builder(Arc::new(mesh.clone()))
                .trace(sink.clone())
                .build(&algo)
                .expect("valid config");
            net.set_measuring(true);
            for cycle in &sched {
                for &(s, d, l) in cycle {
                    let _ = net.send(s, d, l);
                }
                net.step();
            }
            let _ = net.drain(30_000);
            (net.stats, sink.digest())
        };
        let t = run(table_cfg);
        let b = run(byte_cfg);
        assert!(t.0.injected_msgs > 0, "{name}: schedule must inject traffic");
        assert_eq!(t, b, "{name}: bytecode run diverged from table");
    }
}

#[test]
fn bytecode_matches_table_on_route_c_hypercube() {
    let dim = 4u32;
    let cube = Hypercube::new(dim);
    let src = ftr_algos::rules_src::route_c_source(dim);
    let (table_cfg, byte_cfg) = table_and_bytecode("route_c", &src);
    let run = |cfg: RouterConfiguration| {
        let algo = CubeRuleRouter::new(cfg, cube.clone());
        let sink = Arc::new(DigestSink::default());
        let mut net = Network::builder(Arc::new(cube.clone()))
            .trace(sink.clone())
            .build(&algo)
            .expect("valid config");
        net.inject_node_fault(NodeId(5));
        net.settle_control(10_000).expect("control settles");
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 9);
        for _ in 0..400 {
            for (s, d, l) in tf.tick(&cube, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(50_000), "cube campaign drains");
        (net.stats, sink.digest())
    };
    let t = run(table_cfg);
    let b = run(byte_cfg);
    assert!(t.0.delivered_msgs > 0, "cube campaign delivers");
    assert_eq!(t, b, "route_c: bytecode run diverged from table");
}

#[test]
fn ftr_backend_env_var_selects_the_backend_at_configuration_time() {
    let mut env = ftr_sim::envlock::EnvGuard::new();
    env.set("FTR_BACKEND", "bytecode");
    let cfg = configure("xy", ftr_algos::rules_src::XY).unwrap();
    assert_eq!(cfg.backend, Backend::Bytecode);
    assert!(cfg.bytecode.is_some(), "selector must lower the program");
    env.set("FTR_BACKEND", "table");
    let cfg = configure("xy", ftr_algos::rules_src::XY).unwrap();
    assert_eq!(cfg.backend, Backend::Table);
    assert!(cfg.bytecode.is_none());
    env.set("FTR_BACKEND", "quantum");
    let cfg = configure("xy", ftr_algos::rules_src::XY).unwrap();
    assert_eq!(cfg.backend, Backend::Table, "unknown values fall back to the table");
    env.remove("FTR_BACKEND");
    let cfg = configure("xy", ftr_algos::rules_src::XY).unwrap();
    assert_eq!(cfg.backend, Backend::Table, "unset defaults to the table");
}
