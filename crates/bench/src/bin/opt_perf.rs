//! Experiment E18 — certified-optimizer performance: interpreter work
//! saved by the table rewrites while every routing decision stays
//! bit-identical.
//!
//! For each mesh rule program the harness drives two rule-driven
//! networks over one pre-drawn injection schedule: the program as
//! compiled from source, and the output of
//! `ftr_analyze::opt::optimize_rulebase` (with its `StepWeights`
//! installed, so the *modeled* `decision_steps` statistic keeps the
//! original program's latency semantics). The final `SimStats` of both
//! runs must be equal — the optimizer's decision-identity contract,
//! checked on live traffic rather than isolated fires — while the
//! tagged `InterpProfiler`s count the *physical* rule interpretations
//! each run actually executed.
//!
//! The headline is NAFTA: fusing its three-deep decision chain
//! (incoming_message → in_message_ft → test_exception) plus the
//! constant-register/dead-rule rewrites cuts physical interpretations
//! per decision by well over the 10% CI gate.
//!
//! `opt_perf [--smoke]` — smoke mode shrinks the schedule for CI.
//! Results go to `results/BENCH_opt.json`.

use ftr_analyze::{opt, TopoFacts};
use ftr_bench::harness;
use ftr_core::{configure, RouterConfiguration, RuleRouter};
use ftr_obs::{json, InterpProfiler};
use ftr_sim::{Network, Pattern, SimStats, TrafficSource};
use ftr_topo::{Mesh2D, NodeId};
use std::sync::Arc;

const SIDE: u32 = 6;
const MSG_LEN: u32 = 8;
const SEED: u64 = 0x0f7e18;
// 0.2 keeps the single-VC mesh below saturation so every schedule drains
const LOADS: [f64; 2] = [0.1, 0.2];

type Schedule = Vec<Vec<(NodeId, NodeId, u32)>>;

fn schedule(mesh: &Mesh2D, load: f64, cycles: u64) -> Schedule {
    let faults = ftr_topo::FaultSet::new();
    let mut tf = TrafficSource::new(Pattern::Uniform, load, MSG_LEN, SEED);
    (0..cycles).map(|_| tf.tick(mesh, &faults)).collect()
}

fn replay(algo: &RuleRouter, mesh: &Mesh2D, sched: &Schedule) -> SimStats {
    let mut net = Network::builder(Arc::new(mesh.clone())).build(algo).expect("valid config");
    net.set_measuring(true);
    for cycle in sched {
        for &(s, d, l) in cycle {
            net.send(s, d, l).expect("healthy fabric accepts");
        }
        net.step();
    }
    assert!(net.drain(200_000), "drain budget exhausted");
    net.stats
}

struct Point {
    load: f64,
    baseline_steps: u64,
    optimized_steps: u64,
}

impl Point {
    fn reduction_pct(&self) -> f64 {
        if self.baseline_steps == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.optimized_steps as f64 / self.baseline_steps as f64)
        }
    }
}

struct ProgReport {
    name: &'static str,
    rewrites: usize,
    table_bits_before: u64,
    table_bits_after: u64,
    points: Vec<Point>,
}

impl ProgReport {
    /// Schedule-weighted physical-interpretation reduction.
    fn reduction_pct(&self) -> f64 {
        let base: u64 = self.points.iter().map(|p| p.baseline_steps).sum();
        let opt: u64 = self.points.iter().map(|p| p.optimized_steps).sum();
        if base == 0 {
            0.0
        } else {
            100.0 * (1.0 - opt as f64 / base as f64)
        }
    }
}

fn measure(name: &'static str, src: &str, vcs: usize, mesh: &Mesh2D, cycles: u64) -> ProgReport {
    let baseline = configure(name, src).expect("program compiles");
    let prog = &baseline.compiled.prog;
    let oopts = opt::OptOptions { topo: TopoFacts::mesh(SIDE, SIDE), ..opt::OptOptions::default() };
    let optimized = opt::optimize_rulebase(name, prog, &oopts).expect("program optimizes");
    opt::verify(prog, &optimized, &oopts).expect("certificate replays");
    let opt_cfg = RouterConfiguration::from_compiled(name, optimized.compiled.clone())
        .expect("optimized program costs out")
        .with_step_weights(optimized.step_weights.clone());

    let mut report = ProgReport {
        name,
        rewrites: optimized.cert.rewrites.len(),
        table_bits_before: baseline.cost.total_table_bits(),
        table_bits_after: opt_cfg.cost.total_table_bits(),
        points: Vec::new(),
    };
    for load in LOADS {
        let sched = schedule(mesh, load, cycles);

        let base_prof = Arc::new(InterpProfiler::with_tag("baseline"));
        let base_algo =
            RuleRouter::new(baseline.clone(), mesh.clone(), vcs).with_profiler(base_prof.clone());
        let base_stats = replay(&base_algo, mesh, &sched);

        let opt_prof = Arc::new(InterpProfiler::with_tag("optimized"));
        let opt_algo =
            RuleRouter::new(opt_cfg.clone(), mesh.clone(), vcs).with_profiler(opt_prof.clone());
        let opt_stats = replay(&opt_algo, mesh, &sched);

        // the optimizer's contract, checked on live traffic: same
        // deliveries, same paths, same latencies, same *modeled*
        // decision_steps — only the physical interpretation count drops
        assert_eq!(
            base_stats, opt_stats,
            "{name} load {load}: optimized run diverged from baseline"
        );
        let p = Point {
            load,
            baseline_steps: base_prof.interpretations(),
            optimized_steps: opt_prof.interpretations(),
        };
        println!(
            "{name:>12}  load {load:>4.2}  interpretations {:>9} -> {:>9}  (-{:>5.1}%)  \
             delivered {}",
            p.baseline_steps,
            p.optimized_steps,
            p.reduction_pct(),
            base_stats.delivered_msgs,
        );
        report.points.push(p);
    }
    report
}

fn report_json(r: &ProgReport) -> String {
    let points: Vec<String> = r
        .points
        .iter()
        .map(|p| {
            let mut o = json::Obj::new();
            o.float("load", p.load)
                .num("baseline_interpretations", p.baseline_steps)
                .num("optimized_interpretations", p.optimized_steps)
                .float("reduction_pct", p.reduction_pct());
            o.finish()
        })
        .collect();
    let mut o = json::Obj::new();
    o.str("program", r.name)
        .num("rewrites", r.rewrites as u64)
        .num("table_bits_before", r.table_bits_before)
        .num("table_bits_after", r.table_bits_after)
        .bool("bit_identical", true) // asserted per load point above
        .float("decision_steps_reduction_pct", r.reduction_pct())
        .field("points", json::array(points));
    o.finish()
}

fn main() {
    let smoke = harness::Args::parse().smoke();
    let cycles = if smoke { 500 } else { 4_000 };
    println!("# E18 opt_perf: {SIDE}x{SIDE} mesh, {cycles} cycles per load point (smoke={smoke})");

    let mesh = Mesh2D::new(SIDE, SIDE);
    let reports = [
        measure("nafta", ftr_algos::rules_src::NAFTA, 2, &mesh, cycles),
        measure("xy", ftr_algos::rules_src::XY, 1, &mesh, cycles),
        measure("west_first", ftr_algos::rules_src::WEST_FIRST, 1, &mesh, cycles),
    ];

    let nafta = &reports[0];
    println!(
        "# headline: NAFTA physical interpretations -{:.1}% ({} rewrites), decisions bit-identical",
        nafta.reduction_pct(),
        nafta.rewrites
    );
    assert!(
        nafta.reduction_pct() >= 10.0,
        "NAFTA interpretation reduction {:.1}% misses the 10% bar",
        nafta.reduction_pct()
    );

    let mut root = json::Obj::new();
    root.str("experiment", "E18")
        .str("binary", "opt_perf")
        .bool("smoke", smoke)
        .num("cycles_per_point", cycles)
        .num("msg_len", MSG_LEN as i64)
        .float("nafta_reduction_pct", nafta.reduction_pct())
        .field("programs", json::array(reports.iter().map(report_json)));
    harness::export("BENCH_opt", &root.finish());
}
