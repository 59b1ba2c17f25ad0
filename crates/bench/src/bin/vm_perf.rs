//! Experiment E20 — direct-threaded bytecode backend performance: the
//! wall-clock saved by replacing AST-walking premise evaluation with the
//! flat `ftr-vm` op stream, while every routing decision stays
//! bit-identical.
//!
//! Two layers of measurement:
//!
//! * **Micro** — one isolated routing decision (XY entry base, a spread
//!   of destinations/link states), fired back-to-back on the table
//!   interpreter, the bytecode VM and the reference evaluator. This is the
//!   per-decision headline, undiluted by flit movement. Which executor is
//!   fastest is recorded, not asserted: all three share the leaves
//!   (register and input reads, set operations, the effects frame), so the
//!   gap between them is the walk alone.
//! * **Campaign** — full simulations on the paper's campaign
//!   configurations: NAFTA on the 6x6 mesh with transient link faults
//!   and source retransmission (the E15 setup), and rule-driven ROUTE_C
//!   on a hypercube with a node fault. Each program runs four arms —
//!   {table, bytecode} × {as compiled, E18-optimized with `StepWeights`}
//!   — over one pre-drawn injection schedule; all four `SimStats` must
//!   be equal (the backend/optimizer identity contracts, checked on live
//!   traffic) while the wall clock is timed per arm.
//!
//! `vm_perf [--smoke]` — smoke mode shrinks the schedules for CI.
//! Results go to `results/BENCH_vm.json`.

use ftr_analyze::{opt, TopoFacts};
use ftr_bench::harness;
use ftr_core::{configure, CubeRuleRouter, RouterConfiguration, RuleRouter};
use ftr_obs::json;
use ftr_rules::{fire_reference, Backend, InputMap, RegFile, Value};
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, SimStats, TrafficSource};
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, Topology};
use std::sync::Arc;
use std::time::Instant;

const SIDE: u32 = 6;
const CUBE_DIM: u32 = 4;
const MSG_LEN: u32 = 16;
const LOAD: f64 = 0.15;
const SEED: u64 = 7919;
/// Timing repetitions per arm; the minimum is reported (classic
/// min-of-N to strip scheduler noise from a deterministic workload).
const REPS: usize = 3;

// ---------------------------------------------------------------- micro

struct Micro {
    fires: u64,
    table_ns: f64,
    bytecode_ns: f64,
    reference_ns: f64,
}

impl Micro {
    fn speedup(&self) -> f64 {
        if self.bytecode_ns == 0.0 {
            0.0
        } else {
            self.table_ns / self.bytecode_ns
        }
    }
}

/// Per-decision cost of the XY entry base: same spread of inputs as the
/// E9 criterion bench, timed over `fires` back-to-back interpretations.
fn micro_decision(fires: u64) -> Micro {
    let cfg = configure("xy", ftr_algos::rules_src::XY).expect("xy compiles");
    let prog = &cfg.compiled.prog;
    let vm = ftr_rules::VmProgram::lower(&cfg.compiled).expect("xy lowers");
    let mut regs = RegFile::new(prog);
    // node (2, 3)
    regs.write(prog, 0, &[], Value::Int(2)).unwrap();
    regs.write(prog, 1, &[], Value::Int(3)).unwrap();
    let mut inputs = Vec::new();
    for i in 0..16u8 {
        let mut im = InputMap::new();
        im.set(prog, "xdes", &[], Value::Int((i % 8) as i64)).unwrap();
        im.set(prog, "ydes", &[], Value::Int((i / 2 % 8) as i64)).unwrap();
        for d in 0..4 {
            im.set(prog, "free", &[Value::Int(d)], Value::Bool((i >> (d as u8 % 4)) & 1 == 0))
                .unwrap();
            im.set(prog, "linkok", &[Value::Int(d)], Value::Bool(true)).unwrap();
        }
        inputs.push(im);
    }

    let base = &cfg.compiled.bases[0];
    let mut r = regs.clone();
    let mut table_ns = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for i in 0..fires {
            let im = &inputs[(i % 16) as usize];
            std::hint::black_box(base.fire(prog, &[], &mut r, im).expect("table fires"));
        }
        table_ns = table_ns.min(t0.elapsed().as_nanos() as f64 / fires as f64);
    }

    let mut sc = ftr_rules::vm::Scratch::new();
    let mut r2 = regs.clone();
    let mut bytecode_ns = f64::INFINITY;
    for _ in 0..REPS {
        let t1 = Instant::now();
        for i in 0..fires {
            let im = &inputs[(i % 16) as usize];
            std::hint::black_box(
                vm.bases[0].fire(prog, &[], &mut r2, im, &mut sc).expect("vm fires"),
            );
        }
        bytecode_ns = bytecode_ns.min(t1.elapsed().as_nanos() as f64 / fires as f64);
    }

    let mut r3 = regs.clone();
    let mut reference_ns = f64::INFINITY;
    for _ in 0..REPS {
        let t2 = Instant::now();
        for i in 0..fires {
            let im = &inputs[(i % 16) as usize];
            std::hint::black_box(fire_reference(prog, 0, &[], &mut r3, im).expect("reference"));
        }
        reference_ns = reference_ns.min(t2.elapsed().as_nanos() as f64 / fires as f64);
    }

    assert!(r == r2 && r == r3, "micro arms must leave identical register state");
    Micro { fires, table_ns, bytecode_ns, reference_ns }
}

// ------------------------------------------------------------- campaign

/// One program's four configuration arms.
struct Arms {
    table: RouterConfiguration,
    bytecode: RouterConfiguration,
    table_opt: RouterConfiguration,
    bytecode_opt: RouterConfiguration,
    rewrites: usize,
}

fn arms(name: &str, src: &str, topo: Option<TopoFacts>) -> Arms {
    let table = configure(name, src).expect("program compiles");
    let table = table.with_backend(Backend::Table).expect("table backend");
    let bytecode = configure(name, src)
        .expect("program compiles")
        .with_backend(Backend::Bytecode)
        .expect("lowers");
    let oopts = opt::OptOptions { topo: topo.unwrap_or_default(), ..opt::OptOptions::default() };
    let optimized =
        opt::optimize_rulebase(name, &table.compiled.prog, &oopts).expect("program optimizes");
    let rewrites = optimized.cert.rewrites.len();
    let table_opt = RouterConfiguration::from_compiled(name, optimized.compiled.clone())
        .expect("optimized program costs out")
        .with_step_weights(optimized.step_weights.clone())
        .with_backend(Backend::Table)
        .expect("table backend");
    let bytecode_opt = RouterConfiguration::from_compiled(name, optimized.compiled)
        .expect("optimized program costs out")
        .with_step_weights(optimized.step_weights)
        .with_backend(Backend::Bytecode)
        .expect("lowers");
    Arms { table, bytecode, table_opt, bytecode_opt, rewrites }
}

type Schedule = Vec<Vec<(NodeId, NodeId, u32)>>;

fn schedule(topo: &dyn Topology, load: f64, cycles: u64, seed: u64) -> Schedule {
    let faults = FaultSet::new();
    let mut tf = TrafficSource::new(Pattern::Uniform, load, MSG_LEN, seed);
    (0..cycles).map(|_| tf.tick(topo, &faults)).collect()
}

/// Runs one arm over `sched` and times the simulation loop (network
/// construction excluded — the backend's cost is per decision, not per
/// build).
fn timed_run(mut net: Network, sched: &Schedule) -> (SimStats, f64) {
    net.set_measuring(true);
    let t0 = Instant::now();
    for cycle in sched {
        for &(s, d, l) in cycle {
            let _ = net.send(s, d, l);
        }
        net.step();
    }
    net.drain(200_000);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (net.stats, wall_ms)
}

struct CampaignReport {
    name: &'static str,
    topology: String,
    cycles: u64,
    rewrites: usize,
    delivered: u64,
    // (label, wall_ms) in arm order: table, bytecode, table_opt, bytecode_opt
    walls: [(&'static str, f64); 4],
}

impl CampaignReport {
    fn speedup_plain(&self) -> f64 {
        self.walls[0].1 / self.walls[1].1
    }
    fn speedup_optimized(&self) -> f64 {
        self.walls[2].1 / self.walls[3].1
    }
}

/// A two-network mesh program (`vcs` = 2: the NARA pair) on the campaign mesh.
fn mesh_campaign(name: &'static str, src: &str, cycles: u64) -> CampaignReport {
    let mesh = Mesh2D::new(SIDE, SIDE);
    let a = arms(name, src, Some(TopoFacts::mesh(SIDE, SIDE)));
    let sched = schedule(&mesh, LOAD, cycles, SEED ^ 0x5ca1e);
    let build = |cfg: &RouterConfiguration| {
        let algo = RuleRouter::new(cfg.clone(), mesh.clone(), 2);
        Network::builder(Arc::new(mesh.clone()))
            .fault_plan(FaultPlan::random_transient_links(&mesh, 6, 100..450, 120, SEED))
            .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
            .build(&algo)
            .expect("valid config")
    };
    run_arms(name, format!("{SIDE}x{SIDE} mesh, 6 transient link faults"), cycles, a, &sched, build)
}

fn cube_campaign(name: &'static str, cycles: u64) -> CampaignReport {
    let cube = Hypercube::new(CUBE_DIM);
    let src = ftr_algos::rules_src::route_c_source(CUBE_DIM);
    let a = arms(name, &src, None);
    let sched = schedule(&cube, 0.1, cycles, SEED ^ 0xc0be);
    let build = |cfg: &RouterConfiguration| {
        let algo = CubeRuleRouter::new(cfg.clone(), cube.clone());
        let mut net = Network::builder(Arc::new(cube.clone())).build(&algo).expect("valid config");
        net.inject_node_fault(NodeId(5));
        net.settle_control(10_000).expect("control settles");
        net
    };
    run_arms(name, format!("{CUBE_DIM}-cube, 1 node fault"), cycles, a, &sched, build)
}

fn run_arms(
    name: &'static str,
    topology: String,
    cycles: u64,
    arms: Arms,
    sched: &Schedule,
    build: impl Fn(&RouterConfiguration) -> Network,
) -> CampaignReport {
    let labeled = [
        ("table", &arms.table),
        ("bytecode", &arms.bytecode),
        ("table_opt", &arms.table_opt),
        ("bytecode_opt", &arms.bytecode_opt),
    ];
    let mut stats: Vec<SimStats> = Vec::new();
    let mut walls = [("", 0.0); 4];
    for (i, (label, cfg)) in labeled.iter().enumerate() {
        let mut best = f64::INFINITY;
        let mut kept = None;
        for _ in 0..REPS {
            let (s, ms) = timed_run(build(cfg), sched);
            best = best.min(ms);
            if let Some(prev) = &kept {
                assert_eq!(prev, &s, "{name} {label}: repetition diverged — sim not deterministic");
            }
            kept = Some(s);
        }
        let s = kept.expect("at least one repetition");
        println!(
            "{name:>10} {label:>14}  {best:>9.1} ms  delivered {:>6}  decision_steps.max {}",
            s.delivered_msgs, s.decision_steps.max
        );
        walls[i] = (label, best);
        stats.push(s);
    }
    // the identity contracts, on live traffic: every arm — bytecode,
    // optimizer, both at once — must report the same SimStats, including
    // the StepWeights-modeled decision_steps
    for (i, s) in stats.iter().enumerate().skip(1) {
        assert_eq!(&stats[0], s, "{name}: arm {} diverged from the table baseline", walls[i].0);
    }
    assert!(stats[0].delivered_msgs > 0, "{name}: campaign must deliver traffic");
    CampaignReport {
        name,
        topology,
        cycles,
        rewrites: arms.rewrites,
        delivered: stats[0].delivered_msgs,
        walls,
    }
}

fn report_json(r: &CampaignReport) -> String {
    let mut o = json::Obj::new();
    o.str("program", r.name)
        .str("topology", &r.topology)
        .num("cycles", r.cycles)
        .num("rewrites", r.rewrites as u64)
        .num("delivered_msgs", r.delivered)
        .bool("bit_identical", true) // asserted across all four arms above
        .float("speedup_plain", r.speedup_plain())
        .float("speedup_optimized", r.speedup_optimized());
    for (label, ms) in &r.walls {
        o.float(&format!("wall_ms_{label}"), *ms);
    }
    o.finish()
}

fn main() {
    let smoke = harness::Args::parse().smoke();
    let cycles = if smoke { 400 } else { 3_000 };
    let fires = if smoke { 200_000 } else { 2_000_000 };
    println!(
        "# E20 vm_perf: campaign {cycles} cycles per arm, micro {fires} fires (smoke={smoke})"
    );

    let micro = micro_decision(fires);
    println!(
        "# micro (xy decision): table {:.0}, bytecode {:.0}, reference {:.0} ns/fire  \
         (table/bytecode {:.2}x)",
        micro.table_ns,
        micro.bytecode_ns,
        micro.reference_ns,
        micro.speedup()
    );

    let reports = [
        mesh_campaign("nafta", ftr_algos::rules_src::NAFTA, cycles),
        cube_campaign("route_c", cycles),
    ];
    for r in &reports {
        println!(
            "# {}: sim wall-clock speedup {:.2}x plain, {:.2}x optimized",
            r.name,
            r.speedup_plain(),
            r.speedup_optimized()
        );
    }

    let mut micro_obj = json::Obj::new();
    micro_obj
        .str("program", "xy")
        .num("fires", micro.fires)
        .float("table_ns_per_fire", micro.table_ns)
        .float("bytecode_ns_per_fire", micro.bytecode_ns)
        .float("reference_ns_per_fire", micro.reference_ns)
        .float("speedup", micro.speedup());

    let mut root = json::Obj::new();
    root.str("experiment", "E20")
        .str("binary", "vm_perf")
        .bool("smoke", smoke)
        .num("campaign_cycles", cycles)
        .num("msg_len", MSG_LEN as i64)
        .field("micro", micro_obj.finish())
        .field("campaigns", json::array(reports.iter().map(report_json)));
    harness::export("BENCH_vm", &root.finish());
}
