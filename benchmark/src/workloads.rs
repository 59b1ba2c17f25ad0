//! The seven workloads. Each is one function that performs a single
//! repetition — set-up, timed region, correctness checks — on inputs drawn
//! from the seed, and returns what it measured. The runner decides how
//! many repetitions to make and whether the [`Tracer`] records.
//!
//! Why each workload exists is stated once, in [`WORKLOADS`]; the sizes
//! are chosen so that a repetition takes 0.2–1.3 s on the 2-core reference
//! host (2.6 s on the large mesh), which lets a 15-second run report a
//! median over 5–70 of them.

use crate::schedule::Schedule;
use crate::shims::{CtlTotals, TimedAlgo, TimedSink};
use crate::spans::Tracer;
use crate::stats::{percentile, Fnv, Hot};
use ftr_algos::{rules_src, Nafta, XyRouting};
use ftr_analyze::{opt, MeshVcMode, TopoFacts};
use ftr_core::{configure, CubeRuleRouter, RouterConfiguration, RuleRouter};
use ftr_obs::{BinSink, FtbHeader, TeeSink, TraceSink};
use ftr_rules::{compile, cost, parse, CompileOptions, VmProgram};
use ftr_sim::{
    DetectorConfig, FaultPlan, Network, NetworkBuilder, RetryPolicy, RoutingAlgorithm, SimStats,
    WithDetection,
};
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, Topology};
use ftr_trace::{DiagnoserSink, EventReader, JourneyBook, TraceReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values of one traced repetition, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the runner hands every repetition.
pub struct Ctx {
    /// Workload seed: schedules and fault plans derive from it.
    pub seed: u64,
    /// Size divisor: 1, or 20 under `--smoke`.
    pub div: u64,
    /// Calibrated cost of one clock read, subtracted from hot aggregates.
    pub clock_ns: f64,
    /// Median `wall_s` of the untraced repetitions made so far (0 before
    /// the first): the baseline the traced pass compares against.
    pub baseline_wall_s: f64,
    /// Directory for captures; the runner removes it on exit.
    pub tmp: PathBuf,
}

impl Ctx {
    fn cut(&self, n: u64) -> u64 {
        (n / self.div).max(1)
    }
}

/// The simulated outcome of a repetition. Deterministic per seed: every
/// repetition of a run, traced or not, must produce the same value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimOut {
    /// Simulated cycles inside the timed region.
    pub cycles: u64,
    /// `len x hops` summed over delivered messages.
    pub flit_hops: u64,
    /// Messages offered.
    pub offered: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Sum and count of delivered-message latencies, in cycles.
    pub latency: (u64, u64),
    /// Sum and count of interpretation steps per routing decision.
    pub steps: (u64, u64),
    /// FNV digest of the final statistics.
    pub digest: u64,
}

impl SimOut {
    fn absorb(&mut self, o: &SimOut) {
        self.cycles += o.cycles;
        self.flit_hops += o.flit_hops;
        self.offered += o.offered;
        self.delivered += o.delivered;
        self.latency = (self.latency.0 + o.latency.0, self.latency.1 + o.latency.1);
        self.steps = (self.steps.0 + o.steps.0, self.steps.1 + o.steps.1);
        let mut h = Fnv(self.digest);
        h.word(o.digest);
        self.digest = h.0;
    }
}

/// One repetition's measurements.
pub struct RepOut {
    /// Everything before the timed region.
    pub setup_s: f64,
    /// The timed region.
    pub wall_s: f64,
    /// Simulated outcome.
    pub sim: SimOut,
    /// Per-layer metrics (empty unless the tracer records).
    pub layers: Layers,
}

/// A named workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Whether a run starts with one untimed repetition. Not on the large
    /// mesh, where it would cost a fifth of the run.
    pub warm_up: bool,
    /// Performs one repetition.
    pub rep: fn(&Ctx, &mut Tracer) -> Result<RepOut, String>,
}

/// Every workload, in the order they are run and documented.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "mesh6_nafta_sat",
        why: "6x6 native NAFTA beyond saturation: every buffer full, link/switch/credit work in sim dominates",
        warm_up: true,
        rep: |c, t| mesh6_nafta(c, t, 0.6, 14_000),
    },
    Workload {
        name: "mesh6_nafta_idle",
        why: "same fabric at load 0.02: almost no flits move, the fixed per-cycle cost of Network::step is the run",
        warm_up: true,
        rep: |c, t| mesh6_nafta(c, t, 0.02, 100_000),
    },
    Workload {
        name: "cube4_routec_rules",
        why: "rule-driven ROUTE_C on a 4-cube with short worms: core+rules interpretation per decision dominates",
        warm_up: true,
        rep: cube4_routec_rules,
    },
    Workload {
        name: "mesh6_fleet_detect",
        why: "many short runs with silent faults, heartbeat detection and retry: build, control plane and fault surface dominate",
        warm_up: true,
        rep: mesh6_fleet_detect,
    },
    Workload {
        name: "mesh256_xy_sparse",
        why: "65536 routers at low load: working set beyond cache, only arena layout and active-set upkeep decide",
        warm_up: false,
        rep: mesh256_xy_sparse,
    },
    Workload {
        name: "mesh6_nafta_traced",
        why: "tracing on: FTB encode/write, event construction, online diagnosis, then offline replay of the capture",
        warm_up: true,
        rep: mesh6_nafta_traced,
    },
    Workload {
        name: "toolchain",
        why: "cold start: parse, compile, cost, lower, lint, optimize and verify the shipped programs, then bring each mesh program up",
        warm_up: true,
        rep: toolchain,
    },
];

const MSG_LEN_MESH6: u32 = 8;

fn digest_stats(s: &SimStats) -> u64 {
    let mut h = Fnv::default();
    let accums = [s.latency, s.hops, s.latency_direct, s.latency_detoured, s.decision_steps];
    for w in [
        s.injected_msgs,
        s.delivered_msgs,
        s.measured_delivered,
        s.measured_flits,
        s.killed_msgs,
        s.unroutable_msgs,
        s.retried_msgs,
        s.abandoned_msgs,
        s.rejected_sends,
        s.flits_dropped_on_dead_link,
        s.excess_hops,
        s.control_msgs,
        s.control_dropped,
        s.deadlock as u64,
        s.measured_cycles,
        s.num_nodes as u64,
    ] {
        h.word(w);
    }
    for a in accums {
        for w in [a.count, a.sum, a.min, a.max] {
            h.word(w);
        }
    }
    h.0
}

/// Result of [`drive`]: one network built, loaded and drained.
struct Driven {
    /// Build, fault injection and control settling.
    build_s: f64,
    /// Offered loop plus drain.
    run_s: f64,
    sim: SimOut,
    ctl: CtlTotals,
}

/// Builds `builder` over `algo`, fails and settles `dead`, offers `sched`
/// and drains — the public-API life of one network. In the traced pass the
/// algorithm is wrapped in [`TimedAlgo`] and every `send` and `step` is
/// timed. Every correctness violation is an error.
fn drive(
    tr: &mut Tracer,
    builder: NetworkBuilder,
    algo: &dyn RoutingAlgorithm,
    sched: &Schedule,
    dead: Option<NodeId>,
    drain_budget: u64,
) -> Result<Driven, String> {
    let timed = tr.enabled().then(|| TimedAlgo::new(algo));
    let algo: &dyn RoutingAlgorithm = match &timed {
        Some(t) => t,
        None => algo,
    };
    let t_build = Instant::now();
    let s = tr.enter("sim.build");
    let mut net = builder.build(algo).map_err(|e| format!("build: {e}"))?;
    tr.exit(s);
    if let Some(n) = dead {
        let s = tr.enter("sim.settle");
        net.inject_node_fault(n);
        net.settle_control(10_000).ok_or("control plane did not settle")?;
        tr.exit(s);
    }
    net.set_measuring(true);
    let build_s = t_build.elapsed().as_secs_f64();

    let cycle0 = net.cycle();
    let t_run = Instant::now();
    let (refused, drained);
    if tr.enabled() {
        let (mut send, mut step) = (Hot::default(), Hot::default());
        let mut timed_step = |n: &mut Network| {
            let t = Instant::now();
            n.step();
            step.add(t.elapsed().as_nanos() as u64);
        };
        let s = tr.enter("sim.offer");
        refused = sched.offer(
            &mut net,
            |n, m| {
                let t = Instant::now();
                let ok = n.send(m.src, m.dst, m.len).is_ok();
                send.add(t.elapsed().as_nanos() as u64);
                ok
            },
            &mut timed_step,
        );
        tr.exit(s);
        // Network::drain, one step at a time so that each is timed
        let s = tr.enter("sim.drain");
        let start = net.cycle();
        while net.in_flight() > 0 && !net.stats.deadlock && net.cycle() - start < drain_budget {
            timed_step(&mut net);
        }
        drained = net.in_flight() == 0;
        tr.exit(s);
        tr.add_hot("sim.send", &send);
        tr.add_hot("sim.step", &step);
    } else {
        refused = sched.offer(&mut net, |n, m| n.send(m.src, m.dst, m.len).is_ok(), Network::step);
        drained = net.drain(drain_budget);
    }
    let run_s = t_run.elapsed().as_secs_f64();

    let cycles = net.cycle() - cycle0;
    let stats = net.stats.clone();
    drop(net); // controllers merge their totals as they drop
    let ctl = timed.map(|t| t.totals()).unwrap_or_default();

    if !drained {
        return Err(format!("not drained within {drain_budget} cycles"));
    }
    if stats.deadlock {
        return Err("deadlock watchdog fired".into());
    }
    if !stats.accounting_balanced() {
        return Err("message accounting out of balance".into());
    }
    if refused != 0 || stats.rejected_sends != 0 {
        return Err(format!("{refused} sends refused"));
    }
    let len = sched.sends.first().map_or(0, |m| m.len) as u64;
    let sim = SimOut {
        cycles,
        flit_hops: len * stats.hops.sum,
        offered: sched.sends.len() as u64,
        delivered: stats.delivered_msgs,
        latency: (stats.latency.sum, stats.latency.count),
        steps: (stats.decision_steps.sum, stats.decision_steps.count),
        digest: digest_stats(&stats),
    };
    Ok(Driven { build_s, run_s, sim, ctl })
}

/// Which crate the routing decisions of a workload belong to.
#[derive(Clone, Copy)]
enum Decider {
    /// Native Rust controllers of `ftr-algos`.
    Algos,
    /// Rule programs interpreted by `ftr-core` + `ftr-rules`.
    Core,
}

/// Per-layer metrics every network repetition reports, from the current
/// repetition's spans, hot aggregates and shim totals.
///
/// Clock accounting: a timed call holds one clock read inside its interval
/// and pushes one onto its caller, so `X - c*calls` is what the callee
/// spent, and the run holds `2c` per timed call in total (`ledger.clock_s`).
fn net_layers(
    tr: &Tracer,
    c: &Ctx,
    who: Decider,
    ctl: &CtlTotals,
    sinks: &[Hot],
    sim: &SimOut,
) -> Layers {
    let mut l = Layers::new();
    if !tr.enabled() {
        return l;
    }
    let k = c.clock_ns * 1e-9;
    let own = |ns: u64, calls: u64| ns as f64 * 1e-9 - k * calls as f64;
    let (send, step) = (tr.hot("sim.send"), tr.hot("sim.step"));
    let route_s = own(ctl.route_ns, ctl.route_calls);
    let ctl_s = own(ctl.ctl_ns, ctl.ctl_calls);
    let sink_ns: u64 = sinks.iter().map(|h| h.ns).sum();
    let sink_calls: u64 = sinks.iter().map(|h| h.calls).sum();
    let child_calls = ctl.route_calls + ctl.ctl_calls + sink_calls;
    let child_ns = ctl.route_ns + ctl.ctl_ns + sink_ns;
    let self_s = own(send.ns + step.ns, send.calls + step.calls)
        - (child_ns as f64 * 1e-9 + k * child_calls as f64);

    l.insert("sim.build_s", tr.secs("sim.build"));
    l.insert("sim.schedule_s", tr.secs("sim.schedule"));
    l.insert("sim.settle_s", tr.secs("sim.settle"));
    l.insert("sim.send_s", own(send.ns, send.calls));
    l.insert("sim.send_calls", send.calls as f64);
    l.insert("sim.step_s", own(step.ns, step.calls));
    l.insert("sim.step_calls", step.calls as f64);
    l.insert("sim.drain_s", tr.secs("sim.drain"));
    l.insert("sim.self_s", self_s);
    l.insert("sim.self_ns_per_cycle", self_s * 1e9 / sim.cycles.max(1) as f64);
    l.insert("sim.self_ns_per_flit_hop", self_s * 1e9 / sim.flit_hops.max(1) as f64);
    l.insert("sim.step_ns_p50", step.percentile_ns(50.0));
    l.insert("sim.step_ns_p99", step.percentile_ns(99.0));
    l.insert("ledger.clock_s", 2.0 * k * (send.calls + step.calls + child_calls) as f64);

    let wait_share = ctl.route_waits as f64 / ctl.route_calls.max(1) as f64;
    let route_ns = route_s * 1e9 / ctl.route_calls.max(1) as f64;
    match who {
        Decider::Algos => {
            l.insert("algos.route_s", route_s);
            l.insert("algos.route_calls", ctl.route_calls as f64);
            l.insert("algos.route_ns", route_ns);
            l.insert("algos.wait_share", wait_share);
            l.insert("algos.ctl_s", ctl_s);
            l.insert("algos.ctl_calls", ctl.ctl_calls as f64);
            l.insert("algos.ctl_msgs", ctl.ctl_msgs as f64);
        }
        Decider::Core => {
            l.insert("core.route_s", route_s);
            l.insert("core.route_calls", ctl.route_calls as f64);
            l.insert("core.route_ns", route_ns);
            l.insert("core.wait_share", wait_share);
            l.insert("core.ctl_s", ctl_s);
            l.insert("rules.steps_per_decision", sim.steps.0 as f64 / sim.steps.1.max(1) as f64);
        }
    }
    l
}

/// The per-layer times that partition a traced repetition's timed region;
/// whatever none of them covers is loop overhead.
const LEAVES: [&str; 19] = [
    "sim.self_s",
    "algos.route_s",
    "algos.ctl_s",
    "core.route_s",
    "core.ctl_s",
    "core.bring_up_s",
    "obs.record_s",
    "obs.finalize_s",
    "trace.diagnose_s",
    "trace.replay_s",
    "trace.report_s",
    "rules.parse_s",
    "rules.compile_s",
    "rules.cost_s",
    "rules.lower_s",
    "analyze.lint_s",
    "analyze.opt_s",
    "analyze.verify_s",
    "ledger.clock_s",
];

/// Closes a traced repetition's metrics with the check that they add up:
/// the share of `wall_s` that neither a leaf nor `also` accounts for.
fn close(mut layers: Layers, tr: &Tracer, wall_s: f64, also: f64) -> Layers {
    if tr.enabled() {
        let leaves = LEAVES.iter().filter_map(|k| layers.get(k)).fold(also, |a, b| a + b);
        layers.insert("ledger.unaccounted_share", 1.0 - leaves / wall_s);
    }
    layers
}

/// `mesh6_nafta_sat` and `mesh6_nafta_idle`: one 6x6 mesh under native
/// NAFTA at a fixed load.
fn mesh6_nafta(c: &Ctx, tr: &mut Tracer, load: f64, cycles: u64) -> Result<RepOut, String> {
    let t_setup = Instant::now();
    let mesh = Mesh2D::new(6, 6);
    let s = tr.enter("sim.schedule");
    let sched = Schedule::draw(&mesh, &FaultSet::new(), load, MSG_LEN_MESH6, c.cut(cycles), c.seed);
    tr.exit(s);
    let algo = Nafta::new(mesh.clone());
    let head_s = t_setup.elapsed().as_secs_f64();
    let d = drive(tr, Network::builder(Arc::new(mesh)), &algo, &sched, None, 200_000)?;
    let layers = close(net_layers(tr, c, Decider::Algos, &d.ctl, &[], &d.sim), tr, d.run_s, 0.0);
    Ok(RepOut { setup_s: head_s + d.build_s, wall_s: d.run_s, sim: d.sim, layers })
}

/// The node `cube4_routec_rules` fails before traffic starts.
const CUBE4_DEAD: NodeId = NodeId(5);

fn cube4_routec_rules(c: &Ctx, tr: &mut Tracer) -> Result<RepOut, String> {
    let t_setup = Instant::now();
    let cube = Hypercube::new(4);
    let s = tr.enter("core.configure");
    let cfg = configure("route_c", &rules_src::route_c_source(4)).map_err(|e| e.to_string())?;
    tr.exit(s);
    let algo = CubeRuleRouter::new(cfg, cube.clone());
    // the dead node neither sends nor receives, so no send is refused
    let mut dead = FaultSet::new();
    dead.fail_node(CUBE4_DEAD);
    let s = tr.enter("sim.schedule");
    let sched = Schedule::draw(&cube, &dead, 0.3, 4, c.cut(4_000), c.seed);
    tr.exit(s);
    let head_s = t_setup.elapsed().as_secs_f64();
    let d = drive(tr, Network::builder(Arc::new(cube)), &algo, &sched, Some(CUBE4_DEAD), 200_000)?;
    let mut layers = net_layers(tr, c, Decider::Core, &d.ctl, &[], &d.sim);
    if tr.enabled() {
        layers.insert("core.configure_s", tr.secs("core.configure"));
        layers.extend(crate::micro::rules_fire(c.cut(100_000))?);
    }
    let layers = close(layers, tr, d.run_s, 0.0);
    Ok(RepOut { setup_s: head_s + d.build_s, wall_s: d.run_s, sim: d.sim, layers })
}

/// Transient link faults per fleet run, cycled.
const FLEET_FAULTS: [usize; 5] = [0, 4, 8, 12, 16];

fn mesh6_fleet_detect(c: &Ctx, tr: &mut Tracer) -> Result<RepOut, String> {
    let t_setup = Instant::now();
    let mesh = Mesh2D::new(6, 6);
    let runs = c.cut(40).max(2) as usize;
    let s = tr.enter("sim.schedule");
    let inputs: Vec<(Schedule, FaultPlan)> = (0..runs)
        .map(|i| {
            let seed = c.seed + i as u64 * 7919;
            let faults = FLEET_FAULTS[i % FLEET_FAULTS.len()];
            // silent: no oracle tells the endpoints, the heartbeats must
            let plan =
                FaultPlan::random_transient_links(&mesh, faults, 100..700, 150, seed).silenced();
            (Schedule::draw(&mesh, &FaultSet::new(), 0.12, 12, 900, seed ^ 0x5ca1e), plan)
        })
        .collect();
    tr.exit(s);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let mut sim = SimOut::default();
    let mut ctl = CtlTotals::default();
    let mut run_ms = Vec::with_capacity(runs);
    for (sched, plan) in &inputs {
        let t = Instant::now();
        let algo = WithDetection::new(Nafta::new(mesh.clone()), DetectorConfig::default());
        let builder = Network::builder(Arc::new(mesh.clone()))
            .fault_plan(plan.clone())
            .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
            .tick_period(8);
        let d = drive(tr, builder, &algo, sched, None, 30_000)?;
        sim.absorb(&d.sim);
        ctl.merge(&d.ctl);
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    let mut layers = net_layers(tr, c, Decider::Algos, &ctl, &[], &sim);
    if tr.enabled() {
        layers.insert("sim.run_ms_p50", percentile(&run_ms, 50.0));
        layers.insert("sim.run_ms_p99", percentile(&run_ms, 99.0));
    }
    // the fleet's timed region holds every run's build as well
    let layers = close(layers, tr, wall_s, tr.secs("sim.build"));
    Ok(RepOut { setup_s, wall_s, sim, layers })
}

fn mesh256_xy_sparse(c: &Ctx, tr: &mut Tracer) -> Result<RepOut, String> {
    let t_setup = Instant::now();
    let side = 256 / (c.div as f64).sqrt() as u32;
    let mesh = Mesh2D::new(side, side);
    let s = tr.enter("sim.schedule");
    let sched = Schedule::draw(&mesh, &FaultSet::new(), 0.0012, 8, c.cut(300).max(20), c.seed);
    tr.exit(s);
    let algo = XyRouting::new(mesh.clone());
    let head_s = t_setup.elapsed().as_secs_f64();
    let topo: Arc<dyn Topology> = Arc::new(mesh);
    let d = drive(tr, Network::builder(topo.clone()), &algo, &sched, None, 200_000)?;
    let mut layers = net_layers(tr, c, Decider::Algos, &d.ctl, &[], &d.sim);
    if tr.enabled() && c.baseline_wall_s > 0.0 {
        // the honest E19 re-measure: same schedule on two shards, bare,
        // against the untraced one-shard repetitions of this run
        let two = drive(
            &mut Tracer::new(false),
            Network::builder(topo).threads(2),
            &algo,
            &sched,
            None,
            200_000,
        )?;
        if two.sim != d.sim {
            return Err("threads(2) changed the simulated outcome".into());
        }
        layers.insert("sim.par2_ratio", c.baseline_wall_s / two.run_s);
    }
    let layers = close(layers, tr, d.run_s, 0.0);
    Ok(RepOut { setup_s: head_s + d.build_s, wall_s: d.run_s, sim: d.sim, layers })
}

fn mesh6_nafta_traced(c: &Ctx, tr: &mut Tracer) -> Result<RepOut, String> {
    let t_setup = Instant::now();
    let mesh = Mesh2D::new(6, 6);
    let s = tr.enter("sim.schedule");
    let sched = Schedule::draw(&mesh, &FaultSet::new(), 0.2, MSG_LEN_MESH6, c.cut(12_000), c.seed);
    tr.exit(s);
    let algo = Nafta::new(mesh.clone());
    let topo: Arc<dyn Topology> = Arc::new(mesh);
    let path = c.tmp.join("capture.ftb");
    let header = FtbHeader::new().with("geometry", "mesh6x6").with("seed", c.seed);
    let ftb = Arc::new(BinSink::create(&path, header).map_err(|e| format!("capture: {e}"))?);
    let diag = Arc::new(DiagnoserSink::default());
    // traced pass: each sink behind its own timing shim
    let timed = tr
        .enabled()
        .then(|| (Arc::new(TimedSink::new(ftb.clone())), Arc::new(TimedSink::new(diag.clone()))));
    let sinks: Vec<Arc<dyn TraceSink>> = match &timed {
        Some((f, d)) => vec![f.clone(), d.clone()],
        None => vec![ftb.clone(), diag.clone()],
    };
    let builder = Network::builder(topo.clone()).trace(Arc::new(TeeSink::new(sinks)));
    let head_s = t_setup.elapsed().as_secs_f64();

    let d = drive(tr, builder, &algo, &sched, None, 200_000)?;
    let t_post = Instant::now();
    let s = tr.enter("obs.finalize");
    ftb.finalize().map_err(|e| format!("finalize: {e}"))?;
    tr.exit(s);
    diag.scan_now();
    let s = tr.enter("trace.replay");
    let mut book = JourneyBook::new();
    let reader = EventReader::open(&path).map_err(|e| format!("{e:?}"))?;
    let events = ftr_trace::replay(reader, &mut book, None).map_err(|e| format!("{e:?}"))?;
    tr.exit(s);
    let s = tr.enter("trace.report");
    let report = TraceReport::build(&book, Some(&diag), 10).to_json();
    tr.exit(s);
    let wall_s = d.run_s + t_post.elapsed().as_secs_f64();

    if ftb.write_errors() != 0 {
        return Err(format!("{} trace events lost", ftb.write_errors()));
    }
    if diag.deadlock().is_some() {
        return Err("online diagnoser reported deadlock".into());
    }
    if events != ftb.written() {
        return Err(format!("replayed {events} of {} events", ftb.written()));
    }
    let sum = book.summary();
    if sum.delivered != d.sim.delivered || sum.latency.sum != d.sim.latency.0 {
        return Err("replayed journeys disagree with SimStats".into());
    }
    ftr_obs::json::validate(&report).map_err(|e| format!("trace report: {e}"))?;

    let mut layers = Layers::new();
    if let Some((f, g)) = &timed {
        let (rec, dg) = (f.totals(), g.totals());
        layers = net_layers(tr, c, Decider::Algos, &d.ctl, &[rec.clone(), dg.clone()], &d.sim);
        let k = c.clock_ns * 1e-9;
        let record_s = rec.ns as f64 * 1e-9 - k * rec.calls as f64;
        let diagnose_s = dg.ns as f64 * 1e-9 - k * dg.calls as f64;
        // what the sinks cost is timed; what it costs sim to build the
        // events is what else a sinked run spends over a bare one
        let quiet = &mut Tracer::new(false);
        let bare = drive(quiet, Network::builder(topo), &algo, &sched, None, 200_000)?;
        if bare.sim != d.sim {
            return Err("attaching sinks changed the simulated outcome".into());
        }
        let shimmed_s = layers["sim.self_s"] + layers["algos.route_s"] + layers["algos.ctl_s"];
        layers.insert("sim.emit_s", shimmed_s - bare.run_s);
        layers.insert("obs.record_s", record_s);
        layers.insert("obs.record_calls", rec.calls as f64);
        layers.insert("obs.record_ns", record_s * 1e9 / rec.calls.max(1) as f64);
        layers.insert("obs.bytes_per_event", ftb.bytes_written() as f64 / events.max(1) as f64);
        layers.insert("obs.finalize_s", tr.secs("obs.finalize"));
        layers.insert("obs.write_errors", ftb.write_errors() as f64);
        layers.insert("obs.events_per_s", events as f64 / d.run_s);
        layers.insert("trace.diagnose_s", diagnose_s);
        layers.insert("trace.replay_s", tr.secs("trace.replay"));
        layers.insert(
            "trace.fold_ns_per_event",
            tr.secs("trace.replay") * 1e9 / events.max(1) as f64,
        );
        layers.insert("trace.replay_events_per_s", events as f64 / tr.secs("trace.replay"));
        layers.insert("trace.report_s", tr.secs("trace.report"));
    }
    let layers = close(layers, tr, wall_s, 0.0);
    Ok(RepOut { setup_s: head_s + d.build_s, wall_s, sim: d.sim, layers })
}

/// Mesh programs the toolchain brings up after compiling them, with the
/// virtual channels their data path needs.
const BRING_UP: [(&str, usize); 3] = [("xy", 1), ("west_first", 1), ("nafta", 2)];

fn toolchain(c: &Ctx, tr: &mut Tracer) -> Result<RepOut, String> {
    let t_setup = Instant::now();
    let programs: Vec<_> =
        rules_src::all().into_iter().take(if c.div == 1 { 6 } else { 2 }).collect();
    let opts = CompileOptions::default();
    let oopts = |topo| opt::OptOptions { topo, ..opt::OptOptions::default() };
    let mesh = Mesh2D::new(4, 4);
    let fault_sets = c.cut(16) as usize;
    let sched = Schedule::draw(&mesh, &FaultSet::new(), 0.1, 4, c.cut(6_000), c.seed);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let mut sim = SimOut::default();
    let mut toolchain_digest = Fnv::default();
    let (mut rewrites, mut sets_checked) = (0u64, 0u64);
    for (name, src) in programs {
        let on_cube = name.starts_with("route_c");
        let fail = |stage: &str, e: String| format!("{name}: {stage}: {e}");
        let s = tr.enter("rules.parse");
        let prog = parse(src).map_err(|e| fail("parse", e.to_string()))?;
        tr.exit(s);
        let s = tr.enter("rules.compile");
        let compiled = compile(&prog, &opts).map_err(|e| fail("compile", e.to_string()))?;
        tr.exit(s);
        let s = tr.enter("rules.cost");
        let cost = cost::analyze(&prog, &opts).map_err(|e| fail("cost", e.to_string()))?;
        tr.exit(s);
        let s = tr.enter("rules.lower");
        let vm = VmProgram::lower(&compiled).map_err(|e| fail("lower", e.to_string()))?;
        tr.exit(s);
        let s = tr.enter("analyze.lint");
        let lint = ftr_analyze::analyze_compiled(name, compiled.clone());
        tr.exit(s);
        let s = tr.enter("analyze.opt");
        let facts = if on_cube { TopoFacts::none() } else { TopoFacts::mesh(6, 6) };
        let optimized = opt::optimize_rulebase(name, &compiled.prog, &oopts(facts))
            .map_err(|e| fail("optimize", e))?;
        tr.exit(s);
        let s = tr.enter("analyze.verify");
        let report = if on_cube {
            ftr_analyze::verify_cube(name, &compiled, 4, 1, fault_sets)
        } else {
            let mode = if name == "nafta" { MeshVcMode::NaraPair } else { MeshVcMode::SingleVc };
            ftr_analyze::verify_mesh(name, &compiled, 4, 4, mode, 1, fault_sets)
        };
        tr.exit(s);
        rewrites += optimized.cert.rewrites.len() as u64;
        sets_checked += report.fault_sets_checked as u64;
        for w in [
            compiled.total_table_bits(),
            cost.total_table_bits(),
            vm.bases.len() as u64,
            lint.diagnostics.len() as u64,
            optimized.cert.rewrites.len() as u64,
            report.fault_sets_checked as u64,
            report.failures.len() as u64,
        ] {
            toolchain_digest.word(w);
        }
        if let Some(&(_, vcs)) = BRING_UP.iter().find(|(n, _)| *n == name) {
            let s = tr.enter("core.bring_up");
            let cfg = RouterConfiguration::from_compiled(name, compiled)
                .map_err(|e| fail("configure", e.to_string()))?;
            let algo = RuleRouter::new(cfg, mesh.clone(), vcs);
            let d =
                drive(tr, Network::builder(Arc::new(mesh.clone())), &algo, &sched, None, 50_000)?;
            tr.exit(s);
            sim.absorb(&d.sim);
        }
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    sim.absorb(&SimOut { digest: toolchain_digest.0, ..SimOut::default() });

    let mut layers = Layers::new();
    if tr.enabled() {
        for (metric, span) in [
            ("rules.parse_s", "rules.parse"),
            ("rules.compile_s", "rules.compile"),
            ("rules.cost_s", "rules.cost"),
            ("rules.lower_s", "rules.lower"),
            ("analyze.lint_s", "analyze.lint"),
            ("analyze.opt_s", "analyze.opt"),
            ("analyze.verify_s", "analyze.verify"),
            ("core.bring_up_s", "core.bring_up"),
        ] {
            layers.insert(metric, tr.secs(span));
        }
        layers.insert("analyze.opt_rewrites", rewrites as f64);
        layers.insert("analyze.verify_fault_sets", sets_checked as f64);
        layers.insert("rules.steps_per_decision", sim.steps.0 as f64 / sim.steps.1.max(1) as f64);
    }
    let layers = close(layers, tr, wall_s, 0.0);
    Ok(RepOut { setup_s, wall_s, sim, layers })
}
