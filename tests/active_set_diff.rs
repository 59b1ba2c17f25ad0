//! Lockstep differential test: the active-set step against the dense
//! reference.
//!
//! `Network::step` normally iterates only nodes with work (the active
//! set) and leaves a head that was told to wait *parked* until its node's
//! channel state changes; `set_dense_reference(true)` retains the
//! original every-node scan that puts every waiting head to its
//! controller every cycle. The two must be indistinguishable to any
//! observer: bit-identical `SimStats`, bit-identical trace-event streams,
//! and the same per-cycle `moved` flag. This runs the E15 campaign shape — retrying NAFTA on a
//! faulty 6x6 mesh — across a (retry x fault-count x seed) matrix, a
//! ROUTE_C 4-cube arm, and the cases that make parking matter (a mesh
//! beyond saturation, detection, rule-driven hosts, decision latencies 0
//! and 3), advancing a dense and an active network in lockstep. Every
//! algorithm is wrapped in a `route`-call counter: the parking arm must
//! ask strictly less often than the reference where heads wait on a
//! native controller, and exactly as often where the host polls.

use ftrouter::core::{configure, CubeRuleRouter, RuleRouter};
use ftrouter::prelude::*;
use ftrouter::sim::routing::{ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm};
use ftrouter::sim::{DetectorConfig, Header, WithDetection};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts the `route` calls of every controller `inner` builds, the
/// `RouteWait` probe's included: each arm probes a head when it asks it,
/// so a parked head saves its probe as well as its consult.
struct Counted<'a> {
    inner: &'a dyn RoutingAlgorithm,
    calls: Arc<AtomicU64>,
}

impl RoutingAlgorithm for Counted<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_vcs(&self) -> usize {
        self.inner.num_vcs()
    }
    fn controller(&self, topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        Box::new(CountedCtl { inner: self.inner.controller(topo, node), calls: self.calls.clone() })
    }
}

struct CountedCtl {
    inner: Box<dyn NodeController>,
    calls: Arc<AtomicU64>,
}

impl NodeController for CountedCtl {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.route(view, h, in_port, in_vc)
    }
    fn on_tick(&mut self, view: &RouterView<'_>, cycle: u64) -> Vec<ControlMsg> {
        self.inner.on_tick(view, cycle)
    }
    fn drain_events(&mut self) -> Vec<EventKind> {
        self.inner.drain_events()
    }
    fn on_control(&mut self, v: &RouterView<'_>, from: PortId, words: &[i64]) -> Vec<ControlMsg> {
        self.inner.on_control(v, from, words)
    }
    fn on_fault(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.inner.on_fault(view, port)
    }
    fn on_repair(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.inner.on_repair(view, port)
    }
    fn state_word(&self) -> i64 {
        self.inner.state_word()
    }
    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        self.inner.relation(view, h, in_port, in_vc)
    }
}

/// One arm under test: a network plus its own trace sink, `route`
/// counter and an identically seeded traffic source.
struct Arm {
    name: &'static str,
    net: Network,
    sink: Arc<RingSink>,
    calls: Arc<AtomicU64>,
    tf: TrafficSource,
}

/// The two arms every differential test runs, by whether the arm is the
/// dense reference: every node scanned, every waiting head asked.
const ARMS: [(&str, bool); 2] = [("dense", true), ("active", false)];

/// How the parking arm's `route`-call count must relate to the
/// reference arm's.
#[derive(Clone, Copy)]
enum Asks {
    /// Heads wait on a controller that keeps the `Wait` contract.
    Fewer,
    /// Every `Wait` is polled (or nothing ever waits): nothing is saved.
    Same,
    /// Too little contention to promise a saving.
    AtMost,
}

struct Squad {
    arms: Vec<Arm>,
    topo: Arc<dyn Topology>,
}

impl Squad {
    /// Builds one arm per entry of [`ARMS`], each running `algo` behind a call
    /// counter and tracing into its own ring. `tune` finishes a pre-tuned
    /// builder (fault plan, retry, config); `tf` seeds one traffic source
    /// per arm.
    fn build(
        topo: Arc<dyn Topology>,
        algo: &dyn RoutingAlgorithm,
        tune: impl Fn(NetworkBuilder) -> NetworkBuilder,
        tf: impl Fn() -> TrafficSource,
    ) -> Self {
        let arms = ARMS
            .iter()
            .map(|&(name, dense)| {
                let sink = Arc::new(RingSink::new(1 << 17));
                let calls = Arc::new(AtomicU64::new(0));
                let counted = Counted { inner: algo, calls: calls.clone() };
                let b = tune(Network::builder(topo.clone())).trace(sink.clone());
                let mut net = b.build(&counted).expect("valid config");
                net.set_dense_reference(dense);
                net.set_measuring(true);
                Arm { name, net, sink, calls, tf: tf() }
            })
            .collect();
        Squad { arms, topo }
    }

    fn lockstep(&mut self, cycles: u64, label: &str) {
        for _ in 0..cycles {
            for arm in &mut self.arms {
                for (s, d, l) in arm.tf.tick(self.topo.as_ref(), arm.net.faults()) {
                    let _ = arm.net.send(s, d, l);
                }
                arm.net.step();
            }
            self.assert_moved_agrees(label);
        }
    }

    fn assert_moved_agrees(&self, label: &str) {
        let reference = &self.arms[0];
        for arm in &self.arms[1..] {
            assert_eq!(
                arm.net.last_step_moved(),
                reference.net.last_step_moved(),
                "{label}: moved flag diverged ({} vs {}) at cycle {}",
                arm.name,
                reference.name,
                reference.net.cycle()
            );
        }
    }

    fn finish(mut self, label: &str, asks: Asks) {
        // drain all arms (bounded: a diverging arm must not hang the suite;
        // a run the watchdog stopped has nothing left to show — rule-driven
        // NAFTA wedges near saturation, in every arm alike)
        let mut budget = 30_000u64;
        while self.arms.iter().any(|a| a.net.in_flight() > 0 && !a.net.stats.deadlock) && budget > 0
        {
            for arm in &mut self.arms {
                arm.net.step();
            }
            self.assert_moved_agrees(label);
            budget -= 1;
        }
        let (reference, rest) = self.arms.split_first().expect("non-empty squad");
        let polled = reference.calls.load(Ordering::Relaxed);
        for arm in rest {
            assert_eq!(
                arm.net.stats, reference.net.stats,
                "{label}: SimStats diverged ({} vs {})",
                arm.name, reference.name
            );
            assert_eq!(
                arm.sink.events(),
                reference.sink.events(),
                "{label}: trace streams diverged ({} vs {})",
                arm.name,
                reference.name
            );
            let asked = arm.calls.load(Ordering::Relaxed);
            let ok = match asks {
                Asks::Fewer => asked < polled,
                Asks::Same => asked == polled,
                Asks::AtMost => asked <= polled,
            };
            assert!(ok, "{label}: {} made {asked} route calls, the reference {polled}", arm.name);
        }
        assert!(reference.net.stats.accounting_balanced(), "{label}: unbalanced accounting");
        assert!(reference.net.stats.injected_msgs > 0, "{label}: no traffic flowed");
    }
}

/// NAFTA (with the heartbeat layer when `detect`) on a 6x6 mesh under
/// transient link faults.
fn nafta_squad(
    retry: bool,
    faults: usize,
    seed: u64,
    load: f64,
    detect: bool,
    cycles_per_step: u32,
) -> Squad {
    let mesh = Mesh2D::new(6, 6);
    let nafta = Nafta::new(mesh.clone());
    let detecting = WithDetection::new(Nafta::new(mesh.clone()), DetectorConfig::default());
    let algo: &dyn RoutingAlgorithm = if detect { &detecting } else { &nafta };
    Squad::build(
        Arc::new(mesh.clone()),
        algo,
        |mut b| {
            let mut plan = FaultPlan::random_transient_links(&mesh, faults, 100..700, 150, seed);
            if detect {
                // no oracle: the endpoints learn through missed heartbeats
                plan = plan.silenced();
                b = b.tick_period(8);
            }
            b = b.fault_plan(plan).decision_cycles_per_step(cycles_per_step);
            if retry {
                b = b.retry(RetryPolicy { max_attempts: 6, backoff_cycles: 48 });
            }
            b
        },
        || TrafficSource::new(Pattern::Uniform, load, 8, seed ^ 0xbeef),
    )
}

#[test]
fn nafta_campaign_matrix_is_lockstep_identical() {
    for retry in [false, true] {
        for faults in [0usize, 8, 16] {
            for seed in [11u64, 29] {
                let label = format!("nafta retry={retry} faults={faults} seed={seed}");
                let mut squad = nafta_squad(retry, faults, seed, 0.08, false, 1);
                squad.lockstep(900, &label);
                squad.finish(&label, Asks::AtMost);
            }
        }
    }
}

#[test]
fn saturated_nafta_parks_and_stays_lockstep_identical() {
    // load 0.6 is far beyond saturation: most heads wait most cycles, so
    // this is where a parked head that missed its wake-up would show
    for (faults, cycles_per_step) in [(0usize, 1u32), (8, 0), (8, 3)] {
        let label = format!("nafta load=0.6 faults={faults} cycles/step={cycles_per_step}");
        let mut squad = nafta_squad(true, faults, 5, 0.6, false, cycles_per_step);
        squad.lockstep(400, &label);
        squad.finish(&label, Asks::Fewer);
    }
}

#[test]
fn detecting_nafta_under_silent_transient_faults_is_lockstep_identical() {
    // every tick and every heartbeat is a hook, and every hook wakes
    for load in [0.1, 0.6] {
        let label = format!("nafta+detect load={load}");
        let mut squad = nafta_squad(true, 8, 17, load, true, 1);
        squad.lockstep(800, &label);
        squad.finish(&label, if load > 0.5 { Asks::Fewer } else { Asks::AtMost });
    }
}

#[test]
fn rule_driven_hosts_park_only_what_they_can_prove() {
    // `xy.rules` declares no `out_queue`: its waits park. `nafta.rules`
    // reads it, so its host polls — call for call what the reference
    // does. ROUTE_C reads it only to rank a grant (`CubeIo::parks`): its
    // waits park too.
    let mesh = Mesh2D::new(6, 6);
    let xy = RuleRouter::for_mesh(
        configure("xy", ftrouter::algos::rules_src::XY).unwrap(),
        mesh.clone(),
    );
    let nafta = RuleRouter::for_mesh(
        configure("nafta", ftrouter::algos::rules_src::NAFTA).unwrap(),
        mesh.clone(),
    );
    // (a polled head costs both traced arms eight probe fires every cycle
    // it is asked, so the two-channel program gets the lighter — still
    // saturating — load)
    for (name, algo, load, asks) in
        [("xy", &xy, 0.6, Asks::Fewer), ("nafta", &nafta, 0.3, Asks::Same)]
    {
        for cycles_per_step in [1u32, 3] {
            let label = format!("rule:{name} load={load} cycles/step={cycles_per_step}");
            let mut squad = Squad::build(
                Arc::new(mesh.clone()),
                algo,
                |b| b.decision_cycles_per_step(cycles_per_step),
                || TrafficSource::new(Pattern::Uniform, load, 6, 4242),
            );
            squad.lockstep(200, &label);
            squad.finish(&label, asks);
        }
    }

    let cube = Hypercube::new(4);
    let src = ftrouter::algos::rules_src::route_c_source(4);
    let algo = CubeRuleRouter::new(configure("route_c", &src).unwrap(), cube.clone());
    let mut squad = Squad::build(
        Arc::new(cube.clone()),
        &algo,
        |b| {
            let plan = FaultPlan::random_transient_links(&cube, 3, 60..300, 100, 9);
            b.fault_plan(plan).retry(RetryPolicy { max_attempts: 4, backoff_cycles: 32 })
        },
        || TrafficSource::new(Pattern::Uniform, 0.5, 4, 77),
    );
    squad.lockstep(300, "rule:route_c 4-cube");
    squad.finish("rule:route_c 4-cube", Asks::Fewer);
}

#[test]
fn route_c_hypercube_is_lockstep_identical() {
    let cube = Hypercube::new(4);
    let algo = RouteC::new(cube.clone());
    let mut squad = Squad::build(
        Arc::new(cube.clone()),
        &algo,
        |b| {
            let plan = FaultPlan::random_transient_links(&cube, 4, 80..500, 120, 7);
            b.fault_plan(plan).retry(RetryPolicy { max_attempts: 4, backoff_cycles: 32 })
        },
        || TrafficSource::new(Pattern::Uniform, 0.1, 6, 1234),
    );
    squad.lockstep(700, "route_c 4-cube");
    squad.finish("route_c 4-cube", Asks::AtMost);
}

#[test]
fn mode_switch_at_any_boundary_is_safe() {
    // flipping between the reference and the active, parking path mid-run
    // must not lose work: the dense step rebuilds the activation
    // bookkeeping exactly, and a head parked before a flip is still
    // parked — or was woken — after it. Load 0.5 keeps heads parked
    // across every flip; a second network that never leaves the
    // reference path pins the outcome.
    let mesh = Mesh2D::new(5, 5);
    let topo: Arc<dyn Topology> = Arc::new(mesh.clone());
    let build =
        || Network::builder(topo.clone()).build(&Nafta::new(mesh.clone())).expect("valid config");
    let (mut net, mut reference) = (build(), build());
    reference.set_dense_reference(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.5, 6, 99);
    for cycle in 0..600u64 {
        net.set_dense_reference(cycle % 7 < 3); // flip modes on a weird period
        for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
            let _ = net.send(s, d, l);
            let _ = reference.send(s, d, l);
        }
        net.step();
        reference.step();
    }
    net.set_dense_reference(false);
    assert!(net.drain(30_000), "must drain after arbitrary mode flips");
    assert!(reference.drain(30_000));
    assert_eq!(net.stats, reference.stats, "flipping modes changed the outcome");
    assert!(net.stats.accounting_balanced());
    assert!(net.stats.delivered_msgs > 100);
    assert_eq!(net.stats.delivered_msgs, net.stats.injected_msgs, "healthy mesh loses nothing");
}
