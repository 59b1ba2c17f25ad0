//! The online diagnoser against live networks, both directions:
//!
//! - the naive fully-adaptive rule program — whose channel dependency
//!   graph `ftr-analyze` *statically* proves cyclic — must be caught
//!   *dynamically*: when the engine's watchdog declares deadlock, the
//!   diagnoser names an actual wait-for ring of messages and channels;
//! - healthy fault-tolerant runs (NAFTA under transient faults, repair
//!   and retries) must never be flagged, however congested — the knot
//!   test is structural, so congestion alone cannot fake a cycle.

use ftr_algos::Nafta;
use ftr_analyze::MeshProgramLift;
use ftr_core::{configure, RuleRouter};
use ftr_obs::{RingSink, TeeSink, TraceSink};
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, TrafficSource};
use ftr_topo::Mesh2D;
use ftr_trace::{DiagnoserConfig, DiagnoserSink};
use std::sync::Arc;

/// The same program the static verifier condemns in
/// `ftr-analyze/tests/deadlock.rs`.
const ADAPTIVE_SRC: &str = ftr_algos::rules_src::NAIVE_ADAPTIVE;

fn diag_cfg() -> DiagnoserConfig {
    DiagnoserConfig { scan_period: 32, stale_window: 8, min_blocked: 96, starvation_window: 0 }
}

/// One naive-adaptive run; returns (watchdog fired, diagnoser sink,
/// ring of raw events).
fn adaptive_run(seed: u64) -> (bool, Arc<DiagnoserSink>, Arc<RingSink>) {
    let mesh = Mesh2D::new(4, 4);
    let cfg = configure("adaptive", ADAPTIVE_SRC).expect("fixture compiles");
    let algo = RuleRouter::for_mesh(cfg, mesh.clone());
    let diag = Arc::new(DiagnoserSink::new(diag_cfg()));
    let ring = Arc::new(RingSink::new(1 << 20));
    let tee = Arc::new(TeeSink::new(vec![ring.clone(), diag.clone()]));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .trace(tee)
        // message length == buffer depth: a blocked worm fits exactly in
        // one FIFO, so ring members' heads sit at FIFO fronts and keep
        // emitting RouteWait — the textbook deadlock shape
        .buffer_depth(4)
        .deadlock_threshold(300)
        .build(&algo)
        .expect("valid config");
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.6, 4, seed);
    for _ in 0..1_500u64 {
        for (s, d, l) in tf.tick(&mesh, net.faults()) {
            net.send(s, d, l).unwrap();
        }
        net.step();
        if net.stats.deadlock {
            break;
        }
    }
    if !net.stats.deadlock {
        net.drain(20_000);
    }
    // give the diagnoser a full blocked window past the freeze point
    if net.stats.deadlock {
        for _ in 0..300 {
            net.step();
        }
    }
    (net.stats.deadlock, diag, ring)
}

#[test]
fn diagnoser_flags_the_statically_proven_adaptive_deadlock() {
    // static half: the verifier proves the CDG cyclic on the same 4x4
    // mesh configuration the dynamic run uses
    let cfg = configure("adaptive", ADAPTIVE_SRC).expect("fixture compiles");
    let lift = MeshProgramLift::new((*cfg.compiled).clone(), Mesh2D::new(4, 4)).expect("binds");
    let report = lift.verify("adaptive", 0, 16);
    assert!(!report.verified(), "the static verifier must condemn this program");

    // dynamic half: find seeds where the engine actually deadlocks, and
    // demand the diagnoser names a wait-for ring for at least one; a
    // witness on a NON-deadlocked run would be a false positive
    let mut deadlocked = 0u32;
    let mut witnessed = 0u32;
    for seed in 0..10u64 {
        let (watchdog, diag, ring) = adaptive_run(seed);
        let witness = diag.deadlock();
        if let Some(w) = &witness {
            assert!(watchdog, "seed {seed}: witness without engine deadlock\n{w:?}");
            // the ring must be a closed wait-for cycle of >= 2 messages
            assert!(w.ring.len() >= 2, "seed {seed}: degenerate ring {w:?}");
            assert!(w.knot_size >= w.ring.len());
            for (i, e) in w.ring.iter().enumerate() {
                assert_eq!(
                    e.holder,
                    w.ring[(i + 1) % w.ring.len()].msg,
                    "seed {seed}: ring does not close: {w:?}"
                );
                assert_ne!(e.msg, e.holder, "seed {seed}: self-wait in ring");
            }
            // offline replay of the same trace reproduces the verdict —
            // the diagnoser is a pure function of the event stream
            let replay = DiagnoserSink::new(diag_cfg());
            for ev in ring.events() {
                replay.record(&ev);
            }
            replay.scan_now();
            let again = replay.deadlock().expect("replay finds the deadlock too");
            assert_eq!(again.ring.len(), w.ring.len(), "seed {seed}: replay diverged");
            witnessed += 1;
        }
        if watchdog {
            deadlocked += 1;
        }
    }
    assert!(deadlocked > 0, "no seed deadlocked the naive adaptive program — load too low?");
    assert!(
        witnessed > 0,
        "{deadlocked} runs deadlocked but the diagnoser never produced a witness"
    );
}

#[test]
fn diagnoser_stays_silent_on_healthy_fault_tolerant_runs() {
    // campaign-shaped runs: transient link faults, repair, retries, at a
    // load that produces plenty of congestion stalls — zero tolerance
    // for a deadlock verdict on an algorithm that provably has none
    for seed in [3u64, 17, 1842] {
        let mesh = Mesh2D::new(6, 6);
        let plan = FaultPlan::random_transient_links(&mesh, 8, 200..900, 150, seed);
        let diag = Arc::new(DiagnoserSink::new(DiagnoserConfig {
            // starvation reporting on, with a window comfortably above a
            // fault-window stall + retry backoff
            starvation_window: 8_192,
            ..diag_cfg()
        }));
        let mut net = Network::builder(Arc::new(mesh.clone()))
            .trace(diag.clone())
            .fault_plan(plan)
            .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
            .build(&Nafta::new(mesh.clone()))
            .expect("valid config");
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.2, 16, seed ^ 0x7777);
        for _ in 0..1_500u64 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                let _ = net.send(s, d, l);
            }
            net.step();
        }
        assert!(net.drain(60_000), "seed {seed}: healthy run must drain");
        diag.scan_now();
        assert!(!net.stats.deadlock, "seed {seed}: engine saw no deadlock");
        assert!(diag.deadlock().is_none(), "seed {seed}: false positive: {:?}", diag.deadlock());
        assert!(
            diag.starved().is_empty(),
            "seed {seed}: spurious starvation: {:?}",
            diag.starved()
        );
        assert!(diag.scans() > 0, "seed {seed}: the diagnoser actually ran");
    }
}
