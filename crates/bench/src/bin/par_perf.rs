//! Experiment E19 — sharded-engine scaling curve: one fabric, growing
//! thread counts, bit-identical results.
//!
//! The sharded step (DESIGN.md §14) promises two things at once: the
//! *same* `SimStats` and trace stream at every thread count, and more
//! simulated cycles per second when real cores are available. This
//! harness pins both. Part one replays the E15 campaign configuration
//! (6x6 NAFTA mesh, transient link faults, repair, source retry) at 1, 2
//! and 8 threads and asserts the final statistics are bit-identical.
//! Part two replays one pre-drawn injection schedule on a large XY mesh
//! across thread counts and reports the scaling curve.
//!
//! Methodology follows E17 (`step_perf`): schedules are pre-generated
//! outside the timed region, every (threads) point runs one warmup pass
//! plus `reps` timed passes and reports the median, and every replay of
//! the same schedule must end in bit-identical `SimStats` — the perf
//! curve doubles as a determinism check at scale.
//!
//! Speedup is only *asserted* on a full run on a host with enough
//! cores: shared CI runners (often 1-2 vCPUs) cannot honestly show
//! parallel speedup, so the exported JSON records `host_parallelism`
//! and `speedup_asserted`, and CI gates on bit-identity alone.
//!
//! `par_perf [--smoke]` — smoke shrinks the fabric/cycles for CI and
//! forces the spawn threshold to zero so real OS threads are exercised
//! even when the active set is small. Results go to
//! `results/BENCH_par.json`.

use ftr_algos::{Nafta, XyRouting};
use ftr_bench::harness;
use ftr_obs::json;
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, SimStats, TrafficSource};
use ftr_topo::{Mesh2D, NodeId};
use std::sync::Arc;
use std::time::Instant;

const MSG_LEN: u32 = 8;
const SEED: u64 = 0x9a11e7;

/// One thread-count measurement: median simulated cycles per second.
struct Point {
    threads: usize,
    cps: f64,
}

type Schedule = Vec<Vec<(NodeId, NodeId, u32)>>;

/// Pre-draws the whole injection schedule for `cycles` cycles on a
/// healthy fabric (the Bernoulli draws would otherwise re-introduce an
/// O(nodes) term inside the timed region).
fn schedule(mesh: &Mesh2D, load: f64, cycles: u64) -> Schedule {
    let faults = ftr_topo::FaultSet::new();
    let mut tf = TrafficSource::new(Pattern::Uniform, load, MSG_LEN, SEED);
    (0..cycles).map(|_| tf.tick(mesh, &faults)).collect()
}

/// Replays `sched` once through the engine; returns (elapsed
/// seconds over the timed window, final stats).
fn replay(mesh: &Mesh2D, sched: &Schedule, threads: usize, spawn: usize) -> (f64, SimStats) {
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .threads(threads)
        .spawn_threshold(spawn)
        .build(&XyRouting::new(mesh.clone()))
        .expect("valid config");
    let t0 = Instant::now();
    for cycle in sched {
        for &(s, d, l) in cycle {
            net.send(s, d, l).expect("healthy fabric accepts");
        }
        net.step();
    }
    let secs = t0.elapsed().as_secs_f64();
    net.drain(500_000);
    (secs, net.stats.clone())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Part one: the E15 campaign configuration (transient faults, repair,
/// retry, live traffic) must end bit-identical at every thread count.
fn campaign_bit_identity(thread_counts: &[usize]) {
    let mesh = Mesh2D::new(6, 6);
    let mut finals: Vec<(usize, SimStats)> = Vec::new();
    for &t in thread_counts {
        let plan = FaultPlan::random_transient_links(&mesh, 8, 200..1_400, 200, 1);
        let mut net = Network::builder(Arc::new(mesh.clone()))
            .threads(t)
            .spawn_threshold(0) // force real OS threads even on 36 nodes
            .fault_plan(plan)
            .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 })
            .build(&Nafta::new(mesh.clone()))
            .expect("valid config");
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.15, 16, 1 ^ 0x5ca1e);
        harness::drive(&mut net, &mut tf, 1_800);
        assert!(net.drain(60_000), "campaign run must drain at {t} threads");
        finals.push((t, net.stats.clone()));
    }
    let (t0, ref base) = finals[0];
    assert!(base.injected_msgs > 100, "campaign must carry real load");
    for (t, stats) in &finals[1..] {
        assert_eq!(stats, base, "E15 campaign stats diverged: {t} threads vs {t0}");
    }
    println!(
        "# E15 campaign config bit-identical across {:?} threads ({} msgs)",
        thread_counts, base.injected_msgs
    );
}

fn main() {
    let smoke = harness::Args::parse().smoke();
    // full mode sizes the mesh so every shard has real work at 8 threads;
    // smoke keeps CI fast and forces spawning instead of relying on size.
    // load stays under the uniform-traffic bisection bound (load·n/2 flits
    // per cycle over `side` cross-links): 0.004·65536/2 ≈ 131 ≪ 256 on the
    // full mesh — saturating 65k nodes would make drains unboundedly slow
    // and measure congestion, not the step engine
    let (side, cycles, reps, spawn, load) =
        if smoke { (32u32, 400u64, 3usize, 0usize, 0.02) } else { (256, 1_000, 3, 2_048, 0.004) };
    let thread_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "# E19 par_perf: {side}x{side} mesh, {cycles} cycles/rep, median of {reps}, \
         host parallelism {host_parallelism} (smoke={smoke})"
    );

    campaign_bit_identity(thread_counts);

    let mesh = Mesh2D::new(side, side);
    let sched = schedule(&mesh, load, cycles);
    let (_, reference) = replay(&mesh, &sched, 1, spawn); // warmup + reference stats
    let mut points = Vec::new();
    for &t in thread_counts {
        let mut cps = Vec::new();
        for _ in 0..reps {
            let (secs, stats) = replay(&mesh, &sched, t, spawn);
            // every replay of one schedule must agree with the 1-thread
            // reference exactly — determinism at scale, asserted per rep
            assert_eq!(stats, reference, "stats diverged at {t} threads");
            cps.push(cycles as f64 / secs);
        }
        let p = Point { threads: t, cps: median(cps) };
        println!(
            "{:>10} thread(s)  {:>12.0} c/s  speedup {:>5.2}x",
            p.threads,
            p.cps,
            p.cps / points.first().map_or(p.cps, |f: &Point| f.cps)
        );
        points.push(p);
    }

    let base_cps = points[0].cps;
    let best = points.iter().map(|p| p.cps / base_cps).fold(0.0f64, f64::max);
    // the acceptance bar needs real cores: only a full run on a host with
    // at least as many cores as the widest point can honestly show 2x
    let speedup_asserted = !smoke && host_parallelism >= *thread_counts.last().unwrap();
    if speedup_asserted {
        assert!(best >= 2.0, "best parallel speedup {best:.2}x misses the 2x bar");
    } else {
        println!("# speedup not asserted (smoke={smoke}, host parallelism {host_parallelism})");
    }

    let objs: Vec<String> = points
        .iter()
        .map(|p| {
            let mut o = json::Obj::new();
            o.num("threads", p.threads as u64)
                .float("cycles_per_sec", p.cps)
                .float("speedup_vs_1", p.cps / base_cps);
            o.finish()
        })
        .collect();
    let mut root = json::Obj::new();
    root.str("experiment", "E19")
        .str("binary", "par_perf")
        .bool("smoke", smoke)
        .num("mesh_side", side as u64)
        .num("cycles_per_rep", cycles)
        .num("reps", reps as u64)
        .num("msg_len", MSG_LEN as u64)
        .float("load", load)
        .num("host_parallelism", host_parallelism as u64)
        .bool("bit_identical", true) // asserted per rep above
        .bool("speedup_asserted", speedup_asserted)
        .float("best_speedup", best)
        .field("points", json::array(&objs));
    harness::export("BENCH_par", &root.finish());
}
