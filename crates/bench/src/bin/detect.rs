//! Experiment E22 — distributed fault detection without the oracle.
//!
//! Every fault-handling experiment so far told the endpoint controllers
//! about faults through the simulator's oracle (`notify_fault`). The
//! detection layer (`ftr_sim::detect`) replaces that courtesy with
//! heartbeats: periodic pings per alive port, a per-neighbour suspicion
//! counter, and an alarm that feeds the *same* `on_fault` machinery the
//! oracle used. This experiment quantifies the two costs that design
//! trades against each other:
//!
//! 1. **Detection latency vs. false positives.** A sweep over heartbeat
//!    period x miss threshold measures (a) alarms on a fault-free
//!    loaded fabric — the false-positive count, which must be zero for
//!    any period >= `MIN_SAFE_TICK_PERIOD`; (b) cycles from a silent
//!    link fault to the first alarm; (c) alarms under link *flapping*
//!    shorter than the suspicion window — the transient-tolerance the
//!    threshold buys.
//! 2. **The no-oracle campaign.** The E21 campaign fabric (6x6 NAFTA,
//!    uniform load, scripted link faults, retransmission) run three
//!    ways: faults announced by the oracle; faults silent with no
//!    detection (delivery collapses — the watchdog eventually declares
//!    deadlock); faults silent with the detection layer (delivery
//!    recovers to the oracle baseline).
//!
//! ```text
//! detect [--smoke]
//! ```
//!
//! Exports `results/BENCH_detect.json`; the asserts below are the gate.

use ftr_algos::Nafta;
use ftr_bench::{harness, results};
use ftr_obs::{json, EventKind, FtbHeader, RingSink};
use ftr_sim::detect::{DetectorConfig, WithDetection, MIN_SAFE_TICK_PERIOD};
use ftr_sim::{
    FaultAction, FaultPlan, Network, Pattern, RetryPolicy, RoutingAlgorithm, TrafficSource,
};
use ftr_topo::{Mesh2D, PortId, EAST, NORTH};
use ftr_trace::DiagnoserSink;
use std::sync::Arc;

const SIDE: u32 = 6;
const MSG_LEN: u32 = 8;
const LOAD: f64 = 0.10;
/// The configuration the rest of the repo treats as the default.
const DEFAULT_PERIOD: u64 = 8;
const DEFAULT_THRESHOLD: u32 = 3;
/// Campaign fault window; repairs are scheduled far beyond the run so
/// the scripted faults are effectively permanent — a silent fault that
/// heals by itself would mask the detection layer's contribution.
const FAULT_WINDOW: std::ops::Range<u64> = 100..400;
const NEVER: u64 = 10_000_000;
const WARM_CYCLES: u64 = 900;
const DRAIN_BUDGET: u64 = 30_000;

fn mesh() -> Mesh2D {
    Mesh2D::new(SIDE, SIDE)
}

fn detect_algo(threshold: u32) -> WithDetection<Nafta> {
    WithDetection::new(Nafta::new(mesh()), DetectorConfig { miss_threshold: threshold })
}

/// The middle sample of an odd-sized set (the sweep probes one or three
/// fault sites).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn alarm_cycles(sink: &RingSink) -> Vec<u64> {
    sink.events()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::Alarm { .. }))
        .map(|e| e.cycle)
        .collect()
}

/// Alarms on a fault-free fabric under load — every one is a false
/// positive.
fn false_positives(period: u64, threshold: u32, cycles: u64) -> u64 {
    let sink = Arc::new(RingSink::new(1 << 20));
    let mut net = Network::builder(Arc::new(mesh()))
        .tick_period(period)
        .trace(sink.clone())
        .build(&detect_algo(threshold))
        .expect("valid");
    let mut tf = TrafficSource::new(Pattern::Uniform, LOAD, MSG_LEN, 0xfae);
    harness::drive(&mut net, &mut tf, cycles);
    net.drain(DRAIN_BUDGET);
    alarm_cycles(&sink).len() as u64
}

/// Cycles from a silent permanent link fault to the first alarm.
fn detection_latency(period: u64, threshold: u32, site: (u32, u32, PortId)) -> u64 {
    let m = mesh();
    let at = 101;
    let plan =
        FaultPlan::new().at(at, FaultAction::FailLinkSilent(m.node_at(site.0, site.1), site.2));
    let sink = Arc::new(RingSink::new(1 << 18));
    let mut net = Network::builder(Arc::new(m))
        .tick_period(period)
        .trace(sink.clone())
        .fault_plan(plan)
        .build(&detect_algo(threshold))
        .expect("valid");
    net.run(at + period * (threshold as u64 + 3) + 20);
    let first = alarm_cycles(&sink).into_iter().min().unwrap_or_else(|| {
        panic!("no alarm for period {period} threshold {threshold} site {site:?}")
    });
    first - at
}

/// Alarms raised by a link outage of `flap_len` cycles. An outage of
/// length `L` costs up to `floor(L / period) + 1` missed rounds (the
/// `+ 1` is the in-flight pong lost when the fault lands between a
/// ping's send and its reply), so the longest outage a threshold `t`
/// detector is guaranteed to ride out is `(t - 1) * period - 1`.
fn flap_alarms(period: u64, threshold: u32, flap_len: u64) -> u64 {
    let m = mesh();
    let n = m.node_at(2, 3);
    let plan = FaultPlan::new()
        .at(101, FaultAction::FailLinkSilent(n, EAST))
        .at(101 + flap_len, FaultAction::RepairLinkSilent(n, EAST));
    let sink = Arc::new(RingSink::new(1 << 18));
    let mut net = Network::builder(Arc::new(m))
        .tick_period(period)
        .trace(sink.clone())
        .fault_plan(plan)
        .build(&detect_algo(threshold))
        .expect("valid");
    net.run(101 + flap_len + period * (threshold as u64 + 3) + 20);
    alarm_cycles(&sink).len() as u64
}

/// One campaign arm: the E21 fabric with `faults` scripted link faults.
struct Arm {
    injected: u64,
    delivered: u64,
    killed: u64,
    unroutable: u64,
    abandoned: u64,
    control_dropped: u64,
    deadlock: bool,
    drained: bool,
}

impl Arm {
    fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    fn to_json(&self) -> String {
        let mut o = json::Obj::new();
        o.num("injected", self.injected)
            .num("delivered", self.delivered)
            .num("killed", self.killed)
            .num("unroutable", self.unroutable)
            .num("abandoned", self.abandoned)
            .num("control_dropped", self.control_dropped)
            .bool("deadlock", self.deadlock)
            .bool("drained", self.drained)
            .float("delivery_ratio", self.delivery_ratio());
        o.finish()
    }
}

/// One campaign arm. `expect_live` arms attach the online deadlock
/// diagnoser and require it silent — the no-detection arm genuinely
/// wedges, so there it only records what the watchdog saw.
fn campaign_arm(
    label: &str,
    algo: &dyn RoutingAlgorithm,
    plan: FaultPlan,
    period: u64,
    seed: u64,
    expect_live: bool,
) -> Arm {
    let diag = Arc::new(DiagnoserSink::default());
    // with FTR_TRACE_DIR set the arm's full event stream (heartbeats,
    // suspicions, alarms, control drops) is captured for ftr-trace replay
    let header = FtbHeader::new().with("geometry", format!("mesh{SIDE}x{SIDE}")).with("seed", seed);
    let capture = results::Capture::open(label, header, vec![diag.clone()]);
    let mut b = Network::builder(Arc::new(mesh()))
        .fault_plan(plan)
        .retry(RetryPolicy { max_attempts: 8, backoff_cycles: 64 });
    if period != 0 {
        b = b.tick_period(period);
    }
    let mut net = capture.attach(b).build(algo).expect("valid");
    net.set_measuring(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, LOAD, MSG_LEN, seed ^ 0x5ca1e);
    harness::drive(&mut net, &mut tf, WARM_CYCLES);
    let drained = net.drain(DRAIN_BUDGET);
    diag.scan_now();
    capture.finish();
    if expect_live {
        assert!(diag.deadlock().is_none(), "online diagnoser must stay silent on a live arm");
    }
    let s = &net.stats;
    Arm {
        injected: s.injected_msgs,
        delivered: s.delivered_msgs,
        killed: s.killed_msgs,
        unroutable: s.unroutable_msgs,
        abandoned: s.abandoned_msgs,
        control_dropped: s.control_dropped,
        deadlock: s.deadlock,
        drained,
    }
}

fn main() {
    let args = harness::Args::parse();
    let smoke = args.smoke();
    let periods: &[u64] = if smoke { &[4, 8] } else { &[4, 8, 16] };
    let thresholds: &[u32] = if smoke { &[1, 3] } else { &[1, 2, 3, 5] };
    let sites: &[(u32, u32, PortId)] =
        if smoke { &[(2, 3, EAST)] } else { &[(2, 3, EAST), (0, 0, EAST), (4, 1, NORTH)] };
    let fault_counts: &[usize] = if smoke { &[6] } else { &[4, 6, 8] };
    let fault_free_cycles: u64 = if smoke { 400 } else { 1_200 };

    println!("E22 fault detection: period x threshold sweep…");
    println!(
        "{:>7} {:>10} {:>13} {:>15} {:>12}",
        "period", "threshold", "false alarms", "latency (med)", "flap alarms"
    );
    let mut grid = Vec::new();
    let mut default_latency = 0.0f64;
    let mut default_false_alarms = u64::MAX;
    for &period in periods {
        assert!(period >= MIN_SAFE_TICK_PERIOD, "sweep must stay in the safe regime");
        for &threshold in thresholds {
            let fp = false_positives(period, threshold, fault_free_cycles);
            let lat = median(
                sites.iter().map(|&s| detection_latency(period, threshold, s) as f64).collect(),
            );
            // probe the exact tolerance boundary: the longest outage this
            // threshold must ride out, or (at threshold 1) one period,
            // which must alarm — threshold 1 has no transient tolerance
            let flap_len =
                if threshold >= 2 { (threshold as u64 - 1) * period - 1 } else { period };
            let flaps = flap_alarms(period, threshold, flap_len);
            println!("{period:>7} {threshold:>10} {fp:>13} {lat:>15.1} {flaps:>12}");
            assert_eq!(fp, 0, "false positive at period {period} threshold {threshold}");
            // the suspicion window in cycles bounds the latency up to one
            // period of phase slack each side: a fault landing just before
            // an expected pong burns a round almost for free (lower bound
            // window - period + 1), one landing just after a pong waits
            // out the extra round (upper bound window + 2 periods)
            let window = period * threshold as u64;
            let lo = (window - period) + 1;
            assert!(
                (lat as u64) >= lo && (lat as u64) <= window + 2 * period,
                "latency {lat} outside [{lo}, {}]",
                window + 2 * period
            );
            if threshold >= 2 {
                assert_eq!(
                    flaps, 0,
                    "a {flap_len}-cycle flap must not alarm at threshold {threshold}"
                );
            } else {
                assert!(flaps > 0, "threshold 1 must alarm on any full-period outage");
            }
            if period == DEFAULT_PERIOD && threshold == DEFAULT_THRESHOLD {
                default_latency = lat;
                default_false_alarms = fp;
            }
            let mut o = json::Obj::new();
            o.num("period", period)
                .num("threshold", threshold as u64)
                .num("fault_free_alarms", fp)
                .float("latency_median_cycles", lat)
                .num("flap_len", flap_len)
                .num("flap_alarms", flaps);
            grid.push(o.finish());
        }
    }
    assert_eq!(default_false_alarms, 0, "default config must appear in the sweep");

    println!("\nno-oracle campaign, {SIDE}x{SIDE} NAFTA, load {LOAD}, permanent link faults:");
    println!("{:>7} {:>16} {:>18} {:>16}", "faults", "oracle", "silent+nodetect", "silent+detect");
    let mut campaigns = Vec::new();
    let mut worst_margin = f64::INFINITY;
    let mut worst_detect = f64::INFINITY;
    let mut worst_oracle_gap = f64::NEG_INFINITY;
    for &faults in fault_counts {
        let seed = 11 + faults as u64;
        let plan = FaultPlan::random_transient_links(&mesh(), faults, FAULT_WINDOW, NEVER, seed);
        let oracle = campaign_arm(
            &format!("detect_oracle_f{faults}"),
            &Nafta::new(mesh()),
            plan.clone(),
            0,
            seed,
            true,
        );
        let nodetect = campaign_arm(
            &format!("detect_nodetect_f{faults}"),
            &Nafta::new(mesh()),
            plan.clone().silenced(),
            0,
            seed,
            false,
        );
        let detect = campaign_arm(
            &format!("detect_detect_f{faults}"),
            &detect_algo(DEFAULT_THRESHOLD),
            plan.silenced(),
            DEFAULT_PERIOD,
            seed,
            true,
        );
        println!(
            "{faults:>7} {:>16.3} {:>18.3} {:>16.3}{}",
            oracle.delivery_ratio(),
            nodetect.delivery_ratio(),
            detect.delivery_ratio(),
            if nodetect.deadlock { "   (nodetect deadlocked)" } else { "" }
        );
        assert!(nodetect.deadlock, "silent faults with nobody watching must deadlock");
        assert!(!detect.deadlock, "detection must keep the fabric live");
        assert!(detect.drained, "detection arm must terminate every message");
        worst_margin = worst_margin.min(detect.delivery_ratio() - nodetect.delivery_ratio());
        worst_detect = worst_detect.min(detect.delivery_ratio());
        worst_oracle_gap = worst_oracle_gap.max(oracle.delivery_ratio() - detect.delivery_ratio());
        let mut o = json::Obj::new();
        o.num("faults", faults as u64)
            .field("oracle", oracle.to_json())
            .field("silent_nodetect", nodetect.to_json())
            .field("silent_detect", detect.to_json())
            .float("recovery_margin", detect.delivery_ratio() - nodetect.delivery_ratio());
        campaigns.push(o.finish());
    }
    println!(
        "\nworst-case: detect-over-nodetect margin {worst_margin:.3}, \
         detect ratio {worst_detect:.3}, oracle-minus-detect gap {worst_oracle_gap:.3}"
    );
    assert!(worst_margin >= 0.2, "delivery must collapse without detection and recover with it");
    assert!(worst_detect >= 0.9, "detected delivery ratio {worst_detect:.3} misses the 0.9 bar");
    assert!(worst_oracle_gap <= 0.02, "detected recovery must match the oracle baseline");

    let payload = {
        let mut root = json::Obj::new();
        root.str("experiment", "E22");
        root.str("binary", "detect");
        root.bool("smoke", smoke);
        root.num("default_period", DEFAULT_PERIOD);
        root.num("default_threshold", DEFAULT_THRESHOLD as u64);
        root.bool("false_positive_free", true); // asserted per grid point above
        root.float("detection_latency_cycles", default_latency);
        root.field("grid", json::array(grid));
        root.field("campaign", {
            let mut c = json::Obj::new();
            c.float("load", LOAD)
                .float("worst_recovery_margin", worst_margin)
                .float("worst_detect_delivery_ratio", worst_detect)
                .float("worst_oracle_gap", worst_oracle_gap)
                .field("arms", json::array(campaigns));
            c.finish()
        });
        root.finish()
    };
    harness::export("BENCH_detect", &payload);
}
