//! Metric definitions and the two output forms: the table a person reads
//! and the JSON the driver and `compare` read.
//!
//! The definitions here and `BENCHMARK.json` at the repository root say
//! the same thing twice, because the driver reads one and the program the
//! other; `tests/report.rs` fails when they drift apart.

use crate::stats::median;
use ftr_obs::json;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, all defined on every workload. Host time unless
/// the name starts with `sim_`; those are simulated and repeat exactly for
/// a given seed.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "cycles_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "flit_hops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "msgs_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15 },
    EndToEnd { name: "sim_latency_cycles", unit: "cycles", better: "lower", bound: 0.15 },
    EndToEnd { name: "sim_decision_steps", unit: "steps", better: "lower", bound: 0.05 },
];

/// The per-layer metrics as `(name, unit, better)`; names are
/// `<crate>.<metric>`. A workload that does not exercise a layer reports 0
/// for that layer's metrics.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("sim.build_s", "s", "lower"),
    ("sim.schedule_s", "s", "lower"),
    ("sim.settle_s", "s", "lower"),
    ("sim.send_s", "s", "lower"),
    ("sim.send_calls", "count", "lower"),
    ("sim.step_s", "s", "lower"),
    ("sim.step_calls", "count", "lower"),
    ("sim.drain_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.self_ns_per_cycle", "ns", "lower"),
    ("sim.self_ns_per_flit_hop", "ns", "lower"),
    ("sim.step_ns_p50", "ns", "lower"),
    ("sim.step_ns_p99", "ns", "lower"),
    ("sim.emit_s", "s", "lower"),
    ("sim.run_ms_p50", "ms", "lower"),
    ("sim.run_ms_p99", "ms", "lower"),
    ("sim.par2_ratio", "ratio", "higher"),
    ("algos.route_s", "s", "lower"),
    ("algos.route_calls", "count", "lower"),
    ("algos.route_ns", "ns", "lower"),
    ("algos.wait_share", "ratio", "lower"),
    ("algos.ctl_s", "s", "lower"),
    ("algos.ctl_calls", "count", "lower"),
    ("algos.ctl_msgs", "count", "lower"),
    ("core.configure_s", "s", "lower"),
    ("core.bring_up_s", "s", "lower"),
    ("core.route_s", "s", "lower"),
    ("core.route_calls", "count", "lower"),
    ("core.route_ns", "ns", "lower"),
    ("core.wait_share", "ratio", "lower"),
    ("core.ctl_s", "s", "lower"),
    ("rules.parse_s", "s", "lower"),
    ("rules.compile_s", "s", "lower"),
    ("rules.cost_s", "s", "lower"),
    ("rules.lower_s", "s", "lower"),
    ("rules.fire_ns_table", "ns", "lower"),
    ("rules.fire_ns_bytecode", "ns", "lower"),
    ("rules.fire_ns_reference", "ns", "lower"),
    ("rules.premise_share", "ratio", "lower"),
    ("rules.kernel_share", "ratio", "lower"),
    ("rules.conclusion_share", "ratio", "lower"),
    ("rules.steps_per_decision", "steps", "lower"),
    ("analyze.lint_s", "s", "lower"),
    ("analyze.opt_s", "s", "lower"),
    ("analyze.opt_rewrites", "count", "higher"),
    ("analyze.verify_s", "s", "lower"),
    ("analyze.verify_fault_sets", "count", "higher"),
    ("obs.record_s", "s", "lower"),
    ("obs.record_calls", "count", "lower"),
    ("obs.record_ns", "ns", "lower"),
    ("obs.bytes_per_event", "B", "lower"),
    ("obs.finalize_s", "s", "lower"),
    ("obs.write_errors", "count", "lower"),
    ("obs.events_per_s", "1/s", "higher"),
    ("trace.diagnose_s", "s", "lower"),
    ("trace.replay_s", "s", "lower"),
    ("trace.fold_ns_per_event", "ns", "lower"),
    ("trace.replay_events_per_s", "1/s", "higher"),
    ("trace.report_s", "s", "lower"),
    ("topo.neighbor_ns", "ns", "lower"),
    ("topo.distance_ns", "ns", "lower"),
    ("ledger.clock_ns", "ns", "lower"),
    ("ledger.clock_s", "s", "lower"),
    ("ledger.overhead_share", "ratio", "lower"),
    ("ledger.traced_wall_s", "s", "lower"),
    ("ledger.unaccounted_share", "ratio", "lower"),
    ("ledger.host_parallelism", "count", "higher"),
];

/// One metric of a finished run: its definition and every sample.
pub struct Summary {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// One value per repetition; the reported value is their median.
    pub samples: Vec<f64>,
}

impl Summary {
    /// The reported value.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    fn to_json(&self) -> String {
        let mut o = json::Obj::new();
        o.str("name", self.name).str("unit", self.unit).str("better", self.better);
        if let Some(b) = self.bound {
            o.float("bound", b);
        }
        o.float("median", self.value())
            .field("samples", json::array(self.samples.iter().map(|&x| json::float(x))));
        o.finish()
    }
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// Where and how a run was made; printed first and carried in every report.
pub struct Header {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`, as the runner script captured it.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git: String,
}

impl Header {
    /// Reads the host and the runner script's environment.
    pub fn capture() -> Self {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Header {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env("LEDGER_RUSTC"),
            git: env("LEDGER_GIT"),
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> String {
        let mut o = json::Obj::new();
        o.num("nproc", self.nproc as u64).str("rustc", &self.rustc).str("git", &self.git);
        o.finish()
    }
}

/// Everything one run of one workload produced.
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were drawn from.
    pub seed: u64,
    /// Sizes divided by 20; never comparable with a full run.
    pub smoke: bool,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// First correctness violation, if any.
    pub error: Option<String>,
    /// Messages offered per repetition.
    pub attempted: u64,
    /// Offered messages not delivered (all of them on a violation).
    pub failed: u64,
    /// Digest of the simulated outcome.
    pub digest: u64,
    /// The metrics of this pass.
    pub metrics: Vec<Summary>,
}

impl RunReport {
    /// The table a person reads.
    pub fn table(&self, h: &Header) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# ftr-ledger workload={} seed={} trace={} smoke={} nproc={} rustc={:?} git={}",
            self.workload, self.seed, self.trace as u8, self.smoke, h.nproc, h.rustc, h.git
        );
        let _ = writeln!(
            s,
            "# {:<28} {:>7} {:>7} {:>3} {:>14} {:>14} {:>14} {:>6}",
            "metric", "unit", "better", "n", "median", "min", "max", "bound"
        );
        for m in &self.metrics {
            let (min, max) = min_max(&m.samples);
            let bound = m.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                s,
                "  {:<28} {:>7} {:>7} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>6}",
                m.name,
                m.unit,
                m.better,
                m.samples.len(),
                m.value(),
                min,
                max,
                bound
            );
        }
        let _ = writeln!(
            s,
            "# digest {:#018x}  attempted {}  failed {}  {}",
            self.digest,
            self.attempted,
            self.failed,
            match &self.error {
                None => "all checks passed".to_string(),
                Some(e) => format!("CHECK FAILED: {e}"),
            }
        );
        s
    }

    /// The line the driver parses: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric as `{value, unit}` with every digit.
    pub fn driver_line(&self) -> String {
        let mut metrics = json::Obj::new();
        for m in &self.metrics {
            let mut v = json::Obj::new();
            v.float("value", m.value()).str("unit", m.unit);
            metrics.field(m.name, v.finish());
        }
        let mut o = json::Obj::new();
        o.bool("correct", self.error.is_none())
            .num("attempted", self.attempted.max(1))
            .num("failed", self.failed)
            .field("metrics", metrics.finish());
        o.finish()
    }

    /// The full report `compare` reads.
    pub fn to_json(&self, h: &Header) -> String {
        let mut o = json::Obj::new();
        o.str("workload", self.workload)
            .num("seed", self.seed)
            .bool("smoke", self.smoke)
            .bool("trace", self.trace)
            .bool("correct", self.error.is_none())
            .num("attempted", self.attempted)
            .num("failed", self.failed)
            .str("digest", &format!("{:#018x}", self.digest))
            .field("header", h.to_json())
            .field("metrics", json::array(self.metrics.iter().map(Summary::to_json)));
        o.finish()
    }
}
