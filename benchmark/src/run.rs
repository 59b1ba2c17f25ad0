//! The runner: repeats one workload for the requested time and folds the
//! repetitions into a [`RunReport`].
//!
//! Untraced pass (`trace = false`): one untimed warm-up repetition where
//! the workload asks for it, then timed repetitions until `seconds` have
//! passed (at least three); each sets up afresh, so every repetition yields
//! one `setup_s` and one `wall_s` sample and the reported values are medians.
//!
//! Traced pass: untraced and traced repetitions alternate for `seconds`
//! (at least two of each). The traced ones run behind the timing shims and
//! yield the per-layer metrics, again as medians; the ratio of the two
//! walls is the tracing overhead.

use crate::report::{RunReport, Summary, END_TO_END, PER_LAYER};
use crate::spans::{calibrate_clock_ns, Tracer};
use crate::stats::median;
use crate::workloads::{Ctx, Layers, RepOut, SimOut, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How to run a workload.
pub struct Options {
    /// Seed for schedules and fault plans.
    pub seed: u64,
    /// Seconds to keep repeating for (ignored under `smoke`).
    pub seconds: f64,
    /// Traced pass instead of the untraced one.
    pub trace: bool,
    /// Sizes divided by 20, no warm-up, one repetition.
    pub smoke: bool,
    /// Directory for `ledger_trace.<workload>.json` and the scratch
    /// directory for captures.
    pub out_dir: PathBuf,
}

/// Scratch directory, removed when the run ends however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(parent: &Path) -> std::io::Result<Self> {
        let dir = parent.join(format!("tmp.{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Runs `w` as `o` says. A correctness violation ends the run at once and
/// is reported in [`RunReport::error`], with every offered message failed.
pub fn run(w: &Workload, o: &Options) -> RunReport {
    let mut report = RunReport {
        workload: w.name,
        seed: o.seed,
        smoke: o.smoke,
        trace: o.trace,
        error: None,
        attempted: 0,
        failed: 0,
        digest: 0,
        metrics: Vec::new(),
    };
    match repeat(w, o, &mut report) {
        Ok(metrics) => report.metrics = metrics,
        Err(e) => {
            report.failed = report.attempted.max(1);
            report.error = Some(e);
        }
    }
    report
}

fn repeat(w: &Workload, o: &Options, report: &mut RunReport) -> Result<Vec<Summary>, String> {
    let scratch = Scratch::create(&o.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let mut ctx = Ctx {
        seed: o.seed,
        div: if o.smoke { 20 } else { 1 },
        clock_ns: calibrate_clock_ns(),
        baseline_wall_s: 0.0,
        tmp: scratch.0.clone(),
    };
    let mut quiet = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let min_reps = match (o.smoke, o.trace) {
        (true, _) => 1,
        (false, false) => 3,
        (false, true) => 2,
    };

    let mut first: Option<SimOut> = None;
    let mut same = |r: &RepOut| match &first {
        Some(f) if *f != r.sim => {
            Err(format!("simulated outcome differs between repetitions: {f:?} vs {:?}", r.sim))
        }
        Some(_) => Ok(()),
        None => {
            first = Some(r.sim.clone());
            Ok(())
        }
    };

    if w.warm_up && !o.smoke {
        same(&(w.rep)(&ctx, &mut quiet)?)?; // untimed
    }
    let (mut plain, mut traced): (Vec<RepOut>, Vec<RepOut>) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while plain.len() < min_reps || (!o.smoke && t0.elapsed().as_secs_f64() < o.seconds) {
        let r = (w.rep)(&ctx, &mut quiet)?;
        same(&r)?;
        plain.push(r);
        if o.trace {
            let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
            ctx.baseline_wall_s = median(&walls);
            tracer.next_rep();
            let r = (w.rep)(&ctx, &mut tracer)?;
            same(&r)?;
            traced.push(r);
        }
    }
    let sim = first.expect("at least one repetition ran");
    report.attempted = sim.offered;
    report.failed = sim.offered - sim.delivered;
    report.digest = sim.digest;

    if !o.trace {
        return end_to_end(&plain, &sim);
    }
    let path = o.out_dir.join(format!("ledger_trace.{}.json", w.name));
    std::fs::write(&path, tracer.to_json(w.name, ctx.clock_ns) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(per_layer(&plain, &traced, ctx.clock_ns))
}

fn end_to_end(reps: &[RepOut], sim: &SimOut) -> Result<Vec<Summary>, String> {
    let rss = peak_rss_mb()?;
    let per_s = |n: u64| reps.iter().map(|r| n as f64 / r.wall_s).collect::<Vec<f64>>();
    let exact = |(sum, count): (u64, u64)| vec![sum as f64 / count.max(1) as f64; reps.len()];
    Ok(END_TO_END
        .iter()
        .map(|m| Summary {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: Some(m.bound),
            samples: match m.name {
                "wall_s" => reps.iter().map(|r| r.wall_s).collect(),
                "cycles_per_s" => per_s(sim.cycles),
                "flit_hops_per_s" => per_s(sim.flit_hops),
                "msgs_per_s" => per_s(sim.delivered),
                "setup_s" => reps.iter().map(|r| r.setup_s).collect(),
                "peak_rss_mb" => vec![rss],
                "sim_latency_cycles" => exact(sim.latency),
                "sim_decision_steps" => exact(sim.steps),
                other => unreachable!("end-to-end metric {other} has no source"),
            },
        })
        .collect())
}

fn per_layer(plain: &[RepOut], traced: &[RepOut], clock_ns: f64) -> Vec<Summary> {
    let wall = |reps: &[RepOut]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<f64>>());
    let mut once = Layers::new();
    once.extend(crate::micro::topo_queries());
    once.insert("ledger.clock_ns", clock_ns);
    once.insert("ledger.overhead_share", wall(traced) / wall(plain) - 1.0);
    once.insert("ledger.traced_wall_s", wall(traced));
    once.insert(
        "ledger.host_parallelism",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            let samples: Vec<f64> = match once.get(name) {
                Some(&v) => vec![v],
                None => traced.iter().map(|r| r.layers.get(name).copied().unwrap_or(0.0)).collect(),
            };
            Summary { name, unit, better, bound: None, samples }
        })
        .collect()
}
