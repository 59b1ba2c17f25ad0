//! `ftr-ledger compare A.json B.json`: A is the baseline, B the candidate.
//!
//! For every workload and bounded metric the verdict follows the rule the
//! benchmark is built around: the candidate's median may be worse than the
//! baseline's by at most the metric's bound. When either side's own spread
//! (interquartile range over median) exceeds the bound the pair cannot tell
//! a regression from noise and is `unresolved` — unless every candidate
//! sample is better than every baseline sample.

use crate::stats::{median, spread};
use ftr_obs::json::{self, Value};
use std::fmt::Write as _;

/// Outcome of comparing one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// Spread wider than the bound; nothing can be said.
    Unresolved,
}

/// What `compare` found.
pub struct Comparison {
    /// The table, one row per workload and metric.
    pub text: String,
    /// Rows judged [`Verdict::Regression`].
    pub regressions: usize,
    /// Rows judged [`Verdict::Unresolved`].
    pub unresolved: usize,
    /// Workloads whose digest differs between the two reports.
    pub digests_changed: usize,
}

struct Metric {
    better_lower: bool,
    bound: f64,
    samples: Vec<f64>,
}

fn metric(v: &Value) -> Option<(String, Metric)> {
    let samples: Option<Vec<f64>> = v.get("samples")?.as_arr()?.iter().map(Value::as_f64).collect();
    Some((
        v.get("name")?.as_str()?.to_string(),
        Metric {
            better_lower: v.get("better")?.as_str()? == "lower",
            bound: v.get("bound")?.as_f64()?,
            samples: samples.filter(|s| !s.is_empty())?,
        },
    ))
}

/// How much worse `b` is than `a` (share of `a`'s median), the larger of
/// their spreads, and the verdict.
fn judge(a: &Metric, b: &Metric) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(&a.samples), median(&b.samples));
    let spread = spread(&a.samples).max(spread(&b.samples));
    let worse = match (ma == 0.0, a.better_lower) {
        (true, _) => 0.0,
        (false, true) => (mb - ma) / ma,
        (false, false) => (ma - mb) / ma,
    };
    let lo = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all_better = if a.better_lower {
        hi(&b.samples) < lo(&a.samples)
    } else {
        lo(&b.samples) > hi(&a.samples)
    };
    let verdict = if spread > a.bound && !all_better {
        Verdict::Unresolved
    } else if worse > a.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, spread, verdict)
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads").and_then(Value::as_arr).ok_or_else(|| "no `workloads` array".to_string())
}

/// Compares two reports written by `run.sh --out`.
pub fn compare(a_text: &str, b_text: &str) -> Result<Comparison, String> {
    let a = json::parse(a_text).map_err(|e| format!("baseline: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("candidate: {e}"))?;
    let mut out =
        Comparison { text: String::new(), regressions: 0, unresolved: 0, digests_changed: 0 };
    let _ = writeln!(
        out.text,
        "{:<20} {:<20} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "spread", "bound"
    );
    for wa in workloads(&a)? {
        let name = wa.get("workload").and_then(Value::as_str).ok_or("workload without a name")?;
        let Some(wb) =
            workloads(&b)?.iter().find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("candidate has no workload `{name}`"));
        };
        for w in [wa, wb] {
            if w.get("smoke").and_then(Value::as_bool) != Some(false) {
                return Err(format!("{name}: a --smoke report is not a measurement"));
            }
            if w.get("correct").and_then(Value::as_bool) != Some(true) {
                return Err(format!("{name}: a report with failed checks is not a measurement"));
            }
        }
        let digest = |w: &Value| w.get("digest").and_then(Value::as_str).map(str::to_string);
        let changed = digest(wa) != digest(wb);
        out.digests_changed += changed as usize;
        let metrics = |w: &Value| -> Vec<(String, Metric)> {
            w.get("metrics")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(metric)
                .collect()
        };
        let mb = metrics(wb);
        for (mname, ma) in metrics(wa) {
            let Some((_, mb)) = mb.iter().find(|(n, _)| *n == mname) else {
                return Err(format!("{name}: candidate has no metric `{mname}`"));
            };
            let (worse, spread, verdict) = judge(&ma, mb);
            match verdict {
                Verdict::Regression => out.regressions += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Ok => {}
            }
            let _ = writeln!(
                out.text,
                "{:<20} {:<20} {:>14.6} {:>14.6} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                name,
                mname,
                median(&ma.samples),
                median(&mb.samples),
                worse * 100.0,
                spread * 100.0,
                ma.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let _ =
            writeln!(out.text, "{name:<20} digest changed: {}", if changed { "yes" } else { "no" });
    }
    let _ = writeln!(
        out.text,
        "{} regression(s), {} unresolved, {} digest(s) changed",
        out.regressions, out.unresolved, out.digests_changed
    );
    Ok(out)
}
