//! Interpreter profiling: where rule-interpretation time goes.
//!
//! [`InterpProfiler`] implements [`ftr_rules::InterpProbe`] and
//! accumulates per-rule-base, per-stage (premise / kernel / conclusion)
//! wall-clock nanoseconds. Install it on a `Machine` (or through
//! `RuleRouter::with_profiler` in `ftr-core`) and every probed decision
//! feeds the profile.

use crate::json::{self, Obj};
use crate::lock;
use ftr_rules::{InterpProbe, Stage};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Accumulated cost of one (rule base, stage) cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCost {
    /// Number of stage executions.
    pub count: u64,
    /// Total nanoseconds.
    pub nanos: u64,
}

impl StageCost {
    /// Mean nanoseconds per execution (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nanos as f64 / self.count as f64
        }
    }
}

/// Thread-safe per-stage interpretation profile.
#[derive(Default)]
pub struct InterpProfiler {
    // indexed [base][stage]; grows on demand so one profiler can serve
    // machines compiled from different programs
    cells: Mutex<Vec<[StageCost; 3]>>,
    /// Label distinguishing runs sharing one report (e.g. `"baseline"`
    /// vs `"optimized"`); carried into every JSON row.
    tag: Option<String>,
}

fn stage_idx(stage: Stage) -> usize {
    match stage {
        Stage::Premise => 0,
        Stage::Kernel => 1,
        Stage::Conclusion => 2,
    }
}

impl InterpProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty profiler labeled with `tag` (e.g. `"optimized"`
    /// for runs driven by a rewritten program).
    pub fn with_tag(tag: &str) -> Self {
        InterpProfiler { tag: Some(tag.to_string()), ..Self::default() }
    }

    /// The run label, if any.
    pub fn tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }

    /// Snapshot of the `(base, stage)` cost matrix.
    pub fn snapshot(&self) -> Vec<[StageCost; 3]> {
        lock(&self.cells).clone()
    }

    /// Cost of one cell (zero if never seen).
    pub fn cost(&self, base: usize, stage: Stage) -> StageCost {
        lock(&self.cells).get(base).map_or(StageCost::default(), |c| c[stage_idx(stage)])
    }

    /// Total interpretations observed (premise executions).
    pub fn interpretations(&self) -> u64 {
        lock(&self.cells).iter().map(|c| c[0].count).sum()
    }

    /// Human-readable table. `names[i]` labels rule base `i`; missing
    /// names fall back to the index.
    pub fn report(&self, names: &[String]) -> String {
        let cells = self.snapshot();
        let mut s = String::from(
            "rule base                  stage         fires     mean ns    total ns\n",
        );
        for (b, row) in cells.iter().enumerate() {
            let name = names.get(b).cloned().unwrap_or_else(|| format!("base#{b}"));
            for stage in Stage::ALL {
                let c = row[stage_idx(stage)];
                if c.count == 0 {
                    continue;
                }
                let _ = writeln!(
                    s,
                    "{:<26} {:<10} {:>10} {:>11.1} {:>11}",
                    name,
                    stage.name(),
                    c.count,
                    c.mean_nanos(),
                    c.nanos
                );
            }
        }
        s
    }

    /// JSON export: `[{"base":name,"premise":{...},"kernel":{...},...}]`.
    pub fn to_json(&self, names: &[String]) -> String {
        let cells = self.snapshot();
        json::array(cells.iter().enumerate().map(|(b, row)| {
            let mut o = Obj::new();
            o.str("base", names.get(b).map_or("", |s| s.as_str()));
            o.num("index", b as u64);
            if let Some(tag) = &self.tag {
                o.str("tag", tag);
            }
            for stage in Stage::ALL {
                let c = row[stage_idx(stage)];
                let mut cell = Obj::new();
                cell.num("count", c.count).num("nanos", c.nanos).float("mean_ns", c.mean_nanos());
                o.field(stage.name(), cell.finish());
            }
            o.finish()
        }))
    }
}

impl InterpProbe for InterpProfiler {
    fn record_stage(&self, base: usize, stage: Stage, nanos: u64) {
        let mut cells = lock(&self.cells);
        if cells.len() <= base {
            cells.resize(base + 1, [StageCost::default(); 3]);
        }
        let c = &mut cells[base][stage_idx(stage)];
        c.count += 1;
        c.nanos += nanos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn accumulates_per_base_and_stage() {
        let p = InterpProfiler::new();
        p.record_stage(0, Stage::Premise, 100);
        p.record_stage(0, Stage::Premise, 300);
        p.record_stage(2, Stage::Kernel, 50);
        assert_eq!(p.cost(0, Stage::Premise).count, 2);
        assert_eq!(p.cost(0, Stage::Premise).nanos, 400);
        assert!((p.cost(0, Stage::Premise).mean_nanos() - 200.0).abs() < 1e-9);
        assert_eq!(p.cost(2, Stage::Kernel).count, 1);
        assert_eq!(p.cost(1, Stage::Conclusion).count, 0);
        assert_eq!(p.interpretations(), 2, "only premise fires count interpretations");
    }

    #[test]
    fn report_and_json() {
        let p = InterpProfiler::new();
        p.record_stage(0, Stage::Premise, 10);
        p.record_stage(0, Stage::Kernel, 5);
        let names = vec!["route_msg".to_string()];
        let rep = p.report(&names);
        assert!(rep.contains("route_msg"));
        assert!(rep.contains("premise"));
        let j = p.to_json(&names);
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"base\":\"route_msg\""));
    }

    #[test]
    fn drives_a_real_machine() {
        use ftr_rules::{CompileOptions, InputMap, Machine};
        use std::sync::Arc;
        let prog = ftr_rules::parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a()\n IF n < 3 THEN n <- n + 1, !a();\nEND a;",
        )
        .unwrap();
        let mut m = Machine::new(prog, &CompileOptions::default()).unwrap();
        let profiler = Arc::new(InterpProfiler::new());
        m.set_probe(profiler.clone());
        m.fire("a", &[], &InputMap::new()).unwrap();
        // fires at n=0,1,2 (rule applies) and n=3 (gap): 4 interpretations
        assert_eq!(profiler.interpretations(), 4);
        assert_eq!(profiler.cost(0, Stage::Kernel).count, 4);
        // the gap entry skips conclusion processing
        assert_eq!(profiler.cost(0, Stage::Conclusion).count, 4);
    }
}
