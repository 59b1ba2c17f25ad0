//! What the benchmark prints must be what `BENCHMARK.json` promises: every
//! workload and metric named there, valid JSON, well-formed names.

use ftr_ledger::compare::compare;
use ftr_ledger::report::{Header, RunReport, END_TO_END, PER_LAYER};
use ftr_ledger::run::{run, Options};
use ftr_ledger::workloads::WORKLOADS;
use ftr_obs::json::{self, Value};
use std::path::PathBuf;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn strs<'a>(v: &'a Value, list: &str, key: &str) -> Vec<&'a str> {
    let items = v.get(list).and_then(Value::as_arr).unwrap_or_else(|| panic!("no {list}"));
    items.iter().map(|i| i.get(key).and_then(Value::as_str).expect("string field")).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn smoke(trace: bool) -> Vec<RunReport> {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("report-{trace}"));
    std::fs::create_dir_all(&out_dir).expect("test scratch dir");
    let o = Options { seed: 1, seconds: 0.0, trace, smoke: true, out_dir };
    WORKLOADS.iter().map(|w| run(w, &o)).collect()
}

#[test]
fn definitions_agree_with_benchmark_json() {
    let c = contract();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(strs(&c, "workloads", "name"), names);
    assert_eq!(strs(&c, "workloads", "why"), WORKLOADS.iter().map(|w| w.why).collect::<Vec<_>>());

    let e2e = c.get("end_to_end").and_then(Value::as_arr).expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(&END_TO_END) {
        let s = |k: &str| j.get(k).and_then(Value::as_str).expect("string field");
        assert_eq!((s("name"), s("unit"), s("better")), (m.name, m.unit, m.better));
        assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
    }
    assert!(END_TO_END.iter().any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(END_TO_END.iter().find(|m| m.name == "setup_s").map(|m| m.bound), Some(widest));

    let layers = c.get("per_layer").and_then(Value::as_arr).expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
        let s = |k: &str| j.get(k).and_then(Value::as_str).expect("string field");
        assert_eq!((s("name"), s("unit"), s("better")), (name, unit, better));
    }

    let all: Vec<&str> = names
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert!(all.iter().all(|n| well_formed(n)), "names match [A-Za-z0-9_.-]+");
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "every name is used once");
}

/// The driver line of `r`, checked for shape, as a parsed value.
fn driver_line(r: &RunReport, expected: &[&str]) -> Value {
    assert_eq!(r.error, None, "{} passes its checks", r.workload);
    let line = r.driver_line();
    json::validate(&line).expect("driver line is valid JSON");
    let v = json::parse(&line).expect("driver line parses");
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0), "{}", r.workload);
    assert!(v.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);
    let metrics = v.get("metrics").expect("metrics");
    for name in expected {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{}: no {name}", r.workload));
        assert!(m.get("value").and_then(Value::as_f64).expect("value").is_finite());
        assert!(m.get("unit").and_then(Value::as_str).is_some());
    }
    assert_eq!(r.metrics.len(), expected.len(), "exactly the promised metrics");
    v
}

#[test]
fn untraced_pass_prints_every_end_to_end_metric_on_every_workload() {
    let header = Header::capture();
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let reports = smoke(false);
    for r in &reports {
        let v = driver_line(r, &names);
        for name in &names {
            let value = v.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
            assert!(value.and_then(Value::as_f64).expect("value") > 0.0, "{}: {name}", r.workload);
        }
        json::validate(&r.to_json(&header)).expect("full report is valid JSON");
        assert!(r.table(&header).contains("all checks passed"));
    }

    // compare refuses smoke reports, and judges a report against itself clean
    let doc = |smoke: &str| {
        let parts = reports.iter().map(|r| r.to_json(&header).replace("\"smoke\":true", smoke));
        format!("{{\"workloads\":{}}}", json::array(parts))
    };
    assert!(compare(&doc("\"smoke\":true"), &doc("\"smoke\":true")).is_err());
    let full = doc("\"smoke\":false");
    let c = compare(&full, &full).expect("comparable");
    assert_eq!((c.regressions, c.unresolved, c.digests_changed), (0, 0, 0), "{}", c.text);
}

#[test]
fn traced_pass_prints_every_per_layer_metric_and_a_span_file() {
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report-true");
    for r in smoke(true) {
        driver_line(&r, &names);
        let trace = out_dir.join(format!("ledger_trace.{}.json", r.workload));
        let text = std::fs::read_to_string(&trace).expect("span file written");
        json::validate(&text).expect("span file is valid JSON");
        let spans = json::parse(&text).expect("parses");
        let spans = spans.get("spans").and_then(Value::as_arr).expect("spans");
        assert!(!spans.is_empty(), "{}: spans recorded", r.workload);
        for s in spans {
            let at = |k: &str| s.get(k).and_then(Value::as_u64).expect("timestamp");
            assert!(at("end_ns") >= at("start_ns"));
        }
    }
    let leftovers = std::fs::read_dir(&out_dir).expect("scratch dir").filter_map(Result::ok);
    assert!(
        leftovers.into_iter().all(|e| !e.file_name().to_string_lossy().starts_with("tmp.")),
        "capture directories are removed"
    );
}
