//! `ftr-ledger` command line; `benchmark/run.sh` builds and calls it.
//!
//! ```text
//! ftr-ledger [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!            [--smoke] [--out FILE] [--selfcheck]
//! ftr-ledger compare A.json B.json
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its
//! output with the one-line JSON result. Without, it runs every workload,
//! each in a child process of its own, and `--out` collects their reports
//! into one file for `compare`. `--selfcheck` makes two such passes and
//! compares them.

use ftr_ledger::compare::{compare, Comparison};
use ftr_ledger::report::Header;
use ftr_ledger::run::{run, Options};
use ftr_ledger::workloads::WORKLOADS;
use ftr_obs::json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: ftr-ledger [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out FILE] [--selfcheck]\n       ftr-ledger compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    selfcheck: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Where traces, scratch captures and per-workload reports go: beside the
/// executable, which `run.sh` builds inside the checkout's target directory.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?.join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_one(name: &str, a: &Args) -> Result<bool, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let opts = Options {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        out_dir: out_dir()?,
    };
    let header = Header::capture();
    let report = run(w, &opts);
    print!("{}", report.table(&header));
    if let Some(path) = &a.out {
        std::fs::write(path, report.to_json(&header) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report.driver_line());
    Ok(report.error.is_none())
}

/// Runs every workload in a child process of its own and, when asked,
/// gathers their reports into `out`.
fn run_all(a: &Args, out: Option<&Path>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir()?;
    let mut reports = Vec::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let part = dir.join(format!("report.{}.{}.json", std::process::id(), w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if a.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        all_ok &= status.success();
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()));
        let _ = std::fs::remove_file(&part);
        reports.push(text?.trim_end().to_string());
    }
    if let Some(path) = out {
        let mut root = json::Obj::new();
        root.field("header", Header::capture().to_json()).field("workloads", json::array(reports));
        std::fs::write(path, root.finish() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

/// Prints the comparison of two report files (A the baseline).
fn compare_files(a: &Path, b: &Path) -> Result<Comparison, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let c = compare(&read(a)?, &read(b)?)?;
    print!("{}", c.text);
    Ok(c)
}

/// Two full untraced passes of this build must agree with each other.
fn selfcheck(a: &Args) -> Result<bool, String> {
    let dir = out_dir()?;
    let (pa, pb) = (dir.join("selfcheck.a.json"), dir.join("selfcheck.b.json"));
    for p in [&pa, &pb] {
        if !run_all(a, Some(p))? {
            return Err("a workload failed its checks".into());
        }
    }
    let c = compare_files(&pa, &pb)?;
    Ok(c.regressions == 0 && c.unresolved == 0 && c.digests_changed == 0)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ftr-ledger: refusing to measure a debug build; use benchmark/run.sh");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ok = match argv.as_slice() {
        [cmd, a, b] if cmd == "compare" => {
            compare_files(Path::new(a), Path::new(b)).map(|c| c.regressions == 0)
        }
        _ => parse(&argv).and_then(|a| match &a.workload {
            _ if a.selfcheck => selfcheck(&a),
            Some(name) => run_one(name, &a),
            None => run_all(&a, a.out.as_deref()),
        }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ftr-ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
