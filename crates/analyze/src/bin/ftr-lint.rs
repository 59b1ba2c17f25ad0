//! `ftr-lint` — static analysis CLI for rule programs.
//!
//! ```text
//! ftr-lint [OPTIONS] [FILE.rules ...]
//!
//!   --builtin          also lint the shipped programs (xy, west_first,
//!                      nafta, route_c, route_c_nft, naive_adaptive)
//!   --absint           run the abstract-interpretation lints
//!                      (FTR009-FTR012: semantic unreachability,
//!                      entailment shadowing, constant registers,
//!                      constant atoms)
//!   --optimize         run the certified table optimizer on each
//!                      program and replay its certificate through the
//!                      independent checker
//!   --mesh WxH         topology facts for --absint/--optimize
//!                      (clamps xpos/xdes/ypos/ydes; default: declared
//!                      domains only)
//!   --format FMT       text (default) or json: one machine-readable
//!                      document with every diagnostic (code, severity,
//!                      span, rule base) plus optimizer summaries, so CI
//!                      can diff lint output instead of grepping text
//!   --deadlock SPEC    additionally run the CDG deadlock verifier (the
//!                      only static deadlock analysis) on each program,
//!                      on the data path its declarations select; SPEC
//!                      is mesh:WxH or cube:D. A program that makes no
//!                      decision on SPEC is reported as skipped
//!   --max-faults N     verify all link-fault sets up to size N
//!                      (default: 0, fault-free only)
//!   --max-sets N       cap on enumerated fault scenarios (default: 512,
//!                      deterministically sampled beyond that)
//!   --verbose          also print note-level findings (intentional
//!                      rule-language idioms: order-resolved conflicts,
//!                      host-read registers, gaps in non-returning bases)
//!
//! exit status: 0 clean, 1 findings at error severity, a dependency
//! cycle, or a failed optimizer certificate, 2 usage/parse/compile
//! failure. The closing "no findings" line is printed only when nothing
//! warned and every proof and certificate held.
//! ```

use ftr_analyze::{
    analyze_source_with, opt, CubeProgramLift, DeadlockReport, Diagnostic, LintOptions,
    MeshProgramLift, Rewrite, Severity, TopoFacts,
};
use ftr_obs::json::Obj;
use ftr_topo::{Hypercube, Mesh2D};
use std::process::ExitCode;

struct Options {
    files: Vec<String>,
    builtin: bool,
    absint: bool,
    optimize: bool,
    mesh: Option<(u32, u32)>,
    json: bool,
    deadlock: Option<String>,
    max_faults: usize,
    max_sets: usize,
    verbose: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ftr-lint [--builtin] [--absint] [--optimize] [--mesh WxH] \
         [--format text|json] [--deadlock mesh:WxH|cube:D] [--max-faults N] [--max-sets N] \
         [--verbose] [FILE.rules ...]"
    );
    ExitCode::from(2)
}

fn parse_wh(spec: &str) -> Option<(u32, u32)> {
    let (w, h) = spec.split_once('x')?;
    let (w, h): (u32, u32) = (w.parse().ok()?, h.parse().ok()?);
    if w == 0 || h == 0 {
        return None;
    }
    Some((w, h))
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        files: Vec::new(),
        builtin: false,
        absint: false,
        optimize: false,
        mesh: None,
        json: false,
        deadlock: None,
        max_faults: 0,
        max_sets: 512,
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--builtin" => opts.builtin = true,
            "--absint" => opts.absint = true,
            "--optimize" => opts.optimize = true,
            "--mesh" => {
                let spec = args.next().ok_or_else(usage)?;
                opts.mesh = Some(parse_wh(&spec).ok_or_else(usage)?);
            }
            "--format" => {
                opts.json = match args.next().as_deref() {
                    Some("json") => true,
                    Some("text") => false,
                    _ => return Err(usage()),
                }
            }
            "--deadlock" => opts.deadlock = Some(args.next().ok_or_else(usage)?),
            "--max-faults" => {
                opts.max_faults = args.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?
            }
            "--max-sets" => {
                opts.max_sets = args.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?
            }
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => return Err(usage()),
            _ if a.starts_with('-') => return Err(usage()),
            _ => opts.files.push(a),
        }
    }
    if opts.files.is_empty() && !opts.builtin {
        return Err(usage());
    }
    Ok(opts)
}

fn topo_facts(opts: &Options) -> TopoFacts {
    match opts.mesh {
        Some((w, h)) => TopoFacts::mesh(w, h),
        None => TopoFacts::none(),
    }
}

/// `mesh:4x4` → Mesh verification, `cube:4` → hypercube verification.
fn run_deadlock(
    spec: &str,
    name: &str,
    analysis: &ftr_analyze::Analysis,
    opts: &Options,
) -> Result<DeadlockReport, ExitCode> {
    let refused = |e: ftr_rules::RuleError| {
        eprintln!("ftr-lint: {name}: cannot verify on {spec}: {e}");
        ExitCode::from(2)
    };
    let compiled = analysis.compiled.clone();
    Ok(if let Some(wh) = spec.strip_prefix("mesh:") {
        let (w, h) = parse_wh(wh).ok_or_else(|| {
            eprintln!("ftr-lint: bad mesh spec: {spec}");
            ExitCode::from(2)
        })?;
        let lift = MeshProgramLift::new(compiled, Mesh2D::new(w, h)).map_err(refused)?;
        lift.verify(name, opts.max_faults, opts.max_sets)
    } else if let Some(d) = spec.strip_prefix("cube:") {
        let d: u32 = d.parse().map_err(|_| usage())?;
        // the direction/free masks in the program lift are u8 bit sets
        if !(1..=8).contains(&d) {
            eprintln!("ftr-lint: cube dimension must be in 1..=8: {spec}");
            return Err(ExitCode::from(2));
        }
        let lift = CubeProgramLift::new(compiled, Hypercube::new(d)).map_err(refused)?;
        lift.verify(name, opts.max_faults, opts.max_sets)
    } else {
        return Err(usage());
    })
}

fn diag_json(d: &Diagnostic) -> String {
    let mut o = Obj::new();
    o.str("code", d.code.id());
    o.str("severity", &d.severity.to_string());
    if let Some(p) = d.pos {
        o.num("line", p.line);
        o.num("col", p.col);
    }
    if let Some(rb) = &d.rulebase {
        o.str("rulebase", rb);
    }
    o.str("message", &d.message);
    o.finish()
}

/// Runs the certified optimizer on one program and replays the
/// certificate. Returns (json summary, text summary, healthy).
fn run_optimize(
    name: &str,
    analysis: &ftr_analyze::Analysis,
    topo: &TopoFacts,
) -> (String, String, bool) {
    let oopts = opt::OptOptions { topo: topo.clone() };
    let prog = &analysis.compiled.prog;
    match opt::optimize_rulebase(name, prog, &oopts) {
        Ok(o) => {
            let verified = opt::verify(prog, &o, &oopts).is_ok();
            let count = |f: fn(&Rewrite) -> bool| o.cert.rewrites.iter().filter(|r| f(r)).count();
            let specialized = count(|r| matches!(r, Rewrite::SpecializeRegister { .. }));
            let folded = count(|r| matches!(r, Rewrite::FoldAtom { .. }));
            let deleted = count(|r| matches!(r, Rewrite::DeleteRule { .. }));
            let fused = count(|r| matches!(r, Rewrite::FuseTail { .. }));
            let reordered = count(|r| matches!(r, Rewrite::SwapRules { .. }));
            let rules = |c: &ftr_rules::CompiledProgram| -> usize {
                c.prog.rulebases.iter().map(|rb| rb.rules.len()).sum()
            };
            let mut j = Obj::new();
            j.num("rewrites", o.cert.rewrites.len() as u64);
            j.num("specialized", specialized as u64);
            j.num("folded", folded as u64);
            j.num("deleted", deleted as u64);
            j.num("fused", fused as u64);
            j.num("reordered", reordered as u64);
            j.num("rules_before", rules(&analysis.compiled) as u64);
            j.num("rules_after", rules(&o.compiled) as u64);
            j.bool("certificate_verified", verified);
            let text = format!(
                "{name}: optimize: {} rewrite(s) ({specialized} specialized, {folded} folded, \
                 {deleted} deleted, {fused} fused, {reordered} reordered), certificate {}",
                o.cert.rewrites.len(),
                if verified { "verified" } else { "REJECTED" },
            );
            (j.finish(), text, verified)
        }
        Err(e) => {
            let mut j = Obj::new();
            j.str("error", &e);
            j.bool("certificate_verified", false);
            (j.finish(), format!("{name}: optimize FAILED: {e}"), false)
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let mut programs: Vec<(String, String)> = Vec::new();
    if opts.builtin {
        for (name, src) in ftr_algos::rules_src::all() {
            programs.push((name.to_string(), src.to_string()));
        }
    }
    for f in &opts.files {
        match std::fs::read_to_string(f) {
            Ok(src) => {
                let name = std::path::Path::new(f)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(f)
                    .to_string();
                programs.push((name, src));
            }
            Err(e) => {
                eprintln!("ftr-lint: cannot read {f}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let topo = topo_facts(&opts);
    let lint_opts = LintOptions { absint: opts.absint, topo: topo.clone() };

    let mut worst = Severity::Note;
    let mut any_finding = false;
    let mut all_verified = true;
    let mut program_objs: Vec<String> = Vec::new();
    for (name, src) in &programs {
        let analysis = match analyze_source_with(name, src, &lint_opts) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("ftr-lint: {name}: {e}");
                return ExitCode::from(2);
            }
        };
        for d in &analysis.diagnostics {
            if !opts.json && (d.severity > Severity::Note || opts.verbose) {
                println!("{d}");
            }
            if d.severity > Severity::Note || opts.verbose {
                any_finding = true;
            }
            if d.severity > worst {
                worst = d.severity;
            }
        }

        let mut pj = Obj::new();
        pj.str("program", name);
        pj.field("diagnostics", ftr_obs::json::array(analysis.diagnostics.iter().map(diag_json)));

        if opts.optimize {
            let (oj, text, healthy) = run_optimize(name, &analysis, &topo);
            pj.field("optimize", oj);
            all_verified &= healthy;
            if !opts.json {
                println!("{text}");
            }
        }
        if let Some(spec) = &opts.deadlock {
            match run_deadlock(spec, name, &analysis, &opts) {
                Ok(report) => {
                    let summary = report.summary();
                    all_verified &= report.verified();
                    pj.str("deadlock", &summary);
                    pj.num("fault_sets_checked", report.fault_sets_checked as u64);
                    pj.num("fault_sets_total", report.fault_sets_total as u64);
                    if !opts.json {
                        println!("{summary}");
                    }
                }
                Err(code) => return code,
            }
        }
        program_objs.push(pj.finish());
    }

    if opts.json {
        let mut root = Obj::new();
        root.str("tool", "ftr-lint");
        root.num("programs_linted", programs.len() as u64);
        root.str("worst_severity", &worst.to_string());
        // null: no proof or certificate was asked for, so none held
        if opts.deadlock.is_some() || opts.optimize {
            root.bool("verified", all_verified);
        } else {
            root.field("verified", "null");
        }
        root.field("programs", ftr_obs::json::array(program_objs));
        println!("{}", root.finish());
    } else if !any_finding && all_verified {
        println!("ftr-lint: {} program(s), no findings", programs.len());
    }
    if worst >= Severity::Error || !all_verified {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
