//! Layer 1: rule-base diagnostics over the AST and the compiled tables.
//!
//! The ARON compiler (§4.3) fills the rule table *silently*: overlapping
//! premises are resolved by source order and uncovered feature-space
//! entries become no-op gaps. This module turns those silent resolutions —
//! plus a handful of purely syntactic checks the parser's kind-level type
//! system does not catch — into [`Diagnostic`]s:
//!
//! * table-derived: FTR001 shadowed rules, FTR002 unsatisfiable premises,
//!   FTR003 order-resolved conflicts, FTR004 gap coverage;
//! * AST-derived: FTR005 literal domain violations (the parser unifies all
//!   integer ranges and defers the range check to runtime), FTR006/FTR007
//!   unused registers/inputs, FTR008 conflicting parallel writes.

use crate::absint::{self, TopoFacts};
use crate::diag::{Diagnostic, LintCode, Severity};
use crate::progress;
use ftr_rules::ast::{
    walk_cmds, walk_expr, Builtin, Command, Expr, IndexedRef, Program, Ref, Rule, RuleBase,
};
use ftr_rules::compile::CompileWarning;
use ftr_rules::error::Result;
use ftr_rules::pretty::describe_expr;
use ftr_rules::value::{Type, Value};
use ftr_rules::{compile, parse, CompileOptions, CompiledProgram};

/// Which optional analysis layers to run on top of the base lints.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Run the abstract-interpretation engine (FTR009–FTR012).
    pub absint: bool,
    /// Run the progress lint (FTR013); implies the engine's facts.
    pub progress: bool,
    /// Topology invariants seeded into the engine.
    pub topo: TopoFacts,
}

/// The result of analyzing one program: the compiled artefact (reusable by
/// the deadlock verifier) plus every linter finding.
#[derive(Debug)]
pub struct Analysis {
    /// Program name used in diagnostics.
    pub name: String,
    /// The compiled program (parse + ARON compile succeeded).
    pub compiled: CompiledProgram,
    /// All findings, in (rule base, code) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Highest severity among the findings.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Clean = nothing at warning severity or above.
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.severity >= Severity::Warning)
    }

    /// Findings with a specific code.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }
}

/// Parses, compiles and lints a rule program. Parse/compile failures are
/// hard errors (the program is broken before linting can start).
pub fn analyze_source(name: &str, src: &str) -> Result<Analysis> {
    analyze_source_with(name, src, &LintOptions::default())
}

/// [`analyze_source`] with the optional layers enabled per `opts`.
pub fn analyze_source_with(name: &str, src: &str, opts: &LintOptions) -> Result<Analysis> {
    let prog = parse(src)?;
    let compiled = compile(&prog, &CompileOptions::default())?;
    Ok(analyze_compiled_with(name, compiled, opts))
}

/// Lints an already-compiled program (base lints only).
pub fn analyze_compiled(name: &str, compiled: CompiledProgram) -> Analysis {
    analyze_compiled_with(name, compiled, &LintOptions::default())
}

/// Lints an already-compiled program with the optional layers per `opts`.
pub fn analyze_compiled_with(
    name: &str,
    compiled: CompiledProgram,
    opts: &LintOptions,
) -> Analysis {
    let mut diags = Vec::new();
    table_lints(name, &compiled, &mut diags);
    domain_lints(name, &compiled.prog, &mut diags);
    usage_lints(name, &compiled.prog, &mut diags);
    parallel_write_lints(name, &compiled.prog, &mut diags);
    if opts.absint || opts.progress {
        let facts = absint::analyze_program(&compiled, &opts.topo);
        if opts.absint {
            // paranoid re-run with every register treated as host-written:
            // findings that survive it hold under the declared domains
            // alone (warning); findings that need INIT-derived register
            // facts could be upset by a host write (note)
            let paranoid_topo = TopoFacts {
                host_written: compiled.prog.vars.iter().map(|v| v.name.clone()).collect(),
                ..opts.topo.clone()
            };
            let paranoid = absint::analyze_program(&compiled, &paranoid_topo);
            absint_lints(name, &compiled, &facts, &paranoid, &mut diags);
        }
        if opts.progress {
            progress_lints(name, &compiled, &opts.topo, &mut diags);
        }
    }
    Analysis { name: name.to_string(), compiled, diagnostics: diags }
}

/// FTR009–FTR012 from the abstract-interpretation facts. Rules the
/// propositional table lints already flagged (FTR001/FTR002) are skipped:
/// the engine's findings strictly extend them.
fn absint_lints(
    name: &str,
    compiled: &CompiledProgram,
    facts: &absint::Facts,
    paranoid: &absint::Facts,
    diags: &mut Vec<Diagnostic>,
) {
    let prog = &compiled.prog;
    for (bi, cb) in compiled.bases.iter().enumerate() {
        let rb = &prog.rulebases[cb.rb];
        let mut wins = vec![0u64; rb.rules.len()];
        for &e in &cb.table {
            if let Some(r) = cb.decode_entry(e).ok().flatten() {
                wins[r] += 1;
            }
        }
        for (ri, rule) in rb.rules.iter().enumerate() {
            // already covered by FTR001/FTR002
            if cb.rule_applicable[ri] == 0 || wins[ri] == 0 {
                continue;
            }
            if let Some(i) = facts.entailed_by[bi][ri] {
                // domain-only shadows are defects; shadows that rely on
                // INIT-derived register facts are redundancy a host write
                // could activate — the optimizer's business, not a bug
                let domain_only = paranoid.entailed_by[bi][ri].is_some();
                diags.push(Diagnostic {
                    code: LintCode::SemanticShadow,
                    severity: if domain_only { Severity::Warning } else { Severity::Note },
                    program: name.into(),
                    pos: Some(rule.pos),
                    rulebase: Some(rb.name.clone()),
                    message: format!(
                        "rule {} is semantically shadowed: whenever its guard holds, \
                         rule {}'s guard provably holds too, and source order picks \
                         rule {} (the table alone cannot see this){}",
                        ri + 1,
                        i + 1,
                        i + 1,
                        if domain_only {
                            ""
                        } else {
                            " — the proof uses register-value facts a host write \
                             could invalidate"
                        }
                    ),
                });
            } else if !facts.reachable[bi][ri] {
                let domain_only = !paranoid.reachable[bi][ri];
                diags.push(Diagnostic {
                    code: LintCode::AbsintUnreachable,
                    severity: if domain_only { Severity::Warning } else { Severity::Note },
                    program: name.into(),
                    pos: Some(rule.pos),
                    rulebase: Some(rb.name.clone()),
                    message: format!(
                        "rule {} is unreachable: abstract interpretation over the \
                         value domains proves its guard (with all earlier guards \
                         negated) unsatisfiable{}",
                        ri + 1,
                        if domain_only {
                            ""
                        } else {
                            " — the proof uses register-value facts a host write \
                             could invalidate"
                        }
                    ),
                });
            }
        }
        for ca in &facts.const_atoms[bi] {
            diags.push(Diagnostic {
                code: LintCode::ConstantAtom,
                severity: Severity::Note,
                program: name.into(),
                pos: Some(rb.rules[ca.rule].pos),
                rulebase: Some(rb.name.clone()),
                message: format!(
                    "in rule {}, the atom `{}` is always {} under the declared \
                     domains — it costs a feature bit without discriminating",
                    ca.rule + 1,
                    describe_expr(prog, rb, &ca.atom),
                    ca.truth
                ),
            });
        }
    }
    for (v, decl) in prog.vars.iter().enumerate() {
        if let Some(val) = &facts.const_regs[v] {
            diags.push(Diagnostic {
                code: LintCode::ConstantRegister,
                severity: Severity::Note,
                program: name.into(),
                pos: Some(decl.pos),
                rulebase: None,
                message: format!(
                    "register `{}` provably holds {} at every decision point under \
                     the program's own writes (the optimizer may specialize it \
                     unless the host writes it)",
                    decl.name,
                    prog.display_value(val)
                ),
            });
        }
    }
}

/// FTR013 from the progress checker.
fn progress_lints(
    name: &str,
    compiled: &CompiledProgram,
    topo: &TopoFacts,
    diags: &mut Vec<Diagnostic>,
) {
    let report = progress::check_progress(compiled, topo);
    match report.verdict {
        progress::ProgressVerdict::Proved | progress::ProgressVerdict::NotApplicable => {}
        progress::ProgressVerdict::Livelock => {
            diags.push(Diagnostic {
                code: LintCode::ProgressViolation,
                severity: Severity::Warning,
                program: name.into(),
                pos: None,
                rulebase: report.rulebase.clone(),
                message: report.describe(),
            });
        }
        progress::ProgressVerdict::Inconclusive => {
            diags.push(Diagnostic {
                code: LintCode::ProgressViolation,
                severity: Severity::Note,
                program: name.into(),
                pos: None,
                rulebase: report.rulebase.clone(),
                message: report.describe(),
            });
        }
    }
}

/// FTR001/002/003/004 from the compiled tables and collected warnings.
fn table_lints(name: &str, compiled: &CompiledProgram, diags: &mut Vec<Diagnostic>) {
    for cb in &compiled.bases {
        let rb = &compiled.prog.rulebases[cb.rb];
        // how often each rule actually wins a table entry
        let mut wins = vec![0u64; rb.rules.len()];
        for &e in &cb.table {
            if let Some(r) = cb.decode_entry(e).ok().flatten() {
                wins[r] += 1;
            }
        }
        for (ri, rule) in rb.rules.iter().enumerate() {
            if cb.rule_applicable[ri] == 0 {
                diags.push(Diagnostic {
                    code: LintCode::UnsatisfiablePremise,
                    severity: Severity::Warning,
                    program: name.into(),
                    pos: Some(rule.pos),
                    rulebase: Some(rb.name.clone()),
                    message: format!(
                        "rule {} can never fire: its premise is false at every \
                         entry of the abstract feature space",
                        ri + 1
                    ),
                });
            } else if wins[ri] == 0 {
                diags.push(Diagnostic {
                    code: LintCode::ShadowedRule,
                    severity: Severity::Warning,
                    program: name.into(),
                    pos: Some(rule.pos),
                    rulebase: Some(rb.name.clone()),
                    message: format!(
                        "rule {} is shadowed: its premise holds at {} feature-space \
                         entries, but an earlier rule wins at every one of them",
                        ri + 1,
                        cb.rule_applicable[ri]
                    ),
                });
            }
        }
        for w in &cb.warnings {
            match *w {
                CompileWarning::Conflict { winner, loser, kind, entries } => {
                    let what = match kind {
                        ftr_rules::ConflictKind::Return => "return values",
                        ftr_rules::ConflictKind::Register => "register writes",
                        ftr_rules::ConflictKind::Emit => "emitted events",
                    };
                    diags.push(Diagnostic {
                        code: LintCode::RuleConflict,
                        severity: Severity::Note,
                        program: name.into(),
                        pos: Some(rb.rules[loser].pos),
                        rulebase: Some(rb.name.clone()),
                        message: format!(
                            "rules {} and {} both apply at {} feature-space entries \
                             with different {what}; source order silently picks \
                             rule {}",
                            winner + 1,
                            loser + 1,
                            entries,
                            winner + 1
                        ),
                    });
                }
                CompileWarning::Gaps { entries, total } => {
                    // a gap in a RETURNS base silently yields "no decision";
                    // in a pure state-update base it is a legitimate idiom
                    let severity =
                        if rb.returns.is_some() { Severity::Warning } else { Severity::Note };
                    diags.push(Diagnostic {
                        code: LintCode::GapCoverage,
                        severity,
                        program: name.into(),
                        pos: Some(rb.pos),
                        rulebase: Some(rb.name.clone()),
                        message: format!(
                            "gap coverage: {entries} of {total} feature-space entries \
                             ({:.1}%) map to the no-op entry — no rule applies there",
                            100.0 * entries as f64 / total as f64
                        ),
                    });
                }
            }
        }
    }
}

/// Best-effort constant folding for literal checks: literals, named
/// constants, and unary minus on those.
fn const_value(prog: &Program, e: &Expr) -> Option<Value> {
    match e {
        Expr::Lit(v) => Some(*v),
        Expr::Ref(Ref::Const(c)) => Some(prog.consts[*c].value),
        Expr::Un(ftr_rules::ast::UnOp::Neg, inner) => match const_value(prog, inner)? {
            Value::Int(v) => Some(Value::Int(-v)),
            _ => None,
        },
        _ => None,
    }
}

/// FTR005: literal values outside declared domains. The parser's type
/// system is kind-level — all integer ranges unify — so `RETURN(99)` in a
/// `RETURNS 0 TO 15` base or `counter <- 99` with `counter IN 0 TO 15`
/// parses fine and fails at runtime. These are statically decidable.
fn domain_lints(name: &str, prog: &Program, diags: &mut Vec<Diagnostic>) {
    let ss = prog.sym_sizes();
    for rb in &prog.rulebases {
        for rule in &rb.rules {
            let mut report = |message: String| {
                diags.push(Diagnostic {
                    code: LintCode::DomainViolation,
                    severity: Severity::Error,
                    program: name.into(),
                    pos: Some(rule.pos),
                    rulebase: Some(rb.name.clone()),
                    message,
                });
            };
            // literal indices of every indexed read in the rule
            for_each_expr(rule, &mut |e| {
                if let Expr::Indexed { target, indices } = e {
                    let doms = match target {
                        IndexedRef::Var(v) => &prog.vars[*v].index_domains,
                        IndexedRef::Input(i) => &prog.inputs[*i].index_domains,
                    };
                    let tname = match target {
                        IndexedRef::Var(v) => &prog.vars[*v].name,
                        IndexedRef::Input(i) => &prog.inputs[*i].name,
                    };
                    for (ix, dom) in indices.iter().zip(doms) {
                        if let Some(v) = const_value(prog, ix) {
                            if !dom.contains(&v, ss) {
                                report(format!(
                                    "index {} of `{tname}` is outside its domain {dom:?}",
                                    prog.display_value(&v)
                                ));
                            }
                        }
                    }
                }
            });
            check_commands(prog, rb, &rule.conclusion, ss, &mut report);
        }
    }
}

fn check_commands(
    prog: &Program,
    rb: &RuleBase,
    cmds: &[Command],
    ss: &[usize],
    report: &mut impl FnMut(String),
) {
    for cmd in cmds {
        match cmd {
            Command::Return(e) => {
                if let (Some(Type::Scalar(dom)), Some(v)) = (rb.returns, const_value(prog, e)) {
                    if !dom.contains(&v, ss) {
                        report(format!(
                            "RETURN({}) is outside the declared return domain {dom:?}",
                            prog.display_value(&v)
                        ));
                    }
                }
            }
            Command::Assign { var, indices, value } => {
                let decl = &prog.vars[*var];
                for (ix, dom) in indices.iter().zip(&decl.index_domains) {
                    if let Some(v) = const_value(prog, ix) {
                        if !dom.contains(&v, ss) {
                            report(format!(
                                "index {} of `{}` is outside its domain {dom:?}",
                                prog.display_value(&v),
                                decl.name
                            ));
                        }
                    }
                }
                if let (Type::Scalar(dom), Some(v)) = (decl.elem, const_value(prog, value)) {
                    if !dom.contains(&v, ss) {
                        report(format!(
                            "`{} <- {}` is outside the register's domain {dom:?}",
                            decl.name,
                            prog.display_value(&v)
                        ));
                    }
                }
            }
            Command::ForAll { body, .. } => check_commands(prog, rb, body, ss, report),
            Command::Emit { .. } => {}
        }
    }
}

/// FTR006/FTR007: registers and inputs no rule ever reads.
fn usage_lints(name: &str, prog: &Program, diags: &mut Vec<Diagnostic>) {
    let mut var_read = vec![false; prog.vars.len()];
    let mut var_written = vec![false; prog.vars.len()];
    let mut input_read = vec![false; prog.inputs.len()];

    for rb in &prog.rulebases {
        for rule in &rb.rules {
            for_each_expr(rule, &mut |e| match e {
                Expr::Ref(Ref::Var(v)) => var_read[*v] = true,
                Expr::Ref(Ref::Input(i)) => input_read[*i] = true,
                Expr::Indexed { target: IndexedRef::Var(v), .. } => var_read[*v] = true,
                Expr::Indexed { target: IndexedRef::Input(i), .. } => input_read[*i] = true,
                Expr::Call { builtin: Builtin::ArgMin(i) | Builtin::ArgMax(i), .. } => {
                    input_read[*i] = true
                }
                _ => {}
            });
            mark_writes(&rule.conclusion, &mut var_written);
        }
    }

    for (v, decl) in prog.vars.iter().enumerate() {
        if var_read[v] {
            continue;
        }
        let (severity, message) = if var_written[v] {
            (
                Severity::Note,
                format!(
                    "register `{}` is write-only inside the program — only the \
                     host can observe it",
                    decl.name
                ),
            )
        } else {
            (
                Severity::Warning,
                format!("register `{}` is never read or written by any rule", decl.name),
            )
        };
        diags.push(Diagnostic {
            code: LintCode::UnusedRegister,
            severity,
            program: name.into(),
            pos: Some(decl.pos),
            rulebase: None,
            message,
        });
    }
    for (i, decl) in prog.inputs.iter().enumerate() {
        if !input_read[i] {
            diags.push(Diagnostic {
                code: LintCode::UnusedInput,
                severity: Severity::Warning,
                program: name.into(),
                pos: Some(decl.pos),
                rulebase: None,
                message: format!("input `{}` is never read by any rule", decl.name),
            });
        }
    }
}

fn mark_writes(cmds: &[Command], var_written: &mut [bool]) {
    for cmd in cmds {
        match cmd {
            Command::Assign { var, .. } => var_written[*var] = true,
            Command::ForAll { body, .. } => mark_writes(body, var_written),
            _ => {}
        }
    }
}

/// FTR008: one conclusion assigning the same register cell (syntactically
/// identical index expressions) two different values. All commands of a
/// conclusion execute in parallel against the pre-state (§4.2), so this is
/// a guaranteed runtime conflict whenever the rule fires.
fn parallel_write_lints(name: &str, prog: &Program, diags: &mut Vec<Diagnostic>) {
    for rb in &prog.rulebases {
        for (ri, rule) in rb.rules.iter().enumerate() {
            check_parallel(prog, rb, ri, rule, &rule.conclusion, diags, name);
        }
    }
}

fn check_parallel(
    prog: &Program,
    rb: &RuleBase,
    ri: usize,
    rule: &Rule,
    cmds: &[Command],
    diags: &mut Vec<Diagnostic>,
    name: &str,
) {
    let assigns: Vec<(&usize, &Vec<Expr>, &Expr)> = cmds
        .iter()
        .filter_map(|c| match c {
            Command::Assign { var, indices, value } => Some((var, indices, value)),
            _ => None,
        })
        .collect();
    for (a, &(va, ia, xa)) in assigns.iter().enumerate() {
        for &(vb, ib, xb) in assigns.iter().skip(a + 1) {
            if va == vb && ia == ib && xa != xb {
                diags.push(Diagnostic {
                    code: LintCode::ParallelWriteConflict,
                    severity: Severity::Warning,
                    program: name.into(),
                    pos: Some(rule.pos),
                    rulebase: Some(rb.name.clone()),
                    message: format!(
                        "rule {} writes register `{}` twice with different values in \
                         one parallel conclusion — a runtime conflict when it fires",
                        ri + 1,
                        prog.vars[*va].name
                    ),
                });
            }
        }
    }
    for cmd in cmds {
        if let Command::ForAll { body, .. } = cmd {
            check_parallel(prog, rb, ri, rule, body, diags, name);
        }
    }
}

/// Applies `f` to every expression in the rule: the premise and every
/// expression reachable from the conclusion commands (assignment indices
/// and values, return values, emit arguments, quantified sets/bodies).
fn for_each_expr(rule: &Rule, f: &mut impl FnMut(&Expr)) {
    walk_expr(&rule.premise, f);
    walk_cmds(&rule.conclusion, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_program_has_no_findings_above_note() {
        let a = analyze_source(
            "tiny",
            "VARIABLE n IN 0 TO 3 INIT 0\n\
             INPUT x IN 0 TO 3\n\
             ON f() RETURNS 0 TO 3\n\
               IF x > n THEN n <- x, RETURN(1);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        assert!(a.is_clean(), "{:?}", a.diagnostics);
    }

    #[test]
    fn shadowed_rule_is_detected_with_span() {
        let a = analyze_source(
            "s",
            "INPUT x IN 0 TO 7\n\
             INPUT go IN bool\n\
             ON f() RETURNS 0 TO 3\n\
               IF x > 3 THEN RETURN(1);\n\
               IF x > 3 AND go THEN RETURN(2);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let hits = a.with_code(LintCode::ShadowedRule);
        assert_eq!(hits.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(hits[0].pos.unwrap().line, 5);
        assert!(!a.is_clean());
    }

    #[test]
    fn unsatisfiable_symbolic_premise_is_detected() {
        let a = analyze_source(
            "u",
            "CONSTANT st = {safe, faulty}\n\
             VARIABLE mode IN st INIT safe\n\
             ON f() RETURNS 0 TO 1\n\
               IF mode = safe AND mode = faulty THEN RETURN(1);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        assert_eq!(a.with_code(LintCode::UnsatisfiablePremise).len(), 1);
    }

    #[test]
    fn out_of_range_return_is_an_error() {
        let a = analyze_source(
            "d",
            "ON f() RETURNS 0 TO 3\n\
               IF TRUE THEN RETURN(9);\n\
             END f;",
        )
        .unwrap();
        let hits = a.with_code(LintCode::DomainViolation);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
    }

    #[test]
    fn gap_in_returning_base_is_a_warning_in_update_base_a_note() {
        let a = analyze_source(
            "g",
            "INPUT x IN 0 TO 3\n\
             VARIABLE n IN 0 TO 3 INIT 0\n\
             ON ret() RETURNS 0 TO 3\n\
               IF x > 2 THEN RETURN(1);\n\
             END ret;\n\
             ON upd()\n\
               IF x > 2 THEN n <- 1;\n\
             END upd;",
        )
        .unwrap();
        let gaps = a.with_code(LintCode::GapCoverage);
        assert_eq!(gaps.len(), 2, "{:?}", a.diagnostics);
        let ret = gaps.iter().find(|d| d.rulebase.as_deref() == Some("ret")).unwrap();
        let upd = gaps.iter().find(|d| d.rulebase.as_deref() == Some("upd")).unwrap();
        assert_eq!(ret.severity, Severity::Warning);
        assert_eq!(upd.severity, Severity::Note);
    }
}
