//! The certified table optimizer.
//!
//! [`optimize_rulebase`] rewrites a rule program at the AST level —
//! guided by the abstract-interpretation facts of [`crate::absint`] —
//! and recompiles it with the standard ARON compiler, so the output is
//! an ordinary [`CompiledProgram`] every existing consumer (machine,
//! router, cost model) can run unchanged. Five passes:
//!
//! 1. **specialize** — registers the engine proves constant (and that
//!    the host does not write, see [`OptOptions::host_written`]) are
//!    replaced by their value at every read;
//! 2. **fold atoms** — guard subexpressions with a forced truth value
//!    become literals, deleting their feature bit from the table;
//! 3. **delete dead** — rules that provably never win (table-shadowed,
//!    table-unsatisfiable, or absint-unreachable) are removed;
//! 4. **fuse** — a base whose last rule is a pure tail-emit
//!    (`IF g THEN !target();`) inlines the target's rules, turning an
//!    N-interpretation decision cascade into one table lookup;
//! 5. **reorder** — adjacent rules with provably disjoint guards are
//!    sorted cheap-first for the reference evaluator's premise scan.
//!
//! Every rewrite is recorded in a machine-checkable certificate
//! ([`OptCert`]). [`verify_cert`] replays the certificate against the
//! *original* program, re-deriving the justification of each step from
//! independently recomputed absint facts, and returns the replayed
//! program — equality with the shipped optimized program closes the
//! proof. Fused rules carry [`StepWeights`] so the event machine's
//! *modeled* step counts (and therefore simulated decision latencies)
//! stay bit-identical to the unoptimized program, while the *physical*
//! interpretation count drops — that separation is what the E18
//! benchmark measures.

use crate::absint::{self, AbsEnv, Facts, TopoFacts};
use ftr_rules::ast::{Command, Expr, Program, Ref};
use ftr_rules::pretty::print_program;
use ftr_rules::value::Value;
use ftr_rules::{compile, CompileOptions, CompiledProgram, StepWeights};

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptOptions {
    /// Registers the host writes directly (outside the rule semantics) —
    /// never specialized even when the rules alone would make them
    /// constant. Mesh routers get their coordinates written at
    /// configuration time, hence the default.
    pub host_written: Vec<String>,
    /// Enable the specialize-constant-registers pass.
    pub specialize: bool,
    /// Enable the fold-constant-atoms pass.
    pub fold_atoms: bool,
    /// Enable the delete-dead-rules pass.
    pub delete_dead: bool,
    /// Enable tail-emit fusion.
    pub fuse: bool,
    /// Enable disjoint-rule reordering.
    pub reorder: bool,
    /// Table-size ceiling for fused bases; a fusion that would exceed it
    /// is rolled back.
    pub max_fused_entries: u64,
    /// Topology facts seeded into the engine.
    pub topo: TopoFacts,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            host_written: TopoFacts::default().host_written,
            specialize: true,
            fold_atoms: true,
            delete_dead: true,
            fuse: true,
            reorder: true,
            max_fused_entries: 1 << 20,
            topo: TopoFacts::default(),
        }
    }
}

/// One certified rewrite step, in application order.
#[derive(Clone, Debug, PartialEq)]
pub enum Rewrite {
    /// Replace every read of register `var` with `value`.
    SpecializeRegister {
        /// Register name.
        var: String,
        /// Its proved constant value.
        value: Value,
    },
    /// Replace `atom` with its forced truth value inside one guard.
    FoldAtom {
        /// Rule base name.
        base: String,
        /// Rule index at application time.
        rule: usize,
        /// The subexpression being folded.
        atom: Expr,
        /// Its proved truth value.
        truth: bool,
    },
    /// Delete a rule that provably never wins.
    DeleteRule {
        /// Rule base name.
        base: String,
        /// Rule index at application time.
        rule: usize,
    },
    /// Inline `target`'s rules over `base`'s tail emit.
    FuseTail {
        /// The base whose last rule is `IF g THEN !target();`.
        base: String,
        /// The emitted base being inlined.
        target: String,
    },
    /// Swap two adjacent rules with disjoint guards.
    SwapRules {
        /// Rule base name.
        base: String,
        /// Lower index of the swapped pair (`rule`, `rule + 1`).
        rule: usize,
    },
}

/// The machine-checkable certificate: the ordered rewrite list.
#[derive(Clone, Debug, Default)]
pub struct OptCert {
    /// Program name (matches the [`crate::Analysis`] / router name).
    pub program: String,
    /// Rewrites in the order they were applied.
    pub rewrites: Vec<Rewrite>,
}

/// Result of [`optimize_rulebase`].
#[derive(Debug)]
pub struct Optimized {
    /// The rewritten program, compiled with the standard compiler.
    pub compiled: CompiledProgram,
    /// Modeled per-rule step weights preserving original decision
    /// latencies (install via `Machine::set_step_weights`).
    pub step_weights: StepWeights,
    /// The certificate justifying every rewrite.
    pub cert: OptCert,
}

// ---------------------------------------------------------------------------
// expression utilities

fn map_expr(e: &Expr, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
    if let Some(r) = f(e) {
        return r;
    }
    match e {
        Expr::Lit(_) | Expr::Ref(_) => e.clone(),
        Expr::Indexed { target, indices } => Expr::Indexed {
            target: *target,
            indices: indices.iter().map(|ix| map_expr(ix, f)).collect(),
        },
        Expr::Un(op, a) => Expr::Un(*op, Box::new(map_expr(a, f))),
        Expr::Bin(op, a, b) => Expr::Bin(*op, Box::new(map_expr(a, f)), Box::new(map_expr(b, f))),
        Expr::Quant { q, dom, set, body } => Expr::Quant {
            q: *q,
            dom: *dom,
            set: Box::new(map_expr(set, f)),
            body: Box::new(map_expr(body, f)),
        },
        Expr::Call { builtin, args } => {
            Expr::Call { builtin: *builtin, args: args.iter().map(|a| map_expr(a, f)).collect() }
        }
    }
}

fn map_cmds(cmds: &[Command], f: &impl Fn(&Expr) -> Option<Expr>) -> Vec<Command> {
    cmds.iter()
        .map(|c| match c {
            Command::Assign { var, indices, value } => Command::Assign {
                var: *var,
                indices: indices.iter().map(|ix| map_expr(ix, f)).collect(),
                value: map_expr(value, f),
            },
            Command::Return(e) => Command::Return(map_expr(e, f)),
            Command::Emit { event, id, args } => Command::Emit {
                event: event.clone(),
                id: *id,
                args: args.iter().map(|a| map_expr(a, f)).collect(),
            },
            Command::ForAll { dom, set, body } => {
                Command::ForAll { dom: *dom, set: map_expr(set, f), body: map_cmds(body, f) }
            }
        })
        .collect()
}

fn contains_subexpr(e: &Expr, needle: &Expr) -> bool {
    if e == needle {
        return true;
    }
    match e {
        Expr::Lit(_) | Expr::Ref(_) => false,
        Expr::Indexed { indices, .. } => indices.iter().any(|ix| contains_subexpr(ix, needle)),
        Expr::Un(_, a) => contains_subexpr(a, needle),
        Expr::Bin(_, a, b) => contains_subexpr(a, needle) || contains_subexpr(b, needle),
        Expr::Quant { set, body, .. } => {
            contains_subexpr(set, needle) || contains_subexpr(body, needle)
        }
        Expr::Call { args, .. } => args.iter().any(|a| contains_subexpr(a, needle)),
    }
}

fn expr_size(e: &Expr) -> usize {
    let mut n = 1;
    match e {
        Expr::Lit(_) | Expr::Ref(_) => {}
        Expr::Indexed { indices, .. } => n += indices.iter().map(expr_size).sum::<usize>(),
        Expr::Un(_, a) => n += expr_size(a),
        Expr::Bin(_, a, b) => n += expr_size(a) + expr_size(b),
        Expr::Quant { set, body, .. } => n += expr_size(set) + expr_size(body),
        Expr::Call { args, .. } => n += args.iter().map(expr_size).sum::<usize>(),
    }
    n
}

// ---------------------------------------------------------------------------
// working state: the program plus its step-weight ledger

#[derive(Clone)]
struct Work {
    prog: Program,
    /// Per base: one weight per rule plus a trailing gap slot.
    weights: Vec<Vec<u32>>,
}

impl Work {
    fn new(prog: &Program) -> Work {
        Work {
            prog: prog.clone(),
            weights: prog.rulebases.iter().map(|rb| vec![1; rb.rules.len() + 1]).collect(),
        }
    }
}

fn base_index(prog: &Program, name: &str) -> Result<usize, String> {
    prog.rulebases
        .iter()
        .position(|rb| rb.name == name)
        .ok_or_else(|| format!("certificate names unknown rule base `{name}`"))
}

/// The seeded abstract environment for one base, narrowed by the
/// register hull (the same environment the analysis lints use).
fn base_env(prog: &Program, bi: usize, topo: &TopoFacts, facts: &Facts) -> AbsEnv {
    let mut env = AbsEnv::seed(prog, bi, topo, &facts.monotone);
    for (slot, h) in env.vars.iter_mut().zip(&facts.reg_hull) {
        if let Some(m) = slot.meet(h) {
            *slot = m;
        }
    }
    env
}

/// Is `base`'s last rule a pure tail emit `IF g THEN !target();`?
fn tail_emit(rb: &ftr_rules::ast::RuleBase) -> Option<&str> {
    match rb.rules.last()?.conclusion.as_slice() {
        [Command::Emit { event, args, .. }] if args.is_empty() => Some(event),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// justification: each rewrite re-derives its proof from current facts

fn justify(
    prog: &Program,
    compiled: &CompiledProgram,
    facts: &Facts,
    rw: &Rewrite,
    opts: &OptOptions,
) -> Result<(), String> {
    match rw {
        Rewrite::SpecializeRegister { var, value } => {
            if opts.host_written.iter().any(|h| h == var) {
                return Err(format!("`{var}` is host-written; cannot specialize"));
            }
            let vi = prog
                .vars
                .iter()
                .position(|v| &v.name == var)
                .ok_or_else(|| format!("unknown register `{var}`"))?;
            match &facts.const_regs[vi] {
                Some(v) if v == value => Ok(()),
                other => Err(format!(
                    "register `{var}` is not proved constant {value:?} (facts say {other:?})"
                )),
            }
        }
        Rewrite::FoldAtom { base, rule, atom, truth } => {
            let bi = base_index(prog, base)?;
            let rb = &prog.rulebases[bi];
            let r = rb.rules.get(*rule).ok_or_else(|| format!("`{base}` has no rule {rule}"))?;
            if !contains_subexpr(&r.premise, atom) {
                return Err(format!("atom does not occur in `{base}` rule {rule}"));
            }
            let env = base_env(prog, bi, &opts.topo, facts);
            match absint::abs_eval(prog, &env, atom).truth() {
                Some(t) if t == *truth => Ok(()),
                other => Err(format!(
                    "atom in `{base}` rule {rule} is not proved {truth} (abs says {other:?})"
                )),
            }
        }
        Rewrite::DeleteRule { base, rule } => {
            let bi = base_index(prog, base)?;
            let cb = &compiled.bases[bi];
            if *rule >= cb.rule_applicable.len() {
                return Err(format!("`{base}` has no rule {rule}"));
            }
            if cb.rule_applicable[*rule] == 0 {
                return Ok(()); // table-unsatisfiable
            }
            let mut wins = vec![0u64; cb.rule_applicable.len()];
            for &e in &cb.table {
                if let Some(r) = cb.decode_entry(e).map_err(|e| e.to_string())? {
                    wins[r] += 1;
                }
            }
            if wins[*rule] == 0 {
                return Ok(()); // table-shadowed
            }
            if !facts.reachable[bi][*rule] {
                return Ok(()); // absint-unreachable
            }
            Err(format!("rule {rule} of `{base}` is not proved dead"))
        }
        Rewrite::FuseTail { base, target } => {
            let bi = base_index(prog, base)?;
            let ti = base_index(prog, target)?;
            let b = &prog.rulebases[bi];
            let t = &prog.rulebases[ti];
            if tail_emit(b) != Some(target.as_str()) {
                return Err(format!("`{base}` does not tail-emit `{target}`"));
            }
            if !t.params.is_empty() {
                return Err(format!("fusion target `{target}` has parameters"));
            }
            match (b.returns, t.returns) {
                (Some(a), Some(c)) if a != c => {
                    Err(format!("`{base}` and `{target}` declare different RETURNS"))
                }
                _ => Ok(()),
            }
        }
        Rewrite::SwapRules { base, rule } => {
            let bi = base_index(prog, base)?;
            let cb = &compiled.bases[bi];
            let (Some(pa), Some(pb)) = (cb.premises.get(*rule), cb.premises.get(rule + 1)) else {
                return Err(format!("`{base}` has no adjacent pair at {rule}"));
            };
            let env = base_env(prog, bi, &opts.topo, facts);
            if absint::sat_all(prog, &env, &[(pa, true), (pb, true)]) {
                return Err(format!(
                    "rules {} and {} of `{base}` are not proved disjoint",
                    rule,
                    rule + 1
                ));
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// application

fn apply(work: &mut Work, rw: &Rewrite) -> Result<(), String> {
    match rw {
        Rewrite::SpecializeRegister { var, value } => {
            let vi = work
                .prog
                .vars
                .iter()
                .position(|v| &v.name == var)
                .ok_or_else(|| format!("unknown register `{var}`"))?;
            let subst = |e: &Expr| -> Option<Expr> {
                matches!(e, Expr::Ref(Ref::Var(i)) if *i == vi).then(|| Expr::Lit(*value))
            };
            for rb in &mut work.prog.rulebases {
                for r in &mut rb.rules {
                    r.premise = map_expr(&r.premise, &subst);
                    r.conclusion = map_cmds(&r.conclusion, &subst);
                }
            }
            Ok(())
        }
        Rewrite::FoldAtom { base, rule, atom, truth } => {
            let bi = base_index(&work.prog, base)?;
            let r = work.prog.rulebases[bi]
                .rules
                .get_mut(*rule)
                .ok_or_else(|| format!("`{base}` has no rule {rule}"))?;
            let lit = Expr::Lit(Value::Bool(*truth));
            r.premise = map_expr(&r.premise, &|e| (e == atom).then(|| lit.clone()));
            Ok(())
        }
        Rewrite::DeleteRule { base, rule } => {
            let bi = base_index(&work.prog, base)?;
            let rb = &mut work.prog.rulebases[bi];
            if *rule >= rb.rules.len() {
                return Err(format!("`{base}` has no rule {rule}"));
            }
            rb.rules.remove(*rule);
            work.weights[bi].remove(*rule);
            Ok(())
        }
        Rewrite::FuseTail { base, target } => {
            let bi = base_index(&work.prog, base)?;
            let ti = base_index(&work.prog, target)?;
            if tail_emit(&work.prog.rulebases[bi]) != Some(target.as_str()) {
                return Err(format!("`{base}` does not tail-emit `{target}`"));
            }
            let target_rules = work.prog.rulebases[ti].rules.clone();
            let target_returns = work.prog.rulebases[ti].returns;
            let tw = work.weights[ti].clone();
            let target_gap = *tw.last().unwrap_or(&1);

            let rb = &mut work.prog.rulebases[bi];
            let emit_rule = rb.rules.pop().expect("tail_emit checked non-empty");
            let w = &mut work.weights[bi];
            let own_gap = w.pop().unwrap_or(1);
            let emit_w = w.pop().unwrap_or(1);
            let guard = emit_rule.premise;
            let guard_is_true = matches!(guard, Expr::Lit(Value::Bool(true)));

            for (k, tr) in target_rules.iter().enumerate() {
                let premise = if guard_is_true {
                    tr.premise.clone()
                } else {
                    Expr::Bin(
                        ftr_rules::ast::BinOp::And,
                        Box::new(guard.clone()),
                        Box::new(tr.premise.clone()),
                    )
                };
                rb.rules.push(ftr_rules::ast::Rule {
                    premise,
                    conclusion: tr.conclusion.clone(),
                    pos: emit_rule.pos,
                });
                w.push(emit_w + tw.get(k).copied().unwrap_or(1));
            }
            if guard_is_true {
                // a gap can now only come from the target's own gap
                w.push(emit_w + target_gap);
            } else {
                // "guard held but the target gapped" — keep it a firing
                // no-op so the modeled steps still count the traversal
                rb.rules.push(ftr_rules::ast::Rule {
                    premise: guard,
                    conclusion: Vec::new(),
                    pos: emit_rule.pos,
                });
                w.push(emit_w + target_gap);
                w.push(own_gap);
            }
            if rb.returns.is_none() {
                rb.returns = target_returns;
            }
            Ok(())
        }
        Rewrite::SwapRules { base, rule } => {
            let bi = base_index(&work.prog, base)?;
            let rb = &mut work.prog.rulebases[bi];
            if rule + 1 >= rb.rules.len() {
                return Err(format!("`{base}` has no adjacent pair at {rule}"));
            }
            rb.rules.swap(*rule, rule + 1);
            work.weights[bi].swap(*rule, rule + 1);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// the optimizer driver

/// Folds [`OptOptions::host_written`] into the topology facts so the
/// abstract engine never INIT-pins a register the optimizer must also
/// treat as host-writable.
fn merged(opts: &OptOptions) -> OptOptions {
    let mut o = opts.clone();
    for h in &opts.host_written {
        if !o.topo.host_written.contains(h) {
            o.topo.host_written.push(h.clone());
        }
    }
    o
}

/// A program's tables and the facts derived from them.
type Analyzed = (CompiledProgram, Facts);

fn recompute(prog: &Program, opts: &OptOptions) -> Result<Analyzed, String> {
    let compiled = compile(prog, &CompileOptions { max_entries: opts.max_fused_entries })
        .map_err(|e| format!("recompile failed: {e}"))?;
    let facts = absint::analyze_program(&compiled, &opts.topo);
    Ok((compiled, facts))
}

/// The analysis of `prog`: the one in `held` if a pass left it there —
/// nothing was rewritten since — and a fresh one otherwise. The caller
/// puts it back when it, too, commits nothing.
fn analyzed(
    held: &mut Option<Analyzed>,
    prog: &Program,
    opts: &OptOptions,
) -> Result<Analyzed, String> {
    match held.take() {
        Some(a) => Ok(a),
        None => recompute(prog, opts),
    }
}

/// Optimizes a rule program; see the module docs for the pass list.
/// The returned [`Optimized::compiled`] is decision-identical to the
/// input (differentially tested), [`Optimized::step_weights`] preserve
/// modeled latencies, and [`Optimized::cert`] replays under
/// [`verify_cert`].
pub fn optimize_rulebase(
    name: &str,
    prog: &Program,
    opts: &OptOptions,
) -> Result<Optimized, String> {
    let opts = &merged(opts);
    let mut work = Work::new(prog);
    let mut cert = OptCert { program: name.into(), rewrites: Vec::new() };
    // the analysis of `work.prog`, while no rewrite has outdated it
    let mut held: Option<Analyzed> = None;

    let commit = |work: &mut Work,
                  cert: &mut OptCert,
                  rw: Rewrite,
                  (compiled, facts): &Analyzed|
     -> Result<(), String> {
        justify(&work.prog, compiled, facts, &rw, opts)?;
        apply(work, &rw)?;
        cert.rewrites.push(rw);
        Ok(())
    };

    // pass 1: specialize constant registers
    if opts.specialize {
        let now = analyzed(&mut held, &work.prog, opts)?;
        let candidates: Vec<(String, Value)> = work
            .prog
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !opts.host_written.iter().any(|h| h == &v.name))
            .filter_map(|(i, v)| now.1.const_regs[i].map(|val| (v.name.clone(), val)))
            .collect();
        if candidates.is_empty() {
            held = Some(now);
        } else {
            for (var, value) in candidates {
                commit(&mut work, &mut cert, Rewrite::SpecializeRegister { var, value }, &now)?;
            }
        }
    }

    // pass 2: fold constant atoms
    if opts.fold_atoms {
        let now = analyzed(&mut held, &work.prog, opts)?;
        let mut folds = Vec::new();
        for (bi, rb) in work.prog.rulebases.iter().enumerate() {
            let env = base_env(&work.prog, bi, &opts.topo, &now.1);
            for (ri, rule) in rb.rules.iter().enumerate() {
                let mut found = Vec::new();
                collect_folds(&work.prog, &env, &rule.premise, &mut found);
                for (atom, truth) in found {
                    folds.push(Rewrite::FoldAtom { base: rb.name.clone(), rule: ri, atom, truth });
                }
            }
        }
        if folds.is_empty() {
            held = Some(now);
        } else {
            for rw in folds {
                commit(&mut work, &mut cert, rw, &now)?;
            }
        }
    }

    // pass 3: delete dead rules (one at a time — indices stay honest)
    if opts.delete_dead {
        loop {
            let now = analyzed(&mut held, &work.prog, opts)?;
            let Some(rw) = find_dead(&work.prog, &now.0, &now.1) else {
                held = Some(now);
                break;
            };
            commit(&mut work, &mut cert, rw, &now)?;
        }
    }

    // pass 4: fuse tail-emit chains, bottom-up, rolling back oversize fusions
    if opts.fuse {
        let mut vetoed: Vec<(String, String)> = Vec::new();
        for _ in 0..work.prog.rulebases.len() {
            let Some((base, target)) = find_fusion(&work.prog, &vetoed) else { break };
            let snapshot = work.clone();
            let before = analyzed(&mut held, &work.prog, opts)?;
            let rw = Rewrite::FuseTail { base: base.clone(), target: target.clone() };
            commit(&mut work, &mut cert, rw, &before)?;
            // compiling the fused program is also the size probe
            held = match recompute(&work.prog, opts) {
                Ok(after) => Some(after),
                Err(_) => {
                    // fused table exceeds the ceiling: roll back
                    work = snapshot;
                    cert.rewrites.pop();
                    vetoed.push((base, target));
                    Some(before)
                }
            };
        }
    }

    // pass 5: bubble cheap disjoint rules forward
    if opts.reorder {
        for _ in 0..32 {
            let now = analyzed(&mut held, &work.prog, opts)?;
            let Some(rw) = find_swap(&work.prog, &now.0, &now.1, opts) else {
                held = Some(now);
                break;
            };
            commit(&mut work, &mut cert, rw, &now)?;
        }
    }

    let (compiled, _) = analyzed(&mut held, &work.prog, opts)?;
    Ok(Optimized { compiled, step_weights: StepWeights { per_base: work.weights }, cert })
}

/// Maximal boolean subexpressions of `premise` with a forced truth value
/// (literals excluded; a folded node's children are not revisited).
fn collect_folds(prog: &Program, env: &AbsEnv, e: &Expr, out: &mut Vec<(Expr, bool)>) {
    if !matches!(e, Expr::Lit(_)) {
        if let Some(t) = absint::abs_eval(prog, env, e).truth() {
            out.push((e.clone(), t));
            return;
        }
    }
    match e {
        Expr::Lit(_) | Expr::Ref(_) => {}
        Expr::Indexed { .. } => {}
        Expr::Un(_, a) => collect_folds(prog, env, a, out),
        Expr::Bin(_, a, b) => {
            collect_folds(prog, env, a, out);
            collect_folds(prog, env, b, out);
        }
        Expr::Quant { body, .. } => collect_folds(prog, env, body, out),
        Expr::Call { .. } => {}
    }
}

fn find_dead(prog: &Program, compiled: &CompiledProgram, facts: &Facts) -> Option<Rewrite> {
    for (bi, cb) in compiled.bases.iter().enumerate() {
        let mut wins = vec![0u64; cb.rule_applicable.len()];
        // the table was just compiled, so entries decode cleanly; a corrupt
        // entry simply proposes no deletion (verify re-checks everything)
        for &e in &cb.table {
            if let Some(r) = cb.decode_entry(e).ok().flatten() {
                wins[r] += 1;
            }
        }
        for (ri, &w) in wins.iter().enumerate() {
            if cb.rule_applicable[ri] == 0 || w == 0 || !facts.reachable[bi][ri] {
                return Some(Rewrite::DeleteRule {
                    base: prog.rulebases[bi].name.clone(),
                    rule: ri,
                });
            }
        }
    }
    None
}

fn find_fusion(prog: &Program, vetoed: &[(String, String)]) -> Option<(String, String)> {
    // bottom-up: only fuse into a target that is not itself a tail-emitter,
    // so chains collapse deepest-first and cycles never fuse
    for rb in &prog.rulebases {
        let Some(target) = tail_emit(rb) else { continue };
        let Some((_, t)) = prog.rulebase(target) else { continue };
        if !t.params.is_empty() || tail_emit(t).is_some() {
            continue;
        }
        if let (Some(a), Some(c)) = (rb.returns, t.returns) {
            if a != c {
                continue;
            }
        }
        let pair = (rb.name.clone(), target.to_string());
        if vetoed.contains(&pair) {
            continue;
        }
        return Some(pair);
    }
    None
}

fn find_swap(
    prog: &Program,
    compiled: &CompiledProgram,
    facts: &Facts,
    opts: &OptOptions,
) -> Option<Rewrite> {
    for (bi, rb) in prog.rulebases.iter().enumerate() {
        let env = base_env(prog, bi, &opts.topo, facts);
        let prems = &compiled.bases[bi].premises;
        for r in 0..rb.rules.len().saturating_sub(1) {
            if expr_size(&rb.rules[r].premise) <= expr_size(&rb.rules[r + 1].premise) {
                continue;
            }
            if !absint::sat_all(prog, &env, &[(&prems[r], true), (&prems[r + 1], true)]) {
                return Some(Rewrite::SwapRules { base: rb.name.clone(), rule: r });
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// verification

/// Replays a certificate against the original program, re-deriving every
/// justification from freshly recomputed absint facts. Returns the
/// replayed program and step weights; callers close the proof by
/// comparing them with the shipped artefacts (see [`verify`]).
pub fn verify_cert(
    original: &Program,
    cert: &OptCert,
    opts: &OptOptions,
) -> Result<(Program, StepWeights), String> {
    let opts = &merged(opts);
    let mut work = Work::new(original);
    for (i, rw) in cert.rewrites.iter().enumerate() {
        let (compiled, facts) = recompute(&work.prog, opts)?;
        justify(&work.prog, &compiled, &facts, rw, opts)
            .map_err(|e| format!("rewrite {i} ({rw:?}) failed to re-justify: {e}"))?;
        apply(&mut work, rw).map_err(|e| format!("rewrite {i} failed to apply: {e}"))?;
    }
    Ok((work.prog, StepWeights { per_base: work.weights }))
}

/// Full certificate check: replay, then require the replayed program and
/// step weights to be identical to the shipped optimized artefacts.
pub fn verify(original: &Program, optimized: &Optimized, opts: &OptOptions) -> Result<(), String> {
    let (replayed, weights) = verify_cert(original, &optimized.cert, opts)?;
    if print_program(&replayed) != print_program(&optimized.compiled.prog) {
        return Err("replayed program differs from the shipped optimized program".into());
    }
    if weights != optimized.step_weights {
        return Err("replayed step weights differ from the shipped weights".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_rules::env::{InputMap, RegFile};
    use ftr_rules::eval::fire_reference;
    use ftr_rules::parse;

    fn opts() -> OptOptions {
        OptOptions { max_fused_entries: 1 << 16, ..OptOptions::default() }
    }

    #[test]
    fn specializes_and_deletes_dead() {
        let prog = parse(
            "VARIABLE flag IN bool INIT FALSE\n\
             INPUT x IN 0 TO 7\n\
             ON f() RETURNS 0 TO 3\n\
               IF x > 3 AND flag THEN RETURN(1);\n\
               IF x > 3 THEN RETURN(2);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let o = optimize_rulebase("t", &prog, &opts()).unwrap();
        // flag is never written -> FALSE; rule 1 dies; the flag feature bit
        // disappears from the table
        assert_eq!(o.compiled.prog.rulebases[0].rules.len(), 2);
        assert!(o
            .cert
            .rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::SpecializeRegister { var, .. } if var == "flag")));
        assert!(o.cert.rewrites.iter().any(|r| matches!(r, Rewrite::DeleteRule { .. })));
        verify(&prog, &o, &opts()).unwrap();
    }

    #[test]
    fn fuses_tail_emit_chain_with_weights() {
        let prog = parse(
            "INPUT x IN 0 TO 3\n\
             INPUT y IN 0 TO 3\n\
             ON a() RETURNS 0 TO 3\n\
               IF x = 0 THEN RETURN(0);\n\
               IF TRUE THEN !b();\n\
             END a;\n\
             ON b() RETURNS 0 TO 3\n\
               IF y = 0 THEN RETURN(1);\n\
               IF TRUE THEN RETURN(2);\n\
             END b;",
        )
        .unwrap();
        let o = optimize_rulebase("t", &prog, &opts()).unwrap();
        let a = &o.compiled.prog.rulebases[0];
        assert_eq!(a.rules.len(), 3, "x=0 + inlined y=0 + inlined TRUE");
        // inlined rules are modeled at depth 2
        assert_eq!(o.step_weights.per_base[0], vec![1, 2, 2, 2]);
        verify(&prog, &o, &opts()).unwrap();
    }

    #[test]
    fn fused_program_is_decision_identical() {
        let prog = parse(
            "VARIABLE n IN 0 TO 3 INIT 0\n\
             INPUT x IN 0 TO 3\n\
             INPUT y IN 0 TO 3\n\
             ON a() RETURNS 0 TO 7\n\
               IF x = 0 THEN n <- 1, RETURN(0);\n\
               IF TRUE THEN !b();\n\
             END a;\n\
             ON b() RETURNS 0 TO 7\n\
               IF y > x THEN n <- 2, RETURN(1);\n\
               IF TRUE THEN RETURN(2);\n\
             END b;",
        )
        .unwrap();
        let o = optimize_rulebase("t", &prog, &opts()).unwrap();
        // exhaustive: original cascade (a then, on emit, b) vs fused a
        for x in 0..4i64 {
            for y in 0..4i64 {
                let mut inputs = InputMap::default();
                inputs.set(&prog, "x", &[], Value::Int(x)).unwrap();
                inputs.set(&prog, "y", &[], Value::Int(y)).unwrap();

                let mut regs_o = RegFile::new(&prog);
                let mut out = fire_reference(&prog, 0, &[], &mut regs_o, &inputs).unwrap();
                for ev in std::mem::take(&mut out.emitted) {
                    let (bi, _) = prog.rulebase(&ev.event).unwrap();
                    let nested = fire_reference(&prog, bi, &[], &mut regs_o, &inputs).unwrap();
                    if nested.returned.is_some() {
                        out.returned = nested.returned;
                    }
                }

                let fprog = &o.compiled.prog;
                let mut regs_f = RegFile::new(fprog);
                let fout = fire_reference(fprog, 0, &[], &mut regs_f, &inputs).unwrap();

                assert_eq!(out.returned, fout.returned, "x={x} y={y}");
                assert_eq!(
                    regs_o.read(&prog, 0, &[]).unwrap(),
                    regs_f.read(fprog, 0, &[]).unwrap(),
                    "register state diverged at x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn tampered_cert_is_rejected() {
        let prog = parse(
            "VARIABLE flag IN bool INIT FALSE\n\
             INPUT x IN 0 TO 7\n\
             ON f() RETURNS 0 TO 3\n\
               IF x > 3 AND flag THEN RETURN(1);\n\
               IF x > 3 THEN RETURN(2);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let o = optimize_rulebase("t", &prog, &opts()).unwrap();
        // claim a live rule is dead
        let mut bad = o.cert.clone();
        bad.rewrites = vec![Rewrite::DeleteRule { base: "f".into(), rule: 1 }];
        assert!(verify_cert(&prog, &bad, &opts()).is_err());
        // claim a varying register is constant
        let mut bad2 = o.cert.clone();
        bad2.rewrites =
            vec![Rewrite::SpecializeRegister { var: "flag".into(), value: Value::Bool(true) }];
        assert!(verify_cert(&prog, &bad2, &opts()).is_err());
    }

    #[test]
    fn reorder_preserves_table_decisions() {
        // rules 1 and 2 have disjoint guards; rule 1 is more expensive
        let prog = parse(
            "INPUT x IN 0 TO 7\n\
             INPUT go IN bool\n\
             ON f() RETURNS 0 TO 3\n\
               IF x > 5 AND go THEN RETURN(1);\n\
               IF x < 2 THEN RETURN(2);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let o = optimize_rulebase("t", &prog, &opts()).unwrap();
        if o.cert.rewrites.iter().any(|r| matches!(r, Rewrite::SwapRules { .. })) {
            verify(&prog, &o, &opts()).unwrap();
        }
        // decisions must be identical either way
        for x in 0..8i64 {
            for go in [false, true] {
                let mut inputs = InputMap::default();
                inputs.set(&prog, "x", &[], Value::Int(x)).unwrap();
                inputs.set(&prog, "go", &[], Value::Bool(go)).unwrap();
                let mut r1 = RegFile::new(&prog);
                let a = fire_reference(&prog, 0, &[], &mut r1, &inputs).unwrap();
                let fp = &o.compiled.prog;
                let mut r2 = RegFile::new(fp);
                let b = fire_reference(fp, 0, &[], &mut r2, &inputs).unwrap();
                assert_eq!(a.returned, b.returned, "x={x} go={go}");
            }
        }
    }
}
