//! Reference (direct-AST) evaluator.
//!
//! This is the semantic ground truth the ARON-compiled interpreter is
//! differentially tested against. Rule firing follows §4.2: rules are
//! checked independently, exactly one applicable rule executes (the first in
//! source order here — the paper leaves the tie-break to the
//! implementation), and the commands of its conclusion execute *in
//! parallel*: all right-hand sides are evaluated against the pre-state, then
//! the writes are applied; conflicting writes to the same cell are an error.
//!
//! Sets are bitmasks and every set operation works on the mask: integer
//! domains with different bounds meet in their hull by a shift, and bits at
//! or beyond the domain size stand for nothing ([`Program::live_mask`]).
//! [`set_elements`] lists elements the slow way and is what the tests hold
//! the mask operations against.

use crate::ast::*;
use crate::env::{outside, wrong_count, InputMap, RegFile};
use crate::error::{Result, RuleError};
use crate::frame::Frame;
use crate::value::{Domain, Value};

/// Read-only evaluation context for one rule-base invocation.
pub struct EvalCtx<'a> {
    /// The program.
    pub prog: &'a Program,
    /// Register file (pre-state).
    pub regs: &'a RegFile,
    /// External inputs.
    pub inputs: &'a InputMap,
    /// Event parameter values.
    pub params: &'a [Value],
    /// Quantifier binder stack, innermost last.
    pub bounds: Vec<Value>,
}

impl<'a> EvalCtx<'a> {
    /// Creates a context with no active binders.
    pub fn new(
        prog: &'a Program,
        regs: &'a RegFile,
        inputs: &'a InputMap,
        params: &'a [Value],
    ) -> Self {
        EvalCtx { prog, regs, inputs, params, bounds: Vec::new() }
    }

    /// [`EvalCtx::new`] on `frame`'s binder stack, so a reused frame keeps
    /// the allocation; [`EvalCtx::release`] hands it back.
    pub(crate) fn on_frame(
        prog: &'a Program,
        regs: &'a RegFile,
        inputs: &'a InputMap,
        params: &'a [Value],
        frame: &mut Frame,
    ) -> Self {
        EvalCtx { prog, regs, inputs, params, bounds: std::mem::take(&mut frame.bounds) }
    }

    pub(crate) fn release(self, frame: &mut Frame) {
        frame.bounds = self.bounds;
    }
}

/// An event generated by a conclusion (`!name(args)`).
#[derive(Clone, Debug, PartialEq)]
pub struct EventInstance {
    /// Event name.
    pub event: String,
    /// Evaluated arguments.
    pub args: Vec<Value>,
}

/// Result of firing a rule base once.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FireOutcome {
    /// Index of the rule that fired, `None` if no premise held.
    pub rule: Option<usize>,
    /// RETURN value, if the conclusion returned.
    pub returned: Option<Value>,
    /// Events generated by the conclusion.
    pub emitted: Vec<EventInstance>,
}

/// Enumerate the elements of a set value (canonical order).
pub fn set_elements(prog: &Program, v: &Value) -> Result<Vec<Value>> {
    let (dom, mask) = v.as_set()?;
    let n = dom.size(prog.sym_sizes());
    Ok((0..n).filter(|k| mask & (1 << k) != 0).map(|k| dom.value_at(k)).collect())
}

/// The members of a set value in canonical order, read off its mask.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Members {
    dom: Domain,
    rest: u64,
}

impl Members {
    pub(crate) fn of(prog: &Program, set: &Value) -> Result<Self> {
        let (dom, mask) = set.as_set()?;
        Ok(Members { dom, rest: mask & prog.live_mask(dom) })
    }
}

impl Iterator for Members {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        if self.rest == 0 {
            return None;
        }
        let k = self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        Some(self.dom.value_at(u64::from(k)))
    }
}

/// The smallest common domain of two set domains.
pub(crate) fn hull_domain(a: Domain, b: Domain) -> Result<Domain> {
    match (a, b) {
        (Domain::Int { lo: al, hi: ah }, Domain::Int { lo: bl, hi: bh }) => {
            Ok(Domain::Int { lo: al.min(bl), hi: ah.max(bh) })
        }
        (Domain::Sym(x), Domain::Sym(y)) if x == y => Ok(a),
        (Domain::Bool, Domain::Bool) => Ok(Domain::Bool),
        _ => Err(incompatible(a, b)),
    }
}

#[cold]
fn incompatible(a: Domain, b: Domain) -> RuleError {
    RuleError::eval(format!("incompatible set domains {a:?} vs {b:?}"))
}

/// The live part of a set's mask moved to where its elements sit in `hull`
/// (a domain [`hull_domain`] returned for it). Of two sets one stays put;
/// the other moves up by the distance between the lower bounds, capped at
/// 64 — from there on the two share no element, and 128 bits keep both.
fn mask_in(prog: &Program, (dom, mask): (Domain, u64), hull: Domain) -> u128 {
    let shift = match (dom, hull) {
        (Domain::Int { lo, .. }, Domain::Int { lo: base, .. }) => (lo - base) as u64,
        _ => 0,
    };
    u128::from(mask & prog.live_mask(dom)) << shift.min(64)
}

/// Semantic equality (sets compare by membership, not by representation).
#[inline]
pub fn values_equal(prog: &Program, a: &Value, b: &Value) -> bool {
    let (Value::Set { dom: da, mask: ma }, Value::Set { dom: db, mask: mb }) = (*a, *b) else {
        return a == b;
    };
    match hull_domain(da, db) {
        Ok(hull) => mask_in(prog, (da, ma), hull) == mask_in(prog, (db, mb), hull),
        // elements of different kinds: only two empty sets hold the same ones
        Err(_) => ma & prog.live_mask(da) == 0 && mb & prog.live_mask(db) == 0,
    }
}

/// The flat cell the index expressions address in a declaration laid out as
/// `layout`, accumulated while they are evaluated. The outer error is an
/// index expression that failed; the inner one is their number or a value
/// outside its domain, which a queued write reports only when it commits.
fn eval_cell(
    ctx: &mut EvalCtx<'_>,
    name: &str,
    layout: &CellLayout,
    indices: &[Expr],
) -> Result<Result<usize>> {
    let mut cell = if indices.len() == layout.dims.len() {
        Ok(0)
    } else {
        Err(wrong_count(name, layout, indices.len()))
    };
    for (e, d) in indices.iter().zip(&layout.dims) {
        let v = eval_expr(ctx, e)?;
        if let Ok(c) = &mut cell {
            match d.dom.ordinal(&v, ctx.prog.sym_sizes()) {
                Some(ord) => *c += (ord * d.stride) as usize,
                None => cell = Err(outside(name, d.dom, &v)),
            }
        }
    }
    for e in indices.iter().skip(layout.dims.len()) {
        eval_expr(ctx, e)?;
    }
    Ok(cell)
}

// Error constructors stay out of line: the walk below recurses once per
// node, and formatting machinery in its frame is paid for on every call.

#[cold]
fn absent(what: &str, which: usize) -> RuleError {
    RuleError::eval(format!("{what} {which}"))
}

/// Evaluates an expression.
pub fn eval_expr(ctx: &mut EvalCtx<'_>, e: &Expr) -> Result<Value> {
    match e {
        Expr::Lit(v) => Ok(*v),
        Expr::Ref(r) => match r {
            Ref::Const(i) => Ok(ctx.prog.consts[*i].value),
            Ref::Var(i) => ctx.regs.read(ctx.prog, *i, &[]),
            Ref::Input(i) => ctx.inputs.read_input(ctx.prog, *i, &[]),
            Ref::Param(i) => {
                ctx.params.get(*i).copied().ok_or_else(|| absent("missing parameter", *i))
            }
            Ref::Bound(d) => {
                let n = ctx.bounds.len();
                let bound = ctx.bounds.get(n.wrapping_sub(1 + d)).copied();
                bound.ok_or_else(|| absent("unbound binder depth", *d))
            }
        },
        Expr::Indexed { target, indices } => {
            let prog = ctx.prog;
            match *target {
                IndexedRef::Var(v) => {
                    let cell = eval_cell(ctx, &prog.vars[v].name, prog.var_layout(v), indices)??;
                    Ok(ctx.regs.raw(v)[cell])
                }
                IndexedRef::Input(i) => {
                    let cell =
                        eval_cell(ctx, &prog.inputs[i].name, prog.input_layout(i), indices)??;
                    ctx.inputs.read_cell(prog, i, cell)
                }
            }
        }
        Expr::Un(op, inner) => {
            let v = eval_expr(ctx, inner)?;
            match op {
                UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                UnOp::Neg => Ok(Value::Int(-v.as_int()?)),
            }
        }
        Expr::Bin(op, l, r) => {
            // short-circuit booleans
            match op {
                BinOp::And => {
                    return Ok(Value::Bool(
                        eval_expr(ctx, l)?.as_bool()? && eval_expr(ctx, r)?.as_bool()?,
                    ))
                }
                BinOp::Or => {
                    return Ok(Value::Bool(
                        eval_expr(ctx, l)?.as_bool()? || eval_expr(ctx, r)?.as_bool()?,
                    ))
                }
                _ => {}
            }
            let lv = eval_expr(ctx, l)?;
            let rv = eval_expr(ctx, r)?;
            apply_bin(ctx.prog, *op, &lv, &rv)
        }
        Expr::Quant { q, set, body, .. } => {
            let sv = eval_expr(ctx, set)?;
            let forall = matches!(q, Quant::Forall);
            for v in Members::of(ctx.prog, &sv)? {
                ctx.bounds.push(v);
                let b = eval_expr(ctx, body);
                ctx.bounds.pop();
                // the first member that decides ends the scan
                if b?.as_bool()? != forall {
                    return Ok(Value::Bool(!forall));
                }
            }
            Ok(Value::Bool(forall))
        }
        Expr::Call { builtin, args } => eval_builtin(ctx, *builtin, args),
    }
}

/// Applies a non-short-circuit binary operator to evaluated operands.
/// `And`/`Or` are rejected — they are short-circuit control flow, handled
/// by [`eval_expr`] directly.
#[inline]
fn apply_bin(prog: &Program, op: BinOp, lv: &Value, rv: &Value) -> Result<Value> {
    match op {
        BinOp::Add => Ok(Value::Int(lv.as_int()? + rv.as_int()?)),
        BinOp::Sub => Ok(Value::Int(lv.as_int()? - rv.as_int()?)),
        BinOp::Mul => Ok(Value::Int(lv.as_int()? * rv.as_int()?)),
        BinOp::Eq => Ok(Value::Bool(values_equal(prog, lv, rv))),
        BinOp::Ne => Ok(Value::Bool(!values_equal(prog, lv, rv))),
        BinOp::Lt => Ok(Value::Bool(lv.as_int()? < rv.as_int()?)),
        BinOp::Le => Ok(Value::Bool(lv.as_int()? <= rv.as_int()?)),
        BinOp::Gt => Ok(Value::Bool(lv.as_int()? > rv.as_int()?)),
        BinOp::Ge => Ok(Value::Bool(lv.as_int()? >= rv.as_int()?)),
        BinOp::In => {
            let (dom, mask) = rv.as_set()?;
            let member = dom.ordinal(lv, prog.sym_sizes()).is_some_and(|k| mask & (1 << k) != 0);
            Ok(Value::Bool(member))
        }
        BinOp::And | BinOp::Or => {
            Err(RuleError::eval("AND/OR are short-circuit operators".to_string()))
        }
    }
}

/// Most arguments a builtin takes; they are evaluated onto the stack.
const MAX_BUILTIN_ARGS: usize = 2;

fn eval_builtin(ctx: &mut EvalCtx<'_>, b: Builtin, args: &[Expr]) -> Result<Value> {
    let mut vals = [Value::Bool(false); MAX_BUILTIN_ARGS];
    for (k, a) in args.iter().enumerate() {
        let v = eval_expr(ctx, a)?;
        if let Some(slot) = vals.get_mut(k) {
            *slot = v;
        }
    }
    apply_builtin(ctx.prog, ctx.inputs, b, &vals[..args.len().min(MAX_BUILTIN_ARGS)])
}

/// Applies a builtin to already-evaluated argument values.
fn apply_builtin(prog: &Program, inputs: &InputMap, b: Builtin, vals: &[Value]) -> Result<Value> {
    let arg = |i: usize| -> Result<Value> {
        vals.get(i)
            .copied()
            .ok_or_else(|| RuleError::eval(format!("builtin {b:?} missing argument {i}")))
    };
    match b {
        Builtin::Min => Ok(Value::Int(arg(0)?.as_int()?.min(arg(1)?.as_int()?))),
        Builtin::Max => Ok(Value::Int(arg(0)?.as_int()?.max(arg(1)?.as_int()?))),
        Builtin::AbsDiff => Ok(Value::Int((arg(0)?.as_int()? - arg(1)?.as_int()?).abs())),
        Builtin::Xor => Ok(Value::Int(arg(0)?.as_int()? ^ arg(1)?.as_int()?)),
        Builtin::Popcount => Ok(Value::Int(arg(0)?.as_int()?.count_ones() as i64)),
        Builtin::Bit => {
            let a = arg(0)?.as_int()?;
            let i = arg(1)?.as_int()?;
            if !(0..64).contains(&i) {
                return Err(RuleError::eval(format!("bit index {i} out of range")));
            }
            Ok(Value::Bool(a & (1 << i) != 0))
        }
        Builtin::LatMax => match (arg(0)?, arg(1)?) {
            (Value::Sym { ty: t1, idx: i1 }, Value::Sym { ty: t2, idx: i2 }) if t1 == t2 => {
                Ok(Value::Sym { ty: t1, idx: i1.max(i2) })
            }
            (x, y) => Err(RuleError::eval(format!("latmax on {x}, {y}"))),
        },
        Builtin::Card => {
            let (dom, mask) = arg(0)?.as_set()?;
            Ok(Value::Int(i64::from((mask & prog.live_mask(dom)).count_ones())))
        }
        Builtin::Union | Builtin::Isect | Builtin::Diff => {
            let (ls, rs) = (arg(0)?.as_set()?, arg(1)?.as_set()?);
            let dom = hull_domain(ls.0, rs.0)?;
            if dom.size(prog.sym_sizes()) > 64 {
                return Err(RuleError::eval("set domain exceeds 64 elements".to_string()));
            }
            let (l, r) = (mask_in(prog, ls, dom), mask_in(prog, rs, dom));
            let mask = match b {
                Builtin::Union => l | r,
                Builtin::Isect => l & r,
                _ => l & !r,
            };
            // the hull has at most 64 elements, so nothing sits above bit 63
            Ok(Value::Set { dom, mask: mask as u64 })
        }
        Builtin::Include | Builtin::Exclude => {
            let sv = arg(0)?;
            let ev = arg(1)?;
            let (dom, mask) = sv.as_set()?;
            let k = dom
                .ordinal(&ev, prog.sym_sizes())
                .ok_or_else(|| RuleError::eval(format!("element {ev} outside {dom:?}")))?;
            let mask = match b {
                Builtin::Include => mask | (1 << k),
                _ => mask & !(1 << k),
            };
            Ok(Value::Set { dom, mask })
        }
        Builtin::ArgMin(input) | Builtin::ArgMax(input) => {
            let mut best: Option<(Value, i64)> = None;
            for idx in Members::of(prog, &arg(0)?)? {
                let v = inputs.read_input(prog, input, &[idx])?.as_int()?;
                let better = match (&best, b) {
                    (None, _) => true,
                    (Some((_, bv)), Builtin::ArgMin(_)) => v < *bv,
                    (Some((_, bv)), _) => v > *bv,
                };
                if better {
                    best = Some((idx, v));
                }
            }
            best.map(|(idx, _)| idx)
                .ok_or_else(|| RuleError::eval("argmin/argmax over empty set".to_string()))
        }
    }
}

fn exec_commands(ctx: &mut EvalCtx<'_>, cmds: &[Command], fx: &mut Frame) -> Result<()> {
    let prog = ctx.prog;
    for cmd in cmds {
        match cmd {
            Command::Assign { var, indices, value } => {
                let cell = eval_cell(ctx, &prog.vars[*var].name, prog.var_layout(*var), indices)?;
                fx.queue_write(*var, cell, eval_expr(ctx, value)?);
            }
            Command::Return(e) => fx.queue_return(prog, eval_expr(ctx, e)?)?,
            Command::Emit { id, args, .. } => {
                for a in args {
                    fx.push_arg(eval_expr(ctx, a)?);
                }
                fx.queue_emit(*id, args.len());
            }
            Command::ForAll { set, body, .. } => {
                let sv = eval_expr(ctx, set)?;
                for v in Members::of(prog, &sv)? {
                    ctx.bounds.push(v);
                    let r = exec_commands(ctx, body, fx);
                    ctx.bounds.pop();
                    r?;
                }
            }
        }
    }
    Ok(())
}

/// Fires rule base `rb` with `params` against the registers/inputs using the
/// reference semantics, applying the writes of the first applicable rule.
pub fn fire_reference(
    prog: &Program,
    rb: usize,
    params: &[Value],
    regs: &mut RegFile,
    inputs: &InputMap,
) -> Result<FireOutcome> {
    let base = &prog.rulebases[rb];
    if params.len() != base.params.len() {
        return Err(RuleError::eval(format!(
            "`{}` expects {} parameters, got {}",
            base.name,
            base.params.len(),
            params.len()
        )));
    }
    for (v, p) in params.iter().zip(&base.params) {
        if !p.dom.contains(v, prog.sym_sizes()) {
            return Err(RuleError::eval(format!(
                "parameter `{}` = {v} outside {:?}",
                p.name, p.dom
            )));
        }
    }

    let mut ctx = EvalCtx::new(prog, regs, inputs, params);
    for (i, rule) in base.rules.iter().enumerate() {
        if eval_expr(&mut ctx, &rule.premise)?.as_bool()? {
            return apply_rule(prog, rb, i, params, regs, inputs);
        }
    }
    Ok(FireOutcome::default())
}

/// Executes the conclusion of rule `rule` of rule base `rb` with the
/// parallel-write semantics, without checking any premise. This is the
/// shared "conclusion processing" stage used by both the reference
/// evaluator and the compiled interpreter.
pub fn apply_rule(
    prog: &Program,
    rb: usize,
    rule: usize,
    params: &[Value],
    regs: &mut RegFile,
    inputs: &InputMap,
) -> Result<FireOutcome> {
    let mut fx = Frame::new();
    apply_rule_in(prog, rb, rule, params, regs, inputs, &mut fx)?;
    Ok(fx.outcome(prog, Some(rule)))
}

/// [`apply_rule`] into a caller-owned frame, which then holds the
/// conclusion's `RETURN` value and generated events.
pub(crate) fn apply_rule_in(
    prog: &Program,
    rb: usize,
    rule: usize,
    params: &[Value],
    regs: &mut RegFile,
    inputs: &InputMap,
    fx: &mut Frame,
) -> Result<()> {
    let mut ctx = EvalCtx::on_frame(prog, regs, inputs, params, fx);
    let queued = exec_commands(&mut ctx, &prog.rulebases[rb].rules[rule].conclusion, fx);
    ctx.release(fx);
    queued?;
    fx.commit(prog, regs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::InputMap;
    use crate::parser::parse;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn fires_first_matching_rule() {
        let p = parse(
            "VARIABLE x IN 0 TO 9 INIT 5\n\
             ON f() RETURNS 0 TO 2\n\
               IF x < 3 THEN RETURN(0);\n\
               IF x < 7 THEN RETURN(1);\n\
               IF TRUE THEN RETURN(2);\n\
             END f;",
        )
        .unwrap();
        let mut regs = RegFile::new(&p);
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.rule, Some(1));
        assert_eq!(out.returned, Some(int(1)));
    }

    #[test]
    fn no_rule_is_noop() {
        let p =
            parse("VARIABLE x IN 0 TO 9 INIT 5\nON f()\n IF x = 0 THEN x <- 1;\nEND f;").unwrap();
        let mut regs = RegFile::new(&p);
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.rule, None);
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(5));
    }

    #[test]
    fn parallel_semantics_read_pre_state() {
        // swap two registers in one conclusion — only works with parallel
        // (pre-state) evaluation
        let p = parse(
            "VARIABLE a IN 0 TO 9 INIT 1\nVARIABLE b IN 0 TO 9 INIT 2\n\
             ON swap()\n IF TRUE THEN a <- b, b <- a;\nEND swap;",
        )
        .unwrap();
        let mut regs = RegFile::new(&p);
        fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(2));
        assert_eq!(regs.read(&p, 1, &[]).unwrap(), int(1));
    }

    #[test]
    fn conflicting_writes_error() {
        let p =
            parse("VARIABLE a IN 0 TO 9\nON f()\n IF TRUE THEN a <- 1, a <- 2;\nEND f;").unwrap();
        let mut regs = RegFile::new(&p);
        let e = fire_reference(&p, 0, &[], &mut regs, &InputMap::new());
        assert!(e.is_err());
    }

    #[test]
    fn duplicate_identical_writes_ok() {
        let p =
            parse("VARIABLE a IN 0 TO 9\nON f()\n IF TRUE THEN a <- 1, a <- 1;\nEND f;").unwrap();
        let mut regs = RegFile::new(&p);
        assert!(fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).is_ok());
    }

    #[test]
    fn figure4_state_update_semantics() {
        let p = parse(crate::generated::FIGURE4).unwrap();
        let faulty = p.symbol_value("faulty").unwrap();
        let sunsafe = p.symbol_value("sunsafe").unwrap();
        let ounsafe = p.symbol_value("ounsafe").unwrap();
        let mut regs = RegFile::new(&p);
        let mut inp = InputMap::new();

        // first neighbour failure: rule 0 fires, counters increment
        inp.set(&p, "new_state", &[int(2)], faulty).unwrap();
        let out = fire_reference(&p, 0, &[int(2)], &mut regs, &inp).unwrap();
        assert_eq!(out.rule, Some(0));
        assert_eq!(regs.read(&p, 1, &[]).unwrap(), int(1)); // number_faulty
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(1)); // number_unsafe
        assert_eq!(regs.read(&p, 2, &[int(2)]).unwrap(), faulty);

        // force number_unsafe to 2 and deliver an unsafe neighbour:
        // rule 1 fires, state flips and one message per direction goes out
        regs.write(&p, 0, &[], int(2)).unwrap();
        inp.set(&p, "new_state", &[int(4)], sunsafe).unwrap();
        let out = fire_reference(&p, 0, &[int(4)], &mut regs, &inp).unwrap();
        assert_eq!(out.rule, Some(1));
        assert_eq!(regs.read(&p, 3, &[]).unwrap(), ounsafe); // state
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(3));
        assert_eq!(out.emitted.len(), 6, "one send per direction");
        assert!(out.emitted.iter().all(|e| e.event == "send_newmessage"));
        assert_eq!(out.emitted[3].args, vec![int(3), ounsafe]);
    }

    #[test]
    fn quantifiers_and_argmin() {
        let src = "
CONSTANT dirs = 0 TO 3
INPUT free[dirs] IN bool
INPUT queue[dirs] IN 0 TO 255
VARIABLE avail IN SETOF dirs
ON pick() RETURNS dirs
  IF EXISTS i IN avail: free(i)
  THEN RETURN(argmin(queue, avail));
END pick;
";
        let p = parse(src).unwrap();
        let mut regs = RegFile::new(&p);
        regs.write(&p, 0, &[], Value::Set { dom: Domain::Int { lo: 0, hi: 3 }, mask: 0b1010 })
            .unwrap();
        let mut inp = InputMap::new();
        for i in 0..4 {
            inp.set(&p, "free", &[int(i)], Value::Bool(i == 3)).unwrap();
            inp.set(&p, "queue", &[int(i)], int(10 - i)).unwrap();
        }
        let out = fire_reference(&p, 0, &[], &mut regs, &inp).unwrap();
        // avail = {1, 3}; queue(3)=7 < queue(1)=9, so argmin = 3
        assert_eq!(out.returned, Some(int(3)));
    }

    #[test]
    fn set_builtins() {
        let src = "
CONSTANT s = {a, b, c}
VARIABLE x IN SETOF s
ON f() RETURNS 0 TO 3
  IF card(union(x, {b})) = 2 THEN RETURN(2);
  IF TRUE THEN RETURN(card(diff({a, b, c}, x)));
END f;
";
        let p = parse(src).unwrap();
        let mut regs = RegFile::new(&p);
        // x = {a}
        regs.write(&p, 0, &[], Value::Set { dom: Domain::Sym(0), mask: 0b001 }).unwrap();
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.returned, Some(int(2))); // union {a},{b} has card 2

        // x = {a,b,c} -> first premise card(union) = 3, second returns 0
        regs.write(&p, 0, &[], Value::Set { dom: Domain::Sym(0), mask: 0b111 }).unwrap();
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.returned, Some(int(0)));
    }

    #[test]
    fn write_out_of_domain_rejected() {
        let p = parse("VARIABLE x IN 0 TO 3 INIT 3\nON f()\n IF TRUE THEN x <- x + 1;\nEND f;")
            .unwrap();
        let mut regs = RegFile::new(&p);
        assert!(fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).is_err());
    }

    #[test]
    fn param_domain_checked() {
        let p = parse("CONSTANT d = 0 TO 3\nON f(i IN d) END f;").unwrap();
        let mut regs = RegFile::new(&p);
        assert!(fire_reference(&p, 0, &[int(4)], &mut regs, &InputMap::new()).is_err());
        assert!(fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).is_err());
        assert!(fire_reference(&p, 0, &[int(3)], &mut regs, &InputMap::new()).is_ok());
    }
}
