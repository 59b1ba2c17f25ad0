//! Lowering from a [`CompiledRuleBase`] to flat bytecode.
//!
//! The op stream mirrors the three interpretation stages:
//!
//! * **premise block** — evaluates each extracted feature in index-digit
//!   order, accumulating the mixed-radix table index with
//!   [`Op::DigitDirect`]/[`Op::DigitPred`] (strides baked in at lowering),
//!   and ends in [`Op::Dispatch`];
//! * **gap block** — a single [`Op::CommitGap`];
//! * **conclusion blocks** — one per rule, each queueing its effects and
//!   ending in [`Op::Commit`].
//!
//! The jump table is derived from the filled ARON table with the same
//! checked decode as the table interpreter ([`CompiledRuleBase::decode_entry`]),
//! so corrupt tables are rejected at lowering instead of mis-firing.
//!
//! Error-behaviour parity with [`crate::eval`] is part of the contract:
//! evaluation order inside expressions, short-circuiting of `AND`/`OR`,
//! quantifier early exit and assignment index-before-value evaluation all
//! match the reference evaluator, so the two backends agree not only on
//! every `Ok` outcome but on *whether* a given interpretation errors.

use super::{BaseCode, Op, Slot, SlotRange};
use crate::ast::{Command, Expr, Program, Quant, Ref};
use crate::compile::FeatureKind;
use crate::error::{Result, RuleError};
use crate::interp::CompiledRuleBase;

/// Lowers one compiled base. The caller ([`super::VmProgram::lower`])
/// validates the result.
pub(crate) fn lower_base(prog: &Program, cb: &CompiledRuleBase) -> Result<BaseCode> {
    let rb_name = &prog.rulebases[cb.rb].name;
    let mut lw = Lowerer {
        prog,
        rb_name,
        ops: Vec::new(),
        next_slot: 0,
        iter_depth: 0,
        max_iter: 0,
        binders: Vec::new(),
    };

    // Premise block: feature digits in index order, least significant first.
    let mut stride = 1u64;
    for (f, radix) in cb.features.iter().zip(&cb.radices) {
        match &f.kind {
            FeatureKind::Direct { subject, dom } => {
                let src = lw.expr(subject)?;
                lw.ops.push(Op::DigitDirect { src, dom: *dom, stride });
            }
            FeatureKind::Predicate { expr } => {
                let src = lw.expr(expr)?;
                lw.ops.push(Op::DigitPred { src, stride });
            }
        }
        stride = stride.saturating_mul(*radix);
    }
    lw.ops.push(Op::Dispatch);

    // Gap block, then one conclusion block per rule.
    let gap_off = lw.here();
    lw.ops.push(Op::CommitGap);
    let rb = &prog.rulebases[cb.rb];
    let mut rule_offs = Vec::with_capacity(rb.rules.len());
    for (ri, rule) in rb.rules.iter().enumerate() {
        rule_offs.push(lw.here());
        lw.commands(&rule.conclusion)?;
        lw.ops.push(Op::Commit { rule: ri as u16 });
    }

    // Direct-threaded cascade: table entry -> conclusion-block offset.
    let jump_table: Result<Vec<u32>> = cb
        .table
        .iter()
        .map(|&e| {
            Ok(match cb.decode_entry(e)? {
                None => gap_off,
                Some(r) => rule_offs[r],
            })
        })
        .collect();

    Ok(BaseCode {
        rb: cb.rb,
        ops: lw.ops,
        jump_table: jump_table?,
        slot_count: lw.next_slot as u16,
        iter_count: lw.max_iter,
    })
}

struct Lowerer<'a> {
    prog: &'a Program,
    rb_name: &'a str,
    ops: Vec<Op>,
    /// Bump slot allocator (kept as u32 to detect u16 overflow).
    next_slot: u32,
    /// Current loop-nesting depth; iterators are allocated by depth.
    iter_depth: u16,
    max_iter: u16,
    /// Binder slots, innermost last (`Bound(0)` = last).
    binders: Vec<Slot>,
}

impl Lowerer<'_> {
    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn too_big(&self, what: &str) -> RuleError {
        RuleError::eval(format!("rule base `{}` too large to lower: {what}", self.rb_name))
    }

    fn slot(&mut self) -> Result<Slot> {
        let s = self.next_slot;
        self.next_slot += 1;
        if self.next_slot > u16::MAX as u32 {
            return Err(self.too_big("more than 65535 value slots"));
        }
        Ok(s as Slot)
    }

    fn slot_range(&mut self, count: usize) -> Result<SlotRange> {
        let start = self.next_slot;
        self.next_slot += count as u32;
        if self.next_slot > u16::MAX as u32 || count > u16::MAX as usize {
            return Err(self.too_big("more than 65535 value slots"));
        }
        Ok(SlotRange { start: start as u16, count: count as u16 })
    }

    fn iter_enter(&mut self) -> Result<u16> {
        let i = self.iter_depth;
        self.iter_depth = self
            .iter_depth
            .checked_add(1)
            .ok_or_else(|| self.too_big("loop nesting exceeds u16"))?;
        self.max_iter = self.max_iter.max(self.iter_depth);
        Ok(i)
    }

    fn iter_exit(&mut self) {
        self.iter_depth -= 1;
    }

    /// Emits a jump/conditional-jump placeholder; returns its op index for
    /// [`Lowerer::patch`].
    fn placeholder(&mut self, op: Op) -> usize {
        let at = self.ops.len();
        self.ops.push(op);
        at
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump { target: t }
            | Op::CondJump { target: t, .. }
            | Op::IterNext { exit: t, .. } => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    /// Lowers `exprs` into a freshly allocated contiguous slot range
    /// (evaluated left to right, like the evaluator's argument collection).
    fn expr_list(&mut self, exprs: &[Expr]) -> Result<SlotRange> {
        let range = self.slot_range(exprs.len())?;
        for (k, e) in exprs.iter().enumerate() {
            let s = self.expr(e)?;
            self.ops.push(Op::Copy { src: s, dst: range.start + k as u16 });
        }
        Ok(range)
    }

    /// Lowers an expression; returns the slot holding its value.
    fn expr(&mut self, e: &Expr) -> Result<Slot> {
        match e {
            Expr::Lit(v) => {
                let dst = self.slot()?;
                self.ops.push(Op::Const { dst, v: *v });
                Ok(dst)
            }
            Expr::Ref(r) => self.reference(r),
            Expr::Indexed { target, indices } => {
                let idx = self.expr_list(indices)?;
                let dst = self.slot()?;
                match target {
                    crate::ast::IndexedRef::Var(v) => {
                        self.ops.push(Op::ReadVar { var: *v as u16, idx, dst })
                    }
                    crate::ast::IndexedRef::Input(i) => {
                        self.ops.push(Op::ReadInput { input: *i as u16, idx, dst })
                    }
                }
                Ok(dst)
            }
            Expr::Un(op, inner) => {
                let src = self.expr(inner)?;
                let dst = self.slot()?;
                self.ops.push(match op {
                    crate::ast::UnOp::Not => Op::Not { src, dst },
                    crate::ast::UnOp::Neg => Op::Neg { src, dst },
                });
                Ok(dst)
            }
            Expr::Bin(crate::ast::BinOp::And, l, r) => self.short_circuit(l, r, false),
            Expr::Bin(crate::ast::BinOp::Or, l, r) => self.short_circuit(l, r, true),
            Expr::Bin(op, l, r) => {
                let lhs = self.expr(l)?;
                let rhs = self.expr(r)?;
                let dst = self.slot()?;
                self.ops.push(Op::Bin { op: *op, lhs, rhs, dst });
                Ok(dst)
            }
            Expr::Quant { q, set, body, .. } => self.quant(*q, set, body),
            Expr::Call { builtin, args } => {
                let args = self.expr_list(args)?;
                let dst = self.slot()?;
                self.ops.push(Op::CallB { builtin: *builtin, args, dst });
                Ok(dst)
            }
        }
    }

    fn reference(&mut self, r: &Ref) -> Result<Slot> {
        match r {
            Ref::Const(i) => {
                let v = self
                    .prog
                    .consts
                    .get(*i)
                    .ok_or_else(|| RuleError::eval(format!("unknown constant {i}")))?
                    .value;
                let dst = self.slot()?;
                self.ops.push(Op::Const { dst, v });
                Ok(dst)
            }
            Ref::Var(i) => {
                let dst = self.slot()?;
                self.ops.push(Op::ReadVar { var: *i as u16, idx: SlotRange::EMPTY, dst });
                Ok(dst)
            }
            Ref::Input(i) => {
                let dst = self.slot()?;
                self.ops.push(Op::ReadInput { input: *i as u16, idx: SlotRange::EMPTY, dst });
                Ok(dst)
            }
            Ref::Param(i) => {
                let dst = self.slot()?;
                self.ops.push(Op::ReadParam { param: *i as u16, dst });
                Ok(dst)
            }
            // The binder's slot is only ever written by its loop's
            // `IterNext`, so it can be used in place — no copy needed.
            Ref::Bound(d) => {
                let n = self.binders.len();
                self.binders
                    .get(n.wrapping_sub(1 + d))
                    .copied()
                    .ok_or_else(|| RuleError::eval(format!("unbound binder depth {d}")))
            }
        }
    }

    /// `AND`/`OR` lower to branches so the right operand is not evaluated
    /// when the left decides — matching the evaluator's short-circuit
    /// semantics (including *which* sub-expressions can raise errors).
    fn short_circuit(&mut self, l: &Expr, r: &Expr, or: bool) -> Result<Slot> {
        let dst = self.slot()?;
        let lhs = self.expr(l)?;
        // AND: a false left short-circuits; OR: a true left does.
        let j_short = self.placeholder(Op::CondJump { src: lhs, when: or, target: u32::MAX });
        let rhs = self.expr(r)?;
        self.ops.push(Op::AsBool { src: rhs, dst });
        let j_end = self.placeholder(Op::Jump { target: u32::MAX });
        let short = self.here();
        self.patch(j_short, short);
        self.ops.push(Op::Const { dst, v: crate::value::Value::Bool(or) });
        let end = self.here();
        self.patch(j_end, end);
        Ok(dst)
    }

    /// Quantifiers iterate the set in canonical order with early exit on
    /// the deciding element, like [`crate::eval::eval_expr`].
    fn quant(&mut self, q: Quant, set: &Expr, body: &Expr) -> Result<Slot> {
        let forall = matches!(q, Quant::Forall);
        let dst = self.slot()?;
        self.ops.push(Op::Const { dst, v: crate::value::Value::Bool(forall) });
        let src = self.expr(set)?;
        let iter = self.iter_enter()?;
        self.ops.push(Op::IterInit { iter, src });
        let elem = self.slot()?;
        let head = self.here();
        let j_exit = self.placeholder(Op::IterNext { iter, dst: elem, exit: u32::MAX });
        self.binders.push(elem);
        let body_slot = self.expr(body);
        self.binders.pop();
        let body_slot = body_slot?;
        // EXISTS: a false body continues the loop, a true one decides;
        // FORALL: dual.
        self.ops.push(Op::CondJump { src: body_slot, when: forall, target: head });
        self.ops.push(Op::Const { dst, v: crate::value::Value::Bool(!forall) });
        let end = self.here();
        self.patch(j_exit, end);
        self.iter_exit();
        Ok(dst)
    }

    /// Lowers conclusion commands; effects queue into the scratch frame
    /// and are applied by `Commit` with the parallel-write semantics.
    fn commands(&mut self, cmds: &[Command]) -> Result<()> {
        for cmd in cmds {
            match cmd {
                Command::Assign { var, indices, value } => {
                    let idx = self.expr_list(indices)?;
                    let val = self.expr(value)?;
                    self.ops.push(Op::QueueWrite { var: *var as u16, idx, val });
                }
                Command::Return(e) => {
                    let src = self.expr(e)?;
                    self.ops.push(Op::QueueReturn { src });
                }
                Command::Emit { id, args, .. } => {
                    let args = self.expr_list(args)?;
                    let event = u16::try_from(*id)
                        .map_err(|_| self.too_big("more than 65535 distinct emitted events"))?;
                    self.ops.push(Op::QueueEmit { event, args });
                }
                Command::ForAll { set, body, .. } => {
                    let src = self.expr(set)?;
                    let iter = self.iter_enter()?;
                    self.ops.push(Op::IterInit { iter, src });
                    let elem = self.slot()?;
                    let head = self.here();
                    let j_exit = self.placeholder(Op::IterNext { iter, dst: elem, exit: u32::MAX });
                    self.binders.push(elem);
                    let r = self.commands(body);
                    self.binders.pop();
                    r?;
                    self.ops.push(Op::Jump { target: head });
                    let end = self.here();
                    self.patch(j_exit, end);
                    self.iter_exit();
                }
            }
        }
        Ok(())
    }
}
