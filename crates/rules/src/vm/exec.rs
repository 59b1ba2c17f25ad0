//! The bytecode dispatch loop.
//!
//! Execution of one interpretation follows the same three stages as the
//! table interpreter: the premise block accumulates the mixed-radix table
//! index, the kernel is one jump-table lookup, and the selected conclusion
//! block queues effects into the [`Frame`] the table interpreter queues
//! into, which commits them with the parallel-write semantics.

use super::{BaseCode, Op, Slot, SlotRange};
use crate::ast::Program;
use crate::env::{InputMap, RegFile};
use crate::error::{Result, RuleError};
use crate::eval::{absent, apply_bin, apply_builtin, FireOutcome, Members};
use crate::frame::Frame;
use crate::interp::not_a_digit;
use crate::value::Value;

#[cold]
fn off_the_end(pc: u32) -> RuleError {
    RuleError::eval(format!("bytecode pc {pc} out of range"))
}

/// Why a code segment stopped.
enum Halt {
    /// Premise block finished; payload is the accumulated table index.
    AtDispatch(u64),
    /// Conclusion block finished as rule `Some(r)` or the gap (`None`).
    Done(Option<u16>),
}

struct Exec<'a> {
    prog: &'a Program,
    code: &'a BaseCode,
    params: &'a [Value],
    regs: &'a RegFile,
    inputs: &'a InputMap,
    sc: &'a mut Frame,
}

impl Exec<'_> {
    fn slot(&self, s: Slot) -> Value {
        self.sc.slots[s as usize]
    }

    fn vals(&self, r: SlotRange) -> &[Value] {
        &self.sc.slots[r.as_range()]
    }

    fn run(&mut self, mut pc: u32) -> Result<Halt> {
        let mut acc = 0u64;
        loop {
            let op = self.code.ops.get(pc as usize).ok_or_else(|| off_the_end(pc))?;
            pc += 1;
            match op {
                Op::Const { dst, v } => self.sc.slots[*dst as usize] = *v,
                Op::Copy { src, dst } => self.sc.slots[*dst as usize] = self.slot(*src),
                Op::ReadVar { var, idx, dst } => {
                    let v = self.regs.read(self.prog, *var as usize, self.vals(*idx))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::ReadInput { input, idx, dst } => {
                    let v = self.inputs.read_input(self.prog, *input as usize, self.vals(*idx))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::ReadParam { param, dst } => {
                    let v = self.params.get(*param as usize).copied();
                    let v = v.ok_or_else(|| absent("missing parameter", *param as usize))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::Not { src, dst } => {
                    let b = self.slot(*src).as_bool()?;
                    self.sc.slots[*dst as usize] = Value::Bool(!b);
                }
                Op::Neg { src, dst } => {
                    let n = self.slot(*src).as_int()?;
                    self.sc.slots[*dst as usize] = Value::Int(-n);
                }
                Op::Bin { op, lhs, rhs, dst } => {
                    let v = apply_bin(self.prog, *op, &self.slot(*lhs), &self.slot(*rhs))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::AsBool { src, dst } => {
                    let b = self.slot(*src).as_bool()?;
                    self.sc.slots[*dst as usize] = Value::Bool(b);
                }
                Op::CallB { builtin, args, dst } => {
                    let v = apply_builtin(self.prog, self.inputs, *builtin, self.vals(*args))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::Jump { target } => pc = *target,
                Op::CondJump { src, when, target } => {
                    if self.slot(*src).as_bool()? == *when {
                        pc = *target;
                    }
                }
                Op::IterInit { iter, src } => {
                    self.sc.iters[*iter as usize] = Members::of(self.prog, &self.slot(*src))?;
                }
                Op::IterNext { iter, dst, exit } => match self.sc.iters[*iter as usize].next() {
                    Some(v) => self.sc.slots[*dst as usize] = v,
                    None => pc = *exit,
                },
                Op::DigitDirect { src, dom, stride } => {
                    let v = self.slot(*src);
                    let d = dom
                        .ordinal(&v, self.prog.sym_sizes())
                        .ok_or_else(|| not_a_digit(&v, *dom))?;
                    acc += d * stride;
                }
                Op::DigitPred { src, stride } => {
                    if self.slot(*src).as_bool()? {
                        acc += stride;
                    }
                }
                Op::Dispatch => return Ok(Halt::AtDispatch(acc)),
                Op::QueueWrite { var, idx, val } => {
                    let cell = RegFile::cell(self.prog, *var as usize, self.vals(*idx));
                    self.sc.queue_write(*var as usize, cell, self.slot(*val));
                }
                Op::QueueReturn { src } => self.sc.queue_return(self.prog, self.slot(*src))?,
                Op::QueueEmit { event, args } => {
                    for slot in args.as_range() {
                        self.sc.push_arg(self.sc.slots[slot]);
                    }
                    self.sc.queue_emit(*event as usize, args.count as usize);
                }
                Op::Commit { rule } => return Ok(Halt::Done(Some(*rule))),
                Op::CommitGap => return Ok(Halt::Done(None)),
            }
        }
    }
}

impl BaseCode {
    /// One full interpretation: premise block, kernel jump, conclusion
    /// block, commit. Behaviour (outcome, register effects, error-ness)
    /// matches [`crate::interp::CompiledRuleBase::fire`] exactly.
    pub fn fire(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        scratch: &mut Frame,
    ) -> Result<FireOutcome> {
        scratch.begin();
        // The lowering only ever emits def-before-use slot accesses (every
        // op writes its `dst` before any later op reads it, on every
        // control-flow path — including entry into a conclusion block via
        // the kernel jump), so values left over from the previous fire are
        // unobservable and the buffers are grown, not cleared.
        if scratch.slots.len() < self.slot_count as usize {
            scratch.slots.resize(self.slot_count as usize, Value::Bool(false));
        }
        if scratch.iters.len() < self.iter_count as usize {
            scratch.iters.resize(self.iter_count as usize, Members::NONE);
        }
        let halt = Exec { prog, code: self, params, regs, inputs, sc: scratch }.run(0)?;
        let Halt::AtDispatch(idx) = halt else {
            return Err(RuleError::eval("bytecode premise block did not dispatch".to_string()));
        };
        // kernel stage: one table lookup, checked like `CompiledRuleBase::entry`
        let target = self.jump_table.get(idx as usize).copied().ok_or_else(|| {
            let n = self.jump_table.len();
            RuleError::eval(format!("corrupt rule table: index {idx} outside {n} entries"))
        })?;
        let halt = Exec { prog, code: self, params, regs, inputs, sc: scratch }.run(target)?;
        let rule = match halt {
            Halt::Done(rule) => rule.map(usize::from),
            Halt::AtDispatch(_) => {
                return Err(RuleError::eval(
                    "bytecode re-entered dispatch in a conclusion".to_string(),
                ))
            }
        };
        if rule.is_some() {
            scratch.commit(prog, regs)?;
        }
        Ok(scratch.outcome(prog, rule))
    }
}
