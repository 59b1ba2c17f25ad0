//! The bytecode dispatch loop.
//!
//! Execution of one interpretation follows the same three stages as the
//! table interpreter: the premise block accumulates the mixed-radix table
//! index, the kernel is one jump-table lookup, and the selected conclusion
//! block queues effects into the [`Frame`] the table interpreter queues
//! into, which commits them with the parallel-write semantics. The probe
//! sees the exact `(base, stage)` sequence the table interpreter reports —
//! including the error cases (premise error: nothing recorded; kernel
//! error: Premise only; conclusion error: all three stages recorded before
//! the error returns).

use super::{BaseCode, Op, Slot, SlotRange};
use crate::ast::Program;
use crate::env::{InputMap, RegFile};
use crate::error::{Result, RuleError};
use crate::eval::{absent, apply_bin, apply_builtin, FireOutcome, Members};
use crate::frame::Frame;
use crate::interp::not_a_digit;
use crate::probe::{InterpProbe, Stage, StageClock};
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
    /// Kernel stage: one table lookup, checked like
    /// [`crate::interp::CompiledRuleBase::entry`].
    fn kernel(&self, idx: u64) -> Result<u32> {
        self.jump_table.get(idx as usize).copied().ok_or_else(|| {
            RuleError::eval(format!(
                "corrupt rule table: index {idx} outside {} entries",
                self.jump_table.len()
            ))
        })
    }

    fn conclude(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        frame: &mut Frame,
        target: u32,
    ) -> Result<Option<usize>> {
        let halt = Exec { prog, code: self, params, regs, inputs, sc: frame }.run(target)?;
        match halt {
            Halt::Done(None) => Ok(None),
            Halt::Done(Some(rule)) => frame.commit(prog, regs).map(|()| Some(rule as usize)),
            Halt::AtDispatch(_) => {
                Err(RuleError::eval("bytecode re-entered dispatch in a conclusion".to_string()))
            }
        }
    }

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
        let rule = self.fire_in(prog, params, regs, inputs, scratch, None)?;
        Ok(scratch.outcome(prog, rule))
    }

    /// Like [`BaseCode::fire`], but reports per-stage wall-clock cost to
    /// `probe` with the same record points as the table interpreter's
    /// `fire_probed`.
    pub fn fire_probed(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        scratch: &mut Frame,
        probe: &dyn InterpProbe,
    ) -> Result<FireOutcome> {
        let rule = self.fire_in(prog, params, regs, inputs, scratch, Some(probe))?;
        Ok(scratch.outcome(prog, rule))
    }

    /// The bytecode counterpart of
    /// [`crate::interp::CompiledRuleBase::fire_in`].
    pub(crate) fn fire_in(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        frame: &mut Frame,
        probe: Option<&dyn InterpProbe>,
    ) -> Result<Option<usize>> {
        let mut clock = StageClock::start(self.rb, probe);
        frame.begin();
        // The lowering only ever emits def-before-use slot accesses (every
        // op writes its `dst` before any later op reads it, on every
        // control-flow path — including entry into a conclusion block via
        // the kernel jump), so values left over from the previous fire are
        // unobservable and the buffers are grown, not cleared.
        if frame.slots.len() < self.slot_count as usize {
            frame.slots.resize(self.slot_count as usize, Value::Bool(false));
        }
        if frame.iters.len() < self.iter_count as usize {
            frame.iters.resize(self.iter_count as usize, Members::NONE);
        }
        let halt = Exec { prog, code: self, params, regs, inputs, sc: frame }.run(0)?;
        let Halt::AtDispatch(idx) = halt else {
            return Err(RuleError::eval("bytecode premise block did not dispatch".to_string()));
        };
        clock.lap(Stage::Premise);
        let target = self.kernel(idx)?;
        clock.lap(Stage::Kernel);
        let done = self.conclude(prog, params, regs, inputs, frame, target);
        clock.lap(Stage::Conclusion);
        done
    }
}
