//! ftr-vm — a direct-threaded bytecode lowering of compiled rule programs.
//!
//! The ARON table interpreter ([`crate::interp`]) re-walks the feature ASTs
//! on every interpretation. This module lowers a [`CompiledProgram`] once
//! into flat, register-indexed bytecode and executes it with a dispatch
//! loop, eliminating the per-fire AST traversal while preserving the
//! interpreter's outcomes and register effects **exactly**:
//!
//! * rule selection — the lowered **cascade jump table** is derived from
//!   the filled ARON table with the same checked entry decode, but stores
//!   *code offsets* instead of rule indices (the direct-threaded part):
//!   the kernel stage is a single indexed jump straight into the selected
//!   rule's conclusion block, with gaps jumping to a shared gap exit;
//! * conclusion semantics — writes/returns/emits queue into the same
//!   [`crate::frame::Frame`] the table interpreter uses and commit through
//!   it (pre-state read, ordered apply, duplicate-tolerant conflict
//!   detection), and builtins share `crate::eval::apply_builtin`, so the
//!   two backends cannot drift.
//!
//! Layout of one lowered base ([`BaseCode`]): the op stream starts with the
//! premise block (feature-digit computation accumulating the mixed-radix
//! table index) terminated by [`Op::Dispatch`]; after it come the gap exit
//! and one conclusion block per rule, each terminated by
//! [`Op::Commit`]/[`Op::CommitGap`]. `jump_table[i]` is the op offset the
//! kernel jumps to for table entry `i`.
//!
//! Bytecode is *validated at load* ([`VmProgram::validate`]): jump targets,
//! slot/iter indices, variable/input/event/rule references and builtin
//! arities are all range-checked against the program, so malformed or
//! corrupted code is rejected before it can execute.
//!
//! No router runs this code: a [`crate::event::Machine`] executes the
//! table. The cost ledger (`benchmark/`) still lowers every shipped
//! program and times one fire of the lowered XY base.

mod exec;
mod lower;

pub use crate::frame::Frame as Scratch;

use crate::ast::{BinOp, Builtin, Program};
use crate::error::{Result, RuleError};
use crate::interp::CompiledProgram;
use crate::value::{Domain, Value};

/// Index of a value slot in the per-fire scratch frame.
pub type Slot = u16;

/// A contiguous run of value slots (indexed-read indices, emit/call args).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotRange {
    /// First slot.
    pub start: u16,
    /// Number of slots.
    pub count: u16,
}

impl SlotRange {
    /// Empty range (scalar reads).
    pub const EMPTY: SlotRange = SlotRange { start: 0, count: 0 };

    pub(crate) fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.count as usize
    }
}

/// One bytecode instruction. All value operands are scratch-frame slot
/// indices; control flow uses absolute op offsets within the base.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `slots[dst] <- v`
    Const {
        /// Destination slot.
        dst: Slot,
        /// Literal (also used for resolved `CONSTANT` references).
        v: Value,
    },
    /// `slots[dst] <- slots[src]`
    Copy {
        /// Source slot.
        src: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- regs.read(var, slots[idx])`
    ReadVar {
        /// Register index ([`Program::vars`]).
        var: u16,
        /// Index-value slots (empty for scalar registers).
        idx: SlotRange,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- inputs.read_input(input, slots[idx])`
    ReadInput {
        /// Input index ([`Program::inputs`]).
        input: u16,
        /// Index-value slots (empty for scalar inputs).
        idx: SlotRange,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- params[param]`
    ReadParam {
        /// Event-parameter position.
        param: u16,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- Bool(!slots[src])`
    Not {
        /// Source slot.
        src: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- Int(-slots[src])`
    Neg {
        /// Source slot.
        src: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- slots[lhs] op slots[rhs]` — never `And`/`Or`, which
    /// lower to [`Op::CondJump`] chains to keep short-circuit semantics.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        lhs: Slot,
        /// Right operand slot.
        rhs: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- Bool(slots[src].as_bool()?)` — boolean check at the
    /// tail of a short-circuit chain.
    AsBool {
        /// Source slot.
        src: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `slots[dst] <- builtin(slots[args])`; `argmin`/`argmax` carry their
    /// input id inside the [`Builtin`] and read inputs while scanning.
    CallB {
        /// Which builtin.
        builtin: Builtin,
        /// Evaluated argument slots.
        args: SlotRange,
        /// Destination slot.
        dst: Slot,
    },
    /// `pc <- target`
    Jump {
        /// Absolute op offset.
        target: u32,
    },
    /// `if slots[src].as_bool()? == when { pc <- target }`
    CondJump {
        /// Condition slot.
        src: Slot,
        /// Polarity.
        when: bool,
        /// Absolute op offset.
        target: u32,
    },
    /// Starts iterating the set in `slots[src]` (canonical ordinal order).
    IterInit {
        /// Iterator index.
        iter: u16,
        /// Slot holding the set value.
        src: Slot,
    },
    /// `slots[dst] <- next element`, or `pc <- exit` when exhausted.
    IterNext {
        /// Iterator index.
        iter: u16,
        /// Destination slot for the element (the loop binder).
        dst: Slot,
        /// Absolute op offset jumped to after the last element.
        exit: u32,
    },
    /// Premise stage: `idx_acc += ordinal(slots[src], dom) * stride`;
    /// errors when the value falls outside the feature's domain.
    DigitDirect {
        /// Slot holding the feature subject value.
        src: Slot,
        /// Feature domain.
        dom: Domain,
        /// Mixed-radix stride of this digit.
        stride: u64,
    },
    /// Premise stage: `idx_acc += stride` when `slots[src]` is true.
    DigitPred {
        /// Slot holding the predicate value.
        src: Slot,
        /// Mixed-radix stride of this digit.
        stride: u64,
    },
    /// Kernel stage: `pc <- jump_table[idx_acc]` — the direct-threaded
    /// cascade jump into the selected rule's conclusion block.
    Dispatch,
    /// Queues a register write (applied at [`Op::Commit`] with
    /// parallel-write semantics).
    QueueWrite {
        /// Target register.
        var: u16,
        /// Evaluated index slots.
        idx: SlotRange,
        /// Evaluated value slot.
        val: Slot,
    },
    /// Queues a `RETURN`; conflicting values error like the evaluator.
    QueueReturn {
        /// Evaluated value slot.
        src: Slot,
    },
    /// Queues an event emission.
    QueueEmit {
        /// Index into [`Program::events`].
        event: u16,
        /// Evaluated argument slots.
        args: SlotRange,
    },
    /// Applies queued writes (pre-state reads, ordered apply, conflict
    /// detection) and finishes the fire as rule `rule`.
    Commit {
        /// Rule index the block belongs to.
        rule: u16,
    },
    /// Finishes the fire as the gap (no applicable rule) outcome.
    CommitGap,
}

/// One rule base lowered to bytecode.
#[derive(Clone, Debug, PartialEq)]
pub struct BaseCode {
    /// Index into [`Program::rulebases`].
    pub rb: usize,
    /// Flat op stream: premise block, gap exit, one conclusion block per
    /// rule.
    pub ops: Vec<Op>,
    /// ARON table entry → op offset of the selected conclusion block.
    pub jump_table: Vec<u32>,
    /// Scratch value slots the code addresses.
    pub slot_count: u16,
    /// Scratch set iterators the code addresses.
    pub iter_count: u16,
}

/// A complete lowered program: one [`BaseCode`] per compiled rule base.
#[derive(Clone, Debug, PartialEq)]
pub struct VmProgram {
    /// Per-base code, indexed like [`CompiledProgram::bases`].
    pub bases: Vec<BaseCode>,
}

impl VmProgram {
    /// Lowers every base of a compiled program. The resulting code is
    /// already validated.
    pub fn lower(compiled: &CompiledProgram) -> Result<Self> {
        let bases: Result<Vec<BaseCode>> =
            compiled.bases.iter().map(|cb| lower::lower_base(&compiled.prog, cb)).collect();
        let vm = VmProgram { bases: bases? };
        vm.validate(compiled)?;
        Ok(vm)
    }

    /// Range-checks every instruction against the program: jump targets,
    /// slot/iterator indices, register/input/parameter/event/rule
    /// references, builtin arities and the jump-table geometry. Malformed
    /// bytecode must be rejected here, at load, never executed.
    pub fn validate(&self, compiled: &CompiledProgram) -> Result<()> {
        let prog = &compiled.prog;
        if self.bases.len() != compiled.bases.len() {
            return Err(bad(format!(
                "bytecode has {} bases, program has {}",
                self.bases.len(),
                compiled.bases.len()
            )));
        }
        for (bi, (code, cb)) in self.bases.iter().zip(&compiled.bases).enumerate() {
            validate_base(prog, bi, code, cb.table.len())?;
        }
        Ok(())
    }
}

fn bad(msg: String) -> RuleError {
    RuleError::eval(format!("invalid bytecode: {msg}"))
}

fn validate_base(prog: &Program, bi: usize, code: &BaseCode, entries: usize) -> Result<()> {
    if code.rb != bi {
        return Err(bad(format!("base {bi} labelled rb={}", code.rb)));
    }
    let rb = prog.rulebases.get(bi).ok_or_else(|| bad(format!("no rule base {bi}")))?;
    let n_ops = code.ops.len() as u32;
    let slot = |s: Slot| -> Result<()> {
        if s < code.slot_count {
            Ok(())
        } else {
            Err(bad(format!("base {bi}: slot {s} >= slot_count {}", code.slot_count)))
        }
    };
    let range = |r: SlotRange| -> Result<()> {
        let end = r.start as u32 + r.count as u32;
        if end <= code.slot_count as u32 {
            Ok(())
        } else {
            Err(bad(format!("base {bi}: slot range {r:?} escapes slot_count {}", code.slot_count)))
        }
    };
    let target = |t: u32| -> Result<()> {
        if t < n_ops {
            Ok(())
        } else {
            Err(bad(format!("base {bi}: jump target {t} >= {n_ops} ops")))
        }
    };
    if code.jump_table.len() != entries {
        return Err(bad(format!(
            "base {bi}: jump table has {} entries, ARON table has {entries}",
            code.jump_table.len()
        )));
    }
    for &t in &code.jump_table {
        target(t)?;
    }
    for op in &code.ops {
        match op {
            Op::Const { dst, .. } => slot(*dst)?,
            Op::Copy { src, dst } | Op::AsBool { src, dst } => {
                slot(*src)?;
                slot(*dst)?;
            }
            Op::ReadVar { var, idx, dst } => {
                if *var as usize >= prog.vars.len() {
                    return Err(bad(format!("base {bi}: register {var} out of range")));
                }
                range(*idx)?;
                slot(*dst)?;
            }
            Op::ReadInput { input, idx, dst } => {
                if *input as usize >= prog.inputs.len() {
                    return Err(bad(format!("base {bi}: input {input} out of range")));
                }
                range(*idx)?;
                slot(*dst)?;
            }
            Op::ReadParam { param, dst } => {
                if *param as usize >= rb.params.len() {
                    return Err(bad(format!("base {bi}: parameter {param} out of range")));
                }
                slot(*dst)?;
            }
            Op::Not { src, dst } | Op::Neg { src, dst } => {
                slot(*src)?;
                slot(*dst)?;
            }
            Op::Bin { op, lhs, rhs, dst } => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    return Err(bad(format!(
                        "base {bi}: {op:?} must lower to short-circuit branches"
                    )));
                }
                slot(*lhs)?;
                slot(*rhs)?;
                slot(*dst)?;
            }
            Op::CallB { builtin, args, dst } => {
                if args.count as usize != builtin_arity(*builtin) {
                    return Err(bad(format!(
                        "base {bi}: {builtin:?} takes {} args, got {}",
                        builtin_arity(*builtin),
                        args.count
                    )));
                }
                if let Builtin::ArgMin(input) | Builtin::ArgMax(input) = builtin {
                    if *input >= prog.inputs.len() {
                        return Err(bad(format!("base {bi}: builtin input {input} out of range")));
                    }
                }
                range(*args)?;
                slot(*dst)?;
            }
            Op::Jump { target: t } => target(*t)?,
            Op::CondJump { src, target: t, .. } => {
                slot(*src)?;
                target(*t)?;
            }
            Op::IterInit { iter, src } => {
                if *iter >= code.iter_count {
                    return Err(bad(format!("base {bi}: iterator {iter} out of range")));
                }
                slot(*src)?;
            }
            Op::IterNext { iter, dst, exit } => {
                if *iter >= code.iter_count {
                    return Err(bad(format!("base {bi}: iterator {iter} out of range")));
                }
                slot(*dst)?;
                target(*exit)?;
            }
            Op::DigitDirect { src, .. } | Op::DigitPred { src, .. } => slot(*src)?,
            Op::Dispatch => {}
            Op::QueueWrite { var, idx, val } => {
                if *var as usize >= prog.vars.len() {
                    return Err(bad(format!("base {bi}: write register {var} out of range")));
                }
                range(*idx)?;
                slot(*val)?;
            }
            Op::QueueReturn { src } => slot(*src)?,
            Op::QueueEmit { event, args } => {
                if *event as usize >= prog.events().len() {
                    return Err(bad(format!("base {bi}: event {event} out of range")));
                }
                range(*args)?;
            }
            Op::Commit { rule } => {
                if *rule as usize >= rb.rules.len() {
                    return Err(bad(format!("base {bi}: commit names rule {rule} out of range")));
                }
            }
            Op::CommitGap => {}
        }
    }
    Ok(())
}

/// Number of argument expressions each builtin consumes (argmin/argmax
/// keep only their set argument; the scanned input lives in the enum).
fn builtin_arity(b: Builtin) -> usize {
    match b {
        Builtin::Popcount | Builtin::Card | Builtin::ArgMin(_) | Builtin::ArgMax(_) => 1,
        Builtin::Min
        | Builtin::Max
        | Builtin::AbsDiff
        | Builtin::Xor
        | Builtin::Bit
        | Builtin::LatMax
        | Builtin::Union
        | Builtin::Isect
        | Builtin::Diff
        | Builtin::Include
        | Builtin::Exclude => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::env::{InputMap, RegFile};
    use crate::parser::parse;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    const SRC: &str = "
CONSTANT st = {safe, warn, faulty}
CONSTANT dirs = 0 TO 3
VARIABLE state IN st INIT safe
VARIABLE hits IN 0 TO 15 INIT 0
INPUT level[dirs] IN 0 TO 9
ON classify(d IN dirs) RETURNS 0 TO 2
  IF state = faulty THEN RETURN(2);
  IF level(d) > 6 AND state = safe THEN state <- warn, hits <- hits + 1, RETURN(1);
  IF level(d) > 8 THEN state <- faulty, RETURN(2);
  IF TRUE THEN RETURN(0);
END classify;
";

    /// The Figure-4 style program: quantified command, set membership,
    /// multiple bases, emissions — the loops/emit ops all get exercised.
    const FIG4: &str = "
CONSTANT fault_states = {safe, ounsafe, sunsafe, lfault, faulty}
CONSTANT dirs = 0 TO 5
VARIABLE number_unsafe IN 0 TO 7 INIT 0
VARIABLE number_faulty IN 0 TO 7 INIT 0
VARIABLE neighb_state[dirs] IN fault_states INIT safe
VARIABLE state IN fault_states INIT safe
INPUT new_state[dirs] IN fault_states

ON update_state(dir IN dirs)
  IF new_state(dir) IN {faulty, lfault} AND number_faulty = 0
  THEN neighb_state(dir) <- new_state(dir),
       number_faulty <- number_faulty + 1,
       number_unsafe <- number_unsafe + 1;
  IF new_state(dir) IN {sunsafe, ounsafe} AND state = safe AND number_unsafe = 2
  THEN state <- ounsafe,
       number_unsafe <- number_unsafe + 1,
       FORALL i IN dirs: !send_newmessage(i, ounsafe),
       neighb_state(dir) <- new_state(dir);
END update_state;
";

    #[test]
    fn bytecode_matches_table_exhaustively() {
        let p = parse(SRC).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let vm = VmProgram::lower(&c).unwrap();
        let mut sc = Scratch::new();
        for state_idx in 0..3u32 {
            for level in 0..10i64 {
                for d in 0..4i64 {
                    let mut regs_a = RegFile::new(&p);
                    regs_a.write(&p, 0, &[], Value::Sym { ty: 0, idx: state_idx }).unwrap();
                    let mut regs_b = regs_a.clone();
                    let mut inp = InputMap::new();
                    inp.set_default(&p, "level", int(0)).unwrap();
                    inp.set(&p, "level", &[int(d)], int(level)).unwrap();

                    let t = c.bases[0].fire(&p, &[int(d)], &mut regs_a, &inp).unwrap();
                    let b = vm.bases[0].fire(&p, &[int(d)], &mut regs_b, &inp, &mut sc).unwrap();
                    assert_eq!(t, b, "state={state_idx} level={level} d={d}");
                    assert_eq!(regs_a, regs_b, "post-state diverged");
                }
            }
        }
    }

    #[test]
    fn quantified_commands_and_emissions_match_table() {
        let p = parse(FIG4).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let vm = VmProgram::lower(&c).unwrap();
        let mut sc = Scratch::new();
        let sunsafe = p.symbol_value("sunsafe").unwrap();

        let mut regs_a = RegFile::new(&p);
        regs_a.write(&p, 0, &[], int(2)).unwrap(); // number_unsafe = 2
        let mut regs_b = regs_a.clone();
        let mut inp = InputMap::new();
        inp.set_default(&p, "new_state", p.symbol_value("safe").unwrap()).unwrap();
        inp.set(&p, "new_state", &[int(4)], sunsafe).unwrap();

        let t = c.bases[0].fire(&p, &[int(4)], &mut regs_a, &inp).unwrap();
        let b = vm.bases[0].fire(&p, &[int(4)], &mut regs_b, &inp, &mut sc).unwrap();
        assert_eq!(t, b, "FORALL emissions must match in content and order");
        assert_eq!(t.emitted.len(), 6);
        assert_eq!(regs_a, regs_b);
    }

    #[test]
    fn gap_entries_are_noops_on_both_backends() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 5\n\
             ON f() RETURNS 0 TO 1\n\
               IF n = 0 THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let vm = VmProgram::lower(&c).unwrap();
        let mut sc = Scratch::new();
        let mut regs = RegFile::new(&p);
        let out = vm.bases[0].fire(&p, &[], &mut regs, &InputMap::new(), &mut sc).unwrap();
        assert_eq!(out, crate::eval::FireOutcome::default());
    }

    #[test]
    fn error_parity_on_conflicting_writes() {
        let p =
            parse("VARIABLE a IN 0 TO 9\nON f()\n IF TRUE THEN a <- 1, a <- 2;\nEND f;").unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let vm = VmProgram::lower(&c).unwrap();
        let mut sc = Scratch::new();
        let mut regs_a = RegFile::new(&p);
        let mut regs_b = regs_a.clone();
        let t = c.bases[0].fire(&p, &[], &mut regs_a, &InputMap::new());
        let b = vm.bases[0].fire(&p, &[], &mut regs_b, &InputMap::new(), &mut sc);
        assert!(t.is_err() && b.is_err());
        assert_eq!(t.unwrap_err().to_string(), b.unwrap_err().to_string());
    }

    #[test]
    fn corrupt_table_rejected_at_lowering() {
        let p = parse(SRC).unwrap();
        let mut c = compile(&p, &CompileOptions::default()).unwrap();
        for e in c.bases[0].table.iter_mut() {
            *e = std::num::NonZeroU16::new(200);
        }
        let err = VmProgram::lower(&c).unwrap_err();
        assert!(err.to_string().contains("corrupt rule table"), "{err}");
    }

    #[test]
    fn malformed_bytecode_rejected_at_load() {
        let p = parse(SRC).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let good = VmProgram::lower(&c).unwrap();

        // jump target past the end of the op stream
        let mut bad = good.clone();
        bad.bases[0].ops.push(Op::Jump { target: 10_000 });
        assert!(bad.validate(&c).is_err());

        // slot index outside the declared frame
        let mut bad = good.clone();
        let n = bad.bases[0].slot_count;
        bad.bases[0].ops[0] = Op::Const { dst: n, v: Value::Bool(true) };
        assert!(bad.validate(&c).is_err());

        // jump table entry pointing outside the code
        let mut bad = good.clone();
        bad.bases[0].jump_table[0] = u32::MAX;
        assert!(bad.validate(&c).is_err());

        // jump table geometry no longer matching the ARON table
        let mut bad = good.clone();
        bad.bases[0].jump_table.pop();
        assert!(bad.validate(&c).is_err());

        // register reference outside the program
        let mut bad = good.clone();
        bad.bases[0].ops[0] = Op::ReadVar { var: 99, idx: SlotRange::EMPTY, dst: 0 };
        assert!(bad.validate(&c).is_err());

        // AND must never appear as a strict binary op
        let mut bad = good.clone();
        bad.bases[0].ops[0] = Op::Bin { op: BinOp::And, lhs: 0, rhs: 0, dst: 0 };
        assert!(bad.validate(&c).is_err());

        // builtin arity mismatch
        let mut bad = good.clone();
        bad.bases[0].ops[0] =
            Op::CallB { builtin: Builtin::Min, args: SlotRange { start: 0, count: 1 }, dst: 0 };
        assert!(bad.validate(&c).is_err());

        // wrong number of bases
        let mut bad = good.clone();
        bad.bases.clear();
        assert!(bad.validate(&c).is_err());

        // the untouched program still validates
        assert!(good.validate(&c).is_ok());
    }
}
