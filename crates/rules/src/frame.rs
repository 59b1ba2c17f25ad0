//! The effects frame of one rule-base interpretation.
//!
//! A conclusion's commands execute in parallel (§4.2): every right-hand
//! side is evaluated against the pre-state, then the writes are applied.
//! The frame is where they wait in between — register writes as
//! `(register, flat cell, value)`, the `RETURN` value, generated events as
//! `(event id, arguments)` — together with the working storage an executor
//! needs while it evaluates (binder stack, slot words). The AST walk and
//! the table's slot code both queue into it and commit through it, so the
//! parallel-write rules exist once; a [`crate::event::Machine`] owns one
//! and reuses it, so a steady-state interpretation allocates nothing.

use crate::ast::Program;
use crate::env::RegFile;
use crate::error::{Result, RuleError};
use crate::eval::{values_equal, EventInstance, FireOutcome};
use crate::value::Value;

#[cold]
fn conflicting_returns(prev: &Value, v: &Value) -> RuleError {
    RuleError::eval(format!("conflicting RETURN values {prev} vs {v}"))
}

/// See the module documentation. `vm::Scratch` is this type.
#[derive(Debug, Default)]
pub struct Frame {
    /// The slot array of the base in flight's slot code, grown to fit it.
    pub(crate) words: Vec<u64>,
    /// Quantifier binder stack of the AST walk, innermost last.
    pub(crate) bounds: Vec<Value>,
    /// Queued writes: register, flat cell, value.
    writes: Vec<(usize, usize, Value)>,
    /// The first queued write whose indices address no cell: how many
    /// writes precede it, and why. Commit applies those, then reports it.
    bad_write: Option<(usize, RuleError)>,
    /// Generated events: id in [`Program::events`], then where its
    /// arguments lie in `args`.
    emits: Vec<(usize, std::ops::Range<usize>)>,
    args: Vec<Value>,
    returned: Option<Value>,
}

impl Frame {
    /// Creates an empty frame; it grows to fit whichever base fires.
    pub fn new() -> Self {
        Frame::default()
    }

    /// Forgets the effects of the previous interpretation.
    #[inline]
    pub(crate) fn begin(&mut self) {
        self.writes.clear();
        self.bad_write = None;
        self.emits.clear();
        self.args.clear();
        self.returned = None;
    }

    /// Queues `register(cell) <- value`; `cell` as the indices resolved.
    #[inline]
    pub(crate) fn queue_write(&mut self, var: usize, cell: Result<usize>, value: Value) {
        match cell {
            Ok(cell) => self.writes.push((var, cell, value)),
            Err(e) => {
                self.bad_write.get_or_insert((self.writes.len(), e));
            }
        }
    }

    /// Queues `RETURN(v)`; two different values in one conclusion conflict.
    #[inline]
    pub(crate) fn queue_return(&mut self, prog: &Program, v: Value) -> Result<()> {
        match &self.returned {
            Some(prev) if !values_equal(prog, prev, &v) => Err(conflicting_returns(prev, &v)),
            _ => {
                self.returned = Some(v);
                Ok(())
            }
        }
    }

    /// One argument of the event about to be queued.
    #[inline]
    pub(crate) fn push_arg(&mut self, v: Value) {
        self.args.push(v);
    }

    /// Queues `!event(args)`, `args` being the last `argc` pushed.
    #[inline]
    pub(crate) fn queue_emit(&mut self, event: usize, argc: usize) {
        let end = self.args.len();
        self.emits.push((event, end - argc..end));
    }

    /// Applies the queued writes in order. A second write to a cell is
    /// dropped when it carries the value of the first and is a conflict
    /// when it does not; a failing write leaves the earlier ones applied.
    pub(crate) fn commit(&mut self, prog: &Program, regs: &mut RegFile) -> Result<()> {
        let good = self.bad_write.as_ref().map_or(self.writes.len(), |bad| bad.0);
        for (i, &(var, cell, value)) in self.writes[..good].iter().enumerate() {
            match self.writes[..i].iter().find(|w| (w.0, w.1) == (var, cell)) {
                Some(first) if values_equal(prog, &first.2, &value) => {}
                Some(_) => {
                    return Err(RuleError::eval(format!(
                        "conflicting parallel writes to `{}`",
                        prog.vars[var].name
                    )))
                }
                None => regs.write_cell(prog, var, cell, value)?,
            }
        }
        self.bad_write.take().map_or(Ok(()), |bad| Err(bad.1))
    }

    /// The slot code's commit: its ops checked every value against its
    /// register, so only two writes of different values to one cell can
    /// fail — and then nothing is applied and the answer is false.
    #[inline]
    pub(crate) fn commit_checked(&mut self, prog: &Program, regs: &mut RegFile) -> bool {
        let writes = &self.writes;
        let first =
            |i: usize| writes[..i].iter().find(|w| (w.0, w.1) == (writes[i].0, writes[i].1));
        if (0..writes.len())
            .any(|i| first(i).is_some_and(|w| !values_equal(prog, &w.2, &writes[i].2)))
        {
            return false;
        }
        for (i, &(var, cell, value)) in writes.iter().enumerate() {
            if first(i).is_none() {
                regs.set_cell(var, cell, value);
            }
        }
        true
    }

    /// The `RETURN` value of the interpretation in the frame.
    #[inline]
    pub fn returned(&self) -> Option<Value> {
        self.returned
    }

    /// The events it generated, in order: id in [`Program::events`] and
    /// arguments.
    #[inline]
    pub fn emitted(&self) -> impl Iterator<Item = (usize, &[Value])> {
        self.emits.iter().map(|(event, args)| (*event, &self.args[args.clone()]))
    }

    /// The interpretation in the frame as the owned outcome the name-keyed
    /// entry points return.
    pub(crate) fn outcome(&self, prog: &Program, rule: Option<usize>) -> FireOutcome {
        let emitted = self
            .emitted()
            .map(|(event, args)| EventInstance {
                event: prog.events()[event].name.clone(),
                args: args.to_vec(),
            })
            .collect();
        FireOutcome { rule, returned: self.returned, emitted }
    }
}
