//! The compiled bases under the names of the retired bytecode lowering.
//!
//! The table executor runs slot code ([`crate::interp`]), so a second flat
//! lowering of the same bases is gone. The cost ledger (`benchmark/`)
//! still calls these names: `toolchain` "lowers" every shipped program
//! and `rules.fire_ns_bytecode` times one XY fire into a reused frame.
//! Kept only for it; ROADMAP item 2(b) drops those calls and 2(c) deletes
//! this module.

use crate::ast::Program;
use crate::env::{InputMap, RegFile};
use crate::error::Result;
use crate::eval::FireOutcome;
use crate::interp::{CompiledProgram, CompiledRuleBase};
use crate::value::Value;

pub use crate::frame::Frame as Scratch;

/// One compiled base, fired into a caller-owned frame.
#[derive(Clone, Debug)]
pub struct BaseCode(CompiledRuleBase);

impl BaseCode {
    /// [`CompiledRuleBase::fire`], but into `scratch` instead of a fresh
    /// frame.
    pub fn fire(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        scratch: &mut Scratch,
    ) -> Result<FireOutcome> {
        let rule = self.0.fire_in(prog, params, regs, inputs, scratch, None)?;
        Ok(scratch.outcome(prog, rule))
    }
}

/// A compiled program's bases, one [`BaseCode`] per [`CompiledProgram::bases`].
#[derive(Clone, Debug)]
pub struct VmProgram {
    /// Indexed like [`CompiledProgram::bases`].
    pub bases: Vec<BaseCode>,
}

impl VmProgram {
    /// Copies the compiled bases; it never fails.
    #[deprecated(note = "the table executor runs slot code: fire `CompiledRuleBase`s")]
    pub fn lower(compiled: &CompiledProgram) -> Result<Self> {
        Ok(VmProgram { bases: compiled.bases.iter().cloned().map(BaseCode).collect() })
    }
}
