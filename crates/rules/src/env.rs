//! Execution environment: register file and input providers.

use crate::ast::{InputDecl, Program};
use crate::error::{Result, RuleError};
use crate::value::Value;
use std::collections::HashMap;

/// The register file holding all declared `VARIABLE`s of a program
/// (the paper's "registers ... updated by using arithmetic or logical
/// units"). Arrays are stored flattened in row-major order of their index
/// domains.
#[derive(Clone, Debug, PartialEq)]
pub struct RegFile {
    slots: Vec<Vec<Value>>,
}

impl RegFile {
    /// Creates the register file with every cell at its declared INIT value.
    pub fn new(prog: &Program) -> Self {
        let ss = prog.sym_sizes();
        let slots = prog
            .vars
            .iter()
            .map(|v| {
                let cells: u64 = v.index_domains.iter().map(|d| d.size(&ss)).product();
                vec![v.init; cells.max(1) as usize]
            })
            .collect();
        RegFile { slots }
    }

    /// Flattened cell index from per-dimension ordinals.
    fn flat(prog: &Program, var: usize, ordinals: &[u64]) -> usize {
        let ss = prog.sym_sizes();
        let mut idx = 0u64;
        for (ord, dom) in ordinals.iter().zip(&prog.vars[var].index_domains) {
            idx = idx * dom.size(&ss) + ord;
        }
        idx as usize
    }

    /// Converts index values to ordinals, checking domains.
    pub fn ordinals(prog: &Program, var: usize, indices: &[Value]) -> Result<Vec<u64>> {
        let decl = &prog.vars[var];
        if indices.len() != decl.index_domains.len() {
            return Err(RuleError::eval(format!(
                "`{}` expects {} indices, got {}",
                decl.name,
                decl.index_domains.len(),
                indices.len()
            )));
        }
        let ss = prog.sym_sizes();
        indices
            .iter()
            .zip(&decl.index_domains)
            .map(|(v, d)| {
                d.ordinal(v, &ss).ok_or_else(|| {
                    RuleError::eval(format!("index {v} out of domain {d:?} for `{}`", decl.name))
                })
            })
            .collect()
    }

    /// Reads a register cell.
    pub fn read(&self, prog: &Program, var: usize, indices: &[Value]) -> Result<Value> {
        let ords = Self::ordinals(prog, var, indices)?;
        Ok(self.slots[var][Self::flat(prog, var, &ords)])
    }

    /// Writes a register cell, checking the value against the declared
    /// element type.
    pub fn write(&mut self, prog: &Program, var: usize, indices: &[Value], v: Value) -> Result<()> {
        let decl = &prog.vars[var];
        let ss = prog.sym_sizes();
        let ok = match (decl.elem, &v) {
            (crate::value::Type::Scalar(d), val) => d.contains(val, &ss),
            (crate::value::Type::Set(d), Value::Set { dom, .. }) => {
                // same domain kind; mask interpreted over the declared domain
                matches!(
                    (d, dom),
                    (crate::value::Domain::Int { .. }, crate::value::Domain::Int { .. })
                        | (crate::value::Domain::Bool, crate::value::Domain::Bool)
                ) || matches!((d, dom), (crate::value::Domain::Sym(x), crate::value::Domain::Sym(y)) if x == *y)
            }
            _ => false,
        };
        if !ok {
            return Err(RuleError::eval(format!(
                "value {v} outside domain of `{}` ({:?})",
                decl.name, decl.elem
            )));
        }
        let ords = Self::ordinals(prog, var, indices)?;
        let flat = Self::flat(prog, var, &ords);
        self.slots[var][flat] = v;
        Ok(())
    }

    /// Direct read by flat cell (used by the cost/debug reports).
    pub fn raw(&self, var: usize) -> &[Value] {
        &self.slots[var]
    }
}

/// Source of external input values (header fields, link states, buffer
/// occupancies) for one rule-base invocation.
pub trait InputProvider {
    /// Reads input `input` (index into [`Program::inputs`]) at `indices`.
    fn read_input(&self, prog: &Program, input: usize, indices: &[Value]) -> Result<Value>;
}

/// Simple map-backed input provider with optional per-input defaults.
///
/// Index tuples are packed into a single `u64` (16 bits per dimension, up
/// to four dimensions) so reads stay allocation-free on the hot path.
#[derive(Clone, Debug, Default)]
pub struct InputMap {
    values: HashMap<(usize, u64), Value>,
    defaults: HashMap<usize, Value>,
}

/// Packs up to four per-dimension ordinals into one key.
fn pack_ordinals(ords: &[u64]) -> Result<u64> {
    if ords.len() > 4 {
        return Err(RuleError::eval("inputs support at most 4 index dimensions".to_string()));
    }
    let mut key = 0u64;
    for (i, &o) in ords.iter().enumerate() {
        if o >= 1 << 16 {
            return Err(RuleError::eval("input index ordinal exceeds 16 bits".to_string()));
        }
        key |= o << (16 * i);
    }
    Ok(key)
}

impl InputMap {
    /// Creates an empty provider (reads fail unless set or defaulted).
    pub fn new() -> Self {
        Self::default()
    }

    fn key(
        prog: &Program,
        decl: &InputDecl,
        input: usize,
        indices: &[Value],
    ) -> Result<(usize, u64)> {
        if indices.len() != decl.index_domains.len() {
            return Err(RuleError::eval(format!(
                "input `{}` expects {} indices, got {}",
                decl.name,
                decl.index_domains.len(),
                indices.len()
            )));
        }
        let ss = prog.sym_sizes();
        let mut ords = [0u64; 4];
        for (i, (v, d)) in indices.iter().zip(&decl.index_domains).enumerate() {
            if i >= 4 {
                return Err(RuleError::eval(
                    "inputs support at most 4 index dimensions".to_string(),
                ));
            }
            ords[i] = d
                .ordinal(v, &ss)
                .ok_or_else(|| RuleError::eval(format!("input index {v} out of domain {d:?}")))?;
        }
        Ok((input, pack_ordinals(&ords[..indices.len()])?))
    }

    fn named(prog: &Program, name: &str) -> Result<usize> {
        prog.inputs
            .iter()
            .position(|d| d.name == name)
            .ok_or_else(|| RuleError::eval(format!("unknown input `{name}`")))
    }

    /// Sets a scalar or indexed input value by name.
    pub fn set(&mut self, prog: &Program, name: &str, indices: &[Value], v: Value) -> Result<()> {
        self.set_at(prog, Self::named(prog, name)?, indices, v)
    }

    /// [`InputMap::set`] for a host that resolved the name once: `input`
    /// is the index into [`Program::inputs`].
    pub fn set_at(&mut self, prog: &Program, input: usize, idx: &[Value], v: Value) -> Result<()> {
        let key = Self::key(prog, &prog.inputs[input], input, idx)?;
        self.values.insert(key, v);
        Ok(())
    }

    /// Sets a default returned for any unset cell of input `name`.
    pub fn set_default(&mut self, prog: &Program, name: &str, v: Value) -> Result<()> {
        self.defaults.insert(Self::named(prog, name)?, v);
        Ok(())
    }

    /// Forgets every value and every default; the allocations stay, so a
    /// host can reuse one map for all its decisions.
    pub fn clear(&mut self) {
        self.values.clear();
        self.defaults.clear();
    }
}

impl InputProvider for InputMap {
    fn read_input(&self, prog: &Program, input: usize, indices: &[Value]) -> Result<Value> {
        let decl = &prog.inputs[input];
        let key = Self::key(prog, decl, input, indices)?;
        if let Some(v) = self.values.get(&key) {
            return Ok(*v);
        }
        if let Some(v) = self.defaults.get(&input) {
            return Ok(*v);
        }
        Err(RuleError::eval(format!("input `{}` (packed index {}) has no value", decl.name, key.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog() -> Program {
        parse(
            "CONSTANT dirs = 0 TO 3\n\
             VARIABLE a IN 0 TO 7 INIT 2\n\
             VARIABLE arr[dirs] IN 0 TO 3 INIT 1\n\
             VARIABLE grid[dirs, dirs] IN bool\n\
             INPUT load[dirs] IN 0 TO 15\n\
             INPUT flag IN bool\n",
        )
        .unwrap()
    }

    #[test]
    fn regfile_initialization() {
        let p = prog();
        let r = RegFile::new(&p);
        assert_eq!(r.read(&p, 0, &[]).unwrap(), Value::Int(2));
        for i in 0..4 {
            assert_eq!(r.read(&p, 1, &[Value::Int(i)]).unwrap(), Value::Int(1));
        }
        assert_eq!(r.raw(2).len(), 16);
    }

    #[test]
    fn regfile_write_read_roundtrip() {
        let p = prog();
        let mut r = RegFile::new(&p);
        r.write(&p, 1, &[Value::Int(2)], Value::Int(3)).unwrap();
        assert_eq!(r.read(&p, 1, &[Value::Int(2)]).unwrap(), Value::Int(3));
        assert_eq!(r.read(&p, 1, &[Value::Int(1)]).unwrap(), Value::Int(1));
        r.write(&p, 2, &[Value::Int(1), Value::Int(3)], Value::Bool(true)).unwrap();
        assert_eq!(r.read(&p, 2, &[Value::Int(1), Value::Int(3)]).unwrap(), Value::Bool(true));
        assert_eq!(r.read(&p, 2, &[Value::Int(3), Value::Int(1)]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn regfile_rejects_out_of_domain() {
        let p = prog();
        let mut r = RegFile::new(&p);
        assert!(r.write(&p, 0, &[], Value::Int(8)).is_err());
        assert!(r.write(&p, 0, &[], Value::Bool(true)).is_err());
        assert!(r.read(&p, 1, &[Value::Int(4)]).is_err());
        assert!(r.read(&p, 1, &[]).is_err());
    }

    #[test]
    fn input_map_reads() {
        let p = prog();
        let mut m = InputMap::new();
        m.set(&p, "load", &[Value::Int(1)], Value::Int(9)).unwrap();
        m.set(&p, "flag", &[], Value::Bool(true)).unwrap();
        assert_eq!(m.read_input(&p, 0, &[Value::Int(1)]).unwrap(), Value::Int(9));
        assert_eq!(m.read_input(&p, 1, &[]).unwrap(), Value::Bool(true));
        assert!(m.read_input(&p, 0, &[Value::Int(0)]).is_err());
        m.set_default(&p, "load", Value::Int(0)).unwrap();
        assert_eq!(m.read_input(&p, 0, &[Value::Int(0)]).unwrap(), Value::Int(0));
    }

    #[test]
    fn input_map_set_at_and_clear() {
        let p = prog();
        let mut m = InputMap::new();
        m.set_at(&p, 0, &[Value::Int(1)], Value::Int(9)).unwrap();
        m.set_default(&p, "flag", Value::Bool(true)).unwrap();
        assert_eq!(m.read_input(&p, 0, &[Value::Int(1)]).unwrap(), Value::Int(9));
        assert!(m.set_at(&p, 0, &[Value::Int(4)], Value::Int(0)).is_err(), "index out of domain");
        assert!(m.set_at(&p, 0, &[], Value::Int(0)).is_err(), "wrong arity");
        m.clear();
        assert!(m.read_input(&p, 0, &[Value::Int(1)]).is_err(), "values gone");
        assert!(m.read_input(&p, 1, &[]).is_err(), "defaults gone");
    }

    #[test]
    fn input_map_unknown_name() {
        let p = prog();
        let mut m = InputMap::new();
        assert!(m.set(&p, "nope", &[], Value::Int(0)).is_err());
    }
}
