//! Execution environment: the register file and the inputs of one
//! rule-base invocation.

use crate::ast::{CellLayout, Program};
use crate::error::{Result, RuleError};
use crate::value::{Domain, Type, Value};

#[cold]
pub(crate) fn wrong_count(name: &str, layout: &CellLayout, got: usize) -> RuleError {
    RuleError::eval(format!("`{name}` expects {} indices, got {got}", layout.dims.len()))
}

#[cold]
pub(crate) fn outside(name: &str, dom: Domain, v: &Value) -> RuleError {
    RuleError::eval(format!("index {v} out of domain {dom:?} for `{name}`"))
}

/// Why `indices` address no cell of `layout` (wrong number, or which one is
/// outside its domain). Off the hot path: [`CellLayout::cell`] said `None`.
#[cold]
fn index_error(name: &str, layout: &CellLayout, indices: &[Value], prog: &Program) -> RuleError {
    let bad = indices.iter().zip(&layout.dims).find(|(v, d)| !d.dom.contains(v, prog.sym_sizes()));
    match bad {
        Some((v, d)) if indices.len() == layout.dims.len() => outside(name, d.dom, v),
        _ => wrong_count(name, layout, indices.len()),
    }
}

/// The register file holding all declared `VARIABLE`s of a program
/// (the paper's "registers ... updated by using arithmetic or logical
/// units"). Arrays are stored flattened in row-major order of their index
/// domains ([`Program::var_layout`]).
#[derive(Debug, PartialEq)]
pub struct RegFile {
    slots: Vec<Vec<Value>>,
}

/// `clone_from` reuses the cells: resetting a machine's registers to a
/// template allocates nothing once the shapes match.
impl Clone for RegFile {
    fn clone(&self) -> Self {
        RegFile { slots: self.slots.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
    }
}

impl RegFile {
    /// Creates the register file with every cell at its declared INIT value.
    pub fn new(prog: &Program) -> Self {
        let slots = prog
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| vec![v.init; prog.var_layout(i).cells.max(1)])
            .collect();
        RegFile { slots }
    }

    /// Converts index values to per-dimension ordinals, checking domains
    /// (reports and tests; reads and writes go through
    /// [`RegFile::cell`]).
    pub fn ordinals(prog: &Program, var: usize, indices: &[Value]) -> Result<Vec<u64>> {
        let layout = prog.var_layout(var);
        let ords: Option<Vec<u64>> = indices
            .iter()
            .zip(&layout.dims)
            .map(|(v, d)| d.dom.ordinal(v, prog.sym_sizes()))
            .collect();
        ords.filter(|_| indices.len() == layout.dims.len())
            .ok_or_else(|| index_error(&prog.vars[var].name, layout, indices, prog))
    }

    /// The flat cell of register `var` that `indices` address.
    #[inline]
    pub fn cell(prog: &Program, var: usize, indices: &[Value]) -> Result<usize> {
        let layout = prog.var_layout(var);
        layout
            .cell(indices, prog.sym_sizes())
            .ok_or_else(|| index_error(&prog.vars[var].name, layout, indices, prog))
    }

    /// Reads a register cell.
    #[inline]
    pub fn read(&self, prog: &Program, var: usize, indices: &[Value]) -> Result<Value> {
        Ok(self.slots[var][Self::cell(prog, var, indices)?])
    }

    /// Writes a register cell, checking the value against the declared
    /// element type.
    pub fn write(&mut self, prog: &Program, var: usize, indices: &[Value], v: Value) -> Result<()> {
        Self::check_value(prog, var, &v)?;
        let cell = Self::cell(prog, var, indices)?;
        self.slots[var][cell] = v;
        Ok(())
    }

    /// [`RegFile::write`] to a cell [`RegFile::cell`] already resolved.
    pub(crate) fn write_cell(
        &mut self,
        prog: &Program,
        var: usize,
        cell: usize,
        v: Value,
    ) -> Result<()> {
        Self::check_value(prog, var, &v)?;
        self.slots[var][cell] = v;
        Ok(())
    }

    /// [`RegFile::write_cell`] of a value already checked against `var`.
    pub(crate) fn set_cell(&mut self, var: usize, cell: usize, v: Value) {
        self.slots[var][cell] = v;
    }

    fn check_value(prog: &Program, var: usize, v: &Value) -> Result<()> {
        let decl = &prog.vars[var];
        let ok = match (decl.elem, v) {
            (Type::Scalar(d), val) => d.contains(val, prog.sym_sizes()),
            // same domain kind; the mask is interpreted over the declared domain
            (Type::Set(d), Value::Set { dom, .. }) => match (d, dom) {
                (Domain::Int { .. }, Domain::Int { .. }) | (Domain::Bool, Domain::Bool) => true,
                (Domain::Sym(x), Domain::Sym(y)) => x == *y,
                _ => false,
            },
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(RuleError::eval(format!(
                "value {v} outside domain of `{}` ({:?})",
                decl.name, decl.elem
            )))
        }
    }

    /// Direct read by flat cell (used by the cost/debug reports).
    #[inline]
    pub fn raw(&self, var: usize) -> &[Value] {
        &self.slots[var]
    }
}

/// Most cells one input may have: its storage is dense, and a rule
/// program's declarations come from outside.
const MAX_INPUT_CELLS: usize = 1 << 20;

/// External input values (header fields, link states, buffer occupancies)
/// for one rule-base invocation, with optional per-input defaults.
///
/// One row of cells per input, row-major like [`RegFile`] and sized on the
/// first write, so a map is built without a program and a host reuses one
/// for all its decisions: neither reads nor writes hash or, once every row
/// has been written, allocate or resize.
#[derive(Clone, Debug, Default)]
pub struct InputMap {
    rows: Vec<Vec<Option<Value>>>,
    defaults: Vec<Option<Value>>,
}

impl InputMap {
    /// Creates an empty map (reads fail unless set or defaulted).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn cell(prog: &Program, input: usize, indices: &[Value]) -> Result<usize> {
        let layout = prog.input_layout(input);
        layout
            .cell(indices, prog.sym_sizes())
            .ok_or_else(|| index_error(&prog.inputs[input].name, layout, indices, prog))
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
    #[inline]
    pub fn set_at(&mut self, prog: &Program, input: usize, idx: &[Value], v: Value) -> Result<()> {
        let layout = prog.input_layout(input);
        match self.rows.get_mut(input) {
            Some(row) if row.len() == layout.cells => match layout.cell(idx, prog.sym_sizes()) {
                Some(cell) => {
                    row[cell] = Some(v);
                    Ok(())
                }
                None => Err(index_error(&prog.inputs[input].name, layout, idx, prog)),
            },
            _ => self.set_in_new_row(prog, input, idx, v),
        }
    }

    /// [`InputMap::set_at`] into a row not sized yet (or sized for another
    /// program): sizes it first.
    #[inline(never)]
    fn set_in_new_row(
        &mut self,
        prog: &Program,
        input: usize,
        idx: &[Value],
        v: Value,
    ) -> Result<()> {
        let cells = prog.input_layout(input).cells;
        if self.rows.len() <= input {
            self.rows.resize_with(input + 1, Vec::new);
        }
        if cells > MAX_INPUT_CELLS {
            return Err(RuleError::eval(format!(
                "input `{}` has more than {MAX_INPUT_CELLS} cells",
                prog.inputs[input].name
            )));
        }
        let cell = Self::cell(prog, input, idx)?;
        let row = &mut self.rows[input];
        row.clear();
        row.resize(cells, None);
        row[cell] = Some(v);
        Ok(())
    }

    /// Sets a default returned for any unset cell of input `name`.
    pub fn set_default(&mut self, prog: &Program, name: &str, v: Value) -> Result<()> {
        let input = Self::named(prog, name)?;
        if self.defaults.len() <= input {
            self.defaults.resize(input + 1, None);
        }
        self.defaults[input] = Some(v);
        Ok(())
    }

    /// Forgets every value and every default; the rows keep their size
    /// and allocation, so a host can reuse one map for all its decisions.
    pub fn clear(&mut self) {
        self.rows.iter_mut().for_each(|row| row.fill(None));
        self.defaults.clear();
    }

    /// Reads input `input` (index into [`Program::inputs`]) at `indices`.
    #[inline]
    pub fn read_input(&self, prog: &Program, input: usize, indices: &[Value]) -> Result<Value> {
        self.read_cell(prog, input, Self::cell(prog, input, indices)?)
    }

    /// [`InputMap::read_input`] at a flat cell of the input's layout.
    #[inline]
    pub(crate) fn read_cell(&self, prog: &Program, input: usize, cell: usize) -> Result<Value> {
        self.value(input, cell).ok_or_else(|| unset(prog, input, cell))
    }

    /// The value at a flat cell of input `input`, or its default; `None`
    /// if it has neither.
    #[inline]
    pub(crate) fn value(&self, input: usize, cell: usize) -> Option<Value> {
        let set = self.rows.get(input).and_then(|row| *row.get(cell)?);
        set.or_else(|| *self.defaults.get(input)?)
    }
}

#[cold]
fn unset(prog: &Program, input: usize, cell: usize) -> RuleError {
    RuleError::eval(format!("input `{}` (cell {cell}) has no value", prog.inputs[input].name))
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
    fn cells_are_the_row_major_fold_of_the_ordinals() {
        let p = prog();
        for i in 0..4 {
            for j in 0..4 {
                let idx = [Value::Int(i), Value::Int(j)];
                let ords = RegFile::ordinals(&p, 2, &idx).unwrap();
                assert_eq!(RegFile::cell(&p, 2, &idx).unwrap() as u64, ords[0] * 4 + ords[1]);
            }
        }
        assert!(RegFile::ordinals(&p, 2, &[Value::Int(1)]).is_err());
        assert!(RegFile::ordinals(&p, 2, &[Value::Int(1), Value::Int(4)]).is_err());
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
