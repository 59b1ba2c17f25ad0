//! Execution environment: the register file and the inputs of one
//! rule-base invocation.

use crate::ast::{CellLayout, Dim, Program, MAX_INPUT_CELLS};
use crate::error::{Result, RuleError};
use crate::value::{low_mask, Domain, Type, Value};
use std::marker::PhantomData;

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

/// The state of one word of an [`InputMap`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum State {
    /// No value: a read falls back to the input's default.
    #[default]
    Unset,
    /// The word of a value of the input's declared type.
    Word,
    /// A value of another kind or domain, kept in [`InputMap::spills`].
    Spilled,
}

/// External input values (header fields, link states, buffer occupancies)
/// for one rule-base invocation, with optional per-input defaults.
///
/// One word store: a `u64` per cell, each input's cells at the fixed
/// offset [`Program::input_first`], then one word per input for its
/// default. A value of the declared type is its word, as slot code reads
/// it (an integer, a symbol index, 0 or 1, a set mask); a value of another
/// kind or domain is spilled and read back as it was written. A host writes
/// words through typed [`Port`]s, resolved once; the `Value` methods
/// convert. A map serves the program it was laid out for (its first write)
/// and any program declaring the same inputs; to another it reads as empty,
/// and a `Value` write lays it out anew. Once laid out it neither hashes nor
/// allocates, so a host reuses one for all its decisions.
#[derive(Clone, Debug, Default)]
pub struct InputMap {
    /// The [`Program::input_key`] it is laid out for; 0 before any write.
    key: u64,
    words: Vec<u64>,
    state: Vec<State>,
    /// The values of spilled words, by word index.
    spills: Vec<(u32, Value)>,
}

/// What a map laid out for another program reads as.
static EMPTY: InputMap =
    InputMap { key: 0, words: Vec::new(), state: Vec::new(), spills: Vec::new() };

impl InputMap {
    /// Creates an empty map (reads fail unless set or defaulted).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map laid out for `prog`, as its [`Port`]s write it.
    pub fn for_program(prog: &Program) -> Self {
        let mut im = Self::new();
        im.lay_out(prog);
        im
    }

    /// Lays the map out for `prog` unless it is already: every value and
    /// default of another layout is gone.
    fn lay_out(&mut self, prog: &Program) {
        if self.key != prog.input_key() {
            let n = prog.input_cells() + prog.inputs.len();
            self.key = prog.input_key();
            self.words = vec![0; n];
            self.state = vec![State::Unset; n];
            self.spills.clear();
        }
    }

    /// This map, or an empty one if it is laid out for other declarations.
    #[inline]
    pub(crate) fn serving(&self, prog: &Program) -> &Self {
        if self.key == prog.input_key() {
            self
        } else {
            &EMPTY
        }
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
    pub fn set_at(&mut self, prog: &Program, input: usize, idx: &[Value], v: Value) -> Result<()> {
        let cell = Self::cell(prog, input, idx)?;
        let first = prog.input_first(input).ok_or_else(|| {
            RuleError::eval(format!(
                "input `{}` would take the cells past the {MAX_INPUT_CELLS} an input map holds",
                prog.inputs[input].name
            ))
        })?;
        self.lay_out(prog);
        self.put(prog, input, first + cell, v);
        Ok(())
    }

    /// Stores `v` at word `at` of input `input`: its word if it is of the
    /// declared type, else spilled.
    fn put(&mut self, prog: &Program, input: usize, at: usize, v: Value) {
        match word_of(prog, prog.inputs[input].elem, &v) {
            Some(w) => {
                self.words[at] = w;
                self.state[at] = State::Word;
            }
            None => self.spill(at, v),
        }
    }

    #[cold]
    fn spill(&mut self, at: usize, v: Value) {
        self.state[at] = State::Spilled;
        match self.spills.iter_mut().find(|s| s.0 as usize == at) {
            Some(s) => s.1 = v,
            None => self.spills.push((at as u32, v)),
        }
    }

    /// Sets a default returned for any unset cell of input `name`.
    pub fn set_default(&mut self, prog: &Program, name: &str, v: Value) -> Result<()> {
        let input = Self::named(prog, name)?;
        self.lay_out(prog);
        self.put(prog, input, prog.input_cells() + input, v);
        Ok(())
    }

    /// Forgets every value and every default; the layout stays, so a host
    /// can reuse one map for all its decisions.
    pub fn clear(&mut self) {
        self.state.fill(State::Unset);
        self.spills.clear();
    }

    /// Reads input `input` (index into [`Program::inputs`]) at `indices`.
    #[inline]
    pub fn read_input(&self, prog: &Program, input: usize, indices: &[Value]) -> Result<Value> {
        self.read_cell(prog, input, Self::cell(prog, input, indices)?)
    }

    /// [`InputMap::read_input`] at a flat cell of the input's layout.
    #[inline]
    pub(crate) fn read_cell(&self, prog: &Program, input: usize, cell: usize) -> Result<Value> {
        let (im, elem) = (self.serving(prog), prog.inputs[input].elem);
        let set = prog.input_first(input).and_then(|first| im.value(elem, first + cell));
        set.or_else(|| im.value(elem, prog.input_cells() + input))
            .ok_or_else(|| unset(prog, input, cell))
    }

    /// The value word `at` holds, read as `elem`; `None` if unset.
    fn value(&self, elem: Type, at: usize) -> Option<Value> {
        match self.state.get(at)? {
            State::Unset => None,
            State::Word => Some(value_of(elem, self.words[at])),
            State::Spilled => self.spills.iter().find(|s| s.0 as usize == at).map(|s| s.1),
        }
    }

    /// Word `at`, or the word `default` when `at` is unset: what slot code
    /// reads, from a map [`InputMap::serving`] the program. `None` for a
    /// spilled value or no value, which only the AST walk reads.
    #[inline]
    pub(crate) fn word(&self, at: usize, default: usize) -> Option<u64> {
        let at = match self.state.get(at) {
            Some(State::Word) => at,
            Some(State::Spilled) => return None,
            _ => default,
        };
        (self.state.get(at) == Some(&State::Word)).then(|| self.words[at])
    }
}

/// The word of `v` as a value of type `elem`: in the declared domain, a set
/// over exactly it with no bit outside.
fn word_of(prog: &Program, elem: Type, v: &Value) -> Option<u64> {
    match (elem, *v) {
        (Type::Scalar(d), v) if d.contains(&v, prog.sym_sizes()) => Some(match v {
            Value::Int(x) => x as u64,
            Value::Sym { idx, .. } => u64::from(idx),
            Value::Bool(b) => u64::from(b),
            Value::Set { mask, .. } => mask,
        }),
        (Type::Set(d), Value::Set { dom, mask }) if dom == d && mask & !prog.live_mask(d) == 0 => {
            Some(mask)
        }
        _ => None,
    }
}

/// The value a word of type `elem` stands for.
fn value_of(elem: Type, w: u64) -> Value {
    match elem {
        Type::Scalar(Domain::Int { .. }) => Value::Int(w as i64),
        Type::Scalar(Domain::Sym(ty)) => Value::Sym { ty, idx: w as u32 },
        Type::Scalar(Domain::Bool) => Value::Bool(w != 0),
        Type::Set(dom) => Value::Set { dom, mask: w },
    }
}

/// A port written past its indices or into a map laid out for other
/// declarations: a host bug, which an `assert!` here would also catch at
/// twice the cost of a write.
#[cold]
#[inline(never)]
fn misuse() -> ! {
    panic!("a port writes its own cells of a map laid out for its program")
}

#[cold]
fn unset(prog: &Program, input: usize, cell: usize) -> RuleError {
    RuleError::eval(format!("input `{}` (cell {cell}) has no value", prog.inputs[input].name))
}

/// An element a host writes through a [`Port`]: an integer (`i64`), a
/// boolean, a symbol index (`u32`) or a [`Subset`].
pub trait Elem: Copy {
    /// How a declaration of this kind is named.
    const KIND: &'static str;
    /// Whether an input with elements of type `t` takes this kind.
    fn declared(t: Type) -> bool;
    /// The word of `self` in `dom`, whose elements have the words
    /// `base..base + size` (`size` bits for a set); `None` outside it.
    fn word(self, dom: Domain, base: i64, size: u64) -> Option<u64>;
    /// `self` as the value a cell of `dom` spills.
    fn value(self, dom: Domain) -> Value;
}

impl Elem for i64 {
    const KIND: &'static str = "integer";
    fn declared(t: Type) -> bool {
        matches!(t, Type::Scalar(Domain::Int { .. }))
    }
    #[inline]
    fn word(self, _: Domain, base: i64, size: u64) -> Option<u64> {
        ((self.wrapping_sub(base) as u64) < size).then_some(self as u64)
    }
    fn value(self, _: Domain) -> Value {
        Value::Int(self)
    }
}

impl Elem for bool {
    const KIND: &'static str = "bool";
    fn declared(t: Type) -> bool {
        t == Type::Scalar(Domain::Bool)
    }
    #[inline]
    fn word(self, _: Domain, _: i64, _: u64) -> Option<u64> {
        Some(u64::from(self))
    }
    fn value(self, _: Domain) -> Value {
        Value::Bool(self)
    }
}

/// A symbol of the input's symbol type, by index.
impl Elem for u32 {
    const KIND: &'static str = "symbol";
    fn declared(t: Type) -> bool {
        matches!(t, Type::Scalar(Domain::Sym(_)))
    }
    #[inline]
    fn word(self, _: Domain, _: i64, size: u64) -> Option<u64> {
        (u64::from(self) < size).then_some(u64::from(self))
    }
    fn value(self, dom: Domain) -> Value {
        let Domain::Sym(ty) = dom else { unreachable!("a symbol port is over a symbol type") };
        Value::Sym { ty, idx: self }
    }
}

/// A subset of `dom` as a bitmask: what a set port takes. A set over
/// another domain than the declared one spills, as it reads back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Subset {
    /// The element domain.
    pub dom: Domain,
    /// Bit `k` set ⇔ `dom.value_at(k)` is a member.
    pub mask: u64,
}

impl Elem for Subset {
    const KIND: &'static str = "set";
    fn declared(t: Type) -> bool {
        matches!(t, Type::Set(_))
    }
    #[inline]
    fn word(self, dom: Domain, _: i64, size: u64) -> Option<u64> {
        (self.dom == dom && self.mask & !low_mask(size) == 0).then_some(self.mask)
    }
    fn value(self, _: Domain) -> Value {
        Value::Set { dom: self.dom, mask: self.mask }
    }
}

/// A typed port: one input of a program as a host writes it, resolved
/// once. It holds the word of the input's cell 0 in a map laid out for the
/// program, how many indices follow, and the element domain each write is
/// checked against (one compare); a write outside it spills, so a fire
/// reads it through the AST walk and fails or answers as the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Port<T> {
    input: u32,
    first: u32,
    len: u32,
    key: u64,
    dom: Domain,
    base: i64,
    size: u64,
    elem: PhantomData<T>,
}

/// The input a port writes.
impl<T: Elem> From<Port<T>> for usize {
    fn from(port: Port<T>) -> usize {
        port.input()
    }
}

impl<T: Elem> Port<T> {
    /// The port of input `input` of `prog`: a scalar, or an array over
    /// integers indexed from 0 (index `k` is cell `k`). An error names an
    /// input of another element kind or layout, or one not stored.
    pub fn bind(prog: &Program, input: usize) -> Result<Self> {
        let decl = &prog.inputs[input];
        let refuse = |why: &str| RuleError::resolve(format!("input `{}` {why}", decl.name));
        let first = prog.input_first(input).ok_or_else(|| refuse("has too many cells to store"))?;
        if !T::declared(decl.elem) {
            return Err(refuse(&format!("is not of {} elements", T::KIND)));
        }
        let (zero, len) = match prog.input_layout(input).dims[..] {
            [] => (0, 1),
            [Dim { dom: Domain::Int { lo, hi }, .. }] if lo <= 0 && hi >= 0 => (-lo, hi + 1),
            _ => return Err(refuse("is neither a scalar nor an array indexed from 0")),
        };
        let dom = decl.elem.domain();
        Ok(Port {
            input: input as u32,
            // a stored input's cells lie below MAX_INPUT_CELLS
            first: (first as i64 + zero) as u32,
            len: len as u32,
            key: prog.input_key(),
            dom,
            base: dom.base(),
            size: dom.size(prog.sym_sizes()),
            elem: PhantomData,
        })
    }

    /// The input it writes (index into [`Program::inputs`]).
    pub fn input(&self) -> usize {
        self.input as usize
    }

    /// The element domain the input declares, which each write is checked
    /// against.
    pub fn dom(&self) -> Domain {
        self.dom
    }

    /// Writes `v` at index `k` (0 for a scalar) of a map laid out for the
    /// port's program.
    ///
    /// # Panics
    /// If `k` is past the declared indices or the map is laid out for
    /// other declarations.
    #[inline]
    pub fn write(&self, im: &mut InputMap, k: usize, v: T) {
        if k >= self.len as usize || im.key != self.key {
            misuse();
        }
        let at = self.first as usize + k;
        match v.word(self.dom, self.base, self.size) {
            Some(w) => {
                im.words[at] = w;
                im.state[at] = State::Word;
            }
            None => im.spill(at, v.value(self.dom)),
        }
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
