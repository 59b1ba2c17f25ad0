//! Resolved, typed abstract syntax of rule programs.
//!
//! The parser produces this representation directly (names resolved against
//! the declarations, expressions typed bottom-up), so everything downstream
//! — the reference evaluator, the ARON compiler, the cost model — works on
//! indices instead of strings.

use crate::error::Pos;
use crate::value::{low_mask, Domain, Type, Value};
use serde::{Deserialize, Serialize};

/// A declared symbol type (`CONSTANT states = {safe, faulty, ...}`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SymType {
    /// Type name (also names the full-set constant).
    pub name: String,
    /// Symbol names in declaration order; the order defines the finite
    /// lattice used by `latmax` (later symbols are "higher").
    pub symbols: Vec<String>,
}

/// A named constant (`CONSTANT radix = 8`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConstDecl {
    /// Constant name.
    pub name: String,
    /// Its value.
    pub value: Value,
    /// Its type.
    pub ty: Type,
}

/// A register (`VARIABLE name[index_doms] IN elem INIT init`).
///
/// Registers are the algorithm state of §4.2; their widths are the register
/// bits counted in the paper's §5 evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VarDecl {
    /// Register name.
    pub name: String,
    /// Index domains (empty for a plain register).
    pub index_domains: Vec<Domain>,
    /// Element type.
    pub elem: Type,
    /// Initial value of every cell.
    pub init: Value,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// An external input (`INPUT name[index_doms] IN elem`): header fields, link
/// states, buffer occupancies — anything the router hardware feeds to the
/// rule interpreter per invocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InputDecl {
    /// Input name.
    pub name: String,
    /// Index domains (empty for a scalar input).
    pub index_domains: Vec<Domain>,
    /// Element type.
    pub elem: Type,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// One index dimension of a declared register or input, resolved when the
/// declaration is parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dim {
    /// The index domain.
    pub dom: Domain,
    /// Cells one step along this dimension skips: row-major, the product of
    /// the sizes of the dimensions after it.
    pub stride: u64,
}

/// Where the cells of a declared register or input lie: arrays are stored
/// flattened in row-major order of their index domains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellLayout {
    /// One entry per declared index domain (none for a scalar).
    pub dims: Vec<Dim>,
    /// Number of cells (1 for a scalar).
    pub cells: usize,
}

impl CellLayout {
    fn new(index_domains: &[Domain], sym_sizes: &[usize]) -> Self {
        let mut dims: Vec<Dim> = index_domains.iter().map(|&dom| Dim { dom, stride: 1 }).collect();
        let mut cells = 1u64;
        for d in dims.iter_mut().rev() {
            d.stride = cells;
            cells = cells.saturating_mul(d.dom.size(sym_sizes));
        }
        CellLayout { dims, cells: usize::try_from(cells).unwrap_or(usize::MAX) }
    }

    /// The flat cell `indices` address, checked in one pass: `None` when
    /// their number is not the declared one or one lies outside its domain.
    #[inline]
    pub fn cell(&self, indices: &[Value], sym_sizes: &[usize]) -> Option<usize> {
        if indices.len() != self.dims.len() {
            return None;
        }
        let mut cell = 0;
        for (v, d) in indices.iter().zip(&self.dims) {
            cell += d.dom.ordinal(v, sym_sizes)? * d.stride;
        }
        Some(cell as usize)
    }
}

/// An event name some conclusion generates (`!name(args)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventName {
    /// The name.
    pub name: String,
    /// The rule base it triggers; `None` for a host event.
    pub base: Option<usize>,
}

/// What the parser resolves once so that no interpretation has to: symbol
/// type sizes, cell layouts and the targets of generated events. Kept in
/// step with the declarations by the `declare_*` methods of [`Program`].
#[derive(Clone, Debug, Default)]
struct Resolved {
    sym_sizes: Vec<usize>,
    vars: Vec<CellLayout>,
    inputs: Vec<CellLayout>,
    events: Vec<EventName>,
}

/// An event parameter (`ON update_state(dir IN dirs)`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Its domain.
    pub dom: Domain,
}

/// What a name refers to after resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ref {
    /// Constant index in [`Program::consts`].
    Const(usize),
    /// Register index in [`Program::vars`].
    Var(usize),
    /// Input index in [`Program::inputs`].
    Input(usize),
    /// Event parameter position of the enclosing rule base.
    Param(usize),
    /// Quantifier/`FORALL`-command binder, de Bruijn style (0 = innermost).
    Bound(usize),
}

/// Array-like reference targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexedRef {
    /// Indexed register.
    Var(usize),
    /// Indexed input.
    Input(usize),
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `=` (scalars or sets)
    Eq,
    /// `/=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `IN` (scalar ∈ set)
    In,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// `NOT`
    Not,
    /// unary `-`
    Neg,
}

/// Quantifier kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Quant {
    /// `EXISTS x IN S: body`
    Exists,
    /// `FORALL x IN S: body`
    Forall,
}

/// Built-in functions ("functions allowed in premise and conclusion
/// expressions", §4.2). Each maps to a specific FCFB kind in the hardware
/// cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Builtin {
    /// `min(a, b)` of two integers.
    Min,
    /// `max(a, b)` of two integers.
    Max,
    /// `absdiff(a, b)` = |a - b| — the "mesh distance computation" unit.
    AbsDiff,
    /// `xor(a, b)` bitwise on non-negative integers (hypercube dimension
    /// arithmetic).
    Xor,
    /// `popcount(a)` number of set bits (Hamming distance).
    Popcount,
    /// `bit(a, i)` — bit `i` of `a` as a boolean.
    Bit,
    /// `latmax(a, b)` — join in the finite lattice given by symbol order.
    LatMax,
    /// `card(s)` — cardinality of a set.
    Card,
    /// `union(a, b)` of two sets.
    Union,
    /// `isect(a, b)` of two sets.
    Isect,
    /// `diff(a, b)` set difference.
    Diff,
    /// `include(s, e)` — set with element `e` added (set-union unit).
    Include,
    /// `exclude(s, e)` — set with element `e` removed (set-subtraction
    /// unit).
    Exclude,
    /// `argmin(input, s)` — index (within the indexed input's single index
    /// domain) of the minimal element among members of set `s`; ties break
    /// to the lowest ordinal; errors on an empty set. The paper's
    /// "minimum selection" FCFB. First argument resolved to the input id.
    ArgMin(usize),
    /// `argmax(input, s)` — dual of `argmin`.
    ArgMax(usize),
}

/// A typed expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Scalar read of a resolved name.
    Ref(Ref),
    /// Read of an indexed register or input: `name(i, j)`.
    Indexed {
        /// What is being indexed.
        target: IndexedRef,
        /// One expression per declared index domain.
        indices: Vec<Expr>,
    },
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Quantified boolean: `q x IN set: body`; the binder has domain `dom`
    /// (the element domain of `set`) and is referenced as `Bound(0)` inside
    /// `body`.
    Quant {
        /// Exists or Forall.
        q: Quant,
        /// Element domain of the quantified set.
        dom: Domain,
        /// The set ranged over (evaluated at runtime).
        set: Box<Expr>,
        /// Quantified body.
        body: Box<Expr>,
    },
    /// Built-in function call.
    Call {
        /// Which builtin.
        builtin: Builtin,
        /// Arguments (for `argmin`/`argmax` only the set argument remains
        /// here; the input is inside the builtin).
        args: Vec<Expr>,
    },
}

/// A conclusion command.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// `name(indices) <- value`
    Assign {
        /// Target register.
        var: usize,
        /// Index expressions (empty for plain registers).
        indices: Vec<Expr>,
        /// Right-hand side (evaluated against the pre-state: all commands
        /// of a conclusion execute in parallel, §4.2).
        value: Expr,
    },
    /// `RETURN(expr)`
    Return(Expr),
    /// `!event(args)` — generate an event.
    Emit {
        /// Event name (matched against rule-base names by the event
        /// manager; unknown names are delivered to the host).
        event: String,
        /// Index of `event` in [`Program::events`].
        id: usize,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `FORALL x IN set: command` — the command quantor of Figure 4.
    ForAll {
        /// Element domain of the set.
        dom: Domain,
        /// Set ranged over.
        set: Expr,
        /// Body commands, binder = `Bound(0)`.
        body: Vec<Command>,
    },
}

/// One `IF premise THEN commands;` rule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Boolean premise.
    pub premise: Expr,
    /// Parallel conclusion commands.
    pub conclusion: Vec<Command>,
    /// Source position of the rule's `IF` keyword.
    pub pos: Pos,
}

/// An event-triggered rule base (`ON name(params) ... END name;`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RuleBase {
    /// Name == the event that triggers it.
    pub name: String,
    /// Event parameters.
    pub params: Vec<Param>,
    /// Declared return type, if the base returns a value.
    pub returns: Option<Type>,
    /// True if this base is needed even by the non-fault-tolerant variant
    /// of the algorithm (the `nft` column of Tables 1 and 2).
    pub nft: bool,
    /// The rules, in source order (order resolves conflicts).
    pub rules: Vec<Rule>,
    /// Source position of the `ON` keyword.
    pub pos: Pos,
}

/// A complete rule program.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Program {
    /// Declared symbol types.
    pub sym_types: Vec<SymType>,
    /// Named constants (includes the full-set constant of each symbol type
    /// and each named integer domain).
    pub consts: Vec<ConstDecl>,
    /// Registers.
    pub vars: Vec<VarDecl>,
    /// External inputs.
    pub inputs: Vec<InputDecl>,
    /// Rule bases.
    pub rulebases: Vec<RuleBase>,
    /// Sizes, layouts and event targets of the declarations above.
    #[serde(skip)]
    resolved: Resolved,
}

impl Program {
    /// Number of symbols in symbol type `t`.
    pub fn sym_size(&self, t: usize) -> usize {
        self.resolved.sym_sizes[t]
    }

    /// Number of symbols of every symbol type, the shape `Domain` methods take.
    #[inline]
    pub fn sym_sizes(&self) -> &[usize] {
        &self.resolved.sym_sizes
    }

    /// Cell layout of register `var` (index into [`Program::vars`]).
    #[inline]
    pub fn var_layout(&self, var: usize) -> &CellLayout {
        &self.resolved.vars[var]
    }

    /// Cell layout of input `input` (index into [`Program::inputs`]).
    #[inline]
    pub fn input_layout(&self, input: usize) -> &CellLayout {
        &self.resolved.inputs[input]
    }

    /// Every event name a conclusion generates, indexed by
    /// [`Command::Emit`]'s `id`.
    pub fn events(&self) -> &[EventName] {
        &self.resolved.events
    }

    /// The bits of a set mask over `dom` that stand for elements; a mask
    /// may carry others, which every set operation ignores.
    #[inline]
    pub fn live_mask(&self, dom: Domain) -> u64 {
        low_mask(dom.size(self.sym_sizes()))
    }

    pub(crate) fn declare_sym_type(&mut self, st: SymType) {
        self.resolved.sym_sizes.push(st.symbols.len());
        self.sym_types.push(st);
    }

    pub(crate) fn declare_var(&mut self, v: VarDecl) {
        self.resolved.vars.push(CellLayout::new(&v.index_domains, &self.resolved.sym_sizes));
        self.vars.push(v);
    }

    pub(crate) fn declare_input(&mut self, i: InputDecl) {
        self.resolved.inputs.push(CellLayout::new(&i.index_domains, &self.resolved.sym_sizes));
        self.inputs.push(i);
    }

    /// The id of generated event `name`, interning it on first sight.
    pub(crate) fn intern_event(&mut self, name: &str) -> usize {
        let events = &mut self.resolved.events;
        events.iter().position(|e| e.name == name).unwrap_or_else(|| {
            events.push(EventName { name: name.to_string(), base: None });
            events.len() - 1
        })
    }

    /// Points every generated event at the rule base of its name, once all
    /// rule bases are known.
    pub(crate) fn resolve_events(&mut self) {
        for i in 0..self.resolved.events.len() {
            let base = self.rulebase(&self.resolved.events[i].name).map(|(b, _)| b);
            self.resolved.events[i].base = base;
        }
    }

    /// Looks up a rule base by name.
    pub fn rulebase(&self, name: &str) -> Option<(usize, &RuleBase)> {
        self.rulebases.iter().enumerate().find(|(_, rb)| rb.name == name)
    }

    /// Resolves a symbol name to its value, searching all symbol types.
    pub fn symbol_value(&self, name: &str) -> Option<Value> {
        for (t, st) in self.sym_types.iter().enumerate() {
            if let Some(i) = st.symbols.iter().position(|s| s == name) {
                return Some(Value::Sym { ty: t, idx: i as u32 });
            }
        }
        None
    }

    /// Human-readable form of a value (symbol names spelled out).
    pub fn display_value(&self, v: &Value) -> String {
        match v {
            Value::Sym { ty, idx } => self.sym_types[*ty].symbols[*idx as usize].clone(),
            Value::Set { dom, mask } => {
                let n = dom.size(self.sym_sizes());
                let mut parts = Vec::new();
                for k in 0..n {
                    if mask & (1 << k) != 0 {
                        parts.push(self.display_value(&dom.value_at(k)));
                    }
                }
                format!("{{{}}}", parts.join(","))
            }
            other => other.to_string(),
        }
    }
}
