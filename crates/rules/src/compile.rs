//! ARON compilation: rule base → completely filled lookup table.
//!
//! "Its main concept is the generation of an unique index to a table in
//! which the conclusions of the rules are stored. This index is computed
//! from the input values and has a much smaller range than the input space.
//! The rule base itself is compiled off-line to a completely filled rule
//! table where conflicts are resolved and gaps are eliminated." (§4.3)
//!
//! The compiler extracts *features* from the premises:
//!
//! * a **direct** feature uses the raw value of a symbol/boolean subject as
//!   part of the table index (the paper: "since for `state` and
//!   `new_state(dir)` all individual values occur in the premises of the
//!   rules, no comparison is needed and their current values are used as
//!   part of the table index directly");
//! * a **predicate** feature is one bit computed by an FCFB (comparators on
//!   integer counters, membership tests on runtime sets, …).
//!
//! Quantifiers are expanded over their (finite, ≤ 64 element) domains before
//! extraction, and `/=` is normalised to `NOT =` so equality atoms have one
//! shape. The table is then filled by enumerating the whole feature space;
//! conflicts resolve to the first applicable rule in source order, gaps
//! (combinations where no premise holds, including physically unsatisfiable
//! ones) map to a no-op entry.
//!
//! The enumeration works on words, not entries: premises are lowered once
//! to boolean programs over atom ids (`Guard`), each atom to a truth
//! value per digit of its feature (`Atom`), and `fill_by_words` decides
//! 64 entries per `u64` operation with scratch that does not grow with the
//! table. No `Expr` is hashed, compared or walked after lowering.

use crate::ast::*;
use crate::env::{InputMap, RegFile};
use crate::error::{Result, RuleError};
use crate::interp::{CompiledProgram, CompiledRuleBase};
use crate::value::{ceil_log2, Domain, Value};
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroU16;

/// Compilation parameters.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Maximum number of table entries per rule base (feature-space size).
    pub max_entries: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { max_entries: 1 << 20 }
    }
}

/// The first kind of output two conflicting conclusions disagree on.
///
/// A rule pair can conflict on several outputs at once (a RETURN *and* a
/// register write, say); warnings are deduplicated by
/// `(winner, loser, kind)` where `kind` is the first disagreement in
/// command order, so each pair produces exactly one `Conflict`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// The conclusions return different values.
    Return,
    /// The conclusions write a register differently.
    Register,
    /// The conclusions emit different events.
    Emit,
}

/// Classifies the first command-order disagreement between two
/// conclusions (which are known to differ).
pub fn conflict_kind(a: &[Command], b: &[Command]) -> ConflictKind {
    fn kind_of(c: &Command) -> ConflictKind {
        match c {
            Command::Return(_) => ConflictKind::Return,
            Command::Assign { .. } | Command::ForAll { .. } => ConflictKind::Register,
            Command::Emit { .. } => ConflictKind::Emit,
        }
    }
    for (ca, cb) in a.iter().zip(b.iter()) {
        if ca != cb {
            return kind_of(cb);
        }
    }
    // one conclusion is a strict prefix of the other: the extra command
    // is the disagreement
    if a.len() > b.len() {
        kind_of(&a[b.len()])
    } else if b.len() > a.len() {
        kind_of(&b[a.len()])
    } else {
        // equal lists never reach here (identical conclusions are not
        // conflicts); keep a deterministic fallback anyway
        ConflictKind::Return
    }
}

/// A resolution the ARON compiler performed silently while filling the
/// table (§4.3: "conflicts are resolved and gaps are eliminated").
/// Collected — not printed — so `ftr-analyze` can turn them into
/// diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileWarning {
    /// At `entries` feature-space entries both rules applied with
    /// *different* conclusions; source order picked `winner` (rule
    /// indices within the rule base, 0-based, `winner < loser`).
    Conflict {
        /// Rule that fires (earlier in source order).
        winner: usize,
        /// Rule whose conclusion is discarded there.
        loser: usize,
        /// First output kind the conclusions disagree on.
        kind: ConflictKind,
        /// Number of feature-space entries where both applied.
        entries: u64,
    },
    /// `entries` of `total` feature-space entries had no applicable rule
    /// and were mapped to the no-op entry 0.
    Gaps {
        /// Entries with no applicable rule.
        entries: u64,
        /// Total feature-space entries.
        total: u64,
    },
}

/// How one feature contributes to the table index.
#[derive(Clone, Debug, PartialEq)]
pub enum FeatureKind {
    /// The subject's raw value is an index digit (radix = domain size).
    Direct {
        /// The wired subject expression.
        subject: Expr,
        /// Its domain.
        dom: Domain,
    },
    /// One bit computed from an arbitrary boolean expression.
    Predicate {
        /// The expression an FCFB evaluates.
        expr: Expr,
    },
}

/// One extracted feature.
#[derive(Clone, Debug, PartialEq)]
pub struct Feature {
    /// Direct or predicate.
    pub kind: FeatureKind,
    /// Radix of this index digit.
    pub size: u64,
}

/// How an atom's truth is recovered from feature values.
#[derive(Clone, Debug)]
enum AtomTest {
    /// Predicate feature bit is the truth value.
    Bit,
    /// Direct feature equals this literal.
    EqLit(Value),
    /// Direct feature is a member of this literal set.
    InLit(Domain, u64),
    /// Direct boolean feature used bare.
    BoolDirect,
}

#[derive(Default)]
struct FeatureSet {
    features: Vec<Feature>,
    /// atom expression → atom id (index into `tests`)
    atoms: HashMap<Expr, usize>,
    /// per atom id: (feature index, test)
    tests: Vec<(usize, AtomTest)>,
}

impl FeatureSet {
    fn direct(&mut self, prog: &Program, subject: Expr, dom: Domain) -> usize {
        for (i, f) in self.features.iter().enumerate() {
            if let FeatureKind::Direct { subject: s, .. } = &f.kind {
                if *s == subject {
                    return i;
                }
            }
        }
        let size = dom.size(prog.sym_sizes());
        self.features.push(Feature { kind: FeatureKind::Direct { subject, dom }, size });
        self.features.len() - 1
    }

    fn predicate(&mut self, expr: Expr) -> usize {
        for (i, f) in self.features.iter().enumerate() {
            if let FeatureKind::Predicate { expr: e } = &f.kind {
                if *e == expr {
                    return i;
                }
            }
        }
        self.features.push(Feature { kind: FeatureKind::Predicate { expr }, size: 2 });
        self.features.len() - 1
    }

    /// Does atom `id` hold when its feature's index digit is `digit`?
    fn atom_holds(&self, prog: &Program, id: usize, digit: u64) -> bool {
        let (fi, test) = &self.tests[id];
        let direct_dom = || match &self.features[*fi].kind {
            FeatureKind::Direct { dom, .. } => *dom,
            FeatureKind::Predicate { .. } => unreachable!("literal test on a predicate feature"),
        };
        match test {
            AtomTest::Bit | AtomTest::BoolDirect => digit != 0,
            AtomTest::EqLit(lit) => direct_dom().value_at(digit) == *lit,
            AtomTest::InLit(set_dom, mask) => {
                let v = direct_dom().value_at(digit);
                set_dom.ordinal(&v, prog.sym_sizes()).is_some_and(|k| mask & (1 << k) != 0)
            }
        }
    }
}

/// Substitutes `Bound(depth)` with a literal and shifts deeper binders.
pub fn subst_bound(e: &Expr, depth: usize, v: Value) -> Expr {
    match e {
        Expr::Lit(x) => Expr::Lit(*x),
        Expr::Ref(Ref::Bound(d)) => {
            use std::cmp::Ordering::*;
            match d.cmp(&depth) {
                Equal => Expr::Lit(v),
                Greater => Expr::Ref(Ref::Bound(d - 1)),
                Less => Expr::Ref(Ref::Bound(*d)),
            }
        }
        Expr::Ref(r) => Expr::Ref(*r),
        Expr::Indexed { target, indices } => Expr::Indexed {
            target: *target,
            indices: indices.iter().map(|i| subst_bound(i, depth, v)).collect(),
        },
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(subst_bound(inner, depth, v))),
        Expr::Bin(op, l, r) => {
            Expr::Bin(*op, Box::new(subst_bound(l, depth, v)), Box::new(subst_bound(r, depth, v)))
        }
        Expr::Quant { q, dom, set, body } => Expr::Quant {
            q: *q,
            dom: *dom,
            set: Box::new(subst_bound(set, depth, v)),
            body: Box::new(subst_bound(body, depth + 1, v)),
        },
        Expr::Call { builtin, args } => Expr::Call {
            builtin: *builtin,
            args: args.iter().map(|a| subst_bound(a, depth, v)).collect(),
        },
    }
}

/// Expands all quantifiers over their finite domains and normalises `/=`.
pub fn expand_quantifiers(prog: &Program, e: &Expr) -> Result<Expr> {
    Ok(match e {
        Expr::Quant { q, dom, set, body } => {
            let set_e = expand_quantifiers(prog, set)?;
            let body_e = expand_quantifiers(prog, body)?;
            let n = dom.size(prog.sym_sizes());
            if n > 64 {
                return Err(RuleError::resolve(
                    "quantifier domain exceeds 64 elements".to_string(),
                ));
            }
            let mut acc: Option<Expr> = None;
            for k in 0..n {
                let v = dom.value_at(k);
                let guard = Expr::Bin(BinOp::In, Box::new(Expr::Lit(v)), Box::new(set_e.clone()));
                let inst = subst_bound(&body_e, 0, v);
                let term = match q {
                    Quant::Exists => Expr::Bin(BinOp::And, Box::new(guard), Box::new(inst)),
                    Quant::Forall => Expr::Bin(
                        BinOp::Or,
                        Box::new(Expr::Un(UnOp::Not, Box::new(guard))),
                        Box::new(inst),
                    ),
                };
                acc = Some(match acc {
                    None => term,
                    Some(prev) => {
                        let op = match q {
                            Quant::Exists => BinOp::Or,
                            Quant::Forall => BinOp::And,
                        };
                        Expr::Bin(op, Box::new(prev), Box::new(term))
                    }
                });
            }
            acc.unwrap_or(Expr::Lit(Value::Bool(matches!(q, Quant::Forall))))
        }
        Expr::Bin(BinOp::Ne, l, r) => {
            let l = expand_quantifiers(prog, l)?;
            let r = expand_quantifiers(prog, r)?;
            Expr::Un(UnOp::Not, Box::new(Expr::Bin(BinOp::Eq, Box::new(l), Box::new(r))))
        }
        Expr::Bin(op, l, r) => Expr::Bin(
            *op,
            Box::new(expand_quantifiers(prog, l)?),
            Box::new(expand_quantifiers(prog, r)?),
        ),
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(expand_quantifiers(prog, inner)?)),
        Expr::Indexed { target, indices } => {
            let idx: Result<Vec<Expr>> =
                indices.iter().map(|i| expand_quantifiers(prog, i)).collect();
            Expr::Indexed { target: *target, indices: idx? }
        }
        Expr::Call { builtin, args } => {
            let a: Result<Vec<Expr>> = args.iter().map(|x| expand_quantifiers(prog, x)).collect();
            Expr::Call { builtin: *builtin, args: a? }
        }
        other => other.clone(),
    })
}

/// True if the expression reads anything dynamic (register, input,
/// parameter, binder) — such expressions cannot be folded at compile time.
fn contains_dynamic_ref(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) => false,
        Expr::Ref(Ref::Const(_)) => false,
        Expr::Ref(_) => true,
        Expr::Indexed { .. } => true,
        Expr::Un(_, inner) => contains_dynamic_ref(inner),
        Expr::Bin(_, l, r) => contains_dynamic_ref(l) || contains_dynamic_ref(r),
        Expr::Quant { set, body, .. } => contains_dynamic_ref(set) || contains_dynamic_ref(body),
        Expr::Call { builtin, args } => {
            matches!(builtin, Builtin::ArgMin(_) | Builtin::ArgMax(_))
                || args.iter().any(contains_dynamic_ref)
        }
    }
}

/// Folds constant subexpressions (quantifier expansion leaves many
/// `Lit IN Lit-set` guards behind; without folding each would become a
/// spurious predicate feature and double the table).
pub fn fold_consts(prog: &Program, e: &Expr) -> Result<Expr> {
    // fold children first
    let folded = match e {
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(fold_consts(prog, inner)?)),
        Expr::Bin(op, l, r) => {
            Expr::Bin(*op, Box::new(fold_consts(prog, l)?), Box::new(fold_consts(prog, r)?))
        }
        Expr::Indexed { target, indices } => {
            let idx: Result<Vec<Expr>> = indices.iter().map(|i| fold_consts(prog, i)).collect();
            Expr::Indexed { target: *target, indices: idx? }
        }
        Expr::Call { builtin, args } => {
            let a: Result<Vec<Expr>> = args.iter().map(|x| fold_consts(prog, x)).collect();
            Expr::Call { builtin: *builtin, args: a? }
        }
        other => other.clone(),
    };
    if contains_dynamic_ref(&folded) {
        // boolean simplifications with constant halves
        if let Expr::Bin(op @ (BinOp::And | BinOp::Or), l, r) = &folded {
            let (konst, dynamic) = match (&**l, &**r) {
                (Expr::Lit(Value::Bool(b)), d) => (Some(*b), d),
                (d, Expr::Lit(Value::Bool(b))) => (Some(*b), d),
                _ => (None, &**l),
            };
            if let Some(b) = konst {
                return Ok(match (op, b) {
                    (BinOp::And, true) | (BinOp::Or, false) => dynamic.clone(),
                    (BinOp::And, false) => Expr::Lit(Value::Bool(false)),
                    (BinOp::Or, true) => Expr::Lit(Value::Bool(true)),
                    _ => unreachable!(),
                });
            }
        }
        return Ok(folded);
    }
    // fully constant: nothing it reads is in the environment, so an empty
    // one serves — and says so should a read slip past the test above
    let (regs, inputs) = (RegFile::new(prog), InputMap::new());
    let mut ctx = crate::eval::EvalCtx::new(prog, &regs, &inputs, &[]);
    match crate::eval::eval_expr(&mut ctx, &folded) {
        Ok(v) => Ok(Expr::Lit(v)),
        Err(RuleError::Eval { msg }) => {
            Err(RuleError::eval(format!("in a constant expression: {msg}")))
        }
        Err(other) => Err(other),
    }
}

/// Domain of a scalar subject expression, when it is simple enough to wire
/// directly into the table index (references and indexed reads).
fn subject_domain(prog: &Program, rb: &RuleBase, e: &Expr) -> Option<Domain> {
    match e {
        Expr::Ref(Ref::Var(i)) => match prog.vars[*i].elem {
            crate::value::Type::Scalar(d) => Some(d),
            _ => None,
        },
        Expr::Ref(Ref::Input(i)) => match prog.inputs[*i].elem {
            crate::value::Type::Scalar(d) => Some(d),
            _ => None,
        },
        Expr::Ref(Ref::Param(i)) => Some(rb.params[*i].dom),
        Expr::Indexed { target, .. } => match target {
            IndexedRef::Var(i) => match prog.vars[*i].elem {
                crate::value::Type::Scalar(d) => Some(d),
                _ => None,
            },
            IndexedRef::Input(i) => match prog.inputs[*i].elem {
                crate::value::Type::Scalar(d) => Some(d),
                _ => None,
            },
        },
        _ => None,
    }
}

fn is_directable(d: Domain) -> bool {
    matches!(d, Domain::Sym(_) | Domain::Bool)
}

/// Collects atoms of an expanded premise into the feature set.
fn collect_atoms(prog: &Program, rb: &RuleBase, e: &Expr, fs: &mut FeatureSet) {
    match e {
        Expr::Lit(Value::Bool(_)) => {}
        Expr::Bin(BinOp::And | BinOp::Or, l, r) => {
            collect_atoms(prog, rb, l, fs);
            collect_atoms(prog, rb, r, fs);
        }
        Expr::Un(UnOp::Not, inner) => collect_atoms(prog, rb, inner, fs),
        atom => {
            if !fs.atoms.contains_key(atom) {
                let entry = classify_atom(prog, rb, atom, fs);
                fs.atoms.insert(atom.clone(), fs.tests.len());
                fs.tests.push(entry);
            }
        }
    }
}

fn classify_atom(
    prog: &Program,
    rb: &RuleBase,
    atom: &Expr,
    fs: &mut FeatureSet,
) -> (usize, AtomTest) {
    match atom {
        // subject = literal  (either side)
        Expr::Bin(BinOp::Eq, l, r) => {
            let (subj, lit) = match (&**l, &**r) {
                (Expr::Lit(v), s) => (s, Some(*v)),
                (s, Expr::Lit(v)) => (s, Some(*v)),
                _ => (&**l, None),
            };
            if let Some(lit) = lit {
                if let Some(d) = subject_domain(prog, rb, subj) {
                    if is_directable(d) {
                        let f = fs.direct(prog, subj.clone(), d);
                        return (f, AtomTest::EqLit(lit));
                    }
                }
            }
            (fs.predicate(atom.clone()), AtomTest::Bit)
        }
        // subject IN literal-set
        Expr::Bin(BinOp::In, l, r) => {
            if let Expr::Lit(Value::Set { dom, mask }) = &**r {
                if let Some(d) = subject_domain(prog, rb, l) {
                    if is_directable(d) {
                        let f = fs.direct(prog, (**l).clone(), d);
                        return (f, AtomTest::InLit(*dom, *mask));
                    }
                }
            }
            (fs.predicate(atom.clone()), AtomTest::Bit)
        }
        // bare boolean subject
        other => {
            if let Some(d) = subject_domain(prog, rb, other) {
                if d == Domain::Bool {
                    let f = fs.direct(prog, other.clone(), d);
                    return (f, AtomTest::BoolDirect);
                }
            }
            (fs.predicate(other.clone()), AtomTest::Bit)
        }
    }
}

/// An expanded premise lowered to a boolean program over atom ids: all
/// the table fill ever evaluates. Each variant stands for 64 entries at a
/// time — one bit per entry of a word of the block being filled.
enum Guard {
    Const(bool),
    Atom(usize),
    Not(Box<Guard>),
    And(Box<Guard>, Box<Guard>),
    Or(Box<Guard>, Box<Guard>),
}

impl Guard {
    /// The one place an atom `Expr` is looked up: once per occurrence, at
    /// lowering time.
    fn lower(fs: &FeatureSet, e: &Expr) -> Result<Guard> {
        Ok(match e {
            Expr::Lit(Value::Bool(b)) => Guard::Const(*b),
            Expr::Bin(BinOp::And, l, r) => {
                Guard::And(Box::new(Guard::lower(fs, l)?), Box::new(Guard::lower(fs, r)?))
            }
            Expr::Bin(BinOp::Or, l, r) => {
                Guard::Or(Box::new(Guard::lower(fs, l)?), Box::new(Guard::lower(fs, r)?))
            }
            Expr::Un(UnOp::Not, inner) => Guard::Not(Box::new(Guard::lower(fs, inner)?)),
            atom => Guard::Atom(
                *fs.atoms
                    .get(atom)
                    .ok_or_else(|| RuleError::eval(format!("unmapped atom {atom:?}")))?,
            ),
        })
    }

    /// Truth of the guard at the 64 entries of word `wi` of the block
    /// whose atom masks are `masks` (atom-major, [`BLOCK_WORDS`] each).
    fn word(&self, masks: &[u64], wi: usize) -> u64 {
        match self {
            Guard::Const(true) => !0,
            Guard::Const(false) => 0,
            Guard::Atom(a) => masks[a * BLOCK_WORDS + wi],
            Guard::Not(g) => !g.word(masks, wi),
            Guard::And(l, r) => l.word(masks, wi) & r.word(masks, wi),
            Guard::Or(l, r) => l.word(masks, wi) | r.word(masks, wi),
        }
    }
}

/// One atom as the fill sees it: which index digit it tests and, per
/// value of that digit, whether it holds.
struct Atom {
    /// Entries between two changes of the digit (product of the radices
    /// below the feature).
    stride: u64,
    /// `truth[digit]`: the [`AtomTest`] evaluated once per digit.
    truth: Vec<bool>,
}

/// Entries filled at a time. The fill's scratch is one `u64` per atom and
/// 64 entries of a block — independent of the size of the table.
const BLOCK_WORDS: usize = 64;
const BLOCK: u64 = 64 * BLOCK_WORDS as u64;

/// Sets bits `lo..hi` (`lo < hi`) of a bit vector.
fn set_bits(mask: &mut [u64], lo: usize, hi: usize) {
    let (first, last) = (lo / 64, (hi - 1) / 64);
    let head = !0u64 << (lo % 64);
    let tail = !0u64 >> (63 - (hi - 1) % 64);
    if first == last {
        mask[first] |= head & tail;
    } else {
        mask[first] |= head;
        mask[first + 1..last].fill(!0);
        mask[last] |= tail;
    }
}

impl Atom {
    /// Writes the atom's truth at entries `start..start + n` into `mask`,
    /// one run of equal digits at a time.
    fn fill_mask(&self, mask: &mut [u64], start: u64, n: usize) {
        mask.fill(0);
        let mut digit = (start / self.stride) as usize % self.truth.len();
        let mut run = self.stride - start % self.stride;
        let mut i = 0;
        while i < n {
            let end = i + run.min((n - i) as u64) as usize;
            if self.truth[digit] {
                set_bits(mask, i, end);
            }
            i = end;
            run = self.stride;
            digit = if digit + 1 == self.truth.len() { 0 } else { digit + 1 };
        }
    }
}

/// What filling the table yields, before it is phrased as warnings.
#[derive(Debug, PartialEq)]
struct Fill {
    table: Vec<Option<NonZeroU16>>,
    rule_applicable: Vec<u64>,
    /// `(winner, loser)` → entries where both applied and the conclusions
    /// differ.
    conflicts: BTreeMap<(usize, usize), u64>,
    gaps: u64,
}

/// Fills the table 64 entries per operation. Per block of [`BLOCK`]
/// entries every atom gets a bit mask; per word of the block the rules
/// are taken in source order and everything §4.3 resolves silently falls
/// out of masks and popcounts: a rule wins the applicable entries nobody
/// claimed before it, and conflicts with each earlier winner of another
/// conclusion class where both applied.
fn fill_by_words(entries: u64, atoms: &[Atom], guards: &[Guard], classes: &[usize]) -> Fill {
    let mut fill = Fill {
        table: vec![None; entries as usize],
        rule_applicable: vec![0; guards.len()],
        conflicts: BTreeMap::new(),
        gaps: 0,
    };
    let mut masks = vec![0u64; atoms.len() * BLOCK_WORDS];
    // rules that won entries of the current word, with the entries won
    let mut winners: Vec<(usize, u64)> = Vec::with_capacity(64);
    for start in (0..entries).step_by(BLOCK as usize) {
        let n = (entries - start).min(BLOCK) as usize;
        for (atom, mask) in atoms.iter().zip(masks.chunks_exact_mut(BLOCK_WORDS)) {
            atom.fill_mask(mask, start, n);
        }
        for wi in 0..n.div_ceil(64) {
            let base = start as usize + wi * 64;
            // the last word of the table may be ragged
            let mut unclaimed = !0u64 >> (64 - (n - wi * 64).min(64));
            let live = unclaimed;
            winners.clear();
            for (ri, guard) in guards.iter().enumerate() {
                let app = guard.word(&masks, wi) & live;
                if app == 0 {
                    continue;
                }
                fill.rule_applicable[ri] += app.count_ones() as u64;
                // identical conclusions are not a conflict: whichever
                // fires, the effect is the same
                for &(w, won) in &winners {
                    if app & won != 0 && classes[w] != classes[ri] {
                        *fill.conflicts.entry((w, ri)).or_insert(0) +=
                            (app & won).count_ones() as u64;
                    }
                }
                let mut take = app & unclaimed;
                if take != 0 {
                    winners.push((ri, take));
                    unclaimed &= !take;
                    let code = NonZeroU16::new((ri + 1) as u16);
                    while take != 0 {
                        fill.table[base + take.trailing_zeros() as usize] = code;
                        take &= take - 1;
                    }
                }
            }
            fill.gaps += unclaimed.count_ones() as u64;
        }
    }
    fill
}

/// The front half of compiling a rule base — everything but the fill:
/// the guard IR, the features it indexes by, and the table geometry,
/// refused here if it exceeds the limits.
pub(crate) struct Survey {
    fs: FeatureSet,
    premises: Vec<Expr>,
    pub(crate) entries: u64,
    pub(crate) width_bits: u32,
}

impl Survey {
    pub(crate) fn features(&self) -> &[Feature] {
        &self.fs.features
    }
}

/// Surveys one rule base; [`compile_rulebase`] is this plus the fill.
pub(crate) fn survey(prog: &Program, rb_idx: usize, opts: &CompileOptions) -> Result<Survey> {
    let rb = &prog.rulebases[rb_idx];
    let mut fs = FeatureSet::default();
    let premises: Result<Vec<Expr>> = rb
        .rules
        .iter()
        .map(|r| {
            let e = expand_quantifiers(prog, &r.premise)?;
            fold_consts(prog, &e)
        })
        .collect();
    let premises = premises?;
    for p in &premises {
        collect_atoms(prog, rb, p, &mut fs);
    }

    let entries: u64 =
        fs.features.iter().map(|f| f.size).try_fold(1u64, |a, b| a.checked_mul(b)).ok_or_else(
            || RuleError::Compile {
                rulebase: rb.name.clone(),
                msg: "feature space overflows u64".to_string(),
            },
        )?;
    if entries > opts.max_entries {
        return Err(RuleError::Compile {
            rulebase: rb.name.clone(),
            msg: format!(
                "feature space has {entries} entries (> {} limit); restructure the rules",
                opts.max_entries
            ),
        });
    }
    if rb.rules.len() > u16::MAX as usize - 1 {
        return Err(RuleError::Compile {
            rulebase: rb.name.clone(),
            msg: "too many rules".to_string(),
        });
    }

    // width: conclusion selector plus declared return field (documented
    // convention of the cost model — see cost.rs)
    let sel_bits = ceil_log2(rb.rules.len() as u64 + 1).max(1);
    let ret_bits = rb.returns.map_or(0, |t| t.width_bits(prog.sym_sizes()));
    Ok(Survey { fs, premises, entries, width_bits: sel_bits + ret_bits })
}

/// Phrases a fill's resolutions as warnings: one `Conflict` per
/// `(winner, loser)` pair in that order — `kind` is the pair's first
/// disagreement, so a pair that disagrees on several outputs still gets
/// one — then the gap count, if any.
fn warnings_of(rb: &RuleBase, fill: &Fill, total: u64) -> Vec<CompileWarning> {
    let mut warnings: Vec<CompileWarning> = fill
        .conflicts
        .iter()
        .map(|(&(winner, loser), &entries)| CompileWarning::Conflict {
            winner,
            loser,
            kind: conflict_kind(&rb.rules[winner].conclusion, &rb.rules[loser].conclusion),
            entries,
        })
        .collect();
    if fill.gaps > 0 {
        warnings.push(CompileWarning::Gaps { entries: fill.gaps, total });
    }
    warnings
}

/// Compiles one rule base to its filled table.
pub fn compile_rulebase(
    prog: &Program,
    rb_idx: usize,
    opts: &CompileOptions,
) -> Result<CompiledRuleBase> {
    let rb = &prog.rulebases[rb_idx];
    let Survey { fs, premises, entries, width_bits } = survey(prog, rb_idx, opts)?;

    // lower once: from here on the fill sees atom ids and truth tables,
    // never an `Expr` or a `Command`
    let radices: Vec<u64> = fs.features.iter().map(|f| f.size).collect();
    let atoms: Vec<Atom> = (0..fs.tests.len())
        .map(|id| {
            let fi = fs.tests[id].0;
            Atom {
                stride: radices[..fi].iter().product(),
                truth: (0..radices[fi]).map(|digit| fs.atom_holds(prog, id, digit)).collect(),
            }
        })
        .collect();
    let guards: Result<Vec<Guard>> = premises.iter().map(|p| Guard::lower(&fs, p)).collect();
    // rules with equal conclusions share a class: the first such rule
    let classes: Vec<usize> = (0..rb.rules.len())
        .map(|ri| {
            (0..ri).find(|&w| rb.rules[w].conclusion == rb.rules[ri].conclusion).unwrap_or(ri)
        })
        .collect();

    let fill = fill_by_words(entries, &atoms, &guards?, &classes);
    let warnings = warnings_of(rb, &fill, entries);
    Ok(CompiledRuleBase {
        rb: rb_idx,
        features: fs.features,
        radices,
        table: fill.table,
        entries,
        width_bits,
        warnings,
        rule_applicable: fill.rule_applicable,
        premises,
    })
}

/// Compiles every rule base of a program.
pub fn compile(prog: &Program, opts: &CompileOptions) -> Result<CompiledProgram> {
    let bases: Result<Vec<CompiledRuleBase>> =
        (0..prog.rulebases.len()).map(|i| compile_rulebase(prog, i, opts)).collect();
    Ok(CompiledProgram { prog: prog.clone(), bases: bases? })
}

/// The random well-typed programs of `tests/prop_rules.rs`, for the fill
/// differential below.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod generated;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use proptest::prelude::*;

    /// Raw table entry for rule `r` (1-based encoding); `nz(0)` is a gap.
    fn nz(e: u16) -> Option<NonZeroU16> {
        NonZeroU16::new(e)
    }

    #[test]
    fn direct_features_for_symbols() {
        let p = parse(
            "CONSTANT st = {safe, faulty}\n\
             VARIABLE state IN st INIT safe\n\
             ON f() RETURNS 0 TO 1\n\
               IF state = safe THEN RETURN(0);\n\
               IF state = faulty THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        // one direct feature of size 2 → 2 entries
        assert_eq!(c.features.len(), 1);
        assert!(matches!(c.features[0].kind, FeatureKind::Direct { .. }));
        assert_eq!(c.entries, 2);
        assert_eq!(c.table, vec![nz(1), nz(2)]); // safe→rule0, faulty→rule1
    }

    #[test]
    fn predicate_features_for_int_comparisons() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 1\n\
               IF n = 0 THEN RETURN(0);\n\
               IF n > 2 THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        // two predicate bits → 4 entries
        assert_eq!(c.features.len(), 2);
        assert!(c.features.iter().all(|f| matches!(f.kind, FeatureKind::Predicate { .. })));
        assert_eq!(c.entries, 4);
    }

    #[test]
    fn first_rule_wins_conflicts() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 1\n\
               IF n > 0 THEN RETURN(0);\n\
               IF n > 1 THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        // whenever both predicates hold, rule 0 is stored
        for (i, &e) in c.table.iter().enumerate() {
            let bits = (i & 1 != 0, i & 2 != 0); // (n>0, n>1)
            match bits {
                (true, _) => assert_eq!(e, nz(1)),
                (false, true) => assert_eq!(e, nz(2)), // unsatisfiable combo, filled anyway
                (false, false) => assert_eq!(e, None),
            }
        }
    }

    #[test]
    fn quantifier_expansion_over_bool_inputs() {
        let p = parse(
            "CONSTANT dirs = 0 TO 2\n\
             INPUT free[dirs] IN bool\n\
             ON f() RETURNS 0 TO 1\n\
               IF EXISTS i IN dirs: free(i) THEN RETURN(1);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        // three direct boolean features (free(0..2)) → 8 entries
        assert_eq!(c.features.len(), 3);
        assert_eq!(c.entries, 8);
        assert_eq!(c.table[0], nz(2)); // no free link → rule 1
        for e in &c.table[1..] {
            assert_eq!(*e, nz(1));
        }
    }

    #[test]
    fn entry_limit_enforced() {
        let p = parse(
            "CONSTANT dirs = 0 TO 15\n\
             INPUT free[dirs] IN bool\n\
             ON f() RETURNS 0 TO 1\n\
               IF EXISTS i IN dirs: free(i) THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let e = compile_rulebase(&p, 0, &CompileOptions { max_entries: 1 << 10 });
        assert!(matches!(e, Err(RuleError::Compile { .. })));

        // 2^40 entries: neither a table nor per-entry scratch of that size
        // can be allocated, so an `Err` means the refusal came first
        let p = parse(
            "CONSTANT dirs = 0 TO 39\n\
             INPUT free[dirs] IN bool\n\
             ON f() RETURNS 0 TO 1\n\
               IF EXISTS i IN dirs: free(i) THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let e = compile_rulebase(&p, 0, &CompileOptions::default());
        assert!(matches!(e, Err(RuleError::Compile { msg, .. }) if msg.contains("1099511627776")));
    }

    #[test]
    fn width_accounts_selector_and_return() {
        let p = parse(
            "VARIABLE n IN 0 TO 7\n\
             ON f() RETURNS 0 TO 7\n\
               IF n = 0 THEN RETURN(1);\n\
               IF n = 1 THEN RETURN(2);\n\
               IF n = 2 THEN RETURN(3);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        // selector: ceil(log2(4)) = 2, return: 3 bits
        assert_eq!(c.width_bits, 5);
    }

    #[test]
    fn subst_bound_shifts_outer_binders() {
        // EXISTS i IN s: EXISTS j IN s: i = j — after substituting i the
        // inner occurrence Bound(1) must become the literal.
        let p = parse(
            "CONSTANT dirs = 0 TO 1\n\
             ON f() RETURNS 0 TO 1\n\
               IF EXISTS i IN dirs: EXISTS j IN dirs: i = j THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        // i = j over literal pairs is constant-folded into the premises, so
        // no features at all → single always-true entry
        assert_eq!(c.entries, 1);
        assert_eq!(c.table, vec![nz(1)]);
    }

    #[test]
    fn conflicts_and_gaps_are_collected() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 3\n\
               IF n < 4 THEN RETURN(0);\n\
               IF n < 6 THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        // features: n<4 and n<6 → 4 abstract entries; both true at one of
        // them (conflict, resolved to rule 0), neither true at one (gap)
        assert!(c.warnings.contains(&CompileWarning::Conflict {
            winner: 0,
            loser: 1,
            kind: ConflictKind::Return,
            entries: 1
        }));
        assert!(c.warnings.iter().any(|w| matches!(w, CompileWarning::Gaps { entries: 1, .. })));
        // both rules are applicable somewhere, and both actually win somewhere
        assert!(c.rule_applicable.iter().all(|&n| n > 0));
        for r in [1u16, 2] {
            assert!(c.table.contains(&nz(r)));
        }
    }

    #[test]
    fn multi_output_conflict_yields_single_warning() {
        // the pair disagrees on BOTH a register write and the return
        // value; dedupe by (winner, loser, kind) must leave exactly one
        // Conflict, classified by the first disagreement in command order
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             VARIABLE m IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 3\n\
               IF n < 4 THEN m <- 1, RETURN(0);\n\
               IF n < 6 THEN m <- 2, RETURN(1);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        let conflicts: Vec<_> =
            c.warnings.iter().filter(|w| matches!(w, CompileWarning::Conflict { .. })).collect();
        assert_eq!(conflicts.len(), 1, "one warning per conflicting pair: {conflicts:?}");
        assert!(matches!(
            conflicts[0],
            CompileWarning::Conflict { winner: 0, loser: 1, kind: ConflictKind::Register, .. }
        ));
    }

    #[test]
    fn expanded_premises_are_exposed() {
        let p = parse(
            "CONSTANT dirs = 0 TO 2\n\
             INPUT free[dirs] IN bool\n\
             ON f() RETURNS 0 TO 1\n\
               IF EXISTS i IN dirs: free(i) THEN RETURN(1);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        assert_eq!(c.premises.len(), 2);
        // the quantifier is gone from the exposed guard IR
        fn has_quant(e: &Expr) -> bool {
            match e {
                Expr::Quant { .. } => true,
                Expr::Un(_, i) => has_quant(i),
                Expr::Bin(_, l, r) => has_quant(l) || has_quant(r),
                _ => false,
            }
        }
        assert!(!has_quant(&c.premises[0]));
        assert_eq!(c.premises[1], Expr::Lit(Value::Bool(true)));
    }

    #[test]
    fn identical_conclusions_are_not_conflicts() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 3\n\
               IF n < 4 THEN RETURN(0);\n\
               IF TRUE THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let c = compile_rulebase(&p, 0, &CompileOptions::default()).unwrap();
        assert!(c.warnings.iter().all(|w| !matches!(w, CompileWarning::Conflict { .. })));
        // the catch-all also eliminates gaps
        assert!(c.warnings.is_empty());
    }

    // -- the fill differential: the per-entry evaluator the word fill
    // replaced, kept as the oracle it must agree with ---------------------

    /// Evaluates an expanded premise under an abstract feature assignment.
    fn abstract_eval(prog: &Program, fs: &FeatureSet, assignment: &[u64], e: &Expr) -> bool {
        match e {
            Expr::Lit(Value::Bool(b)) => *b,
            Expr::Bin(BinOp::And, l, r) => {
                abstract_eval(prog, fs, assignment, l) && abstract_eval(prog, fs, assignment, r)
            }
            Expr::Bin(BinOp::Or, l, r) => {
                abstract_eval(prog, fs, assignment, l) || abstract_eval(prog, fs, assignment, r)
            }
            Expr::Un(UnOp::Not, inner) => !abstract_eval(prog, fs, assignment, inner),
            atom => {
                let id = fs.atoms[atom];
                fs.atom_holds(prog, id, assignment[fs.tests[id].0])
            }
        }
    }

    /// Fills the table one entry at a time by mixed-radix enumeration of
    /// the feature space, walking every premise `Expr` at every entry.
    fn fill_by_entry(prog: &Program, rb: &RuleBase, s: &Survey) -> Fill {
        let radices: Vec<u64> = s.fs.features.iter().map(|f| f.size).collect();
        let mut fill = Fill {
            table: vec![None; s.entries as usize],
            rule_applicable: vec![0; rb.rules.len()],
            conflicts: BTreeMap::new(),
            gaps: 0,
        };
        let mut assignment = vec![0u64; radices.len()];
        for entry in fill.table.iter_mut() {
            let mut winner: Option<usize> = None;
            for (ri, prem) in s.premises.iter().enumerate() {
                if abstract_eval(prog, &s.fs, &assignment, prem) {
                    fill.rule_applicable[ri] += 1;
                    match winner {
                        None => winner = Some(ri),
                        Some(w) if rb.rules[w].conclusion != rb.rules[ri].conclusion => {
                            *fill.conflicts.entry((w, ri)).or_insert(0) += 1;
                        }
                        Some(_) => {}
                    }
                }
            }
            match winner {
                Some(w) => *entry = NonZeroU16::new((w + 1) as u16),
                None => fill.gaps += 1,
            }
            // increment mixed-radix counter (first feature = least significant)
            for (a, r) in assignment.iter_mut().zip(&radices) {
                *a += 1;
                if *a < *r {
                    break;
                }
                *a = 0;
            }
        }
        fill
    }

    /// Compiles every base of `src` both ways and requires equal tables,
    /// applicability counts, warnings and gap totals.
    fn assert_fills_agree(src: &str) -> CompiledProgram {
        let prog = parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let opts = CompileOptions::default();
        let compiled = compile(&prog, &opts).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for (i, (rb, c)) in prog.rulebases.iter().zip(&compiled.bases).enumerate() {
            let s = survey(&prog, i, &opts).unwrap();
            let oracle = fill_by_entry(&prog, rb, &s);
            assert_eq!(c.table, oracle.table, "table of `{}`\n{src}", rb.name);
            assert_eq!(c.rule_applicable, oracle.rule_applicable, "`{}`\n{src}", rb.name);
            assert_eq!(c.warnings, warnings_of(rb, &oracle, s.entries), "`{}`\n{src}", rb.name);
            let unfilled = c.table.iter().filter(|e| e.is_none()).count() as u64;
            assert_eq!(unfilled, oracle.gaps, "gaps of `{}`\n{src}", rb.name);
        }
        compiled
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn word_fill_equals_entry_fill_on_generated_programs(
            premises in proptest::collection::vec(generated::arb_premise(), 1..6),
            conclusions in proptest::collection::vec(generated::arb_conclusion(), 6),
        ) {
            assert_fills_agree(&generated::gen_program(&premises, &conclusions[..premises.len()]));
        }
    }

    #[test]
    fn word_fill_equals_entry_fill_below_one_word() {
        // radices 3 * 5 * 2 = 30 entries: less than a word, not a power of two
        let c = assert_fills_agree(
            "CONSTANT a = {a0, a1, a2}\n\
             CONSTANT b = {b0, b1, b2, b3, b4}\n\
             VARIABLE x IN a INIT a0\n\
             VARIABLE y IN b INIT b0\n\
             INPUT go IN bool\n\
             ON f() RETURNS 0 TO 7\n\
               IF x = a1 AND y IN {b1, b3} THEN RETURN(1);\n\
               IF NOT go AND NOT (y = b4) THEN RETURN(2);\n\
               IF x IN {a0, a2} OR go THEN RETURN(3);\n\
               IF y = b4 THEN RETURN(2);\n\
             END f;",
        );
        assert_eq!(c.bases[0].radices, vec![3, 5, 2]);
    }

    #[test]
    fn word_fill_equals_entry_fill_across_blocks() {
        // 3^8 = 6561 entries: one full block, then a ragged one that ends
        // inside a word (6561 = 4096 + 38 * 64 + 33)
        let c = assert_fills_agree(
            "CONSTANT tri = {t0, t1, t2}\n\
             CONSTANT idx = 0 TO 7\n\
             VARIABLE s[idx] IN tri INIT t0\n\
             ON f() RETURNS 0 TO 7\n\
               IF FORALL i IN idx: s(i) = t0 THEN RETURN(0);\n\
               IF s(3) IN {t1, t2} AND NOT (s(7) = t2) THEN s(0) <- t1, RETURN(1);\n\
               IF EXISTS i IN idx: s(i) = t1 THEN RETURN(2);\n\
               IF s(7) = t2 AND s(0) = t2 THEN RETURN(1);\n\
             END f;",
        );
        let b = &c.bases[0];
        assert_eq!(b.entries, 6561);
        assert!(b.entries > BLOCK && !b.entries.is_multiple_of(64));
        assert!(b.warnings.iter().any(|w| matches!(w, CompileWarning::Gaps { .. })));
        assert!(b.warnings.iter().any(|w| matches!(w, CompileWarning::Conflict { .. })));
    }

    #[test]
    fn a_base_without_rules_is_all_gaps() {
        let c = assert_fills_agree("ON f() RETURNS 0 TO 1\nEND f;");
        let b = &c.bases[0];
        assert_eq!(b.table, vec![None]);
        assert_eq!(b.warnings, vec![CompileWarning::Gaps { entries: 1, total: 1 }]);
    }

    #[test]
    fn word_fill_equals_entry_fill_on_constant_premises() {
        // fold_consts leaves literal guards behind: FALSE never applies,
        // TRUE applies at every entry of a table other rules gave its size
        let c = assert_fills_agree(
            "CONSTANT dirs = 0 TO 2\n\
             INPUT go IN bool\n\
             ON f() RETURNS 0 TO 3\n\
               IF EXISTS i IN dirs: i = 5 THEN RETURN(3);\n\
               IF go AND 1 = 2 THEN RETURN(2);\n\
               IF go THEN RETURN(1);\n\
               IF FORALL i IN dirs: i < 3 THEN RETURN(0);\n\
             END f;",
        );
        let b = &c.bases[0];
        assert_eq!(b.premises[0], Expr::Lit(Value::Bool(false)));
        assert_eq!(b.premises[3], Expr::Lit(Value::Bool(true)));
        assert_eq!(b.rule_applicable, vec![0, 0, 1, 2]);
        assert_eq!(b.table, vec![nz(4), nz(3)]);
    }

    #[test]
    fn word_fill_equals_entry_fill_on_conflicting_pairs() {
        // rules 0 and 2 apply together and conclude the same: no conflict;
        // rules 0 and 1 disagree on a register and on the return: one
        let c = assert_fills_agree(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             VARIABLE m IN 0 TO 7 INIT 0\n\
             ON f() RETURNS 0 TO 3\n\
               IF n < 4 THEN m <- 1, RETURN(0);\n\
               IF n < 6 THEN m <- 2, RETURN(1);\n\
               IF TRUE THEN m <- 1, RETURN(0);\n\
             END f;",
        );
        assert_eq!(
            c.bases[0].warnings,
            vec![
                CompileWarning::Conflict {
                    winner: 0,
                    loser: 1,
                    kind: ConflictKind::Register,
                    entries: 1
                },
                CompileWarning::Conflict {
                    winner: 1,
                    loser: 2,
                    kind: ConflictKind::Register,
                    entries: 1
                },
            ]
        );
    }
}
