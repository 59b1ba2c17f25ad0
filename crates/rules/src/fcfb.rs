//! Free Configurable Function Block (FCFB) inventory.
//!
//! The hardware interpreter of Figure 6 implements "predicates and
//! functions (e.g. subtraction, addition, priority detection etc.)" as
//! configurable blocks shared between premise and conclusion processing.
//! This module walks a rule base and derives the set of FCFBs it needs —
//! the "FCFBs" column of Tables 1 and 2. Direct features (symbol values
//! wired straight into the table index) need no block; everything computed
//! does.

use crate::ast::*;
use crate::value::{Domain, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Kinds of configurable function blocks, mirroring the units named in the
/// paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FcfbKind {
    /// Integer comparison between two computed values.
    MagnitudeComparator,
    /// Integer comparison against a constant.
    CompareConst,
    /// Equality with zero / empty-set test.
    ZeroCheck,
    /// General addition.
    Adder,
    /// General subtraction.
    Subtractor,
    /// `x <- x + 1` in a conclusion (the paper's "conditional increment").
    ConditionalIncrement,
    /// `x <- x - 1` in a conclusion.
    Decrementor,
    /// Minimum/maximum selection (`min`, `max`, `argmin`, `argmax`).
    MinSelection,
    /// Membership test against a runtime set.
    MembershipTest,
    /// Set union.
    SetUnion,
    /// Set difference.
    SetSubtraction,
    /// Set intersection.
    SetIntersection,
    /// Computation in a finite lattice (`latmax` on ordered symbols).
    LatticeCompute,
    /// Bit-level logic (xor, popcount, bit extract, set equality,
    /// cardinality — the "logical unit, d bits wide" of Table 2).
    LogicalUnit,
    /// Mesh distance computation (`absdiff`).
    MeshDistance,
    /// Multiplier (rare; flagged so its cost stands out).
    Multiplier,
}

impl fmt::Display for FcfbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FcfbKind::MagnitudeComparator => "magnitude comparator",
            FcfbKind::CompareConst => "compare with constant",
            FcfbKind::ZeroCheck => "zero check",
            FcfbKind::Adder => "adder",
            FcfbKind::Subtractor => "subtractor",
            FcfbKind::ConditionalIncrement => "conditional increment",
            FcfbKind::Decrementor => "decrementor",
            FcfbKind::MinSelection => "minimum selection",
            FcfbKind::MembershipTest => "membership testing",
            FcfbKind::SetUnion => "set union",
            FcfbKind::SetSubtraction => "set subtraction",
            FcfbKind::SetIntersection => "set intersection",
            FcfbKind::LatticeCompute => "computation in a finite lattice",
            FcfbKind::LogicalUnit => "logical unit",
            FcfbKind::MeshDistance => "mesh distance computation",
            FcfbKind::Multiplier => "multiplier",
        };
        f.write_str(s)
    }
}

/// FCFB requirements of one rule base: kind → number of distinct
/// (structurally different) uses.
pub type FcfbInventory = BTreeMap<FcfbKind, usize>;

/// Collects the FCFB inventory of a rule base (premises + conclusions).
/// Structurally identical expressions share a block, mirroring the paper's
/// "common pool of resources".
pub fn inventory(prog: &Program, rb: &RuleBase) -> FcfbInventory {
    let mut seen: Vec<(FcfbKind, Expr)> = Vec::new();
    for rule in &rb.rules {
        walk_expr(prog, rb, &rule.premise, &mut seen);
        for cmd in &rule.conclusion {
            walk_command(prog, rb, cmd, &mut seen);
        }
    }
    let mut inv = FcfbInventory::new();
    for (kind, _) in seen {
        *inv.entry(kind).or_insert(0) += 1;
    }
    inv
}

fn note(kind: FcfbKind, e: &Expr, seen: &mut Vec<(FcfbKind, Expr)>) {
    if !seen.iter().any(|(k, x)| *k == kind && x == e) {
        seen.push((kind, e.clone()));
    }
}

/// A constant integer expression (`d - 1`): hardware wires it in, so it
/// needs no block and compares as a literal.
fn is_int_lit(prog: &Program, e: &Expr) -> bool {
    matches!(prog.const_value(e), Some(Value::Int(_)))
}

fn is_zero_lit(prog: &Program, e: &Expr) -> bool {
    prog.const_value(e) == Some(Value::Int(0))
}

fn is_sym_or_bool_subject(prog: &Program, rb: &RuleBase, e: &Expr) -> bool {
    matches!(prog.subject_domain(rb, e), Some(Domain::Sym(_) | Domain::Bool))
}

fn walk_expr(prog: &Program, rb: &RuleBase, e: &Expr, seen: &mut Vec<(FcfbKind, Expr)>) {
    if is_int_lit(prog, e) {
        return;
    }
    match e {
        Expr::Lit(_) | Expr::Ref(_) => {}
        Expr::Indexed { indices, .. } => {
            for i in indices {
                walk_expr(prog, rb, i, seen);
            }
        }
        Expr::Un(_, inner) => walk_expr(prog, rb, inner, seen),
        Expr::Bin(op, l, r) => {
            walk_expr(prog, rb, l, seen);
            walk_expr(prog, rb, r, seen);
            match op {
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    if is_int_lit(prog, l) || is_int_lit(prog, r) {
                        note(FcfbKind::CompareConst, e, seen);
                    } else {
                        note(FcfbKind::MagnitudeComparator, e, seen);
                    }
                }
                BinOp::Eq | BinOp::Ne => {
                    // symbol/bool vs literal wires directly into the index
                    let sym_direct = (matches!(&**r, Expr::Lit(_))
                        && is_sym_or_bool_subject(prog, rb, l))
                        || (matches!(&**l, Expr::Lit(_)) && is_sym_or_bool_subject(prog, rb, r));
                    if sym_direct {
                        // no FCFB needed
                    } else if is_zero_lit(prog, l) || is_zero_lit(prog, r) {
                        note(FcfbKind::ZeroCheck, e, seen);
                    } else if is_int_lit(prog, l) || is_int_lit(prog, r) {
                        note(FcfbKind::CompareConst, e, seen);
                    } else {
                        note(FcfbKind::MagnitudeComparator, e, seen);
                    }
                }
                BinOp::In => {
                    // membership against a literal set of symbols is direct;
                    // runtime sets need a membership-test unit
                    let direct = matches!(&**r, Expr::Lit(Value::Set { .. }))
                        && is_sym_or_bool_subject(prog, rb, l);
                    if !direct {
                        note(FcfbKind::MembershipTest, e, seen);
                    }
                }
                BinOp::Add => note(FcfbKind::Adder, e, seen),
                BinOp::Sub => note(FcfbKind::Subtractor, e, seen),
                BinOp::Mul => note(FcfbKind::Multiplier, e, seen),
                BinOp::And | BinOp::Or => {}
            }
        }
        Expr::Quant { set, body, .. } => {
            walk_expr(prog, rb, set, seen);
            walk_expr(prog, rb, body, seen);
        }
        Expr::Call { builtin, args } => {
            for a in args {
                walk_expr(prog, rb, a, seen);
            }
            let kind = match builtin {
                Builtin::Min | Builtin::Max | Builtin::ArgMin(_) | Builtin::ArgMax(_) => {
                    FcfbKind::MinSelection
                }
                Builtin::AbsDiff => FcfbKind::MeshDistance,
                Builtin::Xor | Builtin::Popcount | Builtin::Bit | Builtin::Card => {
                    FcfbKind::LogicalUnit
                }
                Builtin::LatMax => FcfbKind::LatticeCompute,
                Builtin::Union | Builtin::Include => FcfbKind::SetUnion,
                Builtin::Isect => FcfbKind::SetIntersection,
                Builtin::Diff | Builtin::Exclude => FcfbKind::SetSubtraction,
            };
            note(kind, e, seen);
        }
    }
}

fn walk_command(prog: &Program, rb: &RuleBase, c: &Command, seen: &mut Vec<(FcfbKind, Expr)>) {
    match c {
        Command::Assign { var, indices, value } => {
            for i in indices {
                walk_expr(prog, rb, i, seen);
            }
            // conditional increment/decrement pattern: x <- x ± 1
            let self_ref = if indices.is_empty() {
                Expr::Ref(Ref::Var(*var))
            } else {
                Expr::Indexed { target: IndexedRef::Var(*var), indices: indices.clone() }
            };
            match value {
                Expr::Bin(BinOp::Add, l, r)
                    if **l == self_ref && matches!(**r, Expr::Lit(Value::Int(1))) =>
                {
                    note(FcfbKind::ConditionalIncrement, value, seen);
                }
                Expr::Bin(BinOp::Sub, l, r)
                    if **l == self_ref && matches!(**r, Expr::Lit(Value::Int(1))) =>
                {
                    note(FcfbKind::Decrementor, value, seen);
                }
                other => walk_expr(prog, rb, other, seen),
            }
        }
        Command::Return(e) => walk_expr(prog, rb, e, seen),
        Command::Emit { args, .. } => {
            for a in args {
                walk_expr(prog, rb, a, seen);
            }
        }
        Command::ForAll { set, body, .. } => {
            walk_expr(prog, rb, set, seen);
            for b in body {
                walk_command(prog, rb, b, seen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn inv_of(src: &str) -> FcfbInventory {
        let p = parse(src).unwrap();
        inventory(&p, &p.rulebases[0])
    }

    #[test]
    fn symbol_equality_needs_no_fcfb() {
        let inv = inv_of(
            "CONSTANT st = {a, b}\nVARIABLE s IN st\n\
             ON f() IF s = a THEN s <- b; END f;",
        );
        assert!(inv.is_empty(), "{inv:?}");
    }

    #[test]
    fn zero_check_and_const_compare() {
        let inv = inv_of(
            "VARIABLE n IN 0 TO 7\n\
             ON f() IF n = 0 OR n > 2 THEN n <- 1; END f;",
        );
        assert_eq!(inv.get(&FcfbKind::ZeroCheck), Some(&1));
        assert_eq!(inv.get(&FcfbKind::CompareConst), Some(&1));
        // a constant expression is wired in, like a literal
        let src = "CONSTANT k = 3\nVARIABLE n IN 0 TO 7\nON f() IF n = k - 3 OR n > k - 1 THEN n <- 1; END f;";
        assert_eq!(inv_of(src), inv);
    }

    #[test]
    fn conditional_increment_detected() {
        let inv = inv_of(
            "VARIABLE n IN 0 TO 7\nVARIABLE m IN 0 TO 7\n\
             ON f() IF n = 0 THEN n <- n + 1, m <- m - 1; END f;",
        );
        assert_eq!(inv.get(&FcfbKind::ConditionalIncrement), Some(&1));
        assert_eq!(inv.get(&FcfbKind::Decrementor), Some(&1));
        assert_eq!(inv.get(&FcfbKind::Adder), None, "x<-x+1 is an increment, not an adder");
    }

    #[test]
    fn decrementor_detected() {
        let inv = inv_of(
            "VARIABLE n IN 0 TO 7\n\
             ON f() IF n > 0 THEN n <- n - 1; END f;",
        );
        assert_eq!(inv.get(&FcfbKind::Decrementor), Some(&1));
    }

    #[test]
    fn min_selection_and_membership() {
        let inv = inv_of(
            "CONSTANT dirs = 0 TO 3\n\
             INPUT q[dirs] IN 0 TO 9\n\
             VARIABLE s IN SETOF dirs\n\
             ON f(i IN dirs) RETURNS dirs\n\
               IF i IN s THEN RETURN(argmin(q, s));\n\
             END f;",
        );
        assert_eq!(inv.get(&FcfbKind::MinSelection), Some(&1));
        assert_eq!(inv.get(&FcfbKind::MembershipTest), Some(&1));
    }

    #[test]
    fn shared_expressions_counted_once() {
        let inv = inv_of(
            "VARIABLE n IN 0 TO 7\n\
             ON f() RETURNS 0 TO 1\n\
               IF n > 2 THEN RETURN(0);\n\
               IF n > 2 OR n = 0 THEN RETURN(1);\n\
             END f;",
        );
        // `n > 2` appears twice but is one block
        assert_eq!(inv.get(&FcfbKind::CompareConst), Some(&1));
        assert_eq!(inv.get(&FcfbKind::ZeroCheck), Some(&1));
    }

    #[test]
    fn lattice_and_set_ops() {
        let inv = inv_of(
            "CONSTANT st = {lo, mid, hi}\n\
             VARIABLE a IN st\nVARIABLE s IN SETOF st\n\
             ON f(x IN st)\n\
               IF TRUE THEN a <- latmax(a, x), s <- union(s, {mid}), s <- diff(s, {lo});\n\
             END f;",
        );
        assert_eq!(inv.get(&FcfbKind::LatticeCompute), Some(&1));
        assert_eq!(inv.get(&FcfbKind::SetUnion), Some(&1));
        assert_eq!(inv.get(&FcfbKind::SetSubtraction), Some(&1));
    }
}
