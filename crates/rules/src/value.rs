//! Runtime values and finite domains.
//!
//! The paper restricts data types to "integers within finite ranges,
//! discrete symbols, the union of these two, and subsets of these" (§4.2) so
//! that every declaration maps to a fixed number of hardware bits. A
//! [`Domain`] is such a finite scalar carrier; a [`Value`] is either a
//! scalar drawn from a domain or a subset of one (bitmask, domains ≤ 64
//! elements).

use crate::error::{Result, RuleError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A finite scalar carrier set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Integers `lo..=hi`.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Values of the symbol type with this index in the program.
    Sym(usize),
    /// Booleans.
    Bool,
}

impl Domain {
    /// Number of elements, given the size of each symbol type (needed for
    /// [`Domain::Sym`]; [`crate::ast::Program::sym_sizes`] has them).
    #[inline]
    pub fn size(&self, sym_sizes: &[usize]) -> u64 {
        match *self {
            Domain::Int { lo, hi } => (hi - lo + 1) as u64,
            Domain::Sym(t) => sym_sizes[t] as u64,
            Domain::Bool => 2,
        }
    }

    /// Bits needed to store one element (`ceil(log2(size))`, min 1).
    pub fn width_bits(&self, sym_sizes: &[usize]) -> u32 {
        let n = self.size(sym_sizes);
        ceil_log2(n).max(1)
    }

    /// The `k`-th element of the domain in canonical order.
    #[inline]
    pub fn value_at(&self, k: u64) -> Value {
        match *self {
            Domain::Int { lo, .. } => Value::Int(lo + k as i64),
            Domain::Sym(t) => Value::Sym { ty: t, idx: k as u32 },
            Domain::Bool => Value::Bool(k != 0),
        }
    }

    /// Canonical ordinal of a value, or `None` if it is outside the domain
    /// or of the wrong kind.
    #[inline]
    pub fn ordinal(&self, v: &Value, sym_sizes: &[usize]) -> Option<u64> {
        match (*self, v) {
            (Domain::Int { lo, hi }, Value::Int(x)) if (lo..=hi).contains(x) => {
                Some((x - lo) as u64)
            }
            (Domain::Sym(t), Value::Sym { ty, idx }) if *ty == t => {
                ((*idx as usize) < sym_sizes[t]).then_some(*idx as u64)
            }
            (Domain::Bool, Value::Bool(b)) => Some(u64::from(*b)),
            _ => None,
        }
    }

    /// True if `v` is an element.
    #[inline]
    pub fn contains(&self, v: &Value, sym_sizes: &[usize]) -> bool {
        self.ordinal(v, sym_sizes).is_some()
    }
}

/// `ceil(log2(n))` for table/width accounting; 0 for n <= 1.
pub fn ceil_log2(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// The `n` lowest bits set: the bits of a set mask that stand for elements
/// of an `n`-element domain (`n >= 64` keeps all of them).
#[inline]
pub fn low_mask(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The type of an expression: a scalar from a domain, or a subset of one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// A single element of the domain.
    Scalar(Domain),
    /// A subset of the domain (bitmask representation, size ≤ 64).
    Set(Domain),
}

impl Type {
    /// The underlying element domain.
    pub fn domain(&self) -> Domain {
        match *self {
            Type::Scalar(d) | Type::Set(d) => d,
        }
    }

    /// Storage width in bits: scalar = element width, set = one bit per
    /// element (the paper's hardware mapping).
    pub fn width_bits(&self, sym_sizes: &[usize]) -> u32 {
        match *self {
            Type::Scalar(d) => d.width_bits(sym_sizes),
            Type::Set(d) => d.size(sym_sizes) as u32,
        }
    }
}

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// Integer (held as `i64`; the declared domain bounds it).
    Int(i64),
    /// Symbol `idx` of symbol type `ty`.
    Sym {
        /// Symbol-type index in the program.
        ty: usize,
        /// Symbol index within the type.
        idx: u32,
    },
    /// Boolean.
    Bool(bool),
    /// Subset of `dom` as a bitmask over canonical ordinals.
    Set {
        /// Element domain.
        dom: Domain,
        /// Bit `k` set ⇔ `dom.value_at(k)` is a member.
        mask: u64,
    },
}

impl Value {
    /// Extracts an integer or errors.
    #[inline]
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(other.is_not("integer")),
        }
    }

    /// Extracts a boolean or errors.
    #[inline]
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.is_not("boolean")),
        }
    }

    /// Extracts a set or errors.
    #[inline]
    pub fn as_set(&self) -> Result<(Domain, u64)> {
        match self {
            Value::Set { dom, mask } => Ok((*dom, *mask)),
            other => Err(other.is_not("set")),
        }
    }

    #[cold]
    fn is_not(&self, kind: &str) -> RuleError {
        RuleError::eval(format!("expected {kind}, got {self:?}"))
    }

    /// The full set over a domain.
    pub fn full_set(dom: Domain, sym_sizes: &[usize]) -> Result<Value> {
        let n = dom.size(sym_sizes);
        if n > 64 {
            return Err(RuleError::eval(format!("set domain too large ({n} > 64 elements)")));
        }
        Ok(Value::Set { dom, mask: low_mask(n) })
    }

    /// The empty set over a domain.
    pub fn empty_set(dom: Domain) -> Value {
        Value::Set { dom, mask: 0 }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Sym { ty, idx } => write!(f, "sym{ty}.{idx}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Set { mask, .. } => write!(f, "set({mask:#b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_SYMS: &[usize] = &[];
    const SYMS: &[usize] = &[5, 3];

    #[test]
    fn int_domain_ordinals_roundtrip() {
        let d = Domain::Int { lo: -2, hi: 5 };
        assert_eq!(d.size(NO_SYMS), 8);
        assert_eq!(d.width_bits(NO_SYMS), 3);
        for k in 0..8 {
            let v = d.value_at(k);
            assert_eq!(d.ordinal(&v, NO_SYMS), Some(k));
        }
        assert_eq!(d.ordinal(&Value::Int(6), NO_SYMS), None);
        assert_eq!(d.ordinal(&Value::Bool(true), NO_SYMS), None);
    }

    #[test]
    fn sym_domain_checks_type() {
        let d = Domain::Sym(0);
        assert_eq!(d.size(SYMS), 5);
        assert_eq!(d.width_bits(SYMS), 3);
        assert_eq!(d.ordinal(&Value::Sym { ty: 0, idx: 4 }, SYMS), Some(4));
        assert_eq!(d.ordinal(&Value::Sym { ty: 1, idx: 0 }, SYMS), None);
        assert_eq!(d.ordinal(&Value::Sym { ty: 0, idx: 5 }, SYMS), None);
    }

    #[test]
    fn bool_domain() {
        let d = Domain::Bool;
        assert_eq!(d.size(NO_SYMS), 2);
        assert_eq!(d.width_bits(NO_SYMS), 1);
        assert_eq!(d.value_at(1), Value::Bool(true));
    }

    #[test]
    fn ceil_log2_table() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn set_width_is_one_bit_per_element() {
        let t = Type::Set(Domain::Int { lo: 0, hi: 6 });
        assert_eq!(t.width_bits(NO_SYMS), 7);
        let s = Type::Scalar(Domain::Int { lo: 0, hi: 6 });
        assert_eq!(s.width_bits(NO_SYMS), 3);
    }

    #[test]
    fn full_and_empty_sets() {
        let d = Domain::Int { lo: 0, hi: 3 };
        let full = Value::full_set(d, NO_SYMS).unwrap();
        assert_eq!(full.as_set().unwrap().1, 0b1111);
        assert_eq!(Value::empty_set(d).as_set().unwrap().1, 0);
        let too_big = Domain::Int { lo: 0, hi: 80 };
        assert!(Value::full_set(too_big, NO_SYMS).is_err());
    }
}
