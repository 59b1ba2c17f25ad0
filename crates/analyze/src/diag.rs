//! Structured diagnostics with stable lint codes and source spans.
//!
//! Every finding of the rule-base linter is a [`Diagnostic`]: a stable
//! [`LintCode`] (never renumbered, so CI greps and suppression lists stay
//! valid), a [`Severity`], the position of the offending declaration or
//! rule (1-based line/column from the parser), and a human-readable
//! message. A program is *clean* when it produces nothing at warning
//! severity or above — notes record intentional rule-language idioms
//! (source-order conflict resolution, host-read registers) that are worth
//! surfacing but not fixing.

use ftr_rules::error::Pos;
use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Intentional-but-noteworthy: silently order-resolved conflicts,
    /// write-only (host-read) registers, gaps in non-returning bases.
    Note,
    /// Almost certainly a defect: shadowed rules, unused declarations,
    /// gaps in a returning base.
    Warning,
    /// A guaranteed runtime failure: a literal outside its domain.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable lint codes. The numeric part never changes meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// FTR001: a rule's premise is satisfiable but an earlier rule wins at
    /// every feature-space entry, so the rule can never fire.
    ShadowedRule,
    /// FTR002: a rule's premise is false at every entry of the abstract
    /// feature space (e.g. `state = safe AND state = faulty`).
    UnsatisfiablePremise,
    /// FTR003: two rules apply at the same entries with *different*
    /// conclusions; §4.3 resolves this silently by source order.
    RuleConflict,
    /// FTR004: feature-space entries with no applicable rule compile to
    /// the no-op entry 0 (the gap-coverage report).
    GapCoverage,
    /// FTR005: a literal value outside the declared domain of a return
    /// type, register, or index — guaranteed to fail at runtime.
    DomainViolation,
    /// FTR006: a register no rule ever reads (warning if also never
    /// written; note if write-only, since the host may read it).
    UnusedRegister,
    /// FTR007: a declared input no rule ever reads.
    UnusedInput,
    /// FTR008: one conclusion writes the same register cell twice with
    /// different values — the parallel-execution semantics of §4.2 make
    /// this a runtime error.
    ParallelWriteConflict,
    /// FTR009: the abstract-interpretation engine proves a rule's guard
    /// unsatisfiable over the value domains (interval/mask/set) even
    /// though the propositional table lints (FTR001/FTR002) cannot see
    /// it — e.g. `n < 2 AND n > 5` over two independent feature bits.
    AbsintUnreachable,
    /// FTR010: a rule's guard semantically entails an earlier rule's
    /// guard, so source-order conflict resolution means the later rule
    /// can never win even though the table shows applicable entries.
    SemanticShadow,
    /// FTR011: a register provably holds a single value at every
    /// decision point under the program's own writes (host writes are
    /// the optimizer's concern, so this stays a note).
    ConstantRegister,
    /// FTR012: an atom inside a reachable rule's guard has a forced
    /// truth value under the declared domains and topology facts.
    ConstantAtom,
}

impl LintCode {
    /// The stable `FTRnnn_slug` identifier.
    pub fn id(self) -> &'static str {
        match self {
            LintCode::ShadowedRule => "FTR001_shadowed_rule",
            LintCode::UnsatisfiablePremise => "FTR002_unsatisfiable_premise",
            LintCode::RuleConflict => "FTR003_rule_conflict",
            LintCode::GapCoverage => "FTR004_gap_coverage",
            LintCode::DomainViolation => "FTR005_domain_violation",
            LintCode::UnusedRegister => "FTR006_unused_register",
            LintCode::UnusedInput => "FTR007_unused_input",
            LintCode::ParallelWriteConflict => "FTR008_parallel_write_conflict",
            LintCode::AbsintUnreachable => "FTR009_absint_unreachable",
            LintCode::SemanticShadow => "FTR010_semantic_shadow",
            LintCode::ConstantRegister => "FTR011_constant_register",
            LintCode::ConstantAtom => "FTR012_constant_atom",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One linter finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Severity of this particular instance (some codes vary by context).
    pub severity: Severity,
    /// Program name (file stem or builtin name) for the `file:line:col`
    /// prefix.
    pub program: String,
    /// Source position of the offending rule or declaration, when known.
    pub pos: Option<Pos>,
    /// Rule base the finding belongs to, when it is base-scoped.
    pub rulebase: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{}:{}:{}: ", self.program, p.line, p.col)?,
            None => write!(f, "{}: ", self.program)?,
        }
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(rb) = &self.rulebase {
            write!(f, " (in rule base `{rb}`)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(LintCode::ShadowedRule.id(), "FTR001_shadowed_rule");
        assert_eq!(LintCode::ParallelWriteConflict.id(), "FTR008_parallel_write_conflict");
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_includes_span_and_code() {
        let d = Diagnostic {
            code: LintCode::DomainViolation,
            severity: Severity::Error,
            program: "broken".into(),
            pos: Some(Pos { line: 7, col: 3 }),
            rulebase: Some("route_msg".into()),
            message: "RETURN(99) outside 0 TO 15".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("broken:7:3: error[FTR005_domain_violation]"), "{s}");
        assert!(s.ends_with("(in rule base `route_msg`)"), "{s}");
    }
}
