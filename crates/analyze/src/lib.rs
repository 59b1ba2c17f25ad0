//! Static analysis for fault-tolerant-router rule programs.
//!
//! Two layers, matching the two ways a rule base can be wrong:
//!
//! * **Layer 1 — the linter** ([`lints`]): rule-base diagnostics computed
//!   over the AST and the compiled ARON tables (§4.3) — unreachable and
//!   shadowed rules, conflicting conclusions that source order resolves
//!   silently, gap-coverage reports, domain violations, unused
//!   variables/registers — as structured [`Diagnostic`]s with source
//!   spans and stable `FTRnnn` lint codes.
//! * **Layer 2 — the deadlock verifier** ([`deadlock`]): lifts a compiled
//!   program into the full routing relation expected by
//!   `ftr_topo::cdg` and proves channel-dependency-graph acyclicity by
//!   exhaustion over destinations and enumerated fault sets, reporting a
//!   concrete cycle witness on failure. It is the crate's only static
//!   deadlock analysis.
//! * **Layer 3 — the abstract-interpretation engine** ([`absint`]): a
//!   forward dataflow analysis over interval/mask/set domains that sees
//!   through the table compiler's propositional abstraction. It powers
//!   the semantic lints FTR009–FTR012 and the certified table optimizer
//!   ([`opt`]), whose machine-checkable [`opt::OptCert`] re-validates
//!   every rewrite against independently recomputed facts.
//!
//! The `ftr-lint` binary exposes all layers on the command line.

pub mod absint;
pub mod deadlock;
pub mod diag;
pub mod lints;
pub mod opt;

pub use absint::{analyze_program, AbsEnv, AbsVal, Facts, Monotonicity, TopoFacts};
#[allow(deprecated)] // the ledger's entry point until item 2(b)/(c)
pub use deadlock::verify_mesh;
pub use deadlock::{
    verify_cube, CubeProgramLift, CycleWitness, DeadlockReport, MeshProgramLift, MeshVcMode,
    ProgramLift,
};
pub use diag::{Diagnostic, LintCode, Severity};
pub use lints::{
    analyze_compiled, analyze_compiled_with, analyze_source, analyze_source_with, Analysis,
    LintOptions,
};
pub use opt::{optimize_rulebase, OptCert, OptOptions, Optimized, Rewrite};
