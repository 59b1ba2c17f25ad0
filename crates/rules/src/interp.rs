//! The compiled rule interpreter — software model of Figures 5 and 6.
//!
//! One invocation performs the three hardware steps:
//!
//! 1. **premise processing** — the FCFBs evaluate the extracted features
//!    against the current inputs/registers ([`CompiledRuleBase::feature_vector`]);
//! 2. **RBR-kernel** — a single lookup in the completely filled rule table
//!    selects the applicable rule;
//! 3. **conclusion processing** — the selected rule's commands execute
//!    (shared with the reference evaluator, so compiled and reference
//!    semantics cannot drift).
//!
//! The paper's delay model — "the sum of the delays in the configurable
//! wiring (negligible), two times the FCFBs and one memory access" — is
//! captured by [`CompiledRuleBase::DECISION_DELAY_UNITS`], which the
//! simulator converts into routing-decision cycles.

use crate::ast::Program;
use crate::compile::{CompileWarning, Feature, FeatureKind};
use crate::env::{InputMap, RegFile};
use crate::error::{Result, RuleError};
use crate::eval::{apply_rule_in, eval_expr, EvalCtx, FireOutcome};
use crate::frame::Frame;
use crate::probe::{InterpProbe, Stage, StageClock};
use crate::value::{Domain, Value};
use std::num::NonZeroU16;

#[cold]
pub(crate) fn not_a_digit(v: &Value, dom: Domain) -> RuleError {
    RuleError::eval(format!("direct feature value {v} outside {dom:?}"))
}

/// One rule base compiled to a filled table.
#[derive(Clone, Debug)]
pub struct CompiledRuleBase {
    /// Index into [`Program::rulebases`].
    pub rb: usize,
    /// Extracted features, in index-digit order (first = least significant).
    pub features: Vec<Feature>,
    /// Radix of each digit.
    pub radices: Vec<u64>,
    /// The filled table: `Some(e)` encodes rule `e - 1`, `None` is a gap
    /// (no applicable rule). The sentinel lives in the type — a raw `0`
    /// can no longer be confused with a rule index, and
    /// [`CompiledRuleBase::decode_entry`] rejects out-of-range entries so
    /// a corrupt or stale table surfaces as an error instead of silently
    /// firing an arbitrary rule.
    pub table: Vec<Option<NonZeroU16>>,
    /// Number of table entries (product of radices).
    pub entries: u64,
    /// Modelled entry width in bits (conclusion selector + return field).
    pub width_bits: u32,
    /// Conflict/gap resolutions performed while filling the table (§4.3
    /// resolves both silently; they are collected here for analysis).
    pub warnings: Vec<CompileWarning>,
    /// Per rule: at how many feature-space entries its premise holds.
    /// `0` means the premise is unsatisfiable over the abstract feature
    /// space; a non-zero count with no table entry selecting the rule
    /// means it is shadowed by earlier rules.
    pub rule_applicable: Vec<u64>,
    /// Per rule: the guard IR the table was filled from — the premise
    /// with quantifiers expanded, `/=` normalised and constants folded.
    /// This is the exact formula semantic analyses (`ftr_analyze::absint`)
    /// should reason over; the surface premise in
    /// [`Program::rulebases`] may still contain quantifiers.
    pub premises: Vec<crate::ast::Expr>,
}

impl CompiledRuleBase {
    /// Abstract delay of one interpretation in FCFB units: wiring
    /// (negligible) + 2 × FCFB + 1 memory access (§4.3).
    pub const DECISION_DELAY_UNITS: u32 = 3;

    /// Total table size in bits (the paper's `entries × width` figure).
    pub fn table_bits(&self) -> u64 {
        self.entries * self.width_bits as u64
    }

    /// Renders the interpreter configuration in the style of the paper's
    /// Figure 7: which inputs wire directly into the table index, which
    /// FCFB-computed predicates feed the remaining index bits, and the
    /// table geometry.
    pub fn describe(&self, prog: &Program) -> String {
        use std::fmt::Write as _;
        let rb = &prog.rulebases[self.rb];
        let mut s = String::new();
        let _ = writeln!(s, "rule interpreter configuration for `{}`", rb.name);
        let _ = writeln!(s, "  index digits (least significant first):");
        for (i, f) in self.features.iter().enumerate() {
            match &f.kind {
                crate::compile::FeatureKind::Direct { subject, dom } => {
                    let _ = writeln!(
                        s,
                        "    [{i}] direct wire   radix {:<3} <- {}",
                        f.size,
                        crate::pretty::describe_expr(prog, rb, subject)
                    );
                    let _ = dom;
                }
                crate::compile::FeatureKind::Predicate { expr } => {
                    let _ = writeln!(
                        s,
                        "    [{i}] FCFB predicate radix 2   <- {}",
                        crate::pretty::describe_expr(prog, rb, expr)
                    );
                }
            }
        }
        let _ = writeln!(
            s,
            "  RBR kernel: {} entries x {} bits = {} bits of rule table",
            self.entries,
            self.width_bits,
            self.table_bits()
        );
        let _ = writeln!(
            s,
            "  conclusion processing: {} rules, shared FCFB pool: {}",
            rb.rules.len(),
            crate::fcfb::inventory(prog, rb)
                .iter()
                .map(|(k, n)| if *n > 1 { format!("{n} x {k}") } else { k.to_string() })
                .collect::<Vec<_>>()
                .join(", ")
        );
        s
    }

    /// One feature digit from live inputs/registers.
    fn digit(ctx: &mut EvalCtx<'_>, f: &Feature) -> Result<u64> {
        match &f.kind {
            FeatureKind::Direct { subject, dom } => {
                let v = eval_expr(ctx, subject)?;
                dom.ordinal(&v, ctx.prog.sym_sizes()).ok_or_else(|| not_a_digit(&v, *dom))
            }
            FeatureKind::Predicate { expr } => Ok(u64::from(eval_expr(ctx, expr)?.as_bool()?)),
        }
    }

    /// Step 1: computes the feature digits from live inputs/registers (for
    /// reports and analyses; an interpretation folds them straight into
    /// the table index).
    pub fn feature_vector(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &RegFile,
        inputs: &InputMap,
    ) -> Result<Vec<u64>> {
        let mut ctx = EvalCtx::new(prog, regs, inputs, params);
        self.features.iter().map(|f| Self::digit(&mut ctx, f)).collect()
    }

    /// Step 1 folded into [`CompiledRuleBase::index`]: the mixed-radix
    /// table index, accumulated digit by digit.
    fn table_index(&self, ctx: &mut EvalCtx<'_>) -> Result<u64> {
        let (mut idx, mut stride) = (0u64, 1u64);
        for (f, r) in self.features.iter().zip(&self.radices) {
            idx += Self::digit(ctx, f)? * stride;
            stride *= r;
        }
        Ok(idx)
    }

    /// Step 2: mixed-radix index from the feature digits.
    pub fn index(&self, digits: &[u64]) -> u64 {
        let mut idx = 0u64;
        let mut stride = 1u64;
        for (d, r) in digits.iter().zip(&self.radices) {
            idx += d * stride;
            stride *= r;
        }
        idx
    }

    /// Decodes a raw table entry into a rule index. Entries indexing past
    /// the rule list are an error: the table is supposed to be filled by
    /// [`crate::compile::compile_rulebase`], so anything out of range is
    /// corruption (stale table, bad deserialisation, buggy rewrite).
    pub fn decode_entry(&self, e: Option<NonZeroU16>) -> Result<Option<usize>> {
        match e {
            None => Ok(None),
            Some(nz) => {
                let rule = nz.get() as usize - 1;
                if rule < self.premises.len() {
                    Ok(Some(rule))
                } else {
                    Err(RuleError::eval(format!(
                        "corrupt rule table: entry {} indexes rule {rule}, but base has only {} rules",
                        nz.get(),
                        self.premises.len()
                    )))
                }
            }
        }
    }

    /// Checked kernel lookup: table entry at mixed-radix index `idx`,
    /// decoded to a rule index (`None` = gap).
    pub fn entry(&self, idx: u64) -> Result<Option<usize>> {
        let e = *self.table.get(idx as usize).ok_or_else(|| {
            RuleError::eval(format!(
                "corrupt rule table: index {idx} outside {} entries",
                self.table.len()
            ))
        })?;
        self.decode_entry(e)
    }

    /// Steps 1+2: which rule applies (None = gap entry / no rule).
    pub fn select(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &RegFile,
        inputs: &InputMap,
    ) -> Result<Option<usize>> {
        let idx = self.table_index(&mut EvalCtx::new(prog, regs, inputs, params))?;
        self.entry(idx)
    }

    /// Full interpretation: premise processing, kernel lookup, conclusion
    /// processing.
    pub fn fire(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
    ) -> Result<FireOutcome> {
        let mut frame = Frame::new();
        let rule = self.fire_in(prog, params, regs, inputs, &mut frame, None)?;
        Ok(frame.outcome(prog, rule))
    }

    /// Like [`CompiledRuleBase::fire`], but reports the wall-clock cost of
    /// each of the three interpretation stages to `probe`.
    pub fn fire_probed(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        probe: &dyn InterpProbe,
    ) -> Result<FireOutcome> {
        let mut frame = Frame::new();
        let rule = self.fire_in(prog, params, regs, inputs, &mut frame, Some(probe))?;
        Ok(frame.outcome(prog, rule))
    }

    /// One interpretation into a caller-owned frame: which rule fired
    /// (`None` = gap); its `RETURN` value and generated events are then in
    /// the frame. `probe` sees a stage when it completes, so an error in
    /// the premise reports nothing, one in the kernel the premise only,
    /// one in the conclusion all three.
    pub(crate) fn fire_in(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        frame: &mut Frame,
        probe: Option<&dyn InterpProbe>,
    ) -> Result<Option<usize>> {
        let mut clock = StageClock::start(self.rb, probe);
        frame.begin();
        let mut ctx = EvalCtx::on_frame(prog, regs, inputs, params, frame);
        let idx = self.table_index(&mut ctx);
        ctx.release(frame);
        let idx = idx?;
        clock.lap(Stage::Premise);
        let rule = self.entry(idx)?;
        clock.lap(Stage::Kernel);
        let done = match rule {
            Some(r) => apply_rule_in(prog, self.rb, r, params, regs, inputs, frame),
            None => Ok(()),
        };
        clock.lap(Stage::Conclusion);
        done.map(|()| rule)
    }
}

/// A fully compiled program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The source program (owned so the compiled artefact is self-contained).
    pub prog: Program,
    /// One compiled base per rule base, same order.
    pub bases: Vec<CompiledRuleBase>,
}

impl CompiledProgram {
    /// Finds a compiled rule base by name.
    pub fn base(&self, name: &str) -> Option<&CompiledRuleBase> {
        let (i, _) = self.prog.rulebase(name)?;
        Some(&self.bases[i])
    }

    /// Fires the named rule base once.
    pub fn fire(
        &self,
        name: &str,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
    ) -> Result<FireOutcome> {
        let base =
            self.base(name).ok_or_else(|| RuleError::eval(format!("no rule base `{name}`")))?;
        base.fire(&self.prog, params, regs, inputs)
    }

    /// Total rule-table bits across all bases.
    pub fn total_table_bits(&self) -> u64 {
        self.bases.iter().map(|b| b.table_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::eval::fire_reference;
    use crate::parser::parse;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    const SRC: &str = "
CONSTANT st = {safe, warn, faulty}
CONSTANT dirs = 0 TO 3
VARIABLE state IN st INIT safe
VARIABLE hits IN 0 TO 15 INIT 0
INPUT level[dirs] IN 0 TO 9
ON classify(d IN dirs) RETURNS 0 TO 2
  IF state = faulty THEN RETURN(2);
  IF level(d) > 6 AND state = safe THEN state <- warn, hits <- hits + 1, RETURN(1);
  IF level(d) > 8 THEN state <- faulty, RETURN(2);
  IF TRUE THEN RETURN(0);
END classify;
";

    #[test]
    fn compiled_matches_reference_exhaustively() {
        let p = parse(SRC).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        // exhaust states × levels × params
        for state_idx in 0..3u32 {
            for level in 0..10i64 {
                for d in 0..4i64 {
                    let mut regs_a = RegFile::new(&p);
                    regs_a.write(&p, 0, &[], Value::Sym { ty: 0, idx: state_idx }).unwrap();
                    let mut regs_b = regs_a.clone();
                    let mut inp = InputMap::new();
                    inp.set_default(&p, "level", int(0)).unwrap();
                    inp.set(&p, "level", &[int(d)], int(level)).unwrap();

                    let r = fire_reference(&p, 0, &[int(d)], &mut regs_a, &inp).unwrap();
                    let k = c.fire("classify", &[int(d)], &mut regs_b, &inp).unwrap();
                    assert_eq!(r, k, "state={state_idx} level={level} d={d}");
                    assert_eq!(regs_a, regs_b, "post-state diverged");
                }
            }
        }
    }

    #[test]
    fn table_geometry() {
        let p = parse(SRC).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let b = &c.bases[0];
        // features: state (direct, 3) + level(d)>6 + level(d)>8 (2 bits)
        assert_eq!(b.entries, 12);
        // selector ceil(log2(5)) = 3 bits + 2-bit return
        assert_eq!(b.width_bits, 5);
        assert_eq!(b.table_bits(), 60);
    }

    #[test]
    fn gap_entries_are_noops() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 5\n\
             ON f() RETURNS 0 TO 1\n\
               IF n = 0 THEN RETURN(0);\n\
             END f;",
        )
        .unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let mut regs = RegFile::new(&p);
        let out = c.fire("f", &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.rule, None);
        assert_eq!(out.returned, None);
    }

    #[test]
    fn probed_fire_matches_unprobed_and_sees_all_stages() {
        use crate::probe::{InterpProbe, Stage};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder(Mutex<Vec<(usize, Stage)>>);
        impl InterpProbe for Recorder {
            fn record_stage(&self, base: usize, stage: Stage, _nanos: u64) {
                self.0.lock().unwrap().push((base, stage));
            }
        }

        let p = parse(SRC).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let rec = Recorder::default();
        let mut regs_a = RegFile::new(&p);
        let mut regs_b = regs_a.clone();
        let mut inp = InputMap::new();
        inp.set_default(&p, "level", int(7)).unwrap();

        let plain = c.bases[0].fire(&p, &[int(1)], &mut regs_a, &inp).unwrap();
        let probed = c.bases[0].fire_probed(&p, &[int(1)], &mut regs_b, &inp, &rec).unwrap();
        assert_eq!(plain, probed, "probing must not change semantics");
        assert_eq!(regs_a, regs_b);
        let seen = rec.0.lock().unwrap().clone();
        assert_eq!(seen, vec![(0, Stage::Premise), (0, Stage::Kernel), (0, Stage::Conclusion)]);
    }

    #[test]
    fn corrupt_table_entries_error_instead_of_firing_arbitrary_rules() {
        let p = parse(SRC).unwrap();
        let mut inp = InputMap::new();
        inp.set_default(&p, "level", int(0)).unwrap();

        // garbage entry: points past the rule list
        let mut c = compile(&p, &CompileOptions::default()).unwrap();
        for e in c.bases[0].table.iter_mut() {
            *e = NonZeroU16::new(200);
        }
        let mut regs = RegFile::new(&p);
        let err = c.fire("classify", &[int(0)], &mut regs, &inp).unwrap_err();
        assert!(err.to_string().contains("corrupt rule table"), "{err}");

        // truncated table: the kernel lookup itself must fail, not panic
        let mut c = compile(&p, &CompileOptions::default()).unwrap();
        c.bases[0].table.truncate(1);
        let mut regs = RegFile::new(&p);
        regs.write(&p, 0, &[], Value::Sym { ty: 0, idx: 2 }).unwrap();
        let err = c.fire("classify", &[int(0)], &mut regs, &inp).unwrap_err();
        assert!(err.to_string().contains("corrupt rule table"), "{err}");

        // the probed path takes the same checked decode
        struct Null;
        impl crate::probe::InterpProbe for Null {
            fn record_stage(&self, _: usize, _: crate::probe::Stage, _: u64) {}
        }
        let mut c = compile(&p, &CompileOptions::default()).unwrap();
        for e in c.bases[0].table.iter_mut() {
            *e = NonZeroU16::new(77);
        }
        let mut regs = RegFile::new(&p);
        assert!(c.bases[0].fire_probed(&p, &[int(0)], &mut regs, &inp, &Null).is_err());
    }

    #[test]
    fn index_is_mixed_radix() {
        let p = parse(SRC).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let b = &c.bases[0];
        assert_eq!(b.index(&[0, 0, 0]), 0);
        let last: Vec<u64> = b.radices.iter().map(|r| r - 1).collect();
        assert_eq!(b.index(&last), b.entries - 1);
    }
}
