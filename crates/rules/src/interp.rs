//! The compiled rule interpreter — software model of Figures 5 and 6.
//!
//! One invocation performs the three hardware steps:
//!
//! 1. **premise processing** — the FCFBs evaluate the extracted features
//!    against the current inputs/registers;
//! 2. **RBR-kernel** — a single lookup in the completely filled rule table
//!    selects the applicable rule;
//! 3. **conclusion processing** — the selected rule's commands execute.
//!
//! Steps 1 and 3 run slot code (`interp/slots.rs`): compilation lowers
//! each base's features and conclusions once to flat op lists over one
//! `u64` slot array, so a fire walks no expression tree. When a runtime
//! check fails (an unset input, an index outside its domain, conflicting
//! writes) the fire is re-run by the reference evaluator's AST walk, the
//! one cold path here, so outcomes and error texts are the reference's.
//!
//! The paper's delay model — "the sum of the delays in the configurable
//! wiring (negligible), two times the FCFBs and one memory access" — is
//! one interpretation step; the simulator charges each step
//! `SimConfig::decision_cycles_per_step` cycles.

mod slots;

use crate::ast::Program;
use crate::compile::{CompileWarning, Feature, FeatureKind};
use crate::env::{InputMap, RegFile};
use crate::error::{Result, RuleError};
use crate::eval::{EvalCtx, FireOutcome};
use crate::frame::Frame;
use crate::probe::{InterpProbe, Stage, StageClock};
use crate::value::{Domain, Value};
pub(crate) use slots::SlotCode;
use std::num::NonZeroU16;

/// A fire whose frame has no slot array long enough (a one-off frame)
/// keeps one of up to this many words on its stack.
const STACK_WORDS: usize = 64;

#[cold]
fn not_a_digit(v: &Value, dom: Domain) -> RuleError {
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
    /// The features and conclusions as slot code, lowered with the table.
    pub(crate) code: SlotCode,
}

impl CompiledRuleBase {
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
    #[inline]
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
    #[inline]
    pub fn entry(&self, idx: u64) -> Result<Option<usize>> {
        let e = *self.table.get(idx as usize).ok_or_else(|| {
            RuleError::eval(format!(
                "corrupt rule table: index {idx} outside {} entries",
                self.table.len()
            ))
        })?;
        self.decode_entry(e)
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
        // the slot array: the frame's, unless a short one fits the stack
        let (n, mut stack, mut heap);
        n = self.code.words();
        let w = if n <= frame.words.len() || n > STACK_WORDS {
            heap = std::mem::take(&mut frame.words);
            heap.resize(heap.len().max(n), 0);
            &mut heap[..]
        } else {
            heap = Vec::new();
            stack = [0u64; STACK_WORDS];
            &mut stack[..]
        };
        let rule = match self.code.premise(w, prog, params, regs, inputs, frame) {
            None => Err(None),
            Some(idx) => {
                clock.lap(Stage::Premise);
                let rule = self.entry(idx);
                clock.lap(Stage::Kernel);
                match rule {
                    Ok(Some(r))
                        if !self.code.conclusion(w, r, prog, params, regs, inputs, frame) =>
                    {
                        Err(Some(r))
                    }
                    done => Ok(done),
                }
            }
        };
        if !heap.is_empty() {
            frame.words = heap;
        }
        match rule {
            Ok(rule) => {
                let rule = rule?;
                clock.lap(Stage::Conclusion);
                Ok(rule)
            }
            Err(chosen) => self.walk(prog, params, regs, inputs, frame, chosen, &mut clock),
        }
    }

    /// The fire by the AST walk, where a check of the slot code failed: in
    /// the premise stage (`chosen` is `None`), or in the conclusion of the
    /// rule the premise chose. Nothing was committed, so the walk starts
    /// from the same registers and ends in the reference's outcome or
    /// error.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &InputMap,
        frame: &mut Frame,
        chosen: Option<usize>,
        clock: &mut StageClock<'_>,
    ) -> Result<Option<usize>> {
        use crate::eval::{apply_rule_in, eval_expr};
        frame.begin();
        let rule = match chosen {
            Some(r) => Some(r),
            None => {
                let mut ctx = EvalCtx::on_frame(prog, regs, inputs, params, frame);
                let mut index = || {
                    let (mut idx, mut stride) = (0u64, 1u64);
                    for (f, r) in self.features.iter().zip(&self.radices) {
                        let digit = match &f.kind {
                            FeatureKind::Direct { subject, dom } => {
                                let v = eval_expr(&mut ctx, subject)?;
                                dom.ordinal(&v, prog.sym_sizes())
                                    .ok_or_else(|| not_a_digit(&v, *dom))?
                            }
                            FeatureKind::Predicate { expr } => {
                                u64::from(eval_expr(&mut ctx, expr)?.as_bool()?)
                            }
                        };
                        idx += digit * stride;
                        stride *= r;
                    }
                    Ok(idx)
                };
                let idx: Result<u64> = index();
                ctx.release(frame);
                let idx = idx?;
                clock.lap(Stage::Premise);
                let rule = self.entry(idx)?;
                clock.lap(Stage::Kernel);
                rule
            }
        };
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

    /// The longest slot array a fire of one of its bases needs.
    pub(crate) fn words(&self) -> usize {
        self.bases.iter().map(|b| b.code.words()).max().unwrap_or(0)
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

    #[test]
    fn slot_code_decides_every_shipped_base_without_the_walk() {
        // inputs and registers in their domains: the premise stage never
        // falls back, and a conclusion does exactly where the reference
        // fails (a write outside its domain, argmin over an empty set)
        let (mut fired, mut failed) = (0, 0);
        for (name, src) in crate::generated::SHIPPED {
            let p = parse(src).unwrap();
            let c = compile(&p, &CompileOptions::default()).unwrap();
            for seed in 0..64 {
                let mut d = crate::generated::Draw(seed);
                for (rb, base) in c.bases.iter().enumerate() {
                    let at = format!("{name}::{} seed {seed}", p.rulebases[rb].name);
                    let (regs, inputs, params) = crate::generated::random_env(&p, rb, &mut d, !0);
                    let mut want_regs = regs.clone();
                    let want = fire_reference(&p, rb, &params, &mut want_regs, &inputs);
                    let (mut frame, mut w) = (Frame::new(), vec![0; base.code.words()]);
                    frame.begin();
                    let idx = base.code.premise(&mut w, &p, &params, &regs, &inputs, &mut frame);
                    let rule = base.entry(idx.unwrap_or_else(|| panic!("{at}: premise"))).unwrap();
                    let mut got_regs = regs.clone();
                    let done = rule.is_none_or(|r| {
                        let c = &base.code;
                        c.conclusion(&mut w, r, &p, &params, &mut got_regs, &inputs, &mut frame)
                    });
                    assert_eq!(done, want.is_ok(), "{at}: {want:?}");
                    if let Ok(want) = want {
                        assert_eq!(frame.outcome(&p, rule), want, "{at}");
                        assert_eq!(got_regs, want_regs, "{at}");
                        fired += u32::from(rule.is_some());
                    } else {
                        assert_eq!(got_regs, regs, "{at}: a failed conclusion writes nothing");
                        failed += 1;
                    }
                }
            }
        }
        assert!(fired > 500 && failed > 0, "{fired} rules fired, {failed} conclusions failed");
    }

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

        // Figure 4: a FORALL command emitting one event per direction,
        // beside writes that leave their domain at number_unsafe = 7
        let p = parse(crate::generated::FIGURE4).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let sym = |idx: i64| Value::Sym { ty: 0, idx: idx as u32 };
        let mut most = 0;
        for i in 0..8 * 2 * 5 * 5 {
            let (unsafe_n, faulty_n, state, new) = (i / 50, i / 25 % 2, i / 5 % 5, i % 5);
            let at = format!("unsafe={unsafe_n} faulty={faulty_n} state={state} new={new}");
            let mut regs_a = RegFile::new(&p);
            regs_a.write(&p, 0, &[], int(unsafe_n)).unwrap();
            regs_a.write(&p, 1, &[], int(faulty_n)).unwrap();
            regs_a.write(&p, 3, &[], sym(state)).unwrap();
            let mut regs_b = regs_a.clone();
            let mut inp = InputMap::new();
            inp.set_default(&p, "new_state", sym(0)).unwrap();
            inp.set(&p, "new_state", &[int(4)], sym(new)).unwrap();

            let r = fire_reference(&p, 0, &[int(4)], &mut regs_a, &inp);
            let k = c.fire("update_state", &[int(4)], &mut regs_b, &inp);
            let text = |e: RuleError| e.to_string();
            assert_eq!(r.clone().map_err(text), k.map_err(text), "{at}");
            assert_eq!(regs_a, regs_b, "{at}: post-state diverged");
            most = most.max(r.map_or(0, |o| o.emitted.len()));
        }
        assert_eq!(most, 6, "the FORALL rule emits once per direction");
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
        use crate::event::Machine;
        use crate::probe::{InterpProbe, Stage};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Recorder(Mutex<Vec<(usize, Stage)>>);
        impl InterpProbe for Recorder {
            fn record_stage(&self, base: usize, stage: Stage, _nanos: u64) {
                self.0.lock().unwrap().push((base, stage));
            }
        }

        let p = parse(SRC).unwrap();
        let c = compile(&p, &CompileOptions::default()).unwrap();
        let rec = Arc::new(Recorder::default());
        let mut plain = Machine::from_compiled(c.clone());
        let mut probed = Machine::from_compiled(c);
        probed.set_probe(rec.clone());
        let mut inp = InputMap::new();
        inp.set_default(&p, "level", int(7)).unwrap();

        let a = plain.fire("classify", &[int(1)], &inp).unwrap();
        let b = probed.fire("classify", &[int(1)], &inp).unwrap();
        assert_eq!(a, b, "probing must not change semantics");
        assert_eq!(plain.regs(), probed.regs());
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
        let mut m = crate::event::Machine::from_compiled(c);
        m.set_probe(std::sync::Arc::new(Null));
        assert!(m.fire("classify", &[int(0)], &inp).is_err());
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
