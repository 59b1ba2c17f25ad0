//! The certified optimizer over the shipped NAFTA program: the optimized
//! table must be decision-identical to the original at the fire level
//! (same returns, same host events, same register effects) across
//! thousands of randomized reachable states, the certificate must replay,
//! and tampered certificates must be rejected.

use ftr_analyze::opt;
use ftr_analyze::{optimize_rulebase, AbsEnv, AbsVal, OptOptions, Optimized, Rewrite, TopoFacts};
use ftr_rules::ast::Program;
use ftr_rules::env::{InputMap, RegFile};
use ftr_rules::eval::{fire_reference, EventInstance};
use ftr_rules::value::{Type, Value};
use ftr_rules::{compile, parse, CompileOptions};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::OnceLock;

fn opts() -> OptOptions {
    OptOptions { topo: TopoFacts::mesh(6, 6), ..OptOptions::default() }
}

fn nafta() -> &'static Program {
    static P: OnceLock<Program> = OnceLock::new();
    P.get_or_init(|| parse(ftr_algos::rules_src::NAFTA).expect("NAFTA parses"))
}

fn optimized() -> &'static Optimized {
    static O: OnceLock<Optimized> = OnceLock::new();
    O.get_or_init(|| optimize_rulebase("nafta", nafta(), &opts()).expect("NAFTA optimizes"))
}

/// Samples one concrete value from an abstraction (the states the
/// optimizer's justifications quantify over).
fn sample(rng: &mut StdRng, prog: &Program, a: &AbsVal, elem: Type) -> Value {
    match *a {
        AbsVal::Int { lo, hi } => Value::Int(rng.gen_range(lo..=hi.max(lo))),
        AbsVal::Bool { can_f, can_t } => Value::Bool(match (can_f, can_t) {
            (true, true) => rng.gen_range(0..2) == 1,
            (false, _) => true,
            (_, false) => false,
        }),
        AbsVal::Sym { ty, mask } => {
            let bits: Vec<u32> = (0..64).filter(|b| mask & (1 << b) != 0).collect();
            let idx = bits[rng.gen_range(0..bits.len())];
            Value::Sym { ty, idx }
        }
        AbsVal::Set { dom, must, may } => {
            let optional = may & !must;
            Value::Set { dom, mask: must | (rng.next_u64() & optional) }
        }
        AbsVal::Any => {
            let ss = prog.sym_sizes();
            match elem {
                Type::Scalar(d) => d.value_at(rng.gen_range(0..d.size(ss))),
                Type::Set(d) => {
                    let full = if d.size(ss) >= 64 { u64::MAX } else { (1u64 << d.size(ss)) - 1 };
                    Value::Set { dom: d, mask: rng.next_u64() & full }
                }
            }
        }
    }
}

/// A randomized reachable-ish machine state: registers drawn from the
/// abstract hull the justifications rely on, inputs from their declared
/// (topology-clamped) domains.
fn random_state(rng: &mut StdRng, prog: &Program, env: &AbsEnv) -> (RegFile, InputMap) {
    let ss = prog.sym_sizes();
    let mut regs = RegFile::new(prog);
    for (vi, v) in prog.vars.iter().enumerate() {
        let cells: Vec<Vec<Value>> = index_tuples(prog, &v.index_domains);
        for idx in cells {
            let val = sample(rng, prog, &env.vars[vi], v.elem);
            regs.write(prog, vi, &idx, val).expect("in-domain write");
        }
    }
    let mut inputs = InputMap::default();
    for (ii, d) in prog.inputs.iter().enumerate() {
        for idx in index_tuples(prog, &d.index_domains) {
            let val = sample(rng, prog, &env.inputs[ii], d.elem);
            inputs.set(prog, &d.name, &idx, val).expect("in-domain input");
        }
    }
    let _ = ss;
    (regs, inputs)
}

fn index_tuples(prog: &Program, doms: &[ftr_rules::value::Domain]) -> Vec<Vec<Value>> {
    let ss = prog.sym_sizes();
    let mut out: Vec<Vec<Value>> = vec![Vec::new()];
    for d in doms {
        let mut next = Vec::new();
        for prefix in &out {
            for k in 0..d.size(ss) {
                let mut t = prefix.clone();
                t.push(d.value_at(k));
                next.push(t);
            }
        }
        out = next;
    }
    out
}

/// Fires a base and follows emitted events into other rule bases (the
/// machine's decision cascade); returns the final RETURN plus the events
/// that escape to the host.
fn cascade(
    prog: &Program,
    bi: usize,
    params: &[Value],
    regs: &mut RegFile,
    inputs: &InputMap,
) -> (Option<Value>, Vec<EventInstance>) {
    let out = fire_reference(prog, bi, params, regs, inputs).expect("fire");
    let mut ret = out.returned;
    let mut host = Vec::new();
    for ev in out.emitted {
        match prog.rulebase(&ev.event) {
            Some((ti, trb)) if trb.params.len() == ev.args.len() => {
                let (r, h) = cascade(prog, ti, &ev.args, regs, inputs);
                if r.is_some() {
                    ret = r;
                }
                host.extend(h);
            }
            _ => host.push(ev),
        }
    }
    (ret, host)
}

#[test]
fn nafta_optimizer_is_decision_identical_at_fire_level() {
    let orig = nafta();
    let o = optimized();
    let opt_prog = &o.compiled.prog;

    let compiled = compile(orig, &CompileOptions::default()).unwrap();
    let facts = ftr_analyze::analyze_program(&compiled, &opts().topo);
    let mut env = AbsEnv::seed(orig, 0, &opts().topo, &facts.monotone);
    for (slot, h) in env.vars.iter_mut().zip(&facts.reg_hull) {
        if let Some(m) = slot.meet(h) {
            *slot = m;
        }
    }

    let mut rng = StdRng::seed_from_u64(0x0f7a_11ce);
    for trial in 0..1000 {
        let (regs, inputs) = random_state(&mut rng, orig, &env);
        for (bi, rb) in orig.rulebases.iter().enumerate() {
            let params: Vec<Value> = rb
                .params
                .iter()
                .map(|p| {
                    let ss = orig.sym_sizes();
                    p.dom.value_at(rng.gen_range(0..p.dom.size(ss)))
                })
                .collect();
            let mut regs_a = regs.clone();
            let mut regs_b = regs.clone();
            let (ret_a, host_a) = cascade(orig, bi, &params, &mut regs_a, &inputs);
            let (ret_b, host_b) = cascade(opt_prog, bi, &params, &mut regs_b, &inputs);
            assert_eq!(
                ret_a, ret_b,
                "trial {trial}: base `{}` returned differently (params {params:?})",
                rb.name
            );
            assert_eq!(
                host_a, host_b,
                "trial {trial}: base `{}` emitted different host events",
                rb.name
            );
            assert_eq!(
                regs_a, regs_b,
                "trial {trial}: base `{}` left different register state",
                rb.name
            );
        }
    }
}

#[test]
fn nafta_fusion_collapses_the_decision_cascade() {
    let o = optimized();
    let fused: Vec<(&str, &str)> = o
        .cert
        .rewrites
        .iter()
        .filter_map(|r| match r {
            Rewrite::FuseTail { base, target } => Some((base.as_str(), target.as_str())),
            _ => None,
        })
        .collect();
    assert!(
        fused.contains(&("in_message_ft", "test_exception")),
        "expected the inner chain link to fuse: {fused:?}"
    );
    assert!(
        fused.contains(&("incoming_message", "in_message_ft")),
        "expected the outer chain link to fuse: {fused:?}"
    );

    // the fused entry base no longer emits into the chain
    let (_, inc) = o.compiled.prog.rulebase("incoming_message").unwrap();
    for r in &inc.rules {
        for c in &r.conclusion {
            if let ftr_rules::ast::Command::Emit { event, .. } = c {
                assert!(
                    o.compiled.prog.rulebase(event).is_none(),
                    "fused base still emits into rule base `{event}`"
                );
            }
        }
    }

    // inlined rules are modeled at their original cascade depth
    let (bi, _) = o.compiled.prog.rulebase("incoming_message").unwrap();
    let w = &o.step_weights.per_base[bi];
    assert!(w.iter().any(|&x| x >= 3), "no depth-3 weights after double fusion: {w:?}");
    assert!(w.contains(&1), "entry rules should stay depth 1: {w:?}");

    // the dead-code passes fired too
    assert!(o
        .cert
        .rewrites
        .iter()
        .any(|r| matches!(r, Rewrite::SpecializeRegister { var, .. } if var == "de_east")));
    assert!(o.cert.rewrites.iter().any(|r| matches!(r, Rewrite::DeleteRule { .. })));
}

#[test]
fn nafta_certificate_replays_and_tampering_is_rejected() {
    let orig = nafta();
    let o = optimized();
    opt::verify(orig, o, &opts()).expect("certificate must replay");

    // dropping a rewrite breaks final equality
    let mut truncated = o.cert.clone();
    truncated.rewrites.pop();
    let (replayed, _) =
        opt::verify_cert(orig, &truncated, &opts()).expect("prefix still justifies");
    assert_ne!(
        ftr_rules::pretty::print_program(&replayed),
        ftr_rules::pretty::print_program(&o.compiled.prog),
        "truncated replay must not match the shipped program"
    );

    // claiming a live rule is dead must fail justification
    let mut bad = o.cert.clone();
    bad.rewrites.insert(0, Rewrite::DeleteRule { base: "incoming_message".into(), rule: 0 });
    assert!(opt::verify_cert(orig, &bad, &opts()).is_err());

    // claiming a host-written register is constant must fail
    let mut bad2 = o.cert.clone();
    bad2.rewrites
        .insert(0, Rewrite::SpecializeRegister { var: "xpos".into(), value: Value::Int(0) });
    assert!(opt::verify_cert(orig, &bad2, &opts()).is_err());
}

#[test]
fn optimizer_reduces_nafta_decision_features() {
    let orig = compile(nafta(), &CompileOptions::default()).unwrap();
    let o = optimized();
    let bits = |c: &ftr_rules::CompiledProgram| -> u64 {
        c.bases.iter().map(|b| b.table.len() as u64).sum()
    };
    // after specialization + folding the total feature space must shrink
    // even though fusion widens the entry base
    let orig_rules: usize = orig.prog.rulebases.iter().map(|r| r.rules.len()).sum();
    let opt_rules: usize = o.compiled.prog.rulebases.iter().map(|r| r.rules.len()).sum();
    assert!(opt_rules < orig_rules + 20, "rule growth out of bounds: {orig_rules} -> {opt_rules}");
    assert!(!o.cert.rewrites.is_empty());
    let _ = bits;
}
