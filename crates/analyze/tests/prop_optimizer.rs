//! Property-based differential tests over random well-typed two-base
//! programs (entry base optionally tail-emitting into an exception base,
//! so the fusion pass gets exercised):
//!
//! 1. **Optimizer contract** — the optimized program must agree with the
//!    reference evaluator on every step of long random trajectories
//!    started from INIT — same returns, same host events, same register
//!    effects — and the emitted certificate must replay through the
//!    independent checker.
//! 2. **Backend contract** — the three rule-execution arms (reference
//!    evaluator, compiled table interpreter, direct-threaded bytecode VM)
//!    must be trajectory-identical on the same program family, with the
//!    bytecode arm additionally checked over E18-optimized tables.

use ftr_analyze::opt;
use ftr_analyze::{optimize_rulebase, OptOptions};
use ftr_rules::env::{InputMap, RegFile};
use ftr_rules::eval::{fire_reference, EventInstance, FireOutcome};
use ftr_rules::parse;
use ftr_rules::value::Value;
use ftr_rules::vm::Scratch;
use ftr_rules::{compile, CompileOptions, Program, VmProgram};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn atom_pool(with_d: bool) -> Vec<&'static str> {
    let mut v = vec![
        "state = alpha",
        "state IN {beta, gamma}",
        "count = 0",
        "count > 3",
        "count <= 9",
        "go",
        "level(0) < level(1)",
        "level(2) > 4",
        "EXISTS i IN dirs: flags(i)",
        "FORALL i IN dirs: level(i) < 6",
        "TRUE",
    ];
    if with_d {
        v.extend(["flags(d)", "level(d) > 2", "d IN {0, 2}"]);
    }
    v
}

/// Uniform choice from a fixed string pool (the vendored proptest shim
/// has no `sample::select`).
fn select(pool: Vec<&'static str>) -> Union<String> {
    Union::new(pool.into_iter().map(|s| Just(s.to_string()).boxed()).collect())
}

/// 1-3 atoms combined with AND / OR / NOT; `with_d` controls whether the
/// rule-base parameter `d` may appear (the exception base has none).
fn arb_premise(with_d: bool) -> impl Strategy<Value = String> {
    let atom = select(atom_pool(with_d));
    proptest::collection::vec((atom, any::<u8>()), 1..4).prop_map(|parts| {
        let mut out = String::new();
        for (i, (a, tag)) in parts.iter().enumerate() {
            if i > 0 {
                out.push_str(if tag % 2 == 0 { " AND " } else { " OR " });
            }
            if tag % 3 == 0 {
                out.push_str(&format!("NOT ({a})"));
            } else {
                out.push_str(&format!("({a})"));
            }
        }
        out
    })
}

fn arb_conclusion(with_d: bool) -> impl Strategy<Value = String> {
    let mut pool = vec![
        "RETURN(1)",
        "count <- min(count + 1, 15), RETURN(2)",
        "state <- beta, RETURN(3)",
        "state <- latmax(state, beta), RETURN(5)",
        "RETURN(min(count, 9))",
    ];
    if with_d {
        pool.extend(["RETURN(d)", "flags(d) <- TRUE, RETURN(4)"]);
    } else {
        pool.push("flags(1) <- TRUE, RETURN(4)");
    }
    select(pool)
}

/// `Some(premise)` half the time (no `option::of` in the shim).
fn arb_tail() -> impl Strategy<Value = Option<String>> {
    prop_oneof![arb_premise(true).prop_map(Some), Just(None)]
}

/// A two-base program over the fixed environment. When `tail_guard` is
/// set, the entry base ends with `IF <guard> THEN !exception();` — the
/// shape the fusion pass looks for.
fn gen_program(
    route: &[(String, String)],
    tail_guard: Option<&String>,
    exception: &[(String, String)],
) -> String {
    let mut f_rules = String::new();
    for (p, c) in route {
        f_rules.push_str(&format!("  IF {p} THEN {c};\n"));
    }
    if let Some(g) = tail_guard {
        f_rules.push_str(&format!("  IF {g} THEN !exception();\n"));
    }
    let mut g_rules = String::new();
    for (p, c) in exception {
        g_rules.push_str(&format!("  IF {p} THEN {c};\n"));
    }
    format!(
        "CONSTANT st = {{alpha, beta, gamma}}\n\
         CONSTANT dirs = 0 TO 3\n\
         VARIABLE state IN st INIT alpha\n\
         VARIABLE count IN 0 TO 15 INIT 0\n\
         VARIABLE flags[dirs] IN bool\n\
         INPUT level[dirs] IN 0 TO 7\n\
         INPUT go IN bool\n\
         ON route(d IN dirs) RETURNS 0 TO 15\n{f_rules}END route;\n\
         ON exception() RETURNS 0 TO 15\n{g_rules}END exception;"
    )
}

/// Fires a base and follows emitted events into other rule bases;
/// returns the final RETURN plus the events that escape to the host.
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

/// [`cascade`] generalized over the firing backend: `fire(base, params,
/// regs)` supplies one rule-base interpretation, and emitted events are
/// followed into other rule bases exactly as the machine would. Errors
/// propagate so err-ness can be compared across arms.
fn cascade_with<F>(
    prog: &Program,
    bi: usize,
    params: &[Value],
    regs: &mut RegFile,
    fire: &mut F,
) -> ftr_rules::Result<(Option<Value>, Vec<EventInstance>)>
where
    F: FnMut(usize, &[Value], &mut RegFile) -> ftr_rules::Result<FireOutcome>,
{
    let out = fire(bi, params, regs)?;
    let mut ret = out.returned;
    let mut host = Vec::new();
    for ev in out.emitted {
        match prog.rulebase(&ev.event) {
            Some((ti, trb)) if trb.params.len() == ev.args.len() => {
                let (r, h) = cascade_with(prog, ti, &ev.args, regs, fire)?;
                if r.is_some() {
                    ret = r;
                }
                host.extend(h);
            }
            _ => host.push(ev),
        }
    }
    Ok((ret, host))
}

fn random_inputs(rng: &mut StdRng, prog: &Program) -> InputMap {
    let mut im = InputMap::default();
    for i in 0..4 {
        im.set(prog, "level", &[Value::Int(i)], Value::Int(rng.gen_range(0..8))).unwrap();
    }
    im.set(prog, "go", &[], Value::Bool(rng.gen_bool(0.5))).unwrap();
    im
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimizer's contract, quantified over a program family: on
    /// every state reachable from INIT, the optimized program makes the
    /// same decisions and the certificate replays.
    #[test]
    fn optimized_programs_are_trajectory_identical(
        route_p in proptest::collection::vec(arb_premise(true), 1..5),
        route_c in proptest::collection::vec(arb_conclusion(true), 5),
        tail in arb_tail(),
        exc_p in proptest::collection::vec(arb_premise(false), 1..4),
        exc_c in proptest::collection::vec(arb_conclusion(false), 4),
        seed in any::<u64>(),
    ) {
        let route: Vec<(String, String)> =
            route_p.iter().cloned().zip(route_c.iter().cloned()).collect();
        let exc: Vec<(String, String)> =
            exc_p.iter().cloned().zip(exc_c.iter().cloned()).collect();
        let src = gen_program(&route, tail.as_ref(), &exc);
        let orig = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));

        let opts = OptOptions::default();
        let o = optimize_rulebase("prop", &orig, &opts)
            .unwrap_or_else(|e| panic!("optimize failed: {e}\n{src}"));
        let opt_prog = &o.compiled.prog;

        // the certificate must replay through the independent checker
        opt::verify(&orig, &o, &opts)
            .unwrap_or_else(|e| panic!("certificate rejected: {e}\n{src}"));

        // walk a reachable trajectory: fire every base with random
        // params/inputs from the INIT state onward, comparing decisions
        // and register effects at each step
        let mut rng = StdRng::seed_from_u64(seed);
        let mut regs_a = RegFile::new(&orig);
        let mut regs_b = RegFile::new(opt_prog);
        prop_assert_eq!(&regs_a, &regs_b, "register layouts diverged\n{}", src);

        let ss = orig.sym_sizes();
        for step in 0..40 {
            let im = random_inputs(&mut rng, &orig);
            for bi in 0..orig.rulebases.len() {
                let params: Vec<Value> = orig.rulebases[bi]
                    .params
                    .iter()
                    .map(|p| p.dom.value_at(rng.gen_range(0..p.dom.size(ss))))
                    .collect();
                let (ra, ha) = cascade(&orig, bi, &params, &mut regs_a, &im);
                let (rb, hb) = cascade(opt_prog, bi, &params, &mut regs_b, &im);
                prop_assert_eq!(
                    &ra, &rb,
                    "step {} base {} returned differently (params {:?})\n{}",
                    step, bi, params, src
                );
                prop_assert_eq!(
                    &ha, &hb,
                    "step {} base {} emitted different host events\n{}",
                    step, bi, src
                );
                prop_assert_eq!(
                    &regs_a, &regs_b,
                    "step {} base {} left different register state\n{}",
                    step, bi, src
                );
            }
        }
    }

    /// The backend contract, quantified over the same program family:
    /// reference evaluator, table interpreter, and bytecode VM (over
    /// both the plain and the E18-optimized tables) make identical
    /// decisions — same returns, host events, and register effects — on
    /// every step of random trajectories from INIT. When one arm errors,
    /// every arm must error.
    #[test]
    fn table_and_bytecode_backends_match_the_reference_evaluator(
        route_p in proptest::collection::vec(arb_premise(true), 1..5),
        route_c in proptest::collection::vec(arb_conclusion(true), 5),
        tail in arb_tail(),
        exc_p in proptest::collection::vec(arb_premise(false), 1..4),
        exc_c in proptest::collection::vec(arb_conclusion(false), 4),
        seed in any::<u64>(),
    ) {
        let route: Vec<(String, String)> =
            route_p.iter().cloned().zip(route_c.iter().cloned()).collect();
        let exc: Vec<(String, String)> =
            exc_p.iter().cloned().zip(exc_c.iter().cloned()).collect();
        let src = gen_program(&route, tail.as_ref(), &exc);
        let prog = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));

        let compiled = compile(&prog, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let vm = VmProgram::lower(&compiled)
            .unwrap_or_else(|e| panic!("lowering failed: {e}\n{src}"));
        let o = optimize_rulebase("prop", &prog, &OptOptions::default())
            .unwrap_or_else(|e| panic!("optimize failed: {e}\n{src}"));
        let vm_opt = VmProgram::lower(&o.compiled)
            .unwrap_or_else(|e| panic!("lowering optimized failed: {e}\n{src}"));

        let mut rng = StdRng::seed_from_u64(seed);
        let mut regs_r = RegFile::new(&prog);
        let mut regs_t = RegFile::new(&compiled.prog);
        let mut regs_v = RegFile::new(&compiled.prog);
        let mut regs_o = RegFile::new(&o.compiled.prog);
        let mut sc_v = Scratch::new();
        let mut sc_o = Scratch::new();

        let ss = prog.sym_sizes();
        'trajectory: for step in 0..40 {
            let im = random_inputs(&mut rng, &prog);
            for bi in 0..prog.rulebases.len() {
                let params: Vec<Value> = prog.rulebases[bi]
                    .params
                    .iter()
                    .map(|p| p.dom.value_at(rng.gen_range(0..p.dom.size(ss))))
                    .collect();
                let rr = cascade_with(&prog, bi, &params, &mut regs_r, &mut |b, p, rg| {
                    fire_reference(&prog, b, p, rg, &im)
                });
                let rt = cascade_with(&compiled.prog, bi, &params, &mut regs_t, &mut |b, p, rg| {
                    compiled.bases[b].fire(&compiled.prog, p, rg, &im)
                });
                let rv = cascade_with(&compiled.prog, bi, &params, &mut regs_v, &mut |b, p, rg| {
                    vm.bases[b].fire(&compiled.prog, p, rg, &im, &mut sc_v)
                });
                let ro = cascade_with(&o.compiled.prog, bi, &params, &mut regs_o, &mut |b, p, rg| {
                    vm_opt.bases[b].fire(&o.compiled.prog, p, rg, &im, &mut sc_o)
                });
                match rr {
                    Err(e) => {
                        // err-ness must agree everywhere (messages may
                        // differ in evaluation-order detail); the state
                        // after an error is unspecified, so stop here
                        prop_assert!(rt.is_err(), "step {} base {}: reference erred ({}) but table succeeded\n{}", step, bi, e, src);
                        prop_assert!(rv.is_err(), "step {} base {}: reference erred ({}) but bytecode succeeded\n{}", step, bi, e, src);
                        prop_assert!(ro.is_err(), "step {} base {}: reference erred ({}) but optimized bytecode succeeded\n{}", step, bi, e, src);
                        break 'trajectory;
                    }
                    Ok(ref want) => {
                        let got_t = rt.unwrap_or_else(|e| panic!("table erred where reference succeeded: {e}\n{src}"));
                        let got_v = rv.unwrap_or_else(|e| panic!("bytecode erred where reference succeeded: {e}\n{src}"));
                        let got_o = ro.unwrap_or_else(|e| panic!("optimized bytecode erred where reference succeeded: {e}\n{src}"));
                        prop_assert_eq!(want, &got_t, "step {} base {}: table diverged (params {:?})\n{}", step, bi, &params, &src);
                        prop_assert_eq!(want, &got_v, "step {} base {}: bytecode diverged (params {:?})\n{}", step, bi, &params, &src);
                        prop_assert_eq!(want, &got_o, "step {} base {}: optimized bytecode diverged (params {:?})\n{}", step, bi, &params, &src);
                        prop_assert_eq!(&regs_r, &regs_t, "step {} base {}: table register state diverged\n{}", step, bi, &src);
                        prop_assert_eq!(&regs_r, &regs_v, "step {} base {}: bytecode register state diverged\n{}", step, bi, &src);
                        prop_assert_eq!(&regs_r, &regs_o, "step {} base {}: optimized bytecode register state diverged\n{}", step, bi, &src);
                    }
                }
            }
        }
    }
}
