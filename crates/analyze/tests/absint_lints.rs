//! The abstract-interpretation lints (FTR009–FTR012) over the shipped
//! rule programs: every shipped program must come out clean, and seeded
//! defects the table lints cannot see must be found.

use ftr_analyze::{analyze_source_with, LintCode, LintOptions, Severity, TopoFacts};

fn full_opts() -> LintOptions {
    LintOptions { absint: true, topo: TopoFacts::mesh(8, 8) }
}

#[test]
fn production_programs_are_clean_under_the_absint_lints() {
    // every shipped program, the deadlock verifier's negative exemplar too
    for (name, src) in ftr_algos::rules_src::all() {
        let a =
            analyze_source_with(name, src, &full_opts()).unwrap_or_else(|e| panic!("{name}: {e}"));
        for code in [LintCode::AbsintUnreachable, LintCode::SemanticShadow] {
            let hits = a.with_code(code);
            let loud: Vec<_> = hits.iter().filter(|d| d.severity >= Severity::Warning).collect();
            assert!(
                loud.is_empty(),
                "{name}: unexpected {} findings at warning level: {loud:?}",
                code.id()
            );
        }
        // FTR009 must produce nothing at all on the shipped routers
        assert!(
            a.with_code(LintCode::AbsintUnreachable).is_empty(),
            "{name}: {:?}",
            a.with_code(LintCode::AbsintUnreachable)
        );
    }
}

#[test]
fn nafta_exception_fallbacks_shadow_at_note_level_only() {
    // test_exception's unconditional fallbacks are shadowed only because
    // de_east/de_west provably stay at their INIT value: that is the
    // optimizer's deletion justification, surfaced as a note (a host
    // write to the exception registers would activate the fallbacks)
    let a = analyze_source_with("nafta", ftr_algos::rules_src::NAFTA, &full_opts()).unwrap();
    let shadows = a.with_code(LintCode::SemanticShadow);
    assert_eq!(shadows.len(), 2, "{shadows:?}");
    for d in &shadows {
        assert_eq!(d.severity, Severity::Note);
        assert_eq!(d.rulebase.as_deref(), Some("test_exception"));
        assert!(d.message.contains("host write"), "{}", d.message);
    }
}

#[test]
fn semantic_lints_fire_on_seeded_defects() {
    // interval-provable unreachability and entailment shadowing that the
    // propositional table lints (FTR001/FTR002) cannot see
    let src = "INPUT n IN 0 TO 15\n\
               VARIABLE z IN 0 TO 7 INIT 3\n\
               ON f() RETURNS 0 TO 3\n\
                 IF n > 3 THEN RETURN(0);\n\
                 IF n > 5 AND z = 3 THEN RETURN(1);\n\
                 IF n < 2 AND n > 9 THEN RETURN(2);\n\
                 IF TRUE THEN RETURN(3);\n\
               END f;";
    let a =
        analyze_source_with("seeded", src, &LintOptions { absint: true, topo: TopoFacts::none() })
            .unwrap();
    assert!(
        !a.with_code(LintCode::SemanticShadow).is_empty(),
        "n > 5 entails n > 3: {:?}",
        a.diagnostics
    );
    assert!(
        !a.with_code(LintCode::AbsintUnreachable).is_empty(),
        "n < 2 AND n > 9 is interval-unsat: {:?}",
        a.diagnostics
    );
    assert!(
        !a.with_code(LintCode::ConstantRegister).is_empty(),
        "z is provably 3: {:?}",
        a.diagnostics
    );
}
