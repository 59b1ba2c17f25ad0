//! The parametric family of random well-typed rule programs, shared by
//! the property tests in `prop_rules.rs` and the fill differential in
//! `src/compile.rs` (which includes this file by path).

use proptest::prelude::*;

/// Generates a small rule program over a fixed environment: integer
/// counter, symbol state, bool array, int array — with randomized rule
/// premises drawn from a grammar of comparisons, membership tests and
/// quantifiers.
pub fn gen_program(premises: &[String], conclusions: &[String]) -> String {
    let mut rules = String::new();
    for (p, c) in premises.iter().zip(conclusions) {
        rules.push_str(&format!("  IF {p} THEN {c};\n"));
    }
    format!(
        "CONSTANT st = {{alpha, beta, gamma}}\n\
         CONSTANT dirs = 0 TO 3\n\
         VARIABLE state IN st INIT alpha\n\
         VARIABLE count IN 0 TO 15 INIT 0\n\
         VARIABLE flags[dirs] IN bool\n\
         INPUT level[dirs] IN 0 TO 7\n\
         INPUT go IN bool\n\
         ON f(d IN dirs) RETURNS 0 TO 15\n{rules}END f;"
    )
}

pub fn arb_premise() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("state = alpha".to_string()),
        Just("state = beta".to_string()),
        Just("state IN {beta, gamma}".to_string()),
        Just("count = 0".to_string()),
        Just("count > 3".to_string()),
        Just("count <= 9".to_string()),
        Just("go".to_string()),
        Just("flags(d)".to_string()),
        Just("level(d) > 2".to_string()),
        Just("level(d) = 7".to_string()),
        Just("level(0) < level(1)".to_string()),
        Just("EXISTS i IN dirs: flags(i)".to_string()),
        Just("FORALL i IN dirs: level(i) < 6".to_string()),
        Just("d IN {0, 2}".to_string()),
        Just("TRUE".to_string()),
    ];
    // combine 1-3 atoms with AND / OR / NOT
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

pub fn arb_conclusion() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("RETURN(1)".to_string()),
        Just("RETURN(d)".to_string()),
        Just("count <- min(count + 1, 15), RETURN(2)".to_string()),
        Just("state <- beta, RETURN(3)".to_string()),
        Just("flags(d) <- TRUE, RETURN(4)".to_string()),
        Just("state <- latmax(state, beta), RETURN(5)".to_string()),
        Just("RETURN(min(count, 9))".to_string()),
    ]
}
