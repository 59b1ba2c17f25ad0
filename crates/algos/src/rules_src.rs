//! The rule-language source programs shipped with the crate.
//!
//! These are the inputs to the rule compiler / cost model; the bench
//! binaries `table1` and `table2` run [`ftr_rules::cost::analyze`] on
//! [`NAFTA`] and [`ROUTE_C`] to regenerate the paper's tables.

use ftr_rules::{parse, Program, Result};

/// XY dimension-order routing (oblivious baseline; drives the rule router
/// in the quickstart example).
pub const XY: &str = include_str!("../rules/xy.rules");

/// West-first turn-model routing (the "new algorithm = new rule program"
/// flexibility demo).
pub const WEST_FIRST: &str = include_str!("../rules/west_first.rules");

/// NAFTA — all eleven rule bases of Table 1; the NFT-marked subset is NARA.
pub const NAFTA: &str = include_str!("../rules/nafta.rules");

/// ROUTE_C — the four rule bases of Table 2 (d = 6, a = 2).
pub const ROUTE_C: &str = include_str!("../rules/route_c.rules");

/// The stripped non-fault-tolerant ROUTE_C variant.
pub const ROUTE_C_NFT: &str = include_str!("../rules/route_c_nft.rules");

/// Naive fully-adaptive minimal routing on one virtual channel — the
/// classic deadlock/livelock baseline (any free minimal direction, no
/// turn restriction). Negative exemplar for the deadlock verifier.
pub const NAIVE_ADAPTIVE: &str = include_str!("../rules/naive_adaptive.rules");

/// Parses one of the shipped programs (they are tested to parse; this
/// returns `Result` so callers can reuse it for user-supplied sources).
pub fn parse_program(src: &str) -> Result<Program> {
    parse(src)
}

/// All shipped programs as `(name, source)` pairs.
pub fn all() -> Vec<(&'static str, &'static str)> {
    vec![
        ("xy", XY),
        ("west_first", WEST_FIRST),
        ("nafta", NAFTA),
        ("route_c", ROUTE_C),
        ("route_c_nft", ROUTE_C_NFT),
        ("naive_adaptive", NAIVE_ADAPTIVE),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_rules::{compile, CompileOptions};

    #[test]
    fn all_programs_parse() {
        for (name, src) in all() {
            parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn all_programs_compile() {
        for (name, src) in all() {
            let p = parse_program(src).unwrap();
            compile(&p, &CompileOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn nafta_has_the_eleven_table1_bases() {
        let p = parse_program(NAFTA).unwrap();
        let names: Vec<&str> = p.rulebases.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "incoming_message",
            "in_message_ft",
            "update_dir_table",
            "message_finished",
            "calculate_new_node_state",
            "test_exception",
            "tell_my_neighbors",
            "flit_finished",
            "fault_occured",
            "message_from_info_channel",
            "consider_neighbor_state",
        ] {
            assert!(names.contains(&expected), "missing rule base {expected}");
        }
        assert_eq!(p.rulebases.len(), 11);
    }

    #[test]
    fn nafta_nft_subset_matches_paper() {
        let p = parse_program(NAFTA).unwrap();
        let nft: Vec<&str> =
            p.rulebases.iter().filter(|r| r.nft).map(|r| r.name.as_str()).collect();
        assert_eq!(
            nft,
            vec![
                "incoming_message",
                "message_finished",
                "tell_my_neighbors",
                "flit_finished",
                "message_from_info_channel",
            ],
            "the (*) column of Table 1"
        );
    }

    #[test]
    fn route_c_has_the_table2_bases() {
        let p = parse_program(ROUTE_C).unwrap();
        let names: Vec<&str> = p.rulebases.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["decide_dir", "decide_vc", "update_state", "adaptivity"]);
        let nft: Vec<&str> =
            p.rulebases.iter().filter(|r| r.nft).map(|r| r.name.as_str()).collect();
        assert_eq!(nft, vec!["decide_dir", "adaptivity"], "the (*) column of Table 2");
    }
}

/// Generates the ROUTE_C rule program for an arbitrary hypercube dimension
/// (the shipped [`ROUTE_C`] constant is the d = 6, a = 2 instance used by
/// Table 2). This is the practical upside the paper claims over
/// table-based routers: supporting a different network size means
/// regenerating and recompiling the rule program, not new silicon.
pub fn route_c_source(dim: u32) -> String {
    assert!((2..=16).contains(&dim), "hypercube dimension out of range");
    let d = dim;
    let dm1 = d - 1;
    let count_hi = d + 1; // counters range 0..=d
    format!(
        "-- ROUTE_C rule program, generated for a {d}-dimensional hypercube
CONSTANT dims = 0 TO {dm1}
CONSTANT vcsd = 0 TO 4
CONSTANT phases = 0 TO 1
CONSTANT fault_states = {{safe, lfault, ounsafe, sunsafe, faulty}}

VARIABLE state IN fault_states INIT safe
VARIABLE neighb_state[dims] IN fault_states INIT safe
VARIABLE number_unsafe IN 0 TO {count_hi} INIT 0
VARIABLE number_faulty IN 0 TO {count_hi} INIT 0
VARIABLE adapt IN 0 TO 3 INIT 0
VARIABLE chosen IN dims INIT 0
VARIABLE load_est[dims] IN 0 TO 255

INPUT diffup IN SETOF dims
INPUT diffdown IN SETOF dims
INPUT okdirs IN SETOF dims
INPUT cands IN SETOF dims
INPUT out_queue[dims] IN 0 TO 255
INPUT new_state[dims] IN fault_states
INPUT phase IN phases
INPUT misr IN bool
INPUT freevc[vcsd] IN bool

ON decide_dir() RETURNS SETOF dims NFT
  IF NOT (card(isect(diffup, okdirs)) = 0) THEN RETURN(isect(diffup, okdirs));
  IF NOT (card(isect(diffdown, okdirs)) = 0) THEN RETURN(isect(diffdown, okdirs));
  IF TRUE THEN RETURN(diff(okdirs, union(diffup, diffdown)));
END decide_dir;

ON decide_vc() RETURNS 0 TO 7
  IF misr AND freevc(2) THEN chosen <- argmin(out_queue, cands), RETURN(2);
  IF misr AND freevc(3) THEN chosen <- argmin(out_queue, cands), RETURN(3);
  IF misr AND freevc(4) THEN chosen <- argmin(out_queue, cands), RETURN(4);
  IF misr THEN RETURN(7);
  IF phase = 0 AND freevc(0)
    THEN chosen <- argmin(out_queue, cands),
         adapt <- min(adapt + 1, 3),
         RETURN(0);
  IF phase = 1 AND freevc(1)
    THEN chosen <- argmin(out_queue, cands),
         adapt <- min(adapt + 1, 3),
         RETURN(1);
  IF TRUE THEN RETURN(7);
END decide_vc;

ON update_state(dir IN dims)
  IF new_state(dir) IN {{faulty, lfault}} AND number_faulty = 0
    THEN neighb_state(dir) <- new_state(dir),
         number_faulty <- number_faulty + 1,
         number_unsafe <- number_unsafe + 1;
  IF new_state(dir) IN {{faulty, lfault}} AND number_faulty = 1 AND state = safe
    THEN state <- ounsafe,
         number_faulty <- min(number_faulty + 1, {count_hi}),
         number_unsafe <- min(number_unsafe + 1, {count_hi}),
         FORALL i IN dims: !send_newmessage(i, 2),
         neighb_state(dir) <- new_state(dir);
  IF new_state(dir) IN {{faulty, lfault}} AND number_faulty > 0
    THEN neighb_state(dir) <- new_state(dir),
         number_faulty <- min(number_faulty + 1, {count_hi}),
         number_unsafe <- min(number_unsafe + 1, {count_hi});
  IF new_state(dir) IN {{sunsafe, ounsafe}} AND state = safe AND number_unsafe = 2
    THEN state <- ounsafe,
         number_unsafe <- number_unsafe + 1,
         FORALL i IN dims: !send_newmessage(i, 2),
         neighb_state(dir) <- new_state(dir);
  IF new_state(dir) IN {{sunsafe, ounsafe}} AND number_unsafe = {dm1}
    THEN state <- latmax(state, sunsafe),
         number_unsafe <- number_unsafe + 1,
         FORALL i IN dims: !send_newmessage(i, 3),
         neighb_state(dir) <- new_state(dir);
  IF new_state(dir) IN {{sunsafe, ounsafe}}
    THEN neighb_state(dir) <- new_state(dir),
         number_unsafe <- min(number_unsafe + 1, {count_hi});
END update_state;

ON adaptivity(dir IN dims) NFT
  IF load_est(dir) < 255 THEN load_est(dir) <- load_est(dir) + 1;
END adaptivity;
"
    )
}

#[cfg(test)]
mod gen_tests {
    use super::*;
    use ftr_rules::{compile, CompileOptions};

    #[test]
    fn generated_route_c_compiles_for_many_dims() {
        for d in [3u32, 4, 5, 6, 8] {
            let src = route_c_source(d);
            let p = parse_program(&src).unwrap_or_else(|e| panic!("d={d}: {e}"));
            compile(&p, &CompileOptions::default()).unwrap_or_else(|e| panic!("d={d}: {e}"));
            assert_eq!(p.rulebases.len(), 4);
        }
    }

    #[test]
    fn generated_matches_shipped_structure_at_d6() {
        let p = parse_program(&route_c_source(6)).unwrap();
        let shipped = parse_program(ROUTE_C).unwrap();
        let names: Vec<_> = p.rulebases.iter().map(|r| r.name.clone()).collect();
        let shipped_names: Vec<_> = shipped.rulebases.iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, shipped_names);
    }
}
