//! The rule-language source programs shipped with the crate.
//!
//! These are the inputs to the rule compiler / cost model; the bench
//! binaries `table1` and `table2` run [`ftr_rules::cost::analyze`] on
//! [`NAFTA`] and [`ROUTE_C`] to regenerate the paper's tables.

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
    use ftr_rules::{compile, parse, CompileOptions};

    #[test]
    fn all_programs_parse() {
        for (name, src) in all() {
            parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn all_programs_compile() {
        for (name, src) in all() {
            let p = parse(src).unwrap();
            compile(&p, &CompileOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn nafta_has_the_eleven_table1_bases() {
        let p = parse(NAFTA).unwrap();
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
        let p = parse(NAFTA).unwrap();
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
        let p = parse(ROUTE_C).unwrap();
        let names: Vec<&str> = p.rulebases.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["decide_dir", "decide_vc", "update_state", "adaptivity"]);
        let nft: Vec<&str> =
            p.rulebases.iter().filter(|r| r.nft).map(|r| r.name.as_str()).collect();
        assert_eq!(nft, vec!["decide_dir", "adaptivity"], "the (*) column of Table 2");
    }
}

/// The ROUTE_C rule program for an arbitrary hypercube dimension: the
/// shipped [`ROUTE_C`] with its one `CONSTANT d = 6` line set to `dim`
/// (so `route_c_source(6) == ROUTE_C`). This is the practical upside the
/// paper claims over table-based routers: supporting a different network
/// size means recompiling the rule program, not new silicon.
pub fn route_c_source(dim: u32) -> String {
    assert!((2..=16).contains(&dim), "hypercube dimension out of range");
    const D6: &str = "\nCONSTANT d = 6\n";
    assert_eq!(ROUTE_C.matches(D6).count(), 1, "ROUTE_C declares `CONSTANT d = 6` on one line");
    ROUTE_C.replacen(D6, &["\nCONSTANT d = ", &dim.to_string(), "\n"].concat(), 1)
}

#[cfg(test)]
mod gen_tests {
    use super::*;
    use ftr_rules::{compile, parse, CompileOptions, Domain, Type};

    #[test]
    fn generated_route_c_compiles_for_many_dims() {
        assert_eq!(route_c_source(6), ROUTE_C);
        for d in [3u32, 4, 5, 6, 8] {
            let src = route_c_source(d);
            let p = parse(&src).unwrap_or_else(|e| panic!("d={d}: {e}"));
            compile(&p, &CompileOptions::default()).unwrap_or_else(|e| panic!("d={d}: {e}"));
            assert_eq!(p.rulebases.len(), 4);
            assert_eq!(p.inputs[0].elem, Type::Set(Domain::Int { lo: 0, hi: d as i64 - 1 }));
        }
    }
}
