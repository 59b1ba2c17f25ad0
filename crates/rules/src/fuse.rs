//! Rule-base fusion cost model (experiment E5).
//!
//! The paper notes that consecutive interpretation steps can be merged into
//! one, "but this would result in very large rule bases with many complex
//! FCFBs. For instance the combination of the two rule bases of ROUTE_C
//! decide_dir and decide_vc requires a rule interpreter configuration with
//! 1024·2^d × (d+1+a) bits rule table" (§5). This module models exactly
//! that trade-off: the fused table indexes over the union of both feature
//! sets (deduplicated — shared features are wired once) and stores both
//! conclusions side by side.

use crate::compile::{survey, CompileOptions, Feature, FeatureKind};
use crate::error::{Result, RuleError};
use crate::Program;

/// Cost of fusing a chain of rule bases into a single interpretation step.
#[derive(Clone, Debug)]
pub struct FusedCost {
    /// Names of the fused bases, in chain order.
    pub names: Vec<String>,
    /// Feature count after deduplication.
    pub num_features: usize,
    /// Table entries (product of deduplicated feature radices).
    pub entries: u64,
    /// Entry width (sum of the member widths — both conclusions stored).
    pub width_bits: u32,
    /// `entries × width`.
    pub table_bits: u64,
    /// Sum of the members' separate table bits, for comparison.
    pub separate_table_bits: u64,
}

impl FusedCost {
    /// Blow-up factor of fusing versus keeping the steps separate.
    pub fn blowup(&self) -> f64 {
        self.table_bits as f64 / self.separate_table_bits.max(1) as f64
    }
}

fn same_feature(a: &Feature, b: &Feature) -> bool {
    match (&a.kind, &b.kind) {
        (FeatureKind::Direct { subject: s1, .. }, FeatureKind::Direct { subject: s2, .. }) => {
            s1 == s2
        }
        (FeatureKind::Predicate { expr: e1 }, FeatureKind::Predicate { expr: e2 }) => e1 == e2,
        _ => false,
    }
}

/// Computes the fused cost of the named rule bases.
///
/// Features appearing in several members are counted once (they can be
/// wired to one index digit); parameters of the individual bases become
/// extra index digits of the fused base, since the fused interpretation
/// must dispatch on them too.
pub fn fuse(prog: &Program, names: &[&str], opts: &CompileOptions) -> Result<FusedCost> {
    if names.len() < 2 {
        return Err(RuleError::resolve("fusion needs at least two rule bases".to_string()));
    }
    let mut features: Vec<Feature> = Vec::new();
    let mut width_bits = 0u32;
    let mut separate = 0u64;
    let mut params: Vec<(String, crate::value::Domain)> = Vec::new();
    let ss = prog.sym_sizes();

    for name in names {
        let (idx, rb) = prog
            .rulebase(name)
            .ok_or_else(|| RuleError::resolve(format!("no rule base `{name}`")))?;
        // geometry only: a fusion estimate never reads a filled table
        let member = survey(prog, idx, opts)?;
        separate += member.entries * member.width_bits as u64;
        width_bits += member.width_bits;
        for f in member.features() {
            if !features.iter().any(|g| same_feature(g, f)) {
                features.push(f.clone());
            }
        }
        // identically named parameters over the same domain share one wire
        for p in &rb.params {
            if !params.iter().any(|(n, d)| *n == p.name && *d == p.dom) {
                params.push((p.name.clone(), p.dom));
            }
        }
    }
    let param_radix = params.iter().fold(1u64, |a, (_, d)| a.saturating_mul(d.size(ss)));

    let entries =
        features.iter().map(|f| f.size).try_fold(param_radix, |a, b| a.checked_mul(b)).ok_or_else(
            || RuleError::Compile {
                rulebase: names.join("+"),
                msg: "fused feature space overflows u64".into(),
            },
        )?;

    Ok(FusedCost {
        names: names.iter().map(|s| s.to_string()).collect(),
        num_features: features.len(),
        entries,
        width_bits,
        table_bits: entries * width_bits as u64,
        separate_table_bits: separate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = "
CONSTANT st = {safe, faulty}
CONSTANT dirs = 0 TO 3
VARIABLE state IN st INIT safe
VARIABLE hops IN 0 TO 15 INIT 0
INPUT busy[dirs] IN bool

ON stage1(d IN dirs) RETURNS 0 TO 3
  IF state = safe AND busy(d) THEN RETURN(0);
  IF state = faulty THEN RETURN(1);
END stage1;

ON stage2(d IN dirs) RETURNS 0 TO 1
  IF state = safe AND hops > 4 THEN RETURN(1);
  IF TRUE THEN RETURN(0);
END stage2;
";

    #[test]
    fn fusion_dedupes_shared_features() {
        let p = parse(SRC).unwrap();
        let f = fuse(&p, &["stage1", "stage2"], &CompileOptions::default()).unwrap();
        // stage1 features: state (2), busy(d) (2); stage2: state (shared), hops>4 (2)
        assert_eq!(f.num_features, 3);
        // entries include the shared param d (4): 4 * 2 * 2 * 2 = 32
        assert_eq!(f.entries, 32);
        assert!(f.table_bits > 0);
    }

    #[test]
    fn fusion_blows_up_relative_to_separate() {
        let p = parse(SRC).unwrap();
        let f = fuse(&p, &["stage1", "stage2"], &CompileOptions::default()).unwrap();
        assert!(f.blowup() > 1.0, "fused {} vs separate {}", f.table_bits, f.separate_table_bits);
    }

    #[test]
    fn fusion_needs_two_bases() {
        let p = parse(SRC).unwrap();
        assert!(fuse(&p, &["stage1"], &CompileOptions::default()).is_err());
        assert!(fuse(&p, &["stage1", "nope"], &CompileOptions::default()).is_err());
    }
}
