//! Hardware cost model — the machinery behind Tables 1 and 2.
//!
//! For every rule base the model reports the compiled table geometry
//! (`entries × width` bits, the paper's "Size (Bit)" column), the FCFB
//! inventory, and the `nft` marker; for every register its bit width and
//! which rule bases write it. Totals separate the fault-tolerance-only
//! share, reproducing the paper's §5 statements like "159 bits are
//! organized in 8 registers ... only 47 bits account for fault-tolerance".
//!
//! **Width convention.** The paper does not spell out how entry widths were
//! derived. We use: `width = ceil(log2(#rules + 1)) + width(RETURNS type)`
//! — a conclusion selector (including the no-rule gap value) plus the
//! immediate return field. EXPERIMENTS.md compares these against the
//! paper's numbers per rule base.

use crate::ast::{Command, Expr, Program, Ref, RuleBase};
use crate::compile::{compile, CompileOptions};
use crate::error::Result;
use crate::fcfb::{inventory, FcfbInventory};
use crate::interp::CompiledProgram;
use serde::{Deserialize, Serialize};

/// Cost of one compiled rule base.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RuleBaseCost {
    /// Rule base / event name.
    pub name: String,
    /// Table entries (feature-space size).
    pub entries: u64,
    /// Entry width in bits.
    pub width_bits: u32,
    /// `entries × width`.
    pub table_bits: u64,
    /// Number of rules.
    pub num_rules: usize,
    /// FCFB kinds and distinct-use counts.
    pub fcfbs: Vec<(String, usize)>,
    /// Needed by the non-fault-tolerant variant?
    pub nft: bool,
}

/// Cost of one register.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegisterCost {
    /// Register name.
    pub name: String,
    /// Bits per cell.
    pub cell_bits: u32,
    /// Number of cells (product of index-domain sizes).
    pub cells: u64,
    /// Total bits.
    pub total_bits: u64,
    /// Rule bases that write this register.
    pub writers: Vec<String>,
    /// Rule bases that read this register.
    pub readers: Vec<String>,
    /// True if no nft rule base touches it — i.e. the register exists only
    /// for fault tolerance.
    pub ft_only: bool,
}

/// Aggregate cost report for a program.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProgramCost {
    /// Per rule base.
    pub rulebases: Vec<RuleBaseCost>,
    /// Per register.
    pub registers: Vec<RegisterCost>,
}

impl ProgramCost {
    /// Total rule-table bits.
    pub fn total_table_bits(&self) -> u64 {
        self.rulebases.iter().map(|r| r.table_bits).sum()
    }

    /// Table bits of the non-fault-tolerant subset.
    pub fn nft_table_bits(&self) -> u64 {
        self.rulebases.iter().filter(|r| r.nft).map(|r| r.table_bits).sum()
    }

    /// Total register bits.
    pub fn total_register_bits(&self) -> u64 {
        self.registers.iter().map(|r| r.total_bits).sum()
    }

    /// Register bits that exist only for fault tolerance.
    pub fn ft_only_register_bits(&self) -> u64 {
        self.registers.iter().filter(|r| r.ft_only).map(|r| r.total_bits).sum()
    }

    /// Number of registers (paper counts declarations, not cells).
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Renders the rule-base table in the paper's Table 1/2 layout.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| Name | Size (Bit) | FCFBs | nft |\n");
        out.push_str("|------|-----------:|-------|:---:|\n");
        for rb in &self.rulebases {
            let fcfbs = if rb.fcfbs.is_empty() {
                "no FCFB needed".to_string()
            } else {
                rb.fcfbs
                    .iter()
                    .map(|(k, n)| if *n > 1 { format!("{n} x {k}") } else { k.clone() })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "| {} | {} x {} = {} | {} | {} |\n",
                rb.name,
                rb.entries,
                rb.width_bits,
                rb.table_bits,
                fcfbs,
                if rb.nft { "*" } else { "" }
            ));
        }
        out.push_str(&format!(
            "\nTotal table bits: {} (nft subset: {})\n",
            self.total_table_bits(),
            self.nft_table_bits()
        ));
        out.push_str(&format!(
            "Registers: {} bits in {} registers ({} bits fault-tolerance-only)\n",
            self.total_register_bits(),
            self.num_registers(),
            self.ft_only_register_bits()
        ));
        out
    }
}

fn expr_reads_var(e: &Expr, var: usize) -> bool {
    match e {
        Expr::Ref(Ref::Var(i)) => *i == var,
        Expr::Indexed { target, indices } => {
            matches!(target, crate::ast::IndexedRef::Var(i) if *i == var)
                || indices.iter().any(|x| expr_reads_var(x, var))
        }
        Expr::Lit(_) | Expr::Ref(_) => false,
        Expr::Un(_, inner) => expr_reads_var(inner, var),
        Expr::Bin(_, l, r) => expr_reads_var(l, var) || expr_reads_var(r, var),
        Expr::Quant { set, body, .. } => expr_reads_var(set, var) || expr_reads_var(body, var),
        Expr::Call { args, .. } => args.iter().any(|a| expr_reads_var(a, var)),
    }
}

fn command_touches_var(c: &Command, var: usize) -> (bool, bool) {
    // (reads, writes)
    match c {
        Command::Assign { var: v, indices, value } => {
            let reads =
                indices.iter().any(|i| expr_reads_var(i, var)) || expr_reads_var(value, var);
            (reads, *v == var)
        }
        Command::Return(e) => (expr_reads_var(e, var), false),
        Command::Emit { args, .. } => (args.iter().any(|a| expr_reads_var(a, var)), false),
        Command::ForAll { set, body, .. } => {
            let mut reads = expr_reads_var(set, var);
            let mut writes = false;
            for b in body {
                let (r, w) = command_touches_var(b, var);
                reads |= r;
                writes |= w;
            }
            (reads, writes)
        }
    }
}

fn rulebase_touches_var(rb: &RuleBase, var: usize) -> (bool, bool) {
    let mut reads = false;
    let mut writes = false;
    for rule in &rb.rules {
        reads |= expr_reads_var(&rule.premise, var);
        for c in &rule.conclusion {
            let (r, w) = command_touches_var(c, var);
            reads |= r;
            writes |= w;
        }
    }
    (reads, writes)
}

/// Analyses a program: compiles every rule base and derives the full cost
/// report.
pub fn analyze(prog: &Program, opts: &CompileOptions) -> Result<ProgramCost> {
    Ok(analyze_compiled(&compile(prog, opts)?))
}

/// Derives the full cost report of a program that is already compiled —
/// under whatever options its tables were accepted with.
pub fn analyze_compiled(compiled: &CompiledProgram) -> ProgramCost {
    let prog = &compiled.prog;
    let ss = prog.sym_sizes();
    let mut rulebases = Vec::new();
    for (rb, base) in prog.rulebases.iter().zip(&compiled.bases) {
        let inv: FcfbInventory = inventory(prog, rb);
        rulebases.push(RuleBaseCost {
            name: rb.name.clone(),
            entries: base.entries,
            width_bits: base.width_bits,
            table_bits: base.table_bits(),
            num_rules: rb.rules.len(),
            fcfbs: inv.into_iter().map(|(k, n)| (k.to_string(), n)).collect(),
            nft: rb.nft,
        });
    }

    let mut registers = Vec::new();
    for (vi, v) in prog.vars.iter().enumerate() {
        let cell_bits = v.elem.width_bits(ss);
        let cells: u64 = v.index_domains.iter().map(|d| d.size(ss)).product::<u64>().max(1);
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        let mut nft_touch = false;
        for rb in &prog.rulebases {
            let (r, w) = rulebase_touches_var(rb, vi);
            if w {
                writers.push(rb.name.clone());
            }
            if r {
                readers.push(rb.name.clone());
            }
            if rb.nft && (r || w) {
                nft_touch = true;
            }
        }
        registers.push(RegisterCost {
            name: v.name.clone(),
            cell_bits,
            cells,
            total_bits: cell_bits as u64 * cells,
            writers,
            readers,
            ft_only: !nft_touch,
        });
    }

    ProgramCost { rulebases, registers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = "
CONSTANT st = {safe, faulty}
CONSTANT dirs = 0 TO 3
VARIABLE state IN st INIT safe           -- 1 bit, FT only
VARIABLE count IN 0 TO 15 INIT 0         -- 4 bits, used by nft base
VARIABLE marks[dirs] IN bool             -- 4 x 1 bits, FT only

ON route(d IN dirs) RETURNS dirs NFT
  IF count < 15 THEN count <- count + 1, RETURN(d);
END route;

ON fault(d IN dirs)
  IF state = safe THEN state <- faulty, marks(d) <- TRUE;
END fault;
";

    #[test]
    fn register_accounting() {
        let p = parse(SRC).unwrap();
        let c = analyze(&p, &CompileOptions::default()).unwrap();
        assert_eq!(c.num_registers(), 3);
        let state = c.registers.iter().find(|r| r.name == "state").unwrap();
        assert_eq!(state.total_bits, 1);
        assert!(state.ft_only);
        let count = c.registers.iter().find(|r| r.name == "count").unwrap();
        assert_eq!(count.total_bits, 4);
        assert!(!count.ft_only);
        let marks = c.registers.iter().find(|r| r.name == "marks").unwrap();
        assert_eq!(marks.cells, 4);
        assert_eq!(marks.total_bits, 4);
        assert!(marks.ft_only);
        assert_eq!(c.total_register_bits(), 9);
        assert_eq!(c.ft_only_register_bits(), 5);
    }

    #[test]
    fn writers_and_readers_tracked() {
        let p = parse(SRC).unwrap();
        let c = analyze(&p, &CompileOptions::default()).unwrap();
        let count = c.registers.iter().find(|r| r.name == "count").unwrap();
        assert_eq!(count.writers, vec!["route"]);
        assert_eq!(count.readers, vec!["route"]);
        let state = c.registers.iter().find(|r| r.name == "state").unwrap();
        assert_eq!(state.writers, vec!["fault"]);
    }

    #[test]
    fn nft_split_of_table_bits() {
        let p = parse(SRC).unwrap();
        let c = analyze(&p, &CompileOptions::default()).unwrap();
        assert!(c.nft_table_bits() > 0);
        assert!(c.nft_table_bits() < c.total_table_bits());
        let route = c.rulebases.iter().find(|r| r.name == "route").unwrap();
        assert!(route.nft);
        let fault = c.rulebases.iter().find(|r| r.name == "fault").unwrap();
        assert!(!fault.nft);
    }

    #[test]
    fn markdown_has_table_shape() {
        let p = parse(SRC).unwrap();
        let c = analyze(&p, &CompileOptions::default()).unwrap();
        let md = c.to_markdown();
        assert!(md.contains("| Name | Size (Bit) | FCFBs | nft |"));
        assert!(md.contains("| route |"));
        assert!(md.contains("Total table bits:"));
    }
}
