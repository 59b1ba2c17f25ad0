//! # ftr-core — the flexible fault-tolerant router
//!
//! The paper's router architecture (Figure 3) assembled from the other
//! crates: the **data path** (input/output buffers, connection unit) is the
//! simulator's router model; the **control unit** is a block of rule
//! interpreters (`ftr-rules`) coordinated by an event manager; the
//! **message interface** and **information units** — header fields, link
//! state and load delivered as rule inputs — are `ftr_algos::rule_io`,
//! bound to a program once when a router is built (DESIGN.md, "Message
//! interface", tabulates the convention).
//!
//! * [`configure`] is the "Rule Compiler": rule-language source →
//!   [`RouterConfiguration`] (compiled tables + hardware cost report).
//! * [`RuleHost`] plugs a configuration into `ftr-sim` as a
//!   [`ftr_sim::routing::RoutingAlgorithm`] on any topology a message
//!   interface is written for ([`RuleRouter`] on meshes, [`CubeRuleRouter`]
//!   on hypercubes), so a network can be *driven entirely by rule
//!   programs* — loading a different program changes the routing
//!   behaviour without touching the router (the paper's flexibility
//!   claim).
//! * [`registry`] names the shipped configurations (xy, west_first, nafta,
//!   route_c, route_c_nft).

pub mod cube_router;
pub mod registry;
pub mod report;
pub mod rule_router;

pub use cube_router::CubeRuleRouter;
pub use registry::{configuration, list_configurations};
pub use report::HardwareReport;
pub use rule_router::{RuleHost, RuleRouter};

use ftr_rules::{
    compile, cost, CompileOptions, CompiledProgram, InterpProbe, Machine, ProgramCost, Result,
    StepWeights,
};
use std::sync::Arc;

/// A compiled router configuration: the output of the paper's "rule
/// compiler" tool — configuration data for the rule interpreters plus the
/// hardware cost model used in §5.
#[derive(Clone, Debug)]
pub struct RouterConfiguration {
    /// Configuration name.
    pub name: String,
    /// Compiled program (tables + conclusion code), shared by every node
    /// machine of every router built from this configuration.
    pub compiled: Arc<CompiledProgram>,
    /// Hardware cost report (Table 1/2 shape).
    pub cost: ProgramCost,
    /// Modeled per-rule decision latencies, installed on every node
    /// machine (set for optimized programs so `decision_steps` stays
    /// comparable to the original program's interpretation counts).
    pub step_weights: Option<Arc<StepWeights>>,
    /// True when `compiled` came out of the certified optimizer rather
    /// than straight from source.
    pub optimized: bool,
}

impl RouterConfiguration {
    /// Builds a configuration from an already-compiled program — the
    /// entry point for programs rewritten by the certified optimizer
    /// (`ftr_analyze::opt::optimize_rulebase`), whose output is a
    /// standard [`CompiledProgram`]. It cannot fail; the `Result` stays
    /// for the callers that map its error.
    pub fn from_compiled(name: &str, compiled: impl Into<Arc<CompiledProgram>>) -> Result<Self> {
        let compiled = compiled.into();
        let cost = cost::analyze_compiled(&compiled);
        Ok(RouterConfiguration {
            name: name.to_string(),
            compiled,
            cost,
            step_weights: None,
            optimized: false,
        })
    }

    /// Installs modeled per-rule step weights and tags the configuration
    /// as optimized; routers propagate the weights into every node
    /// machine via `Machine::set_step_weights`.
    pub fn with_step_weights(mut self, weights: StepWeights) -> Self {
        self.step_weights = Some(Arc::new(weights));
        self.optimized = true;
        self
    }

    /// One node's rule machine: this configuration's program with its
    /// step weights and, if given, a per-stage probe.
    pub fn machine(&self, probe: Option<&Arc<dyn InterpProbe>>) -> Machine {
        let mut machine = Machine::from_compiled(Arc::clone(&self.compiled));
        if let Some(probe) = probe {
            machine.set_probe(Arc::clone(probe));
        }
        if let Some(w) = &self.step_weights {
            machine.set_step_weights(Arc::clone(w));
        }
        machine
    }

    /// The name a router driven by this configuration reports.
    pub(crate) fn algorithm_name(&self) -> String {
        format!("rule:{}{}", self.name, if self.optimized { "+opt" } else { "" })
    }
}

/// Compiles rule-language source into a router configuration.
pub fn configure(name: &str, src: &str) -> Result<RouterConfiguration> {
    let compiled = compile(&ftr_rules::parse(src)?, &CompileOptions::default())?;
    RouterConfiguration::from_compiled(name, compiled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configure_builds_cost_and_tables() {
        let cfg = configure("xy", ftr_algos::rules_src::XY).unwrap();
        assert_eq!(cfg.name, "xy");
        assert_eq!(cfg.compiled.bases.len(), 1);
        assert_eq!(cfg.cost.rulebases.len(), 1);
        assert!(cfg.cost.total_table_bits() > 0);
    }

    #[test]
    fn a_program_compiled_above_the_default_limit_configures() {
        // 2^21 entries: refused under `CompileOptions::default()`, so a
        // configuration that recompiled what it is handed would refuse it too
        let prog = ftr_rules::parse(
            "CONSTANT dirs = 0 TO 20\n\
             INPUT free[dirs] IN bool\n\
             ON f() RETURNS 0 TO 1\n\
               IF EXISTS i IN dirs: free(i) THEN RETURN(1);\n\
             END f;",
        )
        .unwrap();
        assert!(compile(&prog, &CompileOptions::default()).is_err());
        let compiled = compile(&prog, &CompileOptions { max_entries: 1 << 21 }).unwrap();
        let cfg = RouterConfiguration::from_compiled("wide", compiled).unwrap();
        assert_eq!(cfg.cost.rulebases[0].entries, 1 << 21);
    }

    #[test]
    fn configure_rejects_bad_source() {
        assert!(configure("bad", "ON f( END").is_err());
    }
}
