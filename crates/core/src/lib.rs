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
//! * [`RuleRouter`] plugs a configuration into `ftr-sim` as a
//!   [`ftr_sim::routing::RoutingAlgorithm`], so a network can be *driven
//!   entirely by rule programs* — loading a different program changes the
//!   routing behaviour without touching the router (the paper's
//!   flexibility claim).
//! * [`registry`] names the shipped configurations (xy, west_first, nafta,
//!   route_c, route_c_nft).

pub mod cube_router;
pub mod registry;
pub mod report;
pub mod rule_router;

pub use cube_router::CubeRuleRouter;
pub use registry::{configuration, list_configurations};
pub use report::HardwareReport;
pub use rule_router::RuleRouter;

use ftr_rules::{
    compile, cost, Backend, CompileOptions, CompiledProgram, InterpProbe, Machine, ProgramCost,
    Result, StepWeights, VmProgram,
};
use ftr_sim::routing::{Decision, Verdict};
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
    /// Which rule-execution backend node machines run on. Defaults to the
    /// `FTR_BACKEND` environment variable (`table` unless it says
    /// `bytecode`); override with [`RouterConfiguration::with_backend`].
    pub backend: Backend,
    /// The lowered bytecode, shared by every node machine when `backend`
    /// is [`Backend::Bytecode`] (lowered once per configuration, not per
    /// node).
    pub bytecode: Option<Arc<VmProgram>>,
}

impl RouterConfiguration {
    /// Builds a configuration from an already-compiled program — the
    /// entry point for programs rewritten by the certified optimizer
    /// (`ftr_analyze::opt::optimize_rulebase`), whose output is a
    /// standard [`CompiledProgram`].
    pub fn from_compiled(name: &str, compiled: impl Into<Arc<CompiledProgram>>) -> Result<Self> {
        let compiled = compiled.into();
        let cost = cost::analyze_compiled(&compiled);
        RouterConfiguration {
            name: name.to_string(),
            compiled,
            cost,
            step_weights: None,
            optimized: false,
            backend: Backend::Table,
            bytecode: None,
        }
        .with_backend(Backend::from_env())
    }

    /// Installs modeled per-rule step weights and tags the configuration
    /// as optimized; routers propagate the weights into every node
    /// machine via `Machine::set_step_weights`.
    pub fn with_step_weights(mut self, weights: StepWeights) -> Self {
        self.step_weights = Some(Arc::new(weights));
        self.optimized = true;
        self
    }

    /// Selects the rule-execution backend. [`Backend::Bytecode`] lowers
    /// the compiled program once here; every node machine then shares the
    /// lowered [`VmProgram`]. Lowering validates the code, so a
    /// configuration carrying bytecode is known-loadable.
    pub fn with_backend(mut self, backend: Backend) -> Result<Self> {
        self.backend = backend;
        self.bytecode = match backend {
            Backend::Table => None,
            Backend::Bytecode => Some(Arc::new(VmProgram::lower(&self.compiled)?)),
        };
        Ok(self)
    }

    /// One node's rule machine: this configuration's program on its
    /// backend, with its step weights and, if given, a per-stage probe.
    pub fn machine(&self, probe: Option<&Arc<dyn InterpProbe>>) -> Machine {
        let mut machine = Machine::from_compiled(Arc::clone(&self.compiled));
        if let Some(probe) = probe {
            machine.set_probe(Arc::clone(probe));
        }
        if let Some(w) = &self.step_weights {
            machine.set_step_weights(Arc::clone(w));
        }
        if let Some(vm) = &self.bytecode {
            machine
                .set_bytecode(Arc::clone(vm))
                .expect("bytecode was validated when the configuration was built");
        }
        machine
    }

    /// The name a router driven by this configuration reports.
    pub(crate) fn algorithm_name(&self) -> String {
        format!("rule:{}{}", self.name, if self.optimized { "+opt" } else { "" })
    }
}

/// A rule host's decision. The host sees which inputs its program
/// declares, not which of them a given `RETURN` read, so a program that
/// declares the load input (`loads_queue`) may have waited on it and its
/// `Wait` is re-asked every cycle; a program without it can only have
/// waited on what the `NodeController::route` contract allows.
pub(crate) fn decision(verdict: Verdict, steps: u32, loads_queue: bool) -> Decision {
    if verdict == Verdict::Wait && loads_queue {
        Decision::polled_wait(steps)
    } else {
        Decision::new(verdict, steps)
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
