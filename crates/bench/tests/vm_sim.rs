//! Sim-level acceptance of the bytecode lowering under the optimizer: no
//! router executes bytecode, so a test host drives it. The host mirrors
//! `RuleRouter`'s consult (same lane, same `MeshIo::present`, same verdict
//! decoding) but answers from the optimized NAFTA program lowered to
//! bytecode, cascading its internal events and counting steps through the
//! optimizer's `StepWeights`. Every consult also fires the optimized
//! table machine on the same inputs and checks that both agree on the
//! return, the modeled steps and the registers. On a campaign cell
//! (`common::campaign_run`: 6x6 mesh, transient link faults with repair,
//! source retransmission) the bytecode-driven run must match the plain
//! table `RuleRouter` run bit for bit: `SimStats` (including
//! `decision_steps`) and trace stream.

mod common;

use common::campaign_run;
use ftr_algos::rule_io::{self, MeshIo, PortInfo, Ret, RuleIo};
use ftr_algos::vnet::MeshVcMode;
use ftr_analyze::{opt, TopoFacts};
use ftr_bench::campaign::{self, SIDE};
use ftr_core::{configure, RouterConfiguration, RuleRouter};
use ftr_rules::vm::Scratch;
use ftr_rules::{CompiledProgram, Fired, InputMap, Machine, RegFile, StepWeights, VmProgram};
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, Verdict};
use ftr_sim::RoutingAlgorithm;
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};
use std::sync::Arc;

/// An optimized program, its bytecode and its step weights.
struct Lowered {
    config: RouterConfiguration,
    code: VmProgram,
    weights: StepWeights,
}

impl Lowered {
    fn compiled(&self) -> &CompiledProgram {
        &self.config.compiled
    }

    /// One cascade on the bytecode, as `Machine::fire_base` runs it on the
    /// table: `base(args)`, then every internal event in emission order;
    /// events without a rule base are the host's and are dropped, as the
    /// mesh host drops them.
    fn cascade(
        &self,
        base: usize,
        regs: &mut RegFile,
        inputs: &InputMap,
        scratch: &mut Scratch,
    ) -> ftr_rules::Result<Fired> {
        let prog = &self.compiled().prog;
        let mut pending = vec![(base, Vec::new())];
        let mut fired = Fired::default();
        let mut next = 0;
        while let Some((base, args)) = pending.get(next).cloned() {
            next += 1;
            let out = self.code.bases[base].fire(prog, &args, regs, inputs, scratch)?;
            fired.steps += self.weights.weight(base, out.rule);
            fired.last_return = out.returned.or(fired.last_return);
            for ev in out.emitted {
                if let Some((target, _)) = prog.rulebase(&ev.event) {
                    pending.push((target, ev.args));
                }
            }
        }
        Ok(fired)
    }
}

/// Mesh host whose decisions come from the bytecode of a [`Lowered`]
/// program.
struct BytecodeRouter {
    lowered: Arc<Lowered>,
    mesh: Mesh2D,
    io: MeshIo,
    mode: MeshVcMode,
}

impl RoutingAlgorithm for BytecodeRouter {
    fn name(&self) -> String {
        format!("bytecode:{}", self.lowered.config.name)
    }

    fn num_vcs(&self) -> usize {
        self.mode.num_vcs()
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        let mut table = self.lowered.config.machine(None);
        self.io.init(&self.mesh, node, &mut table);
        let regs = table.regs().clone();
        Box::new(BytecodeController {
            lowered: Arc::clone(&self.lowered),
            table,
            regs,
            scratch: Scratch::new(),
            mesh: self.mesh.clone(),
            io: self.io,
            mode: self.mode,
            inputs: InputMap::new(),
        })
    }
}

struct BytecodeController {
    lowered: Arc<Lowered>,
    /// The same optimized program on the table, fired alongside.
    table: Machine,
    /// The bytecode's registers.
    regs: RegFile,
    scratch: Scratch,
    mesh: Mesh2D,
    io: MeshIo,
    mode: MeshVcMode,
    inputs: InputMap,
}

impl NodeController for BytecodeController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        let prog = &self.lowered.compiled().prog;
        let arrival = in_port.map(|p| (p, in_vc));
        let lane = self
            .mode
            .lanes(arrival, self.mesh.offset(view.node, h.dst))
            .next()
            .expect("the allocator always offers a lane");
        let vc = lane.vnet as usize;
        let dst = self.mesh.coords(h.dst);
        let port =
            |d| PortInfo { free: view.free(d, vc), linkok: view.alive(d), out_queue: view.load(d) };
        self.inputs.clear();
        let table_regs = self.table.regs_mut();
        let open =
            self.io.present(prog, table_regs, &mut self.inputs, dst, lane, (false, false), port);
        self.io.present(prog, &mut self.regs, &mut self.inputs, dst, lane, (false, false), port);

        let table = self.table.fire_base(rule_io::ENTRY, &[], &self.inputs).ok();
        let byte =
            self.lowered.cascade(rule_io::ENTRY, &mut self.regs, &self.inputs, &mut self.scratch);
        let byte = byte.ok();
        assert_eq!(
            table, byte,
            "node {:?} dst {:?}: bytecode and table fires differ",
            view.node, h.dst
        );
        assert_eq!(self.table.regs(), &self.regs, "node {:?}: registers diverged", view.node);

        let Some(fired) = byte else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        let verdict = match fired.last_return.map_or(Ret::Wait, rule_io::decode) {
            Ret::Dir(d) if d < 4 && open >> d & 1 != 0 && view.free(d as usize, vc) => {
                h.vnet = lane.vnet;
                Verdict::Route(PortId(d), VcId(lane.vnet))
            }
            Ret::Dir(_) | Ret::Wait => Verdict::Wait,
            Ret::Deliver => Verdict::Deliver,
            Ret::Unroutable => Verdict::Unroutable,
        };
        let steps = fired.steps.max(1);
        if verdict == Verdict::Wait && self.io.out_queue.is_some() {
            Decision::polled_wait(steps)
        } else {
            Decision::new(verdict, steps)
        }
    }
}

#[test]
fn bytecode_composes_with_the_optimizer_and_step_weights() {
    // two arms on one campaign cell: the plain table router, and the
    // optimized program's bytecode with the optimizer's StepWeights — the
    // modeled decision_steps must survive both rewritings at once
    let mesh = campaign::mesh();
    let baseline = configure("nafta", ftr_algos::rules_src::NAFTA).unwrap();
    let oopts = opt::OptOptions { topo: TopoFacts::mesh(SIDE, SIDE), ..opt::OptOptions::default() };
    let optimized = opt::optimize_rulebase("nafta", &baseline.compiled.prog, &oopts).unwrap();
    assert!(
        optimized.step_weights.per_base.iter().flatten().any(|&w| w > 1),
        "the optimizer must fuse something, or the weights are not exercised"
    );
    let code = VmProgram::lower(&optimized.compiled).unwrap();
    let config = RouterConfiguration::from_compiled("nafta", optimized.compiled)
        .unwrap()
        .with_step_weights(optimized.step_weights.clone());
    let io = MeshIo::bind(&config.compiled.prog).unwrap();
    let mode = io.mode;
    let lowered = Arc::new(Lowered { config, code, weights: optimized.step_weights });
    let bytecode = BytecodeRouter { lowered, mesh: mesh.clone(), io, mode };

    let (faults, seed) = (6usize, 7919u64);
    let (a, ta) = campaign_run(&RuleRouter::for_mesh(baseline, mesh.clone()), faults, seed);
    let (c, tc) = campaign_run(&bytecode, faults, seed);
    assert!(a.delivered_msgs > 0, "campaign must deliver traffic");
    assert!(ta.1 > 0, "campaign must emit trace events");
    assert_eq!(a, c, "optimized bytecode diverged from baseline");
    assert_eq!(ta, tc, "optimized bytecode trace diverged");
}
