//! Event manager — "all actions are controlled and synchronized by an
//! event manager" (§4).
//!
//! A [`Machine`] owns a compiled program and its register file. The host
//! (the router) fires external events (message arrival, link-state change,
//! flit completion); rule conclusions may generate further events
//! (`!event(args)`), which the manager queues and processes until quiescent.
//! Events whose name matches no rule base are *host events* (e.g.
//! `send_newmessage` telling the router to emit a control message to a
//! neighbour) and are handed back to the caller.
//!
//! Every rule-base interpretation counts as one **step** — the quantity the
//! paper's §5 reports as "number of consecutive rule interpretations"
//! (NAFTA: 1 fault-free to 3 worst case; ROUTE_C: always 2).

use crate::ast::Program;
use crate::compile::{compile, CompileOptions};
use crate::env::{InputMap, RegFile};
use crate::error::{Result, RuleError};
use crate::eval::{EventInstance, FireOutcome};
use crate::frame::Frame;
use crate::interp::CompiledProgram;
use crate::probe::InterpProbe;
use crate::value::Value;
use std::sync::Arc;

/// Execution statistics of a machine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineStats {
    /// Total rule-base interpretations performed.
    pub total_steps: u64,
    /// Interpretations performed by the most recent [`Machine::fire`] call
    /// (the paper's per-decision step count).
    pub last_fire_steps: u32,
    /// Per-rule-base interpretation counts (indexed like
    /// `Program::rulebases`).
    pub per_base: Vec<u64>,
}

/// Modeled per-rule step weights for an optimized program.
///
/// Fusing a decision chain (e.g. NAFTA's `incoming_message` →
/// `in_message_ft` → `test_exception`) collapses two or three physical
/// interpretations into one, but the *modeled* step count — the quantity
/// §5 reports and the simulator converts into decision-cycle delay —
/// must stay exactly what the unoptimized program would have counted.
/// `StepWeights` records how many original interpretations each rule of
/// the rewritten program stands for; the machine's dispatch loop adds
/// the weight instead of 1, so `MachineStats::last_fire_steps` and
/// [`Fired::steps`] remain bit-identical to the original while
/// `MachineStats::per_base` keeps counting *physical* interpretations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepWeights {
    /// Per base (indexed like `Program::rulebases`): per-rule weights,
    /// with one extra trailing slot for the gap (no-applicable-rule)
    /// outcome. Missing bases/slots default to weight 1.
    pub per_base: Vec<Vec<u32>>,
}

impl StepWeights {
    /// Uniform weight 1 for every rule of every base — the identity model.
    pub fn identity(prog: &Program) -> Self {
        StepWeights {
            per_base: prog.rulebases.iter().map(|rb| vec![1; rb.rules.len() + 1]).collect(),
        }
    }

    /// Weight of firing `rule` (`None` = gap entry) in `base`.
    pub fn weight(&self, base: usize, rule: Option<usize>) -> u32 {
        let Some(ws) = self.per_base.get(base) else { return 1 };
        let slot = match rule {
            Some(r) => r,
            None => ws.len().saturating_sub(1),
        };
        ws.get(slot).copied().unwrap_or(1)
    }
}

/// The two words a host reads off a cascade ([`Machine::fire_base`]); the
/// events that escaped to it stay in the machine
/// ([`Machine::host_events`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Fired {
    /// The value of the last `RETURN` executed anywhere in the cascade.
    pub last_return: Option<Value>,
    /// Total rule interpretations of the cascade.
    pub steps: u32,
}

/// An event waiting in a [`Machine`]: what it addresses — the rule base an
/// internal event triggers, the [`Program::events`] id of a host event —
/// and where its arguments lie in the machine's argument storage.
type Queued = (usize, std::ops::Range<usize>);

/// A running rule machine: compiled program + registers + event queue.
pub struct Machine {
    compiled: Arc<CompiledProgram>,
    regs: RegFile,
    /// The effects frame every interpretation of this machine runs in.
    frame: Frame,
    /// The cascade in flight: the fired event, then every internal event
    /// generated so far, in order.
    pending: Vec<Queued>,
    /// Events of the last cascade that escaped to the host.
    host: Vec<Queued>,
    /// Arguments of `pending` and `host`.
    args: Vec<Value>,
    /// The last cascade's interpretations, in order: rule base and the
    /// rule it fired (`None` for a gap).
    path: Vec<(usize, Option<usize>)>,
    probe: Option<Arc<dyn InterpProbe>>,
    step_weights: Option<Arc<StepWeights>>,
    /// Safety budget per external fire: livelock guard for cyclic event
    /// generation.
    pub max_internal_events: u32,
    /// Statistics.
    pub stats: MachineStats,
}

impl Machine {
    /// Compiles `prog` and builds a machine with freshly initialised
    /// registers.
    pub fn new(prog: Program, opts: &CompileOptions) -> Result<Self> {
        Ok(Machine::from_compiled(compile(&prog, opts)?))
    }

    /// Wraps an already compiled program; machines built from one `Arc`
    /// share it.
    pub fn from_compiled(compiled: impl Into<Arc<CompiledProgram>>) -> Self {
        let compiled = compiled.into();
        let n = compiled.prog.rulebases.len();
        let regs = RegFile::new(&compiled.prog);
        Machine {
            compiled,
            regs,
            frame: Frame::new(),
            pending: Vec::new(),
            host: Vec::new(),
            args: Vec::new(),
            path: Vec::new(),
            probe: None,
            step_weights: None,
            max_internal_events: 10_000,
            stats: MachineStats { per_base: vec![0; n], ..Default::default() },
        }
    }

    /// Installs modeled step weights (see [`StepWeights`]); used when
    /// running an optimized program whose fused rules stand for several
    /// original interpretations.
    pub fn set_step_weights(&mut self, weights: Arc<StepWeights>) {
        self.step_weights = Some(weights);
    }

    /// Installs an interpretation probe: every subsequent rule-base fire
    /// reports per-stage timing to it (see [`crate::probe`]).
    pub fn set_probe(&mut self, probe: Arc<dyn InterpProbe>) {
        self.probe = Some(probe);
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.compiled.prog
    }

    /// Register file (read access for the host/information units).
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Register file (host-side initialisation, e.g. loading the node's own
    /// coordinates).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// The program and the register file at once, for a host that writes
    /// registers by the program's declarations.
    pub fn program_and_regs(&mut self) -> (&Program, &mut RegFile) {
        (&self.compiled.prog, &mut self.regs)
    }

    /// Fires external event `event(args)`, then drains all internally
    /// generated events. Returns the outcome of the *directly fired* base
    /// plus every event that escaped to the host. The name is looked up
    /// and everything returned is owned; a host on the cycle path binds
    /// the index once and calls [`Machine::fire_base`].
    pub fn fire(
        &mut self,
        event: &str,
        args: &[Value],
        inputs: &InputMap,
    ) -> Result<(FireOutcome, Vec<EventInstance>)> {
        let Some((base, _)) = self.compiled.prog.rulebase(event) else {
            // an event without a rule base is the host's
            self.stats.last_fire_steps = 0;
            let escaped = EventInstance { event: event.to_string(), args: args.to_vec() };
            return Ok((FireOutcome::default(), vec![escaped]));
        };
        let mut direct = None;
        self.cascade(base, args, inputs, |prog, rule, frame| {
            direct.get_or_insert_with(|| frame.outcome(prog, rule));
        })?;
        let host_events = self
            .host_events()
            .map(|(event, args)| EventInstance { event: event.to_string(), args: args.to_vec() })
            .collect();
        Ok((direct.unwrap_or_default(), host_events))
    }

    /// Fires rule base `base` (index into `Program::rulebases`) with
    /// `args`, then drains all internally generated events. Nothing is
    /// looked up by name and, once the machine's buffers have grown to the
    /// program's largest cascade, nothing is allocated.
    pub fn fire_base(&mut self, base: usize, args: &[Value], inputs: &InputMap) -> Result<Fired> {
        self.cascade(base, args, inputs, |_, _, _| ())
    }

    /// The events of the last cascade that escaped to the host, in order:
    /// name and arguments.
    pub fn host_events(&self) -> impl Iterator<Item = (&str, &[Value])> {
        let events = self.compiled.prog.events();
        self.host.iter().map(move |(id, at)| (events[*id].name.as_str(), &self.args[at.clone()]))
    }

    /// The interpretations of the last cascade, in order: the rule base
    /// and the rule it fired (`None` for a gap). A cascade that failed
    /// leaves the ones before the failure.
    pub fn path(&self) -> &[(usize, Option<usize>)] {
        &self.path
    }

    /// One cascade: interprets `base(args)` and every internal event it
    /// leads to, each counting one step (times its weight); `each` sees
    /// every interpretation's rule and frame before the next one reuses it.
    fn cascade(
        &mut self,
        base: usize,
        args: &[Value],
        inputs: &InputMap,
        mut each: impl FnMut(&Program, Option<usize>, &Frame),
    ) -> Result<Fired> {
        let Machine { compiled, regs, frame, pending, host, args: arena, path, stats, .. } = self;
        let (prog, probe) = (&compiled.prog, self.probe.as_deref());
        stats.last_fire_steps = 0;
        pending.clear();
        host.clear();
        path.clear();
        arena.clear();
        arena.extend_from_slice(args);
        pending.push((base, 0..args.len()));

        let mut last_return = None;
        let mut next = 0;
        while let Some((base, at)) = pending.get(next).cloned() {
            if next > self.max_internal_events as usize {
                return Err(RuleError::eval(format!(
                    "event livelock: more than {} internal events from one fire",
                    self.max_internal_events
                )));
            }
            next += 1;
            stats.per_base[base] += 1;
            let rule =
                compiled.bases[base].fire_in(prog, &arena[at], regs, inputs, frame, probe)?;
            path.push((base, rule));
            // modeled steps: a fused rule counts as every interpretation it
            // replaced, so step-derived quantities match the original program
            let w = self.step_weights.as_ref().map_or(1, |sw| sw.weight(base, rule));
            stats.total_steps += u64::from(w);
            stats.last_fire_steps += w;
            last_return = frame.returned().or(last_return);
            each(prog, rule, frame);
            for (event, ev_args) in frame.emitted() {
                let start = arena.len();
                arena.extend_from_slice(ev_args);
                match prog.events()[event].base {
                    Some(target) => pending.push((target, start..arena.len())),
                    None => host.push((event, start..arena.len())),
                }
            }
        }
        Ok(Fired { last_return, steps: stats.last_fire_steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::probe::Stage;
    use std::sync::Mutex;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn cascading_internal_events() {
        // a fires b; b increments a counter and emits a host event
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a()\n IF TRUE THEN !b(3);\nEND a;\n\
             ON b(x IN 0 TO 7)\n IF TRUE THEN n <- x, !notify_host(x);\nEND b;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let (out, host) = m.fire("a", &[], &InputMap::new()).unwrap();
        assert_eq!(out.rule, Some(0));
        assert_eq!(m.regs().read(m.program(), 0, &[]).unwrap(), int(3));
        assert_eq!(host.len(), 1);
        assert_eq!(host[0].event, "notify_host");
        assert_eq!(m.stats.last_fire_steps, 2, "a + b = two interpretations");
        assert_eq!(m.path(), [(0, Some(0)), (1, Some(0))]);
    }

    #[test]
    fn unknown_event_goes_to_host() {
        let p = parse("VARIABLE n IN 0 TO 1\nON a() IF TRUE THEN n <- 1; END a;").unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let (out, host) = m.fire("nothere", &[int(1)], &InputMap::new()).unwrap();
        assert_eq!(out.rule, None);
        assert_eq!(host.len(), 1);
        assert_eq!(host[0].event, "nothere");
        assert_eq!(m.stats.last_fire_steps, 0);
    }

    #[test]
    fn livelock_guard_trips() {
        let p = parse("ON a() IF TRUE THEN !a(); END a;").unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        m.max_internal_events = 50;
        let e = m.fire("a", &[], &InputMap::new());
        assert!(e.is_err());
        assert_eq!(m.path().len(), 51, "the interpretations before the guard tripped");
    }

    #[test]
    fn per_base_step_counts() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a()\n IF n < 3 THEN n <- n + 1, !a();\nEND a;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let (_, _) = m.fire("a", &[], &InputMap::new()).unwrap();
        // fires at n=0,1,2 re-emitting, at n=3 premise fails (no emission)
        assert_eq!(m.stats.per_base[0], 4);
        assert_eq!(m.stats.total_steps, 4);
        assert_eq!(m.regs().read(m.program(), 0, &[]).unwrap(), int(3));
    }

    #[test]
    fn step_weights_scale_modeled_steps_only() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a() RETURNS 0 TO 7\n\
               IF n = 0 THEN RETURN(0);\n\
               IF TRUE THEN RETURN(1);\n\
             END a;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let mut w = StepWeights::identity(m.program());
        w.per_base[0] = vec![3, 1, 2]; // rule0→3, rule1→1, gap→2
        m.set_step_weights(Arc::new(w));
        let fired = m.fire_base(0, &[], &InputMap::new()).unwrap();
        assert_eq!(fired.steps, 3, "rule 0 fired with weight 3");
        assert_eq!(m.stats.total_steps, 3);
        assert_eq!(m.stats.per_base[0], 1, "physical count unscaled");
    }

    #[test]
    fn probe_sees_every_stage_under_non_uniform_step_weights() {
        // weights scale the modeled steps only: the probe still records
        // three stages per physical interpretation
        #[derive(Default)]
        struct Recorder(Mutex<Vec<(usize, Stage)>>);
        impl InterpProbe for Recorder {
            fn record_stage(&self, base: usize, stage: Stage, _nanos: u64) {
                self.0.lock().unwrap().push((base, stage));
            }
        }

        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a()\n IF n < 3 THEN n <- n + 1, !a();\n IF n = 3 THEN !done(n);\nEND a;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let mut w = StepWeights::identity(m.program());
        w.per_base[0] = vec![3, 5, 2]; // rule 0, rule 1, gap
        m.set_step_weights(Arc::new(w));
        let rec = Arc::new(Recorder::default());
        m.set_probe(rec.clone());
        let fired = m.fire_base(0, &[], &InputMap::new()).unwrap();
        // 3 fires of rule 0 (weight 3) + 1 fire of rule 1 (weight 5)
        assert_eq!(fired.steps, 14, "weighted cascade steps");
        assert_eq!(m.stats.total_steps, 14);
        assert_eq!(m.stats.per_base, vec![4], "per_base counts physical interpretations");
        let seen = rec.0.lock().unwrap().clone();
        assert_eq!(seen.len(), 12, "three stages per dispatched fire");
        let stages = [(0, Stage::Premise), (0, Stage::Kernel), (0, Stage::Conclusion)];
        assert!(seen.chunks(3).all(|c| c == stages), "{seen:?}");
    }

    #[test]
    fn host_initialises_registers() {
        let p = parse(
            "VARIABLE xpos IN 0 TO 15\n\
             ON q() RETURNS 0 TO 15\n IF TRUE THEN RETURN(xpos);\nEND q;",
        )
        .unwrap();
        let mut m = Machine::new(p.clone(), &CompileOptions::default()).unwrap();
        m.regs_mut().write(&p, 0, &[], int(7)).unwrap();
        let (out, _) = m.fire("q", &[], &InputMap::new()).unwrap();
        assert_eq!(out.returned, Some(int(7)));
    }
}
