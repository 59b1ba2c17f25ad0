//! Interpreter instrumentation hooks.
//!
//! The hardware model of §4.3 splits one rule interpretation into three
//! stages — premise processing (FCFB evaluation), the RBR-kernel table
//! lookup, and conclusion processing (command execution). An
//! [`InterpProbe`] observes the wall-clock cost of each stage per rule
//! base, letting a host profile where interpretation time goes without
//! the interpreter knowing anything about the profiler (the `ftr-obs`
//! crate provides the standard implementation).
//!
//! The hooks cost a branch per stage when unused: the clock is only read
//! when a probe is installed.

use std::time::Instant;

/// One of the three interpretation stages of Figure 5/6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Feature extraction: FCFBs and direct wires compute the index digits.
    Premise,
    /// RBR kernel: the mixed-radix lookup in the filled rule table.
    Kernel,
    /// Conclusion processing: the selected rule's commands execute.
    Conclusion,
}

impl Stage {
    /// Stable lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Premise => "premise",
            Stage::Kernel => "kernel",
            Stage::Conclusion => "conclusion",
        }
    }

    /// All stages in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Premise, Stage::Kernel, Stage::Conclusion];
}

/// Observer of per-stage interpretation timing.
///
/// `base` is the index into [`crate::ast::Program::rulebases`] of the rule
/// base being interpreted; `nanos` is the measured wall-clock duration of
/// the stage. Implementations must be cheap and non-blocking — they run
/// inside every probed routing decision.
pub trait InterpProbe: Send + Sync {
    /// Records one stage execution.
    fn record_stage(&self, base: usize, stage: Stage, nanos: u64);
}

/// Times the stages of one interpretation of rule base `base` for `probe`,
/// if there is one: each [`StageClock::lap`] reports the time since the
/// previous one (or since [`StageClock::start`]) as the stage just ended.
pub(crate) struct StageClock<'a> {
    base: usize,
    probe: Option<(&'a dyn InterpProbe, Instant)>,
}

impl<'a> StageClock<'a> {
    pub(crate) fn start(base: usize, probe: Option<&'a dyn InterpProbe>) -> Self {
        StageClock { base, probe: probe.map(|p| (p, Instant::now())) }
    }

    pub(crate) fn lap(&mut self, stage: Stage) {
        if let Some((probe, since)) = &mut self.probe {
            let now = Instant::now();
            probe.record_stage(self.base, stage, (now - *since).as_nanos() as u64);
            *since = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::Premise.name(), "premise");
        assert_eq!(Stage::Kernel.name(), "kernel");
        assert_eq!(Stage::Conclusion.name(), "conclusion");
        assert_eq!(Stage::ALL.len(), 3);
    }
}
