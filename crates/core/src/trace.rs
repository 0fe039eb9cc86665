//! The phases of a query's lifecycle, shared by every layer of the system.
//!
//! A statement's account of where its time went is a fixed array of
//! nanoseconds indexed by [`Phase::index`] — lex/parse → OQL translate →
//! normalize → optimize → plan → execute, 0 for a phase that did not run.
//! A prepared statement, a profile and a flight-recorder record each hold
//! one; [`Phase::record`] fills a slot and feeds the process-wide
//! `query_phase_nanos{phase=…}` histogram.

use std::time::Instant;

/// A phase of the query lifecycle, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Lexing and parsing OQL source.
    Parse,
    /// OQL AST → monoid calculus translation.
    Translate,
    /// Table-3 normalization to canonical form.
    Normalize,
    /// Statistics gathering and cost-based qualifier reordering.
    Optimize,
    /// Canonical comprehension → algebra plan.
    Plan,
    /// Push-based plan execution.
    Execute,
}

impl Phase {
    /// All phases in pipeline order (indexable by [`Phase::index`]).
    pub const ALL: [Phase; 6] = [
        Phase::Parse,
        Phase::Translate,
        Phase::Normalize,
        Phase::Optimize,
        Phase::Plan,
        Phase::Execute,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Translate => "translate",
            Phase::Normalize => "normalize",
            Phase::Optimize => "optimize",
            Phase::Plan => "plan",
            Phase::Execute => "execute",
        }
    }

    /// Position in [`Phase::ALL`], which lists the phases in declaration
    /// order.
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Add `nanos` spent in this phase to its slot of `phases`
    /// (accumulating on repeat) and to the process-wide latency histogram
    /// `query_phase_nanos{phase=…}`, so fleet-level phase distributions
    /// fall out of ordinary timing for free. A phase that ran never reads
    /// 0: a reading below the clock's resolution counts as 1 ns.
    pub fn record(self, phases: &mut [u64; Phase::ALL.len()], nanos: u128) {
        crate::metrics::global().query_phase_nanos[self.index()].observe_nanos(nanos);
        let slot = &mut phases[self.index()];
        *slot = slot.saturating_add(u64::try_from(nanos).unwrap_or(u64::MAX).max(1));
    }

    /// Run `f`, recording its wall-clock time under this phase.
    pub fn time<R>(self, phases: &mut [u64; Phase::ALL.len()], f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(phases, start.elapsed().as_nanos());
        out
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i, "{phase}");
        }
    }

    #[test]
    fn records_and_accumulates_phases() {
        let mut phases = [0; Phase::ALL.len()];
        Phase::Parse.record(&mut phases, 10);
        Phase::Execute.record(&mut phases, 5);
        Phase::Execute.record(&mut phases, 7);
        assert_eq!(phases, [10, 0, 0, 0, 0, 12]);
        // A phase that ran is never mistaken for one that did not.
        Phase::Plan.record(&mut phases, 0);
        assert_eq!(phases[Phase::Plan.index()], 1);
    }

    #[test]
    fn time_helper_returns_the_closure_result() {
        let mut phases = [0; Phase::ALL.len()];
        let v = Phase::Normalize.time(&mut phases, || 41 + 1);
        assert_eq!(v, 42);
        assert!(phases[Phase::Normalize.index()] > 0);
        assert_eq!(phases.iter().filter(|n| **n > 0).count(), 1);
    }
}
