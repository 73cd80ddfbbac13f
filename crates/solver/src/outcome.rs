//! Solver outcomes.

use satroute_cnf::Assignment;

use crate::run::{SolveVerdict, StopReason};

/// The result of a solving attempt.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SolveOutcome {
    /// The formula is satisfiable; a model is attached.
    Sat(Assignment),
    /// The formula is unsatisfiable.
    Unsat,
    /// The solver gave up before reaching an answer; the [`StopReason`]
    /// says which budget limit or cancellation request stopped it.
    Unknown(StopReason),
}

impl SolveOutcome {
    /// Returns `true` for [`SolveOutcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }

    /// Returns `true` for [`SolveOutcome::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveOutcome::Unsat)
    }

    /// Returns `true` if the solver reached a definite answer.
    pub fn is_decided(&self) -> bool {
        !matches!(self, SolveOutcome::Unknown(_))
    }

    /// Why the solve stopped early, for [`SolveOutcome::Unknown`].
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            SolveOutcome::Unknown(r) => Some(*r),
            _ => None,
        }
    }

    /// The verdict without the model (what events and metrics carry).
    pub fn verdict(&self) -> SolveVerdict {
        match self {
            SolveOutcome::Sat(_) => SolveVerdict::Sat,
            SolveOutcome::Unsat => SolveVerdict::Unsat,
            SolveOutcome::Unknown(r) => SolveVerdict::Unknown(*r),
        }
    }

    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SolveOutcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        let sat = SolveOutcome::Sat(Assignment::new(0));
        assert!(sat.is_sat() && sat.is_decided() && !sat.is_unsat());
        assert!(sat.model().is_some());
        assert_eq!(sat.verdict(), SolveVerdict::Sat);
        assert!(sat.stop_reason().is_none());
        assert!(SolveOutcome::Unsat.is_unsat());
        assert!(SolveOutcome::Unsat.is_decided());
        assert!(SolveOutcome::Unsat.model().is_none());
        let unknown = SolveOutcome::Unknown(StopReason::Deadline);
        assert!(!unknown.is_decided());
        assert_eq!(unknown.stop_reason(), Some(StopReason::Deadline));
        assert_eq!(
            unknown.verdict(),
            SolveVerdict::Unknown(StopReason::Deadline)
        );
    }
}
