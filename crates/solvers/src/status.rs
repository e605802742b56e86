//! Convergence reporting shared by all iterative solvers
//! (the AztecOO status-test role).

/// Outcome of an iterative solve.
#[derive(Debug, Clone)]
#[must_use = "check `converged` or call `into_result()`"]
pub struct SolveStatus {
    /// Whether the convergence criterion was met within the budget.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
    /// Residual norm after each iteration (index 0 = initial residual).
    pub history: Vec<f64>,
}

impl SolveStatus {
    /// Final residual norm (the last history entry).
    pub fn final_residual(&self) -> f64 {
        *self.history.last().unwrap_or(&f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_residual_is_the_last_entry() {
        let s = SolveStatus {
            converged: true,
            iterations: 2,
            history: vec![1.0, 0.1, 0.01],
        };
        assert_eq!(s.final_residual(), 0.01);
    }

    #[test]
    fn degenerate_histories() {
        let s = SolveStatus {
            converged: false,
            iterations: 0,
            history: vec![],
        };
        assert!(s.final_residual().is_nan());
    }
}
