//! One-call setup of the whole framework.

use odin::OdinContext;

/// A configured framework instance: the ODIN worker pool (which also runs
/// the solver stack via the bridge) plus convenience constructors. The
/// prototype-on-8-cores / deploy-on-a-cluster story from §V is the
/// `workers` knob plus the virtual-time model in [`comm::NetworkModel`].
pub struct Session {
    ctx: OdinContext,
}

impl Session {
    /// Start a session with `workers` worker threads and defaults
    /// otherwise.
    pub fn new(workers: usize) -> Self {
        Session {
            ctx: OdinContext::with_workers(workers),
        }
    }

    /// The underlying ODIN context (arrays, tables, local functions).
    pub fn odin(&self) -> &OdinContext {
        &self.ctx
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.ctx.n_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_runs_end_to_end() {
        // the paper's §V pipeline in miniature: data with ODIN, a Seamless
        // kernel, a solver through the bridge
        let session = Session::new(2);
        let ctx = session.odin();
        assert_eq!(session.workers(), 2);
        // ODIN data
        let x = ctx.linspace(0.0, 1.0, 9);
        // Seamless kernel as the node-level function
        let kernel = seamless::compile_kernel(
            "def square(a):\n    for i in range(len(a)):\n        a[i] = a[i] * a[i]\n",
            "square",
            &[seamless::Type::ArrF],
        )
        .unwrap();
        crate::apply_kernel(ctx, &x, &kernel).unwrap();
        // solver through the bridge
        let n = 9;
        let (sol, rep) = crate::solve_with_odin_rhs(
            ctx,
            &x,
            move |g| {
                let mut row = vec![(g, 2.0)];
                if g > 0 {
                    row.push((g - 1, -1.0));
                }
                if g + 1 < n {
                    row.push((g + 1, -1.0));
                }
                row
            },
            crate::SolveMethod::Cg,
            Default::default(),
        );
        assert!(rep.converged);
        assert_eq!(sol.len(), 9);
    }
}
