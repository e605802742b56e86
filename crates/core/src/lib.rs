//! # hpc-core — the framework that ties the three systems together
//!
//! The paper's closing vision (§V, Fig. 2): a user "allocates, initializes
//! and manipulates a large simulation data set using ODIN … devises a
//! solution approach using PyTrilinos solvers that accept ODIN arrays …
//! and Seamless is used to convert [the model] callback into a highly
//! efficient numerical kernel." This crate is that composition layer:
//!
//! * [`bridge`] — solve distributed linear systems whose right-hand sides
//!   are ODIN arrays (§III-E: ODIN arrays "optionally compatible with
//!   Trilinos … Vectors"), with automatic redistribution when the array
//!   is not solver-conformable;
//! * [`callbacks`] — compile pyish sources into kernels and use them as
//!   node-level functions: elementwise maps over distributed arrays, and
//!   model callbacks inside Newton–Krylov solves.
//!
//! The whole stack starts with one ODIN context,
//! `OdinContext::with_workers(n)`: its worker pool holds the arrays and
//! also runs the solver stack through the bridge. The §V story of
//! prototyping on an 8-core desktop and deploying on a cluster is that
//! `n` plus the virtual-time model in `comm::NetworkModel`.

pub mod bridge;
pub mod callbacks;
pub mod error;

pub use bridge::{solve_with_odin_rhs, BridgeReport, SolveMethod};
pub use callbacks::{apply_kernel, newton_with_pyish_reaction, PyishReaction};
pub use error::{Error, Result};

#[cfg(test)]
mod tests {
    use odin::OdinContext;

    #[test]
    fn the_section_v_pipeline_runs_end_to_end() {
        // the paper's §V pipeline in miniature: data with ODIN, a Seamless
        // kernel, a solver through the bridge
        let ctx = OdinContext::with_workers(2);
        assert_eq!(ctx.n_workers(), 2);
        // ODIN data
        let x = ctx.linspace(0.0, 1.0, 9);
        // Seamless kernel as the node-level function
        let kernel = seamless::compile_kernel(
            "def square(a):\n    for i in range(len(a)):\n        a[i] = a[i] * a[i]\n",
            "square",
            &[seamless::Type::ArrF],
        )
        .unwrap();
        crate::apply_kernel(&ctx, &x, &kernel).unwrap();
        // solver through the bridge
        let n = 9;
        let (sol, rep) = crate::solve_with_odin_rhs(
            &ctx,
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
