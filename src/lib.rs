//! Umbrella crate for the HPC framework workspace: re-exports every
//! subsystem so examples and integration tests have a single entry
//! point, plus a [`prelude`] with the handful of names almost every
//! program needs.
//!
//! ```
//! use hpc_framework::prelude::*;
//!
//! let ctx = OdinContext::with_workers(2);
//! let x = ctx.linspace(0.0, 1.0, 8);
//! let k = ctx
//!     .compile_kernel("def sq(v):\n    return v * v\n", "sq")
//!     .unwrap();
//! let y = k.map(&[&x]);
//! assert_eq!(y.len(), 8);
//! ```

pub use comm;
pub use dlinalg;
pub use dmap;
pub use galeri;
pub use hpc_core;
pub use obs;
pub use odin;
pub use seamless;
pub use serve;
pub use solvers;

/// The most-used names from every layer, importable in one line:
/// `use hpc_framework::prelude::*;`.
///
/// Covers distributed arrays and lazy expressions (ODIN), JIT kernels
/// (Seamless), the communication substrate, the solver stack, the
/// composition layer, the multi-tenant serving plane, and the unified
/// [`hpc_core::Error`] / [`hpc_core::Result`] pair.
pub mod prelude {
    pub use comm::{Comm, CommError, NetworkModel, Universe, UniverseConfig};
    pub use dlinalg::{CsrMatrix, DistVector};
    pub use hpc_core::{
        apply_kernel, newton_with_pyish_reaction, solve_with_odin_rhs, BridgeReport, Error,
        PyishReaction, Result, Session, SolveMethod,
    };
    pub use odin::{
        DType, Dist, DistArray, DistTable, Expr, FieldType, FieldValue, Kernel, KernelSpec,
        OdinConfig, OdinContext, OdinError, Record, ReduceKind, Schema, Tier,
    };
    pub use seamless::{compile_kernel, jit, CompiledKernel, SeamlessError, Type, Value};
    // serve::Session stays un-globbed (hpc_core::Session has the name);
    // reach it as `serve::Session`.
    pub use serve::{
        JobOutcome, JobRequest, JobSpec, Priority, ServeConfig, ServeError, ServePlane, ServeStats,
        TenantQuota,
    };
    pub use solvers::{
        bicgstab, cg, gmres, newton_krylov, AmgPreconditioner, IdentityPrecond, JacobiPrecond,
        KrylovConfig, NewtonConfig, Preconditioner, SolveStatus, SolverError,
    };
}
