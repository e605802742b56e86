//! # odin — Optimized Distributed NumPy, in Rust
//!
//! Reproduction of the paper's ODIN system (§III): a distributed
//! N-dimensional array with two modes of interaction —
//!
//! * **global mode**: whole-array expressions issued from the master
//!   process ("the ODIN Process", Fig. 1), which sends *small control
//!   messages* to persistent workers that own the array segments;
//! * **local mode**: user functions registered on every worker and run
//!   against the local segment, with direct worker-to-worker
//!   communication through the [`comm`] substrate.
//!
//! Features implemented from the paper's survey of use cases:
//! distributed creation routines with block / cyclic / block-cyclic
//! distributions (§III-A), global ufuncs with automatic communication-
//! strategy selection for non-conformable operands (§III-B, §III-D),
//! local functions (§III-C), distributed slicing with automatic halo
//! exchange for finite differences (§III-G), distributed file IO
//! (§III-H), structured/tabular data with map-reduce (§III-I), lazy
//! expressions with loop fusion (§III listed optimizations), and a
//! bridge to the Trilinos-analog solver stack (§III-E).

pub mod array;
pub mod buffer;
pub mod context;
pub mod error;
pub mod io;
pub mod kernel;
pub mod lazy;
pub mod local;
pub mod mapreduce;
pub mod ops_ext;
pub mod program;
pub mod protocol;
pub mod recover;
pub mod reduce;
pub mod reference;
pub mod reply;
pub mod slicing;
pub mod table;
pub mod worker;

pub use array::{set_binary_strategy, BinaryStrategy, DistArray};
pub use buffer::{Buffer, DType};
pub use context::{ContextStats, OdinConfig, OdinContext};
pub use error::{OdinError, RecoveryReport};
pub use io::remove_saved;
pub use kernel::{Kernel, KernelSpec, Tier};
pub use lazy::Expr;
pub use program::{Program, ProgramRun, ProgramStats, Traced, TracedScalar};
pub use protocol::{ArrayMeta, BinOp, Dist, KernelOut, ReduceKind, UnaryOp};
pub use recover::OdinCheckpoint;
pub use reply::Pending;
pub use slicing::SliceSpec;
pub use table::{DistTable, FieldType, FieldValue, Record, Schema, TableSeg};
pub use worker::{LocalFn, WorkerScope};
