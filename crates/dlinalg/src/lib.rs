//! # dlinalg — distributed linear algebra (Tpetra analog)
//!
//! Distributed vectors and compressed-sparse-row matrices
//! over the [`dmap`] distribution machinery, generic over a [`Scalar`] type
//! the way Tpetra is templated on `Scalar` (paper §II-C): `f32`, `f64` and
//! [`Complex64`] all work, the latter covering the Komplex package's role.
//!
//! Sparse matrix–vector products perform the halo (ghost) exchange through
//! a precomputed [`dmap::CommPlan`], exactly the Import-based pattern
//! Tpetra uses.

pub mod csr;
pub mod io;
pub mod scalar;
pub mod vector;

pub use csr::{reference, CsrMatrix};
pub use scalar::{Complex64, RealScalar, Scalar};
pub use vector::DistVector;
