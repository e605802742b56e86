//! # galeri — gallery of maps, matrices and manufactured problems
//!
//! Analog of the Trilinos Galeri package ("examples of common maps and
//! matrices", paper Table I) plus the TriUtils testing-utility role: every
//! solver test and benchmark in the workspace draws its operators from
//! here.

pub mod manufactured;
pub mod maps;
pub mod matrices;

pub use manufactured::{poisson2d_manufactured, ManufacturedProblem};
pub use matrices::{
    advection_diffusion_1d, anisotropic_laplace_2d, identity, laplace_1d, laplace_2d, laplace_3d,
    random_spd,
};
