//! Manufactured-solution problems: operator + right-hand side + exact
//! solution, for convergence tests that know the answer.

use std::f64::consts::PI;

use comm::Comm;
use dlinalg::{CsrMatrix, DistVector};

use crate::matrices::laplace_2d;

/// A linear system with a known exact solution.
pub struct ManufacturedProblem {
    /// The operator.
    pub a: CsrMatrix<f64>,
    /// Right-hand side.
    pub b: DistVector<f64>,
    /// Exact discrete solution (`a · x_exact == b` to rounding).
    pub x_exact: DistVector<f64>,
}

/// 2-D Poisson with `u(x,y) = sin(πx)·sin(πy)` on the unit square.
pub fn poisson2d_manufactured(comm: &Comm, nx: usize, ny: usize) -> ManufacturedProblem {
    let a = laplace_2d(comm, nx, ny);
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let x_exact = DistVector::from_fn(a.domain_map().clone(), move |g| {
        let i = (g % nx) as f64 + 1.0;
        let j = (g / nx) as f64 + 1.0;
        (PI * i * hx).sin() * (PI * j * hy).sin()
    });
    let b = a.matvec(comm, &x_exact);
    ManufacturedProblem { a, b, x_exact }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;

    #[test]
    fn residual_of_exact_solution_is_zero() {
        Universe::run(3, |comm| {
            let prob = poisson2d_manufactured(comm, 5, 7);
            let ax = prob.a.matvec(comm, &prob.x_exact);
            let mut r = prob.b.clone();
            r.axpy(-1.0, &ax);
            assert!(r.norm2(comm) < 1e-13);
        });
    }

    #[test]
    fn solution_is_nontrivial() {
        Universe::run(2, |comm| {
            let prob = poisson2d_manufactured(comm, 6, 6);
            assert!(prob.x_exact.norm2(comm) > 0.5);
            assert!(prob.b.norm2(comm) > 0.0);
        });
    }
}
