//! Blocking-reference SpMV: the oracle the overlapped
//! [`CsrMatrix::matvec_into`] is held to, kept out of the matrix's own
//! method surface. It completes the whole ghost exchange before touching a
//! row and then walks every row in increasing order with its own indexed
//! loop, so it shares no row code with the production sweep — only the
//! stored entries, and therefore the bits.

use comm::Comm;

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use crate::vector::DistVector;

/// Blocking-reference `y = A·x`. Baseline for the overlap experiment
/// (E17) and the bitwise property tests.
pub fn matvec_into_blocking<S: Scalar>(
    a: &CsrMatrix<S>,
    comm: &Comm,
    x: &DistVector<S>,
    y: &mut DistVector<S>,
) {
    a.check_operands(x, y);
    let xl = x.local();
    let mut ghost = vec![S::zero(); a.n_ghost_cols()];
    a.plan.execute_blocking(comm, xl, &mut ghost);
    for (i, yi) in y.local_mut().iter_mut().enumerate() {
        let mut acc = S::zero();
        for k in a.rowptr[i]..a.rowptr[i + 1] {
            let c = a.colidx[k] as usize;
            let xc = if c < a.n_owned {
                xl[c]
            } else {
                ghost[c - a.n_owned]
            };
            acc += a.vals[k] * xc;
        }
        *yi = acc;
    }
    comm.advance_compute(2.0 * a.vals.len() as f64);
}

/// Convenience wrapper around [`matvec_into_blocking`].
pub fn matvec_blocking<S: Scalar>(
    a: &CsrMatrix<S>,
    comm: &Comm,
    x: &DistVector<S>,
) -> DistVector<S> {
    let mut y = DistVector::zeros(a.row_map().clone());
    matvec_into_blocking(a, comm, x, &mut y);
    y
}
