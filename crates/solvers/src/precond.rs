//! Algebraic preconditioners (Ifpack analog).
//!
//! All preconditioners apply `z = M⁻¹·r`. The local variants (Jacobi,
//! SSOR, ILU(0)) act on each rank's *local square block* — the standard
//! zero-overlap additive-Schwarz localization Ifpack defaults to — so
//! `apply` needs no communication; Chebyshev is a polynomial in the full
//! distributed operator and communicates through its matvecs.

use comm::Comm;
use dlinalg::{CsrMatrix, DistVector, Scalar};

use crate::krylov::norm_from_lane;

/// Left preconditioner interface: `z = M⁻¹ r`.
pub trait Preconditioner<S: Scalar> {
    /// Apply the preconditioner.
    fn apply(&self, comm: &Comm, r: &DistVector<S>) -> DistVector<S>;
    /// Apply into an existing vector distributed like `r`, overwriting
    /// it. The default delegates to [`Self::apply`]; cheap pointwise
    /// preconditioners override it to keep solver inner loops
    /// allocation-free. Must produce bitwise the same values as
    /// [`Self::apply`].
    fn apply_into(&self, comm: &Comm, r: &DistVector<S>, z: &mut DistVector<S>) {
        *z = self.apply(comm, r);
    }
    /// The vector `d` when this preconditioner is the pointwise product
    /// `z = r∘d`, so a solver can fold the apply into its own vector sweep
    /// ([`DistVector::cg_sweep`]); `None` (the default) means call
    /// [`Self::apply_into`]. Where `Some`, `apply_into` must be bitwise a
    /// copy of `r` followed by `pointwise_mul(d)`.
    fn pointwise_multiplier(&self) -> Option<&DistVector<S>> {
        None
    }
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// No preconditioning: `z = r`.
pub struct IdentityPrecond;

impl<S: Scalar> Preconditioner<S> for IdentityPrecond {
    fn apply(&self, _comm: &Comm, r: &DistVector<S>) -> DistVector<S> {
        r.clone()
    }
    fn apply_into(&self, _comm: &Comm, r: &DistVector<S>, z: &mut DistVector<S>) {
        z.local_mut().copy_from_slice(r.local());
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Point Jacobi: `z = D⁻¹ r`.
pub struct JacobiPrecond<S: Scalar> {
    inv_diag: DistVector<S>,
}

impl<S: Scalar> JacobiPrecond<S> {
    /// Build from the matrix diagonal (must be nonzero everywhere).
    pub fn new(a: &CsrMatrix<S>) -> Self {
        let mut d = a.diagonal();
        for v in d.local_mut() {
            assert!(*v != S::zero(), "Jacobi needs a nonzero diagonal");
            *v = S::one() / *v;
        }
        JacobiPrecond { inv_diag: d }
    }
}

impl<S: Scalar> Preconditioner<S> for JacobiPrecond<S> {
    fn apply(&self, _comm: &Comm, r: &DistVector<S>) -> DistVector<S> {
        let mut z = r.clone();
        z.pointwise_mul(&self.inv_diag);
        z
    }
    fn apply_into(&self, _comm: &Comm, r: &DistVector<S>, z: &mut DistVector<S>) {
        z.local_mut().copy_from_slice(r.local());
        z.pointwise_mul(&self.inv_diag);
    }
    fn pointwise_multiplier(&self) -> Option<&DistVector<S>> {
        Some(&self.inv_diag)
    }
    fn name(&self) -> &'static str {
        "jacobi"
    }
}

/// A rank-local square CSR block, sorted by column within each row.
struct LocalBlock<S> {
    rowptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<S>,
    n: usize,
}

impl<S: Scalar> LocalBlock<S> {
    fn from_matrix(a: &CsrMatrix<S>) -> Self {
        let (rowptr, cols, vals) = a.local_square_block();
        let n = rowptr.len() - 1;
        // sort each row by column id (solvers below rely on it)
        let mut s_cols = Vec::with_capacity(cols.len());
        let mut s_vals = Vec::with_capacity(vals.len());
        let mut s_rowptr = Vec::with_capacity(rowptr.len());
        s_rowptr.push(0);
        for i in 0..n {
            let mut row: Vec<(usize, S)> = (rowptr[i]..rowptr[i + 1])
                .map(|k| (cols[k], vals[k]))
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in row {
                s_cols.push(c);
                s_vals.push(v);
            }
            s_rowptr.push(s_cols.len());
        }
        LocalBlock {
            rowptr: s_rowptr,
            cols: s_cols,
            vals: s_vals,
            n,
        }
    }

    fn diag_positions(&self) -> Vec<usize> {
        (0..self.n)
            .map(|i| {
                (self.rowptr[i]..self.rowptr[i + 1])
                    .find(|&k| self.cols[k] == i)
                    .unwrap_or_else(|| panic!("row {i} has no diagonal entry"))
            })
            .collect()
    }
}

/// Symmetric SOR sweep on the local block:
/// `M = (D/ω + L) · (ω/(2−ω))·D⁻¹ · (D/ω + U)`.
pub struct SsorPrecond<S: Scalar> {
    block: LocalBlock<S>,
    diag_pos: Vec<usize>,
    omega: f64,
}

impl<S: Scalar> SsorPrecond<S> {
    /// Build with relaxation factor `omega ∈ (0, 2)`.
    pub fn new(a: &CsrMatrix<S>, omega: f64) -> Self {
        assert!(omega > 0.0 && omega < 2.0, "omega must be in (0,2)");
        let block = LocalBlock::from_matrix(a);
        let diag_pos = block.diag_positions();
        SsorPrecond {
            block,
            diag_pos,
            omega,
        }
    }
}

impl<S: Scalar> Preconditioner<S> for SsorPrecond<S> {
    fn apply(&self, _comm: &Comm, r: &DistVector<S>) -> DistVector<S> {
        let b = &self.block;
        let w = S::from_f64(self.omega);
        let rl = r.local();
        let n = b.n;
        // Forward solve: (D/ω + L) y = r
        let mut y = vec![S::zero(); n];
        for i in 0..n {
            let mut acc = rl[i];
            for k in b.rowptr[i]..b.rowptr[i + 1] {
                let j = b.cols[k];
                if j < i {
                    acc -= b.vals[k] * y[j];
                }
            }
            let d = b.vals[self.diag_pos[i]];
            y[i] = acc * w / d;
        }
        // Scale: y ← ((2−ω)/ω) D y
        let scale = S::from_f64((2.0 - self.omega) / self.omega);
        for (i, yi) in y.iter_mut().enumerate() {
            *yi *= scale * b.vals[self.diag_pos[i]];
        }
        // Backward solve: (D/ω + U) z = y
        let mut z = vec![S::zero(); n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in b.rowptr[i]..b.rowptr[i + 1] {
                let j = b.cols[k];
                if j > i {
                    acc -= b.vals[k] * z[j];
                }
            }
            let d = b.vals[self.diag_pos[i]];
            z[i] = acc * w / d;
        }
        DistVector::from_local(r.map().clone(), z)
    }
    fn name(&self) -> &'static str {
        "ssor"
    }
}

/// Zero-fill incomplete LU on the local block (Ifpack `ILU(0)`).
/// The factors reuse the sparsity pattern of the block; apply performs the
/// local forward/backward substitution.
pub struct IluPrecond<S: Scalar> {
    block: LocalBlock<S>,
    diag_pos: Vec<usize>,
}

impl<S: Scalar> IluPrecond<S> {
    /// Factor the local block in ILU(0) fashion.
    pub fn new(a: &CsrMatrix<S>) -> Self {
        let mut block = LocalBlock::from_matrix(a);
        let diag_pos = block.diag_positions();
        let n = block.n;
        // IKJ-variant ILU(0): for each row i, eliminate with rows k < i
        // that appear in row i's pattern.
        // col_pos[i][j] lookup: for pattern-limited updates we scan rows.
        for i in 0..n {
            let (lo, hi) = (block.rowptr[i], block.rowptr[i + 1]);
            for kk in lo..hi {
                let k = block.cols[kk];
                if k >= i {
                    break; // columns sorted: L part done
                }
                // multiplier = a_ik / a_kk
                let akk = block.vals[diag_pos[k]];
                let mult = block.vals[kk] / akk;
                block.vals[kk] = mult;
                // a_ij -= mult * a_kj for j > k present in row i's pattern
                let (klo, khi) = (block.rowptr[k], block.rowptr[k + 1]);
                let mut p = kk + 1;
                for kj in klo..khi {
                    let j = block.cols[kj];
                    if j <= k {
                        continue;
                    }
                    // advance p in row i to column j (both sorted)
                    while p < hi && block.cols[p] < j {
                        p += 1;
                    }
                    if p < hi && block.cols[p] == j {
                        let u = block.vals[kj];
                        block.vals[p] -= mult * u;
                    }
                }
            }
            assert!(
                block.vals[diag_pos[i]] != S::zero(),
                "zero pivot in ILU(0) at local row {i}"
            );
        }
        IluPrecond { block, diag_pos }
    }
}

impl<S: Scalar> Preconditioner<S> for IluPrecond<S> {
    fn apply(&self, _comm: &Comm, r: &DistVector<S>) -> DistVector<S> {
        let b = &self.block;
        let n = b.n;
        let rl = r.local();
        // L y = r (unit lower triangular: multipliers stored in L part)
        let mut y = vec![S::zero(); n];
        for i in 0..n {
            let mut acc = rl[i];
            for k in b.rowptr[i]..b.rowptr[i + 1] {
                let j = b.cols[k];
                if j >= i {
                    break;
                }
                acc -= b.vals[k] * y[j];
            }
            y[i] = acc;
        }
        // U z = y
        let mut z = vec![S::zero(); n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in (b.rowptr[i]..b.rowptr[i + 1]).rev() {
                let j = b.cols[k];
                if j <= i {
                    break;
                }
                acc -= b.vals[k] * z[j];
            }
            z[i] = acc / b.vals[self.diag_pos[i]];
        }
        DistVector::from_local(r.map().clone(), z)
    }
    fn name(&self) -> &'static str {
        "ilu0"
    }
}

/// Chebyshev polynomial preconditioner of fixed degree over the full
/// distributed operator (communicates through matvecs). Needs an estimate
/// of the largest eigenvalue of `D⁻¹A`, obtained by power iteration.
pub struct ChebyshevPrecond<S: Scalar> {
    a: CsrMatrix<S>,
    inv_diag: DistVector<S>,
    degree: usize,
    lambda_max: f64,
    lambda_min: f64,
}

impl<S: Scalar> ChebyshevPrecond<S> {
    /// Build with `degree` Chebyshev steps; `lambda_max` of `D⁻¹A` is
    /// estimated with `power_iters` power iterations, and `lambda_min` is
    /// taken as `lambda_max / 30` (the usual smoother heuristic).
    pub fn new(comm: &Comm, a: &CsrMatrix<S>, degree: usize, power_iters: usize) -> Self {
        let mut inv_diag = a.diagonal();
        for v in inv_diag.local_mut() {
            *v = S::one() / *v;
        }
        // power iteration on D⁻¹A
        let mut v = DistVector::from_fn(a.domain_map().clone(), |g| {
            S::from_f64(((g * 2654435761) % 1000) as f64 / 1000.0 + 0.1)
        });
        let mut lambda = 1.0;
        for _ in 0..power_iters {
            let mut w = a.matvec(comm, &v);
            w.pointwise_mul(&inv_diag);
            let [ww, vv] = DistVector::dots([(&w, &w), (&v, &v)], comm);
            let nrm = norm_from_lane(ww);
            if nrm == 0.0 {
                break;
            }
            lambda = nrm / norm_from_lane(vv);
            w.scale(S::from_f64(1.0 / nrm));
            v = w;
        }
        let lambda_max = lambda * 1.1; // safety margin
        ChebyshevPrecond {
            a: a.clone(),
            inv_diag,
            degree,
            lambda_max,
            lambda_min: lambda_max / 30.0,
        }
    }
}

impl<S: Scalar> Preconditioner<S> for ChebyshevPrecond<S> {
    fn apply(&self, comm: &Comm, r: &DistVector<S>) -> DistVector<S> {
        // Standard Chebyshev smoother recurrence on z' = D⁻¹A z = D⁻¹ r.
        let theta = 0.5 * (self.lambda_max + self.lambda_min);
        let delta = 0.5 * (self.lambda_max - self.lambda_min);
        let mut pre_r = r.clone();
        pre_r.pointwise_mul(&self.inv_diag);
        let mut z = pre_r.clone();
        z.scale(S::from_f64(1.0 / theta));
        let mut d = z.clone(); // previous correction
        let mut sigma = theta / delta;
        for _ in 1..self.degree {
            // residual of the preconditioned system: rho = D⁻¹(r − A z)
            let az = self.a.matvec(comm, &z);
            let mut rho = r.clone();
            rho.axpy(-S::one(), &az);
            rho.pointwise_mul(&self.inv_diag);
            let sigma_new = 1.0 / (2.0 * theta / delta - sigma);
            let c1 = S::from_f64(2.0 * sigma_new / delta);
            let c2 = S::from_f64(sigma_new * sigma);
            // d ← c1·rho + c2·d ; z ← z + d
            d.scale(c2);
            d.axpy(c1, &rho);
            z.axpy(S::one(), &d);
            sigma = sigma_new;
        }
        z
    }
    fn name(&self) -> &'static str {
        "chebyshev"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;
    use dmap::DistMap;

    fn laplace(comm: &Comm, n: usize) -> CsrMatrix<f64> {
        let m = DistMap::block(n, comm.size(), comm.rank());
        CsrMatrix::from_row_fn(comm, m.clone(), m, move |g| {
            let mut row = Vec::new();
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 2.0));
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        })
    }

    /// Residual after `k` preconditioned Richardson iterations on `Ax = b`
    /// (relative to ‖b‖): the standard way to compare smoother quality.
    fn richardson(comm: &Comm, a: &CsrMatrix<f64>, m: &dyn Preconditioner<f64>, k: usize) -> f64 {
        let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g + 1) as f64 * 0.3).sin());
        let mut x = DistVector::zeros(a.domain_map().clone());
        for _ in 0..k {
            let ax = a.matvec(comm, &x);
            let mut r = b.clone();
            r.axpy(-1.0, &ax);
            let z = m.apply(comm, &r);
            x.axpy(1.0, &z);
        }
        let ax = a.matvec(comm, &x);
        let mut r = b.clone();
        r.axpy(-1.0, &ax);
        r.norm2(comm) / b.norm2(comm)
    }

    /// error reduction ‖r − A·M⁻¹r‖ / ‖r‖ of one preconditioner application
    fn reduction(comm: &Comm, a: &CsrMatrix<f64>, m: &dyn Preconditioner<f64>) -> f64 {
        richardson(comm, a, m, 1)
    }

    #[test]
    fn jacobi_inverts_diagonal_matrices_exactly() {
        Universe::run(2, |comm| {
            let m = DistMap::block(6, comm.size(), comm.rank());
            let a = CsrMatrix::from_row_fn(comm, m.clone(), m, |g| vec![(g, (g + 1) as f64)]);
            let p = JacobiPrecond::new(&a);
            assert!(reduction(comm, &a, &p) < 1e-14);
        });
    }

    #[test]
    fn ilu0_on_single_rank_is_exact_for_tridiagonal() {
        // Tridiagonal matrices have no fill, so ILU(0) = full LU.
        Universe::run(1, |comm| {
            let a = laplace(comm, 20);
            let p = IluPrecond::new(&a);
            assert!(reduction(comm, &a, &p) < 1e-12);
        });
    }

    #[test]
    fn preconditioners_reduce_cg_iterations_multirank() {
        // CG iteration count is the robust quality metric: stronger local
        // preconditioners must not need more iterations than point Jacobi.
        Universe::run(3, |comm| {
            use crate::krylov::{cg, KrylovConfig};
            let a = laplace(comm, 60);
            let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g + 1) as f64 * 0.3).sin());
            let cfg = KrylovConfig {
                rtol: 1e-8,
                max_iter: 500,
                ..Default::default()
            };
            let run = |m: &dyn Preconditioner<f64>| {
                let mut x = DistVector::zeros(a.domain_map().clone());
                let st = cg(comm, &a, &b, &mut x, m, &cfg);
                assert!(st.converged, "{} did not converge", m.name());
                st.iterations
            };
            let none = run(&IdentityPrecond);
            let jac = run(&JacobiPrecond::new(&a));
            let ssor = run(&SsorPrecond::new(&a, 1.0));
            let ilu = run(&IluPrecond::new(&a));
            assert!(jac <= none, "jacobi {jac} vs none {none}");
            assert!(ssor < jac, "ssor {ssor} vs jacobi {jac}");
            assert!(ilu < jac, "ilu {ilu} vs jacobi {jac}");
        });
    }

    #[test]
    fn chebyshev_beats_jacobi() {
        Universe::run(2, |comm| {
            let a = laplace(comm, 24);
            let k = 4;
            let jac = richardson(comm, &a, &JacobiPrecond::new(&a), k);
            let cheb = ChebyshevPrecond::new(comm, &a, 4, 20);
            assert!(cheb.lambda_min > 0.0 && cheb.lambda_max > cheb.lambda_min);
            let c = richardson(comm, &a, &cheb, k);
            assert!(c < jac, "chebyshev {c} vs jacobi {jac}");
        });
    }

    #[test]
    fn ssor_rejects_bad_omega() {
        let result = std::panic::catch_unwind(|| {
            Universe::run(1, |comm| {
                let a = laplace(comm, 4);
                let _ = SsorPrecond::new(&a, 2.5);
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn names_are_stable() {
        Universe::run(1, |comm| {
            let a = laplace(comm, 4);
            assert_eq!(Preconditioner::<f64>::name(&IdentityPrecond), "none");
            assert_eq!(JacobiPrecond::new(&a).name(), "jacobi");
            assert_eq!(SsorPrecond::new(&a, 1.2).name(), "ssor");
            assert_eq!(IluPrecond::new(&a).name(), "ilu0");
        });
    }
}
