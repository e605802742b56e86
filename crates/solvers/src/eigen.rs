//! Eigensolvers (Anasazi analog): power iteration for the dominant
//! eigenpair and Lanczos for extreme eigenvalues of symmetric operators.

use comm::Comm;
use dlinalg::{CsrMatrix, DistVector, RealScalar, Scalar};

use crate::krylov::norm_from_lane;

/// Result of the power method: dominant eigenvalue estimate, eigenvector,
/// and iterations used.
pub struct PowerResult<S: Scalar> {
    /// Rayleigh-quotient estimate of the dominant eigenvalue.
    pub lambda: f64,
    /// Unit-norm eigenvector estimate.
    pub vector: DistVector<S>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the eigenvalue estimate stabilized to `tol`.
    pub converged: bool,
}

/// Power iteration on `A`. Collective.
pub fn power_method<S: Scalar>(
    comm: &Comm,
    a: &CsrMatrix<S>,
    tol: f64,
    max_iter: usize,
) -> PowerResult<S> {
    let mut v = DistVector::from_fn(a.domain_map().clone(), |g| {
        // fixed pseudo-random start, identical across rank counts
        S::from_f64((((g.wrapping_mul(2654435761)) % 10007) as f64) / 10007.0 + 0.05)
    });
    let nrm = v.norm2(comm);
    v.scale(S::from_real(S::Real::one() / nrm));
    let mut lambda = 0.0f64;
    for it in 1..=max_iter {
        let timer = crate::instrument::iter_start(comm);
        let w = a.matvec(comm, &v);
        // Rayleigh quotient ⟨v, Av⟩ (v already unit norm) and ‖Av‖² in
        // one reduction.
        let [vw, ww] = DistVector::dots([(&v, &w), (&w, &w)], comm);
        let rq = vw.re().to_f64();
        let wnorm = norm_from_lane(ww);
        if wnorm == 0.0 {
            crate::instrument::record_solve("power", it, true, 0.0);
            return PowerResult {
                lambda: 0.0,
                vector: v,
                iterations: it,
                converged: true,
            };
        }
        let mut vnext = w;
        vnext.scale(S::from_f64(1.0 / wnorm));
        let delta = (rq - lambda).abs();
        lambda = rq;
        v = vnext;
        if let Some(t) = timer {
            crate::instrument::iter_finish(t, comm, "power.iter", it, delta);
        }
        if it > 1 && delta <= tol * lambda.abs().max(1e-30) {
            crate::instrument::record_solve("power", it, true, delta);
            return PowerResult {
                lambda,
                vector: v,
                iterations: it,
                converged: true,
            };
        }
    }
    crate::instrument::record_solve("power", max_iter, false, f64::NAN);
    PowerResult {
        lambda,
        vector: v,
        iterations: max_iter,
        converged: false,
    }
}

/// Lanczos tridiagonalization with full reorthogonalization, returning the
/// eigenvalues of the `k × k` tridiagonal Rayleigh–Ritz matrix (sorted
/// ascending). The extreme entries approximate the extreme eigenvalues of
/// the symmetric operator `A`. Collective.
pub fn lanczos_extreme_eigenvalues(comm: &Comm, a: &CsrMatrix<f64>, k: usize) -> Vec<f64> {
    let n = a.shape().0;
    let k = k.min(n);
    let mut alphas = Vec::with_capacity(k);
    let mut betas = Vec::with_capacity(k);
    let mut basis: Vec<DistVector<f64>> = Vec::with_capacity(k);
    let mut v = DistVector::from_fn(a.domain_map().clone(), |g| {
        ((g as f64 + 1.0) * 0.7391).sin() + 0.2
    });
    let nrm = v.norm2(comm);
    v.scale(1.0 / nrm);
    let mut v_prev: Option<DistVector<f64>> = None;
    let mut beta_prev = 0.0f64;
    for _ in 0..k {
        let mut w = a.matvec(comm, &v);
        if let Some(prev) = &v_prev {
            w.axpy(-beta_prev, prev);
        }
        let alpha = v.dot(&w, comm);
        w.axpy(-alpha, &v);
        // full reorthogonalization for numerical robustness
        for q in &basis {
            let proj = q.dot(&w, comm);
            w.axpy(-proj, q);
        }
        alphas.push(alpha);
        basis.push(v.clone());
        let beta = w.norm2(comm);
        if beta < 1e-14 {
            break; // invariant subspace found
        }
        betas.push(beta);
        w.scale(1.0 / beta);
        v_prev = Some(std::mem::replace(&mut v, w));
        beta_prev = beta;
    }
    let mut eig = tridiag_eigenvalues(&alphas, &betas);
    eig.sort_by(|a, b| a.partial_cmp(b).unwrap());
    eig
}

/// Eigenvalues of a symmetric tridiagonal matrix via the implicit QL
/// algorithm with Wilkinson shifts (the classic `tql1` routine,
/// eigenvalues only).
fn tridiag_eigenvalues(diag: &[f64], off: &[f64]) -> Vec<f64> {
    let n = diag.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(off.len() + 1 >= n, "need n-1 off-diagonal entries");
    let mut d = diag.to_vec();
    let mut e = vec![0.0f64; n];
    e[..n - 1].copy_from_slice(&off[..n - 1]);
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first negligible subdiagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] is an eigenvalue
            }
            iter += 1;
            assert!(iter < 200, "tql did not converge");
            // Wilkinson shift from the leading 2x2.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let denom = g + if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / denom;
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // recover from underflow: deflate and retry
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;
    use dmap::DistMap;
    use std::f64::consts::PI;

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

    /// analytic eigenvalues of the n×n 1-D Laplacian: 2 − 2cos(kπ/(n+1))
    fn laplace_eigs(n: usize) -> Vec<f64> {
        (1..=n)
            .map(|k| 2.0 - 2.0 * (k as f64 * PI / (n as f64 + 1.0)).cos())
            .collect()
    }

    #[test]
    fn tridiag_eigenvalues_match_analytic() {
        let n = 12;
        let diag = vec![2.0; n];
        let off = vec![-1.0; n - 1];
        let mut got = tridiag_eigenvalues(&diag, &off);
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect = laplace_eigs(n);
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-10, "{g} vs {e}");
        }
    }

    #[test]
    fn tridiag_handles_tiny_and_diagonal_cases() {
        assert_eq!(tridiag_eigenvalues(&[], &[]), Vec::<f64>::new());
        assert_eq!(tridiag_eigenvalues(&[5.0], &[]), vec![5.0]);
        let mut two = tridiag_eigenvalues(&[0.0, 0.0], &[1.0]);
        two.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((two[0] + 1.0).abs() < 1e-12 && (two[1] - 1.0).abs() < 1e-12);
        // already diagonal
        let d = tridiag_eigenvalues(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        let mut d = d;
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(d, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn power_method_finds_dominant_eigenvalue() {
        Universe::run(3, |comm| {
            let n = 20;
            let a = laplace(comm, n);
            let res = power_method(comm, &a, 1e-12, 5000);
            let expect = *laplace_eigs(n).last().unwrap();
            assert!(res.converged);
            assert!(
                (res.lambda - expect).abs() < 1e-4,
                "{} vs {}",
                res.lambda,
                expect
            );
            // eigenvector check: ‖A v − λ v‖ small
            let av = a.matvec(comm, &res.vector);
            let mut r = av.clone();
            r.axpy(-res.lambda, &res.vector);
            assert!(r.norm2(comm) < 1e-3);
        });
    }

    #[test]
    fn lanczos_extreme_eigenvalues_bracket_spectrum() {
        Universe::run(2, |comm| {
            let n = 30;
            let a = laplace(comm, n);
            let ritz = lanczos_extreme_eigenvalues(comm, &a, 20);
            let eigs = laplace_eigs(n);
            let (lo, hi) = (eigs[0], eigs[n - 1]);
            let (rlo, rhi) = (ritz[0], *ritz.last().unwrap());
            // Ritz values lie inside the spectrum and converge to the
            // extremes; after 20 of 30 steps they are close but not exact.
            assert!(rhi <= hi + 1e-9 && hi - rhi < 0.05, "max: {rhi} vs {hi}");
            assert!(rlo >= lo - 1e-9 && rlo - lo < 0.05, "min: {rlo} vs {lo}");
        });
    }

    #[test]
    fn lanczos_exact_at_full_dimension() {
        Universe::run(2, |comm| {
            let n = 10;
            let a = laplace(comm, n);
            let ritz = lanczos_extreme_eigenvalues(comm, &a, n);
            let eigs = laplace_eigs(n);
            for (r, e) in ritz.iter().zip(eigs.iter()) {
                assert!((r - e).abs() < 1e-8, "{r} vs {e}");
            }
        });
    }

    #[test]
    fn lanczos_is_rank_count_invariant() {
        let run = |p: usize| {
            Universe::run(p, |comm| {
                let a = laplace(comm, 16);
                lanczos_extreme_eigenvalues(comm, &a, 8)
            })
            .pop()
            .unwrap()
        };
        let e1 = run(1);
        let e3 = run(3);
        for (a, b) in e1.iter().zip(e3.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
