//! Standard test matrices, all distributed over block row maps.

use comm::Comm;
use dlinalg::CsrMatrix;
use dmap::DistMap;
use obs::SplitMix64;

fn square_maps(comm: &Comm, n: usize) -> (DistMap, DistMap) {
    let m = DistMap::block(n, comm.size(), comm.rank());
    (m.clone(), m)
}

/// General tridiagonal matrix with constant bands `(lower, diag, upper)`.
fn tridiag(comm: &Comm, n: usize, lower: f64, diag: f64, upper: f64) -> CsrMatrix<f64> {
    let (rm, dm) = square_maps(comm, n);
    CsrMatrix::from_row_fn(comm, rm, dm, move |g| {
        let mut row = Vec::with_capacity(3);
        if g > 0 {
            row.push((g - 1, lower));
        }
        row.push((g, diag));
        if g + 1 < n {
            row.push((g + 1, upper));
        }
        row
    })
}

/// 1-D Dirichlet Laplacian: stencil `[-1, 2, -1]`, SPD, eigenvalues
/// `2 - 2cos(kπ/(n+1))`.
pub fn laplace_1d(comm: &Comm, n: usize) -> CsrMatrix<f64> {
    tridiag(comm, n, -1.0, 2.0, -1.0)
}

/// 2-D Dirichlet Laplacian on an `nx × ny` grid, 5-point stencil,
/// row-major grid numbering. SPD.
pub fn laplace_2d(comm: &Comm, nx: usize, ny: usize) -> CsrMatrix<f64> {
    let n = nx * ny;
    let (rm, dm) = square_maps(comm, n);
    CsrMatrix::from_row_fn(comm, rm, dm, move |g| {
        let (i, j) = (g % nx, g / nx);
        let mut row = Vec::with_capacity(5);
        if j > 0 {
            row.push((g - nx, -1.0));
        }
        if i > 0 {
            row.push((g - 1, -1.0));
        }
        row.push((g, 4.0));
        if i + 1 < nx {
            row.push((g + 1, -1.0));
        }
        if j + 1 < ny {
            row.push((g + nx, -1.0));
        }
        row
    })
}

/// 3-D Dirichlet Laplacian on an `nx × ny × nz` grid, 7-point stencil.
pub fn laplace_3d(comm: &Comm, nx: usize, ny: usize, nz: usize) -> CsrMatrix<f64> {
    let n = nx * ny * nz;
    let (rm, dm) = square_maps(comm, n);
    CsrMatrix::from_row_fn(comm, rm, dm, move |g| {
        let i = g % nx;
        let j = (g / nx) % ny;
        let k = g / (nx * ny);
        let mut row = Vec::with_capacity(7);
        if k > 0 {
            row.push((g - nx * ny, -1.0));
        }
        if j > 0 {
            row.push((g - nx, -1.0));
        }
        if i > 0 {
            row.push((g - 1, -1.0));
        }
        row.push((g, 6.0));
        if i + 1 < nx {
            row.push((g + 1, -1.0));
        }
        if j + 1 < ny {
            row.push((g + nx, -1.0));
        }
        if k + 1 < nz {
            row.push((g + nx * ny, -1.0));
        }
        row
    })
}

/// Anisotropic 2-D Laplacian: `-u_xx - eps * u_yy`. Small `eps` stresses
/// preconditioners (the classic smoothed-aggregation test case).
pub fn anisotropic_laplace_2d(comm: &Comm, nx: usize, ny: usize, eps: f64) -> CsrMatrix<f64> {
    let n = nx * ny;
    let (rm, dm) = square_maps(comm, n);
    CsrMatrix::from_row_fn(comm, rm, dm, move |g| {
        let (i, j) = (g % nx, g / nx);
        let mut row = Vec::with_capacity(5);
        if j > 0 {
            row.push((g - nx, -eps));
        }
        if i > 0 {
            row.push((g - 1, -1.0));
        }
        row.push((g, 2.0 + 2.0 * eps));
        if i + 1 < nx {
            row.push((g + 1, -1.0));
        }
        if j + 1 < ny {
            row.push((g + nx, -eps));
        }
        row
    })
}

/// 1-D advection–diffusion `-u'' + beta·u'` (central differences):
/// nonsymmetric for `beta ≠ 0`; exercises GMRES/BiCGStab.
pub fn advection_diffusion_1d(comm: &Comm, n: usize, beta: f64) -> CsrMatrix<f64> {
    let h = 1.0 / (n as f64 + 1.0);
    tridiag(comm, n, -1.0 - 0.5 * beta * h, 2.0, -1.0 + 0.5 * beta * h)
}

/// Identity matrix.
pub fn identity(comm: &Comm, n: usize) -> CsrMatrix<f64> {
    let (rm, dm) = square_maps(comm, n);
    CsrMatrix::from_row_fn(comm, rm, dm, |g| vec![(g, 1.0)])
}

/// Random sparse symmetric diagonally-dominant (hence SPD) matrix with
/// about `off_per_row` off-diagonal entries per row. Deterministic in
/// `seed` and independent of the rank count (entries are generated
/// globally, then kept if locally owned).
pub fn random_spd(comm: &Comm, n: usize, off_per_row: usize, seed: u64) -> CsrMatrix<f64> {
    // Generate the global symmetric pattern identically on every rank.
    let mut rng = SplitMix64::new(seed);
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        for _ in 0..off_per_row {
            let j = rng.gen_index(n);
            let v = -rng.gen_range_f64(0.1, 1.0);
            if i != j {
                entries.push((i, j, v));
                entries.push((j, i, v));
            }
        }
    }
    // Row sums for diagonal dominance.
    let mut rowsum = vec![0.0f64; n];
    for &(i, _, v) in &entries {
        rowsum[i] += v.abs();
    }
    let (rm, dm) = square_maps(comm, n);
    let mine: Vec<(usize, usize, f64)> = entries
        .into_iter()
        .filter(|&(i, _, _)| rm.global_to_local(i).is_some())
        .chain(
            (0..n)
                .filter(|&i| rm.global_to_local(i).is_some())
                .map(|i| (i, i, rowsum[i] + 1.0)),
        )
        .collect();
    CsrMatrix::from_triplets(comm, rm, dm, mine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;
    use dlinalg::DistVector;

    #[test]
    fn laplace_1d_row_sums() {
        Universe::run(2, |comm| {
            let a = laplace_1d(comm, 6);
            let ones = DistVector::constant(a.domain_map().clone(), 1.0);
            let y = a.matvec(comm, &ones).gather_global(comm);
            // interior rows sum to 0, boundary rows to 1
            assert_eq!(y, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        });
    }

    #[test]
    fn laplace_2d_structure() {
        Universe::run(3, |comm| {
            let a = laplace_2d(comm, 3, 3);
            assert_eq!(a.shape(), (9, 9));
            // 5-point stencil nnz: 9*5 - 2*3(boundary x) - 2*3(boundary y) = 33
            assert_eq!(a.nnz_global(comm), 33);
            let d = a.diagonal();
            assert!(d.local().iter().all(|&v| v == 4.0));
        });
    }

    #[test]
    fn laplace_3d_structure() {
        Universe::run(2, |comm| {
            let a = laplace_3d(comm, 2, 3, 2);
            assert_eq!(a.shape(), (12, 12));
            let ones = DistVector::constant(a.domain_map().clone(), 1.0);
            let y = a.matvec(comm, &ones);
            // row sum = 6 - number of neighbors ≥ 0 for all rows
            assert!(y.local().iter().all(|&v| v >= 0.0));
        });
    }

    #[test]
    fn advection_diffusion_is_nonsymmetric() {
        Universe::run(2, |comm| {
            let a = advection_diffusion_1d(comm, 8, 10.0);
            let at = a.transpose(comm);
            let x = DistVector::from_fn(a.domain_map().clone(), |g| (g as f64 + 0.3).cos());
            let y1 = a.matvec(comm, &x).gather_global(comm);
            let y2 = at.matvec(comm, &x).gather_global(comm);
            assert!(y1.iter().zip(&y2).any(|(u, v)| (u - v).abs() > 1e-10));
        });
    }

    #[test]
    fn identity_matvec_is_identity() {
        Universe::run(2, |comm| {
            let a = identity(comm, 5);
            let x = DistVector::from_fn(a.domain_map().clone(), |g| g as f64 * 1.1);
            let y = a.matvec(comm, &x);
            assert_eq!(y.local(), x.local());
        });
    }

    #[test]
    fn random_spd_is_symmetric_and_rank_count_invariant() {
        let y2 = Universe::run(2, |comm| {
            let a = random_spd(comm, 20, 3, 42);
            let x = DistVector::from_fn(a.domain_map().clone(), |g| (g as f64 * 0.37).sin());
            a.matvec(comm, &x).gather_global(comm)
        });
        let y3 = Universe::run(3, |comm| {
            let a = random_spd(comm, 20, 3, 42);
            let x = DistVector::from_fn(a.domain_map().clone(), |g| (g as f64 * 0.37).sin());
            // symmetry: compare with transpose action
            let at = a.transpose(comm);
            let y = a.matvec(comm, &x).gather_global(comm);
            let yt = at.matvec(comm, &x).gather_global(comm);
            for (u, v) in y.iter().zip(&yt) {
                assert!((u - v).abs() < 1e-12, "not symmetric");
            }
            y
        });
        for (u, v) in y2[0].iter().zip(&y3[0]) {
            assert!((u - v).abs() < 1e-12, "rank-count dependence detected");
        }
    }

    #[test]
    fn tridiag_bands() {
        Universe::run(2, |comm| {
            let a = tridiag(comm, 5, 1.0, -2.0, 3.0);
            let x = DistVector::from_fn(a.domain_map().clone(), |_| 1.0);
            let y = a.matvec(comm, &x).gather_global(comm);
            assert_eq!(y, vec![1.0, 2.0, 2.0, 2.0, -1.0]);
        });
    }
}
