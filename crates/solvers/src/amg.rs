//! Aggregation-based algebraic multigrid (ML analog).
//!
//! Builds a hierarchy of coarse operators by greedy local aggregation with
//! piecewise-constant (tentative, unsmoothed) prolongation, damped-Jacobi
//! smoothing on every level, and a gather-to-root direct solve on the
//! coarsest level. Used as a preconditioner for CG/GMRES in experiment
//! E10, where it plays the role of Trilinos' ML package.

use comm::Comm;
use dlinalg::{CsrMatrix, DistVector};
use dmap::DistMap;

use crate::direct::DirectSolver;
use crate::precond::Preconditioner;

/// Controls for the AMG hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct AmgConfig {
    /// Damped-Jacobi smoothing steps before and after coarse correction.
    pub n_smooth: usize,
    /// Jacobi damping factor (2/3 is the classic choice).
    pub omega: f64,
    /// Stop coarsening when the global size drops below this.
    pub coarse_threshold: usize,
    /// Hard cap on hierarchy depth.
    pub max_levels: usize,
}

impl Default for AmgConfig {
    fn default() -> Self {
        AmgConfig {
            n_smooth: 2,
            omega: 2.0 / 3.0,
            coarse_threshold: 64,
            max_levels: 12,
        }
    }
}

struct Level {
    a: CsrMatrix<f64>,
    inv_diag: Vec<f64>,
    /// local fine row → local coarse aggregate index
    agg_local: Vec<usize>,
    n_coarse_local: usize,
    coarse_map: DistMap,
}

/// The multilevel preconditioner.
pub struct AmgPreconditioner {
    levels: Vec<Level>,
    coarse_a_solver: DirectSolver<f64>,
    cfg: AmgConfig,
}

/// Greedy aggregation on the local square block graph: every unaggregated
/// node with no aggregated neighbor becomes a root and absorbs its
/// unaggregated local neighbors; leftovers join any adjacent aggregate or
/// become singletons. Returns (assignment, n_aggregates).
fn aggregate_local(a: &CsrMatrix<f64>) -> (Vec<usize>, usize) {
    let (rowptr, cols, _vals) = a.local_square_block();
    let n = rowptr.len() - 1;
    const UNASSIGNED: usize = usize::MAX;
    let mut agg = vec![UNASSIGNED; n];
    let mut n_agg = 0;
    // Phase 1: roots with fully unaggregated neighborhoods.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let nbrs = &cols[rowptr[i]..rowptr[i + 1]];
        if nbrs.iter().all(|&j| agg[j] == UNASSIGNED) {
            for &j in nbrs {
                agg[j] = n_agg;
            }
            agg[i] = n_agg;
            n_agg += 1;
        }
    }
    // Phase 2: attach leftovers to a neighboring aggregate.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let nbrs = &cols[rowptr[i]..rowptr[i + 1]];
        if let Some(&j) = nbrs.iter().find(|&&j| agg[j] != UNASSIGNED) {
            agg[i] = agg[j];
        } else {
            agg[i] = n_agg;
            n_agg += 1;
        }
    }
    (agg, n_agg)
}

impl AmgPreconditioner {
    /// Build the hierarchy for `a`. Collective.
    pub fn new(comm: &Comm, a: &CsrMatrix<f64>, cfg: AmgConfig) -> Self {
        let mut levels = Vec::new();
        let mut current = a.clone();
        for _ in 0..cfg.max_levels {
            let n_global = current.shape().0;
            if n_global <= cfg.coarse_threshold {
                break;
            }
            let (agg_local, n_agg) = aggregate_local(&current);
            // Global coarse numbering: block of aggregates per rank.
            let counts = comm.allgather(&n_agg);
            let coarse_map = DistMap::block_from_counts(&counts, comm.rank());
            let n_coarse_global = coarse_map.n_global();
            if n_coarse_global == 0 || n_coarse_global >= n_global {
                break; // aggregation stalled
            }
            let my_coarse_start = {
                let mut s = 0;
                for (r, &c) in counts.iter().enumerate() {
                    if r == comm.rank() {
                        break;
                    }
                    s += c;
                }
                s
            };
            // Coarse matrix: A_c[I][J] = Σ A[i][j] over i∈I, j∈J.
            // Need aggregate ids of ghost columns → halo gather.
            let agg_global: Vec<usize> = agg_local.iter().map(|&l| l + my_coarse_start).collect();
            let col_aggs = current.halo_gather(comm, &agg_global, usize::MAX);
            let mut triplets = Vec::with_capacity(current.nnz_local());
            let rowptr = current.rowptr().to_vec();
            let vals = current.values().to_vec();
            for i in 0..rowptr.len() - 1 {
                let gi = agg_global[i];
                for k in rowptr[i]..rowptr[i + 1] {
                    let gj = col_aggs[current.entry_local_col(k)];
                    debug_assert_ne!(gj, usize::MAX, "missing aggregate id for ghost");
                    triplets.push((gi, gj, vals[k]));
                }
            }
            let coarse_a =
                CsrMatrix::from_triplets(comm, coarse_map.clone(), coarse_map.clone(), triplets);
            let inv_diag: Vec<f64> = current
                .diagonal()
                .local()
                .iter()
                .map(|&d| {
                    assert!(d != 0.0, "AMG needs nonzero diagonals");
                    1.0 / d
                })
                .collect();
            levels.push(Level {
                a: current,
                inv_diag,
                agg_local,
                n_coarse_local: n_agg,
                coarse_map: coarse_map.clone(),
            });
            current = coarse_a;
        }
        let coarse_a_solver = DirectSolver::factor(comm, &current);
        AmgPreconditioner {
            levels,
            coarse_a_solver,
            cfg,
        }
    }

    /// Number of levels (including the direct-solved coarsest one).
    fn n_levels(&self) -> usize {
        self.levels.len() + 1
    }

    fn smooth(&self, comm: &Comm, level: &Level, z: &mut DistVector<f64>, r: &DistVector<f64>) {
        for _ in 0..self.cfg.n_smooth {
            // z ← z + ω D⁻¹ (r − A z)
            let az = level.a.matvec(comm, z);
            let zl = z.local_mut();
            for (i, ((&ri, &azi), &idi)) in r
                .local()
                .iter()
                .zip(az.local().iter())
                .zip(level.inv_diag.iter())
                .enumerate()
            {
                zl[i] += self.cfg.omega * idi * (ri - azi);
            }
        }
    }

    fn vcycle(&self, comm: &Comm, depth: usize, r: &DistVector<f64>) -> DistVector<f64> {
        if depth == self.levels.len() {
            return self.coarse_a_solver.solve(comm, r);
        }
        let level = &self.levels[depth];
        let mut z = DistVector::zeros(r.map().clone());
        self.smooth(comm, level, &mut z, r);
        // coarse residual: rc = Pᵀ (r − A z), local restriction
        let az = level.a.matvec(comm, &z);
        let mut rc = DistVector::zeros(level.coarse_map.clone());
        {
            let rcl = rc.local_mut();
            for (i, (&ri, &azi)) in r.local().iter().zip(az.local().iter()).enumerate() {
                rcl[level.agg_local[i]] += ri - azi;
            }
            debug_assert_eq!(rcl.len(), level.n_coarse_local);
        }
        let ec = self.vcycle(comm, depth + 1, &rc);
        // prolong: z += P ec (local)
        {
            let zl = z.local_mut();
            for (i, &aggi) in level.agg_local.iter().enumerate() {
                zl[i] += ec.local()[aggi];
            }
        }
        self.smooth(comm, level, &mut z, r);
        z
    }
}

impl Preconditioner<f64> for AmgPreconditioner {
    fn apply(&self, comm: &Comm, r: &DistVector<f64>) -> DistVector<f64> {
        let timer = crate::instrument::iter_start(comm);
        let z = self.vcycle(comm, 0, r);
        if let Some(t) = timer {
            t.finish(
                "solver",
                "amg.vcycle",
                comm.virtual_time(),
                &[("levels", self.n_levels() as f64)],
            );
        }
        z
    }
    fn name(&self) -> &'static str {
        "amg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::{cg, KrylovConfig};
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use comm::Universe;

    fn laplace2d(comm: &Comm, nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let m = DistMap::block(n, comm.size(), comm.rank());
        CsrMatrix::from_row_fn(comm, m.clone(), m, move |g| {
            let (i, j) = (g % nx, g / nx);
            let mut row = Vec::new();
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

    #[test]
    fn hierarchy_coarsens() {
        Universe::run(2, |comm| {
            let a = laplace2d(comm, 16, 16);
            let amg = AmgPreconditioner::new(comm, &a, AmgConfig::default());
            assert!(amg.n_levels() >= 2, "expected a real hierarchy");
        });
    }

    /// Global row count of every level, finest first, coarsest (direct
    /// solved) last.
    fn level_sizes(comm: &Comm, a: &CsrMatrix<f64>) -> Vec<usize> {
        let amg = AmgPreconditioner::new(comm, a, AmgConfig::default());
        let mut sizes: Vec<usize> = amg.levels.iter().map(|l| l.a.shape().0).collect();
        sizes.push(
            amg.levels
                .last()
                .map_or(a.shape().0, |l| l.coarse_map.n_global()),
        );
        sizes
    }

    /// Recorded before the owned-first column numbering (PR 19's parent).
    const PINNED_LEVEL_SIZES: [(usize, &[usize]); 3] = [
        (1, &[1024, 176, 24]),
        (2, &[1024, 176, 24]),
        (3, &[1024, 190, 28]),
    ];

    #[test]
    fn hierarchy_level_sizes_are_pinned() {
        // Aggregation walks the local square block and the coarse operator
        // is assembled through `halo_gather` + `entry_local_col`, so these
        // sizes move if the matrix's local column numbering ever breaks
        // that contract.
        for (p, want) in PINNED_LEVEL_SIZES {
            let got = Universe::run(p, |comm| level_sizes(comm, &laplace2d(comm, 32, 32)));
            for sizes in got {
                assert_eq!(sizes, want, "p={p}");
            }
        }
    }

    #[test]
    fn amg_reduces_cg_iterations_dramatically() {
        Universe::run(2, |comm| {
            let a = laplace2d(comm, 24, 24);
            let b = DistVector::constant(a.domain_map().clone(), 1.0);
            let cfg = KrylovConfig {
                rtol: 1e-8,
                max_iter: 2000,
                ..Default::default()
            };
            let mut x0 = DistVector::zeros(a.domain_map().clone());
            let plain = cg(comm, &a, &b, &mut x0, &IdentityPrecond, &cfg);
            let mut x1 = DistVector::zeros(a.domain_map().clone());
            let jac = cg(comm, &a, &b, &mut x1, &JacobiPrecond::new(&a), &cfg);
            let amg = AmgPreconditioner::new(comm, &a, AmgConfig::default());
            let mut x2 = DistVector::zeros(a.domain_map().clone());
            let mg = cg(comm, &a, &b, &mut x2, &amg, &cfg);
            assert!(plain.converged && jac.converged && mg.converged);
            assert!(
                mg.iterations * 2 < plain.iterations,
                "amg {} vs plain {}",
                mg.iterations,
                plain.iterations
            );
            // solutions agree
            let mut e = x2.clone();
            e.axpy(-1.0, &x0);
            assert!(e.norm2(comm) / x0.norm2(comm) < 1e-6);
        });
    }

    #[test]
    fn amg_apply_is_symmetric_enough_for_cg() {
        // CG requires an SPD preconditioner; symmetric smoothing + exact
        // coarse solve keeps the V-cycle symmetric. Check ⟨Mr, s⟩ ≈ ⟨r, Ms⟩.
        Universe::run(2, |comm| {
            let a = laplace2d(comm, 10, 10);
            let amg = AmgPreconditioner::new(comm, &a, AmgConfig::default());
            let r = DistVector::from_fn(a.domain_map().clone(), |g| ((g * 13 % 7) as f64) - 3.0);
            let s = DistVector::from_fn(a.domain_map().clone(), |g| ((g * 5 % 11) as f64) - 5.0);
            let mr = amg.apply(comm, &r);
            let ms = amg.apply(comm, &s);
            let lhs = mr.dot(&s, comm);
            let rhs = r.dot(&ms, comm);
            assert!(
                (lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0),
                "{lhs} vs {rhs}"
            );
        });
    }

    #[test]
    fn small_matrix_goes_straight_to_direct() {
        Universe::run(2, |comm| {
            let a = laplace2d(comm, 4, 4); // 16 ≤ default threshold
            let amg = AmgPreconditioner::new(comm, &a, AmgConfig::default());
            assert_eq!(amg.n_levels(), 1);
            // acts as an exact solver then
            let r = DistVector::constant(a.domain_map().clone(), 1.0);
            let z = amg.apply(comm, &r);
            let az = a.matvec(comm, &z);
            let mut e = az.clone();
            e.axpy(-1.0, &r);
            assert!(e.norm2(comm) < 1e-10);
        });
    }
}
