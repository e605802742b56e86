//! Distributed compressed-sparse-row matrices (Tpetra `CrsMatrix` analog).
//!
//! Rows are distributed by a *row map*; the input vector of `y = A·x` is
//! distributed by a *domain map*. Local columns are numbered the way
//! Tpetra numbers them — the domain map's owned entries first, under
//! their domain-local ids, then the ghost (off-rank) columns in
//! increasing global order — so the local SpMV reads `x` in place and a
//! precomputed [`CommPlan`] moves only the ghost entries: exactly
//! Tpetra's Import-based halo exchange.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;

use comm::Comm;
use dmap::{CommPlan, Directory, DistMap};

use crate::scalar::Scalar;
use crate::vector::DistVector;

// The blocking oracle reads the matrix's private structure, so it is a
// child of this module; `crate::reference` re-exports it. Nothing outside
// this file can write that structure, which `CsrMatrix::sweep` relies on.
#[path = "reference.rs"]
pub mod reference;

/// A distributed sparse matrix in CSR layout.
#[derive(Debug, Clone)]
pub struct CsrMatrix<S: Scalar> {
    row_map: DistMap,
    domain_map: DistMap,
    /// matrix-local column id → global column id: the domain map's owned
    /// gids in local order, then the referenced ghost gids, increasing.
    col_gids: Vec<usize>,
    /// Columns below this are owned: column `c` is `x.local()[c]`.
    n_owned: usize,
    rowptr: Vec<usize>,
    colidx: Vec<u32>,
    vals: Vec<S>,
    /// Gathers the ghost columns, in `col_gids[n_owned..]` order.
    plan: CommPlan,
    /// Maximal ranges of consecutive local rows whose every column is
    /// owned (computable while the halo exchange is in flight) …
    interior: Vec<Range<usize>>,
    /// … and of rows that touch at least one ghost column.
    boundary: Vec<Range<usize>>,
    /// Nonzeros in interior rows (for split flop accounting).
    interior_nnz: usize,
    /// Ghost workspace reused across matvecs: sized to the ghost count on
    /// first use and fully overwritten by every plan execution, so
    /// steady-state matvecs allocate nothing here.
    scratch: RefCell<Vec<S>>,
}

impl<S: Scalar> CsrMatrix<S> {
    /// Build from a per-row generator: `row_fn(global_row)` returns the
    /// `(global_col, value)` entries of that row. Collective, as
    /// `from_local_rows`.
    pub fn from_row_fn(
        comm: &Comm,
        row_map: DistMap,
        domain_map: DistMap,
        row_fn: impl Fn(usize) -> Vec<(usize, S)>,
    ) -> Self {
        let rows: Vec<Vec<(usize, S)>> = row_map.my_gids().into_iter().map(row_fn).collect();
        Self::from_local_rows(comm, row_map, domain_map, rows)
    }

    /// Build from already-local rows: `rows[l]` holds the
    /// `(global_col, value)` entries of local row `l`. Collective, always:
    /// the matrix owns its halo plan and builds it here, one
    /// [`CommPlan::gather`] that every rank enters whether or not it has
    /// ghosts. `clone()` is how a second matrix shares the plan.
    fn from_local_rows(
        comm: &Comm,
        row_map: DistMap,
        domain_map: DistMap,
        rows: Vec<Vec<(usize, S)>>,
    ) -> Self {
        assert_eq!(
            rows.len(),
            row_map.my_count(),
            "one entry-list per local row"
        );
        // Ghost columns: referenced, owned elsewhere; increasing gid order.
        let mut ghosts = Vec::new();
        for &(c, _) in rows.iter().flatten() {
            assert!(
                c < domain_map.n_global(),
                "column {c} out of domain size {}",
                domain_map.n_global()
            );
            if domain_map.global_to_local(c).is_none() {
                ghosts.push(c);
            }
        }
        ghosts.sort_unstable();
        ghosts.dedup();
        let n_owned = domain_map.my_count();
        let n_cols = n_owned + ghosts.len();
        assert!(
            u32::try_from(n_cols).is_ok(),
            "{n_cols} local columns ({n_owned} owned + {} ghost) do not fit 32-bit column ids",
            ghosts.len()
        );
        // Compress global column ids and split the rows for the overlapped
        // SpMV: a row is *interior* when every column it references is
        // owned, so it can be computed before the halo arrives.
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        let mut rowptr = Vec::with_capacity(rows.len() + 1);
        let mut colidx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        let (mut interior, mut boundary) = (Vec::new(), Vec::new());
        let mut interior_nnz = 0;
        rowptr.push(0);
        for (i, row) in rows.iter().enumerate() {
            let mut owned_only = true;
            for &(c, v) in row {
                let lc = domain_map.global_to_local(c).unwrap_or_else(|| {
                    owned_only = false;
                    n_owned + ghosts.binary_search(&c).expect("ghost was collected")
                });
                colidx.push(lc as u32);
                vals.push(v);
            }
            rowptr.push(colidx.len());
            let class: &mut Vec<Range<usize>> = if owned_only {
                interior_nnz += row.len();
                &mut interior
            } else {
                &mut boundary
            };
            match class.last_mut() {
                Some(r) if r.end == i => r.end = i + 1,
                _ => class.push(i..i + 1),
            }
        }
        let dir = Directory::build(comm, &domain_map);
        let plan = CommPlan::gather(comm, &domain_map, &dir, &ghosts);
        let mut col_gids = domain_map.my_gids();
        col_gids.extend(ghosts);
        CsrMatrix {
            row_map,
            domain_map,
            col_gids,
            n_owned,
            rowptr,
            colidx,
            vals,
            plan,
            interior,
            boundary,
            interior_nnz,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Build from triplets that may live on any rank; entries are routed to
    /// the row's owner and duplicates are *summed* (finite-element assembly
    /// semantics — the Export/Add pattern). Collective: the triplet
    /// routing, then `from_local_rows`.
    pub fn from_triplets(
        comm: &Comm,
        row_map: DistMap,
        domain_map: DistMap,
        triplets: Vec<(usize, usize, S)>,
    ) -> Self {
        let p = comm.size();
        let dir = Directory::build(comm, &row_map);
        let owners = dir.owners_of(comm, &triplets.iter().map(|t| t.0).collect::<Vec<_>>());
        let mut outgoing: Vec<Vec<(usize, usize, S)>> = (0..p).map(|_| Vec::new()).collect();
        for (t, owner) in triplets.into_iter().zip(owners) {
            outgoing[owner].push(t);
        }
        let incoming = comm.alltoallv(outgoing);
        // Accumulate into per-local-row maps, summing duplicates.
        let mut rows: Vec<HashMap<usize, S>> =
            (0..row_map.my_count()).map(|_| HashMap::new()).collect();
        for batch in incoming {
            for (gr, gc, v) in batch {
                let l = row_map
                    .global_to_local(gr)
                    .expect("triplet routed to wrong owner");
                *rows[l].entry(gc).or_insert_with(S::zero) += v;
            }
        }
        let rows: Vec<Vec<(usize, S)>> = rows
            .into_iter()
            .map(|m| {
                let mut r: Vec<(usize, S)> = m.into_iter().collect();
                r.sort_unstable_by_key(|&(c, _)| c);
                r
            })
            .collect();
        Self::from_local_rows(comm, row_map, domain_map, rows)
    }

    /// Row distribution.
    pub fn row_map(&self) -> &DistMap {
        &self.row_map
    }

    /// Domain (input-vector) distribution.
    pub fn domain_map(&self) -> &DistMap {
        &self.domain_map
    }

    /// Global matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.row_map.n_global(), self.domain_map.n_global())
    }

    /// Local nonzero count.
    pub fn nnz_local(&self) -> usize {
        self.vals.len()
    }

    /// Global nonzero count. Collective.
    pub fn nnz_global(&self, comm: &Comm) -> usize {
        comm.allreduce(&self.nnz_local(), comm::ReduceOp::sum())
    }

    /// Number of ghost (off-rank) columns this rank references.
    pub fn n_ghost_cols(&self) -> usize {
        self.col_gids.len() - self.n_owned
    }

    /// Iterate one local row as `(global_col, value)` pairs.
    pub fn row_entries(&self, local_row: usize) -> impl Iterator<Item = (usize, S)> + '_ {
        let lo = self.rowptr[local_row];
        let hi = self.rowptr[local_row + 1];
        self.colidx[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .map(move |(&lc, &v)| (self.col_gids[lc as usize], v))
    }

    /// Global column id of every matrix-local column: the domain map's
    /// owned gids in local order, then the ghost gids, increasing.
    pub fn col_gids(&self) -> &[usize] {
        &self.col_gids
    }

    /// Local column index of entry `k` of local row `i` (for callers that
    /// iterate the raw CSR structure alongside [`Self::halo_gather`]).
    pub fn entry_local_col(&self, k: usize) -> usize {
        self.colidx[k] as usize
    }

    /// Raw CSR row pointer array.
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Raw CSR values.
    pub fn values(&self) -> &[S] {
        &self.vals
    }

    /// Gather any per-domain-point data into matrix-local column order
    /// using this matrix's halo-exchange plan: `out[lc]` is the value at
    /// global point `col_gids()[lc]` — `local` itself, then the ghosts.
    /// Collective. This is how multigrid transfers aggregate ids and how
    /// ODIN local kernels see ghost data.
    pub fn halo_gather<T: comm::Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        local: &[T],
        fill: T,
    ) -> Vec<T> {
        assert_eq!(local.len(), self.n_owned);
        let mut out = Vec::with_capacity(self.col_gids.len());
        out.extend_from_slice(local);
        out.resize(self.col_gids.len(), fill);
        self.plan.execute(comm, local, &mut out[self.n_owned..]);
        out
    }

    /// `y = A·x`. Collective; accounts `2·nnz` modeled flops plus the halo
    /// exchange's modeled communication.
    pub fn matvec(&self, comm: &Comm, x: &DistVector<S>) -> DistVector<S> {
        let mut y = DistVector::zeros(self.row_map.clone());
        self.matvec_into(comm, x, &mut y);
        y
    }

    /// `y = A·x` into an existing vector (no allocation of `y`).
    ///
    /// Overlapped: posts the ghost exchange, sweeps the interior row
    /// ranges (owned columns only, read from `x` in place) while the ghost
    /// entries are in flight, then waits and computes the boundary rows.
    /// Per-row arithmetic is that of
    /// [`crate::reference::matvec_into_blocking`], so the result is bitwise
    /// the same; only the modeled timeline differs.
    pub fn matvec_into(&self, comm: &Comm, x: &DistVector<S>, y: &mut DistVector<S>) {
        self.check_operands(x, y);
        let xl = x.local();
        let yl = y.local_mut();
        // Every ghost slot is freshly written by the plan before a
        // boundary row reads it, so values surviving from a previous
        // matvec are never observed.
        let mut ghost = self.scratch.borrow_mut();
        ghost.resize(self.n_ghost_cols(), S::zero());
        let inflight = self.plan.execute_start(comm, xl, &mut ghost);
        self.sweep::<false>(yl, xl, &[]);
        comm.advance_compute(2.0 * self.interior_nnz as f64);
        self.plan.execute_finish(comm, inflight, &mut ghost);
        self.sweep::<true>(yl, xl, &ghost);
        comm.advance_compute(2.0 * (self.vals.len() - self.interior_nnz) as f64);
    }

    /// The operand shapes `y = A·x` indexes by — `x` by owned column, `y`
    /// by local row — checked in every build profile.
    fn check_operands(&self, x: &DistVector<S>, y: &DistVector<S>) {
        assert_eq!(
            x.local().len(),
            self.n_owned,
            "x must hold one entry per owned column of the domain map"
        );
        assert_eq!(
            y.local().len(),
            self.rowptr.len() - 1,
            "y must hold one entry per local row of the row map"
        );
        debug_assert!(
            x.map().same_as(&self.domain_map),
            "x must use the domain map"
        );
        debug_assert!(y.map().same_as(&self.row_map), "y must use the row map");
    }

    /// `y[i] = Σ vals[k] · x[colidx[k]]` over every interior row
    /// (`GHOSTS = false`) or every boundary row (`GHOSTS = true`, where a
    /// column `c >= n_owned` reads `ghost[c - n_owned]`), in stored entry
    /// order, starting from zero.
    ///
    /// The reads of `colidx`, `vals`, `x` and `ghost` are unchecked: the
    /// matrix proved every index in range when it was built, so checking
    /// each nonzero again on every call is redundant. The contract:
    ///
    /// * `from_local_rows` is the only constructor (`from_row_fn`,
    ///   `from_triplets`, `transpose` and `clone` all end in it), and no
    ///   code writes `rowptr`, `colidx`, `vals`, `n_owned`, `col_gids`,
    ///   `interior` or `boundary` after it returns: the fields are private
    ///   to this module, no method takes `&mut self`, and the oracle in
    ///   the child module `reference` only reads them.
    /// * It stores `rowptr` starting at 0, nondecreasing and ending at
    ///   `colidx.len() == vals.len()`, and classes every row `0..n_rows`
    ///   into exactly one `interior` or `boundary` range.
    /// * It asserts every column `< domain_map.n_global()` and the local
    ///   column count `<= u32::MAX`, so no id is truncated and each one is
    ///   either owned (stored as its domain-local id, `< n_owned`) or a
    ///   collected ghost (stored as `n_owned + i`, `i < n_ghost`): every
    ///   stored column is `< n_owned + n_ghost`, and a row is interior
    ///   only if every one of its columns is `< n_owned`.
    /// * The operand lengths are asserted below in every build profile:
    ///   `x` holds `n_owned` entries and `ghost` holds `n_ghost` of them
    ///   (`matvec_into` resizes the workspace before the boundary sweep).
    ///
    /// So `k < colidx.len()` for every `k` in a row's `rowptr` window, an
    /// interior read `x[c]` has `c < n_owned`, and a boundary read is
    /// `x[c]` with `c < n_owned` or `ghost[c - n_owned]` with
    /// `c - n_owned < n_ghost`. Each read is also a `debug_assert!`.
    #[inline]
    fn sweep<const GHOSTS: bool>(&self, y: &mut [S], x: &[S], ghost: &[S]) {
        let n_owned = self.n_owned;
        assert_eq!(x.len(), n_owned, "x must hold one entry per owned column");
        assert_eq!(
            ghost.len(),
            if GHOSTS { self.n_ghost_cols() } else { 0 },
            "the ghost workspace must hold one entry per ghost column"
        );
        let ranges = if GHOSTS {
            &self.boundary
        } else {
            &self.interior
        };
        for rows in ranges {
            let ptr = &self.rowptr[rows.start..=rows.end];
            for (yi, row) in y[rows.clone()].iter_mut().zip(ptr.windows(2)) {
                let mut acc = S::zero();
                for k in row[0]..row[1] {
                    debug_assert!(k < self.colidx.len() && k < self.vals.len());
                    // SAFETY: every index is in range by the contract above.
                    acc += unsafe {
                        let c = *self.colidx.get_unchecked(k) as usize;
                        let xc = if GHOSTS && c >= n_owned {
                            debug_assert!(c - n_owned < ghost.len());
                            *ghost.get_unchecked(c - n_owned)
                        } else {
                            debug_assert!(c < n_owned);
                            *x.get_unchecked(c)
                        };
                        *self.vals.get_unchecked(k) * xc
                    };
                }
                *yi = acc;
            }
        }
    }

    /// Interior rows (local row ids, increasing): every referenced column
    /// is owned locally, so they compute while the halo exchange is in
    /// flight.
    pub fn interior_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.interior.iter().cloned().flatten()
    }

    /// Boundary rows (local row ids, increasing): reference at least one
    /// ghost column and must wait for the halo exchange.
    pub fn boundary_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.boundary.iter().cloned().flatten()
    }

    /// Extract the diagonal (requires a square matrix with matching row and
    /// domain global sizes).
    pub fn diagonal(&self) -> DistVector<S> {
        assert_eq!(self.shape().0, self.shape().1, "diagonal needs square");
        let mut d = DistVector::zeros(self.row_map.clone());
        let dl = d.local_mut();
        for (i, di) in dl.iter_mut().enumerate() {
            let g = self.row_map.local_to_global(i);
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                if self.col_gids[self.colidx[k] as usize] == g {
                    *di += self.vals[k];
                }
            }
        }
        d
    }

    /// The *local square block*: entries whose column is owned by this rank
    /// under the domain map, under their domain-local column ids (which is
    /// how owned columns are numbered). This is the submatrix block
    /// preconditioners (block Jacobi, local ILU, SSOR) operate on. Returns
    /// `(rowptr, cols, vals)`.
    pub fn local_square_block(&self) -> (Vec<usize>, Vec<usize>, Vec<S>) {
        let mut rowptr = Vec::with_capacity(self.rowptr.len());
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        rowptr.push(0);
        for row in self.rowptr.windows(2) {
            for k in row[0]..row[1] {
                let c = self.colidx[k] as usize;
                if c < self.n_owned {
                    cols.push(c);
                    vals.push(self.vals[k]);
                }
            }
            rowptr.push(cols.len());
        }
        (rowptr, cols, vals)
    }

    /// Transpose (EpetraExt's sparse-transpose role). Collective: entries
    /// are routed to the owner of their column, which owns the transposed
    /// row. The result has row map = this domain map and vice versa.
    pub fn transpose(&self, comm: &Comm) -> CsrMatrix<S> {
        let mut triplets = Vec::with_capacity(self.vals.len());
        for i in 0..self.rowptr.len() - 1 {
            let gr = self.row_map.local_to_global(i);
            for (gc, v) in self.row_entries(i) {
                triplets.push((gc, gr, v));
            }
        }
        CsrMatrix::from_triplets(
            comm,
            self.domain_map.clone(),
            self.row_map.clone(),
            triplets,
        )
    }

    /// Gather the whole matrix to rank 0 in global row order (the pattern
    /// the Amesos direct-solver interface uses). Rank 0 gets
    /// `Some(rows)` with `rows[g]` = entries of global row `g`; others get
    /// `None`. Collective.
    pub fn gather_to_root(&self, comm: &Comm) -> Option<Vec<Vec<(usize, S)>>> {
        let my_rows: Vec<(usize, Vec<(usize, S)>)> = (0..self.row_map.my_count())
            .map(|l| {
                (
                    self.row_map.local_to_global(l),
                    self.row_entries(l).collect(),
                )
            })
            .collect();
        let gathered = comm.gather(0, &my_rows);
        gathered.map(|pieces| {
            let mut rows: Vec<Vec<(usize, S)>> =
                (0..self.row_map.n_global()).map(|_| Vec::new()).collect();
            for piece in pieces {
                for (g, entries) in piece {
                    rows[g] = entries;
                }
            }
            rows
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;

    /// 1-D Laplacian stencil [-1, 2, -1].
    fn laplace_row(n: usize) -> impl Fn(usize) -> Vec<(usize, f64)> {
        move |g| {
            let mut row = Vec::with_capacity(3);
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 2.0));
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        }
    }

    fn build_laplace(comm: &Comm, n: usize) -> CsrMatrix<f64> {
        let rm = DistMap::block(n, comm.size(), comm.rank());
        let dm = rm.clone();
        CsrMatrix::from_row_fn(comm, rm, dm, laplace_row(n))
    }

    #[test]
    fn matvec_matches_serial() {
        for p in [1, 2, 3, 4] {
            let out = Universe::run(p, |comm| {
                let n = 10;
                let a = build_laplace(comm, n);
                let x = DistVector::from_fn(a.domain_map().clone(), |g| g as f64);
                let y = a.matvec(comm, &x);
                y.gather_global(comm)
            });
            // serial reference: y[i] = -x[i-1] + 2x[i] - x[i+1]
            let n = 10;
            let xs: Vec<f64> = (0..n).map(|g| g as f64).collect();
            let expect: Vec<f64> = (0..n)
                .map(|i| {
                    let mut v = 2.0 * xs[i];
                    if i > 0 {
                        v -= xs[i - 1];
                    }
                    if i + 1 < n {
                        v -= xs[i + 1];
                    }
                    v
                })
                .collect();
            for got in &out {
                assert_eq!(got, &expect, "p={p}");
            }
        }
    }

    #[test]
    fn diagonal_extraction() {
        Universe::run(3, |comm| {
            let a = build_laplace(comm, 8);
            let d = a.diagonal();
            assert!(d.local().iter().all(|&v| v == 2.0));
        });
    }

    #[test]
    fn nnz_and_ghosts() {
        Universe::run(2, |comm| {
            let n = 10;
            let a = build_laplace(comm, n);
            assert_eq!(a.nnz_global(comm), 3 * n - 2);
            // interior boundary rows reference exactly one ghost column
            assert_eq!(a.n_ghost_cols(), 1);
        });
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        Universe::run(2, |comm| {
            let n = 4;
            let rm = DistMap::block(n, comm.size(), comm.rank());
            let dm = rm.clone();
            // both ranks contribute 0.5 to every diagonal entry
            let triplets: Vec<(usize, usize, f64)> = (0..n).map(|g| (g, g, 0.5)).collect();
            let a = CsrMatrix::from_triplets(comm, rm, dm, triplets);
            let d = a.diagonal();
            assert!(d.local().iter().all(|&v| v == 1.0));
        });
    }

    #[test]
    fn transpose_of_asymmetric_matrix() {
        Universe::run(2, |comm| {
            let n = 6;
            let rm = DistMap::block(n, comm.size(), comm.rank());
            let dm = rm.clone();
            // upper bidiagonal: A[i][i] = 1, A[i][i+1] = i+1
            let a = CsrMatrix::from_row_fn(comm, rm, dm, |g| {
                let mut row = vec![(g, 1.0)];
                if g + 1 < n {
                    row.push((g + 1, (g + 1) as f64));
                }
                row
            });
            let at = a.transpose(comm);
            let x = DistVector::from_fn(at.domain_map().clone(), |g| g as f64);
            let y = at.matvec(comm, &x).gather_global(comm);
            // Aᵀ row i: entry (i,1) and (i-1→ from A[i-1][i] = i) at col i-1
            let xs: Vec<f64> = (0..n).map(|g| g as f64).collect();
            let expect: Vec<f64> = (0..n)
                .map(|i| {
                    let mut v = xs[i];
                    if i > 0 {
                        v += i as f64 * xs[i - 1];
                    }
                    v
                })
                .collect();
            assert_eq!(y, expect);
        });
    }

    #[test]
    fn transpose_twice_is_identity() {
        Universe::run(3, |comm| {
            let a = build_laplace(comm, 9);
            let att = a.transpose(comm).transpose(comm);
            let x = DistVector::from_fn(a.domain_map().clone(), |g| (g as f64).sin());
            let y1 = a.matvec(comm, &x).gather_global(comm);
            let y2 = att.matvec(comm, &x).gather_global(comm);
            for (u, v) in y1.iter().zip(y2.iter()) {
                assert!((u - v).abs() < 1e-14);
            }
        });
    }

    #[test]
    fn local_square_block_drops_ghosts() {
        Universe::run(2, |comm| {
            let a = build_laplace(comm, 10);
            let (rowptr, cols, vals) = a.local_square_block();
            let nlocal = a.row_map().my_count();
            assert_eq!(rowptr.len(), nlocal + 1);
            assert!(cols.iter().all(|&c| c < nlocal));
            // one ghost coupling dropped per rank (interior boundary)
            assert_eq!(vals.len(), a.nnz_local() - 1);
        });
    }

    #[test]
    fn gather_to_root_reassembles() {
        Universe::run(3, |comm| {
            let n = 7;
            let a = build_laplace(comm, n);
            let rows = a.gather_to_root(comm);
            if comm.rank() == 0 {
                let rows = rows.unwrap();
                assert_eq!(rows.len(), n);
                assert_eq!(rows[0], vec![(0, 2.0), (1, -1.0)]);
                assert_eq!(rows[3], vec![(2, -1.0), (3, 2.0), (4, -1.0)]);
            } else {
                assert!(rows.is_none());
            }
        });
    }

    #[test]
    fn overlapped_matvec_matches_blocking_bitwise() {
        for p in [1, 2, 3, 4] {
            let out = Universe::run(p, |comm| {
                let n = 24;
                let a = build_laplace(comm, n);
                let x = DistVector::from_fn(a.domain_map().clone(), |g| (g as f64 * 0.7).sin());
                let y_over = a.matvec(comm, &x).gather_global(comm);
                let y_block = crate::reference::matvec_blocking(&a, comm, &x).gather_global(comm);
                (y_over, y_block)
            });
            for (y_over, y_block) in out {
                let ob: Vec<u64> = y_over.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = y_block.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ob, bb, "p={p}");
            }
        }
    }

    #[test]
    fn interior_boundary_partition_invariants() {
        Universe::run(3, |comm| {
            let a = build_laplace(comm, 17);
            let n_local = a.row_map().my_count();
            let mut seen = vec![false; n_local];
            for i in a.interior_rows().chain(a.boundary_rows()) {
                assert!(!seen[i], "row {i} appears twice in the partition");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "partition must cover every row");
            // Interior rows reference only locally-owned columns;
            // boundary rows reference at least one ghost.
            for i in a.interior_rows() {
                for (gc, _) in a.row_entries(i) {
                    assert!(a.domain_map().global_to_local(gc).is_some());
                }
            }
            for i in a.boundary_rows() {
                assert!(a
                    .row_entries(i)
                    .any(|(gc, _)| a.domain_map().global_to_local(gc).is_none()));
            }
            // With the 3-point stencil, each rank has at most 2 boundary rows.
            assert!(a.boundary_rows().count() <= 2);
        });
    }

    #[test]
    #[should_panic(expected = "x must hold one entry per owned column")]
    fn matvec_rejects_a_short_x_in_every_profile() {
        Universe::run(1, |comm| {
            let a = build_laplace(comm, 8);
            let x = DistVector::zeros(DistMap::block(7, 1, 0));
            let mut y = DistVector::zeros(a.row_map().clone());
            a.matvec_into(comm, &x, &mut y);
        });
    }

    #[test]
    #[should_panic(expected = "y must hold one entry per local row")]
    fn reference_matvec_rejects_a_long_y_in_every_profile() {
        Universe::run(1, |comm| {
            let a = build_laplace(comm, 8);
            let x = DistVector::zeros(a.domain_map().clone());
            let mut y = DistVector::zeros(DistMap::block(9, 1, 0));
            crate::reference::matvec_into_blocking(&a, comm, &x, &mut y);
        });
    }

    /// The sweep's unchecked reads rest on this build-time check: a
    /// column past the domain is refused before any id is stored.
    #[test]
    #[should_panic(expected = "column 8 out of domain size 8")]
    fn an_out_of_domain_column_is_refused_at_build() {
        Universe::run(1, |comm| {
            let map = DistMap::block(8, 1, 0);
            CsrMatrix::<f64>::from_row_fn(comm, map.clone(), map, |g| {
                vec![(g, 2.0), (g + 1, -1.0)]
            });
        });
    }

    #[test]
    fn poisoned_ghost_workspace_never_reaches_interior_rows() {
        Universe::run(3, |comm| {
            let a = build_laplace(comm, 17);
            let x = DistVector::from_fn(a.domain_map().clone(), |g| (g as f64 * 0.3).cos());
            let want = crate::reference::matvec_blocking(&a, comm, &x);
            // oversized and NaN: `matvec_into` must shrink it to the ghost
            // count and overwrite every slot before a boundary row reads it
            *a.scratch.borrow_mut() = vec![f64::NAN; a.col_gids().len() + 5];
            let got = a.matvec(comm, &x);
            assert_eq!(a.scratch.borrow().len(), a.n_ghost_cols());
            let bits = |v: &DistVector<f64>| -> Vec<u64> {
                v.local().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want));
        });
    }

    #[test]
    fn columns_are_owned_first_then_ghosts_increasing() {
        Universe::run(3, |comm| {
            let a = build_laplace(comm, 17);
            let dm = a.domain_map();
            let n_owned = dm.my_count();
            assert_eq!(a.col_gids()[..n_owned], dm.my_gids()[..]);
            let ghosts = &a.col_gids()[n_owned..];
            assert_eq!(ghosts.len(), a.n_ghost_cols());
            assert!(ghosts.windows(2).all(|w| w[0] < w[1]));
            assert!(ghosts.iter().all(|&g| dm.global_to_local(g).is_none()));
            // interior rows are one contiguous range on a block-row stencil
            assert!(a.interior.len() <= 1 && a.boundary.len() <= 2);
        });
    }

    #[test]
    fn rectangular_matvec() {
        Universe::run(2, |comm| {
            // 4x6 matrix: A[i][j] = 1 if j == i or j == i+2
            let rm = DistMap::block(4, comm.size(), comm.rank());
            let dm = DistMap::block(6, comm.size(), comm.rank());
            let a = CsrMatrix::from_row_fn(comm, rm, dm.clone(), |g| vec![(g, 1.0), (g + 2, 1.0)]);
            let x = DistVector::from_fn(dm, |g| g as f64);
            let y = a.matvec(comm, &x).gather_global(comm);
            assert_eq!(y, vec![2.0, 4.0, 6.0, 8.0]);
        });
    }
}
