//! Local mode (§III-C): user functions that run on every worker against
//! the local segments of distributed arrays, with direct worker-to-worker
//! communication — the `@odin.local` decorator analog.
//!
//! ```
//! use odin::{OdinContext, DType};
//! use std::sync::Arc;
//!
//! let ctx = OdinContext::with_workers(2);
//! let x = ctx.ones(&[8], DType::F64);
//! // "decorate": broadcast the function object to all workers
//! let double = ctx.register_local(Arc::new(|scope, args, _scalars| {
//!     let data = scope.local_mut(args[0]);
//!     for v in data.as_f64_mut() {
//!         *v *= 2.0;
//!     }
//! }));
//! // global-mode call of the local function
//! ctx.call_local(double, &[x.id()], &[]);
//! assert_eq!(x.to_vec(), vec![2.0; 8]);
//! ```

use std::sync::Arc;

use dmap::{CommPlan, Run};

use crate::array::DistArray;
use crate::buffer::Buffer;
use crate::context::OdinContext;
use crate::worker::{LocalFn, WorkerScope};

impl OdinContext {
    /// Register and immediately invoke a local function once — the common
    /// "run this on every segment now" pattern.
    pub fn run_local(&self, arrays: &[&DistArray<'_>], scalars: &[f64], f: LocalFn) {
        let id = self.register_local(f);
        let ids: Vec<u64> = arrays.iter().map(|a| a.id()).collect();
        self.call_local(id, &ids, scalars);
    }

    /// Run an SPMD closure across the worker pool with full access to the
    /// worker scopes (the escape hatch used by the solver bridge, §III-E).
    /// Blocks until **every** worker finishes (not just worker 0 — side
    /// effects like chunk files must be complete when this returns).
    pub fn run_spmd(
        &self,
        arrays: &[&DistArray<'_>],
        f: impl Fn(&mut WorkerScope<'_>, &[u64]) + Send + Sync + 'static,
    ) {
        let wrapped: LocalFn = Arc::new(move |scope, args, _scalars| {
            f(scope, args);
            scope.reply(Vec::new());
        });
        let id = self.register_local(wrapped);
        let ids: Vec<u64> = arrays.iter().map(|a| a.id()).collect();
        self.call_local(id, &ids, &[]);
        let _ = self.collect_replies_pub();
    }
}

/// Helpers local functions commonly need on the worker side.
impl WorkerScope<'_> {
    /// The halo exchange the paper's §III-G example needs: returns
    /// `(left_ghost, right_ghost)` of a 1-D block-distributed array — each
    /// worker trades boundary values with its neighbors directly (no
    /// master involvement). Requires non-empty segments when there is
    /// more than one worker; the ends of the line get `None`.
    pub fn exchange_boundary_1d(&mut self, id: u64) -> (Option<f64>, Option<f64>) {
        let meta = self.meta(id);
        assert_eq!(meta.ndim(), 1);
        assert_eq!(meta.dist, crate::protocol::Dist::Block);
        let (rank, p) = (self.rank(), self.n_workers());
        if p == 1 {
            return (None, None);
        }
        let buf = self.local(id);
        assert!(!buf.is_empty(), "halo helper requires non-empty segments");
        // One row each way per neighbour: `edges[0]` goes left and
        // `edges[1]` right, the answers land in `[left, right]`.
        let edges = [buf.get_f64(0), buf.get_f64(buf.len() - 1)];
        let (left, right) = (rank.checked_sub(1), Some(rank + 1).filter(|&r| r < p));
        let mut rows = vec![Vec::new(); p];
        for (slot, peer) in [left, right].into_iter().enumerate() {
            if let Some(peer) = peer {
                rows[peer] = vec![Run {
                    start: slot,
                    step: 1,
                    n: 1,
                }];
            }
        }
        let mut ghosts = [0.0; 2];
        CommPlan::from_runs(rank, rows.clone(), rows, 1).execute(self.comm, &edges, &mut ghosts);
        (left.map(|_| ghosts[0]), right.map(|_| ghosts[1]))
    }

    /// Replace the segment of `out` (which must be conformable with `a`'s
    /// meta minus one element — caller manages shapes) with `values`.
    pub fn overwrite_f64(&mut self, id: u64, values: Vec<f64>) {
        let expected = self.local(id).len();
        assert_eq!(values.len(), expected, "overwrite length mismatch");
        *self.local_mut(id) = Buffer::F64(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DType;

    #[test]
    fn local_function_mutates_segments() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.ones(&[10], DType::F64);
        ctx.run_local(
            &[&x],
            &[5.0],
            Arc::new(|scope, args, scalars| {
                let s = scalars[0];
                for v in scope.local_mut(args[0]).as_f64_mut() {
                    *v += s;
                }
            }),
        );
        assert_eq!(x.to_vec(), vec![6.0; 10]);
    }

    #[test]
    fn local_function_sees_global_context() {
        // Each worker writes its rank into its segment; the assembled
        // array reveals the block layout.
        let ctx = OdinContext::with_workers(2);
        let x = ctx.zeros(&[6], DType::F64);
        ctx.run_local(
            &[&x],
            &[],
            Arc::new(|scope, args, _| {
                let r = scope.rank() as f64;
                for v in scope.local_mut(args[0]).as_f64_mut() {
                    *v = r;
                }
            }),
        );
        assert_eq!(x.to_vec(), vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn run_spmd_blocks_until_done() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[4], DType::F64);
        ctx.run_spmd(&[&x], |scope, args| {
            // direct worker-worker communication: allreduce of local sums
            let local_sum: f64 = scope.local(args[0]).as_f64().iter().sum();
            let total = scope.comm.allreduce(&local_sum, comm::ReduceOp::sum());
            assert_eq!(total, 4.0);
        });
    }

    #[test]
    fn boundary_exchange_matches_neighbors() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(0.0, 8.0, 9); // 0..8, 3 per worker
        ctx.run_spmd(&[&x], |scope, args| {
            let (left, right) = scope.exchange_boundary_1d(args[0]);
            let map = scope.axis_map(args[0]);
            let lo = map.local_to_global(0);
            let hi = map.local_to_global(map.my_count() - 1);
            if lo > 0 {
                assert_eq!(left, Some(lo as f64 - 1.0));
            } else {
                assert_eq!(left, None);
            }
            if hi < 8 {
                assert_eq!(right, Some(hi as f64 + 1.0));
            } else {
                assert_eq!(right, None);
            }
        });
    }

    #[test]
    fn local_finite_difference_equals_global_slicing() {
        // The E5 comparison in miniature: hand-written local-mode FD vs
        // the one-line global slicing version.
        let n = 12;
        let ctx = OdinContext::with_workers(3);
        let y = ctx.random(&[n], 3);
        // global version: dy = y[1:] - y[:-1]
        let dy_global = {
            let hi = y.slice1(1, None, 1);
            let lo = y.slice1(0, Some(-1), 1);
            (&hi - &lo).to_vec()
        };
        // local version: each worker computes diffs of its segment and
        // the boundary against the right neighbor's first element.
        let out = ctx.zeros_dist(&y.shape(), y.dtype(), y.dist()); // one too long; slice below
        ctx.run_spmd(&[&y, &out], |scope, args| {
            let (y_id, out_id) = (args[0], args[1]);
            let (_, right) = scope.exchange_boundary_1d(y_id);
            let mine: Vec<f64> = scope.local(y_id).as_f64().to_vec();
            let mut diffs = Vec::with_capacity(mine.len());
            for w in mine.windows(2) {
                diffs.push(w[1] - w[0]);
            }
            if let Some(rg) = right {
                diffs.push(rg - mine[mine.len() - 1]);
            } else {
                diffs.push(0.0); // padding on the last rank
            }
            scope.overwrite_f64(out_id, diffs);
        });
        let dy_local = out.slice1(0, Some(-1), 1).to_vec();
        assert_eq!(dy_local.len(), dy_global.len());
        for (a, b) in dy_local.iter().zip(dy_global.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
