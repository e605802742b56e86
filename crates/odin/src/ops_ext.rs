//! Extended NumPy-parity operations: `where`, `cumsum`, `argmin/argmax`,
//! `clip`, `dot`, `concatenate`. These round out the paper's §III-A claim
//! that "all NumPy array creation routines \[and\] built-in functions" have
//! distributed counterparts.

use crate::array::DistArray;
use crate::buffer::DType;
use crate::context::OdinContext;
use crate::protocol::{ArrayMeta, BinOp, Cmd, Dist};

impl<'c> DistArray<'c> {
    /// `np.where(self, a, b)`: elementwise `self ? a : b`. `self` is the
    /// condition (any dtype; nonzero = true).
    pub fn select(&self, a: &DistArray<'c>, b: &DistArray<'c>) -> DistArray<'c> {
        let mc = self.meta();
        let ma = a.meta();
        let mb = b.meta();
        assert_eq!(mc.shape, ma.shape, "where: shape mismatch");
        assert_eq!(mc.shape, mb.shape, "where: shape mismatch");
        // align both branches (and the condition) to the condition's
        // layout using the redistribution machinery
        let a_al;
        let a_ref = if ma.conformable(&mc) {
            a
        } else {
            a_al = a.redistribute(mc.dist);
            &a_al
        };
        let b_al;
        let b_ref = if mb.conformable(&mc) {
            b
        } else {
            b_al = b.redistribute(mc.dist);
            &b_al
        };
        let out = self.ctx().alloc_id();
        let out_meta = ArrayMeta {
            dtype: a_ref.dtype().promote(b_ref.dtype()),
            ..mc.clone()
        };
        self.ctx().send_cmd(&Cmd::Select {
            out,
            cond: self.id(),
            a: a_ref.id(),
            b: b_ref.id(),
        });
        self.ctx().record_meta(out, out_meta);
        DistArray::from_id(self.ctx(), out)
    }

    /// Inclusive prefix sum (`np.cumsum`) of a 1-D array; a distributed
    /// scan (local prefix + exscan of per-worker totals). The scan needs
    /// globally-contiguous segments, so non-block arrays are redistributed
    /// first and the result is block-distributed.
    pub fn cumsum(&self) -> DistArray<'c> {
        let meta = self.meta();
        assert_eq!(meta.ndim(), 1, "cumsum supports 1-D arrays");
        if meta.dist != Dist::Block {
            return self.redistribute(Dist::Block).cumsum();
        }
        let out = self.ctx().alloc_id();
        let out_meta = ArrayMeta {
            dtype: match meta.dtype {
                DType::Bool => DType::I64,
                d => d,
            },
            ..meta
        };
        self.ctx().send_cmd(&Cmd::CumSum { out, a: self.id() });
        self.ctx().record_meta(out, out_meta);
        DistArray::from_id(self.ctx(), out)
    }

    fn arg_reduce(&self, is_max: bool) -> (usize, f64) {
        assert!(!self.is_empty(), "arg reduction of an empty array");
        let pending: crate::reply::Pending<'_, (f64, usize)> =
            self.ctx().dispatch_single(&Cmd::ArgReduce {
                a: self.id(),
                is_max,
            });
        let (v, idx) = pending.wait();
        (idx, v)
    }

    /// Global flat index of the maximum element (ties → lowest index). As
    /// in NumPy, the first NaN wins over every number.
    pub fn argmax(&self) -> usize {
        self.arg_reduce(true).0
    }

    /// Global flat index of the minimum element, by [`Self::argmax`]'s
    /// tie and NaN rules.
    pub fn argmin(&self) -> usize {
        self.arg_reduce(false).0
    }

    /// Clamp every element into `[lo, hi]` (`np.clip`).
    pub fn clip(&self, lo: f64, hi: f64) -> DistArray<'c> {
        let clipped_lo = self.binary_scalar(lo, BinOp::Max, false);
        clipped_lo.binary_scalar(hi, BinOp::Min, false)
    }

    /// Dot product of two 1-D arrays.
    pub fn dot(&self, other: &DistArray<'c>) -> f64 {
        assert_eq!(self.meta().ndim(), 1, "dot takes 1-D arrays");
        (self * other).sum()
    }

    /// Matrix product of two 2-D arrays: `self` `[m,k]` stays block-row
    /// distributed; `other` `[k,n]` is allgathered to every worker (the
    /// tall-×-skinny pattern). Result is `[m,n]` with `self`'s layout.
    pub fn matmul(&self, other: &DistArray<'c>) -> DistArray<'c> {
        let ma = self.meta();
        let mb = other.meta();
        assert_eq!(ma.ndim(), 2, "matmul takes 2-D arrays");
        assert_eq!(mb.ndim(), 2, "matmul takes 2-D arrays");
        assert_eq!(ma.shape[1], mb.shape[0], "matmul inner dims must agree");
        let out = self.ctx().alloc_id();
        let out_meta = ArrayMeta {
            shape: vec![ma.shape[0], mb.shape[1]],
            axis: 0,
            dist: ma.dist,
            dtype: DType::F64,
        };
        self.ctx().send_cmd(&Cmd::MatMul {
            out,
            a: self.id(),
            b: other.id(),
        });
        self.ctx().record_meta(out, out_meta);
        DistArray::from_id(self.ctx(), out)
    }

    /// Concatenate with another 1-D array; result is block-distributed.
    pub fn concat(&self, other: &DistArray<'c>) -> DistArray<'c> {
        let ma = self.meta();
        let mb = other.meta();
        assert_eq!(ma.ndim(), 1, "concat supports 1-D arrays");
        assert_eq!(mb.ndim(), 1, "concat supports 1-D arrays");
        let out = self.ctx().alloc_id();
        let out_meta = ArrayMeta {
            shape: vec![ma.shape[0] + mb.shape[0]],
            axis: 0,
            dist: Dist::Block,
            dtype: ma.dtype.promote(mb.dtype),
        };
        self.ctx().send_cmd(&Cmd::Concat {
            out,
            a: self.id(),
            b: other.id(),
        });
        self.ctx().record_meta(out, out_meta);
        DistArray::from_id(self.ctx(), out)
    }
}

impl OdinContext {
    /// `np.where` as a free function on the context.
    pub fn where_<'c>(
        &'c self,
        cond: &DistArray<'c>,
        a: &DistArray<'c>,
        b: &DistArray<'c>,
    ) -> DistArray<'c> {
        cond.select(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Dist;

    #[test]
    fn select_matches_serial() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(-5.0, 5.0, 21);
        let zero = ctx.zeros(&[21], DType::F64);
        let mask = x.gt(&zero);
        let picked = mask.select(&x, &zero); // relu
        let xs = x.to_vec();
        let got = picked.to_vec();
        for (g, x) in got.iter().zip(xs) {
            assert_eq!(*g, x.max(0.0));
        }
    }

    #[test]
    fn select_aligns_layouts() {
        let ctx = OdinContext::with_workers(2);
        let cond = ctx
            .arange_f64(0.0, 1.0, 9, Dist::Cyclic)
            .binary_scalar(4.0, BinOp::Lt, false);
        let a = ctx.full(&[9], 1.0, Dist::Block);
        let b = ctx.full(&[9], 2.0, Dist::BlockCyclic(2));
        let r = cond.select(&a, &b);
        assert_eq!(
            r.to_vec(),
            vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        );
        assert_eq!(r.dist(), Dist::Cyclic); // condition's layout wins
    }

    #[test]
    fn cumsum_matches_serial() {
        for workers in [1, 3, 4] {
            let ctx = OdinContext::with_workers(workers);
            let x = ctx.arange(10); // 0..9
            let c = x.cumsum();
            assert_eq!(
                c.to_vec_i64(),
                vec![0, 1, 3, 6, 10, 15, 21, 28, 36, 45],
                "workers={workers}"
            );
            // float path
            let y = ctx.linspace(0.5, 5.0, 10);
            let cy = y.cumsum().to_vec();
            let ys = y.to_vec();
            let mut acc = 0.0;
            for (i, v) in ys.iter().enumerate() {
                acc += v;
                assert!((cy[i] - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn argminmax_find_global_extremes() {
        let ctx = OdinContext::with_workers(3);
        let vals = vec![3.0, -1.0, 7.0, 7.0, 0.0, -1.0, 2.0];
        let x = ctx.from_vec(&vals, Dist::Cyclic);
        assert_eq!(x.argmax(), 2); // first of the tied 7s
        assert_eq!(x.argmin(), 1); // first of the tied -1s
    }

    #[test]
    fn clip_bounds_values() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(-2.0, 2.0, 9);
        let c = x.clip(-1.0, 1.0);
        assert_eq!(c.min(), -1.0);
        assert_eq!(c.max(), 1.0);
        let got = c.to_vec();
        for (g, x) in got.iter().zip(x.to_vec()) {
            assert_eq!(*g, x.clamp(-1.0, 1.0));
        }
    }

    #[test]
    fn dot_product() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(1.0, 4.0, 4); // 1,2,3,4
        let y = ctx.full(&[4], 2.0, Dist::Cyclic); // non-conformable on purpose
        assert!((x.dot(&y) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn concat_joins_across_layouts() {
        let ctx = OdinContext::with_workers(3);
        let a = ctx.arange_f64(0.0, 1.0, 5, Dist::Cyclic);
        let b = ctx.arange_f64(100.0, 1.0, 3, Dist::Block);
        let c = a.concat(&b);
        assert_eq!(c.len(), 8);
        assert_eq!(
            c.to_vec(),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 100.0, 101.0, 102.0]
        );
        assert_eq!(c.dist(), Dist::Block);
        // mixed dtypes promote before they move
        let flags = c.gt(&ctx.full(&[8], 3.5, Dist::Cyclic));
        let mixed = flags.concat(&b.astype(DType::I64));
        assert_eq!(mixed.dtype(), DType::I64);
        assert_eq!(
            mixed.to_vec_i64(),
            vec![0, 0, 0, 0, 1, 1, 1, 1, 100, 101, 102]
        );
    }

    #[test]
    fn matmul_matches_serial() {
        // The last case gathers `b` in 62/62/61/61-row blocks of 1008 and
        // 992 B, either side of `Auto`'s payload-aware allgather
        // crossover: a gather sized from a worker's own block stalls
        // there (the deadline makes that an error, not a hang).
        for (workers, m, k, n) in [(1, 7, 4, 3), (3, 7, 4, 3), (4, 5, 246, 1)] {
            let ctx = OdinContext::new(crate::OdinConfig {
                n_workers: workers,
                universe: comm::UniverseConfig::default()
                    .with_stall_timeout(std::time::Duration::from_secs(10)),
                ..Default::default()
            });
            let a = ctx.random(&[m, k], 1);
            let b = ctx.random(&[k, n], 2);
            let c = a.matmul(&b);
            assert_eq!(c.shape(), vec![m, n]);
            let av = a.to_vec();
            let bv = b.to_vec();
            let cv = c.to_vec();
            for i in 0..m {
                for j in 0..n {
                    let expect: f64 = (0..k).map(|l| av[i * k + l] * bv[l * n + j]).sum();
                    assert!(
                        (cv[i * n + j] - expect).abs() < 1e-12,
                        "c[{i}][{j}] workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.random(&[5, 5], 9);
        // identity from a table of from_vec? build via where-style: use
        // arange trick: I[i][j] = 1 if i == j
        let flat: Vec<f64> = (0..25)
            .map(|g| if g / 5 == g % 5 { 1.0 } else { 0.0 })
            .collect();
        let eye_flat = ctx.from_vec(&flat, Dist::Block);
        drop(eye_flat);
        // from_vec only makes 1-D arrays; build the 2-D identity worker-side
        let eye = ctx.zeros(&[5, 5], DType::F64);
        ctx.run_spmd(&[&eye], |scope, args| {
            let id = args[0];
            let map = scope.axis_map(id);
            let gids = map.my_gids();
            let buf = scope.local_mut(id).as_f64_mut();
            for (l, g) in gids.into_iter().enumerate() {
                buf[l * 5 + g] = 1.0;
            }
        });
        let c = a.matmul(&eye);
        assert_eq!(c.to_vec(), a.to_vec());
    }

    #[test]
    fn where_free_function() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange(6).astype(DType::F64);
        let mask = x.binary_scalar(2.5, BinOp::Gt, false);
        let y = ctx.full(&[6], -1.0, Dist::Block);
        let r = ctx.where_(&mask, &x, &y);
        assert_eq!(r.to_vec(), vec![-1.0, -1.0, -1.0, 3.0, 4.0, 5.0]);
    }
}
