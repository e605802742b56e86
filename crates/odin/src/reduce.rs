//! Global reductions: full-array scalars and per-axis reductions.
//!
//! Full reductions are computed by the workers with a direct
//! worker-to-worker allreduce — the master only receives the final scalar
//! from worker 0, so it never becomes a bottleneck (paper Fig. 1 caption).

use crate::array::DistArray;
use crate::protocol::{Cmd, ReduceKind};
use crate::reply::Pending;

impl<'c> DistArray<'c> {
    /// Dispatch a full reduction and return a reply future — the master
    /// can keep issuing commands (on this or other arrays) while the
    /// workers compute and the scalar is in flight.
    fn reduce_scalar_async(&self, kind: ReduceKind) -> Pending<'c, f64> {
        self.ctx().dispatch_single(&Cmd::Reduce {
            a: self.id(),
            kind,
            axis: None,
            out: 0,
        })
    }

    fn reduce_scalar(&self, kind: ReduceKind) -> f64 {
        self.reduce_scalar_async(kind).wait()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.reduce_scalar(ReduceKind::Sum)
    }

    /// Pipelined [`Self::sum`]: returns a future instead of blocking.
    pub fn sum_async(&self) -> Pending<'c, f64> {
        self.reduce_scalar_async(ReduceKind::Sum)
    }

    /// Product of all elements.
    pub fn prod(&self) -> f64 {
        self.reduce_scalar(ReduceKind::Prod)
    }

    /// Minimum element.
    pub fn min(&self) -> f64 {
        self.reduce_scalar(ReduceKind::Min)
    }

    /// Maximum element.
    pub fn max(&self) -> f64 {
        self.reduce_scalar(ReduceKind::Max)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    /// Number of nonzero (true) elements.
    pub fn count_nonzero(&self) -> u64 {
        self.reduce_scalar(ReduceKind::CountNonzero) as u64
    }

    /// Reduce along `axis`, producing an array with that axis removed.
    fn reduce_axis(&self, kind: ReduceKind, axis: usize) -> DistArray<'c> {
        let meta = self.meta();
        assert!(axis < meta.ndim(), "axis out of range");
        assert!(
            meta.ndim() >= 2,
            "axis reduction needs ndim ≥ 2; use the scalar reductions for 1-D"
        );
        let out = self.ctx().alloc_id();
        self.ctx().send_cmd(&Cmd::Reduce {
            a: self.id(),
            kind,
            axis: Some(axis),
            out,
        });
        let mut shape = meta.shape.clone();
        shape.remove(axis);
        let out_meta = crate::protocol::ArrayMeta {
            shape,
            axis: 0,
            dist: if axis == 0 {
                crate::protocol::Dist::Block
            } else {
                meta.dist
            },
            dtype: kind.output_dtype(meta.dtype),
        };
        self.ctx().record_meta(out, out_meta);
        DistArray::from_id(self.ctx(), out)
    }

    /// Sum along an axis.
    pub fn sum_axis(&self, axis: usize) -> DistArray<'c> {
        self.reduce_axis(ReduceKind::Sum, axis)
    }

    /// Maximum along an axis.
    pub fn max_axis(&self, axis: usize) -> DistArray<'c> {
        self.reduce_axis(ReduceKind::Max, axis)
    }
}

#[cfg(test)]
mod tests {
    use crate::buffer::DType;
    use crate::context::OdinContext;
    use crate::protocol::Dist;

    #[test]
    fn scalar_reductions_match_serial() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(1.0, 10.0, 10);
        assert!((x.sum() - 55.0).abs() < 1e-9);
        assert_eq!(x.min(), 1.0);
        assert_eq!(x.max(), 10.0);
        assert!((x.mean() - 5.5).abs() < 1e-9);
        let y = ctx.arange(5); // 0,1,2,3,4
        assert_eq!(y.count_nonzero(), 4);
        let z = ctx.full(&[4], 2.0, Dist::Block);
        assert!((z.prod() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn reductions_worker_count_invariant_for_integers() {
        let s = |w| {
            let ctx = OdinContext::with_workers(w);
            let v = ctx.arange(100).sum();
            v
        };
        assert_eq!(s(1), s(4));
        assert_eq!(s(1), 4950.0);
    }

    #[test]
    fn axis0_reduction_of_2d() {
        let ctx = OdinContext::with_workers(2);
        // 4×3 array of ones → column sums = 4
        let a = ctx.ones(&[4, 3], DType::F64);
        let cols = a.sum_axis(0);
        assert_eq!(cols.shape(), vec![3]);
        assert_eq!(cols.to_vec(), vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn axis1_reduction_of_2d() {
        let ctx = OdinContext::with_workers(3);
        let b = ctx.random(&[5, 4], 7);
        let rows = b.sum_axis(1);
        assert_eq!(rows.shape(), vec![5]);
        let full = b.to_vec();
        let expect: Vec<f64> = (0..5)
            .map(|r| (0..4).map(|c| full[r * 4 + c]).sum())
            .collect();
        let got = rows.to_vec();
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-12, "{g} vs {e}");
        }
    }

    #[test]
    fn axis_reduction_3d_middle_axis() {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.random(&[3, 4, 2], 11);
        let m = a.max_axis(1);
        assert_eq!(m.shape(), vec![3, 2]);
        let full = a.to_vec();
        let got = m.to_vec();
        for i in 0..3 {
            for k in 0..2 {
                let expect = (0..4)
                    .map(|j| full[i * 8 + j * 2 + k])
                    .fold(f64::NEG_INFINITY, f64::max);
                let g = got[i * 2 + k];
                assert!((g - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn boolean_count_after_comparison() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(0.0, 1.0, 101);
        let mask = x.binary_scalar(0.5, crate::protocol::BinOp::Gt, false);
        assert_eq!(mask.count_nonzero(), 50);
    }
}
