//! Global reductions: full-array scalars and per-axis reductions.
//!
//! A full reduction records a fold statement into the context's trace
//! ([`crate::program`]): it rides the launch of the statements around it
//! that share its geometry and lane, and its value is one round trip,
//! like a barrier — every worker replies the partial of its segment and
//! the master combines them in rank order (`worker::Fold::across`), a few
//! bytes per worker, so it never becomes a bottleneck (paper Fig. 1
//! caption). An axis reduction's result is an array, so its partials meet
//! worker to worker.

use crate::array::DistArray;
use crate::protocol::{Cmd, ReduceKind};
use crate::reply::Pending;

impl<'c> DistArray<'c> {
    /// Record a full reduction and return its future: the fold runs at the
    /// next observation, at the latest the one its `wait` forces.
    pub(crate) fn fold(&self, kind: ReduceKind) -> Pending<'c, f64> {
        Pending::fold(self.ctx(), self.ctx().record_fold(self, kind))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.fold(ReduceKind::Sum).wait()
    }

    /// Asynchronous [`Self::sum`]: returns a future instead of blocking,
    /// so reductions recorded together share a launch.
    pub fn sum_async(&self) -> Pending<'c, f64> {
        self.fold(ReduceKind::Sum)
    }

    /// Product of all elements.
    pub fn prod(&self) -> f64 {
        self.fold(ReduceKind::Prod).wait()
    }

    /// Minimum element.
    pub fn min(&self) -> f64 {
        self.fold(ReduceKind::Min).wait()
    }

    /// Maximum element.
    pub fn max(&self) -> f64 {
        self.fold(ReduceKind::Max).wait()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    /// Number of nonzero (true) elements.
    pub fn count_nonzero(&self) -> u64 {
        self.fold(ReduceKind::CountNonzero).wait() as u64
    }

    /// Reduce along `axis`, producing an array with that axis removed.
    fn reduce_axis(&self, kind: ReduceKind, axis: usize) -> DistArray<'c> {
        let out = self.ctx().alloc_id();
        self.ctx().send_cmd(&Cmd::Reduce {
            a: self.id(),
            kind,
            axis,
            out,
        });
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
