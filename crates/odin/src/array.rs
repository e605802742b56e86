//! Master-side array handles and the NumPy-like global-mode API.
//!
//! A [`DistArray`] is a lightweight handle: the data lives on the workers.
//! An elementwise ufunc records one statement into the context's trace
//! ([`crate::program`]) and returns the handle of its result at once; the
//! next observation fuses whatever is pending into kernel launches. Every
//! other method broadcasts a small control command. Binary operations on
//! non-conformable operands insert a redistribution automatically, with a
//! selectable strategy (§III-D: "ODIN will choose a strategy that will
//! minimize communication, while allowing the knowledgeable user to
//! modify its behavior"): it names the statement's template, the side
//! whose layout the result takes.

use std::cell::Cell;

use comm::Payload;

use crate::buffer::{Buffer, DType};
use crate::context::OdinContext;
use crate::program::Op;
use crate::protocol::{ArrayMeta, BinOp, Cmd, Dist, Fill, UnaryOp};
use crate::slicing::SliceSpec;

/// How non-conformable binary operands are aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BinaryStrategy {
    /// Redistribute the right operand to the left's layout.
    RedistRight,
    /// Redistribute the left operand to the right's layout.
    RedistLeft,
    /// Prefer whichever side already has a Block layout (cheapest for
    /// downstream slicing); ties go to the left layout.
    #[default]
    Auto,
}

thread_local! {
    static STRATEGY: Cell<BinaryStrategy> = const { Cell::new(BinaryStrategy::Auto) };
}

/// Set the alignment strategy for subsequent binary ufuncs on this thread
/// (the paper's "context managers and function decorators" knob).
pub fn set_binary_strategy(s: BinaryStrategy) {
    STRATEGY.with(|c| c.set(s));
}

/// Current alignment strategy.
fn binary_strategy() -> BinaryStrategy {
    STRATEGY.with(|c| c.get())
}

/// Handle to a distributed array owned by an [`OdinContext`].
pub struct DistArray<'c> {
    ctx: &'c OdinContext,
    id: u64,
}

impl std::fmt::Debug for DistArray<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let meta = self.meta();
        write!(
            f,
            "DistArray(id={}, shape={:?}, dist={:?}, dtype={:?})",
            self.id, meta.shape, meta.dist, meta.dtype
        )
    }
}

impl Drop for DistArray<'_> {
    fn drop(&mut self) {
        self.ctx.release(self.id);
    }
}

impl<'c> DistArray<'c> {
    pub(crate) fn from_id(ctx: &'c OdinContext, id: u64) -> Self {
        DistArray { ctx, id }
    }

    /// The owning context.
    pub fn ctx(&self) -> &'c OdinContext {
        self.ctx
    }

    /// The array's id in the worker slot tables (local-mode calls take
    /// array ids as arguments).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Metadata snapshot.
    pub fn meta(&self) -> ArrayMeta {
        self.ctx.meta_of(self.id)
    }

    /// Global shape.
    pub fn shape(&self) -> Vec<usize> {
        self.meta().shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.meta().n_global()
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element dtype.
    pub fn dtype(&self) -> DType {
        self.meta().dtype
    }

    /// Distribution along axis 0.
    pub fn dist(&self) -> Dist {
        self.meta().dist
    }

    /// Elementwise unary ufunc.
    pub fn unary(&self, op: UnaryOp) -> DistArray<'c> {
        self.ctx.record(Op::Unary(op), &[self], 0)
    }

    /// Elementwise binary ufunc with automatic alignment.
    pub fn binary(&self, other: &DistArray<'c>, op: BinOp) -> DistArray<'c> {
        let left = match binary_strategy() {
            BinaryStrategy::RedistRight => true,
            BinaryStrategy::RedistLeft => false,
            // Prefer the side already in Block layout as the target.
            BinaryStrategy::Auto => self.dist() == Dist::Block || other.dist() != Dist::Block,
        };
        self.binary_at(other, op, left)
    }

    /// [`Self::binary`] with the result on `self`'s layout when `left`,
    /// else on `other`'s; the other operand is aligned at the flush.
    pub(crate) fn binary_at(&self, other: &DistArray<'c>, op: BinOp, left: bool) -> DistArray<'c> {
        self.ctx
            .record(Op::Binary(op), &[self, other], usize::from(!left))
    }

    /// Binary ufunc against a broadcast scalar. The literal rides in the
    /// launch as a kernel parameter, so a fresh value reuses the
    /// registered body; only `x ** c` with a small integral `c` bakes the
    /// exponent in (as `powi`, at most 17 bodies).
    pub fn binary_scalar(&self, scalar: f64, op: BinOp, scalar_left: bool) -> DistArray<'c> {
        self.ctx
            .record(Op::Scalar(op, scalar, scalar_left), &[self], 0)
    }

    /// Cast to another dtype.
    pub fn astype(&self, dtype: DType) -> DistArray<'c> {
        self.ctx.record(Op::Cast(dtype), &[self], 0)
    }

    /// Materialize under a new distribution.
    pub fn redistribute(&self, dist: Dist) -> DistArray<'c> {
        let out = self.ctx.alloc_id();
        self.ctx.send_cmd(&Cmd::Redistribute {
            out,
            a: self.id,
            dist,
        });
        DistArray::from_id(self.ctx, out)
    }

    /// A slice (one [`SliceSpec`] per dimension) as a view: it records
    /// into the trace and posts nothing, and it lives until the next
    /// flush. A view dropped by then and read by an elementwise op or
    /// kernel at its own Block geometry, in unit row steps of whole rows,
    /// is read in place, and only the rows past each worker's segment
    /// cross (DESIGN §8). Every other view — one still held at the flush,
    /// so one any other command names, or one read at another geometry,
    /// with a row step, across a trailing dimension or of a Cyclic or
    /// BlockCyclic base — is materialized by the flush as a copy. Either
    /// way it has value semantics: any command that could write the base
    /// flushes first. A spec out of range panics here.
    pub fn slice(&self, specs: &[SliceSpec]) -> DistArray<'c> {
        self.ctx.record_slice(self, specs)
    }

    /// 1-D Python-style slice with optional negative bounds, as a view
    /// ([`Self::slice`]): `a.slice1(1, None, 1)` is `a[1:]`,
    /// `a.slice1(0, Some(-1), 1)` is `a[:-1]` — the two slices of the
    /// paper's finite-difference example, which
    /// `&a.slice1(1, None, 1) - &a.slice1(0, Some(-1), 1)` reads in place
    /// in one launch.
    pub fn slice1(&self, start: isize, stop: Option<isize>, step: usize) -> DistArray<'c> {
        let n = self.meta().shape[0] as isize;
        let norm = |i: isize| -> usize {
            let j = if i < 0 { n + i } else { i };
            j.clamp(0, n) as usize
        };
        let start = norm(start);
        let stop = norm(stop.unwrap_or(n));
        self.slice(&[SliceSpec::new(start, stop.max(start), step)])
    }

    /// Fetch the whole array to the master as `(shape, global buffer)` —
    /// rows in global order.
    pub fn fetch(&self) -> (Vec<usize>, Buffer) {
        let meta = self.meta();
        let replies = self.ctx.dispatch_all(&Cmd::Fetch { a: self.id }).wait();
        let p = self.ctx.n_workers();
        let mut out = Buffer::zeros(meta.dtype, meta.n_global());
        for (w, msg) in replies.into_iter().enumerate() {
            // Large segments arrive as typed regions (no decode);
            // small ones on the classic wire path.
            let seg: Buffer = match msg {
                Payload::Region(region) => region.take(),
                Payload::Bytes(bytes) => comm::decode_from_slice(&bytes).ok(),
            }
            .expect("bad fetch payload");
            // Replies come in worker order; worker `w` holds the rows
            // of its axis map, in local order.
            out.scatter_runs(&meta.axis_map(p, w).local_runs(), meta.slab(), &seg);
        }
        (meta.shape, out)
    }

    /// Fetch as a flat `Vec<f64>` (any dtype widens).
    pub fn to_vec(&self) -> Vec<f64> {
        match self.fetch().1 {
            Buffer::F64(v) => v,
            buf => (0..buf.len()).map(|i| buf.get_f64(i)).collect(),
        }
    }

    /// Fetch as a flat `Vec<i64>`.
    pub fn to_vec_i64(&self) -> Vec<i64> {
        match self.fetch().1 {
            Buffer::I64(v) => v,
            buf => (0..buf.len()).map(|i| buf.get_i64(i)).collect(),
        }
    }

    // ---- named ufuncs ----

    /// Elementwise sine.
    pub fn sin(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Sin)
    }
    /// Elementwise cosine.
    pub fn cos(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Cos)
    }
    /// Elementwise tangent.
    pub fn tan(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Tan)
    }
    /// Elementwise natural exponential.
    pub fn exp(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Exp)
    }
    /// Elementwise natural log.
    pub fn ln(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Log)
    }
    /// Elementwise square root.
    pub fn sqrt(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Sqrt)
    }
    /// Elementwise absolute value.
    pub fn abs(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Abs)
    }
    /// Elementwise floor.
    pub fn floor(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Floor)
    }
    /// Elementwise ceiling.
    pub fn ceil(&self) -> DistArray<'c> {
        self.unary(UnaryOp::Ceil)
    }
    /// Elementwise power with a scalar exponent.
    pub fn powf(&self, e: f64) -> DistArray<'c> {
        self.binary_scalar(e, BinOp::Pow, false)
    }
    /// Elementwise `hypot` with another array (the paper's §III-C
    /// example).
    pub fn hypot(&self, other: &DistArray<'c>) -> DistArray<'c> {
        self.binary(other, BinOp::Hypot)
    }
    /// Elementwise maximum with another array.
    pub fn maximum(&self, other: &DistArray<'c>) -> DistArray<'c> {
        self.binary(other, BinOp::Max)
    }
    /// Elementwise minimum with another array.
    pub fn minimum(&self, other: &DistArray<'c>) -> DistArray<'c> {
        self.binary(other, BinOp::Min)
    }
    /// Elementwise less-than comparison.
    pub fn lt(&self, other: &DistArray<'c>) -> DistArray<'c> {
        self.binary(other, BinOp::Lt)
    }
    /// Elementwise greater-than comparison.
    pub fn gt(&self, other: &DistArray<'c>) -> DistArray<'c> {
        self.binary(other, BinOp::Gt)
    }
}

// ---- creation routines on the context --------------------------------------

impl OdinContext {
    fn create(&self, shape: Vec<usize>, dtype: DType, dist: Dist, fill: Fill) -> DistArray<'_> {
        let id = self.alloc_id();
        let meta = ArrayMeta { shape, dist, dtype };
        self.send_cmd(&Cmd::Create { id, meta, fill });
        DistArray::from_id(self, id)
    }

    /// Zeros with a chosen distribution.
    pub fn zeros_dist(&self, shape: &[usize], dtype: DType, dist: Dist) -> DistArray<'_> {
        self.create(shape.to_vec(), dtype, dist, Fill::Zeros)
    }

    /// Block-distributed zeros.
    pub fn zeros(&self, shape: &[usize], dtype: DType) -> DistArray<'_> {
        self.zeros_dist(shape, dtype, Dist::Block)
    }

    /// Block-distributed ones.
    pub fn ones(&self, shape: &[usize], dtype: DType) -> DistArray<'_> {
        self.create(shape.to_vec(), dtype, Dist::Block, Fill::Full(1.0))
    }

    /// Constant array.
    pub fn full(&self, shape: &[usize], value: f64, dist: Dist) -> DistArray<'_> {
        let dtype = DType::F64; // NumPy's np.full defaults to float
        self.create(shape.to_vec(), dtype, dist, Fill::Full(value))
    }

    /// Integers `0..n`.
    pub fn arange(&self, n: usize) -> DistArray<'_> {
        self.create(
            vec![n],
            DType::I64,
            Dist::Block,
            Fill::Arange {
                start: 0.0,
                step: 1.0,
            },
        )
    }

    /// Float range `start, start+step, …` of length `n`, distribution
    /// `dist`.
    pub fn arange_f64(&self, start: f64, step: f64, n: usize, dist: Dist) -> DistArray<'_> {
        self.create(vec![n], DType::F64, dist, Fill::Arange { start, step })
    }

    /// `n` evenly spaced points in `[start, stop]` — the paper's
    /// `odin.linspace(1, 2*pi, 10**8)`.
    pub fn linspace(&self, start: f64, stop: f64, n: usize) -> DistArray<'_> {
        self.create(
            vec![n],
            DType::F64,
            Dist::Block,
            Fill::Linspace { start, stop },
        )
    }

    /// Deterministic uniform-random array — the paper's
    /// `odin.random((10**6, 10**6))`.
    pub fn random(&self, shape: &[usize], seed: u64) -> DistArray<'_> {
        self.create(
            shape.to_vec(),
            DType::F64,
            Dist::Block,
            Fill::Random { seed },
        )
    }

    /// Random with a chosen distribution.
    pub fn random_dist(&self, shape: &[usize], seed: u64, dist: Dist) -> DistArray<'_> {
        self.create(shape.to_vec(), DType::F64, dist, Fill::Random { seed })
    }

    /// Scatter a master-resident `f64` vector as a 1-D array (data
    /// message, not a control message).
    pub fn from_vec(&self, values: &[f64], dist: Dist) -> DistArray<'_> {
        let id = self.alloc_id();
        let meta = ArrayMeta {
            shape: vec![values.len()],
            dist,
            dtype: DType::F64,
        };
        for w in 0..self.n_workers() {
            let map = meta.axis_map(self.n_workers(), w);
            let seg = dmap::gather_runs(values, &map.local_runs(), 1);
            self.send_cmd_to(
                w,
                &Cmd::SetData {
                    id,
                    meta: meta.clone(),
                    data: Buffer::F64(seg),
                },
            );
        }
        DistArray::from_id(self, id)
    }
}

// ---- operator overloads -----------------------------------------------------

macro_rules! arr_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<'c> std::ops::$trait<&DistArray<'c>> for &DistArray<'c> {
            type Output = DistArray<'c>;
            fn $method(self, rhs: &DistArray<'c>) -> DistArray<'c> {
                self.binary(rhs, $op)
            }
        }
        impl<'c> std::ops::$trait<f64> for &DistArray<'c> {
            type Output = DistArray<'c>;
            fn $method(self, rhs: f64) -> DistArray<'c> {
                self.binary_scalar(rhs, $op, false)
            }
        }
        impl<'c> std::ops::$trait<&DistArray<'c>> for f64 {
            type Output = DistArray<'c>;
            fn $method(self, rhs: &DistArray<'c>) -> DistArray<'c> {
                rhs.binary_scalar(self, $op, true)
            }
        }
    };
}

arr_binop!(Add, add, BinOp::Add);
arr_binop!(Sub, sub, BinOp::Sub);
arr_binop!(Mul, mul, BinOp::Mul);
arr_binop!(Div, div, BinOp::Div);
arr_binop!(Rem, rem, BinOp::Mod);

impl<'c> std::ops::Neg for &DistArray<'c> {
    type Output = DistArray<'c>;
    fn neg(self) -> DistArray<'c> {
        self.unary(UnaryOp::Neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creation_and_fetch_roundtrip() {
        let ctx = OdinContext::with_workers(3);
        let z = ctx.zeros(&[7], DType::F64);
        assert_eq!(z.to_vec(), vec![0.0; 7]);
        let o = ctx.ones(&[5], DType::I64);
        assert_eq!(o.to_vec_i64(), vec![1; 5]);
        let a = ctx.arange(6);
        assert_eq!(a.to_vec_i64(), vec![0, 1, 2, 3, 4, 5]);
        let l = ctx.linspace(0.0, 1.0, 5);
        assert_eq!(l.to_vec(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn creation_is_worker_count_invariant() {
        let get = |w: usize| {
            let ctx = OdinContext::with_workers(w);
            let v = ctx.random(&[32], 99).to_vec();
            v
        };
        assert_eq!(get(1), get(4));
    }

    #[test]
    fn elementwise_ops_match_serial() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 3.0, 7);
        let y = (&x * &x).sqrt(); // |x|
        let got = y.to_vec();
        for (g, x) in got.iter().zip(x.to_vec()) {
            assert!((g - x).abs() < 1e-12);
        }
        let z = &(&x * 2.0) + 1.0;
        for (g, x) in z.to_vec().iter().zip(x.to_vec()) {
            assert!((g - (2.0 * x + 1.0)).abs() < 1e-12);
        }
        let w = 1.0 / &(&x + 1.0);
        for (g, x) in w.to_vec().iter().zip(x.to_vec()) {
            assert!((g - 1.0 / (x + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn hypot_example_from_paper() {
        // §III-C: hypot(x, y) = sqrt(x² + y²) elementwise.
        let ctx = OdinContext::with_workers(3);
        let x = ctx.full(&[10], 3.0, Dist::Block);
        let y = ctx.full(&[10], 4.0, Dist::Block);
        let h = x.hypot(&y);
        assert_eq!(h.to_vec(), vec![5.0; 10]);
    }

    #[test]
    fn non_conformable_binary_redistributes_automatically() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 11, Dist::Block);
        let y = ctx.arange_f64(0.0, 2.0, 11, Dist::Cyclic);
        let s = &x + &y; // non-conformable: block + cyclic
        let expect: Vec<f64> = (0..11).map(|g| g as f64 * 3.0).collect();
        assert_eq!(s.to_vec(), expect);
        // Auto strategy keeps the Block layout.
        assert_eq!(s.dist(), Dist::Block);
    }

    #[test]
    fn strategy_knob_changes_result_layout() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange_f64(0.0, 1.0, 8, Dist::Cyclic);
        let y = ctx.arange_f64(0.0, 1.0, 8, Dist::BlockCyclic(2));
        set_binary_strategy(BinaryStrategy::RedistLeft);
        let s = &x + &y;
        assert_eq!(s.dist(), Dist::BlockCyclic(2));
        set_binary_strategy(BinaryStrategy::Auto);
        let expect: Vec<f64> = (0..8).map(|g| g as f64 * 2.0).collect();
        assert_eq!(s.to_vec(), expect);
    }

    #[test]
    fn comparisons_and_casts() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange(6); // 0..5 i64
        let half = x.binary_scalar(2.5, BinOp::Gt, false);
        assert_eq!(half.dtype(), DType::Bool);
        assert_eq!(half.to_vec_i64(), vec![0, 0, 0, 1, 1, 1], "x > 2.5 mask");
        let as_f = x.astype(DType::F64);
        assert_eq!(as_f.dtype(), DType::F64);
        assert_eq!(as_f.to_vec(), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn from_vec_scatters() {
        let ctx = OdinContext::with_workers(3);
        let vals = vec![5.0, -1.0, 2.5, 0.0, 9.0];
        let a = ctx.from_vec(&vals, Dist::Cyclic);
        assert_eq!(a.to_vec(), vals);
        let st = ctx.stats();
        assert!(st.data_msgs >= 3, "SetData are data messages");
    }

    #[test]
    fn slicing_1d_shifted_difference() {
        // The paper's §III-G finite-difference slices.
        let ctx = OdinContext::with_workers(3);
        let y = ctx.linspace(0.0, 10.0, 11); // 0,1,…,10
        let hi = y.slice1(1, None, 1);
        let lo = y.slice1(0, Some(-1), 1);
        let dy = &hi - &lo;
        assert_eq!(dy.len(), 10);
        let got = dy.to_vec();
        for v in got {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn slicing_with_step_and_2d() {
        let ctx = OdinContext::with_workers(2);
        // 2-D: 6 rows × 4 cols, values = flat index
        let a = ctx.arange_f64(0.0, 1.0, 24, Dist::Block);
        // reshape is not supported; build 2-D directly instead
        let b = ctx.create(
            vec![6, 4],
            DType::F64,
            Dist::Block,
            Fill::Arange {
                start: 0.0,
                step: 1.0,
            },
        );
        drop(a);
        let s = b.slice(&[SliceSpec::new(1, 6, 2), SliceSpec::new(0, 4, 3)]);
        // rows 1,3,5; cols 0,3 → values r*4+c
        assert_eq!(s.shape(), vec![3, 2]);
        assert_eq!(s.to_vec(), vec![4.0, 7.0, 12.0, 15.0, 20.0, 23.0]);
    }

    #[test]
    fn redistribute_roundtrip() {
        let ctx = OdinContext::with_workers(3);
        let a = ctx.random(&[17], 5);
        let orig = a.to_vec();
        let b = a.redistribute(Dist::Cyclic);
        let c = b.redistribute(Dist::BlockCyclic(3));
        let d = c.redistribute(Dist::Block);
        assert_eq!(d.to_vec(), orig);
    }

    #[test]
    fn drop_frees_worker_memory() {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.zeros(&[10], DType::F64);
        let id = a.id();
        drop(a);
        ctx.barrier();
        // double-free should not happen; allocate a fresh array reusing
        // nothing and make sure the context still works.
        let b = ctx.ones(&[4], DType::F64);
        assert_ne!(b.id(), id);
        assert_eq!(b.to_vec(), vec![1.0; 4]);
    }
}
