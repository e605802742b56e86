//! Lazy expressions and loop fusion (§III: "ODIN can optimize distributed
//! array expressions. These optimizations include: loop fusion, …").
//!
//! An [`Expr`] is built without touching the workers. It is the statement
//! language of the crate's one front end: [`Expr::eval`] applies the eager
//! [`DistArray`] ufuncs node by node (a constant subtree folds on the
//! master), and each of those records a statement into the context's
//! trace ([`crate::program`]). The intermediates' handles drop as the
//! walk returns, so the next observation fuses the whole tree into one
//! Seamless kernel — registered once on every worker (structurally
//! identical expressions reuse the registration, whatever their literals'
//! values: those travel as scalar parameters) and run in one unboxed pass
//! over each worker's segment, no intermediate arrays, each invoke after
//! the first a tens-of-bytes control message. The statement runs at its
//! leftmost array operand's layout. The bitwise oracle is
//! [`crate::reference::eval`], the same walk over master-side buffers.
//! [`Expr::sum`] / [`Expr::max`] / [`Expr::min`] fuse the reduction into
//! the same pass — map and fold without ever materializing the mapped
//! array.

use crate::array::DistArray;
use crate::protocol::{BinOp, ReduceKind, UnaryOp};
use crate::reference;
use seamless::bytecode::{Cmp, CompiledFunc, Instr, Math2Fn, MathFn, Reg, RegFile};
use seamless::Type;

const NO_ARRAY_OPERAND: &str = "expression needs at least one array operand";

/// A lazy elementwise expression over distributed arrays.
#[derive(Clone)]
pub enum Expr<'x, 'c> {
    /// A distributed array operand.
    Leaf(&'x DistArray<'c>),
    /// A broadcast constant.
    Scalar(f64),
    /// Unary node.
    Unary(UnaryOp, Box<Expr<'x, 'c>>),
    /// Binary node.
    Binary(BinOp, Box<Expr<'x, 'c>>, Box<Expr<'x, 'c>>),
}

impl From<f64> for Expr<'_, '_> {
    fn from(v: f64) -> Self {
        Expr::Scalar(v)
    }
}

impl<'x, 'c> Expr<'x, 'c> {
    /// Wrap an array operand.
    pub fn leaf(a: &'x DistArray<'c>) -> Self {
        Expr::Leaf(a)
    }

    /// Wrap a constant.
    pub fn scalar(v: f64) -> Self {
        Expr::Scalar(v)
    }

    fn un(self, op: UnaryOp) -> Self {
        Expr::Unary(op, Box::new(self))
    }

    fn bin(self, op: BinOp, rhs: Self) -> Self {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// Square root node.
    pub fn sqrt(self) -> Self {
        self.un(UnaryOp::Sqrt)
    }
    /// Sine node.
    pub fn sin(self) -> Self {
        self.un(UnaryOp::Sin)
    }
    /// Cosine node.
    pub fn cos(self) -> Self {
        self.un(UnaryOp::Cos)
    }
    /// Exponential node.
    pub fn exp(self) -> Self {
        self.un(UnaryOp::Exp)
    }
    /// Absolute-value node.
    pub fn abs(self) -> Self {
        self.un(UnaryOp::Abs)
    }
    /// Tangent node.
    pub fn tan(self) -> Self {
        self.un(UnaryOp::Tan)
    }
    /// Natural-logarithm node.
    pub fn ln(self) -> Self {
        self.un(UnaryOp::Log)
    }
    /// Floor node.
    pub fn floor(self) -> Self {
        self.un(UnaryOp::Floor)
    }
    /// Ceiling node.
    pub fn ceil(self) -> Self {
        self.un(UnaryOp::Ceil)
    }
    /// Power with a scalar exponent (small integral exponents
    /// strength-reduce to `powi`, exactly as the eager ufunc does).
    pub fn pow(self, e: f64) -> Self {
        self.bin(BinOp::Pow, Expr::Scalar(e))
    }
    /// Elementwise maximum.
    pub fn max_with(self, rhs: Self) -> Self {
        self.bin(BinOp::Max, rhs)
    }
    /// Elementwise minimum.
    pub fn min_with(self, rhs: Self) -> Self {
        self.bin(BinOp::Min, rhs)
    }

    /// Number of operation nodes (for reporting).
    pub fn n_ops(&self) -> usize {
        match self {
            Expr::Leaf(_) | Expr::Scalar(_) => 0,
            Expr::Unary(_, e) => 1 + e.n_ops(),
            Expr::Binary(_, a, b) => 1 + a.n_ops() + b.n_ops(),
        }
    }

    /// Record the expression node by node through the eager ufuncs and
    /// return the handle of its value; the next observation fuses it into
    /// one kernel, bitwise-identical to [`crate::reference::eval`].
    pub fn eval(&self) -> DistArray<'c> {
        match self.walk(&Held::Leaf) {
            Node::Arr(Held::Owned(a)) => a,
            // force a copy so the caller owns the result
            Node::Arr(Held::Leaf(a)) => a.astype(a.dtype()),
            Node::Scalar(_) => panic!("{NO_ARRAY_OPERAND}"),
        }
    }

    /// Fused map+reduce: evaluate the expression and fold it to a scalar
    /// in the same pass over each segment — the mapped array is never
    /// materialized. Bitwise-identical to `self.eval()` followed by the
    /// matching array reduction.
    pub fn reduce(&self, kind: ReduceKind) -> f64 {
        let mapped = self.eval();
        let value = mapped.fold(kind);
        drop(mapped);
        value.wait()
    }

    /// Sum of the evaluated expression, fused into the map pass.
    pub fn sum(&self) -> f64 {
        self.reduce(ReduceKind::Sum)
    }

    /// Maximum of the evaluated expression, fused into the map pass.
    pub fn max(&self) -> f64 {
        self.reduce(ReduceKind::Max)
    }

    /// Minimum of the evaluated expression, fused into the map pass.
    pub fn min(&self) -> f64 {
        self.reduce(ReduceKind::Min)
    }

    /// Node-at-a-time evaluation: constants fold on the master, every
    /// other node applies one [`Ufuncs`] op to arrays `leaf` provides.
    pub(crate) fn walk<A: Ufuncs>(
        &self,
        leaf: &impl Fn(&'x DistArray<'c>) -> Held<'x, A>,
    ) -> Node<'x, A> {
        use Node::{Arr, Scalar};
        match self {
            Expr::Leaf(a) => Arr(leaf(a)),
            Expr::Scalar(v) => Scalar(*v),
            Expr::Unary(op, e) => match e.walk(leaf) {
                Scalar(v) => Scalar(reference::scalar_unary(*op, v)),
                Arr(a) => Arr(Held::Owned(a.unary(*op))),
            },
            Expr::Binary(op, l, r) => Arr(Held::Owned(match (l.walk(leaf), r.walk(leaf)) {
                (Scalar(x), Scalar(y)) => return Scalar(reference::scalar_binary(*op, x, y)),
                (Scalar(s), Arr(b)) => b.binary_scalar(s, *op, true),
                (Arr(a), Scalar(s)) => a.binary_scalar(s, *op, false),
                (Arr(a), Arr(b)) => a.binary(&b, *op),
            })),
        }
    }
}

/// The elementwise ops [`Expr::walk`] applies: worker-resident
/// [`DistArray`]s for [`Expr::eval`], master-resident [`crate::Buffer`]s
/// for [`crate::reference::eval`].
pub(crate) trait Ufuncs: Sized {
    fn unary(&self, op: UnaryOp) -> Self;
    fn binary(&self, rhs: &Self, op: BinOp) -> Self;
    fn binary_scalar(&self, scalar: f64, op: BinOp, scalar_left: bool) -> Self;
}

impl<'c> Ufuncs for DistArray<'c> {
    fn unary(&self, op: UnaryOp) -> Self {
        DistArray::unary(self, op)
    }
    /// An expression runs at its leftmost array operand's layout.
    fn binary(&self, rhs: &Self, op: BinOp) -> Self {
        self.binary_at(rhs, op, true)
    }
    fn binary_scalar(&self, scalar: f64, op: BinOp, scalar_left: bool) -> Self {
        DistArray::binary_scalar(self, scalar, op, scalar_left)
    }
}

/// A node's value in [`Expr::walk`].
pub(crate) enum Node<'x, A> {
    /// A constant subtree, folded.
    Scalar(f64),
    /// An array.
    Arr(Held<'x, A>),
}

/// An array operand as a walk holds it: a leaf's own, or a computed one.
pub(crate) enum Held<'x, A> {
    Leaf(&'x A),
    Owned(A),
}

impl<A> std::ops::Deref for Held<'_, A> {
    type Target = A;
    fn deref(&self) -> &A {
        match self {
            Held::Leaf(a) => a,
            Held::Owned(a) => a,
        }
    }
}

/// Expression → Seamless bytecode lowering state.
///
/// Produces straight-line code over the F/I register files, with the
/// parameters in the lane's file. Every f64 opcode choice mirrors the
/// serial oracle's arithmetic ([`crate::reference`]) exactly, so kernels
/// and oracle stay bitwise-identical: comparisons and logic ops produce
/// 0.0/1.0 through integer compares, `Mod` uses Rust `%`
/// ([`Instr::RemF`], not the VM's Python-modulo `ModF`), and `x ** c` for
/// small integral constants strength-reduces to [`Instr::PowIC`]. The i64
/// emitters cover the ops whose eager result is `I64`, in wrapping
/// arithmetic.
pub(crate) struct Lowerer {
    instrs: Vec<Instr>,
    n_f: Reg,
    n_i: Reg,
    /// The file the parameters live in: `F` for f64 lanes, `I` for i64.
    lane: RegFile,
    n_params: usize,
}

/// `x ** c` strength-reduction eligibility: small integral exponents
/// run as [`Instr::PowIC`].
pub(crate) fn powic_exponent(c: f64) -> Option<i32> {
    if c.fract() == 0.0 && c.abs() <= 8.0 {
        Some(c as i32)
    } else {
        None
    }
}

impl Lowerer {
    /// Fresh lowering state with the first `n_params` registers of the
    /// `lane` file bound to parameters (the caller owns the operand →
    /// register map).
    pub(crate) fn with_params(lane: RegFile, n_params: usize) -> Self {
        let bound = |file| if lane == file { n_params as Reg } else { 0 };
        Lowerer {
            instrs: Vec::new(),
            n_f: bound(RegFile::F),
            n_i: bound(RegFile::I),
            lane,
            n_params,
        }
    }

    /// Close the body with `ret` (a lane-file register) as its result:
    /// the one-function program a kernel registration ships.
    pub(crate) fn finish(mut self, ret: Reg) -> seamless::bytecode::Program {
        self.instrs.push(Instr::Ret(Some((self.lane, ret))));
        let ty = if self.lane == RegFile::F {
            Type::Float
        } else {
            Type::Int
        };
        let f = CompiledFunc {
            name: "expr".into(),
            params: (0..self.n_params).map(|k| (self.lane, k as Reg)).collect(),
            param_types: vec![ty; self.n_params],
            ret: ty,
            reg_counts: [self.n_f as usize, self.n_i as usize, 0, 0],
            instrs: self.instrs,
        };
        seamless::bytecode::Program {
            funcs: vec![f],
            externs: Vec::new(),
        }
    }

    fn fresh_f(&mut self) -> Reg {
        let r = self.n_f;
        self.n_f += 1;
        r
    }

    fn fresh_i(&mut self) -> Reg {
        let r = self.n_i;
        self.n_i += 1;
        r
    }

    /// Emit `dst = 0.0` and return the register (straight-line code, so a
    /// fresh constant per use keeps the lowering simple).
    fn zero_f(&mut self) -> Reg {
        let z = self.fresh_f();
        self.instrs.push(Instr::ConstF(z, 0.0));
        z
    }

    /// Emit `dst = f64::from(i_src != 0 … as produced by a compare)`.
    fn bool_to_f(&mut self, i_src: Reg) -> Reg {
        let d = self.fresh_f();
        self.instrs.push(Instr::IToF(d, i_src));
        d
    }

    /// Emit one unary op over `s` in the lane's file; returns the
    /// result's register.
    pub(crate) fn emit_unary(&mut self, op: UnaryOp, s: Reg) -> Reg {
        use UnaryOp::*;
        if self.lane == RegFile::I {
            return self.emit_unary_i(op, s);
        }
        let m1 = |f: MathFn, lw: &mut Self| {
            let d = lw.fresh_f();
            lw.instrs.push(Instr::Math1(f, d, s));
            d
        };
        match op {
            Neg => {
                let d = self.fresh_f();
                self.instrs.push(Instr::NegF(d, s));
                d
            }
            Abs => m1(MathFn::Abs, self),
            Sin => m1(MathFn::Sin, self),
            Cos => m1(MathFn::Cos, self),
            Tan => m1(MathFn::Tan, self),
            Exp => m1(MathFn::Exp, self),
            Log => m1(MathFn::Log, self),
            Sqrt => m1(MathFn::Sqrt, self),
            Floor => m1(MathFn::Floor, self),
            Ceil => m1(MathFn::Ceil, self),
            Not => {
                // f64::from(x == 0.0)
                let z = self.zero_f();
                let i = self.fresh_i();
                self.instrs.push(Instr::CmpF(Cmp::Eq, i, s, z));
                self.bool_to_f(i)
            }
        }
    }

    /// Emit `a ** c` strength-reduced to [`Instr::PowIC`]; the caller
    /// must have checked [`powic_exponent`].
    pub(crate) fn emit_pow_const(&mut self, a: Reg, e: i32) -> Reg {
        let d = self.fresh_f();
        self.instrs.push(Instr::PowIC(d, a, e));
        d
    }

    /// Emit one binary op over `a`, `b` in the lane's file; returns the
    /// result's register.
    pub(crate) fn emit_binary(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        use BinOp::*;
        if self.lane == RegFile::I {
            return self.emit_binary_i(op, a, b);
        }
        let bin = |mk: fn(Reg, Reg, Reg) -> Instr, lw: &mut Self| {
            let d = lw.fresh_f();
            lw.instrs.push(mk(d, a, b));
            d
        };
        let cmp = |c: Cmp, lw: &mut Self| {
            let i = lw.fresh_i();
            lw.instrs.push(Instr::CmpF(c, i, a, b));
            lw.bool_to_f(i)
        };
        match op {
            Add => bin(Instr::AddF, self),
            Sub => bin(Instr::SubF, self),
            Mul => bin(Instr::MulF, self),
            Div => bin(Instr::DivF, self),
            Pow => bin(Instr::PowF, self),
            Mod => bin(Instr::RemF, self),
            Max => bin(Instr::MaxF, self),
            Min => bin(Instr::MinF, self),
            Hypot => bin(|d, a, b| Instr::Math2(Math2Fn::Hypot, d, a, b), self),
            Atan2 => bin(|d, a, b| Instr::Math2(Math2Fn::Atan2, d, a, b), self),
            Eq => cmp(Cmp::Eq, self),
            Ne => cmp(Cmp::Ne, self),
            Lt => cmp(Cmp::Lt, self),
            Le => cmp(Cmp::Le, self),
            Gt => cmp(Cmp::Gt, self),
            Ge => cmp(Cmp::Ge, self),
            And | Or => {
                // f64::from(x != 0.0 <op> y != 0.0)
                let z = self.zero_f();
                let ia = self.fresh_i();
                self.instrs.push(Instr::CmpF(Cmp::Ne, ia, a, z));
                let ib = self.fresh_i();
                self.instrs.push(Instr::CmpF(Cmp::Ne, ib, b, z));
                let id = self.fresh_i();
                self.instrs.push(if matches!(op, And) {
                    Instr::AndI(id, ia, ib)
                } else {
                    Instr::OrI(id, ia, ib)
                });
                self.bool_to_f(id)
            }
        }
    }

    /// Emit `np.where(c, a, b)` in the lane's file; on f64 lanes `c` is
    /// compared with 0.0 first (a NaN condition is true).
    pub(crate) fn emit_select(&mut self, c: Reg, a: Reg, b: Reg) -> Reg {
        if self.lane == RegFile::I {
            let d = self.fresh_i();
            self.instrs.push(Instr::SelectI(d, c, a, b));
            return d;
        }
        let z = self.zero_f();
        let t = self.fresh_i();
        self.instrs.push(Instr::CmpF(Cmp::Ne, t, c, z));
        let d = self.fresh_f();
        self.instrs.push(Instr::SelectF(d, t, a, b));
        d
    }

    /// Emit `Neg`/`Abs` over an i64 register — the unary ops with an
    /// `I64` result — in wrapping arithmetic.
    fn emit_unary_i(&mut self, op: UnaryOp, s: Reg) -> Reg {
        let d = self.fresh_i();
        self.instrs.push(match op {
            UnaryOp::Neg => Instr::NegI(d, s),
            UnaryOp::Abs => Instr::AbsI(d, s),
            _ => unreachable!("{op:?} has no integer result"),
        });
        d
    }

    /// Emit one binary op with an `I64` result over i64 registers, in
    /// wrapping arithmetic. `Mod` divides by `b + (b == 0)`: the eager
    /// rule `x % 0 == 0` as straight-line code.
    fn emit_binary_i(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        use BinOp::*;
        let b = if op == Mod {
            let z = self.fresh_i();
            self.instrs.push(Instr::ConstI(z, 0));
            let is_zero = self.fresh_i();
            self.instrs.push(Instr::CmpI(Cmp::Eq, is_zero, b, z));
            let nonzero = self.fresh_i();
            self.instrs.push(Instr::AddI(nonzero, b, is_zero));
            nonzero
        } else {
            b
        };
        let d = self.fresh_i();
        self.instrs.push(match op {
            Add => Instr::AddI(d, a, b),
            Sub => Instr::SubI(d, a, b),
            Mul => Instr::MulI(d, a, b),
            Mod => Instr::ModI(d, a, b),
            Max => Instr::MaxI(d, a, b),
            Min => Instr::MinI(d, a, b),
            _ => unreachable!("{op:?} has no integer result"),
        });
        d
    }

    /// Emit `f64::from(s != 0.0)`: an f64-lane value cast to `Bool`, as
    /// materializing it and staging it back would give.
    pub(crate) fn emit_nonzero(&mut self, s: Reg) -> Reg {
        let z = self.zero_f();
        let i = self.fresh_i();
        self.instrs.push(Instr::CmpF(Cmp::Ne, i, s, z));
        self.bool_to_f(i)
    }
}

macro_rules! expr_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<'x, 'c> std::ops::$trait for Expr<'x, 'c> {
            type Output = Expr<'x, 'c>;
            fn $method(self, rhs: Expr<'x, 'c>) -> Expr<'x, 'c> {
                self.bin($op, rhs)
            }
        }
        impl<'x, 'c> std::ops::$trait<f64> for Expr<'x, 'c> {
            type Output = Expr<'x, 'c>;
            fn $method(self, rhs: f64) -> Expr<'x, 'c> {
                self.bin($op, Expr::Scalar(rhs))
            }
        }
    };
}

expr_binop!(Add, add, BinOp::Add);
expr_binop!(Sub, sub, BinOp::Sub);
expr_binop!(Mul, mul, BinOp::Mul);
expr_binop!(Div, div, BinOp::Div);
expr_binop!(Rem, rem, BinOp::Mod);

impl<'x, 'c> std::ops::Neg for Expr<'x, 'c> {
    type Output = Expr<'x, 'c>;
    fn neg(self) -> Expr<'x, 'c> {
        self.un(UnaryOp::Neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OdinContext;
    use crate::protocol::Dist;

    #[test]
    fn fused_matches_unfused_and_serial() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(0.0, 2.0, 21);
        let y = ctx.linspace(1.0, 3.0, 21);
        // sqrt(x² + y²) — the paper's hypot
        let make = || (Expr::leaf(&x).pow(2.0) + Expr::leaf(&y).pow(2.0)).sqrt();
        let fused = make().eval();
        // The same statements flushed one at a time: one launch each.
        let x2 = x.powf(2.0);
        ctx.flush_batch();
        let y2 = y.powf(2.0);
        ctx.flush_batch();
        let sum = &x2 + &y2;
        ctx.flush_batch();
        let unfused = sum.sqrt();
        let xs = x.to_vec();
        let ys = y.to_vec();
        let expect: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a.hypot(*b)).collect();
        let f = fused.to_vec();
        let u = unfused.to_vec();
        for i in 0..expect.len() {
            assert!((f[i] - expect[i]).abs() < 1e-12);
            assert_eq!(f[i].to_bits(), u[i].to_bits());
        }
    }

    #[test]
    fn fusion_sends_one_command_for_many_ops() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 50);
        ctx.reset_stats();
        let e = Expr::leaf(&x).pow(2.0) * 3.0 + Expr::leaf(&x) * 2.0 + 1.0;
        assert_eq!(e.n_ops(), 5);
        let _r = e.eval();
        ctx.flush_batch();
        let fused_msgs = ctx.stats().ctrl_msgs;
        ctx.reset_stats();
        let step = |a| {
            ctx.flush_batch();
            a
        };
        let a = step(x.powf(2.0));
        let a = step(&a * 3.0);
        let b = step(&x * 2.0);
        let c = step(&a + &b);
        let _r2 = step(&c + 1.0);
        let unfused_msgs = ctx.stats().ctrl_msgs;
        assert!(
            fused_msgs < unfused_msgs,
            "fused {fused_msgs} vs unfused {unfused_msgs}"
        );
    }

    #[test]
    fn fused_aligns_non_conformable_leaves() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 12, Dist::Block);
        let y = ctx.arange_f64(0.0, 1.0, 12, Dist::Cyclic);
        let r = (Expr::leaf(&x) + Expr::leaf(&y)).eval();
        let expect: Vec<f64> = (0..12).map(|g| 2.0 * g as f64).collect();
        assert_eq!(r.to_vec(), expect);
    }

    #[test]
    fn integer_programs_stay_integer() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange(6);
        let r = (Expr::leaf(&x) * 2.0 + 1.0).eval();
        assert_eq!(r.dtype(), crate::buffer::DType::I64);
        assert_eq!(r.to_vec_i64(), vec![1, 3, 5, 7, 9, 11]);
    }

    #[test]
    fn jitted_matches_the_serial_oracle_bitwise() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(0.0, 2.0, 103);
        let y = ctx.linspace(1.0, 3.0, 103);
        let make = || {
            (Expr::leaf(&x).pow(2.0) + Expr::leaf(&y).pow(2.0))
                .sqrt()
                .sin()
                * (Expr::leaf(&x) * 0.5).exp()
                + (Expr::leaf(&y) % 0.7)
        };
        let jit = make().eval().to_vec();
        let oracle = crate::reference::eval(&make()).unwrap();
        for (i, (j, o)) in jit.iter().zip(oracle.as_f64()).enumerate() {
            assert_eq!(j.to_bits(), o.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn structurally_identical_exprs_register_one_kernel() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 40);
        let a = (Expr::leaf(&x) * 2.0 + 1.0).eval();
        ctx.flush_batch();
        ctx.reset_stats();
        let b = (Expr::leaf(&x) * 2.0 + 1.0).eval();
        ctx.flush_batch();
        // second eval reuses the registered kernel: one EvalKernel
        // broadcast only, well under 100 bytes
        let s = ctx.stats();
        assert_eq!(s.ctrl_msgs, 2);
        assert!(s.ctrl_bytes / s.ctrl_msgs < 100);
        drop(b);
        assert_eq!(
            a.to_vec(),
            x.to_vec().iter().map(|v| v * 2.0 + 1.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fused_reduction_matches_two_pass_bitwise() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(0.0, 3.0, 101);
        let fused = (Expr::leaf(&x).sin() * Expr::leaf(&x)).sum();
        let two_pass = (Expr::leaf(&x).sin() * Expr::leaf(&x)).eval().sum();
        assert_eq!(fused.to_bits(), two_pass.to_bits());
        let fmax = (Expr::leaf(&x).cos()).max();
        let tmax = (Expr::leaf(&x).cos()).eval().max();
        assert_eq!(fmax.to_bits(), tmax.to_bits());
        let fmin = (Expr::leaf(&x).cos()).min();
        let tmin = (Expr::leaf(&x).cos()).eval().min();
        assert_eq!(fmin.to_bits(), tmin.to_bits());
    }

    #[test]
    fn constant_subtrees_fold_on_the_master() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 5);
        // (2 + 3) * x → one statement over the folded literal 5
        let e = (Expr::scalar(2.0) + Expr::scalar(3.0)) * Expr::leaf(&x);
        let r = e.eval();
        assert_eq!(r.to_vec(), vec![0.0, 1.25, 2.5, 3.75, 5.0]);
        assert_eq!(ctx.stats().statements, 1);
    }
}
