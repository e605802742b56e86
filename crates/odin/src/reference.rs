//! The serial oracles for ODIN's elementwise ufuncs and whole-array
//! reductions.
//!
//! Workers evaluate every elementwise op as a kernel
//! (`worker::exec_kernel` over the VM or native tier). This module
//! evaluates the same ops on the master instead, one node at a time over
//! fetched whole arrays in global order, with plain Rust arithmetic: it
//! shares no worker, segment, route or tier with the code it checks. The
//! eager `DistArray` ufuncs and the lazy [`Expr`] plane are held to it bit
//! for bit, dtype included. [`fold`] does the same for the order in which
//! the workers fold a reduction.

use crate::buffer::{binary_result_dtype, scalar_dtype, unary_result_dtype, Buffer, DType};
use crate::lazy::{powic_exponent, Expr, Held, Node, Ufuncs};
use crate::protocol::{BinOp, ReduceKind, UnaryOp};

/// Evaluate `e` serially on the master: every leaf is fetched and every
/// node applied as the eager ufunc of the same name defines it. Returns
/// the result in global order, or `None` for an expression without an
/// array operand. Panics on a traced-statement handle.
pub fn eval(e: &Expr<'_, '_>) -> Option<Buffer> {
    match e.walk(&|a| Held::Owned(a.fetch().1)) {
        Node::Arr(Held::Owned(b)) => Some(b),
        Node::Arr(Held::Leaf(b)) => Some(b.clone()),
        Node::Scalar(_) => None,
    }
}

/// A whole-array reduction of `kind` over `segments` (worker `r`'s
/// segment at index `r`, each element widened to f64), in the order every
/// worker-side reduction path folds: element `i` of a segment goes into
/// stripe `i mod 8`, each stripe starting at the identity; a segment's
/// partial is `((s0∘s1)∘(s2∘s3))∘((s4∘s5)∘(s6∘s7))`; the partials then
/// combine in rank order, bracketed as comm's binomial tree
/// (`(p0∘p1)∘(p2∘p3)` at four ranks, `(p0∘p1)∘p2` at three), which is
/// what the pool's small `allreduce` computes at one to four workers.
pub fn fold(kind: ReduceKind, segments: &[Buffer]) -> f64 {
    let op = |a: f64, b: f64| match kind {
        ReduceKind::Sum | ReduceKind::CountNonzero => a + b,
        ReduceKind::Prod => a * b,
        ReduceKind::Min => a.min(b),
        ReduceKind::Max => a.max(b),
    };
    let identity = match kind {
        ReduceKind::Sum | ReduceKind::CountNonzero => 0.0,
        ReduceKind::Prod => 1.0,
        ReduceKind::Min => f64::INFINITY,
        ReduceKind::Max => f64::NEG_INFINITY,
    };
    let partials: Vec<f64> = segments
        .iter()
        .map(|seg| {
            let mut s = [identity; 8];
            for i in 0..seg.len() {
                let x = seg.get_f64(i);
                let x = match kind {
                    ReduceKind::CountNonzero => f64::from(u8::from(x != 0.0)),
                    _ => x,
                };
                s[i % 8] = op(s[i % 8], x);
            }
            op(
                op(op(s[0], s[1]), op(s[2], s[3])),
                op(op(s[4], s[5]), op(s[6], s[7])),
            )
        })
        .collect();
    fn tree(op: &dyn Fn(f64, f64) -> f64, p: &[f64]) -> f64 {
        match p {
            [] => unreachable!("a pool has at least one worker"),
            [only] => *only,
            _ => {
                let half = p.len().next_power_of_two() / 2;
                op(tree(op, &p[..half]), tree(op, &p[half..]))
            }
        }
    }
    tree(&op, &partials)
}

impl Ufuncs for Buffer {
    fn unary(&self, op: UnaryOp) -> Self {
        apply_unary(op, self)
    }
    fn binary(&self, rhs: &Self, op: BinOp) -> Self {
        apply_binary(op, self, rhs)
    }
    fn binary_scalar(&self, scalar: f64, op: BinOp, scalar_left: bool) -> Self {
        apply_binary_scalar(op, self, scalar, scalar_left)
    }
}

/// One unary op on an f64 value (also the master's constant folding).
pub(crate) fn scalar_unary(op: UnaryOp, v: f64) -> f64 {
    use UnaryOp::*;
    match op {
        Neg => -v,
        Abs => v.abs(),
        Not => f64::from(u8::from(v == 0.0)),
        Sin => v.sin(),
        Cos => v.cos(),
        Tan => v.tan(),
        Exp => v.exp(),
        Log => v.ln(),
        Sqrt => v.sqrt(),
        Floor => v.floor(),
        Ceil => v.ceil(),
    }
}

/// One binary op on two f64 values, comparisons as 0.0/1.0 (the master's
/// constant folding).
pub(crate) fn scalar_binary(op: BinOp, x: f64, y: f64) -> f64 {
    match binary_result_dtype(op, DType::F64, DType::F64) {
        DType::Bool => f64::from(u8::from(binop_cmp(op, x, y))),
        _ => binop_f64(op, x, y),
    }
}

/// Apply a unary ufunc elementwise: integer `Neg`/`Abs` wrap, everything
/// else computes in f64.
fn apply_unary(op: UnaryOp, a: &Buffer) -> Buffer {
    let n = a.len();
    match unary_result_dtype(op, a.dtype()) {
        DType::I64 => Buffer::I64(
            (0..n)
                .map(|i| match op {
                    UnaryOp::Neg => a.get_i64(i).wrapping_neg(),
                    _ => a.get_i64(i).wrapping_abs(),
                })
                .collect(),
        ),
        DType::Bool => Buffer::Bool((0..n).map(|i| a.get_f64(i) == 0.0).collect()),
        DType::F64 => Buffer::F64((0..n).map(|i| scalar_unary(op, a.get_f64(i))).collect()),
    }
}

fn binop_f64(op: BinOp, x: f64, y: f64) -> f64 {
    use BinOp::*;
    match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Pow => x.powf(y),
        Mod => x % y,
        // a NaN operand loses; of two equal values (`-0.0`, `0.0`) the
        // first wins
        Max if x < y || x.is_nan() => y,
        Min if y < x || x.is_nan() => y,
        Max | Min => x,
        Hypot => x.hypot(y),
        Atan2 => x.atan2(y),
        _ => unreachable!("comparison handled separately"),
    }
}

fn binop_i64(op: BinOp, x: i64, y: i64) -> i64 {
    use BinOp::*;
    match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        // `x % 0` is 0, and so is the one overflowing case `i64::MIN % -1`
        Mod => x.checked_rem_euclid(y).unwrap_or(0),
        Max => x.max(y),
        Min => x.min(y),
        _ => unreachable!("{op:?} has no integer result"),
    }
}

fn binop_cmp(op: BinOp, x: f64, y: f64) -> bool {
    use BinOp::*;
    match op {
        Eq => x == y,
        Ne => x != y,
        Lt => x < y,
        Le => x <= y,
        Gt => x > y,
        Ge => x >= y,
        And => x != 0.0 && y != 0.0,
        Or => x != 0.0 || y != 0.0,
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

/// Apply a binary ufunc elementwise to equal-length buffers, with
/// promotion: `I64` results compute in wrapping i64, the rest in f64.
fn apply_binary(op: BinOp, a: &Buffer, b: &Buffer) -> Buffer {
    assert_eq!(a.len(), b.len(), "binary ufunc length mismatch");
    let n = a.len();
    match binary_result_dtype(op, a.dtype(), b.dtype()) {
        DType::F64 => Buffer::F64(
            (0..n)
                .map(|i| binop_f64(op, a.get_f64(i), b.get_f64(i)))
                .collect(),
        ),
        DType::I64 => Buffer::I64(
            (0..n)
                .map(|i| binop_i64(op, a.get_i64(i), b.get_i64(i)))
                .collect(),
        ),
        DType::Bool => Buffer::Bool(
            (0..n)
                .map(|i| binop_cmp(op, a.get_f64(i), b.get_f64(i)))
                .collect(),
        ),
    }
}

/// Apply a binary ufunc between a buffer and a broadcast scalar, typed
/// by [`scalar_dtype`].
fn apply_binary_scalar(op: BinOp, a: &Buffer, scalar: f64, scalar_left: bool) -> Buffer {
    let n = a.len();
    // strength reduction: x ** small-integer runs as powi
    if let (BinOp::Pow, false, Some(e)) = (op, scalar_left, powic_exponent(scalar)) {
        return Buffer::F64((0..n).map(|i| a.get_f64(i).powi(e)).collect());
    }
    fn order<T>(scalar_left: bool, s: T, x: T) -> (T, T) {
        if scalar_left {
            (s, x)
        } else {
            (x, s)
        }
    }
    let f = |i| order(scalar_left, scalar, a.get_f64(i));
    match binary_result_dtype(op, a.dtype(), scalar_dtype(scalar)) {
        DType::F64 => Buffer::F64(
            (0..n)
                .map(|i| {
                    let (x, y) = f(i);
                    binop_f64(op, x, y)
                })
                .collect(),
        ),
        DType::I64 => Buffer::I64(
            (0..n)
                .map(|i| {
                    let (x, y) = order(scalar_left, scalar as i64, a.get_i64(i));
                    binop_i64(op, x, y)
                })
                .collect(),
        ),
        DType::Bool => Buffer::Bool(
            (0..n)
                .map(|i| {
                    let (x, y) = f(i);
                    binop_cmp(op, x, y)
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_ops() {
        let a = Buffer::F64(vec![0.0, 1.0, 4.0]);
        assert_eq!(
            apply_unary(UnaryOp::Sqrt, &a),
            Buffer::F64(vec![0.0, 1.0, 2.0])
        );
        let b = Buffer::I64(vec![-2, 3]);
        assert_eq!(apply_unary(UnaryOp::Neg, &b), Buffer::I64(vec![2, -3]));
        assert_eq!(apply_unary(UnaryOp::Abs, &b), Buffer::I64(vec![2, 3]));
        // sin of ints promotes to float
        let c = Buffer::I64(vec![0]);
        assert_eq!(apply_unary(UnaryOp::Sin, &c), Buffer::F64(vec![0.0]));
        // logical not
        let d = Buffer::Bool(vec![true, false]);
        assert_eq!(
            apply_unary(UnaryOp::Not, &d),
            Buffer::Bool(vec![false, true])
        );
    }

    #[test]
    fn binary_promotion() {
        let i = Buffer::I64(vec![1, 2, 3]);
        let f = Buffer::F64(vec![0.5, 0.5, 0.5]);
        assert_eq!(
            apply_binary(BinOp::Add, &i, &f),
            Buffer::F64(vec![1.5, 2.5, 3.5])
        );
        assert_eq!(apply_binary(BinOp::Add, &i, &i), Buffer::I64(vec![2, 4, 6]));
        // int/int division is float (true division, like NumPy / Python 3)
        assert_eq!(
            apply_binary(BinOp::Div, &i, &i),
            Buffer::F64(vec![1.0, 1.0, 1.0])
        );
        // bool + bool promotes to int
        let b = Buffer::Bool(vec![true, true, false]);
        assert_eq!(apply_binary(BinOp::Add, &b, &b), Buffer::I64(vec![2, 2, 0]));
    }

    #[test]
    fn comparisons_yield_bool() {
        let a = Buffer::F64(vec![1.0, 2.0, 3.0]);
        let b = Buffer::F64(vec![2.0, 2.0, 2.0]);
        assert_eq!(
            apply_binary(BinOp::Lt, &a, &b),
            Buffer::Bool(vec![true, false, false])
        );
        assert_eq!(
            apply_binary(BinOp::Ge, &a, &b),
            Buffer::Bool(vec![false, true, true])
        );
    }

    #[test]
    fn scalar_broadcast_both_sides() {
        let a = Buffer::F64(vec![1.0, 2.0]);
        assert_eq!(
            apply_binary_scalar(BinOp::Sub, &a, 1.0, false),
            Buffer::F64(vec![0.0, 1.0])
        );
        assert_eq!(
            apply_binary_scalar(BinOp::Sub, &a, 1.0, true),
            Buffer::F64(vec![0.0, -1.0])
        );
        // integer scalar keeps integer arrays integral
        let i = Buffer::I64(vec![3, 4]);
        assert_eq!(
            apply_binary_scalar(BinOp::Mul, &i, 2.0, false),
            Buffer::I64(vec![6, 8])
        );
        // fractional scalar promotes, and so does one past 2^53
        assert_eq!(
            apply_binary_scalar(BinOp::Mul, &i, 0.5, false),
            Buffer::F64(vec![1.5, 2.0])
        );
        assert_eq!(
            apply_binary_scalar(BinOp::Mul, &i, 1e20, false),
            Buffer::F64(vec![3e20, 4e20])
        );
    }

    #[test]
    fn integer_modulo_is_total() {
        let x = Buffer::I64(vec![7, -7, 7, i64::MIN]);
        let y = Buffer::I64(vec![3, 3, 0, -1]);
        assert_eq!(
            apply_binary(BinOp::Mod, &x, &y),
            Buffer::I64(vec![1, 2, 0, 0])
        );
        let b = Buffer::Bool(vec![true, false]);
        assert_eq!(apply_binary(BinOp::Mod, &b, &b), Buffer::I64(vec![0, 0]));
    }

    #[test]
    fn hypot_and_atan2() {
        let a = Buffer::F64(vec![3.0]);
        let b = Buffer::F64(vec![4.0]);
        assert_eq!(apply_binary(BinOp::Hypot, &a, &b), Buffer::F64(vec![5.0]));
        let t = apply_binary(BinOp::Atan2, &b, &a);
        assert!((t.as_f64()[0] - (4.0f64).atan2(3.0)).abs() < 1e-15);
    }
}
