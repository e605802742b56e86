//! The eager ufuncs against the serial oracle: every `UnaryOp` and
//! `BinOp` over every operand dtype, as array∘array and with a scalar on
//! either side, plus every `astype`. Each eager result runs as a one-op
//! kernel on the workers; `odin::reference::eval` computes the same node
//! over whole fetched arrays on the master. They must agree in dtype and
//! bit for bit. Run it on both kernel tiers: `cargo test --test
//! eager_grid`, then again with `HPC_KERNEL_TIER=vm`.

use std::sync::Arc;

use hpc_framework::odin::{
    reference, BinOp, Buffer, DType, DistArray, Expr, LocalFn, OdinContext, UnaryOp,
};

const UNARY: [UnaryOp; 11] = {
    use UnaryOp::*;
    [Neg, Abs, Not, Sin, Cos, Tan, Exp, Log, Sqrt, Floor, Ceil]
};

const BINARY: [BinOp; 18] = {
    use BinOp::*;
    [
        Add, Sub, Mul, Div, Pow, Mod, Max, Min, Hypot, Atan2, Eq, Ne, Lt, Le, Gt, Ge, And, Or,
    ]
};

const DTYPES: [DType; 3] = [DType::F64, DType::I64, DType::Bool];

/// Each dtype's operand values. A left operand repeats each value `N`
/// times and a right operand tiles the list, so array∘array cases see
/// every ordered pair.
const N: usize = 16;

const F64S: [f64; N] = [
    -0.0,
    0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -2.5,
    3.0,
    -7.0,
    0.5,
    1e300,
    -1e-300,
    9007199254740994.0, // 2^53 + 2: integral, past the i64-exact range
    2.0,
    -0.75,
    7.0,
];

/// Past 2^53 (not exact in f64), wrapping overflow at both ends, and
/// zero and negative divisors for `Mod`.
const I64S: [i64; N] = [
    0,
    1,
    -1,
    3,
    -3,
    7,
    -7,
    i64::MAX,
    i64::MIN,
    (1 << 53) + 1,
    -(1 << 53) - 3,
    1 << 62,
    2,
    -2,
    5,
    0,
];

const BOOLS: [bool; N] = [
    false, true, true, false, true, false, false, true, true, true, false, false, true, false,
    true, false,
];

/// Integral literals (`I64` scalars) and the rest (`F64` scalars:
/// fractions, past 2^53, NaN, ±inf).
const SCALARS: [f64; 12] = [
    0.0,
    -0.0,
    3.0,
    -2.0,
    9007199254740991.0, // 2^53 - 1: still I64
    2.5,
    -0.75,
    1e20,
    9007199254740992.0, // 2^53: F64
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// `n` values of `dtype`, the `k`-th being entry `pick(k)` of the list.
fn values(dtype: DType, n: usize, pick: impl Fn(usize) -> usize) -> Buffer {
    match dtype {
        DType::F64 => Buffer::F64((0..n).map(|k| F64S[pick(k)]).collect()),
        DType::I64 => Buffer::I64((0..n).map(|k| I64S[pick(k)]).collect()),
        DType::Bool => Buffer::Bool((0..n).map(|k| BOOLS[pick(k)]).collect()),
    }
}

/// A block-distributed array holding exactly `data`, written segment by
/// segment by a local-mode function (so no ufunc touches the inputs).
fn array<'c>(ctx: &'c OdinContext, data: Buffer) -> DistArray<'c> {
    let a = ctx.arange(data.len()).astype(data.dtype());
    let fill: LocalFn = Arc::new(move |scope, ids, _| {
        let runs = scope.axis_map(ids[0]).local_runs();
        *scope.local_mut(ids[0]) = data.gather_runs(&runs, 1);
    });
    let f = ctx.register_local(fill);
    ctx.call_local(f, &[a.id()], &[]);
    a
}

/// Raw bits per element, so NaN payloads and signed zeros compare.
fn bits(b: &Buffer) -> Vec<u64> {
    (0..b.len())
        .map(|i| match b {
            Buffer::F64(v) => v[i].to_bits(),
            _ => b.get_i64(i) as u64,
        })
        .collect()
}

fn check(case: &str, got: &DistArray, oracle: Buffer) {
    let data = got.fetch().1;
    assert_eq!(got.dtype(), oracle.dtype(), "{case}: recorded dtype");
    assert_eq!(data.dtype(), oracle.dtype(), "{case}: stored dtype");
    assert_eq!(bits(&data), bits(&oracle), "{case}: values");
}

#[test]
fn every_eager_ufunc_matches_the_serial_oracle_bitwise() {
    let ctx = OdinContext::with_workers(3);
    let n = N * N;
    let lhs: Vec<DistArray> = DTYPES
        .iter()
        .map(|&d| array(&ctx, values(d, n, |k| k / N)))
        .collect();
    let rhs: Vec<DistArray> = DTYPES
        .iter()
        .map(|&d| array(&ctx, values(d, n, |k| k % N)))
        .collect();
    let leaf = Expr::leaf;
    let oracle = |e: &Expr| reference::eval(e).expect("an expression over arrays");
    for a in &lhs {
        let da = a.dtype();
        assert_eq!(bits(&a.fetch().1), bits(&values(da, n, |k| k / N)));
        for op in UNARY {
            let want = oracle(&Expr::Unary(op, Box::new(leaf(a))));
            check(&format!("{op:?} {da:?}"), &a.unary(op), want);
        }
        for to in DTYPES {
            check(
                &format!("astype {da:?} -> {to:?}"),
                &a.astype(to),
                a.fetch().1.astype(to),
            );
        }
        for op in BINARY {
            for b in &rhs {
                let want = oracle(&Expr::Binary(op, Box::new(leaf(a)), Box::new(leaf(b))));
                let case = format!("{da:?} {op:?} {:?}", b.dtype());
                check(&case, &a.binary(b, op), want);
            }
            for s in SCALARS {
                let s_ = || Box::new(Expr::Scalar(s));
                let want = oracle(&Expr::Binary(op, Box::new(leaf(a)), s_()));
                check(
                    &format!("{da:?} {op:?} {s:?}"),
                    &a.binary_scalar(s, op, false),
                    want,
                );
                let want = oracle(&Expr::Binary(op, s_(), Box::new(leaf(a))));
                check(
                    &format!("{s:?} {op:?} {da:?}"),
                    &a.binary_scalar(s, op, true),
                    want,
                );
            }
        }
    }
}

#[test]
fn an_integral_literal_past_2_pow_53_makes_an_f64_result() {
    // The master used to type any integral literal `I64` while the
    // workers stored `F64` past 2^53, so reading the result back
    // panicked ("copy of F64 into I64").
    let ctx = OdinContext::with_workers(2);
    let x = ctx.arange(8);
    let y = &x * 1e20;
    assert_eq!(y.dtype(), DType::F64);
    let want: Vec<f64> = (0..8).map(|i| i as f64 * 1e20).collect();
    assert_eq!(y.to_vec(), want);
    let z = &x + 9007199254740991.0; // 2^53 - 1 keeps the array integral
    assert_eq!(z.dtype(), DType::I64);
    assert_eq!(z.to_vec_i64()[7], 9007199254740998);
}
