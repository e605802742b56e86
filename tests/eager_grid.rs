//! The eager ufuncs against the serial oracle: every `UnaryOp` and
//! `BinOp` over every operand dtype, as array∘array and with a scalar on
//! either side, every `astype`, and `where` over every dtype triple. Each
//! eager result is a recorded statement the observation that fetches it
//! runs as a kernel on the workers; `odin::reference` computes the same
//! node over whole fetched arrays on the master. They must agree in dtype
//! and bit for bit. Run it on both kernel tiers: `cargo test --test
//! eager_grid`, then again with `HPC_KERNEL_TIER=vm`. The trace's own
//! rules close the file: an `Expr` keeps the i64 lanes past 2^53, a
//! dropped temporary fuses into its reader, and a dropped result
//! launches nothing.

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

/// An unknown function or array id is the caller's mistake: the master
/// refuses the call where it is made, naming the id, and posts nothing,
/// so the pool keeps serving.
#[test]
fn call_local_with_an_unknown_id_panics_at_the_call_site() {
    let ctx = OdinContext::with_workers(2);
    let a = ctx.arange(8);
    let f = ctx.register_local(Arc::new(|_, _, _| {}));
    for (fn_id, arg, unknown) in [(f + 99, a.id(), f + 99), (f, a.id() + 99, a.id() + 99)] {
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.call_local(fn_id, &[arg], &[])
        }))
        .expect_err("an unknown id is refused");
        let msg = refused
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.contains(&unknown.to_string()), "{msg}");
    }
    assert!(ctx.dead_workers().is_empty());
    assert_eq!(a.sum(), 28.0);
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

#[test]
fn where_matches_the_serial_oracle_over_every_dtype_triple() {
    // Conditions include a fraction (0.5 is true), NaN (true), `-0.0`
    // (false) and i64 zeros; branches include NaN payloads, signed zeros
    // and i64 values past 2^53. Every condition entry meets every `a`
    // entry, each time with a `b` entry other than `a`'s.
    let ctx = OdinContext::with_workers(3);
    let n = N * N;
    let conds: Vec<DistArray> = DTYPES
        .iter()
        .map(|&d| array(&ctx, values(d, n, |k| k / N)))
        .collect();
    let branches: Vec<(DistArray, DistArray)> = DTYPES
        .iter()
        .map(|&d| {
            let a = array(&ctx, values(d, n, |k| k % N));
            let b = array(&ctx, values(d, n, |k| (k * 7 + 3) % N));
            (a, b)
        })
        .collect();
    for c in &conds {
        for (a, _) in &branches {
            for (_, b) in &branches {
                let case = format!("where({:?}, {:?}, {:?})", c.dtype(), a.dtype(), b.dtype());
                let want = reference::select(&c.fetch().1, &a.fetch().1, &b.fetch().1);
                check(&case, &c.select(a, b), want);
            }
        }
    }
}

const BIG: i64 = 1 << 53;

#[test]
fn i64_cumsum_stays_exact_past_2_pow_53() {
    let ctx = OdinContext::with_workers(2);
    let x = array(&ctx, Buffer::I64(vec![BIG, 1, 1, 1]));
    let c = x.cumsum();
    assert_eq!(c.dtype(), DType::I64);
    assert_eq!(c.to_vec_i64(), vec![BIG, BIG + 1, BIG + 2, BIG + 3]);
    // wrapping, like NumPy's int64
    let w = array(&ctx, Buffer::I64(vec![i64::MAX, 1, 1]));
    assert_eq!(
        w.cumsum().to_vec_i64(),
        vec![i64::MAX, i64::MIN, i64::MIN + 1]
    );
}

#[test]
fn i64_argmax_and_argmin_compare_exactly_past_2_pow_53() {
    let ctx = OdinContext::with_workers(2);
    let x = array(&ctx, Buffer::I64(vec![BIG, BIG + 1, 0, 0]));
    assert_eq!(x.argmax(), 1);
    let y = array(&ctx, Buffer::I64(vec![0, 0, -BIG - 1, -BIG]));
    assert_eq!(y.argmin(), 2);
}

#[test]
fn i64_where_stays_exact_past_2_pow_53() {
    let ctx = OdinContext::with_workers(2);
    let c = array(&ctx, Buffer::Bool(vec![true, false, true, false]));
    let a = array(&ctx, Buffer::I64(vec![BIG + 1; 4]));
    let b = array(&ctx, Buffer::I64(vec![-BIG - 3; 4]));
    let r = c.select(&a, &b);
    assert_eq!(r.dtype(), DType::I64);
    assert_eq!(r.to_vec_i64(), vec![BIG + 1, -BIG - 3, BIG + 1, -BIG - 3]);
}

#[test]
fn i64_axis_reductions_stay_exact_past_2_pow_53() {
    // Rows [2^53, 1] and [1, 2^53 + 1]: folded on f64 lanes, every sum
    // and every max here rounds to 2^53.
    let ctx = OdinContext::with_workers(2);
    let x = ctx.zeros(&[2, 2], DType::I64);
    let rows = Buffer::I64(vec![BIG, 1, 1, BIG + 1]);
    ctx.run_spmd(&[&x], move |scope, ids| {
        let runs = scope.axis_map(ids[0]).local_runs();
        *scope.local_mut(ids[0]) = rows.gather_runs(&runs, 2);
    });
    for axis in [0, 1] {
        let sums = x.sum_axis(axis);
        assert_eq!(sums.dtype(), DType::I64);
        assert_eq!(sums.to_vec_i64(), [BIG + 1, BIG + 2], "sum_axis({axis})");
        let maxes = x.max_axis(axis).to_vec_i64();
        assert_eq!(maxes, [BIG, BIG + 1], "max_axis({axis})");
    }
}

#[test]
fn i64_expr_eval_stays_exact_past_2_pow_53() {
    // An `Expr` over I64 operands runs on i64 lanes like the eager ops it
    // is made of; on f64 lanes 2^53 + 1 + 1 rounds to 2^53.
    let ctx = OdinContext::with_workers(2);
    let x = array(&ctx, Buffer::I64(vec![BIG + 1; 4]));
    let one = array(&ctx, Buffer::I64(vec![1; 4]));
    let want = vec![BIG + 2; 4];
    for e in [
        Expr::leaf(&x) + Expr::leaf(&one),
        Expr::leaf(&x) + 1.0,
        -(-Expr::leaf(&x) - Expr::leaf(&one)),
    ] {
        let fused = e.eval();
        assert_eq!(fused.dtype(), DType::I64);
        assert_eq!(fused.to_vec_i64(), want, "Expr::eval");
        assert_eq!(reference::eval(&e).unwrap().as_i64(), want, "oracle");
    }
    assert_eq!((&x + &one).to_vec_i64(), want, "eager");
}

/// Warm-up, then one run of `program` with the master's command counters
/// reset: what it returns and the stats it left.
fn measured<T>(ctx: &OdinContext, program: impl Fn() -> T) -> (T, u64) {
    drop(program());
    ctx.barrier();
    ctx.reset_stats();
    let out = program();
    (out, ctx.stats().ctrl_msgs)
}

#[test]
fn a_dropped_temporary_fuses_into_its_reader_and_the_fold() {
    // `t` is dropped before anything observes it, so the flush the sum
    // forces computes it in registers: one EvalKernel broadcast, bit for
    // bit the run that flushes after every statement.
    const WORKERS: u64 = 3;
    let ctx = OdinContext::with_workers(WORKERS as usize);
    let x = ctx.linspace(0.5, 1.5, 301);
    let y = ctx.linspace(-1.0, 2.0, 301);
    let program = |flush: bool| {
        let flush = || {
            if flush {
                ctx.flush_batch();
            }
        };
        let t = &x * &y;
        flush();
        let u = &t + 1.0;
        flush();
        drop(t);
        flush();
        let sum = u.sum();
        (sum.to_bits(), u)
    };
    let ((fused, u), ctrl) = measured(&ctx, || program(false));
    assert_eq!(ctrl, WORKERS, "one broadcast: the fused launch");
    let ((stepped, v), stepped_ctrl) = measured(&ctx, || program(true));
    assert!(stepped_ctrl > ctrl, "{stepped_ctrl} vs {ctrl}");
    assert_eq!(fused, stepped);
    let lanes = |a: &DistArray| a.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(lanes(&u), lanes(&v));
}

#[test]
fn a_result_dropped_before_any_observation_launches_nothing() {
    const WORKERS: u64 = 2;
    let ctx = OdinContext::with_workers(WORKERS as usize);
    let x = ctx.linspace(0.0, 1.0, 64);
    let ((), ctrl) = measured(&ctx, || {
        drop(&x + 1.0);
        drop((&x * &x).sqrt().sum_async());
        ctx.barrier();
    });
    assert_eq!(ctrl, WORKERS, "only the barrier's ping");
}
