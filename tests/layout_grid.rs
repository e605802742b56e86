//! Layout conformance grid (ROADMAP item 3b, after D2O): every
//! distribution strategy must obey the same indexing semantics. Every
//! (Block | Cyclic | BlockCyclic(1, 3, 64)) array is fetched, scattered,
//! redistributed to every other layout, concatenated across layouts and
//! sliced with positive, negative, stepped and empty bounds, at 1–8
//! workers and sizes around the worker count and the block size, 1-D and
//! 2-D, in all three dtypes — and each result is compared lane for lane
//! with a serial `Vec` computation. At
//! every point of the same layout × worker × size grid, the operand
//! aligners get the same treatment: a lazy `Expr` (array and
//! Sum/Max/Min tails), an eager `binary` under each `BinaryStrategy`,
//! `lt`/`select`/`maximum`/`minimum` and the 2-D axis folds, a pyish
//! `Kernel` and a multi-statement `Program`, each with its operands on
//! three different layouts. Both payload arms run, clean and under a
//! seeded fault schedule healed by reliable delivery (`HPC_FAULT_SEED`,
//! swept by ci.sh). Apart from the grid, every kind of command that makes
//! an array must leave each worker's stored meta equal to the master's.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hpc_framework::comm::{Delivery, FaultPlan, UniverseConfig};
use hpc_framework::odin::{
    set_binary_strategy, ArrayMeta, BinOp, BinaryStrategy, Buffer, SliceSpec,
};
use hpc_framework::prelude::*;
use obs::SplitMix64;

const LAYOUTS: [Dist; 5] = [
    Dist::Block,
    Dist::Cyclic,
    Dist::BlockCyclic(1),
    Dist::BlockCyclic(3),
    Dist::BlockCyclic(64),
];
const DTYPES: [DType; 3] = [DType::F64, DType::I64, DType::Bool];
const COLS: usize = 3;

/// Chaos seed, overridable per CI pass: `HPC_FAULT_SEED=43 cargo test …`.
fn fault_seed() -> u64 {
    std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Row counts around the worker count and the 64-row block.
fn sizes(p: usize) -> Vec<usize> {
    let mut ns = vec![0, 1, p - 1, p, 63, 64, 65, 1000];
    ns.sort_unstable();
    ns.dedup();
    ns
}

// ---- the serial side ---------------------------------------------------------

fn random_lanes(rng: &mut SplitMix64, dtype: DType, len: usize) -> Buffer {
    match dtype {
        DType::F64 => Buffer::F64((0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()),
        DType::I64 => Buffer::I64(
            (0..len)
                .map(|_| rng.gen_index(2001) as i64 - 1000)
                .collect(),
        ),
        DType::Bool => Buffer::Bool((0..len).map(|_| rng.gen_bool(0.5)).collect()),
    }
}

/// Rows `rows` x columns `cols` of a row-major `COLS`-wide (or 1-D when
/// `slab == 1`) serial array.
fn take(vals: &Buffer, slab: usize, rows: &[usize], cols: &[usize]) -> Buffer {
    fn pick<T: Copy>(v: &[T], slab: usize, rows: &[usize], cols: &[usize]) -> Vec<T> {
        rows.iter()
            .flat_map(|&r| cols.iter().map(move |&c| v[r * slab + c]))
            .collect()
    }
    match vals {
        Buffer::F64(v) => Buffer::F64(pick(v, slab, rows, cols)),
        Buffer::I64(v) => Buffer::I64(pick(v, slab, rows, cols)),
        Buffer::Bool(v) => Buffer::Bool(pick(v, slab, rows, cols)),
    }
}

/// Python's `range(*slice(start, stop, step).indices(n))` for `step > 0`.
fn py_slice(n: usize, start: isize, stop: Option<isize>, step: usize) -> Vec<usize> {
    let norm = |i: isize| (if i < 0 { i + n as isize } else { i }).clamp(0, n as isize) as usize;
    (norm(start)..norm(stop.unwrap_or(n as isize)))
        .step_by(step)
        .collect()
}

/// Positive, negative, stepped and empty bounds.
fn slice_cases(rng: &mut SplitMix64, n: usize) -> Vec<(isize, Option<isize>, usize)> {
    let r = |rng: &mut SplitMix64| rng.gen_index(2 * n + 3) as isize - n as isize - 1;
    vec![
        (1, None, 1),
        (0, Some(-1), 1),
        (-3, None, 1),
        (2, Some(-2), 3),
        (0, None, 2),
        (3, Some(3), 1),
        (-1, Some(1), 1),
        (r(rng), Some(r(rng)), 1 + rng.gen_index(4)),
        (r(rng), Some(r(rng)), 1 + rng.gen_index(70)),
    ]
}

// ---- the distributed side ------------------------------------------------------

/// Place a serial array on the workers under `dist`, lane by lane through
/// the axis map's own `local_to_global` — no run or route plan involved.
fn scatter<'c>(ctx: &'c OdinContext, vals: &Buffer, shape: &[usize], dist: Dist) -> DistArray<'c> {
    let a = ctx.zeros_dist(shape, vals.dtype(), dist);
    let slab: usize = shape[1..].iter().product();
    let vals = Arc::new(vals.clone());
    ctx.run_spmd(&[&a], move |scope, args| {
        let map = scope.axis_map(args[0]);
        let rows: Vec<usize> = (0..map.my_count())
            .map(|l| map.local_to_global(l))
            .collect();
        let cols: Vec<usize> = (0..slab).collect();
        *scope.local_mut(args[0]) = take(&vals, slab, &rows, &cols);
    });
    a
}

#[track_caller]
fn check(what: &str, got: &DistArray<'_>, want_shape: &[usize], want: &Buffer, case: &str) {
    let (shape, lanes) = got.fetch();
    assert_eq!(shape, want_shape, "{what}: shape, {case}");
    assert_eq!(&lanes, want, "{what}: lanes, {case}");
}

/// `(a·2 + b)·c − |b|`, the body every compute row evaluates.
const BODY: &str = "def body(a, b, c):\n    return (a * 2.0 + b) * c - abs(b)\n";

fn body(a: f64, b: f64, c: f64) -> f64 {
    (a * 2.0 + b) * c - b.abs()
}

/// Multiples of 1/8 in [-4, 4]: every product and every partial sum the
/// compute rows form is exact in f64, so a distributed fold must equal
/// the serial one whatever order the workers combine in.
fn dyadic_lanes(rng: &mut SplitMix64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| (rng.gen_index(65) as f64 - 32.0) / 8.0)
        .collect()
}

/// Non-conformable operands through every aligner: `x`, `y`, `z` sit on
/// three different layouts and each result must land on its template's
/// layout with the serial lanes.
fn compute_rows(ctx: &OdinContext, kernel: &Kernel<'_>, shape: &[usize], rng: &mut SplitMix64) {
    let len: usize = shape.iter().product();
    let [xs, ys, zs] = [(); 3].map(|_| dyadic_lanes(rng, len));
    let lanes = |f: &dyn Fn(usize) -> f64| Buffer::F64((0..len).map(f).collect());
    let full = lanes(&|i| body(xs[i], ys[i], zs[i]));
    let Buffer::F64(serial) = &full else {
        unreachable!()
    };
    // Folds over an empty array are left to the reduction's own tests.
    let folds = [
        (ReduceKind::Sum, serial.iter().sum::<f64>()),
        (
            ReduceKind::Max,
            serial.iter().copied().fold(f64::MIN, f64::max),
        ),
        (
            ReduceKind::Min,
            serial.iter().copied().fold(f64::MAX, f64::min),
        ),
    ];
    let folds = &folds[..if len == 0 { 0 } else { 3 }];
    for (k, la) in LAYOUTS.into_iter().enumerate() {
        let (lb, lc) = (LAYOUTS[(k + 1) % 5], LAYOUTS[(k + 2) % 5]);
        let case = format!(
            "p={} shape={shape:?} on {la:?}, {lb:?}, {lc:?}",
            ctx.n_workers()
        );
        let x = scatter(ctx, &Buffer::F64(xs.clone()), shape, la);
        let y = scatter(ctx, &Buffer::F64(ys.clone()), shape, lb);
        let z = scatter(ctx, &Buffer::F64(zs.clone()), shape, lc);

        let e = || (Expr::leaf(&x) * 2.0 + Expr::leaf(&y)) * Expr::leaf(&z) - Expr::leaf(&y).abs();
        let r = e().eval();
        assert_eq!(r.dist(), la, "Expr::eval: layout, {case}");
        check("Expr::eval", &r, shape, &full, &case);
        let k_map = kernel.map(&[&x, &y, &z]);
        assert_eq!(k_map.dist(), la, "Kernel::map: layout, {case}");
        check("Kernel::map", &k_map, shape, &full, &case);
        for &(kind, want) in folds {
            assert_eq!(e().reduce(kind), want, "Expr::reduce {kind:?}, {case}");
            let got = kernel.map_reduce(&[&x, &y, &z], kind);
            assert_eq!(got, want, "Kernel::map_reduce {kind:?}, {case}");
        }

        // Eager binary: the strategy picks which side moves, never the lanes.
        let auto = if la == Dist::Block || lb != Dist::Block {
            la
        } else {
            lb
        };
        for (strategy, op, want_dist) in [
            (BinaryStrategy::RedistRight, BinOp::Add, la),
            (BinaryStrategy::RedistLeft, BinOp::Sub, lb),
            (BinaryStrategy::Auto, BinOp::Mul, auto),
        ] {
            set_binary_strategy(strategy);
            let r = x.binary(&y, op);
            set_binary_strategy(BinaryStrategy::Auto);
            assert_eq!(r.dist(), want_dist, "binary {strategy:?}: layout, {case}");
            let want = lanes(&|i| match op {
                BinOp::Add => xs[i] + ys[i],
                BinOp::Sub => xs[i] - ys[i],
                _ => xs[i] * ys[i],
            });
            check("binary", &r, shape, &want, &format!("{strategy:?} {case}"));
        }

        // The comparison, selection and extremum ufuncs, and the axis
        // folds of a 2-D operand.
        let mask = x.lt(&y);
        let want = Buffer::Bool((0..len).map(|i| xs[i] < ys[i]).collect());
        check("lt", &mask, shape, &want, &case);
        let want = lanes(&|i| if xs[i] < ys[i] { ys[i] } else { zs[i] });
        check("select", &mask.select(&y, &z), shape, &want, &case);
        let want = lanes(&|i| xs[i].max(ys[i]));
        check("maximum", &x.maximum(&y), shape, &want, &case);
        let want = lanes(&|i| xs[i].min(ys[i]));
        check("minimum", &x.minimum(&y), shape, &want, &case);
        if let [n, cols] = *shape {
            let col_sums = (0..cols).map(|c| (0..n).map(|r| xs[r * cols + c]).sum());
            let want = Buffer::F64(col_sums.collect());
            check("sum_axis(0)", &x.sum_axis(0), &[cols], &want, &case);
            let row_max = xs
                .chunks(cols)
                .map(|r| r.iter().copied().fold(f64::MIN, f64::max));
            let want = Buffer::F64(row_max.collect());
            check("max_axis(1)", &x.max_axis(1), &[n], &want, &case);
        }

        // The same body as three statements: `t1` runs at x's layout, is
        // moved to z's for `t2`, and `t3` with the folds fuses onto it.
        let mut p = ctx.trace();
        let t1 = p.assign(Expr::leaf(&x) * 2.0 + Expr::leaf(&y));
        let t2 = p.assign(Expr::leaf(&z) * Expr::from(t1));
        let t3 = p.assign(Expr::from(t2) - Expr::leaf(&y).abs());
        let tails = folds.iter().map(|&(kind, _)| p.reduce(t3, kind));
        let tails: Vec<TracedScalar> = tails.collect();
        let mut run = p.run(&[t1, t3]);
        let (r1, r3) = (run.array(t1), run.array(t3));
        assert_eq!((r1.dist(), r3.dist()), (la, lc), "Program: layouts, {case}");
        let want1 = lanes(&|i| xs[i] * 2.0 + ys[i]);
        check("Program t1", &r1, shape, &want1, &case);
        check("Program t3", &r3, shape, &full, &case);
        for (tail, &(kind, want)) in tails.iter().zip(folds) {
            assert_eq!(run.scalar(*tail), want, "Program {kind:?}, {case}");
        }
    }
}

/// One context's share of the grid: every layout pair, slice, dtype and
/// dimensionality at each row count in `ns`.
fn run_grid(ctx: &OdinContext, ns: &[usize], rng: &mut SplitMix64) {
    let p = ctx.n_workers();
    let kernel = ctx.compile_kernel(BODY, "body").unwrap();
    for &n in ns {
        compute_rows(ctx, &kernel, &[n], rng);
        compute_rows(ctx, &kernel, &[n, COLS], rng);
        for (slab, dtype) in [1, COLS].into_iter().flat_map(|s| DTYPES.map(|d| (s, d))) {
            let shape = if slab == 1 { vec![n] } else { vec![n, slab] };
            let vals = random_lanes(rng, dtype, n * slab);
            let all_cols: Vec<usize> = (0..slab).collect();
            for src in LAYOUTS {
                let case = format!("p={p} n={n} slab={slab} {dtype:?} from {src:?}");
                let a = scatter(ctx, &vals, &shape, src);
                check("fetch", &a, &shape, &vals, &case);
                for dst in LAYOUTS.into_iter().filter(|&d| d != src) {
                    let b = a.redistribute(dst);
                    assert_eq!(b.dist(), dst);
                    check(
                        "redistribute",
                        &b,
                        &shape,
                        &vals,
                        &format!("{case} to {dst:?}"),
                    );
                }
                for (start, stop, step) in slice_cases(rng, n) {
                    let rows = py_slice(n, start, stop, step);
                    let case = format!("{case} [{start}:{stop:?}:{step}]");
                    if slab == 1 {
                        let s = a.slice1(start, stop, step);
                        assert_eq!(s.dist(), src);
                        let want = take(&vals, 1, &rows, &[0]);
                        check("slice1", &s, &[rows.len()], &want, &case);
                        continue;
                    }
                    // 2-D: the same row bounds, with whole and partial rows
                    let row_spec = match rows.first() {
                        Some(&first) => SliceSpec::new(first, rows[rows.len() - 1] + 1, step),
                        None => SliceSpec::new(0, 0, step),
                    };
                    for col_spec in [SliceSpec::full(slab), SliceSpec::new(0, slab, 2)] {
                        let cols: Vec<usize> = all_cols
                            .iter()
                            .copied()
                            .filter(|&c| col_spec.contains(c))
                            .collect();
                        let s = a.slice(&[row_spec, col_spec]);
                        let want = take(&vals, slab, &rows, &cols);
                        check("slice", &s, &[rows.len(), cols.len()], &want, &case);
                    }
                }
                // master-side scatter and the typed read-outs
                if slab == 1 {
                    let wide: Vec<f64> = (0..n).map(|i| vals.get_f64(i)).collect();
                    let ints: Vec<i64> = (0..n).map(|i| vals.get_i64(i)).collect();
                    assert_eq!(a.to_vec(), wide, "to_vec, {case}");
                    assert_eq!(a.to_vec_i64(), ints, "to_vec_i64, {case}");
                    if dtype == DType::F64 {
                        let back = ctx.from_vec(&wide, src);
                        assert_eq!(back.dist(), src);
                        check("from_vec", &back, &shape, &vals, &case);
                    }
                    // concat across layouts, typed end to end: the i64 tail
                    // sits above 2^53, where a detour through f64 rounds it
                    let mut tail = vals.clone();
                    if let Buffer::I64(lanes) = &mut tail {
                        lanes.iter_mut().for_each(|v| *v += 94_906_267 * 94_906_267);
                    }
                    let next = LAYOUTS.iter().position(|&l| l == src).unwrap() + 1;
                    let b = scatter(ctx, &tail, &shape, LAYOUTS[next % LAYOUTS.len()]);
                    let joined = a.concat(&b);
                    assert_eq!(joined.dist(), Dist::Block);
                    let want = Buffer::concat(vec![vals.clone(), tail]);
                    check("concat", &joined, &[2 * n], &want, &case);
                }
            }
        }
    }
}

fn clean_grid(threshold: usize) {
    let mut rng = SplitMix64::new(0x1a70_0713);
    for p in 1..=8 {
        let ctx = OdinContext::new(OdinConfig {
            n_workers: p,
            universe: UniverseConfig::default().with_zerocopy_threshold(threshold),
            ..Default::default()
        });
        run_grid(&ctx, &sizes(p), &mut rng);
    }
}

#[test]
fn every_layout_matches_the_serial_oracle_on_the_region_arm() {
    clean_grid(1);
}

#[test]
fn every_layout_matches_the_serial_oracle_on_the_encode_arm() {
    clean_grid(usize::MAX);
}

#[test]
fn layouts_hold_under_seeded_chaos_on_both_arms() {
    // Swept over HPC_FAULT_SEED by ci.sh. Worker-to-worker segments are
    // dropped, duplicated and delayed per the seed (and corrupted, which
    // only exists on the encode arm); reliable delivery must heal every
    // schedule. A thinner grid: each recovery costs a retransmit timeout.
    let mut rng = SplitMix64::new(fault_seed());
    for threshold in [1, usize::MAX] {
        for (p, n) in [(2, 65), (3, 2), (5, 65)] {
            let ctx = OdinContext::new(OdinConfig {
                n_workers: p,
                universe: UniverseConfig::default()
                    .with_zerocopy_threshold(threshold)
                    .with_fault(FaultPlan::messages(fault_seed(), 0.08, 0.04, 0.04, 0.03))
                    .with_delivery(Delivery::Reliable)
                    .with_stall_timeout(Duration::from_secs(10)),
                ..Default::default()
            });
            run_grid(&ctx, &[n], &mut rng);
        }
    }
}

/// What each worker stored for `a`, in rank order: its meta and its
/// segment's dtype and length.
fn stored(ctx: &OdinContext, a: &DistArray<'_>) -> Vec<(ArrayMeta, DType, usize)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    ctx.run_spmd(&[a], move |scope, ids| {
        let (meta, seg) = (scope.meta(ids[0]).clone(), scope.local(ids[0]));
        let row = (scope.rank(), meta, seg.dtype(), seg.len());
        sink.lock()
            .expect("a worker panicked holding the sink")
            .push(row);
    });
    let mut seen = seen.lock().expect("workers are done").clone();
    seen.sort_by_key(|row| row.0);
    seen.into_iter().map(|(_, m, d, n)| (m, d, n)).collect()
}

#[test]
fn master_and_workers_agree_on_every_result() {
    for p in [1, 3, 4] {
        let ctx = OdinContext::with_workers(p);
        let grid = ctx.random_dist(&[7, 3], 5, Dist::Cyclic);
        let flags = ctx.random_dist(&[7, 3], 6, Dist::BlockCyclic(2)).lt(&grid);
        let vals: Vec<f64> = (0..10).map(f64::from).collect();
        let line = ctx.from_vec(&vals, Dist::BlockCyclic(3));
        let mask = line.binary_scalar(4.5, BinOp::Gt, false);
        let kernel = ctx.compile_kernel(BODY, "body").expect("BODY compiles");
        let mut prog = ctx.trace();
        let t1 = prog.assign(Expr::leaf(&grid) * 2.0 + Expr::leaf(&grid));
        let t2 = prog.assign(Expr::from(t1) - Expr::leaf(&grid).abs());
        let mut run = prog.run(&[t1, t2]);
        assert_eq!(run.stats().kernel_launches, 1, "t1 and t2 fuse");
        let results = [
            ("Create", ctx.zeros_dist(&[5, 2], DType::I64, Dist::Cyclic)),
            ("SetData", ctx.from_vec(&vals, Dist::Cyclic)),
            ("Redistribute", grid.redistribute(Dist::BlockCyclic(2))),
            (
                "Slice",
                grid.slice(&[SliceSpec::new(1, 7, 2), SliceSpec::new(0, 3, 2)]),
            ),
            ("Reduce axis 0", flags.sum_axis(0)),
            ("Reduce axis 1", grid.max_axis(1)),
            ("CumSum", mask.cumsum()),
            ("Concat", mask.concat(&line)),
            ("MatMul", grid.matmul(&ctx.random(&[3, 2], 7))),
            ("eager ufunc", flags),
            ("Kernel::map", kernel.map(&[&grid, &grid, &grid])),
            ("Program t1", run.array(t1)),
            ("Program t2", run.array(t2)),
        ];
        for (what, a) in &results {
            let want = a.meta();
            for (rank, (meta, dtype, len)) in stored(&ctx, a).into_iter().enumerate() {
                let case = format!("{what}, worker {rank} of {p}");
                assert_eq!(meta, want, "meta, {case}");
                assert_eq!(dtype, want.dtype, "segment dtype, {case}");
                assert_eq!(len, want.local_len(p, rank), "segment length, {case}");
            }
        }
    }
}
