//! Slices are views (DESIGN §8). `y.slice1(1, None, 1)` records a view
//! and posts nothing; the next flush reads a view that is dropped by then
//! in place, as a row window of its Block base, when a launch reads it at
//! its own Block geometry, and materializes every other view with
//! `Cmd::Slice`. The grid holds the in-place windows bit for bit to the
//! serial oracle (`odin::reference`, over arrays scattered from master
//! slices, so no route or window is shared) and to the same code with
//! `flush_batch()` after every statement, whose views are held at their
//! flush and so materialized. The rest of the file pins the counts, the
//! fallbacks and the lifetimes: a view held past a flush, views of Cyclic
//! and BlockCyclic bases, stepped and trailing-dimension slices, views
//! named by other commands, a base dropped or overwritten behind a view,
//! a view of a view and a view of a pending base. Run it on both kernel
//! tiers (`HPC_KERNEL_TIER=vm` too).

use std::sync::Arc;

use hpc_framework::odin::{
    reference, set_binary_strategy, ArrayMeta, BinaryStrategy, Buffer, ContextStats, Expr,
    ReduceKind, SliceSpec,
};
use hpc_framework::prelude::*;

const DTYPES: [DType; 3] = [DType::F64, DType::I64, DType::Bool];

/// Every lane's exact bits, whatever the dtype.
fn bits(b: &Buffer) -> Vec<u64> {
    match b {
        Buffer::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Buffer::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Buffer::Bool(v) => v.iter().map(|&x| u64::from(x)).collect(),
    }
}

/// Halves in [-20, 28], zero among them: the I64 cast truncates them and
/// the Bool cast sees both truth values.
fn lanes(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(seed * 977) % 97) as f64 * 0.5 - 20.0)
        .collect()
}

/// `vals` as a resident Block array of `dtype`: cast by a whole-array
/// kernel, never through a slice.
fn base<'c>(ctx: &'c OdinContext, vals: &[f64], dtype: DType) -> DistArray<'c> {
    let a = ctx.from_vec(vals, Dist::Block).astype(dtype);
    ctx.flush_batch();
    a
}

/// The serial oracle of `vals[lo] - vals2[hi]` in `dtype`: both windows
/// scattered from the master as arrays of their own, the difference taken
/// on the master.
fn oracle(
    ctx: &OdinContext,
    (ys, lo): (&[f64], SliceSpec),
    (zs, hi): (&[f64], SliceSpec),
    dtype: DType,
) -> Buffer {
    let l = base(ctx, &ys[lo.start..lo.stop], dtype);
    let r = base(ctx, &zs[hi.start..hi.stop], dtype);
    reference::eval(&(Expr::leaf(&l) - Expr::leaf(&r))).unwrap()
}

/// `buf` cut into the segments a Block array of it has on `p` workers.
fn segments(buf: &Buffer, p: usize) -> Vec<Buffer> {
    let meta = ArrayMeta {
        shape: vec![buf.len()],
        dist: Dist::Block,
        dtype: buf.dtype(),
    };
    (0..p)
        .map(|w| buf.gather_runs(&meta.axis_map(p, w).local_runs(), 1))
        .collect()
}

/// Row counts below, at and past the pool width, and segments of about
/// one and two 4096-lane chunks on every worker: a window's ghost lanes
/// then land on either side of a chunk edge, and the chunks between its
/// ends are read in place.
fn sizes(p: usize) -> Vec<usize> {
    let mut ns = vec![0, 1, p - 1, p, p + 1, 7, 13];
    ns.extend([2, 3, 4 + p].map(|k| 4096 * p + k));
    ns.extend([0, 2, 5].map(|k| 2 * 4096 * p + k));
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// Windows `y[a:n-b]` and `z[c:n-d]` of one length, offsets −2…2: every
/// `a, b, c, d` in `0..=2` on small arrays, one per offset on large ones.
fn windows(n: usize) -> Vec<(usize, usize, usize, usize)> {
    let all = (0..81).map(|k| (k / 27, k / 9 % 3, k / 3 % 3, k % 3));
    let some = [
        (0, 2, 2, 0),
        (0, 1, 1, 0),
        (1, 1, 1, 1),
        (1, 0, 0, 1),
        (2, 0, 0, 2),
    ];
    let fit = |&(a, b, c, d): &(usize, usize, usize, usize)| a + b == c + d && a + b <= n;
    if n < 64 {
        all.filter(fit).collect()
    } else {
        some.into_iter().filter(fit).collect()
    }
}

#[test]
fn a_shifted_difference_posts_no_slice_and_runs_one_launch() {
    let ctx = OdinContext::with_workers(2);
    let ys = lanes(101, 3);
    let y = ctx.from_vec(&ys, Dist::Block);
    drop(&y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1)); // nothing read it
    assert_eq!(ctx.stats().kernel_launches, 0);
    let warm = &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1);
    drop(warm.redistribute(Dist::Cyclic)); // registers the kernel
    ctx.barrier();
    let base = ctx.stats();
    let d = &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1);
    let c = d.redistribute(Dist::Cyclic);
    let st = ctx.stats() - base;
    // One launch and one redistribute per worker: no `Cmd::Slice` and no
    // `Free` of a materialized slice.
    assert_eq!((st.kernel_launches, st.ctrl_msgs), (1, 2 * 2), "{st:?}");
    assert_eq!(st.slices_materialized, 0, "{st:?}");
    let want: Vec<u64> = ys.windows(2).map(|w| (w[1] - w[0]).to_bits()).collect();
    assert_eq!(bits(&Buffer::F64(c.to_vec())), want);
}

#[test]
fn a_view_held_across_a_barrier_is_materialized_once_and_still_reads_correctly() {
    let ctx = OdinContext::with_workers(3);
    let ys = lanes(50, 4);
    let y = ctx.from_vec(&ys, Dist::Block);
    let base = ctx.stats();
    let v = y.slice1(1, None, 1);
    ctx.barrier();
    ctx.barrier();
    let doubled = &v * 2.0;
    let want: Vec<u64> = ys[1..].iter().map(|x| (x * 2.0).to_bits()).collect();
    assert_eq!(bits(&Buffer::F64(doubled.to_vec())), want);
    assert_eq!(v.to_vec(), ys[1..]);
    let st = ctx.stats() - base;
    assert_eq!(st.slices_materialized, 1, "{st:?}");
}

#[test]
fn windows_read_in_place_match_the_oracle_and_the_flushed_twin() {
    let mut cases = 0;
    for p in 1..=4 {
        let ctx = OdinContext::with_workers(p);
        for n in sizes(p) {
            let (ys, zs) = (lanes(n, 1), lanes(n, 2));
            for dtype in DTYPES {
                let (y, z) = (base(&ctx, &ys, dtype), base(&ctx, &zs, dtype));
                for (a, b, c, d) in windows(n) {
                    let (lo, hi) = (SliceSpec::new(a, n - b, 1), SliceSpec::new(c, n - d, 1));
                    let case = format!("p={p} n={n} {dtype:?} y[{a}:n-{b}] - z[{c}:n-{d}]");
                    let want = bits(&oracle(&ctx, (&ys, lo), (&zs, hi), dtype));
                    // The twin holds each view across a flush.
                    let base = ctx.stats();
                    let (l, r) = (y.slice(&[lo]), z.slice(&[hi]));
                    ctx.flush_batch();
                    let t = &l - &r;
                    ctx.flush_batch();
                    let twin = ctx.stats() - base;
                    assert_eq!(bits(&t.fetch().1), want, "twin, {case}");
                    assert_eq!(twin.slices_materialized, 2, "{case}: {twin:?}");
                    drop((l, r, t));
                    let base = ctx.stats();
                    let f = &y.slice(&[lo]) - &z.slice(&[hi]);
                    ctx.flush_batch();
                    let st = ctx.stats() - base;
                    assert_eq!(bits(&f.fetch().1), want, "fused, {case}");
                    assert_eq!(
                        (st.slices_materialized, st.kernel_launches),
                        (0, 1),
                        "{case}: {st:?}"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 1000, "{cases} cases");
}

#[test]
fn a_fold_rides_the_windowed_launch_in_the_reference_order() {
    for p in 1..=4 {
        let ctx = OdinContext::with_workers(p);
        for n in [2, p + 3, 4096 * p + 3] {
            let (ys, zs) = (lanes(n, 5), lanes(n, 6));
            for dtype in DTYPES {
                let (y, z) = (base(&ctx, &ys, dtype), base(&ctx, &zs, dtype));
                let (lo, hi) = (SliceSpec::new(2, n, 1), SliceSpec::new(0, n - 2, 1));
                let diff = oracle(&ctx, (&ys, lo), (&zs, hi), dtype);
                let want = reference::fold(ReduceKind::Sum, &segments(&diff, p)).to_bits();
                let twin = {
                    let (l, r) = (y.slice(&[lo]), z.slice(&[hi]));
                    ctx.flush_batch();
                    let t = &l - &r;
                    ctx.flush_batch();
                    t.sum().to_bits()
                };
                let base = ctx.stats();
                let s = (&y.slice(&[lo]) - &z.slice(&[hi])).sum_async();
                let got = s.wait().to_bits();
                let st = ctx.stats() - base;
                assert_eq!((got, twin), (want, want), "p={p} n={n} {dtype:?}");
                assert_eq!(
                    (st.kernel_launches, st.slices_materialized),
                    (1, 0),
                    "{st:?}"
                );
            }
        }
    }
}

#[test]
fn whole_row_windows_of_a_2d_base_read_in_place() {
    const COLS: usize = 3;
    for p in 1..=4 {
        let ctx = OdinContext::with_workers(p);
        for n in [1, p, 7, 13] {
            let (y, z) = (ctx.random(&[n, COLS], 7), ctx.random(&[n, COLS], 8));
            let (ys, zs) = (y.to_vec(), z.to_vec());
            for (a, b, c, d) in windows(n) {
                let rows =
                    |s: usize, e: usize| [SliceSpec::new(s, n - e, 1), SliceSpec::full(COLS)];
                let want: Vec<u64> = (0..(n - a - b) * COLS)
                    .map(|k| (ys[a * COLS + k] - zs[c * COLS + k]).to_bits())
                    .collect();
                let base = ctx.stats();
                let f = &y.slice(&rows(a, b)) - &z.slice(&rows(c, d));
                ctx.flush_batch();
                assert_eq!((ctx.stats() - base).slices_materialized, 0);
                let (shape, got) = f.fetch();
                assert_eq!(shape, vec![n - a - b, COLS]);
                assert_eq!(bits(&got), want, "p={p} n={n} ({a}, {b}, {c}, {d})");
            }
        }
    }
}

/// Fetch `a` and compare it lane for lane with `want`.
#[track_caller]
fn assert_lanes(a: &DistArray<'_>, want: &[f64]) {
    assert_eq!(
        bits(&Buffer::F64(a.to_vec())),
        bits(&Buffer::F64(want.to_vec()))
    );
}

/// What a flush of the statements since the `base` snapshot
/// materialized.
fn materialized(ctx: &OdinContext, base: ContextStats) -> ContextStats {
    ctx.flush_batch();
    ctx.stats() - base
}

#[test]
fn views_that_cannot_be_read_in_place_are_materialized_by_the_flush() {
    let ctx = OdinContext::with_workers(3);
    let n = 40;
    let ys = lanes(n, 9);
    let diff: Vec<f64> = ys.windows(2).map(|w| w[1] - w[0]).collect();
    // Cyclic and BlockCyclic bases: each view is one `Cmd::Slice`.
    for dist in [Dist::Cyclic, Dist::BlockCyclic(4)] {
        let y = ctx.from_vec(&ys, dist);
        let base = ctx.stats();
        let d = &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1);
        assert_eq!(materialized(&ctx, base).slices_materialized, 2, "{dist:?}");
        assert_lanes(&d, &diff);
        // `odin_shuffle`'s fetch of a view of a BlockCyclic array.
        assert_lanes(&y.slice1(0, Some(16), 1), &ys[..16]);
    }
    let y = ctx.from_vec(&ys, Dist::Block);
    // A row step.
    let base = ctx.stats();
    let e = &y.slice1(0, None, 2) + 1.0;
    assert_eq!(materialized(&ctx, base).slices_materialized, 1);
    let evens: Vec<f64> = ys.iter().step_by(2).map(|x| x + 1.0).collect();
    assert_lanes(&e, &evens);
    // A view read at another geometry than its own.
    let c = ctx.from_vec(&diff, Dist::Cyclic);
    let base = ctx.stats();
    set_binary_strategy(BinaryStrategy::RedistRight);
    let d = &c - &y.slice1(1, None, 1);
    set_binary_strategy(BinaryStrategy::Auto);
    assert_eq!(materialized(&ctx, base).slices_materialized, 1);
    let want: Vec<f64> = diff.iter().zip(&ys[1..]).map(|(a, b)| a - b).collect();
    assert_eq!(d.dist(), Dist::Cyclic);
    assert_lanes(&d, &want);
    // A slice of a trailing dimension.
    let m = ctx.random(&[9, 4], 3);
    let ms = m.to_vec();
    let base = ctx.stats();
    let cols = &m.slice(&[SliceSpec::full(9), SliceSpec::new(1, 3, 1)]) * 2.0;
    assert_eq!(materialized(&ctx, base).slices_materialized, 1);
    let want: Vec<f64> = (0..9)
        .flat_map(|r| [ms[r * 4 + 1] * 2.0, ms[r * 4 + 2] * 2.0])
        .collect();
    assert_lanes(&cols, &want);
}

#[test]
fn a_view_named_by_another_command_is_materialized_first() {
    let ctx = OdinContext::with_workers(3);
    let ys = lanes(31, 10);
    let y = ctx.from_vec(&ys, Dist::Block);
    // Redistribute and fetch.
    let v = y.slice1(2, Some(-3), 1);
    let cyc = v.redistribute(Dist::Cyclic);
    assert_lanes(&cyc, &ys[2..28]);
    assert_lanes(&v, &ys[2..28]);
    // A local function reads the materialized segment.
    let w = y.slice1(1, None, 1);
    let sums = Arc::new(std::sync::Mutex::new(0.0));
    let total = Arc::clone(&sums);
    ctx.run_local(
        &[&w],
        &[],
        Arc::new(move |scope, ids, _| {
            let s: f64 = scope.local(ids[0]).as_f64().iter().sum();
            *total.lock().unwrap() += s;
        }),
    );
    ctx.barrier();
    let want: f64 = ys[1..].iter().sum();
    assert!((*sums.lock().unwrap() - want).abs() < 1e-9);
    assert_eq!(w.len(), 30);
}

#[test]
fn a_base_dropped_before_the_flush_is_freed_behind_the_launch() {
    let ctx = OdinContext::with_workers(3);
    let ys = lanes(64, 11);
    let diff: Vec<f64> = ys.windows(2).map(|w| w[1] - w[0]).collect();
    for round in 0..2 {
        let d = {
            let y = ctx.from_vec(&ys, Dist::Block);
            &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1)
        };
        let base = ctx.stats();
        assert_lanes(&d, &diff);
        let st = ctx.stats() - base;
        assert_eq!(
            (st.kernel_launches, st.slices_materialized),
            (1, 0),
            "{st:?}"
        );
        // The launch, the base's `Free` behind it, and the fetch; the
        // first round registers the kernel too.
        assert_eq!(st.ctrl_msgs, 3 * (3 + u64::from(round == 0)), "{st:?}");
    }
}

#[test]
fn a_view_keeps_its_values_when_local_mode_overwrites_the_base() {
    let ctx = OdinContext::with_workers(3);
    let ys = lanes(20, 12);
    let y = ctx.from_vec(&ys, Dist::Block);
    let zero: hpc_framework::odin::LocalFn = Arc::new(|scope, ids, _| {
        let n = scope.local(ids[0]).len();
        scope.overwrite_f64(ids[0], vec![0.0; n]);
    });
    let held = y.slice1(1, None, 1);
    let diff = &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1);
    ctx.run_local(&[&y], &[], Arc::clone(&zero));
    assert_eq!(y.to_vec(), vec![0.0; 20]);
    assert_lanes(&held, &ys[1..]);
    let want: Vec<f64> = ys.windows(2).map(|w| w[1] - w[0]).collect();
    assert_lanes(&diff, &want);
}

#[test]
fn a_view_of_a_view_and_a_view_of_a_pending_base_read_their_rows() {
    let ctx = OdinContext::with_workers(4);
    let ys = lanes(45, 13);
    let y = ctx.from_vec(&ys, Dist::Block);
    // A view of a view: the inner one is materialized first.
    assert_lanes(&y.slice1(1, None, 1).slice1(1, None, 1), &ys[2..]);
    let stepped: Vec<f64> = ys[1..]
        .iter()
        .step_by(2)
        .skip(1)
        .step_by(3)
        .copied()
        .collect();
    assert_lanes(&y.slice1(1, None, 2).slice1(1, None, 3), &stepped);
    assert_lanes(&y.slice1(3, Some(9), 2).slice1(5, None, 1), &[]);
    let base = ctx.stats();
    let d = &y.slice1(1, None, 1).slice1(1, None, 1) - &y.slice1(0, Some(-2), 1);
    let want: Vec<f64> = (0..43).map(|i| ys[i + 2] - ys[i]).collect();
    assert_lanes(&d, &want);
    let st = ctx.stats() - base;
    assert_eq!(st.slices_materialized, 1, "{st:?}");
    // A view of a pending statement: the statement runs first.
    let t = &y * 2.0;
    let dt = &t.slice1(1, None, 1) - &t.slice1(0, Some(-1), 1);
    let want: Vec<f64> = ys.windows(2).map(|w| w[1] * 2.0 - w[0] * 2.0).collect();
    assert_lanes(&dt, &want);
}
