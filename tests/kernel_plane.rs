//! Kernel-plane determinism: the Seamless-JIT path (`Expr::eval`,
//! `Kernel::map`) must be bitwise-identical to the serial oracle
//! (`odin::reference::eval`) at every pool width and segment length, on
//! both tiers, under seeded chaos, and across a checkpoint/recover cycle
//! that respawns the whole worker pool.

use std::sync::Arc;
use std::time::Duration;

use hpc_framework::comm::{Delivery, FaultPlan, UniverseConfig};
use hpc_framework::odin::{reference, BinOp, Buffer, ContextStats, LocalFn, OdinError};
use hpc_framework::prelude::*;
use hpc_framework::seamless::codegen;

/// The codegen compile counters are process-global and every test in this
/// binary may trigger first-use native compiles. Tests that only *use*
/// kernels take a read guard; the test that asserts on
/// [`codegen::stats`] deltas takes the write guard so no concurrent
/// first-compile can land inside its measurement window.
static CODEGEN_STATS: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn stats_read() -> std::sync::RwLockReadGuard<'static, ()> {
    CODEGEN_STATS.read().unwrap_or_else(|e| e.into_inner())
}

fn stats_write() -> std::sync::RwLockWriteGuard<'static, ()> {
    CODEGEN_STATS.write().unwrap_or_else(|e| e.into_inner())
}

/// Chaos seed, overridable per CI pass: `HPC_FAULT_SEED=43 cargo test …`.
fn fault_seed() -> u64 {
    std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Four workers whose worker-to-worker messages are dropped, duplicated,
/// delayed and corrupted per the seed, healed by reliable delivery.
fn message_chaos() -> OdinConfig {
    OdinConfig {
        n_workers: 4,
        universe: UniverseConfig::default()
            .with_fault(FaultPlan::messages(fault_seed(), 0.08, 0.04, 0.04, 0.03))
            .with_delivery(Delivery::Reliable)
            .with_stall_timeout(Duration::from_secs(10)),
        ..Default::default()
    }
}

/// Three workers; worker 1 dies at its `ops`-th operation. Every wait
/// is bounded, on the workers and on the master.
fn kill_worker_1_after(ops: u64) -> OdinConfig {
    OdinConfig {
        n_workers: 3,
        universe: UniverseConfig::default()
            .with_fault(FaultPlan {
                seed: fault_seed(),
                kill_rank: Some(1),
                kill_after_ops: ops,
                ..FaultPlan::none()
            })
            .with_stall_timeout(Duration::from_secs(5)),
        reply_timeout: Some(Duration::from_secs(5)),
    }
}

/// Fault events on the worker↔worker plane so far — messages the plan
/// dropped or duplicated, and retransmissions — read on every worker.
/// Master↔worker posts and replies are never faulted, so a chaos test
/// whose steps all stay master↔worker reads 0 here.
fn faults_fired(ctx: &OdinContext) -> i64 {
    let counts = ctx.zeros(&[ctx.n_workers()], DType::I64);
    let read: LocalFn = Arc::new(|scope, ids, _| {
        let s = scope.comm.stats();
        let fired = s.faults_dropped + s.faults_duplicated + s.retransmits;
        *scope.local_mut(ids[0]) = Buffer::I64(vec![fired as i64]);
    });
    ctx.run_local(&[&counts], &[], read);
    counts.to_vec_i64().iter().sum()
}

/// Steps whose partials meet worker to worker: axis-0 sums of 2-D arrays,
/// one elementwise `allreduce` each.
fn axis0_sums(ctx: &OdinContext) -> Vec<u64> {
    (0..8u64)
        .flat_map(|seed| bits(&ctx.random(&[37, 5], seed).sum_axis(0).to_vec()))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `e` evaluated by the serial oracle, on the master.
fn oracle(e: &Expr) -> Buffer {
    reference::eval(e).expect("an expression over arrays")
}

/// One moderately gnarly expression covering the lowering surface:
/// pow strength-reduction, `%` → RemF, chained unary math. Every lane
/// stays finite so bitwise comparison is meaningful.
fn probe_expr<'x, 'c>(x: &'x DistArray<'c>, y: &'x DistArray<'c>) -> Expr<'x, 'c> {
    ((Expr::leaf(x) * 2.0 + Expr::leaf(y).sin()).abs() + 1.0).sqrt() * (Expr::leaf(x) * 0.25).exp()
        + (Expr::leaf(x).pow(3.0) % 0.7)
}

#[test]
fn jitted_matches_eager_oracle_at_every_pool_width() {
    let _g = stats_read();
    // Same data, same expression, 1–8 ranks: the jitted bytecode result
    // must equal the eager node-at-a-time result bit for bit, and both
    // must be independent of the pool width.
    let mut reference: Option<Vec<u64>> = None;
    for workers in 1..=8usize {
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.linspace(-2.0, 3.0, 257);
        let y = ctx.linspace(0.1, 4.0, 257);
        let jit = probe_expr(&x, &y).eval().to_vec();
        assert_eq!(
            bits(&jit),
            bits(oracle(&probe_expr(&x, &y)).as_f64()),
            "jit vs serial oracle diverged at {workers} workers"
        );
        match &reference {
            None => reference = Some(bits(&jit)),
            Some(r) => assert_eq!(r, &bits(&jit), "width {workers} changed the answer"),
        }
        // Fused reduction tail vs the two-pass (materialize, then reduce)
        // route, at the same widths.
        let fused = probe_expr(&x, &y).sum();
        let two_pass = probe_expr(&x, &y).eval().sum();
        assert_eq!(
            fused.to_bits(),
            two_pass.to_bits(),
            "fused sum diverged at {workers} workers"
        );
    }
}

#[test]
fn compiled_kernels_match_a_host_reference_at_every_width() {
    let _g = stats_read();
    let src = "def wave(a, b):\n    return hypot(a, b) * exp(0.0 - a)\n";
    let mut reference: Option<Vec<u64>> = None;
    for workers in 1..=8usize {
        let ctx = OdinContext::with_workers(workers);
        let wave = ctx.compile_kernel(src, "wave").unwrap();
        let a = ctx.linspace(0.0, 1.0, 193);
        let b = ctx.linspace(2.0, -1.0, 193);
        let got = wave.map(&[&a, &b]).to_vec();
        let want: Vec<f64> = a
            .to_vec()
            .iter()
            .zip(b.to_vec().iter())
            .map(|(&a, &b)| a.hypot(b) * (0.0 - a).exp())
            .collect();
        assert_eq!(
            bits(&got),
            bits(&want),
            "kernel diverged at {workers} workers"
        );
        match &reference {
            None => reference = Some(bits(&got)),
            Some(r) => assert_eq!(r, &bits(&got), "width {workers} changed the answer"),
        }
    }
}

#[test]
fn kernel_plane_is_deterministic_under_seeded_chaos() {
    let _g = stats_read();
    // The ci.sh chaos sweep reruns this under several HPC_FAULT_SEED
    // values. Worker↔worker traffic (the axis sums' allreduces) is
    // dropped/duplicated/corrupted/delayed per the seed; reliable
    // delivery must heal every schedule and leave the answers bit-exact.
    // The fused reduction rides master↔worker replies, which are never
    // faulted: it checks the kernel, the axis sums check the healing.
    let healthy = {
        let ctx = OdinContext::with_workers(4);
        let x = ctx.linspace(-1.0, 1.0, 401);
        let y = ctx.linspace(0.5, 2.5, 401);
        let arr = bits(&probe_expr(&x, &y).eval().to_vec());
        let sum = probe_expr(&x, &y).sum().to_bits();
        (arr, sum, axis0_sums(&ctx))
    };
    let ctx = OdinContext::new(message_chaos());
    let x = ctx.linspace(-1.0, 1.0, 401);
    let y = ctx.linspace(0.5, 2.5, 401);
    assert_eq!(
        bits(&probe_expr(&x, &y).eval().to_vec()),
        healthy.0,
        "chaos changed the jitted array result (seed {})",
        fault_seed()
    );
    assert_eq!(
        probe_expr(&x, &y).sum().to_bits(),
        healthy.1,
        "chaos changed the fused reduction (seed {})",
        fault_seed()
    );
    assert_eq!(
        axis0_sums(&ctx),
        healthy.2,
        "chaos changed an axis sum (seed {})",
        fault_seed()
    );
    assert!(
        faults_fired(&ctx) > 0,
        "the fault plan never fired (seed {})",
        fault_seed()
    );
}

#[test]
fn recover_replays_registered_kernels_into_the_new_pool() {
    let _g = stats_read();
    // Kill a worker mid-run, recover from a checkpoint, and invoke the
    // *same* Kernel handle again: recover() must have re-registered the
    // bytecode on the fresh pool (code ships once per pool, so the new
    // workers have never seen it unless replay happened).
    let ctx = OdinContext::new(kill_worker_1_after(40));
    let clip = ctx
        .compile_kernel(
            "def clip(a):\n    if a > 1.0:\n        return 1.0\n    if a < 0.0 - 1.0:\n        return 0.0 - 1.0\n    return a\n",
            "clip",
        )
        .unwrap();
    let x = ctx.linspace(-3.0, 3.0, 97);
    let baseline = bits(&clip.map(&[&x]).to_vec());
    let expr_baseline = (Expr::leaf(&x) * 0.5).cos().sum().to_bits();
    let ck = ctx.checkpoint(&[&x]);

    // Burn collective ops until the fault plan kills rank 1.
    let mut died = false;
    for _ in 0..200 {
        match ctx.try_barrier() {
            Ok(()) => {}
            Err(OdinError::WorkerDead { worker, .. }) => {
                assert_eq!(worker, 1);
                died = true;
                break;
            }
            Err(other) => panic!("unexpected error while burning ops: {other:?}"),
        }
    }
    assert!(
        died,
        "fault plan never killed rank 1 (seed {})",
        fault_seed()
    );

    let report = ctx.recover(&ck);
    assert_eq!(report.respawned, 3);
    assert!(report.restored.contains(&x.id()));

    // Same Kernel handle, brand-new pool: only the registry replay makes
    // this work, and the answer must not move by a single bit.
    assert_eq!(bits(&clip.map(&[&x]).to_vec()), baseline);
    // The Expr plane's cached kernels were replayed too.
    assert_eq!((Expr::leaf(&x) * 0.5).cos().sum().to_bits(), expr_baseline);
}

#[test]
fn a_kernel_registers_once_and_invokes_stay_small() {
    let _g = stats_read();
    // Integration-level check of the wire contract: after the first use,
    // re-invoking a kernel (or re-evaluating a structurally identical
    // Expr) broadcasts one sub-100-byte EvalKernel and nothing else.
    let ctx = OdinContext::with_workers(2);
    let sq = ctx
        .compile_kernel("def sq(a):\n    return a * a\n", "sq")
        .unwrap();
    let x = ctx.linspace(0.0, 1.0, 64);
    let warm = sq.map(&[&x]); // ships the bytecode
                              // registers the Expr kernel (held: a dropped result registers nothing)
    let warm_expr = (Expr::leaf(&x) + 1.0).eval();
    ctx.flush_batch();
    let base = ctx.stats();
    let mut live = vec![warm, warm_expr];
    for _ in 0..10 {
        live.push(sq.map(&[&x]));
        live.push((Expr::leaf(&x) + 1.0).eval());
        // one flush per pair: recorded together, the ten identical Expr
        // statements would fuse into one launch
        ctx.flush_batch();
    }
    let st = ctx.stats() - base;
    // 20 invokes × 2 workers, not a message more (no re-registration).
    assert_eq!(st.ctrl_msgs, 40, "unexpected extra control traffic");
    assert!(
        st.mean_ctrl_bytes() < 100.0,
        "mean control message {} bytes",
        st.mean_ctrl_bytes()
    );
    drop(live);
}

#[test]
fn a_fold_of_a_mapped_value_rides_the_call_and_materializes_nothing() {
    let _g = stats_read();
    // `k.map(..)` records a call and a whole-array fold of its value rides
    // the call's launch as a reduce tail: one EvalKernel per worker and
    // no `Free`, since no array was made. Bitwise a held map folded after
    // its own flush, and the serial oracle, in each lane type on each tier.
    const W: usize = 3;
    const LEN: usize = 1000;
    let n = W * LEN;
    let ctx = OdinContext::with_workers(W);
    let xf = ctx.arange_f64(-3.0, 0.37, n, Dist::Block);
    let xi = ctx.arange(n);
    let xb = (&ctx.arange(n) % 3.0).astype(DType::Bool);
    let yb = (&ctx.arange(n) % 2.0).astype(DType::Bool);
    let fv = xf.to_vec();
    let segments = |data: Buffer| -> Vec<Buffer> {
        (0..W)
            .map(|r| match &data {
                Buffer::F64(v) => Buffer::F64(v[r * LEN..(r + 1) * LEN].to_vec()),
                Buffer::I64(v) => Buffer::I64(v[r * LEN..(r + 1) * LEN].to_vec()),
                Buffer::Bool(v) => Buffer::Bool(v[r * LEN..(r + 1) * LEN].to_vec()),
            })
            .collect()
    };
    for tier in [Tier::Vm, Tier::Native] {
        let fk = ctx.kernel("def f(x):\n    return x * 0.5 + 1.25\n", "f");
        let ik = ctx.kernel("def i(x):\n    return x * 3 - 7\n", "i");
        let bk = ctx.kernel("def b(x, y):\n    return x == y\n", "b");
        let cases = [
            (
                fk.tier(tier).build().unwrap(),
                vec![&xf],
                Buffer::F64(fv.iter().map(|x| x * 0.5 + 1.25).collect()),
            ),
            (
                ik.dtype(DType::I64).tier(tier).build().unwrap(),
                vec![&xi],
                Buffer::I64((0..n as i64).map(|i| i * 3 - 7).collect()),
            ),
            (
                bk.dtype(DType::Bool).tier(tier).build().unwrap(),
                vec![&xb, &yb],
                Buffer::Bool((0..n).map(|i| (i % 3 != 0) == (i % 2 != 0)).collect()),
            ),
        ];
        for (k, args, mapped) in cases {
            let case = format!("{:?} kernel on {tier:?}", k.dtype());
            ctx.flush_batch();
            let base = ctx.stats();
            let pending = k.map(&args).sum_async(); // the handle drops here
            let fused = pending.wait();
            let st = ctx.stats() - base;
            assert_eq!(st.kernel_launches, 1, "{case}: {st:?}");
            assert_eq!(st.ctrl_msgs, W as u64, "{case}: materialized: {st:?}");
            // written as one expression the handle is alive at the wait, so
            // the array is made too, in the same single launch
            let base = ctx.stats();
            let one = k.map(&args).sum();
            assert_eq!((ctx.stats() - base).kernel_launches, 1, "{case}");
            let held = k.map(&args);
            ctx.flush_batch();
            let two_pass = held.sum();
            let want = reference::fold(ReduceKind::Sum, &segments(mapped));
            assert_eq!(fused.to_bits(), two_pass.to_bits(), "{case}: vs a held map");
            assert_eq!(fused.to_bits(), want.to_bits(), "{case}: vs the oracle");
            assert_eq!(one.to_bits(), want.to_bits(), "{case}: one statement");
        }
    }
}

#[test]
fn statements_recorded_before_a_call_fuse_with_those_after_it() {
    let _g = stats_read();
    // A call flushes nothing: `a`, which the kernel does not read, shares
    // its launch with `b`, recorded after the call, so the program is one
    // launch fewer than its flush-per-statement twin.
    const W: u64 = 2;
    let ctx = OdinContext::with_workers(W as usize);
    let k = ctx
        .compile_kernel("def sq(a):\n    return a * a\n", "sq")
        .unwrap();
    let x = ctx.linspace(0.0, 1.0, 64);
    let y = ctx.linspace(2.0, 3.0, 64);
    let run = |flush: bool| {
        let step = |a| {
            if flush {
                ctx.flush_batch();
            }
            a
        };
        ctx.flush_batch();
        let base = ctx.stats();
        let a = step(&x * 2.0);
        let m = step(k.map(&[&y]));
        let b = step(&x + 1.0);
        ctx.flush_batch();
        let st = ctx.stats() - base;
        let out = (bits(&a.to_vec()), bits(&m.to_vec()), bits(&b.to_vec()));
        (out, st)
    };
    // first runs register every body, so the measured runs post launches
    // only
    let (_, _) = (run(true), run(false));
    let (twin, twin_st) = run(true);
    let (fused, st) = run(false);
    assert_eq!(fused, twin);
    assert_eq!((twin_st.kernel_launches, twin_st.ctrl_msgs), (3, 3 * W));
    assert_eq!((st.statements, st.kernel_launches), (3, 2), "{st:?}");
    assert_eq!(st.ctrl_msgs, 2 * W, "{st:?}");
}

#[test]
fn calls_reading_one_misplaced_argument_move_it_once() {
    let _g = stats_read();
    // Two calls in one flush align the same Cyclic argument to Block
    // through the flush's pooled alignment: one redistribute, one free of
    // the aligned copy, and the two launches.
    const W: u64 = 3;
    let ctx = OdinContext::with_workers(W as usize);
    let add = ctx
        .compile_kernel("def add(a, b):\n    return a + b\n", "add")
        .unwrap();
    let mul = ctx
        .compile_kernel("def mul(a, b):\n    return a * b\n", "mul")
        .unwrap();
    let x = ctx.arange_f64(0.0, 1.0, 30, Dist::Block);
    let y = ctx.arange_f64(0.5, 2.0, 30, Dist::Cyclic);
    ctx.flush_batch();
    let base = ctx.stats();
    let sum = add.map(&[&x, &y]);
    let prod = mul.map(&[&x, &y]);
    ctx.flush_batch();
    let st = ctx.stats() - base;
    assert_eq!(
        (st.redistributes_issued, st.redistributes_merged),
        (1, 1),
        "{st:?}"
    );
    assert_eq!(st.ctrl_msgs, 4 * W, "{st:?}");
    let (xs, ys) = (x.to_vec(), y.to_vec());
    let want = |f: fn(f64, f64) -> f64| -> Vec<u64> {
        xs.iter()
            .zip(&ys)
            .map(|(&a, &b)| f(a, b).to_bits())
            .collect()
    };
    assert_eq!(bits(&sum.to_vec()), want(|a, b| a + b));
    assert_eq!(bits(&prod.to_vec()), want(|a, b| a * b));
}

#[test]
fn a_dropped_call_still_launches_at_the_next_flush() {
    let _g = stats_read();
    // A call is never a dead store: a dropped result still runs, as the
    // kernel timers that drop it before a barrier rely on, and its array
    // is freed behind the launch.
    const W: u64 = 2;
    let ctx = OdinContext::with_workers(W as usize);
    let k = ctx
        .compile_kernel("def sq(a):\n    return a * a\n", "sq")
        .unwrap();
    let x = ctx.linspace(0.0, 1.0, 64);
    ctx.flush_batch();
    let base = ctx.stats();
    drop(k.map(&[&x]));
    assert_eq!(
        (ctx.stats() - base).ctrl_msgs,
        0,
        "a call posts at the flush"
    );
    ctx.flush_batch();
    let st = ctx.stats() - base;
    assert_eq!(
        (st.statements, st.kernel_launches, st.dse_eliminated),
        (1, 1, 0),
        "{st:?}"
    );
    assert_eq!(st.ctrl_msgs, 2 * W, "the launch and the free: {st:?}");
    // so does one whose fold was abandoned unread
    let base = ctx.stats();
    drop(k.map(&[&x]).sum_async());
    ctx.flush_batch();
    let st = ctx.stats() - base;
    assert_eq!((st.kernel_launches, st.dse_eliminated), (1, 1), "{st:?}");
    assert_eq!(st.ctrl_msgs, 2 * W, "the launch and the free: {st:?}");
}

#[test]
fn mid_batch_kill_is_absorbed_by_recover_without_recompiling() {
    let _g = stats_read();
    // The serving-plane failure shape (E23): a pool is killed *mid-batch*
    // — while a stream of kernel evaluations is in flight over a
    // checkpointed operand — and recover() must bring back both the
    // kernel registry and the checkpointed array so the batch finishes
    // through the SAME Kernel handle, bit-for-bit equal to a fault-free
    // run. Swept over HPC_FAULT_SEED by ci.sh.
    const SRC: &str = "def mix(a, b):\n    return a * a + b\n";
    const BATCH: usize = 8;
    const N: usize = 96;

    // Fault-free twin: the bitwise reference for the whole batch.
    let reference: Vec<Vec<u64>> = {
        let ctx = OdinContext::with_workers(3);
        let mix = ctx.compile_kernel(SRC, "mix").unwrap();
        let w = ctx.linspace(0.25, 4.0, N);
        (0..BATCH)
            .map(|k| {
                let x = ctx.random_dist(&[N], 900 + k as u64, Dist::Block);
                bits(&mix.map(&[&x, &w]).to_vec())
            })
            .collect()
    };

    let ctx = OdinContext::new(kill_worker_1_after(25)); // lands inside the batch, not before it
    let mix = ctx.compile_kernel(SRC, "mix").unwrap();
    let w = ctx.linspace(0.25, 4.0, N);
    let ck = ctx.checkpoint(&[&w]);

    let mut results: Vec<Vec<u64>> = Vec::with_capacity(BATCH);
    let mut recoveries = 0u32;
    for k in 0..BATCH {
        loop {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let x = ctx.random_dist(&[N], 900 + k as u64, Dist::Block);
                mix.map(&[&x, &w]).to_vec()
            }));
            match attempt {
                Ok(v) => {
                    results.push(bits(&v));
                    break;
                }
                Err(_) => {
                    // The kill surfaced mid-evaluation. Heal the pool:
                    // respawn + registry replay + checkpoint restore.
                    assert!(ctx.health_check().is_err(), "panic without a dead pool");
                    let report = ctx.recover(&ck);
                    assert_eq!(report.respawned, 3);
                    assert!(report.restored.contains(&w.id()), "w must be restored");
                    recoveries += 1;
                    assert!(recoveries < 4, "recover() must converge, not thrash");
                }
            }
        }
    }
    assert!(
        recoveries >= 1,
        "the injected kill never landed mid-batch (seed {})",
        fault_seed()
    );
    // Same Kernel handle, never recompiled, pool respawned underneath:
    // the batch must not move by a single bit.
    assert_eq!(results, reference);
}

#[test]
fn chunk_boundaries_match_the_eager_oracle_across_lanes_tiers_and_staging() {
    let _g = stats_read();
    // The executor streams 4096-lane chunks on either tier. Pin both
    // tiers, in both lane types, at segment lengths on and around the
    // chunk boundary (a
    // 1-worker pool makes segment length == array length), with inputs
    // that are borrowed in place and inputs that are staged, for array
    // outputs and fused reduce tails.
    let ctx = OdinContext::with_workers(1);
    let fsrc = "def fk(a, b):\n    return sqrt(abs(a * 2.0 + b)) + a * 0.25\n";
    let isrc = "def ik(a, b):\n    return a * a - b * 3 + min(a, b)\n";
    let bsrc = "def bk(a, b):\n    return a == b\n";
    for tier in [Tier::Vm, Tier::Native] {
        let fk = ctx.kernel(fsrc, "fk").tier(tier).build().unwrap();
        let ik = ctx
            .kernel(isrc, "ik")
            .dtype(DType::I64)
            .tier(tier)
            .build()
            .unwrap();
        let bk = ctx
            .kernel(bsrc, "bk")
            .dtype(DType::Bool)
            .tier(tier)
            .build()
            .unwrap();
        for n in [0usize, 1, 4095, 4096, 4097, 8193] {
            let tag = format!("n={n} tier={tier:?}");
            let xf = ctx.arange_f64(-3.0, 0.37, n, Dist::Block);
            let yf = ctx.arange_f64(0.5, 0.011, n, Dist::Block);
            let xi = ctx.arange(n);
            let yi = &(&ctx.arange(n) * 3.0) - 7.0;
            assert_eq!((xi.dtype(), yi.dtype()), (DType::I64, DType::I64));
            let xb = (&ctx.arange(n) % 3.0).astype(DType::Bool);
            let yb = (&ctx.arange(n) % 2.0).astype(DType::Bool);

            // f64 lanes: (F64, F64) borrows both inputs, (I64, F64) and
            // (Bool, F64) stage the first.
            for a in [&xf, &xi, &xb] {
                let want = oracle(
                    &((Expr::leaf(a) * 2.0 + Expr::leaf(&yf)).abs().sqrt() + Expr::leaf(a) * 0.25),
                );
                assert_eq!(want.dtype(), DType::F64);
                let got = fk.map(&[a, &yf]);
                assert_eq!(
                    bits(&got.to_vec()),
                    bits(want.as_f64()),
                    "f64 map, first input {:?}, {tag}",
                    a.dtype()
                );
                // The fused tail against the two-pass route over the map
                // just held to the oracle.
                assert_eq!(
                    fk.map(&[a, &yf]).sum().to_bits(),
                    got.sum().to_bits(),
                    "f64 reduce tail, first input {:?}, {tag}",
                    a.dtype()
                );
                // The lowered-expression plane over the same operands
                // (always Auto; the VM-pinned CI pass covers its VM arm).
                if tier == Tier::Vm {
                    continue;
                }
                let make = || (Expr::leaf(a) * 2.0 + Expr::leaf(&yf)).abs().sqrt();
                let got = make().eval();
                assert_eq!(
                    bits(&got.to_vec()),
                    bits(oracle(&make()).as_f64()),
                    "Expr::eval, first input {:?}, {tag}",
                    a.dtype()
                );
                assert_eq!(
                    make().max().to_bits(),
                    got.max().to_bits(),
                    "Expr::max, first input {:?}, {tag}",
                    a.dtype()
                );
            }

            // i64 lanes: (I64, I64) borrows, (Bool, I64) and (F64, I64)
            // stage (floats truncate like astype).
            for a in [&xi, &xb, &xf] {
                let ai = a.astype(DType::I64);
                let want = oracle(
                    &(Expr::leaf(&ai) * Expr::leaf(&ai) - Expr::leaf(&yi) * 3.0
                        + Expr::Binary(
                            BinOp::Min,
                            Box::new(Expr::leaf(&ai)),
                            Box::new(Expr::leaf(&yi)),
                        )),
                );
                assert_eq!(want.dtype(), DType::I64);
                let got = ik.map(&[a, &yi]);
                assert_eq!(got.dtype(), DType::I64);
                assert_eq!(
                    got.to_vec_i64(),
                    want.as_i64(),
                    "i64 map, first input {:?}, {tag}",
                    a.dtype()
                );
                assert_eq!(
                    ik.map(&[a, &yi]).sum().to_bits(),
                    got.sum().to_bits(),
                    "i64 reduce tail, first input {:?}, {tag}",
                    a.dtype()
                );
            }

            // bool kernels ride the i64 lanes as 0/1: (Bool, Bool) stages
            // both inputs, (I64, Bool) borrows the first.
            for a in [&xb, &xi] {
                let ab = a.astype(DType::Bool);
                let want = oracle(&Expr::Binary(
                    BinOp::Eq,
                    Box::new(Expr::leaf(&ab)),
                    Box::new(Expr::leaf(&yb)),
                ));
                assert_eq!(want.dtype(), DType::Bool);
                let got = bk.map(&[&ab, &yb]);
                assert_eq!(got.dtype(), DType::Bool);
                let want: Vec<i64> = (0..want.len()).map(|i| want.get_i64(i)).collect();
                assert_eq!(got.to_vec_i64(), want, "bool map, {tag}");
                let tail = bk.map(&[&ab, &yb]).count_nonzero();
                assert_eq!(tail, got.count_nonzero(), "bool reduce tail, {tag}");
            }
        }
    }
}

/// A block-distributed array holding exactly `data`, written segment by
/// segment by a local-mode function (no ufunc touches the values).
fn array_of<'c>(ctx: &'c OdinContext, data: Buffer) -> DistArray<'c> {
    let a = ctx.arange(data.len()).astype(data.dtype());
    let fill: LocalFn = Arc::new(move |scope, ids, _| {
        let runs = scope.axis_map(ids[0]).local_runs();
        *scope.local_mut(ids[0]) = data.gather_runs(&runs, 1);
    });
    let f = ctx.register_local(fill);
    ctx.call_local(f, &[a.id()], &[]);
    a
}

#[test]
fn every_reduction_path_folds_in_the_reference_order() {
    let _g = stats_read();
    // Workers fold a whole-array reduction in eight stripes per segment
    // and the master combines their partials (DESIGN §8), in the same
    // bracketing at every pool width, so the grid runs 1–7 workers. Every path —
    // eager reductions over typed segments, fused `Expr` reductions,
    // `Kernel::map` folded in its own lane type on both tiers, and two
    // folds recorded together riding one launch — must equal
    // `reference::fold` over the same segments bit for bit. Segment
    // lengths straddle the stripe width and the 4096-lane chunk; the
    // values are chosen so that sums and products round differently in
    // any other order.
    const KINDS: [ReduceKind; 5] = [
        ReduceKind::Sum,
        ReduceKind::Prod,
        ReduceKind::Min,
        ReduceKind::Max,
        ReduceKind::CountNonzero,
    ];
    fn mix(i: u64) -> u64 {
        let z = (i + 1).wrapping_mul(0x9e3779b97f4a7c15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let values = |dtype: DType, n: usize| match dtype {
        // near 1, so products neither overflow nor underflow
        DType::F64 => Buffer::F64(
            (0..n as u64)
                .map(|i| 1.0 + ((mix(i) >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e-3)
                .collect(),
        ),
        // past 2^53, so widening and summing both round
        DType::I64 => Buffer::I64(
            (0..n as u64)
                .map(|i| (mix(i) >> 8) as i64 - (1 << 55))
                .collect(),
        ),
        DType::Bool => Buffer::Bool((0..n as u64).map(|i| !mix(i).is_multiple_of(4)).collect()),
    };
    let eager = |a: &DistArray, kind| match kind {
        ReduceKind::Sum => a.sum(),
        ReduceKind::Prod => a.prod(),
        ReduceKind::Min => a.min(),
        ReduceKind::Max => a.max(),
        ReduceKind::CountNonzero => a.count_nonzero() as f64,
    };
    for workers in 1..=7usize {
        let ctx = OdinContext::with_workers(workers);
        let kernels: Vec<(Kernel, Kernel)> = [Tier::Vm, Tier::Native]
            .into_iter()
            .map(|tier| {
                let f = ctx.kernel("def f(x):\n    return x * 1.0\n", "f");
                let i = ctx.kernel("def i(x):\n    return x * 1\n", "i");
                (
                    f.tier(tier).build().unwrap(),
                    i.dtype(DType::I64).tier(tier).build().unwrap(),
                )
            })
            .collect();
        for len in [0usize, 1, 7, 8, 9, 4095, 4096, 4097, 8199] {
            for dtype in [DType::F64, DType::I64, DType::Bool] {
                let data = values(dtype, workers * len);
                let segments: Vec<Buffer> = (0..workers)
                    .map(|r| {
                        let seg = r * len..(r + 1) * len;
                        match &data {
                            Buffer::F64(v) => Buffer::F64(v[seg].to_vec()),
                            Buffer::I64(v) => Buffer::I64(v[seg].to_vec()),
                            Buffer::Bool(v) => Buffer::Bool(v[seg].to_vec()),
                        }
                    })
                    .collect();
                let a = array_of(&ctx, data);
                let sum = reference::fold(ReduceKind::Sum, &segments).to_bits();
                for kind in KINDS {
                    let want = reference::fold(kind, &segments).to_bits();
                    let case = format!("{kind:?} of {dtype:?}, {workers} x {len} lanes");
                    // Two folds recorded together ride one launch as two
                    // reduce tails.
                    let pending = a.sum_async();
                    assert_eq!(eager(&a, kind).to_bits(), want, "eager {case}");
                    assert_eq!(pending.wait().to_bits(), sum, "second tail, {case}");
                    let fused = Expr::leaf(&a).reduce(kind);
                    assert_eq!(fused.to_bits(), want, "Expr::reduce {case}");
                    for (fk, ik) in &kernels {
                        let k = if dtype == DType::F64 { fk } else { ik };
                        let got = eager(&k.map(&[&a]), kind);
                        let tier = k.tier();
                        assert_eq!(got.to_bits(), want, "map then fold on {tier:?}, {case}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_lone_expression_keeps_its_wire_contract() {
    let _g = stats_read();
    // `Expr::eval`/`sum` record their statements like the eager ops they
    // are made of. What callers can observe: a warm invoke is one
    // EvalKernel per worker under 100 B and nothing else, and structurally
    // identical statements — evaluated as an `Expr`, written eagerly, as
    // an array or a reduce tail — share one registry entry.
    let ctx = OdinContext::with_workers(2);
    let x = ctx.linspace(0.25, 4.0, 300);
    let y = ctx.linspace(1.0, 2.0, 300);
    let make = || Expr::leaf(&x).sqrt() * Expr::leaf(&y) + 0.5;
    let oracle = bits(oracle(&make()).as_f64());
    let cold = make().eval(); // registers
    ctx.flush_batch();
    let cold_sum = make().sum(); // same body, reduce tail
    assert_eq!(bits(&cold.to_vec()), oracle);
    assert_eq!(cold_sum.to_bits(), cold.sum().to_bits());

    let warm = |what: &str, launch: &mut dyn FnMut()| {
        let base = ctx.stats();
        launch();
        ctx.flush_batch();
        let st = ctx.stats() - base;
        assert_eq!(st.ctrl_msgs, 2, "{what}: one broadcast, no registration");
        assert!(st.ctrl_bytes / st.ctrl_msgs < 100, "{what}: {st:?}");
    };
    let mut out = Vec::new();
    warm("Expr::eval", &mut || out.push(make().eval()));
    warm("eager statements", &mut || {
        out.push(&(&x.sqrt() * &y) + 0.5)
    });
    for a in &out {
        assert_eq!(bits(&a.to_vec()), oracle);
    }
    warm("Expr::sum", &mut || {
        assert_eq!(make().sum().to_bits(), cold_sum.to_bits())
    });
    warm("eager reduction", &mut || {
        let mapped = &(&x.sqrt() * &y) + 0.5;
        let sum = mapped.sum_async();
        drop(mapped); // a dead store its fold reads: never materialized
        assert_eq!(sum.wait().to_bits(), cold_sum.to_bits());
    });
}

/// Straight-line f64 body covering the native emitter's surface: unary
/// math, Math2, min, abs, division-free chains. Every lane stays finite.
const F64_BODY: &str =
    "def body(a, b):\n    return sqrt(abs(a * 2.0 + sin(b)) + 1.0) * exp(a * 0.25) + min(a, b) * 0.125\n";

#[test]
fn a_fresh_literal_per_op_reuses_one_kernel_and_compiles_nothing() {
    let _g = stats_write();
    // `odin_chain`'s shape: every op's expression carries a constant the
    // pool has not seen. Literals travel as kernel parameters, so after
    // the first op each launch is one EvalKernel per worker (no
    // registration) and no op compiles, while every result stays bitwise
    // the serial oracle — on the native tier here, on the VM in ci.sh's
    // pinned pass — special literals included.
    const WORKERS: u64 = 3;
    let ctx = OdinContext::with_workers(WORKERS as usize);
    let q = ctx.linspace(0.5, 1.5, 301);
    let mut x = ctx.linspace(-2.0, 3.0, 301);
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e308];
    let literal = |i: usize| match i.checked_sub(1).and_then(|k| specials.get(k)) {
        Some(&v) => v,
        None => 1.0 / (1.5 + i as f64 * 0.37),
    };
    let mut compiled = None;
    for i in 0..200 {
        let a = literal(i);
        let make = |x| Expr::leaf(x) + Expr::leaf(&q) * a;
        let base = ctx.stats();
        let y = make(&x).eval();
        ctx.flush_batch();
        if i > 0 {
            assert_eq!(
                (ctx.stats() - base).ctrl_msgs,
                WORKERS,
                "op {i} (literal {a:?}) registered a kernel"
            );
        }
        let got = y.to_vec();
        assert_eq!(
            bits(&got),
            bits(oracle(&make(&x)).as_f64()),
            "op {i}, literal {a:?}"
        );
        // Non-finite results are checked but not chained.
        if got.iter().all(|v| v.is_finite()) {
            x = y;
        }
        let now = codegen::stats();
        let before = *compiled.get_or_insert((now.compiled, now.refused));
        assert_eq!((now.compiled, now.refused), before, "op {i} compiled");
    }

    // An integral literal on an I64 array keeps the eager dtype rule, and
    // the result dtype is part of the body: `+ 2.0` (I64) and `+ 2.5`
    // (F64) register apart, while `+ 7.0` reuses the I64 kernel.
    let xi = ctx.arange(301);
    for (c, dtype, registers) in [
        (2.0, DType::I64, true),
        (2.5, DType::F64, true),
        (7.0, DType::I64, false),
        (0.25, DType::F64, false),
    ] {
        let make = || Expr::leaf(&xi) + c;
        let base = ctx.stats();
        let got = make().eval();
        ctx.flush_batch();
        let msgs = (ctx.stats() - base).ctrl_msgs;
        assert_eq!(got.dtype(), dtype, "+ {c}");
        assert_eq!(msgs, WORKERS * (1 + u64::from(registers)), "+ {c}");
        let want = oracle(&make());
        match dtype {
            DType::I64 => assert_eq!(got.to_vec_i64(), want.as_i64(), "+ {c}"),
            _ => assert_eq!(bits(&got.to_vec()), bits(want.as_f64()), "+ {c}"),
        }
    }
}

#[test]
fn native_and_vm_tiers_match_bitwise_at_widths_1_to_8_across_dtypes() {
    let _g = stats_read();
    // The satellite parity matrix: at every pool width 1–8, the armed
    // native monomorphization must agree with the Tier::Vm build bit for
    // bit — for f64, i64, and bool compute. On machines without a C
    // compiler (or under HPC_KERNEL_TIER=vm) both builds resolve to the
    // VM and the matrix still holds trivially. Besides 67 lanes, the f64
    // and i64 planes run 257, 259 and 1027 lanes: not multiples of 4 and
    // above the C vectorizer's threshold, so a single-worker call runs the
    // vector loop and both of its epilogues.
    const LANES: [usize; 4] = [67, 257, 259, 1027];
    for workers in 1..=8usize {
        let ctx = OdinContext::with_workers(workers);

        // f64 plane
        let auto = ctx.kernel(F64_BODY, "body").build().unwrap();
        let vm = ctx.kernel(F64_BODY, "body").tier(Tier::Vm).build().unwrap();
        if codegen::native_available() {
            assert_eq!(auto.tier(), Tier::Native, "f64 native failed to arm");
        }
        for n in LANES {
            let a = ctx.linspace(-2.0, 3.0, n);
            let b = ctx.linspace(0.1, 4.0, n);
            assert_eq!(
                bits(&auto.map(&[&a, &b]).to_vec()),
                bits(&vm.map(&[&a, &b]).to_vec()),
                "f64 tiers diverged at {workers} workers, {n} lanes"
            );
            let fused_n = auto.map(&[&a, &b]).sum();
            let fused_v = vm.map(&[&a, &b]).sum();
            assert_eq!(
                fused_n.to_bits(),
                fused_v.to_bits(),
                "f64 fused reduce diverged at {workers} workers, {n} lanes"
            );
            // The E20 39-op identity body arms the same way (Expr kernels
            // resolve their tier per launch) and must not move a bit either.
            let wide = || bench::fixtures::wide_expr(&a, &b);
            let got = wide().eval();
            assert_eq!(
                (bits(&got.to_vec()), wide().sum().to_bits()),
                (bits(oracle(&wide()).as_f64()), got.sum().to_bits()),
                "39-op body diverged from the serial oracle at {workers} workers, {n} lanes"
            );
        }

        // i64 plane
        let isrc = "def ibody(a, b):\n    return a * a - b * 3 + min(a, b)\n";
        let iauto = ctx.kernel(isrc, "ibody").dtype(DType::I64).build().unwrap();
        let ivm = ctx
            .kernel(isrc, "ibody")
            .dtype(DType::I64)
            .tier(Tier::Vm)
            .build()
            .unwrap();
        if codegen::native_available() {
            assert_eq!(iauto.tier(), Tier::Native, "i64 native failed to arm");
        }
        for n in LANES {
            let xi = ctx.arange(n);
            let yi = ctx.arange(n);
            assert_eq!(
                iauto.map(&[&xi, &yi]).to_vec_i64(),
                ivm.map(&[&xi, &yi]).to_vec_i64(),
                "i64 tiers diverged at {workers} workers, {n} lanes"
            );
        }

        // bool plane (i64 ABI with 0/1 rows)
        let bsrc = "def same(a, b):\n    return a == b\n";
        let bauto = ctx.kernel(bsrc, "same").dtype(DType::Bool).build().unwrap();
        let bvm = ctx
            .kernel(bsrc, "same")
            .dtype(DType::Bool)
            .tier(Tier::Vm)
            .build()
            .unwrap();
        let xb = ctx.arange(41).astype(DType::Bool);
        let yb = ctx.arange(41).gt(&ctx.arange(41)).astype(DType::Bool);
        assert_eq!(
            bauto.map(&[&xb, &yb]).to_vec_i64(),
            bvm.map(&[&xb, &yb]).to_vec_i64(),
            "bool tiers diverged at {workers} workers"
        );
    }
    // Every body above either armed native or stayed on the VM; none may
    // have compiled and then been refused by the bitwise parity probe.
    assert_eq!(codegen::stats().probe_failed, 0, "a parity probe failed");
}

#[test]
fn native_tier_is_deterministic_under_seeded_chaos() {
    let _g = stats_read();
    // Swept over HPC_FAULT_SEED by ci.sh: chaos on the worker↔worker
    // plane must not perturb native-tier results, and the native chaos run
    // must equal the healthy Tier::Vm run bit for bit (tiers are
    // interchangeable even under faults).
    let healthy_vm = {
        let ctx = OdinContext::with_workers(4);
        let k = ctx.kernel(F64_BODY, "body").tier(Tier::Vm).build().unwrap();
        let a = ctx.linspace(-1.5, 2.5, 311);
        let b = ctx.linspace(0.2, 3.0, 311);
        let arr = bits(&k.map(&[&a, &b]).to_vec());
        let sum = k.map(&[&a, &b]).sum().to_bits();
        (arr, sum, axis0_sums(&ctx))
    };
    let ctx = OdinContext::new(message_chaos());
    let k = ctx.kernel(F64_BODY, "body").build().unwrap();
    let a = ctx.linspace(-1.5, 2.5, 311);
    let b = ctx.linspace(0.2, 3.0, 311);
    assert_eq!(
        bits(&k.map(&[&a, &b]).to_vec()),
        healthy_vm.0,
        "native tier under chaos diverged from the healthy VM run (seed {})",
        fault_seed()
    );
    assert_eq!(
        k.map(&[&a, &b]).sum().to_bits(),
        healthy_vm.1,
        "native fused reduce under chaos diverged (seed {})",
        fault_seed()
    );
    assert_eq!(
        axis0_sums(&ctx),
        healthy_vm.2,
        "chaos changed an axis sum (seed {})",
        fault_seed()
    );
    assert!(
        faults_fired(&ctx) > 0,
        "the fault plan never fired (seed {})",
        fault_seed()
    );
}

#[test]
fn native_tier_rearms_after_recover_without_recompiling() {
    let _g = stats_write();
    // Kill a worker mid-run, recover(), and invoke the same Kernel handle:
    // the native symbol must still dispatch (the codegen cache is
    // process-global — ranks are threads — so the respawned pool re-arms
    // with ZERO new compiles) and the bits must not move.
    let ctx = OdinContext::new(kill_worker_1_after(40));
    let k = ctx.kernel(F64_BODY, "body").build().unwrap();
    if codegen::native_available() {
        assert_eq!(k.tier(), Tier::Native, "native failed to arm");
    }
    let a = ctx.linspace(-2.0, 2.0, 97);
    let b = ctx.linspace(0.5, 1.5, 97);
    let baseline = bits(&k.map(&[&a, &b]).to_vec());
    let ck = ctx.checkpoint(&[&a, &b]);
    let compiled_before = codegen::stats().compiled;

    let mut died = false;
    for _ in 0..200 {
        match ctx.try_barrier() {
            Ok(()) => {}
            Err(OdinError::WorkerDead { worker, .. }) => {
                assert_eq!(worker, 1);
                died = true;
                break;
            }
            Err(other) => panic!("unexpected error while burning ops: {other:?}"),
        }
    }
    assert!(
        died,
        "fault plan never killed rank 1 (seed {})",
        fault_seed()
    );

    let report = ctx.recover(&ck);
    assert_eq!(report.respawned, 3);
    assert!(report.restored.contains(&a.id()));

    // Same handle, new pool: bitwise-identical, and not one new compile —
    // the respawned workers hit the warm cache.
    assert_eq!(bits(&k.map(&[&a, &b]).to_vec()), baseline);
    assert_eq!(
        codegen::stats().compiled,
        compiled_before,
        "recover() should re-arm from the cache, not recompile"
    );
}

/// Fixed multi-statement eager program exercising the trace optimizer's
/// surface: CSE (shared `x·c`), a merged redistribute (the cyclic operand
/// feeds four ops), two reductions recorded together riding one launch,
/// a scalar result gating a later statement, and a shifted difference of
/// slices read in place (a windowed launch). Runs its
/// statement-at-a-time twin — the same code with `flush_batch()` after
/// every statement — first, and holds the fused run to strictly fewer
/// launches, control messages and data messages.
fn run_traced_probe(ctx: &OdinContext) -> (Vec<u64>, Vec<u64>, Vec<u64>, u64, u64, Vec<u64>) {
    let x = ctx.arange_f64(-1.0, 0.031, 120, Dist::Block);
    let c = ctx.arange_f64(0.4, 0.011, 120, Dist::Cyclic);
    let program = |twin: bool| {
        let flush = || {
            if twin {
                ctx.flush_batch();
            }
        };
        let base = ctx.stats();
        // A shifted difference: the twin materializes the view it holds
        // across a flush, the fused run reads both windows of `x` in place.
        let hi = x.slice1(1, None, 1);
        flush();
        let dx = &hi - &x.slice1(0, Some(-1), 1);
        drop(hi);
        flush();
        let e1 = &(&x * &c) + 1.0;
        flush();
        let e2 = (&x * &c).abs().sqrt();
        flush();
        let es = (&e1 * &e2).sum_async();
        flush();
        let ee = (&(&x * &c) * &(&x * &c)).sum_async();
        flush();
        let es = es.wait();
        let e3 = &x - &(&c * es);
        flush();
        let bits = (
            bits(&e1.to_vec()),
            bits(&e2.to_vec()),
            bits(&e3.to_vec()),
            es.to_bits(),
            ee.wait().to_bits(),
            bits(&dx.to_vec()),
        );
        (bits, ctx.stats() - base)
    };
    let (eager, twin) = program(true);
    let (fused, st) = program(false);

    assert!(st.cse_hits >= 1, "probe lost its CSE hit: {st:?}");
    assert!(st.redistributes_merged >= 1, "probe lost its merge: {st:?}");
    assert!(st.launches_saved >= 1, "probe lost its fusion: {st:?}");
    assert!(
        st.slices_materialized < twin.slices_materialized,
        "the probe's views were not read in place: {st:?} vs {twin:?}"
    );
    assert!(
        st.kernel_launches < twin.kernel_launches,
        "{st:?} vs {twin:?}"
    );
    assert!(
        st.ctrl_msgs < twin.ctrl_msgs,
        "fusion saved no control messages: {st:?} vs {twin:?}"
    );
    assert!(
        st.data_msgs < twin.data_msgs,
        "fusion saved no data messages: {st:?} vs {twin:?}"
    );
    assert_eq!(fused, eager, "fused run diverged from statement-at-a-time");
    fused
}

/// E24's two programs, written eagerly: run as the same code with
/// `flush_batch()` after every statement, then fused. Returns the result
/// bits and the stats of each run.
fn e24_runs<T: PartialEq + std::fmt::Debug>(
    ctx: &OdinContext,
    program: impl Fn(&dyn Fn()) -> T,
) -> (T, ContextStats, ContextStats) {
    let run = |twin: bool| {
        ctx.barrier();
        let base = ctx.stats();
        let out = program(&|| {
            if twin {
                ctx.flush_batch();
            }
        });
        (out, ctx.stats() - base)
    };
    let (eager, twin) = run(true);
    let (fused, st) = run(false);
    assert_eq!(fused, eager, "fused run diverged from statement-at-a-time");
    let msgs = |s: &ContextStats| s.ctrl_msgs + s.data_msgs;
    assert!(msgs(&st) < msgs(&twin), "{st:?} vs {twin:?}");
    (fused, st, twin)
}

#[test]
fn e24_programs_written_eagerly_keep_their_launch_counts() {
    let _g = stats_read();
    const N: usize = 4096;
    let ctx = OdinContext::with_workers(4);
    // A damped stencil step: a Laplacian, a dead diagnostic store, the
    // update (repeating `x*c`), and two reductions — five statements.
    let (xm, x, xp) = (
        ctx.arange_f64(-0.5, 0.013, N, Dist::Block),
        ctx.arange_f64(0.25, 0.017, N, Dist::Block),
        ctx.arange_f64(1.0, -0.011, N, Dist::Block),
    );
    let c = ctx.arange_f64(0.4, 0.007, N, Dist::Cyclic);
    let stencil = |flush: &dyn Fn()| {
        let lap = &(&xm - &(&x * 2.0)) + &xp;
        flush();
        drop(&x * &c);
        flush();
        let xnew = &x + &(&(&(&lap * &c) + &(&x * &c)) * 0.1);
        flush();
        let resid = (&lap * &lap).sum_async();
        flush();
        let energy = (&(&x * &c) * &(&x * &c)).sum_async();
        flush();
        let sums = (resid.wait().to_bits(), energy.wait().to_bits());
        (bits(&xnew.to_vec()), sums)
    };
    let (_, st, twin) = e24_runs(&ctx, stencil);
    assert_eq!(st.kernel_launches, 1, "{st:?}");
    assert!(st.cse_hits >= 1 && st.dse_eliminated == 1, "{st:?}");
    assert_eq!(st.redistributes_issued, 1, "{st:?}");
    assert_eq!(twin.kernel_launches, 4, "the twin drops its dead store too");

    // A CG-like iteration over a diagonal operator: seven statements whose
    // scalars gate the later updates.
    let (pv, rv, xv, dv) = (
        ctx.arange_f64(0.3, 0.003, N, Dist::Block),
        ctx.arange_f64(0.9, -0.002, N, Dist::Block),
        ctx.arange_f64(0.0, 0.005, N, Dist::Block),
        ctx.arange_f64(1.5, 0.001, N, Dist::Block),
    );
    let cg = |flush: &dyn Fn()| {
        let rr0 = (&rv * &rv).sum_async();
        flush();
        let q = &pv * &dv;
        flush();
        let den = (&pv * &q).sum_async();
        flush();
        let (rr0, den) = (rr0.wait(), den.wait());
        let alpha = rr0 / den;
        let x1 = &xv + &(&pv * alpha);
        flush();
        let r1 = &rv - &(&q * alpha);
        flush();
        let rr1 = (&r1 * &r1).sum();
        let p1 = &r1 + &(&pv * (rr1 / rr0));
        flush();
        let scalars = [rr0, den, rr1].map(f64::to_bits);
        (bits(&x1.to_vec()), bits(&p1.to_vec()), scalars)
    };
    let (_, st, twin) = e24_runs(&ctx, cg);
    assert!(st.kernel_launches <= 3, "{st:?}");
    assert_eq!(twin.kernel_launches, 7, "{twin:?}");
}

#[test]
fn traced_program_is_deterministic_under_seeded_chaos() {
    let _g = stats_read();
    // Swept over HPC_FAULT_SEED by ci.sh: the optimized trace flush
    // (fused multi-output kernels, pooled redistributes, shared fold
    // replies) must heal every chaos schedule bit-exactly.
    let healthy = {
        let ctx = OdinContext::with_workers(4);
        run_traced_probe(&ctx)
    };
    let ctx = OdinContext::new(message_chaos());
    assert_eq!(
        run_traced_probe(&ctx),
        healthy,
        "chaos changed a fused-program result (seed {})",
        fault_seed()
    );
    // The pooled redistribute of the Cyclic operand is the probe's
    // worker↔worker traffic.
    assert!(
        faults_fired(&ctx) > 0,
        "the fault plan never fired (seed {})",
        fault_seed()
    );
}

#[test]
fn recover_replays_fused_program_kernels_into_the_new_pool() {
    let _g = stats_read();
    // Run the fused probe (registering its multi-output kernels), kill a
    // worker, recover from a checkpoint, and run the identical program
    // again: the master's kernel cache makes the second run skip
    // registration, so it only works if recover() replayed the fused
    // bytecode into the respawned pool — and the bits must not move.
    let ctx = OdinContext::new(kill_worker_1_after(120)); // past the probe and its statement-at-a-time twin
    let baseline = run_traced_probe(&ctx);
    let anchor = ctx.linspace(0.0, 1.0, 30);
    let ck = ctx.checkpoint(&[&anchor]);

    let mut died = false;
    for _ in 0..200 {
        match ctx.try_barrier() {
            Ok(()) => {}
            Err(OdinError::WorkerDead { worker, .. }) => {
                assert_eq!(worker, 1);
                died = true;
                break;
            }
            Err(other) => panic!("unexpected error while burning ops: {other:?}"),
        }
    }
    assert!(
        died,
        "fault plan never killed rank 1 (seed {})",
        fault_seed()
    );
    let report = ctx.recover(&ck);
    assert_eq!(report.respawned, 3);

    assert_eq!(
        run_traced_probe(&ctx),
        baseline,
        "recovered pool changed a fused-program result (seed {})",
        fault_seed()
    );
}
