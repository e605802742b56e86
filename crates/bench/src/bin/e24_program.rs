//! E24 — whole-program dataflow optimization (§III at program scope).
//!
//! A traced multi-statement program (`OdinContext::trace`) is fused,
//! CSE'd, DSE'd, and communication-scheduled before anything hits the
//! wire. Four claims, each checked hard:
//!
//! * **identity**: the traced run is bitwise-identical to statement-at-
//!   a-time `Expr::eval` (and to `Expr::eval_unfused`) on a stencil and
//!   on a CG-like program — clean *and* under seeded message chaos.
//! * **launches**: the traced run issues strictly fewer kernel launches
//!   than one-launch-per-statement (`kernel_launches <
//!   baseline_launches`), on both programs.
//! * **messages**: the traced run issues strictly fewer ODIN ctrl+data
//!   messages than the statement-at-a-time twin over a warm window.
//! * **movement**: the stencil's cyclic coefficient crosses the wire
//!   once, not once per consuming statement (>= 1 merged redistribute),
//!   and the repeated `x*c` subexpression is interned (>= 1 CSE hit).

use bench::{best_of, fmt_s};
use comm::{Delivery, FaultPlan};
use odin::lazy::Expr;
use odin::{Dist, DistArray, OdinConfig, OdinContext, ProgramStats};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 200_000;
const CHAOS_N: usize = 2_048;
const WORKERS: usize = 4;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Block-distributed field (three shifted copies, finite-difference
/// style) plus a cyclic coefficient so every consuming statement owes an
/// alignment redistribute.
fn stencil_leaves(
    ctx: &OdinContext,
    n: usize,
) -> (DistArray<'_>, DistArray<'_>, DistArray<'_>, DistArray<'_>) {
    (
        ctx.arange_f64(-0.5, 0.013, n, Dist::Block),
        ctx.arange_f64(0.25, 0.017, n, Dist::Block),
        ctx.arange_f64(1.0, -0.011, n, Dist::Block),
        ctx.arange_f64(0.4, 0.007, n, Dist::Cyclic),
    )
}

/// Five statements: a Laplacian, a dead diagnostic store, the damped
/// update (which repeats the `x*c` subexpression), and two reductions —
/// one of which repeats `x*c` a third time.
fn stencil_traced(ctx: &OdinContext, n: usize) -> (Vec<u64>, u64, u64, ProgramStats) {
    let (xm, x, xp, c) = stencil_leaves(ctx, n);
    let mut p = ctx.trace();
    let (xl, cl) = (Expr::leaf(&x), Expr::leaf(&c));
    let lap = p.assign(Expr::leaf(&xm) - xl.clone() * 2.0 + Expr::leaf(&xp));
    let xc = xl.clone() * cl.clone();
    let _damp = p.assign(xc.clone()); // dead store: never read, never requested
    let xnew = p.assign(xl + (Expr::from(lap) * cl + xc.clone()) * 0.1);
    let resid = p.sum(Expr::from(lap) * Expr::from(lap));
    let energy = p.sum(xc.clone() * xc);
    let mut run = p.run(&[xnew]);
    let st = run.stats();
    (
        bits(&run.array(xnew).to_vec()),
        run.scalar(resid).to_bits(),
        run.scalar(energy).to_bits(),
        st,
    )
}

/// The statement-at-a-time twin: every statement evaluated (dead store
/// included — eager execution cannot know), every intermediate
/// materialized, every cyclic operand re-aligned per statement.
fn stencil_eager(ctx: &OdinContext, n: usize, unfused: bool) -> (Vec<u64>, u64, u64) {
    fn ev<'c>(e: &Expr<'_, 'c>, unfused: bool) -> DistArray<'c> {
        if unfused {
            e.eval_unfused()
        } else {
            e.eval()
        }
    }
    let (xm, x, xp, c) = stencil_leaves(ctx, n);
    let lap = ev(
        &(Expr::leaf(&xm) - Expr::leaf(&x) * 2.0 + Expr::leaf(&xp)),
        unfused,
    );
    let _damp = ev(&(Expr::leaf(&x) * Expr::leaf(&c)), unfused);
    let xnew = ev(
        &(Expr::leaf(&x)
            + (Expr::leaf(&lap) * Expr::leaf(&c) + Expr::leaf(&x) * Expr::leaf(&c)) * 0.1),
        unfused,
    );
    let resid = (Expr::leaf(&lap) * Expr::leaf(&lap)).sum();
    let energy = ((Expr::leaf(&x) * Expr::leaf(&c)) * (Expr::leaf(&x) * Expr::leaf(&c))).sum();
    (bits(&xnew.to_vec()), resid.to_bits(), energy.to_bits())
}

fn cg_leaves(
    ctx: &OdinContext,
    n: usize,
) -> (DistArray<'_>, DistArray<'_>, DistArray<'_>, DistArray<'_>) {
    (
        ctx.arange_f64(0.3, 0.003, n, Dist::Block),
        ctx.arange_f64(0.9, -0.002, n, Dist::Block),
        ctx.arange_f64(0.0, 0.005, n, Dist::Block),
        ctx.arange_f64(1.5, 0.001, n, Dist::Block),
    )
}

/// One CG-like iteration (diagonal operator): seven statements whose
/// scalar results (`rr0`, `den`, `rr1`) gate later vector updates. The
/// optimizer packs them into three fused launches with the reductions
/// riding the kernels that produce their operands.
fn cg_traced(ctx: &OdinContext, n: usize) -> (Vec<u64>, Vec<u64>, [u64; 3], ProgramStats) {
    let (pv, rv, xv, dv) = cg_leaves(ctx, n);
    let mut pg = ctx.trace();
    let (pl, rl) = (Expr::leaf(&pv), Expr::leaf(&rv));
    let rr0 = pg.sum(rl.clone() * rl.clone());
    let q = pg.assign(pl.clone() * Expr::leaf(&dv));
    let den = pg.sum(pl.clone() * Expr::from(q));
    let alpha = Expr::from(rr0) / Expr::from(den);
    let x1 = pg.assign(Expr::leaf(&xv) + pl.clone() * alpha.clone());
    let r1 = pg.assign(rl - Expr::from(q) * alpha);
    let rr1 = pg.sum(Expr::from(r1) * Expr::from(r1));
    let beta = Expr::from(rr1) / Expr::from(rr0);
    let p1 = pg.assign(Expr::from(r1) + pl * beta);
    let mut run = pg.run(&[x1, p1]);
    let st = run.stats();
    let scalars = [
        run.scalar(rr0).to_bits(),
        run.scalar(den).to_bits(),
        run.scalar(rr1).to_bits(),
    ];
    (
        bits(&run.array(x1).to_vec()),
        bits(&run.array(p1).to_vec()),
        scalars,
        st,
    )
}

fn cg_eager(ctx: &OdinContext, n: usize) -> (Vec<u64>, Vec<u64>, [u64; 3]) {
    let (pv, rv, xv, dv) = cg_leaves(ctx, n);
    let rr0 = (Expr::leaf(&rv) * Expr::leaf(&rv)).sum();
    let q = (Expr::leaf(&pv) * Expr::leaf(&dv)).eval();
    let den = (Expr::leaf(&pv) * Expr::leaf(&q)).sum();
    let alpha = rr0 / den;
    let x1 = (Expr::leaf(&xv) + Expr::leaf(&pv) * alpha).eval();
    let r1 = (Expr::leaf(&rv) - Expr::leaf(&q) * alpha).eval();
    let rr1 = (Expr::leaf(&r1) * Expr::leaf(&r1)).sum();
    let beta = rr1 / rr0;
    let p1 = (Expr::leaf(&r1) + Expr::leaf(&pv) * beta).eval();
    (
        bits(&x1.to_vec()),
        bits(&p1.to_vec()),
        [rr0.to_bits(), den.to_bits(), rr1.to_bits()],
    )
}

fn main() {
    let _obs = bench::obs_init();
    bench::header(
        "E24",
        "whole-program dataflow optimization over the lazy layer",
        "traced programs fuse across statements, intern repeated work, drop dead \
         stores, and merge redistributes — bitwise-identical to statement-at-a-time \
         evaluation with strictly fewer launches and messages",
    );

    let ctx = OdinContext::with_workers(WORKERS);

    // ---- identity + optimization structure: stencil ----
    let (sx_t, sr_t, se_t, sst) = stencil_traced(&ctx, N);
    let (sx_e, sr_e, se_e) = stencil_eager(&ctx, N, false);
    let (sx_u, sr_u, se_u) = stencil_eager(&ctx, N, true);
    assert_eq!(
        sx_t, sx_e,
        "traced stencil update diverges from statement-at-a-time eval"
    );
    assert_eq!(
        (sr_t, se_t),
        (sr_e, se_e),
        "traced stencil reductions diverge from statement-at-a-time eval"
    );
    assert_eq!(
        (sx_e.clone(), sr_e, se_e),
        (sx_u, sr_u, se_u),
        "fused eager stencil diverges from the unfused interpreter"
    );
    assert!(
        sst.kernel_launches < sst.baseline_launches,
        "stencil: fusion saved nothing ({} vs {})",
        sst.kernel_launches,
        sst.baseline_launches
    );
    assert!(sst.cse_hits >= 1, "stencil lost its CSE hit: {sst:?}");
    assert!(
        sst.dse_eliminated >= 1,
        "stencil dead store survived: {sst:?}"
    );
    assert!(
        sst.redistributes_merged >= 1,
        "stencil coefficient moved once per statement: {sst:?}"
    );
    println!(
        "stencil   {} stmts -> {} launches (baseline {}), cse {}, dse {}, \
         redistributes {}/{} (merged {}), {} elems moved",
        sst.statements,
        sst.kernel_launches,
        sst.baseline_launches,
        sst.cse_hits,
        sst.dse_eliminated,
        sst.redistributes_issued,
        sst.baseline_redistributes,
        sst.redistributes_merged,
        sst.elems_moved
    );

    // ---- identity + optimization structure: CG-like iteration ----
    let (cx_t, cp_t, cs_t, cst) = cg_traced(&ctx, N);
    let (cx_e, cp_e, cs_e) = cg_eager(&ctx, N);
    assert_eq!(cx_t, cx_e, "traced CG x-update diverges from eager");
    assert_eq!(cp_t, cp_e, "traced CG search direction diverges from eager");
    assert_eq!(
        cs_t, cs_e,
        "traced CG scalars (rr0, den, rr1) diverge from eager"
    );
    assert!(
        cst.kernel_launches < cst.baseline_launches,
        "CG: fusion saved nothing ({} vs {})",
        cst.kernel_launches,
        cst.baseline_launches
    );
    println!(
        "cg-like   {} stmts -> {} launches (baseline {}), {} saved, scalars \
         flow through reply tickets",
        cst.statements, cst.kernel_launches, cst.baseline_launches, cst.launches_saved
    );

    // ---- message windows (both paths warm: kernels registered above) ----
    ctx.reset_stats();
    black_box(stencil_eager(&ctx, N, false));
    let st_e = ctx.stats();
    ctx.reset_stats();
    black_box(stencil_traced(&ctx, N));
    let st_t = ctx.stats();
    println!(
        "stencil   msgs: eager {} ctrl + {} data, traced {} ctrl + {} data",
        st_e.ctrl_msgs, st_e.data_msgs, st_t.ctrl_msgs, st_t.data_msgs
    );
    assert!(
        st_t.ctrl_msgs < st_e.ctrl_msgs,
        "traced stencil did not save ctrl messages ({} vs {})",
        st_t.ctrl_msgs,
        st_e.ctrl_msgs
    );
    assert!(
        st_t.data_msgs < st_e.data_msgs,
        "traced stencil did not save data messages ({} vs {})",
        st_t.data_msgs,
        st_e.data_msgs
    );

    ctx.reset_stats();
    black_box(cg_eager(&ctx, N));
    let cg_e = ctx.stats();
    ctx.reset_stats();
    black_box(cg_traced(&ctx, N));
    let cg_t = ctx.stats();
    println!(
        "cg-like   msgs: eager {} ctrl + {} data, traced {} ctrl + {} data",
        cg_e.ctrl_msgs, cg_e.data_msgs, cg_t.ctrl_msgs, cg_t.data_msgs
    );
    assert!(
        cg_t.ctrl_msgs + cg_t.data_msgs < cg_e.ctrl_msgs + cg_e.data_msgs,
        "traced CG did not save messages ({} vs {})",
        cg_t.ctrl_msgs + cg_t.data_msgs,
        cg_e.ctrl_msgs + cg_e.data_msgs
    );

    // ---- wall time (informational; the gates above are the claim) ----
    let t_eager = best_of(5, || {
        black_box(stencil_eager(&ctx, N, false));
    });
    let t_traced = best_of(5, || {
        black_box(stencil_traced(&ctx, N));
    });
    println!(
        "stencil   wall: eager {} traced {} ({:.2}x)",
        fmt_s(t_eager),
        fmt_s(t_traced),
        t_eager / t_traced
    );

    // ---- determinism under chaos: same bits through drops/dups/corruption ----
    let baseline = stencil_traced(&ctx, CHAOS_N);
    for seed in [42u64, 1009] {
        let cctx = OdinContext::new(
            OdinConfig::default()
                .with_n_workers(WORKERS)
                .with_fault(FaultPlan::messages(seed, 0.08, 0.04, 0.04, 0.03))
                .with_delivery(Delivery::Reliable)
                .with_stall_timeout(Duration::from_secs(10)),
        );
        let chaotic = stencil_traced(&cctx, CHAOS_N);
        assert_eq!(
            (&chaotic.0, chaotic.1, chaotic.2),
            (&baseline.0, baseline.1, baseline.2),
            "traced stencil not bitwise-stable under chaos seed {seed}"
        );
    }
    println!("chaos     traced stencil bitwise-stable under seeds 42, 1009");

    println!(
        "shape: tracing defers execution until `run`, so the optimizer sees the \
         whole statement list: one fused multi-output kernel replaces the \
         stencil's five launches, reductions ride the kernels that build their \
         operands, and the cyclic coefficient is aligned once and shared."
    );
}
