//! E20 — the Seamless-JIT kernel plane (§IV meets §III).
//!
//! Three claims from the kernel-plane PR, each checked hard:
//!
//! * **identity**: `Expr::eval` (lowered to Seamless bytecode, run by the
//!   worker kernel tiers) is bitwise-identical to `Expr::eval_unfused`
//!   (the eager node-at-a-time oracle) on a 1e6-element expression.
//! * **speed**: the jitted single-pass evaluation beats the unfused path
//!   (one broadcast + one materialized temporary per AST node) by >= 2x.
//! * **wire contract**: a kernel's bytecode crosses the wire exactly once
//!   per pool; every subsequent invoke is one sub-100-byte control
//!   message per worker.

use bench::{best_of, fmt_s};
use odin::lazy::Expr;
use odin::OdinContext;

const N: usize = 1_000_000;
const WORKERS: usize = 4;

/// A wide, cheap-op expression: this is where fusion pays, because the
/// unfused path materializes (and streams through memory) one 1e6-element
/// temporary per node while the fused pass keeps the chunk in cache.
/// Transcendental-heavy expressions are compute-bound and fuse-neutral;
/// E6 sweeps that axis.
fn probe<'x, 'c>(x: &'x odin::DistArray<'c>, y: &'x odin::DistArray<'c>) -> Expr<'x, 'c> {
    (Expr::leaf(x) * 2.0 + Expr::leaf(y)) * (Expr::leaf(x) - Expr::leaf(y) * 0.5)
        + (Expr::leaf(x) * Expr::leaf(y) + 3.0)
        - Expr::leaf(x).abs() * 0.25
        + (Expr::leaf(y) * 0.7 - Expr::leaf(x) * 0.3)
        + (Expr::leaf(x) + 1.5) * (Expr::leaf(y) - 0.25)
        - Expr::leaf(x).pow(2.0) * 0.125
        + (Expr::leaf(y) * Expr::leaf(y) - Expr::leaf(x) * 0.5) * (Expr::leaf(x) * 1.3 + 0.1)
        + (Expr::leaf(y).pow(3.0) + Expr::leaf(x) * 1.25) * 0.0625
        - (Expr::leaf(x) - Expr::leaf(y)).abs() * (Expr::leaf(x) + 2.0)
}

fn main() {
    let _obs = bench::obs_init();
    bench::header(
        "E20",
        "Seamless-JIT kernel plane for ODIN expressions",
        "lazy expressions lower to Seamless bytecode that ships to each \
         worker once and runs unboxed; the jitted pass is bitwise-equal \
         to eager evaluation and >= 2x faster than it",
    );
    let ctx = OdinContext::with_workers(WORKERS);
    let x = ctx.linspace(0.0, 1.0, N);
    let y = ctx.linspace(1.0, 3.0, N);
    let ops = probe(&x, &y).n_ops();

    // ---- identity: jit vs the eager oracle, bit for bit -------------------
    let jit = probe(&x, &y).eval();
    let eager = probe(&x, &y).eval_unfused();
    let (jv, ev) = (jit.to_vec(), eager.to_vec());
    for i in 0..N {
        assert_eq!(
            jv[i].to_bits(),
            ev[i].to_bits(),
            "jit and eager evaluation diverged at lane {i}: {} vs {}",
            jv[i],
            ev[i]
        );
    }
    println!("identity: jit == eager oracle on all {N} lanes ({ops}-op expression), bitwise");
    let fused = probe(&x, &y).sum();
    let two_pass = eager.sum();
    assert_eq!(fused.to_bits(), two_pass.to_bits());
    println!("identity: fused reduction tail == two-pass sum, bitwise");

    // ---- wire contract: one RegisterKernel per pool, tiny invokes --------
    // The expression kernel is already registered (cache key = bytecode),
    // so every eval in this window is exactly one EvalKernel broadcast.
    ctx.reset_stats();
    let reps = 10u64;
    let mut live = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        live.push(probe(&x, &y).eval());
    }
    let st = ctx.stats();
    assert_eq!(
        st.ctrl_msgs,
        reps * WORKERS as u64,
        "a warm eval must broadcast exactly one control message per worker"
    );
    assert!(
        st.mean_ctrl_bytes() < 100.0,
        "invoke messages must stay under 100 bytes, got {}",
        st.mean_ctrl_bytes()
    );
    println!(
        "wire: {} warm evals -> {} control msgs ({} per eval), mean {:.1} B \
         (bytecode shipped once, before this window)",
        reps,
        st.ctrl_msgs,
        st.ctrl_msgs / reps,
        st.mean_ctrl_bytes()
    );
    drop(live);

    // ---- speed: jitted single pass vs unfused per-node evaluation --------
    // Dispatch is async; barrier inside the closure so each sample covers
    // the workers actually finishing the pass, not just the broadcast.
    let t_jit = best_of(5, || {
        std::hint::black_box(probe(&x, &y).eval());
        ctx.barrier();
    });
    let t_unfused = best_of(5, || {
        std::hint::black_box(probe(&x, &y).eval_unfused());
        ctx.barrier();
    });
    let t_reduce = best_of(5, || std::hint::black_box(probe(&x, &y).sum()));
    println!("\ntimings, {N} elems x {ops} ops, {WORKERS} workers (best of 5):");
    println!("  unfused (1 temp per AST node) : {}", fmt_s(t_unfused));
    println!("  jitted bytecode               : {}", fmt_s(t_jit));
    println!("  jitted fused reduction        : {}", fmt_s(t_reduce));
    println!("  -> jit is {:.1}x faster than unfused", t_unfused / t_jit);
    assert!(
        t_unfused >= 2.0 * t_jit,
        "jitted eval must be >= 2x faster than unfused ({:.2}x)",
        t_unfused / t_jit
    );

    println!("\nshape: compilation happens once on the master (microseconds),");
    println!("then every evaluation is a single broadcast and a single pass");
    println!("over each worker's segment — no temporaries, no re-parsing, and");
    println!("the answer never moves by a bit from the eager semantics.");
}
