//! Quickstart: the paper's framework in one file.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the three systems: ODIN distributed arrays (global + local
//! modes), the Trilinos-analog solver stack through the bridge, and a
//! Seamless-compiled kernel.

use hpc_framework::prelude::*;
use hpc_framework::seamless;

fn main() {
    // ---- start the framework: 4 workers (the paper's "8-core desktop"
    // prototyping story; move to a cluster by raising the knob) ----------
    let ctx = OdinContext::with_workers(4);

    // ---- ODIN global mode: NumPy-like whole-array expressions ----------
    println!("== ODIN global mode ==");
    let x = ctx.linspace(0.0, std::f64::consts::TAU, 1_000);
    let y = x.sin();
    println!("sum(sin(x)) over [0, 2pi]  = {:+.3e} (≈ 0)", y.sum());

    // the paper's finite-difference one-liner: dy = y[1:] - y[:-1]
    let dy = &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1);
    let dx = std::f64::consts::TAU / 999.0;
    let max_err = {
        let dydx = &dy / dx;
        let cos = x.slice1(0, Some(-1), 1).cos();
        (&dydx - &cos).abs().max()
    };
    println!("max |d(sin)/dx - cos|      = {max_err:.3e} (first-order FD)");

    // lazy expressions lower to one JIT kernel, registered once and run
    // in a single fused pass per eval (loop fusion + tiny invokes)
    let h = (Expr::leaf(&x).pow(2.0) + Expr::leaf(&y).pow(2.0))
        .sqrt()
        .eval();
    println!("hypot via fused expression = {:.4} (mean)", h.mean());

    // ---- Seamless: compile pyish kernels and run them on the pool ------
    println!("\n== Seamless JIT ==");
    // element-wise kernel through the kernel plane: bytecode ships to
    // every worker once, each map is a tens-of-bytes control message
    let wave = ctx
        .compile_kernel("def wave(v):\n    return sin(v) * exp(-v * 0.5)\n", "wave")
        .expect("kernel compiles");
    let w = wave.map(&[&x]);
    println!("max of sin(x)*exp(-x/2) via JIT kernel = {:.4}", w.max());

    // segment-level kernel (the @odin.local + @jit composition)
    let src = "
def smooth(a):
    for i in range(1, len(a) - 1):
        a[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1]
";
    let kernel = compile_kernel(src, "smooth", &[Type::ArrF]).expect("kernel compiles");
    let noisy = ctx.random(&[1_000], 42);
    let before = noisy.to_vec();
    apply_kernel(&ctx, &noisy, &kernel).expect("segment kernel applies");
    let after = noisy.to_vec();
    let rough = |v: &[f64]| -> f64 {
        v.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (v.len() - 1) as f64
    };
    println!(
        "roughness before/after pyish smoothing: {:.4} -> {:.4}",
        rough(&before),
        rough(&after)
    );

    // the header-driven FFI (§IV-C)
    let libm = seamless::CModule::load_system("m").expect("math library");
    let v = libm
        .call("atan2", &[Value::Float(1.0), Value::Float(2.0)])
        .unwrap();
    println!("libm.atan2(1, 2) via discovered signature = {v:?}");

    // ---- PyTrilinos analog: solve a distributed system with an ODIN
    // array as the right-hand side (the §III-E bridge) --------------------
    println!("\n== Solver bridge ==");
    let n = 10_000;
    let b = ctx.ones(&[n], DType::F64);
    let (solution, report) = solve_with_odin_rhs(
        &ctx,
        &b,
        move |g| {
            let mut row = vec![(g, 2.0)];
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        },
        SolveMethod::CgAmg,
        Default::default(),
    );
    println!(
        "CG+AMG on 1-D Laplace (n={n}): {} iterations, residual {:.2e}, converged={}",
        report.iterations, report.final_residual, report.converged
    );
    println!(
        "solution midpoint u[n/2] = {:.1} (exact: n²/8 + n/4 ≈ {:.1})",
        solution.to_vec()[n / 2],
        (n * n) as f64 / 8.0 + n as f64 / 4.0,
    );

    let st = ctx.stats();
    println!(
        "\ncontrol traffic: {} messages, mean {:.1} bytes (the paper's 'tens of bytes')",
        st.ctrl_msgs,
        st.mean_ctrl_bytes()
    );
}
