//! 1-D heat equation with ODIN distributed slicing (§III-G).
//!
//! ```bash
//! cargo run --release --example heat_equation
//! ```
//!
//! Explicit Euler for `u_t = α·u_xx` on the unit interval written two
//! ways — exactly the E5 comparison:
//!
//! 1. **global mode**: `u[1:-1] += r * (u[2:] - 2 u[1:-1] + u[:-2])`,
//!    one line per step, halo communication handled by ODIN;
//! 2. **local mode**: hand-written per-worker stencil with explicit
//!    neighbor exchange (the "equivalent MPI code" of the paper).
//!
//! Both must agree to rounding, and both are checked against the analytic
//! decay of the fundamental sine mode.

use std::f64::consts::PI;

use hpc_framework::prelude::*;

const N: usize = 512; // interior points
const STEPS: usize = 200;
const R: f64 = 0.25; // α·dt/dx² (stable: ≤ 0.5)

/// One step in global mode: whole-array slicing expressions.
fn step_global<'c>(u: &DistArray<'c>) -> DistArray<'c> {
    let left = u.slice1(0, Some(-2), 1);
    let mid = u.slice1(1, Some(-1), 1);
    let right = u.slice1(2, None, 1);
    // u_new_interior = mid + r (right - 2 mid + left)
    let lap = &(&right - &(&mid * 2.0)) + &left;
    let interior = &mid + &(&lap * R);
    // reassemble with the Dirichlet boundary zeros
    let n = u.len();
    let zeros_edge = u.ctx().zeros(&[1], hpc_framework::odin::DType::F64);
    // build u_new by scattering: easiest global-mode form is a fresh
    // array from the fetched pieces — but staying distributed, we write
    // the interior into a zero array through a local function.
    let out = u.ctx().zeros(&[n], hpc_framework::odin::DType::F64);
    drop(zeros_edge);
    // copy interior (global indices 1..n-1) from the interior array
    // using redistribution-free local mode
    let interior_block = interior; // same Block layout
    out.ctx().run_spmd(&[&out, &interior_block], |scope, args| {
        let (out_id, int_id) = (args[0], args[1]);
        // interior value for global index g (1..n-1) is interior[g-1]
        let out_map = scope.axis_map(out_id);
        let int_map = scope.axis_map(int_id);
        // Fetch the interior values this worker needs: they live at
        // interior-global-id = out_gid - 1, usually on the same worker but
        // possibly a neighbor. Use the dmap gather plan.
        let needed: Vec<usize> = (0..out_map.my_count())
            .map(|l| out_map.local_to_global(l))
            .filter(|&g| g >= 1 && g + 1 < out_map.n_global())
            .map(|g| g - 1)
            .collect();
        let dir = hpc_framework::dmap::Directory::build(scope.comm, &int_map);
        let plan = hpc_framework::dmap::CommPlan::gather(scope.comm, &int_map, &dir, &needed);
        let src: Vec<f64> = scope.local(int_id).as_f64().to_vec();
        let mut vals = vec![0.0f64; plan.n_target()];
        plan.execute(scope.comm, &src, &mut vals);
        let out_buf = scope.local_mut(out_id).as_f64_mut();
        let mut vi = 0;
        for (l, slot) in out_buf.iter_mut().enumerate().take(out_map.my_count()) {
            let g = out_map.local_to_global(l);
            if g >= 1 && g + 1 < out_map.n_global() {
                *slot = vals[vi];
                vi += 1;
            }
        }
    });
    out
}

/// The hand-written local-mode equivalent: per-worker stencil with
/// explicit boundary exchange, one registered function reused every step.
fn run_local(ctx: &OdinContext, u0: &[f64], steps: usize) -> Vec<f64> {
    let u = ctx.from_vec(u0, hpc_framework::odin::Dist::Block);
    for _ in 0..steps {
        ctx.run_spmd(&[&u], |scope, args| {
            let id = args[0];
            let (left_ghost, right_ghost) = scope.exchange_boundary_1d(id);
            let map = scope.axis_map(id);
            let n = map.n_global();
            let mine: Vec<f64> = scope.local(id).as_f64().to_vec();
            let mut next = mine.clone();
            for l in 0..mine.len() {
                let g = map.local_to_global(l);
                if g == 0 || g + 1 == n {
                    continue; // Dirichlet boundary
                }
                let um = if l == 0 {
                    left_ghost.expect("interior point needs a left neighbor")
                } else {
                    mine[l - 1]
                };
                let up = if l + 1 == mine.len() {
                    right_ghost.expect("interior point needs a right neighbor")
                } else {
                    mine[l + 1]
                };
                next[l] = mine[l] + R * (up - 2.0 * mine[l] + um);
            }
            scope.overwrite_f64(id, next);
        });
    }
    u.to_vec()
}

fn main() {
    let ctx = OdinContext::with_workers(4);
    let n_total = N + 2; // including boundary points
    let dx = 1.0 / (n_total as f64 - 1.0);

    // initial condition: fundamental sine mode (clean analytic decay)
    let u0: Vec<f64> = (0..n_total).map(|i| (PI * i as f64 * dx).sin()).collect();

    // ---- global mode ----
    let mut u = ctx.from_vec(&u0, hpc_framework::odin::Dist::Block);
    let t0 = std::time::Instant::now();
    for _ in 0..STEPS {
        u = step_global(&u);
    }
    let global_time = t0.elapsed();
    let u_global = u.to_vec();

    // ---- local (hand-written halo) mode ----
    let t0 = std::time::Instant::now();
    let u_local = run_local(&ctx, &u0, STEPS);
    let local_time = t0.elapsed();

    // ---- agreement & physics ----
    let max_diff = u_global
        .iter()
        .zip(&u_local)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    // discrete decay factor per step: 1 - 4R sin²(π dx / 2)
    let decay = (1.0 - 4.0 * R * (PI * dx / 2.0).sin().powi(2)).powi(STEPS as i32);
    let mid = n_total / 2;
    println!("1-D heat equation, n={n_total}, {STEPS} steps, r={R}");
    println!("  global-mode slicing : {global_time:?}");
    println!("  local-mode stencil  : {local_time:?}");
    println!("  max |global-local|  : {max_diff:.3e}");
    println!(
        "  u(mid) = {:.6} vs analytic decay {:.6}",
        u_global[mid],
        u0[mid] * decay
    );
    assert!(max_diff < 1e-12, "modes disagree");
    assert!((u_global[mid] - u0[mid] * decay).abs() < 1e-9);
    println!("  OK: one-line global expressions match hand-written halo code");
}
