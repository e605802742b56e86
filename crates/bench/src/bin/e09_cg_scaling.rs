//! E9 — PyTrilinos claim: access to *scalable* distributed solvers.
//!
//! Two views:
//! * **measured**: real CG on this host (2 physical cores), small grids;
//! * **modeled**: the LogGP virtual clock driven by CG's exact
//!   communication structure per iteration (SpMV halo exchange with grid
//!   neighbors + 2 allreduces + local flops), at cluster-realistic sizes.
//!   Iteration counts are taken from the measured runs (they are
//!   rank-invariant and grow linearly with the grid side for the 2-D
//!   Laplacian).

use bench::fmt_s;
use comm::{ReduceOp, Src, Universe, UniverseConfig};
use dlinalg::DistVector;
use galeri::laplace_2d;
use solvers::{cg, IdentityPrecond, KrylovConfig};

/// Real CG, measured; returns (iterations, wall seconds).
fn measured_cg(ranks: usize, grid: usize) -> (usize, f64) {
    let cfg = KrylovConfig {
        rtol: 1e-6,
        max_iter: 20 * grid,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let report = Universe::run_report(UniverseConfig::default(), ranks, |comm| {
        let a = laplace_2d(comm, grid, grid);
        let b = DistVector::from_fn(a.domain_map().clone(), |g| 1.0 + (g % 7) as f64);
        let mut x = DistVector::zeros(a.domain_map().clone());
        let st = cg(comm, &a, &b, &mut x, &IdentityPrecond, &cfg);
        assert!(st.converged);
        st.iterations
    });
    (report.results[0], t0.elapsed().as_secs_f64())
}

/// Structural CG simulation on the virtual clock: rows split by block
/// rows of the grid; each iteration does one SpMV (5-point: exchange one
/// grid row with each neighbor) + 2 allreduces — the scalar p·Ap and the
/// fused two-lane (‖r‖², r·z) — + ~10 flops/row of vector work. Returns
/// the modeled makespan.
fn modeled_cg(ranks: usize, grid_rows: usize, cols: usize, iters: usize) -> f64 {
    let report = Universe::run_report(UniverseConfig::default(), ranks, move |comm| {
        let p = comm.size();
        let me = comm.rank();
        let rows_local = grid_rows / p + usize::from(me < grid_rows % p);
        let flops_per_iter = (rows_local * cols) as f64 * (2.0 * 5.0 + 10.0);
        const HALO_TAG: comm::Tag = 77;
        for _ in 0..iters {
            // SpMV halo: one grid row (cols f64s) to/from each neighbor
            let boundary = vec![0.0f64; cols];
            if me > 0 {
                comm.send(me - 1, HALO_TAG, &boundary).unwrap();
            }
            if me + 1 < p {
                comm.send(me + 1, HALO_TAG, &boundary).unwrap();
            }
            if me > 0 {
                let _ = comm.recv::<Vec<f64>>(Src::Rank(me - 1), HALO_TAG).unwrap();
            }
            if me + 1 < p {
                let _ = comm.recv::<Vec<f64>>(Src::Rank(me + 1), HALO_TAG).unwrap();
            }
            comm.advance_compute(flops_per_iter);
            let _ = comm.allreduce(&1.0f64, ReduceOp::sum());
            let _ = comm.allreduce(&(1.0f64, 1.0f64), |a, b| (a.0 + b.0, a.1 + b.1));
        }
    });
    report.makespan_s
}

fn main() {
    let _obs = bench::obs_init();
    bench::header(
        "E9",
        "CG strong/weak scaling (AztecOO role)",
        "PyTrilinos gives Python users 'massively parallel computations'; \
         iteration counts are rank-invariant and time scales with P",
    );

    // ---- measured: iteration counts are rank-invariant -------------------
    println!("measured CG, 2-D Laplace 96x96 (n = 9216), rtol 1e-6:");
    println!("{:>8} {:>7} {:>12}", "ranks", "iters", "wall");
    let mut iters96 = 0;
    for ranks in [1usize, 2, 4] {
        let (iters, wall) = measured_cg(ranks, 96);
        iters96 = iters;
        println!("{ranks:>8} {iters:>7} {:>12}", fmt_s(wall));
    }

    // calibrate iteration growth: iters ≈ c · grid
    let (iters48, _) = measured_cg(1, 48);
    let c = iters48 as f64 / 48.0;
    println!("\niteration growth: {iters48} @48, {iters96} @96  (≈ {c:.2}·grid — physics, not parallelism)");

    // ---- modeled strong scaling: 768x768 (n = 589824) --------------------
    let grid = 768usize;
    let iters = (c * grid as f64) as usize;
    println!(
        "\nmodeled strong scaling, {grid}x{grid} (n = {}), {iters} iterations:",
        grid * grid
    );
    println!(
        "{:>8} {:>12} {:>9} {:>12}",
        "ranks", "makespan", "speedup", "efficiency"
    );
    let mut m1 = 0.0;
    for ranks in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let m = modeled_cg(ranks, grid, grid, iters);
        if ranks == 1 {
            m1 = m;
        }
        let sp = m1 / m;
        println!(
            "{ranks:>8} {:>12} {:>8.2}x {:>11.1}%",
            fmt_s(m),
            sp,
            100.0 * sp / ranks as f64
        );
    }

    // ---- modeled weak scaling: 256 grid rows (256x256 block) per rank ----
    println!("\nmodeled weak scaling, 256 grid rows per rank (n = ranks · 65536):");
    println!(
        "{:>8} {:>10} {:>7} {:>12} {:>14}",
        "ranks", "n", "iters", "makespan", "per-iter eff."
    );
    let mut per_iter_base = 0.0;
    for ranks in [1usize, 4, 16, 64] {
        // a weak-scaled strip: 256·ranks grid rows of 256 columns
        let side = (65536.0 * ranks as f64).sqrt();
        let iters = (c * side) as usize;
        let m = modeled_cg(ranks, 256 * ranks, 256, iters);
        let per_iter = m / iters as f64;
        if ranks == 1 {
            per_iter_base = per_iter;
        }
        println!(
            "{ranks:>8} {:>10} {iters:>7} {:>12} {:>13.1}%",
            65536 * ranks,
            fmt_s(m),
            100.0 * per_iter_base / per_iter
        );
    }
    println!("\nshape: iteration counts are rank-invariant (measured); modeled");
    println!("strong scaling stays efficient while per-rank work dominates the");
    println!("2 allreduce latencies per iteration, then rolls off — the");
    println!("communication-bound regime every distributed CG hits.");
}
