//! 2-D Poisson with the full solver stack (PyTrilinos analog).
//!
//! ```bash
//! cargo run --release --example poisson_solver
//! ```
//!
//! Solves the manufactured 2-D Poisson problem at several sizes with
//! CG under different preconditioners (Ifpack/ML roles), reports
//! iterations, measured time, and the modeled cluster makespan from the
//! LogGP virtual clock — the experiment E9/E10 story as a runnable demo.

use hpc_framework::galeri::poisson2d_manufactured;
use hpc_framework::prelude::*;
use hpc_framework::solvers::{IluPrecond, SsorPrecond};

fn main() {
    let cfg = KrylovConfig {
        rtol: 1e-8,
        max_iter: 5000,
        ..Default::default()
    };
    println!("2-D Poisson, manufactured solution u = sin(pi x) sin(pi y)");
    println!(
        "{:>8} {:>6} {:>12} {:>7} {:>12} {:>14} {:>12}",
        "n", "ranks", "precond", "iters", "rel.err", "measured", "modeled"
    );
    for grid in [24usize, 48] {
        let n = grid * grid;
        for ranks in [1usize, 2, 4] {
            for precond in ["none", "jacobi", "ssor", "ilu0", "amg"] {
                let cfg2 = cfg;
                let report = Universe::run_report(UniverseConfig::default(), ranks, |comm| {
                    let prob = poisson2d_manufactured(comm, grid, grid);
                    let mut x = DistVector::zeros(prob.a.domain_map().clone());
                    let m: Box<dyn Preconditioner<f64>> = match precond {
                        "none" => Box::new(IdentityPrecond),
                        "jacobi" => Box::new(JacobiPrecond::new(&prob.a)),
                        "ssor" => Box::new(SsorPrecond::new(&prob.a, 1.2)),
                        "ilu0" => Box::new(IluPrecond::new(&prob.a)),
                        _ => Box::new(AmgPreconditioner::new(comm, &prob.a, Default::default())),
                    };
                    let t0 = std::time::Instant::now();
                    let st = cg(comm, &prob.a, &prob.b, &mut x, m.as_ref(), &cfg2)
                        .into_result()
                        .unwrap_or_else(|e| panic!("{precond} at n={n}: {e}"));
                    let wall = t0.elapsed().as_secs_f64();
                    let mut e = x.clone();
                    e.axpy(-1.0, &prob.x_exact);
                    let rel = e.norm2(comm) / prob.x_exact.norm2(comm);
                    (st.iterations, rel, wall)
                });
                let (iters, rel, wall) = report.results[0];
                println!(
                    "{:>8} {:>6} {:>12} {:>7} {:>12.2e} {:>12.1}ms {:>10.2}ms",
                    n,
                    ranks,
                    precond,
                    iters,
                    rel,
                    wall * 1e3,
                    report.makespan_s * 1e3,
                );
            }
        }
        println!();
    }
    println!("Note: 'modeled' is the LogGP virtual-clock makespan (cluster-shaped");
    println!("costs); 'measured' is wall time on this shared-memory host.");
}
