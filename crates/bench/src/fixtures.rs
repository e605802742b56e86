//! Workloads shared by the `experiments` rows and by the tier-1 gates in
//! `tests/model_gates.rs`, `tests/alloc_free.rs` and
//! `tests/kernel_plane.rs`: the table a row prints and the property a
//! test asserts come from the same function.

use comm::{
    CollectiveAlgo, Comm, CommStats, Delivery, FaultPlan, ReduceOp, Universe, UniverseConfig,
};
use dlinalg::{CsrMatrix, DistVector};
use galeri::laplace_2d;
use odin::{DistArray, Expr};
use solvers::{cg, IdentityPrecond, KrylovConfig};

/// Modeled-rank sweep of the scaling tables.
pub const MODELED_RANKS: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

/// Chaos seed, overridable per CI pass: `HPC_FAULT_SEED=43 …`.
pub fn fault_seed() -> u64 {
    std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The E20 identity body: 39 cheap ops over two leaves, every lane
/// finite. Wide on purpose — fusion pays where the unfused path streams
/// one temporary per node through memory.
pub fn wide_expr<'x, 'c>(x: &'x DistArray<'c>, y: &'x DistArray<'c>) -> Expr<'x, 'c> {
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

/// [`wide_expr`] summed over all lanes, as pyish source for the boxed
/// tree-walking interpreter. The boxed builtin table has no `pow`, so the
/// powers are spelled as multiplies: agreement is to a tolerance, not
/// bitwise.
pub const WIDE_SUM_PYISH: &str = "
def wide_sum(x, y):
    res = 0.0
    for i in range(len(x)):
        a = x[i]
        b = y[i]
        res = res + ((a * 2.0 + b) * (a - b * 0.5) + (a * b + 3.0) - abs(a) * 0.25 + (b * 0.7 - a * 0.3) + (a + 1.5) * (b - 0.25) - a * a * 0.125 + (b * b - a * 0.5) * (a * 1.3 + 0.1) + (b * b * b + a * 1.25) * 0.0625 - abs(a - b) * (a + 2.0))
    return res
";

/// E17: `iters` CG-shaped iterations on a 512x512 Laplacian — one SpMV,
/// the one three-lane allreduce `solvers::cg` issues and ~10 flops/row of
/// vector updates — with the overlapped split-phase matvec or the
/// blocking reference. Arithmetic is identical; only the modeled timeline
/// differs. Returns the makespan.
pub fn modeled_spmv_cg(ranks: usize, iters: usize, blocking: bool) -> f64 {
    Universe::run_report(UniverseConfig::default(), ranks, move |comm| {
        let a = laplace_2d(comm, 512, 512);
        let mut p = DistVector::from_fn(a.domain_map().clone(), |g| 1.0 + (g % 13) as f64);
        let mut y = DistVector::zeros(a.row_map().clone());
        let rows_local = a.row_map().my_count();
        for _ in 0..iters {
            if blocking {
                dlinalg::reference::matvec_into_blocking(&a, comm, &p, &mut y);
            } else {
                a.matvec_into(comm, &p, &mut y);
            }
            let _ = comm.allreduce(&(1.0f64, 1.0f64, 1.0f64), |a, b| {
                (a.0 + b.0, a.1 + b.1, a.2 + b.2)
            });
            comm.advance_compute(10.0 * rows_local as f64);
            std::mem::swap(&mut p, &mut y);
        }
    })
    .makespan_s
}

/// E18: CG (rtol 1e-8, at most `max_iter` iterations) on a 48x48
/// Laplacian over reliable delivery with a seeded message-drop rate.
/// Returns the modeled makespan and the per-rank stats (retransmits are
/// charged to the virtual clock, so losing messages costs modeled time).
pub fn dropped_cg(ranks: usize, max_iter: usize, drop_p: f64) -> (f64, Vec<CommStats>) {
    let cfg = UniverseConfig {
        stall_timeout: Some(std::time::Duration::from_secs(30)),
        fault: FaultPlan::messages(fault_seed(), drop_p, 0.0, 0.0, 0.0),
        delivery: Delivery::Reliable,
        ..Default::default()
    };
    let report = Universe::run_report(cfg, ranks, move |comm| {
        let a = laplace_2d(comm, 48, 48);
        let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g as f64) * 0.11).sin());
        let mut x = DistVector::zeros(a.domain_map().clone());
        let kcfg = KrylovConfig {
            rtol: 1e-8,
            max_iter,
            ..Default::default()
        };
        let _ = cg(comm, &a, &b, &mut x, &IdentityPrecond, &kcfg);
    });
    (report.makespan_s, report.stats)
}

/// E19 sweep plane: every (op, ranks, payload lanes) point. Allgather
/// stops at 1024 lanes (64 ranks x 128 KiB blocks would materialize
/// 8 MiB per rank); bcast resolves payload-blind by contract (only the
/// root holds the payload), so its decision is only defined in the
/// latency-bound control-message regime.
pub fn autotune_points() -> Vec<(&'static str, usize, usize)> {
    let mut points = Vec::new();
    for op in ["bcast", "reduce", "allreduce", "allgather"] {
        for ranks in [2usize, 4, 8, 16, 32, 64] {
            for len in [1usize, 64, 1024, 16384] {
                let capped = (op == "allgather" && len > 1024) || (op == "bcast" && len > 64);
                if !capped {
                    points.push((op, ranks, len));
                }
            }
        }
    }
    points
}

/// Modeled makespan of one collective call under `algo`. Per-op, not a
/// mix: the model scores a single call, and back-to-back collectives
/// pipeline in the simulator in ways no per-call model can see.
fn collective_makespan(op: &'static str, ranks: usize, len: usize, algo: CollectiveAlgo) -> f64 {
    let cfg = UniverseConfig {
        algo,
        ..Default::default()
    };
    Universe::run_report(cfg, ranks, move |comm| {
        let v = vec![comm.rank() as f64 + 1.0; len];
        match op {
            "bcast" => comm.bcast(0, (comm.rank() == 0).then(|| v.clone()))[0],
            "reduce" => comm
                .reduce(0, &v, ReduceOp::vec_sum())
                .map_or(0.0, |r| r[0]),
            "allreduce" => comm.allreduce(&v, ReduceOp::vec_sum())[0],
            "allgather" => comm.allgather(&v).len() as f64,
            _ => unreachable!("unknown op {op}"),
        }
    })
    .makespan_s
}

/// One [`autotune_points`] point: `[linear, tree, recursive doubling,
/// auto]` makespans (exact virtual time).
pub fn autotune_point(op: &'static str, ranks: usize, len: usize) -> [f64; 4] {
    [
        CollectiveAlgo::Linear,
        CollectiveAlgo::Tree,
        CollectiveAlgo::RecursiveDoubling,
        CollectiveAlgo::Auto,
    ]
    .map(|algo| collective_makespan(op, ranks, len, algo))
}

/// The system the fixed-iteration CG fixtures solve.
pub fn laplace_system(comm: &Comm, grid: usize) -> (CsrMatrix<f64>, DistVector<f64>) {
    let a = laplace_2d(comm, grid, grid);
    let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g as f64) * 0.17).sin());
    (a, b)
}

/// Solve from a zero guess for exactly `iters` CG iterations (tolerances
/// 0 disable convergence), so two runs do identical work.
pub fn fixed_iter_cg(
    comm: &Comm,
    a: &CsrMatrix<f64>,
    b: &DistVector<f64>,
    x: &mut DistVector<f64>,
    iters: usize,
) {
    x.local_mut().fill(0.0);
    let kcfg = KrylovConfig {
        max_iter: iters,
        rtol: 0.0,
        atol: 0.0,
        ..Default::default()
    };
    let _ = cg(comm, a, b, x, &IdentityPrecond, &kcfg);
}
