//! `cg_poisson2d` — the PyTrilinos path. A 2-rank universe assembles the
//! 5-point Laplacian, and each op is one Jacobi-preconditioned CG solve
//! from x = 0 to rtol 1e-8. `dlinalg` (SpMV, dot, axpy), `comm` (three
//! allreduces and one halo exchange per iteration), `dmap` (the halo
//! plan) and `solvers` do all the work; `odin`, `seamless` and `serve`
//! do none.

use std::time::Instant;

use hpc_framework::galeri::laplace_2d;
use hpc_framework::obs::SplitMix64;
use hpc_framework::prelude::*;

use super::{cpu_seconds, Outcome, Params, PARTS};
use crate::spans::{Span, Tracer};

pub const NX: usize = 128;
pub const NY: usize = 128;
pub const RTOL: f64 = 1e-8;
/// `||b - A x|| / ||b||` the solution must reach: the recurrence residual
/// met `RTOL`, the true residual is allowed one digit of drift.
pub const TRUE_RESIDUAL_MAX: f64 = 1e-7;

/// CG iteration counts recorded at the commit that defined the
/// benchmark, for the seeds its acceptance runs use. A run with one of
/// these seeds must reproduce the count exactly (the reduction order is
/// fixed for a given rank count); other seeds must repeat their own
/// first solve's count.
pub const RECORDED_ITERS: [(u64, usize); 2] = [(42, 390), (7, 388)];

pub struct Problem {
    pub a: CsrMatrix<f64>,
    pub b: DistVector<f64>,
    pub m: JacobiPrecond<f64>,
    pub cfg: KrylovConfig,
}

/// Right-hand side entry for global row `g`: keyed by (seed, g) so the
/// vector does not depend on how many ranks hold it.
fn rhs_entry(seed: u64, g: usize) -> f64 {
    SplitMix64::new(seed ^ (g as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .gen_range_f64(-1.0, 1.0)
}

pub fn problem(comm: &Comm, seed: u64) -> Problem {
    let a = laplace_2d(comm, NX, NY);
    let b = DistVector::from_fn(a.row_map().clone(), |g| rhs_entry(seed, g));
    let m = JacobiPrecond::new(&a);
    let cfg = KrylovConfig::default()
        .with_rtol(RTOL)
        .with_max_iter(4 * (NX + NY));
    Problem { a, b, m, cfg }
}

/// One op: solve from x = 0.
pub fn solve(comm: &Comm, p: &Problem, x: &mut DistVector<f64>) -> SolveStatus {
    x.fill(0.0);
    cg(comm, &p.a, &p.b, x, &p.m, &p.cfg)
}

/// The oracle: converged, the expected iteration count, and a true
/// residual computed from scratch. Collective.
pub fn verify(
    comm: &Comm,
    p: &Problem,
    x: &DistVector<f64>,
    st: &SolveStatus,
    want_iters: usize,
) -> bool {
    let mut r = p.b.clone();
    r.axpy(-1.0, &p.a.matvec(comm, x));
    let residual = r.norm2(comm) / p.b.norm2(comm);
    st.converged && st.iterations == want_iters && residual <= TRUE_RESIDUAL_MAX
}

pub fn expected_iters(seed: u64, first_solve: usize) -> usize {
    RECORDED_ITERS
        .iter()
        .find(|(s, _)| *s == seed)
        .map_or(first_solve, |&(_, n)| n)
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    iters: usize,
    lat_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    attempted: u64,
    failed: u64,
    /// `CommStats` deltas summed over the timed solves only.
    msgs: u64,
    bytes: u64,
    recv_wait_s: f64,
    rank_wall_s: f64,
    plan_hits: u64,
    plan_misses: u64,
    spans: Vec<Span>,
}

/// One round on one rank.
fn rank_main(comm: &Comm, p: &Params, t0: Instant) -> RankOut {
    let root = comm.rank() == 0;
    let prob = problem(comm, p.seed);
    let mut x = DistVector::zeros(prob.a.row_map().clone());
    let first = solve(comm, &prob, &mut x);
    let want = expected_iters(p.seed, first.iterations);
    let first_ok = verify(comm, &prob, &x, &first, want);
    let mut out = RankOut {
        setup_s: t0.elapsed().as_secs_f64(),
        iters: first.iterations,
        attempted: 1,
        failed: u64::from(!first_ok),
        ..RankOut::default()
    };
    let _ = solve(comm, &prob, &mut x); // warm-up
    let mut tr = if p.traced && root {
        Tracer::on(t0, 0)
    } else {
        Tracer::off()
    };
    let per_iter: Vec<_> = p.recon.cg_per_iter.clone();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    loop {
        // rank 0 owns the clock; one flag per op keeps the ranks in step
        let go = comm.bcast(
            0,
            root.then(|| start.elapsed().as_secs_f64() < p.round_seconds()),
        );
        if !go {
            break;
        }
        let before = comm.stats();
        let t = Instant::now();
        let st = tr.span("bench", "op", out.attempted, |tr| {
            let st = tr.span("solvers", "cg", out.attempted, |_| {
                solve(comm, &prob, &mut x)
            });
            let iters = st.iterations as f64;
            let parts: Vec<_> = per_iter
                .iter()
                .map(|&(l, n, ns)| (l, n, ns * iters))
                .collect();
            tr.reconstruct(&parts);
            st
        });
        out.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let after = comm.stats();
        out.msgs += after.msgs_sent - before.msgs_sent;
        out.bytes += after.bytes_sent - before.bytes_sent;
        out.recv_wait_s += after.wall_recv_s - before.wall_recv_s;
        let ok = verify(comm, &prob, &x, &st, want);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu_s = cpu_seconds() - cpu0;
    out.rank_wall_s = out.lat_ms.iter().sum::<f64>() / 1e3;
    let total = comm.stats();
    out.plan_hits = total.plan_hits;
    out.plan_misses = total.plan_misses;
    out.spans = tr.finish();
    out
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    for _ in 0..p.rounds {
        let t0 = Instant::now();
        let mut report = Universe::run_report(UniverseConfig::default(), PARTS, |comm| {
            rank_main(comm, p, t0)
        });
        let ops = report.results[0].lat_ms.len().max(1) as f64;
        let msgs: u64 = report.results.iter().map(|r| r.msgs).sum();
        let bytes: u64 = report.results.iter().map(|r| r.bytes).sum();
        let waits: f64 = report.results.iter().map(|r| r.recv_wait_s).sum();
        let walls: f64 = report.results.iter().map(|r| r.rank_wall_s).sum();
        let hits: u64 = report.results.iter().map(|r| r.plan_hits).sum();
        let misses: u64 = report.results.iter().map(|r| r.plan_misses).sum();
        let r0 = std::mem::take(&mut report.results[0]);
        out.counters = vec![
            ("comm.msgs_per_op", msgs as f64 / ops),
            ("comm.bytes_per_op", bytes as f64 / ops),
            (
                "comm.recv_wait_share",
                if walls > 0.0 { waits / walls } else { 0.0 },
            ),
            ("comm.model_over_wall", report.makespan_s / report.wall_s),
            (
                "dmap.plan_hit_ratio",
                if hits + misses > 0 {
                    hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                },
            ),
            ("solvers.cg_iters", r0.iters as f64),
        ];
        if out.notes.is_empty() {
            out.notes.push(format!(
                "{NX}x{NY} grid, n = {}, {} CG iterations per solve, {PARTS} ranks",
                NX * NY,
                r0.iters
            ));
        }
        out.setup_s.push(r0.setup_s);
        out.attempted += r0.attempted;
        out.failed += r0.failed;
        out.rounds.push(r0.lat_ms);
        out.wall_s += r0.wall_s;
        out.round_wall_s.push(r0.wall_s);
        out.cpu_s += r0.cpu_s;
        out.add_spans(r0.spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_the_solve_and_rejects_a_wrong_count_or_solution() {
        let verdicts = Universe::run(PARTS, |comm| {
            let p = problem(comm, 7);
            let mut x = DistVector::zeros(p.a.row_map().clone());
            let st = solve(comm, &p, &mut x);
            let good = verify(comm, &p, &x, &st, st.iterations);
            let wrong_count = verify(comm, &p, &x, &st, st.iterations + 1);
            x.local_mut()[0] += 1e-3;
            let wrong_solution = verify(comm, &p, &x, &st, st.iterations);
            (good, wrong_count, wrong_solution)
        });
        assert_eq!(verdicts, vec![(true, false, false); PARTS]);
    }

    #[test]
    fn a_recorded_seed_must_reproduce_its_count() {
        for (seed, iters) in RECORDED_ITERS {
            assert_eq!(expected_iters(seed, iters + 5), iters);
        }
        assert_eq!(expected_iters(12345, 99), 99);
    }
}
