//! Krylov-space iterative solvers (AztecOO analog): preconditioned CG,
//! BiCGStab, and restarted GMRES.
//!
//! CG and BiCGStab are generic over [`Scalar`] (complex Hermitian systems
//! work through the conjugated dot product); GMRES is implemented for
//! `f64`, where the Givens-rotation least-squares update is standard.

use comm::Comm;
use dlinalg::{CsrMatrix, DistVector, RealScalar, Scalar};

use crate::checkpoint::{CgCheckpoint, CgCheckpointing};
use crate::instrument;
use crate::precond::Preconditioner;
use crate::status::SolveStatus;

/// Stopping criteria shared by the Krylov methods.
#[derive(Debug, Clone, Copy)]
pub struct KrylovConfig {
    /// Maximum iterations (for GMRES: total inner iterations).
    pub max_iter: usize,
    /// Relative tolerance on ‖r‖/‖r₀‖.
    pub rtol: f64,
    /// Absolute tolerance on ‖r‖.
    pub atol: f64,
    /// GMRES restart length (ignored by CG/BiCGStab).
    pub restart: usize,
}

impl Default for KrylovConfig {
    fn default() -> Self {
        KrylovConfig {
            max_iter: 1000,
            rtol: 1e-10,
            atol: 1e-300,
            restart: 30,
        }
    }
}

impl KrylovConfig {
    /// Set the iteration budget.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Set the relative tolerance on ‖r‖/‖r₀‖.
    #[must_use]
    pub fn with_rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }

    /// Set the absolute tolerance on ‖r‖.
    #[must_use]
    pub fn with_atol(mut self, atol: f64) -> Self {
        self.atol = atol;
        self
    }

    fn done(&self, r: f64, r0: f64) -> bool {
        r <= self.atol || (r0 > 0.0 && r / r0 <= self.rtol)
    }
}

/// Preconditioned conjugate gradients for SPD (or Hermitian positive
/// definite) systems. Solves `A·x = b`, starting from `x`'s current value.
///
/// Single-reduction (Chronopoulos–Gear) form: with `u = M⁻¹r` and
/// `w = A·u`, an iteration is one vector sweep, one SpMV and **one**
/// collective reduction — `(r,r)`, `(r,u)` and `(u,w)` in one three-lane
/// allreduce — from which `p·Ap` follows by recurrence; start-up costs one
/// SpMV more than classic PCG. Same Krylov iterates in exact arithmetic,
/// different rounding: classic PCG is kept as a test oracle, not shipped.
/// A breakdown — `p·Ap` (`u·Au` at start-up) zero or non-finite, or a
/// non-finite residual, as an indefinite operator or a NaN out of the
/// preconditioner produces — ends the solve with `converged: false` and
/// the history so far.
pub fn cg<S: Scalar>(
    comm: &Comm,
    a: &CsrMatrix<S>,
    b: &DistVector<S>,
    x: &mut DistVector<S>,
    m: &dyn Preconditioner<S>,
    cfg: &KrylovConfig,
) -> SolveStatus {
    cg_checkpointed(comm, a, b, x, m, cfg, &CgCheckpointing::none())
}

/// [`cg`] with periodic state checkpoints and optional restart. Plain and
/// checkpointed solves share this one code path, so a run resumed from a
/// [`CgCheckpoint`] replays the exact floating-point sequence of an
/// uninterrupted run — bitwise-identical iterates included (E18).
pub fn cg_checkpointed<S: Scalar>(
    comm: &Comm,
    a: &CsrMatrix<S>,
    b: &DistVector<S>,
    x: &mut DistVector<S>,
    m: &dyn Preconditioner<S>,
    cfg: &KrylovConfig,
    ck: &CgCheckpointing<'_, S>,
) -> SolveStatus {
    let map = b.map();
    // Workspaces reused across iterations: the loop below performs no
    // heap allocation besides the (pre-reserved) history push.
    let mut u = DistVector::zeros(map.clone());
    let mut w = DistVector::zeros(map.clone());
    let (mut r, mut p, mut s);
    let (mut gamma, mut alpha, mut beta);
    let r0_norm;
    let mut history;
    let start;
    if let Some(c) = ck.resume {
        assert_eq!(
            c.x.len(),
            x.local().len(),
            "resume checkpoint does not match this rank's segment"
        );
        x.local_mut().copy_from_slice(&c.x);
        [r, p, s] = [&c.r, &c.p, &c.s].map(|v| DistVector::from_local(map.clone(), v.clone()));
        (gamma, alpha, beta) = (c.gamma, c.alpha, c.beta);
        r0_norm = c.r0_norm;
        history = c.history.clone();
        start = c.iteration;
        // u and w are not checkpointed: the calls that made them remake them.
        m.apply_into(comm, &r, &mut u);
        a.matvec_into(comm, &u, &mut w);
    } else {
        r = b.clone();
        r.axpy(-S::one(), &a.matvec(comm, x));
        m.apply_into(comm, &r, &mut u);
        a.matvec_into(comm, &u, &mut w);
        let [rr, ru, uw] = DistVector::dots([(&r, &r), (&r, &u), (&u, &w)], comm);
        r0_norm = norm_from_lane(rr);
        history = vec![r0_norm];
        if cfg.done(r0_norm, r0_norm) || r0_norm == 0.0 {
            return cg_status(history, true);
        }
        if !is_usable_divisor(uw) {
            // breakdown: A is not positive definite along the first direction
            return cg_status(history, false);
        }
        (gamma, alpha, beta) = (ru, ru / uw, S::zero());
        p = DistVector::zeros(map.clone());
        s = DistVector::zeros(map.clone());
        start = 1;
    }
    history.reserve((cfg.max_iter + 1).saturating_sub(start));
    let d = m.pointwise_multiplier();
    // One synchronization per iteration. The price is one preconditioner
    // apply and one SpMV on the iteration that converges, whose u and w
    // are never used.
    for it in start..=cfg.max_iter {
        if ck.every > 0 && (it - 1) % ck.every == 0 {
            if let Some(sink) = ck.sink {
                sink(CgCheckpoint {
                    iteration: it,
                    x: x.local().to_vec(),
                    r: r.local().to_vec(),
                    p: p.local().to_vec(),
                    s: s.local().to_vec(),
                    gamma,
                    alpha,
                    beta,
                    r0_norm,
                    history: history.clone(),
                });
            }
        }
        let timer = instrument::iter_start(comm);
        // p ← u + β·p, s ← w + β·s (copies on the first iteration),
        // x ← x + α·p, r ← r − α·s, and u ← M⁻¹r if M is pointwise.
        let sweep_beta = (it > 1).then_some(beta);
        instrument::phase(comm, "cg.sweep", || {
            let v = [&mut p, &mut s, &mut *x, &mut r];
            DistVector::cg_sweep(v, &mut u, &w, d, sweep_beta, alpha);
        });
        if d.is_none() {
            instrument::phase(comm, "cg.precond", || m.apply_into(comm, &r, &mut u));
        }
        instrument::phase(comm, "cg.spmv", || a.matvec_into(comm, &u, &mut w));
        let [rr, gamma_new, delta] = DistVector::dots([(&r, &r), (&r, &u), (&u, &w)], comm);
        let rnorm = norm_from_lane(rr);
        history.push(rnorm);
        if let Some(t) = timer {
            instrument::iter_finish(t, comm, "cg.iter", it, rnorm);
        }
        if cfg.done(rnorm, r0_norm) {
            return cg_status(history, true);
        }
        if !rnorm.is_finite() {
            break; // a NaN/∞ residual never recovers
        }
        beta = gamma_new / gamma;
        // η = p·Ap of the next direction, from this one reduction
        let eta = delta - beta * gamma_new / alpha;
        if !is_usable_divisor(eta) {
            break; // breakdown: A is not positive definite along p
        }
        alpha = gamma_new / eta;
        gamma = gamma_new;
    }
    // Out of budget, or a breakdown left the loop early.
    cg_status(history, false)
}

/// A CG solve's status from its residual history, recorded for `obs`.
fn cg_status(history: Vec<f64>, converged: bool) -> SolveStatus {
    let iterations = history.len() - 1;
    instrument::record_solve("cg", iterations, converged, history[iterations]);
    SolveStatus {
        converged,
        iterations,
        history,
    }
}

/// The norm `‖x‖` from the `(x, x)` lane of a [`DistVector::dots`] call —
/// bitwise `x.norm2()`.
pub(crate) fn norm_from_lane<S: Scalar>(xx: S) -> f64 {
    xx.re().sqrt().to_f64()
}

/// Whether a Krylov recurrence may divide by `d`: nonzero and finite.
fn is_usable_divisor<S: Scalar>(d: S) -> bool {
    let m = d.abs().to_f64();
    m != 0.0 && m.is_finite()
}

/// Preconditioned BiCGStab for general (nonsymmetric) systems.
pub fn bicgstab<S: Scalar>(
    comm: &Comm,
    a: &CsrMatrix<S>,
    b: &DistVector<S>,
    x: &mut DistVector<S>,
    m: &dyn Preconditioner<S>,
    cfg: &KrylovConfig,
) -> SolveStatus {
    let ax = a.matvec(comm, x);
    let mut r = b.clone();
    r.axpy(-S::one(), &ax);
    // Shadow residual r̂ = r₀.
    let r_hat = r.clone();
    // Four synchronizations per iteration: each ‖r‖² travels with the
    // ρ = r̂·r the next iteration opens with (this first pair included),
    // and t·t with t·s.
    let [rr, mut rho_new] = DistVector::dots([(&r, &r), (&r_hat, &r)], comm);
    let r0_norm = norm_from_lane(rr);
    let mut history = vec![r0_norm];
    if cfg.done(r0_norm, r0_norm) || r0_norm == 0.0 {
        instrument::record_solve("bicgstab", 0, true, r0_norm);
        return SolveStatus {
            converged: true,
            iterations: 0,
            history,
        };
    }
    let mut rho = S::one();
    let mut alpha = S::one();
    let mut omega = S::one();
    let mut v = DistVector::zeros(b.map().clone());
    let mut p = DistVector::zeros(b.map().clone());
    // Workspaces reused across iterations (no per-iteration allocation).
    let mut p_hat = DistVector::zeros(b.map().clone());
    let mut s = DistVector::zeros(b.map().clone());
    let mut s_hat = DistVector::zeros(b.map().clone());
    let mut t = DistVector::zeros(b.map().clone());
    history.reserve(cfg.max_iter);
    for it in 1..=cfg.max_iter {
        let timer = instrument::iter_start(comm);
        if !is_usable_divisor(rho_new) {
            break; // breakdown
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p ← r + beta (p − ω v)
        p.axpy(-omega, &v);
        p.scale(beta);
        p.axpy(S::one(), &r);
        m.apply_into(comm, &p, &mut p_hat);
        a.matvec_into(comm, &p_hat, &mut v);
        alpha = rho / r_hat.dot(&v, comm);
        // s = r − α v
        s.local_mut().copy_from_slice(r.local());
        s.axpy(-alpha, &v);
        let snorm = s.norm2(comm).to_f64();
        if cfg.done(snorm, r0_norm) {
            x.axpy(alpha, &p_hat);
            history.push(snorm);
            if let Some(t) = timer {
                instrument::iter_finish(t, comm, "bicgstab.iter", it, snorm);
            }
            instrument::record_solve("bicgstab", it, true, snorm);
            return SolveStatus {
                converged: true,
                iterations: it,
                history,
            };
        }
        m.apply_into(comm, &s, &mut s_hat);
        a.matvec_into(comm, &s_hat, &mut t);
        let [tt, ts] = DistVector::dots([(&t, &t), (&t, &s)], comm);
        if !is_usable_divisor(tt) {
            break;
        }
        omega = ts / tt;
        // x ← x + α p_hat + ω s_hat
        x.axpy(alpha, &p_hat);
        x.axpy(omega, &s_hat);
        // r = s − ω t (swap keeps both buffers alive for reuse)
        std::mem::swap(&mut r, &mut s);
        r.axpy(-omega, &t);
        let [rr, rho_next] = DistVector::dots([(&r, &r), (&r_hat, &r)], comm);
        rho_new = rho_next;
        let rnorm = norm_from_lane(rr);
        history.push(rnorm);
        if let Some(t) = timer {
            instrument::iter_finish(t, comm, "bicgstab.iter", it, rnorm);
        }
        if cfg.done(rnorm, r0_norm) {
            instrument::record_solve("bicgstab", it, true, rnorm);
            return SolveStatus {
                converged: true,
                iterations: it,
                history,
            };
        }
        if !is_usable_divisor(omega) {
            break;
        }
    }
    let iterations = history.len() - 1;
    instrument::record_solve("bicgstab", iterations, false, history[iterations]);
    SolveStatus {
        converged: false,
        iterations,
        history,
    }
}

/// Right-preconditioned restarted GMRES(m) for general `f64` systems:
/// solves `A·M⁻¹·u = b`, `x = M⁻¹·u`.
pub fn gmres(
    comm: &Comm,
    a: &CsrMatrix<f64>,
    b: &DistVector<f64>,
    x: &mut DistVector<f64>,
    m: &dyn Preconditioner<f64>,
    cfg: &KrylovConfig,
) -> SolveStatus {
    let restart = cfg.restart.max(1);
    let mut history = Vec::with_capacity(cfg.max_iter + 1);
    let mut total_iters = 0usize;
    let mut r0_norm = f64::NAN;
    // Preconditioned-vector workspace reused across all inner iterations.
    let mut zj = DistVector::zeros(b.map().clone());
    loop {
        // residual of the current iterate
        let ax = a.matvec(comm, x);
        let mut r = b.clone();
        r.axpy(-1.0, &ax);
        let beta = r.norm2(comm);
        if r0_norm.is_nan() {
            r0_norm = beta;
            history.push(beta);
        }
        if cfg.done(beta, r0_norm) {
            instrument::record_solve("gmres", total_iters, true, beta);
            return SolveStatus {
                converged: true,
                iterations: total_iters,
                history,
            };
        }
        if total_iters >= cfg.max_iter {
            instrument::record_solve("gmres", total_iters, false, beta);
            return SolveStatus {
                converged: false,
                iterations: total_iters,
                history,
            };
        }
        // Arnoldi with modified Gram–Schmidt: each projection reads the w
        // the previous one updated, so the j+1 dots of a column cannot
        // share a reduction. Fusing them is classical Gram–Schmidt — new
        // numerics, not a reordering — and is deliberately not done here.
        let mut basis: Vec<DistVector<f64>> = Vec::with_capacity(restart + 1);
        let mut v0 = r.clone();
        v0.scale(1.0 / beta);
        basis.push(v0);
        // Hessenberg stored column-wise: h[j] has j+2 entries.
        let mut h: Vec<Vec<f64>> = Vec::with_capacity(restart);
        let mut cs: Vec<f64> = Vec::with_capacity(restart);
        let mut sn: Vec<f64> = Vec::with_capacity(restart);
        let mut g = vec![0.0f64; restart + 1];
        g[0] = beta;
        let mut k_used = 0;
        for j in 0..restart {
            if total_iters >= cfg.max_iter {
                break;
            }
            total_iters += 1;
            let timer = instrument::iter_start(comm);
            m.apply_into(comm, &basis[j], &mut zj);
            let mut w = a.matvec(comm, &zj);
            let mut hj = vec![0.0f64; j + 2];
            for (i, vi) in basis.iter().enumerate() {
                let hij = vi.dot(&w, comm);
                hj[i] = hij;
                w.axpy(-hij, vi);
            }
            let wnorm = w.norm2(comm);
            hj[j + 1] = wnorm;
            // Apply existing Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                hj[i] = t;
            }
            // New rotation to zero hj[j+1].
            let (c, s) = givens(hj[j], hj[j + 1]);
            cs.push(c);
            sn.push(s);
            hj[j] = c * hj[j] + s * hj[j + 1];
            hj[j + 1] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;
            h.push(hj);
            k_used = j + 1;
            let res = g[j + 1].abs();
            history.push(res);
            if let Some(t) = timer {
                instrument::iter_finish(t, comm, "gmres.iter", total_iters, res);
            }
            if cfg.done(res, r0_norm) || wnorm == 0.0 {
                break;
            }
            let mut vnext = w;
            vnext.scale(1.0 / wnorm);
            basis.push(vnext);
        }
        // Back-substitute the triangular system for the update coefficients.
        let mut y = vec![0.0f64; k_used];
        for i in (0..k_used).rev() {
            let mut acc = g[i];
            for j in i + 1..k_used {
                acc -= h[j][i] * y[j];
            }
            y[i] = acc / h[i][i];
        }
        // x ← x + M⁻¹ (V y)
        let mut update = DistVector::zeros(b.map().clone());
        for (j, &yj) in y.iter().enumerate() {
            update.axpy(yj, &basis[j]);
        }
        m.apply_into(comm, &update, &mut zj);
        x.axpy(1.0, &zj);
        // loop continues: recompute residual, restart or exit
    }
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() < b.abs() {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    } else {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, IluPrecond, JacobiPrecond};
    use comm::Universe;
    use dmap::DistMap;

    fn laplace(comm: &Comm, n: usize) -> CsrMatrix<f64> {
        let m = DistMap::block(n, comm.size(), comm.rank());
        CsrMatrix::from_row_fn(comm, m.clone(), m, move |g| {
            let mut row = Vec::new();
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 2.0));
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        })
    }

    fn check_residual(comm: &Comm, a: &CsrMatrix<f64>, b: &DistVector<f64>, x: &DistVector<f64>) {
        let ax = a.matvec(comm, x);
        let mut r = b.clone();
        r.axpy(-1.0, &ax);
        let rel = r.norm2(comm) / b.norm2(comm);
        assert!(rel < 1e-8, "relative residual {rel}");
    }

    #[test]
    fn cg_solves_laplace_multirank() {
        for p in [1, 2, 3] {
            Universe::run(p, |comm| {
                let n = 40;
                let a = laplace(comm, n);
                let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g as f64) * 0.1).sin());
                let mut x = DistVector::zeros(a.domain_map().clone());
                let st = cg(
                    comm,
                    &a,
                    &b,
                    &mut x,
                    &IdentityPrecond,
                    &KrylovConfig::default(),
                );
                assert!(st.converged, "CG did not converge: {:?}", st.iterations);
                check_residual(comm, &a, &b, &x);
                // 1-D Laplace: CG converges in at most n iterations
                assert!(st.iterations <= n);
            });
        }
    }

    #[test]
    fn cg_iteration_count_is_rank_invariant() {
        let iters: Vec<usize> = [1usize, 2, 4]
            .iter()
            .map(|&p| {
                Universe::run(p, |comm| {
                    let a = laplace(comm, 32);
                    let b = DistVector::constant(a.domain_map().clone(), 1.0);
                    let mut x = DistVector::zeros(a.domain_map().clone());
                    let st = cg(
                        comm,
                        &a,
                        &b,
                        &mut x,
                        &IdentityPrecond,
                        &KrylovConfig::default(),
                    );
                    st.iterations
                })[0]
            })
            .collect();
        assert_eq!(iters[0], iters[1]);
        assert_eq!(iters[0], iters[2]);
    }

    #[test]
    fn jacobi_preconditioned_cg_converges() {
        Universe::run(2, |comm| {
            // variable-coefficient 1-D diffusion: symmetric, with a
            // strongly varying diagonal so Jacobi actually helps
            let n = 30;
            let m = DistMap::block(n, comm.size(), comm.rank());
            let kcoef = |i: usize| ((i * i) % 7 + 1) as f64;
            let a = CsrMatrix::from_row_fn(comm, m.clone(), m, move |g| {
                let mut row = Vec::new();
                if g > 0 {
                    row.push((g - 1, -kcoef(g)));
                }
                row.push((g, kcoef(g) + kcoef(g + 1)));
                if g + 1 < n {
                    row.push((g + 1, -kcoef(g + 1)));
                }
                row
            });
            let b = DistVector::constant(a.domain_map().clone(), 1.0);
            let mut x0 = DistVector::zeros(a.domain_map().clone());
            let mut x1 = DistVector::zeros(a.domain_map().clone());
            let cfg = KrylovConfig::default();
            let plain = cg(comm, &a, &b, &mut x0, &IdentityPrecond, &cfg);
            let prec = cg(comm, &a, &b, &mut x1, &JacobiPrecond::new(&a), &cfg);
            assert!(prec.converged && plain.converged);
            assert!(
                prec.iterations <= plain.iterations,
                "jacobi {} vs plain {}",
                prec.iterations,
                plain.iterations
            );
        });
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        Universe::run(2, |comm| {
            let n = 30;
            let m = DistMap::block(n, comm.size(), comm.rank());
            // advection-diffusion: nonsymmetric bands
            let a = CsrMatrix::from_row_fn(comm, m.clone(), m, move |g| {
                let mut row = Vec::new();
                if g > 0 {
                    row.push((g - 1, -1.5));
                }
                row.push((g, 3.0));
                if g + 1 < n {
                    row.push((g + 1, -0.5));
                }
                row
            });
            let b = DistVector::from_fn(a.domain_map().clone(), |g| 1.0 / (g as f64 + 1.0));
            let mut x = DistVector::zeros(a.domain_map().clone());
            let st = bicgstab(
                comm,
                &a,
                &b,
                &mut x,
                &IdentityPrecond,
                &KrylovConfig::default(),
            );
            assert!(st.converged);
            check_residual(comm, &a, &b, &x);
        });
    }

    #[test]
    fn gmres_solves_nonsymmetric_with_restart() {
        Universe::run(3, |comm| {
            let n = 40;
            let m = DistMap::block(n, comm.size(), comm.rank());
            let a = CsrMatrix::from_row_fn(comm, m.clone(), m, move |g| {
                let mut row = Vec::new();
                if g > 0 {
                    row.push((g - 1, -1.8));
                }
                row.push((g, 3.0));
                if g + 1 < n {
                    row.push((g + 1, -0.2));
                }
                row
            });
            let b = DistVector::constant(a.domain_map().clone(), 1.0);
            let mut x = DistVector::zeros(a.domain_map().clone());
            let cfg = KrylovConfig {
                restart: 10,
                max_iter: 500,
                ..Default::default()
            };
            let st = gmres(comm, &a, &b, &mut x, &IdentityPrecond, &cfg);
            assert!(st.converged, "gmres stalled at {}", st.final_residual());
            check_residual(comm, &a, &b, &x);
        });
    }

    #[test]
    fn gmres_with_ilu_converges_faster() {
        Universe::run(1, |comm| {
            let a = laplace(comm, 60);
            let b = DistVector::constant(a.domain_map().clone(), 1.0);
            let cfg = KrylovConfig {
                restart: 20,
                max_iter: 400,
                ..Default::default()
            };
            let mut x0 = DistVector::zeros(a.domain_map().clone());
            let plain = gmres(comm, &a, &b, &mut x0, &IdentityPrecond, &cfg);
            let mut x1 = DistVector::zeros(a.domain_map().clone());
            let prec = gmres(comm, &a, &b, &mut x1, &IluPrecond::new(&a), &cfg);
            assert!(prec.converged);
            assert!(
                prec.iterations < plain.iterations,
                "ilu {} vs plain {}",
                prec.iterations,
                plain.iterations
            );
        });
    }

    #[test]
    fn cg_solves_complex_hermitian() {
        use dlinalg::Complex64;
        Universe::run(2, |comm| {
            let n = 16;
            let m = DistMap::block(n, comm.size(), comm.rank());
            // Hermitian tridiagonal: diag 4, off-diag ±i
            let a = CsrMatrix::from_row_fn(comm, m.clone(), m, move |g| {
                let mut row = Vec::new();
                if g > 0 {
                    row.push((g - 1, Complex64::new(0.0, -1.0)));
                }
                row.push((g, Complex64::new(4.0, 0.0)));
                if g + 1 < n {
                    row.push((g + 1, Complex64::new(0.0, 1.0)));
                }
                row
            });
            let b = DistVector::constant(a.domain_map().clone(), Complex64::new(1.0, 1.0));
            let mut x = DistVector::zeros(a.domain_map().clone());
            let st = cg(
                comm,
                &a,
                &b,
                &mut x,
                &IdentityPrecond,
                &KrylovConfig::default(),
            );
            assert!(st.converged);
            let ax = a.matvec(comm, &x);
            let mut r = b.clone();
            r.axpy(-Complex64::new(1.0, 0.0), &ax);
            assert!(r.norm2(comm) < 1e-8);
        });
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        Universe::run(2, |comm| {
            let a = laplace(comm, 10);
            let b = DistVector::zeros(a.domain_map().clone());
            let mut x = DistVector::zeros(a.domain_map().clone());
            let st = cg(
                comm,
                &a,
                &b,
                &mut x,
                &IdentityPrecond,
                &KrylovConfig::default(),
            );
            assert!(st.converged);
            assert_eq!(st.iterations, 0);
        });
    }

    #[test]
    fn cg_stops_at_breakdown_instead_of_iterating_nans() {
        /// A preconditioner that poisons its output.
        struct NanPrecond;
        impl Preconditioner<f64> for NanPrecond {
            fn apply(&self, _comm: &Comm, r: &DistVector<f64>) -> DistVector<f64> {
                DistVector::constant(r.map().clone(), f64::NAN)
            }
            fn name(&self) -> &'static str {
                "nan"
            }
        }
        Universe::run(2, |comm| {
            // diag(1, −1, 1, −1, …) is symmetric but indefinite, and with
            // b = 1 the first search direction has p·Ap = 0 exactly.
            let n = 12;
            let m = DistMap::block(n, comm.size(), comm.rank());
            let a = CsrMatrix::from_row_fn(comm, m.clone(), m, |g| {
                vec![(g, if g % 2 == 0 { 1.0 } else { -1.0 })]
            });
            let b = DistVector::constant(a.domain_map().clone(), 1.0);
            let r0 = (n as f64).sqrt();
            let cfg = KrylovConfig::default();
            let mut x = DistVector::zeros(a.domain_map().clone());
            let st = cg(comm, &a, &b, &mut x, &IdentityPrecond, &cfg);
            assert!(!st.converged);
            assert_eq!(st.iterations, 0);
            assert_eq!(st.history, vec![r0]);
            assert!(x.local().iter().all(|&v| v == 0.0), "x must be untouched");
            // A NaN out of the preconditioner reaches p, then p·Ap.
            let spd = laplace(comm, n);
            let st = cg(comm, &spd, &b, &mut x, &NanPrecond, &cfg);
            assert!(!st.converged);
            assert_eq!(st.iterations, 0);
            assert_eq!(st.history, vec![r0]);
            assert!(x.local().iter().all(|&v| v == 0.0), "x must be untouched");
        });
    }

    #[test]
    fn checkpointed_restart_is_bitwise_identical() {
        use crate::checkpoint::{CgCheckpointing, CheckpointStore};
        let n_ranks = 3;
        let n = 48;
        // Reference: one uninterrupted solve, recording checkpoints.
        let store = CheckpointStore::new();
        let reference: Vec<(Vec<f64>, Vec<f64>)> = {
            let store = store.clone();
            Universe::run(n_ranks, move |comm| {
                let a = laplace(comm, n);
                let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g as f64) * 0.3).cos());
                let mut x = DistVector::zeros(a.domain_map().clone());
                let rank = comm.rank();
                let store = store.clone();
                let sink = move |c| store.record(rank, c);
                let st = cg_checkpointed(
                    comm,
                    &a,
                    &b,
                    &mut x,
                    &IdentityPrecond,
                    &KrylovConfig::default(),
                    &CgCheckpointing {
                        every: 7,
                        sink: Some(&sink),
                        resume: None,
                    },
                );
                assert!(st.converged);
                (x.local().to_vec(), st.history)
            })
        };
        // Restart from the newest common checkpoint: the tail of the solve
        // must replay the identical floating-point sequence.
        let resume = store.resume_point(n_ranks).expect("checkpoints recorded");
        assert!(resume[0].iteration > 1, "should have advanced checkpoints");
        let resumed: Vec<(Vec<f64>, Vec<f64>)> = Universe::run(n_ranks, move |comm| {
            let a = laplace(comm, n);
            let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g as f64) * 0.3).cos());
            let mut x = DistVector::zeros(a.domain_map().clone());
            let st = cg_checkpointed(
                comm,
                &a,
                &b,
                &mut x,
                &IdentityPrecond,
                &KrylovConfig::default(),
                &CgCheckpointing {
                    every: 0,
                    sink: None,
                    resume: Some(&resume[comm.rank()]),
                },
            );
            assert!(st.converged);
            (x.local().to_vec(), st.history)
        });
        for (rank, (full, res)) in reference.iter().zip(resumed.iter()).enumerate() {
            assert_eq!(full.0, res.0, "rank {rank}: iterate x must match bitwise");
            assert_eq!(full.1, res.1, "rank {rank}: residual history must match");
        }
    }

    #[test]
    fn max_iter_reports_nonconvergence() {
        Universe::run(1, |comm| {
            let a = laplace(comm, 100);
            let b = DistVector::constant(a.domain_map().clone(), 1.0);
            let mut x = DistVector::zeros(a.domain_map().clone());
            let cfg = KrylovConfig {
                max_iter: 3,
                ..Default::default()
            };
            let st = cg(comm, &a, &b, &mut x, &IdentityPrecond, &cfg);
            assert!(!st.converged);
            assert_eq!(st.iterations, 3);
            assert_eq!(st.history.len(), 4);
        });
    }
}
