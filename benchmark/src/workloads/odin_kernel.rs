//! `odin_kernel` — compute bound. Two block-distributed f64 arrays of
//! 2^21 lanes; each op evaluates the fixed 39-op E20 expression into a
//! new array and reduces its square. One kernel body, compiled once in
//! set-up and hit by every op, so `seamless` (VM or native tier) does
//! most of the work and `comm`, `dmap` and `serve` almost none.

use std::time::Instant;

use hpc_framework::prelude::*;

use super::{rel_err, timed_phase, uniform, LayerCounts, Outcome, Params, PARTS};
use crate::spans::Tracer;

pub const N: usize = 1 << 21;
/// Relative tolerance of the reduction against a compensated serial sum
/// (the workers' partial sums round differently from any serial order).
pub const SUM_RTOL: f64 = 1e-11;
pub const LANE_RTOL: f64 = 1e-12;

/// The E20 probe expression (39 ops). `c` replaces E20's constant 3.0:
/// each round passes a different value, so its kernel body is new to the
/// process-wide codegen cache and its set-up pays a real compile.
pub fn e39<'x, 'c>(x: &'x DistArray<'c>, y: &'x DistArray<'c>, c: f64) -> Expr<'x, 'c> {
    (Expr::leaf(x) * 2.0 + Expr::leaf(y)) * (Expr::leaf(x) - Expr::leaf(y) * 0.5)
        + (Expr::leaf(x) * Expr::leaf(y) + c)
        - Expr::leaf(x).abs() * 0.25
        + (Expr::leaf(y) * 0.7 - Expr::leaf(x) * 0.3)
        + (Expr::leaf(x) + 1.5) * (Expr::leaf(y) - 0.25)
        - Expr::leaf(x).pow(2.0) * 0.125
        + (Expr::leaf(y) * Expr::leaf(y) - Expr::leaf(x) * 0.5) * (Expr::leaf(x) * 1.3 + 0.1)
        + (Expr::leaf(y).pow(3.0) + Expr::leaf(x) * 1.25) * 0.0625
        - (Expr::leaf(x) - Expr::leaf(y)).abs() * (Expr::leaf(x) + 2.0)
}

/// The same expression on one lane, in plain Rust: the serial oracle.
pub fn e39_serial(x: f64, y: f64, c: f64) -> f64 {
    (x * 2.0 + y) * (x - y * 0.5) + (x * y + c) - x.abs() * 0.25
        + (y * 0.7 - x * 0.3)
        + (x + 1.5) * (y - 0.25)
        - x.powi(2) * 0.125
        + (y * y - x * 0.5) * (x * 1.3 + 0.1)
        + (y.powi(3) + x * 1.25) * 0.0625
        - (x - y).abs() * (x + 2.0)
}

/// Neumaier-compensated sum: exact to a few ulps whatever the order.
pub fn compensated_sum(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for v in values {
        let t = sum + v;
        comp += if sum.abs() >= v.abs() {
            (sum - t) + v
        } else {
            (v - t) + sum
        };
        sum = t;
    }
    sum + comp
}

pub fn the_constant(round: usize) -> f64 {
    3.0 + round as f64
}

/// Check one op's outputs against the serial oracle.
pub fn verify(u: &[f64], r: f64, xs: &[f64], ys: &[f64], c: f64) -> bool {
    let want: Vec<f64> = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| e39_serial(x, y, c))
        .collect();
    let lanes_ok = u.len() == want.len()
        && u.iter()
            .zip(&want)
            .all(|(&g, &w)| rel_err(g, w) <= LANE_RTOL);
    let want_r = compensated_sum(want.iter().map(|w| w * w));
    lanes_ok && rel_err(r, want_r) <= SUM_RTOL
}

fn op<'c>(
    tr: &mut Tracer,
    i: u64,
    x: &DistArray<'c>,
    y: &DistArray<'c>,
    c: f64,
    rtt: f64,
) -> (DistArray<'c>, f64) {
    let ctx = x.ctx();
    tr.span("bench", "op", i, |tr| {
        // dispatch is asynchronous: a traced statement is followed by a
        // barrier so its span covers completion, not just the broadcast
        let traced = tr.is_on();
        let u = tr.span("odin", "eval", i, |_| {
            let u = e39(x, y, c).eval();
            if traced {
                ctx.barrier();
            }
            u
        });
        reconstruct_kernel(tr, rtt);
        let r = tr.span("odin", "sum", i, |_| {
            (Expr::leaf(&u) * Expr::leaf(&u)).sum()
        });
        reconstruct_kernel(tr, rtt);
        (u, r)
    })
}

/// The span that just closed was one ODIN statement: all of it beyond
/// `floor_ns` (an idle control round trip for a completed statement, a
/// cached dispatch for a bare `eval` call) is kernel work — compiling it
/// or running it.
pub fn reconstruct_kernel(tr: &mut Tracer, floor_ns: f64) {
    let kernel_ns = tr.last_dur_ns() - floor_ns;
    tr.reconstruct(&[("seamless", "kernel", kernel_ns)]);
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let xs = uniform(p.seed, 1, N, 0.0, 1.0);
    let ys = uniform(p.seed, 2, N, 1.0, 3.0);
    for round in 0..p.rounds {
        let c = the_constant(round);
        let t0 = Instant::now();
        let ctx = OdinContext::with_workers(PARTS);
        let x = ctx.from_vec(&xs, Dist::Block);
        let y = ctx.from_vec(&ys, Dist::Block);
        let (u0, r0) = op(&mut Tracer::off(), 0, &x, &y, c, 0.0);
        ctx.barrier();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        out.failed += u64::from(!verify(&u0.to_vec(), r0, &xs, &ys, c));
        drop(u0);
        let _ = op(&mut Tracer::off(), 0, &x, &y, c, 0.0); // warm-up
        let mut tr = if p.traced {
            Tracer::on(t0, 0)
        } else {
            Tracer::off()
        };
        let before = LayerCounts::read(&ctx);
        let rtt = p.recon.odin_ctrl_rtt_ns;
        let failed_before = out.failed;
        // every op must reproduce the verified first result bit for bit
        timed_phase(&mut out, p.round_seconds(), |i| {
            op(&mut tr, i, &x, &y, c, rtt).1.to_bits() == r0.to_bits()
        });
        let ops = out.rounds[round].len();
        out.counters = before.per_op(&ctx, ops);
        let (u, r) = op(&mut Tracer::off(), 0, &x, &y, c, 0.0);
        if !verify(&u.to_vec(), r, &xs, &ys, c) {
            // the last state is wrong, so no op of the round can be trusted
            out.failed = failed_before + ops as u64;
        }
        out.add_spans(tr.finish());
    }
    out.notes
        .push(format!("N = {N} lanes x 39 ops, {PARTS} workers"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_lane_and_a_wrong_sum() {
        let (xs, ys) = (uniform(1, 1, 256, 0.0, 1.0), uniform(1, 2, 256, 1.0, 3.0));
        let u: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| e39_serial(x, y, 3.0))
            .collect();
        let r: f64 = u.iter().map(|v| v * v).sum();
        assert!(verify(&u, r, &xs, &ys, 3.0));
        assert!(
            !verify(&u, r * (1.0 + 1e-9), &xs, &ys, 3.0),
            "sum off by 1e-9"
        );
        assert!(!verify(&u, r, &xs, &ys, 4.0), "wrong constant");
        let mut bad = u.clone();
        bad[17] *= 1.0 + 1e-9;
        assert!(!verify(&bad, r, &xs, &ys, 3.0), "one lane off by 1e-9");
        assert!(!verify(&u[..255], r, &xs, &ys, 3.0), "a lane missing");
    }

    #[test]
    fn compensated_sum_is_order_independent() {
        let v = uniform(3, 9, 10_000, -1e6, 1e6);
        let forward = compensated_sum(v.iter().copied());
        let backward = compensated_sum(v.iter().rev().copied());
        assert!(rel_err(forward, backward) < 1e-15);
    }
}
