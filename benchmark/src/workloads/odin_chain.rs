//! `odin_chain` — the paper's "small control messages" regime. Arrays of
//! 1024 lanes; each op is two dependent statements with a scalar round
//! trip between them,
//!
//! ```text
//! q = x * d;  den = q.sum();  a = 1 / (1 + |den|);  x = x + q * a;  m = x.max()
//! ```
//!
//! so `a` is a fresh runtime constant in every op's second expression.
//! This uses `odin` and `seamless` the opposite way from `odin_kernel`:
//! tiny arrays, dispatch and reply latency gating each statement, and a
//! kernel-cache miss instead of a hit. A change that helps big fused
//! kernels at the cost of dispatch or compile latency shows here.

use std::time::Instant;

use hpc_framework::prelude::*;

use super::odin_kernel::reconstruct_kernel;
use super::{rel_err, timed_phase, uniform, LayerCounts, Outcome, Params, Recon, PARTS};
use crate::spans::Tracer;

pub const N: usize = 1024;
/// Per-op scalars against the serial recurrence. The workers' partial
/// sums round differently from a serial sum, and the difference rides
/// along the recurrence, so this is looser than one op's rounding.
pub const RTOL: f64 = 1e-9;

/// What one op reported back to the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub den: f64,
    pub max: f64,
}

/// The serial recurrence: advance `x` by one op.
pub fn serial_step(x: &mut [f64], d: &[f64]) -> Step {
    let q: Vec<f64> = x.iter().zip(d).map(|(x, d)| x * d).collect();
    let den: f64 = q.iter().sum();
    let a = 1.0 / (1.0 + den.abs());
    for (x, q) in x.iter_mut().zip(&q) {
        *x += q * a;
    }
    Step {
        den,
        max: x.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Replay `steps` from `x0` and count the ops whose scalars disagree;
/// `final_x` must match the replayed state too, or every op fails.
pub fn failures(x0: &[f64], d: &[f64], steps: &[Step], final_x: &[f64]) -> u64 {
    let mut x = x0.to_vec();
    let mut bad = 0;
    for got in steps {
        let want = serial_step(&mut x, d);
        let ok = rel_err(got.den, want.den) <= RTOL && rel_err(got.max, want.max) <= RTOL;
        bad += u64::from(!ok);
    }
    let state_ok =
        final_x.len() == x.len() && final_x.iter().zip(&x).all(|(&g, &w)| rel_err(g, w) <= RTOL);
    if state_ok {
        bad
    } else {
        steps.len() as u64
    }
}

fn op<'c>(
    tr: &mut Tracer,
    i: u64,
    x: &mut DistArray<'c>,
    d: &DistArray<'c>,
    recon: &Recon,
) -> Step {
    tr.span("bench", "op", i, |tr| {
        // An `eval` call returns once the command is on its way; whatever
        // it takes beyond a cached dispatch is the master lowering and
        // registering a kernel it has not seen. The reduction that
        // follows is the round trip that completes the statement, the
        // workers' compile of that kernel included.
        let q = tr.span("odin", "eval", i, |_| {
            (Expr::leaf(x) * Expr::leaf(d)).eval()
        });
        reconstruct_kernel(tr, recon.odin_dispatch_ns);
        let den = tr.span("odin", "sum", i, |_| q.sum());
        reconstruct_kernel(tr, recon.odin_ctrl_rtt_ns);
        let a = 1.0 / (1.0 + den.abs());
        let next = tr.span("odin", "eval_fresh_const", i, |_| {
            (Expr::leaf(x) + Expr::leaf(&q) * a).eval()
        });
        reconstruct_kernel(tr, recon.odin_dispatch_ns);
        let max = tr.span("odin", "max", i, |_| next.max());
        reconstruct_kernel(tr, recon.odin_ctrl_rtt_ns);
        *x = next;
        Step { den, max }
    })
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let ds = uniform(p.seed, 5, N, -0.5, 0.5);
    for round in 0..p.rounds {
        // Each round starts its chain from its own vector (and a traced
        // run from another than the untraced one before it), so every
        // constant `a` — and with it every kernel body — is new to the
        // process-wide codegen cache, as it would be in a fresh process.
        let x0 = uniform(
            p.seed,
            100 + 2 * round as u64 + u64::from(p.traced),
            N,
            0.5,
            1.5,
        );
        let t0 = Instant::now();
        let ctx = OdinContext::with_workers(PARTS);
        let mut x = ctx.from_vec(&x0, Dist::Block);
        let d = ctx.from_vec(&ds, Dist::Block);
        let mut steps = vec![op(&mut Tracer::off(), 0, &mut x, &d, &p.recon)];
        out.setup_s.push(t0.elapsed().as_secs_f64());
        steps.push(op(&mut Tracer::off(), 0, &mut x, &d, &p.recon)); // warm-up
        let mut tr = if p.traced {
            Tracer::on(t0, 0)
        } else {
            Tracer::off()
        };
        let before = LayerCounts::read(&ctx);
        // ops are judged afterwards, by replaying the chain serially
        timed_phase(&mut out, p.round_seconds(), |i| {
            steps.push(op(&mut tr, i, &mut x, &d, &p.recon));
            true
        });
        out.counters = before.per_op(&ctx, out.rounds[round].len());
        // the set-up op and the warm-up are part of the replayed chain
        out.attempted += 2;
        out.failed += failures(&x0, &ds, &steps, &x.to_vec());
        out.add_spans(tr.finish());
    }
    out.notes.push(format!("N = {N} lanes, {PARTS} workers"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_counts_each_wrong_step_and_distrusts_a_wrong_final_state() {
        let x0 = uniform(9, 100, 64, 0.5, 1.5);
        let d = uniform(9, 5, 64, -0.5, 0.5);
        let mut x = x0.clone();
        let mut steps: Vec<Step> = (0..20).map(|_| serial_step(&mut x, &d)).collect();
        assert_eq!(failures(&x0, &d, &steps, &x), 0);
        steps[3].den *= 1.0 + 1e-6;
        steps[11].max = f64::NAN;
        assert_eq!(failures(&x0, &d, &steps, &x), 2);
        x[0] += 1e-6;
        assert_eq!(failures(&x0, &d, &steps, &x), 20);
    }

    #[test]
    fn every_step_has_a_fresh_constant() {
        let mut x = uniform(9, 100, N, 0.5, 1.5);
        let d = uniform(9, 5, N, -0.5, 0.5);
        let dens: std::collections::BTreeSet<u64> = (0..500)
            .map(|_| serial_step(&mut x, &d).den.to_bits())
            .collect();
        assert_eq!(
            dens.len(),
            500,
            "a repeated `den` would repeat `a` and hit the kernel cache"
        );
        assert!(x.iter().all(|v| v.is_finite()));
    }
}
