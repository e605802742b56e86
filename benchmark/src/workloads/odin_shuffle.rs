//! `odin_shuffle` — data movement. One block-distributed array of 2^20
//! lanes; each op takes the shifted-slice difference `y[1:] - y[:-1]`,
//! moves it Block -> Cyclic -> BlockCyclic(64), sums it, and every 4th op
//! fetches a 65 536-lane slice to the master. The kernels are trivial:
//! `comm` payload arms, `odin` slicing, redistribution route plans and
//! fetch dominate, so a payload-path change shows here and must not show
//! on `odin_kernel`.

use std::time::Instant;

use hpc_framework::prelude::*;

use super::odin_kernel::compensated_sum;
use super::{timed_phase, uniform, LayerCounts, Outcome, Params, PARTS};
use crate::spans::Tracer;

pub const N: usize = 1 << 20;
pub const FETCH_EVERY: u64 = 4;
pub const FETCH_LANES: usize = 1 << 16;
pub const BLOCK: usize = 64;

pub struct Oracle {
    /// `y[i+1] - y[i]`: one subtraction per lane, so the distributed
    /// lanes must match bit for bit.
    pub diff: Vec<f64>,
    pub sum: f64,
    /// The distributed sum may round differently from the compensated
    /// serial one by at most this much.
    pub sum_atol: f64,
}

pub fn oracle(ys: &[f64]) -> Oracle {
    let diff: Vec<f64> = ys.windows(2).map(|w| w[1] - w[0]).collect();
    let sum = compensated_sum(diff.iter().copied());
    let sum_atol = 1e-12 * compensated_sum(diff.iter().map(|d| d.abs()));
    Oracle {
        diff,
        sum,
        sum_atol,
    }
}

pub fn verify(o: &Oracle, sum: f64, fetched: Option<&[f64]>) -> bool {
    let lanes_ok = fetched.is_none_or(|f| {
        f.len() == FETCH_LANES
            && f.iter()
                .zip(&o.diff)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    lanes_ok && (sum - o.sum).abs() <= o.sum_atol
}

/// Close a traced statement: wait for the workers so the span covers
/// completion.
fn done<'c>(ctx: &OdinContext, traced: bool, a: DistArray<'c>) -> DistArray<'c> {
    if traced {
        ctx.barrier();
    }
    a
}

fn op(tr: &mut Tracer, i: u64, y: &DistArray<'_>) -> (f64, Option<Vec<f64>>) {
    let ctx = y.ctx();
    let traced = tr.is_on();
    tr.span("bench", "op", i, |tr| {
        let d = tr.span("odin", "slice_sub", i, |_| {
            done(
                ctx,
                traced,
                &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1),
            )
        });
        let c = tr.span("odin", "to_cyclic", i, |_| {
            done(ctx, traced, d.redistribute(Dist::Cyclic))
        });
        let bc = tr.span("odin", "to_block_cyclic", i, |_| {
            done(ctx, traced, c.redistribute(Dist::BlockCyclic(BLOCK)))
        });
        let sum = tr.span("odin", "sum", i, |_| bc.sum());
        let fetched = i.is_multiple_of(FETCH_EVERY).then(|| {
            tr.span("odin", "fetch", i, |_| {
                bc.slice1(0, Some(FETCH_LANES as isize), 1).to_vec()
            })
        });
        (sum, fetched)
    })
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let ys = uniform(p.seed, 3, N, -1.0, 1.0);
    let want = oracle(&ys);
    for _ in 0..p.rounds {
        let t0 = Instant::now();
        let ctx = OdinContext::with_workers(PARTS);
        let y = ctx.from_vec(&ys, Dist::Block);
        let (sum, fetched) = op(&mut Tracer::off(), 0, &y);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        out.failed += u64::from(!verify(&want, sum, fetched.as_deref()));
        let _ = op(&mut Tracer::off(), 0, &y); // warm-up
        let mut tr = if p.traced {
            Tracer::on(t0, 0)
        } else {
            Tracer::off()
        };
        let before = LayerCounts::read(&ctx);
        // counts are taken over whole fetch cycles, so that they repeat
        // exactly however many ops the round had time for
        let mut whole_cycles = before.per_op(&ctx, 1);
        timed_phase(&mut out, p.round_seconds(), |i| {
            if i > 0 && i % FETCH_EVERY == 0 {
                whole_cycles = before.per_op(&ctx, i as usize);
            }
            let (sum, fetched) = op(&mut tr, i, &y);
            verify(&want, sum, fetched.as_deref())
        });
        out.counters = whole_cycles;
        out.add_spans(tr.finish());
    }
    out.notes.push(format!(
        "N = {N} lanes, fetch of {FETCH_LANES} lanes every {FETCH_EVERY}th op, {PARTS} workers"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_sum_and_a_wrong_fetch() {
        let ys = uniform(5, 3, FETCH_LANES + 9, -1.0, 1.0);
        let o = oracle(&ys);
        let fetched = o.diff[..FETCH_LANES].to_vec();
        assert!(verify(&o, o.sum, None));
        assert!(verify(&o, o.sum, Some(&fetched)));
        assert!(!verify(&o, o.sum + 1e-6, None));
        let mut bad = fetched.clone();
        bad[100] = f64::from_bits(bad[100].to_bits() ^ 1);
        assert!(!verify(&o, o.sum, Some(&bad)), "one flipped bit");
        assert!(!verify(&o, o.sum, Some(&fetched[1..])), "short fetch");
    }
}
