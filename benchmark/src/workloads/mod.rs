//! The five workloads. Each is a closed loop driven by this process.
//! `run` does `rounds` rounds; a round is a cold set-up (ending with a
//! first, verified op), one warm-up op, then ops for its share of
//! `seconds` of wall clock, every op checked against an oracle.
//!
//! Rounds exist because this host's noise is one-sided and comes in
//! bursts: a neighbour loads the machine for some seconds, or two threads
//! that synchronise often fall into taking turns parking (ten times the
//! hand-off of two that both spin), and which of the two a freshly
//! spawned set of ranks or workers falls into is luck that then sticks.
//! One context per run would measure the luck; ten per run, with the
//! metrics taken over the quieter half (`child::quiet_half`), measure
//! the code.

use std::time::Instant;

use hpc_framework::obs::SplitMix64;
use hpc_framework::prelude::OdinContext;
use hpc_framework::seamless::codegen;

use crate::spans::{merge, Span};

pub mod cg_poisson2d;
pub mod odin_chain;
pub mod odin_kernel;
pub mod odin_shuffle;
pub mod serve_mix;

/// Ranks of the SPMD universe, workers of an ODIN context, workers of
/// the serving pool: the host has two cores.
pub const PARTS: usize = 2;

/// Probe medians a traced run needs to reconstruct what no outside span
/// can see. All zero (nothing reconstructed) on an untraced run.
#[derive(Debug, Clone, Default)]
pub struct Recon {
    /// Idle `OdinContext::barrier()` round trip: the part of a completed
    /// ODIN statement that is control traffic rather than kernel work.
    pub odin_ctrl_rtt_ns: f64,
    /// Time inside an asynchronous `Expr::eval()` call whose kernel is
    /// already registered: what dispatch costs when nothing is compiled.
    pub odin_dispatch_ns: f64,
    /// Per-CG-iteration cost of the layers under `solvers::cg`, as
    /// `(layer, name, ns)`.
    pub cg_per_iter: Vec<(&'static str, &'static str, f64)>,
}

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed phases of all rounds together.
    pub seconds: f64,
    pub rounds: usize,
    pub traced: bool,
    pub recon: Recon,
}

impl Params {
    /// Timed-phase length of one round.
    pub fn round_seconds(&self) -> f64 {
        self.seconds / self.rounds as f64
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per round: its cold set-up.
    pub setup_s: Vec<f64>,
    /// Per round, the latency of every op of its timed phase, in
    /// completion order.
    pub rounds: Vec<Vec<f64>>,
    /// Wall clock of the timed phases, summed.
    pub wall_s: f64,
    /// One entry per round: the wall clock of its timed phase.
    pub round_wall_s: Vec<f64>,
    /// Process CPU (children included) over the timed phases, summed.
    pub cpu_s: f64,
    pub attempted: u64,
    /// Ops that failed, were refused, shed, expired, or failed their oracle.
    pub failed: u64,
    /// Workload-attached per-layer values (counts and ratios per op),
    /// from the last round.
    pub counters: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// Human-readable facts about the run (sizes, iteration counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Timed ops of all rounds.
    pub fn timed_ops(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Append one round's (or one thread's) spans, keeping ids unique.
    pub fn add_spans(&mut self, more: Vec<Span>) {
        self.spans = merge(vec![std::mem::take(&mut self.spans), more]);
    }
}

/// Rounds of one untraced run: each a cold set-up and an equal share of
/// the timed phase. `setup_s` is the median of the set-ups; latency and
/// throughput are taken over the quieter half of the rounds. Ten, except
/// for `serve_mix`: a serving plane is seven threads on two CPUs, where
/// they land differs from plane to plane (median job latency 0.17 to
/// 0.37 ms within one run) and the plane keeps some memory per job it
/// served, so that workload draws forty planes for half a second each,
/// which its millisecond set-up makes free.
pub fn rounds(workload: &str) -> usize {
    if workload == "serve_mix" {
        40
    } else {
        10
    }
}

pub fn run(name: &str, p: &Params) -> Option<Outcome> {
    Some(match name {
        "cg_poisson2d" => cg_poisson2d::run(p),
        "odin_kernel" => odin_kernel::run(p),
        "odin_shuffle" => odin_shuffle::run(p),
        "odin_chain" => odin_chain::run(p),
        "serve_mix" => serve_mix::run(p),
        _ => return None,
    })
}

/// `ContextStats` and `codegen::stats()` at one instant; `per_op` turns
/// the growth since then into the exact per-op counts of the ODIN
/// workloads.
pub struct LayerCounts {
    ctrl_msgs: u64,
    ctrl_bytes: u64,
    data_bytes: u64,
    channel_sends: u64,
    compiled: u64,
    cache_hits: u64,
}

impl LayerCounts {
    pub fn read(ctx: &OdinContext) -> LayerCounts {
        let (o, g) = (ctx.stats(), codegen::stats());
        LayerCounts {
            ctrl_msgs: o.ctrl_msgs,
            ctrl_bytes: o.ctrl_bytes,
            data_bytes: o.data_bytes,
            channel_sends: o.channel_sends,
            compiled: g.compiled,
            cache_hits: g.cache_hits,
        }
    }

    pub fn per_op(&self, ctx: &OdinContext, ops: usize) -> Vec<(&'static str, f64)> {
        let now = LayerCounts::read(ctx);
        let ops = ops.max(1) as f64;
        let msgs = now.ctrl_msgs - self.ctrl_msgs;
        vec![
            ("odin.ctrl_msgs_per_op", msgs as f64 / ops),
            (
                "odin.ctrl_bytes_per_msg",
                (now.ctrl_bytes - self.ctrl_bytes) as f64 / msgs.max(1) as f64,
            ),
            (
                "odin.data_bytes_per_op",
                (now.data_bytes - self.data_bytes) as f64 / ops,
            ),
            (
                "odin.channel_sends_per_op",
                (now.channel_sends - self.channel_sends) as f64 / ops,
            ),
            (
                "seamless.native_compiles_per_op",
                (now.compiled - self.compiled) as f64 / ops,
            ),
            (
                "seamless.cache_hits_per_op",
                (now.cache_hits - self.cache_hits) as f64 / ops,
            ),
        ]
    }
}

/// `n` seeded uniforms in `[lo, hi)`; `stream` separates the arrays of
/// one workload.
pub fn uniform(seed: u64, stream: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..n).map(|_| rng.gen_range_f64(lo, hi)).collect()
}

pub fn rel_err(got: f64, want: f64) -> f64 {
    if got == want {
        0.0
    } else {
        (got - want).abs() / want.abs().max(f64::MIN_POSITIVE)
    }
}

/// utime + stime + cutime + cstime of this process, in seconds. Children
/// count because the native tier runs `cc` as a child.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name (field 2) may contain spaces; fields resume after ')'
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Single-driver timed phase of one round: call `op(i)`, `i` counting
/// from 0, until `seconds` have passed, recording each call's latency as
/// a new round of `out`. `op` returns whether its result passed the
/// in-loop check.
pub fn timed_phase(out: &mut Outcome, seconds: f64, mut op: impl FnMut(u64) -> bool) {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let ok = op(lat_ms.len() as u64);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    let wall = start.elapsed().as_secs_f64();
    out.wall_s += wall;
    out.round_wall_s.push(wall);
    out.cpu_s += cpu_seconds() - cpu0;
    out.rounds.push(lat_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(uniform(42, 1, 64, -1.0, 1.0), uniform(42, 1, 64, -1.0, 1.0));
        assert_ne!(uniform(42, 1, 64, -1.0, 1.0), uniform(43, 1, 64, -1.0, 1.0));
        assert_ne!(uniform(42, 1, 64, -1.0, 1.0), uniform(42, 2, 64, -1.0, 1.0));
    }

    #[test]
    fn a_failing_op_is_counted_not_timed_away() {
        let mut out = Outcome::default();
        timed_phase(&mut out, 0.02, |i| i % 2 == 0);
        timed_phase(&mut out, 0.02, |_| true);
        assert_eq!(out.rounds.len(), 2);
        assert_eq!(out.timed_ops() as u64, out.attempted);
        assert_eq!(out.failed, out.rounds[0].len() as u64 / 2);
        assert!(out.wall_s >= 0.04);
    }

    #[test]
    fn cpu_clock_reads() {
        assert!(cpu_seconds() >= 0.0);
    }
}
