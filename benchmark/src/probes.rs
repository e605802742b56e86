//! The per-layer ledger: one small timing loop per layer, each through
//! the layer's public API only. The same suite runs in every traced run,
//! whatever the workload, so a layer's numbers are comparable across
//! workloads and commits. Every value is a median of repeated calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hpc_framework::comm::{ReduceOp, Src};
use hpc_framework::dmap::{CommPlan, Directory};
use hpc_framework::galeri::laplace_2d;
use hpc_framework::obs;
use hpc_framework::prelude::*;
use hpc_framework::seamless::codegen::native_available;

use crate::stats::median;
use crate::workloads::{
    cg_poisson2d as cgw, odin_kernel, odin_shuffle, serve_mix, uniform, Recon, PARTS,
};

pub type Values = BTreeMap<&'static str, f64>;

/// Median seconds of `reps` calls of `f`.
fn med_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The ledger, and from the same medians what a traced run needs to
/// reconstruct the spans it cannot record.
pub fn run_all(seed: u64) -> (Values, Recon) {
    let mut v = Values::new();
    v.insert(
        "bench.timer_ns",
        med_s(1001, || {
            black_box(Instant::now());
        }) * 1e9,
    );
    comm_probes(&mut v);
    let cg_per_iter = solver_stack_probes(&mut v, seed);
    odin_probes(&mut v, seed);
    seamless_probes(&mut v, seed);
    serve_probes(&mut v, seed);
    let recon = Recon {
        odin_ctrl_rtt_ns: v["odin.ctrl_rtt_us"] * 1e3,
        odin_dispatch_ns: v["odin.dispatch_us"] * 1e3,
        cg_per_iter,
    };
    (v, recon)
}

const LANES_1MIB: usize = (1 << 20) / 8;

/// Round trip of a 1 MiB `Vec<f64>` between two ranks with the payload
/// arm forced by the zero-copy threshold; GB/s over both directions.
fn p2p_gbps(threshold: usize, rounds: usize) -> f64 {
    let cfg = UniverseConfig::default().with_zerocopy_threshold(threshold);
    let report = Universe::run_report(cfg, 2, |comm| {
        let mut payload: Vec<f64> = (0..LANES_1MIB).map(|i| i as f64).collect();
        let mut rtts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            if comm.rank() == 0 {
                let t = Instant::now();
                comm.send_zc(1, 7, std::mem::take(&mut payload))
                    .expect("send");
                payload = comm.recv_zc::<Vec<f64>>(Src::Rank(1), 7).expect("recv").0;
                rtts.push(t.elapsed().as_secs_f64());
            } else {
                let (echo, _) = comm.recv_zc::<Vec<f64>>(Src::Rank(0), 7).expect("recv");
                comm.send_zc(0, 7, echo).expect("send");
            }
        }
        rtts
    });
    2.0 * (LANES_1MIB * 8) as f64 / median(&report.results[0]) / 1e9
}

fn comm_probes(v: &mut Values) {
    const REPS: usize = 2000;
    let results = Universe::run(2, |comm| {
        let peer = 1 - comm.rank();
        let rtt = med_s(REPS, || {
            if comm.rank() == 0 {
                comm.send(peer, 5, &1usize).expect("send");
                black_box(comm.recv::<usize>(Src::Rank(peer), 5).expect("recv"));
            } else {
                let (x, _) = comm.recv::<usize>(Src::Rank(peer), 5).expect("recv");
                comm.send(peer, 5, &x).expect("send");
            }
        });
        comm.barrier();
        let allreduce = med_s(REPS, || {
            black_box(comm.allreduce(&(comm.rank() as f64), ReduceOp::sum()));
        });
        (rtt, allreduce)
    });
    v.insert("comm.p2p_rtt_us", results[0].0 * 1e6);
    v.insert("comm.allreduce_us", results[0].1 * 1e6);
    v.insert("comm.p2p_encode_gbps", p2p_gbps(usize::MAX, 20));
    v.insert("comm.p2p_region_gbps", p2p_gbps(1, 200));
}

/// What rank 0 measured on the CG problem's own matrix.
struct StackTimes {
    assemble_s: f64,
    plan_build_s: f64,
    plan_exec_s: f64,
    halo_msg_s: f64,
    spmv_s: f64,
    dot_s: f64,
    axpy_s: f64,
    allreduce_s: f64,
    precond_s: f64,
    solve_s: f64,
    solve_obs_s: f64,
    iters: usize,
    spmv_bytes: f64,
}

/// Returns the per-iteration cost of the layers below `solvers::cg`.
fn solver_stack_probes(v: &mut Values, seed: u64) -> Vec<(&'static str, &'static str, f64)> {
    const REPS: usize = 200;
    let times = Universe::run(PARTS, |comm| {
        let root = comm.rank() == 0;
        let mut assembles = Vec::new();
        for _ in 0..5 {
            comm.barrier();
            let t = Instant::now();
            black_box(laplace_2d(comm, cgw::NX, cgw::NY));
            assembles.push(t.elapsed().as_secs_f64());
        }
        let p = cgw::problem(comm, seed);
        let map = p.a.domain_map().clone();
        // the halo pattern of this matrix: every referenced column that
        // another rank owns
        let ghosts: Vec<usize> =
            p.a.col_gids()
                .iter()
                .copied()
                .filter(|&g| map.global_to_local(g).is_none())
                .collect();
        let dir = Directory::build(comm, &map);
        let plan_build_s = med_s(30, || {
            black_box(CommPlan::gather(comm, &map, &dir, &ghosts));
        });
        let plan = CommPlan::gather(comm, &map, &dir, &ghosts);
        let x = DistVector::from_fn(map.clone(), |g| (g % 17) as f64);
        let mut y = DistVector::zeros(p.a.row_map().clone());
        let mut halo = vec![0.0f64; plan.n_target()];
        let plan_exec_s = med_s(REPS, || plan.execute(comm, x.local(), &mut halo));
        // the same exchange stripped of the plan: one message each way
        let edge: Vec<f64> = vec![0.0; ghosts.len()];
        let peer = (comm.rank() + 1) % comm.size();
        let halo_msg_s = med_s(REPS, || {
            black_box(
                comm.sendrecv::<Vec<f64>, Vec<f64>>(peer, &edge, peer, 9)
                    .expect("sendrecv"),
            );
        });
        let spmv_s = med_s(REPS, || p.a.matvec_into(comm, &x, &mut y));
        let dot_s = med_s(REPS, || {
            black_box(x.dot(&y, comm));
        });
        let axpy_s = med_s(REPS, || y.axpy(1e-9, &x));
        let allreduce_s = med_s(REPS, || {
            black_box(comm.allreduce(&1.0f64, ReduceOp::sum()));
        });
        let mut z = DistVector::zeros(map.clone());
        let precond_s = med_s(REPS, || p.m.apply_into(comm, &x, &mut z));
        // whole solves, observability off and on in turn (rank 0 flips
        // the process-wide switch between two barriers)
        let mut sol = DistVector::zeros(map.clone());
        let mut iters = 0;
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for round in 0..6 {
            let enabled = round % 2 == 1;
            comm.barrier();
            if root {
                obs::set_enabled(enabled);
            }
            comm.barrier();
            let t = Instant::now();
            iters = cgw::solve(comm, &p, &mut sol).iterations;
            (if enabled { &mut on } else { &mut off }).push(t.elapsed().as_secs_f64());
        }
        comm.barrier();
        if root {
            obs::set_enabled(false);
        }
        comm.barrier();
        let rows = p.a.row_map().my_count() as f64;
        // values + column indices, row pointers, one read of x and one
        // write of y per row — computed from the sizes, not measured
        let spmv_bytes = p.a.nnz_local() as f64 * 16.0 + rows * 24.0;
        StackTimes {
            assemble_s: median(&assembles),
            plan_build_s,
            plan_exec_s,
            halo_msg_s,
            spmv_s,
            dot_s,
            axpy_s,
            allreduce_s,
            precond_s,
            solve_s: median(&off),
            solve_obs_s: median(&on),
            iters,
            spmv_bytes,
        }
    });
    let one_rank_s = Universe::run(1, |comm| {
        let p = cgw::problem(comm, seed);
        let mut sol = DistVector::zeros(p.a.domain_map().clone());
        med_s(3, || {
            let _ = black_box(cgw::solve(comm, &p, &mut sol));
        })
    })[0];
    let t = &times[0];
    let iters = t.iters.max(1) as f64;
    v.insert("galeri.assemble_ms", t.assemble_s * 1e3);
    v.insert("dmap.plan_build_us", t.plan_build_s * 1e6);
    v.insert("dmap.plan_exec_us", t.plan_exec_s * 1e6);
    v.insert("dlinalg.spmv_us", t.spmv_s * 1e6);
    v.insert("dlinalg.dot_us", t.dot_s * 1e6);
    v.insert("dlinalg.axpy_us", t.axpy_s * 1e6);
    let bytes: f64 = times.iter().map(|t| t.spmv_bytes).sum();
    v.insert("dlinalg.spmv_gbps_computed", bytes / t.spmv_s / 1e9);
    v.insert("solvers.cg_iter_us", t.solve_s / iters * 1e6);
    v.insert("solvers.precond_apply_us", t.precond_s * 1e6);
    v.insert("solvers.cg_1rank_op_ms", one_rank_s * 1e3);
    v.insert(
        "solvers.cg_2rank_efficiency",
        one_rank_s / (PARTS as f64 * t.solve_s),
    );
    v.insert("obs.enabled_overhead_ratio", t.solve_obs_s / t.solve_s);
    // One CG iteration is 1 SpMV (with its halo exchange), 3 dots (each an
    // allreduce), 4 axpy-shaped updates and 1 preconditioner apply. What
    // the calls below `solvers` cost, per iteration, by layer:
    let comm_s = 3.0 * t.allreduce_s + t.halo_msg_s;
    let dmap_s = (t.plan_exec_s - t.halo_msg_s).max(0.0);
    let dlinalg_s = (t.spmv_s - t.plan_exec_s).max(0.0)
        + 3.0 * (t.dot_s - t.allreduce_s).max(0.0)
        + 4.0 * t.axpy_s;
    let below = comm_s + dmap_s + dlinalg_s;
    v.insert(
        "solvers.self_share",
        (1.0 - below * iters / t.solve_s).clamp(0.0, 1.0),
    );
    vec![
        ("comm", "allreduce+halo", comm_s * 1e9),
        ("dmap", "plan_execute", dmap_s * 1e9),
        ("dlinalg", "spmv+dot+axpy", dlinalg_s * 1e9),
    ]
}

fn odin_probes(v: &mut Values, seed: u64) {
    let spawn_s = med_s(5, || {
        let ctx = OdinContext::with_workers(PARTS);
        ctx.barrier();
    });
    v.insert("odin.spawn_ms", spawn_s * 1e3);
    let ctx = OdinContext::with_workers(PARTS);
    v.insert("odin.ctrl_rtt_us", med_s(2000, || ctx.barrier()) * 1e6);
    let small = ctx.from_vec(&uniform(seed, 11, 1024, 0.0, 1.0), Dist::Block);
    drop((Expr::leaf(&small) * 2.0).eval()); // register the kernel
    ctx.barrier();
    let mut dispatch = Vec::new();
    for i in 0..500 {
        let t = Instant::now();
        let r = (Expr::leaf(&small) * 2.0).eval();
        dispatch.push(t.elapsed().as_secs_f64());
        drop(r);
        if i % 50 == 49 {
            ctx.barrier(); // keep the command queues short
        }
    }
    v.insert("odin.dispatch_us", median(&dispatch) * 1e6);
    let reduce_s = med_s(500, || {
        black_box(small.sum());
    });
    v.insert("odin.reduce_rtt_us", reduce_s * 1e6);
    let big = ctx.from_vec(&uniform(seed, 12, odin_shuffle::N, -1.0, 1.0), Dist::Block);
    ctx.barrier();
    let redistribute_s = med_s(10, || {
        black_box(big.redistribute(Dist::Cyclic));
        ctx.barrier();
    });
    v.insert("odin.redistribute_ms", redistribute_s * 1e3);
    let shift_s = med_s(10, || {
        black_box(&big.slice1(1, None, 1) - &big.slice1(0, Some(-1), 1));
        ctx.barrier();
    });
    v.insert("odin.slice_shift_ms", shift_s * 1e3);
    let fetch_s = med_s(5, || drop(black_box(big.to_vec())));
    v.insert(
        "odin.fetch_gbps",
        (odin_shuffle::N * 8) as f64 / fetch_s / 1e9,
    );
}

/// The 39-op expression as pyish source; `c` as in `odin_kernel::e39`.
fn e39_source(c: f64) -> String {
    format!(
        "def e39(x, y):\n    return (x * 2.0 + y) * (x - y * 0.5) + (x * y + {c:?}) - abs(x) * 0.25 \
         + (y * 0.7 - x * 0.3) + (x + 1.5) * (y - 0.25) - x ** 2 * 0.125 \
         + (y * y - x * 0.5) * (x * 1.3 + 0.1) + (y ** 3 + x * 1.25) * 0.0625 \
         - abs(x - y) * (x + 2.0)\n"
    )
}

fn seamless_probes(v: &mut Values, seed: u64) {
    let src = e39_source(3.0);
    let compile_s = med_s(100, || {
        black_box(jit(&src, "e39", &[Type::Float, Type::Float]).expect("e39 compiles"));
    });
    v.insert("seamless.compile_us", compile_s * 1e6);
    let ctx = OdinContext::with_workers(PARTS);
    // A body the process-wide codegen cache has not seen: the constant
    // comes from the seed and the call count, past any set-up constant.
    let mut fresh = 1000.0 + (seed % 1000) as f64;
    let native_build_s = med_s(3, || {
        fresh += 1.0;
        black_box(
            ctx.kernel(&e39_source(fresh), "e39")
                .tier(Tier::Native)
                .build()
                .expect("e39 builds"),
        );
    });
    v.insert("seamless.native_build_ms", native_build_s * 1e3);
    let n = odin_kernel::N;
    let x = ctx.from_vec(&uniform(seed, 13, n, 0.0, 1.0), Dist::Block);
    let y = ctx.from_vec(&uniform(seed, 14, n, 1.0, 3.0), Dist::Block);
    let lane_ns = |tier: Tier, reps: usize| {
        let k = ctx
            .kernel(&src, "e39")
            .tier(tier)
            .build()
            .expect("e39 builds");
        drop(k.map(&[&x, &y]));
        ctx.barrier();
        let s = med_s(reps, || {
            black_box(k.map(&[&x, &y]));
            ctx.barrier();
        });
        s * 1e9 / n as f64
    };
    let vm = lane_ns(Tier::Vm, 3);
    // without a C compiler `Tier::Native` arms the VM: the two then agree
    let native = lane_ns(Tier::Native, 7);
    v.insert("seamless.vm_ns_per_lane", vm);
    v.insert("seamless.native_ns_per_lane", native);
    let best = if native_available() { native } else { vm };
    v.insert("seamless.kernel_gflops_computed", 39.0 / best);
}

fn serve_probes(v: &mut Values, seed: u64) {
    let plane = serve_mix::plane();
    {
        let session = plane
            .session(serve_mix::TENANTS[0].0)
            .expect("tenant is registered");
        let idle_s = med_s(200, || {
            let ticket = session
                .submit(JobRequest {
                    spec: JobSpec::Array {
                        seed: 0,
                        n: serve_mix::SIZES[0],
                    },
                    priority: Priority::Normal,
                    budget: std::time::Duration::from_secs(30),
                })
                .expect("an idle plane admits");
            black_box(ticket.wait());
        });
        v.insert("serve.idle_submit_ms", idle_s * 1e3);
    }
    // the workload's own mix in miniature
    let mix = serve_mix::drive(&plane, seed, 1.5, None);
    let _ = plane.shutdown();
    v.extend(serve_mix::layer_metrics(&mix));
}
