//! Tier-1 guarantees of the observability layer:
//!
//! * a programmatic run of the full stack produces a **valid** Chrome-trace
//!   JSON document containing spans from all three subsystems (`comm`,
//!   `odin`, `solver`) with per-rank virtual-clock timestamps;
//! * registry counters agree **exactly** with `CommStats` for every
//!   collective algorithm (the spans/metrics are the same events the
//!   paper's §III-J instrumentation goal names);
//! * the paper's small-control-message claim holds: a global-mode ODIN
//!   program issues control commands averaging < 100 bytes;
//! * the disabled path records nothing (the single-atomic-load guarantee
//!   documented in `obs`).
//!
//! The registry and span buffers are process-global, so every test here
//! serializes on one lock and starts from `obs::reset()`.

use std::sync::{Mutex, MutexGuard, OnceLock};

use hpc_framework::comm::{
    CollectiveAlgo, Delivery, FaultPlan, ReduceOp, Universe, UniverseConfig,
};
use hpc_framework::hpc_core::bridge::{solve_with_odin_rhs, SolveMethod};
use hpc_framework::obs;
use hpc_framework::odin::{Expr, OdinContext};
use hpc_framework::solvers::KrylovConfig;

fn obs_lock() -> MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    // a prior panicking test must not poison observability for the rest
    match L.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// One full-stack run: an ODIN-held right-hand side solved by CG through
/// the bridge, so comm, ODIN, and solver spans all land in one trace.
fn run_bridge_solve() {
    let ctx = OdinContext::with_workers(3);
    let n = 40;
    let b = ctx.random(&[n], 11);
    let (x, report) = solve_with_odin_rhs(
        &ctx,
        &b,
        move |g| {
            let mut row = Vec::new();
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 2.5));
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        },
        SolveMethod::Cg,
        KrylovConfig {
            rtol: 1e-10,
            max_iter: 400,
            ..Default::default()
        },
    );
    assert!(report.converged);
    assert_eq!(x.to_vec().len(), n);
}

#[test]
fn trace_has_all_three_subsystems_with_virtual_clocks() {
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    run_bridge_solve();
    obs::set_enabled(false);

    // Raw span check: every subsystem recorded, and comm/solver spans sit
    // on rank-tagged rings with advancing virtual clocks.
    let rings = obs::span::snapshot_all();
    let mut cats = std::collections::BTreeSet::new();
    let mut rank_tagged_virtual = false;
    for (rank, _dropped, events) in &rings {
        for ev in events {
            cats.insert(ev.cat);
            assert!(
                ev.virt_end_s >= ev.virt_start_s,
                "span {} runs backwards on the virtual clock",
                ev.name
            );
            if rank.is_some() && (ev.cat == "comm" || ev.cat == "solver") && ev.virt_end_s > 0.0 {
                rank_tagged_virtual = true;
            }
        }
    }
    for want in ["comm", "odin", "solver"] {
        assert!(cats.contains(want), "no {want} spans; got {cats:?}");
    }
    assert!(
        rank_tagged_virtual,
        "no rank-tagged comm/solver span advanced a virtual clock"
    );

    // Exported document: valid JSON, one trace process per rank, spans
    // from each subsystem present by category.
    let (json, n_events) = obs::trace::chrome_trace_json();
    assert!(n_events > 0);
    obs::json::validate(&json).expect("chrome trace must be valid JSON");
    for needle in [
        "\"traceEvents\"",
        "\"cat\":\"comm\"",
        "\"cat\":\"odin\"",
        "\"cat\":\"solver\"",
        "\"pid\":1",
        "process_name",
        "wall_dur_us",
    ] {
        assert!(json.contains(needle), "trace missing {needle}");
    }

    // Causal flow arrows: every matched message edge exports a Perfetto
    // flow-start ("ph":"s") at the producer and flow-finish ("ph":"f")
    // at the consumer, in equal numbers.
    let starts = json.matches("\"ph\":\"s\"").count();
    let finishes = json.matches("\"ph\":\"f\"").count();
    assert!(starts > 0, "trace has no flow arrows");
    assert_eq!(starts, finishes, "unpaired flow arrows in the trace");
}

#[test]
fn collective_accounting_matches_p2p_sends_for_every_algo() {
    for algo in [
        CollectiveAlgo::Linear,
        CollectiveAlgo::Tree,
        CollectiveAlgo::RecursiveDoubling,
    ] {
        let _g = obs_lock();
        obs::reset();
        obs::set_enabled(true);
        let p = 4;
        let cfg = UniverseConfig {
            algo,
            ..Default::default()
        };
        let report = Universe::run_report(cfg, p, |comm| {
            comm.barrier();
            let v = vec![comm.rank() as f64; 32];
            let summed = comm.allreduce(&v, ReduceOp::vec_sum());
            let _ = comm.bcast(0, if comm.rank() == 0 { Some(7u64) } else { None });
            let _ = comm.gather(1, &(comm.rank() as u64));
            let _ = comm.scatter(
                2,
                if comm.rank() == 2 {
                    Some((0..comm.size() as u64).collect())
                } else {
                    None
                },
            );
            summed[0]
        });
        obs::set_enabled(false);

        // CommStats is the ground truth for the p2p traffic each
        // collective decomposed into; the registry must agree exactly.
        let (mut msgs_sent, mut bytes_sent, mut msgs_recv, mut bytes_recv) = (0, 0, 0, 0);
        for s in &report.stats {
            msgs_sent += s.msgs_sent;
            bytes_sent += s.bytes_sent;
            msgs_recv += s.msgs_recv;
            bytes_recv += s.bytes_recv;
        }
        assert!(msgs_sent > 0, "{algo:?} sent nothing");
        let g = obs::global();
        assert_eq!(g.counter_sum("comm.msgs_sent"), msgs_sent, "{algo:?}");
        assert_eq!(g.counter_sum("comm.bytes_sent"), bytes_sent, "{algo:?}");
        assert_eq!(g.counter_sum("comm.msgs_recv"), msgs_recv, "{algo:?}");
        assert_eq!(g.counter_sum("comm.bytes_recv"), bytes_recv, "{algo:?}");
        // every message sent was received: the simulated network drops none
        assert_eq!(msgs_sent, msgs_recv, "{algo:?}");
        assert_eq!(bytes_sent, bytes_recv, "{algo:?}");
        // each rank's call increments the labeled collective counter once;
        // composite allreduce (linear/tree = reduce + bcast) also counts
        // its inner collectives, mirroring its nested spans
        let composite = !matches!(algo, CollectiveAlgo::RecursiveDoubling);
        let expect = |op: &str| match op {
            "bcast" if composite => 2 * p as u64,
            _ => p as u64,
        };
        for op in ["barrier", "allreduce", "bcast", "gather", "scatter"] {
            let key = obs::registry::key("comm.collectives", &[("op", op)]);
            assert_eq!(g.counter_value(&key), Some(expect(op)), "{algo:?} op {op}");
        }
    }
}

#[test]
fn fault_counters_reconcile_exactly_with_comm_stats() {
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    let p = 4;
    let cfg = UniverseConfig {
        stall_timeout: Some(std::time::Duration::from_secs(10)),
        fault: FaultPlan::messages(0xe18, 0.08, 0.05, 0.05, 0.04),
        delivery: Delivery::Reliable,
        ..Default::default()
    };
    let report = Universe::run_report(cfg, p, |comm| {
        comm.barrier();
        let v = vec![comm.rank() as f64 + 1.0; 64];
        let s = comm.allreduce(&v, ReduceOp::vec_sum());
        let _ = comm.gather(0, &(comm.rank() as u64));
        s[0]
    });
    obs::set_enabled(false);

    // Every fault/reliability counter increments CommStats and the
    // registry at the same site, so the two views must agree exactly,
    // per rank — the E18 acceptance identity.
    let g = obs::global();
    let mut lost = 0;
    for (rank, s) in report.stats.iter().enumerate() {
        let r = rank.to_string();
        let val = |name: &str| {
            g.counter_value(&obs::registry::key(name, &[("rank", &r)]))
                .unwrap_or(0)
        };
        assert_eq!(val("comm.retransmits"), s.retransmits, "rank {rank}");
        assert_eq!(val("comm.dropped"), s.faults_dropped, "rank {rank}");
        assert_eq!(val("comm.corrupt"), s.corrupt_detected, "rank {rank}");
        assert_eq!(val("comm.dup_suppressed"), s.dup_suppressed, "rank {rank}");
        lost += s.faults_dropped + s.corrupt_detected;
    }
    assert!(
        lost > 0,
        "the fault plan injected no losses — nothing was exercised"
    );
}

#[test]
fn cache_and_pool_counters_reconcile_exactly_with_comm_stats() {
    use hpc_framework::dlinalg::{CsrMatrix, DistVector};
    use hpc_framework::dmap::plan_cache::cached_route;
    use hpc_framework::dmap::{CommPlan, Directory, DistMap};

    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    let p = 4;
    let n = 32;
    let report = Universe::run_report(UniverseConfig::default(), p, move |comm| {
        let row = move |g: usize| {
            let mut row = vec![(g, 4.0)];
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row.sort_unstable_by_key(|e| e.0);
            row
        };
        let map = DistMap::block(n, comm.size(), comm.rank());
        // the matvecs drive the wire-buffer pool through its reuse path
        let a = CsrMatrix::from_row_fn(comm, map.clone(), map.clone(), row);
        let x = DistVector::from_fn(map.clone(), |g| g as f64 + 1.0);
        let y = a.matvec(comm, &a.matvec(comm, &x));
        // a route, the one kind of plan that is cached: the first request
        // misses, the second hits
        let cyclic = DistMap::cyclic(n, comm.size(), comm.rank());
        let mut moved = vec![0.0; cyclic.my_count()];
        for _ in 0..2 {
            let route = cached_route(comm, &[comm.rank() as u8], || {
                CommPlan::import(comm, &map, &cyclic, &Directory::build(comm, &map))
            });
            route.execute(comm, x.local(), &mut moved);
        }
        y.local()[0] + moved[0]
    });
    obs::set_enabled(false);

    // The cache/pool counters increment CommStats and the registry at
    // the same site (like the fault counters), so the two views must
    // agree exactly, per rank.
    let g = obs::global();
    let (mut hits, mut reuse) = (0, 0);
    for (rank, s) in report.stats.iter().enumerate() {
        let r = rank.to_string();
        let val = |name: &str| {
            g.counter_value(&obs::registry::key(name, &[("rank", &r)]))
                .unwrap_or(0)
        };
        assert_eq!(val("cache.plan_hits"), s.plan_hits, "rank {rank}");
        assert_eq!(val("cache.plan_misses"), s.plan_misses, "rank {rank}");
        assert_eq!(val("pool.buffer_reuse"), s.buffer_reuse, "rank {rank}");
        assert!(s.plan_misses > 0, "rank {rank} never built a plan");
        hits += s.plan_hits;
        reuse += s.buffer_reuse;
    }
    assert!(hits > 0, "the repeated route produced no plan-cache hits");
    assert!(reuse > 0, "the matvecs never recycled a wire buffer");
}

#[test]
fn zerocopy_and_eviction_counters_reconcile_exactly_with_comm_stats() {
    use hpc_framework::dlinalg::{CsrMatrix, DistVector};
    use hpc_framework::dmap::DistMap;

    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    let p = 4;
    let n = 32;
    // Threshold 1 forces every plan payload onto the region arm, so each
    // rank's halo traffic exercises the zero-copy counters.
    let cfg = UniverseConfig::default().with_zerocopy_threshold(1);
    let report = Universe::run_report(cfg, p, move |comm| {
        let row = move |g: usize| {
            let mut row = vec![(g, 4.0)];
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row.sort_unstable_by_key(|e| e.0);
            row
        };
        let map = DistMap::block(n, comm.size(), comm.rank());
        let a = CsrMatrix::from_row_fn(comm, map.clone(), map.clone(), row);
        let x = DistVector::from_fn(map, |g| g as f64 + 1.0);
        let y = a.matvec(comm, &x);
        // Returning an oversized buffer to the pool must be refused and
        // counted, not retained.
        comm.put_buf(Vec::with_capacity(128 * 1024));
        y.local()[0]
    });
    obs::set_enabled(false);

    // The zero-copy and eviction counters increment CommStats and the
    // registry at the same site, so the two views must agree exactly,
    // per rank.
    let g = obs::global();
    for (rank, s) in report.stats.iter().enumerate() {
        let r = rank.to_string();
        let val = |name: &str| {
            g.counter_value(&obs::registry::key(name, &[("rank", &r)]))
                .unwrap_or(0)
        };
        assert_eq!(val("comm.zerocopy_msgs"), s.zerocopy_msgs, "rank {rank}");
        assert_eq!(val("comm.zerocopy_bytes"), s.zerocopy_bytes, "rank {rank}");
        assert_eq!(
            val("pool.buffer_pool_evictions"),
            s.buffer_pool_evictions,
            "rank {rank}"
        );
        assert!(s.zerocopy_msgs > 0, "rank {rank} sent no region payloads");
        assert!(
            s.buffer_pool_evictions > 0,
            "rank {rank} retained an oversized buffer"
        );
    }
}

#[test]
fn odin_control_messages_stay_small_paper_claim() {
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    let ctx = OdinContext::with_workers(4);
    // a representative global-mode program: construct, elementwise math,
    // slicing, reductions — the paper's "NumPy look-alike" usage
    let x = ctx.random(&[500], 3);
    let y = ctx.linspace(0.0, 1.0, 500);
    let z = &x + &y;
    let _ = z.sum();
    let _ = z.cumsum();
    let _ = z.argmax();
    ctx.barrier();
    let stats = ctx.stats();
    obs::set_enabled(false);

    assert!(stats.ctrl_msgs > 0);
    let mean = stats.mean_ctrl_bytes();
    assert!(
        mean < 100.0,
        "paper claim violated: mean control message is {mean:.1} bytes"
    );
    // the same figure is exported live as a gauge
    let gauge = obs::global()
        .gauge_value("odin.mean_ctrl_bytes")
        .expect("gauge odin.mean_ctrl_bytes not exported");
    assert!(gauge > 0.0 && gauge < 100.0, "gauge reads {gauge}");
}

#[test]
fn disabled_path_records_nothing() {
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(false);
    let report = Universe::run_report(UniverseConfig::default(), 3, |comm| {
        let v = vec![comm.rank() as f64; 16];
        comm.allreduce(&v, ReduceOp::vec_sum())[0]
    });
    assert!(report.stats.iter().any(|s| s.msgs_sent > 0));
    // spans: no ring gained an event; metrics: registry still empty
    let events: usize = obs::span::snapshot_all()
        .iter()
        .map(|(_, _, evs)| evs.len())
        .sum();
    assert_eq!(events, 0, "spans recorded while disabled");
    assert_eq!(obs::global().counter_sum("comm."), 0);
    assert_eq!(obs::global().counter_sum("odin."), 0);
    assert_eq!(obs::global().counter_sum("solver."), 0);
}

#[test]
fn zerocopy_region_corrupt_skip_reconciles_exactly_with_comm_stats() {
    // The PR 7 gap, closed: with every payload on the region arm and an
    // aggressive seeded corrupt schedule, each skipped-and-counted
    // corruption (regions have no wire image to flip) and each
    // FNV-integrity verification must land in `CommStats` and the obs
    // registry at the same site, per rank, exactly. Swept over
    // HPC_FAULT_SEED by the ci.sh chaos pass.
    let seed = std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    let p = 4;
    let cfg = UniverseConfig {
        stall_timeout: Some(std::time::Duration::from_secs(10)),
        fault: FaultPlan::messages(seed, 0.0, 0.0, 0.0, 0.25),
        delivery: Delivery::Reliable,
        ..Default::default()
    }
    .with_zerocopy_threshold(1)
    .with_region_integrity(true);
    let report = Universe::run_report(cfg, p, |comm| {
        // A zero-copy ring: every payload rides the region arm (threshold
        // 1), so each Corrupt decision lands on a region and is skipped.
        let rank = comm.rank();
        let size = comm.size();
        let mut acc = 0.0;
        for round in 0..24u64 {
            let v = vec![rank as f64 + round as f64 + 0.5; 64];
            let sreq = comm
                .isend_zc((rank + 1) % size, 40 + round as u32, v)
                .unwrap();
            let (got, _) = comm
                .recv_zc::<Vec<f64>>(
                    hpc_framework::comm::Src::Rank((rank + size - 1) % size),
                    40 + round as u32,
                )
                .unwrap();
            comm.wait(sreq).unwrap();
            acc += got[0];
        }
        acc
    });
    obs::set_enabled(false);

    let g = obs::global();
    let (mut skipped, mut checked) = (0u64, 0u64);
    for (rank, s) in report.stats.iter().enumerate() {
        let r = rank.to_string();
        let val = |name: &str| {
            g.counter_value(&obs::registry::key(name, &[("rank", &r)]))
                .unwrap_or(0)
        };
        assert_eq!(
            val("comm.corrupt_skipped_region"),
            s.corrupt_skipped_region,
            "rank {rank}"
        );
        assert_eq!(
            val("comm.region_integrity_checked"),
            s.region_integrity_checked,
            "rank {rank}"
        );
        skipped += s.corrupt_skipped_region;
        checked += s.region_integrity_checked;
    }
    assert!(
        skipped > 0,
        "corrupt_p 0.25 over region payloads skipped nothing (seed {seed})"
    );
    assert!(checked > 0, "no typed receive verified a region digest");
    // Ledger identity: the registry's cross-rank sums agree too.
    assert_eq!(g.counter_sum("comm.corrupt_skipped_region"), skipped);
    assert_eq!(g.counter_sum("comm.region_integrity_checked"), checked);
}

#[test]
fn fusion_counters_reconcile_exactly_with_program_stats() {
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    let ctx = OdinContext::with_workers(3);
    let x = ctx.arange_f64(0.0, 1.0, 48, hpc_framework::odin::Dist::Block);
    let c = ctx.arange_f64(0.5, 0.25, 48, hpc_framework::odin::Dist::Cyclic);
    let mut p = ctx.trace();
    // Repeated fragment (CSE), a dead store (DSE), the cyclic operand
    // used by two statements (merged redistribute), and a fused tail.
    let shared = Expr::leaf(&x) * Expr::leaf(&c);
    let a = p.assign(shared.clone() + 1.0);
    let _dead = p.assign(Expr::leaf(&x) * 9.0);
    let b = p.assign(shared.clone() * 2.0 + Expr::leaf(&c));
    let _s = p.sum(Expr::from(a) + Expr::from(b));
    let mut run = p.run(&[a, b]);
    let (_aa, _bb) = (run.array(a), run.array(b));
    let st = run.stats();
    // A lone `Expr::eval` is a one-statement program and lands in the
    // same counters: `x·c` twice is exactly one CSE hit, nothing else.
    let _lone = (shared.clone() - shared).eval();
    obs::set_enabled(false);

    assert!(st.cse_hits >= 1, "{st:?}");
    assert_eq!(st.dse_eliminated, 1, "{st:?}");
    assert!(st.redistributes_merged >= 1, "{st:?}");
    assert!(st.launches_saved >= 1, "{st:?}");
    // Exact mirror: each registry counter is the traced run's
    // ProgramStats field plus the lone eval's contribution.
    let g = obs::global();
    for (key, want) in [
        ("fusion.cse_hits", st.cse_hits + 1),
        ("fusion.dse_eliminated", st.dse_eliminated),
        ("fusion.redistributes_merged", st.redistributes_merged),
        ("fusion.launches_saved", st.launches_saved),
    ] {
        assert_eq!(g.counter_value(key), Some(want), "{key}");
    }
}
