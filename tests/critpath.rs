//! Tier-1 guarantees of the causal-tracing / critical-path plane:
//!
//! * the program activity graph (PAG) is **deterministic**: repeated
//!   identical runs fingerprint identically, even though wall clocks,
//!   flow-id values, and ring registration order all differ;
//! * **no dangling flow edges** survive a seeded chaos sweep under
//!   reliable delivery — every traced receive finds its producer even
//!   when the copy that delivered was a retransmission;
//! * the critical-path category attribution sums **bitwise** to the
//!   reported path length, and the path tiles the makespan;
//! * a delay fault injected on one rank is attributed to *that* rank's
//!   blocked/wait time and the profiler names it the dominant straggler;
//! * ring overflow is loud: `obs.spans_dropped{rank}` counts every
//!   overwrite and the text report carries a truncation warning.
//!
//! The registry and span buffers are process-global, so every test here
//! serializes on one lock and starts from `obs::reset()`.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use hpc_framework::comm::{Delivery, FaultPlan, ReduceOp, Universe, UniverseConfig};
use hpc_framework::obs;
use hpc_framework::obs::critpath;
use hpc_framework::obs::graph::Pag;

fn obs_lock() -> MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    // a prior panicking test must not poison observability for the rest
    match L.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// A small but representative traced workload: collectives (which
/// decompose into p2p messages) plus a gather, run under `cfg`. Returns
/// the graph built from the run's spans.
fn traced_run(ranks: usize, cfg: UniverseConfig) -> Pag {
    obs::reset();
    obs::set_enabled(true);
    Universe::run_report(cfg, ranks, |comm| {
        comm.barrier();
        let v = vec![comm.rank() as f64 + 1.0; 32];
        let s = comm.allreduce(&v, ReduceOp::vec_sum());
        let _ = comm.gather(0, &(comm.rank() as u64));
        s[0]
    });
    let pag = Pag::build();
    obs::set_enabled(false);
    pag
}

#[test]
fn pag_fingerprint_is_deterministic_across_runs() {
    let _g = obs_lock();
    let fp: Vec<u64> = (0..3)
        .map(|_| traced_run(6, UniverseConfig::default()))
        .map(|pag| {
            assert!(!pag.nodes.is_empty(), "traced run recorded no spans");
            assert_eq!(pag.orphan_consumers, 0);
            pag.fingerprint()
        })
        .collect();
    // Wall clocks, flow-id values, and thread registration order all
    // change between runs; the structural fingerprint must not.
    assert_eq!(fp[0], fp[1]);
    assert_eq!(fp[1], fp[2]);
}

#[test]
fn chaos_sweep_leaves_no_dangling_flow_edges() {
    let _g = obs_lock();
    let mut healed = 0u64;
    for seed in [42u64, 1009, 777_216] {
        let cfg = UniverseConfig {
            fault: FaultPlan::messages(seed, 0.08, 0.05, 0.05, 0.04),
            delivery: Delivery::Reliable,
            stall_timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let pag = traced_run(4, cfg);
        // Retransmitted copies reuse the original flow id, so even a
        // receive satisfied by a retransmission must find its producer.
        assert_eq!(
            pag.orphan_consumers, 0,
            "seed {seed}: consumer span with no matching producer"
        );
        healed += pag
            .nodes
            .iter()
            .filter(|n| n.event.kind == obs::span::SpanKind::Retx)
            .count() as u64;
    }
    assert!(
        healed > 0,
        "the sweep never retransmitted — loss paths were not exercised"
    );
}

#[test]
fn zerocopy_datapath_leaves_no_dangling_flow_edges() {
    let _g = obs_lock();
    // Threshold 1 puts every payload on the region arm, so the traced
    // traffic is entirely region-handle messages; flow ids must thread
    // through region envelopes exactly as through wire bytes, clean run
    // and chaos sweep alike (retransmitted regions reuse the Arc copy
    // and the original flow id).
    for seed in [0u64, 42, 1009] {
        let fault = if seed == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::messages(seed, 0.08, 0.05, 0.05, 0.04)
        };
        let cfg = UniverseConfig {
            fault,
            delivery: Delivery::Reliable,
            stall_timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        }
        .with_zerocopy_threshold(1);
        obs::reset();
        obs::set_enabled(true);
        let report = Universe::run_report(cfg, 4, |comm| {
            let p = comm.size();
            let outgoing: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![(comm.rank() * p + d) as u64; 128])
                .collect();
            let incoming = comm.alltoallv(outgoing);
            comm.barrier();
            incoming.iter().map(Vec::len).sum::<usize>() as f64
        });
        let pag = Pag::build();
        obs::set_enabled(false);
        assert!(
            report.stats.iter().any(|s| s.zerocopy_msgs > 0),
            "seed {seed}: no region payloads moved"
        );
        assert!(!pag.nodes.is_empty(), "seed {seed}: no spans recorded");
        assert_eq!(
            pag.orphan_consumers, 0,
            "seed {seed}: region-handle receive with no producer edge"
        );
    }
}

#[test]
fn categories_sum_bitwise_to_critical_path_length() {
    let _g = obs_lock();
    let pag = traced_run(6, UniverseConfig::default());
    let p = critpath::profile(&pag);
    assert!(p.critical_path_s > 0.0);
    // Bitwise: critical_path_s is *defined* as the ordered category sum.
    assert!(
        p.categories.iter().sum::<f64>() == p.critical_path_s,
        "category sum {} != path {}",
        p.categories.iter().sum::<f64>(),
        p.critical_path_s
    );
    // The backward walk attributes exactly each frontier decrease, so the
    // categories tile [0, makespan] up to float summation order.
    assert!(
        (p.critical_path_s - p.makespan_s).abs() <= 1e-9 * p.makespan_s.max(1.0),
        "path {} does not tile makespan {}",
        p.critical_path_s,
        p.makespan_s
    );
    assert_eq!(p.orphan_consumers, 0);
    assert_eq!(p.dropped_spans, 0);
}

#[test]
fn injected_delay_names_the_victim_rank() {
    let _g = obs_lock();
    const VICTIM: usize = 3;
    let cfg = UniverseConfig {
        fault: FaultPlan {
            delay_p: 1.0,
            delay_rank: Some(VICTIM),
            delay_s: 1.0e-4,
            ..FaultPlan::none()
        },
        ..Default::default()
    };
    let pag = traced_run(8, cfg);
    let p = critpath::profile(&pag);
    assert_eq!(
        p.dominant_rank,
        Some(VICTIM),
        "profiler named the wrong straggler: {:?}",
        p.stragglers
    );
    let blocked = 2;
    assert_eq!(critpath::CATEGORIES[blocked], "blocked");
    let victim = p.ranks.iter().find(|r| r.rank == VICTIM).unwrap();
    for r in p.ranks.iter().filter(|r| r.rank != VICTIM) {
        assert!(
            victim.residency[blocked] > r.residency[blocked],
            "victim blocked residency must exceed rank {}'s",
            r.rank
        );
    }
    // The injected delay lands in blocked/wait, not in wire or compute,
    // and the hottest edge on the path leaves the delayed sender.
    assert!(
        p.categories[blocked] >= 0.10 * p.critical_path_s,
        "injected delay did not surface in blocked/wait ({} of {})",
        p.categories[blocked],
        p.critical_path_s
    );
    let edge = p.dominant_edge.expect("path crosses rank boundaries");
    assert_eq!(
        edge.src, VICTIM,
        "dominant edge must leave the delayed sender"
    );
    assert!(p
        .text()
        .contains(&format!("dominant straggler: rank {VICTIM}")));
}

#[test]
fn ring_overflow_counts_drops_and_warns_in_the_report() {
    let _g = obs_lock();
    obs::reset();
    obs::set_enabled(true);
    // This thread has no rank tag, so its ring reports as the driver.
    let over = obs::span::DEFAULT_RING_CAPACITY + 100;
    for i in 0..over {
        let t = obs::span::span_start(i as f64);
        t.finish("test", "overflow", i as f64 + 1.0, &[]);
    }
    obs::set_enabled(false);
    let dropped = obs::global()
        .counter_value(&obs::registry::key(
            "obs.spans_dropped",
            &[("rank", "driver")],
        ))
        .unwrap_or(0);
    assert_eq!(dropped, 100, "every overwrite must be counted");
    let report = obs::report::text_report();
    assert!(
        report.contains("WARNING") && report.contains("overwrote 100 spans"),
        "text report must warn about truncation:\n{report}"
    );
    // The truncation is also forwarded into the profile diagnostics.
    let p = critpath::profile_current();
    assert_eq!(p.dropped_spans, 100);
    obs::reset();
}
