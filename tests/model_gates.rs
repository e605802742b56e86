//! Gates on the LogGP virtual clock. Modeled makespans are exact virtual
//! time, so these carry no tolerance beyond the ones the claims state;
//! `experiments --only e17,e18,e19` prints the same sweeps as tables.

use bench::fixtures::{autotune_point, autotune_points, dropped_cg, modeled_spmv_cg};

#[test]
fn overlapped_spmv_cg_beats_blocking_from_16_ranks() {
    // E17: posting the halo exchange before the interior rows must show
    // on the modeled timeline once per-rank compute is small enough for
    // the exchange to matter. Every iteration replays the same timeline,
    // so 20 of them gate the inequality the 60-iteration table prints
    // (at a third of the debug-build cost).
    for ranks in [16usize, 64, 256] {
        let blocking = modeled_spmv_cg(ranks, 20, true);
        let overlapped = modeled_spmv_cg(ranks, 20, false);
        assert!(
            overlapped < blocking,
            "overlap must strictly beat blocking at {ranks} ranks ({overlapped} vs {blocking})"
        );
    }
}

#[test]
fn dropped_messages_cost_modeled_time_at_4_to_64_ranks() {
    // E18: retransmits are charged to the sender's virtual clock, so any
    // non-zero drop rate must strictly raise the makespan. Each run waits
    // out a 5 ms retransmit timer per lost message, so the gate caps CG at
    // 40 iterations where the table runs 120.
    for ranks in [4usize, 16, 64] {
        let (clean, _) = dropped_cg(ranks, 40, 0.0);
        for drop_p in [0.02, 0.05, 0.10] {
            let (makespan, stats) = dropped_cg(ranks, 40, drop_p);
            assert!(
                stats.iter().any(|s| s.faults_dropped > 0),
                "the plan dropped nothing at {ranks} ranks, p = {drop_p}"
            );
            assert!(
                makespan > clean,
                "losing messages must cost modeled time \
                 ({makespan} vs {clean} at {ranks} ranks, p = {drop_p})"
            );
        }
    }
}

#[test]
fn auto_tracks_the_best_fixed_collective() {
    // E19: `CollectiveAlgo::Auto` within 5% of the best fixed algorithm
    // at every swept (op, ranks, payload) point, and strictly better than
    // the worst at half of them or more. `Auto` is the default (asserted
    // in comm), and E9 and E17 replay CG's one latency-bound (24-byte)
    // allreduce per iteration, for which the one-lane rows stand in:
    // there, and at the 128 and 256 ranks those tables reach, it costs
    // exactly what the cheapest fixed algorithm costs and strictly less
    // than the reduce-then-bcast tree that used to be the default.
    let mut points = autotune_points();
    points.extend([("allreduce", 128, 1), ("allreduce", 256, 1)]);
    let mut beats_worst = 0;
    for &(op, ranks, len) in &points {
        let [lin, tree, rd, auto] = autotune_point(op, ranks, len);
        let best = lin.min(tree).min(rd);
        assert!(
            auto <= best * 1.05,
            "Auto must stay within 5% of the best fixed algorithm for {op} at \
             ({ranks} ranks, {len} lanes): auto {auto:.3e}s vs best {best:.3e}s"
        );
        if (op, len) == ("allreduce", 1) {
            assert!(
                auto == best && auto < tree,
                "{ranks} ranks: auto {auto:e}s, best {best:e}s, tree {tree:e}s"
            );
        }
        beats_worst += usize::from(auto < lin.max(tree).max(rd));
    }
    assert!(
        beats_worst * 2 >= points.len(),
        "Auto must strictly beat the worst fixed algorithm at >= half of the \
         swept points ({beats_worst}/{})",
        points.len()
    );
}
