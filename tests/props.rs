//! Property-style tests over the workspace invariants.
//!
//! Formerly proptest-based; now driven by the in-tree deterministic
//! [`obs::SplitMix64`] generator so the default workspace builds and
//! tests fully offline with zero external dependencies. Every case is
//! seeded, so failures reproduce exactly.

use obs::SplitMix64;

use hpc_framework::comm::{decode_from_slice, encode_to_vec};
use hpc_framework::dmap::DistMap;
use hpc_framework::odin::{Dist, OdinContext, SliceSpec};
use hpc_framework::seamless;

// ---- wire codec -------------------------------------------------------------

/// A stream of "interesting" f64s: normals, subnormals, infinities, NaN.
fn arb_f64(rng: &mut SplitMix64) -> f64 {
    match rng.gen_index(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(rng.next_u64() & 0xf_ffff_ffff_ffff), // subnormal
        _ => f64::from_bits(rng.next_u64()),
    }
}

#[test]
fn wire_roundtrip_f64_vec() {
    let mut rng = SplitMix64::new(0xc0dec);
    for case in 0..64 {
        let n = rng.gen_index(200 + 1);
        let v: Vec<f64> = (0..n).map(|_| arb_f64(&mut rng)).collect();
        let bytes = encode_to_vec(&v);
        let back: Vec<f64> = decode_from_slice(&bytes).unwrap();
        assert_eq!(v.len(), back.len(), "case {case}");
        for (a, b) in v.iter().zip(&back) {
            assert!(a.to_bits() == b.to_bits(), "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn wire_roundtrip_nested() {
    let mut rng = SplitMix64::new(0x2e57ed);
    for case in 0..64 {
        let slen = rng.gen_index(41);
        let s: String = (0..slen)
            .map(|_| char::from_u32(32 + rng.gen_index(95) as u32).unwrap())
            .collect();
        let npairs = rng.gen_index(50);
        let pairs: Vec<(i64, bool)> = (0..npairs)
            .map(|_| (rng.next_u64() as i64, rng.gen_bool(0.5)))
            .collect();
        let opt = if rng.gen_bool(0.5) {
            Some(rng.next_u64() as u32)
        } else {
            None
        };
        let value = (s.clone(), pairs.clone(), opt);
        let bytes = encode_to_vec(&value);
        let back: (String, Vec<(i64, bool)>, Option<u32>) = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, value, "case {case}");
    }
}

#[test]
fn wire_rejects_truncation() {
    let mut rng = SplitMix64::new(0x7239c);
    for _ in 0..32 {
        let n = 1 + rng.gen_index(19);
        let v: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let bytes = encode_to_vec(&v);
        // any strict prefix must fail to decode
        let cut = bytes.len() - 1;
        assert!(decode_from_slice::<Vec<u64>>(&bytes[..cut]).is_err());
    }
}

// ---- distribution maps -------------------------------------------------------

/// Deterministic sweep over (n, p, kind, block size) map configurations.
fn map_cases() -> Vec<(usize, usize, u8, usize)> {
    let mut rng = SplitMix64::new(0xd15f);
    let mut cases = Vec::new();
    // exhaustive small corner: every kind at tiny sizes
    for n in [0usize, 1, 2, 7] {
        for p in [1usize, 2, 3] {
            for kind in 0u8..3 {
                cases.push((n, p, kind, 2));
            }
        }
    }
    // randomized bulk
    for _ in 0..48 {
        cases.push((
            rng.gen_index(200),
            1 + rng.gen_index(8),
            rng.gen_index(3) as u8,
            1 + rng.gen_index(6),
        ));
    }
    cases
}

fn make_map(kind: u8, n: usize, b: usize, p: usize, r: usize) -> DistMap {
    match kind {
        0 => DistMap::block(n, p, r),
        1 => DistMap::cyclic(n, p, r),
        _ => DistMap::block_cyclic(n, b, p, r),
    }
}

#[test]
fn maps_partition_exactly() {
    for (n, p, kind, b) in map_cases() {
        let mut seen = vec![false; n];
        let mut total = 0;
        for r in 0..p {
            let m = make_map(kind, n, b, p, r);
            total += m.my_count();
            for l in 0..m.my_count() {
                let g = m.local_to_global(l);
                assert!(!seen[g], "gid {g} owned twice (n={n} p={p} kind={kind})");
                seen[g] = true;
                // bijection + owner agreement
                assert_eq!(m.global_to_local(g), Some(l));
                assert_eq!(m.owner_of(g), Some(r));
            }
        }
        assert_eq!(total, n);
        assert!(seen.iter().all(|&x| x));
    }
}

#[test]
fn owner_lookup_consistent_across_ranks() {
    for (n, p, kind, b) in map_cases() {
        if n == 0 {
            continue;
        }
        // every rank computes the same owner for every gid
        let owners: Vec<usize> = (0..n)
            .map(|g| make_map(kind, n, b, p, 0).owner_of(g).unwrap())
            .collect();
        for r in 1..p {
            let m = make_map(kind, n, b, p, r);
            for (g, &o) in owners.iter().enumerate() {
                assert_eq!(m.owner_of(g), Some(o));
            }
        }
    }
}

// ---- ODIN vs serial NumPy-style reference ------------------------------------

fn arb_dist(rng: &mut SplitMix64) -> Dist {
    match rng.gen_index(3) {
        0 => Dist::Block,
        1 => Dist::Cyclic,
        _ => Dist::BlockCyclic(1 + rng.gen_index(4)),
    }
}

#[test]
fn odin_binary_ufunc_matches_serial() {
    let mut rng = SplitMix64::new(0x0d11);
    for _ in 0..12 {
        let n = 1 + rng.gen_index(59);
        let workers = 1 + rng.gen_index(4);
        let (da, db) = (arb_dist(&mut rng), arb_dist(&mut rng));
        let seed = rng.gen_index(1000) as u64;
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.random_dist(&[n], seed, da);
        let y = ctx.random_dist(&[n], seed + 1, db);
        let got = (&x + &y).to_vec();
        let xs = x.to_vec();
        let ys = y.to_vec();
        for i in 0..n {
            assert_eq!(got[i], xs[i] + ys[i]);
        }
    }
}

#[test]
fn odin_slicing_matches_serial() {
    let mut rng = SplitMix64::new(0x511ce);
    for _ in 0..12 {
        let n = 1 + rng.gen_index(79);
        let workers = 1 + rng.gen_index(4);
        let d = arb_dist(&mut rng);
        let start = rng.gen_index(20).min(n);
        let stop = (start + rng.gen_index(60)).min(n);
        let step = 1 + rng.gen_index(4);
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.random_dist(&[n], 42, d);
        let xs = x.to_vec();
        let s = x.slice(&[SliceSpec::new(start, stop, step)]);
        let got = s.to_vec();
        let expect: Vec<f64> = (start..stop).step_by(step).map(|i| xs[i]).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn odin_sum_matches_serial_tolerance() {
    let mut rng = SplitMix64::new(0x50b);
    for _ in 0..12 {
        let n = 1 + rng.gen_index(99);
        let workers = 1 + rng.gen_index(4);
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.random(&[n], 7);
        let serial: f64 = x.to_vec().iter().sum();
        let dist = x.sum();
        assert!((serial - dist).abs() <= 1e-12 * n as f64);
    }
}

#[test]
fn odin_cumsum_matches_serial() {
    let mut rng = SplitMix64::new(0xc5);
    for _ in 0..12 {
        let n = 1 + rng.gen_index(79);
        let workers = 1 + rng.gen_index(4);
        let d = arb_dist(&mut rng);
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.random_dist(&[n], 5, d);
        let xs = x.to_vec();
        let got = x.cumsum().to_vec();
        let mut acc = 0.0;
        for i in 0..n {
            acc += xs[i];
            assert!((got[i] - acc).abs() < 1e-9 * (i + 1) as f64);
        }
    }
}

/// NumPy's `argmax` (`is_max`) / `argmin`: the first NaN if there is one,
/// else the first extreme.
fn serial_arg(xs: &[f64], is_max: bool) -> usize {
    if let Some(i) = xs.iter().position(|v| v.is_nan()) {
        return i;
    }
    (0..xs.len()).fold(0, |best, i| {
        let better = if is_max {
            xs[i] > xs[best]
        } else {
            xs[i] < xs[best]
        };
        if better {
            i
        } else {
            best
        }
    })
}

#[test]
fn odin_argmax_matches_serial() {
    let mut rng = SplitMix64::new(0xa27);
    for _ in 0..12 {
        let n = 1 + rng.gen_index(59);
        let workers = 1 + rng.gen_index(4);
        let d = arb_dist(&mut rng);
        let seed = rng.gen_index(500) as u64;
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.random_dist(&[n], seed, d);
        let xs = x.to_vec();
        assert_eq!(x.argmax(), serial_arg(&xs, true));
        assert_eq!(x.argmin(), serial_arg(&xs, false));
    }
    // NaNs at every position, alone and in pairs, so every segment start
    // and end of a 1–4 worker block split holds one: the first NaN wins
    // whatever the worker count (NumPy's rule).
    let base = [1.0, 3.0, -2.0, 3.0, 0.5, -2.0, 2.0];
    for workers in 1..=4 {
        let ctx = OdinContext::with_workers(workers);
        let mut cases = vec![vec![f64::NAN, 1.0, 3.0], vec![3.0, 1.0, f64::NAN]];
        for i in 0..base.len() {
            for j in i..base.len() {
                let mut xs = base.to_vec();
                xs[i] = f64::NAN;
                xs[j] = f64::NAN;
                cases.push(xs);
            }
        }
        for xs in cases {
            let x = ctx.from_vec(&xs, Dist::Block);
            let case = format!("{xs:?} on {workers} workers");
            assert_eq!(x.argmax(), serial_arg(&xs, true), "argmax {case}");
            assert_eq!(x.argmin(), serial_arg(&xs, false), "argmin {case}");
        }
    }
}

#[test]
fn odin_concat_matches_serial() {
    let mut rng = SplitMix64::new(0xc047);
    for _ in 0..12 {
        let n1 = rng.gen_index(30);
        let n2 = rng.gen_index(30);
        if n1 + n2 == 0 {
            continue;
        }
        let workers = 1 + rng.gen_index(3);
        let (d1, d2) = (arb_dist(&mut rng), arb_dist(&mut rng));
        let ctx = OdinContext::with_workers(workers);
        let a = ctx.random_dist(&[n1], 1, d1);
        let b = ctx.random_dist(&[n2], 2, d2);
        let mut expect = a.to_vec();
        expect.extend(b.to_vec());
        assert_eq!(a.concat(&b).to_vec(), expect);
    }
}

#[test]
fn odin_redistribute_preserves_content() {
    let mut rng = SplitMix64::new(0x2ed1);
    for _ in 0..12 {
        let n = rng.gen_index(60);
        let workers = 1 + rng.gen_index(4);
        let (d1, d2) = (arb_dist(&mut rng), arb_dist(&mut rng));
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.random_dist(&[n], 3, d1);
        let orig = x.to_vec();
        let y = x.redistribute(d2);
        assert_eq!(y.to_vec(), orig);
    }
}

// ---- nonblocking overlap: bitwise-identical to the blocking reference --------

use hpc_framework::comm::Universe;
use hpc_framework::dlinalg::{reference, CsrMatrix, DistVector};

/// Random sparse square-matrix row: a dominant diagonal plus a few
/// off-diagonal entries anywhere in the domain (so rows land on both
/// sides of the interior/boundary split).
fn arb_row(rng: &mut SplitMix64, g: usize, n: usize) -> Vec<(usize, f64)> {
    let mut row = vec![(g, 4.0 + rng.gen_range_f64(0.0, 2.0))];
    for _ in 0..rng.gen_index(4) {
        row.push((rng.gen_index(n), rng.gen_range_f64(-1.0, 1.0)));
    }
    row.sort_unstable_by_key(|e| e.0);
    row.dedup_by_key(|e| e.0);
    row
}

#[test]
fn overlapped_spmv_bitwise_matches_blocking() {
    let mut rng = SplitMix64::new(0x5b3a);
    for case in 0..8 {
        let p = 1 + rng.gen_index(4);
        let n = 8 + rng.gen_index(40);
        let rows_seed = rng.next_u64();
        let x_seed = rng.next_u64();
        Universe::run(p, move |comm| {
            let map = DistMap::block(n, comm.size(), comm.rank());
            let a = CsrMatrix::from_row_fn(comm, map.clone(), map.clone(), |g| {
                let mut r = SplitMix64::new(rows_seed ^ (g as u64).wrapping_mul(0x9e3779b9));
                arb_row(&mut r, g, n)
            });
            let x = DistVector::from_fn(map.clone(), |g| {
                let mut r = SplitMix64::new(x_seed ^ g as u64);
                r.gen_range_f64(-10.0, 10.0)
            });
            let y_over = a.matvec(comm, &x);
            let y_block = reference::matvec_blocking(&a, comm, &x);
            for (o, b) in y_over.local().iter().zip(y_block.local()) {
                assert_eq!(o.to_bits(), b.to_bits(), "case {case}: {o} vs {b}");
            }
        });
    }
}

#[test]
fn interior_boundary_partition_invariant() {
    let mut rng = SplitMix64::new(0x1b2c);
    for _ in 0..8 {
        let p = 1 + rng.gen_index(4);
        let n = 8 + rng.gen_index(40);
        let rows_seed = rng.next_u64();
        Universe::run(p, move |comm| {
            let me = comm.rank();
            let map = DistMap::block(n, comm.size(), me);
            let a = CsrMatrix::from_row_fn(comm, map.clone(), map.clone(), |g| {
                let mut r = SplitMix64::new(rows_seed ^ (g as u64).wrapping_mul(0x9e3779b9));
                arb_row(&mut r, g, n)
            });
            // interior ∪ boundary is a permutation of the local rows
            let rows_local = a.row_map().my_count();
            let mut seen = vec![false; rows_local];
            for i in a.interior_rows().chain(a.boundary_rows()) {
                assert!(!seen[i], "row {i} listed twice");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "some row unlisted");
            // interior rows reference only locally-owned columns; boundary
            // rows reference at least one ghost column
            for i in a.interior_rows() {
                assert!(a
                    .row_entries(i)
                    .all(|(g, _)| a.domain_map().owner_of(g) == Some(me)));
            }
            for i in a.boundary_rows() {
                assert!(a
                    .row_entries(i)
                    .any(|(g, _)| a.domain_map().owner_of(g) != Some(me)));
            }
        });
    }
}

#[test]
fn halo_exchange_matches_neighbor_values_bitwise() {
    let mut rng = SplitMix64::new(0x4a10);
    for _ in 0..8 {
        let workers = 1 + rng.gen_index(4);
        // a multiple of `workers` so every block segment is non-empty
        let n = workers * (1 + rng.gen_index(8));
        let seed = rng.next_u64();
        let ctx = OdinContext::with_workers(workers);
        let x = ctx.random(&[n], seed);
        let xs = x.to_vec();
        ctx.run_spmd(&[&x], move |scope, args| {
            let (left, right) = scope.exchange_boundary_1d(args[0]);
            let map = scope.axis_map(args[0]);
            let lo = map.local_to_global(0);
            let hi = map.local_to_global(map.my_count() - 1);
            match left {
                Some(v) => assert_eq!(v.to_bits(), xs[lo - 1].to_bits()),
                None => assert_eq!(lo, 0),
            }
            match right {
                Some(v) => assert_eq!(v.to_bits(), xs[hi + 1].to_bits()),
                None => assert_eq!(hi, xs.len() - 1),
            }
        });
    }
}

#[test]
fn pipelined_dispatch_bitwise_matches_drained() {
    let mut rng = SplitMix64::new(0xf10e);
    for case in 0..6 {
        let workers = 1 + rng.gen_index(4);
        let k = 2 + rng.gen_index(6);
        let ctx = OdinContext::with_workers(workers);
        let arrays: Vec<_> = (0..k)
            .map(|i| {
                let d = arb_dist(&mut rng);
                ctx.random_dist(&[1 + rng.gen_index(99)], 100 + i as u64, d)
            })
            .collect();
        let drained: Vec<f64> = arrays.iter().map(|a| a.sum()).collect();
        // re-issue the same reductions as a pipelined stream and claim the
        // replies in reverse order to exercise the engine's buffering
        let mut pending: Vec<_> = arrays.iter().map(|a| a.sum_async()).collect();
        let mut piped = Vec::with_capacity(k);
        while let Some(p) = pending.pop() {
            piped.push(p.wait());
        }
        piped.reverse();
        for (i, (d, p)) in drained.iter().zip(&piped).enumerate() {
            assert_eq!(d.to_bits(), p.to_bits(), "case {case}, array {i}");
        }
        assert_eq!(ctx.outstanding_replies(), 0);
    }
}

// ---- chaos: reliable delivery heals seeded faults, bitwise -------------------

use std::time::Duration;

use hpc_framework::comm::{Delivery, FaultPlan, ReduceOp, UniverseConfig};
use hpc_framework::solvers::{cg, IdentityPrecond, KrylovConfig};

/// A chaos universe: seeded faults, reliable delivery, and a stall
/// timeout so a broken retransmit path fails the test instead of
/// hanging it.
fn reliable_chaos(fault: FaultPlan) -> UniverseConfig {
    UniverseConfig {
        stall_timeout: Some(Duration::from_secs(10)),
        fault,
        delivery: Delivery::Reliable,
        ..Default::default()
    }
}

/// One CG solve on a seeded nonsymmetric-free SPD tridiagonal system,
/// returning per-rank `(x local segment, residual history)`.
#[allow(clippy::type_complexity)]
fn cg_case(
    cfg: UniverseConfig,
    p: usize,
    n: usize,
) -> (
    Vec<(Vec<f64>, Vec<f64>)>,
    Vec<hpc_framework::comm::CommStats>,
) {
    let report = Universe::run_report(cfg, p, move |comm| {
        let map = DistMap::block(n, comm.size(), comm.rank());
        let a = CsrMatrix::from_row_fn(comm, map.clone(), map.clone(), |g| {
            let mut row = Vec::new();
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 3.0 + (g % 5) as f64));
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        });
        let b = DistVector::from_fn(map.clone(), |g| ((g as f64) * 0.7).sin());
        let mut x = DistVector::zeros(map);
        let st = cg(
            comm,
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &KrylovConfig::default(),
        );
        assert!(st.converged, "chaos CG must still converge");
        (x.local().to_vec(), st.history)
    });
    (report.results, report.stats)
}

#[test]
fn cg_over_reliable_delivery_is_bitwise_immune_to_message_faults() {
    let mut rng = SplitMix64::new(0xc4a05);
    for case in 0..4 {
        let p = 2 + rng.gen_index(3); // 2..=4 ranks
        let n = 24 + rng.gen_index(25);
        let plan = FaultPlan::messages(
            rng.next_u64(),
            0.02 + rng.gen_range_f64(0.0, 0.08), // drop
            rng.gen_range_f64(0.0, 0.05),        // duplicate
            rng.gen_range_f64(0.0, 0.05),        // delay
            rng.gen_range_f64(0.0, 0.04),        // corrupt
        );
        let (clean, _) = cg_case(UniverseConfig::default(), p, n);
        let (chaos, stats) = cg_case(reliable_chaos(plan), p, n);
        for (rank, (c, f)) in clean.iter().zip(chaos.iter()).enumerate() {
            assert_eq!(c.0, f.0, "case {case} rank {rank}: iterate x diverged");
            assert_eq!(c.1, f.1, "case {case} rank {rank}: history diverged");
        }
        // Accounting: every lost transmission (dropped, or discarded as
        // corrupt) the algorithm was waiting on was healed by at least
        // one retransmission. (Duplicate suppression has no such exact
        // end-of-run identity: a duplicate copy still in a mailbox when
        // its rank exits is never intaken, hence never counted.)
        let lost: u64 = stats
            .iter()
            .map(|s| s.faults_dropped + s.corrupt_detected)
            .sum();
        let retx: u64 = stats.iter().map(|s| s.retransmits).sum();
        assert!(lost > 0, "case {case}: plan {plan:?} injected no losses");
        assert!(
            retx >= lost,
            "case {case}: {retx} retransmits for {lost} losses"
        );
    }
}

#[test]
fn retransmits_are_zero_without_faults() {
    // The "iff" half: a fault-free reliable run never retransmits, so a
    // nonzero retransmit counter always means the fault plane fired.
    // (Kept communication-dense and tiny: retransmission is wall-clock
    // RTO-driven, so the test must finish well inside one 5 ms RTO.)
    let report = Universe::run_report(reliable_chaos(FaultPlan::none()), 3, |comm| {
        comm.barrier();
        let s = comm.allreduce(&(comm.rank() as u64 + 1), ReduceOp::sum());
        comm.barrier();
        s
    });
    assert_eq!(report.results, vec![6, 6, 6]);
    for (rank, s) in report.stats.iter().enumerate() {
        assert_eq!(s.retransmits, 0, "rank {rank}");
        assert_eq!(s.faults_dropped, 0, "rank {rank}");
        assert_eq!(s.corrupt_detected, 0, "rank {rank}");
        assert_eq!(s.dup_suppressed, 0, "rank {rank}");
    }
}

#[test]
fn collectives_survive_seeded_faults_on_reliable_delivery() {
    let mut rng = SplitMix64::new(0xc011ec);
    for case in 0..6 {
        let p = 2 + rng.gen_index(7); // 2..=8 ranks
        let plan = FaultPlan::messages(
            rng.next_u64(),
            0.05 + rng.gen_range_f64(0.0, 0.1),
            rng.gen_range_f64(0.0, 0.08),
            rng.gen_range_f64(0.0, 0.08),
            rng.gen_range_f64(0.0, 0.05),
        );
        let report = Universe::run_report(reliable_chaos(plan), p, |comm| {
            comm.barrier();
            let sum = comm.allreduce(&(comm.rank() as u64 + 1), ReduceOp::sum());
            let gathered = comm.gather(0, &(comm.rank() as u64));
            (sum, gathered)
        });
        let expect_sum = (p as u64) * (p as u64 + 1) / 2;
        for (rank, (sum, gathered)) in report.results.iter().enumerate() {
            assert_eq!(*sum, expect_sum, "case {case} rank {rank}");
            if rank == 0 {
                let want: Vec<u64> = (0..p as u64).collect();
                assert_eq!(gathered.as_deref(), Some(&want[..]), "case {case}");
            }
        }
    }
}

// ---- autotuned collectives: bitwise-identical to every fixed algorithm -------

use hpc_framework::comm::CollectiveAlgo;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn auto_collectives_bitwise_match_every_fixed_algorithm() {
    const ALGOS: [CollectiveAlgo; 4] = [
        CollectiveAlgo::Auto,
        CollectiveAlgo::Linear,
        CollectiveAlgo::Tree,
        CollectiveAlgo::RecursiveDoubling,
    ];
    for p in 2..=8 {
        // payload sizes chosen to land in different autotuner regimes:
        // latency-bound, crossover, and bandwidth-bound
        for len in [1usize, 64, 2048] {
            let runs: Vec<_> = ALGOS
                .iter()
                .map(|&algo| {
                    let cfg = UniverseConfig {
                        algo,
                        ..Default::default()
                    };
                    let report = Universe::run_report(cfg, p, move |comm| {
                        // integer-valued payloads: every reduction order
                        // sums them exactly, so any cross-algorithm
                        // difference is a routing bug, not FP reassociation
                        let mut r =
                            SplitMix64::new(0xb17 ^ ((comm.rank() as u64) << 8) ^ len as u64);
                        let v: Vec<f64> = (0..len)
                            .map(|_| r.gen_index(2001) as f64 - 1000.0)
                            .collect();
                        let elem_sum = |a: &Vec<f64>, b: &Vec<f64>| -> Vec<f64> {
                            a.iter().zip(b).map(|(x, y)| x + y).collect()
                        };
                        let vsum = comm.allreduce(&v, elem_sum);
                        let reduced = comm.reduce(0, &v, elem_sum);
                        let from_root = comm.bcast(0, (comm.rank() == 0).then(|| v.clone()));
                        let everyone = comm.allgather(&v);
                        (
                            bits(&vsum),
                            reduced.as_deref().map(bits),
                            bits(&from_root),
                            everyone.iter().map(|w| bits(w)).collect::<Vec<_>>(),
                        )
                    });
                    report.results
                })
                .collect();
            for (i, fixed) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    &runs[0], fixed,
                    "p={p} len={len}: Auto diverged from {:?}",
                    ALGOS[i]
                );
            }
        }
    }
}

// ---- a matrix owns its plan: re-assembly is bitwise and sends the same ------

use hpc_framework::dlinalg::CsrMatrix as Csr;

/// Assemble the same matrix twice on every rank. Each build is a
/// collective entered in program order, so the second sends exactly the
/// messages the first did; SpMV and CG with both agree bit for bit.
/// Returns the first matrix's per-rank `(x local segment, residual
/// history)`.
fn reassembled_cg_case(cfg: UniverseConfig, p: usize, n: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    let report = Universe::run_report(cfg, p, move |comm| {
        let row = move |g: usize| {
            let mut row = Vec::new();
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 3.0 + (g % 7) as f64));
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        };
        let map = DistMap::block(n, comm.size(), comm.rank());
        let sent = || (comm.stats().msgs_sent, comm.stats().bytes_sent);
        let before = sent();
        let a_first = Csr::from_row_fn(comm, map.clone(), map.clone(), row);
        let between = sent();
        let a_again = Csr::from_row_fn(comm, map.clone(), map.clone(), row);
        let after = sent();
        assert!(between.0 > before.0, "a build is an exchange");
        assert_eq!(
            (between.0 - before.0, between.1 - before.1),
            (after.0 - between.0, after.1 - between.1),
            "the second build must send what the first did"
        );

        let xs = DistVector::from_fn(map.clone(), |g| ((g as f64) * 1.3).cos());
        let y_first = a_first.matvec(comm, &xs);
        let y_again = a_again.matvec(comm, &xs);
        assert_eq!(
            bits(y_first.local()),
            bits(y_again.local()),
            "re-assembled SpMV diverged"
        );

        let b = DistVector::from_fn(map.clone(), |g| ((g as f64) * 0.7).sin());
        let solve = |a: &Csr<f64>| {
            let mut x = DistVector::zeros(map.clone());
            let st = cg(
                comm,
                a,
                &b,
                &mut x,
                &IdentityPrecond,
                &KrylovConfig::default(),
            );
            assert!(st.converged, "re-assembled CG must converge");
            (x.local().to_vec(), st.history)
        };
        let first = solve(&a_first);
        let again = solve(&a_again);
        assert_eq!(
            bits(&first.0),
            bits(&again.0),
            "re-assembled CG iterate diverged"
        );
        assert_eq!(
            bits(&first.1),
            bits(&again.1),
            "re-assembled CG history diverged"
        );
        first
    });
    report.results
}

#[test]
fn a_reassembled_matrix_is_bitwise_the_first_clean_and_under_faults() {
    // Honors the ci.sh chaos sweep: a nonzero HPC_FAULT_SEED replays a
    // distinct drop/dup/delay/corrupt schedule under both builds.
    let seed = std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xcac4e_u64);
    let mut rng = SplitMix64::new(seed);
    for case in 0..3 {
        let p = 2 + rng.gen_index(3); // 2..=4 ranks
        let n = 24 + rng.gen_index(25);
        let clean = reassembled_cg_case(UniverseConfig::default(), p, n);
        let plan = FaultPlan::messages(
            rng.next_u64(),
            0.02 + rng.gen_range_f64(0.0, 0.06),
            rng.gen_range_f64(0.0, 0.04),
            rng.gen_range_f64(0.0, 0.04),
            rng.gen_range_f64(0.0, 0.03),
        );
        let chaos = reassembled_cg_case(reliable_chaos(plan), p, n);
        for (rank, (c, f)) in clean.iter().zip(&chaos).enumerate() {
            assert_eq!(
                bits(&c.0),
                bits(&f.0),
                "case {case} rank {rank}: x diverged"
            );
            assert_eq!(
                bits(&c.1),
                bits(&f.1),
                "case {case} rank {rank}: history diverged"
            );
        }
    }
}

// ---- zero-copy datapath: bitwise parity with the encode path -----------------

/// One representative run over the heavy movers: a CG solve (halo
/// exchange inside every matvec), a block→cyclic redistribution, and an
/// explicit halo gather. Returns per-rank `(x, history, redist, halo)`.
#[allow(clippy::type_complexity)]
fn zc_parity_case(
    cfg: UniverseConfig,
    p: usize,
    n: usize,
) -> (
    Vec<(Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>)>,
    Vec<hpc_framework::comm::CommStats>,
) {
    use hpc_framework::dmap::{CommPlan, Directory};
    let report = Universe::run_report(cfg, p, move |comm| {
        let row = move |g: usize| {
            let mut row = Vec::new();
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 3.0 + (g % 5) as f64));
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        };
        let map = DistMap::block(n, comm.size(), comm.rank());
        let a = Csr::from_row_fn(comm, map.clone(), map.clone(), row);
        let b = DistVector::from_fn(map.clone(), |g| ((g as f64) * 0.9).sin());
        let mut x = DistVector::zeros(map.clone());
        let st = cg(
            comm,
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &KrylovConfig::default(),
        );
        assert!(st.converged, "parity CG must converge");

        // block → cyclic redistribution
        let dst = DistMap::cyclic(n, comm.size(), comm.rank());
        let dir = Directory::build(comm, &map);
        let plan = CommPlan::import(comm, &map, &dst, &dir);
        let src_data: Vec<f64> = map.my_gids().iter().map(|&g| (g as f64) * 1.25).collect();
        let mut redist = vec![0.0f64; plan.n_target()];
        plan.execute(comm, &src_data, &mut redist);

        // explicit halo gather through the matrix's exchange plan
        let halo = a.halo_gather(comm, x.local(), 0.0);

        (x.local().to_vec(), st.history, redist, halo)
    });
    (report.results, report.stats)
}

/// The zero-copy region arm must be bitwise indistinguishable from the
/// encode arm for CG, redistribution, and halo exchange — clean runs and
/// a seeded chaos sweep alike (honors `HPC_FAULT_SEED`).
#[test]
fn zerocopy_and_encode_paths_are_bitwise_identical() {
    let seed = std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x2e9c0_u64);
    let mut rng = SplitMix64::new(seed);
    for case in 0..3 {
        let p = 2 + rng.gen_index(3); // 2..=4 ranks
        let n = 24 + rng.gen_index(25);
        let fault = FaultPlan::messages(
            rng.next_u64(),
            0.02 + rng.gen_range_f64(0.0, 0.05),
            rng.gen_range_f64(0.0, 0.04),
            rng.gen_range_f64(0.0, 0.04),
            rng.gen_range_f64(0.0, 0.03),
        );
        for chaos in [false, true] {
            let base = if chaos {
                reliable_chaos(fault)
            } else {
                UniverseConfig::default()
            };
            // threshold 1: every payload is a region; usize::MAX: every
            // payload takes the classic encode path
            let (zc, zc_stats) = zc_parity_case(base.with_zerocopy_threshold(1), p, n);
            let (enc, enc_stats) = zc_parity_case(base.with_zerocopy_threshold(usize::MAX), p, n);
            for (rank, (z, e)) in zc.iter().zip(&enc).enumerate() {
                let tag = format!("case {case} chaos {chaos} rank {rank}");
                assert_eq!(bits(&z.0), bits(&e.0), "{tag}: x diverged");
                assert_eq!(bits(&z.1), bits(&e.1), "{tag}: history diverged");
                assert_eq!(bits(&z.2), bits(&e.2), "{tag}: redistribute diverged");
                assert_eq!(bits(&z.3), bits(&e.3), "{tag}: halo diverged");
            }
            // the two runs must actually have taken different arms
            let enc_msgs: u64 = enc_stats.iter().map(|s| s.zerocopy_msgs).sum();
            assert!(
                zc_stats.iter().all(|s| s.zerocopy_msgs > 0),
                "case {case} chaos {chaos}: a rank kept its traffic off the region arm"
            );
            assert_eq!(
                enc_msgs, 0,
                "case {case} chaos {chaos}: encode run sent regions"
            );
            // Fault-free, modeled cluster time must not depend on the
            // arm. (Under chaos the timelines may differ by design:
            // corruption triggers a retransmit on the wire path but is
            // skipped-and-counted on the region path.)
            if !chaos {
                let zc_clock: Vec<u64> = zc_stats
                    .iter()
                    .map(|s| s.modeled_comm_s.to_bits())
                    .collect();
                let enc_clock: Vec<u64> = enc_stats
                    .iter()
                    .map(|s| s.modeled_comm_s.to_bits())
                    .collect();
                assert_eq!(
                    zc_clock, enc_clock,
                    "case {case}: modeled time diverged across arms"
                );
            }
        }
    }
}

/// ODIN end-to-end parity: the finite-difference example (slice segment
/// exchange) plus a whole-array fetch (master-bound segment gather) must
/// produce identical results whichever arm the payloads take.
#[test]
fn odin_slicing_and_fetch_are_identical_across_payload_arms() {
    use hpc_framework::odin::OdinConfig;
    let run = |threshold: usize| {
        let ctx = OdinContext::new(OdinConfig {
            n_workers: 3,
            universe: UniverseConfig::default().with_zerocopy_threshold(threshold),
            ..Default::default()
        });
        let n = 257;
        let y = ctx.linspace(0.0, 1.0, n).sin();
        let dy = &y.slice1(1, None, 1) - &y.slice1(0, Some(-1), 1);
        let cyc = dy.redistribute(Dist::Cyclic);
        let (shape, buf) = cyc.fetch();
        assert_eq!(shape, vec![n - 1]);
        (0..buf.len()).map(|i| buf.get_f64(i)).collect::<Vec<f64>>()
    };
    let zc = run(1);
    let enc = run(usize::MAX);
    assert_eq!(bits(&zc), bits(&enc), "ODIN results diverged across arms");
}

// ---- seamless: VM must agree with the interpreter -----------------------------

/// Random arithmetic source over one float parameter, depth-bounded.
fn arb_expr(rng: &mut SplitMix64, depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_index(3) {
            0 => "x".to_string(),
            1 => format!("{}.0", rng.gen_index(200) as i64 - 100),
            _ => format!("{}", 1 + rng.gen_index(49)),
        };
    }
    let a = arb_expr(rng, depth - 1);
    match rng.gen_index(8) {
        0 => format!("({a} + {})", arb_expr(rng, depth - 1)),
        1 => format!("({a} - {})", arb_expr(rng, depth - 1)),
        2 => format!("({a} * {})", arb_expr(rng, depth - 1)),
        3 => format!("({a} / {})", arb_expr(rng, depth - 1)),
        4 => format!("(-{a})"),
        5 => format!("sin({a})"),
        6 => format!("cos({a})"),
        _ => format!("sqrt(abs({a}))"),
    }
}

fn close_or_both_weird(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    if a == b {
        return true;
    }
    // constant folding may reassociate nothing, but int/float literal
    // promotion can differ by one rounding
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-9 * scale
}

#[test]
fn vm_matches_interpreter_on_random_expressions() {
    let mut rng = SplitMix64::new(0xe4b12);
    for case in 0..64 {
        let expr = arb_expr(&mut rng, 4);
        let x = rng.gen_range_f64(-10.0, 10.0);
        let src = format!("def f(x):\n    return {expr}\n");
        let interp = seamless::Interpreter::new(&src).unwrap();
        let iv = interp.call("f", vec![seamless::Value::Float(x)]);
        let kernel = seamless::jit(&src, "f", &[seamless::Type::Float]);
        match (iv, kernel) {
            (Ok(out), Ok(k)) => {
                let vv = k.call(vec![seamless::Value::Float(x)]).unwrap();
                let a = out.ret.as_f64().unwrap_or(f64::NAN);
                let b = vv.ret.as_f64().unwrap_or(f64::NAN);
                assert!(
                    close_or_both_weird(a, b),
                    "case {case}: interp {a} vs vm {b} for {expr}"
                );
            }
            // both paths must agree about failure too
            (Err(_), Err(_)) => {}
            (i, k) => {
                // integer-typed programs can fail in one path only when
                // division by a zero *int* occurs; allow mismatched errors
                // only if one side errored at runtime
                assert!(
                    i.is_err() || k.is_err(),
                    "case {case}: one path failed: interp={:?} kernel_ok={}",
                    i.is_ok(),
                    k.is_ok()
                );
            }
        }
    }
}

#[test]
fn vm_matches_interpreter_on_integer_loops() {
    let mut rng = SplitMix64::new(0x100b5);
    for _ in 0..24 {
        let n = rng.gen_index(40) as i64;
        let step = 1 + rng.gen_index(4) as i64;
        let offset = rng.gen_index(10) as i64 - 5;
        let src = format!(
            "def f(n):\n    t = 0\n    for i in range(0, n, {step}):\n        t = t + i + {offset}\n    return t\n"
        );
        let interp = seamless::Interpreter::new(&src).unwrap();
        let iv = interp.call("f", vec![seamless::Value::Int(n)]).unwrap();
        let k = seamless::jit(&src, "f", &[seamless::Type::Int]).unwrap();
        let vv = k.call(vec![seamless::Value::Int(n)]).unwrap();
        assert_eq!(iv.ret, vv.ret);
    }
}

// ---- whole-program traces vs statement-at-a-time (DESIGN §14) ---------------

/// Random expression plan, built once and turned into an `Expr` tree per
/// arm: `Ref(j)` is statement `j`'s materialized array when the
/// statements run one at a time, and its `Traced` handle inside a trace.
enum PlanNode {
    Leaf(usize),
    Ref(usize),
    Unary(u8, Box<PlanNode>),
    Binary(u8, Box<PlanNode>, Box<PlanNode>),
    /// Binary with an f64 literal on the right.
    BinScalar(u8, Box<PlanNode>, f64),
    Pow(Box<PlanNode>, f64),
}

/// Scalars stay F64-flavoured only through binary promotion with the F64
/// leaves, so the whole program stays F64 end-to-end — the regime where
/// fused, unfused, and traced execution are all bitwise-comparable.
fn gen_scalar(rng: &mut SplitMix64) -> f64 {
    match rng.gen_index(5) {
        0 => 2.0,
        1 => 3.0,
        2 => 0.5,
        3 => -1.25,
        _ => 1.0 + rng.gen_index(100) as f64 / 64.0,
    }
}

fn gen_plan(rng: &mut SplitMix64, depth: usize, n_leaves: usize, n_prev: usize) -> PlanNode {
    let terminal = |rng: &mut SplitMix64| {
        if n_prev > 0 && rng.gen_index(2) == 0 {
            PlanNode::Ref(rng.gen_index(n_prev))
        } else {
            PlanNode::Leaf(rng.gen_index(n_leaves))
        }
    };
    if depth == 0 {
        return terminal(rng);
    }
    match rng.gen_index(8) {
        0 | 1 => terminal(rng),
        2 => PlanNode::Unary(
            rng.gen_index(6) as u8,
            Box::new(gen_plan(rng, depth - 1, n_leaves, n_prev)),
        ),
        3..=5 => PlanNode::Binary(
            rng.gen_index(5) as u8,
            Box::new(gen_plan(rng, depth - 1, n_leaves, n_prev)),
            Box::new(gen_plan(rng, depth - 1, n_leaves, n_prev)),
        ),
        6 => PlanNode::BinScalar(
            rng.gen_index(5) as u8,
            Box::new(gen_plan(rng, depth - 1, n_leaves, n_prev)),
            gen_scalar(rng),
        ),
        _ => {
            let e = [2.0, 3.0, 0.5, -2.0, 1.7][rng.gen_index(5)];
            PlanNode::Pow(Box::new(gen_plan(rng, depth - 1, n_leaves, n_prev)), e)
        }
    }
}

fn plan_to_expr<'x, 'c>(
    plan: &PlanNode,
    leaves: &'x [hpc_framework::odin::DistArray<'c>],
    prev: &dyn Fn(usize) -> hpc_framework::odin::Expr<'x, 'c>,
) -> hpc_framework::odin::Expr<'x, 'c> {
    use hpc_framework::odin::Expr;
    match plan {
        PlanNode::Leaf(i) => Expr::leaf(&leaves[*i]),
        PlanNode::Ref(j) => prev(*j),
        PlanNode::Unary(op, a) => {
            let a = plan_to_expr(a, leaves, prev);
            match op {
                0 => a.sqrt(),
                1 => a.sin(),
                2 => a.cos(),
                3 => a.exp(),
                4 => a.abs(),
                _ => a.floor(),
            }
        }
        PlanNode::Binary(op, a, b) => {
            let a = plan_to_expr(a, leaves, prev);
            let b = plan_to_expr(b, leaves, prev);
            match op {
                0 => a + b,
                1 => a - b,
                2 => a * b,
                3 => a / b,
                _ => a % b,
            }
        }
        PlanNode::BinScalar(op, a, s) => {
            let a = plan_to_expr(a, leaves, prev);
            match op {
                0 => a + *s,
                1 => a - *s,
                2 => a * *s,
                3 => a / *s,
                _ => a % *s,
            }
        }
        PlanNode::Pow(a, e) => plan_to_expr(a, leaves, prev).pow(*e),
    }
}

#[test]
fn traced_program_bitwise_matches_statement_at_a_time() {
    use hpc_framework::odin::{Expr, ReduceKind};
    let mut rng = SplitMix64::new(0x7ace);
    for case in 0..10 {
        let workers = 1 + rng.gen_index(4);
        let n = 1 + rng.gen_index(80);
        let n_leaves = 2 + rng.gen_index(2);
        let n_stmts = 3 + rng.gen_index(4);
        let ctx = OdinContext::with_workers(workers);
        let leaves: Vec<_> = (0..n_leaves)
            .map(|i| ctx.random_dist(&[n], 100 + case as u64 * 7 + i as u64, arb_dist(&mut rng)))
            .collect();
        let stmt_plans: Vec<PlanNode> = (0..n_stmts)
            .map(|i| gen_plan(&mut rng, 3, n_leaves, i))
            .collect();
        let kinds = [ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min];
        let reduce_plans: Vec<(PlanNode, ReduceKind)> = (0..1 + rng.gen_index(2))
            .map(|_| {
                (
                    gen_plan(&mut rng, 2, n_leaves, n_stmts),
                    kinds[rng.gen_index(3)],
                )
            })
            .collect();

        // Statement-at-a-time reference: every statement materializes,
        // and matches the serial oracle on the master bit for bit.
        let mut eager: Vec<hpc_framework::odin::DistArray> = Vec::new();
        for plan in &stmt_plans {
            let (fused, oracle) = {
                let e = plan_to_expr(plan, &leaves, &|j| Expr::leaf(&eager[j]));
                (e.eval(), hpc_framework::odin::reference::eval(&e).unwrap())
            };
            assert_eq!(
                bitsv(&fused.to_vec()),
                bitsv(oracle.as_f64()),
                "case {case}: eval vs the serial oracle drifted"
            );
            eager.push(fused);
        }
        let eager_reds: Vec<f64> = reduce_plans
            .iter()
            .map(|(plan, kind)| {
                plan_to_expr(plan, &leaves, &|j| Expr::leaf(&eager[j])).reduce(*kind)
            })
            .collect();

        // The same plans as one fused multi-statement trace.
        let mut p = ctx.trace();
        let mut traced: Vec<hpc_framework::odin::Traced> = Vec::new();
        for plan in &stmt_plans {
            let e = plan_to_expr(plan, &leaves, &|j| Expr::from(traced[j]));
            traced.push(p.assign(e));
        }
        let traced_reds: Vec<hpc_framework::odin::TracedScalar> = reduce_plans
            .iter()
            .map(|(plan, kind)| {
                p.reduce(
                    plan_to_expr(plan, &leaves, &|j| Expr::from(traced[j])),
                    *kind,
                )
            })
            .collect();
        let mut run = p.run(&traced);
        for (i, t) in traced.iter().enumerate() {
            assert_eq!(
                bitsv(&run.array(*t).to_vec()),
                bitsv(&eager[i].to_vec()),
                "case {case} stmt {i}: traced result drifted from Expr::eval"
            );
        }
        for (i, s) in traced_reds.iter().enumerate() {
            assert_eq!(
                run.scalar(*s).to_bits(),
                eager_reds[i].to_bits(),
                "case {case} reduction {i}: traced scalar drifted"
            );
        }
        // The optimizer must never do worse than the baseline it claims.
        let st = run.stats();
        assert!(st.kernel_launches <= st.baseline_launches, "{st:?}");
        assert!(
            st.redistributes_issued <= st.baseline_redistributes,
            "{st:?}"
        );
    }
}

fn bitsv(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
