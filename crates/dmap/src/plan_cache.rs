//! Bounded per-rank memoization of caller-built [`CommPlan`]s.
//!
//! An ODIN slice or redistribute walks every local row to work out its
//! route, and programs ask for the *same* route over and over, so
//! [`cached_route`] keys finished plans by the caller's encoding of
//! everything the route depends on and hands them back. Keys compare by
//! exact byte equality: a hit can never return a plan for a merely
//! hash-equal input. The cache is per thread, which under the
//! simulator's thread-per-rank model means per rank.
//!
//! # A cached build does not communicate
//!
//! This is the only kind of plan the cache holds, and the reason a lone
//! miss is harmless: a rank that misses where its peers hit — its LRU
//! evicted the entry, or it is a fresh thread — recomputes from local
//! index arithmetic the very plan they replay, and the exchange that
//! follows still pairs up. [`cached_route`] checks it on every miss: a
//! build that sends a message panics. Plans whose construction is an
//! exchange are built by the object that owns them (a matrix builds its
//! halo plan in its constructor, a vector its import in `redistribute`),
//! where every rank enters the build by program order (DESIGN.md §12.2).

use std::cell::RefCell;
use std::rc::Rc;

use comm::Comm;

use crate::import_export::CommPlan;

/// Retained plans per rank. Oldest (least recently used) is evicted
/// first; 32 comfortably covers every distinct route in the ODIN
/// programs while bounding memory on pathological workloads.
const PLAN_CACHE_MAX: usize = 32;

struct Entry {
    key: Vec<u8>,
    plan: Rc<CommPlan>,
}

thread_local! {
    static CACHE: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// Memoized caller-built plan (see [`CommPlan::from_runs`]). `key` must
/// encode everything the route depends on, the calling rank and the
/// communicator size included, and `build` must not communicate
/// (checked: it panics if it sends). Hits move to the back of the LRU;
/// both outcomes feed `CommStats::plan_hits` / `plan_misses` and the
/// mirrored obs counters. Shared, not cloned: a route's run lists can
/// be long.
pub fn cached_route(comm: &Comm, key: &[u8], build: impl FnOnce() -> CommPlan) -> Rc<CommPlan> {
    let hit = CACHE.with(|c| {
        let mut c = c.borrow_mut();
        c.iter().position(|e| e.key == key).map(|i| {
            let e = c.remove(i);
            let plan = Rc::clone(&e.plan);
            c.push(e);
            plan
        })
    });
    if let Some(plan) = hit {
        comm.record_plan_hit();
        return plan;
    }
    comm.record_plan_miss();
    let sent = comm.stats().msgs_sent;
    let plan = Rc::new(build());
    assert_eq!(
        comm.stats().msgs_sent,
        sent,
        "cached_route: the build sent messages, and a peer that hits would not have entered it"
    );
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() == PLAN_CACHE_MAX {
            c.remove(0);
        }
        c.push(Entry {
            key: key.to_vec(),
            plan: Rc::clone(&plan),
        });
    });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Directory, DistMap};
    use comm::Universe;

    fn clear_plan_cache() {
        CACHE.with(|c| c.borrow_mut().clear());
    }

    fn plan_cache_len() -> usize {
        CACHE.with(|c| c.borrow().len())
    }

    /// A route that is silent to build: an import between structured maps.
    fn import(comm: &Comm, src: &DistMap, dst: &DistMap) -> CommPlan {
        CommPlan::import(comm, src, dst, &Directory::build(comm, src))
    }

    #[test]
    fn repeat_routes_hit_and_match_cold_plan() {
        Universe::run(3, |comm| {
            let n = 17;
            let src = DistMap::block(n, comm.size(), comm.rank());
            let dst = DistMap::cyclic(n, comm.size(), comm.rank());
            let src_data: Vec<i64> = src.my_gids().iter().map(|&g| 7 * g as i64).collect();
            let expect: Vec<i64> = dst.my_gids().iter().map(|&g| 7 * g as i64).collect();

            let run = |plan: &CommPlan| {
                let mut out = vec![0i64; plan.n_target()];
                plan.execute(comm, &src_data, &mut out);
                out
            };

            let key = [n as u8, comm.rank() as u8];
            let cold = cached_route(comm, &key, || import(comm, &src, &dst));
            assert_eq!(comm.stats().plan_misses, 1);
            assert_eq!(comm.stats().plan_hits, 0);
            assert_eq!(run(&cold), expect);

            let warm = cached_route(comm, &key, || unreachable!("a hit does not build"));
            assert_eq!(comm.stats().plan_hits, 1);
            assert_eq!(comm.stats().plan_misses, 1);
            assert!(Rc::ptr_eq(&cold, &warm));
            assert_eq!(run(&warm), expect);
        });
    }

    #[test]
    fn a_local_build_survives_rank_asymmetric_hits_and_misses() {
        // Rank 0 forgets its plans between rounds, so it rebuilds what its
        // peers replay. A collective build would leave it alone in an
        // all-to-all; a route builds silently, and the exchange that
        // follows still pairs up.
        Universe::run(3, |comm| {
            let (n, p, me) = (29, comm.size(), comm.rank());
            let src = DistMap::cyclic(n, p, me);
            let dst = DistMap::block_cyclic(n, 3, p, me);
            let src_data: Vec<u64> = src.my_gids().iter().map(|&g| g as u64).collect();
            let expect: Vec<u64> = dst.my_gids().iter().map(|&g| g as u64).collect();
            for round in 0..3 {
                if me == 0 {
                    clear_plan_cache();
                }
                let sent = comm.stats().msgs_sent;
                let route = cached_route(comm, &[me as u8], || import(comm, &src, &dst));
                assert_eq!(
                    comm.stats().msgs_sent,
                    sent,
                    "round {round}: built silently"
                );
                let mut out = vec![0u64; route.n_target()];
                route.execute(comm, &src_data, &mut out);
                assert_eq!(out, expect, "round {round}");
            }
            let stats = comm.stats();
            let (hits, misses) = if me == 0 { (0, 3) } else { (2, 1) };
            assert_eq!((stats.plan_hits, stats.plan_misses), (hits, misses));
        });
    }

    #[test]
    #[should_panic(expected = "cached_route: the build sent messages")]
    fn a_communicating_build_is_refused() {
        Universe::run(2, |comm| {
            let map = DistMap::block(8, comm.size(), comm.rank());
            let _ = cached_route(comm, &[comm.rank() as u8], || {
                comm.alltoallv(vec![vec![0u8]; comm.size()]);
                import(comm, &map, &map)
            });
        });
    }

    #[test]
    fn route_key_is_compared_byte_for_byte() {
        Universe::run(2, |comm| {
            let map = DistMap::block(8, comm.size(), comm.rank());
            let build = || import(comm, &map, &map);
            // A prefix, an extension and a one-bit neighbour are all other keys.
            for key in [&[1u8, 2][..], &[1], &[1, 2, 0], &[1, 3]] {
                let _ = cached_route(comm, key, build);
            }
            assert_eq!(comm.stats().plan_misses, 4);
            let _ = cached_route(comm, &[1, 2], build);
            assert_eq!(comm.stats().plan_hits, 1);
            assert_eq!(plan_cache_len(), 4);
        });
    }

    #[test]
    fn cache_is_bounded_and_evicts_oldest() {
        Universe::run(2, |comm| {
            let map = DistMap::block(64, comm.size(), comm.rank());
            let build = || import(comm, &map, &map);
            for i in 0..(PLAN_CACHE_MAX + 4) {
                let _ = cached_route(comm, &[i as u8], build);
            }
            assert_eq!(plan_cache_len(), PLAN_CACHE_MAX);
            // The most recent keys are retained...
            let _ = cached_route(comm, &[PLAN_CACHE_MAX as u8 + 3], build);
            assert_eq!(comm.stats().plan_hits, 1);
            // ...while the oldest were evicted and rebuild on demand.
            let misses_before = comm.stats().plan_misses;
            let _ = cached_route(comm, &[0], build);
            assert_eq!(comm.stats().plan_misses, misses_before + 1);
        });
    }
}
