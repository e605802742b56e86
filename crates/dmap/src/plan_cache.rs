//! Bounded per-rank memoization of [`CommPlan`]s.
//!
//! Building a plan costs far more than executing it: an owner lookup plus
//! an all-to-all of request lists for a gather, a walk over every local
//! row for a structured import or an ODIN route. Hot paths (SpMV halo
//! gathers, vector redistributes, ODIN slices and redistributes) ask for
//! the *same* plan over and over, so this module keys finished plans by
//! the full structural identity of what they were built from and hands
//! them back.
//!
//! # Keying and correctness
//!
//! Keys store the complete structural data of each map (block offsets,
//! block size, or the arbitrary gid list) plus the request list — or, for
//! a route, the caller's encoding of everything it depends on — compared by exact
//! equality: a hit can never return a plan for a merely hash-equal input.
//! Map keys include `my_rank`, so a cached plan is only ever replayed on
//! the rank that built it (the cache itself is per-thread, which under
//! the simulator's thread-per-rank model means per-rank).
//!
//! # SPMD symmetry
//!
//! Two key kinds build *collectively* on a miss — [`cached_gather`], and
//! [`cached_import`] when either map is arbitrary — and a hit skips that
//! collective. That is safe only because hits and misses are symmetric
//! across ranks: under SPMD usage every rank issues the same sequence of
//! `cached_*` calls, so all ranks hit or all ranks miss together, and the
//! bounded LRU evicts in the same order everywhere. Callers that invoke
//! these on a subset of ranks (or in rank-divergent order) would deadlock
//! on the miss path exactly as they would calling [`CommPlan::gather`]
//! directly — the cache neither adds nor removes that requirement.
//!
//! The other two kinds *cannot hang*: a [`cached_import`] between two
//! structured maps and every [`cached_route`] build from local index
//! arithmetic alone, so a rank that misses where its peers hit merely
//! recomputes the plan they replay. They still share the LRU, and so
//! still have to be called in SPMD order, or their insertions would
//! evict collectively-built entries on some ranks and not others.
//!
//! One case SPMD call order does not cover: [`cached_gather`]'s request
//! list is per rank, so two *different* gathers over one map can share a
//! key on one rank (say, both request nothing there) and not on another.
//! The first rank would then replay a plan while its peers build one.
//! Callers that gather several unrelated patterns over the same map —
//! matrices with different sparsity on one domain map — call
//! [`clear_plan_cache`] between them (DESIGN.md §12.2).

use std::cell::RefCell;
use std::rc::Rc;

use comm::Comm;

use crate::directory::Directory;
use crate::import_export::CommPlan;
use crate::map::{DistMap, MapKey};

/// Retained plans per rank. Oldest (least recently used) is evicted
/// first; 32 comfortably covers every distinct exchange in the solvers
/// and ODIN programs while bounding memory on pathological workloads.
const PLAN_CACHE_MAX: usize = 32;

enum PlanKey {
    /// `CommPlan::gather(src, needed_gids)`.
    Gather { src: MapKey, gids: Vec<usize> },
    /// `CommPlan::import(src, dst)`.
    Import { src: MapKey, dst: MapKey },
    /// A caller-built route, described by the caller's own bytes.
    Route(Vec<u8>),
}

struct Entry {
    key: PlanKey,
    plan: Rc<CommPlan>,
}

thread_local! {
    static CACHE: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// Look the key up (LRU order maintained by moving hits to the back);
/// on a miss, build and insert. Counter bookkeeping feeds
/// `CommStats::plan_hits` / `plan_misses` and the mirrored obs counters.
fn lookup_or_build(
    comm: &Comm,
    matches: impl Fn(&PlanKey) -> bool,
    make_key: impl FnOnce() -> PlanKey,
    build: impl FnOnce() -> CommPlan,
) -> Rc<CommPlan> {
    let hit = CACHE.with(|c| {
        let mut c = c.borrow_mut();
        c.iter().position(|e| matches(&e.key)).map(|i| {
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
    let plan = Rc::new(build());
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() == PLAN_CACHE_MAX {
            c.remove(0);
        }
        c.push(Entry {
            key: make_key(),
            plan: Rc::clone(&plan),
        });
    });
    plan
}

/// Memoized [`CommPlan::gather`]: builds (and caches) the owner
/// directory and plan on first use, replays the cached plan afterwards.
/// Collective on a miss only — see the module docs for the SPMD
/// symmetry requirement.
pub fn cached_gather(comm: &Comm, src: &DistMap, needed_gids: &[usize]) -> CommPlan {
    Rc::unwrap_or_clone(lookup_or_build(
        comm,
        |k| matches!(k, PlanKey::Gather { src: s, gids } if src.matches_key(s) && gids == needed_gids),
        || PlanKey::Gather {
            src: src.to_key(),
            gids: needed_gids.to_vec(),
        },
        || {
            let dir = Directory::build(comm, src);
            CommPlan::gather(comm, src, &dir, needed_gids)
        },
    ))
}

/// Memoized [`CommPlan::import`]: redistribution plan from `src` layout
/// to `dst` layout. Between structured maps nothing is ever sent;
/// otherwise collective on a miss only.
pub fn cached_import(comm: &Comm, src: &DistMap, dst: &DistMap) -> CommPlan {
    Rc::unwrap_or_clone(lookup_or_build(
        comm,
        |k| matches!(k, PlanKey::Import { src: s, dst: d } if src.matches_key(s) && dst.matches_key(d)),
        || PlanKey::Import {
            src: src.to_key(),
            dst: dst.to_key(),
        },
        || {
            let dir = Directory::build(comm, src);
            CommPlan::import(comm, src, dst, &dir)
        },
    ))
}

/// Memoized caller-built plan (see [`CommPlan::from_runs`]). `key` must
/// encode everything the route depends on, the calling rank and the
/// communicator size included, and `build` must not communicate — then
/// a rank that misses where a peer hits computes what the peer replays.
/// Shared, not cloned: a route's run lists can be long.
pub fn cached_route(comm: &Comm, key: &[u8], build: impl FnOnce() -> CommPlan) -> Rc<CommPlan> {
    lookup_or_build(
        comm,
        |k| matches!(k, PlanKey::Route(bytes) if bytes == key),
        || PlanKey::Route(key.to_vec()),
        build,
    )
}

/// Drop every plan cached by the calling rank. Mostly a test hook; also
/// useful to release plan memory after a workload phase ends.
pub fn clear_plan_cache() {
    CACHE.with(|c| c.borrow_mut().clear());
}

/// Number of plans currently cached by the calling rank.
pub fn plan_cache_len() -> usize {
    CACHE.with(|c| c.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;

    #[test]
    fn repeat_imports_hit_and_match_cold_plan() {
        Universe::run(3, |comm| {
            clear_plan_cache();
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

            let cold = cached_import(comm, &src, &dst);
            assert_eq!(comm.stats().plan_misses, 1);
            assert_eq!(comm.stats().plan_hits, 0);
            assert_eq!(run(&cold), expect);

            let warm = cached_import(comm, &src, &dst);
            assert_eq!(comm.stats().plan_hits, 1);
            assert_eq!(comm.stats().plan_misses, 1);
            assert_eq!(run(&warm), expect);

            // A route shares the LRU under its own key kind: the same bytes
            // replay the same plan, other bytes build another.
            let key = [n as u8, comm.rank() as u8];
            let build = || cached_import(comm, &src, &dst);
            let route = cached_route(comm, &key, build);
            let again = cached_route(comm, &key, || unreachable!("a hit does not build"));
            assert!(Rc::ptr_eq(&route, &again));
            assert_eq!(run(&again), expect);
            let _ = cached_route(comm, &[n as u8 + 1, comm.rank() as u8], build);
            assert_eq!(plan_cache_len(), 3);
            clear_plan_cache();
        });
    }

    #[test]
    fn a_local_build_survives_rank_asymmetric_hits_and_misses() {
        // Rank 0 forgets its plans between rounds, so it rebuilds what its
        // peers replay. A collective build would leave it alone in an
        // all-to-all; a structured import and a route build silently, and
        // the exchange that follows still pairs up.
        Universe::run(3, |comm| {
            clear_plan_cache();
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
                let import = cached_import(comm, &src, &dst);
                let route = cached_route(comm, &[me as u8], || import.clone());
                assert_eq!(
                    comm.stats().msgs_sent,
                    sent,
                    "round {round}: built silently"
                );
                for plan in [&import, &*route] {
                    let mut out = vec![0u64; plan.n_target()];
                    plan.execute(comm, &src_data, &mut out);
                    assert_eq!(out, expect, "round {round}");
                }
            }
            let stats = comm.stats();
            let (hits, misses) = if me == 0 { (0, 6) } else { (4, 2) };
            assert_eq!((stats.plan_hits, stats.plan_misses), (hits, misses));
            clear_plan_cache();
        });
    }

    #[test]
    fn gather_key_distinguishes_request_lists_and_maps() {
        Universe::run(2, |comm| {
            clear_plan_cache();
            let map = DistMap::block(8, comm.size(), comm.rank());
            let other = DistMap::cyclic(8, comm.size(), comm.rank());
            let gids_a = vec![0usize, 3, 7];
            let gids_b = vec![0usize, 3, 6];
            let _ = cached_gather(comm, &map, &gids_a);
            let _ = cached_gather(comm, &map, &gids_b);
            let _ = cached_gather(comm, &other, &gids_a);
            assert_eq!(comm.stats().plan_misses, 3);
            let _ = cached_gather(comm, &map, &gids_a);
            assert_eq!(comm.stats().plan_hits, 1);
            assert_eq!(plan_cache_len(), 3);
            clear_plan_cache();
        });
    }

    #[test]
    fn cache_is_bounded_and_evicts_oldest() {
        Universe::run(2, |comm| {
            clear_plan_cache();
            let map = DistMap::block(64, comm.size(), comm.rank());
            for i in 0..(PLAN_CACHE_MAX + 4) {
                let _ = cached_gather(comm, &map, &[i]);
            }
            assert_eq!(plan_cache_len(), PLAN_CACHE_MAX);
            // The most recent keys are retained...
            let _ = cached_gather(comm, &map, &[PLAN_CACHE_MAX + 3]);
            assert_eq!(comm.stats().plan_hits, 1);
            // ...while the oldest were evicted and rebuild on demand.
            let misses_before = comm.stats().plan_misses;
            let _ = cached_gather(comm, &map, &[0]);
            assert_eq!(comm.stats().plan_misses, misses_before + 1);
            clear_plan_cache();
        });
    }
}
