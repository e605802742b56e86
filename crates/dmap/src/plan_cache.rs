//! Bounded per-rank memoization of [`CommPlan`]s.
//!
//! Building a plan is collective and costs an owner lookup plus an
//! all-to-all of request lists — far more than executing it. Hot paths
//! (SpMV halo gathers, vector redistributes, ODIN ufunc conformance) ask
//! for the *same* plan over and over, so this module keys finished plans
//! by the full structural identity of the participating maps and hands
//! back clones.
//!
//! # Keying and correctness
//!
//! Keys store the complete structural data of each map (block offsets,
//! block size, or the arbitrary gid list) plus the request list, compared
//! by exact equality — a hit can never return a plan for a merely
//! hash-equal input. Keys include `my_rank`, so a cached plan is only
//! ever replayed on the rank that built it (the cache itself is
//! per-thread, which under the simulator's thread-per-rank model means
//! per-rank).
//!
//! # SPMD symmetry
//!
//! Plan construction is collective; a cache hit skips it. That is safe
//! only because hits and misses are symmetric across ranks: under SPMD
//! usage every rank issues the same sequence of `cached_*` calls, so all
//! ranks hit or all ranks miss together, and the bounded LRU evicts in
//! the same order everywhere. Callers that invoke `cached_*` on a subset
//! of ranks (or in rank-divergent order) would deadlock on the miss path
//! exactly as they would calling [`CommPlan::gather`] directly — the
//! cache neither adds nor removes that requirement.
//!
//! One case SPMD call order does not cover: [`cached_gather`]'s request
//! list is per rank, so two *different* gathers over one map can share a
//! key on one rank (say, both request nothing there) and not on another.
//! The first rank would then replay a plan while its peers build one.
//! Callers that gather several unrelated patterns over the same map —
//! matrices with different sparsity on one domain map — call
//! [`clear_plan_cache`] between them (DESIGN.md §12.2).

use std::cell::RefCell;

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
}

struct Entry {
    key: PlanKey,
    plan: CommPlan,
}

thread_local! {
    static CACHE: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// Look the key up (LRU order maintained by moving hits to the back);
/// on a miss, build collectively and insert. Counter bookkeeping feeds
/// `CommStats::plan_hits` / `plan_misses` and the mirrored obs counters.
fn lookup_or_build(
    comm: &Comm,
    matches: impl Fn(&PlanKey) -> bool,
    make_key: impl FnOnce() -> PlanKey,
    build: impl FnOnce() -> CommPlan,
) -> CommPlan {
    let hit = CACHE.with(|c| {
        let mut c = c.borrow_mut();
        c.iter().position(|e| matches(&e.key)).map(|i| {
            let e = c.remove(i);
            let plan = e.plan.clone();
            c.push(e);
            plan
        })
    });
    if let Some(plan) = hit {
        comm.record_plan_hit();
        return plan;
    }
    comm.record_plan_miss();
    let plan = build();
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() == PLAN_CACHE_MAX {
            c.remove(0);
        }
        c.push(Entry {
            key: make_key(),
            plan: plan.clone(),
        });
    });
    plan
}

/// Memoized [`CommPlan::gather`]: builds (and caches) the owner
/// directory and plan on first use, replays the cached plan afterwards.
/// Collective on a miss only — see the module docs for the SPMD
/// symmetry requirement.
pub fn cached_gather(comm: &Comm, src: &DistMap, needed_gids: &[usize]) -> CommPlan {
    lookup_or_build(
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
    )
}

/// Memoized [`CommPlan::import`]: redistribution plan from `src` layout
/// to `dst` layout. Collective on a miss only.
pub fn cached_import(comm: &Comm, src: &DistMap, dst: &DistMap) -> CommPlan {
    lookup_or_build(
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

            let cold = cached_import(comm, &src, &dst);
            assert_eq!(comm.stats().plan_misses, 1);
            assert_eq!(comm.stats().plan_hits, 0);
            assert_eq!(cold.execute_to_vec(comm, &src_data), expect);

            let warm = cached_import(comm, &src, &dst);
            assert_eq!(comm.stats().plan_hits, 1);
            assert_eq!(comm.stats().plan_misses, 1);
            assert_eq!(warm.execute_to_vec(comm, &src_data), expect);
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
