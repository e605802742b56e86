//! E19's allocation gates: with plans built once, pooled wire buffers and
//! hoisted solver workspaces, a steady-state CG iteration allocates
//! nothing. This is its own test binary with exactly one `#[test]`, so
//! the counting allocator never sees a sibling test's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use bench::fixtures::{fixed_iter_cg, laplace_system};
use hpc_framework::comm::{CollectiveAlgo, Comm, Universe, UniverseConfig};
use hpc_framework::dlinalg::DistVector;
use hpc_framework::obs;

/// Counts allocations; sizes are irrelevant — the claim is about the
/// allocation *count* per iteration.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Double barrier so every rank's counter read happens in a window where
/// no rank is allocating phase work; the barrier's own messages are a
/// small constant that cancels between phases.
fn fence(comm: &Comm) -> u64 {
    comm.barrier();
    let c = allocs();
    comm.barrier();
    c
}

/// Allocations of 80 warm two-rank CG iterations minus those of 20.
fn extra_60_iters(cfg: UniverseConfig) -> i64 {
    Universe::run_report(cfg, 2, |comm| {
        let (a, b) = laplace_system(comm, 32);
        let mut x = DistVector::zeros(a.domain_map().clone());
        fixed_iter_cg(comm, &a, &b, &mut x, 20);
        let c0 = fence(comm);
        fixed_iter_cg(comm, &a, &b, &mut x, 20);
        let c1 = fence(comm);
        fixed_iter_cg(comm, &a, &b, &mut x, 80);
        (fence(comm) - c1) as i64 - (c1 - c0) as i64
    })
    .results[0]
}

#[test]
fn steady_state_cg_iterations_allocate_nothing() {
    // String-keyed metric recording allocates by design and the claim is
    // about the solver path, so recording is off for the measured window
    // (ci.sh re-runs tier-1 with HPC_METRICS=1; read the environment
    // now, or the first `Universe::run` would switch recording back on).
    obs::init_from_env();
    let obs_was_on = obs::enabled();
    obs::set_enabled(false);

    // One rank has no channel traffic: a warm 20-iteration and a warm
    // 80-iteration solve must allocate identically.
    let (warm20, warm80) = Universe::run(1, |comm| {
        let (a, b) = laplace_system(comm, 32);
        let mut x = DistVector::zeros(a.domain_map().clone());
        // Warm up: scratch workspaces grow to their final size here.
        fixed_iter_cg(comm, &a, &b, &mut x, 20);
        let c0 = allocs();
        fixed_iter_cg(comm, &a, &b, &mut x, 20);
        let c1 = allocs();
        fixed_iter_cg(comm, &a, &b, &mut x, 80);
        (c1 - c0, allocs() - c1)
    })[0];
    assert_eq!(
        warm80, warm20,
        "60 extra steady-state CG iterations must allocate nothing at 1 rank"
    );

    // Four ranks: std's mpsc allocates one node per message, so the floor
    // is not zero; what the pooled buffers and hoisted workspaces must
    // still buy is a warm solve no dearer than the cold one.
    let (solve_cold, solve_warm) = Universe::run(4, |comm| {
        let (a, b) = laplace_system(comm, 48);
        let mut x = DistVector::zeros(a.domain_map().clone());
        let c0 = fence(comm);
        fixed_iter_cg(comm, &a, &b, &mut x, 40);
        let c1 = fence(comm);
        fixed_iter_cg(comm, &a, &b, &mut x, 40);
        (c1 - c0, fence(comm) - c1)
    })[0];

    // Two ranks, the repo benchmark's shape: the default resolves every
    // allreduce through the LogGP model (three `predict`s and a
    // `wire_size`) where a fixed algorithm passes straight through. That
    // must cost no allocation: 60 extra steady-state iterations (60
    // allreduces — single-reduction CG — and 60 halo exchanges, all their
    // allocations channel nodes and payloads) allocate what they do under
    // the algorithm `Auto` resolves to. The tolerance of 2 is the fence's:
    // its read races the peer's next barrier send, which moved one reading
    // by 1 or 2 in 8 of 300 runs here; one allocation per resolution would
    // be 60.
    let auto_extra = extra_60_iters(UniverseConfig::default());
    let rd_extra =
        extra_60_iters(UniverseConfig::default().with_algo(CollectiveAlgo::RecursiveDoubling));
    obs::set_enabled(obs_was_on);
    assert!(
        (auto_extra - rd_extra).abs() <= 2,
        "resolving `Auto` must allocate nothing per allreduce at 2 ranks \
         ({auto_extra} under the default vs {rd_extra} under recursive doubling)"
    );
    assert!(
        solve_warm <= solve_cold,
        "a warm solve must not allocate more than the cold solve \
         ({solve_warm} vs {solve_cold})"
    );
}
