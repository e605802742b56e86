//! Checkpoint/restart for the Krylov solvers (the recovery half of the
//! E18 chaos experiments).
//!
//! The single-reduction CG loop's state at the top of an iteration is
//! `{x, r, p, s = A·p, γ = rᵀu, α, β, ‖r₀‖, history}` plus `u = M⁻¹r` and
//! `w = A·u`. [`CgCheckpoint`] snapshots the first set per rank and
//! leaves `u` and `w` out: a resume rebuilds them with one
//! `apply_into` and one `matvec_into`, the very calls (or, for a
//! pointwise preconditioner, the bitwise equal sweep) that produced them.
//! Resuming from a snapshot therefore replays the *identical*
//! floating-point operation sequence, so a run restarted after a
//! mid-solve failure converges to a bitwise-identical answer (asserted
//! by `tests/failure_modes.rs` under the seeded chaos sweep).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use dlinalg::Scalar;

/// Per-rank CG solver state captured at the top of iteration `iteration`.
#[derive(Debug, Clone, PartialEq)]
pub struct CgCheckpoint<S> {
    /// Iteration the resumed solve starts at (1-based, top of loop).
    pub iteration: usize,
    /// Local segment of the iterate `x`.
    pub x: Vec<S>,
    /// Local segment of the residual `r`.
    pub r: Vec<S>,
    /// Local segment of the search direction `p`.
    pub p: Vec<S>,
    /// Local segment of `s = A·p`, carried by the recurrence.
    pub s: Vec<S>,
    /// The inner product `γ = rᵀu`, `u = M⁻¹r`.
    pub gamma: S,
    /// The step length this iteration's sweep applies.
    pub alpha: S,
    /// The direction update this iteration's sweep applies (unused at
    /// iteration 1, which copies).
    pub beta: S,
    /// Initial residual norm (convergence tests are relative to it).
    pub r0_norm: f64,
    /// Residual history up to (excluding) `iteration`.
    pub history: Vec<f64>,
}

/// Checkpoint policy for [`crate::krylov::cg_checkpointed`].
pub struct CgCheckpointing<'a, S> {
    /// Snapshot cadence in iterations; `0` disables checkpointing.
    pub every: usize,
    /// Called with each snapshot (rank-local; capture the rank in the
    /// closure if the sink is shared across ranks).
    pub sink: Option<&'a dyn Fn(CgCheckpoint<S>)>,
    /// Resume from this snapshot instead of starting at iteration 1.
    pub resume: Option<&'a CgCheckpoint<S>>,
}

impl<S> CgCheckpointing<'_, S> {
    /// No checkpointing, no resume: plain CG.
    pub fn none() -> Self {
        CgCheckpointing {
            every: 0,
            sink: None,
            resume: None,
        }
    }
}

/// A shared, rank-keyed store of CG checkpoints: the simplest durable
/// "stable storage" for a thread-per-rank job. Clones share the store, so
/// each rank can record into it from inside a `Universe::run` closure and
/// a later (restart) run can read the snapshots back — even if the first
/// run died in a panic (the mutex poison is ignored; snapshots are only
/// pushed whole).
#[derive(Debug, Default)]
pub struct CheckpointStore<S> {
    inner: Arc<Mutex<HashMap<usize, Vec<CgCheckpoint<S>>>>>,
}

impl<S> Clone for CheckpointStore<S> {
    fn clone(&self) -> Self {
        CheckpointStore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: Scalar> CheckpointStore<S> {
    /// Empty store.
    pub fn new() -> Self {
        CheckpointStore {
            inner: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Record a snapshot for `rank`.
    pub fn record(&self, rank: usize, ck: CgCheckpoint<S>) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(rank)
            .or_default()
            .push(ck);
    }

    /// Number of snapshots recorded for `rank`.
    pub fn count(&self, rank: usize) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&rank)
            .map_or(0, Vec::len)
    }

    /// The latest iteration checkpointed by *every* one of `n_ranks`
    /// ranks, with each rank's snapshot at that iteration (indexed by
    /// rank). Ranks advance asynchronously, so their newest snapshots can
    /// differ; a consistent restart needs the newest *common* one.
    pub fn resume_point(&self, n_ranks: usize) -> Option<Vec<CgCheckpoint<S>>> {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let common = (0..n_ranks)
            .map(|r| g.get(&r)?.iter().map(|c| c.iteration).max())
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .min()?;
        (0..n_ranks)
            .map(|r| g[&r].iter().find(|c| c.iteration == common).cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(iteration: usize) -> CgCheckpoint<f64> {
        CgCheckpoint {
            iteration,
            x: vec![iteration as f64],
            r: vec![0.0],
            p: vec![0.0],
            s: vec![0.0],
            gamma: 1.0,
            alpha: 1.0,
            beta: 0.0,
            r0_norm: 1.0,
            history: vec![1.0],
        }
    }

    #[test]
    fn resume_point_is_newest_common_iteration() {
        let store = CheckpointStore::new();
        store.record(0, ck(1));
        store.record(0, ck(6));
        store.record(1, ck(1));
        assert_eq!(store.count(0), 2);
        // rank 1 never checkpointed iteration 6: the common point is 1
        let resume = store.resume_point(2).expect("both ranks present");
        assert_eq!(resume.len(), 2);
        assert!(resume.iter().all(|c| c.iteration == 1));
        // a rank with no snapshots means no consistent restart exists
        assert!(store.resume_point(3).is_none());
    }
}
