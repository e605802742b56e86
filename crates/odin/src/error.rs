//! Typed errors for the master↔worker control plane.
//!
//! A worker whose program ends — killed by an injected fault
//! ([`comm::FaultPlan::kill_rank`]), panicked mid-command, or torn down
//! by a peer's death — posts a notice into the master's mailbox behind
//! its last reply. Every reply-wait path in [`crate::OdinContext`] reads
//! that notice as the death it is and surfaces one of these errors
//! instead of aborting or hanging, so a
//! supervisor can diagnose the failure and decide whether to fail fast or
//! recover from a checkpoint ([`crate::OdinContext::recover`]).

use std::time::Duration;

/// A control-plane failure observed by the ODIN master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OdinError {
    /// A worker stopped answering: it posted its gone-notice (the
    /// program ended) or no reply arrived within the reply timeout.
    WorkerDead {
        /// Rank of the dead worker.
        worker: usize,
        /// How long the master waited before declaring it dead.
        waited: Duration,
    },
    /// Every worker thread is gone and the master's mailbox is drained —
    /// the whole pool exited.
    PoolDown,
    /// An array's segments were on a respawned pool and no checkpoint
    /// covered it, so its data is unrecoverable.
    SegmentsLost {
        /// Ids of the unrecoverable arrays.
        arrays: Vec<u64>,
    },
    /// A kernel was applied to an array whose dtype it cannot accept
    /// (e.g. a `def f(a)` float-array kernel over an I64 array). Caught
    /// master-side before dispatch, so no worker panics.
    DtypeMismatch {
        /// Dtype the kernel's signature requires.
        expected: crate::DType,
        /// Dtype of the array it was applied to.
        found: crate::DType,
    },
}

impl std::fmt::Display for OdinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OdinError::WorkerDead { worker, waited } => write!(
                f,
                "worker {worker} is dead (no reply after {:.1} ms)",
                waited.as_secs_f64() * 1e3
            ),
            OdinError::PoolDown => write!(f, "worker pool is down (every worker thread exited)"),
            OdinError::SegmentsLost { arrays } => write!(
                f,
                "segments of {} array(s) lost in pool respawn (ids {arrays:?})",
                arrays.len()
            ),
            OdinError::DtypeMismatch { expected, found } => write!(
                f,
                "dtype mismatch: kernel expects a {expected:?} array, got {found:?} \
                 (cast with astype or compile a {found:?} monomorphization)"
            ),
        }
    }
}

impl std::error::Error for OdinError {}

/// What [`crate::OdinContext::recover`] did to bring the pool back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Workers in the freshly spawned pool.
    pub respawned: usize,
    /// Arrays restored from the checkpoint (segments replayed).
    pub restored: Vec<u64>,
    /// Live arrays *not* covered by the checkpoint: their segments died
    /// with the old pool and any further use is a diagnosable error.
    pub lost: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_diagnostics() {
        let e = OdinError::WorkerDead {
            worker: 3,
            waited: Duration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("worker 3") && s.contains("250.0 ms"), "{s}");
        assert!(OdinError::PoolDown.to_string().contains("pool is down"));
        let l = OdinError::SegmentsLost { arrays: vec![7, 9] }.to_string();
        assert!(l.contains("2 array(s)") && l.contains("[7, 9]"), "{l}");
    }
}
