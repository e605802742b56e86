//! Plane-wide accounting. Every admitted job resolves into exactly one
//! of the terminal counters, so admitted equals the sum of completed,
//! shed, expired, and failed once the plane is drained — the
//! reconciliation the E23 chaos gate asserts.

/// Monotonic counters for one [`crate::ServePlane`] lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions counted: admitted, or refused for quota or closure.
    /// A zero budget or an unknown tenant is refused before counting.
    pub submitted: u64,
    /// Jobs accepted into a tenant queue.
    pub admitted: u64,
    /// Submissions refused because the tenant queue was at quota.
    pub rejected_quota: u64,
    /// Submissions refused because the plane was closing.
    pub rejected_closed: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Queued jobs dropped by the overload shedder (lowest priority,
    /// newest first — counted here, reported on the ticket).
    pub shed: u64,
    /// Jobs whose deadline expired while still queued.
    pub expired_queued: u64,
    /// Jobs whose deadline expired at dispatch or mid-execution.
    pub expired_running: u64,
    /// Jobs the plane gave up on (retry budget, non-retryable error, or
    /// shutdown). Must stay 0 under the E23 chaos gate.
    pub failed: u64,
    /// Execution attempts across all jobs.
    pub attempts: u64,
    /// Attempts beyond each job's first (backoff-retried faults).
    pub retries: u64,
    /// Pool respawn + replay cycles absorbed (worker kills).
    pub recoveries: u64,
    /// Elastic pool resizes applied.
    pub resizes: u64,
}

impl ServeStats {
    /// Terminal resolutions so far.
    pub fn resolved(&self) -> u64 {
        self.completed + self.shed + self.expired_queued + self.expired_running + self.failed
    }

    /// Does the ledger reconcile? True iff every admitted job has
    /// resolved — nothing in flight, nothing silently dropped.
    pub fn reconciles(&self) -> bool {
        self.admitted == self.resolved()
    }

    /// Write the plane-wide counters that have no live per-tenant series
    /// into the metrics registry (`serve.recoveries`, when nonzero). The
    /// plane calls this once, when its drivers stop, while recording is
    /// on.
    pub(crate) fn publish(&self) {
        if self.recoveries > 0 {
            obs::global()
                .counter("serve.recoveries")
                .add(self.recoveries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reconciliation() {
        let mut s = ServeStats {
            admitted: 10,
            completed: 6,
            shed: 2,
            expired_queued: 1,
            ..Default::default()
        };
        assert!(!s.reconciles());
        s.expired_running = 1;
        assert!(s.reconciles());
        assert_eq!(s.resolved(), 10);
    }
}
