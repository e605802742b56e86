//! # serve — the multi-tenant serving plane (DESIGN §10, experiment E23)
//!
//! Everything below this crate answers *one* request at a time: an
//! [`OdinContext`](odin::OdinContext) is a single-tenant master driving
//! one worker pool. This crate turns that into a **served** system:
//! tenants open [`Session`]s against a shared [`ServePlane`], submit
//! solve/array/kernel [`JobRequest`]s into bounded per-tenant queues,
//! and each of a small set of shared, elastically-sized ODIN worker
//! pools pulls its next job from those queues by a fair-share stride
//! rule. One driver thread per pool is the whole topology: no scheduler
//! thread, no staging queue, no polling tick.
//!
//! The robustness contract, end to end:
//!
//! - **Admission control** — per-tenant quotas refuse work synchronously
//!   with typed [`ServeError`]s instead of queueing unboundedly.
//! - **Backpressure** — work waits only in the tenant queues, bounded by
//!   each tenant's quota and by [`ServeConfig::max_queued_total`]; a
//!   slow pool leaves work queued, so pressure reaches the submitting
//!   tenant as a refusal.
//! - **Deadlines** — each job carries a budget; expiry hard-cancels it
//!   whether queued (seen by the next driver to look, or by an idle
//!   driver waking at the deadline), at dispatch, or mid-solve (chunk
//!   boundaries), and the ticket says which ([`ExpiredAt`]).
//! - **Shedding** — sustained overload drops the lowest-priority newest
//!   queued work, counted in [`ServeStats::shed`] and resolved on the
//!   ticket — never silently.
//! - **Fault absorption** — a killed or straggling worker mid-job is
//!   caught on the pool driver, the pool recovers, and the job retries
//!   with exponential backoff — solves resume from their newest common
//!   CG checkpoint. Completed results are **bitwise identical** to a
//!   fault-free run at the same pool size ([`reference_result`]).
//! - **Reconciliation** — [`ServeStats::reconciles`]: every admitted job
//!   resolves exactly once; nothing is dropped off the books.

mod error;
mod job;
mod plane;
mod pool;
mod stats;

pub use error::ServeError;
pub use job::{ExpiredAt, JobOutcome, JobRequest, JobSpec, JobTicket, Priority};
pub use plane::{ElasticPolicy, ServeConfig, ServePlane, Session, TenantQuota};
pub use pool::reference_result;
pub use stats::ServeStats;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            n_pools: 1,
            workers_per_pool: 2,
            tenants: vec![("t0".into(), TenantQuota::default())],
            ..ServeConfig::default()
        }
    }

    #[test]
    fn submit_and_complete_all_job_classes() {
        let plane = ServePlane::new(quick_cfg());
        let s = plane.session("t0").expect("registered tenant");
        let specs = [
            JobSpec::Array { seed: 7, n: 64 },
            JobSpec::Kernel { seed: 8, n: 48 },
            JobSpec::Solve { seed: 9, n: 40 },
        ];
        let tickets: Vec<_> = specs
            .iter()
            .map(|spec| {
                s.submit(JobRequest {
                    spec: spec.clone(),
                    priority: Priority::Normal,
                    budget: Duration::from_secs(30),
                })
                .expect("admitted")
            })
            .collect();
        for (ticket, spec) in tickets.into_iter().zip(&specs) {
            match ticket.wait() {
                JobOutcome::Completed { data, workers, .. } => {
                    assert_eq!(workers, 2);
                    let want = reference_result(spec, workers);
                    assert_eq!(data, want, "served result must match the clean oracle");
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
        let stats = plane.shutdown();
        assert_eq!(stats.completed, 3);
        assert!(stats.reconciles(), "{stats:?}");
    }

    #[test]
    fn unknown_tenant_and_zero_budget_are_typed_errors() {
        let plane = ServePlane::new(quick_cfg());
        assert!(matches!(
            plane.session("ghost"),
            Err(ServeError::UnknownTenant { .. })
        ));
        let s = plane.session("t0").unwrap();
        assert_eq!(
            s.submit(JobRequest {
                spec: JobSpec::Array { seed: 1, n: 8 },
                priority: Priority::Normal,
                budget: Duration::ZERO,
            })
            .unwrap_err(),
            ServeError::ZeroBudget
        );
        let t = s
            .submit(JobRequest {
                spec: JobSpec::Array { seed: 1, n: 8 },
                priority: Priority::Normal,
                budget: Duration::from_secs(10),
            })
            .unwrap();
        assert!(t.wait().data().is_some());
        // A refusal before admission is counted nowhere, like an unknown
        // tenant: every counted submission lands in exactly one bucket.
        let st = plane.shutdown();
        assert_eq!(
            st.submitted,
            st.admitted + st.rejected_quota + st.rejected_closed,
            "{st:?}"
        );
    }

    #[test]
    fn closed_plane_refuses_submissions() {
        let plane = ServePlane::new(quick_cfg());
        let stats = {
            let s = plane.session("t0").unwrap();
            let t = s
                .submit(JobRequest {
                    spec: JobSpec::Array { seed: 2, n: 16 },
                    priority: Priority::Normal,
                    budget: Duration::from_secs(10),
                })
                .unwrap();
            let _ = t.wait();
            plane.stats()
        };
        assert_eq!(stats.admitted, 1);
        let final_stats = plane.shutdown();
        assert!(final_stats.reconciles());
    }
}
