//! Serving-plane robustness contract (DESIGN §13, experiment E23):
//! admission control, backpressure, priority-aware shedding, deadlines,
//! and fault absorption with bitwise-identical completed results.
//!
//! The chaos test honors `HPC_FAULT_SEED` and rides the ci.sh 3-seed
//! sweep: each seed replays a distinct delay schedule on top of the
//! deterministic worker kill.

use std::time::Duration;

use hpc_framework::comm::{FaultPlan, UniverseConfig};
use hpc_framework::odin::OdinConfig;
use hpc_framework::serve::{
    reference_result, JobOutcome, JobRequest, JobSpec, Priority, ServeConfig, ServeError,
    ServePlane, TenantQuota,
};

fn fault_seed() -> u64 {
    std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn req(spec: JobSpec, priority: Priority, budget: Duration) -> JobRequest {
    JobRequest {
        spec,
        priority,
        budget,
    }
}

/// A small mixed spec set covering all three job classes.
fn mixed_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for i in 0..4u64 {
        specs.push(JobSpec::Array {
            seed: 10 + i,
            n: 48 + 16 * i as usize,
        });
        specs.push(JobSpec::Kernel {
            seed: 20 + i,
            n: 40 + 8 * i as usize,
        });
        specs.push(JobSpec::Solve {
            seed: 30 + i,
            n: 32 + 8 * i as usize,
        });
    }
    specs
}

#[test]
fn admission_quota_is_synchronous_backpressure() {
    // One-slot tenant queue, one inflight slot, slow-ish work: a burst
    // must see typed QuotaExceeded refusals, and every *admitted* job
    // must still resolve.
    let plane = ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: 1,
        pool_inbox_cap: 1,
        tenants: vec![(
            "acme".into(),
            TenantQuota {
                max_queued: 1,
                max_inflight: 1,
                ..TenantQuota::default()
            },
        )],
        ..ServeConfig::default()
    });
    let s = plane.session("acme").unwrap();
    let mut tickets = Vec::new();
    let mut refused = 0u32;
    for i in 0..32u64 {
        match s.submit(req(
            JobSpec::Solve { seed: i, n: 48 },
            Priority::Normal,
            Duration::from_secs(30),
        )) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QuotaExceeded {
                tenant,
                queued,
                cap,
            }) => {
                assert_eq!(tenant, "acme");
                assert!(queued >= cap);
                refused += 1;
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert!(
        refused > 0,
        "a 32-deep burst into a 1-slot queue must refuse"
    );
    for t in tickets {
        assert!(
            t.wait().data().is_some(),
            "admitted jobs complete despite the backpressure"
        );
    }
    let stats = plane.shutdown();
    assert_eq!(stats.rejected_quota as u32, refused);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn overload_sheds_lowest_priority_newest_first() {
    // A busy single-worker pool plus a tight global bound: queued work
    // above the bound is shed — and only from the Low lane, since the
    // Low population always exceeds the overflow here.
    let plane = ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: 1,
        pool_inbox_cap: 1,
        max_queued_total: 5,
        tenants: vec![(
            "acme".into(),
            TenantQuota {
                max_queued: 64,
                max_inflight: 1,
                ..TenantQuota::default()
            },
        )],
        ..ServeConfig::default()
    });
    let s = plane.session("acme").unwrap();
    // Occupy the pool so the burst below stays queued.
    let first = s
        .submit(req(
            JobSpec::Solve { seed: 1, n: 96 },
            Priority::Normal,
            Duration::from_secs(30),
        ))
        .unwrap();
    let mut low = Vec::new();
    let mut high = Vec::new();
    for i in 0..8u64 {
        low.push(
            s.submit(req(
                JobSpec::Array {
                    seed: 100 + i,
                    n: 32,
                },
                Priority::Low,
                Duration::from_secs(30),
            ))
            .unwrap(),
        );
    }
    for i in 0..4u64 {
        high.push(
            s.submit(req(
                JobSpec::Array {
                    seed: 200 + i,
                    n: 32,
                },
                Priority::High,
                Duration::from_secs(30),
            ))
            .unwrap(),
        );
    }
    assert!(first.wait().data().is_some());
    for t in high {
        match t.wait() {
            JobOutcome::Completed { .. } => {}
            other => panic!("high-priority work must never be shed here: {other:?}"),
        }
    }
    let mut shed = 0u64;
    for t in low {
        match t.wait() {
            JobOutcome::Completed { .. } => {}
            JobOutcome::Shed {
                priority,
                queued_for,
            } => {
                assert_eq!(priority, Priority::Low);
                assert!(queued_for <= Duration::from_secs(30));
                shed += 1;
            }
            other => panic!("unexpected outcome for low-priority job: {other:?}"),
        }
    }
    assert!(shed > 0, "13 queued jobs over a bound of 5 must shed some");
    let stats = plane.shutdown();
    assert_eq!(stats.shed, shed);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn deadline_expiry_is_reported_not_silent() {
    let plane = ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: 1,
        tenants: vec![("acme".into(), TenantQuota::default())],
        ..ServeConfig::default()
    });
    let s = plane.session("acme").unwrap();
    let t = s
        .submit(req(
            JobSpec::Array { seed: 3, n: 64 },
            Priority::Normal,
            Duration::from_nanos(1),
        ))
        .unwrap();
    match t.wait() {
        JobOutcome::Expired { after, .. } => {
            assert!(after >= Duration::from_nanos(1));
        }
        other => panic!("a 1ns budget must expire, got {other:?}"),
    }
    let stats = plane.shutdown();
    assert_eq!(stats.expired_queued + stats.expired_running, 1);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn fair_share_weights_drive_dispatch_order() {
    // Two tenants with a 3:1 weight ratio contending for one
    // single-worker pool: the heavy tenant must finish its batch no
    // later than the light one starts starving — observable as the
    // heavy tenant completing all jobs while both stay inside quota.
    let plane = ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: 1,
        pool_inbox_cap: 1,
        tenants: vec![
            (
                "heavy".into(),
                TenantQuota {
                    weight: 3.0,
                    ..TenantQuota::default()
                },
            ),
            ("light".into(), TenantQuota::default()),
        ],
        ..ServeConfig::default()
    });
    let heavy = plane.session("heavy").unwrap();
    let light = plane.session("light").unwrap();
    let mut tickets = Vec::new();
    for i in 0..6u64 {
        tickets.push(
            heavy
                .submit(req(
                    JobSpec::Array { seed: i, n: 48 },
                    Priority::Normal,
                    Duration::from_secs(30),
                ))
                .unwrap(),
        );
        tickets.push(
            light
                .submit(req(
                    JobSpec::Kernel { seed: i, n: 48 },
                    Priority::Normal,
                    Duration::from_secs(30),
                ))
                .unwrap(),
        );
    }
    for t in tickets {
        assert!(t.wait().data().is_some());
    }
    let stats = plane.shutdown();
    assert_eq!(stats.completed, 12);
    assert!(stats.reconciles(), "{stats:?}");
}

/// The E23 chaos gate: with an injected worker kill, a delayed straggler
/// rank, and a 2x overload burst, **no admitted job fails** — every
/// ticket resolves as completed (bitwise identical to a fault-free run
/// at the same pool size), shed, or expired, and the ledger reconciles.
#[test]
fn chaos_kill_straggler_overload_absorbed_without_failures() {
    let fault = FaultPlan {
        seed: fault_seed(),
        kill_rank: Some(1),
        kill_after_ops: 30,
        delay_rank: Some(2),
        delay_p: 0.3,
        delay_s: 5.0e-6,
        ..FaultPlan::none()
    };
    let plane = ServePlane::new(ServeConfig {
        n_pools: 2,
        workers_per_pool: 3,
        odin: OdinConfig {
            universe: UniverseConfig::default()
                .with_fault(fault)
                .with_stall_timeout(Duration::from_secs(2)),
            reply_timeout: Some(Duration::from_secs(2)),
            ..OdinConfig::default()
        },
        max_queued_total: 24,
        tenants: vec![
            (
                "acme".into(),
                TenantQuota {
                    weight: 2.0,
                    max_queued: 16,
                    ..TenantQuota::default()
                },
            ),
            (
                "zeta".into(),
                TenantQuota {
                    max_queued: 16,
                    ..TenantQuota::default()
                },
            ),
        ],
        ..ServeConfig::default()
    });
    let sessions = [
        plane.session("acme").unwrap(),
        plane.session("zeta").unwrap(),
    ];
    let specs = mixed_specs();
    let prios = [Priority::Low, Priority::Normal, Priority::High];
    let mut tickets = Vec::new();
    let mut refused = 0u32;
    // 2x overload: four passes over the spec set into two tenants whose
    // combined quota is well below the burst size.
    for pass in 0..4u64 {
        for (i, spec) in specs.iter().enumerate() {
            let s = &sessions[i % 2];
            match s.submit(req(
                spec.clone(),
                prios[(pass as usize + i) % 3],
                Duration::from_secs(30),
            )) {
                Ok(t) => tickets.push((spec.clone(), t)),
                Err(ServeError::QuotaExceeded { .. }) => refused += 1, // legal backpressure
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
    }
    let mut completed = 0u64;
    for (spec, t) in tickets {
        match t.wait() {
            JobOutcome::Completed { data, workers, .. } => {
                let want = reference_result(&spec, workers);
                assert_eq!(
                    data.len(),
                    want.len(),
                    "chaos-run result shape must match the clean oracle"
                );
                for (i, (a, b)) in data.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "bitwise divergence at element {i} of {spec:?}"
                    );
                }
                completed += 1;
            }
            JobOutcome::Shed { .. } | JobOutcome::Expired { .. } => {} // counted, legal
            JobOutcome::Failed { error, .. } => {
                panic!("admitted job failed under chaos: {error}")
            }
        }
    }
    assert!(completed > 0, "chaos must not starve the plane entirely");
    let stats = plane.shutdown();
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.rejected_quota as u32, refused);
    assert!(
        stats.recoveries >= 1,
        "the injected kill must have been absorbed at least once: {stats:?}"
    );
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn elastic_pool_grows_under_backlog_and_results_stay_exact() {
    let plane = ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: 1,
        pool_inbox_cap: 2,
        elastic: Some(hpc_framework::serve::ElasticPolicy {
            min_workers: 1,
            max_workers: 3,
            grow_backlog: 2,
            shrink_idle_ticks: 1_000_000, // shrink not under test
        }),
        tenants: vec![(
            "acme".into(),
            TenantQuota {
                max_queued: 64,
                max_inflight: 4,
                ..TenantQuota::default()
            },
        )],
        ..ServeConfig::default()
    });
    let s = plane.session("acme").unwrap();
    let tickets: Vec<_> = (0..24u64)
        .map(|i| {
            let spec = if i % 3 == 0 {
                JobSpec::Solve { seed: i, n: 40 }
            } else {
                JobSpec::Array { seed: i, n: 64 }
            };
            let t = s
                .submit(req(spec.clone(), Priority::Normal, Duration::from_secs(30)))
                .unwrap();
            (spec, t)
        })
        .collect();
    for (spec, t) in tickets {
        match t.wait() {
            JobOutcome::Completed { data, workers, .. } => {
                // `workers` records the size the job actually ran at —
                // resizes apply between jobs, so the oracle at that size
                // must match bitwise even while the pool is elastic.
                let want = reference_result(&spec, workers);
                assert!(
                    data.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "elastic resize must not perturb results for {spec:?}"
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
    let stats = plane.shutdown();
    assert!(
        stats.resizes >= 1,
        "a 24-job backlog over grow_backlog=2 must trigger growth: {stats:?}"
    );
    assert!(stats.reconciles(), "{stats:?}");
}
