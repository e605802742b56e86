//! Serving-plane robustness contract (DESIGN §10, experiment E23):
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
    reference_result, ExpiredAt, JobOutcome, JobRequest, JobSpec, Priority, ServeConfig,
    ServeError, ServePlane, ServeStats, TenantQuota,
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
        elastic: Some(hpc_framework::serve::ElasticPolicy {
            min_workers: 1,
            max_workers: 3,
            grow_backlog: 2,
            shrink_after: Duration::from_millis(50),
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
    // Read `grown` as soon as the backlog drains: the oracle runs below
    // take long enough for an idle pool to start shrinking.
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|(spec, t)| (spec, t.wait()))
        .collect();
    let grown = plane.stats().resizes;
    assert!(
        grown >= 1,
        "a 24-job backlog over grow_backlog=2 must trigger growth: {grown}"
    );
    for (spec, outcome) in outcomes {
        match outcome {
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
    // Idle for 8x `shrink_after`: the driver steps its pool back down to
    // `min_workers`, one worker per idle period.
    std::thread::sleep(Duration::from_millis(400));
    let spec = JobSpec::Solve { seed: 99, n: 40 };
    let t = s
        .submit(req(spec.clone(), Priority::Normal, Duration::from_secs(30)))
        .unwrap();
    match t.wait() {
        JobOutcome::Completed { data, workers, .. } => {
            assert_eq!(workers, 1, "an idle pool shrinks back to min_workers");
            let want = reference_result(&spec, workers);
            assert!(
                data.iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "a shrunk pool's result must match the oracle bitwise"
            );
        }
        other => panic!("expected completion, got {other:?}"),
    }
    let stats = plane.shutdown();
    assert!(
        stats.resizes > grown,
        "the idle pool must shrink: {stats:?}"
    );
    assert!(stats.reconciles(), "{stats:?}");
}

/// Poll the ledger until `done` holds (the pool has started a job).
fn wait_for(plane: &ServePlane, done: impl Fn(&ServeStats) -> bool) {
    while !done(&plane.stats()) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A job big enough to keep a one-worker pool busy for well over 20 ms.
const BLOCKER: JobSpec = JobSpec::Array {
    seed: 1,
    n: 4_000_000,
};

#[test]
fn returning_tenant_does_not_bank_idle_time_as_stride_credit() {
    // `a` runs 20 jobs alone; `b` was idle all along. When both queue 8
    // jobs behind a busy pool, `b` joins at the current virtual time, so
    // equal weights alternate instead of `b` taking every slot until its
    // pass catches up with `a`'s.
    let plane = ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: 1,
        tenants: ["a", "b", "blocker"]
            .iter()
            .map(|n| (n.to_string(), TenantQuota::default()))
            .collect(),
        ..ServeConfig::default()
    });
    let (a, b) = (plane.session("a").unwrap(), plane.session("b").unwrap());
    let small = |i: u64| JobSpec::Array { seed: i, n: 64 };
    let warmup: Vec<_> = (0..20u64)
        .map(|i| {
            a.submit(req(small(i), Priority::Normal, Duration::from_secs(30)))
                .unwrap()
        })
        .collect();
    for t in warmup {
        assert!(t.wait().data().is_some());
    }
    let blocker = plane.session("blocker").unwrap();
    let busy = blocker
        .submit(req(BLOCKER, Priority::Normal, Duration::from_secs(60)))
        .unwrap();
    wait_for(&plane, |st| st.attempts == 21);
    let mut tickets = Vec::new();
    for i in 0..8u64 {
        for (name, s) in [("a", &a), ("b", &b)] {
            let at = std::time::Instant::now();
            let t = s
                .submit(req(
                    small(100 + i),
                    Priority::Normal,
                    Duration::from_secs(60),
                ))
                .unwrap();
            tickets.push((name, at, t));
        }
    }
    assert!(busy.wait().data().is_some());
    let mut starts: Vec<_> = tickets
        .into_iter()
        .map(|(name, at, t)| match t.wait() {
            JobOutcome::Completed { queue_wait, .. } => (at + queue_wait, name),
            other => panic!("expected completion, got {other:?}"),
        })
        .collect();
    starts.sort();
    let first: Vec<&str> = starts[..8].iter().map(|&(_, n)| n).collect();
    for name in ["a", "b"] {
        assert!(
            first.iter().filter(|&&n| n == name).count() >= 4,
            "tenant {name} got fewer than 4 of the first 8 slots: {first:?}"
        );
    }
    assert!(plane.shutdown().reconciles());
}

#[test]
fn queued_job_expires_behind_a_busy_pool() {
    // The pool is busy with the blocker, so the 20 ms job never leaves
    // its tenant queue: the driver that comes free expires it there.
    let plane = ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: 1,
        tenants: vec![("acme".into(), TenantQuota::default())],
        ..ServeConfig::default()
    });
    let s = plane.session("acme").unwrap();
    let busy = s
        .submit(req(BLOCKER, Priority::Normal, Duration::from_secs(60)))
        .unwrap();
    let short = s
        .submit(req(
            JobSpec::Array { seed: 2, n: 64 },
            Priority::Normal,
            Duration::from_millis(20),
        ))
        .unwrap();
    match short.wait() {
        JobOutcome::Expired { at, after } => {
            assert_eq!(at, ExpiredAt::Queued);
            assert!(after >= Duration::from_millis(20));
        }
        other => panic!("a 20 ms job behind a busy pool must expire, got {other:?}"),
    }
    assert!(busy.wait().data().is_some());
    let stats = plane.shutdown();
    assert_eq!(stats.expired_queued, 1, "{stats:?}");
    assert_eq!(stats.expired_running, 0, "{stats:?}");
    assert!(stats.reconciles(), "{stats:?}");
}
