//! The serving plane: sessions, admission control, fair-share
//! scheduling, shedding, and drain/shutdown orchestration.
//!
//! Topology (one [`ServePlane`]):
//!
//! ```text
//! Session::submit ──admission, shedding──▶ per-tenant queues (3 lanes)
//!                                                   │ a free driver takes the
//!                                                   │ next job (stride rule)
//!                                                   ▼
//!                        one driver thread per pool, owning its
//!                        OdinContext worker pool (elastic size)
//! ```
//!
//! There is no scheduler thread and no staging queue: every pool driver
//! is its own scheduler. When free, it takes the `sched` lock, expires
//! overdue queued jobs and takes the next job; with nothing eligible it
//! waits on `work_cv` until new work, a freed inflight slot, shutdown or
//! the earliest queued deadline. Backpressure lives in the tenant
//! quotas: a slow pool leaves work queued, the tenant queue reaches its
//! quota, and admission refuses with a typed [`ServeError`]. Above the
//! global bound admission also sheds the lowest-priority, newest queued
//! job (counted, resolved on the ticket — never silently dropped).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use odin::OdinConfig;

use crate::error::ServeError;
use crate::job::{ExpiredAt, JobOutcome, JobRequest, JobSpec, JobTicket, Priority, N_PRIORITIES};
use crate::pool::driver_loop;
use crate::stats::ServeStats;

/// Per-tenant resource limits and scheduling weight.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Fair-share weight: a tenant with weight 2 receives twice the
    /// dispatch slots of a weight-1 tenant when both have backlog.
    pub weight: f64,
    /// Queue depth cap; submissions beyond it are refused with
    /// [`ServeError::QuotaExceeded`].
    pub max_queued: usize,
    /// Jobs the tenant may have running at once across all pools.
    pub max_inflight: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            weight: 1.0,
            max_queued: 64,
            max_inflight: 8,
        }
    }
}

/// Elastic pool sizing policy, applied by each pool driver to its own
/// pool. Resizes happen **between** jobs, so completed results stay
/// pure functions of (spec, pool size).
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Floor for any pool.
    pub min_workers: usize,
    /// Ceiling for any pool.
    pub max_workers: usize,
    /// A driver grows its pool by one, before running the job it just
    /// took, while more than this many jobs stay queued.
    pub grow_backlog: usize,
    /// A driver shrinks its pool by one after idling this long.
    pub shrink_after: Duration,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            min_workers: 1,
            max_workers: 8,
            grow_backlog: 8,
            shrink_after: Duration::from_secs(1),
        }
    }
}

/// Configuration for one [`ServePlane`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Independent ODIN worker pools (one driver thread each).
    pub n_pools: usize,
    /// Initial workers per pool.
    pub workers_per_pool: usize,
    /// Template for each pool's ODIN master (`n_workers` is overridden
    /// per pool). Set `universe.stall_timeout` and `reply_timeout` whenever
    /// the fault plan can kill a worker, exactly as for a bare
    /// [`odin::OdinContext`].
    pub odin: OdinConfig,
    /// Registered tenants: `(name, quota)`.
    pub tenants: Vec<(String, TenantQuota)>,
    /// Global queued-job bound; a submission that pushes the queues past
    /// it sheds the lowest-priority newest queued job.
    pub max_queued_total: usize,
    /// Elastic sizing; `None` pins pools at `workers_per_pool`.
    pub elastic: Option<ElasticPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_pools: 1,
            workers_per_pool: 2,
            odin: OdinConfig::default(),
            tenants: Vec::new(),
            max_queued_total: 128,
            elastic: None,
        }
    }
}

/// One admitted job moving through the plane.
pub(crate) struct QueuedJob {
    pub id: u64,
    pub tenant: usize,
    pub spec: JobSpec,
    pub priority: Priority,
    pub submitted: Instant,
    pub deadline: Instant,
    pub tx: mpsc::Sender<JobOutcome>,
}

struct TenantState {
    quota: TenantQuota,
    /// One FIFO lane per priority, indexed by [`Priority::lane`].
    lanes: [VecDeque<QueuedJob>; N_PRIORITIES],
    queued: usize,
    inflight: usize,
    /// Stride-scheduling virtual time: advanced by `1/weight` per
    /// dispatch; the eligible tenant with the smallest pass goes next.
    pass: f64,
}

struct SchedState {
    tenants: Vec<TenantState>,
    /// The pass of the last dispatch. A tenant whose queue goes from
    /// empty to non-empty joins at no less than this, so idle time is
    /// not banked as credit (the stride-scheduling join rule).
    vtime: f64,
    /// Admission sequence number of the newest job.
    last_id: u64,
    /// Admission refuses new work.
    closed: bool,
    /// Drivers resolve everything still queued as failed and exit.
    stopping: bool,
}

impl SchedState {
    fn queued_total(&self) -> usize {
        self.tenants.iter().map(|t| t.queued).sum()
    }

    /// Remove every queued job for which `dead` holds.
    fn take_where(&mut self, dead: impl Fn(&QueuedJob) -> bool) -> Vec<QueuedJob> {
        let mut out = Vec::new();
        for t in &mut self.tenants {
            for lane in &mut t.lanes {
                let mut i = 0;
                while i < lane.len() {
                    if dead(&lane[i]) {
                        out.extend(lane.remove(i));
                        t.queued -= 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out
    }

    /// The stride rule: the eligible tenant (queued work and a free
    /// inflight slot) with the lowest pass, its highest non-empty lane,
    /// the oldest job there.
    fn take_next(&mut self) -> Option<QueuedJob> {
        let ti = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.queued > 0 && t.inflight < t.quota.max_inflight)
            .min_by(|(_, a), (_, b)| a.pass.total_cmp(&b.pass))
            .map(|(ti, _)| ti)?;
        let t = &mut self.tenants[ti];
        let job = t.lanes.iter_mut().rev().find_map(VecDeque::pop_front)?;
        t.queued -= 1;
        t.inflight += 1;
        self.vtime = t.pass;
        t.pass += 1.0 / t.quota.weight.max(1e-9);
        Some(job)
    }

    /// The overload victim: lowest priority first, newest within it.
    fn take_shed_victim(&mut self) -> Option<QueuedJob> {
        let (lane, ti) = (0..N_PRIORITIES).find_map(|lane| {
            let newest = self
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(ti, t)| t.lanes[lane].back().map(|j| (j.id, ti)));
            newest.max().map(|(_, ti)| (lane, ti))
        })?;
        let t = &mut self.tenants[ti];
        let job = t.lanes[lane].pop_back()?;
        t.queued -= 1;
        Some(job)
    }
}

/// What a free pool driver gets from [`Shared::next_job`].
pub(crate) enum Pull {
    /// Run this job; the second field is the queued backlog behind it.
    Job(QueuedJob, usize),
    /// The idle deadline passed with nothing to run.
    Idle,
    /// The plane is stopping and the queues are swept.
    Stop,
}

/// State shared by sessions and the pool drivers.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    tenant_names: Vec<String>,
    sched: Mutex<SchedState>,
    /// Paired with `sched`: new work, freed inflight slots, shutdown.
    work_cv: Condvar,
    stats: Mutex<ServeStats>,
    outstanding: AtomicU64,
    drain_lock: Mutex<()>,
    drain_cv: Condvar,
}

impl Shared {
    fn lock_sched(&self) -> MutexGuard<'_, SchedState> {
        self.sched.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn lock_stats(&self) -> MutexGuard<'_, ServeStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Release one inflight slot for `tenant` and wake the drivers.
    pub(crate) fn release_inflight(&self, tenant: usize) {
        let mut s = self.lock_sched();
        s.tenants[tenant].inflight = s.tenants[tenant].inflight.saturating_sub(1);
        drop(s);
        self.work_cv.notify_all();
    }

    /// Called by a free pool driver: expire overdue queued jobs, then
    /// take the next job by the stride rule. With nothing eligible, wait
    /// on `work_cv` until new work, a freed inflight slot, shutdown, the
    /// earliest queued deadline or `idle_until`, whichever comes first.
    pub(crate) fn next_job(&self, idle_until: Option<Instant>) -> Pull {
        let mut s = self.lock_sched();
        loop {
            if s.stopping {
                let leftovers = s.take_where(|_| true);
                drop(s);
                for job in leftovers {
                    let outcome = JobOutcome::Failed {
                        attempts: 0,
                        error: "serving plane shut down before the job ran".into(),
                    };
                    resolve(self, &job, outcome);
                }
                return Pull::Stop;
            }
            let now = Instant::now();
            let expired = s.take_where(|j| j.deadline <= now);
            if !expired.is_empty() {
                drop(s);
                for job in expired {
                    let after = now.duration_since(job.submitted);
                    let outcome = JobOutcome::Expired {
                        at: ExpiredAt::Queued,
                        after,
                    };
                    resolve(self, &job, outcome);
                }
                s = self.lock_sched();
                continue;
            }
            if let Some(job) = s.take_next() {
                return Pull::Job(job, s.queued_total());
            }
            if idle_until.is_some_and(|t| t <= now) {
                return Pull::Idle;
            }
            let deadlines = s.tenants.iter().flat_map(|t| t.lanes.iter().flatten());
            let wake = deadlines.map(|j| j.deadline).chain(idle_until).min();
            s = match wake {
                Some(t) => {
                    let wait = self
                        .work_cv
                        .wait_timeout(s, t.saturating_duration_since(now));
                    wait.unwrap_or_else(|p| p.into_inner()).0
                }
                None => self.work_cv.wait(s).unwrap_or_else(|p| p.into_inner()),
            };
        }
    }
}

/// Mirror a per-tenant counter into the metrics registry.
fn obs_tenant_counter(name: &str, tenant: &str) {
    if obs::enabled() {
        obs::global()
            .counter(&obs::registry::key(name, &[("tenant", tenant)]))
            .inc();
    }
}

/// Deliver the outcome for `job` and account for it exactly once. The
/// ledger is the invariant the chaos gate checks: every admitted job
/// increments exactly one terminal counter.
pub(crate) fn resolve(shared: &Shared, job: &QueuedJob, outcome: JobOutcome) {
    let tenant = &shared.tenant_names[job.tenant];
    {
        let mut st = shared.lock_stats();
        match &outcome {
            JobOutcome::Completed { .. } => st.completed += 1,
            JobOutcome::Shed { .. } => st.shed += 1,
            JobOutcome::Expired {
                at: ExpiredAt::Queued,
                ..
            } => st.expired_queued += 1,
            JobOutcome::Expired { .. } => st.expired_running += 1,
            JobOutcome::Failed { .. } => st.failed += 1,
        }
    }
    if obs::enabled() {
        obs_tenant_counter(&format!("serve.{}", outcome.label()), tenant);
        if let JobOutcome::Completed {
            queue_wait,
            service,
            ..
        } = &outcome
        {
            let total_ms = (*queue_wait + *service).as_secs_f64() * 1e3;
            obs::global()
                .histogram(&obs::registry::key(
                    "serve.latency_ms",
                    &[("tenant", tenant)],
                ))
                .record(total_ms.round() as u64);
        }
    }
    // A dropped ticket is fine; the accounting above already happened.
    let _ = job.tx.send(outcome);
    shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    let _g = shared.drain_lock.lock().unwrap_or_else(|p| p.into_inner());
    shared.drain_cv.notify_all();
}

/// The multi-tenant serving plane. Construct with [`ServePlane::new`],
/// open per-tenant [`Session`]s, submit [`JobRequest`]s, and read the
/// ledger with [`ServePlane::stats`].
pub struct ServePlane {
    shared: Arc<Shared>,
    drivers: Vec<JoinHandle<()>>,
}

/// A tenant's handle for submitting work.
pub struct Session<'p> {
    plane: &'p ServePlane,
    tenant: usize,
}

impl ServePlane {
    /// Spawn one driver thread (owning one ODIN worker pool) per
    /// configured pool.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.n_pools >= 1, "a plane needs at least one pool");
        assert!(cfg.workers_per_pool >= 1, "a pool needs a worker");
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|(n, _)| n.clone()).collect();
        let tenants = cfg
            .tenants
            .iter()
            .map(|(_, q)| TenantState {
                quota: q.clone(),
                lanes: std::array::from_fn(|_| VecDeque::new()),
                queued: 0,
                inflight: 0,
                pass: 0.0,
            })
            .collect();
        let shared = Arc::new(Shared {
            cfg,
            tenant_names,
            sched: Mutex::new(SchedState {
                tenants,
                vtime: 0.0,
                last_id: 0,
                closed: false,
                stopping: false,
            }),
            work_cv: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            outstanding: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
        });
        let drivers = (0..shared.cfg.n_pools)
            .map(|pool| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-pool-{pool}"))
                    .spawn(move || driver_loop(sh, pool))
                    .expect("spawn pool driver")
            })
            .collect();
        ServePlane { shared, drivers }
    }

    /// Open a session for a registered tenant.
    pub fn session(&self, tenant: &str) -> Result<Session<'_>, ServeError> {
        match self.shared.tenant_names.iter().position(|n| n == tenant) {
            Some(idx) => Ok(Session {
                plane: self,
                tenant: idx,
            }),
            None => Err(ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            }),
        }
    }

    /// Ledger snapshot.
    pub fn stats(&self) -> ServeStats {
        *self.shared.lock_stats()
    }

    /// Block until every admitted job has resolved.
    pub fn drain(&self) {
        let mut g = self
            .shared
            .drain_lock
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        while self.shared.outstanding.load(Ordering::SeqCst) > 0 {
            g = self
                .shared
                .drain_cv
                .wait(g)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Close admission, drain every admitted job, stop all threads, and
    /// return the final ledger.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.lock_sched().closed = true;
        self.drain();
        self.stop_and_join();
        self.stats()
    }

    /// Stop the pool drivers and join them; the call that joins them
    /// publishes the final ledger.
    fn stop_and_join(&mut self) {
        let mut s = self.shared.lock_sched();
        s.closed = true;
        s.stopping = true;
        self.shared.work_cv.notify_all();
        drop(s);
        if self.drivers.is_empty() {
            return;
        }
        for h in self.drivers.drain(..) {
            let _ = h.join();
        }
        if obs::enabled() {
            self.stats().publish();
        }
    }
}

impl Drop for ServePlane {
    fn drop(&mut self) {
        // Un-drained teardown still resolves every admitted job (as
        // failed, counted) before the threads exit.
        self.stop_and_join();
    }
}

impl Session<'_> {
    /// The tenant this session belongs to.
    pub fn tenant(&self) -> &str {
        &self.plane.shared.tenant_names[self.tenant]
    }

    /// Submit a job. Returns a ticket on admission or a typed refusal —
    /// the synchronous backpressure signal.
    pub fn submit(&self, req: JobRequest) -> Result<JobTicket, ServeError> {
        if req.budget.is_zero() {
            return Err(ServeError::ZeroBudget);
        }
        let shared = &self.plane.shared;
        let tenant_name = self.tenant();
        let now = Instant::now();
        let mut s = shared.lock_sched();
        let t = &s.tenants[self.tenant];
        let refusal = if s.closed {
            Some(ServeError::Closed)
        } else if t.queued >= t.quota.max_queued {
            Some(ServeError::QuotaExceeded {
                tenant: tenant_name.to_string(),
                queued: t.queued,
                cap: t.quota.max_queued,
            })
        } else {
            None
        };
        if let Some(err) = refusal {
            drop(s);
            let mut st = shared.lock_stats();
            st.submitted += 1;
            if err == ServeError::Closed {
                st.rejected_closed += 1;
            } else {
                st.rejected_quota += 1;
                drop(st);
                obs_tenant_counter("serve.rejected", tenant_name);
            }
            return Err(err);
        }
        let (tx, rx) = mpsc::channel();
        s.last_id += 1;
        let id = s.last_id;
        let vtime = s.vtime;
        let t = &mut s.tenants[self.tenant];
        if t.queued == 0 {
            t.pass = t.pass.max(vtime);
        }
        t.lanes[req.priority.lane()].push_back(QueuedJob {
            id,
            tenant: self.tenant,
            spec: req.spec,
            priority: req.priority,
            submitted: now,
            deadline: now + req.budget,
            tx,
        });
        t.queued += 1;
        let victim = if s.queued_total() > shared.cfg.max_queued_total {
            s.take_shed_victim()
        } else {
            None
        };
        // Counted under the lock, so a `drain` after `closed` sees it.
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        drop(s);
        shared.work_cv.notify_all();
        {
            let mut st = shared.lock_stats();
            st.submitted += 1;
            st.admitted += 1;
        }
        obs_tenant_counter("serve.admitted", tenant_name);
        if let Some(job) = victim {
            let outcome = JobOutcome::Shed {
                priority: job.priority,
                queued_for: job.submitted.elapsed(),
            };
            resolve(shared, &job, outcome);
        }
        Ok(JobTicket { id, rx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teardown_fails_every_queued_job_and_the_ledger_reconciles() {
        let mut plane = ServePlane::new(ServeConfig {
            n_pools: 1,
            workers_per_pool: 1,
            tenants: vec![("t0".into(), TenantQuota::default())],
            ..ServeConfig::default()
        });
        let s = plane.session("t0").unwrap();
        let submit = |n| {
            s.submit(JobRequest {
                spec: JobSpec::Array { seed: 3, n },
                priority: Priority::Normal,
                budget: Duration::from_secs(60),
            })
            .unwrap()
        };
        let busy = submit(4_000_000);
        let queued: Vec<_> = (0..4).map(|_| submit(64)).collect();
        while plane.stats().attempts == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // What `Drop` runs: the driver finishes the job it holds, then
        // sweeps the queues.
        plane.stop_and_join();
        assert!(busy.wait().data().is_some());
        for t in queued {
            match t.wait() {
                JobOutcome::Failed { attempts, error } => {
                    assert_eq!(attempts, 0);
                    assert_eq!(error, "serving plane shut down before the job ran");
                }
                other => panic!("a job queued at teardown must fail, got {other:?}"),
            }
        }
        let st = plane.stats();
        assert_eq!((st.completed, st.failed), (1, 4), "{st:?}");
        assert!(st.reconciles(), "{st:?}");
    }

    #[test]
    fn recoveries_are_published_once_when_the_plane_stops() {
        // The only test in this crate that kills a worker, so no other
        // plane adds to `serve.recoveries` while recording is on.
        let fault = comm::FaultPlan {
            kill_rank: Some(1),
            kill_after_ops: 3,
            ..comm::FaultPlan::none()
        };
        let plane = ServePlane::new(ServeConfig {
            n_pools: 1,
            workers_per_pool: 2,
            odin: odin::OdinConfig {
                universe: comm::UniverseConfig::default()
                    .with_fault(fault)
                    .with_stall_timeout(Duration::from_secs(2)),
                reply_timeout: Some(Duration::from_secs(2)),
                ..odin::OdinConfig::default()
            },
            tenants: vec![("t0".into(), TenantQuota::default())],
            ..ServeConfig::default()
        });
        let recording = obs::enabled();
        obs::set_enabled(true);
        let s = plane.session("t0").unwrap();
        let job = |seed| {
            s.submit(JobRequest {
                spec: JobSpec::Array { seed, n: 64 },
                priority: Priority::Normal,
                budget: Duration::from_secs(60),
            })
            .unwrap()
        };
        let tickets: Vec<_> = (0..4).map(job).collect();
        for t in tickets {
            assert!(t.wait().data().is_some());
        }
        let registry = obs::global();
        assert_eq!(registry.counter_value("serve.recoveries"), None, "live");
        let st = plane.shutdown(); // and its drop: one publish between them
        obs::set_enabled(recording);
        assert!(st.recoveries >= 1, "{st:?}");
        assert_eq!(
            registry.counter_value("serve.recoveries"),
            Some(st.recoveries)
        );
    }
}
