//! The serving plane: sessions, admission control, fair-share
//! scheduling, shedding, and drain/shutdown orchestration.
//!
//! Topology (one [`ServePlane`]):
//!
//! ```text
//! Session::submit ──admission──▶ per-tenant bounded queues (3 lanes)
//!                                      │ fair-share scheduler thread
//!                                      ▼
//!                        per-pool Bounded inboxes (cap ~ a few jobs)
//!                                      │ one driver thread per pool
//!                                      ▼
//!                        OdinContext worker pools (elastic size)
//! ```
//!
//! Backpressure propagates **end to end** through bounded stages: a slow
//! pool fills its inbox, the scheduler stops draining tenant queues,
//! tenant queues hit their quotas, and admission refuses with a typed
//! [`ServeError`] — no stage grows without bound. Under sustained
//! overload the scheduler additionally sheds the lowest-priority, newest
//! queued work (counted, resolved on the ticket — never silently
//! dropped).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use comm::Bounded;
use odin::OdinConfig;

use crate::error::ServeError;
use crate::job::{ExpiredAt, JobOutcome, JobRequest, JobSpec, JobTicket, Priority, N_PRIORITIES};
use crate::pool::{driver_loop, PoolCtl};
use crate::stats::ServeStats;

/// Per-tenant resource limits and scheduling weight.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Fair-share weight: a tenant with weight 2 receives twice the
    /// dispatch slots of a weight-1 tenant when both have backlog.
    pub weight: f64,
    /// Bounded queue depth; submissions beyond it are refused with
    /// [`ServeError::QuotaExceeded`].
    pub max_queued: usize,
    /// Jobs the tenant may have executing at once across all pools.
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

/// Elastic pool sizing policy, evaluated by the scheduler from observed
/// load. Resizes apply **between** jobs (a pool driver finishes its
/// current job first), so completed results stay pure functions of
/// (spec, pool size).
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Floor for any pool.
    pub min_workers: usize,
    /// Ceiling for any pool.
    pub max_workers: usize,
    /// Grow one pool when queued + inbox backlog exceeds this.
    pub grow_backlog: usize,
    /// Shrink one pool after this many consecutive idle scheduler ticks.
    pub shrink_idle_ticks: u32,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            min_workers: 1,
            max_workers: 8,
            grow_backlog: 8,
            shrink_idle_ticks: 200,
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
    /// Capacity of each pool's dispatch inbox. Small on purpose: the
    /// inbox is a staging slot, not a queue — depth lives in the tenant
    /// queues where quotas and shedding can see it.
    pub pool_inbox_cap: usize,
    /// Global queued-job bound; beyond it the shedder drops the
    /// lowest-priority newest queued work until back under.
    pub max_queued_total: usize,
    /// Execution attempts per job before giving up.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Elastic sizing; `None` pins pools at `workers_per_pool`.
    pub elastic: Option<ElasticPolicy>,
    /// Iterations per CG chunk — the deadline-check (hard cancel)
    /// granularity for solve jobs.
    pub solve_chunk_iters: usize,
    /// CG checkpoint cadence within a chunk (the retry resume grid).
    pub solve_checkpoint_every: usize,
    /// Total CG iteration budget; exceeding it is a permanent failure.
    pub solve_max_iter: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_pools: 1,
            workers_per_pool: 2,
            odin: OdinConfig::default(),
            tenants: Vec::new(),
            pool_inbox_cap: 4,
            max_queued_total: 128,
            max_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(50),
            elastic: None,
            solve_chunk_iters: 64,
            solve_checkpoint_every: 8,
            solve_max_iter: 1000,
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

pub(crate) struct SchedState {
    tenants: Vec<TenantState>,
}

impl SchedState {
    fn queued_total(&self) -> usize {
        self.tenants.iter().map(|t| t.queued).sum()
    }

    fn inflight_total(&self) -> usize {
        self.tenants.iter().map(|t| t.inflight).sum()
    }
}

/// State shared by sessions, the scheduler, and the pool drivers.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub tenant_names: Vec<String>,
    pub sched: Mutex<SchedState>,
    /// Paired with `sched`: new work, freed inflight slots, shutdown.
    pub work_cv: Condvar,
    pub stats: Mutex<ServeStats>,
    pub next_id: AtomicU64,
    pub outstanding: AtomicU64,
    pub drain_lock: Mutex<()>,
    pub drain_cv: Condvar,
    /// Admission refuses new work.
    pub closed: AtomicBool,
    /// Drivers/scheduler resolve remaining work as failed and exit.
    pub stopping: AtomicBool,
    pub inboxes: Vec<Arc<Bounded<QueuedJob>>>,
}

impl Shared {
    pub(crate) fn lock_sched(&self) -> MutexGuard<'_, SchedState> {
        self.sched.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn lock_stats(&self) -> MutexGuard<'_, ServeStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Release one inflight slot for `tenant` and wake the scheduler.
    pub(crate) fn release_inflight(&self, tenant: usize) {
        let mut s = self.lock_sched();
        s.tenants[tenant].inflight = s.tenants[tenant].inflight.saturating_sub(1);
        drop(s);
        self.work_cv.notify_all();
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
    scheduler: Option<JoinHandle<()>>,
    drivers: Vec<JoinHandle<()>>,
    joined: bool,
}

/// A tenant's handle for submitting work.
pub struct Session<'p> {
    plane: &'p ServePlane,
    tenant: usize,
}

impl ServePlane {
    /// Spawn the scheduler and one driver thread (owning one ODIN worker
    /// pool) per configured pool.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.n_pools >= 1, "a plane needs at least one pool");
        assert!(cfg.workers_per_pool >= 1, "a pool needs a worker");
        assert!(cfg.pool_inbox_cap >= 1, "inboxes need capacity");
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
        let inboxes: Vec<Arc<Bounded<QueuedJob>>> = (0..cfg.n_pools)
            .map(|_| Arc::new(Bounded::new(cfg.pool_inbox_cap)))
            .collect();
        let shared = Arc::new(Shared {
            cfg,
            tenant_names,
            sched: Mutex::new(SchedState { tenants }),
            work_cv: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            next_id: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            closed: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            inboxes,
        });
        let mut drivers = Vec::with_capacity(shared.cfg.n_pools);
        let mut ctls = Vec::with_capacity(shared.cfg.n_pools);
        for pool in 0..shared.cfg.n_pools {
            let (ctl_tx, ctl_rx) = mpsc::channel();
            ctls.push(ctl_tx);
            let sh = Arc::clone(&shared);
            let inbox = Arc::clone(&shared.inboxes[pool]);
            drivers.push(
                std::thread::Builder::new()
                    .name(format!("serve-pool-{pool}"))
                    .spawn(move || driver_loop(sh, pool, inbox, ctl_rx))
                    .expect("spawn pool driver"),
            );
        }
        let sh = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("serve-sched".into())
            .spawn(move || scheduler_loop(sh, ctls))
            .expect("spawn scheduler");
        ServePlane {
            shared,
            scheduler: Some(scheduler),
            drivers,
            joined: false,
        }
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
                .wait_timeout(g, Duration::from_millis(5))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Close admission, drain every admitted job, stop all threads, and
    /// return the final ledger.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.closed.store(true, Ordering::SeqCst);
        self.drain();
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        if self.joined {
            return;
        }
        self.joined = true;
        self.shared.closed.store(true, Ordering::SeqCst);
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        for inbox in &self.shared.inboxes {
            inbox.close();
        }
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        for h in self.drivers.drain(..) {
            let _ = h.join();
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
        let shared = &self.plane.shared;
        shared.lock_stats().submitted += 1;
        if req.budget.is_zero() {
            return Err(ServeError::ZeroBudget);
        }
        let tenant_name = self.tenant();
        if shared.closed.load(Ordering::SeqCst) {
            shared.lock_stats().rejected_closed += 1;
            return Err(ServeError::Closed);
        }
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut s = shared.lock_sched();
            let t = &mut s.tenants[self.tenant];
            if t.queued >= t.quota.max_queued {
                let queued = t.queued;
                let cap = t.quota.max_queued;
                drop(s);
                shared.lock_stats().rejected_quota += 1;
                obs_tenant_counter("serve.rejected", tenant_name);
                return Err(ServeError::QuotaExceeded {
                    tenant: tenant_name.to_string(),
                    queued,
                    cap,
                });
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
        }
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        shared.lock_stats().admitted += 1;
        obs_tenant_counter("serve.admitted", tenant_name);
        shared.work_cv.notify_all();
        Ok(JobTicket { id, rx })
    }
}

// ---- scheduler -------------------------------------------------------------

/// One scheduler pass under the lock: expire, shed, dispatch. Returns
/// jobs to resolve outside the lock plus the load snapshot the elastic
/// policy needs.
fn sched_tick(
    shared: &Shared,
    s: &mut SchedState,
    resolved: &mut Vec<(QueuedJob, JobOutcome)>,
) -> (usize, usize) {
    let now = Instant::now();
    // 1. Expire queued jobs whose deadline has passed.
    for t in s.tenants.iter_mut() {
        for lane in t.lanes.iter_mut() {
            let mut i = 0;
            while i < lane.len() {
                if lane[i].deadline <= now {
                    let job = lane.remove(i).expect("indexed job");
                    t.queued -= 1;
                    let after = now.duration_since(job.submitted);
                    resolved.push((
                        job,
                        JobOutcome::Expired {
                            at: ExpiredAt::Queued,
                            after,
                        },
                    ));
                } else {
                    i += 1;
                }
            }
        }
    }
    // 2. Shed overload: lowest priority first, newest first within it.
    while s.queued_total() > shared.cfg.max_queued_total {
        let mut victim: Option<(usize, usize)> = None; // (tenant, lane)
        'lanes: for lane_idx in 0..N_PRIORITIES {
            let mut newest: Option<(usize, u64)> = None;
            for (ti, t) in s.tenants.iter().enumerate() {
                if let Some(back) = t.lanes[lane_idx].back() {
                    if newest.is_none_or(|(_, id)| back.id > id) {
                        newest = Some((ti, back.id));
                    }
                }
            }
            if let Some((ti, _)) = newest {
                victim = Some((ti, lane_idx));
                break 'lanes;
            }
        }
        let Some((ti, lane_idx)) = victim else { break };
        let t = &mut s.tenants[ti];
        let job = t.lanes[lane_idx].pop_back().expect("victim exists");
        t.queued -= 1;
        let queued_for = now.duration_since(job.submitted);
        let priority = job.priority;
        resolved.push((
            job,
            JobOutcome::Shed {
                priority,
                queued_for,
            },
        ));
    }
    // 3. Fair-share dispatch into pool inboxes until backpressure.
    while let Some(ti) = s
        .tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| t.queued > 0 && t.inflight < t.quota.max_inflight)
        .min_by(|(_, a), (_, b)| a.pass.total_cmp(&b.pass))
        .map(|(ti, _)| ti)
    {
        let t = &mut s.tenants[ti];
        let lane_idx = (0..N_PRIORITIES)
            .rev()
            .find(|&l| !t.lanes[l].is_empty())
            .expect("tenant has queued work");
        let job = t.lanes[lane_idx].pop_front().expect("lane non-empty");
        t.queued -= 1;
        if job.deadline <= now {
            let after = now.duration_since(job.submitted);
            resolved.push((
                job,
                JobOutcome::Expired {
                    at: ExpiredAt::Queued,
                    after,
                },
            ));
            continue;
        }
        // Least-loaded inbox; on backpressure put the job back and stop.
        let pi = (0..shared.inboxes.len())
            .min_by_key(|&p| shared.inboxes[p].len())
            .expect("at least one pool");
        match shared.inboxes[pi].try_push(job) {
            Ok(()) => {
                t.inflight += 1;
                t.pass += 1.0 / t.quota.weight.max(1e-9);
            }
            Err(err) => {
                let job = err.into_inner();
                t.lanes[lane_idx].push_front(job);
                t.queued += 1;
                shared.lock_stats().dispatch_backpressure += 1;
                break;
            }
        }
    }
    (s.queued_total(), s.inflight_total())
}

fn scheduler_loop(shared: Arc<Shared>, ctls: Vec<mpsc::Sender<PoolCtl>>) {
    let pol = shared.cfg.elastic.clone();
    let mut targets = vec![shared.cfg.workers_per_pool; shared.cfg.n_pools];
    let mut idle_ticks = 0u32;
    let mut cooldown = 0u32;
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            // Final sweep: everything still queued resolves, counted.
            let mut leftovers = Vec::new();
            {
                let mut s = shared.lock_sched();
                for t in s.tenants.iter_mut() {
                    for lane in t.lanes.iter_mut() {
                        while let Some(job) = lane.pop_front() {
                            t.queued -= 1;
                            leftovers.push(job);
                        }
                    }
                }
            }
            for job in leftovers {
                resolve(
                    &shared,
                    &job,
                    JobOutcome::Failed {
                        attempts: 0,
                        error: "serving plane shut down before the job ran".into(),
                    },
                );
            }
            return;
        }
        let mut resolved = Vec::new();
        let (queued, inflight) = {
            let mut s = shared.lock_sched();
            sched_tick(&shared, &mut s, &mut resolved)
        };
        for (job, outcome) in resolved {
            resolve(&shared, &job, outcome);
        }
        if let Some(pol) = &pol {
            let backlog = queued + shared.inboxes.iter().map(|q| q.len()).sum::<usize>();
            cooldown = cooldown.saturating_sub(1);
            if backlog > pol.grow_backlog && cooldown == 0 {
                if let Some(p) = (0..targets.len())
                    .filter(|&p| targets[p] < pol.max_workers)
                    .min_by_key(|&p| targets[p])
                {
                    targets[p] += 1;
                    let _ = ctls[p].send(PoolCtl::Resize(targets[p]));
                    cooldown = 8;
                }
                idle_ticks = 0;
            } else if backlog == 0 && inflight == 0 {
                idle_ticks += 1;
                if idle_ticks >= pol.shrink_idle_ticks {
                    idle_ticks = 0;
                    if let Some(p) = (0..targets.len())
                        .filter(|&p| targets[p] > pol.min_workers)
                        .max_by_key(|&p| targets[p])
                    {
                        targets[p] -= 1;
                        let _ = ctls[p].send(PoolCtl::Resize(targets[p]));
                    }
                }
            } else {
                idle_ticks = 0;
            }
        }
        let g = shared.lock_sched();
        let _ = shared
            .work_cv
            .wait_timeout(g, Duration::from_millis(1))
            .unwrap_or_else(|p| p.into_inner());
    }
}
