//! Pool drivers: one thread per ODIN worker pool, pulling jobs from the
//! tenant queues ([`Shared::next_job`]) and executing them with retry +
//! backoff, deadline hard-cancel, and fault absorption. Each driver also
//! sizes its own pool under an [`crate::ElasticPolicy`].
//!
//! The driver owns its [`OdinContext`] (the master is deliberately
//! single-threaded), so every fault a pool can throw — a killed worker
//! panicking a collective, a straggler tripping the reply timeout —
//! surfaces on this thread, where `catch_unwind` + `health_check` +
//! `recover` turn it into a counted retry instead of a failed tenant job.
//! Solve jobs additionally resume from their newest common CG checkpoint,
//! so absorbed kills cost iterations-since-checkpoint, not a restart, and
//! the completed result stays **bitwise identical** to a fault-free run
//! at the same pool size (the E16 restart-identity contract).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlinalg::{CsrMatrix, DistVector};
use odin::{DType, Dist, OdinCheckpoint, OdinContext};
use solvers::{
    cg_checkpointed, CgCheckpointing, CheckpointStore, IdentityPrecond, KrylovConfig, SolveStatus,
};

use crate::job::{ExpiredAt, JobOutcome, JobSpec};
use crate::plane::{resolve, Pull, QueuedJob, Shared};

/// The Seamless kernel every [`JobSpec::Kernel`] job maps. Each attempt
/// compiles it; the pool registers its bytecode once (the structural
/// kernel cache) and the registry replays it across recoveries.
const KERNEL_SRC: &str = "def serve_poly(v):\n    return v * v + 1.0\n";

/// Execution attempts per job before giving up.
const MAX_ATTEMPTS: u32 = 4;
/// First retry backoff; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_millis(50);
/// Iterations per CG chunk: the deadline-check (hard cancel) granularity
/// for solve jobs.
const SOLVE_CHUNK_ITERS: usize = 64;
/// CG checkpoint cadence within a chunk (the retry resume grid).
const SOLVE_CHECKPOINT_EVERY: usize = 8;
/// Total CG iteration budget; exceeding it is a permanent failure.
const SOLVE_MAX_ITER: usize = 1000;

fn set_pool_gauge(pool: usize, workers: usize) {
    if obs::enabled() {
        obs::global()
            .gauge(&obs::registry::key(
                "serve.pool_workers",
                &[("pool", &pool.to_string())],
            ))
            .set(workers as f64);
    }
}

/// Main loop of one pool driver thread: pull the next job, size the pool
/// for it, run it; shrink the pool when idle; stop with the plane.
pub(crate) fn driver_loop(shared: Arc<Shared>, pool: usize) {
    let mut odin_cfg = shared.cfg.odin;
    odin_cfg.n_workers = shared.cfg.workers_per_pool;
    let mut ctx = OdinContext::new(odin_cfg);
    set_pool_gauge(pool, ctx.n_workers());
    let elastic = shared.cfg.elastic.as_ref();
    loop {
        let n = ctx.n_workers();
        let idle_until = elastic
            .filter(|p| n > p.min_workers.max(1))
            .map(|p| Instant::now() + p.shrink_after);
        match shared.next_job(idle_until) {
            Pull::Job(job, backlog) => {
                if elastic.is_some_and(|p| backlog > p.grow_backlog && n < p.max_workers) {
                    resize(&shared, &mut ctx, pool, n + 1);
                }
                run_job(&shared, &ctx, job);
            }
            Pull::Idle => resize(&shared, &mut ctx, pool, n - 1),
            Pull::Stop => return,
        }
    }
}

/// Resize between jobs: the driver holds no arrays across jobs, so an
/// empty checkpoint fully describes live state.
fn resize(shared: &Shared, ctx: &mut OdinContext, pool: usize, n: usize) {
    ctx.resize(n, &OdinCheckpoint::empty());
    shared.lock_stats().resizes += 1;
    set_pool_gauge(pool, n);
}

fn run_job(shared: &Shared, ctx: &OdinContext, job: QueuedJob) {
    let tenant = job.tenant;
    let t0 = Instant::now();
    let queue_wait = t0.duration_since(job.submitted);
    let outcome = if t0 >= job.deadline {
        JobOutcome::Expired {
            at: ExpiredAt::Dispatch,
            after: queue_wait,
        }
    } else {
        let timer = obs::enabled().then(|| obs::span::span_start(obs::span::wall_now_s()));
        let outcome = execute(shared, ctx, &job, queue_wait);
        if let Some(t) = timer {
            t.finish(
                "serve",
                format!("job.{}", job.spec.class()),
                obs::span::wall_now_s(),
                &[("n", job.spec.size() as f64)],
            );
        }
        outcome
    };
    resolve(shared, &job, outcome);
    shared.release_inflight(tenant);
}

/// Why one execution attempt did not produce a result.
enum AttemptFail {
    /// Deadline passed at a hard-cancel point.
    Expired,
    /// Retrying cannot help (compile error, iteration budget).
    Permanent(String),
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker pool panic".to_string()
    }
}

/// Retry loop around [`attempt_once`]: absorb crashes with
/// `health_check` + `recover`, back off exponentially, and hard-cancel
/// at the deadline. The per-job [`CheckpointStore`] survives attempts,
/// so a solve retry resumes rather than restarts.
fn execute(
    shared: &Shared,
    ctx: &OdinContext,
    job: &QueuedJob,
    queue_wait: Duration,
) -> JobOutcome {
    let t0 = Instant::now();
    let store: CheckpointStore<f64> = CheckpointStore::new();
    let mut attempts = 0u32;
    let mut recoveries = 0u32;
    loop {
        attempts += 1;
        shared.lock_stats().attempts += 1;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            attempt_once(ctx, &job.spec, &store, job.deadline)
        }));
        let crash = match result {
            Ok(Ok(data)) => {
                return JobOutcome::Completed {
                    data,
                    workers: ctx.n_workers(),
                    attempts,
                    recoveries,
                    queue_wait,
                    service: t0.elapsed(),
                }
            }
            Ok(Err(AttemptFail::Expired)) => {
                return JobOutcome::Expired {
                    at: ExpiredAt::Running,
                    after: job.submitted.elapsed(),
                }
            }
            Ok(Err(AttemptFail::Permanent(error))) => {
                return JobOutcome::Failed { attempts, error }
            }
            // A pool fault (worker killed or timed out mid-collective)
            // unwinds out of the attempt as a panic — the transient case.
            Err(p) => panic_text(p),
        };
        // Transient fault: heal the pool if it needs it, then retry.
        if ctx.health_check().is_err() {
            let report = ctx.recover(&OdinCheckpoint::empty());
            recoveries += 1;
            shared.lock_stats().recoveries += 1;
            debug_assert_eq!(report.respawned, ctx.n_workers());
        }
        if attempts >= MAX_ATTEMPTS {
            return JobOutcome::Failed {
                attempts,
                error: format!("retries exhausted after {attempts} attempts: {crash}"),
            };
        }
        let now = Instant::now();
        if now >= job.deadline {
            return JobOutcome::Expired {
                at: ExpiredAt::Running,
                after: job.submitted.elapsed(),
            };
        }
        let exp = BACKOFF_BASE.saturating_mul(1u32 << (attempts - 1).min(16));
        let backoff = exp.min(BACKOFF_MAX).min(job.deadline - now);
        std::thread::sleep(backoff);
        shared.lock_stats().retries += 1;
    }
}

/// One fault-free execution path for a spec. Panics (worker death mid
/// collective) unwind to [`execute`]'s `catch_unwind`.
fn attempt_once(
    ctx: &OdinContext,
    spec: &JobSpec,
    store: &CheckpointStore<f64>,
    deadline: Instant,
) -> Result<Vec<f64>, AttemptFail> {
    match *spec {
        JobSpec::Array { seed, n } => {
            // y = x·x + x on seeded x — deterministic per (seed, n)
            // regardless of worker count (global-index-keyed fill).
            let x = ctx.random_dist(&[n], seed, Dist::Block);
            let y = &x * &x;
            let z = &y + &x;
            Ok(z.to_vec())
        }
        JobSpec::Kernel { seed, n } => {
            let k = ctx
                .compile_kernel(KERNEL_SRC, "serve_poly")
                .map_err(|e| AttemptFail::Permanent(format!("kernel compile failed: {e}")))?;
            let x = ctx.random_dist(&[n], seed, Dist::Block);
            Ok(k.map(&[&x]).to_vec())
        }
        JobSpec::Solve { seed, n } => solve_attempt(ctx, seed, n, store, deadline),
    }
}

/// Chunked, checkpointed CG on the worker pool. Runs
/// [`SOLVE_CHUNK_ITERS`] at a time so the deadline gets a hard-cancel
/// point between chunks; each chunk resumes from the newest common
/// checkpoint (also the retry resume point after a mid-solve kill).
fn solve_attempt(
    ctx: &OdinContext,
    seed: u64,
    n: usize,
    store: &CheckpointStore<f64>,
    deadline: Instant,
) -> Result<Vec<f64>, AttemptFail> {
    let x_arr = ctx.zeros(&[n], DType::F64);
    let shift = (seed % 997) as f64 * 1e-3;
    let mut hi = SOLVE_CHUNK_ITERS.min(SOLVE_MAX_ITER);
    loop {
        let resume = Arc::new(store.resume_point(ctx.n_workers()));
        let status: Arc<Mutex<Option<SolveStatus>>> = Arc::new(Mutex::new(None));
        let status2 = Arc::clone(&status);
        let resume2 = Arc::clone(&resume);
        let store2 = store.clone();
        ctx.run_spmd(&[&x_arr], move |scope, args| {
            let x_id = args[0];
            let xv0 = scope.as_dist_vector(x_id);
            let map = xv0.map().clone();
            // Seeded SPD tridiagonal system: strictly diagonally
            // dominant, so CG converges for every seed.
            let a = CsrMatrix::from_row_fn(scope.comm, map.clone(), map, move |g| {
                let mut row = Vec::with_capacity(3);
                if g > 0 {
                    row.push((g - 1, -1.0));
                }
                row.push((g, 2.5 + (g % 3) as f64 * 0.25));
                if g + 1 < n {
                    row.push((g + 1, -1.0));
                }
                row
            });
            let b = DistVector::from_fn(a.domain_map().clone(), move |g| {
                ((g as f64) * 0.3 + shift).cos()
            });
            let mut xv = DistVector::zeros(a.domain_map().clone());
            let rank = scope.rank();
            let store3 = store2.clone();
            let sink = move |c| store3.record(rank, c);
            let kcfg = KrylovConfig {
                max_iter: hi,
                ..KrylovConfig::default()
            };
            let ckp = CgCheckpointing {
                every: SOLVE_CHECKPOINT_EVERY,
                sink: Some(&sink),
                resume: resume2.as_ref().as_ref().map(|v| &v[rank]),
            };
            let st = cg_checkpointed(scope.comm, &a, &b, &mut xv, &IdentityPrecond, &kcfg, &ckp);
            scope.store_dist_vector(x_id, &xv);
            if rank == 0 {
                *status2.lock().unwrap_or_else(|p| p.into_inner()) = Some(st);
            }
        });
        let st = status
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("worker 0 reports solve status");
        if st.converged {
            return Ok(x_arr.to_vec());
        }
        if hi >= SOLVE_MAX_ITER {
            return Err(AttemptFail::Permanent(format!(
                "CG did not converge within {SOLVE_MAX_ITER} iterations"
            )));
        }
        if Instant::now() >= deadline {
            // Hard cancel at the chunk boundary.
            return Err(AttemptFail::Expired);
        }
        hi = (hi + SOLVE_CHUNK_ITERS).min(SOLVE_MAX_ITER);
    }
}

/// The fault-free oracle: what a job's [`JobOutcome::Completed`] data
/// must equal, bitwise, when run at `workers` workers — computed on a
/// fresh clean pool. Tests and the E23 bench compare chaos-run results
/// against this.
pub fn reference_result(spec: &JobSpec, workers: usize) -> Vec<f64> {
    let ctx = OdinContext::with_workers(workers);
    let store = CheckpointStore::new();
    let deadline = Instant::now() + Duration::from_secs(3600);
    attempt_once(&ctx, spec, &store, deadline)
        .unwrap_or_else(|_| panic!("reference run must succeed for {spec:?}"))
}
