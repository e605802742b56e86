//! `serve_mix` — the request path. One serving plane (1 pool x 2
//! workers), tenants `a` (weight 1) and `b` (weight 2), one client thread
//! per tenant keeping exactly one job outstanding (closed loop, two
//! clients). Jobs are a seeded mix of 68 % array, 30 % kernel and 2 %
//! solve requests, all small, so admission, the stride scheduler, the
//! pool inbox and the ticket — `serve`'s own overhead — dominate and
//! `odin`/`solvers` are a minority share. An op is one job, timed from
//! just before `Session::submit` to `JobTicket::wait` returning.
//!
//! Solve jobs are 1 in 50 because a small CG solve on two workers is
//! some eighty worker-to-worker synchronisations, and those are bistable
//! on this host: a few microseconds each while both workers spin on
//! their own core, ten times that once one of them parks. At 1 in 5 the
//! solves took four fifths of the pool's time and the whole workload
//! measured which of the two states a process fell into (940 or 4200
//! jobs/s). At 1 in 20 the solves and the jobs queued behind them were a
//! tenth of all jobs, so the 90th percentile sat on the edge between the two
//! populations. At 1 in 50 both percentiles are array and kernel jobs;
//! the solves are the tail beyond (`serve.job_p99_ms`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hpc_framework::obs::SplitMix64;
use hpc_framework::prelude::*;
use hpc_framework::seamless::codegen;
use hpc_framework::serve::{reference_result, Session};

use super::{cpu_seconds, Outcome, Params, PARTS};
use crate::spans::{merge, Span, Tracer};
use crate::stats::{percentile, sorted};

pub const TENANTS: [(&str, f64); 2] = [("a", 1.0), ("b", 2.0)];
/// Array and kernel sizes: a log-uniform grid over 256..4096. A grid
/// (not a continuum) keeps the set of distinct specs small enough to
/// compute one reference result each after the run.
pub const SIZES: [usize; 9] = [256, 362, 512, 724, 1024, 1448, 2048, 2896, 4096];
pub const SOLVE_SIZES: [usize; 3] = [32, 64, 128];
pub const FILL_SEEDS: u64 = 4;
const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];
const BUDGET: Duration = Duration::from_secs(30);

/// FNV-1a over the f64 bit patterns: results are compared bitwise.
pub fn bit_hash(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn draw_spec(rng: &mut SplitMix64) -> JobSpec {
    let class = rng.next_f64();
    let seed = rng.gen_index(FILL_SEEDS as usize) as u64;
    if class < 0.68 {
        JobSpec::Array {
            seed,
            n: SIZES[rng.gen_index(SIZES.len())],
        }
    } else if class < 0.98 {
        JobSpec::Kernel {
            seed,
            n: SIZES[rng.gen_index(SIZES.len())],
        }
    } else {
        JobSpec::Solve {
            seed,
            n: SOLVE_SIZES[rng.gen_index(SOLVE_SIZES.len())],
        }
    }
}

/// Orderable identity of a spec (`JobSpec` is not `Ord`).
fn spec_key(spec: &JobSpec) -> (u8, u64, usize) {
    match *spec {
        JobSpec::Array { seed, n } => (0, seed, n),
        JobSpec::Kernel { seed, n } => (1, seed, n),
        JobSpec::Solve { seed, n } => (2, seed, n),
    }
}

/// The layer a completed job's service time is spent in, as far as an
/// outside observer can tell: solve jobs run `solvers::cg` on the pool,
/// array and kernel jobs run ODIN statements.
fn service_layer(spec: &JobSpec) -> &'static str {
    match spec {
        JobSpec::Solve { .. } => "solvers",
        _ => "odin",
    }
}

pub enum Resolution {
    Completed {
        hash: u64,
        elems: usize,
        workers: usize,
        attempts: u32,
        queue_wait_ms: f64,
        service_ms: f64,
    },
    /// Admission refused the submission.
    Refused,
    /// Admitted but shed, expired or failed.
    Unserved,
}

pub struct Job {
    pub spec: JobSpec,
    pub lat_ms: f64,
    pub resolution: Resolution,
}

pub struct Mix {
    pub jobs: Vec<Job>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub spans: Vec<Span>,
}

pub fn plane() -> ServePlane {
    ServePlane::new(ServeConfig {
        n_pools: 1,
        workers_per_pool: PARTS,
        tenants: TENANTS
            .iter()
            .map(|&(name, weight)| {
                (
                    name.to_string(),
                    TenantQuota {
                        weight,
                        ..TenantQuota::default()
                    },
                )
            })
            .collect(),
        ..ServeConfig::default()
    })
}

fn submit_and_wait(
    tr: &mut Tracer,
    session: &Session<'_>,
    spec: JobSpec,
    priority: Priority,
    op: u64,
) -> Job {
    let t = Instant::now();
    let resolution = tr.span("bench", "op", op, |tr| {
        let req = JobRequest {
            spec: spec.clone(),
            priority,
            budget: BUDGET,
        };
        let Ok(ticket) = tr.span("serve", "submit", op, |_| session.submit(req)) else {
            return Resolution::Refused;
        };
        match tr.span("serve", "wait", op, |_| ticket.wait()) {
            JobOutcome::Completed {
                data,
                workers,
                attempts,
                queue_wait,
                service,
                ..
            } => {
                tr.reconstruct(&[(service_layer(&spec), "service", service.as_nanos() as f64)]);
                Resolution::Completed {
                    hash: bit_hash(&data),
                    elems: data.len(),
                    workers,
                    attempts,
                    queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
                    service_ms: service.as_secs_f64() * 1e3,
                }
            }
            _shed_expired_or_failed => Resolution::Unserved,
        }
    });
    Job {
        spec,
        lat_ms: t.elapsed().as_secs_f64() * 1e3,
        resolution,
    }
}

/// The closed loop: one client thread per tenant, each submitting its
/// next job when the previous one resolved, for `seconds`.
pub fn drive(plane: &ServePlane, seed: u64, seconds: f64, trace_epoch: Option<Instant>) -> Mix {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let per_client: Vec<(Vec<Job>, Vec<Span>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = TENANTS
            .iter()
            .enumerate()
            .map(|(c, &(tenant, _))| {
                scope.spawn(move || {
                    let session = plane.session(tenant).expect("tenant is registered");
                    let mut rng =
                        SplitMix64::new(seed ^ (c as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93));
                    let mut tr = trace_epoch.map_or_else(Tracer::off, |e| Tracer::on(e, c as u32));
                    let mut jobs = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = jobs.len();
                        let op = (i * TENANTS.len() + c) as u64;
                        let spec = draw_spec(&mut rng);
                        jobs.push(submit_and_wait(
                            &mut tr,
                            &session,
                            spec,
                            PRIORITIES[i % 3],
                            op,
                        ));
                    }
                    (jobs, tr.finish())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let (jobs, spans): (Vec<_>, Vec<_>) = per_client.into_iter().unzip();
    Mix {
        jobs: jobs.into_iter().flatten().collect(),
        wall_s,
        cpu_s,
        spans: merge(spans),
    }
}

/// Memoized bitwise oracle: one fault-free reference run per distinct
/// (spec, pool size).
#[derive(Default)]
pub struct Oracle {
    memo: BTreeMap<((u8, u64, usize), usize), u64>,
}

impl Oracle {
    pub fn want(&mut self, spec: &JobSpec, workers: usize) -> u64 {
        *self
            .memo
            .entry((spec_key(spec), workers))
            .or_insert_with(|| bit_hash(&reference_result(spec, workers)))
    }

    /// A job passes only if it completed and its bits match the oracle.
    pub fn passes(&mut self, job: &Job) -> bool {
        match job.resolution {
            Resolution::Completed { hash, workers, .. } => hash == self.want(&job.spec, workers),
            _ => false,
        }
    }
}

/// The serve layer's own numbers over one mix.
pub fn layer_metrics(mix: &Mix) -> Vec<(&'static str, f64)> {
    let (mut waits, mut services, mut overheads, mut lats) = (vec![], vec![], vec![], vec![]);
    let (mut elems, mut attempts, mut refused) = (0usize, 0u64, 0u64);
    for job in &mix.jobs {
        match job.resolution {
            Resolution::Completed {
                elems: e,
                attempts: a,
                queue_wait_ms,
                service_ms,
                ..
            } => {
                waits.push(queue_wait_ms);
                services.push(service_ms);
                overheads.push(job.lat_ms - queue_wait_ms - service_ms);
                lats.push(job.lat_ms);
                elems += e;
                attempts += u64::from(a);
            }
            Resolution::Refused => refused += 1,
            Resolution::Unserved => {}
        }
    }
    let p = |v: &[f64], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&sorted(v), q)
        }
    };
    let done = lats.len().max(1) as f64;
    vec![
        ("serve.queue_wait_p50_ms", p(&waits, 0.5)),
        ("serve.service_p50_ms", p(&services, 0.5)),
        ("serve.overhead_p50_ms", p(&overheads, 0.5)),
        (
            "serve.pool_busy_share",
            services.iter().sum::<f64>() / 1e3 / mix.wall_s,
        ),
        ("serve.job_p99_ms", p(&lats, 0.99)),
        ("serve.goodput_elems_s", elems as f64 / mix.wall_s),
        ("serve.attempts_per_job", attempts as f64 / done),
        (
            "serve.refused_share",
            refused as f64 / mix.jobs.len().max(1) as f64,
        ),
    ]
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut oracle = Oracle::default();
    let mut ledgers = Vec::new();
    for round in 0..p.rounds {
        let t0 = Instant::now();
        let plane = plane();
        // first ops: one job of each class through the whole request path
        let first: Vec<Job> = {
            let session = plane.session(TENANTS[0].0).expect("tenant is registered");
            [
                JobSpec::Array {
                    seed: p.seed % FILL_SEEDS,
                    n: SIZES[0],
                },
                JobSpec::Kernel {
                    seed: p.seed % FILL_SEEDS,
                    n: SIZES[0],
                },
                JobSpec::Solve {
                    seed: p.seed % FILL_SEEDS,
                    n: SOLVE_SIZES[0],
                },
            ]
            .into_iter()
            .map(|spec| submit_and_wait(&mut Tracer::off(), &session, spec, Priority::Normal, 0))
            .collect()
        };
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += first.len() as u64;
        out.failed += first.iter().filter(|j| !oracle.passes(j)).count() as u64;
        let gen0 = codegen::stats();
        // every round draws its own stretch of the seeded mix
        let mix = drive(
            &plane,
            p.seed.wrapping_add(round as u64),
            p.round_seconds(),
            p.traced.then_some(t0),
        );
        let gen1 = codegen::stats();
        let ledger = plane.shutdown();
        out.attempted += mix.jobs.len() as u64;
        out.failed += if ledger.reconciles() {
            mix.jobs.iter().filter(|j| !oracle.passes(j)).count() as u64
        } else {
            // the plane lost track of admitted work: trust none of it
            mix.jobs.len() as u64
        };
        let ops = mix.jobs.len().max(1) as f64;
        out.counters = vec![
            (
                "seamless.native_compiles_per_op",
                (gen1.compiled - gen0.compiled) as f64 / ops,
            ),
            (
                "seamless.cache_hits_per_op",
                (gen1.cache_hits - gen0.cache_hits) as f64 / ops,
            ),
        ];
        ledgers.push(format!(
            "{}/{} completed",
            ledger.completed, ledger.admitted
        ));
        out.rounds.push(mix.jobs.iter().map(|j| j.lat_ms).collect());
        out.wall_s += mix.wall_s;
        out.round_wall_s.push(mix.wall_s);
        out.cpu_s += mix.cpu_s;
        out.add_spans(mix.spans);
    }
    out.notes.push(format!(
        "{} closed-loop clients, {} distinct specs checked, ledgers: {}",
        TENANTS.len(),
        oracle.memo.len(),
        ledgers.join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(spec: JobSpec, hash: u64) -> Job {
        Job {
            spec,
            lat_ms: 1.0,
            resolution: Resolution::Completed {
                hash,
                elems: 0,
                workers: PARTS,
                attempts: 1,
                queue_wait_ms: 0.2,
                service_ms: 0.5,
            },
        }
    }

    #[test]
    fn oracle_wants_the_reference_bits_and_a_completed_job() {
        let spec = JobSpec::Array { seed: 1, n: 256 };
        let mut oracle = Oracle::default();
        let want = oracle.want(&spec, PARTS);
        assert!(oracle.passes(&completed(spec.clone(), want)));
        assert!(!oracle.passes(&completed(spec.clone(), want ^ 1)));
        assert!(!oracle.passes(&Job {
            spec: spec.clone(),
            lat_ms: 1.0,
            resolution: Resolution::Refused
        }));
        assert!(!oracle.passes(&Job {
            spec,
            lat_ms: 1.0,
            resolution: Resolution::Unserved
        }));
    }

    #[test]
    fn the_mix_is_seeded_and_has_the_stated_shape() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..2000).map(|_| draw_spec(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let solves = draw(42)
            .iter()
            .filter(|s| matches!(s, JobSpec::Solve { .. }))
            .count();
        assert!(
            (20..70).contains(&solves),
            "about 2 % solve jobs, got {solves} of 2000"
        );
    }

    #[test]
    fn overhead_is_latency_minus_wait_minus_service() {
        let mix = Mix {
            jobs: vec![completed(JobSpec::Array { seed: 0, n: 256 }, 0)],
            wall_s: 1.0,
            cpu_s: 0.0,
            spans: vec![],
        };
        let m: BTreeMap<_, _> = layer_metrics(&mix).into_iter().collect();
        assert!((m["serve.overhead_p50_ms"] - 0.3).abs() < 1e-12);
        assert!((m["serve.pool_busy_share"] - 0.0005).abs() < 1e-12);
    }
}
