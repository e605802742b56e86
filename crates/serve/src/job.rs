//! Job specifications, outcomes, and the ticket handle tenants hold.
//!
//! Every job class is a **pure function of its spec and the pool size it
//! runs on**: array and kernel jobs fill their inputs from a seeded,
//! global-index-keyed generator (worker-count invariant by the E3/E20
//! determinism contracts), and solve jobs run CG whose dot-product
//! reduction order is fixed for a given worker count. That purity is what
//! lets the plane absorb a mid-job worker kill: a retry — resumed from a
//! CG checkpoint or re-run from the spec — produces results **bitwise
//! identical** to a fault-free run at the same pool size.

use std::sync::mpsc;
use std::time::Duration;

/// What a tenant asks the plane to compute. Sizes are element counts;
/// seeds make every job reproducible (and its result verifiable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// Seeded elementwise pipeline over a block-distributed array
    /// (`y = x·x + x` on `x = random(seed)`), gathered to the master.
    Array {
        /// Fill seed for the input array.
        seed: u64,
        /// Elements.
        n: usize,
    },
    /// Seeded input mapped through a Seamless-JIT kernel, gathered.
    Kernel {
        /// Fill seed for the input array.
        seed: u64,
        /// Elements.
        n: usize,
    },
    /// CG solve of a seeded SPD tridiagonal system on the worker pool,
    /// checkpointed every few iterations so a mid-solve worker kill
    /// resumes instead of restarting (see DESIGN §10).
    Solve {
        /// Seeds the right-hand side.
        seed: u64,
        /// System dimension.
        n: usize,
    },
}

impl JobSpec {
    /// Element count — the unit the bench's goodput metric sums.
    pub fn size(&self) -> usize {
        match *self {
            JobSpec::Array { n, .. } | JobSpec::Kernel { n, .. } | JobSpec::Solve { n, .. } => n,
        }
    }

    /// Short class label for metrics and spans.
    pub fn class(&self) -> &'static str {
        match self {
            JobSpec::Array { .. } => "array",
            JobSpec::Kernel { .. } => "kernel",
            JobSpec::Solve { .. } => "solve",
        }
    }
}

/// Scheduling priority. Under sustained overload the plane sheds the
/// **lowest** priority queued work first; within a tenant, higher
/// priority dispatches first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Shed first.
    Low,
    /// Default.
    Normal,
    /// Dispatched ahead of the rest, shed last.
    High,
}

/// Number of priority classes (queue lanes per tenant).
pub(crate) const N_PRIORITIES: usize = 3;

impl Priority {
    pub(crate) fn lane(self) -> usize {
        self as usize
    }
}

/// One submission: what to run, how urgent, and its deadline budget
/// (the deadline is stamped `now + budget` at admission).
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The computation.
    pub spec: JobSpec,
    /// Scheduling priority.
    pub priority: Priority,
    /// Wall-clock budget from admission to completion; the plane hard
    /// cancels the job when it expires.
    pub budget: Duration,
}

/// Where a deadline caught up with a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpiredAt {
    /// Still in its tenant queue — never dispatched.
    Queued,
    /// Taken by a pool driver in time, but past its deadline when the
    /// driver started it (after growing the pool for it).
    Dispatch,
    /// Mid-execution (checked between retries and at solve checkpoint
    /// boundaries) — the hard cancel.
    Running,
}

/// Terminal state of an admitted job. Every admitted job resolves to
/// exactly one of these — shed and expired work is counted and reported,
/// never silently dropped.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed {
        /// Gathered result (bitwise reproducible from the spec and
        /// `workers`).
        data: Vec<f64>,
        /// Pool size the job ran on (solve results depend on it).
        workers: usize,
        /// Execution attempts (1 = no retry).
        attempts: u32,
        /// Pool respawn + replay cycles absorbed along the way.
        recoveries: u32,
        /// Time from admission to first dispatch.
        queue_wait: Duration,
        /// Time from first dispatch to completion.
        service: Duration,
    },
    /// Dropped by the overload shedder while queued (lowest priority,
    /// newest first).
    Shed {
        /// Priority it was shed at.
        priority: Priority,
        /// How long it had been queued.
        queued_for: Duration,
    },
    /// The deadline budget ran out.
    Expired {
        /// Stage the deadline was detected at.
        at: ExpiredAt,
        /// Age of the job when cancelled.
        after: Duration,
    },
    /// The plane gave up: retry budget exhausted, a non-retryable
    /// error, or shutdown with the job still unresolved. Under the
    /// chaos gate (kill + straggler + overload) this variant must not
    /// occur — see EXPERIMENTS E23.
    Failed {
        /// Attempts made before giving up (0 = never dispatched).
        attempts: u32,
        /// Diagnostic.
        error: String,
    },
}

impl JobOutcome {
    /// Completed data, if any.
    pub fn data(&self) -> Option<&[f64]> {
        match self {
            JobOutcome::Completed { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Label used for metrics.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Shed { .. } => "shed",
            JobOutcome::Expired { .. } => "expired",
            JobOutcome::Failed { .. } => "failed",
        }
    }
}

/// Handle to one admitted job. The outcome arrives exactly once.
#[derive(Debug)]
pub struct JobTicket {
    /// Admission sequence number (monotonic per plane).
    pub id: u64,
    pub(crate) rx: mpsc::Receiver<JobOutcome>,
}

impl JobTicket {
    /// Block until the job resolves. If the plane is torn down without
    /// resolving the ticket (a bug — admitted work must always resolve),
    /// this reports it as a [`JobOutcome::Failed`] rather than hanging.
    pub fn wait(self) -> JobOutcome {
        self.rx.recv().unwrap_or(JobOutcome::Failed {
            attempts: 0,
            error: "serving plane dropped the job without resolving it".into(),
        })
    }

    /// Non-blocking poll; `None` while the job is still in flight.
    pub fn try_wait(&self) -> Option<JobOutcome> {
        self.rx.try_recv().ok()
    }
}
