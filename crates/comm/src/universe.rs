//! Job launcher: spawns one thread per rank and collects results.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use std::sync::mpsc::{channel, Receiver, Sender};

use crate::collectives::CollectiveAlgo;
use crate::comm::{Comm, Envelope};
use crate::fault::{Delivery, FaultPlan};
use crate::model::NetworkModel;
use crate::stats::CommStats;

/// Configuration for a run: the cost model and collective algorithm.
#[derive(Debug, Clone, Copy)]
pub struct UniverseConfig {
    /// LogGP constants used by every rank's virtual clock.
    pub model: NetworkModel,
    /// Collective algorithm family. The default, [`CollectiveAlgo::Auto`],
    /// picks per call from `model`; a fixed family is for ablation (E12,
    /// E19) and changes wire patterns, modeled time and — away from
    /// power-of-two rank counts — floating-point bracketing.
    pub algo: CollectiveAlgo,
    /// Encoded-equivalent payload size, in bytes, at or above which the
    /// typed zero-copy send paths ship an `Arc`-backed region handle
    /// instead of encoding (see the `payload` module). Modeled time is
    /// arm-independent, so this only moves wall-clock cost; set it to
    /// `usize::MAX` to force the encode path everywhere (parity tests do).
    pub zerocopy_threshold: usize,
    /// When `true`, typed zero-copy sends stamp each region with an
    /// FNV-1a digest of the value's wire encoding and typed zero-copy
    /// receives re-encode and verify it, surfacing a mismatch as
    /// [`crate::CommError::Corrupt`]. Off by default: in-process region
    /// handles cannot bit-rot in flight, so the check exists to catch
    /// aliasing bugs (a sender mutating a value it still shares with an
    /// in-flight retransmit copy) at the cost of re-serializing — it
    /// deliberately trades away the zero-copy CPU win while keeping the
    /// zero-copy allocation behavior.
    pub region_integrity: bool,
    /// Wall-clock deadline for blocking receives and request waits; a
    /// rank blocked longer returns [`crate::CommError::Stalled`] with
    /// who/tag/src diagnostics instead of hanging forever. `None`
    /// (default) blocks indefinitely.
    pub stall_timeout: Option<std::time::Duration>,
    /// Seeded fault schedule injected into every rank's transmissions.
    /// The default plan injects nothing.
    pub fault: FaultPlan,
    /// How envelopes travel: [`Delivery::Raw`] (default) delivers
    /// directly and lets injected faults stand; [`Delivery::Reliable`]
    /// layers seq/ack/retransmit/dup-suppression on top so drop, dup and
    /// corrupt faults are healed transparently (see E18).
    pub delivery: Delivery,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            model: NetworkModel::default(),
            algo: CollectiveAlgo::default(),
            zerocopy_threshold: crate::payload::DEFAULT_ZEROCOPY_THRESHOLD,
            region_integrity: false,
            stall_timeout: None,
            fault: FaultPlan::default(),
            delivery: Delivery::default(),
        }
    }
}

impl UniverseConfig {
    /// Set the collective algorithm family.
    #[must_use]
    pub fn with_algo(mut self, algo: CollectiveAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Set the zero-copy region threshold (bytes of encoded-equivalent
    /// payload). `usize::MAX` disables region transfer entirely.
    #[must_use]
    pub fn with_zerocopy_threshold(mut self, bytes: usize) -> Self {
        self.zerocopy_threshold = bytes;
        self
    }

    /// Enable (or disable) the FNV integrity check on zero-copy region
    /// payloads. See [`UniverseConfig::region_integrity`].
    #[must_use]
    pub fn with_region_integrity(mut self, on: bool) -> Self {
        self.region_integrity = on;
        self
    }

    /// Set the blocking-receive deadline.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Set the injected fault schedule.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Set the delivery mode.
    #[must_use]
    pub fn with_delivery(mut self, delivery: Delivery) -> Self {
        self.delivery = delivery;
        self
    }
}

/// Everything measured about one run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank communication counters.
    pub stats: Vec<CommStats>,
    /// Modeled cluster makespan: the maximum virtual clock over all ranks.
    pub makespan_s: f64,
    /// Measured wall-clock duration of the whole job.
    pub wall_s: f64,
}

/// Entry point: `Universe::run(P, |comm| …)` executes the closure on `P`
/// ranks (threads) and returns their results in rank order.
pub struct Universe;

impl Universe {
    /// Run with default configuration, returning only the results.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::run_report(UniverseConfig::default(), size, f).results
    }

    /// Run with explicit configuration, returning the full report.
    pub fn run_report<R, F>(config: UniverseConfig, size: usize, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        obs::init_from_env();
        let (senders, receivers) = mailboxes(size);
        let (f, config) = (&f, &config);
        let start = Barrier::new(size);
        let start = &start;
        let t0 = Instant::now();
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let senders = Arc::clone(&senders);
                    scope.spawn(move || rank_body(rank, senders, rx, config, start, f))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        RunReport::assemble(outcomes, t0.elapsed().as_secs_f64())
    }
}

type Senders = Arc<Vec<Sender<Envelope>>>;
type RankOutcome<R> = (R, CommStats, f64);

/// One mailbox per rank: everyone's sending half, shared, and each
/// rank's own receiving half.
fn mailboxes(size: usize) -> (Senders, Vec<Receiver<Envelope>>) {
    assert!(size > 0, "a job needs at least one rank");
    let (senders, receivers) = (0..size).map(|_| channel::<Envelope>()).unzip();
    (Arc::new(senders), receivers)
}

/// What every rank thread does around its program.
fn rank_body<R>(
    rank: usize,
    senders: Senders,
    rx: Receiver<Envelope>,
    config: &UniverseConfig,
    start: &Barrier,
    program: impl FnOnce(&mut Comm) -> R,
) -> RankOutcome<R> {
    let _obs = obs::RankGuard::enter(rank);
    let mut comm = Comm::new_world(rank, senders.len(), senders, rx, config);
    // Every rank thread exists before any rank program runs (what
    // `MPI_Init` guarantees): a message to a rank that has not been
    // spawned yet would sit unacknowledged for as long as spawning
    // takes, and reliable delivery would retransmit healthy traffic.
    start.wait();
    let result = program(&mut comm);
    // Heal any still-unacked reliable sends before the rank's mailbox
    // goes away.
    comm.quiesce();
    (result, comm.stats(), comm.virtual_time())
}

impl<R> RunReport<R> {
    /// Collect joined ranks in rank order; a rank's panic resumes here.
    fn assemble(
        outcomes: impl IntoIterator<Item = std::thread::Result<RankOutcome<R>>>,
        wall_s: f64,
    ) -> Self {
        let mut report = RunReport {
            results: Vec::new(),
            stats: Vec::new(),
            makespan_s: 0.0,
            wall_s,
        };
        for out in outcomes {
            let (r, st, clock) = out.unwrap_or_else(|e| std::panic::resume_unwind(e));
            report.results.push(r);
            report.stats.push(st);
            report.makespan_s = report.makespan_s.max(clock);
        }
        report
    }
}

/// A running detached job (see [`Universe::spawn`]).
pub struct Detached<R> {
    handles: Vec<std::thread::JoinHandle<RankOutcome<R>>>,
}

impl<R> Detached<R> {
    /// Wait for every rank and assemble the report.
    pub fn join(self) -> RunReport<R> {
        RunReport::assemble(self.handles.into_iter().map(|h| h.join()), 0.0)
    }

    /// Wait for every rank, swallowing panics instead of resuming them.
    /// A supervisor tearing down a pool that may have died (killed or
    /// stalled workers) must not re-panic mid-cleanup. Returns the number
    /// of ranks that panicked.
    pub fn join_quiet(self) -> usize {
        self.handles
            .into_iter()
            .map(|h| h.join())
            .filter(|r| r.is_err())
            .count()
    }

    /// Abandon the pool without joining: the threads are detached and
    /// exit with the process. Used when workers may be blocked forever
    /// (e.g. stuck in a collective with a killed peer).
    pub fn abandon(self) {
        drop(self.handles);
    }
}

impl Universe {
    /// Spawn a job whose ranks outlive the caller (a persistent worker
    /// pool — the shape of ODIN's worker processes). The closure receives
    /// `(comm, rank)`; per-rank inputs should be moved in via `seed_fn`,
    /// which is called once per rank on the spawning thread.
    pub fn spawn<R, T, F, G>(config: UniverseConfig, size: usize, seed_fn: G, f: F) -> Detached<R>
    where
        R: Send + 'static,
        T: Send + 'static,
        F: Fn(&mut Comm, T) -> R + Send + Sync + 'static,
        G: FnMut(usize) -> T,
    {
        obs::init_from_env();
        let mut seed_fn = seed_fn;
        let (senders, receivers) = mailboxes(size);
        let f = Arc::new(f);
        let start = Arc::new(Barrier::new(size));
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                let senders = Arc::clone(&senders);
                let f = Arc::clone(&f);
                let start = Arc::clone(&start);
                let seed = seed_fn(rank);
                std::thread::spawn(move || {
                    rank_body(rank, senders, rx, &config, &start, |comm| f(comm, seed))
                })
            })
            .collect();
        Detached { handles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;

    #[test]
    fn results_come_back_in_rank_order() {
        let out = Universe::run(6, |comm| comm.rank() * comm.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = Universe::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.allreduce(&5i32, ReduceOp::sum())
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Universe::run(0, |_comm| ());
    }

    #[test]
    fn report_includes_makespan_and_stats() {
        let report = Universe::run_report(UniverseConfig::default(), 3, |comm| {
            comm.advance_compute(1.0e6);
            comm.barrier();
        });
        // Every rank computed 1 Mflop at the default 2 Gflop/s: ≥ 0.5 ms.
        assert!(report.makespan_s >= 5.0e-4);
        assert_eq!(report.stats.len(), 3);
        assert!(report.wall_s > 0.0);
        // Dissemination barrier on 3 ranks: 2 rounds, 2 sends per rank.
        assert_eq!(report.stats[0].msgs_sent, 2);
    }

    #[test]
    fn rank_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Universe::run(2, |comm| {
                if comm.rank() == 1 {
                    panic!("worker exploded");
                }
                // rank 0 returns without waiting on rank 1
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn spawn_runs_detached_pool() {
        use std::sync::mpsc::channel as chan;
        let mut inboxes = Vec::new();
        let detached = Universe::spawn(
            UniverseConfig::default(),
            3,
            |_rank| {
                let (tx, rx) = chan::<u64>();
                inboxes.push(tx);
                rx
            },
            |comm, rx| {
                // wait for a value from the spawner, then allreduce it
                let v = rx.recv().unwrap();
                comm.allreduce(&v, ReduceOp::sum())
            },
        );
        for (i, tx) in inboxes.iter().enumerate() {
            tx.send(i as u64 + 1).unwrap();
        }
        let report = detached.join();
        assert_eq!(report.results, vec![6, 6, 6]);
    }

    #[test]
    fn zero_model_keeps_clock_at_zero() {
        let cfg = UniverseConfig {
            model: NetworkModel::zero(),
            ..Default::default()
        };
        let report = Universe::run_report(cfg, 4, |comm| {
            comm.allreduce(&1u64, ReduceOp::sum());
        });
        assert_eq!(report.makespan_s, 0.0);
    }
}
