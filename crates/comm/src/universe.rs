//! Job launcher: spawns one thread per rank and collects results.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::collectives::CollectiveAlgo;
use crate::comm::{Comm, EnvKind, Envelope};
use crate::error::CommError;
use crate::fault::{Delivery, FaultPlan};
use crate::model::NetworkModel;
use crate::payload::Payload;
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
                    scope.spawn(move || rank_body(rank, senders, rx, None, config, start, f))
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

/// Tells the host its rank's program is over, however it ended.
struct GoneNotice {
    rank: usize,
    host: Option<HostTx>,
}

impl Drop for GoneNotice {
    fn drop(&mut self) {
        if let Some(host) = &self.host {
            // Best effort: the host may be gone first.
            let _ = host.send((self.rank, HostEvent::Gone));
        }
    }
}

/// What every rank thread does around its program.
fn rank_body<R>(
    rank: usize,
    senders: Senders,
    rx: Receiver<Envelope>,
    host: Option<HostTx>,
    config: &UniverseConfig,
    start: &Barrier,
    program: impl FnOnce(&mut Comm) -> R,
) -> RankOutcome<R> {
    let _obs = obs::RankGuard::enter(rank);
    let mut comm = Comm::new_world(rank, senders.len(), senders, rx, host.clone(), config);
    // Every rank thread exists before any rank program runs (what
    // `MPI_Init` guarantees): a message to a rank that has not been
    // spawned yet would sit unacknowledged for as long as spawning
    // takes, and reliable delivery would retransmit healthy traffic.
    start.wait();
    let result = {
        // Posted when the program returns or unwinds, and before
        // `quiesce`, which can keep a killed rank's mailbox open for
        // seconds: a supervisor learns of the death as an event, after
        // the rank's last answer (one sender, one FIFO).
        let _gone = GoneNotice { rank, host };
        program(&mut comm)
    };
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

/// What a rank put in the host's mailbox.
#[derive(Debug)]
pub enum HostEvent {
    /// A payload from [`Comm::send_host`].
    Msg(Payload),
    /// The rank's program returned or unwound; it sends nothing more.
    Gone,
}

pub(crate) type HostTx = Sender<(usize, HostEvent)>;

/// The spawning thread's endpoint into a detached job (see
/// [`Universe::spawn`]): it posts payloads into the ranks' own mailboxes
/// and owns one mailbox the ranks answer into. Host traffic is control
/// plane — outside the fault plan, the seq/ack layer, the virtual clock
/// and [`CommStats`]. Dropping the host closes it: every rank's
/// [`Comm::recv_host`] fails once it has drained what was posted.
pub struct Host {
    senders: Senders,
    /// Only ranks hold senders to this, so it disconnects when the last
    /// rank thread is gone.
    rx: Receiver<(usize, HostEvent)>,
}

impl Host {
    /// Post `payload` (and the `obs` flow id of the dispatch, 0 for
    /// none) to `rank`. Fails only once that rank's thread has exited.
    pub fn post(&self, rank: usize, payload: Payload, flow: u64) -> Result<(), CommError> {
        self.senders[rank]
            .send(Envelope::control(EnvKind::Host, payload, flow))
            .map_err(|_| CommError::Disconnected)
    }

    /// Next event from any rank, as `(rank, event)`; one rank's events
    /// arrive in the order it sent them, its [`HostEvent::Gone`] last.
    /// Blocks up to `limit` (`None`: indefinitely) and returns `Ok(None)`
    /// when it expires; [`CommError::Disconnected`] once every rank
    /// thread has exited and the mailbox is drained.
    pub fn recv(&self, limit: Option<Duration>) -> Result<Option<(usize, HostEvent)>, CommError> {
        match limit {
            None => self
                .rx
                .recv()
                .map(Some)
                .map_err(|_| CommError::Disconnected),
            Some(limit) => match self.rx.recv_timeout(limit) {
                Ok(event) => Ok(Some(event)),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected),
            },
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        // A rank's mailbox never disconnects while its peers hold
        // senders, so closing is an envelope too.
        for tx in self.senders.iter() {
            let _ = tx.send(Envelope::control(
                EnvKind::HostClosed,
                Payload::Bytes(Vec::new()),
                0,
            ));
        }
    }
}

impl Universe {
    /// Spawn a job whose ranks outlive the caller (a persistent worker
    /// pool — the shape of ODIN's worker processes), and the [`Host`]
    /// endpoint through which the caller feeds and hears them.
    pub fn spawn<R, F>(config: UniverseConfig, size: usize, f: F) -> (Host, Detached<R>)
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        obs::init_from_env();
        let (senders, receivers) = mailboxes(size);
        let (host_tx, host_rx) = channel();
        let f = Arc::new(f);
        let start = Arc::new(Barrier::new(size));
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                let senders = Arc::clone(&senders);
                let host_tx = Some(host_tx.clone());
                let f = Arc::clone(&f);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    rank_body(rank, senders, rx, host_tx, &config, &start, &*f)
                })
            })
            .collect();
        let host = Host {
            senders,
            rx: host_rx,
        };
        (host, Detached { handles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReduceOp, Src};

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

    fn bytes_of(event: HostEvent) -> Vec<u8> {
        match event {
            HostEvent::Msg(payload) => payload.into_wire_bytes().unwrap(),
            HostEvent::Gone => panic!("rank gone before it answered"),
        }
    }

    #[test]
    fn spawn_round_trips_through_the_host() {
        let (host, pool) = Universe::spawn(UniverseConfig::default(), 3, |comm| {
            // wait for a value from the host, allreduce it, answer
            let (payload, flow) = comm.recv_host().unwrap();
            assert_eq!(flow, 7);
            let v = u64::from(payload.into_wire_bytes().unwrap()[0]);
            let sum = comm.allreduce(&v, ReduceOp::sum());
            comm.send_host(Payload::Bytes(vec![sum as u8])).unwrap();
            sum
        });
        for rank in 0..3 {
            host.post(rank, Payload::Bytes(vec![rank as u8 + 1]), 7)
                .unwrap();
        }
        // Per rank: its answer, then the notice that its program ended.
        let mut answered = [false; 3];
        let mut gone = 0;
        while gone < 3 {
            match host.recv(None).unwrap().unwrap() {
                (rank, HostEvent::Gone) => {
                    assert!(answered[rank], "the notice follows the last answer");
                    gone += 1;
                }
                (rank, event) => {
                    assert_eq!(bytes_of(event), vec![6]);
                    answered[rank] = true;
                }
            }
        }
        assert_eq!(pool.join().results, vec![6, 6, 6]);
        // The host holds no sender to its own mailbox: with every rank
        // thread gone it reads as disconnected, not as silence.
        assert_eq!(host.recv(None).unwrap_err(), CommError::Disconnected);
    }

    #[test]
    fn dropping_the_host_closes_recv_host_after_the_backlog() {
        let (host, pool) = Universe::spawn(UniverseConfig::default(), 2, |comm| {
            let mut seen = Vec::new();
            loop {
                match comm.recv_host() {
                    Ok((payload, _)) => seen.extend(payload.into_wire_bytes().unwrap()),
                    Err(e) => return (seen, e),
                }
            }
        });
        host.post(1, Payload::Bytes(vec![1]), 0).unwrap();
        host.post(1, Payload::Bytes(vec![2]), 0).unwrap();
        drop(host);
        let out = pool.join().results;
        assert_eq!(out[0], (vec![], CommError::Disconnected));
        assert_eq!(out[1], (vec![1, 2], CommError::Disconnected));
        // A job launched without a host is closed from the start.
        let hostless = Universe::run(1, |comm| comm.recv_host().map(|_| ()).unwrap_err());
        assert_eq!(hostless, vec![CommError::Disconnected]);
    }

    #[test]
    fn host_posts_queue_beside_tag_matching_and_keep_their_order() {
        const POSTS: usize = 10_000;
        let cfg = UniverseConfig::default().with_stall_timeout(Duration::from_secs(20));
        let (host, pool) = Universe::spawn(cfg, 2, |comm| {
            if comm.rank() == 1 {
                // Hold rank 0 inside the allreduce until its backlog is in.
                comm.recv_host().unwrap();
            }
            let sum = comm.allreduce(&1u64, ReduceOp::sum());
            assert_eq!(sum, 2);
            if comm.rank() == 1 {
                return;
            }
            // Every post reached this rank's mailbox ahead of rank 1's
            // half of the allreduce, so intake has seen them all: none
            // may sit in the tag-matched list a failed receive reports.
            let stalled = comm
                .recv_timeout::<u8>(Src::Any, 9, Duration::from_millis(10))
                .unwrap_err();
            assert!(
                matches!(stalled, CommError::Stalled { queued: 0, .. }),
                "{stalled}"
            );
            for i in 0..POSTS {
                let (payload, flow) = comm.recv_host().unwrap();
                assert_eq!(flow, i as u64);
                assert_eq!(payload.wire_len(), i % 7);
            }
        });
        for i in 0..POSTS {
            host.post(0, Payload::Bytes(vec![0; i % 7]), i as u64)
                .unwrap();
        }
        host.post(1, Payload::Bytes(Vec::new()), 0).unwrap();
        let report = pool.join();
        // Host traffic is invisible to the model and the counters: two
        // ranks exchanged one allreduce message each, nothing else.
        for st in &report.stats {
            assert_eq!((st.msgs_sent, st.msgs_recv), (1, 1));
        }
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
