//! Point-to-point messaging: ranks, mailboxes, tag matching, sub-communicators.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::collectives::CollectiveAlgo;
use crate::error::CommError;
use crate::fault::{Delivery, FaultPlan};
use crate::model::NetworkModel;
use crate::payload::Payload;
use crate::reliable::Retx;
use crate::stats::CommStats;
use crate::universe::HostTx;
use crate::wire::{decode_from_slice, Wire};

/// Message tag. User tags must be below [`MAX_USER_TAG`]; higher values are
/// reserved for collectives.
pub type Tag = u32;

/// Highest tag available to user code.
pub const MAX_USER_TAG: Tag = 1 << 30;

/// Source selector for [`Comm::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match a message from any rank.
    Any,
    /// Match only messages from this rank (communicator-local).
    Rank(usize),
}

/// Metadata about a received message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Status {
    /// Communicator-local rank of the sender.
    pub src: usize,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Sender's virtual clock at departure (seconds).
    pub depart: f64,
}

/// Payload class of an envelope: user data, a reliable-delivery ack, or
/// traffic from the job's [`Host`](crate::Host) — which travels outside
/// the fault plan, the seq/ack layer, the virtual clock and the stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnvKind {
    Data,
    Ack,
    Host,
    /// The host endpoint was dropped: nothing more will be posted.
    HostClosed,
}

/// One message in flight.
#[derive(Clone)]
pub(crate) struct Envelope {
    pub(crate) ctx: u64,
    pub(crate) src: usize,
    pub(crate) tag: Tag,
    pub(crate) depart: f64,
    pub(crate) payload: Payload,
    /// Global rank of the sender (for acks and dup suppression, which
    /// operate below the communicator layer).
    pub(crate) gsrc: usize,
    /// Per-(sender → receiver) sequence number; 0 in raw delivery mode.
    pub(crate) seq: u64,
    /// FNV-1a over the wire bytes; 0 when the fault plane is inactive
    /// and always 0 for region payloads (checksumming is wire-path-only,
    /// see the `payload` module docs).
    pub(crate) checksum: u64,
    pub(crate) kind: EnvKind,
    /// Set at intake when checksum verification failed (raw mode only;
    /// reliable mode discards corrupt arrivals instead).
    pub(crate) corrupt: bool,
    /// Causal flow id ([`obs::flow`]); 0 when tracing is disabled and for
    /// acks. Retransmitted copies reuse the original id.
    pub(crate) flow: u64,
}

impl Envelope {
    /// An envelope outside tag matching (ack or host traffic): only the
    /// kind, payload and flow id mean anything.
    pub(crate) fn control(kind: EnvKind, payload: Payload, flow: u64) -> Envelope {
        Envelope {
            ctx: 0,
            src: 0,
            tag: 0,
            depart: 0.0,
            payload,
            gsrc: 0,
            seq: 0,
            checksum: 0,
            kind,
            corrupt: false,
            flow,
        }
    }
}

/// State shared between a rank's thread and every sub-communicator it
/// derives (they all drain the same physical mailbox).
pub(crate) struct RankState {
    pub(crate) rx: Receiver<Envelope>,
    pub(crate) pending: RefCell<Vec<Envelope>>,
    /// Where this rank answers the host; `None` in a hostless job.
    pub(crate) host_tx: Option<HostTx>,
    /// Host posts in arrival order, beside (never inside) `pending`.
    pub(crate) host_inbox: RefCell<VecDeque<(Payload, u64)>>,
    /// Latched by the host's closing envelope; a hostless job starts closed.
    pub(crate) host_closed: Cell<bool>,
    pub(crate) clock: Cell<f64>,
    /// Virtual time at which the NIC finishes serializing every send
    /// posted so far (posted sends queue back-to-back on the wire).
    pub(crate) nic_free: Cell<f64>,
    /// Wall-clock deadline for blocking receives/waits; `None` blocks
    /// forever (see [`CommError::Stalled`]).
    pub(crate) stall_timeout: Option<Duration>,
    pub(crate) stats: RefCell<CommStats>,
    /// This rank's world (global) id, fixed at universe launch.
    pub(crate) world_rank: usize,
    pub(crate) delivery: Delivery,
    pub(crate) fault: FaultPlan,
    /// Fresh data transmissions so far (drives fault decisions).
    pub(crate) send_count: Cell<u64>,
    /// Communication operations so far (drives the kill threshold).
    pub(crate) op_count: Cell<u64>,
    /// Latched once the kill threshold is crossed.
    pub(crate) killed: Cell<bool>,
    /// Next sequence number per destination global rank (reliable mode).
    pub(crate) next_seq: RefCell<Vec<u64>>,
    /// Sequence numbers already delivered, per source global rank.
    pub(crate) seen: RefCell<Vec<std::collections::HashSet<u64>>>,
    /// Sent-but-unacked envelopes awaiting retransmission.
    pub(crate) unacked: RefCell<Vec<Retx>>,
    /// Recycled wire buffers: send paths encode into them, receive paths
    /// return delivered payloads to them (see [`Comm::take_buf`]).
    pub(crate) pool: RefCell<Vec<Vec<u8>>>,
    /// Encoded-equivalent size at or above which zero-copy send paths
    /// ship a region handle instead of encoding (from the config).
    pub(crate) zerocopy_threshold: usize,
    /// Stamp + verify FNV digests on zero-copy regions (from the config).
    pub(crate) region_integrity: bool,
    /// Flow-id domain for causal tracing (`obs::flow`), unique per rank
    /// state within the process so universes never collide.
    pub(crate) flow_domain: u64,
    /// Messages stamped with a flow id so far (sequence within the domain).
    pub(crate) flow_seq: Cell<u64>,
    /// The `comm.sent_msg_bytes` histogram, resolved on the first traced
    /// send: a key lookup takes the registry lock, a cached handle is one
    /// relaxed update per message.
    pub(crate) sent_msg_bytes: std::cell::OnceCell<obs::Histogram>,
}

impl Drop for RankState {
    /// A rank's one export: when its state ends — its program returned
    /// or unwound — its final [`CommStats`] become its `{rank=…}`
    /// registry series, if recording is on.
    fn drop(&mut self) {
        if obs::enabled() {
            self.stats.get_mut().publish(self.world_rank);
        }
    }
}

/// Most buffers a rank's pool retains; excess returns are dropped.
const POOL_MAX: usize = 64;

/// Largest buffer capacity the pool retains. A buffer grown by one huge
/// encode would otherwise pin its high-water allocation for the rest of
/// the rank's life; above this it is dropped (and counted in
/// [`CommStats::buffer_pool_evictions`]). Bulk payloads ride the
/// zero-copy region arm instead of growing pooled buffers.
const POOL_MAX_BUF_BYTES: usize = 64 * 1024;

/// A communicator handle: the single object user code talks to.
///
/// `Comm` is deliberately `!Send`: it lives on the rank's own thread, like
/// an `MPI_Comm` lives in its process.
pub struct Comm {
    rank: usize,
    pub(crate) ctx: u64,
    /// communicator-local rank → global rank
    pub(crate) group: Arc<Vec<usize>>,
    /// global rank → mailbox sender
    pub(crate) senders: Arc<Vec<Sender<Envelope>>>,
    pub(crate) state: Rc<RankState>,
    pub(crate) model: NetworkModel,
    algo: CollectiveAlgo,
    pub(crate) coll_seq: Cell<u64>,
    split_seq: Cell<u64>,
}

fn mix_ctx(parent: u64, seq: u64, color: u64) -> u64 {
    // SplitMix64-style mixing; only needs to be deterministic and
    // collision-resistant across the handful of communicators a job makes.
    let mut z = parent
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(seq)
        .wrapping_mul(0xbf58476d1ce4e5b9)
        .wrapping_add(color)
        .wrapping_add(0x94d049bb133111eb);
    z ^= z >> 31;
    z = z.wrapping_mul(0xd6e8feb86659fd93);
    z ^= z >> 32;
    z | 1 // never collide with the world context 0
}

impl Comm {
    pub(crate) fn new_world(
        rank: usize,
        size: usize,
        senders: Arc<Vec<Sender<Envelope>>>,
        rx: Receiver<Envelope>,
        host_tx: Option<HostTx>,
        config: &crate::universe::UniverseConfig,
    ) -> Self {
        Comm {
            rank,
            ctx: 0,
            group: Arc::new((0..size).collect()),
            senders,
            state: Rc::new(RankState {
                rx,
                pending: RefCell::new(Vec::new()),
                host_closed: Cell::new(host_tx.is_none()),
                host_tx,
                host_inbox: RefCell::new(VecDeque::new()),
                clock: Cell::new(0.0),
                nic_free: Cell::new(0.0),
                stall_timeout: config.stall_timeout,
                stats: RefCell::new(CommStats::default()),
                world_rank: rank,
                delivery: config.delivery,
                fault: config.fault,
                send_count: Cell::new(0),
                op_count: Cell::new(0),
                killed: Cell::new(false),
                next_seq: RefCell::new(vec![0; size]),
                seen: RefCell::new(vec![std::collections::HashSet::new(); size]),
                unacked: RefCell::new(Vec::new()),
                pool: RefCell::new(Vec::new()),
                zerocopy_threshold: config.zerocopy_threshold,
                region_integrity: config.region_integrity,
                flow_domain: obs::flow::next_domain(),
                flow_seq: Cell::new(0),
                sent_msg_bytes: std::cell::OnceCell::new(),
            }),
            model: config.model,
            algo: config.algo,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// This rank's id within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Global (world) rank backing a communicator-local rank.
    pub fn global_rank_of(&self, local: usize) -> usize {
        self.group[local]
    }

    /// The cost model in effect.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Collective algorithm selection (ablated in experiment E12).
    pub fn algo(&self) -> CollectiveAlgo {
        self.algo
    }

    /// Current virtual time of this rank, seconds.
    pub fn virtual_time(&self) -> f64 {
        self.state.clock.get()
    }

    /// Advance this rank's virtual clock by a modeled compute phase.
    pub fn advance_compute(&self, flops: f64) {
        let dt = self.model.compute_time(flops);
        self.state.clock.set(self.state.clock.get() + dt);
        self.state.stats.borrow_mut().modeled_compute_s += dt;
    }

    /// Take a cleared wire buffer from this rank's pool, or allocate a
    /// fresh one if the pool is empty. Return it with [`Comm::put_buf`]
    /// once done so hot paths stop allocating per message; reuse is
    /// counted in [`CommStats::buffer_reuse`].
    pub fn take_buf(&self) -> Vec<u8> {
        match self.state.pool.borrow_mut().pop() {
            Some(mut buf) => {
                buf.clear();
                self.state.stats.borrow_mut().buffer_reuse += 1;
                buf
            }
            None => Vec::new(),
        }
    }

    /// Return a wire buffer to this rank's pool for later reuse. The
    /// pool is bounded both ways — at most 64 entries, none larger
    /// than 64 KiB of capacity — so one large
    /// gather can no longer pin its high-water allocation in the pool.
    /// Refused buffers are dropped and counted in
    /// [`CommStats::buffer_pool_evictions`]; capacity-less buffers never
    /// held memory and are discarded without counting.
    pub fn put_buf(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        if buf.capacity() <= POOL_MAX_BUF_BYTES {
            let mut pool = self.state.pool.borrow_mut();
            if pool.len() < POOL_MAX {
                pool.push(buf);
                return;
            }
        }
        self.state.stats.borrow_mut().buffer_pool_evictions += 1;
    }

    /// Record a hit in a communication-plan cache. The caches themselves
    /// live above `comm` (the `dmap` plan cache, the ODIN worker
    /// exchange-plan cache); this counts the event in
    /// [`CommStats::plan_hits`].
    pub fn record_plan_hit(&self) {
        self.state.stats.borrow_mut().plan_hits += 1;
    }

    /// Record a communication-plan cache miss (a plan was built from
    /// scratch) in [`CommStats::plan_misses`].
    pub fn record_plan_miss(&self) {
        self.state.stats.borrow_mut().plan_misses += 1;
    }

    /// Snapshot of this rank's counters.
    pub fn stats(&self) -> CommStats {
        *self.state.stats.borrow()
    }

    pub(crate) fn check_rank(&self, r: usize) -> Result<(), CommError> {
        if r >= self.size() {
            Err(CommError::InvalidRank {
                rank: r,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }

    /// Send raw bytes to `dest` (communicator-local) with `tag`. Blocking
    /// wrapper over [`Comm::isend_bytes`]: posts the message and settles
    /// the clock immediately, charging the full `o + bytes·G`.
    fn send_bytes(&self, dest: usize, tag: Tag, bytes: Vec<u8>) -> Result<(), CommError> {
        let req = self.isend_bytes_named(dest, tag, bytes, "send")?;
        self.wait(req).map(|_| ())
    }

    /// Send a typed value to `dest` with `tag`. Encodes into a pooled
    /// wire buffer; the receiver's typed `recv` recycles it on its side.
    pub fn send<T: Wire>(&self, dest: usize, tag: Tag, value: &T) -> Result<(), CommError> {
        let mut buf = self.take_buf();
        value.encode(&mut buf);
        self.send_bytes(dest, tag, buf)
    }

    /// The encoded-equivalent size at or above which zero-copy sends
    /// ship a region handle instead of encoding (from the universe
    /// config; see the [`crate::payload`] module).
    pub fn zerocopy_threshold(&self) -> usize {
        self.state.zerocopy_threshold
    }

    /// Whether zero-copy regions are stamped with (and verified against)
    /// an FNV digest of their wire encoding (from the universe config;
    /// see [`crate::UniverseConfig::region_integrity`]).
    pub fn region_integrity(&self) -> bool {
        self.state.region_integrity
    }

    /// Send an owned typed value, taking the zero-copy region arm when
    /// its encoded size reaches the threshold. Blocking wrapper over
    /// [`Comm::isend_zc`]; pair with [`Comm::recv_zc`] on the receiver.
    pub fn send_zc<T>(&self, dest: usize, tag: Tag, value: T) -> Result<(), CommError>
    where
        T: Wire + Send + Sync + 'static,
    {
        let req = self.isend_zc(dest, tag, value)?;
        self.wait(req).map(|_| ())
    }

    /// Receive a typed value sent with either payload arm: wire bytes
    /// decode (and recycle the buffer), regions transfer ownership of
    /// the value itself. The blocking pair of [`Comm::send_zc`].
    pub fn recv_zc<T>(&self, src: Src, tag: Tag) -> Result<(T, Status), CommError>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let req = self.irecv_named(src, tag, "recv")?;
        self.wait_recv_zc(req)
    }

    pub(crate) fn matches(&self, env: &Envelope, src: Src, tag: Tag) -> bool {
        env.ctx == self.ctx
            && env.tag == tag
            && match src {
                Src::Any => true,
                Src::Rank(r) => env.src == r,
            }
    }

    /// Receive raw bytes matching `(src, tag)`; blocks until a match
    /// arrives. Blocking wrapper over [`Comm::irecv`] + [`Comm::wait`].
    fn recv_bytes(&self, src: Src, tag: Tag) -> Result<(Vec<u8>, Status), CommError> {
        let req = self.irecv_named(src, tag, "recv")?;
        let (payload, status) = self
            .wait(req)?
            .expect("receive completion carries a payload");
        Ok((payload.into_wire_bytes()?, status))
    }

    /// Receive a typed value matching `(src, tag)`. The delivered wire
    /// buffer is recycled into this rank's pool after decoding.
    pub fn recv<T: Wire>(&self, src: Src, tag: Tag) -> Result<(T, Status), CommError> {
        let (bytes, status) = self.recv_bytes(src, tag)?;
        let value = decode_from_slice(&bytes)?;
        self.put_buf(bytes);
        Ok((value, status))
    }

    /// Non-blocking check: is a matching message already available?
    /// Drains the mailbox into the pending queue without blocking.
    pub fn probe(&self, src: Src, tag: Tag) -> bool {
        self.drain_mailbox();
        self.pump_retransmits();
        self.state
            .pending
            .borrow()
            .iter()
            .any(|e| self.matches(e, src, tag))
    }

    /// Exchange with a partner: send then receive with the same tag.
    /// Safe against deadlock because sends never block. Built on the
    /// request layer so the outgoing serialization overlaps the wait for
    /// the incoming message.
    pub fn sendrecv<T: Wire, U: Wire>(
        &self,
        dest: usize,
        send_value: &T,
        src: usize,
        tag: Tag,
    ) -> Result<U, CommError> {
        let sreq = self.isend(dest, tag, send_value)?;
        let (v, _) = self.recv::<U>(Src::Rank(src), tag)?;
        self.wait(sreq)?;
        Ok(v)
    }

    /// Split into sub-communicators by `color`. Must be called by every
    /// rank of this communicator. Ranks sharing a color form a new
    /// communicator ordered by their rank in the parent. Returns the new
    /// communicator handle; its messages can never match the parent's.
    pub fn split(&self, color: u64) -> Result<Comm, CommError> {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        let colors: Vec<u64> = self.allgather(&color);
        let group: Vec<usize> = colors
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == color)
            .map(|(r, _)| self.group[r])
            .collect();
        let my_global = self.group[self.rank];
        let new_rank = group
            .iter()
            .position(|&g| g == my_global)
            .expect("own rank must be in its color group");
        Ok(Comm {
            rank: new_rank,
            ctx: mix_ctx(self.ctx, seq, color),
            group: Arc::new(group),
            senders: Arc::clone(&self.senders),
            state: Rc::clone(&self.state),
            model: self.model,
            algo: self.algo,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::universe::Universe;
    use crate::{CommError, Src};

    #[test]
    fn ping_pong() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &42u64).unwrap();
                let (v, st) = comm.recv::<u64>(Src::Rank(1), 8).unwrap();
                assert_eq!(st.src, 1);
                v
            } else {
                let (v, _) = comm.recv::<u64>(Src::Rank(0), 7).unwrap();
                comm.send(0, 8, &(v + 1)).unwrap();
                v
            }
        });
        assert_eq!(out, vec![43, 42]);
    }

    #[test]
    fn tag_matching_reorders() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &String::from("first")).unwrap();
                comm.send(1, 2, &String::from("second")).unwrap();
                String::new()
            } else {
                // Receive in the opposite order of sending.
                let (b, _) = comm.recv::<String>(Src::Rank(0), 2).unwrap();
                let (a, _) = comm.recv::<String>(Src::Rank(0), 1).unwrap();
                format!("{a}/{b}")
            }
        });
        assert_eq!(out[1], "first/second");
    }

    #[test]
    fn src_any_matches_either_sender() {
        let out = Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut got = Vec::new();
                for _ in 0..2 {
                    let (v, st) = comm.recv::<usize>(Src::Any, 5).unwrap();
                    got.push((st.src, v));
                }
                got.sort_unstable();
                got
            } else {
                comm.send(0, 5, &(comm.rank() * 10)).unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn invalid_rank_rejected() {
        Universe::run(2, |comm| {
            let err = comm.send(5, 0, &0u8).unwrap_err();
            assert_eq!(err, CommError::InvalidRank { rank: 5, size: 2 });
        });
    }

    #[test]
    fn self_send_works() {
        let out = Universe::run(1, |comm| {
            comm.send(0, 3, &vec![1.5f64, 2.5]).unwrap();
            let (v, _) = comm.recv::<Vec<f64>>(Src::Rank(0), 3).unwrap();
            v
        });
        assert_eq!(out[0], vec![1.5, 2.5]);
    }

    #[test]
    fn sendrecv_exchanges_between_neighbors() {
        let out = Universe::run(4, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let got: u64 = comm
                .sendrecv(right, &(comm.rank() as u64), left, 9)
                .unwrap();
            got
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn split_separates_contexts() {
        let out = Universe::run(4, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color).unwrap();
            assert_eq!(sub.size(), 2);
            // ranks {0,2} and {1,3}: sum ranks within each sub-communicator
            let world_rank = comm.rank() as u64;
            sub.allreduce(&world_rank, |a: &u64, b: &u64| a + b)
        });
        assert_eq!(out, vec![2, 4, 2, 4]);
    }

    #[test]
    fn virtual_clock_advances_on_messages() {
        let report = Universe::run_report(Default::default(), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &vec![0u8; 1000]).unwrap();
            } else {
                let _ = comm.recv::<Vec<u8>>(Src::Rank(0), 0).unwrap();
            }
        });
        // Receiver clock must include latency + 1008 bytes of transfer.
        let model = crate::NetworkModel::default();
        assert!(report.makespan_s >= model.transfer_time(1008));
    }

    #[test]
    fn probe_sees_pending_message() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, &1u8).unwrap();
            } else {
                // Busy-wait until probe sees it (bounded by test timeout).
                while !comm.probe(Src::Rank(0), 4) {
                    std::thread::yield_now();
                }
                let (v, _) = comm.recv::<u8>(Src::Rank(0), 4).unwrap();
                assert_eq!(v, 1);
            }
        });
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let report = Universe::run_report(Default::default(), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &vec![1.0f64; 10]).unwrap();
            } else {
                let _ = comm.recv::<Vec<f64>>(Src::Rank(0), 0).unwrap();
            }
        });
        assert_eq!(report.stats[0].msgs_sent, 1);
        assert_eq!(report.stats[0].bytes_sent, 88);
        assert_eq!(report.stats[1].msgs_recv, 1);
        assert_eq!(report.stats[1].bytes_recv, 88);
    }

    #[test]
    fn zerocopy_send_transfers_ownership_without_copy() {
        use crate::universe::UniverseConfig;
        let cfg = UniverseConfig::default().with_zerocopy_threshold(1);
        let report = Universe::run_report(cfg, 2, |comm| {
            if comm.rank() == 0 {
                let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
                let ptr = v.as_ptr() as usize;
                comm.send_zc(1, 3, v).unwrap();
                ptr
            } else {
                let (v, st) = comm.recv_zc::<Vec<f64>>(Src::Rank(0), 3).unwrap();
                assert_eq!(st.bytes, 8008, "Status carries the wire-equivalent size");
                assert_eq!(v[999], 999.0);
                v.as_ptr() as usize
            }
        });
        // Raw mode keeps no retransmit copy: the very allocation moved.
        assert_eq!(report.results[0], report.results[1]);
        assert_eq!(report.stats[0].zerocopy_msgs, 1);
        assert_eq!(report.stats[0].zerocopy_bytes, 8008);
        // Byte counters charge the wire-equivalent size on both sides.
        assert_eq!(report.stats[0].bytes_sent, 8008);
        assert_eq!(report.stats[1].bytes_recv, 8008);
    }

    #[test]
    fn zerocopy_below_threshold_takes_the_wire_path() {
        let report = Universe::run_report(Default::default(), 2, |comm| {
            if comm.rank() == 0 {
                comm.send_zc(1, 3, vec![1.0f64; 10]).unwrap();
            } else {
                let (v, _) = comm.recv_zc::<Vec<f64>>(Src::Rank(0), 3).unwrap();
                assert_eq!(v.len(), 10);
            }
        });
        // 88 bytes < default threshold: encoded, not a region.
        assert_eq!(report.stats[0].zerocopy_msgs, 0);
        assert_eq!(report.stats[0].bytes_sent, 88);
    }

    #[test]
    fn modeled_time_is_identical_across_payload_arms() {
        use crate::universe::UniverseConfig;
        // The same traffic with regions forced on vs off must produce a
        // bitwise-identical makespan and byte counts: the LogGP clock
        // charges wire-equivalent bytes either way (the E2/E9/E17
        // invariance the refactor promises).
        let run = |threshold: usize| {
            let cfg = UniverseConfig::default().with_zerocopy_threshold(threshold);
            Universe::run_report(cfg, 2, |comm| {
                if comm.rank() == 0 {
                    comm.send_zc(1, 1, vec![0.5f64; 50_000]).unwrap();
                    comm.recv_zc::<Vec<u64>>(Src::Rank(1), 2).unwrap().1.depart
                } else {
                    comm.recv_zc::<Vec<f64>>(Src::Rank(0), 1).unwrap();
                    comm.send_zc(0, 2, vec![7u64; 20_000]).unwrap();
                    comm.virtual_time()
                }
            })
        };
        let zc = run(1);
        let wire = run(usize::MAX);
        assert!(zc.stats[0].zerocopy_msgs > 0 && wire.stats[0].zerocopy_msgs == 0);
        assert_eq!(zc.makespan_s.to_bits(), wire.makespan_s.to_bits());
        assert_eq!(zc.results[0].to_bits(), wire.results[0].to_bits());
        for (a, b) in zc.stats.iter().zip(&wire.stats) {
            assert_eq!(a.bytes_sent, b.bytes_sent);
            assert_eq!(a.bytes_recv, b.bytes_recv);
            assert_eq!(a.modeled_comm_s.to_bits(), b.modeled_comm_s.to_bits());
        }
    }

    #[test]
    fn pool_drops_oversized_buffers_and_counts_evictions() {
        Universe::run(1, |comm| {
            // Oversized: capacity beyond the per-entry cap is refused.
            comm.put_buf(Vec::with_capacity(super::POOL_MAX_BUF_BYTES + 1));
            assert_eq!(comm.stats().buffer_pool_evictions, 1);
            let got = comm.take_buf();
            assert_eq!(got.capacity(), 0, "oversized buffer must not be pooled");
            assert_eq!(comm.stats().buffer_reuse, 0);
            // Entry cap: the 65th acceptable buffer is refused too.
            for _ in 0..super::POOL_MAX + 1 {
                comm.put_buf(Vec::with_capacity(16));
            }
            assert_eq!(comm.stats().buffer_pool_evictions, 2);
            // Capacity-less buffers never held memory: not an eviction.
            comm.put_buf(Vec::new());
            assert_eq!(comm.stats().buffer_pool_evictions, 2);
        });
    }
}
